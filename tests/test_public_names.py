"""Every public name in the package has a reader.

A top-level function, class or assignment in src/traincost/ whose name has
no leading underscore must be named, beyond its own definition, in the code
or string literals of src/, perfbench/, tools/ or the acceptance criteria.
Comments and docstrings do not count, nor do the package's re-exports in
__init__.py: a name that only tests or prose read is dead code. A name that
an open ROADMAP item needs waits in WAITING until that item gives it a reader.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "traincost"
READERS = [
    *(path for path in sorted((ROOT / "src").rglob("*.py")) if path != PACKAGE / "__init__.py"),
    *sorted((ROOT / "perfbench").rglob("*.py")),
    *sorted((ROOT / "tools").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
WAITING = {"trace_table": "ROADMAP item 6"}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    starts = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            value = node.body[0].value
            starts.add((value.lineno, value.col_offset))
    return starts


def _words(path: Path) -> Counter:
    """How often each word appears in a file's code and string literals."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(ast.parse(source))
    words = Counter()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT or token.start in docstrings:
            continue
        words.update(re.findall(r"\w+", token.string))
    return words


def _public_definitions(path: Path) -> Counter:
    """How often each public name is bound at a module's top level."""
    names = Counter()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] += 1
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return Counter({name: k for name, k in names.items() if not name.startswith("_")})


def test_every_public_name_has_a_reader():
    read, bound = Counter(), Counter()
    for path in READERS:
        read += _words(path)
    for module in PACKAGE.glob("*.py"):
        bound += _public_definitions(module)
    unread = sorted(name for name in bound if read[name] <= bound[name])
    assert unread == sorted(WAITING)
