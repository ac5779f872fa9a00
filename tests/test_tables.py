import math
import re

import pytest
from hypothesis import given, strategies as st

from traincost.cli import (
    cmd_cost,
    cmd_project,
    cmd_simulate,
    cmd_sweep,
    default_years,
    main,
    parse_range_spec,
)
from traincost.config import ConfigFile
from traincost.projection import SCENARIOS
from traincost.tables import CsvTable, format_cell

CELLS = st.one_of(
    st.integers(),
    st.floats(),  # inf and nan included: they are empty cells
    st.text(st.characters(blacklist_characters=',\n"'), max_size=12),
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 6))
    header = tuple(draw(st.lists(st.text("abcdefgh_", min_size=1, max_size=8),
                                 min_size=width, max_size=width)))
    rows = draw(st.lists(st.tuples(*[CELLS] * width), max_size=20))
    return header, rows


@given(tables())
def test_lines_are_the_joined_cells(table):
    header, rows = table
    former = [",".join(format_cell(cell) for cell in row) for row in rows]
    csv = CsvTable(header, iter(rows))
    assert csv.rows == [line + "\n" for line in former]
    assert csv.to_csv() == "\n".join([",".join(header), *former]) + "\n"


def reference_format_cell(value) -> str:
    """format_cell's contract by isinstance: exact str, int and float cells only."""
    if type(value) not in (str, int, float):
        raise TypeError(f"unsupported cell type: {type(value).__name__}")
    if isinstance(value, str):
        if "," in value or "\n" in value or '"' in value:
            raise ValueError(f"unsupported characters in CSV cell: {value!r}")
        return value
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        return ""
    return format(value, ".17g")


class IntCell(int):
    def __str__(self):
        return "int subclass"


class FloatCell(float):
    def __format__(self, spec):
        return "float subclass"


class StrCell(str):
    pass


ANY_CELL = st.one_of(
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
                     math.nan, 2.0**53 + 1, 0.1]),
    st.integers(),
    st.sampled_from([-1, 10**400, -(10**400), 10**5000, True, False, None, b"1", 1j]),
    st.text(max_size=8),
    st.sampled_from(["a,b", 'say "hi"', "two\nlines", ""]),
    # Subclasses are outside the contract, however they print: each raises TypeError.
    st.builds(IntCell, st.integers()),
    st.builds(FloatCell, st.floats()),
    st.builds(StrCell, st.sampled_from(["plain", "a,b"])),
)


@given(ANY_CELL)
def test_format_cell_matches_reference(value):
    try:
        want = reference_format_cell(value)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            format_cell(value)
    else:
        assert format_cell(value) == want


def test_wrong_width_row_from_a_generator():
    def rows():
        yield (1, 2.5)
        yield ("short",)

    with pytest.raises(ValueError, match=r"^row has 1 cells, header has 2$"):
        CsvTable(("a", "b"), rows())


CONFIG = ConfigFile()
THREE = [SCENARIOS[name] for name in ("best_case", "best_guess", "worst_case")]


@pytest.mark.parametrize("argv, table", [
    (["cost", "1e12", "8"], lambda: cmd_cost(CONFIG, 1e12, 8)[0]),
    (["sweep", "--gpus", "1024:262144:50:geometric"],
     lambda: cmd_sweep(CONFIG, parse_range_spec("1024:262144:50:geometric"))[0]),
    (["project", "--scenario", "best_case,best_guess,worst_case"],
     lambda: cmd_project(CONFIG, default_years(CONFIG), THREE)[0]),
    (["simulate", "--reps", "5"], lambda: cmd_simulate(CONFIG, 50_000, 0, 5)[0]),
], ids=["cost", "sweep", "project", "simulate"])
def test_main_writes_the_lines_that_to_csv_joins(capsys, tmp_path, argv, table):
    out = tmp_path / "table.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert main(argv) == 0
    expected = table().to_csv()
    assert out.read_text(encoding="utf-8") == expected
    assert capsys.readouterr().out == expected
