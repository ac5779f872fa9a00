"""The README's command lines and config example stay true.

The README is where the experiments are documented; a renamed or removed
flag must fail here. Lines are only parsed, never run. Its config example
spells out every key at its default value.
"""

import re
import shlex
from pathlib import Path

from traincost.cli import CliError, build_parser
from traincost.config import ConfigFile, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return [
        line for block in blocks for line in block.splitlines()
        if line.startswith("traincost ")
    ]


def test_readme_commands_parse():
    lines = readme_commands()
    assert lines, "no traincost command lines found in the README"
    bad = []
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except CliError as exc:
            bad.append(f"{line}: {exc}")
    assert not bad, "\n".join(bad)


def test_readme_config_spells_every_default():
    blocks = re.findall(r"^```yaml\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    config = parse_config(blocks[0])
    assert config == ConfigFile()
    assert config.defaulted == ()
