"""Fixed-contract CSV tables.

Every subcommand emits a table with a fixed column set.  Numbers are
serialized as round-trippable decimals (17 significant digits) and
non-finite numbers (a NoProgress or censored result) as empty cells;
output bytes are a pure function of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def format_cell(value) -> str:
    if isinstance(value, str):
        if "," in value or "\n" in value or '"' in value:
            raise ValueError(f"unsupported characters in CSV cell: {value!r}")
        return value
    if isinstance(value, bool):
        raise TypeError("boolean cells are not part of any table contract")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return ""
        return format(value, ".17g")
    raise TypeError(f"unsupported cell type: {type(value).__name__}")


@dataclass(frozen=True)
class CsvTable:
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError(
                    f"row has {len(row)} cells, header has {len(self.header)}"
                )

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        lines.extend(",".join(format_cell(cell) for cell in row) for row in self.rows)
        return "\n".join(lines) + "\n"
