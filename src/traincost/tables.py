"""Fixed-contract CSV tables.

Every subcommand emits a table with a fixed column set.  Numbers are
serialized as round-trippable decimals (17 significant digits) and
non-finite numbers (a NoProgress or censored result) as empty cells;
output bytes are a pure function of the rows.  A table holds its
formatted lines, not its cells: each row is checked and formatted as it
arrives, so the rows can come from a generator that is never held.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator


def format_cell(value) -> str:
    # A cell is an exact float, int or str; a subclass (bool included) is none.
    # For a float, "%.17g" % value gives format(value, ".17g")'s bytes, faster.
    cls = type(value)
    if cls is float:
        return "%.17g" % value if math.isfinite(value) else ""
    if cls is int:
        return str(value)
    if cls is str:
        if "," in value or "\n" in value or '"' in value:
            raise ValueError(f"unsupported characters in CSV cell: {value!r}")
        return value
    raise TypeError(f"unsupported cell type: {cls.__name__}")


class CsvTable:
    """A header and its rows, each row kept as its CSV line (newline included)."""

    def __init__(self, header: tuple[str, ...], rows: Iterable[tuple]):
        self.header = header
        self.rows: list[str] = []
        append = self.rows.append
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row has {len(row)} cells, header has {len(header)}")
            append(",".join(map(format_cell, row)) + "\n")

    def lines(self) -> Iterator[str]:
        """The header's line, then every row's."""
        yield ",".join(self.header) + "\n"
        yield from self.rows

    def to_csv(self) -> str:
        return "".join(self.lines())
