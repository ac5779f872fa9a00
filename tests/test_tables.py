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
