import textwrap
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from traincost.cli import (
    MAX_RANGE_POINTS,
    MAX_YEARS_SPAN,
    CliError,
    main,
    parse_range_spec,
    parse_years_spec,
)
from traincost.cluster_model import solve_hours
from traincost.config import ConfigFile, parse_config, serialize
from traincost.scaling_laws import ModelSpec


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRangeSpecs:
    def test_geometric_power_of_two_grid(self):
        assert parse_range_spec("1024:262144:9:geometric") == [1024 * 2**i for i in range(9)]

    def test_linear(self):
        assert parse_range_spec("10:50:5:linear") == [10, 20, 30, 40, 50]

    def test_single_value(self):
        assert parse_range_spec("50000") == [50000]

    def test_single_point_range(self):
        assert parse_range_spec("64:512:1:linear") == [64]

    def test_years(self):
        assert parse_years_spec("2023:2026") == [2023, 2024, 2025, 2026]

    @pytest.mark.parametrize(
        "spec", ["1024:2:9:geometric", "a:b:c:linear", "1:2:3", "1:10:3:cubic", "0:10:2:linear"]
    )
    def test_bad_range_specs(self, spec):
        with pytest.raises(CliError):
            parse_range_spec(spec)

    def test_bad_years(self):
        with pytest.raises(CliError):
            parse_years_spec("2030:2020")

    def test_point_cap(self):
        assert len(parse_range_spec(f"1:{10**9}:{MAX_RANGE_POINTS}:linear")) == MAX_RANGE_POINTS
        with pytest.raises(CliError, match="more than 100000 points"):
            parse_range_spec(f"1:10:{MAX_RANGE_POINTS + 1}:linear")

    def test_years_cap(self):
        assert len(parse_years_spec(f"2000:{2000 + MAX_YEARS_SPAN}")) == MAX_YEARS_SPAN + 1
        with pytest.raises(CliError, match="more than 1000 years"):
            parse_years_spec(f"2000:{2001 + MAX_YEARS_SPAN}")

    @pytest.mark.parametrize("args", [
        ["sweep", "--gpus", "1:10:1000000000:linear"],
        ["simulate", "--gpus", "1:10:1000000000:geometric"],
        ["project", "--years", "0:1000000000"],
    ])
    def test_oversized_request_is_config_error(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert "more than" in err


class TestCost:
    def test_one_trillion_dense_flops_exact(self, capsys):
        code, out, err = run_cli(capsys, "cost", "1e12", "1")
        assert code == 0
        header, rows = parse_csv(out)
        assert float(rows[0][header.index("flops")]) == 1.2e26
        assert "FLOP" in err

    def test_expert_division(self, capsys):
        _, out, _ = run_cli(capsys, "cost", "1e12", "8")
        header, rows = parse_csv(out)
        assert float(rows[0][header.index("flops")]) == 1.5e25

    def test_negative_params_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "cost", "-1")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("params", ["nan", "inf", "1e400"])
    def test_non_finite_params_is_config_error(self, capsys, params):
        code, out, err = run_cli(capsys, "cost", params)
        assert code == 1
        assert out == ""
        assert "params must be finite" in err


class TestSweep:
    def test_failure_free_single_point_wall_equals_solve(self, capsys, tmp_path):
        cfg = tmp_path / "reliable.yaml"
        cfg.write_text("cluster:\n  gpu_mtbf_h: 1e30\n  cpu_mtbf_h: 1e30\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--gpus", "50000")
        assert code == 0
        header, rows = parse_csv(out)
        config = parse_config(cfg.read_text())
        solve = solve_hours(
            ModelSpec(config.growth.base_params, config.scenario.base_experts),
            config.scaling,
            replace(config.cluster, n_gpus=50_000),
            config.resilience,
        )
        baseline = [r for r in rows if r[header.index("config")] == "baseline"][0]
        assert float(baseline[header.index("wall_h")]) == solve

    def test_contract_columns(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--gpus", "1024:4096:3:geometric")
        header, rows = parse_csv(out)
        assert header == [
            "n_gpus", "config", "params", "experts", "flops", "mtti_h", "mtti_eff_h",
            "ckpt_h", "tau_h", "efficiency", "wall_h", "gpu_hours", "gpu_cost_usd", "status",
        ]
        assert len(rows) == 6  # 3 sizes x {baseline, optimized}

    def test_no_progress_cells_have_empty_wall(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--gpus", "262144")
        header, rows = parse_csv(out)
        baseline = [r for r in rows if r[header.index("config")] == "baseline"][0]
        assert baseline[header.index("status")] == "NoProgress"
        assert baseline[header.index("wall_h")] == ""
        assert baseline[header.index("tau_h")] != ""

    def test_all_no_progress_exit_code(self, capsys, tmp_path):
        cfg = tmp_path / "hopeless.yaml"
        cfg.write_text("cluster:\n  gpu_mtbf_h: 0.01\n")
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--gpus", "1024:2048:2:geometric")
        assert code == 2
        header, rows = parse_csv(out)
        assert all(r[header.index("status")] == "NoProgress" for r in rows)


class TestProject:
    def test_thirteen_rows_strictly_increasing(self, capsys):
        code, out, err = run_cli(
            capsys, "project", "--years", "2023:2035", "--scenario", "best_guess"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 13
        costs = [float(r[header.index("gpu_cost_usd")]) for r in rows]
        assert all(b > a for a, b in zip(costs, costs[1:]))
        assert "crosses GPU installed base" in err

    def test_multiple_scenarios(self, capsys):
        _, out, _ = run_cli(
            capsys, "project", "--years", "2023:2024",
            "--scenario", "best_case,best_guess,worst_case",
        )
        header, rows = parse_csv(out)
        assert len(rows) == 6
        assert {r[0] for r in rows} == {"best_case", "best_guess", "worst_case"}

    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli(capsys, "project", "--scenario", "utopia")
        assert code == 1
        assert "utopia" in err


class TestSimulate:
    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "simulate", "--gpus", "50000", "--seed", "9", "--reps", "5")
        _, second, _ = run_cli(capsys, "simulate", "--gpus", "50000", "--seed", "9", "--reps", "5")
        assert first == second

    def test_worker_count_invisible_in_output(self, capsys):
        args = ["simulate", "--gpus", "50000", "--seed", "9", "--reps", "6"]
        _, serial, _ = run_cli(capsys, *args, "--workers", "1")
        _, parallel, _ = run_cli(capsys, *args, "--workers", "2")
        assert serial == parallel

    def test_seed_changes_output(self, capsys):
        _, a, _ = run_cli(capsys, "simulate", "--seed", "1", "--reps", "3")
        _, b, _ = run_cli(capsys, "simulate", "--seed", "2", "--reps", "3")
        assert a != b

    def test_report_summary_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--reps", "3", "--seed", "4")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["replication", "wall_h", "failures", "repairs", "checkpoints", "interrupts"]
        assert len(rows) == 3
        assert "philox4x64" in err

    def test_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--gpus", "1024:2048:2:geometric")
        assert code == 1

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, capsys, workers):
        code, out, err = run_cli(capsys, "simulate", "--reps", "2", "--workers", workers)
        assert code == 1
        assert out == ""
        assert "workers must be >= 1" in err


class TestOutputsAndExitCodes:
    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "cost.csv"
        code, out, _ = run_cli(capsys, "cost", "1e12", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("params,")

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "cost", "1e12", "--out", str(tmp_path / "no" / "dir.csv"))
        assert code == 3

    def test_bad_config_file_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("cluster:\n  gpu_mtbf_h: -5\n")
        code, _, err = run_cli(capsys, "cost", "1e12", "--config", str(cfg))
        assert code == 1
        assert "gpu_mtbf_h" in err

    def test_missing_config_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "cost", "1e12", "--config", str(tmp_path / "nope.yaml"))
        assert code == 3

    def test_default_transparency(self, capsys, tmp_path):
        explicit = tmp_path / "explicit.yaml"
        explicit.write_text(serialize(ConfigFile()))
        _, bare, _ = run_cli(capsys, "cost", "3e12", "7")
        _, from_file, _ = run_cli(capsys, "cost", "3e12", "7", "--config", str(explicit))
        assert bare == from_file


class TestSvg:
    def test_sweep_svg_written(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--gpus", "1024:65536:5:geometric",
            "--out", str(out_path), "--svg",
        )
        assert code == 0
        svg = (tmp_path / "sweep.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_project_svg_deterministic(self, capsys, tmp_path):
        args = ["project", "--years", "2023:2030", "--svg"]
        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        run_cli(capsys, *args, "--out", str(a_path))
        run_cli(capsys, *args, "--out", str(b_path))
        assert (tmp_path / "a.svg").read_text() == (tmp_path / "b.svg").read_text()

    def test_svg_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--gpus", "1024", "--svg")
        assert code == 1
        assert "--out" in err


class TestReport:
    def test_report_bundle(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--reps", "3", "--seed", "5")
        assert code == 0
        for section in (
            "== ideal cost: 1T-parameter dense model ==",
            "== time-to-train vs system size ==",
            "== cost projection ==",
            "== market crossings ==",
            "== simulation vs closed form ==",
            "== narrative ==",
        ):
            assert section in out

    def test_report_deterministic(self, capsys):
        _, a, _ = run_cli(capsys, "report", "--reps", "2", "--seed", "5")
        _, b, _ = run_cli(capsys, "report", "--reps", "2", "--seed", "5")
        assert a == b


def test_csv_numbers_round_trip(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--gpus", "50000")
    header, rows = parse_csv(out)
    wall = rows[0][header.index("wall_h")]
    assert float(wall) == float(repr(float(wall)))
    assert len(wall.replace(".", "").replace("-", "").lstrip("0")) >= 10


_INTS = st.one_of(st.integers(-3, 3000), st.integers(), st.integers(10**300, 10**400))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=30),
    st.tuples(_INTS, _INTS, _INTS,
              st.sampled_from(["linear", "geometric", "cubic"])).map(
        lambda parts: ":".join(map(str, parts))),
))
def test_fuzz_range_spec_raises_only_cli_error(spec):
    try:
        points = parse_range_spec(spec)
    except CliError:
        return
    assert points and all(b > a for a, b in zip(points, points[1:]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(max_size=30),
    st.tuples(st.integers(), st.integers()).map(lambda p: f"{p[0]}:{p[0] + p[1]}"),
))
def test_fuzz_years_spec_raises_only_cli_error(spec):
    try:
        years = parse_years_spec(spec)
    except CliError:
        return
    assert years == list(range(years[0], years[-1] + 1))


def test_planning_requests_skip_simulator_imports(fresh_python):
    out = fresh_python(textwrap.dedent("""
        import contextlib, io, sys
        from traincost import cli

        heavy = ("numpy", "multiprocessing", "concurrent.futures.process", "statistics")
        for argv in (["cost", "1e12", "8"], ["sweep"], ["project"], ["simulate", "--reps", "2"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0
            print(argv[0], *[name for name in heavy if name in sys.modules])
    """))
    *planning, simulate = out.splitlines()
    assert planning == ["cost", "sweep", "project"]
    assert "numpy" in simulate.split()
