import contextlib
import hashlib
import io
import math
import os
import re
import signal
import sys
import textwrap
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from traincost import failure_sim
from traincost.cli import (
    MAX_RANGE_POINTS,
    MAX_REPLICATIONS,
    MAX_YEARS_SPAN,
    VALIDATION_TOLERANCE,
    CliError,
    _narrative,
    cmd_simulate,
    cmd_sweep,
    main,
    parse_range_spec,
    parse_years_spec,
)
from traincost.cluster_model import (
    OPTIMIZED_GROUP_FAILURES,
    ClusterSpec,
    ResilienceConfig,
    SweepVariant,
    expected_runtime,
    optimized_variant,
    sweep_system_size,
)
from traincost.config import _FIELDS, ConfigFile, parse_config, serialize
from traincost.scaling_laws import CostRates, ModelSpec, moe_training_flops
from traincost.tables import format_cell


# Every market curve starts below the run cost, so both crossings are at year 0.0.
YEAR_ZERO_CONFIG = "growth: {base_year: 0}\nmarket: {gpu_base_usd: 1, it_spend_usd: 1}\n"


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
        with pytest.raises(CliError, match=r"^years spec must use integers, got '2023:abc'$"):
            parse_years_spec("2023:abc")

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
        solve = expected_runtime(
            ModelSpec(config.growth.base_params, config.scenario.base_experts),
            config.scaling,
            replace(config.cluster, n_gpus=50_000),
            config.resilience,
        ).solve_h
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
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--gpus", "1024:2048:2:geometric")
        assert code == 2
        header, rows = parse_csv(out)
        assert all(r[header.index("status")] == "NoProgress" for r in rows)
        assert err == (
            "baseline: NoProgress from 1024 GPUs\n"
            "optimized: NoProgress from 1024 GPUs\n"
        )

    @pytest.mark.parametrize("growth", ["growth:\n  base_params: 1e9\n", ""])
    def test_unbounded_checkpoint_write_is_config_error(self, capsys, tmp_path, growth):
        cfg = tmp_path / "huge_memory.yaml"
        cfg.write_text("cluster:\n  gpu_mem_gb: 1e308\n" + growth)
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--gpus", "1024")
        assert code == 1
        assert out == ""
        assert err == "error: checkpoint write time is not finite\n"

    # Cells up to 16,384 GPUs succeed; at 32,768 GPUs the checkpoint volume
    # overflows to inf. Nothing is written unless every cell is computed.
    @pytest.mark.parametrize("out", [[], ["--out", "sweep.csv", "--svg"]],
                             ids=["stdout", "out_and_svg"])
    def test_mid_grid_failure_writes_nothing(self, capsys, tmp_path, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "huge_memory.yaml"
        cfg.write_text("cluster: {gpu_mem_gb: 1.0e+304}\n")
        code, stdout, err = run_cli(capsys, "sweep", "--config", str(cfg),
                                    "--gpus", "1024:262144:9:geometric", *out)
        assert (code, stdout) == (1, "")
        assert err == "error: checkpoint write time is not finite\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge_memory.yaml"]

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
    def test_peak_memory_grows_with_the_csv_not_the_records(self, fresh_python, tmp_path):
        # A cell's CSV line is ~175 bytes; a sweep that also held its records
        # and row tuples grew its peak RSS by ~7.5x the CSV's size. VmHWM is
        # this process's own peak: its ru_maxrss also counts the size of the
        # forking test process before the exec.
        out = tmp_path / "sweep.csv"
        grown, csv_bytes = map(int, fresh_python(textwrap.dedent(f"""
            import contextlib, io, os
            from traincost import cli

            def peak_after(points):
                with contextlib.redirect_stderr(io.StringIO()):
                    cli.main(["sweep", "--gpus", f"1024:262144:{{points}}:geometric",
                              "--out", {str(out)!r}])
                with open("/proc/self/status") as status:
                    kib = next(line for line in status if line.startswith("VmHWM:")).split()[1]
                return int(kib) * 1024

            before = peak_after(9)
            print(peak_after(20_000) - before, os.path.getsize({str(out)!r}))
        """)).split())
        assert csv_bytes > 5_000_000
        assert grown < 3 * csv_bytes, grown / csv_bytes

    # A tiny checkpoint and MTBF make sqrt(2 * delta * M_eff) underflow to 0.0,
    # whatever the restart time.
    @pytest.mark.parametrize("resilience", ["", "resilience:\n  ttr_h: 0\n"],
                             ids=["default_ttr", "zero_ttr"])
    @pytest.mark.parametrize("args", [["sweep"], ["simulate", "--reps", "2"]],
                             ids=["sweep", "simulate"])
    def test_underflowing_checkpoint_interval_is_config_error(
        self, capsys, tmp_path, args, resilience
    ):
        cfg = tmp_path / "underflow.yaml"
        cfg.write_text("cluster:\n  gpu_mem_gb: 1.8e-307\n  gpu_mtbf_h: 1e-17\n" + resilience)
        code, out, err = run_cli(capsys, *args, "--gpus", "1024", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == "error: checkpoint interval underflows to zero\n"

    # The work target flops / speed underflows to 0.0 or overflows to inf.
    @pytest.mark.parametrize("base_params", ["1e-200", "1e200"], ids=["underflow", "overflow"])
    @pytest.mark.parametrize("args", [["sweep"], ["simulate", "--reps", "1"]],
                             ids=["sweep", "simulate"])
    def test_unrepresentable_work_target_is_config_error(
        self, capsys, tmp_path, args, base_params
    ):
        cfg = tmp_path / "work.yaml"
        cfg.write_text(f"growth: {{base_params: {base_params}}}\n")
        code, out, err = run_cli(capsys, *args, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == "error: work target solve_h must be finite and > 0\n"

    def test_reading_names_stalls_and_fastest_point(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--gpus", "131072:262144:3:geometric")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "929a8f4e5a5cfb122e55c4d3464581a225294f02a0e890979b4c25f0fa76e991"
        )
        assert err == (
            "baseline: NoProgress from 131072 GPUs\n"
            "optimized: fastest at 262144 GPUs (1173 h wall-clock)\n"
        )


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

    def test_custom_scenario_is_labelled_custom(self, capsys, tmp_path):
        # The config's scenario starts from the best_case preset but changes
        # it, so its rows and crossing line must not read best_case.
        config = tmp_path / "custom.yaml"
        config.write_text("scenario: {name: best_case, experts_per_year: 2}\n")
        code, out, err = run_cli(
            capsys, "project", "--years", "2023:2024", "--scenario", "best_case,custom",
            "--config", str(config),
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["best_case", "best_case", "custom", "custom"]
        assert rows[1][1:] != rows[3][1:]  # 2024: fewer experts added
        assert err.startswith("best_case: crosses")
        assert "\ncustom: crosses" in err

    @pytest.mark.parametrize("names", ["best_guess,best_guess", "custom, custom",
                                       "best_case,custom,best_case"])
    def test_scenario_named_twice(self, capsys, names):
        code, out, err = run_cli(capsys, "project", "--scenario", names)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "more than once" in err

    def test_crossing_in_the_base_year_zero(self, capsys, tmp_path):
        # A crossing at year 0.0 is a crossing, not "never".
        config = tmp_path / "year_zero.yaml"
        config.write_text(YEAR_ZERO_CONFIG)
        code, _, err = run_cli(capsys, "project", "--years", "0:2", "--config", str(config))
        assert code == 0
        assert "best_guess: crosses GPU installed base in 0.00, IT spending in 0.00\n" in err

    def test_unreached_market_leaves_the_spread_undefined(self, capsys, tmp_path):
        config = tmp_path / "market.yaml"
        config.write_text("market: {gpu_base_usd: 1.0e+60}\n")
        code, _, err = run_cli(capsys, "project", "--config", str(config))
        assert code == 0
        assert err == (
            "best_guess: crosses GPU installed base never, IT spending in 2032.37\n"
            "scenario spread: undefined (a scenario never crosses)\n"
        )

    # The cost crosses both curves in 2023 and overflows from about 2040,
    # past the years asked for; only the crossing scan reaches those years.
    FAST_GROWTH = "growth: {param_growth: 1.0e+15}\n"

    def test_overflow_after_both_crossings_is_not_reached(self, capsys, tmp_path):
        config = tmp_path / "fast.yaml"
        config.write_text(self.FAST_GROWTH)
        code, out, err = run_cli(
            capsys, "project", "--years", "2023:2024", "--config", str(config)
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [r[1] for r in rows] == ["2023", "2024"]
        assert err == (
            "best_guess: crosses GPU installed base in 2023.14, IT spending in 2023.21\n"
            "scenario spread (GPU-base crossing): 0.03 years\n"
        )

    def test_overflow_before_both_crossings_is_an_error(self, capsys, tmp_path):
        config = tmp_path / "fast.yaml"
        config.write_text(self.FAST_GROWTH + "market: {it_spend_usd: 1.0e+300}\n")
        out_path = tmp_path / "out.csv"
        code, out, err = run_cli(
            capsys, "project", "--years", "2023:2024", "--config", str(config),
            "--out", str(out_path),
        )
        assert code == 1
        assert out == ""
        assert err == "error: a result exceeds float range; use smaller inputs\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("config_text, base_year", [
        ("growth: {base_year: 2040}\n", 2040),  # 2023 is more than a decade before it
        (YEAR_ZERO_CONFIG, 0),  # 2023 years of growth overflow float range
    ], ids=["base_year_2040", "base_year_0"])
    @pytest.mark.parametrize("command", [["project"], ["report", "--reps", "2"]],
                             ids=["project", "report"])
    def test_default_years_start_at_the_base_year(
        self, capsys, tmp_path, config_text, base_year, command
    ):
        config = tmp_path / "growth.yaml"
        config.write_text(config_text)
        code, out, _ = run_cli(capsys, *command, "--config", str(config))
        assert code == 0
        scenarios = 1
        if command[0] == "report":
            out = out.split("== cost projection ==\n")[1].split("\n\n")[0]
            scenarios = 3
        header, rows = parse_csv(out)
        years = [int(r[header.index("year")]) for r in rows]
        assert years == list(range(base_year, base_year + 13)) * scenarios


class TestSimulate:
    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "simulate", "--gpus", "50000", "--seed", "9", "--reps", "5")
        _, second, _ = run_cli(capsys, "simulate", "--gpus", "50000", "--seed", "9", "--reps", "5")
        assert first == second

    # At F=5 failures are ridden out with groups down. Two CPUs, so that
    # --workers 2 forks a child on any host.
    def test_worker_count_invisible_in_output(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(failure_sim, "_available_cpus", lambda: 2)
        config = tmp_path / "config.yaml"
        for config_text in ("", "resilience: {ft_f: 5, ttr_h: 8}\n"):
            config.write_text(config_text)
            args = ["simulate", "--gpus", "50000", "--seed", "9", "--reps", "6",
                    "--config", str(config)]
            _, serial, _ = run_cli(capsys, *args, "--workers", "1")
            _, parallel, _ = run_cli(capsys, *args, "--workers", "2")
            assert serial == parallel, config_text

    # A worker that exits without raising, or that the system kills (say,
    # for memory), is an i/o error: exit 3 with one line on stderr naming
    # its exit status, and no traceback. Only the forked child ends; this
    # process runs share 0 to its end.
    @pytest.mark.parametrize("end, status", [
        (lambda: os._exit(3), 3), (lambda: os.kill(os.getpid(), signal.SIGKILL), -9),
    ], ids=["exit_status", "killed"])
    def test_failed_worker_is_io_error(self, capsys, monkeypatch, end, status):
        test_pid = os.getpid()
        real_simulate_run = failure_sim.simulate_run

        def ending_in_the_child(config, index):
            if os.getpid() != test_pid:
                end()
            return real_simulate_run(config, index)

        monkeypatch.setattr(failure_sim, "_available_cpus", lambda: 2)
        monkeypatch.setattr(failure_sim, "simulate_run", ending_in_the_child)
        code, out, err = run_cli(capsys, "simulate", "--reps", "4", "--workers", "2")
        assert (code, out) == (3, "")
        assert err == f"i/o error: simulation share 1 failed (exit status {status})\n"

    # An exception in any share ends one way, whichever process ran it:
    # the share's traceback, then exit 3 with one i/o error line naming the
    # share. Shares at 2 workers are (0, 2) and (1, 3); report simulates
    # with one worker.
    @pytest.mark.parametrize("args, bad, share", [
        (["simulate", "--reps", "4", "--workers", "1"], 0, 0),
        (["simulate", "--reps", "4", "--workers", "2"], 0, 0),
        (["simulate", "--reps", "4", "--workers", "2"], 1, 1),
        (["report", "--reps", "2"], 0, 0),
    ], ids=["one_worker", "share_0", "share_1", "report"])
    def test_fault_in_any_share_is_io_error(self, fresh_python, args, bad, share):
        out = fresh_python(textwrap.dedent(f"""
            import os, sys, tempfile
            from traincost import failure_sim
            from traincost.cli import main

            real_simulate_run = failure_sim.simulate_run

            def outcome(config, index):
                if index == {bad}:
                    raise ArithmeticError("replication {bad}")
                return real_simulate_run(config, index)

            failure_sim._available_cpus = lambda: 2
            failure_sim.simulate_run = outcome
            # During main, fd 1 and fd 2 are files, which a forked child
            # inherits; an exception out of main reaches the real stderr.
            saved = os.dup(1), os.dup(2)
            with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                try:
                    code = main({args!r})
                finally:
                    sys.stdout.flush()
                    sys.stderr.flush()
                    os.dup2(saved[0], 1)
                    os.dup2(saved[1], 2)
                out.seek(0)
                err.seek(0)
                print(repr((code, out.read(), err.read().decode().splitlines()[-1])))
        """))
        assert out == repr((3, b"", f"i/o error: simulation share {share} failed")) + "\n"

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
        assert failure_sim.GENERATOR_NAME in err

    # A range spec is rejected even where it parses to one point.
    @pytest.mark.parametrize("spec", [
        "1024:2048:2:geometric", "50000:90000:1:geometric", "100000:100000:2:linear",
    ], ids=["two_points", "count_one", "deduplicated"])
    def test_range_rejected(self, capsys, spec):
        code, out, err = run_cli(capsys, "simulate", "--gpus", spec)
        assert code == 1
        assert out == ""
        assert err == "error: simulate takes a single --gpus count\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, capsys, workers):
        code, out, err = run_cli(capsys, "simulate", "--reps", "2", "--workers", workers)
        assert code == 1
        assert out == ""
        assert "workers must be >= 1" in err

    @pytest.mark.parametrize("args", [
        ["simulate", "--reps", str(MAX_REPLICATIONS + 1)],
        ["simulate", "--reps", str(10**30), "--workers", "2"],
        ["report", "--reps", str(MAX_REPLICATIONS + 1)],
        ["report", "--reps", str(10**30)],
    ])
    def test_reps_cap(self, capsys, monkeypatch, args):
        def unbounded(*args):
            raise AssertionError("replications started past the cap")

        monkeypatch.setattr(failure_sim, "collect_replications", unbounded)
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert f"more than {MAX_REPLICATIONS} replications" in err

    def test_reps_at_cap_accepted(self, capsys, monkeypatch):
        def instant(config, workers):
            return [(1.0, failure_sim.EventCounts())] * config.replications

        monkeypatch.setattr(failure_sim, "collect_replications", instant)
        code, out, _ = run_cli(capsys, "simulate", "--reps", str(MAX_REPLICATIONS))
        assert code == 0
        assert len(out.splitlines()) == MAX_REPLICATIONS + 1

    # gpu_mem_gb 1e-200 makes tau_h about 9.5e-101 h: a replication would
    # write ~1e105 checkpoints, so the request must be refused up front.
    @pytest.mark.parametrize("args", [["simulate", "--gpus", "1024"], ["report"]])
    def test_too_many_checkpoint_writes_is_config_error(self, cli_process, tmp_path, args):
        cfg = tmp_path / "tiny_checkpoint.yaml"
        cfg.write_text("cluster: {gpu_mem_gb: 1.0e-200}\n")
        done = cli_process(*args, "--reps", "1", "--config", str(cfg), timeout=10)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: checkpoint interval 9.55e-101 h needs up to ")
        bound = failure_sim.MAX_CHECKPOINTS
        assert done.stderr.endswith(f" writes per replication, more than {bound}\n")

    # At 2e17 GPUs tau_h is 8.96e-10 h, which the clock cannot add at the 1e7 h
    # horizon; the request is refused before any replication runs.
    def test_checkpoint_interval_below_clock_resolution_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--gpus", "200000000000000000", "--reps", "1")
        assert (code, out) == (1, "")
        assert err == ("error: checkpoint interval 8.96e-10 h is below the resolution of "
                       "simulated time at the 1e+07 h horizon\n")

    def test_a_million_checkpoint_writes_still_run(self, capsys):
        # One GPU: tau_h is ~7.2 h, so ~1.4e6 writes fit under the horizon.
        code, out, _ = run_cli(capsys, "simulate", "--gpus", "1", "--reps", "1")
        assert code == 0
        _, [row] = parse_csv(out)
        assert 10**6 < int(row[4]) < failure_sim.MAX_CHECKPOINTS

    @pytest.mark.parametrize("reps", [1, 50])
    def test_closed_form_derived_once_per_request(self, monkeypatch, reps):
        calls = []

        def counted(*args):
            calls.append(args)
            return expected_runtime(*args)

        monkeypatch.setattr(failure_sim, "expected_runtime", counted)
        table, _ = cmd_simulate(ConfigFile(), 50_000, 0, reps, workers=1)
        assert len(table.rows) == reps
        assert len(calls) == 1


class TestSimulateVerdict:
    # Every replication censored: the analytic NoProgress verdict at 131,072
    # GPUs passes, the finite one at 50,000 GPUs is infinitely far off.
    @pytest.mark.parametrize("n_gpus, expected", [
        (131_072, "nan (within"),
        (50_000, "inf (OUTSIDE"),
    ])
    def test_cli_prints_the_library_verdict(self, monkeypatch, n_gpus, expected):
        outcomes = [(math.inf, failure_sim.EventCounts())] * 3
        seen = []

        def censored(config, workers):  # starts no process
            seen.append(config)
            return outcomes

        monkeypatch.setattr(failure_sim, "collect_replications", censored)
        _, report = cmd_simulate(ConfigFile(), n_gpus, 0, 3)
        verdict = failure_sim.analytic_verdict(
            seen[0].run.wall_h, failure_sim.summarize(outcomes).mean_wall_h, VALIDATION_TOLERANCE
        )
        word = "within" if verdict.passed else "OUTSIDE"
        assert f"relative error: {verdict.relative_error:.4g} ({word} " in report
        assert f"relative error: {expected} " in report

    def test_censored_run_past_a_finite_closed_form_passes(self, capsys, tmp_path):
        # Failure-free, the closed form is 1.089e7 h, past the 1e7 h horizon,
        # so both replications are censored: judged like NoProgress.
        cfg = tmp_path / "censored.yaml"
        cfg.write_text("cluster: {gpu_mtbf_h: .inf, cpu_mtbf_h: .inf}\n"
                       "growth: {base_params: 1.0e14}\n")
        code, _, err = run_cli(capsys, "simulate", "--reps", "2", "--config", str(cfg))
        assert code == 0
        assert "analytic wall-clock: 1.089e+07 h\n" in err
        assert "relative error: nan (within 20% tolerance)\n" in err


class TestHugeCounts:
    @pytest.mark.parametrize("args, field", [
        (["sweep", "--gpus", "1" + "0" * 400], "n_gpus"),
        (["simulate", "--gpus", "1" + "0" * 400], "n_gpus"),
        (["cost", "1e12", "1" + "0" * 400], "experts"),
    ])
    def test_count_past_float_range_is_config_error(self, capsys, args, field):
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {field} must be")


    # Each request has a result past float range, which would print as an
    # empty cell or as "$inf".
    @pytest.mark.parametrize("config, args", [
        ("", ["cost", "1e308"]),
        ("scaling: {tokens_per_param: 1e300}\n", ["cost", "1e12"]),
        ("cluster: {cost_per_gpu_h: 1e308}\n", ["sweep", "--gpus", "50000"]),
        ("cluster: {cost_per_gpu_h: 1e308}\n", ["project", "--years", "2023:2024"]),
        ("cluster: {cost_per_gpu_h: 1e308}\n", ["report", "--reps", "2"]),
    ], ids=["cost_params", "cost_tokens", "sweep_price", "project_price", "report_price"])
    def test_result_past_float_range_is_config_error(self, capsys, tmp_path, config, args):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(config)
        out_path = tmp_path / "out.csv"
        for out_args in ([], ["--out", str(out_path)]):
            code, out, err = run_cli(capsys, *args, "--config", str(cfg), *out_args)
            assert code == 1
            assert out == ""
            assert err == "error: a result exceeds float range; use smaller inputs\n"
        assert not out_path.exists()


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
        for config_text, message in [
            ("cluster:\n  gpu_mtbf_h: -5\n", "gpu_mtbf_h"),
            ("cluster:\n  gpu_mtbf_h: 1000\nscaling:\n  flop_per_token: 6\n"
             "cluster:\n  gpu_mem_gb: 40\n", "duplicate section 'cluster' (line 5)"),
        ]:
            cfg.write_text(config_text)
            code, out, err = run_cli(capsys, "cost", "1e12", "--config", str(cfg))
            assert (code, out) == (1, "")
            assert message in err

    # argparse alone would exit 2; the module docstring promises 1.
    @pytest.mark.parametrize("args", [
        ["simulate", "--seed", "abc"], [], ["bogus"], ["sweep", "--nope"],
    ], ids=["bad_value", "no_command", "unknown_command", "unknown_flag"])
    def test_bad_arguments_are_config_error(self, capsys, args):
        code, out, err = run_cli(capsys, *args)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

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

    @pytest.mark.parametrize("series, log_x", [
        ([], False),
        ([("a", [(1.0, math.inf), (math.nan, 2.0), (3.0, 0.0)])], False),
        ([("a", [(0.0, 1.0)])], True),
    ], ids=["no_series", "non_finite_or_non_positive_y", "x_zero_on_a_log_axis"])
    def test_line_chart_needs_a_finite_point(self, series, log_x):
        from traincost.svgplot import line_chart

        with pytest.raises(ValueError, match=r"^no finite points to plot$"):
            line_chart(series, "title", "x", "y", log_x=log_x)

    def test_svg_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--gpus", "1024", "--svg")
        assert code == 1
        assert "--out" in err

    @pytest.mark.parametrize("command", [
        ["sweep", "--gpus", "1024:4096:3:geometric"], ["project", "--years", "2023:2025"],
    ])
    def test_svg_never_overwrites_the_csv(self, capsys, tmp_path, command):
        out_path = tmp_path / "chart.svg"
        code, out, err = run_cli(capsys, *command, "--out", str(out_path), "--svg")
        assert code == 1
        assert "would overwrite" in err
        assert out == ""
        assert not out_path.exists()

    def test_dotfile_out_keeps_its_name_in_the_chart(self, capsys, tmp_path):
        # A leading dot starts a name, not an extension, so each dotfile
        # gets its own chart instead of both writing one ".svg".
        for name in (".timings", ".costs"):
            code, _, _ = run_cli(
                capsys, "sweep", "--gpus", "1024:4096:3:geometric",
                "--out", str(tmp_path / name), "--svg",
            )
            assert code == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            ".costs", ".costs.svg", ".timings", ".timings.svg",
        ]

    @pytest.mark.parametrize("gpus, dots, lines", [
        ("92682:131072:2:geometric", 1, 1),  # the baseline is NoProgress at 131,072
        ("50000", 2, 0),
    ])
    def test_one_point_series_is_a_dot(self, capsys, tmp_path, gpus, dots, lines):
        code, _, _ = run_cli(
            capsys, "sweep", "--gpus", gpus, "--out", str(tmp_path / "s.csv"), "--svg"
        )
        assert code == 0
        svg = (tmp_path / "s.svg").read_text()
        assert svg.count("<circle ") == dots
        assert svg.count("<polyline ") == lines

    def test_all_no_progress_skips_the_chart(self, capsys, tmp_path):
        cfg = tmp_path / "hopeless.yaml"
        cfg.write_text("cluster:\n  gpu_mtbf_h: 0.01\n")
        out_path = tmp_path / "np.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--config", str(cfg), "--gpus", "1024:2048:2:geometric",
            "--out", str(out_path), "--svg",
        )
        assert code == 2
        assert out_path.read_text().startswith("n_gpus,")
        assert not (tmp_path / "np.svg").exists()
        assert "no chart written: every cell is NoProgress" in err


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

    def test_it_spending_never_crossed(self, capsys, tmp_path):
        config = tmp_path / "market.yaml"
        config.write_text("market: {it_spend_usd: 1e20}\n")
        code, out, _ = run_cli(capsys, "report", "--reps", "2", "--config", str(config))
        assert code == 0
        assert "crosses the GPU installed-base curve around" in out
        assert "and IT spending never under" in out

    @pytest.mark.parametrize("config_text, stalled", [
        ("resilience: {ttr_h: 30}\n", "baseline strategy makes"),
        ("resilience: {ft_f: 10, ckpt_mem_fraction: 0.1, ttr_h: 100}\n",
         "optimized strategy makes"),
        ("cluster: {gpu_mtbf_h: 1000}\n", "baseline and optimized strategies make"),
    ], ids=["baseline", "optimized", "both"])
    def test_narrative_names_the_strategy_without_progress(self, config_text, stalled):
        # Called directly: with both strategies stalled, report's simulation
        # runs every replication to the horizon.
        text = _narrative(parse_config(config_text))
        assert (
            f"- the {stalled} no progress at 50k GPUs (NoProgress), "
            "so no speed-up is given (~2x).\n"
        ) in text
        assert "x faster than baseline" not in text

    def test_narrative_crossing_in_the_base_year_zero(self):
        text = _narrative(parse_config(YEAR_ZERO_CONFIG))
        assert "crosses the GPU installed-base curve around 0.0 and IT spending around 0.0" in text

    def test_report_deterministic(self, capsys):
        _, a, _ = run_cli(capsys, "report", "--reps", "2", "--seed", "5")
        _, b, _ = run_cli(capsys, "report", "--reps", "2", "--seed", "5")
        assert a == b


def test_missing_results_are_non_finite_numbers():
    # NoProgress and censored results reach the writer as inf; None is no cell.
    assert format_cell(math.inf) == ""
    assert format_cell(math.nan) == ""
    with pytest.raises(TypeError):
        format_cell(None)


@pytest.mark.parametrize("cell, error, message", [
    ("a,b", ValueError, r"^unsupported characters in CSV cell: 'a,b'$"),
    (True, TypeError, r"^unsupported cell type: bool$"),
], ids=["comma", "bool"])
def test_cells_outside_the_contract_are_rejected(cell, error, message):
    with pytest.raises(error, match=message):
        format_cell(cell)


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


_NUMERIC_KEYS = sorted(key for key in _FIELDS if key != "scenario.name")
_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 8, 1.95, 2.5, 2024, 1e12, 1e200]),
    st.floats(-10.0, 1e300, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_NUMERIC_KEYS), _VALUES, max_size=6),
    st.one_of(
        st.tuples(st.just("cost"), st.floats(1.0, 1e300).map(repr), st.integers(1, 64).map(str)),
        st.tuples(st.just("project"), st.just("--years"),
                  st.tuples(st.integers(2000, 2100), st.integers(0, 400))
                  .map(lambda p: f"{p[0]}:{p[0] + p[1]}"),
                  st.just("--scenario"), st.sampled_from(["best_guess", "worst_case,custom"])),
        st.tuples(st.just("sweep"), st.just("--gpus"),
                  st.sampled_from(["1024", "1024:262144:3:geometric"])),
    ),
)
def test_fuzz_planning_requests_exit_cleanly(tmp_path_factory, values, argv):
    # Any config subset and any request either succeeds or exits 1 or 2 with
    # a message: no input reaches the user as a traceback. A cost or project
    # request that succeeds prints no empty cell, and a sweep none in the
    # results of an OK row: only NoProgress results and the MTTIs of
    # infinite MTBFs are left empty.
    sections = {}
    for key, value in values.items():
        section, name = key.split(".")
        sections.setdefault(section, []).append(f"  {name}: {value!r}\n")
    config = tmp_path_factory.mktemp("fuzz") / "config.yaml"
    config.write_text("".join(f"{s}:\n" + "".join(lines) for s, lines in sections.items()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(config)])
    assert code in (0, 1, 2)
    assert code != 1 or err.getvalue().startswith("error: ")
    if code == 0:
        header, rows = parse_csv(out.getvalue())
        if argv[0] == "sweep":
            columns = [header.index(c) for c in ("wall_h", "gpu_hours", "gpu_cost_usd")]
            rows = [[row[c] for c in columns] for row in rows if row[-1] == "OK"]
        assert all(all(row) for row in rows), out.getvalue()


_SWEEP_KEYS = [key for key in _NUMERIC_KEYS if key.startswith(("cluster.", "resilience."))]
_SWEEP_VALUES = st.one_of(
    st.sampled_from([0, 1, 2, 5, 8, 0.5, 1e4, 1e6, 1e30]),
    st.floats(1e-3, 1e7),
)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_SWEEP_KEYS), _SWEEP_VALUES, max_size=6),
    st.integers(1, 10**6),
    st.integers(0, 10**7),
    st.integers(2, 60),
)
def test_fuzz_sweep_reading_matches_its_csv(tmp_path_factory, values, start, span, points):
    # Each strategy's reading names the first of its OK rows with the lowest
    # wall_h and its first NoProgress row; the sweep exits 2 exactly when no
    # row is OK.
    sections = {}
    for key, value in values.items():
        section, name = key.split(".")
        sections.setdefault(section, []).append(f"  {name}: {value!r}\n")
    config = tmp_path_factory.mktemp("fuzz") / "config.yaml"
    config.write_text("".join(f"{s}:\n" + "".join(lines) for s, lines in sections.items()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", "--gpus", f"{start}:{start + span}:{points}:geometric",
                     "--config", str(config)])
    if code == 1:
        return
    header, rows = parse_csv(out.getvalue())
    n_col, name_col = header.index("n_gpus"), header.index("config")
    wall_col, status_col = header.index("wall_h"), header.index("status")
    expected = []
    for name in dict.fromkeys(row[name_col] for row in rows):
        own = [row for row in rows if row[name_col] == name]
        ok = [row for row in own if row[status_col] == "OK"]
        stalled = [row for row in own if row[status_col] == "NoProgress"]
        assert len(ok) + len(stalled) == len(own)
        reading = []
        if ok:
            fastest = min(ok, key=lambda row: float(row[wall_col]))
            reading.append(f"fastest at {fastest[n_col]} GPUs "
                           f"({float(fastest[wall_col]):.0f} h wall-clock)")
        if stalled:
            reading.append(f"NoProgress from {stalled[0][n_col]} GPUs")
        expected.append(f"{name}: {'; '.join(reading)}\n")
    assert err.getvalue() == "".join(expected)
    assert code == (0 if any(row[status_col] == "OK" for row in rows) else 2)


_MTBF = st.one_of(st.just(math.inf), st.floats(1e-2, 1e9))


@st.composite
def sweep_configs(draw):
    """A config with random cluster and resilience values, and a third strategy."""
    cluster = ClusterSpec(
        n_gpus=1,
        gpus_per_cpu=draw(st.integers(1, 16)),
        gpu_mtbf_h=draw(_MTBF),
        cpu_mtbf_h=draw(_MTBF),
        gpu_mem_gb=draw(st.floats(1e-3, 1e4)),
        fs_bw_gbs=draw(st.floats(1.0, 1e5)),
        gpus_per_group=draw(st.integers(1, 4096)),
        rates=CostRates(sustained_flops_per_gpu=draw(st.floats(1e12, 1e16))),
    )
    tolerated = draw(st.integers(0, 20))
    resilience = ResilienceConfig(
        ckpt_mem_fraction=draw(st.floats(0.01, 1.0)),
        tolerated_group_failures=tolerated,
        # Above the optimized strategy's tolerance too, which the CLI sweeps.
        group_count_cap=draw(st.integers(max(tolerated, OPTIMIZED_GROUP_FAILURES) + 1, 200)),
        ttr_h=draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0))),
        seq_fraction=draw(st.floats(0.0, 0.5)),
    )
    third = SweepVariant("third", replace(resilience, ttr_h=0.0),
                         draw(st.one_of(st.none(), st.floats(1.0, 1e5))))
    return ConfigFile(cluster=cluster, resilience=resilience), third


@settings(max_examples=150, deadline=None)
@given(sweep_configs(), st.lists(st.integers(1, 10**9), min_size=1, max_size=12, unique=True))
def test_fuzz_sweep_cells_equal_expected_runtime_and_csv_rows(drawn, sizes):
    # Every streamed cell is the record expected_runtime gives at its size with
    # its strategy's bandwidth, and cmd_sweep's row is that record's fields.
    config, third = drawn
    grid = sorted(sizes)
    res = config.resilience
    variants = [SweepVariant("baseline", res), optimized_variant(res), third]
    model = ModelSpec(config.growth.base_params, config.scenario.base_experts)
    expected = []
    try:
        for n_gpus in grid:
            for variant in variants:
                cluster = replace(config.cluster, n_gpus=n_gpus)
                if variant.fs_bw_gbs is not None:
                    cluster = replace(cluster, fs_bw_gbs=variant.fs_bw_gbs)
                expected.append((n_gpus, variant.name, expected_runtime(
                    model, config.scaling, cluster, variant.resilience)))
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            sweep_system_size(model, config.scaling, config.cluster, variants, grid)
        return
    assert sweep_system_size(model, config.scaling, config.cluster, variants, grid) == expected

    flops = moe_training_flops(model, config.scaling)
    rows = [(n_gpus, name, float(model.params), model.experts, flops, run.mtti_h,
             run.mtti_eff_h, run.delta_h, run.tau_h, run.efficiency, run.wall_h, run.gpu_hours,
             run.gpu_dollars, run.status)
            for n_gpus, name, run in expected if name != "third"]
    if any(row[-1] == "OK" and not all(map(math.isfinite, row[-4:-1])) for row in rows):
        with pytest.raises(OverflowError):
            cmd_sweep(config, grid)
        return
    table, _, _ = cmd_sweep(config, grid)
    assert table.rows == [",".join(map(format_cell, row)) + "\n" for row in rows]


def test_planning_requests_skip_simulator_imports(fresh_python, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("cluster:\n  fs_bw_gbs: 900  # GB/s\nresilience: {ft_f: 1, ttr_h: 4}\n")
    out = fresh_python(textwrap.dedent(f"""
        import contextlib, io, sys
        from traincost import cli

        heavy = ("yaml", "traincost.failure_sim", "traincost.svgplot", "numpy", "hashlib",
                 "_hashlib", "multiprocessing", "concurrent.futures.process", "statistics")
        chart = {str(tmp_path / "chart.csv")!r}
        for argv in (
            ["cost", "1e12", "8"], ["sweep"], ["project"], ["project", "--svg", "--out", chart],
            ["simulate", "--reps", "2", "--workers", "2"], ["simulate", "--reps", "2"],
            ["report", "--reps", "2"],
        ):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main([*argv, "--config", {str(config)!r}]) == 0
            print(argv[0], *[name for name in heavy if name in sys.modules])
    """))
    *planning, charted, forked, serial, report = out.splitlines()
    assert planning == ["cost", "sweep", "project"]
    assert charted == "project traincost.svgplot"
    # Forking needs neither multiprocessing nor a pool, and the gaps come
    # from random, so no request, forked or serial, loads hashlib (OpenSSL).
    simulator = ["traincost.failure_sim", "traincost.svgplot", "statistics"]
    assert forked.split() == serial.split() == ["simulate", *simulator]
    assert report.split() == ["report", *simulator]


def test_package_exports_the_simulator_on_first_use(fresh_python):
    out = fresh_python(textwrap.dedent("""
        import sys
        import traincost
        print("traincost.failure_sim" in sys.modules)
        from traincost import (
            SimConfig, SimResult, analytic_verdict, collect_replications, simulate_run, summarize,
            validate_analytic,
        )
        from traincost import failure_sim
        print(SimConfig is failure_sim.SimConfig,
              collect_replications is failure_sim.collect_replications,
              summarize is failure_sim.summarize)
        print(all(hasattr(traincost, name) for name in traincost.__all__))
        try:
            traincost.no_such_name
        except AttributeError as exc:
            print(exc)
    """))
    assert out.splitlines() == [
        "False",
        "True True True",
        "True",
        "module 'traincost' has no attribute 'no_such_name'",
    ]
