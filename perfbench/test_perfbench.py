"""Tests of the benchmark itself: python -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402
from traincost import cli  # noqa: E402


def _requests(workload: str, seed: int, count: int = 5) -> bytes:
    blocks = itertools.islice(workloads.blocks(workload, seed), count)
    return workloads.dump([r for block in blocks for r in block])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_request_list(workload):
    assert _requests(workload, 7) == _requests(workload, 7)
    assert _requests(workload, 7) != _requests(workload, 8)


def _run_cli(request, tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(workloads.config_text(request.config))
    out = tmp_path / "out.csv"
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(request.argv(str(config), str(out)))
    return code, out.read_text()


@pytest.mark.parametrize("kind", ["cost", "sweep", "project"])
def test_checker_flags_a_corrupted_cell_and_a_wrong_exit_code(kind, tmp_path):
    request = next(r for r in next(workloads.blocks("plan", 3)) if r.kind == kind)
    request.params["svg"] = False
    want = check.expected(request)
    code, text = _run_cli(request, tmp_path)
    assert check.problems(request, code, text, want) == []

    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[-1] = cells[-1] + "0"
    corrupted = "\n".join([header, ",".join(cells), rest])
    assert any("row 0" in p for p in check.problems(request, code, corrupted, want))
    assert any("exit code" in p for p in check.problems(request, code + 1, text, want))


def test_checker_flags_a_wrong_simulated_replication(tmp_path):
    request = next(workloads.blocks("sim_degraded", 3))[0]
    request.params.update(reps=4, workers=1)
    want = check.expected(request)
    code, text = _run_cli(request, tmp_path)
    assert check.problems(request, code, text, want) == []
    lines = text.split("\n")
    index = request.params["seed"] % 4 + 1
    lines[index] = lines[index].rsplit(",", 1)[0] + ",999"
    assert check.problems(request, code, "\n".join(lines), want)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_metrics_are_the_declared_ones(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
