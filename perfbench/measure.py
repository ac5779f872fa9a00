"""The measurements of one benchmark run: end to end, or traced per layer.

Importing this module imports traincost, so src must be on sys.path first.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import check
import spans
import workloads
from traincost import cli, failure_sim

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # scratch files, and the span files kept

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120
PROBE_LOOP = 200_000


def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop, to tell host drift from code changes."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(args: list[str], stderr_path: Path) -> tuple[float, int, float, float]:
    """Run `python args...`; returns (wall s, exit code, user+sys CPU s, max RSS MB).

    CPU time and RSS come from wait4, so they include the pool workers the
    child waited for.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


class Run:
    """One benchmark run: its scratch directory, counts and the problems found.

    Use it as a context manager; the scratch directory is removed on exit.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.probes: list[float] = []
        self.note = ""
        self._files = 0

    def __enter__(self):
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)

    def path(self, suffix: str) -> Path:
        self._files += 1
        return self.work / f"{self._files}{suffix}"

    def write_config(self, config: dict) -> Path:
        path = self.path(".yaml")
        path.write_text(workloads.config_text(config), encoding="utf-8")
        return path

    def record(self, request, exit_code: int, out: Path, want) -> None:
        self.attempted += 1
        found = check.problems(request, exit_code, _read(out), want)
        self.failed += bool(found)
        self.problems.extend(f"{request.kind} {request.params}: {p}" for p in found)

    def blocks_until_deadline(self):
        """The workload's blocks, until --seconds have passed at a block's end."""
        deadline = time.perf_counter() + self.seconds
        for block in workloads.blocks(self.workload, self.seed):
            yield block
            self.probes.append(host_probe_ms())
            if time.perf_counter() >= deadline:
                return

    # -- end to end -------------------------------------------------------

    def _setup_once(self, config: Path) -> float:
        """A fresh interpreter imports traincost.cli and loads the workload's config."""
        load = ("import sys, traincost.cli, traincost.config; "
                "traincost.config.load_config(sys.argv[1])")
        return run_child(["-c", load, str(config)], self.path(".err"))[0]

    def end_to_end(self) -> dict[str, float]:
        # Set-up is sampled before the loop and after every block, so its
        # median spans the same stretch of host time as the requests.
        setup_config = self.write_config(workloads.setup_config(self.workload))
        self._setup_once(setup_config)  # writes bytecode caches
        setup = [self._setup_once(setup_config) for _ in range(SETUP_REPEATS)]
        done = []  # (request, wall, exit code, cpu, rss, out path)
        for block in self.blocks_until_deadline():
            for request in block:
                config, out = self.write_config(request.config), self.path(".csv")
                argv = ["-m", "traincost.cli", *request.argv(str(config), str(out))]
                done.append((request, *run_child(argv, self.path(".err")), out))
            setup.append(self._setup_once(setup_config))

        for request, _, code, _, _, out in done:
            self.record(request, code, out, check.expected(request))
        sims = [d for d in done if d[0].kind == "simulate"]
        if self.workload == "sim_degraded":
            self._check_worker_invariance(sims[0])

        walls = [d[1] for d in done]
        primary = sims or [d for d in done if d[0].kind == "sweep"]
        rows = sum(len((_read(d[5]) or "\n").splitlines()) - 1 for d in primary)
        tail, pct = _tail(walls)
        self.note = f"req_tail_s is p{pct:.1f} of {len(walls)} requests"
        return {
            "setup_s": statistics.median(setup),
            "req_p50_s": statistics.median(walls),
            "req_tail_s": tail,
            "rows_per_s": rows / sum(d[1] for d in primary),
            "peak_rss_mb": max(d[4] for d in done),
            "cpu_p50_s": statistics.median(d[3] for d in done),
        }

    def _check_worker_invariance(self, done) -> None:
        """The same simulate request at --workers 1 and 2 gives the same bytes."""
        request, out = done[0], done[5]
        other = 1 if request.params["workers"] != 1 else 2
        config, out_other = self.write_config(request.config), self.path(".csv")
        argv = ["-m", "traincost.cli",
                *request.argv(str(config), str(out_other), workers=other)]
        run_child(argv, self.path(".err"))
        self.attempted += 1
        if _read(out) is None or _read(out) != _read(out_other):
            self.failed += 1
            self.problems.append(f"simulate {request.params}: output differs at "
                                 f"--workers {request.params['workers']} and {other}")

    # -- per layer --------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        metrics = self._import_metrics()
        metrics.update(self._pool_metrics())

        tracer = spans.Tracer()
        plain_s = traced_s = 0.0
        gaps = []
        for block in self.blocks_until_deadline():
            for request in block:
                if request.kind == "simulate":  # forked workers cannot report spans
                    request.params["workers"] = 1
                want = check.expected(request)
                config = str(self.write_config(request.config))
                out, elapsed = self._replay(request, config, want, contextlib.nullcontext())
                plain_s += elapsed
                tracer.begin_request(request.kind)
                traced_s += self._replay(request, config, want, tracer)[1]
                if request.kind == "simulate":
                    gaps.append(_sim_gap(_read(out), check.analytic_wall_h(request)))

        tracer.write(str(WORK / f"spans-{self.workload}-seed{self.seed}.csv.gz"))
        metrics.update(tracer.layer_metrics())
        metrics["cluster_model.sim_gap"] = statistics.median(gaps) if gaps else 0.0
        metrics["host.probe_ms"] = statistics.median(self.probes)
        metrics["trace.overhead_ratio"] = traced_s / plain_s
        self.note = f"spans written to {WORK.name}/spans-{self.workload}-seed{self.seed}.csv.gz"
        return metrics

    def _replay(self, request, config: str, want, context) -> tuple[Path, float]:
        """One request through cli.main in process; returns (output, seconds)."""
        out = self.path(".csv")
        argv = request.argv(config, str(out))
        with context:
            start = time.perf_counter()
            code = _call_main(argv, self.problems)
            elapsed = time.perf_counter() - start
        self.record(request, code, out, want)
        return out, elapsed

    def _import_metrics(self) -> dict[str, float]:
        """Interpreter start-up and import times from fresh -X importtime processes."""
        interpreter = statistics.median(
            run_child(["-c", "pass"], self.path(".err"))[0] for _ in range(IMPORT_REPEATS))
        samples = []
        for _ in range(IMPORT_REPEATS):
            err = self.path(".err")
            run_child(["-X", "importtime", "-c", "import traincost.cli"], err)
            samples.append(_parse_importtime(_read(err) or ""))
        return {
            "import.interpreter_s": interpreter,
            **{name: statistics.median(s[name] for s in samples) for name in samples[0]},
        }

    def _pool_metrics(self) -> dict[str, float]:
        """Replications/s of the first simulate request at 1 and min(nproc, 2) workers."""
        if self.workload == "plan":
            return {"failure_sim.pool_reps_per_s_1": 0.0,
                    "failure_sim.pool_reps_per_s_n": 0.0,
                    "failure_sim.pool_efficiency": 0.0}
        config = check.sim_config(next(workloads.blocks(self.workload, self.seed))[0])
        workers = workloads.sim_workers()
        rates = []
        for n in (1, workers):
            start = time.perf_counter()
            failure_sim.collect_replications(config, n)
            rates.append(config.replications / (time.perf_counter() - start))
        return {"failure_sim.pool_reps_per_s_1": rates[0],
                "failure_sim.pool_reps_per_s_n": rates[1],
                "failure_sim.pool_efficiency": rates[1] / (workers * rates[0])}


_IMPORTTIME = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \| (\s*)(\S+)")


def _parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds for traincost.cli (all its top-level entries), numpy, yaml."""
    out = {"import.traincost_cli_s": 0.0, "import.numpy_s": 0.0, "import.yaml_s": 0.0}
    for match in _IMPORTTIME.finditer(text):
        cumulative_s, depth, name = int(match[2]) / 1e6, len(match[3]), match[4]
        if depth == 0 and name.split(".")[0] == "traincost":
            out["import.traincost_cli_s"] += cumulative_s
        elif name in ("numpy", "yaml"):
            out[f"import.{name}_s"] = cumulative_s
    return out


def _call_main(argv: list[str], problems: list[str]) -> int:
    """cli.main in process, its stderr summary discarded."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)
    except Exception as exc:  # a crash is a failed request, not a benchmark error
        problems.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
        return -1


def _sim_gap(csv_text: str | None, analytic_h: float) -> float:
    """Analytic progress rate over the simulated one, minus 1 (-1: NoProgress)."""
    walls = [line.split(",")[1] for line in (csv_text or "").splitlines()[1:]]
    if not walls or "" in walls:
        return 0.0
    simulated = sum(map(float, walls)) / len(walls)
    return simulated / analytic_h - 1.0


