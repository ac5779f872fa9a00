"""Discrete-event Monte Carlo simulation of a checkpointed training run.

This is the independent oracle for the closed forms in cluster_model: the
same run parameters (work target, checkpoint interval and write time,
interrupt rate, group tolerance) are fed to an event loop with explicit
failures, repairs, rollbacks and restarts, and ensemble means are compared
against the analytic expectation.

Event semantics
---------------
* Failures arrive as a Poisson process with rate 1/MTTI and each disables
  a uniformly chosen active group for ttr_h (its repair time).
* Progress accrues at rate active_groups/G while the job is not writing a
  checkpoint; a checkpoint of duration delta starts after every tau hours
  of accumulated progress (progress-keyed, so degraded stretches do not
  skew the interval).
* The instant more than F groups are down the run interrupts: progress
  reverts to the last completed checkpoint, an in-flight checkpoint is
  discarded, ttr_h of restart downtime elapses and all groups come back.
  The failure clock is suspended during restart downtime (the arrival
  process is memoryless, so it is redrawn afterwards).
* The run ends when progress reaches the work target W.

Randomness is counter-based: replication r of a run seeded s draws from a
Philox stream keyed (s, r), so the n-th draw is a pure function of
(s, r, n) and results do not depend on scheduling or evaluation order.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .cluster_model import ClusterSpec, ResilienceConfig, STATUS_NO_PROGRESS, expected_runtime
from .scaling_laws import ModelSpec, ScalingConstants
from .tables import CsvTable

if TYPE_CHECKING:
    import numpy as np

# tests/test_golden.py pins the sha256 of simulate and report output, which
# depends on this numpy Philox stream: a change to the stream must bump
# this tag and those hashes together.
GENERATOR_NAME = "philox4x64"

TRACE_COLUMNS = ("time_h", "kind", "group_id")

EVENT_FAIL = "FAIL"
EVENT_REPAIR = "REPAIR"
EVENT_CKPT_START = "CKPT_START"
EVENT_CKPT_END = "CKPT_END"
EVENT_INTERRUPT = "INTERRUPT"
EVENT_RESTART = "RESTART"
EVENT_DONE = "DONE"

# Default simulated-time ceiling; runs that exceed it are censored to inf.
DEFAULT_MAX_WALL_H = 1e7


@dataclass(frozen=True)
class SimConfig:
    model: ModelSpec
    cluster: ClusterSpec
    constants: ScalingConstants = field(default_factory=ScalingConstants)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    seed: int = 0
    replications: int = 100
    max_wall_h: float = DEFAULT_MAX_WALL_H

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.max_wall_h <= 0:
            raise ValueError("max_wall_h must be > 0")


@dataclass(frozen=True)
class EventCounts:
    failures: int = 0
    repairs: int = 0
    checkpoints: int = 0
    interrupts: int = 0


@dataclass(frozen=True)
class RunParameters:
    """Derived inputs shared by the simulator and the analytic model."""

    work_h: float
    tau_h: float
    delta_h: float
    mtti_h: float
    groups: int
    tolerated_failures: int
    ttr_h: float


@dataclass(frozen=True)
class SimResult:
    wall_h: tuple[float, ...]
    mean_wall_h: float
    stddev_wall_h: float
    ci95_half_width_h: float
    mean_interrupts: float
    mean_checkpoints: float
    generator: str = GENERATOR_NAME


@dataclass(frozen=True)
class ValidationReport:
    analytic_h: float
    simulated_mean_h: float
    relative_error: float
    passed: bool


def derive_run_parameters(config: SimConfig) -> RunParameters:
    """Resolve a SimConfig into the bare quantities the event loop needs.

    They are the analytic model's own run quantities; a non-finite work
    target is rejected there, a non-finite checkpoint write time here.
    """
    run = expected_runtime(config.model, config.constants, config.cluster, config.resilience)
    if not math.isfinite(run.delta_h):
        raise ValueError("checkpoint write time is not finite")
    return RunParameters(
        work_h=run.solve_h,
        tau_h=run.tau_h,
        delta_h=run.delta_h,
        mtti_h=run.mtti_h,
        groups=run.groups,
        tolerated_failures=config.resilience.tolerated_group_failures,
        ttr_h=config.resilience.ttr_h,
    )


def _replication_rng(seed: int, replication_index: int) -> np.random.Generator:
    # numpy is imported here, not at module level, so that requests which
    # never simulate (cost, sweep, project) do not pay for it.
    import numpy as np

    key = np.array([seed, replication_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pick_active_group(rng, down_ids: set, groups: int) -> int:
    # k-th group id not currently down: k steps past every down id at or
    # below it. At most F groups are down at a pick: O(F log F), not O(G).
    k = int(rng.integers(groups - len(down_ids)))
    for gid in sorted(down_ids):
        if gid > k:
            break
        k += 1
    return k


def _run_events(
    params: RunParameters,
    rng: np.random.Generator,
    max_wall_h: float,
    trace: list | None = None,
) -> tuple[float, EventCounts]:
    """Run one replication; returns (wall_h, counts), wall_h=inf if censored."""
    work, tau, delta = params.work_h, params.tau_h, params.delta_h
    groups, tolerated, ttr = params.groups, params.tolerated_failures, params.ttr_h

    emit = trace.append if trace is not None else None
    t = 0.0
    progress = 0.0
    ckpt_progress = 0.0
    repair_heap: list[tuple[float, int]] = []
    down_ids: set[int] = set()
    writing_until: float | None = None
    failures = repairs = checkpoints = interrupts = 0

    mtti = params.mtti_h

    def next_failure(after: float) -> float:
        return after + rng.exponential(mtti) if math.isfinite(mtti) else math.inf

    next_fail = next_failure(t)

    while True:
        active = groups - len(down_ids)
        rate = active / groups  # exactly 1.0 with all groups up
        target = None
        if writing_until is not None:
            t_work = writing_until
        elif active > 0:
            target = min(ckpt_progress + tau, work)
            t_work = t + (target - progress) / rate
        else:
            t_work = math.inf  # all groups down, waiting on repairs
        t_repair = repair_heap[0][0] if repair_heap else math.inf
        t_next = min(next_fail, t_repair, t_work)

        if t_next > max_wall_h:
            counts = EventCounts(failures, repairs, checkpoints, interrupts)
            return math.inf, counts

        if writing_until is None and active > 0:
            progress += (t_next - t) * rate
        t = t_next

        # Tie-break order: repairs, then work/checkpoint completion, then
        # failures; simultaneous events have probability zero anyway.
        if t_repair <= next_fail and t_repair <= t_work:
            _, gid = heapq.heappop(repair_heap)
            down_ids.discard(gid)
            repairs += 1
            if emit:
                emit((t, EVENT_REPAIR, gid))
        elif t_work <= next_fail:
            if writing_until is not None:
                writing_until = None
                ckpt_progress = progress
                checkpoints += 1
                if emit:
                    emit((t, EVENT_CKPT_END, None))
            else:
                progress = target  # snap away accrual rounding
                if progress >= work:
                    if emit:
                        emit((t, EVENT_DONE, None))
                    counts = EventCounts(failures, repairs, checkpoints, interrupts)
                    return t, counts
                writing_until = t + delta
                if emit:
                    emit((t, EVENT_CKPT_START, None))
        else:
            failures += 1
            victim = None
            if active > 0:
                victim = _pick_active_group(rng, down_ids, groups)
                heapq.heappush(repair_heap, (t + ttr, victim))
                down_ids.add(victim)
            if emit:
                emit((t, EVENT_FAIL, victim))
            if len(down_ids) > tolerated:
                interrupts += 1
                if emit:
                    emit((t, EVENT_INTERRUPT, None))
                progress = ckpt_progress
                writing_until = None
                t += ttr
                repair_heap.clear()
                down_ids.clear()
                if emit:
                    emit((t, EVENT_RESTART, None))
            next_fail = next_failure(t)


def simulate_run(
    config: SimConfig, replication_index: int, trace: list | None = None
) -> tuple[float, EventCounts]:
    """Simulate one replication; deterministic in (config.seed, replication_index).

    When trace is a list, one (time_h, kind, group_id) record per event is
    appended to it.
    """
    if not 0 <= replication_index < 2**64:
        raise ValueError("replication_index must be a 64-bit unsigned integer")
    params = derive_run_parameters(config)
    rng = _replication_rng(config.seed, replication_index)
    return _run_events(params, rng, config.max_wall_h, trace)


def trace_table(trace: list[tuple]) -> CsvTable:
    """An event trace as a CSV table in the shared dialect."""
    return CsvTable(TRACE_COLUMNS, tuple(trace))


def _simulate_task(config: SimConfig, replication_index: int):
    return simulate_run(config, replication_index)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux: the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def collect_replications(
    config: SimConfig, workers: int = 1
) -> list[tuple[float, EventCounts]]:
    """All replications in index order; workers > 1 fans out across processes.

    At most min(workers, replications, available CPUs) processes start.
    Output is independent of the worker count because every replication's
    random stream is keyed by its own index.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    workers = min(workers, config.replications, _available_cpus())
    indices = range(config.replications)
    if workers == 1:
        return [simulate_run(config, i) for i in indices]
    # The pool forks: importing numpy first lets every worker inherit it
    # instead of importing it again.
    import numpy  # noqa: F401
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, config.replications // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        configs = [config] * config.replications
        return list(pool.map(_simulate_task, configs, indices, chunksize=chunk))


def run_ensemble(config: SimConfig, workers: int = 1) -> SimResult:
    """Aggregate simulate_run over all replications."""
    return summarize(collect_replications(config, workers))


def summarize(outcomes: list[tuple[float, EventCounts]]) -> SimResult:
    walls = tuple(wall for wall, _ in outcomes)
    n = len(walls)
    finite = all(math.isfinite(w) for w in walls)
    mean = math.fsum(walls) / n if finite else math.inf
    if n > 1 and finite:
        import statistics

        stddev = statistics.stdev(walls)
        half_width = 1.96 * stddev / math.sqrt(n)
    else:
        stddev = math.nan
        half_width = math.nan
    return SimResult(
        wall_h=walls,
        mean_wall_h=mean,
        stddev_wall_h=stddev,
        ci95_half_width_h=half_width,
        mean_interrupts=math.fsum(c.interrupts for _, c in outcomes) / n,
        mean_checkpoints=math.fsum(c.checkpoints for _, c in outcomes) / n,
    )


def validate_analytic(
    config: SimConfig, tolerance: float, workers: int = 1
) -> ValidationReport:
    """Compare the analytic expectation against a simulated ensemble mean.

    A NoProgress analytic verdict passes only if the simulated mean also
    exceeds the configured horizon (config.max_wall_h).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    breakdown = expected_runtime(
        config.model, config.constants, config.cluster, config.resilience
    )
    result = run_ensemble(config, workers)
    if breakdown.status == STATUS_NO_PROGRESS:
        return ValidationReport(
            analytic_h=math.inf,
            simulated_mean_h=result.mean_wall_h,
            relative_error=math.nan,
            passed=result.mean_wall_h > config.max_wall_h,
        )
    rel = abs(breakdown.wall_h - result.mean_wall_h) / breakdown.wall_h
    return ValidationReport(
        analytic_h=breakdown.wall_h,
        simulated_mean_h=result.mean_wall_h,
        relative_error=rel,
        passed=rel <= tolerance,
    )
