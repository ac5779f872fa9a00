"""Discrete-event Monte Carlo simulation of a checkpointed training run.

This is the independent oracle for the closed forms in cluster_model.
SimConfig.run is the paper's run policy for the config's inputs and the
paper's expectation of it, as one RunBreakdown. The event loop reads only
the policy (RunPolicy: work, checkpoints, failures, groups, tolerance and
repairs) and plays out explicit failures, repairs, rollbacks and restarts.
analytic_verdict compares a simulated mean with an expectation its caller
passes; simulate and validate_analytic pass the paper's expected wall_h.

Event semantics
---------------
* Failures arrive as a Poisson process with rate 1/MTTI. A failure that
  finds a group up takes one down for ttr_h (its repair time); one that
  finds every group down changes only the failure count. The state is the
  number of groups down, kept as a FIFO deque of their repair times. That
  is exact: groups are symmetric (same share of progress, same repair
  time), so which group fails carries no information, and every repair
  takes ttr_h, so repairs finish in the order their failures happened.
  The random stream holds only the gaps between failures.
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

_run_events plays every replication, traced or not, at every F, in one
loop of one event per pass; only a work stretch and the checkpoint write
that follows it share a pass. tests/test_failure_sim.py keeps the plain
one-event loop, reference_run_events, which this one must match bit for
bit in (wall_h, counts), trace and the number of gaps drawn.

SimConfig refuses a run that could need more than MAX_CHECKPOINTS
checkpoint writes in one replication, and a checkpoint interval too small
to advance the clock at the horizon MAX_WALL_H: there a work stretch would
take no simulated time. The number of failures before the horizon is not
bounded yet.

Randomness is keyed per replication: replication r of a run seeded s
reads its failure gaps from a Mersenne Twister (MT19937; Matsumoto and
Nishimura, ACM TOMACS 8(1), 1998) seeded with the key (s, r), so the n-th
draw is a pure function of (s, r, n) and results do not depend on
scheduling or evaluation order. The standard library's random.Random
supplies it.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import struct
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

from .cluster_model import (
    ClusterSpec, ResilienceConfig, RunBreakdown, RunPolicy, expected_runtime,
)
from .scaling_laws import ModelSpec, ScalingConstants
from .tables import CsvTable

# tests/test_golden.py pins this tag and the sha256 of simulate and report
# output, which depends on the gap stream of _replication_gaps: a change to
# the stream must bump this tag and those hashes together.
GENERATOR_NAME = "mt19937-exp"

TRACE_COLUMNS = ("time_h", "kind", "groups_down")

EVENT_FAIL = "FAIL"
EVENT_REPAIR = "REPAIR"
EVENT_CKPT_START = "CKPT_START"
EVENT_CKPT_END = "CKPT_END"
EVENT_INTERRUPT = "INTERRUPT"
EVENT_RESTART = "RESTART"
EVENT_DONE = "DONE"

# Simulated-time ceiling; runs that exceed it are censored to inf.
MAX_WALL_H = 1e7

# Most checkpoint writes a replication may need. A completed write is never
# rolled back past and takes tau_h + delta_h of simulated time, so a
# replication completes at most min(solve_h / tau_h, MAX_WALL_H / (tau_h +
# delta_h)) writes; SimConfig rejects a run whose bound exceeds this.
MAX_CHECKPOINTS = 10**7


@dataclass(frozen=True)
class SimConfig:
    model: ModelSpec
    cluster: ClusterSpec
    constants: ScalingConstants = field(default_factory=ScalingConstants)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    seed: int = 0
    replications: int = 100
    # The closed form's quantities for the inputs above, read by the event
    # loop and by the verdict's callers; derived here so that they cannot disagree.
    run: RunBreakdown = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        run = expected_runtime(self.model, self.constants, self.cluster, self.resilience)
        writes = min(run.solve_h / run.tau_h, MAX_WALL_H / (run.tau_h + run.delta_h))
        if writes > MAX_CHECKPOINTS:
            raise ValueError(
                f"checkpoint interval {run.tau_h:.3g} h needs up to {writes:.3g} "
                f"checkpoint writes per replication, more than {MAX_CHECKPOINTS}"
            )
        if not MAX_WALL_H + run.tau_h > MAX_WALL_H:
            raise ValueError(
                f"checkpoint interval {run.tau_h:.3g} h is below the resolution of "
                f"simulated time at the {MAX_WALL_H:.3g} h horizon"
            )
        object.__setattr__(self, "run", run)


@dataclass(frozen=True)
class EventCounts:
    failures: int = 0
    repairs: int = 0
    checkpoints: int = 0
    interrupts: int = 0


@dataclass(frozen=True)
class SimResult:
    mean_wall_h: float
    stddev_wall_h: float
    ci95_half_width_h: float
    mean_interrupts: float
    mean_checkpoints: float
    generator: str = GENERATOR_NAME


@dataclass(frozen=True)
class ValidationReport:
    relative_error: float
    passed: bool


def _replication_gaps(seed: int, replication_index: int) -> Iterator[float]:
    """Standard-exponential gaps for one replication, by inversion.

    A random.Random is seeded with the little-endian words (seed,
    replication_index); version-2 seeding mixes those bytes through SHA-512,
    and CPython keeps random()'s sequence for a given seed across versions.
    Each gap is -log(1 - u) for u = random() = k * 2**-53 in [0, 1), so the
    logarithm's argument is never 0 and every step is exact up to the log.
    """
    draw = random.Random(struct.pack("<QQ", seed, replication_index)).random
    log = math.log
    while True:
        yield -log(1.0 - draw())


def _run_events(
    run: RunPolicy, gaps: Iterator[float], max_wall_h: float, trace: list | None = None
) -> tuple[float, EventCounts]:
    """Run one replication; returns (wall_h, counts), wall_h=inf if censored.

    Failure gaps are read from gaps (standard exponential, scaled by the
    MTTI): one for the first failure and one after each failure, none when
    the MTTI is infinite.

    Each pass plays the earliest of a repair, the end of a work stretch or
    of a write, and a failure, which interrupts or is ridden out; a horizon
    that comes before the next failure takes its place and censors the run.
    A stretch and its write share a pass when the write ends before the
    next repair and no later than the next failure and the horizon: the
    write end is then the next event anyway. The groups down, the next
    repair time and the progress rate change only at events and are kept
    across passes; progress is brought up to date where its rate changes
    while it accrues, at repairs and ride-outs.
    """
    work, tau, delta, mtti, groups = run.solve_h, run.tau_h, run.delta_h, run.mtti_h, run.groups
    tolerated, ttr = run.tolerated_group_failures, run.ttr_h
    # A failure that finds this many groups down interrupts; with every group
    # tolerated, none does.
    interrupt_at = tolerated if tolerated < groups else -1
    inf = math.inf
    draw = gaps.__next__

    emit = trace.append if trace is not None else None
    t = 0.0
    progress = 0.0
    ckpt_progress = 0.0
    target = ckpt_progress + tau  # progress at the next checkpoint or the end
    if work < target:
        target = work
    repairs_due: deque[float] = deque()  # one repair time per down group, FIFO
    down = 0  # len(repairs_due)
    t_repair = inf  # repairs_due[0], or inf with every group up
    rate = 1.0  # progress per hour: 0.0 while a write is in flight or every group is down
    write_end = inf  # when the write in flight ends
    ride_outs = repairs = checkpoints = interrupts = 0
    # An infinite MTTI draws no gap; a failure is only ever played within
    # the horizon, so the draws after it need no such check.
    next_fail = t + mtti * draw() if math.isfinite(mtti) else inf
    t_fail = next_fail if next_fail <= max_wall_h else max_wall_h  # min(next_fail, max_wall_h)

    # Ties go to repairs, then work and write ends, then failures, as in a
    # min() over (repair, work, failure); simultaneous events have
    # probability zero anyway.
    while True:
        t_work = t + (target - progress) / rate if rate else write_end
        if t_fail < t_work and t_fail < t_repair:
            if next_fail > max_wall_h:
                t = inf  # censored
                break
            if down == interrupt_at:
                interrupts += 1
                t = next_fail + ttr
                if emit:
                    emit((next_fail, EVENT_FAIL, down + 1))
                    emit((next_fail, EVENT_INTERRUPT, down + 1))
                    emit((t, EVENT_RESTART, 0))
                progress = ckpt_progress
                write_end = inf
                if down:
                    repairs_due.clear()
                    down = 0
                    t_repair = inf
                rate = 1.0
            else:
                ride_outs += 1
                progress += (next_fail - t) * rate
                t = next_fail
                if down < groups:
                    repairs_due.append(t + ttr)
                    down += 1
                    t_repair = repairs_due[0]
                    if write_end == inf:
                        rate = (groups - down) / groups
                if emit:
                    emit((t, EVENT_FAIL, down))
            next_fail = t + mtti * draw()
            t_fail = next_fail if next_fail <= max_wall_h else max_wall_h
        elif t_repair <= t_work:
            progress += (t_repair - t) * rate
            t = t_repair
            repairs_due.popleft()
            down -= 1
            repairs += 1
            t_repair = repairs_due[0] if down else inf
            if write_end == inf:
                rate = (groups - down) / groups
            if emit:
                emit((t, EVENT_REPAIR, down))
        else:
            t = t_work
            if rate:
                progress = target  # snap away accrual rounding
                if progress >= work:
                    if emit:
                        emit((t, EVENT_DONE, down))
                    break
                write_end = t + delta
                if emit:
                    emit((t, EVENT_CKPT_START, down))
                if write_end >= t_repair or write_end > t_fail:
                    rate = 0.0
                    continue
                t = write_end
            write_end = inf
            ckpt_progress = progress
            checkpoints += 1
            target = ckpt_progress + tau
            if work < target:
                target = work
            rate = (groups - down) / groups
            if emit:
                emit((t, EVENT_CKPT_END, down))
    return t, EventCounts(interrupts + ride_outs, repairs, checkpoints, interrupts)


def simulate_run(
    config: SimConfig, replication_index: int, trace: list | None = None
) -> tuple[float, EventCounts]:
    """Simulate one replication; deterministic in (config.seed, replication_index).

    When trace is a list, one (time_h, kind, groups_down) record per event
    is appended to it, with the number of groups down after the event.
    Traced and untraced runs take the same loop, _run_events.
    """
    if not 0 <= replication_index < 2**64:
        raise ValueError("replication_index must be a 64-bit unsigned integer")
    gaps = _replication_gaps(config.seed, replication_index)
    return _run_events(config.run, gaps, MAX_WALL_H, trace)


def trace_table(trace: list[tuple]) -> CsvTable:
    """An event trace as a CSV table in the shared dialect."""
    return CsvTable(TRACE_COLUMNS, trace)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux: the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(config: SimConfig, indices: range) -> list[tuple]:
    """The (wall_h, *EventCounts fields) rows of indices, in whichever process.

    An exception prints its traceback to fd 2, then raises ChildProcessError
    (an OSError: the CLI exits 3) naming the share.
    """
    try:
        rows = []
        for i in indices:
            wall, c = simulate_run(config, i)
            rows.append((wall, c.failures, c.repairs, c.checkpoints, c.interrupts))
        return rows
    except Exception:
        import traceback

        os.write(2, traceback.format_exc().encode())
        raise ChildProcessError(f"simulation share {indices.start} failed") from None


def collect_replications(
    config: SimConfig, workers: int = 1
) -> list[tuple[float, EventCounts]]:
    """All replications in index order, shared among w processes.

    w = min(workers, replications, available CPUs), or 1 where os.fork does
    not exist. Share k holds replications k, k + w, k + 2w, ...; _run_share
    runs share 0 here and each share k >= 1 in a forked child, which pipes
    its rows back marshalled and leaves by os._exit, clear of this process's
    buffers and atexit handlers. Every child is reaped before this returns
    or raises. A failed share raises ChildProcessError naming it, and the
    child's exit status if that is not 1. Output is independent of w because
    every replication's random stream is keyed by its own index.

    If share 0 or a fork raises, this process sends SIGTERM to every child,
    reaps them and then lets the exception propagate, at once instead of
    after each child has run its share.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = config.replications
    w = min(workers, n, _available_cpus()) if hasattr(os, "fork") else 1
    pipes: list[int] = []  # the read end of each child's pipe, share 1 first
    pids: list[int] = []
    try:
        for k in range(1, w):
            read_fd, write_fd = os.pipe()
            pipes.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        # The child holds no read end, so its write fails (EPIPE)
                        # instead of blocking forever once the parent stops reading.
                        for fd in pipes:
                            os.close(fd)
                        with open(write_fd, "wb") as pipe:
                            marshal.dump(_run_share(config, range(k, n, w)), pipe)
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(write_fd)  # so the pipe reads to its end once the child exits
            pids.append(pid)
        shares = [_run_share(config, range(0, n, w))]
        payloads = []
        for read_fd in pipes:
            with open(read_fd, "rb", closefd=False) as pipe:
                payloads.append(pipe.read())
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGTERM)
        raise
    finally:
        for read_fd in pipes:
            os.close(read_fd)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for k, code in enumerate(codes, 1):
        if code:
            detail = "" if code == 1 else f" (exit status {code})"
            raise ChildProcessError(f"simulation share {k} failed{detail}")
    shares += map(marshal.loads, payloads)
    return [(wall, EventCounts(*counts))
            for wall, *counts in (shares[i % w][i // w] for i in range(n))]


def summarize(outcomes: list[tuple[float, EventCounts]]) -> SimResult:
    walls = tuple(wall for wall, _ in outcomes)
    n = len(walls)
    mean = math.fsum(walls) / n  # inf when a replication was censored
    finite = all(math.isfinite(w) for w in walls)
    if n > 1 and finite:
        import statistics

        stddev = statistics.stdev(walls)
        half_width = 1.96 * stddev / math.sqrt(n)
    else:
        stddev = math.nan
        half_width = math.nan
    return SimResult(
        mean_wall_h=mean,
        stddev_wall_h=stddev,
        ci95_half_width_h=half_width,
        mean_interrupts=math.fsum(c.interrupts for _, c in outcomes) / n,
        mean_checkpoints=math.fsum(c.checkpoints for _, c in outcomes) / n,
    )


def analytic_verdict(expected_h: float, mean_h: float, tolerance: float) -> ValidationReport:
    """Judge a simulated mean against the expectation its caller passes.

    An expectation within the horizon MAX_WALL_H passes when the mean is
    within tolerance of it, relative to the expectation. Past the horizon
    (NoProgress included) there is no relative error (nan); the verdict
    passes only if the mean also exceeds the horizon, that is, only if some
    replication was censored.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    if not expected_h <= MAX_WALL_H:
        return ValidationReport(math.nan, mean_h > MAX_WALL_H)
    rel = abs(expected_h - mean_h) / expected_h
    return ValidationReport(rel, rel <= tolerance)


def validate_analytic(config: SimConfig, tolerance: float) -> ValidationReport:
    """analytic_verdict of the closed form on the replications, all run in this process."""
    mean = summarize(collect_replications(config)).mean_wall_h
    return analytic_verdict(config.run.wall_h, mean, tolerance)
