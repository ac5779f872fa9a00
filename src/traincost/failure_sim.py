"""Discrete-event Monte Carlo simulation of a checkpointed training run.

This is the independent oracle for the closed forms in cluster_model.
SimConfig.run is the closed form's RunBreakdown for the config's inputs. The
event loop reads only its RunPolicy: work target, checkpoint interval and
write time, interrupt rate, group count, tolerance and repair time. It plays
out explicit failures, repairs, rollbacks and restarts. analytic_verdict
compares a simulated mean with an expectation its caller passes; simulate
and validate_analytic pass the breakdown's closed-form wall_h.

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

_run_events plays every replication, traced or not, at every F. While
every group is up and no write is in flight, one pass takes a work stretch
with its checkpoint write, or an F=0 failure; every other state takes one
event per pass. tests/test_failure_sim.py keeps the plain one-event loop,
reference_run_events, which this one must match bit for bit in (wall_h,
counts), trace and the number of gaps drawn.

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
from dataclasses import astuple, dataclass, field

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

    While every group is up and no write is in flight, an inner loop runs at
    rate 1.0 (the one-event step's x / 1.0 and x * 1.0 are exact, so they
    are dropped). Each pass is one work stretch with its checkpoint write,
    or at F=0 one failure, which interrupts in place: progress stands at the
    last checkpoint then, and interrupts equal failures, so only failures
    is counted. The end of the work, the horizon and a failure that F>0
    rides out (with the write left in flight if it lands in one) are left
    to the one-event step, which plays every state with a group down or a
    write in flight.
    """
    work, tau, delta, mtti, groups = run.solve_h, run.tau_h, run.delta_h, run.mtti_h, run.groups
    tolerated, ttr = run.tolerated_group_failures, run.ttr_h
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
    writing_until: float | None = None
    failures = repairs = checkpoints = interrupts = 0
    # An infinite MTTI draws no gap; a failure is only ever played within
    # the horizon, so the draws after it need no such check.
    next_fail = t + mtti * draw() if math.isfinite(mtti) else inf

    # The comparisons below are min(), spelled out: each keeps the first of
    # equal values, as min() does, without the call. Ties go to repairs,
    # then work and write ends, then failures; simultaneous events have
    # probability zero anyway.
    while True:
        if writing_until is None and not repairs_due:
            while True:
                t_work = t + (target - progress)
                if t_work <= next_fail:
                    if t_work > max_wall_h or target >= work:
                        break  # censored or done
                    if emit:
                        emit((t_work, EVENT_CKPT_START, 0))
                    t_end = t_work + delta
                    if t_end <= next_fail and t_end <= max_wall_h:
                        t = t_end
                        progress = ckpt_progress = target
                        checkpoints += 1
                        target = ckpt_progress + tau
                        if work < target:
                            target = work
                        if emit:
                            emit((t, EVENT_CKPT_END, 0))
                        continue
                    if tolerated or next_fail > max_wall_h:
                        progress = target
                        writing_until = t_end
                        break  # censored, or a failure to ride out lands in the write
                elif tolerated or next_fail > max_wall_h:
                    break  # a failure to ride out, or censored
                # At F=0 the failure interrupts; progress stays at the checkpoint.
                failures += 1
                t = next_fail + ttr
                if emit:
                    emit((next_fail, EVENT_FAIL, 1))
                    emit((next_fail, EVENT_INTERRUPT, 1))
                    emit((t, EVENT_RESTART, 0))
                next_fail = t + mtti * draw()

        active = groups - len(repairs_due)
        rate = active / groups  # exactly 1.0 with all groups up
        if writing_until is not None:
            t_work = writing_until
        elif active > 0:
            t_work = t + (target - progress) / rate
        else:
            t_work = inf  # all groups down, waiting on repairs
        t_repair = repairs_due[0] if repairs_due else inf
        t_next = next_fail
        if t_repair < t_next:
            t_next = t_repair
        if t_work < t_next:
            t_next = t_work

        if t_next > max_wall_h:
            t = inf  # censored
            break

        if writing_until is None and active > 0:
            progress += (t_next - t) * rate
        t = t_next

        if t_repair <= next_fail and t_repair <= t_work:
            repairs_due.popleft()
            repairs += 1
            if emit:
                emit((t, EVENT_REPAIR, len(repairs_due)))
        elif t_work <= next_fail:
            if writing_until is not None:
                writing_until = None
                ckpt_progress = progress
                checkpoints += 1
                target = ckpt_progress + tau
                if work < target:
                    target = work
                if emit:
                    emit((t, EVENT_CKPT_END, len(repairs_due)))
            else:
                progress = target  # snap away accrual rounding
                if progress >= work:
                    if emit:
                        emit((t, EVENT_DONE, len(repairs_due)))
                    break
                writing_until = t + delta
                if emit:
                    emit((t, EVENT_CKPT_START, len(repairs_due)))
        else:
            failures += 1
            if active > 0:
                repairs_due.append(t + ttr)
            if emit:
                emit((t, EVENT_FAIL, len(repairs_due)))
            if len(repairs_due) > tolerated:
                interrupts += 1
                if emit:
                    emit((t, EVENT_INTERRUPT, len(repairs_due)))
                progress = ckpt_progress
                writing_until = None
                t += ttr
                repairs_due.clear()
                if emit:
                    emit((t, EVENT_RESTART, 0))
            next_fail = t + mtti * draw()
    if not tolerated:
        interrupts = failures  # the inner loop counts only failures at F=0
    return t, EventCounts(failures, repairs, checkpoints, interrupts)


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


def _run_share(config: SimConfig, indices: range, write_fd: int) -> None:
    """In a forked child: marshal the outcomes of indices to write_fd, then exit.

    Each outcome is a (wall_h, *EventCounts fields) tuple. os._exit keeps
    the child out of its parent's code, buffers and atexit handlers; an
    exception is printed to stderr and exits 1.
    """
    status = 1
    try:
        outcomes = []
        for i in indices:
            wall, counts = simulate_run(config, i)
            outcomes.append((wall, *astuple(counts)))
        with open(write_fd, "wb") as pipe:
            marshal.dump(outcomes, pipe)
        status = 0
    except Exception:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def collect_replications(
    config: SimConfig, workers: int = 1
) -> list[tuple[float, EventCounts]]:
    """All replications in index order, shared among w processes.

    w = min(workers, replications, available CPUs), or 1 where os.fork does
    not exist. Share k holds replications k, k + w, k + 2w, ...; a forked
    child runs each share k >= 1 (_run_share) while this process runs share
    0, so one worker forks nothing. Every child is reaped before this
    returns or raises, and a child that failed raises ChildProcessError (an
    OSError, so the CLI exits 3) naming it and its exit status. Output is
    independent of w because every replication's random stream is keyed by
    its own index.

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
                    # The child holds no read end, so its write fails (EPIPE)
                    # instead of blocking forever once the parent stops reading.
                    for fd in pipes:
                        os.close(fd)
                    _run_share(config, range(k, n, w), write_fd)
            finally:
                os.close(write_fd)  # so the pipe reads to its end once the child exits
            pids.append(pid)
        shares = [[simulate_run(config, i) for i in range(0, n, w)]]
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
            raise ChildProcessError(f"simulation worker {k} exited with status {code}")
    for payload in payloads:
        shares.append([(wall, EventCounts(*counts)) for wall, *counts in marshal.loads(payload)])
    return [shares[i % w][i // w] for i in range(n)]


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
