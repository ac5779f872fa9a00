import hashlib
import itertools
import math
import os
import pickle
import statistics
import struct
import sys
import textwrap
from collections import deque
from collections.abc import Iterator
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from traincost import failure_sim
from traincost.cli import DEFAULT_SIM_GPUS, main
from traincost.cluster_model import (
    ClusterSpec,
    ResilienceConfig,
    RunPolicy,
    expected_runtime,
    group_count,
    parallel_efficiency,
)
from traincost.config import ConfigFile
from traincost.failure_sim import (
    EVENT_CKPT_END,
    EVENT_CKPT_START,
    EVENT_DONE,
    EVENT_FAIL,
    EVENT_INTERRUPT,
    EVENT_REPAIR,
    EVENT_RESTART,
    GENERATOR_NAME,
    EventCounts,
    SimConfig,
    _replication_gaps,
    _run_events,
    analytic_verdict,
    collect_replications,
    simulate_run,
    summarize,
    validate_analytic,
)
from traincost.scaling_laws import ModelSpec, ScalingConstants

CONSTANTS = ScalingConstants()
CLUSTER_50K = ClusterSpec(n_gpus=50_000)
BASELINE = ResilienceConfig()
OPT_CLUSTER = replace(CLUSTER_50K, fs_bw_gbs=2000.0)
OPT_RESILIENCE = ResilienceConfig(ckpt_mem_fraction=0.5, tolerated_group_failures=5)


def reference_model() -> ModelSpec:
    # Parameter count chosen so the failure-free solve time is ~1000 h at
    # 50k GPUs with 8 experts (the reference operating point).
    eta = parallel_efficiency(97, 0.01)
    compute = 1000.0 * 50_000 * 1.5e14 * eta * 3600.0
    return ModelSpec(math.sqrt(compute * 8 / 120.0), 8)


def reference_config(**overrides) -> SimConfig:
    defaults = dict(
        model=reference_model(),
        cluster=CLUSTER_50K,
        constants=CONSTANTS,
        resilience=BASELINE,
        seed=2024,
        replications=400,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestDeterminism:
    def test_same_seed_and_index_bit_identical(self):
        config = reference_config(replications=1)
        first = simulate_run(config, 3)
        second = simulate_run(config, 3)
        assert first == second

    def test_different_indices_differ(self):
        config = reference_config(replications=2)
        assert simulate_run(config, 0) != simulate_run(config, 1)

    def test_different_seeds_differ(self):
        a = simulate_run(reference_config(seed=1), 0)
        b = simulate_run(reference_config(seed=2), 0)
        assert a != b

    def test_worker_count_does_not_change_results(self):
        config = reference_config(replications=6)
        serial = collect_replications(config, workers=1)
        parallel = collect_replications(config, workers=3)
        assert serial == parallel


class TestWorkerBound:
    @pytest.mark.parametrize(
        "workers, cpus, started",
        [(64, 8, range(3)), (3, 8, range(2)), (64, 2, range(1)), (10**9, 2, range(1)),
         (3, 1, range(0))],
    )
    def test_pool_size_capped(self, monkeypatch, workers, cpus, started):
        # started ranges over the children the parent forks: w - 1 of them
        # for w = min(workers, 4 replications, cpus), since the parent runs
        # share 0 itself, and none for one worker.
        real_fork = os.fork
        forked = []

        def counting_fork():
            pid = real_fork()
            if pid:  # the child's own appends stay in the child
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(failure_sim, "_available_cpus", lambda: cpus)
        config = reference_config(replications=4)
        assert collect_replications(config, workers) == collect_replications(config, 1)
        assert len(forked) == len(started)

    def test_serial_where_fork_is_missing(self, monkeypatch):
        config = reference_config(replications=4)
        serial = collect_replications(config, 1)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(failure_sim, "_available_cpus", lambda: 8)
        assert collect_replications(config, 4) == serial

    def test_failed_child_raises_and_is_reaped(self, monkeypatch):
        real_simulate_run = failure_sim.simulate_run

        def failing_at_3(config, index):
            if index == 3:
                raise ArithmeticError("replication 3")
            return real_simulate_run(config, index)

        monkeypatch.setattr(failure_sim, "simulate_run", failing_at_3)
        monkeypatch.setattr(failure_sim, "_available_cpus", lambda: 2)
        with pytest.raises(ChildProcessError, match="^simulation share 1 failed$"):
            collect_replications(reference_config(replications=4), 2)
        with pytest.raises(ChildProcessError):  # no child is left to reap
            os.waitpid(-1, os.WNOHANG)

    def test_failure_in_parent_share_propagates_after_reaping(self, fresh_python):
        # The parent's share fails at once, and its ChildProcessError comes
        # out only once no child is left to reap: the parent stops the
        # child, whose share would take 30 s, instead of waiting for it.
        # fd 2, which the child inherits, is a file read back at the end: it
        # holds the parent's one traceback and nothing from the child.
        out = fresh_python(textwrap.dedent("""
            import os, tempfile, time
            from traincost import failure_sim
            from traincost.cluster_model import ClusterSpec
            from traincost.scaling_laws import ModelSpec

            def outcome(config, index):
                if index == 0:
                    raise ArithmeticError("replication 0")
                time.sleep(30)
                return 0.0, failure_sim.EventCounts()

            failure_sim._available_cpus = lambda: 2
            failure_sim.simulate_run = outcome
            config = failure_sim.SimConfig(
                model=ModelSpec(1e12, 8), cluster=ClusterSpec(n_gpus=50_000), replications=2)
            stderr = tempfile.TemporaryFile()
            os.dup2(stderr.fileno(), 2)
            start = time.monotonic()
            try:
                failure_sim.collect_replications(config, 2)
            except ChildProcessError as exc:
                print(exc, time.monotonic() - start < 10, end=";")
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("reaped", end=";")
            stderr.seek(0)
            err = stderr.read().decode()
            print(err.count("Traceback"), err.splitlines()[-1], end=";")
        """))
        assert out == "simulation share 0 failed True;reaped;1 ArithmeticError: replication 0;"

    @pytest.mark.skipif(sys.platform != "linux", reason="lists /proc/self/fd")
    def test_no_descriptor_or_child_left_behind(self, monkeypatch):
        # Three runs at 3 workers, whose shares are (0, 3), (1, 4) and (2, 5):
        # one that succeeds, one whose child fails and one whose own share
        # fails. Each closes every pipe end it opened and reaps every child.
        real_simulate_run = failure_sim.simulate_run

        def failing_at(bad):
            def outcome(config, index):
                if index == bad:
                    raise ArithmeticError(f"replication {bad}")
                return real_simulate_run(config, index)
            return outcome

        monkeypatch.setattr(failure_sim, "_available_cpus", lambda: 3)
        config = reference_config(replications=6)
        before = sorted(os.listdir("/proc/self/fd"))
        assert len(collect_replications(config, 3)) == 6
        monkeypatch.setattr(failure_sim, "simulate_run", failing_at(4))
        with pytest.raises(ChildProcessError, match="^simulation share 1 failed$"):
            collect_replications(config, 3)
        monkeypatch.setattr(failure_sim, "simulate_run", failing_at(3))
        with pytest.raises(ChildProcessError, match="^simulation share 0 failed$"):
            collect_replications(config, 3)
        assert sorted(os.listdir("/proc/self/fd")) == before
        with pytest.raises(ChildProcessError):  # no child is left to reap
            os.waitpid(-1, os.WNOHANG)

    def test_uneven_shares_interleave_in_index_order(self, monkeypatch):
        config = reference_config(replications=7)
        serial = collect_replications(config, 1)
        monkeypatch.setattr(failure_sim, "_available_cpus", lambda: 8)
        assert collect_replications(config, 3) == serial

    def test_children_leave_parent_buffers_and_exit_handlers_alone(self, fresh_python):
        # stdout is a pipe here, so the text is still in the parent's buffer
        # when the children fork; each must come out once, from the parent.
        # The parent runs share 0 itself, so it opens the gap streams of
        # replications 0 and 2 and no others.
        out = fresh_python(textwrap.dedent("""
            import atexit, sys
            from traincost import failure_sim
            from traincost.cluster_model import ClusterSpec
            from traincost.scaling_laws import ModelSpec

            failure_sim._available_cpus = lambda: 2
            opened, gaps = [], failure_sim._replication_gaps
            failure_sim._replication_gaps = lambda *key: opened.append(key) or gaps(*key)
            config = failure_sim.SimConfig(
                model=ModelSpec(1e12, 8), cluster=ClusterSpec(n_gpus=50_000), replications=4)
            sys.stdout.write("unflushed;")
            atexit.register(print, "atexit;", end="")
            outcomes = failure_sim.collect_replications(config, 2)
            print(len(outcomes), opened, end=";")
        """))
        assert out == "unflushed;4 [(0, 0), (0, 2)];atexit;"

    @pytest.mark.parametrize("workers", [0, -3])
    def test_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            collect_replications(reference_config(replications=2), workers)


def test_victim_rule_only_relabels_groups(monkeypatch, capsys, philox_rng):
    # Fed the former stream, simulate reproduces the stdout pinned under the
    # former "philox4x64" tag bit for bit: which group a failure took, once
    # drawn at random and now not named at all (the simulator only counts
    # the groups down), never changed anything but labels. In that stream
    # each failure that found a group up drew rng.integers(groups - down)
    # before the next failure gap; at F=0 every failure finds all groups up,
    # so that was integers(groups) before every gap but the first.
    config = ConfigFile()
    groups = group_count(replace(config.cluster, n_gpus=DEFAULT_SIM_GPUS), config.resilience)

    def former_gaps(seed, index):
        rng = philox_rng(seed, index)
        yield rng.standard_exponential()
        while True:
            rng.integers(groups)
            yield rng.standard_exponential()

    monkeypatch.setattr(failure_sim, "_replication_gaps", former_gaps)
    assert main(["simulate", "--seed", "42", "--reps", "40"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "c5c3df0c6d1b7b6324b29a4dc59abb533af584f998c0180785feeb34c3ba0f0e"


def replay_groups_down(trace, groups, resilience):
    """Checks a trace's groups_down column by replaying its events in order.

    A FAIL takes a group unless all are down, so the count rises by 1 or
    stays at G; each REPAIR lowers it by 1, exactly ttr_h after the oldest
    unrepaired FAIL that took a group; a count above F interrupts at once,
    and only then; RESTART brings every group back.
    """
    taken = []  # times of the FAILs that took a group, oldest first
    next_kinds = [k for _, k, _ in trace[1:]] + [None]
    for (t, kind, down), next_kind in zip(trace, next_kinds):
        if kind == EVENT_FAIL and len(taken) < groups:
            taken.append(t)
        elif kind == EVENT_REPAIR:
            assert t == taken.pop(0) + resilience.ttr_h
        elif kind == EVENT_RESTART:
            taken.clear()
        assert down == len(taken)
        over = down > resilience.tolerated_group_failures
        assert (kind == EVENT_FAIL and over) == (next_kind == EVENT_INTERRUPT)
        assert kind != EVENT_INTERRUPT or over


class CountingGaps:
    """Passes the gaps of a stream through, counting how many were drawn."""

    def __init__(self, gaps):
        self._gaps, self.drawn = gaps, 0

    def __iter__(self):
        return self

    def __next__(self):
        self.drawn += 1
        return next(self._gaps)


# The event loop as it was before its min() calls were spelled out as
# comparisons and its draws bound to gaps.__next__: one event per pass,
# kept verbatim as the reference the current loop must match exactly.
def reference_run_events(
    run: RunPolicy,
    gaps: Iterator[float],
    max_wall_h: float,
    trace: list | None = None,
) -> tuple[float, EventCounts]:
    """Run one replication; returns (wall_h, counts), wall_h=inf if censored.

    Failure gaps are read from gaps (standard exponential, scaled by the
    MTTI): one for the first failure and one after each failure, none when
    the MTTI is infinite.
    """
    work, tau, delta, mtti, groups = run.solve_h, run.tau_h, run.delta_h, run.mtti_h, run.groups
    tolerated, ttr = run.tolerated_group_failures, run.ttr_h

    emit = trace.append if trace is not None else None
    t = 0.0
    progress = 0.0
    ckpt_progress = 0.0
    repairs_due: deque[float] = deque()  # one repair time per down group, FIFO
    writing_until: float | None = None
    failures = repairs = checkpoints = interrupts = 0

    def next_failure(after: float) -> float:
        return after + mtti * next(gaps) if math.isfinite(mtti) else math.inf

    next_fail = next_failure(t)

    while True:
        active = groups - len(repairs_due)
        rate = active / groups  # exactly 1.0 with all groups up
        target = None
        if writing_until is not None:
            t_work = writing_until
        elif active > 0:
            target = min(ckpt_progress + tau, work)
            t_work = t + (target - progress) / rate
        else:
            t_work = math.inf  # all groups down, waiting on repairs
        t_repair = repairs_due[0] if repairs_due else math.inf
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
            repairs_due.popleft()
            repairs += 1
            if emit:
                emit((t, EVENT_REPAIR, len(repairs_due)))
        elif t_work <= next_fail:
            if writing_until is not None:
                writing_until = None
                ckpt_progress = progress
                checkpoints += 1
                if emit:
                    emit((t, EVENT_CKPT_END, len(repairs_due)))
            else:
                progress = target  # snap away accrual rounding
                if progress >= work:
                    if emit:
                        emit((t, EVENT_DONE, len(repairs_due)))
                    counts = EventCounts(failures, repairs, checkpoints, interrupts)
                    return t, counts
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
            next_fail = next_failure(t)


def loop_case(groups, tolerated, mtti_h, ttr_h, max_wall_h, solve_h=200.0, tau_h=9.0,
              delta_h=1.5, seed=0, index=0):
    run = RunPolicy(solve_h=solve_h, tau_h=tau_h, delta_h=delta_h, mtti_h=mtti_h, groups=groups,
                    tolerated_group_failures=tolerated, ttr_h=ttr_h)
    return run, max_wall_h, (seed, index)


@st.composite
def loop_cases(draw):
    return loop_case(
        groups=draw(st.integers(1, 100)),
        tolerated=draw(st.one_of(st.just(0), st.integers(1, 6))),  # F=0 half the time
        mtti_h=draw(st.one_of(st.just(math.inf), st.floats(1.0, 50.0))),
        # Short repairs leave a group or two down; long ones take every group down.
        ttr_h=draw(st.one_of(st.floats(0.0, 2.0), st.floats(20.0, 200.0))),
        max_wall_h=draw(st.one_of(st.floats(1.0, 100.0), st.just(5000.0))),
        solve_h=draw(st.floats(1.0, 300.0)),
        tau_h=draw(st.floats(0.5, 50.0)),
        delta_h=draw(st.one_of(st.just(0.0), st.floats(0.01, 20.0))),
        seed=draw(st.integers(0, 2**64 - 1)),
        index=draw(st.integers(0, 2**64 - 1)),
    )


def first_kind_past(trace, horizon):
    return next(kind for t, kind, _ in trace if t > horizon)


def fails_mid_write(trace):
    kinds = [kind for _, kind, _ in trace]
    return any(a == EVENT_CKPT_START and b == EVENT_FAIL for a, b in zip(kinds, kinds[1:]))


# F=0 cases, where every failure interrupts, each with a check that it shows
# what its name says: check(run, max_wall_h, (wall, counts), draws, trace).
F0_CASES = {
    "mtti_far_below_tau": (
        loop_case(10, 0, 2.0, 1.0, 1e5, solve_h=30.0, tau_h=12.0, delta_h=0.5),
        lambda run, horizon, out, draws, trace:
            run.mtti_h * 5 < run.tau_h and out[0] < horizon and out[1].failures > 1000,
    ),
    "failures_mid_write": (
        loop_case(8, 0, 3.0, 1.0, 5000.0, delta_h=4.0),
        lambda run, horizon, out, draws, trace:
            run.delta_h >= run.mtti_h and fails_mid_write(trace),
    ),
    "zero_ttr": (
        loop_case(10, 0, 5.0, 0.0, 5000.0),
        lambda run, horizon, out, draws, trace:
            run.ttr_h == 0 and out[0] < horizon and out[1].failures > 0,
    ),
    "infinite_mtti": (
        loop_case(10, 0, math.inf, 2.0, 5000.0),
        lambda run, horizon, out, draws, trace:
            draws == 0 and out[0] < horizon and out[1].checkpoints > 0,
    ),
    "censored_at_work_end": (
        loop_case(10, 0, math.inf, 2.0, 19.0),
        lambda run, horizon, out, draws, trace:
            out[0] == math.inf and first_kind_past(trace, horizon) == EVENT_CKPT_START,
    ),
    "censored_at_write_end": (
        loop_case(10, 0, math.inf, 2.0, 20.0),
        lambda run, horizon, out, draws, trace:
            out[0] == math.inf and first_kind_past(trace, horizon) == EVENT_CKPT_END,
    ),
    "censored_at_failure": (
        loop_case(10, 0, 20.0, 2.0, 30.0, seed=3),
        lambda run, horizon, out, draws, trace:
            out[0] == math.inf and first_kind_past(trace, horizon) == EVENT_FAIL,
    ),
}


def write_states(trace):
    """(kind, groups down before, groups down after, writing before) per event."""
    down, writing = 0, False
    for _, kind, after in trace:
        yield kind, down, after, writing
        down = after
        if kind == EVENT_CKPT_START:
            writing = True
        elif kind in (EVENT_CKPT_END, EVENT_INTERRUPT):
            writing = False


def rides_out(trace, during_write):
    return any(kind == EVENT_FAIL and down == 0 and writing == during_write
               for kind, down, _, writing in write_states(trace))


def last_repair_mid_write(trace):
    states = list(write_states(trace))
    return any(kind == EVENT_REPAIR and after == 0 and writing and next_kind == EVENT_CKPT_END
               for (kind, _, after, writing), (next_kind, *_) in zip(states, states[1:]))


# F>0 cases, where failures are ridden out, checked as F0_CASES are.
RIDE_OUT_CASES = {
    "during_work": (
        loop_case(20, 5, 4.0, 1.0, 5000.0),
        lambda run, horizon, out, draws, trace:
            out[0] < horizon and rides_out(trace, during_write=False),
    ),
    "during_a_write": (
        loop_case(8, 2, 3.0, 1.0, 5000.0, delta_h=4.0),
        lambda run, horizon, out, draws, trace:
            out[0] < horizon and rides_out(trace, during_write=True),
    ),
    "last_repair_mid_write": (
        loop_case(8, 2, 3.0, 1.0, 5000.0, delta_h=4.0),
        lambda run, horizon, out, draws, trace:
            out[0] < horizon and last_repair_mid_write(trace),
    ),
    "every_group_down": (
        loop_case(3, 6, 8.0, 20.0, 5000.0),
        lambda run, horizon, out, draws, trace:
            out[0] < horizon and any(after == run.groups for _, _, after in trace),
    ),
}


def assert_matches_reference(run, max_wall_h, gaps):
    """_run_events matches reference_run_events on the gaps() stream.

    Traced and untraced, it returns the same (wall_h, counts) and draws as
    many gaps, and its trace is the same. Returns the reference's result
    and draw count.
    """
    reference, reference_trace = CountingGaps(gaps()), []
    want = reference_run_events(run, reference, max_wall_h, reference_trace)
    traced, untraced, trace = CountingGaps(gaps()), CountingGaps(gaps()), []
    assert _run_events(run, traced, max_wall_h, trace) == want
    assert trace == reference_trace
    assert _run_events(run, untraced, max_wall_h) == want
    assert traced.drawn == untraced.drawn == reference.drawn
    return want, reference.drawn


def assert_named_case(case, shows):
    run, max_wall_h, key = case
    want, drawn = assert_matches_reference(run, max_wall_h, lambda: _replication_gaps(*key))
    # The case shows what its name says, in the trace of the same
    # replication with a horizon far away.
    trace = []
    reference_run_events(run, _replication_gaps(*key), 1e9, trace)
    assert shows(run, max_wall_h, want, drawn, trace)


class TestEventLoopMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(loop_cases())
    @example(loop_case(20, 5, 4.0, 1.0, 5000.0))  # degraded stretches, finishes
    @example(loop_case(3, 6, 2.0, 100.0, 5000.0))  # every group down at times
    @example(loop_case(8, 0, 3.0, 1.0, 5000.0, delta_h=4.0))  # failures mid-write
    @example(loop_case(10, 0, 1.0, 2.0, 30.0))  # censored at a small horizon
    @example(loop_case(10, 2, math.inf, 2.0, 5000.0))  # no failures, no draws
    def test_same_wall_counts_trace_and_draws(self, case):
        run, max_wall_h, key = case
        assert_matches_reference(run, max_wall_h, lambda: _replication_gaps(*key))

    @pytest.mark.parametrize("name", F0_CASES)
    def test_f0_case_matches_reference(self, name):
        assert_named_case(*F0_CASES[name])

    @pytest.mark.parametrize("name", RIDE_OUT_CASES)
    def test_ride_out_matches_reference(self, name):
        assert_named_case(*RIDE_OUT_CASES[name])

    # solve 20 h, tau 9 h, delta 1.5 h, ttr 2 h and an MTTI of 1 h, so a gap
    # of g puts the first failure at g h: work ends at 9, 19.5 and 23 h and
    # writes end at 10.5 and 21 h. A tie goes to the work or write end.
    @pytest.mark.parametrize("first_gap, want", [
        (10.5, (25.0, EventCounts(1, 0, 2, 1))),  # then rolls back to 9 h, not 0
        (23.0, (23.0, EventCounts(0, 0, 2, 0))),  # done, not failed
    ], ids=["at_a_write_end", "at_the_end_of_work"])
    def test_f0_ties_go_to_work_and_writes(self, first_gap, want):
        run, max_wall_h, _ = loop_case(1, 0, 1.0, 2.0, 5000.0, solve_h=20.0)
        gaps = [first_gap, 100.0, 100.0]
        got, _ = assert_matches_reference(run, max_wall_h, lambda: iter(gaps))
        assert got == want

    # F=1 with 2 groups, so one group down halves the rate and a second
    # failure while it is down interrupts; otherwise as above.
    @pytest.mark.parametrize("ttr_h, gaps, want", [
        # The failure at 5 h is repaired at 7 h, when the next one comes: the
        # repair goes first, so that failure is ridden out, not an interrupt.
        (2.0, [5.0, 2.0, 100.0], (25.0, EventCounts(2, 2, 2, 0))),
        # The failure at 1 h is repaired at 21 h; work at half rate ends at
        # 17 h and its write at 18.5 h, when the next failure interrupts: the
        # write completes first, so the rollback is to 9 h, not 0.
        (20.0, [1.0, 17.5, 100.0], (51.0, EventCounts(2, 0, 2, 1))),
        # Work at half rate from the failure at 8 h ends at 10 h, when that
        # group is repaired: the repair goes first, so the trace has the
        # write start with every group up.
        (2.0, [8.0, 100.0], (24.0, EventCounts(1, 1, 2, 0))),
        # The failure at 1 h is repaired at 18.5 h; work at half rate ends at
        # 17 h and its write at 18.5 h: the repair goes first, so the write
        # ends with every group up.
        (17.5, [1.0, 100.0], (31.0, EventCounts(1, 1, 2, 0))),
    ], ids=["at_a_repair", "at_a_write_end_with_a_group_down", "at_a_work_end_with_a_repair",
            "at_a_write_end_with_a_repair"])
    def test_f1_ties_go_to_repairs_then_work_and_writes(self, ttr_h, gaps, want):
        run, max_wall_h, _ = loop_case(2, 1, 1.0, ttr_h, 5000.0, solve_h=20.0)
        got, _ = assert_matches_reference(run, max_wall_h, lambda: iter(gaps))
        assert got == want

    # F == G == 2 with ttr 50 h: the failures at 0.5 and 1 h take both groups
    # down, and the one at 1.5 h finds none up, so it is ridden out, not an
    # interrupt. Work at full rate from 51 h, with 1 h done, ends at 150.9 h.
    def test_a_failure_with_every_group_down_at_f_equal_g_is_ridden_out(self):
        run, max_wall_h, _ = loop_case(2, 2, 1.0, 50.0, 5000.0, solve_h=100.0, tau_h=10.0,
                                       delta_h=0.1)
        got, _ = assert_matches_reference(
            run, max_wall_h, lambda: itertools.chain([0.5, 0.5, 0.5], itertools.repeat(1000.0)))
        assert got == (pytest.approx(150.9), EventCounts(3, 2, 9, 0))

    # An event exactly at the horizon is played; the run is censored at the
    # first event past it. Work ends at 9 and 19.5 h and writes end at 10.5
    # and 21 h, as above, with solve 200 h.
    @pytest.mark.parametrize("case, gaps, want", [
        (loop_case(10, 0, math.inf, 2.0, 9.0), [], (math.inf, EventCounts(0, 0, 0, 0))),
        (loop_case(10, 0, math.inf, 2.0, 21.0), [], (math.inf, EventCounts(0, 0, 2, 0))),
        # The failure at 5 h interrupts; the restart at 7 h is past the horizon.
        (loop_case(1, 0, 1.0, 2.0, 5.0), [5.0, 100.0], (math.inf, EventCounts(1, 0, 0, 1))),
        # F=1 with 2 groups: the failure at 5 h is ridden out and repaired at 7 h.
        (loop_case(2, 1, 1.0, 2.0, 7.0), [5.0, 100.0], (math.inf, EventCounts(1, 1, 0, 0))),
    ], ids=["a_work_end", "a_write_end", "a_failure", "a_repair"])
    def test_an_event_at_the_horizon_is_played(self, case, gaps, want):
        run, max_wall_h, _ = case
        got, _ = assert_matches_reference(run, max_wall_h, lambda: iter(gaps))
        assert got == want

    @pytest.mark.parametrize("tolerated", [0, 5], ids=["F0", "F5"])
    def test_traced_and_untraced_runs_agree(self, tolerated):
        config = reference_config(
            replications=20, resilience=replace(BASELINE, tolerated_group_failures=tolerated))
        traced = [simulate_run(config, i, trace=[]) for i in range(20)]
        assert [simulate_run(config, i) for i in range(20)] == traced
        assert sum(counts.failures for _, counts in traced) > 100


class TestGapStream:
    DRAWS = 100_000

    def draws(self, seed, index, n=DRAWS):
        return list(itertools.islice(_replication_gaps(seed, index), n))

    @pytest.mark.parametrize("key, first, second, thousandth", [
        ((0, 0), "0x1.993627df9b4b2p-1", "0x1.408bc1d10e965p+1", "0x1.d1b05256d2e37p+0"),
        ((2**64 - 1, 2**64 - 1),
         "0x1.b9f25a95b0c8fp+0", "0x1.4e9ba6d8f4a08p-1", "0x1.02de7f10f2e7ap-2"),
    ], ids=["zero_key", "max_key"])
    def test_known_answers(self, key, first, second, thousandth):
        # Draws 0, 1 and 1,000, the last from a later refill of the 624-word state.
        gaps = self.draws(*key, n=1001)
        assert [gaps[0].hex(), gaps[1].hex(), gaps[1000].hex()] == [first, second, thousandth]

    @pytest.mark.parametrize("key", [(0, 0), (2024, 7), (2**64 - 1, 2**64 - 1)])
    def test_draws_follow_mt19937_init_by_array(self, key):
        # numpy's legacy MT19937, seeded by init_by_array with the 32-bit
        # words of the seed integer that random.seed builds from the key
        # bytes (key + sha512(key), big-endian), gives the same uniforms.
        import numpy as np

        key_bytes = struct.pack("<QQ", *key)
        number = int.from_bytes(key_bytes + hashlib.sha512(key_bytes).digest(), "big")
        words = [(number >> shift) & 0xFFFFFFFF for shift in range(0, number.bit_length(), 32)]
        uniforms = np.random.RandomState(np.array(words, dtype=np.uint32)).random_sample(1001)
        assert self.draws(*key, n=1001) == [-math.log(1.0 - u) for u in uniforms.tolist()]

    def test_standard_exponential_by_kolmogorov_smirnov(self):
        n = self.DRAWS
        cdf = [-math.expm1(-x) for x in sorted(self.draws(2024, 7))]
        d = max(max((i + 1) / n - f, f - i / n) for i, f in enumerate(cdf))
        assert d < 1.628 / math.sqrt(n)  # the 1% critical value

    @pytest.mark.parametrize("step", [(1, 0), (0, 1)], ids=["next_seed", "next_replication"])
    def test_adjacent_keys_uncorrelated(self, step):
        # Each key in a 10 x 10 grid of seeds and replications around
        # (2024, 7) is paired with its neighbour one step along: 90 pairs,
        # (2024, 7) and its neighbour among them. For independent streams
        # z = r * sqrt(n) is close to standard normal, so the sum of z**2 is
        # chi-square with 90 degrees of freedom and the count of |z| > 2.576
        # is binomial(90, 1%). The bounds are the 0.05% and 99.95% points of
        # the first and the 99.97% point of the second, so an independent
        # generator fails each case with probability below 0.15%; any one
        # pair alone fails its 1% bound once in a hundred.
        n = 5_000
        keys = [(seed, index) for seed in range(2024, 2034) for index in range(7, 17)]
        draws = {key: self.draws(*key, n=n) for key in keys}
        z = [
            statistics.correlation(draws[seed, index], draws[neighbour]) * math.sqrt(n)
            for seed, index in keys
            if (neighbour := (seed + step[0], index + step[1])) in draws
        ]
        assert len(z) == 90
        assert 52.28 < math.fsum(x * x for x in z) < 140.78
        assert sum(abs(x) > 2.576 for x in z) <= 5

    @pytest.mark.parametrize("groups", [3, 8])
    def test_one_gap_per_failure_plus_one(self, groups):
        # F=5 and a 24 h repair: with 3 groups every group is down at times,
        # and with 8 groups six down at once interrupt the run. (With an
        # infinite MTTI no gap is drawn: test_checkpoint_accounting_exact.)
        # tau and delta are those of the 50k-GPU reference run.
        run = RunPolicy(solve_h=500.0, tau_h=8.538247985217714, delta_h=2.2222222222222223,
                        mtti_h=8.0, groups=groups, tolerated_group_failures=5, ttr_h=24.0)
        gaps = CountingGaps(_replication_gaps(0, 0))
        trace = []
        wall, counts = _run_events(run, gaps, 1e7, trace)
        assert math.isfinite(wall)
        assert gaps.drawn == counts.failures + 1
        replay_groups_down(trace, groups, run)
        if groups <= run.tolerated_group_failures:
            # Some FAIL found every group already down: the count stays at G.
            before = [0] + [g for _, _, g in trace]
            assert any(k == EVENT_FAIL and g == b == groups
                       for (_, k, g), b in zip(trace, before))
        else:
            assert counts.interrupts > 0


class TestFailureFree:
    def test_wall_equals_closed_form_exactly(self):
        cluster = replace(CLUSTER_50K, gpu_mtbf_h=math.inf, cpu_mtbf_h=math.inf)
        config = reference_config(cluster=cluster, replications=1)
        wall, counts = simulate_run(config, 0)
        solve = expected_runtime(config.model, CONSTANTS, cluster, BASELINE).solve_h
        assert wall == solve
        assert counts.interrupts == 0
        assert counts.failures == 0

    def test_checkpoint_accounting_exact(self):
        # Explicit interval smaller than the work target: wall is exactly
        # W + n_ckpt * delta with n_ckpt = ceil(W/tau) - 1.
        run = RunPolicy(solve_h=100.0, tau_h=9.0, delta_h=0.5, mtti_h=math.inf, groups=10,
                        tolerated_group_failures=0, ttr_h=2.0)
        wall, counts = _run_events(run, iter(()), 1e9)  # no gap is drawn
        assert wall == 100.0 + 11 * 0.5
        assert counts.checkpoints == 11

    def test_ensemble_stddev_zero(self):
        cluster = replace(CLUSTER_50K, gpu_mtbf_h=math.inf, cpu_mtbf_h=math.inf)
        result = summarize(collect_replications(reference_config(cluster=cluster, replications=50)))
        assert result.stddev_wall_h == 0.0
        assert result.ci95_half_width_h == 0.0


class TestExactF0Expectation:
    # At F=0 the expected wall-clock is the renewal-reward sum of the README's
    # Caveats: ceil(W/tau) - 1 segments of T = tau + delta, then one of the
    # remaining work, each costing (MTTI + ttr) * expm1(T / MTTI). Young/Daly
    # would pick tau = 2.83, 4.0 and 1.0 h for these cases.
    @pytest.mark.parametrize("work, tau, delta, mtti, ttr", [
        (200.0, 5.0, 0.5, 8.0, 2.0),
        (200.0, 13.0, 1.0, 8.0, 0.0),
        (60.0, 3.0, 0.25, 2.0, 1.0),
    ])
    def test_simulated_mean_matches_renewal_reward_sum(self, work, tau, delta, mtti, ttr):
        full = math.ceil(work / tau) - 1
        segments = [tau + delta] * full + [work - full * tau]
        exact = math.fsum((mtti + ttr) * math.expm1(t / mtti) for t in segments)
        run, horizon, _ = loop_case(
            1, 0, mtti, ttr, failure_sim.MAX_WALL_H, solve_h=work, tau_h=tau, delta_h=delta)
        n = 4000
        walls = [_run_events(run, _replication_gaps(7, i), horizon)[0]
                 for i in range(n)]
        z = (statistics.fmean(walls) - exact) / (statistics.stdev(walls) / math.sqrt(n))
        assert abs(z) <= 3, z


class TestOracleAgreement:
    def test_baseline_reference_within_20_percent(self):
        config = reference_config()
        report = validate_analytic(config, tolerance=0.20)
        assert report.passed, report
        assert math.isclose(config.run.wall_h, 2039.48, rel_tol=1e-3)

    def test_optimized_reference_within_20_percent(self):
        config = reference_config(cluster=OPT_CLUSTER, resilience=OPT_RESILIENCE)
        report = validate_analytic(config, tolerance=0.20)
        assert report.passed, report
        assert math.isclose(config.run.wall_h, 1101.25, rel_tol=1e-3)

    def test_tiny_tolerance_fails_on_stochastic_config(self):
        report = validate_analytic(reference_config(replications=50), tolerance=1e-9)
        assert not report.passed

    def test_failure_free_tolerance_1e6(self):
        cluster = replace(CLUSTER_50K, gpu_mtbf_h=math.inf, cpu_mtbf_h=math.inf)
        config = reference_config(cluster=cluster, replications=5)
        report = validate_analytic(config, tolerance=1e-6)
        assert report.passed
        assert report.relative_error <= 1e-12

    def test_no_progress_analytic_needs_censored_simulation(self, monkeypatch):
        # A horizon below the failure-free solve time censors every
        # replication, whatever the gaps.
        monkeypatch.setattr(failure_sim, "MAX_WALL_H", 300.0)
        cluster = ClusterSpec(n_gpus=131_072)
        config = reference_config(cluster=cluster, replications=3)
        assert config.run.solve_h > failure_sim.MAX_WALL_H
        analytic = expected_runtime(config.model, CONSTANTS, cluster, BASELINE)
        assert not analytic.ok
        report = validate_analytic(config, tolerance=0.20)
        assert report.passed
        assert summarize(collect_replications(config)).mean_wall_h == math.inf


class TestStochasticProperties:
    def test_interrupt_count_tracks_mtti_at_zero_tolerance(self):
        config = reference_config(replications=1000)
        result = summarize(collect_replications(config))
        mtti = 1.0 / (50_000 / 950_000 + 12_500 / 1_500_000)
        expected = result.mean_wall_h / mtti
        assert abs(result.mean_interrupts - expected) / expected <= 0.15

    def test_more_tolerance_never_hurts(self):
        base = summarize(collect_replications(reference_config(replications=300)))
        tolerant = summarize(collect_replications(
            reference_config(
                replications=300,
                resilience=replace(BASELINE, tolerated_group_failures=5),
            )
        ))
        noise = base.ci95_half_width_h + tolerant.ci95_half_width_h
        assert tolerant.mean_wall_h <= base.mean_wall_h + noise

    def test_faster_checkpoints_never_hurt(self):
        base = summarize(collect_replications(reference_config(replications=300)))
        faster = summarize(collect_replications(
            reference_config(replications=300, cluster=replace(CLUSTER_50K, fs_bw_gbs=2000.0))
        ))
        noise = base.ci95_half_width_h + faster.ci95_half_width_h
        assert faster.mean_wall_h <= base.mean_wall_h + noise


class TestEnsembleStatistics:
    def test_single_replication(self):
        outcomes = collect_replications(reference_config(replications=1))
        result = summarize(outcomes)
        assert result.mean_wall_h == outcomes[0][0]
        assert math.isnan(result.stddev_wall_h)
        assert math.isnan(result.ci95_half_width_h)

    def test_mean_within_range(self):
        outcomes = collect_replications(reference_config(replications=20))
        walls = [wall for wall, _ in outcomes]
        result = summarize(outcomes)
        assert min(walls) <= result.mean_wall_h <= max(walls)
        assert result.ci95_half_width_h >= 0.0

    def test_generator_recorded(self):
        result = summarize(collect_replications(reference_config(replications=1)))
        assert result.generator == GENERATOR_NAME

    def test_summarize_rejects_nothing_censored_runs_to_inf_mean(self):
        result = summarize([(math.inf, simulate_run(reference_config(), 0)[1])])
        assert result.mean_wall_h == math.inf


class TestTrace:
    def test_trace_is_chronological_and_ends_done(self):
        trace = []
        wall, _ = simulate_run(reference_config(), 0, trace=trace)
        times = [t for t, _, _ in trace]
        assert times == sorted(times)
        assert trace[-1] == (wall, EVENT_DONE, 0)
        kinds = {k for _, k, _ in trace}
        assert kinds <= {
            "FAIL", "REPAIR", "CKPT_START", "CKPT_END", "INTERRUPT", "RESTART", "DONE",
        }

    def test_groups_down_replays_fifo_repairs(self):
        trace = []
        config = reference_config(resilience=OPT_RESILIENCE, cluster=OPT_CLUSTER)
        simulate_run(config, 1, trace=trace)
        replay_groups_down(trace, config.run.groups, OPT_RESILIENCE)
        assert max(g for _, _, g in trace) >= 2, "expected a failure while a group was down"

    def test_censoring_returns_inf(self, monkeypatch):
        monkeypatch.setattr(failure_sim, "MAX_WALL_H", 10.0)
        wall, _ = simulate_run(reference_config(replications=1), 0)
        assert wall == math.inf

    def test_trace_serializes_to_csv_dialect(self):
        from traincost.failure_sim import trace_table

        trace = []
        simulate_run(reference_config(), 0, trace=trace)
        csv_text = trace_table(trace).to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "time_h,kind,groups_down"
        assert lines[-1].endswith(",DONE,0")
        assert any(",FAIL," in line for line in lines)


class TestValidation:
    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            validate_analytic(reference_config(replications=1), tolerance=0.0)

    # The reference closed form at 50,000 GPUs is 2,039 h: within the 1e7 h
    # horizon, and past a 1,000 h one, where it is judged like NoProgress.
    # With no GPU count the expectation is 1,000 h, which no RunBreakdown gave.
    @pytest.mark.parametrize("n_gpus, wall, relative_error, passed, horizon", [
        (131_072, 5000.0, "nan", False, 1e7),  # NoProgress, but the run finished
        (131_072, math.inf, "nan", True, 1e7),  # NoProgress and censored
        (50_000, math.inf, "inf", False, 1e7),  # finite closed form, censored run
        (50_000, math.inf, "nan", True, 1_000.0),  # past the horizon and censored
        (50_000, 900.0, "nan", False, 1_000.0),  # past the horizon, but the run finished
        (None, 1100.0, "0.1", True, 1e7),  # a given expectation, within tolerance
    ], ids=["131072-5000.0-nan-False", "131072-inf-nan-True", "50000-inf-inf-False",
            "past_horizon-censored", "past_horizon-finished", "given_expectation"])
    def test_verdict_rules(self, monkeypatch, n_gpus, wall, relative_error, passed, horizon):
        monkeypatch.setattr(failure_sim, "MAX_WALL_H", horizon)
        if n_gpus is None:
            expected_h = 1_000.0
        else:
            config = reference_config(cluster=ClusterSpec(n_gpus=n_gpus), replications=2)
            expected_h = config.run.wall_h
        verdict = analytic_verdict(expected_h, wall, tolerance=0.20)
        assert verdict.passed is passed
        assert f"{verdict.relative_error:.4g}" == relative_error

    @pytest.mark.parametrize("index", [-1, 2**64], ids=["negative", "past_64_bits"])
    def test_rejects_replication_index_outside_64_bits(self, index):
        with pytest.raises(ValueError, match=r"^replication_index must be a 64-bit unsigned integer$"):
            simulate_run(reference_config(replications=1), index)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SimConfig(model=reference_model(), cluster=CLUSTER_50K, replications=0)
        with pytest.raises(ValueError):
            SimConfig(model=reference_model(), cluster=CLUSTER_50K, seed=-1)
        # A checkpoint write time that overflows is rejected by the closed
        # form the config derives, before any replication runs.
        with pytest.raises(ValueError, match="checkpoint write time is not finite"):
            SimConfig(model=reference_model(), cluster=replace(CLUSTER_50K, gpu_mem_gb=1e308))

    # tau_h = solve_h: 8.96e-10 h at 2e17 GPUs and 1.79e-10 h at 1e18, both below
    # half an ulp of the 1e7 h horizon (9.31e-10 h). Past 2**23 h (2**21 h) then
    # t + tau == t, and a replication would finish a NoProgress run in no time.
    # At 1e17 GPUs tau_h is 1.79e-09 h: the clock still advances, and the run is accepted.
    @pytest.mark.parametrize("n_gpus, tau", [(2 * 10**17, "8.96e-10"), (10**18, "1.79e-10")])
    def test_rejects_checkpoint_interval_below_clock_resolution(self, n_gpus, tau):
        message = (f"^checkpoint interval {tau} h is below the resolution of simulated "
                   r"time at the 1e\+07 h horizon$")
        with pytest.raises(ValueError, match=message):
            SimConfig(model=ModelSpec(1.8e12, 8), cluster=ClusterSpec(n_gpus), replications=1)

    def test_accepts_checkpoint_interval_the_clock_resolves(self):
        config = SimConfig(model=ModelSpec(1.8e12, 8), cluster=ClusterSpec(10**17), replications=1)
        assert failure_sim.MAX_WALL_H + config.run.tau_h > failure_sim.MAX_WALL_H

    def test_derive_parameters_match_cluster_model(self):
        config = reference_config()
        run = config.run
        assert run == expected_runtime(config.model, CONSTANTS, CLUSTER_50K, BASELINE)
        assert run.solve_h == expected_runtime(config.model, CONSTANTS, CLUSTER_50K, BASELINE).solve_h
        assert run.groups == 97
        assert config.resilience.tolerated_group_failures == 0
        assert math.isclose(run.tau_h, 8.538, rel_tol=1e-3)
        # The policy the event loop plays carries the resilience's F and ttr.
        for resilience in (BASELINE, OPT_RESILIENCE):
            run = reference_config(resilience=resilience).run
            assert run.tolerated_group_failures == resilience.tolerated_group_failures
            assert run.ttr_h == resilience.ttr_h

    def test_simulate_run_plays_only_the_policy(self):
        # At F=5 a bare RunPolicy with config.run's seven fields plays the
        # same replications: the loop reads nothing else of the config.
        config = reference_config(cluster=OPT_CLUSTER, resilience=OPT_RESILIENCE)
        run = config.run
        assert run.tolerated_group_failures == 5
        policy = RunPolicy(run.solve_h, run.tau_h, run.delta_h, run.mtti_h, run.groups,
                           run.tolerated_group_failures, run.ttr_h)
        for i in range(5):
            want = _run_events(policy, _replication_gaps(config.seed, i), failure_sim.MAX_WALL_H)
            assert simulate_run(config, i) == want

    def test_run_is_derived_not_passed(self):
        with pytest.raises(TypeError):
            SimConfig(model=reference_model(), cluster=CLUSTER_50K, run=reference_config().run)

    def test_pickle_keeps_run_without_deriving_again(self, monkeypatch):
        # Forked workers inherit the config and no longer receive it pickled,
        # but library users may still pickle one: it must not redo the derivation.
        config = reference_config(replications=1)

        def forbidden(*args):
            raise AssertionError("expected_runtime called while unpickling")

        monkeypatch.setattr(failure_sim, "expected_runtime", forbidden)
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.run == config.run
