import concurrent.futures
import math
import textwrap
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from traincost import failure_sim
from traincost.cluster_model import (
    ClusterSpec,
    ResilienceConfig,
    expected_runtime,
    parallel_efficiency,
    solve_hours,
)
from traincost.failure_sim import (
    EVENT_DONE,
    EVENT_FAIL,
    EVENT_REPAIR,
    GENERATOR_NAME,
    RunParameters,
    SimConfig,
    _pick_active_group,
    _replication_rng,
    _run_events,
    collect_replications,
    derive_run_parameters,
    run_ensemble,
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
        [(64, 8, [4]), (3, 8, [3]), (64, 2, [2]), (10**9, 2, [2]), (3, 1, [])],
    )
    def test_pool_size_capped(self, monkeypatch, workers, cpus, started):
        sizes = []

        class RecordingPool:
            """Records the requested pool size and runs the tasks in process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(failure_sim, "_available_cpus", lambda: cpus)
        config = reference_config(replications=4)
        assert collect_replications(config, workers) == collect_replications(config, 1)
        assert sizes == started

    @pytest.mark.parametrize("workers", [0, -3])
    def test_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            collect_replications(reference_config(replications=2), workers)

    def test_numpy_imported_before_pool_forks(self, fresh_python):
        # Forked workers inherit the parent's modules; without numpy there,
        # each worker would import it again.
        out = fresh_python(textwrap.dedent("""
            import concurrent.futures, sys
            from traincost import failure_sim
            from traincost.cluster_model import ClusterSpec
            from traincost.scaling_laws import ModelSpec

            class PoolProbe:
                # Reports whether numpy is loaded when the pool is built, then exits.
                def __init__(self, max_workers):
                    print("numpy" in sys.modules)
                    sys.exit(0)

            concurrent.futures.ProcessPoolExecutor = PoolProbe
            failure_sim._available_cpus = lambda: 2
            config = failure_sim.SimConfig(ModelSpec(1e12, 8), ClusterSpec(n_gpus=50_000), replications=2)
            print("numpy" in sys.modules)
            failure_sim.collect_replications(config, 2)
        """))
        assert out.split() == ["False", "True"]


def _pick_by_scan(rng, down_ids, groups):
    """The linear scan over all group ids that _pick_active_group replaced."""
    k = int(rng.integers(groups - len(down_ids)))
    idx = 0
    for gid in range(groups):
        if gid not in down_ids:
            if idx == k:
                return gid
            idx += 1
    raise AssertionError("no active group")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 512).flatmap(lambda groups: st.tuples(
        st.just(groups), st.sets(st.integers(0, groups - 1), max_size=min(groups - 1, 8)))),
    st.integers(0, 2**64 - 1),
)
def test_pick_matches_linear_scan(case, seed):
    groups, down_ids = case
    fast, slow = _replication_rng(seed, 0), _replication_rng(seed, 0)
    assert _pick_active_group(fast, down_ids, groups) == _pick_by_scan(slow, down_ids, groups)
    # Same next draw: the pick consumed exactly as much of the stream.
    assert fast.integers(2**63) == slow.integers(2**63)


class TestFailureFree:
    def test_wall_equals_closed_form_exactly(self):
        cluster = replace(CLUSTER_50K, gpu_mtbf_h=math.inf, cpu_mtbf_h=math.inf)
        config = reference_config(cluster=cluster, replications=1)
        wall, counts = simulate_run(config, 0)
        solve = solve_hours(config.model, CONSTANTS, cluster, BASELINE)
        assert wall == solve
        assert counts.interrupts == 0
        assert counts.failures == 0

    def test_checkpoint_accounting_exact(self):
        # Explicit interval smaller than the work target: wall is exactly
        # W + n_ckpt * delta with n_ckpt = ceil(W/tau) - 1.
        params = RunParameters(
            work_h=100.0, tau_h=9.0, delta_h=0.5, mtti_h=math.inf,
            groups=10, tolerated_failures=0, ttr_h=2.0,
        )
        wall, counts = _run_events(params, _replication_rng(0, 0), 1e9)
        assert wall == 100.0 + 11 * 0.5
        assert counts.checkpoints == 11

    def test_ensemble_stddev_zero(self):
        cluster = replace(CLUSTER_50K, gpu_mtbf_h=math.inf, cpu_mtbf_h=math.inf)
        result = run_ensemble(reference_config(cluster=cluster, replications=50))
        assert result.stddev_wall_h == 0.0
        assert result.ci95_half_width_h == 0.0


class TestOracleAgreement:
    def test_baseline_reference_within_20_percent(self):
        config = reference_config()
        report = validate_analytic(config, tolerance=0.20)
        assert report.passed, report
        assert math.isclose(report.analytic_h, 2039.48, rel_tol=1e-3)

    def test_optimized_reference_within_20_percent(self):
        config = reference_config(cluster=OPT_CLUSTER, resilience=OPT_RESILIENCE)
        report = validate_analytic(config, tolerance=0.20)
        assert report.passed, report
        assert math.isclose(report.analytic_h, 1101.25, rel_tol=1e-3)

    def test_tiny_tolerance_fails_on_stochastic_config(self):
        report = validate_analytic(reference_config(replications=50), tolerance=1e-9)
        assert not report.passed

    def test_failure_free_tolerance_1e6(self):
        cluster = replace(CLUSTER_50K, gpu_mtbf_h=math.inf, cpu_mtbf_h=math.inf)
        config = reference_config(cluster=cluster, replications=5)
        report = validate_analytic(config, tolerance=1e-6)
        assert report.passed
        assert report.relative_error <= 1e-12

    def test_no_progress_analytic_needs_censored_simulation(self):
        cluster = ClusterSpec(n_gpus=131_072)
        config = reference_config(cluster=cluster, replications=3, max_wall_h=4000.0)
        analytic = expected_runtime(config.model, CONSTANTS, cluster, BASELINE)
        assert not analytic.ok
        report = validate_analytic(config, tolerance=0.20)
        assert report.passed
        assert report.simulated_mean_h == math.inf


class TestStochasticProperties:
    def test_interrupt_count_tracks_mtti_at_zero_tolerance(self):
        config = reference_config(replications=1000)
        result = run_ensemble(config)
        mtti = 1.0 / (50_000 / 950_000 + 12_500 / 1_500_000)
        expected = result.mean_wall_h / mtti
        assert abs(result.mean_interrupts - expected) / expected <= 0.15

    def test_more_tolerance_never_hurts(self):
        base = run_ensemble(reference_config(replications=300))
        tolerant = run_ensemble(
            reference_config(
                replications=300,
                resilience=replace(BASELINE, tolerated_group_failures=5),
            )
        )
        noise = base.ci95_half_width_h + tolerant.ci95_half_width_h
        assert tolerant.mean_wall_h <= base.mean_wall_h + noise

    def test_faster_checkpoints_never_hurt(self):
        base = run_ensemble(reference_config(replications=300))
        faster = run_ensemble(
            reference_config(replications=300, cluster=replace(CLUSTER_50K, fs_bw_gbs=2000.0))
        )
        noise = base.ci95_half_width_h + faster.ci95_half_width_h
        assert faster.mean_wall_h <= base.mean_wall_h + noise


class TestEnsembleStatistics:
    def test_single_replication(self):
        result = run_ensemble(reference_config(replications=1))
        assert result.mean_wall_h == result.wall_h[0]
        assert math.isnan(result.stddev_wall_h)
        assert math.isnan(result.ci95_half_width_h)

    def test_mean_within_range(self):
        result = run_ensemble(reference_config(replications=20))
        assert min(result.wall_h) <= result.mean_wall_h <= max(result.wall_h)
        assert result.ci95_half_width_h >= 0.0

    def test_generator_recorded(self):
        result = run_ensemble(reference_config(replications=1))
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
        assert trace[-1] == (wall, EVENT_DONE, None)
        kinds = {k for _, k, _ in trace}
        assert kinds <= {
            "FAIL", "REPAIR", "CKPT_START", "CKPT_END", "INTERRUPT", "RESTART", "DONE",
        }

    def test_fail_and_repair_carry_group_ids(self):
        trace = []
        config = reference_config(resilience=OPT_RESILIENCE, cluster=OPT_CLUSTER)
        simulate_run(config, 1, trace=trace)
        groups = [g for _, k, g in trace if k in (EVENT_FAIL, EVENT_REPAIR)]
        assert groups, "expected failures in a 50k-GPU run"
        assert all(g is None or 0 <= g < 97 for g in groups)

    def test_censoring_returns_inf(self):
        config = reference_config(replications=1, max_wall_h=10.0)
        wall, _ = simulate_run(config, 0)
        assert wall == math.inf

    def test_trace_serializes_to_csv_dialect(self):
        from traincost.failure_sim import trace_table

        trace = []
        simulate_run(reference_config(), 0, trace=trace)
        csv_text = trace_table(trace).to_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "time_h,kind,group_id"
        assert lines[-1].endswith("DONE,")
        assert any(",FAIL," in line for line in lines)


class TestValidation:
    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            validate_analytic(reference_config(replications=1), tolerance=0.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            SimConfig(model=reference_model(), cluster=CLUSTER_50K, replications=0)
        with pytest.raises(ValueError):
            SimConfig(model=reference_model(), cluster=CLUSTER_50K, seed=-1)

    def test_derive_parameters_match_cluster_model(self):
        config = reference_config()
        params = derive_run_parameters(config)
        assert params.work_h == solve_hours(config.model, CONSTANTS, CLUSTER_50K, BASELINE)
        assert params.groups == 97
        assert params.tolerated_failures == 0
        assert math.isclose(params.tau_h, 8.538, rel_tol=1e-3)
