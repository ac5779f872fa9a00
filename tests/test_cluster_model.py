import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from traincost.cluster_model import (
    STATUS_NO_PROGRESS,
    STATUS_OK,
    ClusterSpec,
    ResilienceConfig,
    SweepVariant,
    checkpoint_write_time,
    effective_mtti,
    expected_runtime,
    group_count,
    optimal_checkpoint_interval,
    optimized_variant,
    parallel_efficiency,
    sweep_numbers,
    sweep_system_size,
    system_mtti,
)
from traincost.scaling_laws import CostRates, ModelSpec, ScalingConstants, ideal_gpu_hours

mp.dps = 50

BASELINE = ResilienceConfig()
CLUSTER_50K = ClusterSpec(n_gpus=50_000)
OPT_CLUSTER_50K = replace(CLUSTER_50K, fs_bw_gbs=2000.0)
OPT_RESILIENCE = ResilienceConfig(ckpt_mem_fraction=0.5, tolerated_group_failures=5)
CONSTANTS = ScalingConstants()
MODEL = ModelSpec(1.8e12, 8)


def oracle_mtti(n_gpus, gpus_per_cpu=4, gpu_mtbf=950_000, cpu_mtbf=1_500_000):
    n_cpus = -(-n_gpus // gpus_per_cpu)
    return float(1 / (mpf(n_gpus) / gpu_mtbf + mpf(n_cpus) / cpu_mtbf))


class TestSystemMtti:
    def test_50k_gpus(self):
        got = system_mtti(CLUSTER_50K)
        assert math.isclose(got, oracle_mtti(50_000), rel_tol=1e-14)
        assert math.isclose(got, 16.403, rel_tol=1e-4)

    def test_unbounded_when_nothing_fails(self):
        cluster = ClusterSpec(n_gpus=4, gpu_mtbf_h=math.inf, cpu_mtbf_h=math.inf)
        assert system_mtti(cluster) == math.inf

    def test_four_gpus(self):
        got = system_mtti(ClusterSpec(n_gpus=4))
        assert math.isclose(got, oracle_mtti(4), rel_tol=1e-14)
        assert math.isclose(got, 205_045.0, rel_tol=1e-4)

    def test_partial_cpu_rounds_up(self):
        assert math.isclose(system_mtti(ClusterSpec(n_gpus=5)), oracle_mtti(5), rel_tol=1e-14)


class TestGroupCount:
    @pytest.mark.parametrize(
        "n_gpus,expected", [(51_200, 100), (512, 1), (10_240, 20), (100, 1), (999_999, 100)]
    )
    def test_examples(self, n_gpus, expected):
        assert group_count(ClusterSpec(n_gpus=n_gpus), BASELINE) == expected

    def test_cap_applies(self):
        res = ResilienceConfig(group_count_cap=10)
        assert group_count(ClusterSpec(n_gpus=51_200), res) == 10


class TestParallelEfficiency:
    def test_single_group(self):
        assert parallel_efficiency(1, 0.37) == 1.0

    def test_no_sequential_fraction(self):
        assert parallel_efficiency(100, 0.0) == 1.0

    def test_hundred_groups(self):
        got = parallel_efficiency(100, 0.01)
        assert got == 1.0 / 1.99
        assert math.isclose(got, 0.5025, rel_tol=1e-3)


class TestCheckpointWriteTime:
    def test_baseline_50k(self):
        got = checkpoint_write_time(CLUSTER_50K, BASELINE)
        assert math.isclose(got, float(mpf(8000) / 3600), rel_tol=1e-15)

    def test_optimized_50k(self):
        got = checkpoint_write_time(OPT_CLUSTER_50K, OPT_RESILIENCE)
        assert math.isclose(got, float(mpf(1000) / 3600), rel_tol=1e-15)

    def test_zero_gpus_boundary(self):
        fake = SimpleNamespace(n_gpus=0, gpu_mem_gb=80.0, fs_bw_gbs=500.0)
        assert checkpoint_write_time(fake, BASELINE) == 0.0


class TestEffectiveMtti:
    def test_identity_at_zero_tolerance(self):
        assert effective_mtti(16.403, 0) == 16.403

    def test_five_tolerated(self):
        assert math.isclose(effective_mtti(oracle_mtti(50_000), 5), 98.417, rel_tol=1e-4)

    def test_linearity(self):
        assert effective_mtti(1.0, 99) == 100.0


class TestOptimalInterval:
    def test_baseline_reference(self):
        delta, mtti = 8000 / 3600, system_mtti(CLUSTER_50K)
        expected = float((2 * mpf(8000) / 3600 * mpf(oracle_mtti(50_000))) ** mpf("0.5"))
        got = optimal_checkpoint_interval(delta, mtti, 1000.0)
        assert math.isclose(got, expected, rel_tol=1e-12)
        assert math.isclose(got, 8.538, rel_tol=1e-3)

    def test_optimized_reference(self):
        delta = 1000 / 3600
        m_eff = 6 * system_mtti(CLUSTER_50K)
        assert math.isclose(
            optimal_checkpoint_interval(delta, m_eff, 1000.0), 7.394, rel_tol=1e-3
        )

    def test_unbounded_mtti_clamps_to_solve(self):
        assert optimal_checkpoint_interval(2.0, math.inf, 1000.0) == 1000.0

    def test_free_checkpoints(self):
        assert optimal_checkpoint_interval(0.0, 16.4, 1000.0) == 1000.0

    def test_never_exceeds_solve(self):
        assert optimal_checkpoint_interval(100.0, 1e9, 50.0) == 50.0


def oracle_wall(solve, n, mem, frac, bw, f_tol, ttr):
    """Step-by-step arbitrary-precision evaluation of the waste formula."""
    lam = mpf(n) / 950_000 + mpf(-(-n // 4)) / 1_500_000
    m_eff = (f_tol + 1) / lam
    delta = mpf(n) * mem * frac / (bw * 3600)
    tau = min((2 * delta * m_eff) ** mpf("0.5"), mpf(solve))
    n_ckpt = max(0, math.ceil(solve / tau) - 1)
    avail = 1 - (tau / 2 + ttr) / m_eff
    return float((solve + n_ckpt * delta) / avail), n_ckpt


# Training flops equal the parameter count, so a model can be sized to a work target.
UNIT_CONSTANTS = ScalingConstants(1.0, 1.0, 1.0)


def runtime_from_solve(solve_h, cluster, resilience):
    """expected_runtime for the model whose work target on cluster is solve_h hours."""
    efficiency = parallel_efficiency(group_count(cluster, resilience), resilience.seq_fraction)
    speed = cluster.n_gpus * cluster.rates.sustained_flops_per_gpu * efficiency * 3600.0
    return expected_runtime(ModelSpec(solve_h * speed), UNIT_CONSTANTS, cluster, resilience)


class TestRuntimeFromSolve:
    def test_baseline_reference_config(self):
        got = runtime_from_solve(1000.0, CLUSTER_50K, BASELINE)
        assert got.solve_h == 1000.0
        expected, n_ckpt = oracle_wall(1000, 50_000, 80, 1, 500, 0, 2)
        assert n_ckpt == 117
        assert math.isclose(got.wall_h, expected, rel_tol=1e-10)
        assert math.isclose(got.wall_h, 2039.4837392395102, rel_tol=1e-10)
        assert got.ckpt_overhead_h == 117 * checkpoint_write_time(CLUSTER_50K, BASELINE)

    def test_optimized_reference_config(self):
        got = runtime_from_solve(1000.0, OPT_CLUSTER_50K, OPT_RESILIENCE)
        assert got.solve_h == 1000.0
        expected, n_ckpt = oracle_wall(1000, 50_000, 80, mpf("0.5"), 2000, 5, 2)
        assert n_ckpt == 135
        assert math.isclose(got.wall_h, expected, rel_tol=1e-10)
        assert math.isclose(got.wall_h, 1101.2490029703829, rel_tol=1e-10)

    def test_reference_ratio_brackets_two_x(self):
        baseline = runtime_from_solve(1000.0, CLUSTER_50K, BASELINE)
        optimized = runtime_from_solve(1000.0, OPT_CLUSTER_50K, OPT_RESILIENCE)
        assert 1.6 <= baseline.wall_h / optimized.wall_h <= 2.6

    def test_failure_free_is_exactly_solve(self):
        cluster = replace(CLUSTER_50K, gpu_mtbf_h=math.inf, cpu_mtbf_h=math.inf)
        got = runtime_from_solve(1234.5, cluster, BASELINE)
        assert got.wall_h == 1234.5
        assert got.ckpt_overhead_h == 0.0
        assert got.expected_rework_h == 0.0
        assert got.expected_restart_h == 0.0

    def test_zero_loss_per_interrupt_splits_nothing(self):
        # tau = solve_h = 5e-324 h: tau / 2 underflows to 0, so with ttr_h = 0 an
        # interrupt loses nothing and the rework share must not divide by it. One
        # GPU doing one flop per hour trains a 5e-324-parameter model in 5e-324 h.
        cluster = ClusterSpec(n_gpus=1, rates=CostRates(sustained_flops_per_gpu=1 / 3600))
        got = expected_runtime(ModelSpec(5e-324), UNIT_CONSTANTS, cluster,
                               replace(BASELINE, ttr_h=0.0))
        assert (got.tau_h, got.wall_h, got.status) == (5e-324, 5e-324, STATUS_OK)
        assert (got.expected_rework_h, got.expected_restart_h) == (0.0, 0.0)

    def test_no_progress_regime(self):
        # Interrupts every few hours with multi-hour recovery: no net progress.
        cluster = replace(CLUSTER_50K, gpu_mtbf_h=10.0, cpu_mtbf_h=10.0)
        got = runtime_from_solve(1000.0, cluster, BASELINE)
        assert got.status == STATUS_NO_PROGRESS
        assert got.wall_h == math.inf
        assert not got.ok

    @given(
        st.floats(min_value=10.0, max_value=1e5),
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=100.0, max_value=5000.0),
    )
    def test_breakdown_additivity(self, solve, f_tol, bw):
        cluster = replace(CLUSTER_50K, fs_bw_gbs=bw)
        res = replace(BASELINE, tolerated_group_failures=f_tol)
        got = runtime_from_solve(solve, cluster, res)
        if got.ok:
            total = (
                got.solve_h + got.ckpt_overhead_h
                + got.expected_rework_h + got.expected_restart_h
            )
            assert math.isclose(total, got.wall_h, rel_tol=1e-12)
            assert got.wall_h >= got.solve_h


class TestExpectedRuntime:
    def test_failure_free_reproduces_ideal_hours(self):
        cluster = replace(CLUSTER_50K, gpu_mtbf_h=math.inf, cpu_mtbf_h=math.inf)
        got = expected_runtime(MODEL, CONSTANTS, cluster, BASELINE)
        eta = parallel_efficiency(group_count(cluster, BASELINE), BASELINE.seq_fraction)
        from traincost.scaling_laws import moe_training_flops

        ideal = ideal_gpu_hours(moe_training_flops(MODEL, CONSTANTS), cluster.rates)
        assert math.isclose(got.gpu_hours, ideal / eta, rel_tol=1e-12)

    def test_wall_non_increasing_in_reliability_knobs(self):
        base = expected_runtime(MODEL, CONSTANTS, CLUSTER_50K, BASELINE).wall_h
        better_bw = expected_runtime(
            MODEL, CONSTANTS, replace(CLUSTER_50K, fs_bw_gbs=2000.0), BASELINE
        ).wall_h
        better_gpu = expected_runtime(
            MODEL, CONSTANTS, replace(CLUSTER_50K, gpu_mtbf_h=2e6), BASELINE
        ).wall_h
        better_cpu = expected_runtime(
            MODEL, CONSTANTS, replace(CLUSTER_50K, cpu_mtbf_h=5e6), BASELINE
        ).wall_h
        more_tolerance = expected_runtime(
            MODEL, CONSTANTS, CLUSTER_50K, replace(BASELINE, tolerated_group_failures=5)
        ).wall_h
        assert better_bw <= base
        assert better_gpu <= base
        assert better_cpu <= base
        assert more_tolerance <= base

    def test_wall_increasing_in_model_size_and_seq_fraction(self):
        base = expected_runtime(MODEL, CONSTANTS, CLUSTER_50K, BASELINE).wall_h
        bigger = expected_runtime(
            ModelSpec(2.4e12, 8), CONSTANTS, CLUSTER_50K, BASELINE
        ).wall_h
        more_seq = expected_runtime(
            MODEL, CONSTANTS, CLUSTER_50K, replace(BASELINE, seq_fraction=0.02)
        ).wall_h
        assert bigger > base
        assert more_seq > base

    def test_paper_default_ratio_at_50k(self):
        baseline = expected_runtime(MODEL, CONSTANTS, CLUSTER_50K, BASELINE)
        optimized = expected_runtime(MODEL, CONSTANTS, OPT_CLUSTER_50K, OPT_RESILIENCE)
        assert 1.6 <= baseline.wall_h / optimized.wall_h <= 2.6


GRID = [1024 * 2**i for i in range(9)]


class TestSweep:
    def test_baseline_has_interior_minimum_or_no_progress_tail(self):
        rows = sweep_system_size(
            MODEL, CONSTANTS, CLUSTER_50K, [SweepVariant("baseline", BASELINE)], GRID
        )
        walls = [b.wall_h for _, _, b in rows]
        statuses = [b.status for _, _, b in rows]
        finite = [w for w in walls if math.isfinite(w)]
        has_tail = statuses[-1] == STATUS_NO_PROGRESS
        has_interior_min = (
            len(finite) >= 3
            and min(finite) not in (finite[0], finite[-1])
        )
        assert has_tail or has_interior_min

    def test_optimized_strictly_decreasing(self):
        rows = sweep_system_size(
            MODEL, CONSTANTS, CLUSTER_50K, [optimized_variant(BASELINE)], GRID
        )
        walls = [b.wall_h for _, _, b in rows]
        assert all(b.status == STATUS_OK for _, _, b in rows)
        assert all(b < a for a, b in zip(walls, walls[1:]))

    def test_single_point_equals_expected_runtime(self):
        rows = sweep_system_size(
            MODEL, CONSTANTS, CLUSTER_50K, [SweepVariant("baseline", BASELINE)], [50_000]
        )
        assert len(rows) == 1
        n_gpus, name, breakdown = rows[0]
        assert (n_gpus, name) == (50_000, "baseline")
        assert breakdown == expected_runtime(MODEL, CONSTANTS, CLUSTER_50K, BASELINE)

    def test_no_progress_cells_are_data_not_errors(self):
        rows = sweep_system_size(
            MODEL, CONSTANTS, CLUSTER_50K,
            [SweepVariant("baseline", BASELINE)], [131072, 262144],
        )
        assert all(b.status == STATUS_NO_PROGRESS for _, _, b in rows)

    @pytest.mark.parametrize("variants, grid, message", [
        ([SweepVariant("baseline", BASELINE)], [], "n_gpus_list must be non-empty"),
        ([], [1024], "variants must be non-empty"),
    ], ids=["empty_grid", "no_variants"])
    def test_rejects_empty_grid_or_variants(self, variants, grid, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            sweep_system_size(MODEL, CONSTANTS, CLUSTER_50K, variants, grid)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            sweep_system_size(
                MODEL, CONSTANTS, CLUSTER_50K,
                [SweepVariant("baseline", BASELINE)], [2048, 1024],
            )

    @pytest.mark.parametrize("grid", [[1024, math.nan, 4096], [1024, 10**400]],
                             ids=["nan", "past_float_range"])
    def test_every_size_checked_before_the_first_cell(self, grid):
        cells = sweep_numbers(MODEL, CONSTANTS, CLUSTER_50K,
                              [SweepVariant("baseline", BASELINE)], grid)
        with pytest.raises(ValueError, match=r"^n_gpus must be >= 1 and fit a float$"):
            next(cells)

    def test_variant_bandwidth_override_applies(self):
        variant = optimized_variant(BASELINE)
        rows = sweep_system_size(MODEL, CONSTANTS, CLUSTER_50K, [variant], [50_000])
        _, _, got = rows[0]
        direct = expected_runtime(MODEL, CONSTANTS, OPT_CLUSTER_50K, OPT_RESILIENCE)
        assert got == direct


def test_work_target_matches_manual_chain():
    eta = parallel_efficiency(group_count(CLUSTER_50K, BASELINE), BASELINE.seq_fraction)
    from traincost.scaling_laws import moe_training_flops

    manual = moe_training_flops(MODEL, CONSTANTS) / (
        50_000 * CLUSTER_50K.rates.sustained_flops_per_gpu * eta * 3600.0
    )
    assert expected_runtime(MODEL, CONSTANTS, CLUSTER_50K, BASELINE).solve_h == manual


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_gpus": 0},
        {"n_gpus": 100, "gpu_mtbf_h": 0.0},
        {"n_gpus": 100, "fs_bw_gbs": -1.0},
        {"n_gpus": 100, "gpus_per_group": 0},
        {"n_gpus": 100, "gpu_mem_gb": -1.0},
        {"n_gpus": 100, "gpu_mem_gb": math.nan},
        {"n_gpus": 100, "gpu_mtbf_h": math.nan},
        {"n_gpus": 100, "cpu_mtbf_h": math.nan},
        {"n_gpus": 100, "fs_bw_gbs": math.nan},
        {"n_gpus": 10**400},
    ],
)
def test_invalid_cluster_rejected(kwargs):
    with pytest.raises(ValueError):
        ClusterSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ckpt_mem_fraction": 0.0},
        {"ckpt_mem_fraction": 1.5},
        {"tolerated_group_failures": -1},
        {"tolerated_group_failures": 100, "group_count_cap": 100},
        {"ttr_h": -0.5},
        {"seq_fraction": 1.0},
        {"ckpt_mem_fraction": math.nan},
        {"ttr_h": math.nan},
        {"seq_fraction": math.nan},
    ],
)
def test_invalid_resilience_rejected(kwargs):
    with pytest.raises(ValueError):
        ResilienceConfig(**kwargs)


@pytest.mark.parametrize("function, args, message", [
    (parallel_efficiency, (0, 0.01), r"groups must be >= 1"),
    (parallel_efficiency, (10, 1.0), r"seq_fraction must lie in \[0, 1\)"),
    (effective_mtti, (16.4, -1), r"tolerated_failures must be >= 0"),
    (optimal_checkpoint_interval, (-1.0, 16.4, 1000.0), r"delta_h must be >= 0"),
    (optimal_checkpoint_interval, (2.0, 0.0, 1000.0), r"m_eff_h must be > 0"),
    (optimal_checkpoint_interval, (2.0, 16.4, 0.0), r"solve_h must be > 0"),
], ids=["groups", "seq_fraction", "tolerated_failures", "delta_h", "m_eff_h", "solve_h"])
def test_invalid_arguments_rejected(function, args, message):
    with pytest.raises(ValueError, match=rf"^{message}$"):
        function(*args)
