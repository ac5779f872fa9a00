"""Closed-form time-to-train and cost-to-train on a failing cluster.

The model combines four effects:

* interrupts: component failures are independent and exponential, so the
  whole system interrupts at rate  n_gpus/gpu_mtbf + n_cpus/cpu_mtbf;
* fault containment: the job is split into G data-parallel groups and
  tolerates F failed groups before it must roll back (K-out-of-N);
* checkpointing: periodic state saves of duration delta, placed at the
  first-order optimal (Young/Daly) interval  tau = sqrt(2 * delta * M);
* serialization: an Amdahl-style sequential fraction across groups caps
  the usable parallelism.

The expected wall-clock is a first-order waste formula

    wall = (solve + n_ckpt * delta) / (1 - (tau/2 + ttr) / M_eff)

which degenerates gracefully to the failure-free time, and signals a
NoProgress regime when the expected loss per interrupt reaches the
effective mean time to interrupt.

One pass of the closed form, _training_numbers, computes a run's numbers
in RunBreakdown's field order; every RunBreakdown is built from such a
pass. A sweep streams the numbers themselves (sweep_numbers), so a caller
that only formats them builds no record per cell; sweep_system_size is the
same sweep as a list of records.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace

from .scaling_laws import (
    HOURS_TO_SECONDS,
    CostRates,
    ModelSpec,
    ScalingConstants,
    _fits_float,
    _require_positive,
    dollar_cost,
    moe_training_flops,
)

STATUS_OK = "OK"
STATUS_NO_PROGRESS = "NoProgress"


def _require_count(name: str, value) -> None:
    if not (value >= 1 and _fits_float(value)):
        raise ValueError(f"{name} must be >= 1 and fit a float")


@dataclass(frozen=True)
class ClusterSpec:
    """A training system: GPU count, reliability, checkpoint I/O and prices."""

    n_gpus: int
    gpus_per_cpu: int = 4
    gpu_mtbf_h: float = 950_000.0
    cpu_mtbf_h: float = 1_500_000.0
    gpu_mem_gb: float = 80.0
    fs_bw_gbs: float = 500.0
    gpus_per_group: int = 512
    rates: CostRates = field(default_factory=CostRates)

    def __post_init__(self):
        for name in ("n_gpus", "gpus_per_cpu", "gpus_per_group"):
            _require_count(name, getattr(self, name))
        _require_positive(self, "gpu_mtbf_h", "cpu_mtbf_h", "gpu_mem_gb", "fs_bw_gbs")


@dataclass(frozen=True)
class ResilienceConfig:
    """A resilience strategy: checkpoint volume, F-out-of-G tolerance, recovery."""

    ckpt_mem_fraction: float = 1.0
    tolerated_group_failures: int = 0
    group_count_cap: int = 100
    ttr_h: float = 2.0
    seq_fraction: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.ckpt_mem_fraction <= 1.0:
            raise ValueError("ckpt_mem_fraction must lie in (0, 1]")
        if not self.tolerated_group_failures >= 0:
            raise ValueError("tolerated_group_failures must be >= 0")
        if not self.group_count_cap >= 1:
            raise ValueError("group_count_cap must be >= 1")
        if self.tolerated_group_failures >= self.group_count_cap:
            raise ValueError("tolerated_group_failures must be < group_count_cap")
        if not self.ttr_h >= 0:
            raise ValueError("ttr_h must be >= 0")
        if not 0.0 <= self.seq_fraction < 1.0:
            raise ValueError("seq_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class RunPolicy:
    """How a run is played: work, checkpoints, failures, groups, tolerance and repairs.

    The event simulator reads nothing else; RunBreakdown adds the paper's results.
    """

    solve_h: float
    tau_h: float
    delta_h: float
    mtti_h: float
    groups: int
    tolerated_group_failures: int
    ttr_h: float


@dataclass(frozen=True)
class RunBreakdown(RunPolicy):
    """A run policy and the paper's results for it: where the wall-clock goes, its price.

    The policy, effective MTTI and parallel efficiency are set on NoProgress
    runs too. The price is in GPU dollars; the cloud price is
    dollar_cost(gpu_hours, rates)[1].
    """

    mtti_eff_h: float
    efficiency: float
    ckpt_overhead_h: float
    expected_rework_h: float
    expected_restart_h: float
    wall_h: float
    gpu_hours: float
    gpu_dollars: float
    status: str = STATUS_OK

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass(frozen=True)
class SweepVariant:
    """A named resilience strategy for system-size sweeps.

    fs_bw_gbs optionally overrides the cluster template's checkpoint
    filesystem bandwidth; provisioning faster checkpoint storage is part
    of the strategy, not of the machine being swept.
    """

    name: str
    resilience: ResilienceConfig
    fs_bw_gbs: float | None = None


# Optimized supercomputing configuration: 2 TB/s checkpoint storage, half
# the state saved, five failed groups ridden out.
OPTIMIZED_FS_BW_GBS = 2000.0
OPTIMIZED_CKPT_MEM_FRACTION = 0.5
OPTIMIZED_GROUP_FAILURES = 5


def optimized_variant(base: ResilienceConfig) -> SweepVariant:
    """The optimized counterpart of a baseline resilience strategy."""
    res = replace(
        base,
        ckpt_mem_fraction=OPTIMIZED_CKPT_MEM_FRACTION,
        tolerated_group_failures=OPTIMIZED_GROUP_FAILURES,
    )
    return SweepVariant("optimized", res, fs_bw_gbs=OPTIMIZED_FS_BW_GBS)


def system_mtti(cluster: ClusterSpec) -> float:
    """Mean time to interrupt of the whole system, in hours.

    Failures are independent and exponential, so rates add:
    lambda = n_gpus/gpu_mtbf + ceil(n_gpus/gpus_per_cpu)/cpu_mtbf.
    """
    n_cpus = -(-cluster.n_gpus // cluster.gpus_per_cpu)
    rate = cluster.n_gpus / cluster.gpu_mtbf_h + n_cpus / cluster.cpu_mtbf_h
    return math.inf if rate == 0.0 else 1.0 / rate


def group_count(cluster: ClusterSpec, resilience: ResilienceConfig) -> int:
    """Number of data-parallel groups: floor(n/group_size), capped, at least 1."""
    return min(
        resilience.group_count_cap,
        max(1, cluster.n_gpus // cluster.gpus_per_group),
    )


def parallel_efficiency(groups: int, seq_fraction: float) -> float:
    """Amdahl-style efficiency across groups: 1 / (1 + s*(G - 1))."""
    if groups < 1:
        raise ValueError("groups must be >= 1")
    if not 0.0 <= seq_fraction < 1.0:
        raise ValueError("seq_fraction must lie in [0, 1)")
    return 1.0 / (1.0 + seq_fraction * (groups - 1))


def checkpoint_write_time(cluster, resilience: ResilienceConfig) -> float:
    """Hours to write one checkpoint of the configured memory fraction."""
    volume_gb = cluster.n_gpus * cluster.gpu_mem_gb * resilience.ckpt_mem_fraction
    return volume_gb / (cluster.fs_bw_gbs * HOURS_TO_SECONDS)


def effective_mtti(mtti_h: float, tolerated_failures: int) -> float:
    """Mean time to a job-level interrupt when F group failures are tolerated.

    An interrupt needs F+1 accumulated failures, each assumed to disable a
    distinct group; repairs between checkpoints are neglected in this
    closed form (the event simulator models them).
    """
    if tolerated_failures < 0:
        raise ValueError("tolerated_failures must be >= 0")
    return (tolerated_failures + 1) * mtti_h


def optimal_checkpoint_interval(delta_h: float, m_eff_h: float, solve_h: float) -> float:
    """First-order optimal checkpoint period, clamped to the solve time."""
    if delta_h < 0:
        raise ValueError("delta_h must be >= 0")
    if m_eff_h <= 0:
        raise ValueError("m_eff_h must be > 0")
    if solve_h <= 0:
        raise ValueError("solve_h must be > 0")
    if delta_h == 0.0:
        return solve_h
    return min(math.sqrt(2.0 * delta_h * m_eff_h), solve_h)


def _training_numbers(flops, cluster: ClusterSpec, resilience: ResilienceConfig) -> tuple:
    """One pass of the closed form: RunBreakdown's fields for flops of work on cluster."""
    groups = group_count(cluster, resilience)
    efficiency = parallel_efficiency(groups, resilience.seq_fraction)
    # The work target: failure-free, checkpoint-free hours of compute.
    speed = cluster.n_gpus * cluster.rates.sustained_flops_per_gpu * efficiency * HOURS_TO_SECONDS
    solve_h = flops / speed
    if not 0 < solve_h < math.inf:
        raise ValueError("work target solve_h must be finite and > 0")
    mtti = system_mtti(cluster)
    m_eff = effective_mtti(mtti, resilience.tolerated_group_failures)
    delta = checkpoint_write_time(cluster, resilience)
    if not math.isfinite(delta):
        raise ValueError("checkpoint write time is not finite")
    tau = optimal_checkpoint_interval(delta, m_eff, solve_h)
    if not tau > 0:
        raise ValueError("checkpoint interval underflows to zero")
    ckpt_overhead = (math.ceil(solve_h / tau) - 1) * delta  # tau <= solve_h: never < 0

    # Expected loss per interrupt: half a segment of rework plus recovery. It is
    # zero only where tau / 2 underflows and ttr_h is 0; then nothing is lost.
    loss_per_interrupt = tau / 2.0 + resilience.ttr_h
    availability = 1.0 - loss_per_interrupt / m_eff
    status = STATUS_OK
    if availability <= 0.0:
        wall = rework = restart = math.inf
        status = STATUS_NO_PROGRESS
    else:
        base = solve_h + ckpt_overhead
        wall = base / availability
        inflation = wall - base
        rework = inflation * (tau / 2.0) / loss_per_interrupt if loss_per_interrupt else 0.0
        restart = inflation - rework

    gpu_hours = wall * cluster.n_gpus
    gpu_dollars, _ = dollar_cost(gpu_hours, cluster.rates)
    return (
        solve_h, tau, delta, mtti, groups, resilience.tolerated_group_failures,
        resilience.ttr_h, m_eff, efficiency, ckpt_overhead, rework, restart, wall,
        gpu_hours, gpu_dollars, status,
    )


def expected_runtime(
    model: ModelSpec,
    constants: ScalingConstants,
    cluster: ClusterSpec,
    resilience: ResilienceConfig,
) -> RunBreakdown:
    """Expected time and cost to train one model on a failing cluster."""
    return RunBreakdown(*_training_numbers(moe_training_flops(model, constants), cluster,
                                           resilience))


def sweep_numbers(
    model: ModelSpec,
    constants: ScalingConstants,
    cluster_template: ClusterSpec,
    variants: list[SweepVariant],
    n_gpus_list: list[int],
) -> Iterator[tuple[int, str, tuple]]:
    """Yield every (system size, strategy, numbers) cell of a time-to-train sweep in grid order.

    A cell's numbers are its RunBreakdown's fields in order, so
    RunBreakdown(*numbers) equals expected_runtime at that size with the
    strategy's bandwidth. The grid, every size in it and the variants are
    checked before the first cell is computed. NoProgress cells are
    yielded as data, not raised.
    """
    if not n_gpus_list:
        raise ValueError("n_gpus_list must be non-empty")
    if any(b <= a for a, b in zip(n_gpus_list, n_gpus_list[1:])):
        raise ValueError("n_gpus_list must be strictly ascending")
    if not variants:
        raise ValueError("variants must be non-empty")
    for n_gpus in n_gpus_list:
        _require_count("n_gpus", n_gpus)

    flops = moe_training_flops(model, constants)
    # Per strategy, the cluster's fields after n_gpus, its bandwidth applied.
    strategies = []
    for variant in variants:
        template = cluster_template
        if variant.fs_bw_gbs is not None:
            template = replace(template, fs_bw_gbs=variant.fs_bw_gbs)
        rest = tuple(getattr(template, f.name) for f in fields(ClusterSpec)[1:])
        strategies.append((variant.name, variant.resilience, rest))

    for n_gpus in n_gpus_list:
        for name, resilience, rest in strategies:
            yield n_gpus, name, _training_numbers(flops, ClusterSpec(n_gpus, *rest), resilience)


def sweep_system_size(
    model: ModelSpec,
    constants: ScalingConstants,
    cluster_template: ClusterSpec,
    variants: list[SweepVariant],
    n_gpus_list: list[int],
) -> list[tuple[int, str, RunBreakdown]]:
    """Every cell of sweep_numbers, with its numbers as a RunBreakdown, as a list."""
    cells = sweep_numbers(model, constants, cluster_template, variants, n_gpus_list)
    return [(n_gpus, name, RunBreakdown(*numbers)) for n_gpus, name, numbers in cells]
