"""Capacity planning for large-model training.

Closed-form compute/cost laws, an analytic failing-cluster runtime model,
a discrete-event failure simulator that validates it, and multi-year cost
projections, all behind one config format and CLI.
"""

from .cluster_model import (
    ClusterSpec,
    ResilienceConfig,
    RunBreakdown,
    SweepVariant,
    expected_runtime,
    sweep_system_size,
)
from .config import ConfigError, ConfigFile, load_config, parse_config, serialize
from .projection import (
    SCENARIOS,
    GrowthModel,
    MarketModel,
    Scenario,
    YearRow,
    intersection_year,
    scenario_spread,
    training_cost_at,
)
from .scaling_laws import (
    CostRates,
    ModelSpec,
    ScalingConstants,
    dense_training_flops,
    dollar_cost,
    ideal_gpu_hours,
    moe_training_flops,
    required_tokens,
)

__version__ = "0.1.0"

# The simulator's public names, imported from failure_sim on first use, so
# that importing the package (and every planning request) skips it.
_SIMULATOR = (
    "SimConfig", "SimResult", "analytic_verdict", "collect_replications", "simulate_run",
    "summarize", "validate_analytic",
)


def __getattr__(name: str):
    if name in _SIMULATOR:
        from . import failure_sim

        return getattr(failure_sim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ClusterSpec",
    "ConfigError",
    "ConfigFile",
    "CostRates",
    "GrowthModel",
    "MarketModel",
    "ModelSpec",
    "ResilienceConfig",
    "RunBreakdown",
    "SCENARIOS",
    "Scenario",
    "ScalingConstants",
    "SimConfig",
    "SimResult",
    "SweepVariant",
    "YearRow",
    "analytic_verdict",
    "collect_replications",
    "dense_training_flops",
    "dollar_cost",
    "expected_runtime",
    "ideal_gpu_hours",
    "intersection_year",
    "load_config",
    "moe_training_flops",
    "parse_config",
    "required_tokens",
    "scenario_spread",
    "serialize",
    "simulate_run",
    "summarize",
    "sweep_system_size",
    "training_cost_at",
    "validate_analytic",
]
