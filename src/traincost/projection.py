"""Multi-year projection of model sizes, training compute and dollar cost.

Model sizes compound at param_growth_per_year while GPU price-performance
improves on its own doubling-time curve; compute therefore outgrows the
hardware trend and the dollar cost of a single training run climbs until
it crosses market-size reference curves.  Three scenarios (best case,
best guess, worst case) differ in how fast sparsity (expert count) grows
and in the effective FLOP-per-parameter constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scaling_laws import HOURS_TO_SECONDS, CostRates, _require_positive

SCENARIO_NAMES = ("best_case", "best_guess", "worst_case", "custom")

#: Years past the base year covered by the intersection grid (inclusive).
GRID_SPAN_YEARS = 17


@dataclass(frozen=True)
class GrowthModel:
    """Observed technology trends anchored at a base year."""

    base_year: int = 2023
    base_params: float = 1.8e12
    param_growth_per_year: float = 1.8
    gpu_perf_per_dollar_doubling_years: float = 2.46

    def __post_init__(self):
        _require_positive(self, "base_params", "param_growth_per_year",
                          "gpu_perf_per_dollar_doubling_years")


@dataclass(frozen=True)
class Scenario:
    """One projection scenario: sparsity trajectory and compute constant.

    flop_per_param_with_tokens is the effective FLOP per parameter with the
    token budget folded in (120 = no algorithmic improvement over the plain
    quadratic law).  base_experts is today's expert count; experts_per_year
    adds to it linearly.  token_scaling is the exponent used for projection
    (the empirically fitted 1.91 by default).
    """

    name: str = "best_guess"
    experts_per_year: float = 4.0
    flop_per_param_with_tokens: float = 40.0
    base_experts: int = 8
    token_scaling: float = 1.91

    def __post_init__(self):
        if self.name not in SCENARIO_NAMES:
            raise ValueError(f"name must be one of {SCENARIO_NAMES}")
        if not self.experts_per_year >= 0:
            raise ValueError("experts_per_year must be >= 0")
        _require_positive(self, "flop_per_param_with_tokens")
        if not self.base_experts >= 1:
            raise ValueError("base_experts must be >= 1")
        if not 1.0 <= self.token_scaling <= 2.5:
            raise ValueError("token_scaling must lie in [1.0, 2.5]")


#: The three canonical scenarios.  base_experts stays at today's count in
#: every scenario; "no additional experts per year" (worst case) freezes
#: sparsity rather than abandoning it.
SCENARIOS = {
    "best_case": Scenario("best_case", experts_per_year=8.0, flop_per_param_with_tokens=20.0),
    "best_guess": Scenario("best_guess", experts_per_year=4.0, flop_per_param_with_tokens=40.0),
    "worst_case": Scenario("worst_case", experts_per_year=0.0, flop_per_param_with_tokens=120.0),
}


@dataclass(frozen=True)
class MarketModel:
    """Reference market-size curves: compound growth from base-year anchors.

    The anchors are editable external assumptions, calibrated so that the
    default projection crosses the GPU installed base near the end of this
    decade and worldwide IT spending a few years later; they are not
    derived from any measured dataset shipped with this package.
    """

    gpu_installed_base_usd: float = 40e9
    gpu_installed_base_growth: float = 0.15
    it_spend_usd: float = 4.7e12
    it_spend_growth: float = 0.05

    def __post_init__(self):
        _require_positive(self, "gpu_installed_base_usd", "it_spend_usd")
        for name in ("gpu_installed_base_growth", "it_spend_growth"):
            if not getattr(self, name) > -1:
                raise ValueError(f"{name} must be > -1")


@dataclass(frozen=True)
class YearRow:
    """One projected year: model size, compute, cost and market context."""

    year: int
    params: float
    experts: int
    flops: float
    gpu_hours: float
    gpu_cost_usd: float
    cloud_cost_usd: float
    gpu_base_usd: float
    it_spend_usd: float


@dataclass(frozen=True)
class Intersections:
    """Fractional years where the cost curve first exceeds each market curve."""

    gpu_base_crossing: float | None
    it_spend_crossing: float | None


def model_size_at(year: float, growth: GrowthModel) -> float:
    """Projected parameter count: P0 * (1 + g)**(year - base_year)."""
    if year < growth.base_year - 10:
        raise ValueError("year is more than a decade before the base year")
    return growth.base_params * (1.0 + growth.param_growth_per_year) ** (
        year - growth.base_year
    )


def experts_at(year: float, scenario: Scenario, growth: GrowthModel) -> int:
    """Projected expert count, linear in years and floored to an integer."""
    raw = scenario.base_experts + scenario.experts_per_year * (year - growth.base_year)
    return max(1, math.floor(raw))


def dollars_per_flop_at(year: float, growth: GrowthModel, rates: CostRates) -> float:
    """Price of one FLOP of training compute in the given year."""
    base = rates.dollars_per_gpu_hour / (
        rates.sustained_flops_per_gpu * HOURS_TO_SECONDS
    )
    halvings = (year - growth.base_year) / growth.gpu_perf_per_dollar_doubling_years
    return base * 2.0 ** (-halvings)


def training_cost_at(
    year: int,
    growth: GrowthModel,
    scenario: Scenario,
    rates: CostRates,
    market: MarketModel,
) -> YearRow:
    """Project the cost of the final training run of one model in `year`."""
    params = model_size_at(year, growth)
    experts = experts_at(year, scenario, growth)
    flops = scenario.flop_per_param_with_tokens * params**scenario.token_scaling / experts
    per_flop = dollars_per_flop_at(year, growth, rates)
    gpu_cost = flops * per_flop
    # GPU-hours at the year-t throughput implied by the price curve and a
    # constant price per GPU-hour.
    gpu_hours = gpu_cost / rates.dollars_per_gpu_hour
    gpu_base, it_spend = market_value_at(year, market, growth)
    return YearRow(
        year=year,
        params=params,
        experts=experts,
        flops=flops,
        gpu_hours=gpu_hours,
        gpu_cost_usd=gpu_cost,
        cloud_cost_usd=gpu_cost * rates.cloud_multiplier,
        gpu_base_usd=gpu_base,
        it_spend_usd=it_spend,
    )


def compute_growth_rate(growth: GrowthModel, scenario: Scenario) -> float:
    """Yearly growth of required FLOP, expert growth excluded.

    (1 + g)**token_scaling - 1; with the defaults this exceeds 500%/year.
    """
    return (1.0 + growth.param_growth_per_year) ** scenario.token_scaling - 1.0


def market_value_at(
    year: float, market: MarketModel, growth: GrowthModel
) -> tuple[float, float]:
    """(gpu_installed_base_usd, it_spend_usd) in the given year."""
    dt = year - growth.base_year
    return (
        market.gpu_installed_base_usd * (1.0 + market.gpu_installed_base_growth) ** dt,
        market.it_spend_usd * (1.0 + market.it_spend_growth) ** dt,
    )


def project_years(
    years: list[int],
    growth: GrowthModel,
    scenario: Scenario,
    rates: CostRates,
    market: MarketModel,
) -> list[YearRow]:
    return [training_cost_at(y, growth, scenario, rates, market) for y in years]


def _first_crossing(rows: list[YearRow], curve: str) -> float | None:
    """First fractional year where the cost reaches the named market curve, log-interpolated."""
    for i, row in enumerate(rows):
        if row.gpu_cost_usd >= getattr(row, curve):
            if i == 0:
                return float(row.year)
            prev = rows[i - 1]
            gap0 = math.log(getattr(prev, curve)) - math.log(prev.gpu_cost_usd)
            gap1 = math.log(getattr(row, curve)) - math.log(row.gpu_cost_usd)
            return prev.year + gap0 / (gap0 - gap1)
    return None


def intersection_year(
    growth: GrowthModel,
    scenario: Scenario,
    rates: CostRates,
    market: MarketModel,
) -> Intersections:
    """Where the projected GPU cost first exceeds each market curve.

    Curves are evaluated on a yearly grid from the base year, up to the
    first year whose cost reaches both curves, and crossings interpolated
    linearly in log space; None when there is no crossing in range.
    """
    rows = []
    for year in range(growth.base_year, growth.base_year + GRID_SPAN_YEARS + 1):
        row = training_cost_at(year, growth, scenario, rates, market)
        rows.append(row)
        # Later years cannot move either first crossing, and their cost may overflow.
        if row.gpu_cost_usd >= row.gpu_base_usd and row.gpu_cost_usd >= row.it_spend_usd:
            break
    return Intersections(
        gpu_base_crossing=_first_crossing(rows, "gpu_base_usd"),
        it_spend_crossing=_first_crossing(rows, "it_spend_usd"),
    )


def scenario_spread(growth: GrowthModel, rates: CostRates, market: MarketModel) -> float | None:
    """Max gap, in years, between the presets' GPU-base crossings; None if one never crosses."""
    crossings = [intersection_year(growth, scenario, rates, market).gpu_base_crossing
                 for scenario in SCENARIOS.values()]
    return None if None in crossings else max(crossings) - min(crossings)
