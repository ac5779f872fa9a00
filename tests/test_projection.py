import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from traincost import projection
from traincost.projection import (
    GRID_SPAN_YEARS,
    SCENARIOS,
    GrowthModel,
    Intersections,
    MarketModel,
    Scenario,
    compute_growth_rate,
    dollars_per_flop_at,
    experts_at,
    intersection_year,
    market_value_at,
    model_size_at,
    project_years,
    scenario_spread,
    training_cost_at,
)
from traincost.scaling_laws import CostRates

mp.dps = 50

GROWTH = GrowthModel()
RATES = CostRates()
MARKET = MarketModel()
BEST_GUESS = SCENARIOS["best_guess"]


class TestModelSize:
    def test_base_year_anchor(self):
        assert model_size_at(2023, GROWTH) == 1.8e12

    def test_one_year_out(self):
        assert math.isclose(model_size_at(2024, GROWTH), 5.04e12, rel_tol=1e-12)

    def test_anchor_independent_of_rate(self):
        assert model_size_at(2023, GrowthModel(param_growth_per_year=0.5)) == 1.8e12

    def test_rejects_far_past(self):
        with pytest.raises(ValueError):
            model_size_at(2000, GROWTH)


class TestExperts:
    def test_best_guess_2028(self):
        assert experts_at(2028, BEST_GUESS, GROWTH) == 28

    def test_worst_case_constant(self):
        worst = SCENARIOS["worst_case"]
        counts = {experts_at(y, worst, GROWTH) for y in range(2023, 2041)}
        assert counts == {worst.base_experts}

    def test_best_case_2024(self):
        assert experts_at(2024, SCENARIOS["best_case"], GROWTH) == 16

    def test_floors_fractional_counts(self):
        scenario = Scenario("custom", experts_per_year=0.5)
        assert experts_at(2024, scenario, GROWTH) == 8

    def test_never_below_one(self):
        scenario = Scenario("custom", experts_per_year=0.0, base_experts=1)
        assert experts_at(2040, scenario, GROWTH) == 1


class TestDollarsPerFlop:
    def test_base_year(self):
        got = dollars_per_flop_at(2023, GROWTH, RATES)
        assert got == 2.5 / (1.5e14 * 3600.0)

    def test_exact_halving_after_doubling_time(self):
        base = dollars_per_flop_at(2023, GROWTH, RATES)
        got = dollars_per_flop_at(2023 + 2.46, GROWTH, RATES)
        assert math.isclose(got, base / 2, rel_tol=1e-12)
        # with a doubling time whose year arithmetic is float-exact the
        # halving itself is exact
        growth = GrowthModel(gpu_perf_per_dollar_doubling_years=2.5)
        assert dollars_per_flop_at(2025.5, growth, RATES) == base / 2

    def test_2028_against_mpmath(self):
        base = mpf("2.5") / (mpf("1.5e14") * 3600)
        expected = float(base / 2 ** (mpf(5) / mpf("2.46")))
        got = dollars_per_flop_at(2028, GROWTH, RATES)
        assert math.isclose(got, expected, rel_tol=1e-12)
        assert math.isclose(got, float(base) / 4.09, rel_tol=1e-3)


class TestTrainingCost:
    def test_best_guess_2028_near_19b(self):
        row = training_cost_at(2028, GROWTH, BEST_GUESS, RATES, MARKET)
        assert 19e9 / 3 <= row.gpu_cost_usd <= 19e9 * 3

    def test_best_guess_2023_near_gpt4_estimate(self):
        row = training_cost_at(2023, GROWTH, BEST_GUESS, RATES, MARKET)
        assert 6.7e6 / 3 <= row.gpu_cost_usd <= 6.7e6 * 3
        assert row.cloud_cost_usd == row.gpu_cost_usd * 4.8

    def test_scenario_ordering_every_year(self):
        for year in range(2023, 2041):
            worst = training_cost_at(year, GROWTH, SCENARIOS["worst_case"], RATES, MARKET)
            guess = training_cost_at(year, GROWTH, BEST_GUESS, RATES, MARKET)
            best = training_cost_at(year, GROWTH, SCENARIOS["best_case"], RATES, MARKET)
            assert worst.gpu_cost_usd >= guess.gpu_cost_usd >= best.gpu_cost_usd

    def test_cost_strictly_increasing_through_2040(self):
        rows = project_years(list(range(2023, 2041)), GROWTH, BEST_GUESS, RATES, MARKET)
        costs = [r.gpu_cost_usd for r in rows]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_gpu_hours_consistent_with_cost(self):
        row = training_cost_at(2028, GROWTH, BEST_GUESS, RATES, MARKET)
        assert math.isclose(
            row.gpu_hours, row.gpu_cost_usd / RATES.dollars_per_gpu_hour, rel_tol=1e-15
        )


class TestComputeGrowthRate:
    def test_default_against_mpmath(self):
        expected = float(mpf("2.8") ** mpf("1.91") - 1)
        got = compute_growth_rate(GROWTH, BEST_GUESS)
        assert math.isclose(got, expected, rel_tol=1e-12)
        assert got >= 5.0

    def test_linear_exponent(self):
        scenario = Scenario("custom", token_scaling=1.0)
        assert math.isclose(compute_growth_rate(GROWTH, scenario), 1.8, rel_tol=1e-12)

    def test_zero_growth(self):
        growth = GrowthModel(param_growth_per_year=1e-300)
        assert math.isclose(compute_growth_rate(growth, BEST_GUESS), 0.0, abs_tol=1e-12)

    def test_matches_year_over_year_flops_ratio_without_experts(self):
        scenario = Scenario("custom", experts_per_year=0.0)
        rows = project_years([2025, 2026], GROWTH, scenario, RATES, MARKET)
        ratio = rows[1].flops / rows[0].flops
        assert math.isclose(ratio - 1.0, compute_growth_rate(GROWTH, scenario), rel_tol=1e-9)


class TestMarketValue:
    def test_base_year_anchors(self):
        gpu, it = market_value_at(2023, MARKET, GROWTH)
        assert gpu == MARKET.gpu_installed_base_usd
        assert it == MARKET.it_spend_usd

    def test_zero_growth_constant(self):
        market = MarketModel(gpu_installed_base_growth=0.0, it_spend_growth=0.0)
        assert market_value_at(2035, market, GROWTH) == (
            market.gpu_installed_base_usd, market.it_spend_usd,
        )

    def test_compound_growth_against_mpmath(self):
        market = MarketModel(gpu_installed_base_usd=1.5e11, gpu_installed_base_growth=0.25)
        gpu, _ = market_value_at(2029, market, GROWTH)
        expected = float(mpf("1.5e11") * mpf("1.25") ** 6)
        assert math.isclose(gpu, expected, rel_tol=1e-12)
        assert math.isclose(gpu, 5.7e11, rel_tol=5e-3)


class TestIntersections:
    def test_default_crossings_in_expected_windows(self):
        crossings = intersection_year(GROWTH, BEST_GUESS, RATES, MARKET)
        assert 2028 <= crossings.gpu_base_crossing <= 2030
        assert 2031 <= crossings.it_spend_crossing <= 2033

    def test_unreachable_market_never_crosses(self):
        market = MarketModel(gpu_installed_base_usd=1e60, it_spend_usd=1e60)
        crossings = intersection_year(GROWTH, BEST_GUESS, RATES, market)
        assert crossings.gpu_base_crossing is None
        assert crossings.it_spend_crossing is None

    def test_scaling_cost_up_moves_crossings_earlier(self):
        base = intersection_year(GROWTH, BEST_GUESS, RATES, MARKET)
        # Ten times the price per GPU-hour scales the whole cost curve by ten.
        pricier = replace(RATES, dollars_per_gpu_hour=RATES.dollars_per_gpu_hour * 10)
        scaled = intersection_year(GROWTH, BEST_GUESS, pricier, MARKET)
        assert scaled.gpu_base_crossing < base.gpu_base_crossing
        assert scaled.it_spend_crossing < base.it_spend_crossing

    def test_scaling_market_up_moves_crossings_later(self):
        bigger = MarketModel(
            gpu_installed_base_usd=MARKET.gpu_installed_base_usd * 10,
            it_spend_usd=MARKET.it_spend_usd * 10,
        )
        base = intersection_year(GROWTH, BEST_GUESS, RATES, MARKET)
        moved = intersection_year(GROWTH, BEST_GUESS, RATES, bigger)
        assert moved.gpu_base_crossing > base.gpu_base_crossing
        assert moved.it_spend_crossing > base.it_spend_crossing

    def test_crossed_from_the_start(self):
        market = MarketModel(gpu_installed_base_usd=1.0, it_spend_usd=1.0)
        crossings = intersection_year(GROWTH, BEST_GUESS, RATES, market)
        assert crossings.gpu_base_crossing == 2023.0


class TestScenarioSpread:
    def test_default_spread_within_three_years(self):
        assert scenario_spread(GROWTH, RATES, MARKET) <= 3.0

    def test_identical_scenarios_zero(self, monkeypatch):
        monkeypatch.setattr(projection, "SCENARIOS", {"a": BEST_GUESS, "b": BEST_GUESS})
        assert scenario_spread(GROWTH, RATES, MARKET) == 0.0

    def test_kappa_only_shift_matches_closed_form(self, monkeypatch):
        # With expert counts frozen, a constant price curve and a flat
        # market, crossings shift by log(kappa ratio) / log(yearly compute
        # growth); kappa 120 vs 20 at 2.8x/1.91 growth gives ~0.911 years.
        growth = GrowthModel(gpu_perf_per_dollar_doubling_years=math.inf)
        market = MarketModel(gpu_installed_base_usd=1e12, gpu_installed_base_growth=0.0)
        heavy = Scenario("custom", experts_per_year=0.0,
                         flop_per_param_with_tokens=120.0, base_experts=1)
        light = Scenario("custom", experts_per_year=0.0,
                         flop_per_param_with_tokens=20.0, base_experts=1)
        monkeypatch.setattr(projection, "SCENARIOS", {"heavy": heavy, "light": light})
        spread = scenario_spread(growth, RATES, market)
        expected = float(mp.log(6) / (mpf("1.91") * mp.log(mpf("2.8"))))
        assert math.isclose(spread, expected, rel_tol=1e-9)

    def test_missing_crossing_is_none(self):
        market = MarketModel(gpu_installed_base_usd=1e60)
        assert scenario_spread(GROWTH, RATES, market) is None


def _grid_scan(years, growth, scenario, market):
    """The former crossing scan: every year given, then parallel year, cost and market lists."""
    rows = project_years(years, growth, scenario, RATES, market)
    costs = [row.gpu_cost_usd for row in rows]

    def first_crossing(values):
        for i, (cost, value) in enumerate(zip(costs, values)):
            if cost >= value:
                if i == 0:
                    return float(years[0])
                gap0 = math.log(values[i - 1]) - math.log(costs[i - 1])
                gap1 = math.log(value) - math.log(cost)
                return years[i - 1] + gap0 / (gap0 - gap1)
        return None

    return Intersections(first_crossing([r.gpu_base_usd for r in rows]),
                         first_crossing([r.it_spend_usd for r in rows]))


def _expected_crossings(growth, scenario, market):
    """What intersection_year returns, or raises, by the former scan of the whole grid.

    The one departure: an OverflowError in a year after one whose cost
    reaches both curves gives the crossings found before it.
    """
    grid = list(range(growth.base_year, growth.base_year + GRID_SPAN_YEARS + 1))
    try:
        return _grid_scan(grid, growth, scenario, market)
    except OverflowError:
        before = []
        for year in grid:
            try:
                row = training_cost_at(year, growth, scenario, RATES, market)
            except OverflowError:
                break
            before.append(year)
            if row.gpu_cost_usd >= row.gpu_base_usd and row.gpu_cost_usd >= row.it_spend_usd:
                return _grid_scan(before, growth, scenario, market)
        raise


def _powers_of_ten(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda exponent: 10.0**exponent)


_GROWTHS = st.builds(
    GrowthModel,
    base_params=_powers_of_ten(6, 15),
    param_growth_per_year=_powers_of_ten(-2, 16),
    gpu_perf_per_dollar_doubling_years=st.floats(min_value=0.5, max_value=10.0),
)
_SCENARIOS = st.builds(
    Scenario,
    name=st.just("custom"),
    experts_per_year=st.floats(min_value=0.0, max_value=16.0),
    flop_per_param_with_tokens=_powers_of_ten(0, 3),
    base_experts=st.integers(min_value=1, max_value=64),
    token_scaling=st.floats(min_value=1.0, max_value=2.5),
)
_MARKETS = st.builds(
    MarketModel,
    gpu_installed_base_usd=_powers_of_ten(0, 40),
    gpu_installed_base_growth=st.floats(min_value=-0.5, max_value=3.0),
    it_spend_usd=_powers_of_ten(0, 40),
    it_spend_growth=st.floats(min_value=-0.5, max_value=3.0),
)
# Both curves are crossed in the base year's first months, and the cost
# overflows from about 2040.
_FAST_GROWTH = GrowthModel(param_growth_per_year=1e15)


@settings(max_examples=400, deadline=None)
@given(_GROWTHS, _SCENARIOS, _MARKETS)
@example(_FAST_GROWTH, BEST_GUESS, MARKET)
@example(_FAST_GROWTH, BEST_GUESS, MarketModel(it_spend_usd=1e300))  # overflows first
def test_crossings_match_the_full_grid_scan(growth, scenario, market):
    try:
        expected = _expected_crossings(growth, scenario, market)
    except Exception as exc:
        with pytest.raises(type(exc)):
            intersection_year(growth, scenario, RATES, market)
    else:
        assert intersection_year(growth, scenario, RATES, market) == expected


@settings(max_examples=200, deadline=None)
@given(_GROWTHS, _MARKETS)
@example(_FAST_GROWTH, MARKET)
@example(GROWTH, MarketModel(gpu_installed_base_usd=1e60))
def test_spread_is_none_exactly_when_a_preset_never_crosses(growth, market):
    crossings = []
    for scenario in SCENARIOS.values():
        try:
            crossings.append(_expected_crossings(growth, scenario, market).gpu_base_crossing)
        except Exception as exc:
            with pytest.raises(type(exc)):
                scenario_spread(growth, RATES, market)
            return
    spread = scenario_spread(growth, RATES, market)
    if None in crossings:
        assert spread is None
    else:
        assert spread == max(crossings) - min(crossings)


@given(st.floats(min_value=0.1, max_value=5.0), st.integers(min_value=2024, max_value=2040))
def test_model_size_monotone_in_year(rate, year):
    growth = GrowthModel(param_growth_per_year=rate)
    assert model_size_at(year, growth) > model_size_at(year - 1, growth)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base_params": 0.0},
        {"param_growth_per_year": 0.0},
        {"gpu_perf_per_dollar_doubling_years": -1.0},
        {"base_params": math.nan},
        {"param_growth_per_year": math.nan},
        {"gpu_perf_per_dollar_doubling_years": math.nan},
    ],
)
def test_invalid_growth_rejected(kwargs):
    with pytest.raises(ValueError):
        GrowthModel(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": "bogus"},
        {"experts_per_year": -1.0},
        {"flop_per_param_with_tokens": 0.0},
        {"base_experts": 0},
        {"token_scaling": 0.5},
        {"experts_per_year": math.nan},
        {"flop_per_param_with_tokens": math.nan},
        {"token_scaling": math.nan},
    ],
)
def test_invalid_scenario_rejected(kwargs):
    with pytest.raises(ValueError):
        Scenario(**kwargs)


def test_invalid_market_rejected():
    with pytest.raises(ValueError):
        MarketModel(gpu_installed_base_usd=-1.0)
    with pytest.raises(ValueError):
        MarketModel(it_spend_growth=-1.5)
    for name in ("gpu_installed_base_usd", "gpu_installed_base_growth",
                 "it_spend_usd", "it_spend_growth"):
        with pytest.raises(ValueError, match=name):
            MarketModel(**{name: math.nan})
