import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from traincost.scaling_laws import (
    CostRates,
    ModelSpec,
    ScalingConstants,
    dense_training_flops,
    dollar_cost,
    ideal_gpu_hours,
    moe_training_flops,
    required_tokens,
)

mp.dps = 50

DEFAULTS = ScalingConstants()


class TestRequiredTokens:
    def test_one_trillion_params_default(self):
        assert required_tokens(ModelSpec(1e12), DEFAULTS) == 2e13

    def test_single_param_identity(self):
        k = ScalingConstants(tokens_per_param=37.0)
        assert required_tokens(ModelSpec(1.0), k) == 37.0

    def test_fractional_exponent_against_mpmath(self):
        # Arbitrary-precision evaluation of 20 * P**(1.91 - 1) is the oracle.
        k = ScalingConstants(token_scaling=1.91)
        expected = float(mpf(20) * mpf(10) ** (12 * (mpf("1.91") - 1)))
        got = required_tokens(ModelSpec(1e12), k)
        assert math.isclose(got, expected, rel_tol=1e-12)
        assert math.isclose(got, 1.66353e12, rel_tol=1e-4)


class TestDenseFlops:
    def test_one_trillion_params_is_exactly_1p2e26(self):
        assert dense_training_flops(ModelSpec(1e12), DEFAULTS) == 1.2e26

    def test_zero_params_boundary(self):
        # Boundary case outside the ModelSpec invariant; duck-typed stand-in.
        fake = SimpleNamespace(params=0.0, experts=1)
        assert dense_training_flops(fake, DEFAULTS) == 0.0

    def test_gpt3_size_against_direct_arithmetic(self):
        expected = float(120 * mpf("1.75e11") ** 2)
        got = dense_training_flops(ModelSpec(1.75e11), DEFAULTS)
        assert math.isclose(got, expected, rel_tol=1e-14)
        assert math.isclose(got, 3.675e24, rel_tol=1e-12)


class TestMoeFlops:
    def test_one_expert_is_dense(self):
        model = ModelSpec(1e12, experts=1)
        assert moe_training_flops(model, DEFAULTS) == dense_training_flops(model, DEFAULTS)

    def test_eight_experts(self):
        assert moe_training_flops(ModelSpec(1e12, 8), DEFAULTS) == 1.5e25

    def test_factor_k_ratio(self):
        four = moe_training_flops(ModelSpec(1e12, 4), DEFAULTS)
        ten = moe_training_flops(ModelSpec(1e12, 10), DEFAULTS)
        assert math.isclose(four / ten, 10 / 4, rel_tol=1e-15)


class TestGpuHours:
    def test_next_gen_gpu_calibration(self):
        rates = CostRates(sustained_flops_per_gpu=1e15)
        got = ideal_gpu_hours(1e26, rates)
        assert got == 1e26 / (1e15 * 3600.0)
        assert math.isclose(got, 2.78e7, rel_tol=0.01)

    def test_zero(self):
        assert ideal_gpu_hours(0.0, CostRates()) == 0.0

    def test_direct_arithmetic(self):
        expected = float(mpf("1.2e26") / (mpf("1.5e14") * 3600))
        assert math.isclose(ideal_gpu_hours(1.2e26, CostRates()), expected, rel_tol=1e-15)
        assert math.isclose(ideal_gpu_hours(1.2e26, CostRates()), 2.222e8, rel_tol=1e-3)


class TestDollarCost:
    def test_gpt4_scale_figures(self):
        gpu, cloud = dollar_cost(2.68e6, CostRates())
        assert gpu == 6.7e6
        assert math.isclose(cloud, 32.16e6, rel_tol=1e-12)

    def test_zero(self):
        assert dollar_cost(0.0, CostRates()) == (0.0, 0.0)

    def test_million_gpu_hours(self):
        gpu, cloud = dollar_cost(1e6, CostRates())
        assert gpu == 2.5e6
        assert cloud == 1.2e7


@given(st.floats(min_value=1e3, max_value=1e15))
def test_quadratic_homogeneity_is_exact(params):
    model = ModelSpec(params)
    doubled = ModelSpec(2 * params)
    assert dense_training_flops(doubled, DEFAULTS) == 4 * dense_training_flops(model, DEFAULTS)


@given(
    st.floats(min_value=1e3, max_value=1e15),
    st.integers(min_value=1, max_value=64),
)
def test_factor_k_is_plain_division(params, experts):
    dense = dense_training_flops(ModelSpec(params), DEFAULTS)
    moe = moe_training_flops(ModelSpec(params, experts), DEFAULTS)
    assert moe == dense / experts


@given(
    st.integers(min_value=10**3, max_value=10**14),
    st.integers(min_value=1, max_value=64),
)
def test_factor_k_law_exact_in_rational_arithmetic(params, experts):
    # The formulas are arithmetic-generic; with exact rational inputs the
    # factor-K law K * C_moe == C_dense holds with zero tolerance.
    exact = ScalingConstants(flop_per_token=6, tokens_per_param=20)
    model = SimpleNamespace(params=Fraction(params), experts=experts)
    dense = dense_training_flops(model, exact)
    moe = moe_training_flops(model, exact)
    assert isinstance(moe, Fraction)
    assert experts * moe == dense


@given(
    st.floats(min_value=1e3, max_value=1e12),
    st.floats(min_value=1.01, max_value=1e3),
)
def test_monotone_in_params(params, factor):
    small = dense_training_flops(ModelSpec(params), DEFAULTS)
    large = dense_training_flops(ModelSpec(params * factor), DEFAULTS)
    assert large > small


@given(st.integers(min_value=1, max_value=63))
def test_monotone_in_experts(experts):
    model_a = ModelSpec(1e12, experts)
    model_b = ModelSpec(1e12, experts + 1)
    assert moe_training_flops(model_b, DEFAULTS) < moe_training_flops(model_a, DEFAULTS)


@given(st.floats(min_value=1e6, max_value=1e14))
def test_cost_composition_matches_step_by_step(params):
    rates = CostRates()
    composed, _ = dollar_cost(
        ideal_gpu_hours(dense_training_flops(ModelSpec(params), DEFAULTS), rates), rates
    )
    flops = DEFAULTS.flop_per_token * DEFAULTS.tokens_per_param * (params * params)
    hours = flops / (rates.sustained_flops_per_gpu * 3600.0)
    assert composed == hours * rates.dollars_per_gpu_hour


@pytest.mark.parametrize(
    "kwargs",
    [
        {"flop_per_token": 0.0},
        {"tokens_per_param": -1.0},
        {"token_scaling": 0.9},
        {"token_scaling": 2.6},
        {"flop_per_token": math.nan},
        {"tokens_per_param": math.nan},
        {"token_scaling": math.nan},
    ],
)
def test_invalid_constants_rejected(kwargs):
    with pytest.raises(ValueError):
        ScalingConstants(**kwargs)


@pytest.mark.parametrize(
    "params,experts",
    [
        (0.0, 1), (-1e12, 1), (1e12, 0), (1e12, 2.5), (math.nan, 1), (math.inf, 1),
        (1e12, math.nan), (1e12, math.inf), pytest.param(1e12, 10**400, id="1e12-10**400"),
    ],
)
def test_invalid_model_rejected(params, experts):
    with pytest.raises(ValueError):
        ModelSpec(params, experts)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        ideal_gpu_hours(-1.0, CostRates())
    with pytest.raises(ValueError):
        dollar_cost(-1.0, CostRates())
