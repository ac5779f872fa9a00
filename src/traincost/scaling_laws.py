"""Closed-form training compute, GPU-hour and dollar-cost formulas.

Dense transformer training follows the quadratic rule C = c0 * t * P**e with
c0 FLOP per parameter per token, t tokens per parameter and e the compute
exponent (2.0 by default, which collapses to C = 120 * P**2 at the standard
constants).  Sparsely activated (mixture-of-experts) models with K experts
train at C / K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HOURS_TO_SECONDS = 3600.0


def _fits_float(value) -> bool:
    """Whether value is a finite float, or an int small enough to become one."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _require_positive(record, *names: str) -> None:
    """ValueError naming the first of record's named fields that is not > 0."""
    for name in names:
        if not getattr(record, name) > 0:
            raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class ScalingConstants:
    """Empirical constants of the training-compute law."""

    flop_per_token: float = 6.0
    tokens_per_param: float = 20.0
    token_scaling: float = 2.0

    def __post_init__(self):
        _require_positive(self, "flop_per_token", "tokens_per_param")
        if not 1.0 <= self.token_scaling <= 2.5:
            raise ValueError("token_scaling must lie in [1.0, 2.5]")


@dataclass(frozen=True)
class ModelSpec:
    """A model to be trained: parameter count and expert count (1 = dense)."""

    params: float
    experts: int = 1

    def __post_init__(self):
        if not 0 < self.params < math.inf:
            raise ValueError("params must be finite and > 0")
        if not (self.experts >= 1 and _fits_float(self.experts)
                and self.experts == int(self.experts)):
            raise ValueError("experts must be an integer >= 1 that fits a float")


@dataclass(frozen=True)
class CostRates:
    """Throughput and price of one GPU, plus the cloud markup factor."""

    sustained_flops_per_gpu: float = 150e12
    dollars_per_gpu_hour: float = 2.5
    cloud_multiplier: float = 4.8

    def __post_init__(self):
        _require_positive(self, "sustained_flops_per_gpu", "dollars_per_gpu_hour",
                          "cloud_multiplier")


def _power(base, exponent: float):
    # Exact fast paths: keeps integral/rational inputs exact and makes the
    # quadratic law satisfy f(2P) == 4*f(P) bit-for-bit, which float pow
    # does not guarantee.
    if exponent == 2.0:
        return base * base
    if exponent == 1.0:
        return base
    return base ** exponent


def required_tokens(model: ModelSpec, constants: ScalingConstants):
    """Tokens needed to train: tokens_per_param * P**(token_scaling - 1)."""
    return constants.tokens_per_param * _power(
        model.params, constants.token_scaling - 1.0
    )


def dense_training_flops(model: ModelSpec, constants: ScalingConstants):
    """Training FLOP for a dense model: flop_per_token * tokens_per_param * P**e."""
    return (
        constants.flop_per_token
        * constants.tokens_per_param
        * _power(model.params, constants.token_scaling)
    )


def moe_training_flops(model: ModelSpec, constants: ScalingConstants):
    """Training FLOP for a K-expert model: the dense cost divided by K."""
    return dense_training_flops(model, constants) / model.experts


def ideal_gpu_hours(flops, rates: CostRates):
    """GPU-hours at perfect scaling: flops / (per-GPU throughput * 3600)."""
    if flops < 0:
        raise ValueError("flops must be >= 0")
    return flops / (rates.sustained_flops_per_gpu * HOURS_TO_SECONDS)


def dollar_cost(gpu_hours, rates: CostRates):
    """(gpu_dollars, cloud_dollars) for a given number of GPU-hours."""
    if gpu_hours < 0:
        raise ValueError("gpu_hours must be >= 0")
    gpu_dollars = gpu_hours * rates.dollars_per_gpu_hour
    return gpu_dollars, gpu_dollars * rates.cloud_multiplier
