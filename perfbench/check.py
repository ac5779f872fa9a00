"""Expected CLI outputs, computed in process from the library, and the checker.

The expectations are built from the request's own parameters and config
dict with scaling_laws, cluster_model, projection and failure_sim; they do
not go through traincost.config or traincost.cli, so a defect in either
shows up as a mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from traincost import cluster_model, failure_sim, projection, scaling_laws
from traincost.cluster_model import ClusterSpec, ResilienceConfig
from traincost.scaling_laws import CostRates, ModelSpec, ScalingConstants

# The documented leading columns of each subcommand's CSV. Columns
# appended after these still pass.
COLUMNS = {
    "cost": ("params", "experts", "tokens", "flops", "gpu_hours", "gpu_cost_usd",
             "cloud_cost_usd"),
    "sweep": ("n_gpus", "config", "params", "experts", "flops", "mtti_h", "mtti_eff_h",
              "ckpt_h", "tau_h", "efficiency", "wall_h", "gpu_hours", "gpu_cost_usd",
              "status"),
    "project": ("scenario", "year", "params", "experts", "flops", "gpu_hours",
                "gpu_cost_usd", "cloud_cost_usd", "gpu_base_usd", "it_spend_usd"),
    "simulate": ("replication", "wall_h", "failures", "repairs", "checkpoints",
                 "interrupts"),
}

MAX_PROBLEMS = 5


@dataclass
class Expected:
    """What a request must produce: exit code, row count and known rows."""

    exit_code: int
    row_count: int
    rows: dict  # row index -> documented cells, as strings


def cell(value) -> str:
    """The CSV dialect: 17 significant digits, empty for missing or non-finite."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return format(value, ".17g") if math.isfinite(value) else ""


def _resilience(config: dict) -> ResilienceConfig:
    res = config.get("resilience", {})
    return ResilienceConfig(
        ckpt_mem_fraction=res.get("ckpt_mem_fraction", 1.0),
        tolerated_group_failures=res.get("ft_f", 0),
        ttr_h=res.get("ttr_h", 2.0),
    )


def _cluster(config: dict, n_gpus: int) -> ClusterSpec:
    return ClusterSpec(n_gpus, **config.get("cluster", {}))


def _base_model() -> ModelSpec:
    # The CLI trains the growth model's base size with the default
    # scenario's expert count.
    return ModelSpec(projection.GrowthModel().base_params,
                     projection.SCENARIOS["best_guess"].base_experts)


def grid(start: int, end: int, count: int) -> list[int]:
    """The points of a START:END:COUNT:geometric range, duplicates dropped."""
    if count == 1:
        return [start]
    out = []
    for i in range(count):
        point = round(start * (end / start) ** (i / (count - 1)))
        if not out or point > out[-1]:
            out.append(point)
    return out


def sim_config(request) -> failure_sim.SimConfig:
    p = request.params
    return failure_sim.SimConfig(
        model=_base_model(),
        cluster=_cluster(request.config, p["gpus"]),
        constants=ScalingConstants(),
        resilience=_resilience(request.config),
        seed=p["seed"],
        replications=p["reps"],
    )


def analytic_wall_h(request) -> float:
    """The closed form's wall-clock for a simulate request; inf if NoProgress."""
    config = sim_config(request)
    breakdown = cluster_model.expected_runtime(
        config.model, config.constants, config.cluster, config.resilience)
    return breakdown.wall_h if breakdown.ok else math.inf


def _cost(request) -> Expected:
    p = request.params
    params = float(p["params"])
    model = ModelSpec(params, p["experts"])
    constants, rates = ScalingConstants(), CostRates()
    flops = scaling_laws.moe_training_flops(model, constants)
    gpu_hours = scaling_laws.ideal_gpu_hours(flops, rates)
    gpu_usd, cloud_usd = scaling_laws.dollar_cost(gpu_hours, rates)
    row = (params, p["experts"], float(scaling_laws.required_tokens(model, constants)),
           float(flops), float(gpu_hours), float(gpu_usd), float(cloud_usd))
    return Expected(0, 1, {0: [cell(v) for v in row]})


def _sweep(request) -> Expected:
    p = request.params
    model, constants = _base_model(), ScalingConstants()
    flops = float(scaling_laws.moe_training_flops(model, constants))
    base = _resilience(request.config)
    optimized = cluster_model.optimized_variant(base)
    variants = (("baseline", base, None),
                ("optimized", optimized.resilience, optimized.fs_bw_gbs))
    rows = {}
    all_no_progress = True
    for n_gpus in grid(p["start"], p["end"], p["count"]):
        for name, res, fs_bw in variants:
            cluster = _cluster(request.config, n_gpus)
            if fs_bw is not None:
                cluster = replace(cluster, fs_bw_gbs=fs_bw)
            b = cluster_model.expected_runtime(model, constants, cluster, res)
            mtti = cluster_model.system_mtti(cluster)
            m_eff = cluster_model.effective_mtti(mtti, res.tolerated_group_failures)
            delta = cluster_model.checkpoint_write_time(cluster, res)
            tau = cluster_model.optimal_checkpoint_interval(delta, m_eff, b.solve_h)
            eta = cluster_model.parallel_efficiency(
                cluster_model.group_count(cluster, res), res.seq_fraction)
            all_no_progress = all_no_progress and not b.ok
            row = (n_gpus, name, float(model.params), model.experts, flops, mtti, m_eff,
                   delta, tau, eta, b.wall_h if b.ok else None,
                   b.gpu_hours if b.ok else None, b.gpu_dollars if b.ok else None, b.status)
            rows[len(rows)] = [cell(v) for v in row]
    return Expected(2 if all_no_progress else 0, len(rows), rows)


def _project(request) -> Expected:
    p = request.params
    years = list(range(p["first_year"], p["last_year"] + 1))
    growth, rates, market = projection.GrowthModel(), CostRates(), projection.MarketModel()
    rows = {}
    for name in p["scenarios"]:
        scenario = projection.SCENARIOS[name]
        for r in projection.project_years(years, growth, scenario, rates, market):
            row = (name, r.year, r.params, r.experts, r.flops, r.gpu_hours,
                   r.gpu_cost_usd, r.cloud_cost_usd, r.gpu_base_usd, r.it_spend_usd)
            rows[len(rows)] = [cell(v) for v in row]
    return Expected(0, len(rows), rows)


def _simulate(request) -> Expected:
    p = request.params
    config = sim_config(request)
    index = p["seed"] % p["reps"]  # one sampled replication per request
    wall, counts = failure_sim.simulate_run(config, index)
    row = (index, wall, counts.failures, counts.repairs, counts.checkpoints,
           counts.interrupts)
    return Expected(0, p["reps"], {index: [cell(v) for v in row]})


_EXPECT = {"cost": _cost, "sweep": _sweep, "project": _project, "simulate": _simulate}


def expected(request) -> Expected:
    return _EXPECT[request.kind](request)


def problems(request, exit_code: int, csv_text: str | None, want: Expected) -> list[str]:
    """Everything wrong with one request's result; empty when it is correct."""
    found = []
    if exit_code != want.exit_code:
        found.append(f"exit code {exit_code}, expected {want.exit_code}")
    if csv_text is None:
        return found + ["no CSV output"]
    if not csv_text.endswith("\n"):
        return found + ["CSV output does not end with a newline"]
    lines = csv_text[:-1].split("\n")
    columns = COLUMNS[request.kind]
    header = tuple(lines[0].split(","))
    if header[:len(columns)] != columns:
        return found + [f"header {lines[0]!r} does not start with {','.join(columns)}"]
    rows = lines[1:]
    if len(rows) != want.row_count:
        found.append(f"{len(rows)} rows, expected {want.row_count}")
    width = len(columns)
    if request.kind == "simulate":
        for i, line in enumerate(rows):
            if line.split(",", 1)[0] != str(i):
                found.append(f"row {i} is labelled {line.split(',', 1)[0]!r}")
                break
    for index, cells in want.rows.items():
        if index >= len(rows):
            break
        got = rows[index].split(",")[:width]
        if len(got) < width:
            found.append(f"row {index} has {len(got)} cells, expected {width}")
        for name, g, w in zip(columns, got, cells):
            if g != w:
                found.append(f"row {index} {name}: got {g!r}, expected {w!r}")
                break
        if len(found) >= MAX_PROBLEMS:
            break
    return found[:MAX_PROBLEMS]
