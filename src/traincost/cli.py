"""Command-line surface tying the analytic, simulation and projection engines.

Subcommands: cost | sweep | project | simulate | report.  Data (CSV or the
report bundle) goes to stdout or --out; human-readable summaries go to
stderr; output bytes are a pure function of the config bytes and flags.

Exit codes: 0 success, 1 configuration error, 2 when every sweep cell is
in the NoProgress regime, 3 on I/O failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from . import cluster_model, failure_sim, projection, svgplot
from .cluster_model import ResilienceConfig, SweepVariant
from .config import ConfigError, ConfigFile, load_config
from .projection import SCENARIOS, Scenario
from .scaling_laws import (
    ModelSpec,
    dollar_cost,
    ideal_gpu_hours,
    moe_training_flops,
    required_tokens,
)
from .tables import CsvTable

DEFAULT_GPUS_RANGE = "1024:262144:9:geometric"
DEFAULT_SIM_GPUS = 50_000
DEFAULT_YEARS = "2023:2035"
DEFAULT_SEED = 0
DEFAULT_REPS = 100
VALIDATION_TOLERANCE = 0.20
# Request-size caps: every range or years spec does bounded work.
MAX_RANGE_POINTS = 100_000
MAX_YEARS_SPAN = 1_000

SWEEP_COLUMNS = (
    "n_gpus", "config", "params", "experts", "flops", "mtti_h", "mtti_eff_h",
    "ckpt_h", "tau_h", "efficiency", "wall_h", "gpu_hours", "gpu_cost_usd", "status",
)
PROJECT_COLUMNS = (
    "scenario", "year", "params", "experts", "flops", "gpu_hours",
    "gpu_cost_usd", "cloud_cost_usd", "gpu_base_usd", "it_spend_usd",
)
COST_COLUMNS = (
    "params", "experts", "tokens", "flops", "gpu_hours", "gpu_cost_usd", "cloud_cost_usd",
)
SIMULATE_COLUMNS = (
    "replication", "wall_h", "failures", "repairs", "checkpoints", "interrupts",
)


class CliError(Exception):
    """Bad command line or unusable configuration."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def parse_range_spec(spec: str) -> list[int]:
    """START:END:COUNT:SPACING (linear|geometric) or a single integer."""
    parts = spec.split(":")
    if len(parts) == 1:
        try:
            return [int(parts[0])]
        except ValueError:
            raise CliError(f"invalid GPU count {spec!r}")
    if len(parts) != 4:
        raise CliError(f"range spec must be START:END:COUNT:SPACING, got {spec!r}")
    try:
        start, end, count = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise CliError(f"range spec must use integers, got {spec!r}")
    spacing = parts[3]
    if start < 1 or end < start or count < 1:
        raise CliError(f"range spec out of order: {spec!r}")
    if spacing not in ("linear", "geometric"):
        raise CliError(f"spacing must be linear or geometric, got {spacing!r}")
    if count > MAX_RANGE_POINTS:
        raise CliError(f"range spec asks for more than {MAX_RANGE_POINTS} points: {spec!r}")
    if count == 1:
        return [start]
    points = []
    try:
        for i in range(count):
            frac = i / (count - 1)
            if spacing == "linear":
                value = start + (end - start) * frac
            else:
                value = start * (end / start) ** frac
            points.append(round(value))
    except OverflowError:
        raise CliError(f"range spec exceeds float range: {spec!r}")
    # Rounding can collide on dense grids; keep strictly ascending values.
    out = []
    for p in points:
        if not out or p > out[-1]:
            out.append(p)
    return out


def parse_years_spec(spec: str) -> list[int]:
    """START:END inclusive."""
    parts = spec.split(":")
    if len(parts) != 2:
        raise CliError(f"years spec must be START:END, got {spec!r}")
    try:
        start, end = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"years spec must use integers, got {spec!r}")
    if end < start:
        raise CliError(f"years spec out of order: {spec!r}")
    if end - start > MAX_YEARS_SPAN:
        raise CliError(f"years spec spans more than {MAX_YEARS_SPAN} years: {spec!r}")
    return list(range(start, end + 1))


def _select_scenarios(config: ConfigFile, names_arg: str) -> list[Scenario]:
    scenarios = []
    for name in names_arg.split(","):
        name = name.strip()
        if name == "custom":
            scenarios.append(config.scenario)
        elif name in SCENARIOS:
            scenarios.append(SCENARIOS[name])
        else:
            raise CliError(
                f"unknown scenario {name!r}; choose from "
                f"{', '.join((*SCENARIOS, 'custom'))}"
            )
    return scenarios


def default_sweep_variants(resilience: ResilienceConfig) -> list[SweepVariant]:
    return [
        SweepVariant("baseline", resilience),
        cluster_model.optimized_variant(resilience),
    ]


def cmd_cost(config: ConfigFile, params: float, experts: int) -> tuple[CsvTable, str]:
    """Ideal (failure-free) compute, GPU-hours and dollars for one model."""
    model = ModelSpec(params=params, experts=experts)
    rates = config.cluster.rates
    tokens = required_tokens(model, config.scaling)
    flops = moe_training_flops(model, config.scaling)
    gpu_hours = ideal_gpu_hours(flops, rates)
    gpu_usd, cloud_usd = dollar_cost(gpu_hours, rates)
    table = CsvTable(
        COST_COLUMNS,
        ((float(params), int(experts), float(tokens), float(flops),
          float(gpu_hours), float(gpu_usd), float(cloud_usd)),),
    )
    summary = (
        f"model: {params:.3g} params, {experts} expert(s)\n"
        f"training compute: {flops:.4g} FLOP ({tokens:.4g} tokens)\n"
        f"ideal GPU-hours:  {gpu_hours:.4g}\n"
        f"cost: ${gpu_usd:,.0f} GPU / ${cloud_usd:,.0f} cloud\n"
    )
    return table, summary


def cmd_sweep(
    config: ConfigFile,
    gpus_list: list[int],
    variants: list[SweepVariant] | None = None,
) -> tuple[CsvTable, bool]:
    """Time-to-train versus system size; returns (table, all_no_progress)."""
    if variants is None:
        variants = default_sweep_variants(config.resilience)
    model = ModelSpec(config.growth.base_params, config.scenario.base_experts)
    flops = float(moe_training_flops(model, config.scaling))
    results = cluster_model.sweep_system_size(
        model, config.scaling, config.cluster, variants, gpus_list
    )
    rows = tuple(
        (
            n_gpus, name, float(model.params), model.experts, flops,
            run.mtti_h, run.mtti_eff_h, run.delta_h, run.tau_h, run.efficiency,
            run.wall_h if run.ok else None,
            run.gpu_hours if run.ok else None,
            run.gpu_dollars if run.ok else None,
            run.status,
        )
        for n_gpus, name, run in results
    )
    return CsvTable(SWEEP_COLUMNS, rows), not any(run.ok for _, _, run in results)


def cmd_project(
    config: ConfigFile, years: list[int], scenarios: list[Scenario]
) -> tuple[CsvTable, str]:
    """Yearly cost projection plus market-crossing summary."""
    rates = config.cluster.rates
    rows = []
    lines = []
    for scenario in scenarios:
        for row in projection.project_years(
            years, config.growth, scenario, rates, config.market
        ):
            rows.append((
                scenario.name, row.year, row.params, row.experts, row.flops,
                row.gpu_hours, row.gpu_cost_usd, row.cloud_cost_usd,
                row.gpu_base_usd, row.it_spend_usd,
            ))
        crossings = projection.intersection_year(
            config.growth, scenario, rates, config.market
        )
        gpu_x = crossings.gpu_base_crossing
        it_x = crossings.it_spend_crossing
        lines.append(
            f"{scenario.name}: crosses GPU installed base "
            f"{'in %.2f' % gpu_x if gpu_x else 'never'}, "
            f"IT spending {'in %.2f' % it_x if it_x else 'never'}"
        )
    try:
        spread = projection.scenario_spread(config.growth, rates, config.market)
        lines.append(f"scenario spread (GPU-base crossing): {spread:.2f} years")
    except ValueError:
        lines.append("scenario spread: undefined (a scenario never crosses)")
    return CsvTable(PROJECT_COLUMNS, tuple(rows)), "\n".join(lines) + "\n"


def cmd_simulate(
    config: ConfigFile,
    n_gpus: int,
    seed: int,
    replications: int,
    workers: int = 1,
) -> tuple[CsvTable, str]:
    """Monte Carlo replications plus a validation report against the closed form."""
    sim_config = failure_sim.SimConfig(
        model=ModelSpec(config.growth.base_params, config.scenario.base_experts),
        cluster=replace(config.cluster, n_gpus=n_gpus),
        constants=config.scaling,
        resilience=config.resilience,
        seed=seed,
        replications=replications,
    )
    outcomes = failure_sim.collect_replications(sim_config, workers)
    result = failure_sim.summarize(outcomes)
    rows = tuple(
        (i, wall if math.isfinite(wall) else None,
         counts.failures, counts.repairs, counts.checkpoints, counts.interrupts)
        for i, (wall, counts) in enumerate(outcomes)
    )
    table = CsvTable(SIMULATE_COLUMNS, rows)

    breakdown = cluster_model.expected_runtime(
        sim_config.model, sim_config.constants, sim_config.cluster, sim_config.resilience
    )
    analytic = breakdown.wall_h if breakdown.ok else math.inf
    rel = (
        abs(analytic - result.mean_wall_h) / analytic
        if math.isfinite(analytic) and math.isfinite(result.mean_wall_h)
        else math.nan
    )
    passed = rel <= VALIDATION_TOLERANCE if math.isfinite(rel) else False
    report = (
        f"replications: {replications} (seed {seed}, rng {result.generator})\n"
        f"simulated mean wall-clock: {result.mean_wall_h:.4g} h "
        f"(stddev {result.stddev_wall_h:.4g}, 95% half-width {result.ci95_half_width_h:.4g})\n"
        f"analytic wall-clock: {analytic:.4g} h\n"
        f"relative error: {rel:.4g} "
        f"({'within' if passed else 'OUTSIDE'} {VALIDATION_TOLERANCE:.0%} tolerance)\n"
        f"mean interrupts {result.mean_interrupts:.3g}, "
        f"mean checkpoints {result.mean_checkpoints:.3g}\n"
    )
    return table, report


def cmd_report(config: ConfigFile, seed: int, replications: int) -> str:
    """Plain-text bundle: all tables plus a narrative against reference figures."""
    sections = []

    dense_table, _ = cmd_cost(config, 1e12, 1)
    moe_table, _ = cmd_cost(config, config.growth.base_params, config.scenario.base_experts)
    sections.append("== ideal cost: 1T-parameter dense model ==\n" + dense_table.to_csv())
    sections.append(
        f"== ideal cost: base model ({config.growth.base_params:.3g} params, "
        f"{config.scenario.base_experts} experts) ==\n" + moe_table.to_csv()
    )

    gpus_list = parse_range_spec(DEFAULT_GPUS_RANGE)
    sweep_table, _ = cmd_sweep(config, gpus_list)
    sections.append("== time-to-train vs system size ==\n" + sweep_table.to_csv())

    years = parse_years_spec(DEFAULT_YEARS)
    project_table, project_summary = cmd_project(
        config, years, [SCENARIOS[n] for n in ("best_case", "best_guess", "worst_case")]
    )
    sections.append("== cost projection ==\n" + project_table.to_csv())
    sections.append("== market crossings ==\n" + project_summary)

    sim_table, sim_report = cmd_simulate(config, DEFAULT_SIM_GPUS, seed, replications)
    sections.append("== simulation replications ==\n" + sim_table.to_csv())
    sections.append("== simulation vs closed form ==\n" + sim_report)

    sections.append("== narrative ==\n" + _narrative(config))
    return "\n".join(sections)


def _narrative(config: ConfigFile) -> str:
    rates = config.cluster.rates
    dense_1t = moe_training_flops(ModelSpec(1e12, 1), config.scaling)
    rows_2023 = projection.training_cost_at(
        config.growth.base_year, config.growth, SCENARIOS["best_guess"], rates, config.market
    )
    rows_2028 = projection.training_cost_at(
        config.growth.base_year + 5, config.growth, SCENARIOS["best_guess"], rates, config.market
    )
    crossings = projection.intersection_year(
        config.growth, SCENARIOS["best_guess"], rates, config.market
    )
    growth_rate = projection.compute_growth_rate(config.growth, SCENARIOS["best_guess"])
    ratio = _resilience_ratio(config)
    lines = [
        "Reference points (commonly cited estimates) vs this configuration:",
        f"- a 1T-parameter dense model needs ~1.2e26 FLOP; this config gives {dense_1t:.3g}.",
        f"- at 1e15 FLOP/s sustained, 1e26 FLOP is ~28M ideal GPU-hours; this config "
        f"sustains {rates.sustained_flops_per_gpu:.3g} FLOP/s per GPU.",
        f"- best-guess run cost in {config.growth.base_year}: "
        f"${rows_2023.gpu_cost_usd/1e6:.1f}M GPU / ${rows_2023.cloud_cost_usd/1e6:.1f}M cloud "
        "(GPT-4-class estimates: $6.7M / $32M).",
        f"- best-guess run cost in {config.growth.base_year + 5}: "
        f"${rows_2028.gpu_cost_usd/1e9:.1f}B GPU (widely quoted ballpark: $19B).",
        f"- required compute grows {growth_rate:.0%}/year at these trends (>500%).",
        f"- optimized resilience is {ratio:.2f}x faster than baseline at 50k GPUs (~2x).",
    ]
    if crossings.gpu_base_crossing:
        lines.append(
            f"- the run cost crosses the GPU installed-base curve around "
            f"{crossings.gpu_base_crossing:.1f} and IT spending around "
            f"{crossings.it_spend_crossing:.1f} under the shipped market anchors."
        )
    lines.append(
        "Market anchors are editable assumptions (see the market section of the "
        "config), not measurements."
    )
    return "\n".join(lines) + "\n"


def _resilience_ratio(config: ConfigFile) -> float:
    model = ModelSpec(config.growth.base_params, config.scenario.base_experts)
    baseline, optimized = default_sweep_variants(config.resilience)
    rows = cluster_model.sweep_system_size(
        model, config.scaling, config.cluster,
        [baseline, optimized], [DEFAULT_SIM_GPUS],
    )
    walls = {name: b.wall_h for _, name, b in rows}
    return walls["baseline"] / walls["optimized"]


def sweep_chart(table: CsvTable) -> str:
    series = {}
    for row in table.rows:
        name, n_gpus, wall = row[1], row[0], row[10]
        if wall is not None:
            series.setdefault(name, []).append((float(n_gpus), float(wall)))
    return svgplot.line_chart(
        sorted(series.items()),
        title="Time to train vs system size",
        x_label="GPUs",
        y_label="wall-clock hours",
        log_x=True,
        log_y=True,
    )


def project_chart(table: CsvTable) -> str:
    series = {}
    market_gpu = {}
    market_it = {}
    for row in table.rows:
        name, year, cost = row[0], row[1], row[6]
        series.setdefault(name, []).append((float(year), float(cost)))
        market_gpu[float(year)] = float(row[8])
        market_it[float(year)] = float(row[9])
    charted = sorted(series.items())
    charted.append(("gpu installed base", sorted(market_gpu.items())))
    charted.append(("it spending", sorted(market_it.items())))
    return svgplot.line_chart(
        charted,
        title="Projected cost of one training run",
        x_label="year",
        y_label="USD",
        log_y=True,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="traincost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a YAML config file")
        p.add_argument("--out", help="write data to this file instead of stdout")

    p_cost = sub.add_parser("cost", help="ideal compute and dollars for one model")
    add_common(p_cost)
    p_cost.add_argument("params", type=float, help="parameter count, e.g. 1e12")
    p_cost.add_argument("experts", type=int, nargs="?", default=1,
                        help="expert count (default 1 = dense)")

    p_sweep = sub.add_parser("sweep", help="time-to-train vs system size")
    add_common(p_sweep)
    p_sweep.add_argument("--gpus", default=DEFAULT_GPUS_RANGE,
                         help="range spec START:END:COUNT:SPACING or single count")
    p_sweep.add_argument("--svg", action="store_true",
                         help="also write a chart next to --out")

    p_project = sub.add_parser("project", help="multi-year cost projection")
    add_common(p_project)
    p_project.add_argument("--years", default=DEFAULT_YEARS, help="START:END inclusive")
    p_project.add_argument("--scenario", default="best_guess",
                           help="comma-separated scenario names")
    p_project.add_argument("--svg", action="store_true",
                           help="also write a chart next to --out")

    p_sim = sub.add_parser("simulate", help="Monte Carlo failure simulation")
    add_common(p_sim)
    p_sim.add_argument("--gpus", default=str(DEFAULT_SIM_GPUS), help="system size")
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--reps", type=int, default=DEFAULT_REPS)
    p_sim.add_argument("--workers", type=int, default=1,
                       help="processes for replications; never changes output bytes")

    p_report = sub.add_parser("report", help="bundle of all tables plus narrative")
    add_common(p_report)
    p_report.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_report.add_argument("--reps", type=int, default=DEFAULT_REPS)

    return parser


def _load(args) -> ConfigFile:
    if args.config:
        return load_config(args.config)
    return ConfigFile()


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _write_svg(svg_text: str, out_path: str | None) -> None:
    if not out_path:
        raise CliError("--svg requires --out to derive the chart filename")
    stem = out_path.rsplit(".", 1)[0] if "." in out_path.rsplit("/", 1)[-1] else out_path
    with open(stem + ".svg", "w", encoding="utf-8", newline="") as handle:
        handle.write(svg_text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load(args)

        if args.command == "cost":
            table, summary = cmd_cost(config, args.params, args.experts)
            _write_output(table.to_csv(), args.out)
            sys.stderr.write(summary)
            return 0

        if args.command == "sweep":
            gpus_list = parse_range_spec(args.gpus)
            table, all_no_progress = cmd_sweep(config, gpus_list)
            _write_output(table.to_csv(), args.out)
            if args.svg:
                _write_svg(sweep_chart(table), args.out)
            return 2 if all_no_progress else 0

        if args.command == "project":
            years = parse_years_spec(args.years)
            scenarios = _select_scenarios(config, args.scenario)
            table, summary = cmd_project(config, years, scenarios)
            _write_output(table.to_csv(), args.out)
            if args.svg:
                _write_svg(project_chart(table), args.out)
            sys.stderr.write(summary)
            return 0

        if args.command == "simulate":
            gpus_list = parse_range_spec(args.gpus)
            if len(gpus_list) != 1:
                raise CliError("simulate takes a single --gpus count")
            table, report = cmd_simulate(
                config, gpus_list[0], args.seed, args.reps, args.workers
            )
            _write_output(table.to_csv(), args.out)
            sys.stderr.write(report)
            return 0

        if args.command == "report":
            _write_output(cmd_report(config, args.seed, args.reps), args.out)
            return 0

        raise CliError(f"unknown command {args.command!r}")
    except (CliError, ConfigError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
