"""Command-line surface tying the analytic, simulation and projection engines.

Subcommands: cost | sweep | project | simulate | report.  Data (CSV or the
report bundle) goes to stdout or --out; human-readable summaries go to
stderr; output bytes are a pure function of the config bytes and flags.

Exit codes: 0 success, 1 configuration error, 2 when every sweep cell is
in the NoProgress regime, 3 on I/O failure or a failed simulation share.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import replace
from operator import attrgetter, itemgetter

# failure_sim and svgplot are imported by the functions that use them, so
# a request loads neither unless it simulates or draws a chart.
from . import cluster_model, projection
from .cluster_model import STATUS_OK, RunBreakdown, SweepVariant
from .config import ConfigFile, load_config
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
# project without --years, and report, span the base year and the years after it.
DEFAULT_YEARS_AHEAD = 12
DEFAULT_SEED = 0
DEFAULT_REPS = 100
VALIDATION_TOLERANCE = 0.20
# Request-size caps: a larger range spec, years spec or --reps exits 1.
MAX_RANGE_POINTS = 100_000
MAX_YEARS_SPAN = 1_000
MAX_REPLICATIONS = 100_000

SWEEP_COLUMNS = (
    "n_gpus", "config", "params", "experts", "flops", "mtti_h", "mtti_eff_h",
    "ckpt_h", "tau_h", "efficiency", "wall_h", "gpu_hours", "gpu_cost_usd", "status",
)
# The RunBreakdown fields behind SWEEP_COLUMNS[5:], picked from a sweep cell's numbers.
_sweep_row_numbers = itemgetter(*map(
    RunBreakdown.__match_args__.index,
    ("mtti_h", "mtti_eff_h", "delta_h", "tau_h", "efficiency",
     "wall_h", "gpu_hours", "gpu_dollars", "status"),
))
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
# How --svg labels the series that sweep and project return.
CHARTS = {
    "sweep": dict(title="Time to train vs system size", x_label="GPUs",
                  y_label="wall-clock hours", log_x=True),
    "project": dict(title="Projected cost of one training run", x_label="year",
                    y_label="USD"),
}


class CliError(ValueError):
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
                value = round(start + (end - start) * frac)
            else:
                value = round(start * (end / start) ** frac)
            # Rounding can collide on dense grids; keep strictly ascending values.
            if not points or value > points[-1]:
                points.append(value)
    except OverflowError:
        raise CliError(f"range spec exceeds float range: {spec!r}")
    return points


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


def default_years(config: ConfigFile) -> list[int]:
    base = config.growth.base_year
    return list(range(base, base + DEFAULT_YEARS_AHEAD + 1))


def _require_finite(*values: float) -> None:
    """OverflowError unless every value is finite: the table would print it as an empty cell."""
    if not all(map(math.isfinite, values)):
        raise OverflowError


def _select_scenarios(config: ConfigFile, names_arg: str) -> list[Scenario]:
    scenarios = []
    for name in names_arg.split(","):
        name = name.strip()
        if any(scenario.name == name for scenario in scenarios):
            raise CliError(f"scenario {name!r} is named more than once")
        if name == "custom":
            # The config's own scenario, whatever preset it starts from.
            scenarios.append(replace(config.scenario, name="custom"))
        elif name in SCENARIOS:
            scenarios.append(SCENARIOS[name])
        else:
            raise CliError(
                f"unknown scenario {name!r}; choose from "
                f"{', '.join((*SCENARIOS, 'custom'))}"
            )
    return scenarios


def cmd_cost(config: ConfigFile, params: float, experts: int) -> tuple[CsvTable, str]:
    """Ideal (failure-free) compute, GPU-hours and dollars for one model."""
    model = ModelSpec(params=params, experts=experts)
    rates = config.cluster.rates
    tokens = required_tokens(model, config.scaling)
    flops = moe_training_flops(model, config.scaling)
    gpu_hours = ideal_gpu_hours(flops, rates)
    gpu_usd, cloud_usd = dollar_cost(gpu_hours, rates)
    row = (float(params), int(experts), float(tokens), float(flops),
           float(gpu_hours), float(gpu_usd), float(cloud_usd))
    _require_finite(*row)
    table = CsvTable(COST_COLUMNS, (row,))
    summary = (
        f"model: {params:.3g} params, {experts} expert(s)\n"
        f"training compute: {flops:.4g} FLOP ({tokens:.4g} tokens)\n"
        f"ideal GPU-hours:  {gpu_hours:.4g}\n"
        f"cost: ${gpu_usd:,.0f} GPU / ${cloud_usd:,.0f} cloud\n"
    )
    return table, summary


def cmd_sweep(config: ConfigFile, gpus_list: list[int]) -> tuple[CsvTable, str, list]:
    """Time-to-train versus system size; returns (table, summary, series).

    Each strategy's series, sorted by name, holds its (n_gpus, wall_h) cells
    that make progress: a strategy stalled everywhere has an empty one. The
    summary reads each strategy's fastest cell from its series, the first of
    equally fast ones, and names its first NoProgress size.
    """
    model = ModelSpec(config.growth.base_params, config.scenario.base_experts)
    params, experts = float(model.params), model.experts
    flops = float(moe_training_flops(model, config.scaling))
    res = config.resilience
    variants = [SweepVariant("baseline", res), cluster_model.optimized_variant(res)]
    # Per strategy, as the cells go by: its series and its first NoProgress size.
    points: dict[str, list] = {variant.name: [] for variant in variants}
    stalled: dict[str, int] = {}

    def rows():
        for n_gpus, name, numbers in cluster_model.sweep_numbers(
            model, config.scaling, config.cluster, variants, gpus_list
        ):
            mtti, m_eff, delta, tau, eta, wall_h, gpu_hours, gpu_dollars, status = (
                _sweep_row_numbers(numbers))
            if status == STATUS_OK:
                _require_finite(wall_h, gpu_hours, gpu_dollars)
                points[name].append((n_gpus, wall_h))
            else:
                stalled.setdefault(name, n_gpus)
            yield (n_gpus, name, params, experts, flops, mtti, m_eff, delta, tau, eta,
                   wall_h, gpu_hours, gpu_dollars, status)

    table = CsvTable(SWEEP_COLUMNS, rows())
    lines = []
    for name, cells in points.items():
        reading = []
        if cells:
            n_gpus, wall = min(cells, key=lambda cell: cell[1])
            reading.append(f"fastest at {n_gpus} GPUs ({wall:.0f} h wall-clock)")
        if name in stalled:
            reading.append(f"NoProgress from {stalled[name]} GPUs")
        lines.append(f"{name}: {'; '.join(reading)}\n")
    return table, "".join(lines), sorted(points.items())


def cmd_project(
    config: ConfigFile, years: list[int], scenarios: list[Scenario]
) -> tuple[CsvTable, str, list]:
    """Yearly cost projection plus market-crossing summary; returns (table, summary, series).

    The series are each scenario's (year, gpu_cost_usd) sorted by name, then
    the two market curves, which do not depend on the scenario.
    """
    rates = config.cluster.rates
    rows = []
    lines = []
    series = []
    for scenario in scenarios:
        year_rows = projection.project_years(years, config.growth, scenario, rates, config.market)
        for cells in map(attrgetter(*PROJECT_COLUMNS[1:]), year_rows):
            _require_finite(*cells)
            rows.append((scenario.name, *cells))
        series.append((scenario.name, [(float(r.year), r.gpu_cost_usd) for r in year_rows]))
        crossings = projection.intersection_year(
            config.growth, scenario, rates, config.market
        )
        gpu_x = crossings.gpu_base_crossing
        it_x = crossings.it_spend_crossing
        lines.append(
            f"{scenario.name}: crosses GPU installed base "
            f"{'never' if gpu_x is None else 'in %.2f' % gpu_x}, "
            f"IT spending {'never' if it_x is None else 'in %.2f' % it_x}"
        )
    spread = projection.scenario_spread(config.growth, rates, config.market)
    lines.append("scenario spread: undefined (a scenario never crosses)" if spread is None
                 else f"scenario spread (GPU-base crossing): {spread:.2f} years")
    series.sort()
    series.append(("gpu installed base", [(float(r.year), r.gpu_base_usd) for r in year_rows]))
    series.append(("it spending", [(float(r.year), r.it_spend_usd) for r in year_rows]))
    return CsvTable(PROJECT_COLUMNS, rows), "\n".join(lines) + "\n", series


def cmd_simulate(
    config: ConfigFile,
    n_gpus: int,
    seed: int,
    replications: int,
    workers: int = 1,
) -> tuple[CsvTable, str]:
    """Monte Carlo replications plus a validation report against the closed form."""
    from . import failure_sim

    if replications > MAX_REPLICATIONS:
        raise CliError(f"--reps asks for more than {MAX_REPLICATIONS} replications")
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
    count_cells = attrgetter(*SIMULATE_COLUMNS[2:])
    rows = ((i, wall, *count_cells(counts)) for i, (wall, counts) in enumerate(outcomes))
    table = CsvTable(SIMULATE_COLUMNS, rows)

    analytic_h = sim_config.run.wall_h
    verdict = failure_sim.analytic_verdict(analytic_h, result.mean_wall_h, VALIDATION_TOLERANCE)
    report = (
        f"replications: {replications} (seed {seed}, rng {result.generator})\n"
        f"simulated mean wall-clock: {result.mean_wall_h:.4g} h "
        f"(stddev {result.stddev_wall_h:.4g}, 95% half-width {result.ci95_half_width_h:.4g})\n"
        f"analytic wall-clock: {analytic_h:.4g} h\n"
        f"relative error: {verdict.relative_error:.4g} "
        f"({'within' if verdict.passed else 'OUTSIDE'} {VALIDATION_TOLERANCE:.0%} tolerance)\n"
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
    sweep_table, _, _ = cmd_sweep(config, gpus_list)
    sections.append("== time-to-train vs system size ==\n" + sweep_table.to_csv())

    scenarios = [SCENARIOS[n] for n in ("best_case", "best_guess", "worst_case")]
    project_table, project_summary, _ = cmd_project(config, default_years(config), scenarios)
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
    best_guess = SCENARIOS["best_guess"]
    base_year_row, five_years_on_row = (
        projection.training_cost_at(year, config.growth, best_guess, rates, config.market)
        for year in (config.growth.base_year, config.growth.base_year + 5)
    )
    crossings = projection.intersection_year(config.growth, best_guess, rates, config.market)
    growth_rate = projection.compute_growth_rate(config.growth, best_guess)
    lines = [
        "Reference points (commonly cited estimates) vs this configuration:",
        f"- a 1T-parameter dense model needs ~1.2e26 FLOP; this config gives {dense_1t:.3g}.",
        f"- at 1e15 FLOP/s sustained, 1e26 FLOP is ~28M ideal GPU-hours; this config "
        f"sustains {rates.sustained_flops_per_gpu:.3g} FLOP/s per GPU.",
        f"- best-guess run cost in {config.growth.base_year}: "
        f"${base_year_row.gpu_cost_usd/1e6:.1f}M GPU / "
        f"${base_year_row.cloud_cost_usd/1e6:.1f}M cloud "
        "(GPT-4-class estimates: $6.7M / $32M).",
        f"- best-guess run cost in {config.growth.base_year + 5}: "
        f"${five_years_on_row.gpu_cost_usd/1e9:.1f}B GPU (widely quoted ballpark: $19B).",
        f"- required compute grows {growth_rate:.0%}/year at these trends (>500%).",
        _resilience_line(config),
    ]
    gpu_x, it_x = crossings.gpu_base_crossing, crossings.it_spend_crossing
    if gpu_x is not None:
        lines.append(
            f"- the run cost crosses the GPU installed-base curve around {gpu_x:.1f} "
            f"and IT spending {'never' if it_x is None else f'around {it_x:.1f}'} "
            "under the shipped market anchors."
        )
    lines.append(
        "Market anchors are editable assumptions (see the market section of the "
        "config), not measurements."
    )
    return "\n".join(lines) + "\n"


def _resilience_line(config: ConfigFile) -> str:
    """The optimized-over-baseline speed-up at DEFAULT_SIM_GPUS, or which strategy stalls."""
    _, _, series = cmd_sweep(config, [DEFAULT_SIM_GPUS])
    at_size = f"at {DEFAULT_SIM_GPUS // 1000}k GPUs"
    walls = {name: points[0][1] for name, points in series if points}
    stalled = [name for name, points in series if not points]
    if stalled:
        verb = "strategies make" if len(stalled) > 1 else "strategy makes"
        return (
            f"- the {' and '.join(stalled)} {verb} no progress {at_size} (NoProgress), "
            "so no speed-up is given (~2x)."
        )
    ratio = walls["baseline"] / walls["optimized"]
    return f"- optimized resilience is {ratio:.2f}x faster than baseline {at_size} (~2x)."


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
    p_project.add_argument("--years", help="START:END inclusive (default: the base year "
                           f"through {DEFAULT_YEARS_AHEAD} years after it)")
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


def _write_output(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the strings in order to out_path, or to stdout, without joining them."""
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _chart_path(args) -> str | None:
    """Where --svg writes its chart: --out with its extension replaced by .svg."""
    if not getattr(args, "svg", False):
        return None
    out_path = args.out
    if not out_path:
        raise CliError("--svg requires --out to derive the chart filename")
    chart_path = os.path.splitext(out_path)[0] + ".svg"
    if chart_path == out_path:
        raise CliError(f"--svg would overwrite the CSV at --out {out_path!r}")
    return chart_path


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config) if args.config else ConfigFile()
        chart_path = _chart_path(args)
        # Each command sets its data (a table, or the report text), its
        # stderr summary and its exit code; sweep and project also set the
        # series that CHARTS labels. The writes below are the same for every command.
        code = 0
        if args.command == "cost":
            data, summary = cmd_cost(config, args.params, args.experts)
        elif args.command == "sweep":
            data, summary, series = cmd_sweep(config, parse_range_spec(args.gpus))
            code = 0 if any(points for _, points in series) else 2
        elif args.command == "project":
            years = parse_years_spec(args.years) if args.years else default_years(config)
            scenarios = _select_scenarios(config, args.scenario)
            data, summary, series = cmd_project(config, years, scenarios)
        elif args.command == "simulate":
            gpus_list = parse_range_spec(args.gpus)
            if ":" in args.gpus:
                raise CliError("simulate takes a single --gpus count")
            data, summary = cmd_simulate(config, gpus_list[0], args.seed, args.reps, args.workers)
        else:
            data, summary = cmd_report(config, args.seed, args.reps), ""

        _write_output([data] if isinstance(data, str) else data.lines(), args.out)
        if chart_path and code == 0:
            from . import svgplot

            _write_output([svgplot.line_chart(series, **CHARTS[args.command])], chart_path)
        elif chart_path:  # only a sweep with every cell NoProgress has no chart
            summary += "no chart written: every cell is NoProgress\n"
        sys.stderr.write(summary)
        return code
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OverflowError:
        sys.stderr.write("error: a result exceeds float range; use smaller inputs\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
