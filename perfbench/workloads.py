"""Seeded request lists for the benchmark's three workloads.

A workload is an endless sequence of blocks. Every block holds one request
per stratum of the input properties that set a request's cost, in a seeded
order, so any run that ends on a block boundary sees the same mix whatever
its seed. Only the values inside each stratum depend on the seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import asdict, dataclass, field

WORKLOADS = ("plan", "sim_interrupt", "sim_degraded")

SCENARIO_NAMES = ("best_case", "best_guess", "worst_case")

# Sweep grid sizes run from the CLI's default 9 points up to ~2,000 in
# log-spaced steps; each is jittered by up to 10%, so the cells per block
# barely depend on the seed.
SWEEP_POINTS = (9, 2000)
SWEEP_SIZES = 6
SWEEP_JITTER = 0.1
SWEEP_SVG_SIZES = (1, 4)  # the same two sizes chart in every block

SIM_STRATA = 6
SIM_INTERRUPT_GPUS = (150_000, 200_000)
SIM_INTERRUPT_REPS = 8
SIM_DEGRADED_GPUS = (100_000, 200_000)
SIM_DEGRADED_REPS = 200

# The paper's optimized strategy with slow repairs: failures are ridden out.
DEGRADED_CONFIG = {
    "cluster": {"fs_bw_gbs": 2000.0},
    "resilience": {"ckpt_mem_fraction": 0.5, "ft_f": 5, "ttr_h": 8.0},
}
# The default strategy (F=0), spelled out so every request loads a config.
INTERRUPT_CONFIG = {"resilience": {"ft_f": 0}}


def sim_workers() -> int:
    """Pool size for sim_degraded: min(nproc, 2)."""
    return min(len(os.sched_getaffinity(0)), 2)


@dataclass
class Request:
    """One CLI request: subcommand, its arguments and its config file."""

    kind: str  # cost | sweep | project | simulate
    params: dict
    config: dict = field(default_factory=dict)

    def argv(self, config_path: str, out_path: str, workers: int | None = None) -> list[str]:
        """Arguments after `python -m traincost.cli`."""
        p = self.params
        if self.kind == "cost":
            args = ["cost", p["params"], str(p["experts"])]
        elif self.kind == "sweep":
            args = ["sweep", "--gpus", f"{p['start']}:{p['end']}:{p['count']}:geometric"]
        elif self.kind == "project":
            args = ["project", "--years", f"{p['first_year']}:{p['last_year']}",
                    "--scenario", ",".join(p["scenarios"])]
        else:
            args = ["simulate", "--gpus", str(p["gpus"]), "--seed", str(p["seed"]),
                    "--reps", str(p["reps"]),
                    "--workers", str(p["workers"] if workers is None else workers)]
        if p.get("svg"):
            args.append("--svg")
        return args + ["--config", config_path, "--out", out_path]


def config_text(config: dict) -> str:
    """YAML for a {section: {key: value}} dict; repr round-trips floats."""
    lines = []
    for section, keys in config.items():
        lines.append(f"{section}:")
        lines.extend(f"  {key}: {value!r}" for key, value in keys.items())
    return "\n".join(lines) + "\n"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _strata(lo: float, hi: float, count: int) -> list[tuple[float, float]]:
    edges = [lo + (hi - lo) * i / count for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _plan_config(rng: random.Random) -> dict:
    """A random subset of the keys the analytic path reads."""
    draws = {
        ("resilience", "ft_f"): lambda: rng.randint(0, 5),
        ("resilience", "ttr_h"): lambda: round(rng.uniform(0.25, 12.0), 2),
        ("resilience", "ckpt_mem_fraction"): lambda: round(rng.uniform(0.1, 1.0), 3),
        ("cluster", "fs_bw_gbs"): lambda: round(_log_uniform(rng, 100.0, 4000.0), 1),
        ("cluster", "gpus_per_group"): lambda: rng.choice((128, 256, 512, 1024, 2048)),
    }
    config: dict = {}
    for (section, key), draw in draws.items():
        if rng.random() < 0.5:
            config.setdefault(section, {})[key] = draw()
    return config


def _plan_block(rng: random.Random) -> list[Request]:
    block = []
    for _ in range(3):
        block.append(Request("cost", {
            "params": f"{_log_uniform(rng, 1e9, 1e13):.4g}",
            "experts": rng.randint(1, 64),
        }))
    project_svg = rng.randrange(3)
    for i in range(3):
        first = rng.randint(2023, 2030)
        block.append(Request("project", {
            "first_year": first,
            "last_year": first + rng.randint(4, 40),
            "scenarios": rng.sample(SCENARIO_NAMES, rng.randint(1, 3)),
            "svg": i == project_svg,
        }))
    lo, hi = SWEEP_POINTS
    for i in range(SWEEP_SIZES):
        size = lo * (hi / lo) ** (i / (SWEEP_SIZES - 1))
        # Grids start small and end past the baseline's NoProgress edge.
        block.append(Request("sweep", {
            "start": round(_log_uniform(rng, 256, 8192)),
            "end": round(_log_uniform(rng, 131_072, 1_048_576)),
            "count": round(size * math.exp(rng.uniform(-SWEEP_JITTER, SWEEP_JITTER))),
            "svg": i in SWEEP_SVG_SIZES,
        }))
    for request in block:
        request.config = _plan_config(rng)
    rng.shuffle(block)
    return block


def _sim_block(rng: random.Random, gpus: tuple[int, int], reps: int, workers: int,
               config: dict) -> list[Request]:
    block = [
        Request("simulate", {
            "gpus": rng.randint(math.ceil(lo), math.floor(hi)),
            "seed": rng.randrange(2**32),
            "reps": reps,
            "workers": workers,
        }, config)
        for lo, hi in _strata(*gpus, SIM_STRATA)
    ]
    rng.shuffle(block)
    return block


def blocks(workload: str, seed: int):
    """Yield the workload's request blocks forever; a pure function of the seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    workers = sim_workers()
    while True:
        if workload == "plan":
            yield _plan_block(rng)
        elif workload == "sim_interrupt":
            yield _sim_block(rng, SIM_INTERRUPT_GPUS, SIM_INTERRUPT_REPS, 1, INTERRUPT_CONFIG)
        else:
            yield _sim_block(rng, SIM_DEGRADED_GPUS, SIM_DEGRADED_REPS, workers,
                             DEGRADED_CONFIG)


def setup_config(workload: str) -> dict:
    """The config set-up time loads: the workload's own, or every plan key."""
    if workload == "plan":
        return {
            "cluster": {"fs_bw_gbs": 1000.0, "gpus_per_group": 512},
            "resilience": {"ft_f": 2, "ttr_h": 4.0, "ckpt_mem_fraction": 0.75},
        }
    return INTERRUPT_CONFIG if workload == "sim_interrupt" else DEGRADED_CONFIG


def dump(requests: list[Request]) -> bytes:
    """Canonical bytes of a request list."""
    return json.dumps([asdict(r) for r in requests], sort_keys=True).encode()
