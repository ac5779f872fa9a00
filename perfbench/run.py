"""traincost benchmark: closed-loop CLI requests with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan --seed 1 --seconds 30 --trace 0

With --trace 0, one client sends the workload's seeded requests one after
another, each a fresh `python -m traincost.cli ...` process with src on
the path, for --seconds (ending on a block boundary), checks every output
and prints the end-to-end metrics. With --trace 1 it instead replays the
requests in process through cli.main, once untraced and once with spans
at the module boundaries, and prints the per-layer metrics. The last line
of stdout is the JSON result; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, for this mode, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "traincost" / "cli.py").is_file():
        print(f"error: no traincost sources under {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    with measure.Run(args.workload, args.seed, args.seconds) as run:
        values = run.per_layer() if args.trace else run.end_to_end()

    units = _declared(bool(args.trace))
    if set(values) != set(units):
        print(f"error: measured {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    failed = run.failed
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {run.attempted} requests, {failed} failed "
          f"(error_rate {failed / max(run.attempted, 1):.4g}); host probe median "
          f"{statistics.median(run.probes):.1f} ms; {run.note}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
