"""Paired benchmark runs of two revisions, written to one JSON file.

    python3 tools/bench_pairs.py --base 90416b2 --change HEAD --workload plan \
        --pairs 10 --seed 31 --out BENCH_30.json

Each revision is unpacked from `git archive` into its own directory under
.bench_work/pairs/, and perfbench/run.py runs there with the same seed on
both sides, one pair per seed (--seed, --seed + 1, ...), for BENCHMARK.json's
run_seconds. The base runs first in even pairs and the change in odd ones.
Before each side's run, a host probe times a fixed pure-Python loop in a
fresh interpreter, alone and then as two copies at once; the pair keeps it
under "probe", beside that side's result, so that a drifted run can be told
from a slow change. The summaries read only the results; each run, and the
file's top level, keeps the probes' own quartiles under "probe", so that a
drifting host shows beside them.

The JSON file holds a list of runs of one workload. Each run holds every
result line of its pairs with their host probes, each end-to-end metric's
medians, quartiles and the pairs the change won, the seeds, the commit
ids, and the Python version, core count and PYTHONDONTWRITEBYTECODE
setting of the host. If --out already exists, the new run is added to its
runs, so that no run of a claim is left out of its file, and the file's
top-level summary pools the pairs of every run. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work" / "pairs"
# The probe loop; it prints its own time in ms, about 45 ms on a 2-core
# x86-64 container under CPython 3.11.
PROBE = ("import time\nstart = time.perf_counter()\ntotal = 0\n"
         "for i in range(500_000):\n    total += i\n"
         "print((time.perf_counter() - start) * 1e3)")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def spread(values: list[float]) -> dict:
    """{"median", "q1", "q3", "iqr"} of the values."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Request counts, and per metric each side's quartiles, the pairs the change won
    and whether a gain shows.

    pairs holds {"base": result, "change": result} with perfbench/run.py's
    result objects; better maps each metric to "lower" or "higher". A pair
    won is one where the change reads strictly better; ties count for
    neither side. A gain shows when the change won at least nine tenths of
    the pairs and its median is better than the base's by more than the
    base's interquartile range.
    """
    metrics = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                  for side in ("base", "change")}
        sides = {side: spread(series) for side, series in values.items()}
        won = sum(sign * (change - base) > 0
                  for base, change in zip(values["base"], values["change"]))
        margin = sign * (sides["change"]["median"] - sides["base"]["median"])
        metrics[name] = {
            "better": direction,
            **sides,
            "pairs_won": won,
            "gain_shown": won >= 0.9 * len(pairs) and margin > sides["base"]["iqr"],
        }
    return {
        "pairs": len(pairs),
        "attempted": {side: sum(pair[side]["attempted"] for pair in pairs)
                      for side in ("base", "change")},
        "failed": {side: sum(pair[side]["failed"] for pair in pairs)
                   for side in ("base", "change")},
        "metrics": metrics,
    }


def probe_spread(pairs: list[dict]) -> dict | None:
    """The host probes' spread over the pairs: each side's loop_ms and pair_ratio,
    and the change's loop_ms over the base's in the same pair.

    Pairs run before the probe existed hold none and are left out; None when
    no pair holds one.
    """
    probes = [pair["probe"] for pair in pairs if "probe" in pair]
    if not probes:
        return None
    record = {side: {name: spread([probe[side][name] for probe in probes])
                     for name in ("loop_ms", "pair_ratio")}
              for side in ("base", "change")}
    record["loop_ms_ratio"] = spread([probe["change"]["loop_ms"] / probe["base"]["loop_ms"]
                                      for probe in probes])
    return {"pairs": len(probes), **record}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def checkout(revision: str, directory: Path) -> str:
    """Unpack the revision's committed files into directory; returns its commit id."""
    commit = _git("rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(directory, filter="data")
    return commit


def check_series(report: dict, workload: str, seconds: float, base: str) -> None:
    """Raise ValueError unless a run of workload for seconds against base fits the report."""
    if (report["workload"], report["seconds"]) != (workload, seconds):
        raise ValueError(f"the report holds {report['workload']} runs of "
                         f"{report['seconds']} s, not {workload} runs of {seconds} s")
    if report["runs"] and report["runs"][0]["commits"]["base"] != base:
        raise ValueError(f"the report's runs measure base {report['runs'][0]['commits']['base']}, "
                         f"not {base}")


def add_run(report: dict | None, workload: str, seconds: float, run: dict,
            better: dict[str, str]) -> dict:
    """The report with run added to its runs, and its summary and probe spread
    pooled over every run.

    report is None for a new file. Every run in one report measures one
    workload for one run length against one base commit.
    """
    if report is None:
        report = {"workload": workload, "seconds": seconds, "summary": None, "probe": None,
                  "runs": []}
    check_series(report, workload, seconds, run["commits"]["base"])
    report["runs"].append(run)
    pairs = [pair for each in report["runs"] for pair in each["pairs"]]
    report["summary"] = summarize(pairs, better)
    report["probe"] = probe_spread(pairs)
    return report


def _probe_loops(copies: int) -> list[float]:
    """The probe loop's time in ms in each of copies fresh interpreters started at once."""
    runs = [subprocess.Popen([sys.executable, "-S", "-c", PROBE], stdout=subprocess.PIPE,
                             text=True) for _ in range(copies)]
    return [float(run.communicate()[0]) for run in runs]


def host_probe() -> dict:
    """{"loop_ms": the probe loop alone, "pair_ratio": two copies at once over it}.

    pair_ratio is the mean of the two concurrent times over loop_ms: near 1
    on a host that runs both at once, near 2 on one that gives one core.
    """
    [alone] = _probe_loops(1)
    return {"loop_ms": alone, "pair_ratio": statistics.fmean(_probe_loops(2)) / alone}


def run_pair(dirs: dict[str, Path], workload: str, seed: int, seconds: float,
             base_first: bool) -> dict:
    """One pair of runs with one seed, each side after its own host probe."""
    order = ("base", "change") if base_first else ("change", "base")
    pair = {"seed": seed, "first": order[0], "probe": {}}
    for side in order:
        pair["probe"][side] = host_probe()
        pair[side] = run_once(dirs[side], workload, seed, seconds)
    return pair


def run_once(directory: Path, workload: str, seed: int, seconds: float) -> dict:
    """perfbench/run.py in a checkout; returns its result line as an object."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"perfbench/run.py exited {done.returncode} in {directory}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--change", required=True, help="the revision measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--out", type=Path, required=True,
                        help="the JSON file to write, or to add this run to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    dirs = {"base": WORK / "base", "change": WORK / "change"}
    commits = {side: checkout(getattr(args, side), dirs[side]) for side in dirs}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    earlier = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
               else None)
    if earlier is not None:
        try:
            check_series(earlier, args.workload, seconds, commits["base"])
        except ValueError as error:
            parser.error(f"{args.out}: {error}")

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        pairs.append(run_pair(dirs, args.workload, seed, seconds, base_first=i % 2 == 0))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)

    run = {
        "seeds": [pair["seed"] for pair in pairs],
        "commits": commits,
        "host": {
            "python": platform.python_version(),
            "cores": len(os.sched_getaffinity(0)),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "summary": summarize(pairs, better),
        "probe": probe_spread(pairs),
        "pairs": pairs,
    }
    report = add_run(earlier, args.workload, seconds, run, better)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
