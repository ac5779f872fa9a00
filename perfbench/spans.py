"""Spans at the traincost module boundaries, recorded from outside the package.

Tracer.install() replaces every public function and public method of the
layer modules with a wrapper, both in the defining module and wherever
another module bound it with `from ... import`. A wrapper records a span
only when the call enters its layer from another one (or from the
benchmark); a call inside the layer passes straight through, so a layer's
private helpers and its own public functions run untimed inside the
boundary span. Spans stay in memory, in flat arrays, until write().
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("cli", "config", "scaling_laws", "cluster_model", "projection",
          "failure_sim", "tables", "svgplot")


def _count_sweep(counts, args, result):
    counts["cells"] += len(result)
    counts["no_progress_cells"] += sum(not breakdown.ok for _, _, breakdown in result)


def _count_project(counts, args, result):
    counts["projection_rows"] += len(result)


def _count_csv(counts, args, result):
    counts["table_rows"] += len(args[0].rows)
    counts["table_bytes"] += len(result.encode())


def _count_replications(counts, args, result):
    counts["reps"] += len(result)
    for wall, events in result:
        counts["censored"] += wall == float("inf")
        counts["failures"] += events.failures
        counts["repairs"] += events.repairs
        counts["checkpoints"] += events.checkpoints
        counts["interrupts"] += events.interrupts


# Work counted from what a boundary call returns.
COUNTERS = {
    "cluster_model.sweep_system_size": _count_sweep,
    "projection.project_years": _count_project,
    "tables.CsvTable.to_csv": _count_csv,
    "failure_sim.collect_replications": _count_replications,
}


class Tracer:
    """Spans and counts of the traced requests; `with tracer:` installs the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.request_kinds: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_request(self, kind: str) -> None:
        """Spans from here on belong to a new request of this kind."""
        self.request_kinds.append(kind)

    def _wrap(self, layer: str, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)
        stack, counts = self._stack, self.counts
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, requests, kinds = self.parent, self.request, self.request_kinds

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            requests.append(len(kinds) - 1)
            ends.append(0)
            stack.append((index, layer))
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"traincost.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            traced = self._wrap(layer, f"{layer}.{attr}.{method}", fn)
                            self._patches.append((obj, method, fn))
                            setattr(obj, method, traced)
        # Rebind in every layer module, which covers `from ... import` names.
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: request, kind, name, start, end, parent."""
        names, kinds = self.names, self.request_kinds
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span,request,kind,name,start_ns,end_ns,parent\n")
            out.writelines(
                f"{i},{req},{kinds[req]},{names[name]},{start},{end},{parent}\n"
                for i, (req, name, start, end, parent) in enumerate(zip(
                    self.request, self.name_id, self.start, self.end, self.parent)))

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        dur = [end - start for start, end in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        # (name, request kind, parent name) -> [calls, total ns, self ns]
        table: dict[tuple, list[int]] = {}
        kinds, names, name_id = self.request_kinds, self.names, self.name_id
        for i, (name, request, p) in enumerate(zip(name_id, self.request, self.parent)):
            key = (name, request, name_id[p] if p >= 0 else -1)
            row = table.setdefault(key, [0, 0, 0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        rows = [(names[n], kinds[r], names[p] if p >= 0 else "", row)
                for (n, r, p), row in table.items()]

        def total(column: int, keep) -> int:
            return sum(row[column] for name, kind, parent, row in rows
                       if keep(name, kind, parent))

        def calls(name: str) -> int:
            return total(0, lambda n, k, p: n == name)

        def time_in(name: str) -> int:
            return total(1, lambda n, k, p: n == name)

        def self_of(layer: str, kind: str | None = None) -> int:
            return total(2, lambda n, k, p: n.startswith(layer + ".")
                         and kind in (None, k))

        sweep_cli_ns = (
            total(1, lambda n, k, p: k == "sweep" and n == "cli.main")
            - total(1, lambda n, k, p: k == "sweep" and p == "cli.main"
                    and n in _SWEEP_NOT_CLI))
        sim_derive_ns = total(1, lambda n, k, p: n.startswith("cluster_model.")
                              and p.startswith("failure_sim."))

        c = self.counts
        requests = calls("cli.main")
        sim_requests = kinds.count("simulate")
        reps = c["reps"]
        events = c["failures"] + c["repairs"] + c["checkpoints"] + c["interrupts"]
        sim_ns = time_in("failure_sim.collect_replications")
        return {
            "config.load_calls": calls("config.load_config"),
            "config.load_us": _ratio(time_in("config.load_config"), calls("config.load_config")) / 1e3,
            "cli.requests": requests,
            "cli.self_us": _ratio(self_of("cli"), requests) / 1e3,
            "cli.sweep_self_us_per_cell": _ratio(sweep_cli_ns, c["cells"]) / 1e3,
            "cli.simulate_self_ms": _ratio(self_of("cli", "simulate"), sim_requests) / 1e6,
            "scaling_laws.calls": total(0, lambda n, k, p: n.startswith("scaling_laws.")),
            "scaling_laws.self_us": _ratio(self_of("scaling_laws"), requests) / 1e3,
            "cluster_model.cells": c["cells"],
            "cluster_model.us_per_cell": _ratio(time_in("cluster_model.sweep_system_size"), c["cells"]) / 1e3,
            "cluster_model.no_progress_cells": c["no_progress_cells"],
            "projection.rows": c["projection_rows"],
            "projection.us_per_row": _ratio(time_in("projection.project_years"), c["projection_rows"]) / 1e3,
            "projection.intersection_calls": calls("projection.intersection_year"),
            "projection.intersection_us": _ratio(time_in("projection.intersection_year"), calls("projection.intersection_year")) / 1e3,
            "tables.rows": c["table_rows"],
            "tables.bytes": c["table_bytes"],
            "tables.us_per_row": _ratio(time_in("tables.CsvTable.to_csv"), c["table_rows"]) / 1e3,
            "svgplot.charts": calls("svgplot.line_chart"),
            "svgplot.ms_per_chart": _ratio(time_in("svgplot.line_chart"), calls("svgplot.line_chart")) / 1e6,
            "failure_sim.reps": reps,
            "failure_sim.events": events,
            "failure_sim.events_per_s": _ratio(events, sim_ns / 1e9),
            "failure_sim.us_per_event": _ratio(sim_ns, events) / 1e3,
            "failure_sim.ms_per_rep": _ratio(sim_ns, reps) / 1e6,
            "failure_sim.failures_per_rep": _ratio(c["failures"], reps),
            "failure_sim.interrupts_per_rep": _ratio(c["interrupts"], reps),
            "failure_sim.repairs_per_rep": _ratio(c["repairs"], reps),
            "failure_sim.checkpoints_per_rep": _ratio(c["checkpoints"], reps),
            "failure_sim.derive_us": _ratio(sim_derive_ns, reps) / 1e3,
            "failure_sim.summarize_us": _ratio(time_in("failure_sim.summarize"), calls("failure_sim.summarize")) / 1e3,
            "failure_sim.censored": c["censored"],
        }


# A sweep request's calls that are not the CLI's own per-cell work: the
# library sweep, config loading, CSV writing and charting.
_SWEEP_NOT_CLI = frozenset({
    "cluster_model.sweep_system_size", "config.load_config",
    "tables.CsvTable.to_csv", "svgplot.line_chart",
})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
