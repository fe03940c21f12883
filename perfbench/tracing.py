"""Spans and counts at the boundaries of polyfw's layers, recorded from outside.

``Tracer.installed()`` replaces the public entry points of each layer,
where the callers look them up, by wrappers that record a span (name,
start, end, parent) and a few counts taken from the arguments and
results.  Nothing inside polyfw changes: the wrappers call the original
functions with the original arguments and return their results.
``per_layer`` turns one pass's spans and counts into the benchmark's
per-layer metrics; a layer's self time is its spans' durations minus
the durations of their direct children.
"""

from __future__ import annotations

import gzip
import os
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from polyfw import bench, core, geometry, solvers
from polyfw.core import StepKind
from polyfw.objectives import QuadraticObjective

OBJECTIVE_METHODS = ("value", "gradient", "value_and_gradient", "line_search")
STEP_SPANS = ("core.apply_fw_step", "core.apply_away_step", "core.apply_pairwise_step")
CORRECTION_SPANS = ("solvers.fcfw_correction", "solvers.mnp_correction")
KNOWN_ERRORS = ("CorrectionStallError", "CorrectionPostconditionError", "DegenerateActiveSetError")


class Tracer:
    """In-memory spans of one traced pass plus the counts its hooks took."""

    def __init__(self) -> None:
        self.labels: List[str] = []  # span name by name id
        self.names = array("i")  # name id per span
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span; ``hook(args, result, exc)`` takes counts."""
        if name not in self.labels:
            self.labels.append(name)
        name_id = self.labels.index(name)
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(args, None, exc)
                raise
            ends[idx] = time.perf_counter()
            stack.pop()
            if hook is not None:
                hook(args, result, None)
            return result

        return traced

    def inside(self, name: str) -> bool:
        return any(self.labels[self.names[i]] == name for i in self._stack)

    # -- hooks ---------------------------------------------------------------

    def _solve(self, args, trace, exc) -> None:
        if self.inside("bench.reference_optimum"):
            self.counts["bench.ref_solves"] += 1
        if exc is not None:
            self.errors[type(exc).__name__] += 1
            return
        self.counts["solvers.iterations"] += len(trace.records)
        status = trace.config_echo["exit_status"]
        if status == "stall" or status.startswith("error:"):
            self.errors[status.split(":", 1)[-1]] += 1

    def _correction(self, args, result, exc) -> None:
        partial = result if exc is None else getattr(exc, "partial", None)
        if partial is not None:
            self.counts["solvers.inner_steps"] += partial.inner_steps

    def _step(self, args, result, exc) -> None:
        if exc is not None:
            return
        it, kind = result if isinstance(result, tuple) else (result, StepKind.FW)
        if kind is True:
            kind = StepKind.DROP
        self.counts["core.active_size_sum"] += len(it)
        if kind in (StepKind.DROP, StepKind.SWAP):
            self.counts["core.drop_swap"] += 1

    def _objective(self, args, result, exc) -> None:
        self.counts["objectives.bytes_computed"] += 8 * args[0].dimension ** 2

    def _linprog(self, args, result, exc) -> None:
        if exc is None and result.status == 0:
            self.counts["geometry.lp_feasible"] += 1

    def _pwidth(self, args, report, exc) -> None:
        if exc is None:
            self.counts["geometry.faces"] += report.faces_enumerated
            self.counts["geometry.directions"] += report.directions_sampled

    def _write_csv(self, args, result, exc) -> None:
        if exc is None:
            self.counts["bench.csv_bytes"] += os.path.getsize(args[1])

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every traced entry point for the duration of the block."""
        targets = [
            (solvers, "lmo", "oracles.lmo", None),
            (solvers, "away_atom", "solvers.away_atom", None),
            (solvers, "apply_fw_step", "core.apply_fw_step", self._step),
            (solvers, "apply_away_step", "core.apply_away_step", self._step),
            (solvers, "apply_pairwise_step", "core.apply_pairwise_step", self._step),
            (solvers, "fcfw_correction", "solvers.fcfw_correction", self._correction),
            (solvers, "mnp_correction", "solvers.mnp_correction", self._correction),
            (solvers, "solve", "solvers.solve", self._solve),
            (bench, "solve", "solvers.solve", self._solve),
            (bench, "reference_optimum", "bench.reference_optimum", None),
            (bench, "fit_rate", "bench.fit_rate", None),
            (bench, "run_experiment", "bench.run_experiment", None),
            (geometry, "linprog", "geometry.linprog", self._linprog),
            (geometry, "pwidth", "geometry.pwidth", self._pwidth),
            (core.RunTrace, "write_csv", "bench.write_csv", self._write_csv),
        ] + [
            (QuadraticObjective, m, f"objectives.{m}", self._objective)
            for m in OBJECTIVE_METHODS
        ]
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
        try:
            for (owner, attr, name, hook), (_, _, original) in zip(targets, saved):
                setattr(owner, attr, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def span_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        children = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += durations[idx]
        out: Dict[str, Dict[str, float]] = {}
        for name_id, dur, child in zip(self.names, durations, children):
            row = out.setdefault(self.labels[name_id], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child
        return out

    def write(self, path: Path) -> None:
        """Write the spans as gzipped CSV: index, name, start, end, parent."""
        origin = self.starts[0] if self.starts else 0.0
        lines = ["index,name,start_s,end_s,parent"]
        lines += [
            f"{i},{self.labels[n]},{s - origin:.9f},{e - origin:.9f},{p}"
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents))
        ]
        with gzip.open(path, "wt") as fh:
            fh.write("\n".join(lines) + "\n")


# Metrics whose values are counts; two traced passes must agree on them exactly.
COUNT_METRICS = (
    "oracles.lmo_calls",
    "objectives.value_calls",
    "objectives.grad_calls",
    "objectives.line_search_calls",
    "objectives.matvecs",
    "objectives.bytes_computed",
    "core.step_calls",
    "solvers.iterations",
    "solvers.away_atom_calls",
    "solvers.correction_calls",
    "solvers.inner_steps",
    "solvers.errors",
    *(f"solvers.errors.{name}" for name in KNOWN_ERRORS),
    "geometry.lp_calls",
    "geometry.faces",
    "geometry.directions",
    "bench.ref_solves",
    "bench.csv_bytes",
)


def per_layer(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (without the overhead)."""
    spans = tracer.span_times()
    counts = tracer.counts

    def calls(*names: str) -> int:
        return sum(int(spans.get(n, {}).get("calls", 0)) for n in names)

    def self_s(*names: str) -> float:
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    objective_spans = [f"objectives.{m}" for m in OBJECTIVE_METHODS]
    steps = calls(*STEP_SPANS)
    lps = calls("geometry.linprog")
    metrics = {
        "oracles.lmo_calls": calls("oracles.lmo"),
        "oracles.lmo_self_s": self_s("oracles.lmo"),
        "objectives.value_calls": calls("objectives.value", "objectives.value_and_gradient"),
        "objectives.grad_calls": calls("objectives.gradient", "objectives.value_and_gradient"),
        "objectives.line_search_calls": calls("objectives.line_search"),
        "objectives.self_s": self_s(*objective_spans),
        # Each traced method computes exactly one product with Q of its own
        # (line_search's gradient is its own, nested span).
        "objectives.matvecs": calls(*objective_spans),
        "objectives.bytes_computed": counts["objectives.bytes_computed"],
        "core.step_calls": steps,
        "core.step_self_s": self_s(*STEP_SPANS),
        "core.drop_frac": counts["core.drop_swap"] / steps if steps else 0.0,
        "core.active_size_mean": counts["core.active_size_sum"] / steps if steps else 0.0,
        "solvers.iterations": counts["solvers.iterations"],
        "solvers.self_s": self_s("solvers.solve"),
        "solvers.away_atom_calls": calls("solvers.away_atom"),
        "solvers.away_atom_self_s": self_s("solvers.away_atom"),
        "solvers.correction_calls": calls(*CORRECTION_SPANS),
        "solvers.inner_steps": counts["solvers.inner_steps"],
        "solvers.correction_self_s": self_s(*CORRECTION_SPANS),
        "solvers.errors": sum(tracer.errors.values()),
        **{f"solvers.errors.{name}": tracer.errors[name] for name in KNOWN_ERRORS},
        "geometry.lp_calls": lps,
        "geometry.lp_self_s": self_s("geometry.linprog"),
        "geometry.lp_feasible_frac": counts["geometry.lp_feasible"] / lps if lps else 0.0,
        "geometry.faces": counts["geometry.faces"],
        "geometry.directions": counts["geometry.directions"],
        "geometry.self_s": self_s("geometry.pwidth"),
        "bench.ref_solves": counts["bench.ref_solves"],
        "bench.fit_rate_self_s": self_s("bench.fit_rate"),
        "bench.csv_write_self_s": self_s("bench.write_csv"),
        "bench.csv_bytes": counts["bench.csv_bytes"],
    }
    return metrics
