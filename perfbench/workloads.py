"""The benchmark's workloads: seeded inputs, timed operations, result checks.

A workload builds its inputs from a seed, optionally runs a one-off
``prepare`` step (timed on its own), and then exposes a fixed list of
operations.  Each operation is a call into polyfw's public API; its
result is checked outside the timed region by an independent
certificate:

* a solve that converged must satisfy f_final - f* <= eps (+ rounding);
  a solve stopped at its iteration cap must satisfy
  f_final - f* <= the FW gap of its last step, which bounds the
  suboptimality of the iterate the step started from;
* no solve may end below f* by more than rounding;
* every trace must pass ``RunTrace.validate()``;
* ``pwidth`` must match ``analytic_pwidth`` to 1e-6 relative.

A solve that raises, or ends with a ``stall`` or ``error:*`` status,
counts as failed.  Each check also returns the operation's output text
(trace CSVs, width reports) so that repeated and traced passes can be
compared byte for byte.
"""

from __future__ import annotations

import json
import math
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from polyfw import bench, geometry, solvers
from polyfw.bench import CLEAN_EXITS, ExperimentConfig
from polyfw.core import RunTrace
from polyfw.objectives import QuadraticObjective
from polyfw.oracles import Cube, FlowDag, Simplex
from polyfw.solvers import SolverConfig

ROUNDING = 1e-13  # relative allowance on objective values near f*
PWIDTH_RTOL = 1e-6
README_SEED = 7  # lasso_desk's rng_seed in the README
VARIANTS = ("FW", "AFW", "PFW", "MNP", "FCFW")


@dataclass
class Checked:
    """What one operation did: how many solves/calls, which failed, its outputs."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    outputs: Dict[str, str] = field(default_factory=dict)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]


@dataclass
class Instance:
    """A workload's inputs plus the operations that run on them."""

    prepare: Optional[Op]
    ops: List[Op]


def _certificate(trace: RunTrace, f_star: float, epsilon: float) -> Optional[str]:
    """Validate one finished trace and check its optimality certificate.

    Returns the failure tag, or None when the trace passes.
    """
    status = trace.config_echo["exit_status"]
    if status not in CLEAN_EXITS:
        return status if status.startswith("error:") else f"exit:{status}"
    try:
        trace.validate(initial_active_size=int(trace.config_echo["init_active_size"]))
    except AssertionError:
        return "check:validate"
    if trace.records:
        f_final = trace.records[-1].f_value
        bound = epsilon if status == "converged" else trace.records[-1].fw_gap
    else:
        f_final, bound = float(trace.config_echo["f0"]), epsilon
    slack = ROUNDING * max(1.0, abs(f_star))
    if not f_final - f_star <= bound + slack:
        return "check:certificate"
    if f_final < f_star - slack:
        return "check:below_reference"
    return None


def _solve_op(label, problems, spec, config: SolverConfig, f_star: Callable[[], float]) -> Op:
    """Solve each objective in ``problems`` over ``spec``; all share ``f_star``."""

    def check(traces: List[RunTrace]) -> Checked:
        out = Checked(len(traces))
        for i, trace in enumerate(traces):
            out.outputs[f"{label}#{i}"] = trace.to_csv()
            failure = _certificate(trace, f_star(), config.epsilon)
            if failure:
                out.failures.append(failure)
        return out

    return Op(label, lambda: [solvers.solve(obj, spec, config) for obj in problems], check)


# -- lasso_full ---------------------------------------------------------------


def lasso_full(seed: int, tiny: bool = False) -> Instance:
    """d=500 dense least squares over the l1 ball, README's lasso_full recipe.

    ``reference_optimum`` is the one-off prepare step.  Each variant gets
    an iteration budget below the point where any seed converges, so
    every seed does the same amount of work, except MNP, which runs to
    epsilon (61-72 iterations).
    """
    if tiny:
        obj, spec = bench.gen_lasso(20, 40, 5, 0.1, seed, 2.0)
    else:
        obj, spec = bench.gen_lasso(200, 500, 50, 0.1, seed, 20.0)
    ref: Dict[str, float] = {}

    def prepare_run() -> float:
        ref["f_star"] = bench.reference_optimum(obj, spec)
        return ref["f_star"]

    def prepare_check(f_star: float) -> Checked:
        return Checked(1, [] if math.isfinite(f_star) else ["check:reference"], {"f_star": repr(f_star)})

    caps = {"FW": 1000, "AFW": 800, "PFW": 500, "MNP": 1000, "FCFW": 10}
    ops = [
        _solve_op(
            f"solve.{v}",
            [obj],
            spec,
            SolverConfig(v, epsilon=1e-8, max_iter=caps[v]),
            lambda: ref["f_star"],
        )
        for v in VARIANTS
    ]
    return Instance(Op("ref_opt", prepare_run, prepare_check), ops)


# -- flow_paths ---------------------------------------------------------------


def layered_dag(width: int, layers: int) -> FlowDag:
    """Source, ``layers`` full bipartite layers of ``width`` nodes, sink."""
    arcs = [("s", f"n0_{j}") for j in range(width)]
    for layer in range(layers - 1):
        arcs += [
            (f"n{layer}_{i}", f"n{layer + 1}_{j}") for i in range(width) for j in range(width)
        ]
    arcs += [(f"n{layers - 1}_{j}", "t") for j in range(width)]
    return FlowDag(arcs)


# With mixes of 4 paths, AFW reached epsilon within 300 steps on 1 seed in
# 20; with 8, MNP converged in 8-13 iterations on one target of 3 seeds in
# 10, a third of its budgeted work; with 16, every variant ran its full
# budget on all of 10 seeds and MNP on 30 more targets.
MIXED_PATHS = 16


def flow_paths(seed: int, tiny: bool = False) -> Instance:
    """Distance to seeded mixes of 16 paths in a layered DAG (f* = 0 exactly).

    The shape of the paper's video co-localization QP: a quadratic over
    a path polytope whose LMO is a shortest-path program.  Each
    operation solves two targets, which halves the spread that the
    choice of target adds.  Every variant gets an iteration budget:
    FCFW to epsilon took 0.01-24 s depending on the target, and the
    budgets stay below the point where any probed target converges.
    """
    spec = layered_dag(3, 4) if tiny else layered_dag(5, 16)
    rng = np.random.default_rng(seed)
    targets = []
    for _ in range(2):
        paths = np.stack([spec.lmo(rng.standard_normal(spec.dimension)).point for _ in range(MIXED_PATHS)])
        targets.append(QuadraticObjective.distance_to(rng.dirichlet(np.ones(MIXED_PATHS)) @ paths))
    caps = {"FW": 300, "AFW": 300, "PFW": 300, "MNP": 100, "FCFW": 8}
    ops = [
        _solve_op(
            f"solve.{v}", targets, spec, SolverConfig(v, epsilon=1e-8, max_iter=caps[v]), lambda: 0.0
        )
        for v in VARIANTS
    ]
    return Instance(None, ops)


# -- pwidth_geom --------------------------------------------------------------


def pwidth_geom(seed: int, tiny: bool = False) -> Instance:
    """``geometry.pwidth`` on the atoms of Cube(3) and Simplex(5).

    ``pwidth`` runs with its defaults (64 sampled directions, seed 0);
    the workload seed shuffles the order of the atoms, which leaves the
    width unchanged.
    """
    rng = np.random.default_rng(seed)
    specs = {"cube2": Cube(2), "simplex3": Simplex(3)} if tiny else {
        "cube3": Cube(3),
        "simplex5": Simplex(5),
    }
    ops = []
    for name, spec in specs.items():
        atoms = np.stack([a.point for a in spec.enumerate_atoms()])
        atoms = atoms[rng.permutation(len(atoms))]
        ops.append(_pwidth_op(f"pwidth.{name}", atoms, geometry.analytic_pwidth(spec)))
    return Instance(None, ops)


def _pwidth_op(label: str, atoms: np.ndarray, expected: float) -> Op:
    def check(report) -> Checked:
        out = Checked(1)
        if abs(report.pwidth_estimate - expected) > PWIDTH_RTOL * expected:
            out.failures.append("check:pwidth")
        else:
            out.outputs[label] = json.dumps(report.to_json(), sort_keys=True)
        return out

    return Op(label, lambda: geometry.pwidth(atoms), check)


# -- tiny_sweep ---------------------------------------------------------------


def triangle_f_star(theta: float) -> float:
    """Exact min of 1/2 ||x - (-0.5, 1)||^2 over ``gen_triangle(theta)``.

    The target lies outside the triangle (above its horizontal edge), so
    the minimum is attained on the boundary: the closest point over the
    three edges.
    """
    p = np.array([-0.5, 1.0])
    corners = [np.array([-1.0, 0.0]), np.zeros(2), np.array([math.cos(theta), math.sin(theta)])]
    best = math.inf
    for i in range(3):
        a, b = corners[i], corners[(i + 1) % 3]
        t = float(np.clip((p - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0))
        best = min(best, 0.5 * float(np.sum((a + t * (b - a) - p) ** 2)))
    return best


def tiny_sweep(seed: int, tiny: bool = False, scratch: Optional[Path] = None) -> Instance:
    """``run_experiment`` on the c06 triangle sweep, lasso_desk and rankdef.

    All five variants on each, writing trace CSVs and summaries into a
    fresh temporary directory per call.  The seed draws the triangle
    sweep's random starts.  The sweep caps runs at 500 iterations instead
    of criterion 6's 2000: FW is the only variant that reaches the cap,
    so every start costs the same, and at 2000 its 60 runs took 120,000
    of the sweep's 120,576 iterations and 10 s, a single pass per run.
    lasso_desk and rankdef keep the README's seed 7: their time to
    epsilon varies with the instance (0.6-1.7 s and 1.0-2.5 s over five
    seeds).  FCFW's CorrectionStallError on lasso_desk is a known failure
    of the program and is counted, not avoided.
    """
    every = list(VARIANTS)
    if tiny:
        configs = [
            ExperimentConfig("c06_triangle", {"kind": "triangle", "thetas": [math.pi / 4],
                             "n_starts": 2, "rng_seed": seed}, every, 1e-12, 200),
            ExperimentConfig("lasso_desk", {"kind": "lasso", "m": 15, "n": 30, "k": 4,
                             "noise": 0.1, "rng_seed": README_SEED, "radius": 1.6}, every, 1e-8, 300),
            ExperimentConfig("rankdef", {"kind": "rankdef", "d": 10, "rank": 4,
                             "rng_seed": README_SEED}, every, 1e-8, 300),
        ]
    else:
        configs = [
            ExperimentConfig("c06_triangle", {"kind": "triangle",
                             "thetas": [math.pi / 4, math.pi / 8, math.pi / 16],
                             "n_starts": 20, "rng_seed": seed}, every, 1e-12, 500),
            ExperimentConfig("lasso_desk", {"kind": "lasso", "m": 50, "n": 120, "k": 12,
                             "noise": 0.1, "rng_seed": README_SEED, "radius": 4.8}, every, 1e-8, 2000),
            ExperimentConfig("rankdef", {"kind": "rankdef", "d": 40, "rank": 20,
                             "rng_seed": README_SEED}, every, 1e-8, 2000),
        ]
    return Instance(None, [_experiment_op(c, scratch) for c in configs])


def _experiment_op(config: ExperimentConfig, scratch: Optional[Path]) -> Op:
    def run():
        tmp = tempfile.TemporaryDirectory(dir=scratch)
        return tmp, bench.run_experiment(config, tmp.name)

    def check(result) -> Checked:
        tmp, summary = result
        out = Checked()
        with tmp:
            folder = Path(tmp.name)
            name = f"{config.name}_summary.json"
            out.outputs[name] = (folder / name).read_text()
            for run in summary["runs"]:
                if run["trace_file"] is None:  # the solve raised
                    out.attempted += 1
                    out.failures.append(run["exit_status"])
                    continue
                text = (folder / run["trace_file"]).read_text()
                if "theta" in run:
                    f_star = triangle_f_star(run["theta"])
                else:
                    f_star = summary["f_star"]
                out.attempted += 1
                out.outputs[run["trace_file"]] = text
                failure = _certificate(RunTrace.from_csv(text), f_star, config.epsilon)
                if failure:
                    out.failures.append(failure)
        return out

    return Op(f"experiment.{config.name}", run, check)


BUILDERS = {
    "lasso_full": lasso_full,
    "flow_paths": flow_paths,
    "pwidth_geom": pwidth_geom,
    "tiny_sweep": tiny_sweep,
}

def build(name: str, seed: int, tiny: bool = False, scratch: Optional[Path] = None) -> Instance:
    if name == "tiny_sweep":
        return tiny_sweep(seed, tiny, scratch)
    return BUILDERS[name](seed, tiny)
