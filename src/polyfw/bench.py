"""Benchmark harness: seeded problem generators, rate fits, trace files.

Four problem kinds.  Three seeded families exercise the solvers where
the rate theory makes checkable predictions: an l1-constrained
least-squares problem (linear vs sublinear separation between
active-set variants and plain FW), a thin-triangle sweep (empirical
contraction rate against Theorem 1's ``geometry.linear_rate`` over
random starts) and a rank-deficient quadratic over the simplex (linear
decay despite zero strong convexity).  ``custom`` reads a least-squares
problem from CSV files and a polytope spec.  ``PROBLEMS`` maps each
kind to its builder, which reads every key with ``oracles.json_field``;
``ExperimentConfig`` builds its problem once, and ``run_experiment``
solves each run on that build with ``_run``.  Runs are deterministic
given the config: identical configs serialize to byte-identical trace
CSVs.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from polyfw.core import ActiveIterate, RunTrace, StepKind
from polyfw.geometry import linear_rate
from polyfw.objectives import Objective, QuadraticObjective
from polyfw.oracles import L1Ball, PolytopeSpec, Simplex, VertexList, json_field, spec_from_json
from polyfw.solvers import SolverConfig, Variant, solve

RATE_QUANTITIES = ("f_gap_to_opt", "fw_gap")
CLEAN_EXITS = ("converged", "max_iter")


@dataclass
class RateFit:
    """Log-linear fit of a decaying run quantity.

    ``rho_hat`` is the negated least-squares slope of log(value) against
    the step index, so value ~ exp(-rho_hat * t) on the fit window.
    """

    rho_hat: float
    r_squared: float
    window: Tuple[int, int]
    theoretical_rho: Optional[float] = None

    def to_json(self) -> Dict:
        return asdict(self)


@dataclass
class ExperimentConfig:
    """One benchmark request: a problem recipe plus solver settings.

    Construction checks the settings, through the ``SolverConfig`` each
    variant's runs use, that no variant is listed twice once its name is
    normalised, and the problem's kind, then builds the problem
    once with the kind's builder (``PROBLEMS``), which reads and
    type-checks each key and, with its generator, checks the values.
    ``built`` holds what the runs need, so a bad input fails here, before
    ``run_experiment`` writes anything.
    """

    name: str
    problem: Dict
    variants: List[str]
    epsilon: float = 1e-8
    max_iter: int = 2000
    built: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ValueError("experiment name must be nonempty")
        if Path(self.name).name != self.name or self.name == "..":
            raise ValueError(f"experiment name must be a single path component, not {self.name!r}")
        if not self.variants:
            raise ValueError("variants list must be nonempty")
        self.variants = [SolverConfig(v, self.epsilon, self.max_iter).variant.value
                         for v in self.variants]
        for i, variant in enumerate(self.variants):
            if variant in self.variants[:i]:
                raise ValueError(f"variant {variant} is listed more than once")
        kind = json_field(self.problem, "kind", str, "problem")
        if kind not in PROBLEMS:
            raise ValueError(f"unknown problem kind {kind!r}")
        self.built = PROBLEMS[kind](self.problem)

    @classmethod
    def from_json(
        cls,
        source,
        seed: Optional[int] = None,
        max_iter: Optional[int] = None,
        epsilon: Optional[float] = None,
    ) -> "ExperimentConfig":
        """Build from a dict or from the path of a JSON file, reading each key with ``json_field``.

        ``seed``, ``max_iter`` and ``epsilon`` replace the document's
        problem ``rng_seed`` and settings before the config checks them;
        None keeps the document's value.
        """
        doc = source if isinstance(source, dict) else json.loads(Path(source).read_text())
        owner = "experiment config"
        problem = dict(json_field(doc, "problem", dict, owner))
        if seed is not None:
            problem["rng_seed"] = seed
        return cls(
            name=json_field(doc, "name", str, owner),
            problem=problem,
            variants=json_field(doc, "variants", list, owner),
            epsilon=float(json_field(doc, "epsilon", numbers.Real, owner, 1e-8)
                          if epsilon is None else epsilon),
            max_iter=(json_field(doc, "max_iter", numbers.Integral, owner, 2000)
                      if max_iter is None else max_iter),
        )


def gen_lasso(
    m: int, n: int, k: int, noise: float, seed: int, radius: float = 20.0
) -> Tuple[QuadraticObjective, L1Ball]:
    """Sparse-recovery least squares ||Ax - b||^2 over an l1 ball.

    A has standard Gaussian entries, the planted signal has k entries of
    +-1, and b adds Gaussian noise with per-coordinate standard
    deviation noise * ||A x_true|| / sqrt(m).  With radius below the
    planted l1 mass the constraint is active at the optimum, which is
    the regime where plain FW zig-zags sublinearly.
    """
    if k > n:
        raise ValueError("sparsity k cannot exceed n")
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    support = rng.choice(n, size=k, replace=False)
    x_true[support] = rng.choice([-1.0, 1.0], size=k)
    clean = A @ x_true
    b = clean + noise * np.linalg.norm(clean) / math.sqrt(m) * rng.standard_normal(m)
    return QuadraticObjective.least_squares(A, b), L1Ball(n, radius)


def gen_triangle(theta: float) -> Tuple[QuadraticObjective, VertexList, float, float]:
    """Thin triangle with corners (-1,0), (0,0), (cos t, sin t).

    The objective is half the squared distance to (-0.5, 1).  Also
    returns the closed-form pyramidal width sin(theta/2) and diameter
    2 cos(theta/2), which drive the theoretical contraction factors.
    """
    if not 0.0 < theta <= math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2]")
    vertices = np.array(
        [[-1.0, 0.0], [0.0, 0.0], [math.cos(theta), math.sin(theta)]]
    )
    obj = QuadraticObjective.distance_to(np.array([-0.5, 1.0]))
    delta = math.sin(theta / 2.0)
    diameter = 2.0 * math.cos(theta / 2.0)
    return obj, VertexList(vertices), delta, diameter


def gen_rankdef(d: int, rank: int, seed: int) -> Tuple[QuadraticObjective, Simplex]:
    """Rank-deficient least squares over the simplex: mu = 0 exactly.

    b = A x0 for a random simplex point x0, so the optimum value is 0
    and is attained inside the domain's intersection with an affine
    subspace; strong convexity vanishes but active-set variants still
    contract in practice.
    """
    if not rank < d:
        raise ValueError("rankdef needs rank < d")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rank, d))
    x0 = rng.dirichlet(np.ones(d))
    return QuadraticObjective.least_squares(A, A @ x0), Simplex(d)


def _seed(p: Dict, owner: str) -> int:
    seed = json_field(p, "rng_seed", numbers.Integral, owner, -1)
    if seed < 0:
        raise ValueError(f"{owner} needs an rng_seed >= 0")
    return seed


def _lasso(p: Dict):
    m, n, k = (json_field(p, key, numbers.Integral, "lasso problem") for key in ("m", "n", "k"))
    noise, radius = (float(json_field(p, key, numbers.Real, "lasso problem", default))
                     for key, default in (("noise", 0.1), ("radius", 20.0)))
    return (*gen_lasso(m, n, k, noise, _seed(p, "lasso problem"), radius), {})


def _triangle(p: Dict):
    owner = "triangle problem"
    thetas = json_field(p, "thetas", list, owner)
    if not thetas:
        raise ValueError("triangle experiment needs a list of at least one theta")
    n_starts = json_field(p, "n_starts", numbers.Integral, owner)
    if n_starts < 1:
        raise ValueError("triangle experiment needs n_starts >= 1")
    thetas = [float(json_field({"theta": t}, "theta", numbers.Real, owner)) for t in thetas]
    return [(theta, *gen_triangle(theta)) for theta in thetas], n_starts, _seed(p, owner)


def _rankdef(p: Dict):
    d, rank = (json_field(p, key, numbers.Integral, "rankdef problem") for key in ("d", "rank"))
    obj, spec = gen_rankdef(d, rank, _seed(p, "rankdef problem"))
    return obj, spec, {"mu": obj.strong_convexity, "f_star": 0.0}  # b = A x0 is consistent


def _custom(p: Dict):
    A_csv, y_csv = (json_field(p, key, str, "custom problem") for key in ("A_csv", "y_csv"))
    A = np.loadtxt(A_csv, delimiter=",", ndmin=2)
    y = np.loadtxt(y_csv, delimiter=",", ndmin=1)
    spec = spec_from_json(json_field(p, "spec", dict, "custom problem"))
    if A.shape[1] != spec.dimension:
        raise ValueError(f"A has {A.shape[1]} columns but the spec has dimension {spec.dimension}")
    if y.shape != (A.shape[0],):
        raise ValueError(f"y has shape {y.shape} but A has {A.shape[0]} rows")
    return QuadraticObjective.least_squares(A, y), spec, {}


# kind: its builder.  A builder reads each key with json_field and calls the generator,
# which checks the values, and returns what the runs need: ((theta, *gen_triangle's
# tuple) for each theta, n_starts, rng_seed), or (obj, spec, known), known holding the
# summary entries known by construction.
PROBLEMS: Dict[str, Callable[[Dict], Any]] = {
    "lasso": _lasso,
    "triangle": _triangle,
    "rankdef": _rankdef,
    "custom": _custom,
}


def fit_rate(
    trace: RunTrace,
    quantity: str = "f_gap_to_opt",
    f_star: Optional[float] = None,
    floor: float = 0.0,
) -> RateFit:
    """Least-squares slope of log(quantity) against the step index.

    For ``f_gap_to_opt`` on away-step and min-norm-point traces the drop
    records are excluded and the remaining steps re-indexed, because the
    contraction theory promises progress only on the non-drop steps of
    those variants; every other trace (and ``fw_gap``) uses every
    record.  The series is truncated at its first value at or below
    ``floor`` (or nonpositive value), and the fit runs over the middle
    60% of the truncated series, or all of it when that leaves fewer than
    10 points; the result's ``window`` is that range in truncated indices.
    """
    if quantity not in RATE_QUANTITIES:
        raise ValueError(f"quantity must be one of {RATE_QUANTITIES}")
    if quantity == "f_gap_to_opt":
        if f_star is None:
            raise ValueError("f_gap_to_opt requires f_star")
        f_values, kinds = trace.columns["f_value"], trace.columns["kind"]
        if trace.config_echo.get("variant") in ("AFW", "MNP"):
            f_values = [f for f, kind in zip(f_values, kinds) if kind is not StepKind.DROP]
        raw = [f - f_star for f in f_values]
    else:
        raw = trace.columns["fw_gap"]
    logs: List[float] = []
    for v in raw:
        if not v > max(floor, 0.0):
            break
        logs.append(math.log(v))
    n = len(logs)
    if n < 3:
        return RateFit(rho_hat=0.0, r_squared=0.0, window=(0, n))
    start = int(math.floor(0.2 * n))
    end = int(math.ceil(0.8 * n))
    if end - start < min(10, n):
        start, end = 0, n
    xs = np.arange(start, end, dtype=np.float64)
    ys = np.array(logs[start:end])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(rho_hat=float(-slope), r_squared=r2, window=(start, end))


REFERENCE_EPSILON = 1e-13
REFERENCE_MAX_ITER = 20000


def reference_optimum(obj: Objective, spec: PolytopeSpec) -> float:
    """Near-exact optimal value for suboptimality fits: the best f of one FCFW run.

    The run targets a gap of ``REFERENCE_EPSILON``, below the rounding
    floor of most problems, so it ends ``converged`` or ``stall`` at that
    floor.  FCFW runs on any objective.  A run that ends with an
    ``error:`` status raises ``RuntimeError`` with that status and its
    message.
    """
    config = SolverConfig(Variant.FCFW, epsilon=REFERENCE_EPSILON, max_iter=REFERENCE_MAX_ITER)
    trace = solve(obj, spec, config)
    echo = trace.config_echo
    if echo["exit_status"].startswith("error:"):
        raise RuntimeError(
            f"reference run ended {echo['exit_status']}: {echo.get('error', 'non-finite f')}"
        )
    return min([float(echo["f0"]), *map(float, trace.columns["f_value"])])


def _run_record(
    key: str, variant: str, trace: RunTrace, trace_file: str, fit: Optional[RateFit]
) -> Dict:
    f_values = trace.columns["f_value"]
    last_f = f_values[-1] if f_values else trace.config_echo.get("f0")
    ratio = None
    if fit is not None and fit.theoretical_rho:
        ratio = fit.rho_hat / fit.theoretical_rho
    return {
        "key": key,
        "variant": variant,
        "trace_file": trace_file,
        "exit_status": trace.config_echo["exit_status"],
        "iterations": len(f_values),
        "final_fw_gap": trace.config_echo["final_fw_gap"],
        "final_f": last_f,
        "step_counts": trace.step_counts(),
        "rate_fit": fit.to_json() if fit is not None else None,
        "ratio": ratio,
    }


def _fit(trace: RunTrace, f_star: float) -> RateFit:
    return fit_rate(trace, "f_gap_to_opt", f_star=f_star, floor=1e-12 * max(1.0, abs(f_star)))


def _run(config: ExperimentConfig, out_dir: Path, key: str, variant: str, obj: Objective,
         spec: PolytopeSpec, x0: Optional[ActiveIterate] = None) -> Tuple[RunTrace, str]:
    """Solve one run and write its trace; returns the trace and the file's name."""
    cfg = SolverConfig(variant=variant, epsilon=config.epsilon, max_iter=config.max_iter)
    trace = solve(obj, spec, cfg, x0=x0)
    fname = f"{config.name}_{key}.csv"
    trace.write_csv(out_dir / fname)
    return trace, fname


def _median(values: List[float]) -> Optional[float]:
    return float(np.median(values)) if values else None


def _run_triangle(config: ExperimentConfig, out_dir: Path) -> Tuple[List[Dict], List[Dict]]:
    triangles, n_starts, seed = config.built
    runs: List[Dict] = []
    aggregates: List[Dict] = []
    for ti, (theta, obj, spec, delta, diameter) in enumerate(triangles):
        atoms = spec.enumerate_atoms()
        f_star = reference_optimum(obj, spec)
        rng = np.random.default_rng([seed, ti])
        starts = [rng.dirichlet(np.ones(len(atoms))) for _ in range(n_starts)]
        for variant in config.variants:
            theoretical = linear_rate(variant, 1.0, 1.0, delta, diameter)  # mu = L = 1
            mine: List[Dict] = []
            for si, w in enumerate(starts):
                key = f"triangle_t{ti}_{variant.lower()}_s{si:02d}"
                x0 = ActiveIterate.from_weights({atoms[i]: float(w[i]) for i in range(len(atoms))})
                trace, fname = _run(config, out_dir, key, variant, obj, spec, x0)
                # A start whose very first step is a drop carries no rate
                # information (the offending corner's mass is shed at once
                # and the run collapses), so it is excluded but counted.
                drop_start = trace.columns["kind"][:1] == [StepKind.DROP]
                fit = None
                degenerate = False
                if not drop_start:
                    fit = _fit(trace, f_star)
                    fit.theoretical_rho = theoretical
                    # Runs that land on the optimum before three positive
                    # suboptimality values accrue have no fittable decay;
                    # they converged essentially at once and are excluded
                    # the same way drop starts are.
                    if fit.rho_hat <= 0.0 and fit.window[1] - fit.window[0] < 3:
                        degenerate = True
                        fit = None
                mine.append({**_run_record(key, variant, trace, fname, fit), "theta": theta,
                             "start": si, "drop_start": drop_start, "degenerate": degenerate})
            runs.extend(mine)
            included = [r for r in mine if r["ratio"] is not None]
            ratios = [r["ratio"] for r in included]
            fits = [r["rate_fit"] for r in included]
            aggregates.append(
                {
                    "theta": theta,
                    "variant": variant,
                    "theoretical_rho": theoretical,
                    "n_included": len(ratios),
                    "n_drop_start": sum(1 for r in mine if r["drop_start"]),
                    "n_degenerate": sum(1 for r in mine if r["degenerate"]),
                    "median_ratio": _median(ratios),
                    "min_ratio": min(ratios) if ratios else None,
                    # what the included ratios rest on
                    "median_records": _median([r["iterations"] for r in included]),
                    "median_fit_window": _median([f["window"][1] - f["window"][0] for f in fits]),
                    "median_r_squared": _median([f["r_squared"] for f in fits]),
                }
            )
    return runs, aggregates


def run_experiment(config: ExperimentConfig, out_dir) -> Dict:
    """Run every (variant, start) of the configured experiment.

    Writes one trace CSV per run plus ``<name>_summary.json`` into
    ``out_dir`` and returns the summary.  A run that fails keeps its
    trace, whose header holds the ``error:`` exit status and message,
    and a record of the same shape as any other run's; the experiment
    continues.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind = config.problem["kind"]
    summary: Dict = {
        "name": config.name,
        "problem": config.problem,
        "variants": config.variants,
        "epsilon": config.epsilon,
        "max_iter": config.max_iter,
    }
    if kind == "triangle":
        summary["runs"], summary["aggregates"] = _run_triangle(config, out)
    else:
        obj, spec, known = config.built
        summary.update(known)
        if "f_star" not in summary:
            summary["f_star"] = reference_optimum(obj, spec)
        f_star, summary["runs"] = summary["f_star"], []
        for variant in config.variants:
            key = f"{kind}_{variant.lower()}"
            trace, fname = _run(config, out, key, variant, obj, spec)
            summary["runs"].append(_run_record(key, variant, trace, fname, _fit(trace, f_star)))
    (out / f"{config.name}_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


def all_runs_clean(summary: Dict) -> bool:
    """True when every run converged or stopped at the iteration cap."""
    return all(run["exit_status"] in CLEAN_EXITS for run in summary["runs"])
