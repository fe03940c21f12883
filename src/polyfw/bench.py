"""Benchmark harness: seeded problem generators, rate fits, trace files.

Four problem kinds.  Three seeded families exercise the solvers where
the rate theory makes checkable predictions: an l1-constrained
least-squares problem (linear vs sublinear separation between
active-set variants and plain FW), a thin-triangle sweep over random
starts (the fitted rate against Theorem 1's) and a rank-deficient
quadratic over the simplex (linear decay despite zero strong
convexity).  ``custom`` reads a least-squares problem from CSV files and
a polytope spec.  ``PROBLEMS`` maps each kind to its builder, which
reads every key with ``oracles.json_field`` and returns the instances
(one per triangle angle); ``ExperimentConfig`` builds them once, and
``run_experiment`` runs them in one loop, each run with Theorem 1's rho.
Runs are deterministic given the config: identical configs serialize to
byte-identical trace CSVs.
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
from polyfw.geometry import linear_rate, rate_constant
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
    ``built`` holds the instances, so a bad input fails here, before
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
            epsilon=float(json_field(doc, "epsilon", numbers.Real, owner, cls.epsilon)
                          if epsilon is None else epsilon),
            max_iter=(json_field(doc, "max_iter", numbers.Integral, owner, cls.max_iter)
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
    return [(*gen_lasso(m, n, k, noise, _seed(p, "lasso problem"), radius), {}, 0)]


def _triangle(p: Dict):
    owner = "triangle problem"
    thetas = json_field(p, "thetas", list, owner)
    if not thetas:
        raise ValueError("triangle experiment needs a list of at least one theta")
    n_starts = json_field(p, "n_starts", numbers.Integral, owner)
    if n_starts < 1:
        raise ValueError("triangle experiment needs n_starts >= 1")
    thetas = [float(json_field({"theta": t}, "theta", numbers.Real, owner)) for t in thetas]
    _seed(p, owner)  # run_experiment draws the starts from it
    return [(obj, spec, {"theta": theta, "delta": delta, "diameter": diameter}, n_starts)
            for theta in thetas for obj, spec, delta, diameter in [gen_triangle(theta)]]


def _rankdef(p: Dict):
    d, rank = (json_field(p, key, numbers.Integral, "rankdef problem") for key in ("d", "rank"))
    obj, spec = gen_rankdef(d, rank, _seed(p, "rankdef problem"))
    return [(obj, spec, {"mu": obj.strong_convexity, "f_star": 0.0}, 0)]  # b = A x0 is consistent


def _custom(p: Dict):
    A_csv, y_csv = (json_field(p, key, str, "custom problem") for key in ("A_csv", "y_csv"))
    A = np.loadtxt(A_csv, delimiter=",", ndmin=2)
    y = np.loadtxt(y_csv, delimiter=",", ndmin=1)
    spec = spec_from_json(json_field(p, "spec", dict, "custom problem"))
    if A.shape[1] != spec.dimension:
        raise ValueError(f"A has {A.shape[1]} columns but the spec has dimension {spec.dimension}")
    if y.shape != (A.shape[0],):
        raise ValueError(f"y has shape {y.shape} but A has {A.shape[0]} rows")
    return [(QuadraticObjective.least_squares(A, y), spec, {}, 0)]


# kind: its builder.  A builder reads each key with json_field, calls the generator, which
# checks the values, and returns the instances (obj, spec, known, n_starts).  known holds
# values known by construction: f_star, mu, and Theorem 1's delta and M (_CONSTANTS); any
# other entry (a triangle's theta) labels the instance's runs and aggregates.
PROBLEMS: Dict[str, Callable[[Dict], Any]] = {
    "lasso": _lasso,
    "triangle": _triangle,
    "rankdef": _rankdef,
    "custom": _custom,
}
_CONSTANTS = ("f_star", "mu", "delta", "diameter")  # the known entries that label nothing


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
    A non-finite ``f_star`` or value in the column fitted raises ``ValueError``.
    """
    if quantity not in RATE_QUANTITIES:
        raise ValueError(f"quantity must be one of {RATE_QUANTITIES}")
    column = "f_value" if quantity == "f_gap_to_opt" else "fw_gap"
    if not all(map(math.isfinite, trace.columns[column])):
        raise ValueError(f"the trace's {column} column holds a non-finite value")
    if quantity == "f_gap_to_opt":
        if f_star is None or not math.isfinite(f_star):
            raise ValueError(f"f_gap_to_opt requires a finite f_star, got {f_star}")
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


def _rhos(obj: Objective, spec: PolytopeSpec, known: Dict, variants) -> Dict[str, Optional[float]]:
    """Theorem 1's rho per variant: delta and M from ``known``, else ``rate_constant`` (whose
    ``ValueError`` leaves every rho None); mu = 0 makes every rho 0 with no geometry."""
    try:
        mu, L = obj.strong_convexity, obj.smoothness
        if "delta" in known:
            delta, M = known["delta"], known["diameter"]
        elif mu == 0.0:
            delta = M = 1.0
        else:
            constants = rate_constant(obj, spec)
            delta, M = constants.delta, constants.diameter
        return {variant: linear_rate(variant, mu, L, delta, M) for variant in variants}
    except ValueError:
        return dict.fromkeys(variants)


def _median(values: List[float]) -> Optional[float]:
    return float(np.median(values)) if values else None


def run_experiment(config: ExperimentConfig, out_dir) -> Dict:
    """Run every (instance, variant, start) of the configured experiment.

    An instance's ``n_starts`` are Dirichlet weightings of its atoms from
    ``default_rng([rng_seed, instance index])``, with an aggregate per
    variant; with none, each variant runs once from the solver's start, and
    ``known`` and f* go to the top of the summary.  Every run records
    Theorem 1's ``rho`` and ``ratio`` = rho_hat / rho.  Writes one trace CSV
    per run plus ``<name>_summary.json`` into ``out_dir`` and returns the
    summary.  A run that fails keeps its trace, whose header holds the
    ``error:`` exit status and message, and a record of the same shape as
    any other run's; the experiment continues.
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
        "runs": [],
    }
    aggregates: List[Dict] = []
    for ti, (obj, spec, known, n_starts) in enumerate(config.built):
        f_star = known["f_star"] if "f_star" in known else reference_optimum(obj, spec)
        label = {key: value for key, value in known.items() if key not in _CONSTANTS}
        starts: List[Optional[ActiveIterate]] = [None]
        if n_starts:
            atoms = spec.enumerate_atoms()
            rng = np.random.default_rng([config.problem["rng_seed"], ti])
            starts = [ActiveIterate.from_weights(dict(zip(atoms, w.tolist())))
                      for w in rng.dirichlet(np.ones(len(atoms)), n_starts)]
        else:
            summary.update(known, f_star=f_star)
        rhos = _rhos(obj, spec, known, config.variants)
        for variant, rho in rhos.items():
            cfg = SolverConfig(variant=variant, epsilon=config.epsilon, max_iter=config.max_iter)
            mine: List[Dict] = []
            for si, x0 in enumerate(starts):
                key = (f"{kind}_t{ti}_{variant.lower()}_s{si:02d}" if n_starts
                       else f"{kind}_{variant.lower()}")
                fname = f"{config.name}_{key}.csv"
                trace = solve(obj, spec, cfg, x0=x0)
                trace.write_csv(out / fname)
                # A first step that drops an atom sheds a corner's mass at once, and a fit
                # with no decay over fewer than three points converged at once: neither
                # carries rate information, so both are excluded but counted.
                drop_start = trace.columns["kind"][:1] == [StepKind.DROP]
                fit = None if drop_start else fit_rate(
                    trace, "f_gap_to_opt", f_star=f_star, floor=1e-12 * max(1.0, abs(f_star)))
                degenerate = (fit is not None and fit.rho_hat <= 0.0
                              and fit.window[1] - fit.window[0] < 3)
                fit = None if degenerate else fit
                f_values, echo = trace.columns["f_value"], trace.config_echo
                mine.append({
                    "key": key,
                    "variant": variant,
                    "trace_file": fname,
                    "exit_status": echo["exit_status"],
                    "iterations": len(f_values),
                    "final_fw_gap": echo["final_fw_gap"],
                    "final_f": f_values[-1] if f_values else echo.get("f0"),
                    "step_counts": trace.step_counts(),
                    "rate_fit": fit.to_json() if fit is not None else None,
                    "rho": rho,
                    "ratio": fit.rho_hat / rho if fit is not None and rho else None,
                    **label,
                    "start": si,
                    "drop_start": drop_start,
                    "degenerate": degenerate,
                })
            summary["runs"].extend(mine)
            if not n_starts:
                continue
            included = [r for r in mine if r["ratio"] is not None]
            ratios = [r["ratio"] for r in included]
            fits = [r["rate_fit"] for r in included]
            aggregates.append({
                **label,
                "variant": variant,
                "theoretical_rho": rho,
                "n_included": len(ratios),
                "n_drop_start": sum(1 for r in mine if r["drop_start"]),
                "n_degenerate": sum(1 for r in mine if r["degenerate"]),
                "median_ratio": _median(ratios),
                "min_ratio": min(ratios) if ratios else None,
                # what the included ratios rest on
                "median_records": _median([r["iterations"] for r in included]),
                "median_fit_window": _median([f["window"][1] - f["window"][0] for f in fits]),
                "median_r_squared": _median([f["r_squared"] for f in fits]),
            })
    if aggregates:
        summary["aggregates"] = aggregates
    (out / f"{config.name}_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    return summary


def all_runs_clean(summary: Dict) -> bool:
    """True when every run converged or stopped at the iteration cap."""
    return all(run["exit_status"] in CLEAN_EXITS for run in summary["runs"])
