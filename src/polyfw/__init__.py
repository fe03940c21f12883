"""Projection-free convex optimization over polytopes.

Linearly convergent Frank-Wolfe variants (away-steps, pairwise,
fully-corrective, min-norm-point) over pluggable linear minimization
oracles, with a geometric toolkit for the constants that govern their
rates and a benchmark harness that checks the predictions numerically.
"""

from polyfw.bench import (
    ExperimentConfig,
    RateFit,
    fit_rate,
    gen_lasso,
    gen_rankdef,
    gen_triangle,
    reference_optimum,
    run_experiment,
)
from polyfw.core import (
    ActiveIterate,
    Atom,
    RunTrace,
    StepKind,
    StepRecord,
    apply_away_step,
    apply_fw_step,
    apply_pairwise_step,
)
from polyfw.geometry import (
    RateConstants,
    WidthReport,
    analytic_pwidth,
    eccentricity,
    enumerate_faces,
    pwidth,
    rate_constant,
)
from polyfw.objectives import Objective, QuadraticObjective
from polyfw.oracles import (
    BasePolytope,
    Cube,
    FlowDag,
    L1Ball,
    PolytopeSpec,
    Simplex,
    VertexList,
)
from polyfw.solvers import SolverConfig, Variant, solve

__all__ = [
    "ActiveIterate",
    "Atom",
    "BasePolytope",
    "Cube",
    "ExperimentConfig",
    "FlowDag",
    "L1Ball",
    "Objective",
    "PolytopeSpec",
    "QuadraticObjective",
    "RateConstants",
    "RateFit",
    "RunTrace",
    "Simplex",
    "SolverConfig",
    "StepKind",
    "StepRecord",
    "Variant",
    "VertexList",
    "WidthReport",
    "analytic_pwidth",
    "apply_away_step",
    "apply_fw_step",
    "apply_pairwise_step",
    "eccentricity",
    "enumerate_faces",
    "fit_rate",
    "gen_lasso",
    "gen_rankdef",
    "gen_triangle",
    "pwidth",
    "rate_constant",
    "reference_optimum",
    "run_experiment",
    "solve",
]

__version__ = "0.1.0"
