"""Acceptance gate: the eleven headline checks at their pinned tolerances.

Each test prints one `criterion N: PASS/FAIL` line and asserts it.  The
triangle sweep check (criterion 6) encodes the stated median-ratio bound
verbatim; see the benchmark docs for measured behavior.
"""

import itertools
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from polyfw import geometry
from polyfw.bench import (
    CLEAN_EXITS,
    ExperimentConfig,
    fit_rate,
    gen_lasso,
    gen_rankdef,
    gen_triangle,
    reference_optimum,
    run_experiment,
)
from polyfw.core import ActiveIterate, Atom, StepKind
from polyfw.geometry import polytope_diameter
from polyfw.objectives import QuadraticObjective
from polyfw.oracles import (
    BasePolytope,
    Cube,
    FlowDag,
    L1Ball,
    Simplex,
    VertexList,
    cardinality_cap,
    weighted_concave_cardinality,
)
from polyfw.solvers import SolverConfig, Variant, fcfw_correction, solve

import oracles as ref

AWAY_TRACES = []  # (label, trace) pairs examined again by criterion 4


def _note(label, trace):
    if trace.config_echo.get("variant") in ("AFW", "MNP"):
        AWAY_TRACES.append((label, trace))
    return trace


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def desk_lasso():
    """Desk-scale sparse recovery shared by criteria 2, 4, and 5."""
    obj, spec = gen_lasso(50, 120, 12, 0.1, 7, radius=4.8)
    f_star = reference_optimum(obj, spec)
    traces = {}
    for v in ("FW", "AFW", "PFW"):
        traces[v] = solve(obj, spec, SolverConfig(Variant(v), epsilon=1e-8, max_iter=2000))
    traces["MNP"] = solve(obj, spec, SolverConfig(Variant.MNP, epsilon=1e-8, max_iter=2000))
    return obj, spec, f_star, traces


def theorem2_worst_ratio(trace, obj, spec, f_star):
    """Largest fw_gap / bound over a trace, with h floored at f* precision."""
    L, M = obj.smoothness, polytope_diameter(spec)
    fs = [trace.config_echo["f0"]] + [r.f_value for r in trace.records]
    f_star = min(f_star, min(fs))
    floor = 1e-12 * max(1.0, abs(f_star))
    worst = 0.0
    for t, rec in enumerate(trace.records):
        h = max(fs[t] - f_star, floor)
        if h > L * M * M / 2:
            bound = h + L * M * M / 2
        else:
            bound = M * math.sqrt(2 * h * L)
        worst = max(worst, rec.fw_gap / bound)
    return worst


def test_c01_analytic_pyramidal_widths():
    targets = [
        ("cube2", Cube(2), ref.PWIDTH_CUBE[2]),
        ("cube3", Cube(3), ref.PWIDTH_CUBE[3]),
        ("simplex2", Simplex(2), ref.PWIDTH_SIMPLEX[2]),
        ("simplex3", Simplex(3), ref.PWIDTH_SIMPLEX[3]),
        ("simplex4", Simplex(4), ref.PWIDTH_SIMPLEX[4]),
    ]
    t0 = time.monotonic()
    errs = []
    for tag, spec, expected in targets:
        rep = geometry.pwidth([a.point for a in spec.enumerate_atoms()])
        errs.append((tag, abs(rep.pwidth_estimate - expected) / expected))
    elapsed = time.monotonic() - t0
    worst = max(e for _, e in errs)
    ok = worst <= 0.02 and elapsed < 60.0
    detail = (f"worst rel err {worst:.2e} over {len(errs)} analytic widths, "
              f"{elapsed:.1f}s")
    _report(1, ok, detail)


def test_c02_linear_vs_sublinear_separation():
    t0 = time.monotonic()
    obj, spec, f_star, traces = desk_lasso()
    elapsed = time.monotonic() - t0
    floor = 1e-12 * max(1.0, abs(f_star))
    fits = {v: fit_rate(traces[v], "f_gap_to_opt", f_star=f_star, floor=floor)
            for v in ("AFW", "PFW")}
    _note("lasso_afw", traces["AFW"])
    fw_final = traces["FW"].config_echo["final_fw_gap"]
    linear_final = max(traces[v].config_echo["final_fw_gap"] for v in ("AFW", "PFW"))
    converged = all(traces[v].config_echo["exit_status"] == "converged"
                    for v in ("AFW", "PFW"))
    r2_ok = all(f.r_squared >= 0.95 for f in fits.values())
    separation = fw_final / linear_final
    ok = converged and r2_ok and separation >= 1e3 and elapsed < 30.0
    detail = (f"AFW r2 {fits['AFW'].r_squared:.4f}, PFW r2 {fits['PFW'].r_squared:.4f}, "
              f"FW/linear gap ratio {separation:.2e}, {elapsed:.1f}s")
    _report(2, ok, detail)


def test_c03_per_good_step_contraction():
    rho_by_spec = {
        "simplex3": ref.PWIDTH_SIMPLEX[3] ** 2 / (4.0 * 2.0),
        "cube3": ref.PWIDTH_CUBE[3] ** 2 / (4.0 * 3.0),
    }
    runs = 0
    violations = 0
    for seed in range(5):
        rng = np.random.default_rng([900, seed])
        targets = {
            "simplex3": [rng.dirichlet(np.ones(3) * 2),
                         3.0 * np.eye(3)[rng.integers(3)] + 0.05 * rng.standard_normal(3)],
            "cube3": [rng.uniform(0.1, 0.9, 3), rng.choice([-1.0, 2.0], 3)],
        }
        for tag, spec in (("simplex3", Simplex(3)), ("cube3", Cube(3))):
            for target in targets[tag]:
                obj = QuadraticObjective.distance_to(target)
                x_star = (ref.project_to_simplex(target) if tag == "simplex3"
                          else ref.project_to_cube(target))
                f_star = obj.value(x_star)
                trace = _note(f"c3_{tag}_{seed}", solve(
                    obj, spec, SolverConfig(Variant.AFW, epsilon=1e-12, max_iter=500)))
                runs += 1
                rho = rho_by_spec[tag]
                h_prev = trace.config_echo["f0"] - f_star
                for rec in trace.records:
                    h_next = rec.f_value - f_star
                    if rec.gamma < rec.gamma_max - 1e-15:
                        if not h_next <= (1.0 - rho) * h_prev + 1e-12:
                            violations += 1
                    h_prev = h_next
    ok = runs == 20 and violations == 0
    _report(3, ok, f"{violations} contraction violations over {runs} seeded runs")


def test_c04_drop_step_accounting():
    rng = np.random.default_rng(940)
    unclean = []
    for seed in range(4):
        A = rng.standard_normal((16, 9))
        y = rng.standard_normal(16)
        obj = QuadraticObjective.least_squares(A, y)
        for spec in (Simplex(9), L1Ball(9, 2.0), Cube(9)):
            for variant in (Variant.AFW, Variant.MNP):
                tag = f"c4_{type(spec).__name__}_{variant.value}_{seed}"
                trace = _note(tag, solve(obj, spec,
                                         SolverConfig(variant, epsilon=1e-9, max_iter=400)))
                if trace.config_echo["exit_status"] not in CLEAN_EXITS:
                    unclean.append(tag)
    bad = []
    drops = 0
    for label, trace in AWAY_TRACES:
        kinds = [r.kind.value for r in trace.records]
        drops += sum(1 for k in kinds if k == StepKind.DROP.value)
        init = trace.config_echo.get("init_active_size", 1)
        if not ref.drop_prefix_ok(kinds, initial_active_size=init):
            bad.append(label)
    ok = not bad and not unclean and len(AWAY_TRACES) >= 20
    detail = (f"{len(AWAY_TRACES)} away/min-norm traces, {drops} drop steps, "
              f"prefix bound violations: {bad or 'none'}, unclean exits: {unclean or 'none'}")
    _report(4, ok, detail)


def test_c05_gap_bound_every_variant():
    rng = np.random.default_rng(777)
    A = rng.standard_normal((9, 5))
    obj_a = QuadraticObjective.least_squares(A, rng.standard_normal(9))
    obj_b = QuadraticObjective.distance_to(np.array([1.4, -0.6, 2.0]))
    obj_c, spec_c, f_star_c, lasso_traces = desk_lasso()
    worst = 0.0
    n_traces = 0
    unclean = []
    for label, obj, spec, variants in (
        ("simplex5", obj_a, Simplex(5), list(Variant)),
        ("cube3", obj_b, Cube(3), list(Variant)),
    ):
        f_star = reference_optimum(obj, spec)
        for v in variants:
            trace = _note(f"c5_{label}_{v.value}", solve(
                obj, spec, SolverConfig(v, epsilon=1e-9, max_iter=2000)))
            worst = max(worst, theorem2_worst_ratio(trace, obj, spec, f_star))
            n_traces += 1
            if trace.config_echo["exit_status"] not in CLEAN_EXITS:
                unclean.append(f"{label}_{v.value}")
    for v, trace in lasso_traces.items():
        worst = max(worst, theorem2_worst_ratio(trace, obj_c, spec_c, f_star_c))
        n_traces += 1
        if trace.config_echo["exit_status"] not in CLEAN_EXITS:
            unclean.append(f"lasso_{v}")
    ok = worst <= 1.0 + 1e-7 and not unclean
    _report(5, ok, f"worst gap/bound ratio {worst:.6f} across {n_traces} traces, "
                   f"unclean exits: {unclean or 'none'}")


def test_c06_triangle_rate_tightness(tmp_path):
    t0 = time.monotonic()
    config = ExperimentConfig(
        name="tri_sweep",
        problem={"kind": "triangle",
                 "thetas": [math.pi / 4, math.pi / 8, math.pi / 16],
                 "n_starts": 20, "rng_seed": 7},
        variants=["PFW", "AFW"],
        epsilon=1e-12,
        max_iter=2000,
    )
    summary = run_experiment(config, tmp_path)
    elapsed = time.monotonic() - t0
    lines = []
    ratio_floor_bad = []
    median_bad = []
    for agg in summary["aggregates"]:
        lines.append(
            f"theta={agg['theta']:.4f} {agg['variant']}: "
            f"median ratio {agg['median_ratio']}, min {agg['min_ratio']}, "
            f"included {agg['n_included']}, drop starts {agg['n_drop_start']}, "
            f"degenerate {agg['n_degenerate']}; medians over included: "
            f"records {agg['median_records']}, fit window {agg['median_fit_window']}, "
            f"r2 {agg['median_r_squared']}")
        if agg["min_ratio"] is not None and agg["min_ratio"] < 1.0:
            ratio_floor_bad.append((agg["theta"], agg["variant"], agg["min_ratio"]))
        if agg["variant"] == "PFW":
            med = agg["median_ratio"]
            if med is None or not 1.0 <= med <= 100.0:
                median_bad.append((agg["theta"], med))
    table = "; ".join(lines)
    ok = not ratio_floor_bad and not median_bad and elapsed < 60.0
    detail = (f"every included rho_hat >= rho: {'yes' if not ratio_floor_bad else ratio_floor_bad}; "
              f"PFW medians outside [1, 100]: {median_bad or 'none'}; "
              f"{elapsed:.1f}s :: {table}")
    _report(6, ok, detail)


def test_c07_correction_postconditions():
    rng = np.random.default_rng(970)
    ceps = 1e-10
    worst_away = 0.0
    kinds_seen = set()
    statuses = set()
    for d in (5, 6):
        A = rng.standard_normal((d + 4, d))
        obj = QuadraticObjective.least_squares(A, rng.standard_normal(d + 4))
        trace = solve(obj, Simplex(d), SolverConfig(Variant.FCFW, epsilon=ceps, max_iter=300))
        statuses.add(trace.config_echo["exit_status"])
        for rec in trace.records:
            worst_away = max(worst_away, rec.away_gap)
            kinds_seen.add(rec.kind)
    no_drop_swap = StepKind.DROP not in kinds_seen and StepKind.SWAP not in kinds_seen
    # progress versus the best FW line-search point, checked directly
    progress_bad = 0
    for trial in range(10):
        A = rng.standard_normal((8, 4))
        obj = QuadraticObjective.least_squares(A, rng.standard_normal(8))
        spec = Simplex(4)
        atoms = spec.enumerate_atoms()
        picks = rng.choice(4, size=3, replace=False)
        w = rng.dirichlet(np.ones(3))
        it = ActiveIterate.from_weights(
            {atoms[i]: float(w[j]) for j, i in enumerate(picks)})
        grad = obj.gradient(it.x)
        s = spec.lmo(grad)
        res = fcfw_correction(obj.start(it), it, s, ceps)
        gamma = obj.line_search(it.x, s.point - it.x, 1.0)
        f_target = obj.value(it.x + gamma * (s.point - it.x))
        if obj.value(res.iterate.x) > f_target + 1e-10 * (1 + abs(f_target)):
            progress_bad += 1
        worst_away = max(worst_away, res.post_away_gap)
    # min-norm-point minor cycles leave no away gap behind
    mnp_worst = 0.0
    for seed in range(3):
        r2 = np.random.default_rng([971, seed])
        A = r2.standard_normal((9, 5))
        obj = QuadraticObjective.least_squares(A, r2.standard_normal(9))
        trace = solve(obj, Simplex(5), SolverConfig(Variant.MNP, epsilon=1e-9, max_iter=200))
        statuses.add(trace.config_echo["exit_status"])
        for rec in trace.records:
            mnp_worst = max(mnp_worst, rec.away_gap)
    ok = (worst_away <= ceps + 1e-12 and no_drop_swap
          and progress_bad == 0 and mnp_worst <= 1e-9 and statuses == {"converged"})
    detail = (f"FCFW worst away gap {worst_away:.2e} (eps {ceps}), "
              f"drop/swap absent: {no_drop_swap}, progress violations {progress_bad}, "
              f"MNP worst away gap {mnp_worst:.2e}, exits {sorted(statuses)}")
    _report(7, ok, detail)


def test_c08_oracle_exactness():
    dag = FlowDag([("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
                   ("m", "c"), ("m", "d"), ("c", "t"), ("d", "t")])
    specs = [
        Simplex(50),
        Cube(10),
        L1Ball(100, 3.0),
        VertexList(np.random.default_rng(980).standard_normal((30, 6))),
        dag,
        BasePolytope(6, weighted_concave_cardinality([0.0, 1.0, 1.9, 2.7, 3.4, 4.0, 4.5])),
    ]
    rng = np.random.default_rng(981)
    worst = 0.0
    for spec in specs:
        matrix = np.stack([a.point for a in spec.enumerate_atoms()])
        assert matrix.shape[0] <= 20_000
        for _ in range(200):
            r = rng.standard_normal(spec.dimension)
            got = float(r @ spec.lmo(r).point)
            best = float(np.min(matrix @ r))
            worst = max(worst, abs(got - best))
    # exhaustive tight sets for a ground set of ten elements
    fn = cardinality_cap(4.0)
    base = BasePolytope(10, fn)
    ground = frozenset(range(10))
    tight_worst = 0.0
    equality_worst = 0.0
    for _ in range(200):
        x = base.lmo(rng.standard_normal(10)).point
        equality_worst = max(equality_worst, abs(float(x.sum()) - fn(ground)))
        for size in range(1, 10):
            for subset in itertools.combinations(range(10), size):
                slack = float(x[list(subset)].sum()) - fn(frozenset(subset))
                tight_worst = max(tight_worst, slack)
    ok = worst <= 1e-12 and tight_worst <= 1e-9 and equality_worst <= 1e-9
    detail = (f"worst lmo error {worst:.2e} over {len(specs)} specs x 200 dirs, "
              f"worst tight-set slack {tight_worst:.2e}, "
              f"ground equality error {equality_worst:.2e}")
    _report(8, ok, detail)


def test_c09_strong_convexity_sandwich():
    cases = [
        ("simplex2", Simplex(2), ref.PWIDTH_SIMPLEX[2] ** 2),
        ("simplex3", Simplex(3), ref.PWIDTH_SIMPLEX[3] ** 2),
        ("cube2", Cube(2), ref.PWIDTH_CUBE[2] ** 2),
    ]
    fails = []
    margins = []
    for tag, spec, delta_sq in cases:
        obj = QuadraticObjective(np.eye(spec.dimension), np.zeros(spec.dimension))
        est = ref.estimate_affine_constants(obj, spec, n_samples=200, seed=0)
        lhs_ok = est.mu_fA_hat >= 1.0 * delta_sq - 1e-9
        rhs_ok = est.C_f_hat <= 1.0 * 2.0 + 1e-9
        margins.append(f"{tag}: mu_fA_hat {est.mu_fA_hat:.6f} vs {delta_sq}, "
                       f"C_f_hat {est.C_f_hat:.6f} vs 2")
        if not (lhs_ok and rhs_ok):
            fails.append(tag)
    ok = not fails
    _report(9, ok, f"violations: {fails or 'none'}; " + "; ".join(margins))


def test_c10_rank_deficient_linear_decay():
    obj, spec = gen_rankdef(10, 4, 0)
    lam_min = float(np.linalg.eigvalsh(obj.Q)[0])
    trace = _note("c10_rankdef", solve(
        obj, spec, SolverConfig(Variant.AFW, epsilon=1e-12, max_iter=2000)))
    fit = fit_rate(trace, "f_gap_to_opt", f_star=0.0, floor=1e-12)
    ok = lam_min < 1e-10 and fit.r_squared >= 0.95
    detail = (f"lambda_min {lam_min:.2e}, AFW log-linear r2 {fit.r_squared:.4f} "
              f"over window {fit.window}")
    _report(10, ok, detail)


def test_c11_min_norm_points_match_face_inspection():
    worst = 0.0
    statuses = set()
    for seed in range(10):
        rng = np.random.default_rng([1100, seed])
        n = 3 if seed % 2 == 0 else 4
        d = n - 1
        shift = 1.0 if seed % 3 == 0 else 0.0
        atoms = [rng.standard_normal(d) + shift for _ in range(n)]
        spec = VertexList([a.tolist() for a in atoms])
        obj = QuadraticObjective.distance_to(np.zeros(d))
        trace = solve(obj, spec, SolverConfig(Variant.MNP, epsilon=1e-12, max_iter=200),
                      x0=spec.enumerate_atoms()[0])
        statuses.add(trace.config_echo["exit_status"])
        expected, _ = ref.min_norm_point_by_faces(atoms)
        worst = max(worst, float(np.linalg.norm(trace.final_iterate.x - expected)))
    ok = worst <= 1e-8 and statuses == {"converged"}
    _report(11, ok, f"worst distance to face-inspection solution {worst:.2e} over 10 shapes, "
                    f"exits {sorted(statuses)}")
