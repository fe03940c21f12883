"""Solver variants: direction choice, corrections, traces, exits."""

import math

import numpy as np
import pytest

from polyfw.core import FIELDS, RESYNTH_PERIOD, ActiveIterate, Atom, RunTrace, StepKind
from polyfw.objectives import Objective, QuadraticObjective, QuadraticState
from polyfw.oracles import Cube, FlowDag, Simplex, VertexList
from polyfw.solvers import (
    TIE_LIST_MAX,
    CorrectionPostconditionError,
    DegenerateActiveSetError,
    SolverConfig,
    Variant,
    afw_choose_direction,
    away_atom,
    fcfw_correction,
    mnp_correction,
    pfw_step,
    solve,
)

import oracles as ref
from test_oracles import _layered_arcs, _one_spec_of_each_type

ACTIVE_VARIANTS = (Variant.AFW, Variant.PFW, Variant.FCFW, Variant.MNP)


def h_sequence(trace, obj, spec, f_star):
    """Suboptimality at each visited iterate, using the pre-step gap pairing."""
    f0 = trace.config_echo["f0"]
    hs = [f0 - f_star]
    hs.extend(r.f_value - f_star for r in trace.records)
    return hs


def test_away_atom_picks_largest_gradient_dot():
    a = Atom(np.array([0.0, 0.0]))
    b = Atom(np.array([1.0, 0.0]))
    it = ActiveIterate.from_weights({a: 0.8, b: 0.2})
    j, gap = away_atom(it, np.array([1.0, 0.0]))
    assert it.ids[j] == b.id
    # away gap <-grad, x - v> with x = (0.2, 0), v = b
    assert gap == pytest.approx(0.8)


def test_away_atom_tie_breaks_on_weight():
    a = Atom(np.array([1.0, 0.0]))
    b = Atom(np.array([0.0, 1.0]))
    grad = np.array([1.0, 1.0])
    it = ActiveIterate.from_weights({a: 0.3, b: 0.7})
    j, gap = away_atom(it, grad)
    assert it.ids[j] == b.id
    assert gap == pytest.approx(0.0)


def test_afw_single_atom_forces_fw_branch():
    v1 = Atom(np.array([0.0, 0.0]))
    it = ActiveIterate.from_atom(v1)
    s = Atom(np.array([1.0, 1.0]))
    grad = np.array([-1.0, -1.0])
    fw_dir = s.point - it.x
    kind, d, gmax, away_id = afw_choose_direction(
        it, away_atom(it, grad), fw_dir, -float(grad @ fw_dir)
    )
    assert kind is StepKind.FW
    assert np.allclose(d, [1.0, 1.0])
    assert gmax == 1.0


def test_afw_away_branch_gamma_max():
    # x = (0.2, 0); away atom b has weight 0.2, so gamma_max = 0.2/0.8
    a = Atom(np.array([0.0, 0.0]))
    b = Atom(np.array([1.0, 0.0]))
    it = ActiveIterate.from_weights({a: 0.8, b: 0.2})
    grad = np.array([1.0, 0.0])
    fw_dir = a.point - it.x
    kind, d, gmax, j = afw_choose_direction(
        it, away_atom(it, grad), fw_dir, -float(grad @ fw_dir)
    )
    assert kind is not StepKind.FW
    assert it.ids[j] == b.id
    assert gmax == pytest.approx(0.25)
    assert np.allclose(d, it.x - b.point)


def test_afw_direction_covers_half_pairwise_gap():
    rng = np.random.default_rng(401)
    spec = Simplex(5)
    for _ in range(50):
        w = rng.dirichlet(np.ones(3))
        idx = rng.choice(5, size=3, replace=False)
        atoms = {}
        for i, j in enumerate(idx):
            p = np.zeros(5)
            p[j] = 1.0
            atoms[Atom(p)] = float(w[i])
        it = ActiveIterate.from_weights(atoms)
        grad = rng.standard_normal(5)
        s = spec.lmo(grad)
        j, _ = away_atom(it, grad)
        v = it._point(j)
        g_pfw = float(-grad @ (s.point - v))
        fw_dir = s.point - it.x
        kind, d, gmax, _ = afw_choose_direction(
            it, away_atom(it, grad), fw_dir, -float(grad @ fw_dir)
        )
        assert float(-grad @ d) >= 0.5 * g_pfw - 1e-12


def test_pfw_step_uses_away_weight_as_cap():
    a = Atom(np.array([0.0, 0.0]))
    b = Atom(np.array([1.0, 0.0]))
    it = ActiveIterate.from_weights({a: 0.7, b: 0.3})
    grad = np.array([1.0, 0.0])
    s = Atom(np.array([-1.0, 0.0]))
    d, gmax, j = pfw_step(it, s, away_atom(it, grad))
    assert gmax == pytest.approx(0.3)
    assert it.ids[j] == b.id
    assert np.allclose(d, s.point - b.point)


def test_interior_optimum_on_simplex():
    obj = QuadraticObjective.distance_to(np.array([0.25, 0.75]))
    trace = solve(obj, Simplex(2), SolverConfig(Variant.AFW, epsilon=1e-10, max_iter=100))
    assert trace.config_echo["exit_status"] == "converged"
    assert np.linalg.norm(trace.final_iterate.x - [0.25, 0.75]) <= 1e-10


def test_variants_agree_on_interior_optimum():
    obj = QuadraticObjective.distance_to(np.array([0.25, 0.75]))
    finals = []
    for variant in ACTIVE_VARIANTS:
        trace = solve(obj, Simplex(2), SolverConfig(variant, epsilon=1e-10, max_iter=200))
        assert trace.config_echo["exit_status"] == "converged"
        finals.append(trace.final_iterate.x)
    for x in finals[1:]:
        assert np.linalg.norm(x - finals[0]) <= 1e-8


def test_cube_vertex_optimum_ends_with_fw_step():
    obj = QuadraticObjective.distance_to(np.array([2.0, 2.0]))
    trace = solve(obj, Cube(2), SolverConfig(Variant.AFW, epsilon=1e-10, max_iter=50))
    assert np.allclose(trace.final_iterate.x, [1.0, 1.0])
    last = trace.records[-1]
    assert last.kind is StepKind.FW
    assert trace.config_echo["final_fw_gap"] <= 1e-10


def test_certificate_gap_dominates_suboptimality():
    target = np.array([0.25, 0.75])
    obj = QuadraticObjective.distance_to(target)
    f_star = 0.0
    for variant in (Variant.FW,) + ACTIVE_VARIANTS:
        trace = solve(obj, Simplex(2), SolverConfig(variant, epsilon=1e-9, max_iter=300))
        assert trace.config_echo["exit_status"] == "converged"
        hs = h_sequence(trace, obj, Simplex(2), f_star)
        for t, rec in enumerate(trace.records):
            assert rec.fw_gap >= hs[t] - 1e-9


def test_monotone_objective_every_variant():
    rng = np.random.default_rng(402)
    A = rng.standard_normal((12, 8))
    obj = QuadraticObjective.least_squares(A, rng.standard_normal(12))
    for variant in (Variant.FW,) + ACTIVE_VARIANTS:
        trace = solve(obj, Simplex(8), SolverConfig(variant, epsilon=1e-9, max_iter=400))
        assert trace.config_echo["exit_status"] == (
            "max_iter" if variant is Variant.FW else "converged"
        )
        f_prev = trace.config_echo["f0"]
        for rec in trace.records:
            assert rec.f_value <= f_prev + 1e-12
            f_prev = rec.f_value
        trace.validate()


def test_fcfw_trace_has_no_drop_or_swap():
    rng = np.random.default_rng(403)
    A = rng.standard_normal((10, 6))
    obj = QuadraticObjective.least_squares(A, rng.standard_normal(10))
    trace = solve(obj, Simplex(6), SolverConfig(Variant.FCFW, epsilon=1e-9, max_iter=200))
    kinds = {r.kind for r in trace.records}
    assert StepKind.DROP not in kinds
    assert StepKind.SWAP not in kinds
    assert trace.config_echo["exit_status"] == "converged"


def test_fcfw_away_gap_small_each_outer_iteration():
    rng = np.random.default_rng(404)
    A = rng.standard_normal((9, 5))
    obj = QuadraticObjective.least_squares(A, rng.standard_normal(9))
    cfg = SolverConfig(Variant.FCFW, epsilon=1e-10, max_iter=200)
    trace = solve(obj, Simplex(5), cfg)
    assert trace.config_echo["exit_status"] == "converged"
    for rec in trace.records:
        assert rec.away_gap <= 1e-10 + 1e-12


def test_fcfw_correction_segment_is_exact():
    obj = QuadraticObjective.distance_to(np.array([0.25, 0.75]))
    e1 = Atom(np.array([1.0, 0.0]))
    e2 = Atom(np.array([0.0, 1.0]))
    it = ActiveIterate.from_atom(e1)
    res = fcfw_correction(obj.start(it), it, e2, 1e-12)
    assert np.linalg.norm(res.iterate.x - [0.25, 0.75]) <= 1e-10
    assert res.post_away_gap <= 1e-12


def test_fcfw_correction_noop_when_optimal():
    obj = QuadraticObjective.distance_to(np.array([0.25, 0.75]))
    e1 = Atom(np.array([1.0, 0.0]))
    e2 = Atom(np.array([0.0, 1.0]))
    it = ActiveIterate.from_weights({e1: 0.25, e2: 0.75})
    res = fcfw_correction(obj.start(it), it, e1, 1e-10)
    assert res.inner_steps == 0
    assert np.allclose(res.iterate.x, [0.25, 0.75])


def test_mnp_correction_interior_projection():
    f = QuadraticObjective.distance_to(np.array([0.3, 5.0]))
    a = Atom(np.array([0.0, 0.0]))
    b = Atom(np.array([1.0, 0.0]))
    it = ActiveIterate.from_weights({a: 0.5, b: 0.5})
    res = mnp_correction(f.start(it), it, a)
    assert np.allclose(res.iterate.x, [0.3, 0.0], atol=1e-12)


def test_mnp_correction_clipped_projection_drops_atom():
    f = QuadraticObjective.distance_to(np.array([2.0, 1.0]))
    a = Atom(np.array([0.0, 0.0]))
    b = Atom(np.array([1.0, 0.0]))
    it = ActiveIterate.from_weights({a: 0.5, b: 0.5})
    res = mnp_correction(f.start(it), it, b)
    assert np.allclose(res.iterate.x, [1.0, 0.0], atol=1e-12)
    assert set(res.iterate.weights) == {b.id}


def _scaled_lasso(scale):
    from polyfw.bench import gen_lasso

    obj, spec = gen_lasso(30, 60, 6, 0.1, 11, 3.0)
    return QuadraticObjective(scale * obj.Q, scale * obj.b, scale * obj.c), spec


def test_mnp_postcondition_does_not_depend_on_the_units_of_f():
    """Scaling Q, b and c by 1e4 puts the lasso gradient near 1e6; the away gap's rounding
    grows with it, so an absolute 1e-9 bound failed the first correction."""
    records = []
    for scale in (1.0, 1e4):
        obj, spec = _scaled_lasso(scale)
        trace = solve(obj, spec, SolverConfig(Variant.MNP, epsilon=1e-8, max_iter=30))
        assert trace.config_echo["exit_status"] == "converged", scale
        records.append(len(trace.records))
    assert records == [7, 7]


@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_mnp_postcondition_still_catches_a_point_off_the_affine_minimizer(scale, monkeypatch):
    """The relative bound is loose only by rounding: a cycle that ends a tenth of the way
    from its affine minimizer to the centroid of its atoms fails, at unit scale and at 1e4."""
    import polyfw.solvers as solvers

    minimizer = solvers._affine_minimizer

    def off(H, g):
        lam = minimizer(H, g)
        return 0.9 * lam + 0.1 / len(lam)

    monkeypatch.setattr(solvers, "_affine_minimizer", off)
    obj, spec = _scaled_lasso(scale)
    trace = solve(obj, spec, SolverConfig(Variant.MNP, epsilon=1e-8, max_iter=30))
    assert trace.config_echo["exit_status"] == "error:CorrectionPostconditionError"


def _fuzz_instance(seed):
    """A seeded quadratic of rank 1 to d over one of four specs, ROADMAP item 16's fuzz: with
    ``rng = default_rng(seed)``, d in 2..8, the spec's kind (Simplex, Cube, L1Ball of radius
    10^U(-2, 2), or 2-11 Gaussian atoms scaled by 10^U(-3, 3) plus a Gaussian offset scaled by
    10^U(-3, 4)), the rank, Q = B^T B with B Gaussian scaled by 10^U(-3, 3), and a Gaussian b
    scaled by 10^U(-3, 3), drawn in that order."""
    from polyfw.oracles import L1Ball

    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    kind = int(rng.integers(4))
    if kind == 0:
        spec = Simplex(d)
    elif kind == 1:
        spec = Cube(d)
    elif kind == 2:
        spec = L1Ball(d, 10 ** rng.uniform(-2, 2))
    else:
        n = int(rng.integers(2, 12))
        atoms = rng.standard_normal((n, d)) * 10 ** rng.uniform(-3, 3)
        spec = VertexList(atoms + rng.standard_normal(d) * 10 ** rng.uniform(-3, 4))
    B = rng.standard_normal((int(rng.integers(1, d + 1)), d)) * 10 ** rng.uniform(-3, 3)
    return QuadraticObjective(B.T @ B, rng.standard_normal(d) * 10 ** rng.uniform(-3, 3)), spec


@pytest.mark.parametrize("seed", [138, 147, 257])
def test_mnp_postcondition_scales_with_the_gram_matrix(seed):
    """On these badly scaled quadratics max|H| is 1e8-1e11 while |Qx| + |b| is below 1 at the
    result, so rounding in the minor cycle leaves away gaps of 2e-9 to 5e-6 that a limit
    blind to H read as a broken postcondition.  No variant ends with an error, and each ends
    within its final FW gap (+1e-9 relative) of the best f of the five."""
    obj, spec = _fuzz_instance(seed)
    ends = {}
    for variant in Variant:
        trace = solve(obj, spec, SolverConfig(variant, epsilon=1e-9, max_iter=3000))
        echo = trace.config_echo
        assert not echo["exit_status"].startswith("error:"), (variant, echo)
        f = trace.records[-1].f_value if trace.records else echo["f0"]
        ends[variant] = (f, echo["final_fw_gap"])
    best = min(f for f, _ in ends.values())
    for variant, (f, gap) in ends.items():
        assert f - best <= gap + 1e-9 * max(1.0, abs(best)), variant


def test_mnp_triangle_matches_face_inspection():
    tri = [np.array([-1.0, 1.0]), np.array([1.0, 1.0]), np.array([0.0, 2.0])]
    spec = VertexList([p.tolist() for p in tri])
    obj = QuadraticObjective.distance_to(np.zeros(2))
    trace = solve(obj, spec, SolverConfig(Variant.MNP, epsilon=1e-12, max_iter=50),
                  x0=Atom(np.array([0.0, 2.0])))
    assert trace.config_echo["exit_status"] == "converged"
    assert np.linalg.norm(trace.final_iterate.x - [0.0, 1.0]) <= 1e-10
    expect, _ = ref.min_norm_point_by_faces(tri)
    assert np.linalg.norm(trace.final_iterate.x - expect) <= 1e-8


def test_mnp_away_gap_zero_after_each_cycle():
    rng = np.random.default_rng(405)
    A = rng.standard_normal((8, 5))
    obj = QuadraticObjective.least_squares(A, rng.standard_normal(8))
    trace = solve(obj, Simplex(5), SolverConfig(Variant.MNP, epsilon=1e-9, max_iter=100))
    assert trace.config_echo["exit_status"] == "converged"
    for rec in trace.records:
        assert rec.away_gap <= 1e-9


def test_afw_drop_prefix_bound():
    rng = np.random.default_rng(406)
    for seed in range(5):
        A = rng.standard_normal((14, 9))
        obj = QuadraticObjective.least_squares(A, rng.standard_normal(14))
        for variant in (Variant.AFW, Variant.MNP):
            trace = solve(obj, Simplex(9), SolverConfig(variant, epsilon=1e-9, max_iter=400))
            assert trace.config_echo["exit_status"] == "converged"
            kinds = [r.kind.value for r in trace.records]
            init = trace.config_echo["init_active_size"]
            assert ref.drop_prefix_ok(kinds, initial_active_size=init)


def test_max_iter_exit_records_final_gap():
    rng = np.random.default_rng(407)
    A = rng.standard_normal((20, 15))
    obj = QuadraticObjective.least_squares(A, rng.standard_normal(20))
    trace = solve(obj, Simplex(15), SolverConfig(Variant.FW, epsilon=1e-14, max_iter=5))
    assert trace.config_echo["exit_status"] == "max_iter"
    assert len(trace.records) == 5
    assert trace.config_echo["final_fw_gap"] > 0.0


def test_x0_forms_accepted():
    obj = QuadraticObjective.distance_to(np.array([0.25, 0.75]))
    spec = Simplex(2)
    cfg = SolverConfig(Variant.AFW, epsilon=1e-10, max_iter=100)
    e1 = Atom(np.array([1.0, 0.0]))
    e2 = Atom(np.array([0.0, 1.0]))
    for x0 in (None, e1, ActiveIterate.from_weights({e1: 0.5, e2: 0.5})):
        trace = solve(obj, spec, cfg, x0=x0)
        assert np.linalg.norm(trace.final_iterate.x - [0.25, 0.75]) <= 1e-10


def test_default_init_deterministic():
    rng = np.random.default_rng(408)
    A = rng.standard_normal((10, 6))
    obj = QuadraticObjective.least_squares(A, rng.standard_normal(10))
    cfg = SolverConfig(Variant.PFW, epsilon=1e-9, max_iter=200)
    x0 = Simplex(6).lmo(np.random.default_rng(11).standard_normal(6))
    a = solve(obj, Simplex(6), cfg, x0=x0)
    b = solve(obj, Simplex(6), cfg, x0=x0)
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.f_value == rb.f_value
        assert ra.fw_gap == rb.fw_gap


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(Variant.AFW, epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(Variant.AFW, max_iter=0)
    for eps in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            SolverConfig(Variant.AFW, epsilon=eps)
    for max_iter in (2.5, True):
        with pytest.raises(ValueError):
            SolverConfig(Variant.AFW, 1e-8, max_iter)
    assert SolverConfig(Variant.AFW, max_iter=np.int64(5)).max_iter == 5


def test_away_atom_exact_tie_goes_to_larger_id():
    a = Atom(np.array([1.0, 0.0]))
    b = Atom(np.array([0.0, 1.0]))
    grad = np.array([1.0, 1.0])  # equal dots
    winner = max(a.id, b.id)
    for pairs in ({a: 0.5, b: 0.5}, {b: 0.5, a: 0.5}):  # equal weights, either order
        it = ActiveIterate.from_weights(pairs)
        j, gap = away_atom(it, grad)
        assert it.ids[j] == winner
        assert gap == 0.0


def _broken_iterates():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ids = [Atom(a).id, Atom(b).id]
    pts = np.stack([a, b])
    return {
        "empty": ActiveIterate([], np.zeros((0, 2)), [], np.zeros(2)),
        "zero_weight": ActiveIterate(ids, pts, [1.0, 0.0]),
        "negative_weight": ActiveIterate(ids, pts, [1.2, -0.2]),
        "sum_off": ActiveIterate(ids, pts, [0.5, 0.4]),
        "drift": ActiveIterate(ids, pts, [0.5, 0.5], np.array([0.5, 0.5 + 1e-6])),
    }


@pytest.mark.parametrize("case", sorted(_broken_iterates()))
def test_x0_broken_invariant_rejected(case):
    obj = QuadraticObjective.distance_to(np.array([0.25, 0.75]))
    cfg = SolverConfig(Variant.AFW, epsilon=1e-10, max_iter=10)
    with pytest.raises(ValueError):
        solve(obj, Simplex(2), cfg, x0=_broken_iterates()[case])


def test_x0_of_another_dimension_rejected():
    """An x0 whose dimension is not the spec's raises a ValueError that names both."""
    obj = QuadraticObjective.distance_to(np.array([0.25, 0.75]))
    cfg = SolverConfig(Variant.AFW, epsilon=1e-10, max_iter=10)
    e1, e2 = Atom(np.array([1.0, 0.0, 0.0])), Atom(np.array([0.0, 1.0, 0.0]))
    for x0 in (e1, ActiveIterate.from_weights({e1: 0.5, e2: 0.5})):
        with pytest.raises(ValueError, match=r"x0 has shape \(3,\), but the spec has dimension 2"):
            solve(obj, Simplex(2), cfg, x0=x0)


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AFW, Variant.PFW])
def test_qx_drift_bounded_on_lasso_desk(variant):
    from polyfw.bench import gen_lasso

    obj, spec = gen_lasso(50, 120, 12, 0.1, 7, 4.8)
    trace = solve(obj, spec, SolverConfig(variant, epsilon=1e-8, max_iter=2000))
    assert len(trace.records) >= 100  # at least one periodic resync
    drift = trace.config_echo["qx_drift_max"]
    assert 0.0 <= drift <= 1e-9 * max(1.0, obj.smoothness)


@pytest.mark.parametrize("variant", [Variant.FCFW, Variant.MNP])
def test_inner_steps_summed_into_header(variant, monkeypatch):
    import polyfw.solvers as solvers

    seen = []
    name = "fcfw_correction" if variant is Variant.FCFW else "mnp_correction"
    original = getattr(solvers, name)

    def counting(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(result.inner_steps)
        return result

    monkeypatch.setattr(solvers, name, counting)
    rng = np.random.default_rng(409)
    A = rng.standard_normal((10, 6))
    obj = QuadraticObjective.least_squares(A, rng.standard_normal(10))
    trace = solve(obj, Simplex(6), SolverConfig(variant, epsilon=1e-9, max_iter=200))
    assert trace.config_echo["exit_status"] == "converged"
    assert seen and trace.config_echo["inner_steps"] == sum(seen) > 0
    plain = solve(obj, Simplex(6), SolverConfig(Variant.AFW, epsilon=1e-9, max_iter=200))
    assert plain.config_echo["inner_steps"] == 0


def _lasso_case():
    from polyfw.bench import gen_lasso

    return gen_lasso(30, 60, 6, 0.1, 11, 3.0)


def _simplex_case():
    rng = np.random.default_rng(410)
    return QuadraticObjective.distance_to(rng.standard_normal(30) / np.sqrt(30)), Simplex(30)


@pytest.mark.parametrize("case", [_lasso_case, _simplex_case], ids=["lasso", "simplex"])
@pytest.mark.parametrize("variant", [Variant.FW, Variant.AFW, Variant.PFW])
def test_fast_path_matches_dense_reference(case, variant):
    """The incremental quadratic path against a dense reference loop.

    Both stop at 1e-5 of the first FW gap.  Closer to the optimum the
    gap, a difference of two much larger dot products, carries rounding
    error above 1e-10 relative, and an exact line search leaves the
    oracle and away atoms tied up to rounding, so rounding would pick
    the next atom.
    """
    obj, spec = case()
    x0 = spec.lmo(np.ones(spec.dimension))
    atoms = np.stack([a.point for a in spec.enumerate_atoms()])
    grad0 = obj.gradient(x0.point)
    first_gap = float(grad0 @ x0.point) - float(np.min(atoms @ grad0))
    cfg = SolverConfig(variant, epsilon=1e-5 * first_gap, max_iter=200)
    trace = solve(obj, spec, cfg, x0=x0)
    expect = ref.dense_fw_reference(
        obj.Q, obj.b, obj.c, atoms, variant.value, x0.point, 200, cfg.epsilon
    )
    assert len(trace.records) == len(expect) >= (200 if variant is Variant.FW else 20)
    for rec, (kind, gamma, fw_gap, f_value) in zip(trace.records, expect):
        assert rec.kind.value == kind
        for got, want in ((rec.f_value, f_value), (rec.fw_gap, fw_gap), (rec.gamma, gamma)):
            assert abs(got - want) <= 1e-10 * max(abs(got), abs(want))


def test_traced_entry_points_are_module_globals(monkeypatch):
    """The per-layer benchmark wraps these names where their callers look them up."""
    import polyfw.bench as bench
    import polyfw.core as core
    import polyfw.geometry as geometry
    import polyfw.solvers as solvers

    for owner, names in (
        (solvers, ("lmo", "away_atom", "apply_fw_step", "apply_away_step",
                   "apply_pairwise_step", "fcfw_correction", "mnp_correction", "solve")),
        (QuadraticObjective, ("value", "gradient", "value_and_gradient", "line_search")),
        (bench, ("solve", "reference_optimum", "fit_rate", "run_experiment")),
        (geometry, ("linprog", "pwidth")),
        (core.RunTrace, ("write_csv",)),
    ):
        for name in names:
            assert callable(vars(owner)[name]), name

    calls = {}
    for name in ("lmo", "away_atom", "apply_fw_step", "apply_away_step",
                 "apply_pairwise_step", "fcfw_correction", "mnp_correction"):
        original = vars(solvers)[name]

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solvers, name, counting)
    rng = np.random.default_rng(402)
    A = rng.standard_normal((12, 8))
    obj = QuadraticObjective.least_squares(A, rng.standard_normal(12))
    for variant in Variant:
        trace = solve(obj, Simplex(8), SolverConfig(variant, epsilon=1e-9, max_iter=400))
        assert trace.config_echo["exit_status"] == (
            "max_iter" if variant is Variant.FW else "converged"
        )
    assert set(calls) == {"lmo", "away_atom", "apply_fw_step", "apply_away_step",
                          "apply_pairwise_step", "fcfw_correction", "mnp_correction"}


@pytest.mark.parametrize("problem, runs", [
    ({"kind": "lasso", "m": 8, "n": 12, "k": 2, "rng_seed": 1, "radius": 1.5}, 1),
    ({"kind": "triangle", "thetas": [0.7], "n_starts": 3, "rng_seed": 4}, 3),  # a drop start
])
def test_run_experiment_reaches_the_traced_bench_names(problem, runs, monkeypatch, tmp_path):
    """An experiment's solves, fits, reference run and CSV writes all pass through the
    names that the per-layer benchmark wraps, so its bench counters keep counting."""
    import polyfw.bench as bench

    calls = {}
    for owner, name in ((bench, "solve"), (bench, "fit_rate"), (bench, "reference_optimum"),
                        (RunTrace, "write_csv")):
        def counting(*args, _name=name, _original=vars(owner)[name], **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    config = bench.ExperimentConfig("traced", problem, ["PFW"], 1e-8, 100)
    summary = bench.run_experiment(config, tmp_path)
    fits = sum(not run.get("drop_start") for run in summary["runs"])
    assert 1 <= fits and any(run["rate_fit"] for run in summary["runs"])
    assert calls == {"reference_optimum": 1, "solve": 1 + runs, "write_csv": runs,
                     "fit_rate": fits}


@pytest.mark.parametrize(
    "variant, calls_per, products_per", [(Variant.FCFW, 1, 1), (Variant.MNP, 0, 0)]
)
def test_corrections_make_no_dense_product_per_inner_step(
    variant, calls_per, products_per, monkeypatch
):
    """Products by Q in a whole solve: one per FCFW iteration, none per MNP iteration.

    FCFW calls the objective once per correction, for its target value;
    MNP never.  A correction that does not stall ends where its last major
    cycle put the state, with no ``QuadraticState.reset``, and no major
    cycle multiplies by Q, so neither count grows with the inner steps.
    Every product by Q (a dense one,
    or one inside an objective call) is counted, plus the one that opens
    the solve's state.  The lasso atoms are 1-sparse, so their images
    are support rows of Q, formed with ``ndarray.dot``, which does not
    pass through ``__array_ufunc__`` and is not counted.
    """
    import polyfw.solvers as solvers
    from polyfw.bench import gen_lasso

    calls = []
    for name in ("value", "gradient", "value_and_gradient", "line_search"):
        original = vars(QuadraticObjective)[name]

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(QuadraticObjective, name, counting)

    inside, counts = [], {"products": 0, "resets": 0}

    class CountingQ(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and any(
                isinstance(a, CountingQ) and a.ndim == 2 for a in inputs
            ):
                counts["products"] += 1
            inputs = tuple(np.asarray(a) if isinstance(a, CountingQ) else a for a in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    reset = QuadraticState.reset

    def counting_reset(self, it):
        counts["resets"] += bool(inside)
        return reset(self, it)

    name = "fcfw_correction" if variant is Variant.FCFW else "mnp_correction"
    correction = getattr(solvers, name)

    def flagged(*args, **kwargs):
        inside.append(True)
        try:
            return correction(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(QuadraticState, "reset", counting_reset)
    monkeypatch.setattr(solvers, name, flagged)
    obj, spec = gen_lasso(30, 60, 6, 0.1, 11, 3.0)
    obj.Q = obj.Q.view(CountingQ)
    trace = solve(obj, spec, SolverConfig(variant, epsilon=1e-8, max_iter=30))
    assert trace.config_echo["exit_status"] == "converged"
    iterations = len(trace.records)
    assert iterations and trace.config_echo["inner_steps"] > iterations
    assert len(calls) <= calls_per * iterations, sorted(set(calls))
    assert counts["resets"] == 0
    assert counts["products"] == products_per * iterations + 1


def _exact_state_problems():
    from polyfw.bench import gen_lasso, gen_rankdef

    rng = np.random.default_rng(37)
    B = rng.standard_normal((12, 4))
    Q = B @ B.T + 0.5 * np.eye(12)
    atoms = rng.standard_normal((9, 12))
    target = rng.dirichlet(np.ones(9)) @ atoms
    return {
        "lasso": gen_lasso(30, 60, 6, 0.1, 11, 3.0),
        "rankdef": gen_rankdef(40, 12, 5),
        "gaussian": (QuadraticObjective(Q, -Q @ target), VertexList(atoms)),
    }


@pytest.mark.parametrize("variant", [Variant.FCFW, Variant.MNP])
@pytest.mark.parametrize("name", ["lasso", "rankdef", "gaussian"])
@pytest.mark.parametrize("epsilon", [1e-8, 1e-14])
def test_corrections_end_with_the_state_at_their_iterate(variant, name, epsilon, monkeypatch):
    """After every FCFW and MNP correction, ``Qx``, the gradient and f of the state match
    ``Q @ x`` and ``obj.value(x)`` at the returned iterate within 1e-12 of their terms' scale
    |Q| |x|, and only that iterate's atom images stay cached.

    At eps=1e-14, below the rounding floor, FCFW's inner steps stall; each correction
    that stalled reset the state exactly at the iterate it returns, so there the state
    is bit for bit the one ``reset`` forms.
    """
    import polyfw.solvers as solvers

    obj, spec = _exact_state_problems()[name]
    resets, checked = [], []
    reset = QuadraticState.reset

    def counting_reset(self, it):
        resets.append(it)
        return reset(self, it)

    correction = getattr(solvers, f"{variant.value.lower()}_correction")

    def checking(state, it, *args):
        resets.clear()
        result = correction(state, it, *args)
        x = result.iterate.x
        Qx = obj.Q @ x
        scale = max(1.0, float(np.abs(obj.Q).max()) * float(np.abs(x).max()))
        assert np.abs(state.Qx - Qx).max() <= 1e-12 * scale
        assert np.abs(state.grad - (Qx + obj.b)).max() <= 1e-12 * scale
        assert abs(state.value - obj.value(x)) <= 1e-12 * scale * max(1.0, np.abs(x).sum())
        assert set(state.images) <= set(result.iterate.ids)
        if resets:  # an FCFW stall, the only correction path that resets
            assert variant is Variant.FCFW and resets == [result.iterate]
            np.testing.assert_array_equal(state.Qx, Qx)
            assert state.value == obj.value(x)
        checked.append(bool(resets))
        return result

    monkeypatch.setattr(QuadraticState, "reset", counting_reset)
    monkeypatch.setattr(solvers, f"{variant.value.lower()}_correction", checking)
    trace = solve(obj, spec, SolverConfig(variant, epsilon=epsilon, max_iter=300))
    assert trace.config_echo["exit_status"] in ("converged", "stall")
    assert checked and (variant is Variant.FCFW or not any(checked))
    if (variant, name, epsilon) == (Variant.FCFW, "lasso", 1e-14):
        assert any(checked)  # the stall path is exercised


def test_generic_objective_path_matches_quadratic():
    """Every variant but MNP runs on a plain ``Objective`` (slope-bisection steps).

    FW, AFW and PFW certify a 1e-9 gap, as on the exact quadratic path.
    FCFW certifies 1e-6.  Its inner stall rule compares values of f, which
    cannot tell iterates apart near the optimum, so at 1e-8 its run stops
    at that floor: ``converged`` or ``stall``, never ``error:``.
    """
    rng = np.random.default_rng(411)
    A = rng.standard_normal((8, 5))
    quad = QuadraticObjective.least_squares(A, rng.standard_normal(8))

    class Wrapped(Objective):
        dimension = 5

        def value(self, x):
            return quad.value(x)

        def gradient(self, x):
            return quad.gradient(x)

    for variant, eps in ((Variant.FW, 1e-9), (Variant.AFW, 1e-9), (Variant.PFW, 1e-9),
                         (Variant.FCFW, 1e-6)):
        cfg = SolverConfig(variant, epsilon=eps, max_iter=300)
        generic = solve(Wrapped(), Simplex(5), cfg)
        exact = solve(quad, Simplex(5), cfg)
        generic.validate()
        assert generic.config_echo["exit_status"] == "converged"
        assert abs(generic.records[-1].f_value - exact.records[-1].f_value) <= eps
    floor = solve(Wrapped(), Simplex(5), SolverConfig(Variant.FCFW, epsilon=1e-8, max_iter=300))
    floor.validate()
    assert floor.config_echo["exit_status"] in ("converged", "stall")
    with pytest.raises(TypeError):
        solve(Wrapped(), Simplex(5), SolverConfig(Variant.MNP, epsilon=1e-6, max_iter=10))


class SoftplusRidge(Objective):
    """f(x) = sum softplus(y) + 1/2 ||y||^2 with y = A x - c: g(Ax) for a strongly convex g."""

    def __init__(self, A, c):
        self.A, self.c = A, c
        self.dimension = A.shape[1]

    def value(self, x):
        y = self.A @ x - self.c
        return float(np.sum(np.logaddexp(0.0, y)) + 0.5 * y @ y)

    def gradient(self, x):
        y = self.A @ x - self.c
        # softplus' is the logistic sigmoid, written with tanh so it cannot overflow
        return self.A.T @ (0.5 * (1.0 + np.tanh(0.5 * y)) + y)


@pytest.mark.parametrize("variant", [Variant.AFW, Variant.PFW])
def test_away_and_pairwise_certify_small_gaps_on_non_quadratic(variant):
    """The paper's setting beyond quadratics: g strongly convex, A rank-deficient.

    A is 3x6, so f is not strongly convex, but the optimum of g(Ax) over
    the simplex is still reached at a linear rate by AFW and PFW.  The
    target is the image of a point on a random face, plus noise, so the
    optimum lies on a proper face (FW reaches ``max_iter`` here).
    """
    rng = np.random.default_rng(412)
    A = rng.standard_normal((3, 6))
    x_hat = np.zeros(6)
    x_hat[rng.choice(6, 3, replace=False)] = rng.dirichlet(np.ones(3))
    obj = SoftplusRidge(A, A @ x_hat + 0.1 * rng.standard_normal(3))
    trace = solve(obj, Simplex(6), SolverConfig(variant, epsilon=1e-9, max_iter=3000))
    trace.validate()
    assert trace.config_echo["exit_status"] == "converged"


def test_sub_floor_pairwise_step_leaves_state_in_place():
    """A PFW step whose exact gamma is below ``WEIGHT_FLOOR`` moves neither x nor the state.

    The next iteration would repeat it, so the run ends there as a stall.
    """
    obj = QuadraticObjective.distance_to(np.array([0.5 + 1e-15, 0.5 - 1e-15]))
    e1 = Atom(np.array([1.0, 0.0]))
    e2 = Atom(np.array([0.0, 1.0]))
    x0 = ActiveIterate.from_weights({e1: 0.5, e2: 0.5})
    trace = solve(obj, Simplex(2), SolverConfig(Variant.PFW, epsilon=1e-20, max_iter=3), x0=x0)
    assert trace.config_echo["exit_status"] == "stall"
    assert len(trace.records) == 0
    assert trace.config_echo["final_fw_gap"] > 0.0
    assert np.array_equal(trace.final_iterate.x, x0.x)


@pytest.mark.parametrize(
    "variant, stalls_at", [(Variant.PFW, 190), (Variant.MNP, 16), (Variant.FCFW, 16)]
)
def test_no_op_step_ends_run_as_stall_on_lasso_desk(variant, stalls_at):
    """At eps=1e-13, below their precision floor, PFW, MNP and FCFW stop at their first no-op.

    PFW's no-op is a pairwise step of gamma at most ``WEIGHT_FLOOR``; MNP's
    and FCFW's is a correction that returns the same active set and
    weights.  Neither repeats it up to ``max_iter`` or ends ``error:``.
    """
    from polyfw.bench import gen_lasso

    obj, spec = gen_lasso(50, 120, 12, 0.1, 7, 4.8)
    trace = solve(obj, spec, SolverConfig(variant, epsilon=1e-13, max_iter=3000))
    echo = trace.config_echo
    assert echo["exit_status"] == "stall"
    assert abs(len(trace.records) - stalls_at) <= 5
    assert 1e-13 < echo["final_fw_gap"] < 1e-10
    trace.validate()


def test_fcfw_stalls_at_mnp_floor_on_lasso_full():
    """FCFW at eps=1e-12 on lasso_full stops where MNP does (61 records), not at iteration 0."""
    from polyfw.bench import gen_lasso

    obj, spec = gen_lasso(200, 500, 50, 0.1, 42, 20.0)
    trace = solve(obj, spec, SolverConfig(Variant.FCFW, epsilon=1e-12, max_iter=3000))
    echo = trace.config_echo
    assert echo["exit_status"] == "stall"
    assert abs(len(trace.records) - 61) <= 5
    assert 1e-12 < echo["final_fw_gap"] < 1e-10
    trace.validate()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", sorted(_one_spec_of_each_type()))
def test_nonfinite_gradient_raises_from_solve(name, bad):
    """The solver's oracle skips the direction check; a bad gradient still raises ValueError."""
    spec = _one_spec_of_each_type()[name]
    rng = np.random.default_rng(413)
    # the mean of a few atoms: an optimum no AFW run reaches in three steps
    target = np.mean([spec.lmo(rng.standard_normal(4)).point for _ in range(6)], axis=0)
    quad = QuadraticObjective.distance_to(target)

    class TurnsNonfinite(Objective):
        dimension = 4
        calls = 0

        def value(self, x):
            return quad.value(x)

        def gradient(self, x):
            self.calls += 1
            grad = quad.gradient(x)
            if self.calls > 3:
                grad[1] = bad
            return grad

    obj = TurnsNonfinite()
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError, match="finite"):
        solve(obj, spec, SolverConfig(Variant.AFW, epsilon=1e-14, max_iter=50))
    assert obj.calls == 4


class _Capped(Objective):
    """Half the squared distance to (0.2, 0.5, 0.3), infinite where x_3 > 0.295."""

    dimension = 3
    quad = QuadraticObjective.distance_to(np.array([0.2, 0.5, 0.3]))

    def value(self, x):
        return self.quad.value(x) if x[2] <= 0.295 else np.inf

    def gradient(self, x):
        return self.quad.gradient(x)


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AFW, Variant.PFW, Variant.FCFW])
def test_nonfinite_value_ends_run_at_the_last_recorded_iterate(variant):
    """A step to a point where f is infinite ends the run with ``error:nonfinite``.

    The generic line search never evaluates f, so it can step there, and so
    can an inner step of FCFW's correction (in its second iteration here, so
    FCFW keeps one row).  The run keeps the rows before that step and ends at
    the iterate of the last row.
    """
    trace = solve(_Capped(), Simplex(3), SolverConfig(variant, epsilon=1e-9, max_iter=50))
    assert trace.config_echo["exit_status"] == "error:nonfinite"
    records = 1 if variant is Variant.FCFW else 2
    assert len(trace.records) >= records and np.isfinite(trace.f_values()).all()
    trace.validate()
    final = trace.final_iterate
    final.check()
    assert final.x[2] <= 0.295
    assert _Capped.quad.value(final.x) == trace.records[-1].f_value
    assert len(final) == trace.records[-1].active_size
    grad = _Capped.quad.gradient(final.x)
    assert trace.config_echo["final_fw_gap"] == pytest.approx(float(grad @ final.x - grad.min()))


@pytest.mark.parametrize("name", sorted(_one_spec_of_each_type()))
def test_generic_objective_gradient_checked_where_it_enters(name):
    """A plain ``Objective``'s gradient may be a list; a wrong shape raises ``ValueError``."""
    spec = _one_spec_of_each_type()[name]
    quad = QuadraticObjective.distance_to(np.array([0.1, 0.2, 0.3, 0.4]))

    class Gradient(Objective):
        dimension = 4

        def __init__(self, form):
            self.form = form

        def value(self, x):
            return quad.value(x)

        def gradient(self, x):
            return self.form(quad.gradient(x))

    cfg = SolverConfig(Variant.AFW, epsilon=1e-6, max_iter=50)
    as_list = solve(Gradient(lambda g: g.tolist()), spec, cfg)
    assert as_list.to_csv() == solve(Gradient(lambda g: g), spec, cfg).to_csv()
    assert as_list.config_echo["resyncs"] == 0  # the generic state recomputes every step
    for form in (lambda g: g[:3], lambda g: g[None, :]):
        with pytest.raises(ValueError, match="shape"):
            solve(Gradient(form), spec, cfg)


@pytest.mark.parametrize("variant", list(Variant))
def test_lmo_calls_in_header(variant, monkeypatch):
    """``lmo_calls`` counts every oracle call of a solve, the initial one included."""
    import polyfw.solvers as solvers

    calls = []
    original = solvers.lmo

    def counting(spec, r):
        calls.append(r)
        return original(spec, r)

    monkeypatch.setattr(solvers, "lmo", counting)
    rng = np.random.default_rng(414)
    A = rng.standard_normal((12, 8))
    obj = QuadraticObjective.least_squares(A, rng.standard_normal(12))
    for x0, max_iter in ((None, 400), (None, 3), (Simplex(8).lmo(np.ones(8)), 400)):
        calls.clear()
        trace = solve(obj, Simplex(8), SolverConfig(variant, epsilon=1e-9, max_iter=max_iter), x0=x0)
        echo = trace.config_echo
        assert echo["exit_status"] in ("converged", "max_iter")
        assert echo["lmo_calls"] == len(calls)
        assert len(calls) == (x0 is None) + len(trace.records) + (echo["exit_status"] != "max_iter")


@pytest.mark.parametrize("variant", [Variant.FW, Variant.AFW, Variant.PFW])
def test_resyncs_in_header(variant, monkeypatch):
    """``resyncs`` counts the state advances that hit a re-synthesized iterate."""
    from polyfw.bench import gen_lasso

    synced = []
    advance = QuadraticState.advance

    def counting(self, it, gamma):
        synced.append(it.synced)
        return advance(self, it, gamma)

    monkeypatch.setattr(QuadraticState, "advance", counting)
    obj, spec = gen_lasso(50, 120, 12, 0.1, 7, 4.8)
    trace = solve(obj, spec, SolverConfig(variant, epsilon=1e-8, max_iter=2000))
    assert len(trace.records) > RESYNTH_PERIOD
    assert trace.config_echo["resyncs"] == sum(synced) >= 1


def test_fcfw_adopts_exactly_the_active_atoms_and_s(monkeypatch):
    """FCFW's candidates are ``it``'s active rows under the very id objects of ``it.ids``, and ``s``.

    Each active row is wrapped by ``Atom._adopt`` with the id it already has,
    so no row is keyed again; a new ``s`` is offered as it is.
    """
    import polyfw.solvers as solvers

    built = []
    adopt = Atom._adopt.__func__

    def recording(cls, point, atom_id=None):
        built.append(adopt(cls, point, atom_id))
        return built[-1]

    monkeypatch.setattr(Atom, "_adopt", classmethod(recording))
    a, b, c = (Atom(p) for p in ([1.0, -0.0, 0.0], [-0.0, 1.0, 0.0], [0.0, -0.0, 1.0]))
    it = ActiveIterate.from_weights({a: 0.5, b: 0.5})
    obj = QuadraticObjective.distance_to(np.array([0.6, 0.1, 0.3]))
    result = fcfw_correction(obj.start(it), it, c, 1e-10)
    assert set(result.iterate.ids) == {a.id, b.id, c.id}

    offered = []
    monkeypatch.setattr(solvers, "_wolfe_step", lambda state, z, atom: (offered.append(atom), (z, 1))[1])
    for s in (c, a):  # c is new; a is active, so it adds no candidate
        built.clear()
        fcfw_correction(obj.start(it), it, s, 1e-10)
        assert len(built) == len(it.ids)
        assert all(atom.id is atom_id for atom, atom_id in zip(built, it.ids))
        assert all(atom.id == Atom(atom.point).id for atom in built)
    assert offered[0] is c and offered[1].id is it.ids[0]  # the least gradient value: c, then a


@pytest.mark.parametrize("error", [CorrectionPostconditionError, DegenerateActiveSetError])
@pytest.mark.parametrize("variant", [Variant.FCFW, Variant.MNP])
def test_correction_error_ends_run_with_partial_trace(variant, error, monkeypatch):
    """A correction that raises on its k-th call ends the run with ``error:<Type>``.

    The trace keeps the k - 1 completed iterations, and the final iterate
    is the one an unpatched run reaches in k - 1 iterations.  The header's
    ``inner_steps`` counts the completed corrections only.
    """
    import polyfw.solvers as solvers

    k = 3
    rng = np.random.default_rng(402)
    A = rng.standard_normal((12, 8))
    obj = QuadraticObjective.least_squares(A, rng.standard_normal(12))
    spec = Simplex(8)
    shorter = solve(obj, spec, SolverConfig(variant, epsilon=1e-9, max_iter=k - 1))
    longer = solve(obj, spec, SolverConfig(variant, epsilon=1e-9, max_iter=k))
    assert longer.config_echo["exit_status"] == "max_iter"
    assert "error" not in longer.config_echo

    name = "fcfw_correction" if variant is Variant.FCFW else "mnp_correction"
    original = getattr(solvers, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise error(f"forced failure on call {k}")
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, name, failing)
    trace = solve(obj, spec, SolverConfig(variant, epsilon=1e-9, max_iter=400))
    echo = trace.config_echo
    assert echo["exit_status"] == f"error:{error.__name__}"
    assert echo["error"] == f"forced failure on call {k}"
    assert echo["lmo_calls"] == 1 + k
    assert echo["inner_steps"] == shorter.config_echo["inner_steps"]
    assert len(calls) == k and len(trace.records) == k - 1
    assert trace.records == shorter.records
    trace.validate()
    trace.final_iterate.check()
    assert np.array_equal(trace.final_iterate.x, shorter.final_iterate.x)
    assert echo["final_fw_gap"] == longer.records[k - 1].fw_gap
    assert RunTrace.from_csv(trace.to_csv()).config_echo == echo


def _solve_to_exit(exit_status, monkeypatch):
    """A solve that ends with ``exit_status``, from the default start."""
    import polyfw.solvers as solvers
    from polyfw.bench import gen_lasso

    if exit_status == "converged":
        obj = QuadraticObjective.distance_to(np.array([0.1, 0.2, 0.3, 0.4]))
        return solve(obj, Simplex(4), SolverConfig(Variant.AFW, epsilon=1e-10, max_iter=500))
    obj, spec = gen_lasso(50, 120, 12, 0.1, 7, 4.8)
    if exit_status == "max_iter":
        return solve(obj, spec, SolverConfig(Variant.FW, epsilon=1e-12, max_iter=40))
    if exit_status == "stall":  # test_no_op_step_ends_run_as_stall_on_lasso_desk's PFW run
        return solve(obj, spec, SolverConfig(Variant.PFW, epsilon=1e-13, max_iter=3000))
    if exit_status == "error:nonfinite":
        return solve(_Capped(), Simplex(3), SolverConfig(Variant.FW, epsilon=1e-9, max_iter=50))
    original, calls = solvers.mnp_correction, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise CorrectionPostconditionError("forced failure on call 3")
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "mnp_correction", failing)
    rng = np.random.default_rng(402)
    obj = QuadraticObjective.least_squares(rng.standard_normal((12, 8)), rng.standard_normal(12))
    return solve(obj, Simplex(8), SolverConfig(Variant.MNP, epsilon=1e-9, max_iter=400))


@pytest.mark.parametrize("exit_status", [
    "converged", "max_iter", "stall", "error:nonfinite", "error:CorrectionPostconditionError",
])
def test_every_exit_returns_one_row_per_completed_iteration(exit_status, monkeypatch):
    """``solve`` fills the trace's columns from its rows when the run ends, on every exit.

    Each of the eight columns holds one entry per completed iteration: all of
    ``max_iter`` of them, else one fewer than the iteration that ended the run
    (``lmo_calls`` counts the start's oracle call and that iteration's).  The trace
    passes ``validate()``, round-trips through ``to_csv``/``from_csv`` unchanged,
    and ``RunTrace(records)`` rebuilds the same columns from its ``StepRecord``s.
    """
    trace = _solve_to_exit(exit_status, monkeypatch)
    echo = trace.config_echo
    assert echo["exit_status"] == exit_status
    n = echo["lmo_calls"] - (1 if exit_status == "max_iter" else 2)
    assert n >= 1 and list(trace.columns) == list(FIELDS)
    assert [len(col) for col in trace.columns.values()] == [n] * 8
    assert trace.columns["iteration"] == list(range(n)) and len(trace.records) == n
    trace.validate(echo["init_active_size"])
    text = trace.to_csv()
    back = RunTrace.from_csv(text)
    assert back.columns == trace.columns and back.config_echo == echo and back.to_csv() == text
    rebuilt = RunTrace(list(trace.records), echo)
    assert rebuilt.columns == trace.columns and rebuilt.to_csv() == text


@pytest.mark.parametrize("case", ["lasso_desk", "rankdef"])
def test_fcfw_converges_at_small_epsilon(case):
    """FCFW reaches 1e-8 where a capped inner loop once stalled, and agrees with MNP."""
    from polyfw.bench import gen_lasso, gen_rankdef

    obj, spec = gen_lasso(50, 120, 12, 0.1, 7, 4.8) if case == "lasso_desk" else gen_rankdef(10, 4, 3)
    traces = [solve(obj, spec, SolverConfig(v, epsilon=1e-8, max_iter=2000))
              for v in (Variant.FCFW, Variant.MNP)]
    for trace in traces:
        assert trace.config_echo["exit_status"] == "converged"
        trace.validate()
    f_fcfw, f_mnp = (trace.records[-1].f_value for trace in traces)
    assert abs(f_fcfw - f_mnp) <= 1e-8 + 1e-12 * abs(f_mnp)


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def _points_and_target(draw):
    """2-6 distinct integer points in R^2 or R^3 and a half-integer target."""
    d = draw(st.sampled_from([2, 3]))
    coords = st.tuples(*[st.integers(-4, 4)] * d)
    points = draw(st.lists(coords, min_size=2, max_size=6, unique=True))
    target = draw(st.tuples(*[st.integers(-10, 10)] * d))
    return np.array(points, dtype=np.float64), np.array(target, dtype=np.float64) / 2.0


@settings(max_examples=200, deadline=None)
@given(problem=_points_and_target())
def test_wolfe_corrections_project_onto_hull(problem):
    """MNP and FCFW (each repeated, as ``solve`` runs it) land on the projection by face
    inspection, and no minor cycle passes more often than it has atoms.

    With integer points and a half-integer target a nonzero FW gap is far
    above 1e-12, so a gap of at most 1e-12 means the exact projection.
    """
    from unittest import mock

    import polyfw.solvers as solvers

    points, target = problem
    expect, _ = ref.project_by_faces(points, target)
    obj = QuadraticObjective.distance_to(target)
    atoms = [Atom(p) for p in points]
    cycles = []
    wolfe = solvers._wolfe_step

    def recording(state, it, atom):
        out = wolfe(state, it, atom)
        cycles.append((out[1], len(it) + (it.index(atom.id) is None)))
        return out

    def oracle_atom(grad):
        return min(atoms, key=lambda a: float(a.point @ grad))

    corrections = {"MNP": mnp_correction,
                   "FCFW": lambda state, it, s: fcfw_correction(state, it, s, 1e-12)}
    with mock.patch.object(solvers, "_wolfe_step", recording):
        for name, correct in corrections.items():
            it = ActiveIterate.from_atom(atoms[0])
            state = obj.start(it)
            for _ in range(50):
                s = oracle_atom(state.grad)
                if float(state.grad @ (it.x - s.point)) <= 1e-12:
                    break
                it = correct(state, it, s).iterate
                state.reset(it)
            else:
                pytest.fail(f"{name} did not reach a FW gap of 1e-12")
            assert np.linalg.norm(it.x - expect) <= 1e-9
    assert all(passes <= size for passes, size in cycles)


# -- Wolfe's corral: kept across major cycles, one Gram row per new atom -------


def _path_mix(dag, paths, seed):
    """1/2 ||x - t||^2 for t a seeded convex combination of ``paths`` LMO paths of ``dag``."""
    rng = np.random.default_rng(seed)
    points = np.stack([dag.lmo(rng.standard_normal(dag.dimension)).point for _ in range(paths)])
    return QuadraticObjective.distance_to(rng.dirichlet(np.ones(paths)) @ points)


@pytest.mark.parametrize("variant, max_iter", [(Variant.MNP, 100), (Variant.FCFW, 8)])
def test_wolfe_corral_is_built_once_per_solve(variant, max_iter, monkeypatch):
    """A solve builds its corral from the empty one once, on its first major cycle.  Every
    later cycle keeps it and asks ``QuadraticState.image`` for the new atom's image alone,
    not for the image of each atom in the corral."""
    import polyfw.solvers as solvers

    dag = FlowDag(_layered_arcs(5, 16))  # the flow_paths benchmark DAG, 385 arcs
    obj = _path_mix(dag, 16, 0)
    builds, images, per_cycle = [], [], []
    grow, wolfe, image = solvers._corral_with, solvers._wolfe_step, QuadraticState.image

    def counting_grow(corral, atom_id, point, image):
        if not corral[0]:
            builds.append(atom_id)
        return grow(corral, atom_id, point, image)

    def counting_wolfe(state, it, atom):
        before = len(images)
        out = wolfe(state, it, atom)
        per_cycle.append(len(images) - before)
        return out

    def counting_image(self, atom_id, point):
        images.append(atom_id)
        return image(self, atom_id, point)

    monkeypatch.setattr(solvers, "_corral_with", counting_grow)
    monkeypatch.setattr(solvers, "_wolfe_step", counting_wolfe)
    monkeypatch.setattr(QuadraticState, "image", counting_image)
    trace = solve(obj, dag, SolverConfig(variant, epsilon=1e-8, max_iter=max_iter))
    assert trace.config_echo["exit_status"] == "max_iter"
    assert len(trace.records) == max_iter
    assert len(per_cycle) >= max_iter and len(builds) == 1
    assert per_cycle[0] == 2 and set(per_cycle[1:]) <= {0, 1}


def test_major_cycle_reads_h_from_the_kept_corral():
    """The second cycle of a solve solves with the kept H: doubling it moves the result."""
    import polyfw.solvers as solvers

    atoms = [Atom(p) for p in np.eye(3)]
    obj = QuadraticObjective.distance_to(np.array([0.5, 0.3, 0.2]))
    ends = []
    for poison in (1.0, 2.0):
        it = ActiveIterate.from_atom(atoms[0])
        state = obj.start(it)
        it = mnp_correction(state, it, atoms[1]).iterate
        ids, rows, images, H = state.corral
        state.corral = ids, rows, images, poison * H
        ends.append(solvers._wolfe_step(state, it, atoms[2])[0].x)
    np.testing.assert_allclose(ends[0], [0.5, 0.3, 0.2], atol=1e-12)
    assert np.abs(ends[1] - ends[0]).max() > 0.01


def test_major_cycle_iterate_shares_the_corral_rows():
    """The iterate a major cycle returns keeps the corral's rows, read-only, with no copy."""
    atoms = [Atom(p) for p in np.eye(3)]
    it = ActiveIterate.from_atom(atoms[0])
    state = QuadraticObjective.distance_to(np.array([0.5, 0.3, 0.2])).start(it)
    for atom in atoms[1:]:
        it = mnp_correction(state, it, atom).iterate
        assert it._store.rows is state.corral[1] and not it._store.rows.flags.writeable


@pytest.mark.parametrize("case", ["flowdag", "lasso", "triangle"])
def test_kept_corral_traces_match_a_corral_built_every_cycle(case, monkeypatch):
    """MNP and FCFW write the same bytes when every major cycle builds its corral afresh."""
    import json

    import polyfw.solvers as solvers
    from polyfw.bench import gen_lasso, gen_triangle

    starts = [None]
    if case == "flowdag":
        spec = FlowDag(_layered_arcs(4, 8))  # 120 arcs
        obj = _path_mix(spec, 6, 181)
    elif case == "lasso":
        obj, spec = gen_lasso(30, 60, 6, 0.1, 11, 3.0)
    else:
        obj, spec, _, _ = gen_triangle(math.pi / 8)
        atoms = spec.enumerate_atoms()
        rng = np.random.default_rng(8)
        starts += [
            ActiveIterate.from_weights(dict(zip(atoms, rng.dirichlet(np.ones(3)).tolist())))
            for _ in range(5)
        ]

    def outputs():
        out = []
        for variant in (Variant.MNP, Variant.FCFW):
            for x0 in starts:
                trace = solve(obj, spec, SolverConfig(variant, epsilon=1e-12, max_iter=60), x0=x0)
                out.append((trace.to_csv(), json.dumps(trace.config_echo)))
        return out

    kept = outputs()
    wolfe = solvers._wolfe_step

    def afresh(state, it, atom):
        state.corral = None
        return wolfe(state, it, atom)

    monkeypatch.setattr(solvers, "_wolfe_step", afresh)
    assert outputs() == kept


@st.composite
def _corral_runs(draw):
    """A quadratic with its minimizer inside the atoms' hull, the atoms, an MNP start, a
    cycle budget and the cycles that drop the corral first.  0/1 atoms get an integer Q
    and 1-sparse atoms any Q, so their Gram entries are exact; Gaussian atoms get a
    Gaussian Q."""
    kind = draw(st.sampled_from(["binary", "sparse", "gaussian"]))
    d, n, cycles = draw(st.integers(2, 8)), draw(st.integers(2, 14)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind == "binary":
        atoms = rng.integers(0, 2, (n, d)).astype(float)
        B = rng.integers(-2, 3, (d, d)).astype(float)
    else:
        B = rng.standard_normal((d, d))
        atoms = rng.standard_normal((n, d))
        if kind == "sparse":
            atoms = np.zeros((n, d))
            atoms[np.arange(n), rng.integers(0, d, n)] = rng.choice([-2.5, 2.5], n)
    atoms = np.unique(atoms, axis=0)
    Q = B @ B.T + np.eye(d)
    target = rng.dirichlet(np.ones(len(atoms))) @ atoms  # inside the hull: many cycles
    obj = QuadraticObjective(Q, -Q @ target)
    spec = VertexList(atoms)
    size = draw(st.integers(0, len(atoms)))
    x0 = None if not size else ActiveIterate.from_weights(
        dict(zip(spec.enumerate_atoms()[:size], rng.dirichlet(np.ones(size)).tolist()))
    )
    forget = draw(st.lists(st.booleans(), min_size=cycles, max_size=cycles))
    return kind, obj, spec, x0, cycles, forget


@settings(max_examples=150, deadline=None)
@given(run=_corral_runs())
def test_corral_matches_a_gram_matrix_formed_from_scratch(run):
    """After every major cycle of an MNP solve the corral is keyed by the iterate's ids, holds
    its rows in order, and its images and H equal those formed afresh (``corral_reference``):
    exactly on 0/1 and 1-sparse atoms, within 1e-12 of the terms' scale on Gaussian ones."""
    from unittest import mock

    import polyfw.solvers as solvers

    kind, obj, spec, x0, cycles, forget = run
    wolfe = solvers._wolfe_step
    checked = []

    def checking(state, it, atom):
        if forget[len(checked)]:
            state.corral = None
        out = wolfe(state, it, atom)
        ids, rows, images, H = state.corral
        assert ids == out[0].ids and np.array_equal(rows, out[0].matrix())
        _, ref_images, ref_H = ref.corral_reference(obj.Q, out[0])
        if kind == "gaussian":
            assert np.all(np.abs(images - ref_images) <= 1e-12 * (np.abs(rows) @ np.abs(obj.Q)))
            bound = np.abs(rows) @ np.abs(obj.Q) @ np.abs(rows).T
            assert np.all(np.abs(H - ref_H) <= 1e-12 * bound)
        else:
            assert np.array_equal(images, ref_images) and np.array_equal(H, ref_H)
        checked.append(len(ids))
        return out

    with mock.patch.object(solvers, "_wolfe_step", checking):
        trace = solve(obj, spec, SolverConfig(Variant.MNP, epsilon=1e-10, max_iter=cycles), x0=x0)
    assert len(checked) == len(trace.records)


@st.composite
def _away_atom_cases(draw):
    """An iterate of 1-40 distinct integer atoms in R^1-R^4 at weights c_j / sum(c), c_j in
    1..3, and an integer gradient, so every product <a_j, grad> is exact.  The sizes reach
    both sides of ``TIE_LIST_MAX``.  Unless the gradient is nonzero in R^1, one more atom,
    the top atom moved along a direction orthogonal to the gradient, ties the largest
    product, and half the time it also takes that atom's weight.  The atoms are shuffled, and
    in half the draws with a tie the two tied atoms are then moved to the first and the last
    position."""
    d = draw(st.integers(1, 4))
    coords = st.tuples(*[st.integers(-6, 6)] * d)
    n = draw(st.sampled_from([4, 12, TIE_LIST_MAX, 39]))
    low = 1 if n == 4 else (n + 1) // 2
    n = min(n, 13**d // 2)
    points = draw(st.lists(coords, min_size=min(low, n), max_size=n, unique=True))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(points), max_size=len(points)))
    grad = np.array(draw(coords), dtype=np.float64)
    top = max(range(len(points)), key=lambda j: float(np.dot(points[j], grad)))
    z = np.zeros(d, dtype=int)
    if d > 1:
        z[:2] = grad[1], -grad[0]
    if not z.any() and grad[0] == 0:
        z[0] = 1
    tie = tuple(int(v) for v in np.array(points[top]) + z)
    tied = z.any() and tie not in points
    if tied:
        points.append(tie)
        counts.append(counts[top] if draw(st.booleans()) else draw(st.integers(1, 3)))
    order = draw(st.permutations(range(len(points))))
    if tied and draw(st.booleans()):  # the tie at the ends
        ends = [top, len(points) - 1][:: 1 if draw(st.booleans()) else -1]
        order = [ends[0]] + [j for j in order if j not in ends] + [ends[1]]
    pts = np.array([points[j] for j in order], dtype=np.float64)
    w = np.array([counts[j] for j in order], dtype=np.float64)
    return ActiveIterate([Atom(p).id for p in pts], pts, w / w.sum()), grad


@settings(max_examples=400, deadline=None)
@given(case=_away_atom_cases())
def test_away_atom_matches_brute_force_reference(case):
    """``away_atom`` returns the position and the gap bits of ``away_atom_reference``, also
    where products tie exactly and the larger weight, then the larger id, decides, at sizes
    on both sides of ``TIE_LIST_MAX`` and with the tie at the first and the last position."""
    it, grad = case
    j, gap = away_atom(it, grad)
    ref_j, ref_gap = ref.away_atom_reference(it.ids, it.matrix(), it.w, grad, it.x)
    assert j == ref_j
    assert np.float64(gap).tobytes() == np.float64(ref_gap).tobytes()
