"""Width machinery: faces, pyramidal width, diameter, constants."""

import itertools
import os
import subprocess
import sys
from dataclasses import astuple
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfw.geometry import (
    _bits,
    _diameter,
    _face_lattice,
    _hull_facets,
    _slab_bounds,
    analytic_diameter,
    analytic_pwidth,
    eccentricity,
    enumerate_faces,
    linear_rate,
    polytope_diameter,
    pwidth,
    rate_constant,
)
from polyfw.bench import reference_optimum
from polyfw.core import StepKind
from polyfw.objectives import QuadraticObjective
from polyfw.oracles import Cube, FlowDag, L1Ball, Simplex, VertexList
from polyfw.solvers import SolverConfig, Variant, solve

import oracles as ref
from test_oracles import _layered_arcs


def points_of(spec):
    return [a.point for a in spec.enumerate_atoms()]


def identity_obj(d):
    return QuadraticObjective(np.eye(d), np.zeros(d))


def test_pdirw_pinned_examples():
    r = np.array([-1.0, -1.0]) / np.sqrt(2)
    width, x = ref.pdirw_bruteforce, np.array([0.5, 0.5])
    assert width(points_of(Cube(2)), r, x) == pytest.approx(1 / np.sqrt(2))
    assert width(points_of(Simplex(2)), np.array([1.0, -1.0]), x) == pytest.approx(np.sqrt(2))


def test_pdirw_at_vertex_base_point():
    # only candidate active set is {x}, so the value is max_s <r_hat, s - x>
    atoms = points_of(Cube(2))
    x = np.zeros(2)
    r = np.array([1.0, 0.0])
    assert ref.pdirw_bruteforce(atoms, r, x) == pytest.approx(1.0)


def test_enumerate_faces_counts():
    cases = [
        (Cube(2), 9),
        (Cube(3), 27),
        (Simplex(2), 3),
        (Simplex(3), 7),
        (Simplex(4), 15),
    ]
    for spec, expected in cases:
        pts = np.array(points_of(spec))
        faces = enumerate_faces(pts)
        assert len(faces) == expected
        full = frozenset(range(len(pts)))
        assert full in faces


def test_pwidth_matches_analytic_small_cases():
    cases = [
        (Cube(2), ref.PWIDTH_CUBE[2]),
        (Simplex(2), ref.PWIDTH_SIMPLEX[2]),
        (Simplex(3), ref.PWIDTH_SIMPLEX[3]),
    ]
    for spec, expected in cases:
        rep = pwidth(points_of(spec))
        assert rep.pwidth_estimate == pytest.approx(expected, rel=0.02)
        assert rep.pwidth_estimate > 0


def test_pwidth_exact_on_analytic_families():
    specs = ([Cube(d) for d in range(2, 7)] + [Simplex(d) for d in range(2, 8)]
             + [L1Ball(d, 2.5) for d in range(1, 8)])
    for spec in specs:
        expected = analytic_pwidth(spec)
        got = pwidth(points_of(spec)).pwidth_estimate
        assert abs(got - expected) <= 1e-9 * expected, (spec.to_json(), got, expected)


def witness_inputs():
    rng = np.random.default_rng(504)
    hull = rng.standard_normal((6, 3))
    interior = hull[:4].mean(axis=0)  # strictly inside, on no face
    theta = np.pi / 16
    return [
        points_of(Cube(2)),
        points_of(Cube(3)),
        points_of(Simplex(4)),
        [np.zeros(2), np.array([1.0, 0.0]), np.array([np.cos(theta), np.sin(theta)])],
        list(hull) + [interior],
    ]


def test_pwidth_witness_reproduces_estimate():
    # the cone-LP reference along the witness direction, and the subset-enumeration
    # pyramidal directional width at its base point
    for atoms in witness_inputs():
        rep = pwidth(atoms)
        value, face, r, base = ref.pwidth_lp_witness(atoms, rep.witness["direction"])
        assert abs(value - rep.pwidth_estimate) <= 1e-12
        assert abs(ref.pdirw_bruteforce(face, r, base) - rep.pwidth_estimate) <= 1e-12


def test_pwidth_witness_is_a_facial_pair_at_the_width():
    for atoms in witness_inputs():
        rep = pwidth(atoms)
        w = rep.witness
        mat = np.array(atoms)
        a, b = np.array(w["face_point"]), np.array(w["other_point"])
        assert np.array_equal(mat[w["face_indices"]], np.array(w["face_atoms"]))
        assert ref._contains(np.array(w["face_atoms"]), a)
        assert ref._contains(np.delete(mat, w["face_indices"], axis=0), b)
        assert abs(np.linalg.norm(a - b) - rep.pwidth_estimate) <= 1e-12
        assert np.allclose(np.array(w["direction"]) * rep.pwidth_estimate, a - b, atol=1e-15)


@lru_cache(maxsize=None)
def pruning_inputs():
    """Inputs the face pruning is checked on.

    Cube(2-4), Simplex(2-8), 24 seeded random sets (d 2-6, n <= 12), a
    collinear set, a square with a point inside an edge, and ``witness_inputs()``.
    """
    out = [points_of(Cube(d)) for d in (2, 3, 4)] + [points_of(Simplex(d)) for d in range(2, 9)]
    for seed in range(24):
        rng = np.random.default_rng([1700, seed])
        d = int(rng.integers(2, 7))
        out.append(list(rng.standard_normal((int(rng.integers(d + 1, 13)), d))))
    out.append([np.array([t, t]) for t in (0.0, 1.0, 3.0, 2.0)])
    out.append([np.array(p) for p in ([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.0])])
    return out + witness_inputs()


@lru_cache(maxsize=None)
def all_faces_reference(k):
    return ref.pwidth_all_faces(pruning_inputs()[k])


def test_pwidth_matches_the_all_faces_reference_bit_for_bit():
    for k, atoms in enumerate(pruning_inputs()):
        rep, want = pwidth(atoms), all_faces_reference(k)
        assert rep.pwidth_estimate == want["pwidth_estimate"], k
        for key in ("face_indices", "face_point", "other_point"):
            assert rep.witness[key] == want[key], (k, key)
        assert rep.faces_enumerated == len(want["distances"]) + 1
        assert rep.directions_sampled <= rep.faces_enumerated - 1


def test_slab_bounds_never_exceed_the_facial_distance():
    for k, atoms in enumerate(pruning_inputs()):
        faces, proj, facets, normals = _face_lattice(np.array(atoms))
        sets, distances = enumerate_faces(np.array(atoms)), all_faces_reference(k)["distances"]
        bounds = _slab_bounds(faces, proj, facets, normals)
        assert len(bounds) == len(distances)
        for bound, index in bounds:
            assert bound <= distances[sets[index]] * (1.0 + 1e-12), (k, sorted(sets[index]))


def test_face_masks_match_the_frozenset_reference():
    """Same faces in the same order and the same facets, with normals within 1e-12, on
    every pruning input and on 16 Gaussian atoms in R^8 (7,969 faces)."""
    gauss = np.random.default_rng(0).standard_normal((16, 8))
    for k, atoms in enumerate([*pruning_inputs(), gauss]):
        faces, proj, facet_sets, normals = ref.face_lattice_reference(np.array(atoms))
        _, _, facets, got_normals = _face_lattice(np.array(atoms))
        assert enumerate_faces(np.array(atoms)) == faces, k
        got = {frozenset(np.flatnonzero(row).tolist()): v
               for row, v in zip(_bits(facets, len(proj)), got_normals)}
        assert len(got) == len(facets) and set(got) == set(facet_sets), k
        for facet, normal in zip(facet_sets, normals):
            assert np.abs(got[facet] - normal).max() <= 1e-12, (k, sorted(facet))
    assert len(faces) == 7969


def hull_oracle_inputs():
    """The pruning inputs, 16 Gaussian atoms in R^8, Cube(5) and Cube(6), Simplex(10, 16,
    30), two layered flow DAGs and 20 seeded sets of up to 40 points in R^2 to R^7."""
    out = [np.array(atoms) for atoms in pruning_inputs()]
    out.append(np.random.default_rng(0).standard_normal((16, 8)))
    out += [np.array(points_of(spec)) for spec in (Cube(5), Cube(6), Simplex(10), Simplex(16),
                                                    Simplex(30))]
    out += [np.array(points_of(layered_flow_dag(*shape))) for shape in ((3, 2), (2, 4))]
    for seed in range(20):
        rng = np.random.default_rng([2900, seed])
        d = int(rng.integers(2, 8))
        out.append(rng.standard_normal((int(rng.integers(d + 1, 41)), d)))
    return out


def assert_hull_facets_match_qhull(proj, label=None):
    masks, normals = _hull_facets(proj)
    want = ref.hull_facets_reference(proj)
    got = {frozenset(np.flatnonzero(row).tolist()): v
           for row, v in zip(_bits(masks, len(proj)), normals)}
    assert list(masks) == sorted(masks) and len(got) == len(masks), label
    assert set(got) == set(want), label
    assert max(np.abs(got[facet] - want[facet]).max() for facet in want) <= 1e-12, label
    return len(masks)


def test_hull_facets_match_qhull_at_every_scale():
    """The double-description facets are qhull's facet sets, normals within 1e-12, on 69
    inputs, each scaled from 1e-20 to 1e6."""
    inputs = hull_oracle_inputs()
    assert len(inputs) == 69
    checked = 0
    for k, atoms in enumerate(inputs):
        for scale in (1e-20, 1e-10, 1e-3, 1.0, 1e6):
            proj = ref.affine_projection(atoms * scale)
            if proj.shape[1] > 1:
                assert_hull_facets_match_qhull(proj, (k, scale))
                checked += 1
    assert checked == 5 * 67  # the collinear sets have rank 1


def test_hull_facets_of_64_gaussian_atoms_in_r6():
    """2,043 facets, blocks of cover tests keep the peak well under 64 MB."""
    import tracemalloc

    proj = ref.affine_projection(np.random.default_rng(0).standard_normal((64, 6)))
    tracemalloc.start()
    try:
        _hull_facets(proj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak
    assert assert_hull_facets_match_qhull(proj) == 2043


def test_hull_facets_cap_their_cones_on_the_l1_ball_in_r30(tmp_path, capsys):
    """L1Ball(30) has 2^30 facets.  The enumeration stops once a cone passes FACE_CAP rays,
    and blocks of pair products keep the peak well under 64 MB; ``polyfw pwidth`` reports it
    and exits 2.  On a 2-vCPU x86_64 host the peak was about 24 MB and the test took 1.5 s."""
    import tracemalloc

    from polyfw import cli

    atoms = points_of(L1Ball(30, 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 65536 rays"):
            pwidth(atoms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, peak
    csv = tmp_path / "l1ball30.csv"
    np.savetxt(csv, atoms, delimiter=",")
    assert cli.main(["pwidth", str(csv)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


def test_face_lattice_limits(monkeypatch):
    from polyfw import geometry

    def no_hull(*args, **kwargs):
        raise AssertionError("_hull_facets ran")

    atoms = np.random.default_rng(65).standard_normal((65, 3))
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_hull_facets", no_hull)
        for call in (pwidth, enumerate_faces):
            with pytest.raises(ValueError, match="limited to 64 atoms"):
                call(atoms)
    monkeypatch.setattr(geometry, "FACE_CAP", 26)  # Cube(3) has 27 faces
    with pytest.raises(ValueError, match="more than 26 faces"):
        pwidth(points_of(Cube(3)))
    monkeypatch.setattr(geometry, "FACE_CAP", 27)
    assert pwidth(points_of(Cube(3))).faces_enumerated == 27


def layered_flow_dag(width, layers):
    """Source, ``layers`` full bipartite layers of ``width`` nodes, sink: width^layers paths."""
    arcs = [("s", f"0_{j}") for j in range(width)]
    for layer in range(layers - 1):
        arcs += [(f"{layer}_{i}", f"{layer + 1}_{j}") for i in range(width) for j in range(width)]
    return FlowDag(arcs + [(f"{layers - 1}_{j}", "t") for j in range(width)])


def test_pwidth_pins_on_layered_flow_dags():
    """Pinned (faces solved, faces) and widths; with at most 16 paths each, the
    frozenset lattice gave the same values."""
    for (width, layers), counts, expected in (((3, 2), (12, 511), 0.7071067811865476),
                                              ((2, 4), (8, 711), 0.5773502691896257)):
        rep = pwidth(points_of(layered_flow_dag(width, layers)))
        assert (rep.directions_sampled, rep.faces_enumerated) == counts, (width, layers)
        assert rep.pwidth_estimate == expected, (width, layers)


def test_pwidth_solves_only_the_faces_its_bounds_cannot_rule_out():
    # a timing-free guard on the pruning; atoms in enumerate_atoms order
    for spec, solved, faces in ((Cube(3), 8, 27), (Simplex(5), 20, 31),
                                (Cube(4), 16, 81), (Simplex(8), 70, 255)):
        rep = pwidth(points_of(spec))
        assert (rep.directions_sampled, rep.faces_enumerated) == (solved, faces), spec.to_json()


def test_pwidth_runs_no_lp(monkeypatch):
    from polyfw import geometry

    def no_lp(*args, **kwargs):
        raise AssertionError("pwidth called linprog")

    monkeypatch.setattr(geometry, "linprog", no_lp)
    assert pwidth(points_of(Cube(3))).pwidth_estimate == pytest.approx(ref.PWIDTH_CUBE[3])


def test_pwidth_refuses_a_face_that_touches_the_other_atoms(monkeypatch):
    """With no tolerance on facet membership, an atom on an edge of the triangle, off it by
    rounding, is no member of that edge: the edge's hull touches the other atoms' hull."""
    import polyfw.geometry as geometry

    monkeypatch.setattr(geometry, "FACET_TOL", 0.0)
    with pytest.raises(ValueError, match="touches the other atoms' hull"):
        pwidth(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1 / 3, 2 / 3]]))


@pytest.mark.parametrize("atoms", [[0.0, 1.0], np.zeros((0, 2)), []],
                         ids=["1d", "no_rows", "empty"])
def test_pwidth_refuses_an_atom_set_that_is_no_nonempty_matrix(atoms):
    with pytest.raises(ValueError, match="nonempty 2-d matrix"):
        pwidth(atoms)


def test_pwidth_scale_covariant():
    atoms = points_of(Simplex(3))
    base = pwidth(atoms).pwidth_estimate
    scaled = pwidth([3.0 * a for a in atoms]).pwidth_estimate
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


@pytest.mark.parametrize(
    "spec", [Cube(2), Cube(3), Simplex(3), Simplex(5)],
    ids=["cube2", "cube3", "simplex3", "simplex5"],
)
def test_faces_and_pwidth_keep_their_scale_from_1e_minus_11_to_1e6(spec):
    """Facet membership is relative to the points' spread, MNP's postcondition to the size
    of its terms and the degenerate-set floor to the diameter, so neither a tiny (down to
    1e-20) nor a large copy of a set loses faces or fails."""
    atoms = np.array(points_of(spec))
    faces, expected = len(enumerate_faces(atoms)), analytic_pwidth(spec)
    for scale in 10.0 ** np.array([-20, -14, -11, -9, -6, -3, 0, 3, 6]):
        assert len(enumerate_faces(scale * atoms)) == faces, scale
        got = pwidth(scale * atoms).pwidth_estimate
        assert abs(got / (scale * expected) - 1.0) <= 1e-15, (scale, got)


def test_pwidth_orthogonal_invariant():
    rng = np.random.default_rng(503)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    atoms = points_of(Simplex(3))
    base = pwidth(atoms).pwidth_estimate
    rotated = pwidth([q @ a for a in atoms]).pwidth_estimate
    assert abs(rotated - base) <= 1e-9


def test_analytic_pwidth_frozen_values():
    assert analytic_pwidth(Cube(2)) == pytest.approx(ref.PWIDTH_CUBE[2])
    assert analytic_pwidth(Cube(3)) == pytest.approx(ref.PWIDTH_CUBE[3])
    assert analytic_pwidth(Simplex(2)) == pytest.approx(ref.PWIDTH_SIMPLEX[2])
    assert analytic_pwidth(Simplex(3)) == pytest.approx(ref.PWIDTH_SIMPLEX[3])
    assert analytic_pwidth(Simplex(4)) == pytest.approx(ref.PWIDTH_SIMPLEX[4])
    assert analytic_pwidth(VertexList([[0.0, 0.0], [1.0, 0.0]])) is None


def test_eccentricity_pinned():
    assert eccentricity(Simplex(4)) == pytest.approx(2.0)
    assert eccentricity(Cube(4)) == pytest.approx(16.0)
    assert eccentricity(Simplex(2)) == pytest.approx(1.0)
    # M = 2r and delta = r / sqrt(d - 1); L1Ball(30)'s 60 atoms are past the facet enumeration
    for d, r in [(2, 1.0), (3, 2.5), (6, 1e-3), (30, 1.6)]:
        assert eccentricity(L1Ball(d, r)) == pytest.approx(4.0 * (d - 1))


def test_rate_constant_needs_a_quadratic():
    from polyfw.objectives import Objective

    with pytest.raises(TypeError, match="quadratics"):
        rate_constant(Objective(), Simplex(2))


def test_rate_constant_identity_simplex():
    rc = rate_constant(identity_obj(2), Simplex(2))
    assert linear_rate("AFW", *astuple(rc)) == pytest.approx(0.25)
    assert linear_rate("PFW", *astuple(rc)) == pytest.approx(0.5)
    assert rc.mu == pytest.approx(1.0)
    assert rc.L == pytest.approx(1.0)
    assert rc.delta ** 2 == pytest.approx(2.0)


def test_rate_constant_identity_cube3():
    rc = rate_constant(identity_obj(3), Cube(3))
    assert linear_rate("AFW", *astuple(rc)) == pytest.approx(1.0 / 36.0)
    assert linear_rate("PFW", *astuple(rc)) == pytest.approx(min(0.5, 1.0 / 9.0))


def test_exact_constants_against_eigensolve():
    rng = np.random.default_rng(305)
    A = rng.standard_normal((8, 5))
    f = QuadraticObjective.least_squares(A, rng.standard_normal(8))
    L, mu, M = f.smoothness, f.strong_convexity, polytope_diameter(Simplex(5))
    eigs = np.linalg.eigvalsh(2.0 * A.T @ A)
    assert L == pytest.approx(float(eigs[-1]), rel=1e-10)
    assert mu == pytest.approx(float(eigs[0]), abs=1e-8)
    assert M == pytest.approx(np.sqrt(2.0))


def test_exact_constants_pinned_diameters():
    f = QuadraticObjective(np.diag([1.0, 4.0, 1.0, 1.0]), np.zeros(4))
    assert polytope_diameter(Cube(4)) == pytest.approx(2.0)
    assert polytope_diameter(L1Ball(3, 5.0)) == pytest.approx(10.0)
    assert f.smoothness == pytest.approx(4.0)
    assert f.strong_convexity == pytest.approx(1.0)


def test_analytic_diameter_matches_enumerated():
    specs = [Simplex(4), Cube(3), L1Ball(3, 2.5)]
    for spec in specs:
        assert analytic_diameter(spec) == pytest.approx(_diameter(np.stack(points_of(spec))))
    v = VertexList([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
    assert analytic_diameter(v) is None
    assert polytope_diameter(v) == pytest.approx(5.0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       offset=st.sampled_from([0.0, 1e2, 1e4, 1e6, 1e8]))
def test_diameter_keeps_its_digits_under_translation(n, d, seed, offset):
    """The diameter of translated atoms is the largest pairwise norm of the stored rows."""
    rows = np.random.default_rng(seed).standard_normal((n, d)) + offset
    expected = max(float(np.linalg.norm(a - b)) for a in rows for b in rows)
    assert abs(polytope_diameter(VertexList(rows)) - expected) <= 1e-12 * expected


def test_pwidth_keeps_its_digits_under_translation():
    """The width of translated atoms is the width of the stored rows minus their first row,
    to the bit, and the witness is that of the relative rows moved back by the first row."""
    for seed in range(5):
        atoms = np.random.default_rng([2901, seed]).standard_normal((6, 3))
        for offset in (1e4, 1e6, 1e8):
            rows = atoms + offset
            rep, rel = pwidth(rows), pwidth(rows - rows[0])
            assert rep.pwidth_estimate == rel.pwidth_estimate, (seed, offset)
            assert rep.witness["face_indices"] == rel.witness["face_indices"]
            assert rep.witness["direction"] == rel.witness["direction"]
            for key in ("face_point", "other_point"):
                assert rep.witness[key] == (np.array(rel.witness[key]) + rows[0]).tolist()


def test_pwidth_rejects_atoms_whose_differences_are_not_finite():
    for rows in ([[0.0, np.nan], [1.0, 0.0], [0.0, 1.0]], [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="finite"):
            pwidth(rows)


def test_translated_triangle_keeps_its_rate_constants():
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for offset in (0.0, 1e8):
        spec = VertexList(triangle + offset)
        assert eccentricity(spec) == pytest.approx(4.0, rel=1e-12)
        rc = rate_constant(identity_obj(2), spec)
        assert linear_rate("AFW", *astuple(rc)) == pytest.approx(0.0625, rel=1e-12)


@pytest.mark.parametrize("constant", [eccentricity, lambda d: rate_constant(identity_obj(8), d)],
                         ids=["eccentricity", "rate_constant"])
def test_constants_enumerate_a_spec_once(constant, monkeypatch):
    calls = []
    enumerate_atoms = FlowDag.enumerate_atoms
    monkeypatch.setattr(FlowDag, "enumerate_atoms",
                        lambda self: calls.append(self) or enumerate_atoms(self))
    constant(FlowDag(_layered_arcs(2, 3)))
    assert len(calls) == 1


def test_linear_rate_refuses_zero_curvature_or_diameter():
    """Theorem 1 gives no rate when L M^2 = 0; a NaN base must not pass as pfw = min(1/2, nan)."""
    rc = rate_constant(QuadraticObjective(np.zeros((3, 3)), [1, 0, 0]), Simplex(3))
    with pytest.raises(ValueError, match=r"L = 0\.0 and M = 1\.41"):
        linear_rate("AFW", *astuple(rc))
    with pytest.raises(ValueError, match=r"L = 1\.0 and M = 0\.0"):
        linear_rate("PFW", 1.0, 1.0, 1.0, 0.0)
    assert linear_rate("FW", 0.0, 0.0, 1.0, 0.0) is None


def test_linear_rate_table():
    mu, L, delta, M = 0.5, 2.0, 0.75, 1.5
    base = mu * delta ** 2 / (L * M ** 2)
    assert linear_rate("FW", mu, L, delta, M) is None
    for variant in ("AFW", "FCFW", "MNP"):
        assert linear_rate(variant, mu, L, delta, M) == base / 4.0
    assert linear_rate(Variant.PFW, mu, L, delta, M) == base
    assert linear_rate(Variant.PFW, 1.0, 1.0, 3.0, 1.0) == 0.5
    assert linear_rate("afw", mu, L, delta, M) == base / 4.0  # a name in any case
    assert linear_rate("Pfw", mu, L, delta, M) == base


@lru_cache(maxsize=None)
def theorem1_instances():
    """60 seeded point sets (d 2-4, d+1 to 8 points) and 12 seeded l1 balls (d 3-5, closed-form
    delta, f* by projection), each with 1/2 ||x - t||^2: mu = L = 1."""
    out = []
    for seed in range(60):
        rng = np.random.default_rng([1600, seed])
        d = int(rng.integers(2, 5))
        points = rng.standard_normal((int(rng.integers(d + 1, 9)), d))
        obj = QuadraticObjective.distance_to(1.5 * rng.standard_normal(d))
        spec = VertexList(points)
        delta = pwidth(points).pwidth_estimate
        out.append((obj, spec, delta, polytope_diameter(spec), reference_optimum(obj, spec)))
    for (d, r), seed in itertools.product([(3, 1.0), (4, 2.5), (5, 0.5)], range(4)):
        target = r * np.random.default_rng([1601, d, seed]).standard_normal(d)
        obj, spec = QuadraticObjective.distance_to(target), L1Ball(d, r)
        f_star = obj.value(ref.project_to_l1ball(target, r))
        out.append((obj, spec, analytic_pwidth(spec), polytope_diameter(spec), f_star))
    return out


@pytest.mark.parametrize("variant", [Variant.AFW, Variant.PFW, Variant.FCFW, Variant.MNP])
def test_linear_rate_bounds_every_good_step(variant):
    """Theorem 1: h_{t+1} <= (1 - rho) h_t on each step that is neither a drop nor a swap."""
    good = 0
    violations = []
    for k, (obj, spec, delta, M, f_star) in enumerate(theorem1_instances()):
        rho = linear_rate(variant, 1.0, 1.0, delta, M)
        trace = solve(obj, spec, SolverConfig(variant, epsilon=1e-12, max_iter=1000))
        assert trace.config_echo["exit_status"] == "converged"
        h_prev = trace.config_echo["f0"] - f_star
        for t, (kind, f) in enumerate(zip(trace.columns["kind"], trace.columns["f_value"])):
            h = f - f_star
            if kind not in (StepKind.DROP, StepKind.SWAP) and h_prev > 1e-10:
                good += 1
                if not h <= (1.0 - rho) * h_prev + 1e-12:
                    violations.append((k, t, h_prev, h, rho))
            h_prev = h
    assert not violations
    assert good >= 100


def test_affine_constant_sandwich_simplex2():
    est = ref.estimate_affine_constants(identity_obj(2), Simplex(2), n_samples=200, seed=0)
    # sampled upper bound of the geometric strong convexity constant
    assert est.mu_fA_hat >= 1.0 * 2.0 - 1e-9
    # sampled lower bound of the curvature constant, itself at most L * diam^2
    assert est.C_f_hat <= 1.0 * 2.0 + 1e-9
    assert est.C_fA_hat <= est.C_f_hat + 1e-9 or est.C_fA_hat <= 1.0 * 2.0 + 1e-6
    assert est.mu <= est.L


def test_affine_constants_require_min_samples():
    with pytest.raises(ValueError):
        ref.estimate_affine_constants(identity_obj(2), Simplex(2), n_samples=50)


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import polyfw, sys; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def run_fresh(code, *args):
    """Run code in a fresh interpreter that imports polyfw from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, check=True)


def test_solve_run_and_rate_leave_scipy_unloaded(tmp_path):
    code = """
import sys
from pathlib import Path
import polyfw
from polyfw import cli
obj, spec = polyfw.gen_lasso(20, 40, 5, 0.1, 7, 2.0)
for variant in polyfw.Variant:
    polyfw.solve(obj, spec, polyfw.SolverConfig(variant, epsilon=1e-6, max_iter=50))
config = polyfw.ExperimentConfig.from_json({
    "name": "tri",
    "problem": {"kind": "triangle", "thetas": [0.5], "n_starts": 1, "rng_seed": 3},
    "variants": ["PFW"],
    "max_iter": 100,
})
out = Path(sys.argv[1])
polyfw.run_experiment(config, out)
assert cli.main(["rate", str(sorted(out.glob("*.csv"))[0])]) == 0
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
assert not loaded, loaded
"""
    run_fresh(code, tmp_path / "runs")


def test_pwidth_faces_and_rate_constant_leave_scipy_unloaded():
    code = """
import sys
import numpy as np
from polyfw import geometry
from polyfw.objectives import QuadraticObjective
from polyfw.oracles import Cube, VertexList
atoms = [a.point for a in Cube(3).enumerate_atoms()]
geometry.pwidth(atoms)
geometry.enumerate_faces(np.array(atoms))
geometry.rate_constant(QuadraticObjective(np.eye(3), np.zeros(3)), VertexList(atoms))
loaded = [m for m in sys.modules if m.startswith("scipy")]
assert not loaded, loaded
"""
    run_fresh(code)


def test_vertex_addition_spot_check_logged():
    # conjecture only: adding vertices should not increase the width;
    # printed for inspection, deliberately not asserted
    for d in (2, 3):
        s = pwidth(points_of(Simplex(d))).pwidth_estimate
        c = pwidth(points_of(Cube(d))).pwidth_estimate
        print(f"d={d}: simplex pwidth {s:.6f}, cube pwidth {c:.6f}")
        assert s > 0 and c > 0
