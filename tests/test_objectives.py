"""Objective values, gradients, line search, and curvature constants."""

import tracemalloc

import numpy as np
import pytest

from polyfw.core import ActiveIterate, Atom, atom_key
from polyfw.objectives import Objective, QuadraticObjective, QuadraticState
from polyfw.oracles import FlowDag, Simplex
from polyfw.solvers import SolverConfig, Variant, solve


def _random_quadratic(rng, d):
    A = rng.standard_normal((d + 2, d))
    y = rng.standard_normal(d + 2)
    return QuadraticObjective.least_squares(A, y)


def _symmetric(rng, d):
    M = rng.standard_normal((d, d))
    return M @ M.T


def test_value_pinned_examples():
    f = QuadraticObjective(np.eye(2), np.zeros(2))
    v, g = f.value_and_gradient(np.array([3.0, 4.0]))
    assert v == pytest.approx(12.5)
    assert np.allclose(g, [3.0, 4.0])

    f = QuadraticObjective(np.diag([1.0, 4.0]), np.zeros(2))
    v, g = f.value_and_gradient(np.array([1.0, 1.0]))
    assert v == pytest.approx(2.5)
    assert np.allclose(g, [1.0, 4.0])


def test_least_squares_gradient_vanishes_at_solution():
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    y = np.array([1.0, 1.0])
    f = QuadraticObjective.least_squares(A, y)
    g = f.gradient(np.array([1.0, 0.5]))
    assert np.allclose(g, 0.0, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(301)
    for d in (3, 6):
        f = _random_quadratic(rng, d)
        for _ in range(25):
            x = rng.standard_normal(d)
            g = f.gradient(x)
            fd = np.zeros(d)
            h = 1e-6
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd[i] = (f.value(x + e) - f.value(x - e)) / (2 * h)
            denom = max(1.0, float(np.linalg.norm(g)))
            assert np.linalg.norm(fd - g) / denom < 1e-5


def test_line_search_pinned_examples():
    f = QuadraticObjective(np.eye(2), np.zeros(2))
    assert f.line_search(np.array([1.0, 1.0]), np.array([-1.0, -1.0]), 1.0) == pytest.approx(1.0)
    assert f.line_search(np.array([1.0, 0.0]), np.array([-1.0, 0.0]), 0.25) == pytest.approx(0.25)

    f = QuadraticObjective(np.diag([1.0, 4.0]), np.zeros(2))
    assert f.line_search(np.array([1.0, 1.0]), np.array([0.0, -1.0]), 1.0) == pytest.approx(1.0)


def test_line_search_non_descent_returns_zero():
    f = QuadraticObjective(np.eye(2), np.zeros(2))
    assert f.line_search(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0) == 0.0


def test_line_search_on_a_linear_objective():
    """With Q = 0, f is linear: a descent direction goes all the way, any other stays put."""
    f = QuadraticObjective(np.zeros((2, 2)), np.array([1.0, -2.0]))
    x = np.array([0.5, 0.5])
    assert f.line_search(x, np.array([-1.0, 1.0]), 0.75) == 0.75
    assert f.line_search(x, np.array([1.0, -1.0]), 0.75) == 0.0
    assert f.line_search(x, np.array([2.0, 1.0]), 0.75) == 0.0  # f is constant along it
    trace = solve(f, Simplex(2), SolverConfig(Variant.AFW, epsilon=1e-12, max_iter=10))
    assert trace.config_echo["exit_status"] == "converged"
    assert np.array_equal(trace.final_iterate.x, [0.0, 1.0])


def test_line_search_local_optimality_probe():
    rng = np.random.default_rng(302)
    f = _random_quadratic(rng, 5)
    for _ in range(50):
        x = rng.standard_normal(5)
        d = rng.standard_normal(5)
        gmax = float(rng.uniform(0.1, 2.0))
        gamma = f.line_search(x, d, gmax)
        assert 0.0 <= gamma <= gmax
        fg = f.value(x + gamma * d)
        for probe in (0.0, gamma / 2, gmax, (gamma + gmax) / 2):
            assert fg <= f.value(x + probe * d) + 1e-10


def test_slope_bisection_matches_exact_on_quadratics():
    """The generic search uses gradients only and lands within rounding of the exact step."""
    rng = np.random.default_rng(303)
    quad = _random_quadratic(rng, 4)

    class Wrapped(Objective):
        dimension = 4
        calls = {"value": 0, "gradient": 0}
        poison = False

        def value(self, x):
            self.calls["value"] += 1
            return quad.value(x)

        def gradient(self, x):
            self.calls["gradient"] += 1
            grad = quad.gradient(x)
            if self.poison:
                grad[2] = np.nan
            return grad

    wrapped = Wrapped()
    for _ in range(20):
        x = rng.standard_normal(4)
        d = rng.standard_normal(4)
        exact = quad.line_search(x, d, 1.0)
        assert abs(wrapped.line_search(x, d, 1.0) - exact) <= 1e-14
    assert wrapped.calls["value"] == 0 and wrapped.calls["gradient"] > 0
    # the stopping width is one ulp of gamma_max, so a subnormal bound ends too
    assert 0.0 <= wrapped.line_search(x, d, 5e-324) <= 5e-324
    wrapped.poison = True
    with pytest.raises(ValueError, match="finite"):
        wrapped.line_search(x, d, 1.0)


def test_line_search_rejects_infinite_gamma_max():
    """An unbounded step is refused by both the exact and the generic search.

    The function is linear along d, so the exact rule would return gamma_max.
    """
    f = QuadraticObjective(np.zeros((2, 2)), np.array([1.0, 0.0]))

    class Generic(Objective):
        dimension = 2
        value, gradient = f.value, f.gradient

    for obj in (f, Generic()):
        for bad in (np.inf, np.nan, 0.0):
            with pytest.raises(ValueError, match="gamma_max"):
                obj.line_search(np.zeros(2), np.array([-1.0, 0.0]), bad)


def test_descent_lemma_and_strong_convexity():
    rng = np.random.default_rng(304)
    f = _random_quadratic(rng, 6)
    L, mu = f.smoothness, f.strong_convexity
    for _ in range(100):
        x = rng.standard_normal(6)
        d = rng.standard_normal(6)
        gamma = float(rng.uniform(0, 1))
        y = x + gamma * d
        fx, gx = f.value_and_gradient(x)
        linear = fx + float(gx @ (y - x))
        quad_term = 0.5 * float(np.dot(y - x, y - x))
        assert f.value(y) <= linear + L * quad_term + 1e-9
        assert f.value(y) >= linear + mu * quad_term - 1e-9


def test_distance_to_objective():
    target = np.array([0.25, 0.75])
    f = QuadraticObjective.distance_to(target)
    assert f.value(target) == pytest.approx(0.0)
    assert f.value(np.zeros(2)) == pytest.approx(0.5 * 0.625)
    assert np.allclose(f.gradient(np.zeros(2)), -target)


def test_quadratic_validates_symmetry():
    with pytest.raises(ValueError):
        QuadraticObjective(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    rng = np.random.default_rng(306)
    for scale in (1e-3, 1.0, 1e6):  # just outside the tolerance 1e-12 * max(1, max |Q|)
        Q = scale * _symmetric(rng, 5)
        Q[2, 4] += 2e-12 * max(1.0, float(np.max(np.abs(Q))))
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticObjective(Q, np.zeros(5))


def test_quadratic_rejects_non_finite_data():
    for Q, b, c in ([[np.nan]], [0.0], 0.0), (np.eye(1), [np.inf], 0.0), (np.eye(1), [0.0], np.inf):
        with pytest.raises(ValueError, match="finite"):
            QuadraticObjective(Q, b, c)
    with pytest.raises(ValueError, match="finite"):  # inf in y makes b and c infinite
        QuadraticObjective.least_squares([[1.0, 2.0], [3.0, 4.0]], [np.inf, 0.0])


def _layouts(rng):
    """The same kinds of Q in every layout the constructor may be handed."""
    Q = _symmetric(rng, 7)
    near = Q.copy()
    near[0, 1] += 0.5e-12 * np.max(np.abs(Q))  # asymmetric, but inside the tolerance
    return {
        "C": Q,
        "F": np.asfortranarray(Q),
        "strided": np.repeat(np.repeat(Q, 2, axis=0), 2, axis=1)[::2, ::2],
        "list": Q.tolist(),
        "int": np.rint(10 * Q).astype(np.int64),
        "near-symmetric": near,
    }


@pytest.mark.parametrize("layout", ["C", "F", "strided", "list", "int", "near-symmetric"])
def test_quadratic_stores_the_symmetric_part_bit_for_bit(layout):
    """``obj.Q`` is (Q + Q^T) / 2 byte for byte, a C-contiguous array that owns its data and
    shares none with the caller's Q, whatever the input's layout or dtype."""
    Q = _layouts(np.random.default_rng(305))[layout]
    q = np.array(Q, dtype=np.float64)
    expected = 0.5 * (q + q.T)
    obj = QuadraticObjective(Q, np.zeros(7))
    assert obj.Q.tobytes() == expected.tobytes()
    assert obj.Q.dtype == np.float64
    for flag in ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE"):
        assert obj.Q.flags[flag] == expected.flags[flag]
    if isinstance(Q, np.ndarray):  # the caller's later writes do not reach obj.Q
        Q[...] = 0
        assert obj.Q.tobytes() == expected.tobytes()


def test_least_squares_q_is_twice_the_gram_matrix_bit_for_bit():
    rng = np.random.default_rng(308)
    A, y = rng.standard_normal((30, 12)), rng.standard_normal(30)
    obj = QuadraticObjective.least_squares(A, y)
    assert obj.Q.tobytes() == (2.0 * (A.T @ A)).tobytes()
    assert obj.b.tobytes() == (-2.0 * (A.T @ y)).tobytes()


def test_quadratic_construction_allocates_one_d_by_d_buffer():
    """Beyond its input, building the objective holds one d x d float64 array at its peak:
    the symmetry test and the symmetric part share it."""
    d = 400
    Q = _symmetric(np.random.default_rng(309), d)
    b = np.zeros(d)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        obj = QuadraticObjective(Q, b)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert obj.Q.nbytes == 8 * d * d
    assert peak <= 1.1 * 8 * d * d


def test_psd_check_is_relative_to_the_largest_eigenvalue():
    """A rank-deficient Q at scale 1e6 has rounding eigenvalues far below -1e-10, which
    count as 0; a clearly indefinite Q raises, at every scale and on every ask."""
    rng = np.random.default_rng(310)
    for _ in range(5):
        A = 1000.0 * rng.standard_normal((20, 60))  # rank 20 < 60
        obj = QuadraticObjective.least_squares(A, rng.standard_normal(20))
        assert obj.strong_convexity == 0.0
        assert obj.smoothness > 1e6
    for scale in (1e-6, 1.0, 1e6):
        obj = QuadraticObjective(scale * np.diag([1.0, -1e-3, 2.0]), np.zeros(3))
        for _ in range(2):
            with pytest.raises(ValueError, match="negative eigenvalue"):
                obj.strong_convexity


def test_quadratic_rejects_inputs_of_the_wrong_shape():
    with pytest.raises(ValueError, match=r"shape \(0, 0\)"):
        QuadraticObjective(np.zeros((0, 0)), np.zeros(0))
    with pytest.raises(ValueError, match=r"shape \(0, 0\)"):
        QuadraticObjective.distance_to(np.zeros(0))
    with pytest.raises(ValueError, match=r"shape \(\)"):
        QuadraticObjective.distance_to(1.0)
    with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
        QuadraticObjective(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match=r"b has shape \(3,\), but Q has shape \(2, 2\)"):
        QuadraticObjective(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError, match=r"y has shape \(3,\), but A has shape \(4, 2\)"):
        QuadraticObjective.least_squares(np.ones((4, 2)), np.ones(3))
    with pytest.raises(ValueError, match=r"A has shape \(4,\)"):
        QuadraticObjective.least_squares(np.ones(4), np.ones(4))


# -- atom images: support rows of Q for a sparse atom, Q @ a otherwise -------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_oracles import _layered_arcs  # noqa: E402


def _image(Q, point):
    """``QuadraticState.image`` of ``point`` in a fresh state of f(x) = x^T Q x / 2."""
    state = QuadraticObjective(Q, np.zeros(len(point))).start(
        ActiveIterate.from_atom(Atom(np.ones(len(point))))
    )
    return state.image(atom_key(point), point)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 48),
    support=st.sampled_from(["zero", "one", "few", "quarter", "quarter+1", "all"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_image_matches_the_dense_product(d, support, seed):
    """Every support size gives Q @ a to 1e-12 relative, on both sides of the d/4 crossover;
    a 1-sparse atom's image is Q @ a bit for bit, and so is a 0/1 atom's when Q = I."""
    rng = np.random.default_rng(seed)
    k = {"zero": 0, "one": 1, "few": min(3, d), "quarter": d // 4,
         "quarter+1": min(d // 4 + 1, d), "all": d}[support]
    point = np.zeros(d)
    nz = rng.choice(d, size=k, replace=False)
    point[nz] = rng.standard_normal(k)
    A = rng.standard_normal((d, d))
    Q = A + A.T
    dense = Q @ point
    img = _image(Q, point)
    assert np.all(np.abs(img - dense) <= 1e-12 * (np.abs(Q) @ np.abs(point)))
    if k == 1:
        assert img.tobytes() == dense.tobytes()
    point[nz] = 1.0
    assert _image(np.eye(d), point).tobytes() == (np.eye(d) @ point).tobytes()


def test_flowdag_traces_match_dense_images(monkeypatch):
    """A distance solve over a path polytope writes the same CSV with every image forced to
    Q @ a: Q = I and 0/1 paths leave each image entry at most one nonzero term."""
    dag = FlowDag(_layered_arcs(4, 8))  # 120 arcs, 9 per path: the support-row images
    rng = np.random.default_rng(181)
    paths = np.stack([dag.lmo(rng.standard_normal(dag.dimension)).point for _ in range(6)])
    obj = QuadraticObjective.distance_to(rng.dirichlet(np.ones(6)) @ paths)

    def csvs():
        return [
            solve(obj, dag, SolverConfig(v, epsilon=1e-10, max_iter=60)).to_csv()
            for v in Variant
        ]

    rows = csvs()

    def dense_image(self, atom_id, point):
        img = self.images.get(atom_id)
        if img is None:
            img = self.images[atom_id] = self.Q @ point
        return img

    monkeypatch.setattr(QuadraticState, "image", dense_image)
    assert csvs() == rows
