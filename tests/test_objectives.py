"""Objective values, gradients, line search, and curvature constants."""

import tracemalloc

import numpy as np
import pytest

import polyfw
from polyfw.core import ActiveIterate, Atom, StepKind, atom_key
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


def _one_sided_negative_zero(d):
    """I with a -0.0 above the diagonal only: not I's bytes, though its symmetric part is I."""
    Q = np.eye(d)
    Q[0, d - 1] = -0.0
    return Q


def test_objective_is_exported():
    assert polyfw.Objective is Objective and "Objective" in polyfw.__all__


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


def test_line_search_rejects_a_wrong_shape_or_a_zero_direction():
    f = QuadraticObjective(np.eye(2), np.zeros(2))
    x = np.array([0.5, 0.5])
    for bad_x, d in ((x, np.ones(3)), (np.ones(3), np.ones(2))):
        with pytest.raises(ValueError, match="dimension"):
            f.line_search(bad_x, d, 1.0)
    with pytest.raises(ValueError, match="zero"):
        f.line_search(x, np.zeros(2), 1.0)


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
    for target in ([0.0, np.inf], [np.nan, 1.0]):  # distance_to's own check, same message
        with pytest.raises(ValueError, match="^Q, b and c must be finite$"):
            QuadraticObjective.distance_to(target)
    with pytest.warns(RuntimeWarning, match="overflow"):  # c = ||t||^2 / 2 is not finite
        with pytest.raises(ValueError, match="^Q, b and c must be finite$"):
            QuadraticObjective.distance_to([1e200, 0.0])


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
    the symmetry test and the symmetric part share it, and the identity test adds none.
    An identity, found on the caller's Q first, never builds a d x d array: it gets the
    O(d) view."""
    d = 400
    b = np.zeros(d)
    for Q, identity in ((_symmetric(np.random.default_rng(309), d), False), (np.eye(d), True)):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            obj = QuadraticObjective(Q, b)
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert obj.Q.nbytes == 8 * d * d
        assert peak <= 64 * d if identity else peak <= 1.1 * 8 * d * d
        assert held <= 64 * d if identity else held >= 8 * d * d


def test_an_identity_q_is_held_in_o_of_d():
    """``distance_to`` builds no d x d array (np.eye(2000) alone is 32 MB), and an explicit
    identity keeps none: both hold Q as a read-only view with np.eye(d)'s bytes.  A -0.0 off
    the diagonal is not the identity byte for byte, so that Q keeps its own buffer."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        QuadraticObjective.distance_to(np.zeros(2000))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for d in (1, 2, 5, 64, 385):
        for obj in (QuadraticObjective.distance_to(np.ones(d)),
                    QuadraticObjective(np.eye(d), np.ones(d))):
            assert obj.Q.shape == (d, d) and obj.Q.tobytes() == np.eye(d).tobytes()
            assert not obj.Q.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                obj.Q[0, 0] = 2.0
    Q = np.eye(3)
    Q[0, 2] = Q[2, 0] = -0.0
    obj = QuadraticObjective(Q, np.zeros(3))
    assert obj.Q.flags.owndata and obj.Q.flags.writeable and obj.Q.tobytes() == Q.tobytes()
    # on one side only: the stored symmetric part has I's bytes, but the caller's Q does not
    obj = QuadraticObjective(_one_sided_negative_zero(3), np.zeros(3))
    assert obj.Q.flags.owndata and obj.Q.flags.writeable and obj.Q.tobytes() == np.eye(3).tobytes()
    assert obj._eigenvalues is None


def test_identity_constants_need_no_eigendecomposition(monkeypatch):
    """L = mu = 1 for Q = I without eigvalsh, whose bytes ``np.ones(d)`` are."""
    for d in (1, 2, 3, 10, 100):
        obj = QuadraticObjective.distance_to(np.zeros(d))
        assert obj._eigh().tobytes() == np.linalg.eigvalsh(np.eye(d)).tobytes()

    def no_eigvalsh(Q):
        raise AssertionError("eigvalsh called on an identity")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    for obj in (QuadraticObjective.distance_to(np.ones(7)), QuadraticObjective(np.eye(7), np.ones(7))):
        assert obj.smoothness == obj.strong_convexity == 1.0


def test_identity_test_reads_a_toeplitz_view_in_o_of_d(monkeypatch):
    """The identity test counts the nonzero bytes of the 2d - 1 entries that an identity view
    holds (row 0 and column 0 of ``distance_to``'s Q), and all d^2 entries of a dense Q."""
    counted = []
    count_nonzero = np.count_nonzero

    def counting(a, *args, **kwargs):
        counted.append(np.size(a))
        return count_nonzero(a, *args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", counting)
    for d in (1, 2, 3, 385, 2000):
        counted.clear()
        assert QuadraticObjective.distance_to(np.ones(d))._identity
        assert sum(counted) == 2 * d - 1
    counted.clear()
    assert QuadraticObjective(np.eye(385), np.ones(385))._identity
    assert sum(counted) == 385 * 385


def test_quadratic_at_the_scale_edge_stores_a_finite_q():
    """A finite Q near the largest float is halved before its halves are summed: its
    symmetric part is stored without an overflow warning (an error under pytest's filter)."""
    obj = QuadraticObjective(np.diag([1e308, 1.0]), np.zeros(2))
    assert np.isfinite(obj.Q.diagonal()).all()
    assert obj.Q.tobytes() == np.diag([1e308, 1.0]).tobytes()


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
    with pytest.raises(ValueError, match=r"^Q has shape \(0, 0\); it must be at least 1x1$"):
        QuadraticObjective.distance_to(np.zeros(0))
    with pytest.raises(ValueError, match=r"^target has shape \(\); it must be a vector$"):
        QuadraticObjective.distance_to(1.0)
    with pytest.raises(ValueError, match=r"^target has shape \(2, 2\); it must be a vector$"):
        QuadraticObjective.distance_to(np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
        QuadraticObjective(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match=r"b has shape \(3,\), but Q has shape \(2, 2\)"):
        QuadraticObjective(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError, match=r"y has shape \(3,\), but A has shape \(4, 2\)"):
        QuadraticObjective.least_squares(np.ones((4, 2)), np.ones(3))
    for x in (np.zeros(1), np.zeros((2, 1)), 0.0):
        with pytest.raises(ValueError, match="wrong dimension"):
            QuadraticObjective(np.eye(2), np.zeros(2)).value(x)
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


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 40), data=st.data())
def test_the_identity_view_computes_as_a_dense_eye(d, data):
    """The generic methods read the ``_identity`` view's bytes as they read np.eye(d)'s,
    signed zeros and subnormals included, on finite inputs small enough not to overflow."""
    vector = st.lists(st.floats(-1e100, 1e100), min_size=d, max_size=d).map(np.array)
    target, x, direction = data.draw(vector), data.draw(vector), data.draw(vector)
    obj = QuadraticObjective.distance_to(target)
    dense = QuadraticObjective.distance_to(target)
    dense.Q = np.eye(d)
    bits = np.float64
    assert bits(obj.value(x)).tobytes() == bits(dense.value(x)).tobytes()
    assert obj.gradient(x).tobytes() == dense.gradient(x).tobytes()
    (v, g), (dense_v, dense_g) = obj.value_and_gradient(x), dense.value_and_gradient(x)
    assert bits(v).tobytes() == bits(dense_v).tobytes() and g.tobytes() == dense_g.tobytes()
    if direction.any():
        gamma_max = data.draw(st.floats(1e-300, 1e300))
        step, dense_step = (f.line_search(x, direction, gamma_max) for f in (obj, dense))
        assert bits(step).tobytes() == bits(dense_step).tobytes()


def _general_state(monkeypatch):
    """Make every quadratic open the general ``QuadraticState``, whatever its Q."""
    monkeypatch.setattr(QuadraticObjective, "start", lambda self, it: QuadraticState(self, it))


def test_flowdag_traces_match_dense_images(monkeypatch):
    """A distance solve over a path polytope on the general state writes the same CSV with
    every image forced to Q @ a: Q = I and 0/1 paths leave each image entry at most one
    nonzero term."""
    _general_state(monkeypatch)
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


# -- Q = I: the identity state ----------------------------------------------------

import math  # noqa: E402

from polyfw.bench import gen_triangle  # noqa: E402
from polyfw.geometry import pwidth  # noqa: E402
from polyfw.objectives import IdentityState  # noqa: E402
from polyfw.oracles import Cube, L1Ball  # noqa: E402
from polyfw.solvers import _line_search_step, away_atom  # noqa: E402


def _state(obj):
    return obj.start(ActiveIterate.from_atom(Atom(np.ones(obj.dimension))))


def test_only_an_exact_identity_opens_the_identity_state():
    """Q = I is read off the caller's Q: a distance objective, an explicit identity and d = 1
    take the identity state; 2 I, an identity with one symmetric off-diagonal pair of 1e-300,
    one with a -0.0 above the diagonal only and a least squares take the general one."""
    near = np.eye(5)
    near[1, 3] = near[3, 1] = 1e-300
    rng = np.random.default_rng(400)
    identity = [
        QuadraticObjective.distance_to([1.0, -2.0, 0.0, 0.5]),
        QuadraticObjective(np.eye(6), rng.standard_normal(6)),
        QuadraticObjective(np.eye(1), [3.0]),
    ]
    general = [
        QuadraticObjective(2.0 * np.eye(4), np.zeros(4)),
        QuadraticObjective(near, np.zeros(5)),
        QuadraticObjective(_one_sided_negative_zero(5), np.zeros(5)),
        QuadraticObjective.least_squares(rng.standard_normal((8, 4)), rng.standard_normal(8)),
    ]
    assert all(type(_state(obj)) is IdentityState for obj in identity)
    assert all(type(_state(obj)) is QuadraticState for obj in general)


class _GenericQuadratic(Objective):
    """A quadratic seen only through value and gradient: it opens the generic state."""

    def __init__(self, quad):
        self.quad, self.dimension = quad, quad.dimension

    def value(self, x):
        return self.quad.value(x)

    def gradient(self, x):
        return self.quad.gradient(x)


def test_step_value_is_f_after_the_searched_step():
    """FCFW's target: after a line search from an iterate toward an atom, ``step_value``
    gives f at the step found, in closed form on the general and identity states (within
    rounding of ``value``) and as ``value`` itself on the generic state."""
    rng = np.random.default_rng(402)
    A = rng.standard_normal((6, 5))
    quads = [QuadraticObjective.least_squares(A, rng.standard_normal(6)),
             QuadraticObjective.distance_to(rng.standard_normal(5))]
    atoms = [Atom(p) for p in 3.0 * rng.standard_normal((8, 5))]
    it = ActiveIterate.from_weights({atoms[0]: 0.5, atoms[1]: 0.5})
    offset = 1e-3 * rng.standard_normal(5)  # atoms this near x take the full step
    atoms += [Atom(it.x + offset), Atom(it.x - offset)]
    checked = []
    for obj in quads + [_GenericQuadratic(quads[0])]:
        for s in atoms[2:]:
            state = obj.start(it)
            direction = s.point - it.x
            descent = -float(state.grad @ direction)
            if descent <= 0.0:
                continue
            gamma = state.line_search(it, direction, 1.0, descent, s)
            checked.append(gamma < 1.0)
            f = obj.value(it.x + gamma * direction)
            target = state.step_value(it, direction, gamma, descent)
            if isinstance(obj, QuadraticObjective):
                assert abs(target - f) <= 1e-12 * max(1.0, abs(state.value))
            else:
                assert target == f
    assert any(checked) and not all(checked)  # interior steps and full ones


def _distance_problems():
    """Distance objectives with a start each: a c06 triangle from inside, a small FlowDag,
    Simplex, Cube and an L1Ball whose target has negative coordinates."""
    obj, tri = gen_triangle(math.pi / 16)[:2]
    weights = np.random.default_rng(40).dirichlet(np.ones(3)).tolist()
    yield obj, tri, ActiveIterate.from_weights(dict(zip(tri.enumerate_atoms(), weights)))
    dag = FlowDag(_layered_arcs(3, 4))
    rng = np.random.default_rng(41)
    paths = np.stack([dag.lmo(rng.standard_normal(dag.dimension)).point for _ in range(5)])
    yield QuadraticObjective.distance_to(rng.dirichlet(np.ones(5)) @ paths), dag, None
    yield QuadraticObjective.distance_to(rng.dirichlet(np.ones(12))), Simplex(12), None
    yield QuadraticObjective.distance_to(rng.uniform(-0.2, 1.2, 8)), Cube(8), None
    signs = rng.choice([-1.0, 1.0], 10)
    target = 0.8 * signs * rng.dirichlet(np.ones(10))
    yield QuadraticObjective.distance_to(target), L1Ball(10, 1.0), None


def _walk(obj, spec, seed):
    """Random FW, away and pairwise steps of exact length through ``_line_search_step``.

    The walk starts at 0.9 v + 0.1 u, v the atom farthest along -target and u the one
    farthest from v toward the target, and steps away from v first, a step longer than 1.
    An away step leaves the away atom; a pairwise one a random active atom.  Returns each
    step's kind and gamma with the bits of the state it leaves.
    """
    rng = np.random.default_rng(seed)
    target = -obj.b
    v = spec.lmo(target)
    it = ActiveIterate.from_weights({v: 0.9, spec.lmo(v.point - target): 0.1})
    state = obj.start(it)
    rows = []
    for t in range(300):
        variant = Variant(("FW", "AFW", "PFW")[rng.integers(3)]) if t else Variant.AFW
        s = spec.lmo(rng.standard_normal(spec.dimension))
        grad = state.grad
        j = away_atom(it, grad)[0] if variant is Variant.AFW else int(rng.integers(len(it)))
        if variant is Variant.PFW and it.ids[j] == s.id:
            continue
        fw_dir = s.point - it.x
        g_fw = -float(grad.dot(fw_dir))
        # an away gap of inf makes AFW step away from atom j
        step = _line_search_step(variant, it, grad, s, state, (j, math.inf), fw_dir, g_fw)
        if step is not None:
            it, kind, gamma, _ = step
            rows.append((kind, gamma, state.value, state.grad.tobytes(), state.Qx.tobytes(),
                         state.resyncs, state.drift_max))
    return rows


def test_identity_state_runs_bit_for_bit_as_the_general_state(monkeypatch):
    """On each distance problem, every variant's CSV, header counters included, and a walk
    of random steps are the same bits on the identity state as on the general state.

    Between them the runs resync after 100 steps, drop, swap, and step away by more than 1
    (a step ``solve`` never takes: AFW steps away only from an atom of weight below 1/2)."""
    problems = list(_distance_problems())
    configs = [SolverConfig(v, epsilon=1e-12, max_iter=300) for v in Variant]

    def runs():
        for obj, spec, x0 in problems:
            yield [solve(obj, spec, cfg, x0).to_csv() for cfg in configs], _walk(obj, spec, 3)

    assert all(type(_state(obj)) is IdentityState for obj, _, _ in problems)
    identity = list(runs())
    _general_state(monkeypatch)
    assert identity == list(runs())
    rows = [row for _, walk in identity for row in walk]
    kinds = {kind for kind, *_ in rows} | {
        row.split(",")[1] for csvs, _ in identity for text in csvs for row in text.splitlines()[2:]
    }
    assert {"DROP", "SWAP"} <= kinds
    assert any(kind is StepKind.AWAY and gamma > 1.0 for kind, gamma, *_ in rows)
    assert all(walk[-1][5] > 1 for _, walk in identity)  # resyncs: period and long away step
    assert any('"resyncs": 0' not in csvs[0] for csvs, _ in identity)  # FW past 100 steps


def test_pwidth_reports_are_the_same_on_the_general_state(monkeypatch):
    """``pwidth``'s facial min-norm-point problems have Q = I: Cube(3) and Simplex(5) give
    the same report on the identity state as on the general one."""
    specs = (Cube(3), Simplex(5))

    def reports():
        return [pwidth([a.point for a in spec.enumerate_atoms()]).to_json() for spec in specs]

    identity = reports()
    _general_state(monkeypatch)
    assert reports() == identity


def test_distance_solves_make_no_product_by_q(monkeypatch):
    """FW, AFW, PFW and MNP on a distance objective never read Q: no dense product, no
    support-row gather, resets and resyncs included, where the general state makes both."""
    counts = {"products": 0, "gathers": 0, "resets": 0}

    class CountingQ(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            counts["products"] += ufunc is np.matmul
            inputs = tuple(np.asarray(a) if isinstance(a, CountingQ) else a for a in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

        def __getitem__(self, key):
            counts["gathers"] += 1
            return np.asarray(self)[key]

    reset = IdentityState.reset

    def counting_reset(self, it):
        counts["resets"] += 1
        return reset(self, it)

    monkeypatch.setattr(IdentityState, "reset", counting_reset)
    obj, dag = next(p for p in _distance_problems() if isinstance(p[1], FlowDag))[:2]
    obj.Q = obj.Q.view(CountingQ)
    for variant in ("FW", "AFW", "PFW", "MNP"):
        solve(obj, dag, SolverConfig(variant, epsilon=1e-12, max_iter=300))
    assert counts["resets"] > 4  # one per start, and the resyncs
    assert counts["products"] == counts["gathers"] == 0
    _general_state(monkeypatch)
    solve(obj, dag, SolverConfig("PFW", epsilon=1e-12, max_iter=300))
    assert counts["products"] and counts["gathers"]


# -- Q = I through the constructor -------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 5, 64, 385])
def test_distance_to_is_the_constructor_on_an_identity(d):
    """``distance_to(t)`` is ``QuadraticObjective(np.eye(d), -t, t . t / 2)`` field for field:
    Q's bytes and read-only flag, b, c, the dimension, the eigenvalues and the state."""
    target = np.random.default_rng(d).standard_normal(d)
    target[0] = 0.0  # b holds a -0.0
    mine = QuadraticObjective.distance_to(target)
    built = QuadraticObjective(np.eye(d), -target, 0.5 * float(target @ target))
    assert mine.Q.tobytes() == built.Q.tobytes() == np.eye(d).tobytes()
    assert mine.Q.flags.writeable is built.Q.flags.writeable is False
    assert mine.b.dtype == built.b.dtype == np.float64 and mine.b.tobytes() == built.b.tobytes()
    assert np.float64(mine.c).tobytes() == np.float64(built.c).tobytes()
    assert type(mine.c) is type(built.c) is float and mine.dimension == built.dimension == d
    assert mine._eigenvalues.tobytes() == built._eigenvalues.tobytes() == np.ones(d).tobytes()
    it = ActiveIterate.from_atom(Simplex(d).lmo(np.ones(d)))
    assert type(mine.start(it)) is type(built.start(it)) is IdentityState


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 12), data=st.data())
def test_identity_traces_are_the_same_however_q_is_built(d, data):
    """AFW and MNP over Simplex(d) write the same CSV bytes for ``distance_to(t)``, for the
    constructor on np.eye(d), and (d > 1) on the general state for a one-sided -0.0 Q."""
    target = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    c = 0.5 * float(target @ target)
    objs = [QuadraticObjective.distance_to(target), QuadraticObjective(np.eye(d), -target, c)]
    if d > 1:
        objs.append(QuadraticObjective(_one_sided_negative_zero(d), -target, c))
    for variant in (Variant.AFW, Variant.MNP):
        config = SolverConfig(variant, epsilon=1e-12, max_iter=200)
        csvs = {solve(obj, Simplex(d), config).to_csv() for obj in objs}
        assert len(csvs) == 1, variant

