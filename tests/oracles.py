"""Independent reference implementations used to cross-check the library.

Everything in this module is written from the defining formulas, not
from the library code: argmin-by-scan linear oracles, sort-based
projections, an exhaustive face-inspection quadratic program, a
subset-enumeration pyramidal directional width, and a cone-LP pyramidal
width with a base point that reproduces it (it takes its faces from
``geometry.enumerate_faces``, which is tested on its own), and a
sampled estimator of the affine-invariant curvature constants.  Slow is
fine here; these only run at test sizes.  Three exceptions keep former
library code, so the current code can be held to it bit for bit:
``flowdag_lmo_reference`` (the dict-based FlowDag oracle, on a graph
built from the spec's arc list, source and sink alone),
``face_lattice_reference`` (the face lattice closed by frozenset
intersections, its facets from qhull by ``hull_facets_reference``, the
test oracle of ``geometry._hull_facets``) and ``pwidth_all_faces`` (the
facial distance solved on every proper face).  ``corral_reference`` is the Gram matrix that Wolfe's
major cycle formed from scratch before it kept its corral.  The LP helpers
``_contains`` (hull membership) and ``_shortest_prefix`` (a binary search
for the shortest feasible prefix) serve the curvature estimator and the
width-witness checks.
"""

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

# Frozen analytic pyramidal widths (unit cube 1/sqrt(d); probability
# simplex 2/sqrt(d) for even d and 2/sqrt(d - 1/d) for odd d).
PWIDTH_CUBE = {2: 1.0 / math.sqrt(2.0), 3: 1.0 / math.sqrt(3.0)}
PWIDTH_SIMPLEX = {
    2: 2.0 / math.sqrt(2.0),
    3: 2.0 / math.sqrt(3.0 - 1.0 / 3.0),
    4: 2.0 / math.sqrt(4.0),
}


def simplex_lmo(r):
    """Basis vector at the smallest entry of r (lowest index on ties)."""
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros_like(r)
    out[int(np.argmin(r))] = 1.0
    return out


def cube_lmo(r):
    """Per-coordinate sign rule on the unit cube; zero entries stay 0."""
    r = np.asarray(r, dtype=np.float64)
    return (r < 0).astype(np.float64)


def l1ball_lmo(r, radius):
    """Signed radius vertex at the largest-magnitude entry of r."""
    r = np.asarray(r, dtype=np.float64)
    i = int(np.argmax(np.abs(r)))
    out = np.zeros_like(r)
    out[i] = -radius if r[i] > 0 else radius
    return out


def _flowdag_out_arcs(spec):
    """Out-arc index lists per tail node, from ``spec.arcs`` alone."""
    out = {}
    for idx, (u, _) in enumerate(spec.arcs):
        out.setdefault(u, []).append(idx)
    return out


def flowdag_lmo_reference(spec, r):
    """Shortest path by a dict-based DP over a topological order (the former library oracle).

    The out-arc lists and the order (a depth-first post-order from the
    source, so every node comes after all its heads) are built from
    ``spec.arcs``, ``spec.source`` and ``spec.sink`` alone.  Nodes whose
    best cost is not finite are left out of ``dist``; the walk from the
    source takes the smallest arc index that attains the optimum.
    Returns the path's indicator vector.
    """
    r = np.asarray(r, dtype=np.float64)
    out = _flowdag_out_arcs(spec)
    post, seen = [], set()

    def visit(node):
        seen.add(node)
        for idx in out.get(node, []):
            if spec.arcs[idx][1] not in seen:
                visit(spec.arcs[idx][1])
        post.append(node)

    visit(spec.source)
    dist = {spec.sink: 0.0}
    for n in post:
        if n == spec.sink:
            continue
        best = np.inf
        for idx in out[n]:
            v = spec.arcs[idx][1]
            if v in dist:
                best = min(best, r[idx] + dist[v])
        if np.isfinite(best):
            dist[n] = best
    # Greedy walk from the source; taking the smallest arc index that
    # attains the optimum yields the lexicographically smallest path.
    point = np.zeros(spec.dimension)
    node = spec.source
    while node != spec.sink:
        chosen = None
        for idx in out[node]:
            v = spec.arcs[idx][1]
            if v in dist and r[idx] + dist[v] == dist[node]:
                chosen = idx
                break
        if chosen is None:  # guard against rounding surprises
            chosen = min(
                (idx for idx in out[node] if spec.arcs[idx][1] in dist),
                key=lambda idx: (r[idx] + dist[spec.arcs[idx][1]], idx),
            )
        point[chosen] = 1.0
        node = spec.arcs[chosen][1]
    return point


def flowdag_paths(spec):
    """Every source-sink path as a tuple of arc indices, depth first with out-arcs in list order.

    Built from ``spec.arcs``, ``spec.source`` and ``spec.sink`` alone.
    """
    out = _flowdag_out_arcs(spec)
    paths = []

    def extend(node, seq):
        if node == spec.sink:
            paths.append(tuple(seq))
            return
        for idx in out[node]:
            extend(spec.arcs[idx][1], seq + [idx])

    extend(spec.source, [])
    return paths


def flowdag_scan_lmo(spec, r):
    """Indicator of the path minimising (exact cost, arc-index sequence) over all paths.

    Paths come from ``flowdag_paths`` and costs are summed as exact
    rationals.  On integer-valued directions the library's float sums are
    exact too, so the two must pick the same path.
    """
    r = [Fraction(float(v)) for v in r]
    best = min(flowdag_paths(spec), key=lambda seq: (sum(r[i] for i in seq), seq))
    point = np.zeros(len(spec.arcs))
    point[list(best)] = 1.0
    return point


def project_to_simplex(y):
    """Euclidean projection onto the probability simplex (sort method)."""
    y = np.asarray(y, dtype=np.float64)
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, y.size + 1)
    cond = u - (css - 1.0) / ks > 0
    k = int(ks[cond][-1])
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(y - tau, 0.0)


def project_to_cube(y):
    return np.clip(np.asarray(y, dtype=np.float64), 0.0, 1.0)


def project_to_l1ball(y, radius):
    """Euclidean projection onto the l1 ball of the given radius."""
    y = np.asarray(y, dtype=np.float64)
    a = np.abs(y)
    if a.sum() <= radius:
        return y.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, y.size + 1)
    k = int(ks[u - (css - radius) / ks > 0][-1])
    tau = (css[k - 1] - radius) / k
    return np.sign(y) * np.maximum(a - tau, 0.0)


def project_by_faces(points, target, tol=1e-12):
    """argmin ||x - target|| over conv(points) by exhaustive face inspection.

    Solves the equality-constrained least squares problem on every
    nonempty subset of the points and keeps the best candidate whose
    barycentric coefficients are nonnegative.  Exponential in the number
    of points; intended for triangles and tetrahedra.
    """
    pts = np.asarray(points, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n = pts.shape[0]
    best_x, best_val = None, np.inf
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            P = pts[list(idx)].T  # d x size
            G = P.T @ P
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = G
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.concatenate([P.T @ target, [1.0]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            lam = sol[:size]
            if abs(lam.sum() - 1.0) > 1e-8 or np.any(lam < -tol):
                continue
            x = P @ lam
            val = float(np.linalg.norm(x - target))
            if val < best_val - 1e-15:
                best_x, best_val = x, val
    assert best_x is not None
    return best_x, best_val


def min_norm_point_by_faces(points):
    z = np.zeros(np.asarray(points).shape[1])
    return project_by_faces(points, z)


def _is_proper_member(pts_subset, x):
    """x is a convex combination of the subset with all coefficients > 0."""
    P = np.asarray(pts_subset, dtype=np.float64).T
    d, k = P.shape
    A_eq = np.vstack([P, np.ones((1, k))])
    b_eq = np.concatenate([np.asarray(x, dtype=np.float64), [1.0]])
    res = linprog(
        np.zeros(k),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(1e-10, None)] * k,
        method="highs",
    )
    return res.status == 0


def corral_reference(Q, it):
    """Rows, images Q a_i and Gram matrix H_ij = a_i . Q a_j of an iterate's atoms, from scratch."""
    rows = it.matrix()
    images = rows @ Q  # row i is (Q a_i)^T, Q being symmetric
    return rows, images, rows @ images.T


def affine_minimizer_reference(H, g):
    """The barycentric affine minimizer as first written: a zero-filled K, a concatenated
    right-hand side, and its checks through ``@`` and ``ndarray.max``.  Raises
    ``DegenerateActiveSetError`` where ``solvers._affine_minimizer`` must, with its message."""
    from polyfw.solvers import DegenerateActiveSetError

    m = H.shape[0]
    if m == 1:
        return np.array([1.0])
    K = np.zeros((m + 1, m + 1))
    K[:m, :m] = H
    K[m, :m] = K[:m, m] = 1.0
    rhs = np.concatenate([-g, [1.0]])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateActiveSetError("singular affine system") from exc
    scale = max(1.0, float(np.abs(K).max()), float(np.abs(sol).max()))
    if not np.isfinite(sol).all() or np.abs(K @ sol - rhs).max() > 1e-7 * scale:
        raise DegenerateActiveSetError("affine system solved with a large residual")
    return sol[:m]


def pdirw_bruteforce(atoms, r, x):
    """Pyramidal directional width by enumerating every active set.

    min over subsets S with x a proper convex combination of S of
    <r_hat, s(r)> - min_{v in S} <r_hat, v>, where s(r) maximizes
    <r_hat, .> over all atoms.
    """
    A = np.asarray(atoms, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    r_hat = r / np.linalg.norm(r)
    dots = A @ r_hat
    top = float(dots.max())
    n = A.shape[0]
    best = np.inf
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(n), size):
            if not _is_proper_member(A[list(idx)], x):
                continue
            width = top - float(dots[list(idx)].min())
            best = min(best, width)
    assert math.isfinite(best), "x not in the convex hull of the atoms"
    return best


def _cone_lp(face, prefix, r, cost=None, A_ub=None, b_ub=None):
    """(mu, nu) >= 0 with face^T mu - prefix^T nu = r and sum(mu) = sum(nu), or None.

    Feasible exactly when some x in conv(prefix) has r in cone(face - x):
    writing the cone coefficients as mu and tau * x as the combination
    nu of the prefix atoms, with tau = sum(mu), linearizes the condition.
    """
    nb, d = face.shape
    A_eq = np.zeros((d + 1, nb + len(prefix)))
    A_eq[:d, :nb] = face.T
    A_eq[:d, nb:] = -prefix.T
    A_eq[d, :nb] = 1.0
    A_eq[d, nb:] = -1.0
    n = A_eq.shape[1]
    res = linprog(
        np.zeros(n) if cost is None else cost,
        A_eq=A_eq,
        b_eq=np.concatenate([r, [0.0]]),
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(0.0, None)] * n,
        method="highs",
    )
    return res.x if res.status == 0 else None


def pwidth_lp_witness(atoms, direction):
    """Pyramidal width along +-direction by cone LPs on every face, with a base point.

    On each face of two or more atoms (``geometry.enumerate_faces``) and
    for each sign of the unit direction r, the face's atoms are sorted by
    decreasing <r, .>; the shortest prefix from whose hull r can point
    into the face (found by a linear scan) gives the value <r, first> -
    <r, last of the prefix>.  Values at rounding scale are skipped.  The
    smallest value wins, and its base point is the prefix combination
    that puts the most weight on the prefix's last atom, which keeps it
    off the shorter prefixes' hulls, so ``pdirw_bruteforce`` there finds
    the same prefix.  Returns (value, face atoms, r, base point).
    """
    from polyfw.geometry import enumerate_faces

    mat = np.asarray(atoms, dtype=np.float64)
    unit = np.asarray(direction, dtype=np.float64)
    unit = unit / np.linalg.norm(unit)
    best = None
    for face_idx in enumerate_faces(mat):
        if len(face_idx) < 2:
            continue
        face = mat[sorted(face_idx)]
        for r in (unit, -unit):
            dots = face @ r
            order = np.argsort(-dots, kind="stable")
            if _cone_lp(face, face, r) is None:
                continue
            k = next(j for j in range(1, len(order) + 1)
                     if _cone_lp(face, face[order[:j]], r) is not None)
            value = float(dots[order[0]] - dots[order[k - 1]])
            if value > 1e-12 and (best is None or value < best[0]):
                best = (value, face, r, face[order[:k]])
    assert best is not None, "the direction points along no face"
    value, face, r, prefix = best
    nb, k = face.shape[0], prefix.shape[0]
    tau = float(_cone_lp(face, prefix, r)[:nb].sum())
    cost = np.zeros(nb + k)
    cost[-1] = -1.0  # maximize the last prefix atom's weight
    A_ub = np.zeros((1, nb + k))
    A_ub[0, :nb] = 1.0
    sol = _cone_lp(face, prefix, r, cost, A_ub, [2.0 * tau + 1.0])
    nu = sol[nb:]
    return value, face, r, (nu @ prefix) / nu.sum()


def affine_projection(points):
    """The points, centred, in coordinates of their affine hull (``geometry._face_lattice``'s
    projection: the singular directions above ``FACET_TOL`` times the largest)."""
    from polyfw.geometry import FACET_TOL

    mat = np.asarray(points, dtype=np.float64)
    if mat.shape[0] < 2:
        return np.zeros((mat.shape[0], 0))
    centered = mat - mat.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scale = svals[0] if svals.size and svals[0] > 0 else 1.0
    return centered @ vt[: int(np.sum(svals > FACET_TOL * scale))].T


def hull_facets_reference(proj):
    """{facet incidence set: unit outward normal} of conv(proj), rank >= 2, from qhull.

    ``scipy.spatial.ConvexHull`` splits a facet into simplices; each hull
    equation's points within ``FACET_TOL`` times the largest coordinate
    form its set, and the first equation of each set gives its normal.
    """
    from scipy.spatial import ConvexHull

    from polyfw.geometry import FACET_TOL

    rank, out = proj.shape[1], {}
    for eq in ConvexHull(proj).equations:
        members = np.abs(proj @ eq[:rank] + eq[rank]) <= FACET_TOL * np.abs(proj).max()
        normal = eq[:rank] / np.linalg.norm(eq[:rank])
        out.setdefault(frozenset(np.flatnonzero(members).tolist()), normal)
    return out


def face_lattice_reference(points):
    """``geometry._face_lattice`` as it was with frozensets and qhull, for the equivalence
    tests.

    Returns ``(faces, proj, facets, normals)``: every face of conv(points)
    as a frozenset of point indices, sorted largest first and then by its
    sorted indices; the points projected onto their affine hull; each
    facet's incidence set; and its unit outward normal.  Facets come from
    ``hull_facets_reference``, and faces are closed by intersecting every
    new face with every facet.
    """
    from polyfw.geometry import FACET_TOL

    n = len(points)
    proj = affine_projection(points)
    rank, facet_sets, normals = proj.shape[1], [], []
    if rank == 1:
        t = proj[:, 0]
        tol = FACET_TOL * np.max(np.abs(t))
        facet_sets = [frozenset(np.nonzero(t <= np.min(t) + tol)[0].tolist()),
                      frozenset(np.nonzero(t >= np.max(t) - tol)[0].tolist())]
        normals = [[-1.0], [1.0]]
    elif rank > 1:
        facet_sets, normals = map(list, zip(*hull_facets_reference(proj).items()))
    faces = set(facet_sets)
    frontier = list(facet_sets) if rank > 1 else []  # the end points are the proper faces
    while frontier:
        fresh = []
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h and h not in faces:
                    faces.add(h)
                    fresh.append(h)
        frontier = fresh
    faces.add(frozenset(range(n)))
    return sorted(faces, key=lambda f: (-len(f), sorted(f))), proj, facet_sets, np.array(normals)


def pwidth_all_faces(atoms):
    """Facial distance by one min-norm-point problem on every proper face (no pruning).

    The exhaustive loop ``geometry.pwidth`` ran before it pruned faces by
    their slab bounds, on the rows minus the first row as ``pwidth`` takes
    them, with the first row added back to the closest pair.  Returns a
    dict with ``pwidth_estimate``, ``face_indices``, ``face_point`` and
    ``other_point`` of the closest facial pair (the first in
    ``enumerate_faces`` order among ties), and ``distances``, each proper
    face's distance keyed by the face.
    """
    from polyfw.core import Atom
    from polyfw.geometry import _atom_matrix, _facial_pair, enumerate_faces

    mat = _atom_matrix(atoms)
    mat = mat[[k for _, k in oracles._intern(map(Atom, mat)).values()]]
    rel = mat - mat[0]
    faces = enumerate_faces(rel)
    obj = QuadraticObjective.distance_to(np.zeros(mat.shape[1]))
    solved = [(face,) + _facial_pair(rel, sorted(face), obj)
              for face in faces if len(face) < mat.shape[0]]
    face, a, b = min(solved, key=lambda c: np.linalg.norm(c[1] - c[2]))
    return {
        "pwidth_estimate": float(np.linalg.norm(a - b)),
        "face_indices": sorted(face),
        "face_point": (a + mat[0]).tolist(),
        "other_point": (b + mat[0]).tolist(),
        "distances": {f: float(np.linalg.norm(fa - fb)) for f, fa, fb in solved},
    }


def drop_prefix_ok(kinds, initial_active_size=1):
    """Drop-count prefix bound: drops in the first t records <= t/2 + 1."""
    drops = 0
    for t, kind in enumerate(kinds, start=1):
        if kind == "DROP":
            drops += 1
        if drops > t / 2.0 + 1.0:
            return False
    return True


# -- record-by-record trace reference ------------------------------------------
#
# ``RunTrace`` keeps its rows as columns; these are the per-record
# definitions it replaced, kept to hold the columnar code to them.


def step_record_csv_row(rec):
    """One ``StepRecord`` as a CSV row: ints by ``str``, the kind's value, floats by ``repr``."""
    return ",".join(
        [
            str(rec.iteration),
            rec.kind.value,
            repr(float(rec.gamma)),
            repr(float(rec.gamma_max)),
            repr(float(rec.fw_gap)),
            repr(float(rec.away_gap)),
            repr(float(rec.f_value)),
            str(rec.active_size),
        ]
    )


def trace_step_counts(records):
    """{kind value: count} over the records."""
    counts = {}
    for r in records:
        counts[r.kind.value] = counts.get(r.kind.value, 0) + 1
    return counts


def trace_validate(records, initial_active_size=1):
    """``RunTrace.validate`` walked record by record: raises AssertionError on the first breach."""
    prev_f = None
    prev_size = initial_active_size
    drops = 0
    for t, rec in enumerate(records, start=1):
        if prev_f is not None and rec.f_value > prev_f + 1e-12 * max(1.0, abs(prev_f)):
            raise AssertionError(f"objective increased at iteration {rec.iteration}")
        if rec.kind.value == "DROP":
            drops += 1
            if rec.active_size >= prev_size:
                raise AssertionError("drop step did not shrink the active set")
        if rec.kind.value == "SWAP" and rec.active_size != prev_size:
            raise AssertionError("swap step changed the active-set size")
        if drops > t / 2.0 + initial_active_size / 2.0:
            raise AssertionError(f"too many drop steps in prefix of length {t}")
        prev_f = rec.f_value
        prev_size = rec.active_size


# -- active-set reference model ------------------------------------------------
#
# Weights live in a plain {atom id: weight} dict.  The policy constants
# (the exact-zero floor and the snap of gamma onto gamma_max) are the
# library's documented numerical policy; everything else follows the
# step definitions directly.

from polyfw.core import GAMMA_SNAP, WEIGHT_FLOOR  # noqa: E402


def point_key(point):
    """Atom identity: the float64 bytes of the coordinates, -0.0 folded to 0.0."""
    return (np.asarray(point, dtype=np.float64) + 0.0).tobytes()


def _ref_clean(weights):
    kept = {k: w for k, w in weights.items() if w > WEIGHT_FLOOR}
    total = sum(kept.values())
    return {k: w / total for k, w in kept.items()}


def ref_fw_step(weights, s_id, gamma):
    """x <- x + gamma (s - x): every weight times 1 - gamma, s gains gamma."""
    if gamma >= 1.0:
        return {s_id: 1.0}
    out = {k: (1.0 - gamma) * w for k, w in weights.items()}
    out[s_id] = out.get(s_id, 0.0) + gamma
    return _ref_clean(out)


def ref_away_step(weights, v, gamma):
    """x <- x + gamma (x - v); returns (weights, dropped)."""
    alpha = weights[v]
    gamma_max = alpha / (1.0 - alpha)
    if gamma_max - gamma <= GAMMA_SNAP * max(1.0, gamma_max):
        out = {k: (1.0 + gamma_max) * w for k, w in weights.items() if k != v}
        return _ref_clean(out), True
    out = {k: (1.0 + gamma) * w for k, w in weights.items()}
    out[v] = (1.0 + gamma) * alpha - gamma
    return _ref_clean(out), False


def ref_pairwise_step(weights, v, s_id, gamma):
    """Move gamma of v's weight onto s; returns (weights, kind)."""
    alpha = weights[v]
    out = dict(weights)
    if alpha - gamma <= GAMMA_SNAP:
        kind = "DROP" if s_id in weights else "SWAP"
        del out[v]
        out[s_id] = out.get(s_id, 0.0) + alpha
        return out, kind
    if gamma > WEIGHT_FLOOR:  # a sub-floor gamma is an exact zero
        out[v] = alpha - gamma
        out[s_id] = out.get(s_id, 0.0) + gamma
    return out, "PAIRWISE"


# -- scanning bookkeeping, bit for bit -----------------------------------------
#
# The array bookkeeping of ``polyfw.core`` as it was before its O(1) checks:
# every position is found by scanning the ids, and every cleaning step tests
# the exact smallest weight.  The arithmetic (scale, tail, new atom, drop,
# renormalizing sum, dense point) and the shared append-only store, which
# fixes the bits of a re-synthesized x, are spelled out step by step, so the
# library's ids, weights and x must equal these bit for bit.

from polyfw.core import RESYNTH_PERIOD  # noqa: E402


class ScanStore:
    """Append-only rows shared by a reference iterate and the ones stepped from it."""

    def __init__(self, ids, points):
        self.points = [np.asarray(p, dtype=np.float64) for p in points]
        self.row_of = dict(zip(ids, range(len(self.points))))

    def row(self, atom_id, point):
        if atom_id not in self.row_of:
            self.row_of[atom_id] = len(self.points)
            self.points.append(np.asarray(point, dtype=np.float64))
        return self.row_of[atom_id]


class ScanIterate:
    """ids, weights, store rows and x of an iterate; steps return new ones."""

    def __init__(self, ids, w, x, rows, store, since=0):
        self.ids, self.w, self.x, self.rows, self.store, self.since = ids, w, x, rows, store, since

    @classmethod
    def from_atom(cls, atom_id, point):
        point = np.asarray(point, dtype=np.float64)
        return cls([atom_id], np.array([1.0]), point.copy(), [0], ScanStore([atom_id], [point]))

    def index(self, atom_id):
        return self.ids.index(atom_id) if atom_id in self.ids else None

    def point(self, j):
        return self.store.points[self.rows[j]]

    def synthesize(self, rows, w, store):
        full = np.zeros(len(store.points))
        full[rows] = w
        return full @ np.array(store.points)

    def move(self, s, j, gamma, x_new, drop=False, force_sync=False, clean=True):
        """x + gamma (head - tail); ``s`` is (id, point) or None, ``j`` a position or None."""
        ids, rows, store = list(self.ids), list(self.rows), self.store
        scale = 1.0 + gamma * ((s is None) - (j is None))
        w = self.w * scale if scale != 1.0 else self.w.copy()
        if j is not None:
            w[j] -= gamma
        if s is not None:
            i = self.index(s[0])
            if i is None:
                if len(store.points) >= 2 * len(rows) + 8:
                    store = ScanStore(ids, [store.points[r] for r in rows])
                    rows = list(range(len(rows)))
                w = np.concatenate((w, [gamma]))
                rows.append(store.row(*s))
                ids.append(s[0])
            else:
                w[i] += gamma
        if drop:
            del ids[j], rows[j]
            w = np.delete(w, j)
        if clean:
            if min(w.tolist()) <= WEIGHT_FLOOR:
                kept = [i for i, v in enumerate(w.tolist()) if v > WEIGHT_FLOOR]
                ids, rows, w = [ids[i] for i in kept], [rows[i] for i in kept], w[kept]
            w = w / np.add.reduce(w)
        since = self.since + 1
        if drop or force_sync or since >= RESYNTH_PERIOD:
            x_new, since = self.synthesize(rows, w, store), 0
        return ScanIterate(ids, w, x_new, rows, store, since)

    def fw(self, atom_id, point, gamma):
        if gamma >= 1.0:
            return ScanIterate.from_atom(atom_id, point)
        x_new = gamma * (point - self.x)
        x_new += self.x
        return self.move((atom_id, point), None, gamma, x_new)

    def away(self, v, gamma):
        """(iterate, dropped)."""
        j = self.index(v)
        alpha = float(self.w[j])
        gamma_max = alpha / (1.0 - alpha)
        if gamma_max - gamma <= GAMMA_SNAP * max(1.0, gamma_max):
            gamma = gamma_max
        drop = gamma == gamma_max
        x_new = self.x if drop else self.x + gamma * (self.x - self.point(j))
        return self.move(None, j, gamma, x_new, drop, force_sync=gamma > 1.0), drop

    def pairwise(self, v, atom_id, point, gamma):
        """(iterate, kind name)."""
        j = self.index(v)
        gamma_max = float(self.w[j])
        if gamma_max - gamma <= GAMMA_SNAP:
            gamma = gamma_max
        elif gamma <= WEIGHT_FLOOR:
            gamma = 0.0
        if gamma == gamma_max:
            out = self.move((atom_id, point), j, gamma, self.x, drop=True, clean=False)
            return out, "SWAP" if len(out.ids) == len(self.ids) else "DROP"
        x_new = self.x + gamma * (point - self.point(j))
        head = (atom_id, point) if gamma > 0.0 else None
        return self.move(head, j, gamma, x_new, clean=False), "PAIRWISE"


def away_atom_reference(ids, points, weights, grad, x):
    """The away atom by brute force: the position j of the largest key (<a_j, grad>, w_j, id_j),
    compared as tuples, each product formed one atom at a time, and the away gap
    <a_j, grad> - <grad, x>."""
    keys = [(float(p @ grad), float(w), atom_id) for p, w, atom_id in zip(points, weights, ids)]
    j = max(range(len(keys)), key=keys.__getitem__)
    return j, keys[j][0] - float(grad @ x)


def dense_fw_reference(Q, b, c, atoms, variant, x0, max_iter, epsilon):
    """Dense FW / AFW / PFW loop: dict active set, full matvecs, closed-form line search.

    The oracle scans the rows of ``atoms`` (lowest row wins ties).  The
    dense point is rebuilt from the weights every iteration.  Returns one
    (kind, gamma, fw_gap, f_value) tuple per step, with the library's
    pre-step gap / post-step value pairing.
    """
    Q = np.asarray(Q, dtype=np.float64)
    A = np.asarray(atoms, dtype=np.float64)
    points = {point_key(x0): np.asarray(x0, dtype=np.float64)}
    weights = {point_key(x0): 1.0}
    out = []
    for _ in range(max_iter):
        x = sum(w * points[k] for k, w in weights.items())
        grad = Q @ x + b
        s = A[int(np.argmin(A @ grad))]
        s_id = point_key(s)
        points.setdefault(s_id, s)
        fw_gap = float(grad @ (x - s))
        if fw_gap <= epsilon:
            break
        v = max(weights, key=lambda k: (float(grad @ points[k]), weights[k], k))
        away_gap = float(grad @ points[v]) - float(grad @ x)
        if variant == "FW" or (variant == "AFW" and (fw_gap >= away_gap or len(weights) == 1)):
            kind, d, gamma_max = "FW", s - x, 1.0
        elif variant == "AFW":
            alpha = weights[v]
            kind, d, gamma_max = "AWAY", x - points[v], alpha / (1.0 - alpha)
        else:
            kind, d, gamma_max = "PAIRWISE", s - points[v], weights[v]
        descent = -float(grad @ d)
        if descent <= 0.0:
            break
        curvature = float(d @ (Q @ d))
        gamma = gamma_max if curvature <= 0.0 else min(max(descent / curvature, 0.0), gamma_max)
        if kind == "FW":
            weights = ref_fw_step(weights, s_id, gamma)
        elif kind == "AWAY":
            weights, dropped = ref_away_step(weights, v, gamma)
            kind = "DROP" if dropped else "AWAY"
        else:
            weights, kind = ref_pairwise_step(weights, v, s_id, gamma)
        x = sum(w * points[k] for k, w in weights.items())
        out.append((kind, gamma, fw_gap, float(0.5 * x @ (Q @ x) + b @ x + c)))
    return out


# -- sampled affine-invariant constants ----------------------------------------
#
# The paper's curvature constants C_f, C_f^A and its geometric strong
# convexity mu_f^A, estimated by sampling their defining quotients.  This
# is a measuring instrument for criterion 9, not library code: the
# linear rates polyfw reports come from the exact (mu, L, delta, M).

from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402

from polyfw import oracles  # noqa: E402
from polyfw.objectives import Objective, QuadraticObjective  # noqa: E402


ESTIMATE_ATOM_CAP = 16


def _contains(points: np.ndarray, x: np.ndarray) -> bool:
    """LP feasibility of x in conv(rows of points)."""
    n = points.shape[0]
    A_eq = np.vstack([points.T, np.ones((1, n))])
    b_eq = np.concatenate([x, [1.0]])
    res = linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq, bounds=[(0.0, None)] * n, method="highs")
    return res.status == 0


def _shortest_prefix(n: int, feasible) -> Optional[int]:
    """Smallest k in [1, n] with ``feasible(k)``, or None when ``feasible(n)`` fails.

    Prefix feasibility is monotone in k, so a binary search needs only
    log-many LPs after the one for the whole set.
    """
    return bisect.bisect_left(range(1, n), True, key=feasible) + 1 if feasible(n) else None


@dataclass
class CurvatureEstimates:
    """Exact eigenvalue constants plus sampled affine-invariant estimates.

    The sampled curvatures are maxima over samples, hence lower bounds
    of the true suprema; the sampled away curvature is a minimum, hence
    an upper bound of the true infimum.
    """

    L: float
    mu: float
    C_f_hat: float
    C_fA_hat: float
    mu_fA_hat: float


def _fw_index(mat: np.ndarray, grad: np.ndarray) -> int:
    return int(np.argmin(mat @ grad))


def _away_value(mat: np.ndarray, grad: np.ndarray, x: np.ndarray) -> Optional[float]:
    """<grad, v_f(x)> for the worst-case away atom over all active sets.

    Sorting atoms by increasing gradient value, the minimal prefix whose
    hull contains x bounds every admissible active set from below, and
    its last atom's value is attained.
    """
    dots = mat @ grad
    order = np.argsort(dots, kind="stable")
    k = _shortest_prefix(len(order), lambda j: _contains(mat[order[:j]], x))
    return None if k is None else float(dots[order[k - 1]])


def estimate_affine_constants(
    obj: Objective,
    spec: oracles.PolytopeSpec,
    n_samples: int = 200,
    seed: int = 0,
) -> CurvatureEstimates:
    """Sampled affine-invariant curvature constants over a small atom set.

    The two curvatures are maxima of their defining quotients over
    sampled (point, atom, step) tuples, the away curvature is a minimum
    over sampled descent pairs, so the estimates bracket the true
    constants from the safe side.  Every vertex contributes the
    structured pair (vertex, its oracle atom), which has unit affine
    step size; injecting it into all three sample sets enforces the
    ordering away-curvature <= curvature <= pairwise-curvature on the
    shared samples.
    """
    if n_samples < 100:
        raise ValueError("n_samples must be at least 100")
    atoms = spec.enumerate_atoms()
    if len(atoms) > ESTIMATE_ATOM_CAP:
        raise ValueError(f"estimation needs at most {ESTIMATE_ATOM_CAP} atoms")
    mat = np.stack([a.point for a in atoms])
    m, d = mat.shape
    rng = np.random.default_rng(seed)

    if isinstance(obj, QuadraticObjective):
        L, mu = obj.smoothness, obj.strong_convexity
    else:
        raise TypeError("constant estimation is implemented for quadratics")

    def sample_point() -> np.ndarray:
        if m > 1 and rng.random() < 0.5:
            size = int(rng.integers(1, min(m, d + 1) + 1))
            subset = rng.choice(m, size=size, replace=False)
            w = rng.dirichlet(np.ones(size))
            return w @ mat[subset]
        w = rng.dirichlet(np.ones(m))
        return w @ mat

    def curvature_quotient(x, y, grad_x, f_x, gamma) -> float:
        return 2.0 / gamma ** 2 * (obj.value(y) - f_x - float(grad_x @ (y - x)))

    C_f = -np.inf
    C_fA = -np.inf
    mu_fA = np.inf

    for _ in range(n_samples):
        x = sample_point()
        f_x, grad_x = obj.value_and_gradient(x)
        gamma = float(rng.uniform(0.25, 1.0))
        s = mat[int(rng.integers(m))]
        C_f = max(C_f, curvature_quotient(x, x + gamma * (s - x), grad_x, f_x, gamma))
        # Evaluating the pairwise quotient at every atom v dominates the
        # plain quotient at (x, s, gamma), keeping the sampled ordering.
        for v in mat:
            C_fA = max(
                C_fA, curvature_quotient(x, x + gamma * (s - v), grad_x, f_x, gamma)
            )

    count = 0
    attempts = 0
    while count < n_samples and attempts < 50 * n_samples:
        attempts += 1
        x = sample_point()
        x_star = sample_point()
        q = _mu_quotient(obj, mat, x, x_star)
        if q is None:
            continue
        mu_fA = min(mu_fA, q)
        count += 1

    # Structured vertex pairs: gamma^A = 1 exactly, so the same quotient
    # feeds all three estimates.
    for i in range(m):
        a = mat[i]
        others = np.delete(mat, i, axis=0)
        if others.shape[0] and _contains(others, a):
            continue  # not a vertex of the hull
        f_a, grad_a = obj.value_and_gradient(a)
        s = mat[_fw_index(mat, grad_a)]
        if float(grad_a @ (s - a)) >= 0.0:
            continue
        q = curvature_quotient(a, s, grad_a, f_a, 1.0)
        C_f = max(C_f, q)
        C_fA = max(C_fA, q)
        mu_fA = min(mu_fA, q)

    return CurvatureEstimates(L=L, mu=mu, C_f_hat=float(C_f), C_fA_hat=float(C_fA), mu_fA_hat=float(mu_fA))


def _mu_quotient(
    obj: Objective, mat: np.ndarray, x: np.ndarray, x_star: np.ndarray
) -> Optional[float]:
    """Away-curvature quotient for one (x, x*) pair, or None if inadmissible.

    Pairs with descent at rounding scale are rejected: their true
    quotient blows up (it cannot lower the minimum) while the computed
    numerator cancels catastrophically.
    """
    f_x, grad_x = obj.value_and_gradient(x)
    descent = float(grad_x @ (x_star - x))
    if descent >= -1e-9 * max(1.0, abs(f_x)):
        return None
    s = mat[_fw_index(mat, grad_x)]
    away = _away_value(mat, grad_x, x)
    if away is None:
        return None
    denom = away - float(grad_x @ s)
    if denom <= 1e-14 * max(1.0, float(np.max(np.abs(mat @ grad_x)))):
        return None
    gamma_a = -descent / denom
    if gamma_a <= 0.0:
        return None
    return 2.0 / gamma_a ** 2 * (obj.value(x_star) - f_x - descent)
