"""Geometric quantities that govern Frank-Wolfe convergence rates.

The pyramidal width of an atom set is computed exactly as its facial
distance: the smallest distance between a proper face and the hull of
the remaining atoms (Pena and Rodriguez, Math. Oper. Res. 2019), by
min-norm-point solves and no LP.  A slab bound from the facet normals
skips every face that cannot hold the minimum.  Its witness is the
closest facial pair.  A face is a uint64 bitmask of its atoms: up to 64
atoms and 2^16 faces.  The facets come from a double-description
enumerator in numpy (``_hull_facets``), so no face or width loads scipy.
The diameter M (``polytope_diameter``) and the width are exact to rounding
however far the atoms are translated; simplices, cubes and l1 balls have
closed forms for both.  Theorem 1's contraction factor ``linear_rate`` lives
here too, and ``rate_constant`` gathers its arguments for a quadratic,
``RateConstants(mu, L, delta, diameter)``, from one enumeration of the atoms
at most.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from polyfw import oracles, solvers
from polyfw.core import Atom
from polyfw.objectives import Objective, QuadraticObjective

MASK_ATOMS = 64  # a face is a uint64 mask of its atoms, one bit each
FACE_CAP = 2 ** 16
_BITS = np.left_shift(np.uint64(1), np.arange(MASK_ATOMS, dtype=np.uint64))
FACET_TOL = 1e-9  # on a facet: within this times the points' largest projected coordinate
VALUE_FLOOR = 1e-12  # a facial distance below this times the diameter means a degenerate set


def _atom_matrix(atoms) -> np.ndarray:
    mat = np.array(atoms, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise ValueError("atom set must be a nonempty 2-d matrix")
    with np.errstate(invalid="ignore", over="ignore"):
        if not np.isfinite(np.ptp(mat, axis=0)).all():  # so every difference of rows is finite
            raise ValueError("atom coordinates and their differences must be finite")
    return mat


def _diameter(mat: np.ndarray) -> float:
    """Largest distance between rows of ``mat``: blocks of |a|^2 + |b|^2 - 2 a.b on the rows
    minus the first (exact by Sterbenz's lemma at a large offset, and no longer than M)."""
    rel = mat - mat[0]
    sq = np.einsum("ij,ij->i", rel, rel)
    blocks = (sq[lo : lo + 512, None] + sq - 2.0 * (rel[lo : lo + 512] @ rel.T)
              for lo in range(0, len(rel), 512))
    return float(np.sqrt(max(float(d2.max()) for d2 in blocks)))


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first call.  No polyfw code calls it; the name
    stays only because perfbench's tracer patches it, and ``perfbench/test_perfbench.py``
    and ``test_traced_entry_points_are_module_globals`` read it."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _bits(masks: np.ndarray, n: int) -> np.ndarray:
    """Boolean matrix whose row k flags which of ``n`` points the mask ``masks[k]`` holds."""
    return (masks[:, None] & _BITS[:n]) != 0


def _members(mask) -> List[int]:
    """The sorted point indices of one face mask."""
    return np.flatnonzero(mask & _BITS).tolist()


def _hull_facets(proj: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(masks, unit outward normals) of the facets of conv(proj), in increasing mask order;
    ``proj`` is n x r, centred and of rank r.

    Double description (Motzkin et al. 1953; Fukuda and Prodon 1996): scaled to unit
    largest coordinate, the facets are the extreme rays (a, beta), |a| = 1, of the pointed
    cone {a . p_i <= beta}.  It starts from the simplicial cone of r + 1 rows, each the
    farthest from the span of those chosen, and adds one point's constraint at a time.
    A ray's mask holds the points within ``FACET_TOL`` of its hyperplane; a ray that the
    new point violates is joined to each ray inside that is adjacent to it (at least
    r - 1 shared points, and no third ray's mask covers the shared ones), in blocks.  A
    cone of more than ``FACE_CAP`` rays, the last or an intermediate one, raises ``ValueError``.
    """
    n, r = proj.shape
    rows = np.hstack([proj / np.abs(proj).max(), -np.ones((n, 1))])
    start, rest = [], rows.copy()
    for _ in range(r + 1):
        k = int(np.einsum("ij,ij->i", rest, rest).argmax())
        start.append(k)
        rest -= (rest @ rest[k] / (rest[k] @ rest[k]))[:, None] * rest[k]
    rays = -np.linalg.inv(rows[start]).T  # rows[start] @ rays[k] = -e_k
    rays /= np.sqrt(np.einsum("ij,ij->i", rays[:, :r], rays[:, :r]))[:, None]
    masks = _BITS[start].sum(dtype=np.uint64) & ~_BITS[start]
    for i in sorted(set(range(n)) - set(start)):
        s = rays @ rows[i]  # distance of point i beyond each ray's hyperplane
        masks[np.abs(s) <= FACET_TOL] |= _BITS[i]
        out = s > FACET_TOL
        if not out.any():
            continue
        cut, inside = out.nonzero()[0], (s < -FACET_TOL).nonzero()[0]
        step = 2 ** 20 // max(inside.size, 1) + 1  # cut rays per block of pair products
        pairs = [(p + lo, q, block[p, q]) for lo in range(0, cut.size, step)
                 for block in [masks[cut[lo : lo + step], None] & masks[inside]]
                 for p, q in [(np.bitwise_count(block) >= r - 1).nonzero()]]
        p, q, shared = map(np.concatenate, zip(*pairs))
        step = 2 ** 20 // masks.size + 1  # pairs per block of cover tests
        adjacent = np.concatenate([((shared[lo : lo + step, None] & ~masks) == 0).sum(axis=1) == 2
                                   for lo in range(0, max(shared.size, 1), step)])
        p, q, shared = cut[p[adjacent]], inside[q[adjacent]], shared[adjacent]
        if masks.size - cut.size + p.size > FACE_CAP:
            raise ValueError(f"a cone of the facet enumeration has more than {FACE_CAP} rays")
        new = s[p, None] * rays[q] - s[q, None] * rays[p]
        new /= np.sqrt(np.einsum("ij,ij->i", new[:, :r], new[:, :r]))[:, None]
        rays = np.concatenate([rays[~out], new])
        masks = np.concatenate([masks[~out], shared | _BITS[i]])
    order = np.argsort(masks)
    return masks[order], rays[order, :r]


def _face_lattice(points: np.ndarray):
    """``(faces, proj, facets, normals)``: ``enumerate_faces``' result as uint64 masks
    (bit i for point i), the points projected onto their affine hull, and each facet's
    mask and unit outward normal there, from ``_hull_facets``.  A point is on a facet
    within ``FACET_TOL`` times the largest projected coordinate, so scaling the points
    does not change the lattice.  Faces are closed one round of ``&`` with the facet
    masks at a time.  More than ``MASK_ATOMS`` points (before any hull) or ``FACE_CAP``
    faces raise.
    """
    mat = np.asarray(points, dtype=np.float64)
    n = mat.shape[0]
    if n > MASK_ATOMS:
        raise ValueError(f"face lattices are limited to {MASK_ATOMS} atoms, got {n}")
    proj = np.zeros((n, 0))
    if n > 1:
        centered = mat - mat.mean(axis=0)
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        scale = svals[0] if svals.size and svals[0] > 0 else 1.0
        proj = centered @ vt[: int(np.sum(svals > FACET_TOL * scale))].T
    rank = proj.shape[1]
    facets, normals = _hull_facets(proj) if rank else (_BITS[:0], np.zeros((0, 0)))
    known = set(facets.tolist())
    frontier = facets if rank > 1 else facets[:0]  # the end points are the proper faces
    step = 2 ** 20 // max(facets.size, 1) + 1  # frontier rows per block of meets
    while frontier.size and len(known) < FACE_CAP:
        fresh = set()
        for block in np.split(frontier, range(step, frontier.size, step)):
            meet = np.sort(block[:, None] & facets, axis=None)  # keep one of each run
            fresh.update(meet[:1].tolist(), meet[1:][meet[1:] != meet[:-1]].tolist())
            if len(fresh) > FACE_CAP + len(known):  # FACE_CAP new faces at least
                break
        fresh -= known | {0}
        known |= fresh
        frontier = np.fromiter(fresh, np.uint64, len(fresh))
    if len(known) >= FACE_CAP:
        raise ValueError(f"conv(points) has more than {FACE_CAP} faces")
    known.add(int(_BITS[:n].sum(dtype=np.uint64)))
    faces = np.fromiter(known, np.uint64, len(known))
    inside = _bits(faces, n)
    # largest first, then by sorted indices: the lowest differing bit decides
    reversed_bits = (inside * _BITS[::-1][:n]).sum(axis=1, dtype=np.uint64)
    return faces[np.lexsort((~reversed_bits, -inside.sum(axis=1)))], proj, facets, normals


def enumerate_faces(points: np.ndarray) -> List[frozenset]:
    """All faces of conv(points), itself included, as frozensets of point indices,
    largest first and then in order of their sorted indices.

    Proper faces are the nonempty intersections of facet incidence sets, after
    projecting onto the affine hull so degenerate (flat) inputs work too.  Up to
    ``MASK_ATOMS`` points and ``FACE_CAP`` faces (``_face_lattice``).
    """
    return [frozenset(_members(mask)) for mask in _face_lattice(points)[0]]


@dataclass
class WidthReport:
    """Pyramidal width plus the closest facial pair that attains it.

    ``witness`` holds the face (``face_indices`` into the deduplicated
    atoms, and ``face_atoms``), the closest points ``face_point`` in the
    face's hull and ``other_point`` in the hull of the other atoms, and
    the unit ``direction`` from the second to the first; the width is
    their distance.  ``directions_sampled`` keeps its historical name;
    it counts the facial-distance problems solved, the proper faces that
    the slab bounds did not rule out.
    """

    pwidth_estimate: float
    directions_sampled: int
    faces_enumerated: int
    witness: Dict

    def to_json(self) -> Dict:
        return asdict(self)


def _facial_pair(mat, face: List[int], obj: QuadraticObjective) -> Tuple[np.ndarray, np.ndarray]:
    """Closest points a in conv(mat[face]), b in conv(other atoms); ``face`` is sorted.

    a - b is the min-norm point of the Minkowski difference of the two
    atom sets, which the MNP solver finds exactly on ``obj``, the caller's
    1/2 ||x||^2; its weights on the difference rows mat[i] - mat[j] give
    a and b.  A repeated difference row enters once, for its first pair.
    """
    inside = set(face)
    others = [j for j in range(mat.shape[0]) if j not in inside]
    rows = (mat[face, None] - mat[others]).reshape(-1, mat.shape[1])  # finite: see _atom_matrix
    first = oracles._intern(map(Atom._adopt, rows))
    spec = oracles.VertexList._of_atoms([atom for atom, _ in first.values()])
    # MNP ends on the exact minimizer of its final active set, so its FW
    # gap reaches rounding scale; this bound keeps |a - b| exact to ~1e-12.
    scale = float(np.maximum.reduce(np.einsum("ij,ij->i", spec.matrix, spec.matrix)))
    config = solvers.SolverConfig(solvers.Variant.MNP, epsilon=1e-14 * scale)
    trace = solvers.solve(obj, spec, config)
    status = trace.config_echo["exit_status"]
    if status != "converged":
        raise RuntimeError(f"facial distance of face {face} ended with {status}")
    it = trace.final_iterate
    i, j = np.divmod([first[atom_id][1] for atom_id in it.ids], len(others))  # row i * |others| + j
    return it.w.dot(mat[face][i]), it.w.dot(mat[others][j])


def _slab_bounds(faces, proj, facets, normals) -> List[Tuple[float, int]]:
    """(lower bound on the facial distance, index in ``faces``) of each proper face F.

    ``faces`` and ``facets`` are ``_face_lattice``'s masks.  With n the sum
    of the normals of the facets that contain F,
    (min_{i in F} <n, p_i> - max_{j not in F} <n, p_j>) / ||n|| is the
    width of a slab between conv(F) and the hull of the other points.
    """
    inside = _bits(faces, len(proj))
    proper = np.flatnonzero(~inside.all(axis=1))
    inside = inside[proper]
    sums = ((faces[proper, None] & ~facets) == 0) @ normals  # the facets that hold all of F
    dots = proj @ sums.T
    low = np.where(inside.T, dots, np.inf).min(axis=0)
    high = np.where(inside.T, -np.inf, dots).max(axis=0)
    return list(zip(((low - high) / np.linalg.norm(sums, axis=1)).tolist(), proper.tolist()))


def pwidth(atoms) -> WidthReport:
    """Exact pyramidal width of an n x d array of atoms: its facial distance.

    The pyramidal width equals the smallest distance between a proper
    face and the hull of the atoms off it (Pena and Rodriguez, Math.
    Oper. Res. 2019); each such distance is one min-norm-point problem.
    Faces are solved in increasing order of their slab bounds, until a
    bound exceeds the best distance, so every face that ties the minimum
    is solved; the closest pair, first in ``enumerate_faces`` order among
    ties, is the witness.  Faces and problems take the rows minus the
    first row, which is added back to the witness points, so translating
    the atoms does not cost the width digits.  Up to ``MASK_ATOMS``
    distinct atoms and ``FACE_CAP`` faces (``ValueError`` past either); a
    facial problem that does not converge raises ``RuntimeError``.
    """
    mat = _atom_matrix(atoms)
    mat = mat[[k for _, k in oracles._intern(map(Atom, mat)).values()]]
    if mat.shape[0] == 1:
        raise ValueError("pyramidal width is undefined for a single point")
    rel = mat - mat[0]  # exact by Sterbenz's lemma when the atoms sit far from the origin
    faces, proj, facets, normals = _face_lattice(rel)
    obj = QuadraticObjective.distance_to(np.zeros(mat.shape[1]))
    best, solved = (np.inf, -1, None, None), 0
    for bound, index in sorted(_slab_bounds(faces, proj, facets, normals)):
        if bound > best[0] * (1.0 + 1e-9):
            break
        a, b = _facial_pair(rel, _members(faces[index]), obj)
        gap = a - b  # its norm as np.linalg.norm forms it for a 1-d float array
        best, solved = min(best, (float(np.sqrt(gap.dot(gap))), index, a, b)), solved + 1
    distance, index, a, b = best
    if not VALUE_FLOOR * _diameter(rel) < distance < np.inf:
        raise ValueError("a face touches the other atoms' hull; atom set may be degenerate")
    idx = _members(faces[index])
    witness = {
        "face_indices": idx,
        "face_atoms": mat[idx].tolist(),
        "face_point": (a + mat[0]).tolist(),
        "other_point": (b + mat[0]).tolist(),
        "direction": ((a - b) / distance).tolist(),
    }
    return WidthReport(distance, solved, len(faces), witness)


def analytic_pwidth(spec: oracles.PolytopeSpec) -> Optional[float]:
    """Closed-form pyramidal width for families where it is known.

    The l1 ball of radius r in R^d: 2r for d = 1, else r / sqrt(d - 1), its facial distance
    (Pena and Rodriguez 2019).  A face of k < d atoms s_i r e_i lies on sum_i s_i y_i = r,
    and the other atoms' hull {||y||_1 <= r, s_i y_i <= 0 on the face's coordinates}
    contains 0: they are r / sqrt(k) apart.  Opposite facets are 2r / sqrt(d) apart.
    """
    if isinstance(spec, oracles.L1Ball):
        d, r = spec.dimension, spec.radius
        return 2.0 * r if d == 1 else r / np.sqrt(d - 1.0)
    if isinstance(spec, oracles.Simplex):
        d = spec.dimension
        if d < 2:
            return None
        if d % 2 == 0:
            return 2.0 / np.sqrt(d)
        return 2.0 / np.sqrt(d - 1.0 / d)
    if isinstance(spec, oracles.Cube):
        return 1.0 / np.sqrt(spec.dimension)
    return None


def analytic_diameter(spec: oracles.PolytopeSpec) -> Optional[float]:
    """Closed-form diameter where the polytope family has one."""
    if isinstance(spec, oracles.Simplex):
        return float(np.sqrt(2.0)) if spec.dimension >= 2 else 0.0
    if isinstance(spec, oracles.Cube):
        return float(np.sqrt(spec.dimension))
    if isinstance(spec, oracles.L1Ball):
        return 2.0 * spec.radius
    return None


def polytope_diameter(spec: oracles.PolytopeSpec) -> float:
    """Closed-form diameter, else the farthest pair of atoms (``EnumerationError`` past the cap)."""
    M = analytic_diameter(spec)
    return _diameter(np.stack([a.point for a in spec.enumerate_atoms()])) if M is None else M


def _spec_constants(spec: oracles.PolytopeSpec) -> Tuple[float, float]:
    """(M, delta) of a spec: closed forms where known, else from one enumeration of its atoms."""
    M, delta = analytic_diameter(spec), analytic_pwidth(spec)
    if M is None or delta is None:
        mat = np.stack([a.point for a in spec.enumerate_atoms()])
        M = _diameter(mat) if M is None else M
        delta = pwidth(mat).pwidth_estimate if delta is None else delta
    return M, delta


def eccentricity(spec: oracles.PolytopeSpec) -> float:
    """(diameter / pyramidal width)^2 of the domain."""
    M, delta = _spec_constants(spec)
    return float((M / delta) ** 2)


def linear_rate(variant, mu: float, L: float, delta: float, M: float) -> Optional[float]:
    """Theorem 1's contraction factor rho: h_{t+1} <= (1 - rho) h_t on a good step.

    With base = mu delta^2 / (L M^2), AFW and FCFW contract by base / 4,
    and so does MNP, an FCFW whose correction is Wolfe's cycle; PFW by
    min(1/2, base).  Plain FW has no linear rate (None); L M^2 = 0 raises ``ValueError``.
    """
    variant = solvers.Variant(variant)
    if variant is solvers.Variant.FW:
        return None
    if not L * M ** 2 > 0:
        raise ValueError(f"Theorem 1's rate needs L * M^2 > 0, got L = {L} and M = {M}")
    base = mu * delta ** 2 / (L * M ** 2)
    return min(0.5, base) if variant is solvers.Variant.PFW else base / 4.0


@dataclass
class RateConstants:
    """Theorem 1's constants for a quadratic over a polytope, in ``linear_rate``'s argument
    order: each variant's rho is ``linear_rate(variant, mu, L, delta, diameter)``."""

    mu: float
    L: float
    delta: float
    diameter: float


def rate_constant(obj: Objective, spec: oracles.PolytopeSpec) -> RateConstants:
    """mu and L of a quadratic (the extreme eigenvalues of Q) and delta and M of ``spec``."""
    if not isinstance(obj, QuadraticObjective):
        raise TypeError("rate constants are only available for quadratics")
    M, delta = _spec_constants(spec)
    return RateConstants(obj.strong_convexity, obj.smoothness, delta, M)
