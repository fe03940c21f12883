"""Geometric quantities that govern Frank-Wolfe convergence rates.

The pyramidal width of an atom set is computed exactly as its facial
distance: the smallest distance between a proper face and the hull of
the remaining atoms (Pena and Rodriguez, Math. Oper. Res. 2019), by
min-norm-point solves and no LP.  A slab bound from the facet normals
skips every face that cannot hold the minimum.  Its witness is the
closest facial pair.  A face is a uint64 bitmask of its atoms: up to 64
atoms and 2^16 faces.
The diameter M (``polytope_diameter``, exact to rounding however far the
atoms are translated), ``exact_constants`` (L, mu, M) and Theorem 1's
contraction factor ``linear_rate`` live here too; ``rate_constant``
evaluates it for a quadratic from one enumeration of the atoms at most.
scipy loads only on the first face enumeration, not with the module.
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
    if isinstance(atoms, np.ndarray):
        mat = np.array(atoms, dtype=np.float64)
    else:
        rows = [a.point if isinstance(a, Atom) else np.asarray(a, dtype=np.float64) for a in atoms]
        mat = np.stack(rows)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise ValueError("atom set must be a nonempty 2-d matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError("atom coordinates must be finite")
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


def _face_lattice(points: np.ndarray):
    """``(faces, proj, facets, normals)``: ``enumerate_faces``' result as uint64 masks
    (bit i for point i), the points projected onto their affine hull, and each facet's
    mask and unit outward normal there (a rank-1 input's facets are its end points,
    normals -1, +1).  A point is on a facet within ``FACET_TOL`` times the largest
    projected coordinate (the spread, at rank 1), so scaling the points does not change
    the lattice.  Faces are closed one round of ``&`` with the facet masks at a time.
    More than ``MASK_ATOMS`` points (before any hull) or ``FACE_CAP`` faces raise.
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
    member, normals = np.zeros((0, n), dtype=bool), np.zeros((0, rank))
    if rank == 1:
        t, tol = proj[:, 0], FACET_TOL * np.ptp(proj)
        member = np.array([t <= t.min() + tol, t >= t.max() - tol])
        normals = np.array([[-1.0], [1.0]])
    elif rank > 1:
        from scipy.spatial import ConvexHull

        eqs = ConvexHull(proj).equations
        member = (np.abs(proj @ eqs[:, :rank].T + eqs[:, rank]) <= FACET_TOL * np.abs(proj).max()).T
        normals = eqs[:, :rank]
    facets = (member * _BITS[:n]).sum(axis=1, dtype=np.uint64)
    first = {mask: k for k, mask in reversed(list(enumerate(facets.tolist())))}
    first = sorted(k for mask, k in first.items() if mask)  # each facet's first equation
    facets = facets[first]
    normals = np.array([v / np.linalg.norm(v) for v in normals[first]]).reshape(len(first), rank)
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
    first = oracles._intern(map(Atom, (mat[face, None] - mat[others]).reshape(-1, mat.shape[1])))
    spec = oracles.VertexList._of_atoms([atom for atom, _ in first.values()])
    # MNP ends on the exact minimizer of its final active set, so its FW
    # gap reaches rounding scale; this bound keeps |a - b| exact to ~1e-12.
    scale = float(np.einsum("ij,ij->i", spec.matrix, spec.matrix).max())
    config = solvers.SolverConfig(solvers.Variant.MNP, epsilon=1e-14 * scale)
    trace = solvers.solve(obj, spec, config)
    status = trace.config_echo["exit_status"]
    if status != "converged":
        raise RuntimeError(f"facial distance of face {face} ended with {status}")
    it = trace.final_iterate
    i, j = np.divmod([first[atom_id][1] for atom_id in it.ids], len(others))  # row i * |others| + j
    return it.w @ mat[face][i], it.w @ mat[others][j]


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
    """Exact pyramidal width of an atom set: its facial distance.

    The pyramidal width equals the smallest distance between a proper
    face and the hull of the atoms off it (Pena and Rodriguez, Math.
    Oper. Res. 2019); each such distance is one min-norm-point problem.
    Faces are solved in increasing order of their slab bounds, until a
    bound exceeds the best distance, so every face that ties the minimum
    is solved; the closest pair, first in ``enumerate_faces`` order among
    ties, is the witness.  Up to ``MASK_ATOMS`` distinct atoms and
    ``FACE_CAP`` faces (``ValueError`` past either); a facial problem
    that does not converge raises ``RuntimeError``.
    """
    mat = _atom_matrix(atoms)
    mat = mat[[k for _, k in oracles._intern(map(Atom, mat)).values()]]
    if mat.shape[0] == 1:
        raise ValueError("pyramidal width is undefined for a single point")
    faces, proj, facets, normals = _face_lattice(mat)
    obj = QuadraticObjective.distance_to(np.zeros(mat.shape[1]))
    best, solved = (np.inf, -1, None, None), 0
    for bound, index in sorted(_slab_bounds(faces, proj, facets, normals)):
        if bound > best[0] * (1.0 + 1e-9):
            break
        a, b = _facial_pair(mat, _members(faces[index]), obj)
        best, solved = min(best, (float(np.linalg.norm(a - b)), index, a, b)), solved + 1
    distance, index, a, b = best
    if not VALUE_FLOOR * _diameter(mat) < distance < np.inf:
        raise ValueError("a face touches the other atoms' hull; atom set may be degenerate")
    idx = _members(faces[index])
    witness = {
        "face_indices": idx,
        "face_atoms": mat[idx].tolist(),
        "face_point": a.tolist(),
        "other_point": b.tolist(),
        "direction": ((a - b) / distance).tolist(),
    }
    return WidthReport(distance, solved, len(faces), witness)


def analytic_pwidth(spec: oracles.PolytopeSpec) -> Optional[float]:
    """Closed-form pyramidal width for families where it is known."""
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


def _curvature(obj: Objective) -> Tuple[float, float]:
    if not isinstance(obj, QuadraticObjective):
        raise TypeError("exact constants are only available for quadratics")
    return obj.smoothness, obj.strong_convexity


def exact_constants(obj: Objective, spec: oracles.PolytopeSpec) -> Tuple[float, float, float]:
    """(L, mu, M): extreme eigenvalues of Q and the polytope diameter."""
    return (*_curvature(obj), polytope_diameter(spec))


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
    """Theorem 1's constants for a quadratic over a polytope (see ``linear_rate``)."""

    afw: float   # rho of AFW, FCFW and MNP: mu delta^2 / (4 L M^2)
    pfw: float   # rho of PFW: min(1/2, mu delta^2 / (L M^2))
    mu: float
    L: float
    delta: float
    diameter: float


def rate_constant(obj: Objective, spec: oracles.PolytopeSpec) -> RateConstants:
    """Theoretical contraction factors from (mu, L) and (delta, M)."""
    L, mu = _curvature(obj)
    M, delta = _spec_constants(spec)
    afw, pfw = (linear_rate(variant, mu, L, delta, M) for variant in ("AFW", "PFW"))
    return RateConstants(afw=afw, pfw=pfw, mu=mu, L=L, delta=delta, diameter=M)
