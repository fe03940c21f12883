"""Geometric quantities that govern Frank-Wolfe convergence rates.

The pyramidal width of an atom set is the worst-case directional width
of a "pyramid": the oracle atom for a feasible direction together with
an active set that can represent the base point.  This module computes
directional widths exactly, per-direction pyramidal widths exactly (via
a sorted-prefix argument that avoids enumerating active sets), and the
global pyramidal width exactly as the facial distance: the smallest
distance between a proper face and the hull of the remaining atoms
(Pena and Rodriguez, Math. Oper. Res. 2019), by min-norm-point solves
and no LP.  A slab bound from the facet normals skips every face that
cannot hold the minimum.  Its witness is the closest facial pair.
``linear_rate`` is Theorem 1's contraction factor for each solver
variant, and ``rate_constant`` evaluates it for a quadratic over a
polytope.  scipy loads only on the first LP or face enumeration, not
with the module.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from polyfw import oracles, solvers
from polyfw.core import Atom, atom_key
from polyfw.objectives import Objective, QuadraticObjective, exact_constants, polytope_diameter

PDIRW_ATOM_CAP = 16
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


def _dedupe(mat: np.ndarray) -> List[int]:
    """Indices of the first occurrence of each distinct row, in order."""
    seen = set()
    keep = []
    for i, row in enumerate(mat):
        key = atom_key(row)
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP rather than with the module."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


def _contains(points: np.ndarray, x: np.ndarray) -> bool:
    """LP feasibility of x in conv(rows of points)."""
    n = points.shape[0]
    A_eq = np.vstack([points.T, np.ones((1, n))])
    b_eq = np.concatenate([x, [1.0]])
    res = linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq, bounds=[(0.0, None)] * n, method="highs")
    return res.status == 0


def dirw(atoms, r) -> float:
    """Directional width: max over atom pairs of <r/||r||, s - v>."""
    mat = _atom_matrix(atoms)
    r = np.asarray(r, dtype=np.float64)
    nrm = float(np.linalg.norm(r))
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    dots = mat @ (r / nrm)
    return float(np.max(dots) - np.min(dots))


def _shortest_prefix(n: int, feasible: Callable[[int], bool]) -> Optional[int]:
    """Smallest k in [1, n] with ``feasible(k)``, or None when ``feasible(n)`` fails.

    Prefix feasibility is monotone in k, so a binary search needs only
    log-many LPs after the one for the whole set.
    """
    if not feasible(n):
        return None
    lo, hi = 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def pdirw(atoms, r, x) -> float:
    """Pyramidal directional width at base point x.

    Equals the minimum over active sets S that can represent x of the
    width of the pyramid with base S and summit the oracle atom for r.
    Sorting atoms by decreasing projection onto r reduces the minimum to
    finding the shortest prefix whose hull contains x: any admissible S
    must reach at least that deep, and a representation supported inside
    the prefix achieves it.
    """
    mat = _atom_matrix(atoms)
    if mat.shape[0] > PDIRW_ATOM_CAP:
        raise ValueError(f"exact pdirw is limited to {PDIRW_ATOM_CAP} atoms")
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    nrm = float(np.linalg.norm(r))
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    dots = mat @ (r / nrm)
    order = np.argsort(-dots, kind="stable")
    k = _shortest_prefix(len(order), lambda j: _contains(mat[order[:j]], x))
    if k is None:
        raise ValueError("x is not in the convex hull of the atoms")
    return float(dots[order[0]] - dots[order[k - 1]])


def _face_lattice(points: np.ndarray):
    """``(faces, proj, facets, normals)``: ``enumerate_faces``' result, the points
    projected onto their affine hull, and each facet's incidence set and unit
    outward normal there (a rank-1 input's facets are its end points, normals -1, +1).
    A point is on a facet within ``FACET_TOL`` times the largest projected coordinate
    (the spread, at rank 1), so scaling the points does not change the lattice.
    """
    from scipy.spatial import ConvexHull

    mat = np.asarray(points, dtype=np.float64)
    n = mat.shape[0]
    proj, facet_sets, normals = np.zeros((n, 0)), [], []
    if n > 1:
        centered = mat - mat.mean(axis=0)
        _, svals, vt = np.linalg.svd(centered, full_matrices=False)
        scale = svals[0] if svals.size and svals[0] > 0 else 1.0
        proj = centered @ vt[: int(np.sum(svals > FACET_TOL * scale))].T
    rank = proj.shape[1]
    if rank == 1:
        t = proj[:, 0]
        spread = np.max(t) - np.min(t)
        facet_sets = [frozenset(np.nonzero(t <= np.min(t) + FACET_TOL * spread)[0].tolist()),
                      frozenset(np.nonzero(t >= np.max(t) - FACET_TOL * spread)[0].tolist())]
        normals = [[-1.0], [1.0]]
    elif rank > 1:
        hull = ConvexHull(proj)
        seen_eq = set()
        coord_scale = float(np.max(np.abs(proj)))
        for eq in hull.equations:
            key = tuple(np.round(eq / np.linalg.norm(eq[:rank]), 9))
            if key in seen_eq:
                continue
            seen_eq.add(key)
            normal, offset = eq[:rank], eq[rank]
            dist = proj @ normal + offset
            members = frozenset(np.nonzero(np.abs(dist) <= FACET_TOL * coord_scale)[0].tolist())
            if members:
                facet_sets.append(members)
                normals.append(normal / np.linalg.norm(normal))
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


def enumerate_faces(points: np.ndarray) -> List[frozenset]:
    """All faces of conv(points) as frozensets of point indices.

    Includes the polytope itself; proper faces are obtained as the
    nonempty intersections of facet incidence sets, after projecting
    onto the affine hull so degenerate (flat) inputs work too.
    """
    return _face_lattice(points)[0]


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


def _facial_pair(mat: np.ndarray, face: frozenset) -> Tuple[np.ndarray, np.ndarray]:
    """Closest points a in conv(face), b in conv(other atoms).

    a - b is the min-norm point of the Minkowski difference of the two
    atom sets, which the MNP solver finds exactly; its weights on the
    difference rows mat[i] - mat[j] give a and b.
    """
    others = [j for j in range(mat.shape[0]) if j not in face]
    pairs = np.array([(i, j) for i in sorted(face) for j in others])
    diffs = mat[pairs[:, 0]] - mat[pairs[:, 1]]
    keep = _dedupe(diffs)
    diffs, pairs = diffs[keep], pairs[keep]
    # MNP ends on the exact minimizer of its final active set, so its FW
    # gap reaches rounding scale; this bound keeps |a - b| exact to ~1e-12.
    scale = float(np.max(np.einsum("ij,ij->i", diffs, diffs)))
    config = solvers.SolverConfig(solvers.Variant.MNP, epsilon=1e-14 * scale)
    trace = solvers.solve(
        QuadraticObjective.distance_to(np.zeros(mat.shape[1])),
        oracles.VertexList(diffs),
        config,
    )
    status = trace.config_echo["exit_status"]
    if status != "converged":
        raise RuntimeError(f"facial distance of face {sorted(face)} ended with {status}")
    it = trace.final_iterate
    row_of = {atom_key(row): k for k, row in enumerate(diffs)}
    used = pairs[[row_of[atom_id] for atom_id in it.ids]]
    return it.w @ mat[used[:, 0]], it.w @ mat[used[:, 1]]


def _slab_bounds(faces, proj, facets, normals) -> List[Tuple[float, int]]:
    """(lower bound on the facial distance, index in ``faces``) of each proper face F.

    With n the sum of the normals of the facets that contain F,
    (min_{i in F} <n, p_i> - max_{j not in F} <n, p_j>) / ||n|| is the
    width of a slab between conv(F) and the hull of the other points.
    """
    inside = np.array([[i in f for i in range(len(proj))] for f in faces])
    proper = np.flatnonzero(~inside.all(axis=1))
    inside = inside[proper]
    outside = np.array([[i not in f for i in range(len(proj))] for f in facets])
    sums = ~(inside @ outside.T) @ normals  # F lies in a facet that no point of F is off
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
    ties, is the witness.
    """
    mat = _atom_matrix(atoms)
    mat = mat[_dedupe(mat)]
    n = mat.shape[0]
    if n > PDIRW_ATOM_CAP:
        raise ValueError(f"pwidth is limited to {PDIRW_ATOM_CAP} atoms")
    if n == 1:
        raise ValueError("pyramidal width is undefined for a single point")
    faces, proj, facets, normals = _face_lattice(mat)
    best, solved = (np.inf, -1, None, None), 0
    for bound, index in sorted(_slab_bounds(faces, proj, facets, normals)):
        if bound > best[0] * (1.0 + 1e-9):
            break
        a, b = _facial_pair(mat, faces[index])
        best, solved = min(best, (float(np.linalg.norm(a - b)), index, a, b)), solved + 1
    distance, index, a, b = best
    diameter = float(np.max(np.linalg.norm(mat[:, None] - mat[None], axis=-1)))
    if not VALUE_FLOOR * diameter < distance < np.inf:
        raise ValueError("a face touches the other atoms' hull; atom set may be degenerate")
    idx = sorted(faces[index])
    witness = {
        "face_indices": idx,
        "face_atoms": mat[idx].tolist(),
        "face_point": a.tolist(),
        "other_point": b.tolist(),
        "direction": ((a - b) / distance).tolist(),
    }
    return WidthReport(
        pwidth_estimate=distance,
        directions_sampled=solved,
        faces_enumerated=len(faces),
        witness=witness,
    )


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


def _spec_pwidth(spec: oracles.PolytopeSpec) -> float:
    value = analytic_pwidth(spec)
    if value is not None:
        return value
    atoms = spec.enumerate_atoms()
    return pwidth([a.point for a in atoms]).pwidth_estimate


def eccentricity(spec: oracles.PolytopeSpec) -> float:
    """(diameter / pyramidal width)^2 of the domain."""
    M = polytope_diameter(spec)
    delta = _spec_pwidth(spec)
    return float((M / delta) ** 2)


def linear_rate(variant, mu: float, L: float, delta: float, M: float) -> Optional[float]:
    """Theorem 1's contraction factor rho: h_{t+1} <= (1 - rho) h_t on a good step.

    With base = mu delta^2 / (L M^2), AFW and FCFW contract by base / 4,
    and so does MNP, an FCFW whose correction is Wolfe's cycle; PFW by
    min(1/2, base).  Plain FW has no linear rate (None).
    """
    variant = solvers.Variant(variant)
    if variant is solvers.Variant.FW:
        return None
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
    L, mu, M = exact_constants(obj, spec)
    delta = _spec_pwidth(spec)
    return RateConstants(
        afw=linear_rate(solvers.Variant.AFW, mu, L, delta, M),
        pfw=linear_rate(solvers.Variant.PFW, mu, L, delta, M),
        mu=mu,
        L=L,
        delta=delta,
        diameter=M,
    )
