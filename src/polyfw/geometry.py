"""Geometric quantities that govern Frank-Wolfe convergence rates.

The pyramidal width of an atom set is the worst-case directional width
of a "pyramid": the oracle atom for a feasible direction together with
an active set that can represent the base point.  This module computes
directional widths exactly, per-direction pyramidal widths exactly (via
a sorted-prefix argument that avoids enumerating active sets), and the
global pyramidal width exactly as the facial distance: the smallest
distance between a proper face and the hull of the remaining atoms
(Pena and Rodriguez, Math. Oper. Res. 2019).  It also estimates the
affine-invariant curvature constants by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from polyfw import oracles, solvers
from polyfw.core import Atom, atom_key
from polyfw.objectives import (
    CurvatureEstimates,
    Objective,
    QuadraticObjective,
    polytope_diameter,
)

PDIRW_ATOM_CAP = 16
VALUE_FLOOR = 1e-12  # per-direction values at rounding scale are discarded
SPAN_RTOL = 1e-9  # r farther than this (relative) from a face's span cannot point along it


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


def _dedupe(mat: np.ndarray) -> np.ndarray:
    seen = set()
    rows = []
    for row in mat:
        key = atom_key(row)
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return np.stack(rows)


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


def enumerate_faces(points: np.ndarray, tol: float = 1e-9) -> List[frozenset]:
    """All faces of conv(points) as frozensets of point indices.

    Includes the polytope itself; proper faces are obtained as the
    nonempty intersections of facet incidence sets, after projecting
    onto the affine hull so degenerate (flat) inputs work too.
    """
    from scipy.spatial import ConvexHull

    mat = np.asarray(points, dtype=np.float64)
    n = mat.shape[0]
    everything = frozenset(range(n))
    if n == 1:
        return [everything]
    center = mat.mean(axis=0)
    centered = mat - center
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    scale = svals[0] if svals.size and svals[0] > 0 else 1.0
    rank = int(np.sum(svals > tol * scale))
    if rank == 0:
        return [everything]
    proj = centered @ vt[:rank].T
    if rank == 1:
        t = proj[:, 0]
        spread = max(np.max(t) - np.min(t), 1.0)
        low = frozenset(np.nonzero(t <= np.min(t) + tol * spread)[0].tolist())
        high = frozenset(np.nonzero(t >= np.max(t) - tol * spread)[0].tolist())
        return sorted({everything, low, high}, key=lambda f: (-len(f), sorted(f)))
    hull = ConvexHull(proj)
    seen_eq = set()
    facet_sets: List[frozenset] = []
    coord_scale = max(1.0, float(np.max(np.abs(proj))))
    for eq in hull.equations:
        key = tuple(np.round(eq / np.linalg.norm(eq[:rank]), 9))
        if key in seen_eq:
            continue
        seen_eq.add(key)
        normal, offset = eq[:rank], eq[rank]
        dist = proj @ normal + offset
        members = frozenset(np.nonzero(np.abs(dist) <= tol * coord_scale)[0].tolist())
        if members:
            facet_sets.append(members)
    faces = set(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        fresh = []
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h and h not in faces:
                    faces.add(h)
                    fresh.append(h)
        frontier = fresh
    faces.add(everything)
    return sorted(faces, key=lambda f: (-len(f), sorted(f)))


def _cone_constraints(
    face: np.ndarray, prefix_rows: np.ndarray, r: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Equalities (A_eq, b_eq) on (mu, nu): face^T mu - prefix^T nu = r, sum(mu) = sum(nu)."""
    nb, d = face.shape
    A_eq = np.zeros((d + 1, nb + prefix_rows.shape[0]))
    A_eq[:d, :nb] = face.T
    A_eq[:d, nb:] = -prefix_rows.T
    A_eq[d, :nb] = 1.0
    A_eq[d, nb:] = -1.0
    return A_eq, np.concatenate([r, [0.0]])


def _cone_prefix_lp(
    face: np.ndarray, prefix_rows: np.ndarray, r: np.ndarray
) -> Optional[np.ndarray]:
    """Feasibility of: exists x in conv(prefix) with r in cone(face - x).

    Writing the cone coefficients as mu >= 0 and tau * x as a
    nonnegative combination nu of the prefix atoms with sum(nu) =
    sum(mu) linearizes the joint condition.  Returns the LP solution
    (mu, nu) or None.
    """
    A_eq, b_eq = _cone_constraints(face, prefix_rows, r)
    n = A_eq.shape[1]
    res = linprog(np.zeros(n), A_eq=A_eq, b_eq=b_eq, bounds=[(0.0, None)] * n, method="highs")
    return res.x if res.status == 0 else None


def _witness_point(
    face: np.ndarray, order: np.ndarray, k: int, r: np.ndarray, tau_hint: float
) -> Optional[np.ndarray]:
    """Feasible base point for (r, prefix k), pushed onto the critical atom.

    Maximizing the weight of the k-th sorted atom keeps the point away
    from the shorter prefix's hull, so re-evaluating pdirw at it finds
    the same prefix.
    """
    prefix_rows = face[order[:k]]
    nb, na = face.shape[0], k
    A_eq, b_eq = _cone_constraints(face, prefix_rows, r)
    A_ub = np.zeros((1, nb + na))
    A_ub[0, :nb] = 1.0
    cost = np.zeros(nb + na)
    cost[nb + na - 1] = -1.0  # maximize the critical atom's weight
    res = linprog(
        cost,
        A_eq=A_eq,
        b_eq=b_eq,
        A_ub=A_ub,
        b_ub=[2.0 * tau_hint + 1.0],
        bounds=[(0.0, None)] * (nb + na),
        method="highs",
    )
    if res.status != 0:
        return None
    nu = res.x[nb:]
    tau = float(nu.sum())
    if tau <= 0:
        return None
    return (nu @ prefix_rows) / tau


@dataclass
class WidthReport:
    """Pyramidal width plus the witness that attains it.

    ``directions_sampled`` keeps its historical name; it counts the
    facial-distance problems solved, one per proper face.
    """

    pwidth_estimate: float
    directions_sampled: int
    faces_enumerated: int
    witness: Dict

    def to_json(self) -> Dict:
        return {
            "pwidth_estimate": self.pwidth_estimate,
            "directions_sampled": self.directions_sampled,
            "faces_enumerated": self.faces_enumerated,
            "witness": self.witness,
        }


def _facial_gap(mat: np.ndarray, face_idx: frozenset) -> np.ndarray:
    """Shortest vector a - b with a in conv(face), b in conv(other atoms).

    It is the min-norm point of the Minkowski difference of the two
    atom sets, which the MNP solver finds exactly.
    """
    inside = sorted(face_idx)
    diffs = mat[inside][:, None, :] - np.delete(mat, inside, axis=0)[None, :, :]
    diffs = _dedupe(diffs.reshape(-1, mat.shape[1]))
    # MNP ends on the exact minimizer of its final active set, so its FW
    # gap reaches rounding scale; this bound keeps |z| exact to ~1e-12.
    scale = float(np.max(np.einsum("ij,ij->i", diffs, diffs)))
    config = solvers.SolverConfig(solvers.Variant.MNP, epsilon=1e-14 * scale)
    trace = solvers.solve(
        QuadraticObjective.distance_to(np.zeros(mat.shape[1])),
        oracles.VertexList(diffs),
        config,
    )
    status = trace.config_echo["exit_status"]
    if status != "converged":
        raise RuntimeError(f"facial distance of face {inside} ended with {status}")
    return trace.final_iterate.x


def _face_value(face: np.ndarray, r: np.ndarray) -> Optional[Tuple[float, np.ndarray, int]]:
    """Pyramidal directional width of unit r on a face, minimized over base points.

    Returns (value, atom order by decreasing projection, prefix size),
    or None when r points out of the face from every base point.  The
    cone LP can only be feasible when r lies in the span of the face's
    edge directions, so a least-squares residual above ``SPAN_RTOL``
    relative answers None without any LP.
    """
    span = (face[1:] - face[0]).T
    coef = np.linalg.lstsq(span, r, rcond=None)[0]
    if np.linalg.norm(span @ coef - r) > SPAN_RTOL * np.linalg.norm(r):
        return None
    dots = face @ r
    order = np.argsort(-dots, kind="stable")
    k = _shortest_prefix(
        len(order), lambda j: _cone_prefix_lp(face, face[order[:j]], r) is not None
    )
    if k is None:
        return None
    return float(dots[order[0]] - dots[order[k - 1]]), order, k


def pwidth(atoms) -> WidthReport:
    """Exact pyramidal width of an atom set, via the facial distance.

    The pyramidal width equals the smallest distance between a proper
    face and the hull of the atoms off it (Pena and Rodriguez, Math.
    Oper. Res. 2019); each such distance is one min-norm-point problem.
    The direction of the shortest gap is then evaluated exactly, on
    every face and with both signs, by the prefix LPs; the smallest
    value is reported with a witness that reproduces it, and it must
    agree with the distance to 1e-9 relative.
    """
    mat = _dedupe(_atom_matrix(atoms))
    n = mat.shape[0]
    if n > PDIRW_ATOM_CAP:
        raise ValueError(f"pwidth is limited to {PDIRW_ATOM_CAP} atoms")
    if n == 1:
        raise ValueError("pyramidal width is undefined for a single point")
    faces = enumerate_faces(mat)
    everything = frozenset(range(n))
    gaps = [_facial_gap(mat, f) for f in faces if f != everything]
    z = min(gaps, key=np.linalg.norm)
    distance = float(np.linalg.norm(z))
    if distance <= VALUE_FLOOR:
        raise ValueError("a face touches the other atoms' hull; atom set may be degenerate")

    candidates = []
    for face_idx in faces:
        idx = sorted(face_idx)
        if len(idx) == 1:
            continue
        face = mat[idx]
        for r in (z / distance, -z / distance):
            found = _face_value(face, r)
            if found is not None and found[0] > VALUE_FLOOR:
                candidates.append((found[0], idx, face, r) + found[1:])
    if not candidates:
        raise RuntimeError("the facial-distance direction is feasible on no face")
    value, idx, face, r, order, k = min(candidates, key=lambda c: c[0])
    if abs(value - distance) > 1e-9 * distance:
        raise RuntimeError(f"pyramidal width {value} disagrees with facial distance {distance}")

    tau = float(_cone_prefix_lp(face, face[order[:k]], r)[: face.shape[0]].sum())
    x = _witness_point(face, order, k, r, tau)
    witness: Dict = {
        "face_atoms": face.tolist(),
        "face_indices": list(idx),
        "direction": r.tolist(),
        "prefix_size": int(k),
        "fw_atom": face[order[0]].tolist(),
        "away_atom": face[order[k - 1]].tolist(),
    }
    if x is not None:
        witness["base_point"] = x.tolist()
        witness["active_set"] = face[order[:k]].tolist()
    return WidthReport(
        pwidth_estimate=value,
        directions_sampled=len(gaps),
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
    atoms = oracles.enumerate_atoms(spec)
    return pwidth([a.point for a in atoms]).pwidth_estimate


def eccentricity(spec: oracles.PolytopeSpec) -> float:
    """(diameter / pyramidal width)^2 of the domain."""
    M = polytope_diameter(spec)
    delta = _spec_pwidth(spec)
    return float((M / delta) ** 2)


@dataclass
class RateConstants:
    """Geometric linear-rate constants for the solver variants."""

    afw: float   # also the FCFW guarantee: mu delta^2 / (4 L M^2)
    pfw: float   # min(1/2, mu delta^2 / (L M^2))
    mu: float
    L: float
    delta: float
    diameter: float


def rate_constant(obj: Objective, spec: oracles.PolytopeSpec) -> RateConstants:
    """Theoretical contraction factors from (mu, L) and (delta, M)."""
    if not isinstance(obj, QuadraticObjective):
        raise TypeError("rate constants need exact (mu, L), available for quadratics")
    L = obj.smoothness
    mu = obj.strong_convexity
    M = polytope_diameter(spec)
    delta = _spec_pwidth(spec)
    base = mu * delta ** 2 / (L * M ** 2)
    return RateConstants(
        afw=base / 4.0,
        pfw=min(0.5, base),
        mu=mu,
        L=L,
        delta=delta,
        diameter=M,
    )


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
    atoms = oracles.enumerate_atoms(spec)
    if len(atoms) > PDIRW_ATOM_CAP:
        raise ValueError(f"estimation needs at most {PDIRW_ATOM_CAP} atoms")
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
