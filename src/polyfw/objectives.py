"""Smooth convex objectives and their constants L and mu (the polytope's are in ``geometry``).

The quadratic family is the workhorse: values, gradients, and the step
size of an exact line search all have closed forms, and the smoothness
and strong-convexity constants are eigenvalues.  Building one allocates
a single d x d array beyond its input, which first holds |Q - Q^T| for
the symmetry test and then becomes the stored (Q + Q^T) / 2; the
caller's Q is read, never kept or written (``least_squares`` doubles its
fresh A^T A in place).  Q is positive semidefinite when its smallest
eigenvalue is at least -1e-10 * max(1, |lambda_max|), a bound relative
to Q's scale, since rounding is.  A generic objective
only needs value/gradient; its line search bisects on the sign of the
slope, so it resolves steps whose decrease is below the rounding of f.

``Objective.start(it)`` opens the per-solve state that the solver loop
and its FCFW/MNP corrections run on.  The generic state re-evaluates
the objective after every step.  The quadratic state keeps ``Qx`` and
the image ``Q a`` of each active atom (from the rows of Q on the atom's
support when it has at most d/4 nonzeros, one product with Q otherwise),
so a FW, away or pairwise step costs O(d): the direction's image is a
difference of two cached vectors, and the gradient, the exact line
search, the ``Qx`` update and f all follow from it.  The solver hands
the line search its descent <-grad, d>, so a step computes it once; f
is evaluated afresh at each point.  The state also keeps the corral of
the FCFW/MNP corrections' Wolfe major cycle: the atoms' rows, images and
Gram matrix H, keyed by the iterate's ids.  A new atom adds one Gram row,
so a cycle costs O(kd) plus the (k+1)^2 solve, and its new ``Qx`` comes
from the images (``move_to``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

Corral = Tuple[Tuple[bytes, ...], np.ndarray, np.ndarray, np.ndarray]  # ids, rows, images, H


class Objective:
    """Interface: differentiable convex function on R^d."""

    dimension: int

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def value_and_gradient(self, x) -> Tuple[float, np.ndarray]:
        return self.value(x), self.gradient(x)

    def start(self, it) -> "ObjectiveState":
        """The per-solve state of this objective at iterate ``it``."""
        return ObjectiveState(self, it)

    def line_search(self, x, d, gamma_max: float) -> float:
        """argmin of f(x + gamma d) on [0, gamma_max], by bisection on the sign of the slope.

        The slope <grad f(x + gamma d), d> of a convex f does not decrease.  If it is not
        positive at gamma_max, that is the step; else the bracket is halved to one ulp of
        gamma_max and its lower end, where the slope is still negative, is returned: the
        step never raises f, which is never evaluated.  A non-finite slope raises ValueError.
        """
        x = np.asarray(x, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        _check_search_args(self, x, d, gamma_max)
        def slope(gamma: float) -> float:
            s = float(np.dot(self.gradient(x + gamma * d), d))
            if not np.isfinite(s):
                raise ValueError(f"slope at gamma={gamma} is not finite")
            return s
        lo, hi = 0.0, float(gamma_max)
        if slope(hi) <= 0.0:
            return hi
        ulp = np.spacing(hi)  # eps * gamma_max would round to 0 for a subnormal gamma_max
        while hi - lo > ulp:
            mid = 0.5 * (lo + hi)
            if slope(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        return lo


def _check_search_args(obj: Objective, x: np.ndarray, d: np.ndarray, gamma_max: float) -> None:
    if x.shape != (obj.dimension,) or d.shape != (obj.dimension,):
        raise ValueError("x and d must match the objective dimension")
    if not 0.0 < gamma_max < np.inf:
        raise ValueError("gamma_max must be positive and finite")
    if not d.any():
        raise ValueError("search direction is zero")


class ObjectiveState:
    """Value and gradient at a solver's current iterate.

    This generic state re-evaluates the objective after each step and
    bisects on the slope's sign (``Objective.line_search``).  ``resyncs`` counts
    exact recomputations of an incremental state, ``drift_max`` their largest fix (none here).
    """

    def __init__(self, obj: Objective, it) -> None:
        self.obj = obj
        self.drift_max = 0.0
        self.resyncs = 0
        self.reset(it)

    def reset(self, it) -> None:
        """Re-evaluate at ``it`` from scratch; the gradient must be a vector shaped like ``it.x``."""
        self.value, grad = self.obj.value_and_gradient(it.x)
        self.grad = np.asarray(grad, dtype=np.float64)
        if self.grad.shape != it.x.shape:
            raise ValueError(f"gradient has shape {self.grad.shape}, expected {it.x.shape}")

    def line_search(self, it, direction, gamma_max, descent, head=None, tail=None) -> float:
        """Step size along ``direction`` = head - tail from ``it``, in [0, gamma_max].

        ``descent`` is the caller's <-grad, direction>.  ``head`` is the atom the
        direction points to and ``tail`` the position in ``it.ids`` of the active
        atom it points away from; None stands for ``it.x``.
        """
        return self.obj.line_search(it.x, direction, gamma_max)

    def advance(self, it, gamma: float) -> None:
        """Move to ``it``, the iterate one step of ``gamma`` along the last searched direction."""
        self.reset(it)


class QuadraticObjective(Objective):
    """f(x) = 1/2 x^T Q x + b^T x + c with symmetric positive semidefinite Q."""

    def __init__(self, Q, b, c: float = 0.0) -> None:
        Q = np.asarray(Q, dtype=np.float64)
        b = np.array(b, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        if Q.shape[0] == 0:
            raise ValueError("Q has shape (0, 0); it must be at least 1x1")
        if b.shape != (Q.shape[0],):
            raise ValueError(f"b has shape {b.shape}, but Q has shape {Q.shape}")
        hi, lo = float(Q.max()), float(Q.min())  # NaN propagates, so both are finite iff Q is
        if not (np.isfinite(hi) and np.isfinite(lo) and np.isfinite(b).all() and np.isfinite(c)):
            raise ValueError("Q, b and c must be finite")
        # Q may be the caller's array: it is read, never written or kept.
        sym = np.subtract(Q, Q.T, out=np.empty(Q.shape))
        np.abs(sym, out=sym)
        if sym.max() > 1e-12 * max(1.0, hi, -lo):
            raise ValueError("Q must be symmetric within 1e-12")
        np.add(Q, Q.T, out=sym)
        sym *= 0.5
        self.Q = sym
        self.b = b
        self.c = float(c)
        self.dimension = Q.shape[0]
        self._eigenvalues: Optional[np.ndarray] = None

    @classmethod
    def least_squares(cls, A, y) -> "QuadraticObjective":
        """f(x) = ||A x - y||^2, stored as Q = 2 A^T A."""
        A = np.asarray(A, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if A.ndim != 2:
            raise ValueError(f"A has shape {A.shape}; it must be a matrix")
        if y.shape != (A.shape[0],):
            raise ValueError(f"y has shape {y.shape}, but A has shape {A.shape}")
        Q = A.T @ A
        Q *= 2.0
        return cls(Q, -2.0 * (A.T @ y), float(y @ y))

    @classmethod
    def distance_to(cls, target) -> "QuadraticObjective":
        """f(x) = 1/2 ||x - target||^2."""
        target = np.asarray(target, dtype=np.float64)
        if target.ndim != 1:
            raise ValueError(f"target has shape {target.shape}; it must be a vector")
        return cls(np.eye(target.shape[0]), -target, 0.5 * float(target @ target))

    def _eigh(self) -> np.ndarray:
        if self._eigenvalues is None:
            eig = np.linalg.eigvalsh(self.Q)
            if eig[0] < -1e-10 * max(1.0, abs(eig[-1])):  # relative: rounding scales with Q
                raise ValueError(f"Q has negative eigenvalue {eig[0]} (largest {eig[-1]})")
            self._eigenvalues = eig
        return self._eigenvalues

    @property
    def smoothness(self) -> float:
        return float(self._eigh()[-1])

    @property
    def strong_convexity(self) -> float:
        return float(max(self._eigh()[0], 0.0))

    def start(self, it) -> "QuadraticState":
        return QuadraticState(self, it)

    def _checked(self, x) -> np.ndarray:
        """``x`` as a float64 array, which must have shape (d,)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise ValueError("x has the wrong dimension")
        return x

    def value(self, x) -> float:
        x = self._checked(x)
        return float(0.5 * x @ (self.Q @ x) + self.b @ x + self.c)

    def gradient(self, x) -> np.ndarray:
        return self.Q @ self._checked(x) + self.b

    def value_and_gradient(self, x) -> Tuple[float, np.ndarray]:
        x = self._checked(x)
        Qx = self.Q @ x
        return float(0.5 * x @ Qx + self.b @ x + self.c), Qx + self.b

    def line_search(self, x, d, gamma_max: float) -> float:
        """Exact minimizer of the quadratic on [0, gamma_max].

        gamma* = <-grad f(x), d> / (d^T Q d), clipped to the interval.
        A flat direction (d^T Q d <= 0) means the function is linear
        along d: go all the way if it descends, stay put otherwise.
        """
        x = np.asarray(x, dtype=np.float64)
        d = np.asarray(d, dtype=np.float64)
        _check_search_args(self, x, d, gamma_max)
        return _exact_step(-float(self.gradient(x) @ d), float(d @ (self.Q @ d)), gamma_max)


def _exact_step(descent: float, curvature: float, gamma_max: float) -> float:
    """argmin over [0, gamma_max] of -descent * gamma + curvature * gamma^2 / 2."""
    if curvature <= 0.0:
        return float(gamma_max) if descent > 0.0 else 0.0
    return min(max(descent / curvature, 0.0), float(gamma_max))


class QuadraticState(ObjectiveState):
    """Incremental ``Qx`` and cached atom images for one quadratic solve.

    A step along d = head - tail updates ``Qx`` by gamma times
    ``Q head - Q tail``, where ``Q x`` is ``Qx`` itself and an atom's
    image is computed once, when the atom is first seen, and kept while
    it stays active, across corrections.  An atom with at most d/4
    nonzeros a_S gets a_S . Q[S], the rows of the symmetric Q on its
    support S; a denser one gets ``Q @ a``, which is faster from there
    on.  At each ``reset`` and whenever the iterate re-synthesizes x
    (every ``RESYNTH_PERIOD`` steps and on each drop or swap), ``Qx`` is
    recomputed exactly and the images of inactive atoms are released; a
    resync folds the incremental error into ``drift_max``.  ``corral`` is
    the last Wolfe major cycle's corral (``solvers._wolfe_step``), or None.
    """

    def __init__(self, obj: "QuadraticObjective", it) -> None:
        self.Q, self.b, self.c = obj.Q, obj.b, obj.c
        self.images: Dict[bytes, np.ndarray] = {}
        self.corral: Optional[Corral] = None
        self._Qd: Optional[np.ndarray] = None
        super().__init__(obj, it)

    def reset(self, it) -> None:
        self.images = {k: self.images[k] for k in it.ids if k in self.images}
        self.move_to(it.x, self.Q @ it.x)

    def move_to(self, x: np.ndarray, Qx: np.ndarray) -> None:
        """Put the state at the point ``x`` whose image ``Q x`` is ``Qx``."""
        self.Qx = Qx
        self.grad = Qx + self.b
        self.value = float((0.5 * x).dot(Qx)) + float(self.b.dot(x)) + self.c

    def image(self, atom_id: bytes, point: np.ndarray) -> np.ndarray:
        """Q times an atom, cached by id: its support rows of Q if it is sparse enough."""
        img = self.images.get(atom_id)
        if img is None:
            nz = point.nonzero()[0]
            img = point[nz].dot(self.Q[nz]) if 4 * nz.size <= point.size else self.Q @ point
            self.images[atom_id] = img
        return img

    def line_search(self, it, direction, gamma_max, descent, head=None, tail=None) -> float:
        """Exact minimizer on [0, gamma_max], as ``QuadraticObjective.line_search``."""
        Qd = self.Qx if head is None else self.image(head.id, head.point)
        Qv = self.Qx if tail is None else self.image(it.ids[tail], it._point(tail))
        self._Qd = Qd = Qd - Qv
        return _exact_step(descent, float(direction.dot(Qd)), gamma_max)

    def advance(self, it, gamma: float) -> None:
        Qx = gamma * self._Qd
        Qx += self.Qx
        if it.synced:
            self.reset(it)
            self.resyncs += 1
            self.drift_max = max(self.drift_max, float(np.max(np.abs(Qx - self.Qx))))
        else:
            self.move_to(it.x, Qx)

