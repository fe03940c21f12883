"""Smooth convex objectives and their constants L and mu (the polytope's are in ``geometry``).

The quadratic family is the workhorse: values, gradients, and the step
size of an exact line search all have closed forms, and the smoothness
and strong-convexity constants are eigenvalues.  Building one allocates
a single d x d array beyond its input, which first holds |Q - Q^T| for
the symmetry test and then becomes the stored (Q + Q^T) / 2 (halved before
the sum when an entry is large enough for the sum to overflow); the
caller's Q is read, never kept or written (``least_squares`` doubles its
fresh A^T A in place).  A Q with the identity's bytes is kept as the
read-only O(d) view ``_identity``, which ``distance_to`` builds directly, so
L = mu = 1 need no eigvalsh; the generic methods' products by it run numpy's
strided loop, which no solve calls.  Q is positive semidefinite when its
smallest eigenvalue is at least -1e-10 * max(1, |lambda_max|), a bound
relative to Q's scale, since rounding is.  A generic objective only needs
value/gradient; its line search bisects on the sign of the slope, so it
resolves steps whose decrease is below the rounding of f.

``Objective.start(it)`` opens the per-solve state that the solver loop
and its FCFW/MNP corrections run on.  The generic state re-evaluates
the objective after every step.  The quadratic state keeps ``Qx`` and
the image ``Q a`` of each active atom (from the rows of Q on the atom's
support when it has at most d/4 nonzeros, one product with Q otherwise),
so a FW, away or pairwise step costs O(d): the direction's image is a
difference of two cached vectors, and the gradient, the exact line
search, the ``Qx`` update and f all follow from it.  The solver hands
the line search its descent <-grad, d>, so a step computes it once; f
is evaluated afresh at each point.  The state also owns the corral of the
FCFW/MNP corrections' Wolfe major cycle (the atoms' rows, images and Gram
matrix H), moves over it with no product by Q, and gives FCFW its target
in closed form.  An identity Q (every distance objective) opens
``IdentityState``: each point is its own image, so it keeps no images.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np


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

    has_corral = False  # whether the state keeps Wolfe's corral (``QuadraticState``)

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

    def step_value(self, it, direction, gamma: float, descent: float) -> float:
        """f at ``it.x + gamma * direction``, the direction just searched with ``descent``."""
        return self.obj.value(it.x + gamma * direction)

    def save(self) -> dict:
        """The state's attributes, by reference, for ``restore``."""
        return dict(vars(self))

    def restore(self, saved: dict, it) -> None:
        """Put back the state that ``save`` returned at ``it``."""
        vars(self).update(saved)

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
        if max(hi, -lo) < 2.0 ** 1023:  # then no sum of two entries overflows
            np.add(Q, Q.T, out=sym)
            sym *= 0.5
        else:  # halves first: the same bits unless a half is subnormal
            np.multiply(Q, 0.5, out=sym)
            sym += 0.5 * Q.T
        diag, bits = sym.diagonal(), sym.view(np.uint64)  # views: the test allocates nothing
        self._identity = bool(diag.min() == 1.0 == diag.max()) and np.count_nonzero(bits) == len(b)
        self.Q = _identity(len(b)) if self._identity else sym
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
        """f(x) = 1/2 ||x - target||^2, built in O(d): Q is the read-only ``_identity`` view."""
        target = np.asarray(target, dtype=np.float64)
        if target.ndim != 1:
            raise ValueError(f"target has shape {target.shape}; it must be a vector")
        d, c = target.shape[0], 0.5 * float(target @ target)
        if d == 0:
            raise ValueError("Q has shape (0, 0); it must be at least 1x1")
        if not (np.isfinite(target).all() and np.isfinite(c)):
            raise ValueError("Q, b and c must be finite")
        obj = cls.__new__(cls)
        obj.Q, obj.b, obj.c, obj.dimension = _identity(d), -target, c, d
        obj._identity, obj._eigenvalues = True, None
        return obj

    def _eigh(self) -> np.ndarray:
        if self._eigenvalues is None:
            eig = np.ones(self.dimension) if self._identity else np.linalg.eigvalsh(self.Q)
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
        return (IdentityState if self._identity else QuadraticState)(self, it)

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


def _identity(d: int) -> np.ndarray:
    """I as a read-only (d, d) view of its 2d - 1 diagonals: (i, j) reads offset j - i's."""
    buf = (np.arange(1 - d, d) == 0).astype(np.float64)  # 1 at offset 0, index d - 1
    return np.lib.stride_tricks.as_strided(buf[d - 1 :], (d, d), (-8, 8), writeable=False)


def _exact_step(descent: float, curvature: float, gamma_max: float) -> float:
    """argmin over [0, gamma_max] of -descent * gamma + curvature * gamma^2 / 2."""
    if curvature <= 0.0:
        return float(gamma_max) if descent > 0.0 else 0.0
    return min(max(descent / curvature, 0.0), float(gamma_max))


class QuadraticState(ObjectiveState):
    """Incremental ``Qx``, cached atom images and Wolfe's corral for one quadratic solve.

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
    the corral as the last major cycle left it, or None; the ``corral_*``
    methods open it, keep a subset of it and move the state over it.  A Q
    that is exactly the identity gets the subclass ``IdentityState``.
    """

    has_corral = True

    def __init__(self, obj: "QuadraticObjective", it) -> None:
        self.Q, self.b, self.c = obj.Q, obj.b, obj.c
        self.images: Dict[bytes, np.ndarray] = {}
        self.corral: Optional[tuple] = None  # ids, rows, images (None: the rows) and H
        self._Qd: Optional[np.ndarray] = None
        super().__init__(obj, it)

    def reset(self, it) -> None:
        self._release(it.ids)
        self.move_to(it.x, self.Q @ it.x)

    def restore(self, saved: dict, it) -> None:
        super().restore(saved, it)
        self._release(it.ids)

    def _release(self, ids) -> None:
        """Drop the cached images of the atoms outside ``ids``; none are cached under Q = I."""
        if self.images:
            self.images = {k: self.images[k] for k in ids if k in self.images}

    def move_to(self, x: np.ndarray, Qx: np.ndarray) -> None:
        """Put the state at ``x``, whose image ``Q x`` is ``Qx``.  f halves x . Qx: the bits of
        (0.5 x) . Qx, unless a product x_i (Qx)_i (or x_i / 2, or a partial sum) is subnormal."""
        self.Qx = Qx
        self.grad = Qx + self.b
        self.value = 0.5 * float(x.dot(Qx)) + float(self.b.dot(x)) + self.c

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
        Qv = self.Qx if tail is None else self.images.get(it.ids[tail])
        if Qv is None:  # an uncached tail: only now form its row
            Qv = self.image(it.ids[tail], it._point(tail))
        self._Qd = Qd = Qd - Qv
        return _exact_step(descent, float(direction.dot(Qd)), gamma_max)

    def step_value(self, it, direction, gamma: float, descent: float) -> float:
        """f - gamma descent + gamma^2 d . Qd / 2, with ``Qd`` from the last line search."""
        return self.value - gamma * descent + 0.5 * gamma * gamma * float(direction.dot(self._Qd))

    def advance(self, it, gamma: float) -> None:
        Qx = gamma * self._Qd
        Qx += self.Qx
        if it.synced:
            self.reset(it)
            self.resyncs += 1
            self.drift_max = max(self.drift_max, float(np.max(np.abs(Qx - self.Qx))))
        else:
            self.move_to(it.x, Qx)

    def corral_with(self, it, atom) -> Tuple[np.ndarray, np.ndarray]:
        """Open the corral on ``it``'s atoms plus ``atom``, keeping the last cycle's if its ids
        are ``it.ids``; returns its H and g_i = a_i . b.  A new atom adds one Gram row."""
        if self.corral is None or self.corral[0] != it.ids:  # build it from the empty corral
            self.corral = ((), np.empty((0, it.x.size)), np.empty((0, it.x.size)), np.empty((0, 0)))
            for atom_id, point in zip(it.ids, it.matrix()):
                self._grow(atom_id, point)
        if it.index(atom.id) is None:
            self._grow(atom.id, atom.point)
        return self.corral[3], self.corral[1].dot(self.b)

    def _grow(self, atom_id: bytes, point: np.ndarray) -> None:
        """Add an atom to the corral: its row, its image and one product for H's new row."""
        ids, rows, images, H = self.corral
        image = self.image(atom_id, point)
        rows = np.concatenate((rows, point[None]))
        # a corral whose atoms are their own images (``IdentityState``) keeps no images
        images = None if image is point else np.concatenate((images, image[None]))
        grown = np.empty((len(rows), len(rows)))
        grown[:-1, :-1] = H
        grown[-1] = grown[:, -1] = rows.dot(image)
        self.corral = ids + (atom_id,), rows, images, grown

    def corral_keep(self, keep: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Keep the corral's atoms at the positions ``keep``; returns their H and g."""
        ids, rows, images, H = self.corral
        self.corral = (tuple(ids[i] for i in keep.tolist()), rows[keep],
                       None if images is None else images[keep], H[keep][:, keep])
        return self.corral[3], self.corral[1].dot(self.b)

    def corral_move(self, beta: np.ndarray) -> Tuple[Tuple[bytes, ...], np.ndarray, np.ndarray]:
        """Move to x = beta . rows, with ``Qx`` = beta . images and no product by Q, releasing
        the images outside the corral; returns its ids, its rows and x."""
        ids, rows, images, _ = self.corral
        x = beta.dot(rows)
        self.move_to(x, x if images is None else beta.dot(images))
        self._release(ids)
        return ids, rows, x

    def corral_scale(self) -> float:
        """max(max|a_ij| max_j(|Qx_j| + |b_j|), max|H_ij|) over the corral (MNP's postcondition)."""
        _, rows, _, H = self.corral
        terms = float(np.max(np.abs(rows))) * float(np.max(np.abs(self.Qx) + np.abs(self.b)))
        return max(terms, float(np.max(np.abs(H))))


class IdentityState(QuadraticState):
    """``QuadraticState`` for Q = I (a distance objective), where a point is its own image.

    An atom's image is its point, ``Qx`` is x and a direction is its own image, so the
    state caches no images, its corral keeps its rows alone (images None), and no step,
    line search, cycle or reset gathers a row of Q or forms a product by it.  Each entry
    of a product by I is one product by 1 plus zeros, so the general state's products give
    these values.  ``advance`` takes ``Qx`` from the x the step formed, x + gamma d: the
    general state's update of ``Qx``, with the same rounded operations.  At a resync it
    still forms that update, so ``drift_max`` and ``resyncs`` are the general state's.
    """

    def reset(self, it) -> None:
        self.move_to(it.x, it.x)

    def image(self, atom_id: bytes, point: np.ndarray) -> np.ndarray:
        return point

    def line_search(self, it, direction, gamma_max, descent, head=None, tail=None) -> float:
        self._Qd = direction
        return _exact_step(descent, float(direction.dot(direction)), gamma_max)

    def advance(self, it, gamma: float) -> None:
        if it.synced:
            super().advance(it, gamma)  # forms the incremental Qx for drift_max, then resets
        else:
            self.move_to(it.x, it.x)
