"""Frank-Wolfe solver variants over a linear minimization oracle.

All variants share one driver: compute the gradient, ask the oracle for
the best atom, stop once the duality gap is small, otherwise move.
They differ only in the move:

* ``FW``   classic step toward the oracle atom;
* ``AFW``  away steps can also shift weight off a bad active atom;
* ``PFW``  pairwise steps move weight directly from the worst active
           atom onto the oracle atom;
* ``FCFW`` each iteration re-optimizes over the active atoms plus the
           oracle atom until their FW and away gaps fall to the run's
           epsilon, or no inner step lowers f: Wolfe major cycles on a
           quadratic, AFW steps otherwise;
* ``MNP``  each iteration runs one Wolfe major cycle (min-norm point),
           landing on the exact minimizer over the hull of the atoms
           its minor cycle keeps.

A FW, AFW or PFW iteration forms the FW direction s - x, its gap
<-grad, s - x> and the away pair (``away_atom``) once; ``_line_search_step``,
the one place each of the three picks its step, reuses them for the AFW
choice, the descent test, the line search and the step; rows stay
tuples until the run ends, when one transpose fills the trace's columns.
Past ``TIE_LIST_MAX`` active atoms, ``away_atom`` detects a tie at the
maximum by a second ``argmax`` from the other end instead of a list of the
products, and the step's own checks are O(1) in the active-set size
(``polyfw.core``), with every choice the one the scans would make.  The shared
loop and both corrections run on the objective's per-solve state (``Objective.start``)
through its methods alone.  On a quadratic a FW, away or pairwise step then costs
O(k + d) with no product by Q, and the state owns the corral of the Wolfe major
cycle (``_wolfe_step``) that both corrections share; this module keeps the minor
cycle's logic: the affine minimizer, theta, the drops and the pass count, with
products by ``ndarray.dot`` and reductions by ``np.*.reduce`` as on the step path.  FCFW
takes its target value from the state and, after a stall, restores the state it
saved before the failed cycle.  Besides the configuration and outcome, a trace's JSON
header records ``inner_steps`` (summed over the corrections), ``lmo_calls``,
``resyncs`` and ``qx_drift_max`` (the largest incremental ``Qx`` error
corrected at a resync).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np

from polyfw.core import (
    WEIGHT_FLOOR,
    ActiveIterate,
    Atom,
    RunTrace,
    StepKind,
    apply_away_step,
    apply_fw_step,
    apply_pairwise_step,
)
from polyfw.objectives import Objective, ObjectiveState
from polyfw.oracles import PolytopeSpec, _is_a


class CorrectionPostconditionError(RuntimeError):
    """A correction returned without satisfying its advertised guarantees."""


class DegenerateActiveSetError(RuntimeError):
    """The affine system of a Wolfe minor-cycle pass was singular or badly solved."""


# A correction that breaks its contract ends the run: ``solve`` reports it as an exit status.
CORRECTION_ERRORS = (CorrectionPostconditionError, DegenerateActiveSetError)


class Variant(str, Enum):
    FW = "FW"
    AFW = "AFW"
    PFW = "PFW"
    FCFW = "FCFW"
    MNP = "MNP"

    @classmethod
    def _missing_(cls, value):
        """A name in any case: ``Variant("afw")`` is ``Variant.AFW``."""
        return cls.__members__.get(value.upper()) if isinstance(value, str) else None


@dataclass
class SolverConfig:
    """Variant (or its name, any case), FW-gap tolerance (FCFW's inner one too), iteration cap."""

    variant: Variant
    epsilon: float = 1e-8
    max_iter: int = 1000

    def __post_init__(self) -> None:
        self.variant = Variant(self.variant)
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not _is_a(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be an integer of at least 1")


@dataclass
class CorrectionResult:
    """Outcome of one FCFW/MNP correction call, which leaves the state at ``iterate``."""

    iterate: ActiveIterate
    inner_steps: int
    post_away_gap: float


def lmo(spec: PolytopeSpec, r: np.ndarray) -> Atom:
    """The solver's oracle call: ``spec._lmo(r)``, skipping ``spec.lmo``'s check of ``r``."""
    return spec._lmo(r)


# Up to this many active atoms, ``away_atom`` counts ties on a list of the products; above
# it, a second ``argmax`` from the other end costs less than building the list.
TIE_LIST_MAX = 20


def away_atom(it: ActiveIterate, grad: np.ndarray) -> Tuple[int, float]:
    """Worst active atom v as its position in ``it.ids``, and the away gap <-grad, x - v>.

    Ties on the gradient value go to the larger weight, then to the
    atom id, so the choice is deterministic.  Past ``TIE_LIST_MAX`` atoms,
    a maximum that the first and the last ``argmax`` agree on is the only
    one, and no list is built.
    """
    dots = it.atom_dots(grad)
    i = int(dots.argmax())
    k = len(dots)
    if k > TIE_LIST_MAX and i + int(dots[::-1].argmax()) == k - 1:
        return i, float(dots[i]) - float(grad.dot(it.x))
    dots = dots.tolist()
    best = dots[i]
    if dots.count(best) > 1:
        ties = [j for j, dot in enumerate(dots) if dot == best]
        i = max(ties, key=lambda j: (it.w[j], it.ids[j]))
    return i, best - float(grad.dot(it.x))


def fcfw_correction(
    state: ObjectiveState, it: ActiveIterate, s: Atom, eps: float
) -> CorrectionResult:
    """Correction over the active atoms of ``it`` plus the new atom ``s``.

    From ``it``, on the solver's objective ``state``, repeats an inner
    step toward the candidate atom of least gradient value until the
    candidates' FW gap and away gap both fall to ``eps`` and the objective
    is no worse than an exact line search toward ``s`` from ``it``, whose
    value the state gives (``step_value``: a closed form on a quadratic).
    On a quadratic the inner step is Wolfe's major cycle (``_wolfe_step``),
    otherwise an AFW step (``_line_search_step``).  An inner step that
    cannot descend, or does not lower f strictly, ends the correction
    at the iterate it started from, with the state restored to the one
    saved there, and one to a non-finite f at the one it reached, where
    ``solve`` ends ``error:nonfinite``.  A major cycle from an iterate
    that a major cycle made, toward one of its atoms, would land on it
    again, so it stalls without running.  ``post_away_gap`` comes from
    the final gradient.  After a stall that gap can stay above ``eps``:
    below the rounding floor no correction meets the contract, so the
    iterate is returned as it is, and ``solve`` ends the run as ``stall``
    once a correction changes nothing.  ``inner_steps`` counts the
    minor-cycle passes, or the AFW steps.
    """
    matrix = it.matrix()
    atoms = [Atom._adopt(p, i) for i, p in zip(it.ids, matrix)]  # ids kept, not keyed again
    if it.index(s.id) is None:
        atoms.append(s)
        matrix = np.concatenate((matrix, s.point[None]))

    fw_dir = s.point - it.x
    if np.any(fw_dir):
        descent = -float(state.grad.dot(fw_dir))
        gamma_fw = state.line_search(it, fw_dir, 1.0, descent, s)
        f_target = state.step_value(it, fw_dir, gamma_fw, descent)
    else:
        f_target = state.value
    f_slack = f_target + 1e-12 * (1.0 + abs(f_target))

    z = it
    inner = 0
    while True:
        grad = state.grad
        dots = matrix.dot(grad)
        i_s = int(dots.argmin())
        g_fw = float(grad.dot(z.x)) - float(dots[i_s])
        away = away_atom(z, grad)
        if g_fw <= eps and away[1] <= eps and state.value <= f_slack:
            break
        if state.has_corral and z is not it and z.index(atoms[i_s].id) is not None:
            break  # a stall: the cycle would solve z's corral again and land on z
        saved, f_before = state.save(), state.value
        if state.has_corral:
            z_next, passes = _wolfe_step(state, z, atoms[i_s])
        else:
            to_s = atoms[i_s].point - z.x
            step = _line_search_step(
                Variant.AFW, z, grad, atoms[i_s], state, away, to_s, -float(grad.dot(to_s))
            )
            z_next, passes = (None, 0) if step is None else (step[0], 1)
        if z_next is not None and not math.isfinite(state.value):
            z = z_next
            break
        if z_next is None or not state.value < f_before:
            # a stall: return z, where the failed step started; re-entering the
            # loop can cycle, so z stands even if its gap exceeds eps
            state.restore(saved, z)
            break
        z = z_next
        inner += passes

    _, post_away = away_atom(z, state.grad)
    return CorrectionResult(z, inner, post_away)


def _affine_minimizer(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Barycentric argmin of f over the atoms' affine hull; H_ij = a_i . Q a_j and g_i = a_i . b."""
    m = H.shape[0]
    if m == 1:
        return np.array([1.0])
    K = np.empty((m + 1, m + 1))
    K[:m, :m] = H
    K[m, :m] = K[:m, m] = 1.0
    K[m, m] = 0.0
    rhs = np.empty(m + 1)
    np.negative(g, out=rhs[:m])
    rhs[m] = 1.0
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError as exc:
        raise DegenerateActiveSetError("singular affine system") from exc
    high = np.maximum.reduce
    sol_max = float(high(np.abs(sol)))  # NaN or inf unless every entry is finite
    scale = max(1.0, float(high(np.abs(K), axis=None)), sol_max)
    if not sol_max < math.inf or high(np.abs(K.dot(sol) - rhs)) > 1e-7 * scale:
        raise DegenerateActiveSetError("affine system solved with a large residual")
    return sol[:m]


MNP_AWAY_GAP_LIMIT = 1e-9  # times the scale of the gap's terms, floored at 1
_INTERIOR_TOL = 1e-12


def _wolfe_step(state: ObjectiveState, it: ActiveIterate, atom: Atom) -> Tuple[ActiveIterate, int]:
    """Wolfe's major cycle: add ``atom`` to the corral, then run the minor cycle.

    The state opens its corral on ``it``'s atoms and ``atom`` (``corral_with``),
    keeping the last cycle's, so a cycle costs O(kd) plus the (k+1)^2 solve of
    each pass, which minimizes f over the corral's affine hull.  A minimizer
    inside its convex hull ends the cycle; otherwise the weights move toward
    it until some vanish, and those atoms leave the corral (``corral_keep``):
    at most one pass per atom.  The state moves to the result with no product
    by Q (``corral_move``).  Returns the iterate and the number of passes.
    """
    H, g = state.corral_with(it, atom)
    beta = it.w if len(H) == len(it) else np.concatenate([it.w, [0.0]])
    passes = 0
    while True:
        passes += 1
        lam = _affine_minimizer(H, g)
        if np.minimum.reduce(lam) > _INTERIOR_TOL:
            break
        negative = lam < 0
        moving = beta[negative]
        ratios = moving / (moving - lam[negative])
        theta = float(np.minimum.reduce(ratios, initial=1.0))
        beta = (1.0 - theta) * beta + theta * lam
        beta = np.where(beta < 0, 0.0, beta)
        keep = (beta > _INTERIOR_TOL).nonzero()[0]  # drops the atom that set theta
        beta = beta[keep]
        beta /= np.add.reduce(beta)
        H, g = state.corral_keep(keep)
    beta = lam / np.add.reduce(lam)
    ids, rows, x = state.corral_move(beta)
    return ActiveIterate._adopt(ids, rows, beta, x), passes  # the corral's arrays, uncopied


def mnp_correction(state: ObjectiveState, it: ActiveIterate, s: Atom) -> CorrectionResult:
    """One Wolfe major cycle (``_wolfe_step``) from ``it`` with ``s``; quadratics only.

    Lands on the minimizer of f over the affine hull of the atoms the
    minor cycle keeps, inside their convex hull, so the away gap is 0 up
    to rounding.  Each term a_ij * grad_j of the gap's products is at most
    max|a_ij| * max_j (|(Qx)_j| + |b_j|), and the minor cycle's solves
    round at the scale of the corral's Gram matrix, max|H_ij|; a gap above
    1e-9 * max(1, either) (``corral_scale``) raises
    ``CorrectionPostconditionError``, so the check does not depend on the
    units of the problem or the scale of Q.  The state ends where the
    cycle put it.
    """
    if not state.has_corral:
        raise TypeError("the min-norm-point correction requires a quadratic objective")
    out, passes = _wolfe_step(state, it, s)
    _, away_gap = away_atom(out, state.grad)
    if away_gap > MNP_AWAY_GAP_LIMIT:  # the bound is only formed for a gap above its floor
        limit = MNP_AWAY_GAP_LIMIT * max(1.0, state.corral_scale())
        if away_gap > limit:
            raise CorrectionPostconditionError(
                f"minor cycle away gap {away_gap} stayed above {limit}"
            )
    return CorrectionResult(out, passes, away_gap)


def _initial_iterate(spec: PolytopeSpec, x0: Union[Atom, ActiveIterate, None]) -> ActiveIterate:
    """``x0`` checked, or by default the oracle's atom for the all-ones direction."""
    if x0 is None:
        return ActiveIterate.from_atom(lmo(spec, np.ones(spec.dimension)))
    if isinstance(x0, Atom):
        x0 = ActiveIterate.from_atom(x0)
    elif not isinstance(x0, ActiveIterate):
        raise TypeError("x0 must be an Atom, an ActiveIterate, or None")
    if x0.x.shape != (spec.dimension,):
        raise ValueError(f"x0 has shape {x0.x.shape}, but the spec has dimension {spec.dimension}")
    try:
        x0.check()
    except AssertionError as exc:
        raise ValueError(f"x0 is not a valid iterate: {exc}") from exc
    return x0


def _line_search_step(
    variant: Variant, it: ActiveIterate, grad: np.ndarray, s: Atom, state: ObjectiveState,
    away: Tuple[int, float], fw_dir: np.ndarray, g_fw: float,
) -> Optional[Tuple[ActiveIterate, StepKind, float, float]]:
    """One FW, AFW or PFW step: (iterate, kind, gamma, gamma_max).

    ``away`` is ``away_atom(it, grad)``, v's position j and gap, ``fw_dir``
    is s - x and ``g_fw`` <-grad, fw_dir>.  PFW takes s - v (cap w[j]); AFW
    x - v (cap w[j] / (1 - w[j])) if v's gap beats g_fw and v is not alone,
    else FW's s - x (cap 1).  The step moves ``state`` along.  None (a stall)
    when the chosen direction does not descend, or when a pairwise step
    of gamma at most ``WEIGHT_FLOOR`` leaves the ids and weights as they
    were, so the next iteration would repeat it.
    """
    j, away_gap = away
    if variant is Variant.PFW:
        kind, direction, gamma_max = StepKind.PAIRWISE, s.point - it._point(j), float(it.w[j])
    elif variant is Variant.AFW and not (g_fw >= away_gap or len(it) == 1):  # ties favor FW
        alpha = float(it.w[j])
        kind, direction, gamma_max = StepKind.AWAY, it.x - it._point(j), alpha / (1.0 - alpha)
    else:
        kind, direction, gamma_max, j = StepKind.FW, fw_dir, 1.0, None
    descent = g_fw if direction is fw_dir else -float(grad.dot(direction))
    if descent <= 0.0:
        return None
    head = None if kind is StepKind.AWAY else s
    gamma = state.line_search(it, direction, gamma_max, descent, head, j)
    if kind is StepKind.FW:
        it = apply_fw_step(it, s, gamma, fw_dir)
    elif kind is StepKind.AWAY:
        it, dropped = apply_away_step(it, it.ids[j], gamma, direction)
        kind = StepKind.DROP if dropped else StepKind.AWAY
    else:
        it, kind = apply_pairwise_step(it, it.ids[j], s, gamma, direction)
        if gamma <= WEIGHT_FLOOR:
            # apply_pairwise_step zeroed gamma unless it snapped the step to a drop
            if kind is StepKind.PAIRWISE:
                return None  # a no-op: the next iteration would repeat it
            gamma = 0.0  # a snapped drop, which resyncs state
    state.advance(it, gamma)
    return it, kind, gamma, gamma_max


def solve(
    obj: Objective,
    spec: PolytopeSpec,
    config: SolverConfig,
    x0: Union[Atom, ActiveIterate, None] = None,
) -> RunTrace:
    """Run the configured variant until the FW gap certifies epsilon-optimality.

    Returns the per-iteration trace; the final iterate rides along on
    the ``final_iterate`` attribute.  The trace's JSON header records the
    configuration, the initial objective value, the exit status
    (``converged``, ``max_iter``, ``stall`` or an ``error:`` tag), the
    final gap, the summed inner steps of the completed FCFW/MNP
    corrections (``inner_steps``), ``lmo_calls``, ``resyncs`` and the
    largest ``Qx`` error corrected at a resync (``qx_drift_max``).  A
    step that cannot descend, or that leaves the active set and its
    weights unchanged (a PFW step of gamma at most ``WEIGHT_FLOOR``, or a
    correction that does not lower f), ends the run with ``stall`` and
    the gap it reached: this is how every variant stops at the rounding
    floor of its gap.  A non-finite f ends the run with
    ``error:nonfinite``; a correction that raises one of
    ``CORRECTION_ERRORS`` ends it with ``error:<Type>`` and the message
    under ``error`` in the header.  A step is committed only with its
    row, so a run that ends early keeps its completed iterations and ends
    at the last completed iterate and its gap.  Without ``x0`` the
    run starts at the oracle's atom for the all-ones direction.  A
    non-finite gradient, an ``x0`` iterate that breaks an invariant, or an
    objective whose dimension is not the spec's raises ``ValueError``.
    """
    if obj.dimension != spec.dimension:
        raise ValueError(f"the objective has dimension {obj.dimension}, the spec {spec.dimension}")
    it = _initial_iterate(spec, x0)
    init_size = len(it)
    state = obj.start(it)
    f0 = state.value
    rows = []
    by_line_search = config.variant in (Variant.FW, Variant.AFW, Variant.PFW)
    exit_status, error, final_gap, inner_steps = "max_iter", None, np.nan, 0

    for t in range(config.max_iter):
        grad = state.grad
        s = lmo(spec, grad)
        fw_dir = s.point - it.x
        g_fw = -float(grad.dot(fw_dir))
        if not abs(g_fw) < math.inf and not np.isfinite(grad).all():
            raise ValueError("direction entries must be finite")
        final_gap = g_fw
        if g_fw <= config.epsilon:
            exit_status = "converged"
            break

        if by_line_search:
            away = away_atom(it, grad)  # every variant records the away gap
            step = _line_search_step(config.variant, it, grad, s, state, away, fw_dir, g_fw)
            if step is None:
                exit_status = "stall"
                break
            nxt, kind, gamma, gamma_max = step
            away_record = away[1]
        else:
            f_before = state.value
            try:
                if config.variant is Variant.FCFW:
                    result = fcfw_correction(state, it, s, config.epsilon)
                else:
                    result = mnp_correction(state, it, s)
            except CORRECTION_ERRORS as exc:
                exit_status, error = f"error:{type(exc).__name__}", str(exc)
                break
            nxt = result.iterate
            dropped = config.variant is Variant.MNP and len(nxt) < len(it)
            unchanged = nxt.ids == it.ids and np.array_equal(nxt.w, it.w)
            kind = StepKind.DROP if dropped else StepKind.CORRECTION
            inner_steps += result.inner_steps
            gamma = gamma_max = 0.0
            away_record = result.post_away_gap
            if unchanged and not state.value < f_before:
                exit_status = "stall"
                break

        f_new = state.value
        if not math.isfinite(f_new):
            exit_status = "error:nonfinite"
            break
        it = nxt
        rows.append((t, kind, gamma, gamma_max, g_fw, away_record, f_new, len(it)))

    echo = {
        "variant": config.variant.value,
        "epsilon": config.epsilon,
        "max_iter": config.max_iter,
        "dimension": spec.dimension,
        "init_active_size": init_size,
        "f0": f0,
        "exit_status": exit_status,
        "final_fw_gap": None if np.isnan(final_gap) else final_gap,
        "inner_steps": inner_steps,
        "lmo_calls": int(x0 is None) + t + 1,  # _initial_iterate's, then one per iteration
        "resyncs": state.resyncs,
        "qx_drift_max": state.drift_max,
    }
    if error is not None:
        echo["error"] = error
    trace = RunTrace(config_echo=echo)
    trace._extend(rows)
    trace.final_iterate = it
    return trace
