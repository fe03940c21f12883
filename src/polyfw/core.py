"""Shared domain types for active-set Frank-Wolfe solvers.

An iterate is kept as an explicit convex combination of atoms (the
"active set") next to its dense coordinates.  The active set is
array-backed: a tuple of atom ids, a weight vector aligned with it, and
the atoms as rows of an append-only store that a step shares with the
iterate it came from, so no step copies the atom matrix and the away
atom is one product of that matrix with the gradient.  The three step
operations below are the only ways solvers change that representation,
and each is the one move x + gamma (head - tail): FW's s - x, away's
x - v and pairwise's s - v.  ``_move`` builds every stepped iterate, so
the bookkeeping rules live in one place: weights stay positive and sum
to one, removals are exact (no epsilon residue), and the dense point is
re-synthesized from the expansion every ``RESYNTH_PERIOD`` steps, on
each drop or swap, and after an away step longer than 1, so incremental
updates cannot drift.  No check in a step walks the active set: each
iterate carries a lower bound on its smallest weight, which ``_move``
moves through the step's own rounded operations, so the floor test
scans the weights only when the bound reaches the floor; and the store
keeps a position hint per atom id, which ``ActiveIterate.index`` trusts
only once the iterate's own ids confirm it, scanning otherwise.  Every
decision is the one the scans would make, bit for bit.
``ActiveIterate.synced`` tells the objective state (``polyfw.objectives``)
when to recompute its incremental ``Qx``.
Step-path products (FW/AFW/PFW) use ``ndarray.dot``: the bits of ``@``
without its ufunc dispatch.  So do the correction path's (Wolfe's cycle,
FCFW's inner loop, the corral's products and ``pwidth``'s facial problems),
and Wolfe's minor cycle reduces with ``np.*.reduce`` instead of the
``ndarray.min/max/sum`` wrappers.  Dense products by Q keep ``@``, seen by
``__array_ufunc__``; a sparse atom's image from its support rows of Q uses
``ndarray.dot``, which that hook does not see.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

# Numerical policy shared by all step operations.
WEIGHT_FLOOR = 1e-14      # weights at or below this are treated as exact zeros
WEIGHT_SUM_TOL = 1e-12    # allowed deviation of the weight sum from 1
DRIFT_LIMIT = 1e-9        # max infinity-norm gap between x and its expansion
RESYNTH_PERIOD = 100      # full re-synthesis cadence for incremental updates
GAMMA_SNAP = 1e-12        # relative snap of gamma onto gamma_max


class FullWeightAwayError(ValueError):
    """Away step requested from an atom carrying the whole weight."""


class DegenerateDirectionError(ValueError):
    """Pairwise step whose source and target atoms coincide."""


def atom_key(point: np.ndarray) -> bytes:
    """Canonical byte encoding of finite coordinates: all 8·d bytes, -0.0 folded into +0.0.

    Equal coordinate vectors map to the same key, so an atom
    re-discovered by a later oracle call is interned to the same id.
    """
    arr = np.ascontiguousarray(point, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("atom coordinates must be finite")
    return (arr + 0.0).tobytes()


class Atom:
    """A candidate vertex of the feasible polytope.

    Identity is ``atom_key`` of the coordinates: two atoms with equal
    coordinates are the same.  An atom never changes, so an oracle may
    hand out the same ``Atom`` for every repeat of an answer (``Simplex``,
    ``L1Ball`` and ``VertexList`` do).  ``Atom`` copies and checks;
    ``_adopt`` does neither.
    """

    __slots__ = ("id", "point")

    def __init__(self, point) -> None:
        pt = np.array(point, dtype=np.float64)
        self.id: bytes = atom_key(pt)
        pt.setflags(write=False)
        self.point: np.ndarray = pt

    @classmethod
    def _adopt(cls, point: np.ndarray, atom_id: Optional[bytes] = None) -> "Atom":
        """Atom owning ``point``, a finite float64 array, uncopied, unchecked and made read-only.

        Its id is ``atom_id``, an id the caller already holds for these
        coordinates (an iterate's ``ids`` entry), so the point is not keyed
        again; without one it is the bytes ``atom_key`` gives.
        """
        atom = cls.__new__(cls)
        atom.id, atom.point = (point + 0.0).tobytes() if atom_id is None else atom_id, point
        point.setflags(write=False)
        return atom

    def __eq__(self, other) -> bool:
        return isinstance(other, Atom) and self.id == other.id

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"Atom({np.array2string(self.point, precision=6)})"


class _AtomStore:
    """Append-only atom rows shared by an iterate and the iterates stepped from it.

    A row, once written, never changes, so every iterate that indexes
    into the store stays valid however many later steps append to it.
    ``row_of`` maps an atom id to its row, so an atom that leaves the
    active set and comes back reuses its row.  ``at`` maps the same ids to
    a position hint: where the atom last sat in an iterate that added or
    looked it up.  Iterates that share the store may hold it at other
    positions, so ``ActiveIterate.index`` trusts a hint only once the
    asking iterate's own ids confirm it.  A new store keeps the rows it is
    given, uncopied and read-only as ``Atom._adopt`` keeps its point, and
    like any full store it doubles (to 10 rows at least) on its first
    append.
    """

    __slots__ = ("rows", "size", "row_of", "at")

    def __init__(self, ids: Sequence[bytes], points: np.ndarray) -> None:
        points.setflags(write=False)
        self.rows, self.size = points, points.shape[0]
        self.row_of: Dict[bytes, int] = dict(zip(ids, range(self.size)))
        self.at: Dict[bytes, int] = dict(self.row_of)  # row i is position i of ``ids``

    def row(self, atom: Atom, position: int) -> int:
        """The row holding ``atom``, appended on first sight; ``position`` is its new hint."""
        self.at[atom.id] = position
        r = self.row_of.get(atom.id)
        if r is None:
            r = self.size
            if r == self.rows.shape[0]:
                grown = np.empty((max(2 * r, 10), self.rows.shape[1]))
                grown[:r] = self.rows
                self.rows = grown
            self.rows[r] = atom.point
            self.row_of[atom.id] = r
            self.size = r + 1
        return r


class ActiveIterate:
    """A point of the polytope with its explicit convex decomposition.

    The active set is array-backed: ``ids`` (a tuple of atom ids),
    the weight vector ``w`` aligned with it, and the atoms' coordinates
    as rows of an append-only store that a step shares with its parent
    instead of copying.  ``weights`` reads as an ``{id: weight}`` dict.

    Invariants: every weight is positive, the weights sum to one within
    ``WEIGHT_SUM_TOL``, and the dense point ``x`` matches the weighted
    atom sum within ``DRIFT_LIMIT`` in infinity norm.  ``_w_low`` is a
    lower bound on the smallest weight: exact when an iterate is built,
    carried through each step by ``_move``.  Instances are value-like:
    step operations return new iterates, and no method but ``__init__``
    writes to an iterate or its arrays.
    """

    __slots__ = ("ids", "w", "x", "_store", "_rows", "_steps_since_sync", "_w_low")

    def __init__(self, ids: Sequence[bytes], points, w, x: Optional[np.ndarray] = None) -> None:
        """Iterate with atoms ``points[i]`` (id ``ids[i]``) at weights ``w[i]``.

        ``x`` defaults to the weighted atom sum; C-ordered float64 ``points`` are kept uncopied
        and read-only.  Nothing is validated here; ``check()`` tests the invariants.
        """
        self.ids: Tuple[bytes, ...] = tuple(ids)
        points = np.ascontiguousarray(points, dtype=np.float64)
        self.w = np.array(w, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] != len(self.ids) or self.w.shape != (len(self.ids),):
            raise ValueError("ids, points and weights must have one entry per atom")
        self._store = _AtomStore(self.ids, points)
        self._rows = np.arange(len(self.ids))
        self._steps_since_sync = 0
        self._w_low = min(self.w.tolist(), default=math.inf)
        self.x = self.synthesize() if x is None else np.asarray(x, dtype=np.float64)

    @classmethod
    def from_atom(cls, atom: Atom) -> "ActiveIterate":
        return cls((atom.id,), atom.point[None, :], [1.0], atom.point.copy())

    @classmethod
    def from_weights(cls, pairs: Mapping[Atom, float]) -> "ActiveIterate":
        """Build an iterate from an {atom: weight} convex combination."""
        weights: Dict[bytes, float] = {}
        points: Dict[bytes, np.ndarray] = {}
        for atom, w in pairs.items():
            if not w >= 0:  # NaN too
                raise ValueError(f"weights must be nonnegative, not {w!r}")
            if w <= WEIGHT_FLOOR:
                continue
            weights[atom.id] = weights.get(atom.id, 0.0) + float(w)
            points[atom.id] = atom.point
        if not weights:
            raise ValueError("at least one positive weight required")
        total = sum(weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        ids = list(weights)
        return cls(ids, np.stack([points[i] for i in ids]), [weights[i] / total for i in ids])

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def weights(self) -> Dict[bytes, float]:
        """A fresh ``{atom id: weight}`` dict in active-set order."""
        return dict(zip(self.ids, self.w.tolist()))

    @property
    def synced(self) -> bool:
        """True when ``x`` was just re-synthesized from the expansion."""
        return self._steps_since_sync == 0

    def index(self, atom_id: bytes) -> Optional[int]:
        """Position of an atom in ``ids``, or None when it is not active.

        O(1) when the store's hint holds; otherwise one scan of the rows, whose result becomes
        the hint.
        """
        store = self._store
        p = store.at.get(atom_id)
        if p is None:  # never in the store: most new FW atoms
            return None
        if p < len(self.ids) and self.ids[p] == atom_id:
            return p
        try:
            p = self._rows.tolist().index(store.row_of[atom_id])
        except ValueError:  # the atom left the active set; its row stays in the store
            return None
        store.at[atom_id] = p
        return p

    def _point(self, i: int) -> np.ndarray:
        return self._store.rows[self._rows[i]]

    def matrix(self) -> np.ndarray:
        """The active atoms as rows of a fresh k x d array."""
        return self._store.rows[self._rows]

    def atom_dots(self, vec: np.ndarray) -> np.ndarray:
        """<a_i, vec> for each active atom, in ``ids`` order (one product)."""
        store = self._store
        return store.rows[: store.size].dot(vec)[self._rows]

    def synthesize(self) -> np.ndarray:
        store = self._store
        full = np.zeros(store.size)
        full[self._rows] = self.w
        return full @ store.rows[: store.size]

    def drift(self) -> float:
        return float(np.maximum.reduce(abs(self.x - self.synthesize())))

    def check(self) -> None:
        """Raise if a representation invariant is violated."""
        if not self.ids:
            raise AssertionError("empty active set")
        low = np.minimum.reduce(self.w)
        if not low > 0.0:
            raise AssertionError("nonpositive weight in active set")
        if not self._w_low <= low:
            raise AssertionError(f"weight bound {self._w_low} above the smallest weight {low}")
        total = float(np.add.reduce(self.w))
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise AssertionError(f"weight sum {total} off by more than {WEIGHT_SUM_TOL}")
        if not self.drift() <= DRIFT_LIMIT:
            raise AssertionError("dense point drifted from its expansion")


def _move(
    it: ActiveIterate, s: Optional[Atom], j: Optional[int], gamma: float, x_new: np.ndarray,
    drop: bool = False, force_sync: bool = False, clean: bool = True,
) -> ActiveIterate:
    """The iterate x + gamma (head - tail) at dense point ``x_new``.

    Head is atom ``s`` (x when None), tail the active atom at position ``j`` (x when None).
    Weights scale by 1 + gamma ([head is x] - [tail is x]), the tail's loses gamma and ``s``
    gains it, appended when new; first, a store of 2k + 8 rows or more for k active atoms
    hands the active rows to a fresh store (O(d) per step, amortized over the appends).  A
    ``drop`` takes atom j out; ``clean`` drops weights at or below ``WEIGHT_FLOOR`` and
    renormalizes the rest.  x is re-synthesized on a drop, on ``force_sync`` and every
    ``RESYNTH_PERIOD`` steps.

    The weight bound ``_w_low`` follows the weights through the same rounded operations:
    times the scale, the tail's new weight, the new atom's gamma, and over the renormalizing
    sum.  Each is monotone under rounding, so the bound stays below every weight, and the
    floor test scans the weights only when the bound is not above the floor; that scan
    makes the bound exact again.
    """
    ids, rows, store, low = it.ids, it._rows, it._store, it._w_low
    scale = 1.0 + gamma * ((s is None) - (j is None))
    if scale != 1.0:
        w, low = it.w * scale, low * scale
    else:
        w = it.w.copy()  # a pairwise step only copies
    if j is not None:
        w[j] -= gamma
        if not drop:
            low = min(low, float(w[j]))
    if s is not None:
        i = it.index(s.id)
        if i is None:
            if store.size >= 2 * len(rows) + 8:
                store, rows = _AtomStore(ids, store.rows[rows]), np.arange(len(rows))
            r = store.row(s, len(ids) - drop)  # its position once atom j < len(ids) is dropped
            w, rows = np.concatenate((w, [gamma])), np.concatenate((rows, [r]))
            ids = ids + (s.id,)
            low = min(low, gamma)
        else:
            w[i] += gamma  # no lower than it was
    if drop:
        keep = [i for i in range(len(ids)) if i != j]
        ids, w, rows = ids[:j] + ids[j + 1 :], w[keep], rows[keep]
    if clean:
        if not low > WEIGHT_FLOOR and (low := min(w.tolist())) <= WEIGHT_FLOOR:
            kept = (w > WEIGHT_FLOOR).nonzero()[0]
            if not kept.size:
                raise AssertionError("all weights collapsed below the floor")
            ids = tuple(ids[i] for i in kept)
            w, rows = w[kept], rows[kept]
            low = min(w.tolist())
        total = float(np.add.reduce(w))
        w /= total
        low /= total
    out = ActiveIterate.__new__(ActiveIterate)
    out.ids, out.w, out.x, out._store, out._rows, out._w_low = ids, w, x_new, store, rows, low
    out._steps_since_sync = it._steps_since_sync + 1
    if drop or force_sync or out._steps_since_sync >= RESYNTH_PERIOD:
        out.x = out.synthesize()
        out._steps_since_sync = 0
    return out


def apply_fw_step(
    it: ActiveIterate, s: Atom, gamma: float, fw_dir: Optional[np.ndarray] = None
) -> ActiveIterate:
    """Move toward atom ``s``: x <- x + gamma (s - x).

    All weights scale by (1 - gamma) and ``s`` picks up gamma.  At
    gamma = 1 the active set collapses to {s} exactly.  ``fw_dir`` is
    s - x when the caller has it already.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma {gamma} outside [0, 1]")
    if gamma >= 1.0:
        return ActiveIterate.from_atom(s)
    x_new = gamma * (s.point - it.x if fw_dir is None else fw_dir)
    x_new += it.x
    return _move(it, s, None, gamma, x_new)


def apply_away_step(
    it: ActiveIterate, v: bytes, gamma: float, away_dir: Optional[np.ndarray] = None
) -> Tuple[ActiveIterate, bool]:
    """Move away from active atom ``v``: x <- x + gamma (x - v).

    The step's limit is gamma_max = alpha_v / (1 - alpha_v); at gamma =
    gamma_max the atom is removed exactly (a drop step).  Returns the new
    iterate and whether the step was a drop.  ``away_dir`` is x - v when
    the caller has it already.
    """
    j = it.index(v)
    if j is None:
        raise ValueError("away atom is not active")
    alpha = float(it.w[j])
    if len(it) == 1 or alpha >= 1.0:
        raise FullWeightAwayError("cannot step away from a full-weight atom")
    gamma_max = alpha / (1.0 - alpha)
    if not 0.0 <= gamma <= gamma_max * (1.0 + 1e-12):
        raise ValueError(f"gamma {gamma} outside [0, {gamma_max}]")
    if gamma_max - gamma <= GAMMA_SNAP * max(1.0, gamma_max):
        gamma = gamma_max
    drop = gamma == gamma_max
    if drop:
        x_new = it.x
    else:
        x_new = it.x + gamma * (it.x - it._point(j) if away_dir is None else away_dir)
    # x_new = (1 + gamma) x - gamma v scales the rounding error already in
    # x by 1 + gamma, so a long step re-synthesizes x from the weights.
    return _move(it, None, j, gamma, x_new, drop, force_sync=gamma > 1.0), drop


def apply_pairwise_step(
    it: ActiveIterate, v: bytes, s: Atom, gamma: float, pair_dir: Optional[np.ndarray] = None
) -> Tuple[ActiveIterate, "StepKind"]:
    """Shift mass gamma from active atom ``v`` onto atom ``s``.

    Only the two named weights change; every other entry is preserved
    exactly.  A gamma at or below ``WEIGHT_FLOOR`` counts as zero, so no
    atom is left with a sub-floor weight, and a zero step adds no atom.
    Classification: Drop when gamma exhausts alpha_v and s was already
    active, Swap when it exhausts alpha_v and s was inactive, Pairwise
    otherwise.  ``pair_dir`` is s - v when the caller has it already.
    """
    j = it.index(v)
    if j is None:
        raise ValueError("source atom is not active")
    if s.id == v:
        raise DegenerateDirectionError("pairwise step onto the same atom")
    gamma_max = float(it.w[j])
    if not 0.0 <= gamma <= gamma_max * (1.0 + 1e-12):
        raise ValueError(f"gamma {gamma} outside [0, {gamma_max}]")
    if gamma_max - gamma <= GAMMA_SNAP:
        gamma = gamma_max
    elif gamma <= WEIGHT_FLOOR:
        gamma = 0.0
    if gamma == gamma_max:
        out = _move(it, s, j, gamma, it.x, drop=True, clean=False)
        return out, StepKind.SWAP if len(out) == len(it) else StepKind.DROP
    x_new = it.x + gamma * (s.point - it._point(j) if pair_dir is None else pair_dir)
    head = s if gamma > 0.0 else None
    return _move(it, head, j, gamma, x_new, clean=False), StepKind.PAIRWISE


class StepKind(str, Enum):
    FW = "FW"
    AWAY = "AWAY"
    PAIRWISE = "PAIRWISE"
    DROP = "DROP"
    SWAP = "SWAP"
    CORRECTION = "CORRECTION"


@dataclass
class StepRecord:
    """One solver iteration: a row of a ``RunTrace``.

    Gaps are measured at the pre-step iterate; ``f_value`` and
    ``active_size`` describe the post-step iterate, so a Drop record
    shows the shrunken set.  For correction-style records (FCFW, MNP)
    ``away_gap`` is the post-correction away gap, the quantity the
    correction contract bounds, and gamma/gamma_max are zero.
    """

    iteration: int
    kind: StepKind
    gamma: float
    gamma_max: float
    fw_gap: float
    away_gap: float
    f_value: float
    active_size: int

    @classmethod
    def from_csv_row(cls, row: str) -> "StepRecord":
        parts = row.strip().split(",")
        if len(parts) != 8:
            raise ValueError(f"malformed step record: {row!r}")
        return cls(int(parts[0]), StepKind(parts[1]), *map(float, parts[2:7]), int(parts[7]))


FIELDS = tuple(f.name for f in fields(StepRecord))
CSV_COLUMNS = "iter,kind,gamma,gamma_max,fw_gap,away_gap,f_value,active_size"


@dataclass(eq=False)
class _Records(Sequence):
    """A trace's rows as ``StepRecord``s, each built when it is read."""

    columns: Dict[str, list]

    def __len__(self) -> int:
        return len(self.columns["iteration"])

    def __getitem__(self, i):
        cells = [col[i] for col in self.columns.values()]
        return list(map(StepRecord, *cells)) if isinstance(i, slice) else StepRecord(*cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


class RunTrace:
    """Everything one solver run produced.

    ``columns`` holds one list per ``StepRecord`` field, filled from the
    run's rows in one transpose (``_extend``); ``records`` builds each
    ``StepRecord`` only when it is read.  ``config_echo`` carries the solver
    configuration plus run outcome (initial objective value, exit status, final gap).
    """

    def __init__(self, records: Iterable[StepRecord] = (),
                 config_echo: Optional[Dict] = None) -> None:
        self.columns: Dict[str, list] = {name: [] for name in FIELDS}
        self.records: Sequence[StepRecord] = _Records(self.columns)
        self.config_echo = {} if config_echo is None else config_echo
        self.final_iterate: Optional[ActiveIterate] = None  # ``solve`` sets it
        self._extend(vars(rec).values() for rec in records)

    def _extend(self, rows: Iterable[Iterable]) -> None:
        """Add rows whose fields are in ``StepRecord`` order, each column in one ``extend``."""
        for col, values in zip(self.columns.values(), zip(*rows)):
            col.extend(values)

    def to_csv(self) -> str:
        """JSON header, column names, then one row per iteration, floats as ``repr``."""
        iteration, kind, *floats, size = self.columns.values()
        # A StepKind is a str whose text is its value, so join writes it as is.
        floats = (map(repr, map(float, col)) for col in floats)
        cells = [map(str, iteration), kind, *floats, map(str, size)]
        lines = ["# " + json.dumps(self.config_echo, sort_keys=True), CSV_COLUMNS]
        lines.extend(map(",".join, zip(*cells)))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, text: str) -> "RunTrace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        header = json.loads(lines[0][1:]) if lines and lines[0].startswith("#") else None
        if not isinstance(header, dict):
            raise ValueError("trace is missing its JSON object header line")
        body = lines[1:]
        if body and body[0].replace(" ", "") == CSV_COLUMNS:
            body = body[1:]
        return cls(map(StepRecord.from_csv_row, body), header)

    @classmethod
    def read_csv(cls, path) -> "RunTrace":
        with open(path) as fh:
            return cls.from_csv(fh.read())

    def f_values(self) -> np.ndarray:
        return np.array(self.columns["f_value"], dtype=np.float64)

    def step_counts(self) -> Dict[str, int]:
        return {k.value: n for k in StepKind if (n := self.columns["kind"].count(k))}

    def validate(self, initial_active_size: int = 1) -> None:
        """Check the trace-level bookkeeping invariants."""
        c = self.columns
        prev_f, prev_size, drops = None, initial_active_size, 0
        rows = zip(c["iteration"], c["kind"], c["f_value"], c["active_size"])
        for t, (iteration, kind, f_value, size) in enumerate(rows, start=1):
            if prev_f is not None and f_value > prev_f + 1e-12 * max(1.0, abs(prev_f)):
                raise AssertionError(f"objective increased at iteration {iteration}")
            if kind is StepKind.DROP:
                drops += 1
                if size >= prev_size:
                    raise AssertionError("drop step did not shrink the active set")
            if kind is StepKind.SWAP and size != prev_size:
                raise AssertionError("swap step changed the active-set size")
            if drops > t / 2.0 + initial_active_size / 2.0:
                raise AssertionError(f"too many drop steps in prefix of length {t}")
            prev_f, prev_size = f_value, size
