"""Shared domain types for active-set Frank-Wolfe solvers.

An iterate is kept as an explicit convex combination of atoms (the
"active set") next to its dense coordinates.  The active set is
array-backed: a tuple of atom ids, a weight vector aligned with it, and
the atoms as rows of an append-only store that a step shares with the
iterate it came from, so no step copies the atom matrix and the away
atom is one product of that matrix with the gradient.  The three step
operations below are the only ways solvers change that representation,
so the bookkeeping rules live in one place: weights stay positive and
sum to one, removals are exact (no epsilon residue), and the dense point
is re-synthesized from the expansion every ``RESYNTH_PERIOD`` steps, on
each drop or swap, and after an away step longer than 1, so incremental
updates cannot drift.  ``ActiveIterate.synced`` tells the objective
state (``polyfw.objectives``) when to recompute its incremental ``Qx``.
Step-path products (FW/AFW/PFW) use ``ndarray.dot``: the bits of ``@``
without its ufunc dispatch.  Dense products by Q keep ``@``, seen by
``__array_ufunc__``; a sparse atom's image from its support rows of Q uses
``ndarray.dot``, which that hook does not see.
"""

from __future__ import annotations

import json
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
    coordinates are the same.  ``Atom`` copies and checks; ``_adopt`` does neither.
    """

    __slots__ = ("id", "point")

    def __init__(self, point) -> None:
        pt = np.array(point, dtype=np.float64)
        self.id: bytes = atom_key(pt)
        pt.setflags(write=False)
        self.point: np.ndarray = pt

    @classmethod
    def _adopt(cls, point: np.ndarray) -> "Atom":
        """Atom owning ``point``, a finite float64 array, uncopied and unchecked; same id bytes."""
        atom = cls.__new__(cls)
        atom.id, atom.point = (point + 0.0).tobytes(), point
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
    active set and comes back reuses its row.  A new store keeps the rows
    it is given, uncopied and read-only as ``Atom._adopt`` keeps its point,
    and like any full store it doubles (to 10 rows at least) on its first append.
    """

    __slots__ = ("rows", "size", "row_of")

    def __init__(self, ids: Sequence[bytes], points: np.ndarray) -> None:
        points.setflags(write=False)
        self.rows, self.size = points, points.shape[0]
        self.row_of: Dict[bytes, int] = dict(zip(ids, range(self.size)))

    def row(self, atom: Atom) -> int:
        """The row holding ``atom``, appended on first sight."""
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
    atom sum within ``DRIFT_LIMIT`` in infinity norm.  Instances are
    value-like: step operations return new iterates and never write to
    an existing iterate's arrays.
    """

    __slots__ = ("ids", "w", "x", "_store", "_rows", "_steps_since_sync", "_last")

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
        self._last: Tuple[Optional[bytes], Optional[int]] = (None, None)
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
            if w < 0:
                raise ValueError("weights must be nonnegative")
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
        """Position of an atom in ``ids``, or None when it is not active."""
        if self._last[0] is atom_id:  # a step looks up its away atom twice
            return self._last[1]
        row = self._store.row_of.get(atom_id)
        if row is None:
            return None
        rows = self._rows.tolist()
        self._last = (atom_id, rows.index(row) if row in rows else None)
        return self._last[1]

    def atom_point(self, atom_id: bytes) -> np.ndarray:
        i = self.index(atom_id)
        if i is None:
            raise KeyError("atom is not active")
        point = self._point(i)
        point.flags.writeable = False
        return point

    def _point(self, i: int) -> np.ndarray:
        return self._store.rows[self._rows[i]]

    def atoms(self) -> Dict[bytes, np.ndarray]:
        rows = self.matrix()
        rows.flags.writeable = False
        return dict(zip(self.ids, rows))

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
        if not np.minimum.reduce(self.w) > 0.0:
            raise AssertionError("nonpositive weight in active set")
        total = float(np.add.reduce(self.w))
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            raise AssertionError(f"weight sum {total} off by more than {WEIGHT_SUM_TOL}")
        if not self.drift() <= DRIFT_LIMIT:
            raise AssertionError("dense point drifted from its expansion")

    def _with_atom(self, atom: Atom) -> Tuple[Tuple[bytes, ...], np.ndarray, _AtomStore]:
        """ids, store rows and store of this active set with ``atom`` appended.

        Once the store holds more than twice the active rows (plus
        slack), the active rows move to a fresh store: amortized over the
        appends that grew it, that copy costs O(d) per step.
        """
        store, rows = self._store, self._rows
        if store.size >= 2 * len(rows) + 8:
            store = _AtomStore(self.ids, store.rows[rows])
            rows = np.arange(len(rows))
        return self.ids + (atom.id,), np.append(rows, store.row(atom)), store


def _advance(
    it: ActiveIterate, ids: Tuple[bytes, ...], w: np.ndarray, rows: np.ndarray, store: _AtomStore,
    x_new: np.ndarray, force_sync: bool = False, clean: bool = True,
) -> ActiveIterate:
    """Package an updated state, re-synthesizing x on the usual cadence.

    With ``clean``, weights at or below ``WEIGHT_FLOOR`` are dropped and
    the rest renormalized in place (``w`` is the caller's fresh array):
    dividing by the surviving total redistributes the deficit proportionally.
    """
    if clean:
        if min(w.tolist()) <= WEIGHT_FLOOR:
            kept = (w > WEIGHT_FLOOR).nonzero()[0]
            if not kept.size:
                raise AssertionError("all weights collapsed below the floor")
            ids = tuple(ids[i] for i in kept)
            w, rows = w[kept], rows[kept]
        w /= np.add.reduce(w)
    out = ActiveIterate.__new__(ActiveIterate)
    out.ids, out.w, out.x, out._store, out._rows = ids, w, x_new, store, rows
    out._steps_since_sync, out._last = it._steps_since_sync + 1, (None, None)
    if force_sync or out._steps_since_sync >= RESYNTH_PERIOD:
        out.x = out.synthesize()
        out._steps_since_sync = 0
    return out


def _without(ids: Tuple[bytes, ...], w: np.ndarray, rows: np.ndarray, j: int):
    keep = [i for i in range(len(ids)) if i != j]
    return ids[:j] + ids[j + 1 :], w[keep], rows[keep]


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
    w = (1.0 - gamma) * it.w
    j = it.index(s.id)
    if j is None:
        ids, rows, store = it._with_atom(s)
        w = np.append(w, gamma)
    else:
        ids, rows, store = it.ids, it._rows, it._store
        w[j] += gamma
    x_new = gamma * (s.point - it.x if fw_dir is None else fw_dir)
    x_new += it.x
    return _advance(it, ids, w, rows, store, x_new)


def apply_away_step(it: ActiveIterate, v: bytes, gamma: float) -> Tuple[ActiveIterate, bool]:
    """Move away from active atom ``v``: x <- x + gamma (x - v).

    The step's limit is gamma_max = alpha_v / (1 - alpha_v); at gamma =
    gamma_max the atom is removed exactly (a drop step).  Returns the new
    iterate and whether the step was a drop.
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
    if gamma == gamma_max:
        ids, w, rows = _without(it.ids, it.w, it._rows, j)
        out = _advance(it, ids, (1.0 + gamma) * w, rows, it._store, it.x, force_sync=True)
        return out, True
    w = (1.0 + gamma) * it.w
    w[j] = (1.0 + gamma) * alpha - gamma
    x_new = it.x + gamma * (it.x - it._point(j))
    # x_new = (1 + gamma) x - gamma v scales the rounding error already in
    # x by 1 + gamma, so a long step re-synthesizes x from the weights.
    out = _advance(it, it.ids, w, it._rows, it._store, x_new, force_sync=gamma > 1.0)
    return out, False


def apply_pairwise_step(
    it: ActiveIterate, v: bytes, s: Atom, gamma: float
) -> Tuple[ActiveIterate, "StepKind"]:
    """Shift mass gamma from active atom ``v`` onto atom ``s``.

    Only the two named weights change; every other entry is preserved
    exactly.  A gamma at or below ``WEIGHT_FLOOR`` counts as zero, so no
    atom is left with a sub-floor weight.  Classification: Drop when
    gamma exhausts alpha_v and s was already active, Swap when it
    exhausts alpha_v and s was inactive, Pairwise otherwise.
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
    ids, w, rows, store = it.ids, it.w, it._rows, it._store
    if gamma > 0.0:
        i_s = it.index(s.id)
        if i_s is None:
            ids, rows, store = it._with_atom(s)
            w = np.append(w, gamma)
        else:
            w = w.copy()
            w[i_s] += gamma
        if gamma == gamma_max:
            kind = StepKind.SWAP if len(ids) > len(it) else StepKind.DROP
            ids, w, rows = _without(ids, w, rows, j)
            return _advance(it, ids, w, rows, store, it.x, force_sync=True, clean=False), kind
        w[j] = gamma_max - gamma
    x_new = it.x + gamma * (s.point - it._point(j))
    return _advance(it, ids, w, rows, store, x_new, clean=False), StepKind.PAIRWISE


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

    ``columns`` holds one list per ``StepRecord`` field, which ``append``
    extends by a row; ``records`` builds each ``StepRecord`` only when it
    is read.  ``config_echo`` carries the solver configuration plus run
    outcome (initial objective value, exit status, final gap).
    """

    def __init__(self, records: Iterable[StepRecord] = (),
                 config_echo: Optional[Dict] = None) -> None:
        self.columns: Dict[str, list] = {name: [] for name in FIELDS}
        self.records: Sequence[StepRecord] = _Records(self.columns)
        self.config_echo = {} if config_echo is None else config_echo
        self.final_iterate: Optional[ActiveIterate] = None  # ``solve`` sets it
        for rec in records:
            self.append(*vars(rec).values())

    def append(self, *row) -> None:
        """Add one iteration's row, its fields in ``StepRecord`` order."""
        for col, value in zip(self.columns.values(), row):
            col.append(value)

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
        if not lines or not lines[0].startswith("#"):
            raise ValueError("trace is missing its JSON header line")
        body = lines[1:]
        if body and body[0].replace(" ", "") == CSV_COLUMNS:
            body = body[1:]
        return cls(map(StepRecord.from_csv_row, body), json.loads(lines[0][1:].strip()))

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
