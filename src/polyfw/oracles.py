"""Linear minimization oracles over structured polytopes.

Each feasible region is described by a ``PolytopeSpec``.  Solvers touch
the region only through its oracle: ``lmo`` (exact argmin of a linear
function over the atom set, with deterministic tie-breaking) checks r
and calls ``_lmo``, which solvers call directly.  ``enumerate_atoms``
lists a small instance's atoms for ``geometry``'s constants and the
benchmark's starting points.  ``Simplex`` and ``L1Ball`` build and key
each oracle atom once, on first sight (``_axis_atom``), and ``VertexList``
builds its atoms up front, so a repeated answer is the same ``Atom``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from polyfw.core import Atom

ENUMERATION_CAP = 20_000


class EnumerationError(ValueError):
    """Atom enumeration requested on a spec with too many atoms."""


def _dimension(value, name: str = "dimension") -> int:
    """``value`` as an int, if it is an integer (not a bool) of at least 1; else ValueError."""
    if not _is_a(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, not {value!r}")
    return int(value)


def _axis_atom(memo: Dict[int, Atom], key: int, dimension: int, i: int, value: float) -> Atom:
    """The atom ``value * e_i``, built and keyed the first time ``key`` is asked, then kept in ``memo``.

    ``key`` is the atom's position in its spec's ``_atoms()``, so ``memo`` holds
    at most ``atom_count()`` atoms; enumeration builds its own and never fills it.
    """
    atom = memo.get(key)
    if atom is None:
        point = np.zeros(dimension)
        point[i] = value
        atom = memo[key] = Atom._adopt(point)
    return atom


def _intern(atoms: Iterable[Atom]) -> Dict[bytes, Tuple[Atom, int]]:
    """Each atom id, in order of first sight, with the first atom of that id and its position."""
    first: Dict[bytes, Tuple[Atom, int]] = {}
    for k, atom in enumerate(atoms):
        first.setdefault(atom.id, (atom, k))
    return first


class PolytopeSpec:
    """Base class: a polytope given as the convex hull of its atoms.

    A spec implements ``_lmo``, ``_atoms``, ``atom_count`` and ``to_json``;
    ``lmo`` and ``enumerate_atoms`` are the checked entries built on them.
    """

    dimension: int

    def lmo(self, r) -> Atom:
        """Exact argmin of <r, x> over the atom set; ``r`` must be finite and of shape (d,)."""
        arr = np.asarray(r, dtype=np.float64)
        if arr.shape != (self.dimension,):
            raise ValueError(f"direction has shape {arr.shape}, expected ({self.dimension},)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("direction entries must be finite")
        return self._lmo(arr)

    def _lmo(self, r: np.ndarray) -> Atom:
        """``lmo`` on a direction already known to be a finite float64 array of shape (d,)."""
        raise NotImplementedError

    def enumerate_atoms(self) -> List[Atom]:
        """Every atom once, in the spec's order: the first ``Atom`` built for each id.

        A spec of more than ``ENUMERATION_CAP`` atoms raises ``EnumerationError``
        before any atom is built.
        """
        count = self.atom_count()
        if count > ENUMERATION_CAP:
            raise EnumerationError(f"spec has {count} atoms, above the {ENUMERATION_CAP} cap")
        return [atom for atom, _ in _intern(self._atoms()).values()]

    def _atoms(self) -> Iterable[Atom]:
        """The atoms in enumeration order, repeats allowed; only called under the cap."""
        raise NotImplementedError

    def atom_count(self) -> int:
        """Number of atoms ``_atoms`` yields (before interning)."""
        raise NotImplementedError

    def to_json(self) -> Dict:
        raise NotImplementedError


class Simplex(PolytopeSpec):
    """Probability simplex: convex hull of the canonical basis vectors."""

    def __init__(self, dimension: int) -> None:
        self.dimension = _dimension(dimension)
        self._memo: Dict[int, Atom] = {}

    def _lmo(self, r: np.ndarray) -> Atom:
        i = int(r.argmin())  # the lowest index on ties
        return _axis_atom(self._memo, i, self.dimension, i, 1.0)

    def _atoms(self) -> List[Atom]:
        return [Atom(row) for row in np.eye(self.dimension)]

    def atom_count(self) -> int:
        return self.dimension

    def to_json(self) -> Dict:
        return {"variant": "simplex", "dimension": self.dimension}


class L1Ball(PolytopeSpec):
    """Scaled cross-polytope {x : ||x||_1 <= radius}."""

    def __init__(self, dimension: int, radius: float) -> None:
        self.dimension = _dimension(dimension)
        if not 0 < radius < math.inf:  # its LMO wraps its points unchecked
            raise ValueError("radius must be positive and finite")
        self.radius = float(radius)
        self._memo: Dict[int, Atom] = {}

    def _lmo(self, r: np.ndarray) -> Atom:
        i = int(abs(r).argmax())
        # At r_i == 0 (only when r == 0) fall back to the first atom in
        # enumeration order, +radius * e_0.
        if r[i] <= 0:
            return _axis_atom(self._memo, 2 * i, self.dimension, i, self.radius)
        return _axis_atom(self._memo, 2 * i + 1, self.dimension, i, -self.radius)

    def _atoms(self) -> List[Atom]:
        out = []
        for i in range(self.dimension):
            for sign in (1.0, -1.0):
                point = np.zeros(self.dimension)
                point[i] = sign * self.radius
                out.append(Atom(point))
        return out

    def atom_count(self) -> int:
        return 2 * self.dimension

    def to_json(self) -> Dict:
        return {"variant": "l1ball", "dimension": self.dimension, "radius": self.radius}


class Cube(PolytopeSpec):
    """Unit hypercube {0, 1}^d (convex hull of the binary vectors)."""

    def __init__(self, dimension: int) -> None:
        self.dimension = _dimension(dimension)

    def _lmo(self, r: np.ndarray) -> Atom:
        # Per-coordinate rule; the tie at r_i == 0 is broken toward 0.
        return Atom._adopt((r < 0).astype(np.float64))

    def _atoms(self) -> List[Atom]:
        return [
            Atom(np.array(bits, dtype=np.float64))
            for bits in itertools.product((0.0, 1.0), repeat=self.dimension)
        ]

    def atom_count(self) -> int:
        return 2 ** self.dimension

    def to_json(self) -> Dict:
        return {"variant": "cube", "dimension": self.dimension}


class VertexList(PolytopeSpec):
    """Explicit atom matrix, one atom per row.

    Rows are not required to be vertices of the hull; the oracle simply
    minimizes over the listed atoms.
    """

    def __init__(self, atoms) -> None:
        mat = np.array(atoms, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] < 1:
            raise ValueError("atom matrix must be 2-d with at least one row")
        self._prebuilt = [Atom(row) for row in mat]  # raises on non-finite coordinates
        mat.setflags(write=False)  # the LMO's argmin must index these atoms
        self.matrix, self.dimension = mat, mat.shape[1]

    @classmethod
    def _of_atoms(cls, atoms: List[Atom]) -> "VertexList":
        """A VertexList whose rows are ``atoms``, distinct and built already, not keyed again."""
        spec = cls.__new__(cls)
        spec._prebuilt, spec.matrix = atoms, np.stack([a.point for a in atoms])
        spec.matrix.setflags(write=False)
        spec.dimension = spec.matrix.shape[1]
        return spec

    def _lmo(self, r: np.ndarray) -> Atom:
        # The lowest row index wins ties between equal computed products; BLAS
        # may give equal rows at different positions different products.
        return self._prebuilt[self.matrix.dot(r).argmin()]

    def _atoms(self) -> List[Atom]:
        return self._prebuilt

    def atom_count(self) -> int:
        return self.matrix.shape[0]

    def to_json(self) -> Dict:
        return {"variant": "vertices", "atoms": self.matrix.tolist()}

    @classmethod
    def read_csv(cls, source) -> "VertexList":
        """One atom per row of a comma-separated file or file object; ``#`` starts a comment."""
        return cls(np.loadtxt(source, delimiter=",", ndmin=2))


class FlowDag(PolytopeSpec):
    """Unit-flow (path) polytope of a DAG.

    Coordinates are indexed by arcs; atoms are indicator vectors of
    source-to-sink paths.  The constructor compiles the DAG into depth
    levels (a node's depth is its longest arc count to the sink), the only
    form of the graph it keeps, so the oracle's shortest-path dynamic
    program is one vectorised min per level.  Ties go to the
    lexicographically smallest arc-index sequence.  A direction whose
    shortest path cost is not finite (it overflows) raises ``ValueError``.
    """

    def __init__(
        self,
        arcs: Sequence[Tuple[str, str]],
        source: Optional[str] = None,
        sink: Optional[str] = None,
    ) -> None:
        self.arcs: List[Tuple[str, str]] = [(str(u), str(v)) for u, v in arcs]
        if not self.arcs:
            raise ValueError("arc list is empty")
        self.dimension = len(self.arcs)
        out: Dict[str, List[int]] = {}  # out-arcs per node, nodes in order of first appearance
        for idx, (u, v) in enumerate(self.arcs):
            out.setdefault(u, []).append(idx)
            out.setdefault(v, [])
        if source is None:
            heads = {v for _, v in self.arcs}
            candidates = [n for n in out if n not in heads]
            if len(candidates) != 1:
                raise ValueError("source is ambiguous; pass it explicitly")
            source = candidates[0]
        if sink is None:
            candidates = [n for n in out if not out[n]]
            if len(candidates) != 1:
                raise ValueError("sink is ambiguous; pass it explicitly")
            sink = candidates[0]
        self.source, self.sink = str(source), str(sink)  # named as the arc ends are
        if self.source not in out or self.sink not in out:
            raise ValueError("source/sink must appear in the arc list")
        self._compile_levels(out)

    def _compile_levels(self, out: Dict[str, List[int]]) -> None:
        """Number the nodes by depth (sink 0, source last) and list their arcs in that order.

        Depths come from peeling the DAG from the sink: a node gets one once
        all its heads have one.  Nodes left without a depth (on a cycle, or
        with an arc that cannot reach the sink), or else the nodes that a
        sweep from the source in decreasing depth misses, raise ``ValueError``.
        Each level holds its node slice, its slice of ``_arc_order``, those
        arcs' heads and each node's offset into it for ``np.minimum.reduceat``.
        """
        pred: Dict[str, List[str]] = {n: [] for n in out}
        for u, v in self.arcs:
            pred[v].append(u)
        left = {n: len(idxs) for n, idxs in out.items()}
        depth: Dict[str, int] = {}
        ready = [] if out[self.sink] else [self.sink]
        while ready:
            n = ready.pop()
            depth[n] = max((1 + depth[self.arcs[idx][1]] for idx in out[n]), default=0)
            for u in pred[n]:
                left[u] -= 1
                if not left[u]:
                    ready.append(u)
        reached = {self.source}
        for n in sorted(depth, key=depth.get, reverse=True):  # every arc goes down in depth
            if n in reached:
                reached.update(self.arcs[idx][1] for idx in out[n])
        stranded = [n for n in out if n not in depth] or [n for n in out if n not in reached]
        if stranded:
            raise ValueError(f"nodes on a cycle or on an arc of no source-sink path: {stranded}")
        order = sorted(out, key=depth.get)  # stable: first appearance
        pos = {n: i for i, n in enumerate(order)}
        self._succ = [[(idx, pos[self.arcs[idx][1]]) for idx in out[n]] for n in order]
        self._arc_order = np.array([idx for succ in self._succ for idx, _ in succ], dtype=np.intp)
        heads = np.array([v for succ in self._succ for _, v in succ], dtype=np.intp)
        starts = np.cumsum([0] + [len(succ) for succ in self._succ])
        bounds = np.searchsorted([depth[n] for n in order], np.arange(depth[self.source] + 2))
        self._levels = []
        for lo, hi in zip(bounds[1:-1].tolist(), bounds[2:].tolist()):
            arcs = slice(*starts[[lo, hi]].tolist())  # int bounds slice faster than np.int64
            self._levels.append((slice(lo, hi), arcs, heads[arcs], starts[lo:hi] - starts[lo]))

    def _lmo(self, r: np.ndarray) -> Atom:
        cost = r[self._arc_order]
        dist = np.zeros(len(self._succ))
        least = np.minimum.reduceat
        for nodes, arcs, heads, starts in self._levels:
            dist[nodes] = least(cost[arcs] + dist[heads], starts)
        r_at, d = memoryview(r), dist.tolist()  # the walk reads a few entries of r
        if not math.isfinite(d[-1]):
            raise ValueError("shortest-path cost is not finite")
        # Walk from the source taking the smallest arc index that attains
        # the optimum: the lexicographically smallest path.  ``min``
        # returns one of its operands, so some out-arc always matches.
        point = np.zeros(self.dimension)
        node = len(d) - 1
        while node:
            for idx, head in self._succ[node]:
                if r_at[idx] + d[head] == d[node]:
                    break
            point[idx] = 1.0
            node = head
        return Atom._adopt(point)

    def _atoms(self) -> List[Atom]:
        atoms: List[Atom] = []
        stack: List[Tuple[int, List[int]]] = [(len(self._succ) - 1, [])]  # (node, arcs to it)
        while stack:  # depth first from the source, out-arcs in arc-list order
            node, path = stack.pop()
            if node:
                stack.extend((head, path + [idx]) for idx, head in reversed(self._succ[node]))
                continue
            point = np.zeros(self.dimension)
            point[path] = 1.0
            atoms.append(Atom(point))
        return atoms

    def atom_count(self) -> int:
        count = [1]  # paths to the sink from each node, in depth order
        for out in self._succ[1:]:
            count.append(sum(count[head] for _, head in out))
        return count[-1]

    def to_json(self) -> Dict:
        return {
            "variant": "flowdag",
            "arcs": [[u, v] for u, v in self.arcs],
            "source": self.source,
            "sink": self.sink,
        }


class BasePolytope(PolytopeSpec):
    """Base polytope of a submodular function on {0, .., n-1}.

    The oracle is the greedy algorithm: sort coordinates by ascending
    cost (stable, so index order breaks ties) and assign marginal gains
    of ``function`` along that permutation.
    """

    def __init__(self, n: int, function: Callable[[FrozenSet[int]], float]) -> None:
        self.dimension = _dimension(n, "ground set size n")
        self.function = function
        if abs(float(function(frozenset()))) > 1e-12:
            raise ValueError("submodular function must have F(empty) = 0")
        self._enumerated: Optional[List[Atom]] = None  # n! greedy passes; run them once

    def _greedy(self, order: Sequence[int]) -> np.ndarray:
        point = np.zeros(self.dimension)
        prefix: set = set()
        prev = 0.0
        for i in order:
            prefix.add(int(i))
            cur = float(self.function(frozenset(prefix)))
            point[i] = cur - prev
            prev = cur
        return point

    def _lmo(self, r: np.ndarray) -> Atom:
        order = r.argsort(kind="stable")
        return Atom(self._greedy(order))

    def enumerate_atoms(self) -> List[Atom]:
        """As ``PolytopeSpec.enumerate_atoms``, cached, with the cap on the n! orderings."""
        if self._enumerated is None:
            if math.factorial(self.dimension) > ENUMERATION_CAP:
                raise EnumerationError("too many greedy orderings to enumerate")
            self._enumerated = [atom for atom, _ in _intern(self._atoms()).values()]
        return list(self._enumerated)

    def _atoms(self) -> Iterable[Atom]:
        orders = itertools.permutations(range(self.dimension))
        return (Atom(self._greedy(order)) for order in orders)

    def atom_count(self) -> int:
        # distinct greedy vertices, not orderings; requires enumeration
        return len(self.enumerate_atoms())

    def to_json(self) -> Dict:
        raise ValueError("base polytope with a callable handle has no JSON form")


# Named submodular families available to JSON configs.

def cardinality_cap(cap: float) -> Callable[[FrozenSet[int]], float]:
    """F(S) = min(|S|, cap)."""
    return lambda s: float(min(len(s), cap))


def weighted_concave_cardinality(values: Sequence[float]) -> Callable[[FrozenSet[int]], float]:
    """F(S) = g(|S|) for a table g with g[0] = 0 and concave increments."""
    table = [float(v) for v in values]
    if abs(table[0]) > 1e-12:
        raise ValueError("g[0] must be 0")
    increments = np.diff(table)
    if np.any(np.diff(increments) > 1e-12):
        raise ValueError("increment table must be concave")
    return lambda s: table[len(s)]


_REQUIRED = object()


def _is_a(value, kind) -> bool:
    """``isinstance`` for JSON values, where a bool is not a number."""
    return isinstance(value, kind) and not isinstance(value, bool)


def json_field(doc: Dict, key: str, kind, owner: str, default=_REQUIRED):
    """``doc[key]`` if it is a JSON value of type ``kind``, or ``default`` when absent.

    The one reader of config and spec documents.  A ``doc`` that is not an
    object, a missing key without a default, or a value of the wrong type
    (a bool is never a number) is a ValueError that names ``owner`` and ``key``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{owner} must be a JSON object, not {doc!r}")
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"{owner} is missing {key!r}")
        return default
    if not _is_a(doc[key], kind):
        raise ValueError(f"{owner} has {key!r} of the wrong type: {doc[key]!r}")
    return doc[key]


def spec_from_json(doc: Dict) -> PolytopeSpec:
    """Parse a PolytopeSpec from a JSON object, reading each key with ``json_field``.

    A missing or mistyped key, or a malformed entry of ``arcs`` or
    ``values``, is a ValueError that names the variant and the key.  Arcs
    are [tail, head] pairs or "tail head" strings; a concave_cardinality
    function gives n + 1 numbers.
    """
    variant = json_field(doc, "variant", str, "polytope spec")

    def get(key: str, kind, within: Dict = doc):
        return json_field(within, key, kind, f"{variant} spec")

    if variant == "simplex":
        return Simplex(get("dimension", numbers.Integral))
    if variant == "l1ball":
        return L1Ball(get("dimension", numbers.Integral), get("radius", numbers.Real))
    if variant == "cube":
        return Cube(get("dimension", numbers.Integral))
    if variant == "vertices":
        path = json_field(doc, "csv", str, "vertices spec", None)
        return VertexList(get("atoms", list)) if path is None else VertexList.read_csv(path)
    if variant == "flowdag":
        arcs = []
        for arc in get("arcs", list):
            pair = arc.split() if isinstance(arc, str) else arc
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(_is_a(end, (str, numbers.Integral)) for end in pair)):
                raise ValueError(f"flowdag spec has an entry of 'arcs' that is not a "
                                 f"[tail, head] pair or a 'tail head' string: {arc!r}")
            arcs.append(pair)
        ends = (json_field(doc, e, (str, int), "flowdag spec", None) for e in ("source", "sink"))
        return FlowDag(arcs, *ends)
    if variant == "basepoly":
        n = get("n", numbers.Integral)
        fdoc = get("function", dict)
        kind = get("kind", str, fdoc)
        if kind == "cardinality_cap":
            fn = cardinality_cap(get("cap", numbers.Real, fdoc))
        elif kind == "concave_cardinality":
            values = get("values", list, fdoc)
            if len(values) != n + 1 or not all(_is_a(v, numbers.Real) for v in values):
                raise ValueError(f"basepoly spec needs 'values' to be n + 1 = {n + 1} numbers, "
                                 f"not {values!r}")
            fn = weighted_concave_cardinality(values)
        else:
            raise ValueError(f"unknown submodular family {kind!r}")
        return BasePolytope(n, fn)
    raise ValueError(f"unknown polytope variant {variant!r}")
