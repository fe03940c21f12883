"""Linear minimization oracles against scan references and enumeration."""

import io
import itertools
import json
import math

import numpy as np
import pytest

import oracles as ref
from polyfw.core import Atom
from polyfw.geometry import polytope_diameter
from polyfw.oracles import (
    BasePolytope,
    Cube,
    ENUMERATION_CAP,
    EnumerationError,
    FlowDag,
    L1Ball,
    Simplex,
    VertexList,
    cardinality_cap,
    spec_from_json,
    weighted_concave_cardinality,
)


def test_simplex_lmo_matches_reference():
    spec = Simplex(7)
    rng = np.random.default_rng(101)
    for _ in range(200):
        r = rng.standard_normal(7)
        assert np.array_equal(spec.lmo(r).point, ref.simplex_lmo(r))


def test_cube_lmo_matches_reference():
    spec = Cube(6)
    rng = np.random.default_rng(102)
    for _ in range(200):
        r = rng.standard_normal(6)
        assert np.array_equal(spec.lmo(r).point, ref.cube_lmo(r))


def test_l1ball_lmo_matches_reference():
    spec = L1Ball(5, 3.5)
    rng = np.random.default_rng(103)
    for _ in range(200):
        r = rng.standard_normal(5)
        a, b = spec.lmo(r).point, ref.l1ball_lmo(r, 3.5)
        assert np.dot(r, a) == pytest.approx(np.dot(r, b), abs=1e-14)


def test_l1ball_pinned_example():
    spec = L1Ball(3, 20.0)
    assert np.array_equal(spec.lmo([1.0, -3.0, 2.0]).point, [0.0, 20.0, 0.0])


def test_simplex_pinned_example():
    assert np.array_equal(
        Simplex(3).lmo([0.5, -1.0, 0.2]).point, [0.0, 1.0, 0.0]
    )


def test_cube_pinned_example():
    # tie at the zero coordinate breaks toward 0
    assert np.array_equal(Cube(3).lmo([-1.0, 2.0, 0.0]).point, [1.0, 0.0, 0.0])


def _diamond_dag():
    return FlowDag([("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])


def test_flowdag_enumerates_two_paths():
    atoms = _diamond_dag().enumerate_atoms()
    assert len(atoms) == 2
    for atom in atoms:
        assert sorted(atom.point.tolist()) == [0.0, 0.0, 1.0, 1.0]


def test_flowdag_lmo_is_min_cost_path():
    spec = _diamond_dag()
    rng = np.random.default_rng(104)
    atoms = spec.enumerate_atoms()
    for _ in range(200):
        r = rng.standard_normal(spec.dimension)
        best = min(float(np.dot(r, a.point)) for a in atoms)
        assert float(np.dot(r, spec.lmo(r).point)) == pytest.approx(best, abs=1e-12)


def test_flowdag_longer_chain_paths():
    # two diamonds in series: four source->sink paths
    spec = FlowDag(
        [
            ("s", "a"), ("s", "b"), ("a", "m"), ("b", "m"),
            ("m", "c"), ("m", "d"), ("c", "t"), ("d", "t"),
        ]
    )
    assert spec.atom_count() == 4


def test_flowdag_rejects_cycle():
    with pytest.raises(ValueError):
        FlowDag([("a", "b"), ("b", "c"), ("c", "a")])


def test_flowdag_rejects_dangling_node():
    with pytest.raises(ValueError):
        FlowDag([("a", "b"), ("b", "d"), ("a", "c")])  # c never reaches d


def test_flowdag_rejects_empty_arcs_and_a_terminal_off_the_arcs():
    with pytest.raises(ValueError, match="empty"):
        FlowDag([])
    arcs = [("s", "a"), ("a", "t")]
    for ends in ({"source": "x"}, {"sink": "x"}):
        with pytest.raises(ValueError, match="must appear in the arc list"):
            FlowDag(arcs, **ends)


def test_base_polytope_rejects_f_of_empty_set_nonzero():
    with pytest.raises(ValueError, match=r"F\(empty\) = 0"):
        BasePolytope(3, lambda s: 1.0 + len(s))


def test_concave_cardinality_checks_its_table():
    with pytest.raises(ValueError, match=r"g\[0\] must be 0"):
        weighted_concave_cardinality([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="concave"):
        weighted_concave_cardinality([0.0, 1.0, 3.0])


def test_base_polytope_pinned_greedy_example():
    spec = BasePolytope(3, cardinality_cap(2.0))
    atom = spec.lmo([-3.0, -1.0, -2.0])
    assert np.array_equal(atom.point, [1.0, 0.0, 1.0])


def test_base_polytope_lmo_minimal_over_permutations():
    g = [0.0, 0.8, 1.5, 2.0, 2.3, 2.4]  # concave increments
    spec = BasePolytope(5, weighted_concave_cardinality(g))
    rng = np.random.default_rng(105)
    atoms = spec.enumerate_atoms()
    for _ in range(100):
        r = rng.standard_normal(5)
        best = min(float(np.dot(r, a.point)) for a in atoms)
        assert float(np.dot(r, spec.lmo(r).point)) <= best + 1e-12


def test_base_polytope_tight_sets_exhaustive():
    # greedy atoms respect x(S) <= F(S) for every subset, with equality
    # on the full ground set
    tables = {
        6: cardinality_cap(2.5),
        8: weighted_concave_cardinality(
            [0.0, 1.0, 1.9, 2.7, 3.4, 4.0, 4.5, 4.9, 5.2]
        ),
    }
    for n, fn in tables.items():
        spec = BasePolytope(n, fn)
        rng = np.random.default_rng(200 + n)
        ground = frozenset(range(n))
        for _ in range(25):
            x = spec.lmo(rng.standard_normal(n)).point
            assert float(x.sum()) == pytest.approx(fn(ground), abs=1e-9)
            for size in range(1, n):
                for subset in itertools.combinations(range(n), size):
                    s = frozenset(subset)
                    assert float(x[list(subset)].sum()) <= fn(s) + 1e-9


def test_enumeration_matches_lmo_for_all_structured_specs():
    specs = [
        Simplex(9),
        Cube(7),
        L1Ball(6, 2.0),
        VertexList(np.random.default_rng(7).standard_normal((12, 4))),
        _diamond_dag(),
        BasePolytope(5, cardinality_cap(3.0)),
    ]
    rng = np.random.default_rng(106)
    for spec in specs:
        atoms = spec.enumerate_atoms()
        assert len(atoms) == spec.atom_count()
        for _ in range(50):
            r = rng.standard_normal(spec.dimension)
            value = float(np.dot(r, spec.lmo(r).point))
            best = min(float(np.dot(r, a.point)) for a in atoms)
            assert abs(value - best) <= 1e-12


def test_base_polytope_enumerated_once():
    calls = []

    def counted(s):
        calls.append(s)
        return float(min(len(s), 2))

    spec = BasePolytope(4, counted)
    calls.clear()
    atoms = spec.enumerate_atoms()
    assert len(atoms) == spec.atom_count()
    assert len(calls) == 24 * 4  # one greedy pass per ordering


def test_enumeration_cap_enforced():
    with pytest.raises(EnumerationError):
        Cube(15).enumerate_atoms()
    assert math.factorial(8) > ENUMERATION_CAP  # the greedy orderings of a base polytope
    with pytest.raises(EnumerationError, match="too many greedy orderings"):
        BasePolytope(8, cardinality_cap(3.0)).enumerate_atoms()


def test_direct_enumeration_checks_the_cap_before_building_atoms():
    """Called directly, the closed-form specs refuse at once instead of building 20,001+ atoms."""
    for spec in (Simplex(20_001), L1Ball(10_001, 1.0), FlowDag(_layered_arcs(5, 7))):
        assert spec.atom_count() > ENUMERATION_CAP
        with pytest.raises(EnumerationError):
            spec.enumerate_atoms()


def test_polytope_diameter_above_the_cap_raises_enumeration_error():
    with pytest.raises(EnumerationError):
        polytope_diameter(FlowDag(_layered_arcs(5, 7)))


def test_enumeration_interns_atoms_keeping_the_first():
    """A repeated row and a -0.0 copy share one id; the first atom built for it is returned."""
    one, minus_zero = [1.0, 0.0], [1.0, -0.0]
    for rows in ([one, [0.0, 1.0], one, minus_zero], [minus_zero, [0.0, 1.0], one, one]):
        spec = VertexList(rows)
        atoms = spec.enumerate_atoms()
        assert spec.atom_count() == 4
        assert [a.id for a in atoms] == [Atom(one).id, Atom([0.0, 1.0]).id]
        assert atoms[0] is spec.lmo([-1.0, 0.0])  # row 0's prebuilt atom
        assert atoms[0].point.tobytes() == np.array(rows[0]).tobytes()


def test_lmo_zero_direction_returns_valid_atom():
    for spec in (Simplex(4), Cube(3), L1Ball(3, 1.0)):
        atom = spec.lmo(np.zeros(spec.dimension))
        ids = {a.id for a in spec.enumerate_atoms()}
        assert atom.id in ids


def test_lmo_rejects_nonfinite():
    with pytest.raises(ValueError):
        Simplex(3).lmo([np.nan, 0.0, 1.0])


def _one_spec_of_each_type():
    return {
        "simplex": Simplex(4),
        "l1ball": L1Ball(4, 1.5),
        "cube": Cube(4),
        "vertices": VertexList(np.random.default_rng(112).standard_normal((6, 4))),
        "flowdag": _diamond_dag(),
        "basepoly": BasePolytope(4, cardinality_cap(2.0)),
    }


@pytest.mark.parametrize("bad", ["nan", "+inf", "-inf", "shape"])
@pytest.mark.parametrize("name", sorted(_one_spec_of_each_type()))
def test_public_lmo_checks_its_direction(name, bad):
    """``spec.lmo`` is the checked entry; only the solver skips the check."""
    spec = _one_spec_of_each_type()[name]
    r = np.zeros(spec.dimension + (bad == "shape"))
    if bad != "shape":
        r[1] = float(bad)
    with pytest.raises(ValueError, match="shape" if bad == "shape" else "finite"):
        spec.lmo(r)
    with pytest.raises(ValueError):
        spec.lmo(r.tolist())


def test_vertexlist_rejects_nonfinite_atoms():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            VertexList([[0.0, 1.0], [bad, 0.0]])


def test_vertexlist_rejects_a_matrix_that_is_not_2d_or_has_no_rows():
    for atoms in ([0.0, 1.0], np.zeros((0, 3)), []):
        with pytest.raises(ValueError, match="2-d with at least one row"):
            VertexList(atoms)


def test_base_polytope_with_a_callable_has_no_json_form():
    with pytest.raises(ValueError, match="no JSON form"):
        BasePolytope(3, cardinality_cap(2.0)).to_json()


def test_spec_from_json_rejects_an_unknown_submodular_family():
    doc = {"variant": "basepoly", "n": 3, "function": {"kind": "modular", "cap": 2}}
    with pytest.raises(ValueError, match="unknown submodular family 'modular'"):
        spec_from_json(doc)


def test_vertexlist_returns_its_prebuilt_atoms():
    spec = VertexList([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -0.0, 1.0]])
    first = spec.lmo([-1.0, 0.0, 0.0])
    assert spec.lmo([-5.0, 1.0, 2.0]) is first
    assert spec.enumerate_atoms()[0] is first
    assert spec.lmo([0.0, 0.0, -1.0]).id == Atom([0.0, 0.0, 1.0]).id
    with pytest.raises(ValueError):
        spec.matrix[0, 0] = 2.0  # would leave the prebuilt atoms stale


def test_lmo_scale_equivariant():
    rng = np.random.default_rng(107)
    for spec in (Simplex(6), Cube(5), L1Ball(4, 2.0), _diamond_dag()):
        for _ in range(25):
            r = rng.standard_normal(spec.dimension)
            a = spec.lmo(r)
            for c in (0.5, 3.0, 1e6):
                assert spec.lmo(c * r).id == a.id


def test_vertexlist_from_csv():
    spec = VertexList.read_csv(io.StringIO("0.0,1.0\n1.0,0.0\n0.5,-0.5\n"))
    assert spec.atom_count() == 3
    assert spec.dimension == 2
    assert np.array_equal(spec.lmo([0.0, 1.0]).point, [0.5, -0.5])


def test_spec_json_roundtrip():
    specs = [
        Simplex(4),
        Cube(3),
        L1Ball(5, 7.5),
        VertexList([[0.0, 1.0], [1.0, 0.0]]),
        _diamond_dag(),
    ]
    rng = np.random.default_rng(108)
    for spec in specs:
        back = spec_from_json(spec.to_json())
        assert back.dimension == spec.dimension
        for _ in range(10):
            r = rng.standard_normal(spec.dimension)
            assert np.array_equal(back.lmo(r).point, spec.lmo(r).point)


_REQUIRED_SPEC_KEYS = [
    ({"variant": "simplex", "dimension": 3}, [("dimension",)]),
    ({"variant": "l1ball", "dimension": 3, "radius": 2.0}, [("dimension",), ("radius",)]),
    ({"variant": "cube", "dimension": 3}, [("dimension",)]),
    ({"variant": "vertices", "atoms": [[0.0, 1.0]]}, [("atoms",)]),
    ({"variant": "flowdag", "arcs": ["s t"]}, [("arcs",)]),
    ({"variant": "basepoly", "n": 3, "function": {"kind": "cardinality_cap", "cap": 2}},
     [("n",), ("function",), ("function", "kind"), ("function", "cap")]),
    ({"variant": "basepoly", "n": 3, "function": {"kind": "concave_cardinality",
                                                   "values": [0, 1, 1.5, 1.8]}},
     [("function", "values")]),
]


@pytest.mark.parametrize("doc, paths", _REQUIRED_SPEC_KEYS)
def test_spec_from_json_names_a_missing_or_mistyped_key(doc, paths):
    spec_from_json(doc)  # the full document parses
    for path in paths:
        for bad in (None, True, 3 if path[-1] == "kind" else "3"):  # None drops the key
            broken = json.loads(json.dumps(doc))
            parent = broken if len(path) == 1 else broken[path[0]]
            if bad is None:
                del parent[path[-1]]
            else:
                parent[path[-1]] = bad
            with pytest.raises(ValueError, match=f"{doc['variant']} spec .*'{path[-1]}'"):
                spec_from_json(broken)


def _concave(n, values):
    return {"variant": "basepoly", "n": n,
            "function": {"kind": "concave_cardinality", "values": values}}


@pytest.mark.parametrize("doc, key", [
    ({"variant": "flowdag", "arcs": [1]}, "arcs"),
    ({"variant": "flowdag", "arcs": [["s", "a", "b"]]}, "arcs"),
    ({"variant": "flowdag", "arcs": ["s t", "t u v"]}, "arcs"),
    (_concave(1, [[0], [1]]), "values"),
    (_concave(3, []), "values"),
    (_concave(5, [0, 1, 2]), "values"),
    ({"variant": "flowdag", "arcs": [[1, 2], [2, 3], [1, 3]], "source": True}, "source"),
    ({"variant": "flowdag", "arcs": [[1, 2], [2, 3], [1, 3]], "sink": False}, "sink"),
])
def test_spec_from_json_checks_list_entries(doc, key):
    """Arcs are [tail, head] pairs or "tail head" strings, a source or sink is no bool, and
    values are n + 1 numbers."""
    with pytest.raises(ValueError, match=f"{doc['variant']} spec .*'{key}'"):
        spec_from_json(doc)


def test_flowdag_spec_takes_integer_source_and_sink():
    """Integer ends are names, as integer arc ends are: the spec writes them back as strings."""
    doc = {"variant": "flowdag", "arcs": [[1, 2], [2, 3], [1, 3]], "source": 1}
    spec = spec_from_json(doc)
    assert (spec.source, spec.sink, spec.atom_count()) == ("1", "3", 2)
    assert spec_from_json({**doc, "sink": 3}).to_json() == spec.to_json()
    assert spec.to_json()["arcs"] == [["1", "2"], ["2", "3"], ["1", "3"]]


def test_simplex_requires_positive_dimension():
    """A dimension (BasePolytope's n) is an integer of at least 1; a float or a bool is not one."""
    cap = cardinality_cap(1.0)
    for bad in (0, -1, 2.7, 3.0, True, "3", None):
        for make in (Simplex, Cube, lambda d: L1Ball(d, 1.0), lambda d: BasePolytope(d, cap)):
            with pytest.raises(ValueError, match="positive integer"):
                make(bad)
    assert Simplex(np.int64(4)).dimension == L1Ball(np.int64(4), 1.0).dimension == 4
    assert type(Cube(np.int64(3)).dimension) is int


def test_l1ball_requires_positive_radius():
    with pytest.raises(ValueError):
        L1Ball(3, 0.0)


def test_l1ball_rejects_infinite_radius():
    for radius in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            L1Ball(3, radius)


def test_flowdag_lmo_rejects_overflowing_path_cost():
    for r in ([1e308] * 4, [-1e308] * 4):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            _diamond_dag().lmo(r)


def test_flowdag_lmo_overflow_on_some_paths_only():
    # a->b->d sums to +inf; a->c->d costs -1 and is the true minimiser
    with np.errstate(over="ignore"):
        point = _diamond_dag().lmo([1e308, 1e308, -1.0, 0.0]).point
    assert np.array_equal(point, [0.0, 0.0, 1.0, 1.0])


def test_flowdag_lmo_minus_inf_through_inner_node_is_not_hidden():
    # s->a->b->t sums to -inf.  Dropping the non-finite node a would
    # return s->t (cost 5), which is not the minimiser.
    spec = FlowDag([("s", "a"), ("a", "b"), ("b", "t"), ("s", "t")])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        spec.lmo([0.0, -1e308, -1e308, 5.0])


def _layered_arcs(width, layers):
    """Arc list of a source, ``layers`` full bipartite layers of ``width`` nodes, and a sink."""
    arcs = [("s", f"n0_{j}") for j in range(width)]
    for layer in range(layers - 1):
        arcs += [(f"n{layer}_{i}", f"n{layer + 1}_{j}") for i in range(width) for j in range(width)]
    arcs += [(f"n{layers - 1}_{j}", "t") for j in range(width)]
    return arcs


def test_flowdag_json_roundtrip_rebuilds_compiled_levels():
    dag = FlowDag(_layered_arcs(5, 16))  # the flow_paths benchmark DAG, 385 arcs
    back = spec_from_json(json.loads(json.dumps(dag.to_json())))
    assert back.dimension == dag.dimension == 385
    assert np.array_equal(back._arc_order, dag._arc_order)
    assert len(back._levels) == len(dag._levels) == 17
    for ours, theirs in zip(back._levels, dag._levels):
        assert ours[:2] == theirs[:2]
        assert all(np.array_equal(a, b) for a, b in zip(ours[2:], theirs[2:]))
    rng = np.random.default_rng(109)
    for _ in range(40):
        for r in (rng.standard_normal(385), rng.integers(-2, 3, 385).astype(float)):
            assert back.lmo(r).id == dag.lmo(r).id
            assert np.array_equal(back.lmo(r).point, ref.flowdag_lmo_reference(dag, r))


# -- property tests: every fixed-structure LMO against its reference ----------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Directions are drawn from a small palette of entries, so exact ties are
# common, with signed zeros, or as continuous draws, either way scaled by
# a power of ten from 1e-300 to 1e150; no path of the DAGs below can
# overflow at 1e150.
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
_SCALE = st.sampled_from([1e-300, 1e-150, 1e-20, 1.0, 3.0, 1e20, 1e150])


def _directions(n):
    def build(scale, palette, continuous, seed):
        rng = np.random.default_rng(seed)
        if continuous:
            return scale * rng.standard_normal(n)
        return scale * np.array(palette)[rng.integers(len(palette), size=n)]

    palettes = st.lists(_ENTRY, min_size=1, max_size=6)
    return st.builds(build, _SCALE, palettes, st.booleans(), st.integers(0, 2**32 - 1))


@st.composite
def _random_dags(draw, max_width=5, max_layers=8):
    """Random layered DAG: 1-8 layers of width 1-5, random arcs, parallel and skip arcs, shuffled."""
    widths = draw(st.lists(st.integers(1, max_width), min_size=1, max_size=max_layers))
    layers = [["s"]] + [[f"n{k}_{j}" for j in range(w)] for k, w in enumerate(widths)] + [["t"]]
    arcs = []
    for k in range(len(layers) - 1):
        nxt = layers[k + 1]
        fed = set()
        for u in layers[k]:
            mask = draw(st.integers(1, 2 ** len(nxt) - 1))  # a nonempty set of heads
            heads = [v for j, v in enumerate(nxt) if mask >> j & 1]
            fed.update(heads)
            arcs += [(u, v) for v in heads]
        arcs += [(layers[k][0], v) for v in nxt if v not in fed]
        if draw(st.booleans()):
            arcs.append(arcs[-1])  # a parallel arc: an exact tie on equal entries
        if k + 2 < len(layers) and draw(st.booleans()):
            arcs.append((layers[k][-1], layers[k + 2][0]))  # an arc that skips a layer
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(arcs))
    return FlowDag([arcs[i] for i in order])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flowdag_lmo_matches_dict_reference_bit_for_bit(data):
    spec = data.draw(_random_dags())
    r = data.draw(_directions(spec.dimension))
    atom = spec.lmo(r)
    expected = ref.flowdag_lmo_reference(spec, r)
    assert atom.point.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_flowdag_lmo_matches_path_scan_on_integer_directions(data):
    spec = data.draw(_random_dags(max_width=3, max_layers=5))  # a few thousand paths at most
    entries = st.lists(st.integers(-3, 3), min_size=spec.dimension, max_size=spec.dimension)
    r = np.array(data.draw(entries), dtype=np.float64)
    if data.draw(st.booleans()):
        r = np.where(r == 0, -0.0, r)
    assert spec.lmo(r).point.tobytes() == ref.flowdag_scan_lmo(spec, r).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_flowdag_enumerates_the_reference_paths_in_order(data):
    """The compiled walk yields the arc-list DFS order, which ``pwidth`` witnesses index into."""
    spec = data.draw(_random_dags(max_width=3, max_layers=5))
    paths = ref.flowdag_paths(spec)
    atoms = spec.enumerate_atoms()
    assert spec.atom_count() == len(atoms) == len(paths)
    for atom, path in zip(atoms, paths):
        assert np.flatnonzero(atom.point).tolist() == sorted(path)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_flowdag_rejects_a_cycle_a_dead_end_and_an_unreached_node(data):
    spec = data.draw(_random_dags(max_width=3, max_layers=5))
    u, v = spec.arcs[data.draw(st.integers(0, spec.dimension - 1))]
    for extra in ((v, u), (u, "dead_end"), ("unreached", v)):
        with pytest.raises(ValueError, match="no source-sink path"):
            FlowDag([*spec.arcs, extra], source="s", sink="t")


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.data())
def test_simplex_cube_l1ball_lmos_match_scan_references(n, data):
    r = data.draw(_directions(n))
    assert Simplex(n).lmo(r).point.tobytes() == ref.simplex_lmo(r).tobytes()
    assert Cube(n).lmo(r).point.tobytes() == ref.cube_lmo(r).tobytes()
    assert L1Ball(n, 2.5).lmo(r).point.tobytes() == ref.l1ball_lmo(r, 2.5).tobytes()


@st.composite
def _any_spec(draw):
    """A spec of any of the six types; VertexList rows are small integers, so exact ties occur."""
    kind = draw(st.sampled_from(["simplex", "l1ball", "cube", "vertices", "flowdag", "basepoly"]))
    if kind == "flowdag":
        return draw(_random_dags(max_width=3, max_layers=4))
    n = draw(st.integers(1, 6))
    if kind == "vertices":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return VertexList(rng.integers(-2, 3, size=(draw(st.integers(1, 8)), n)))
    if kind == "basepoly":
        return BasePolytope(n, cardinality_cap(draw(st.sampled_from([1.0, 2.0, 2.5]))))
    return {"simplex": Simplex(n), "l1ball": L1Ball(n, 2.5), "cube": Cube(n)}[kind]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_unchecked_lmo_atoms_match_checked_atoms(data):
    """The solver's path (``_lmo``) returns the public ``lmo``'s atom, canonical and read-only."""
    spec = data.draw(_any_spec())
    r = data.draw(_directions(spec.dimension))
    atom = spec._lmo(r)
    assert atom.id == Atom(atom.point).id
    assert not atom.point.flags.writeable
    public = spec.lmo(r)
    assert public.id == atom.id and public.point.tobytes() == atom.point.tobytes()
    if isinstance(spec, (VertexList, Simplex, L1Ball)):  # one Atom per answer, built once
        assert public is atom and spec._lmo(r.copy()) is atom


@pytest.mark.parametrize("spec, reference", [
    (Simplex(6), ref.simplex_lmo), (L1Ball(6, 2.5), lambda r: ref.l1ball_lmo(r, 2.5)),
], ids=["simplex", "l1ball"])
def test_simplex_and_l1ball_memo_holds_at_most_one_atom_per_answer(spec, reference):
    """Many directions fill the memo with at most d (l1 ball: 2d) atoms, each the one the
    scan reference gives; enumeration builds its own atoms and leaves the memo as it was."""
    rng = np.random.default_rng(7)
    seen = {}
    for _ in range(2000):
        r = rng.standard_normal(6) * rng.integers(0, 2, size=6)  # zeros too, for ties
        atom = spec._lmo(r)
        assert atom.point.tobytes() == reference(r).tobytes()
        assert seen.setdefault(atom.id, atom) is atom
        assert len(spec._memo) == len(seen) <= spec.atom_count()
    assert len(seen) == spec.atom_count()  # every atom was an answer
    memo = dict(spec._memo)
    assert not any(a is b for a in spec.enumerate_atoms() for b in memo.values())
    assert spec._memo == memo
