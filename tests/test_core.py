"""Active-set bookkeeping: step operations, classification, trace IO."""

import dataclasses
import json

import numpy as np
import pytest

from polyfw.core import (
    WEIGHT_FLOOR,
    Atom,
    ActiveIterate,
    RunTrace,
    StepKind,
    StepRecord,
    apply_away_step,
    apply_fw_step,
    apply_pairwise_step,
    atom_key,
)

V1 = Atom(np.array([1.0, 0.0, 0.0]))
V2 = Atom(np.array([0.0, 1.0, 0.0]))
V3 = Atom(np.array([0.0, 0.0, 1.0]))


def weights_of(it):
    return {k: w for k, w in it.weights.items()}


def test_atom_key_folds_signed_zero():
    a = atom_key(np.array([0.0, 1.0]))
    b = atom_key(np.array([-0.0, 1.0]))
    assert a == b


def test_atom_identity_stable():
    p = np.array([0.25, 0.75])
    assert Atom(p).id == Atom(p.copy()).id


def test_from_weights_rejects_negative():
    with pytest.raises(ValueError):
        ActiveIterate.from_weights({V1: -0.1, V2: 1.1})


def test_from_weights_rejects_bad_sum():
    with pytest.raises(ValueError):
        ActiveIterate.from_weights({V1: 0.4, V2: 0.4})


def test_from_weights_rejects_nan_weight():
    for pairs in ({V1: np.nan, V2: 1.0}, {V1: 1.0, V2: float("nan")}):
        with pytest.raises(ValueError, match="nonnegative"):
            ActiveIterate.from_weights(pairs)


def test_from_weights_drops_sub_floor_weights_and_needs_a_positive_one():
    it = ActiveIterate.from_weights({V1: 1.0, V2: 0.5 * WEIGHT_FLOOR})
    assert it.ids == (V1.id,) and it.w.tolist() == [1.0]
    with pytest.raises(ValueError, match="positive weight"):
        ActiveIterate.from_weights({V1: 0.0, V2: 0.5 * WEIGHT_FLOOR})


def test_iterate_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="one entry per atom"):
        ActiveIterate((V1.id,), np.stack([V1.point, V2.point]), [1.0])
    with pytest.raises(ValueError, match="one entry per atom"):
        ActiveIterate((V1.id, V2.id), np.stack([V1.point, V2.point]), [1.0])


def test_check_catches_a_weight_bound_above_the_smallest_weight():
    it = ActiveIterate.from_weights({V1: 0.25, V2: 0.75})
    it.check()
    it._w_low = 0.5
    with pytest.raises(AssertionError, match="weight bound"):
        it.check()


def test_steps_reject_bad_arguments():
    from polyfw.core import DegenerateDirectionError

    it = ActiveIterate.from_weights({V1: 0.25, V2: 0.75})
    for gamma in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="outside"):
            apply_fw_step(it, V3, gamma)
    with pytest.raises(ValueError, match="away atom is not active"):
        apply_away_step(it, V3.id, 0.1)
    with pytest.raises(ValueError, match="outside"):
        apply_away_step(it, V1.id, 0.5)  # gamma_max = 1/3
    with pytest.raises(ValueError, match="source atom is not active"):
        apply_pairwise_step(it, V3.id, V1, 0.1)
    with pytest.raises(DegenerateDirectionError):
        apply_pairwise_step(it, V1.id, V1, 0.1)
    with pytest.raises(ValueError, match="outside"):
        apply_pairwise_step(it, V1.id, V3, 0.3)  # gamma_max = 0.25


def test_step_record_rejects_a_malformed_row():
    with pytest.raises(ValueError, match="malformed"):
        StepRecord.from_csv_row("0,FW,0.5,1.0,0.1,0.0,2.0")


def test_fw_step_full_collapses_active_set():
    it = ActiveIterate.from_atom(V1)
    out = apply_fw_step(it, V2, 1.0)
    assert weights_of(out) == {V2.id: 1.0}
    assert np.array_equal(out.x, V2.point)


def test_fw_step_quarter():
    it = ActiveIterate.from_atom(V1)
    out = apply_fw_step(it, V2, 0.25)
    assert weights_of(out) == {V1.id: 0.75, V2.id: 0.25}


def test_fw_step_onto_active_atom():
    it = ActiveIterate.from_weights({V1: 0.5, V2: 0.5})
    out = apply_fw_step(it, V2, 0.5)
    assert weights_of(out) == {V1.id: 0.25, V2.id: 0.75}


def test_fw_step_zero_is_identity():
    it = ActiveIterate.from_weights({V1: 0.5, V2: 0.5})
    out = apply_fw_step(it, V2, 0.0)
    assert weights_of(out) == weights_of(it)
    assert np.allclose(out.x, it.x)


def test_away_step_drop_is_exact():
    it = ActiveIterate.from_weights({V1: 0.2, V2: 0.8})
    out, dropped = apply_away_step(it, V1.id, 0.25)
    assert dropped
    assert weights_of(out) == {V2.id: 1.0}
    assert V1.id not in out.weights


def test_away_step_interior():
    it = ActiveIterate.from_weights({V1: 0.5, V2: 0.5})
    out, dropped = apply_away_step(it, V1.id, 0.5)
    assert not dropped
    assert weights_of(out) == pytest.approx({V1.id: 0.25, V2.id: 0.75})


def test_away_step_zero_is_identity():
    it = ActiveIterate.from_weights({V1: 0.2, V2: 0.8})
    out, dropped = apply_away_step(it, V1.id, 0.0)
    assert not dropped
    assert weights_of(out) == pytest.approx(weights_of(it))


def test_away_step_rejects_gamma_past_its_limit():
    it = ActiveIterate.from_weights({V1: 0.2, V2: 0.8})  # limit 0.2/0.8 = 0.25
    for gamma in (0.25 * (1.0 + 1e-11), 0.3, -1e-3):
        with pytest.raises(ValueError, match="outside"):
            apply_away_step(it, V1.id, gamma)
    out, dropped = apply_away_step(it, V1.id, 0.25 * (1.0 + 1e-13))  # within rounding: a drop
    assert dropped and weights_of(out) == {V2.id: 1.0}


def test_pairwise_swap():
    it = ActiveIterate.from_weights({V1: 0.3, V2: 0.7})
    out, kind = apply_pairwise_step(it, V1.id, V3, 0.3)
    assert kind is StepKind.SWAP
    assert weights_of(out) == pytest.approx({V2.id: 0.7, V3.id: 0.3})


def test_pairwise_drop():
    it = ActiveIterate.from_weights({V1: 0.3, V2: 0.7})
    out, kind = apply_pairwise_step(it, V1.id, V2, 0.3)
    assert kind is StepKind.DROP
    assert weights_of(out) == {V2.id: 1.0}


def test_pairwise_interior():
    it = ActiveIterate.from_weights({V1: 0.3, V2: 0.7})
    out, kind = apply_pairwise_step(it, V1.id, V3, 0.1)
    assert kind is StepKind.PAIRWISE
    assert weights_of(out) == pytest.approx(
        {V1.id: 0.2, V2.id: 0.7, V3.id: 0.1}
    )
    # untouched entry is conserved exactly, not approximately
    assert out.weights[V2.id] == it.weights[V2.id]


def test_pairwise_sub_floor_gamma_is_a_noop():
    it = ActiveIterate.from_weights({V1: 0.5, V2: 0.5})
    for gamma in (1.4e-45, 1e-20, WEIGHT_FLOOR):
        out, kind = apply_pairwise_step(it, V1.id, V3, gamma)  # V3 is a new atom
        assert kind is StepKind.PAIRWISE
        assert all(w > WEIGHT_FLOOR for w in out.weights.values())
        assert out.weights == it.weights  # bit for bit
        assert np.array_equal(out.x, it.x)
        out.check()


def test_random_step_sequences_keep_invariants():
    rng = np.random.default_rng(42)
    atoms = [Atom(np.eye(4)[i]) for i in range(4)]
    for _ in range(20):
        it = ActiveIterate.from_atom(atoms[0])
        for _ in range(150):
            active = list(it.weights)
            op = rng.integers(3)
            if op == 0:
                s = atoms[rng.integers(len(atoms))]
                it = apply_fw_step(it, s, float(rng.uniform(0, 0.9)))
            elif op == 1 and len(active) > 1:
                v = active[rng.integers(len(active))]
                alpha = it.weights[v]
                gmax = alpha / (1.0 - alpha)
                it, _ = apply_away_step(it, v, float(rng.uniform(0, 1)) * gmax)
            elif len(active) >= 1:
                v = active[rng.integers(len(active))]
                s = atoms[rng.integers(len(atoms))]
                if s.id == v:
                    continue
                gmax = it.weights[v]
                it, _ = apply_pairwise_step(
                    it, v, s, float(rng.uniform(0, 1)) * gmax
                )
            total = sum(it.weights.values())
            assert abs(total - 1.0) <= 1e-12
            assert all(w > 0 for w in it.weights.values())
            assert it.drift() <= 1e-9


def test_step_record_csv_roundtrip():
    rec = StepRecord(
        iteration=7,
        kind=StepKind.AWAY,
        gamma=0.125,
        gamma_max=1.0 / 3.0,
        fw_gap=1e-7,
        away_gap=2.5e-7,
        f_value=0.1234567890123456789,
        active_size=3,
    )
    back = StepRecord.from_csv_row(ref.step_record_csv_row(rec))
    assert back == rec


def test_run_trace_csv_roundtrip(tmp_path):
    records = [
        StepRecord(0, StepKind.FW, 0.5, 1.0, 1.0, 0.5, 2.0, 1),
        StepRecord(1, StepKind.DROP, 0.25, 0.25, 0.5, 0.75, 1.5, 1),
    ]
    trace = RunTrace(records=records, config_echo={"variant": "AFW", "epsilon": 1e-8})
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    text = path.read_text()
    assert text.startswith("# ")
    header = json.loads(text.splitlines()[0][2:])
    assert header["variant"] == "AFW"
    back = RunTrace.read_csv(path)
    assert back.records == records
    assert back.config_echo == trace.config_echo


def test_run_trace_validate_flags_non_shrinking_drop():
    records = [StepRecord(0, StepKind.DROP, 0.1, 0.1, 1.0, 1.0, 1.0, 1)]
    trace = RunTrace(records=records, config_echo={})
    with pytest.raises(AssertionError):
        trace.validate(initial_active_size=1)


def test_run_trace_validate_flags_objective_increase():
    records = [
        StepRecord(0, StepKind.FW, 0.5, 1.0, 1.0, 0.0, 1.0, 2),
        StepRecord(1, StepKind.FW, 0.5, 1.0, 0.9, 0.0, 2.0, 2),
    ]
    trace = RunTrace(records=records, config_echo={})
    with pytest.raises(AssertionError):
        trace.validate(initial_active_size=1)


def test_run_trace_step_counts():
    records = [
        StepRecord(0, StepKind.FW, 0.5, 1.0, 1.0, 0.0, 2.0, 1),
        StepRecord(1, StepKind.FW, 0.5, 1.0, 0.9, 0.0, 1.8, 2),
        StepRecord(2, StepKind.AWAY, 0.1, 0.5, 0.8, 0.4, 1.7, 2),
    ]
    trace = RunTrace(records=records)
    assert trace.step_counts() == {"FW": 2, "AWAY": 1}


# -- property tests against the dict-based reference model --------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles as ref  # noqa: E402
from polyfw.core import DRIFT_LIMIT, GAMMA_SNAP, WEIGHT_SUM_TOL, FullWeightAwayError  # noqa: E402

POOL = [Atom(p) for p in np.vstack([np.eye(3), [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]])]

OPS = st.lists(
    st.tuples(
        st.sampled_from(["fw", "away", "pairwise"]),
        st.integers(0, len(POOL) - 1),  # atom pick
        st.integers(0, 10),  # active atom pick
        st.one_of(st.just(1.0), st.floats(0.0, 0.999)),  # gamma as a share of its cap
    ),
    max_size=40,
)


def _assert_matches(it, expected):
    assert set(it.weights) == set(expected)
    for k, w in it.weights.items():
        assert w == pytest.approx(expected[k], rel=1e-12, abs=1e-15)
    assert all(w > 0.0 for w in it.weights.values())
    assert abs(sum(it.weights.values()) - 1.0) <= WEIGHT_SUM_TOL
    assert it.drift() <= DRIFT_LIMIT
    it.check()


@settings(max_examples=150, deadline=None)
@given(start=st.integers(0, len(POOL) - 1), ops=OPS)
def test_step_primitives_match_reference_model(start, ops):
    it = ActiveIterate.from_atom(POOL[start])
    expected = {POOL[start].id: 1.0}
    for op, pick, active_pick, share in ops:
        s = POOL[pick]
        active = list(it.weights)
        v = active[active_pick % len(active)]
        if op == "fw":
            it = apply_fw_step(it, s, share)
            expected = ref.ref_fw_step(expected, s.id, share)
        elif op == "away":
            alpha = it.weights[v]
            if len(active) == 1 or alpha >= 1.0:
                with pytest.raises(FullWeightAwayError):
                    apply_away_step(it, v, 0.0)
                continue
            gmax = alpha / (1.0 - alpha)
            gamma = share * gmax
            it, dropped = apply_away_step(it, v, gamma)
            expected, ref_dropped = ref.ref_away_step(expected, v, gamma)
            assert dropped is ref_dropped is (gmax - gamma <= GAMMA_SNAP * max(1.0, gmax))
            assert (v in it.weights) is not dropped
        else:
            if s.id == v:
                continue
            before = it.weights
            gamma = share * before[v]
            it, kind = apply_pairwise_step(it, v, s, gamma)
            expected, ref_kind = ref.ref_pairwise_step(expected, v, s.id, gamma)
            assert kind.value == ref_kind
            if before[v] - gamma <= GAMMA_SNAP:  # v's weight is used up
                assert kind is (StepKind.DROP if s.id in before else StepKind.SWAP)
                assert v not in it.weights
            else:
                assert kind is StepKind.PAIRWISE
            untouched = set(before) - {v, s.id}
            assert all(it.weights[k] == before[k] for k in untouched)  # bit for bit
        _assert_matches(it, expected)


# 18 distinct integer atoms in R^5, so stores outgrow twice the active set and compact.
WIDE_POOL = [Atom(p) for p in np.unique(
    np.random.default_rng(39).integers(-2, 3, size=(18, 5)).astype(np.float64), axis=0)]
NEAR_ONE = (1.0, 1.0 - 1e-15, 1.0 - 1e-13, 1.0 - 1e-11, 0.999999)  # scale weights to the floor
BRANCHING_OPS = st.lists(
    st.tuples(
        st.sampled_from(["fw", "fw", "away", "pairwise"]),
        st.integers(0, len(WIDE_POOL) - 1),  # atom pick
        st.integers(0, 20),  # active atom pick
        st.one_of(st.sampled_from(NEAR_ONE), st.floats(0.0, 1.0)),  # gamma as a share of its cap
        st.booleans(),  # step the previous iterate instead of the latest: a sibling
        st.booleans(),  # hand the step its direction
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(start=st.integers(0, len(WIDE_POOL) - 1), ops=BRANCHING_OPS)
def test_steps_match_the_scanning_bookkeeping_bit_for_bit(start, ops):
    """Random FW, away and pairwise steps, with gammas that push weights to the floor, drops,
    swaps and siblings stepped from one iterate, give the ids, weight bits and x bits of
    ``ScanIterate``, which scans for every position and tests the exact smallest weight at
    every step.  Each iterate's weight bound stays at or below its smallest weight, a
    pairwise step leaves its new atom's position as the store's hint, and ``index`` agrees
    with a scan of its ids for every atom of the pool, active or not."""
    first = WIDE_POOL[start]
    history = [(ActiveIterate.from_atom(first), ref.ScanIterate.from_atom(first.id, first.point))]
    for op, pick, active_pick, share, sibling, pass_dir in ops:
        it, expected = history[-2] if sibling and len(history) > 1 else history[-1]
        s = WIDE_POOL[pick]
        j = active_pick % len(it)
        v = it.ids[j]
        if op == "fw":
            it = apply_fw_step(it, s, share, s.point - it.x if pass_dir else None)
            expected = expected.fw(s.id, s.point, share)
        elif op == "away":
            alpha = float(it.w[j])
            if len(it) == 1 or alpha >= 1.0:
                continue
            gamma = min(share * (alpha / (1.0 - alpha)), alpha / (1.0 - alpha))
            it, dropped = apply_away_step(it, v, gamma, it.x - it._point(j) if pass_dir else None)
            expected, ref_dropped = expected.away(v, gamma)
            assert dropped is ref_dropped
        else:
            if s.id == v:
                continue
            gamma = share * float(it.w[j])
            new = s.id not in it.ids
            it, kind = apply_pairwise_step(
                it, v, s, gamma, s.point - it._point(j) if pass_dir else None
            )
            expected, ref_kind = expected.pairwise(v, s.id, s.point, gamma)
            assert kind.value == ref_kind
            if new and s.id in it.ids:  # its hint is its last place, also after a swap's drop
                assert it._store.at[s.id] == len(it) - 1 and it.ids[-1] == s.id
        assert it.ids == tuple(expected.ids)
        assert it.w.tobytes() == expected.w.tobytes()
        assert it.x.tobytes() == expected.x.tobytes()
        assert it._w_low <= min(it.w.tolist())
        for atom in WIDE_POOL:
            assert it.index(atom.id) == expected.index(atom.id)
        it.check()
        history.append((it, expected))


# -- the columnar trace against the record-by-record reference ----------------

from hypothesis import example  # noqa: E402

from polyfw.core import CSV_COLUMNS  # noqa: E402

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e300, -1e300, 1.0 / 3.0)
CELL_FLOATS = st.one_of(st.floats(-1e300, 1e300), st.sampled_from(EDGE_FLOATS))
CELL_INTS = st.integers(0, 10**6)
RECORD = st.builds(
    StepRecord,
    st.one_of(CELL_INTS, CELL_INTS.map(np.int64)),
    st.sampled_from(list(StepKind)),
    *[st.one_of(CELL_FLOATS, CELL_FLOATS.map(np.float64)) for _ in range(5)],
    st.one_of(st.integers(1, 5), st.integers(1, 5).map(np.int64)),
)
EVERY_KIND = [
    StepRecord(np.int64(t), kind, -0.0, 5e-324, np.float64(1e300), -1e300, 1e-310, np.int64(2))
    for t, kind in enumerate(StepKind)
]

# One FW step grows the set to 5, then drops shrink it: the prefix bound breaks at t = 4.
DROP_RUN = [StepRecord(0, StepKind.FW, 0.5, 1.0, 1.0, 0.0, 4.0, 5)] + [
    StepRecord(t, StepKind.DROP, 0.5, 0.5, 1.0, 1.0, 4.0 - t, 5 - t) for t in range(1, 5)
]


def _outcome(check, *args):
    """The message ``check(*args)`` raises with, or None when it passes."""
    try:
        check(*args)
    except AssertionError as exc:
        return str(exc)
    return None


@settings(max_examples=200, deadline=None)
@example(records=EVERY_KIND, descending=True, init_size=3)
@example(records=DROP_RUN, descending=True, init_size=1)
@given(records=st.lists(RECORD, max_size=12), descending=st.booleans(), init_size=st.integers(1, 4))
def test_columnar_trace_matches_record_reference(records, descending, init_size):
    """CSV text, CSV round trip, step counts, f values and validate agree with per-record code.

    ``descending`` sorts the f values downward, so validate also runs
    past the first row and reaches its drop and swap checks.
    """
    if descending:
        fs = sorted((r.f_value for r in records), reverse=True)
        records = [dataclasses.replace(r, f_value=f) for r, f in zip(records, fs)]
    echo = {"variant": "PFW", "f0": 1.0}
    trace = RunTrace(records=records, config_echo=echo)
    text = trace.to_csv()
    rows = [ref.step_record_csv_row(r) for r in records]
    assert text == "\n".join(["# " + json.dumps(echo, sort_keys=True), CSV_COLUMNS, *rows]) + "\n"
    assert trace.records == records and len(trace.records) == len(records)

    back = RunTrace.from_csv(text)
    assert back.config_echo == echo
    assert back.records == records
    assert back.to_csv() == text
    for t in (trace, back):
        assert t.step_counts() == ref.trace_step_counts(records)
        assert t.f_values().tolist() == [float(r.f_value) for r in records]
        assert _outcome(t.validate, init_size) == _outcome(ref.trace_validate, records, init_size)


# -- the step path's products: ndarray.dot in place of @ ----------------------

import ast  # noqa: E402
import inspect  # noqa: E402
import textwrap  # noqa: E402

from polyfw import geometry, objectives, solvers  # noqa: E402
from polyfw.core import _AtomStore, _move  # noqa: E402
from polyfw.objectives import IdentityState, QuadraticState  # noqa: E402
from polyfw.oracles import VertexList  # noqa: E402


def _operands(seed, shape, scale):
    return np.random.default_rng(seed).standard_normal(shape) * 2.0 ** scale


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1), scale=st.integers(-30, 30))
def test_vector_dot_is_matmul_bit_for_bit(n, seed, scale):
    """The step path's premise: on 1-D float64 pairs ``a.dot(b)`` returns ``a @ b``'s bits.

    If a numpy or BLAS upgrade breaks this, recorded traces move.
    """
    a, b = _operands(seed, (2, n), scale)
    assert a.dot(b).tobytes() == (a @ b).tobytes()


def _generated_problem(name):
    """An objective, a spec and a start from each shipped generator: the triangle starts
    inside, and a FlowDag gets the distance to a mix of its paths."""
    from polyfw.bench import gen_lasso, gen_rankdef, gen_triangle
    from polyfw.objectives import QuadraticObjective
    from polyfw.oracles import FlowDag
    from test_oracles import _layered_arcs

    if name == "lasso":
        return (*gen_lasso(50, 120, 12, 0.1, 7, 4.8), None)
    if name == "triangle":
        obj, spec = gen_triangle(np.pi / 16)[:2]
        weights = np.random.default_rng(11).dirichlet(np.ones(3)).tolist()
        return obj, spec, ActiveIterate.from_weights(dict(zip(spec.enumerate_atoms(), weights)))
    if name == "rankdef":
        return (*gen_rankdef(40, 20, 7), None)
    dag = FlowDag(_layered_arcs(4, 8))
    rng = np.random.default_rng(11)
    paths = np.stack([dag.lmo(rng.standard_normal(dag.dimension)).point for _ in range(6)])
    return QuadraticObjective.distance_to(rng.dirichlet(np.ones(6)) @ paths), dag, None


@pytest.mark.parametrize("name", ["lasso", "triangle", "rankdef", "flowdag"])
def test_state_value_halves_the_product_bit_for_bit(name, monkeypatch):
    """``move_to`` halves x . Qx; its f has the bits of the former
    ``(0.5 * x).dot(Qx) + b.dot(x) + c`` at every point FW, AFW, PFW and MNP runs put the
    state on, on each shipped generator's problem."""
    obj, spec, x0 = _generated_problem(name)
    move_to, checked = QuadraticState.move_to, []

    def checking(self, x, Qx):
        move_to(self, x, Qx)
        expect = float((0.5 * x).dot(Qx)) + float(self.b.dot(x)) + self.c
        assert np.float64(self.value).tobytes() == np.float64(expect).tobytes()
        checked.append(None)

    monkeypatch.setattr(QuadraticState, "move_to", checking)
    for variant in ("FW", "AFW", "PFW", "MNP"):
        solvers.solve(obj, spec, solvers.SolverConfig(variant, epsilon=1e-10, max_iter=300), x0)
    assert len(checked) > 300


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 130), d=st.integers(1, 600), seed=st.integers(0, 2**32 - 1),
       scale=st.integers(-30, 30))
def test_store_rows_dot_is_matmul_bit_for_bit(k, d, seed, scale):
    """``atom_dots``' product: a row slice of an ``_AtomStore`` times a vector, as ``@`` gives it."""
    points = _operands(seed, (k + 1, d), scale)
    store = _AtomStore([bytes([i % 256, i // 256]) for i in range(k)], points[:k])
    rows, vec = store.rows[: store.size], points[k]
    assert rows.dot(vec).tobytes() == (rows @ vec).tobytes()


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 130), d=st.integers(1, 600), seed=st.integers(0, 2**32 - 1),
       scale=st.integers(-30, 30))
def test_vector_dot_rows_is_matmul_bit_for_bit(k, d, seed, scale):
    """``corral_move``'s product: a weight vector times the corral's rows, as ``@`` gives it."""
    points = _operands(seed, (k * (d + 1),), scale)
    rows, weights = points[: k * d].reshape(k, d), points[k * d :]
    assert weights.dot(rows).tobytes() == (weights @ rows).tobytes()


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1), scale=st.integers(-30, 30))
def test_sqrt_of_self_dot_is_norm_bit_for_bit(n, seed, scale):
    """``pwidth``'s distance: the square root of v . v has ``np.linalg.norm(v)``'s bits."""
    (v,) = _operands(seed, (1, n), scale)
    assert np.float64(np.sqrt(v.dot(v))).tobytes() == np.float64(np.linalg.norm(v)).tobytes()


def test_store_keeps_its_rows_and_doubles_on_the_first_append():
    """A new iterate's store is the rows it was given, made read-only; the first append
    doubles it, and the rows already there keep their positions and products."""
    points = np.random.default_rng(7).standard_normal((8, 5))
    it = ActiveIterate([atom_key(p) for p in points], points, np.full(8, 0.125))
    assert it._store.rows is points and not points.flags.writeable
    vec = np.random.default_rng(8).standard_normal(5)
    dots = it.atom_dots(vec).tobytes()
    nxt = apply_fw_step(it, Atom(np.ones(5)), 0.5)
    assert nxt._store.rows.shape == (16, 5)
    assert nxt.atom_dots(vec)[:8].tobytes() == dots == it.atom_dots(vec).tobytes()


def test_store_compacts_once_it_holds_twice_the_active_rows():
    """FW steps grow the shared store and away drops shrink the active set; once the store
    holds 2k + 8 rows or more for k active atoms, the next new atom moves the active rows to
    a fresh store of k + 1 rows.  The step is the one a fresh iterate of the same atoms takes,
    bit for bit, and the iterate it came from keeps its store."""
    atoms = [Atom(row) for row in np.eye(16)]
    it = ActiveIterate.from_atom(atoms[0])
    for atom in atoms[1:12]:
        it = apply_fw_step(it, atom, 0.5)
    while len(it) > 2:
        alpha = float(it.w[0])
        it, dropped = apply_away_step(it, it.ids[0], alpha / (1.0 - alpha))
        assert dropped
    store, k = it._store, len(it)
    assert store.size == 12 >= 2 * k + 8
    vec = np.random.default_rng(9).standard_normal(16)
    dots = it.atom_dots(vec).tobytes()
    nxt = apply_fw_step(it, atoms[12], 0.25)
    assert nxt._store is not store and nxt._store.size == k + 1
    assert nxt._rows.tolist() == list(range(k + 1))
    assert it._store is store and store.size == 12 and it.atom_dots(vec).tobytes() == dots
    ref = apply_fw_step(ActiveIterate(it.ids, it.matrix(), it.w, it.x), atoms[12], 0.25)
    assert nxt.ids == ref.ids == it.ids + (atoms[12].id,)
    for a, b in ((nxt.w, ref.w), (nxt.x, ref.x), (nxt.synthesize(), ref.synthesize())):
        assert a.tobytes() == b.tobytes()
    rebuilt = ActiveIterate(nxt.ids, nxt.matrix(), nxt.w)
    assert nxt.atom_dots(vec).tobytes() == rebuilt.atom_dots(vec).tobytes()
    nxt.check()


STEP_PATH = [
    solvers.solve, solvers.away_atom, solvers._line_search_step, QuadraticState.move_to,
    QuadraticState.line_search, QuadraticState.advance, IdentityState.line_search,
    IdentityState.advance, ActiveIterate.atom_dots, apply_fw_step, _move, VertexList._lmo,
]


CORRECTION_PATH = [
    solvers.fcfw_correction, solvers._wolfe_step, solvers._affine_minimizer,
    solvers.mnp_correction, QuadraticState.corral_with, QuadraticState._grow,
    QuadraticState.corral_keep, QuadraticState.corral_move, geometry._facial_pair,
    geometry.pwidth,
]


def _assert_no_matmul(func, path):
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    matmuls = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    assert not matmuls, (
        f"{func.__module__}.{func.__qualname__} uses @ (lines {matmuls} of its source): "
        f"products on the {path} use ndarray.dot, see the polyfw.core module docstring"
    )


@pytest.mark.parametrize("func", STEP_PATH, ids=lambda f: f.__qualname__)
def test_step_path_makes_no_matmul(func):
    """Keeps ``@`` and its ``np.matmul`` dispatch off the FW/AFW/PFW step path."""
    _assert_no_matmul(func, "step path")


def test_objectives_builds_no_dense_identity():
    """Q = I is held as the O(d) ``objectives._identity`` view: the module never builds a
    d x d identity with ``np.eye`` or ``np.identity``."""
    tree = ast.parse(inspect.getsource(objectives))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr in ("eye", "identity")]
    assert not calls, f"polyfw.objectives builds a dense identity at lines {calls}"


@pytest.mark.parametrize("func", CORRECTION_PATH, ids=lambda f: f.__qualname__)
def test_correction_path_makes_no_matmul(func):
    """Keeps ``@`` off Wolfe's cycle, FCFW's inner loop and ``pwidth``'s facial problems."""
    _assert_no_matmul(func, "correction path")


def _self_writes(method):
    """Lines of ``method`` that assign to, or delete, an attribute of ``self`` or a part of one."""
    lines = []
    for node in ast.walk(method):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and not isinstance(node.ctx, ast.Load):
            root, through_attribute = node, False
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                through_attribute |= isinstance(root, ast.Attribute)
                root = root.value
            if through_attribute and isinstance(root, ast.Name) and root.id == "self":
                lines.append(node.lineno)
    return lines


def test_active_iterate_writes_to_itself_only_in_init():
    """``ActiveIterate`` is value-like: once ``__init__`` has run, no method of it writes to
    ``self``, so an iterate that a step or a lookup has seen is the iterate it was."""
    probe = "def f(self, o):\n    self.a = 1\n    self.w += 1\n    self.x[0] = 2\n    o.b = self.c\n"
    assert _self_writes(ast.parse(probe).body[0]) == [2, 3, 4]  # the check sees each kind
    (cls,) = ast.parse(textwrap.dedent(inspect.getsource(ActiveIterate))).body
    writes = {f.name: _self_writes(f) for f in cls.body
              if isinstance(f, ast.FunctionDef) and f.name != "__init__"}
    assert not {name: lines for name, lines in writes.items() if lines}, (
        "ActiveIterate methods other than __init__ assign to self (lines of the class source)"
    )
