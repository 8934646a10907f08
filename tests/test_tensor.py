import itertools
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomnets import tensor as T
from geomnets.errors import ContractError, NumericError, ParseError, ShapeError
from geomnets.geometry import Conformation, pair_index, segment_plan


def grad_check(f, x, eps: float = 1e-6) -> float:
    """Max relative error between taped and central-difference gradients."""
    x0 = np.asarray(x, dtype=np.float64)
    flat = x0.reshape(-1)

    def run(tape):
        xt = tape.tensor(x0.copy())
        analytic = tape.gradient(f(xt), [xt], record=False)[0]
        probes = []
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] += eps
            hi = f(T.Tensor(bumped.reshape(x0.shape))).item()
            bumped[i] -= 2 * eps
            probes.append((hi, f(T.Tensor(bumped.reshape(x0.shape))).item()))
        return analytic, probes

    tape, (analytic, probes) = T.checked(run)
    tape.release()
    worst = 0.0
    for i, (hi, lo) in enumerate(probes):
        fd = (hi - lo) / (2 * eps)
        err = abs(analytic.data.reshape(-1)[i] - fd) / max(1.0, abs(fd))
        worst = max(worst, err)
    return worst


def _scalarize(op):
    """Wrap an elementwise op as a scalar function for grad_check."""
    return lambda x: T.sum_(op(x))


class TestForwardValues:
    def test_add_mul_basic(self):
        a = T.Tensor([1.0, 2.0])
        b = T.Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])
        assert np.allclose((a * b).data, [3.0, 8.0])
        assert np.allclose((a - b).data, [-2.0, -2.0])
        assert np.allclose((a / b).data, [1 / 3, 0.5])

    def test_matmul(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0], [6.0]])
        assert np.allclose((a @ b).data, [[17.0], [39.0]])

    def test_silu_at_zero_and_sign(self):
        x = T.Tensor([0.0, 10.0, -10.0])
        y = T.silu(x).data
        assert y[0] == 0.0
        assert y[1] == pytest.approx(10.0, abs=1e-3)
        assert abs(y[2]) < 1e-3

    def test_norm(self):
        v = T.Tensor([[3.0, 4.0]])
        assert T.norm(v, axis=-1).data == pytest.approx(5.0)

    def test_scatter_sum_values(self):
        vals = T.Tensor([[1.0], [2.0], [3.0]])
        out = T.scatter_sum(vals, [0, 1, 0], 2)
        assert np.allclose(out.data, [[4.0], [2.0]])

    def test_gather_rows(self):
        x = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(T.gather(x, [1, 1, 0]).data, [[3, 4], [3, 4], [1, 2]])

    def test_segment_softmax_sums_to_one(self):
        s = T.Tensor([0.3, -1.2, 2.0, 0.7, 0.7])
        seg = [0, 0, 0, 1, 1]
        p = T.segment_softmax(s, seg, 2).data
        assert p[:3].sum() == pytest.approx(1.0, abs=1e-14)
        assert p[3:].sum() == pytest.approx(1.0, abs=1e-14)
        assert p[3] == p[4]


rng = np.random.default_rng(7)

ELEMENTWISE = [
    ("silu", T.silu, rng.normal(size=(3, 4))),
    ("exp", T.exp, rng.normal(size=(4,))),
    ("log", T.log, rng.uniform(0.5, 3.0, size=(4,))),
    ("sin", T.sin, rng.normal(size=(4,))),
    ("cos", T.cos, rng.normal(size=(4,))),
    ("sigmoid", T.sigmoid, rng.normal(size=(4,))),
    ("silu_d1", T.silu_d1, rng.normal(size=(4,)) * 2.0),
    ("silu_d2", T.silu_d2, rng.normal(size=(4,)) * 2.0),
    ("power3", lambda t: T.power(t, 3.0), rng.normal(size=(4,))),
    ("sqrt", lambda t: T.power(t, 0.5), rng.uniform(0.5, 2.0, size=(4,))),
]


class TestGradCheck:
    @pytest.mark.parametrize("name,op,x0", ELEMENTWISE, ids=[e[0] for e in ELEMENTWISE])
    def test_elementwise_ops(self, name, op, x0):
        assert grad_check(_scalarize(op), x0) < 1e-6

    def test_binary_ops_with_broadcast(self):
        b = rng.normal(size=(4,))
        c = rng.uniform(0.5, 2.0, size=(3, 4))
        for op in (T.add, T.sub, T.mul, T.div):
            f = lambda x: T.sum_(T.mul(op(x, T.Tensor(b)), T.Tensor(c)))
            assert grad_check(f, rng.normal(size=(3, 4)) + 3.0) < 1e-6

    def test_matmul_grad(self):
        w = rng.normal(size=(4, 2))
        f = lambda x: T.sum_(T.matmul(x, T.Tensor(w)))
        assert grad_check(f, rng.normal(size=(3, 4))) < 1e-6

    def test_batched_matmul_grad(self):
        w = rng.normal(size=(4, 2))
        f = lambda x: T.sum_(T.power(T.matmul(x, T.Tensor(w)), 2.0))
        assert grad_check(f, rng.normal(size=(2, 3, 4))) < 1e-6

    def test_reduction_slicing_concat(self):
        def f(x):
            a = T.mean(x, axis=0)
            b = T.sum_(x, axis=1, keepdims=True)
            c = T.concat([a * a, T.reshape(b, (-1,))], axis=0)
            return T.sum_(T.mul(c, c)) + T.sum_(x[1:, :2])

        assert grad_check(f, rng.normal(size=(3, 4))) < 1e-6

    def test_norm_grad(self):
        f = lambda x: T.sum_(T.norm(x, axis=-1))
        assert grad_check(f, rng.normal(size=(5, 3)) + 2.0) < 1e-6

    def test_gather_scatter_grad(self):
        idx = np.array([0, 2, 2, 1])
        f = lambda x: T.sum_(T.power(T.scatter_sum(T.gather(x, idx), [0, 0, 1, 1], 2), 2.0))
        assert grad_check(f, rng.normal(size=(3, 2))) < 1e-6

    def test_two_layer_mlp(self):
        params = T.init_mlp((3, 8, 1), np.random.default_rng(0), "mlp")
        lifted = {k: T.Tensor(v) for k, v in params.items()}
        f = lambda x: T.sum_(T.mlp_apply(lifted, x, "mlp"))
        assert grad_check(f, rng.normal(size=(4, 3))) < 1e-6

    def test_segment_softmax_grad(self):
        seg = [0, 0, 1, 1, 1]
        f = lambda x: T.sum_(T.power(T.segment_softmax(T.reshape(x, (-1,)), seg, 2), 3.0))
        assert grad_check(f, rng.normal(size=(5,))) < 1e-6


class TestTape:
    def test_scalar_root_required(self):
        tape = T.Tape()
        x = tape.tensor([1.0, 2.0])
        with pytest.raises(ContractError):
            tape.gradient(x, [x])

    def test_non_participating_leaf_gets_zeros(self):
        tape = T.Tape()
        x = tape.tensor([1.0, 2.0])
        y = tape.tensor([5.0])
        loss = T.sum_(x * x)
        gx, gy = tape.gradient(loss, [x, y])
        assert np.allclose(gx.data, [2.0, 4.0])
        assert np.allclose(gy.data, [0.0])

    def test_repeated_backward_bit_identical(self):
        tape = T.Tape()
        x = tape.tensor(np.linspace(-1, 1, 6).reshape(2, 3))
        loss = T.sum_(T.silu(x @ T.Tensor(np.full((3, 2), 0.37))))
        g1 = tape.gradient(loss, [x])[0].data.copy()
        g2 = tape.gradient(loss, [x])[0].data.copy()
        assert np.array_equal(g1, g2)

    def test_mixing_tapes_rejected(self):
        t1, t2 = T.Tape(), T.Tape()
        a = t1.tensor([1.0])
        b = t2.tensor([2.0])
        with pytest.raises(ContractError):
            T.add(a, b)

    def test_watch_non_leaf_rejected(self):
        tape = T.Tape()
        x = tape.tensor([1.0])
        y = x * 2.0
        with pytest.raises(ContractError):
            tape.watch(y)

    def test_gradient_of_gradient_matches_finite_differences(self):
        # force-in-the-loss pattern: differentiate a position gradient
        # once more with respect to the weights
        w0 = rng.normal(size=(3, 3)) * 0.6
        x0 = rng.normal(size=(4, 3))

        def loss_given(w_np):
            tape = T.Tape()
            x = tape.tensor(x0.copy())
            w = tape.tensor(w_np.copy())
            e = T.sum_(T.silu(x @ w))
            (gx,) = tape.gradient(e, [x])
            return tape, w, T.sum_(T.power(gx, 2.0))

        tape, w, loss = loss_given(w0)
        (gw,) = tape.gradient(loss, [w])

        worst = 0.0
        eps = 1e-6
        flat = w0.reshape(-1)
        for i in range(flat.size):
            bump = flat.copy()
            bump[i] += eps
            hi = loss_given(bump.reshape(w0.shape))[2].item()
            bump[i] -= 2 * eps
            lo = loss_given(bump.reshape(w0.shape))[2].item()
            fd = (hi - lo) / (2 * eps)
            worst = max(worst, abs(gw.data.reshape(-1)[i] - fd) / max(1.0, abs(fd)))
        assert worst < 1e-5


def _boundary(make):
    """Run `make()` as one boundary call: a non-finite result is replayed
    with per-op checks, whose NumericError names the op."""
    return T.checked(lambda _tape: make())


class TestNumericAbort:
    def test_log_of_negative(self):
        with pytest.raises(NumericError, match="op 'log'"):
            _boundary(lambda: T.log(T.Tensor([-1.0])))

    def test_divide_by_zero(self):
        with pytest.raises(NumericError, match="op 'div'"):
            _boundary(lambda: T.div(T.Tensor([1.0]), T.Tensor([0.0])))

    def test_nan_input_rejected_at_creation(self):
        with pytest.raises(NumericError):
            T.Tensor([np.nan])

    def test_overflowing_exp(self):
        with pytest.raises(NumericError, match="op 'exp'"):
            _boundary(lambda: T.exp(T.Tensor([1e4])))


class TestShapesAndIndices:
    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            T.gather(T.Tensor(np.ones((2, 2))), [0, 5])

    def test_segment_id_out_of_range(self):
        with pytest.raises(IndexError):
            T.scatter_sum(T.Tensor(np.ones((2, 2))), [0, 7], 2)

    def test_mlp_input_width_checked(self):
        params = {k: T.Tensor(v) for k, v in T.init_mlp((3, 4), np.random.default_rng(0), "mlp").items()}
        with pytest.raises(ShapeError):
            T.mlp_apply(params, T.Tensor(np.ones((2, 5))), "mlp")

    @pytest.mark.parametrize("widths", [(3,), (3, 0, 1)])
    def test_mlp_needs_two_positive_widths(self, widths):
        with pytest.raises(ContractError, match="'mlp'"):
            T.init_mlp(widths, np.random.default_rng(0), "mlp")

    def test_mlp_needs_weights_under_its_prefix(self):
        params = {k: T.Tensor(v) for k, v in T.init_mlp((3, 4), np.random.default_rng(0), "mlp").items()}
        with pytest.raises(ContractError, match="'head'"):
            T.mlp_apply(params, T.Tensor(np.ones((2, 3))), "head")


def _taped(values):
    return T.Tape().tensor(np.asarray(values, dtype=np.float64))


def _root_on_another_tape():
    x = _taped([1.0, 2.0])
    T.Tape().gradient(T.sum_(x), [x])


def _non_scalar_root():
    x = _taped([1.0, 2.0])
    x.tape.gradient(x * 2.0, [x])


def _one_pair_of_two_edges():
    return pair_index(np.array([1, 0]))


REFUSALS = {
    "watch-other-tape": (lambda: T.Tape().watch(_taped([1.0])), ContractError, "different tape"),
    "root-other-tape": (_root_on_another_tape, ContractError, "not on this tape"),
    "root-not-scalar": (_non_scalar_root, ContractError, "must be a scalar"),
    "checked-nan-leaf": (lambda: T.checked(lambda tape: tape.tensor([math.nan])), NumericError, "non-finite"),
    "matmul-1d": (lambda: T.matmul(T.Tensor([1.0, 2.0]), T.Tensor(np.ones((2, 2)))), ShapeError, "two dimensions"),
    "transpose2-1d": (lambda: T.transpose2(T.Tensor([1.0, 2.0])), ShapeError, "two dimensions"),
    "concat-empty": (lambda: T.concat([]), ContractError, "at least one tensor"),
    "slice-index-array": (lambda: T.slice_(T.Tensor(np.ones(3)), np.array([0, 1])), ContractError, "slices and ints"),
    "mean-empty-axis": (lambda: T.mean(T.Tensor(np.ones((0, 3))), axis=0), ContractError, "empty axis"),
    "gather-2d-index": (lambda: T.gather(T.Tensor(np.ones((3, 2))), np.zeros((2, 2))), ShapeError, "one-dimensional"),
    "gather-0d": (lambda: T.gather(T.Tensor(1.0), [0]), ShapeError, "at least one dimension"),
    "gather-pair-rows": (
        lambda: T.gather(T.Tensor(np.ones((2, 3))), _one_pair_of_two_edges()),
        ShapeError,
        "do not match 1 pairs",
    ),
    "scatter-sum-pair-rows": (
        lambda: T.scatter_sum(T.Tensor(np.ones((3, 1))), _one_pair_of_two_edges()),
        ShapeError,
        "do not match 2 edges",
    ),
    "scatter-sum-rows": (lambda: T.scatter_sum(T.Tensor(np.ones((3, 2))), [0, 1], 2), ShapeError, "leading axis"),
    "scatter-sum-no-count": (lambda: T.scatter_sum(T.Tensor(np.ones((2, 2))), [0, 1]), ContractError, "num_segments"),
    "scatter-sum-plan-rows": (
        lambda: T.scatter_sum(T.Tensor(np.ones((3, 2))), segment_plan([0, 1], 2)),
        ShapeError,
        "leading axis",
    ),
    "scatter-sum-plan-count": (
        lambda: T.scatter_sum(T.Tensor(np.ones((2, 2))), segment_plan([0, 1], 2), 3),
        ShapeError,
        "plan of 2 segments does not match 3 rows",
    ),
    "plan-2d-index": (lambda: segment_plan(np.zeros((2, 2), int), 2), ShapeError, "one-dimensional integers"),
    "plan-float-index": (lambda: segment_plan([0.0, 1.0], 2), ShapeError, "one-dimensional integers"),
    "plan-index-range": (lambda: segment_plan([0, 2], 2), IndexError, r"outside 0\.\.1"),
    "plan-negative-count": (lambda: segment_plan([], -1), ShapeError, "non-negative segment count"),
    "gather-plan-rows": (
        lambda: T.gather(T.Tensor(np.ones((3, 2))), segment_plan([0, 1], 2)),
        ShapeError,
        "plan of 2 segments does not match 3 rows",
    ),
    "edge-product-into-index": (
        lambda: T.edge_product((np.ones((2, 1)), None), (np.ones((2, 1)), None), into=np.array([0, 1])),
        ContractError,
        "sums into a SegmentPlan or a PairIndex, not ndarray",
    ),
    "edge-product-into-other-edges": (
        lambda: T.edge_product((np.ones((2, 1)), None), (np.ones((2, 1)), None), into=segment_plan([0, 0, 1], 2)),
        ShapeError,
        "covers 3 edges, not 2",
    ),
    "edge-product-into-other-pairs": (
        lambda: T.edge_product((np.ones((3, 1)), None), (np.ones((3, 1)), None), into=_one_pair_of_two_edges()),
        ShapeError,
        "covers 2 edges, not 3",
    ),
    "edge-product-plan-rows": (
        lambda: T.edge_product((np.ones((3, 1)), segment_plan([0, 1], 2)), (np.ones((2, 1)), None)),
        ShapeError,
        "plan of 2 segments does not match 3 rows",
    ),
    "segment-softmax-2d": (lambda: T.segment_softmax(T.Tensor(np.ones((2, 2))), [0, 1], 2), ShapeError, "1-D scores"),
    # every node index is checked as a plan's: none is cast to integers
    "gather-float-index": (
        lambda: T.gather(T.Tensor(np.ones((3, 2))), np.array([0.7, 2.9])),
        ShapeError,
        "one-dimensional integers, got float64",
    ),
    "gather-bool-index": (
        lambda: T.gather(T.Tensor(np.ones((3, 2))), [True, False]),
        ShapeError,
        "one-dimensional integers, got bool",
    ),
    "scatter-sum-float-index": (
        lambda: T.scatter_sum(T.Tensor(np.ones((3, 2))), [0.5, 1.5, 1.9], 2),
        ShapeError,
        "one-dimensional integers, got float64",
    ),
    "segment-softmax-no-count": (
        lambda: T.segment_softmax(T.Tensor(np.ones(3)), [0, 0, 1]),
        ContractError,
        "num_segments",
    ),
    "segment-softmax-rows": (
        lambda: T.segment_softmax(T.Tensor(np.ones(3)), [0, 1], 2),
        ShapeError,
        r"one per row of the index, not \(3,\)",
    ),
    # refused as it arrives, before the segment max reads it
    "segment-softmax-negative-id": (
        lambda: T.segment_softmax(T.Tensor(np.ones(3)), [0, -1, 1], 2),
        IndexError,
        r"segment index outside 0\.\.1",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_name_what_is_wrong(case):
    call, error, fragment = REFUSALS[case]
    with pytest.raises(error, match=fragment):
        call()


class TestInit:
    def test_glorot_bounds_and_determinism(self):
        lim = math.sqrt(6.0 / (20 + 30))
        w1 = T.glorot_uniform(np.random.default_rng(3), 20, 30)
        w2 = T.glorot_uniform(np.random.default_rng(3), 20, 30)
        assert np.abs(w1).max() <= lim
        assert np.array_equal(w1, w2)

    def test_distinct_seeds_differ(self):
        w1 = T.glorot_uniform(np.random.default_rng(0), 8, 8)
        w2 = T.glorot_uniform(np.random.default_rng(1), 8, 8)
        assert not np.array_equal(w1, w2)


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params = {
            "layer0.w": np.random.default_rng(5).normal(size=(3, 4)),
            "layer0.b": np.array([1e-17, -2.5, math.pi]),
        }
        path = tmp_path / "ckpt.json"
        T.save_checkpoint(path, params)
        loaded = T.load_checkpoint(path)
        assert set(loaded) == set(params)
        for k in params:
            assert np.array_equal(loaded[k], params[k])
            assert loaded[k].shape == params[k].shape

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_a_parse_error(self, tmp_path, value):
        # training never writes one, so the file is corrupt
        path = tmp_path / "ckpt.json"
        T.save_checkpoint(path, {"layer0.w": np.array([1.0, value]), "layer0.b": np.zeros(2)})
        with pytest.raises(ParseError, match="parameter 'layer0.w' has a non-finite value"):
            T.load_checkpoint(path)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    st.lists(st.integers(0, 2), min_size=4, max_size=4),
)
def test_scatter_sum_is_linear(a, b, seg):
    ta, tb = T.Tensor(np.array(a)), T.Tensor(np.array(b))
    lhs = T.scatter_sum(ta + tb, seg, 3).data
    rhs = T.scatter_sum(ta, seg, 3).data + T.scatter_sum(tb, seg, 3).data
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_sum_of_scatter_equals_total(seed):
    r = np.random.default_rng(seed)
    vals = r.normal(size=(6, 2))
    seg = r.integers(0, 3, size=6)
    out = T.scatter_sum(T.Tensor(vals), seg, 3).data
    assert np.allclose(out.sum(axis=0), vals.sum(axis=0), atol=1e-12)


# ---------------------------------------------------------------------------
# segment sums, backward work and numeric aborts of the tape


@st.composite
def segment_problems(draw):
    """Unsorted, repeated ids over segments some of which stay empty, zero
    rows allowed, trailing shapes (E,), (E, F) and (E, F, 3)."""
    rows = draw(st.integers(0, 12))
    segments = draw(st.integers(1, 6))
    trailing = draw(st.sampled_from([(), (draw(st.integers(1, 4)),), (draw(st.integers(1, 4)), 3)]))
    ids = draw(st.lists(st.integers(0, segments - 1), min_size=rows, max_size=rows))
    size = rows * math.prod(trailing)
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=size, max_size=size))
    return np.array(values).reshape((rows,) + trailing), np.array(ids, dtype=np.int64), segments


@settings(max_examples=200, deadline=None)
@given(segment_problems())
def test_scatter_sum_bitwise_equals_add_at(problem):
    values, ids, segments = problem
    want = np.zeros((segments,) + values.shape[1:])
    np.add.at(want, ids, values)
    got = T.scatter_sum(T.Tensor(values), ids, segments).data
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    # by a plan, in blocks of whole segments, of one entry up to all rows
    for entries in (1, 5, T._BLOCK_ENTRIES):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(T, "_BLOCK_ENTRIES", entries)
            planned = T.scatter_sum(T.Tensor(values), segment_plan(ids, segments)).data
        assert planned.shape == want.shape and np.array_equal(planned.view(np.int64), want.view(np.int64))


@settings(max_examples=100, deadline=None)
@given(segment_problems())
def test_a_plan_lists_its_rows_segment_by_segment(problem):
    _, ids, segments = problem
    plan = segment_plan(ids, segments)
    order = np.arange(ids.size) if plan.order is None else plan.order
    assert (plan.order is None) == bool((np.diff(ids) >= 0).all())
    assert np.array_equal(order, np.argsort(ids, kind="stable"))
    assert np.array_equal(np.diff(plan.offsets), np.bincount(ids, minlength=segments))
    for rows in (1, 2, 5, 100):
        seen = []
        for taken, first, end in plan.blocks(rows):
            taken = order[taken] if isinstance(taken, slice) else taken
            assert np.array_equal(taken, order[plan.offsets[first] : plan.offsets[end]])
            assert len(taken) < rows + np.diff(plan.offsets).max()  # a segment is never split
            seen.append((first, end))
        assert [first for first, _ in seen] == [0] + [end for _, end in seen[:-1]]
        assert (seen[-1][1] if seen else 0) == segments


@pytest.mark.parametrize("entries", ["default", "one"])
def test_a_gather_by_unsorted_ids_sorts_nothing(entries, monkeypatch):
    # the gather's rule sums by the ids, and that sum's rule gathers by
    # them, so neither backward derives the plan's order, even when every
    # sum is longer than a block
    if entries == "one":
        monkeypatch.setattr(T, "_BLOCK_ENTRIES", 1)
    ids = np.array([2, 0, 1, 0, 2, 2])
    x0 = np.random.default_rng(0).normal(size=(3, 4))
    made = []  # every plan the ops make or are given
    monkeypatch.setattr(T, "segment_plan", lambda index, n: made.append(segment_plan(index, n)) or made[-1])
    tape = T.Tape()
    x = tape.tensor(x0)
    (g,) = tape.gradient(T.sum_(T.sin(T.gather(x, ids))), [x])
    (gg,) = tape.gradient(T.sum_(g * g), [x], record=False)
    (plan,) = {id(plan): plan for plan in made}.values()  # each later op takes the plan as it is
    assert np.array_equal(plan.index, ids)
    assert "order" not in plan.__dict__ and "offsets" not in plan.__dict__
    want = np.zeros_like(x0)
    np.add.at(want, ids, np.cos(x0[ids]))
    assert g.data.tobytes() == want.tobytes()
    want2 = np.zeros_like(x0)
    np.add.at(want2, ids, -2.0 * want[ids] * np.sin(x0[ids]))
    np.testing.assert_allclose(gg.data, want2, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("op", ["scatter_sum", "edge_product"])
@pytest.mark.parametrize("ids", ["sorted", "unsorted"])
@pytest.mark.parametrize("fits", [True, False], ids=["one-block", "one-row-over"])
def test_sums_either_side_of_one_block_are_add_at(fits, ids, op):
    # rows that fit one block, E * W <= _BLOCK_ENTRIES, are summed by the
    # ids without sorting or counting them; one row more runs in blocks of
    # whole segments, except a scatter_sum by unsorted ids, which takes all
    # rows by the ids at once: bitwise np.add.at every way
    width = 4
    rows = T._BLOCK_ENTRIES // width + (0 if fits else 1)
    rng = np.random.default_rng(rows)
    index = rng.integers(0, 50, rows)
    if ids == "sorted":
        index.sort()
    a = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-8, 8, (rows, width))
    b = rng.normal(size=(rows, width))
    plan = segment_plan(index, 50)
    if op == "scatter_sum":
        got = T.scatter_sum(T.Tensor(a * b), plan)
    else:
        got = T.edge_product((a, None), (b, None), into=plan)
    want = np.zeros((50, width))
    np.add.at(want, index, a * b)
    assert got.data.tobytes() == want.tobytes()
    blocked = not fits and (ids == "sorted" or op == "edge_product")
    assert ("offsets" in plan.__dict__) == blocked
    assert ("order" in plan.__dict__) == blocked


@st.composite
def axis_sums(draw):
    """A 2-4-d array in C or Fortran order and one axis to sum, given as an
    int, a negative int or a one-element tuple, with either keepdims. The
    axis is any axis, 1-9 long, so both the slice adds (a non-leading axis
    of 2-7) and numpy's own sum are drawn; values span enough magnitudes
    that the order of the adds shows."""
    ndim = draw(st.integers(2, 4))
    shape = draw(st.lists(st.integers(0, 4), min_size=ndim, max_size=ndim))
    axis = draw(st.integers(0, ndim - 1))
    shape[axis] = draw(st.integers(1, 9))
    size = math.prod(shape)
    floats = st.floats(-1e6, 1e6) | st.floats(-1e17, 1e17) | st.sampled_from([0.0, -0.0, 1.0])
    data = np.array(draw(st.lists(floats, min_size=size, max_size=size)), dtype=np.float64).reshape(shape)
    if draw(st.booleans()):
        data = np.asfortranarray(data)
    form = draw(st.sampled_from([axis, axis - ndim, (axis,)]))
    return data, form, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(axis_sums())
def test_sum_bitwise_equals_ndarray_sum(problem):
    data, axis, keepdims = problem
    want = data.sum(axis=axis, keepdims=keepdims)
    got = T.sum_(T.Tensor(data), axis=axis, keepdims=keepdims).data
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("axis", [1, -1])
def test_sum_of_negative_zeros_is_positive_zero_like_ndarray_sum(axis):
    data = np.full((4, 3, 2), -0.0)
    got = T.sum_(T.Tensor(data), axis=axis).data
    assert got.tobytes() == data.sum(axis=axis).tobytes() == np.zeros(got.shape).tobytes()


def test_sum_rejects_an_axis_out_of_range():
    with pytest.raises(np.exceptions.AxisError):
        T.sum_(T.Tensor(np.ones((2, 3))), axis=2)


def test_grad_through_short_axis_sum():
    c = T.Tensor(rng.normal(size=(4, 5, 1)))
    f = lambda x: T.sum_(T.power(T.sum_(x, axis=2, keepdims=True), 2.0) * c)
    assert grad_check(f, rng.normal(size=(4, 5, 3))) < 1e-6


def _backward_calls(monkeypatch, name, tape, root, wrt):
    """How often the backward of `root` calls the op `name`."""
    calls = []
    real = getattr(T, name)
    monkeypatch.setattr(T, name, lambda *args, **kw: calls.append(name) or real(*args, **kw))
    tape.gradient(root, wrt)
    return len(calls)


def test_gradient_skips_vjps_outside_the_requested_inputs(monkeypatch):
    tape = T.Tape()
    x = tape.tensor(rng.normal(size=(4, 3)))
    w = tape.tensor(rng.normal(size=(3, 2)))
    before = len(tape.records)
    root = T.sum_(x @ w)
    assert _backward_calls(monkeypatch, "matmul", tape, root, [x]) == 1
    assert [rec.name for rec in tape.records[before:]].count("matmul") == 2  # forward and dE/dx
    # a constant operand gets no gradient either
    root = T.sum_(T.mul(x, T.Tensor(rng.normal(size=(4, 3)))))
    assert _backward_calls(monkeypatch, "mul", tape, root, [x]) == 1


SUM_FORMS = [(axis, keepdims) for axis in (None, 0, 1, -1, (0, 2)) for keepdims in (False, True)]


def _squared_gradient(inner):
    """x -> sum(grad(inner)(x)^2), so grad_check takes a second derivative."""

    def f(x):
        tape = x.tape
        if tape is None:  # a finite-difference probe
            tape = T.Tape()
            tape.watch(x)
        (g,) = tape.gradient(inner(x), [x])
        return T.sum_(g * g)

    return f


@pytest.mark.parametrize("axis,keepdims", SUM_FORMS, ids=[f"{a}-{k}" for a, k in SUM_FORMS])
def test_second_derivative_through_sum(axis, keepdims):
    inner = lambda x: T.sum_(T.power(T.sum_(x, axis=axis, keepdims=keepdims), 3.0))
    assert grad_check(_squared_gradient(inner), rng.normal(size=(2, 3, 4))) < 1e-6


def test_second_derivative_through_sigmoid():
    c = T.Tensor(rng.normal(size=(3, 4)))
    inner = lambda x: T.sum_(T.sigmoid(x) * c)
    assert grad_check(_squared_gradient(inner), rng.normal(size=(3, 4)) * 2.0) < 1e-6


def _two_branch_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 709.0, -709.0, 746.0, -746.0, 1e308, -1e308]


@pytest.mark.parametrize("shape", [(), (36,), (6, 6), (3, 4, 3)])
def test_sigmoid_bitwise_equals_two_branch_select(shape):
    draws = np.random.default_rng(7).normal(size=(200,) + shape) * 10.0
    edges = np.resize(np.array(SIGMOID_EDGES), shape)
    filled = [np.full(shape, v) for v in SIGMOID_EDGES]
    for x in [edges, -edges, *filled, *map(np.asarray, draws)]:
        before = x.copy()
        got = T.sigmoid(T.Tensor(x)).data
        assert isinstance(got, np.ndarray) and got.shape == shape
        assert got.tobytes() == _two_branch_sigmoid(x).tobytes()
        assert not np.signbit(got).any()
        assert x.tobytes() == before.tobytes()


def test_second_derivative_through_silu():
    c = T.Tensor(rng.normal(size=(3, 4)))
    inner = lambda x: T.sum_(T.silu(x) * c)
    assert grad_check(_squared_gradient(inner), rng.normal(size=(3, 4)) * 2.0) < 1e-6


def test_third_derivative_through_silu():
    # grad_check differentiates the squared gradient of a squared gradient:
    # the rule of silu_d2, made of elementary ops
    c = T.Tensor(rng.normal(size=(3, 4)))
    inner = lambda x: T.sum_(T.silu(x) * c)
    assert grad_check(_squared_gradient(_squared_gradient(inner)), rng.normal(size=(3, 4)) * 2.0) < 1e-6


def test_silu_and_its_derivatives_stay_finite_and_match_their_closed_forms():
    draws = np.random.default_rng(11).normal(size=200) * 10.0
    a = np.concatenate([SIGMOID_EDGES, draws])
    s = _two_branch_sigmoid(a)
    with np.errstate(over="raise", invalid="raise"):  # underflow is expected
        silu, d1, d2 = (op(T.Tensor(a)).data for op in (T.silu, T.silu_d1, T.silu_d2))
    assert np.isfinite(silu).all() and np.isfinite(d1).all() and np.isfinite(d2).all()
    assert silu.tobytes() == (a * s).tobytes()  # the product of the input and its sigmoid
    assert d1.tobytes() == (s * (1 + a * (1 - s))).tobytes()
    assert d2.tobytes() == (s * (1 - s) * (2 + a * (1 - 2 * s))).tobytes()
    assert (d1[:2] == 0.5).all() and (d2[:2] == 0.5).all()  # at +-0


OVERFLOWS = [
    ("mul", lambda: T.mul(T.Tensor([1e308]), T.Tensor([10.0]))),
    ("matmul", lambda: T.matmul(T.Tensor([[1e308, 1e308]]), T.Tensor([[1.0], [1.0]]))),
    ("add", lambda: T.add(T.Tensor([1e308]), T.Tensor([1e308]))),
    ("sum", lambda: T.sum_(T.Tensor([1e308, 1e308]))),
    ("scatter_sum", lambda: T.scatter_sum(T.Tensor([1e308, 1e308]), [0, 0], 1)),
]


@pytest.mark.parametrize("name,make", OVERFLOWS, ids=[o[0] for o in OVERFLOWS])
def test_overflow_names_the_op(name, make):
    with np.errstate(over="ignore"), pytest.raises(NumericError, match=f"op '{name}'"):
        _boundary(make)


def test_ops_leave_the_check_to_the_boundary():
    with np.errstate(all="ignore"):
        assert np.isnan(T.log(T.Tensor([-1.0])).data).all()
        assert np.isinf(T.mul(T.Tensor([1e308]), T.Tensor([10.0])).data).all()


def test_checked_returns_the_tape_and_results_of_one_call():
    calls = []

    def run(tape):
        calls.append(tape)
        x = tape.tensor([1.0, 2.0])
        return T.sum_(x * x), [tape.gradient(T.sum_(x * x), [x], record=False)[0]], None

    tape, (value, (grad,), nothing) = T.checked(run)
    assert calls == [tape] and tape.records and nothing is None
    assert value.item() == 5.0 and grad.data.tolist() == [2.0, 4.0]


def test_forward_failure_names_op_and_scope():
    def run(tape):
        x = tape.tensor([1e308])
        with T.scope("layer1"):
            y = T.mul(x, 10.0)
        return T.sum_(y)

    with pytest.raises(NumericError, match=r"^non-finite result in op 'mul' in scope 'layer1'$"):
        T.checked(run)


def test_backward_only_failure_names_the_backward_scope():
    # sqrt is finite at 0, its derivative is not
    def run(tape):
        x = tape.tensor([0.0, 1.0])
        with T.scope("layer1"):
            y = T.power(x, 0.5)
        return tape.gradient(T.sum_(y), [x], record=False)

    with pytest.raises(NumericError, match=r"^non-finite result in op 'power' in backward of 'layer1'$"):
        T.checked(run)


def test_failed_tape_is_released_before_the_replay():
    tapes = []

    def run(tape):
        tapes.append(tape)
        return T.log(tape.tensor([-1.0]))

    with pytest.raises(NumericError, match="op 'log'"):
        T.checked(run)
    assert len(tapes) == 2 and tapes[0] is not tapes[1]
    assert not tapes[0].records and not tapes[1].records
    assert not T._check_ops  # per-op checks are off again


@pytest.mark.parametrize("second", [np.array([np.inf]), np.array([1.0])], ids=["same", "finite-on-replay"])
def test_replay_without_a_failing_op_still_raises(second):
    # the non-finite value comes from no op; a call that comes back finite
    # the second time is not returned either
    results = iter([np.array([np.inf]), second])
    with pytest.raises(NumericError, match="no op produced one"):
        T.checked(lambda _tape: next(results))


def test_records_carry_their_scope_and_backwards_run_in_it():
    tape = T.Tape()
    x = tape.tensor([1.0, 2.0])
    with T.scope("layer0"):
        y = T.mul(x, x)
        with T.scope("block3"):
            z = T.exp(y)
        w = T.sum_(z)
    root = T.sum_(w)
    assert [(r.name, r.scope) for r in tape.records] == [
        ("mul", "layer0"),
        ("exp", "block3"),
        ("sum", "layer0"),
        ("sum", ""),
    ]
    before = len(tape.records)
    tape.gradient(root, [x])
    # each record's rules are recorded in that record's scope
    assert [r.scope for r in tape.records[before:] if r.name == "mul"] == ["block3", "layer0", "layer0"]


def test_checked_releases_its_tape_when_fn_raises_anything(monkeypatch):
    released = []
    release = T.Tape.release
    monkeypatch.setattr(T.Tape, "release", lambda tape: released.append(tape) or release(tape))
    for error in (ContractError, ShapeError, KeyError):
        tapes = []

        def run(tape):
            tapes.append(tape)
            T.mul(tape.tensor([1.0, 2.0]), 3.0)
            raise error("the model failed")

        with pytest.raises(error, match="the model failed"):
            T.checked(run)
        assert released[-1:] == tapes and not tapes[0].records
    assert len(released) == 3


# ---------------------------------------------------------------------------
# what a tape keeps


@pytest.mark.parametrize("op", [T.add, T.sub])
def test_add_and_sub_records_keep_no_operand(op):
    tape = T.Tape()
    x = tape.tensor(rng.normal(size=(3, 2)))
    y = tape.tensor(rng.normal(size=(2,)))
    a, b = T.mul(x, 2.0), T.mul(y, 3.0)  # kept by nothing but the op's record
    kept = [weakref.ref(a.data), weakref.ref(b.data)]
    root = T.sum_(op(a, b))
    del a, b
    assert tape.records and all(ref() is None for ref in kept)
    gx, gy = tape.gradient(root, [x, y], record=False)
    sign = 1.0 if op is T.add else -1.0
    assert gx.data.tolist() == np.full((3, 2), 2.0).tolist()
    assert gy.data.tolist() == [sign * 9.0, sign * 9.0]


def test_unrecorded_backward_frees_forward_intermediates_before_release():
    def forward():
        tape = T.Tape()
        x = tape.tensor([0.5, -1.0, 2.0])
        y = T.exp(x)  # kept by its own rule and by both of the mul's
        return tape, x, weakref.ref(y.data), T.sum_(y * y)

    tape, x, kept, root = forward()
    tape.gradient(root, [x])
    assert kept() is not None  # a recorded backward spends nothing
    tape, x, kept, root = forward()
    size = len(tape.records)
    (g,) = tape.gradient(root, [x], record=False)
    assert kept() is None and len(tape.records) == size
    assert [rec.name for rec in tape.records] == ["exp", "mul", "sum"]
    np.testing.assert_allclose(g.data, 2.0 * np.exp([1.0, -2.0, 4.0]), rtol=1e-15)


@pytest.mark.parametrize("record", [False, True])
def test_a_backward_through_a_spent_record_raises(record):
    tape = T.Tape()
    x = tape.tensor([0.5, -1.0])
    with T.scope("layer0"):
        y = T.exp(x)
    spent = T.sum_(y)
    other = T.sum_(T.sin(x))
    tape.gradient(spent, [x], record=False)
    # a backward over records the first did not run still works
    (g,) = tape.gradient(other, [x], record=record)
    assert g.data.tolist() == np.cos([0.5, -1.0]).tolist()
    with pytest.raises(ContractError, match=r"^op 'sum' was spent by an earlier unrecorded backward$"):
        tape.gradient(spent, [x], record=record)
    with pytest.raises(ContractError, match=r"^op 'exp' in scope 'layer0' was spent"):
        tape.gradient(T.sum_(y * 2.0), [x], record=record)


# (op, the position of the taped operand); div's rule for a taped divisor
# reads the divisor itself, so only its dividend is taped here
@pytest.mark.parametrize("name, taped", [("mul", 0), ("mul", 1), ("div", 0), ("matmul", 0), ("matmul", 1)])
def test_a_record_keeps_no_rule_for_an_operand_off_the_tape(name, taped):
    tape = T.Tape()
    x = tape.tensor(rng.normal(size=(2, 2)))
    const = T.Tensor(rng.normal(size=(2, 2)) + 3.0)
    operands = (x, const) if taped == 0 else (const, x)
    out = getattr(T, name)(*operands)
    (rec,) = tape.records
    assert rec.vjps[1 - taped] is None
    kept = [cell.cell_contents for cell in rec.vjps[taped].__closure__]
    assert any(v is const for v in kept) and not any(v is x for v in kept)
    (g,) = tape.gradient(T.sum_(out), [x], record=False)
    want = {
        ("mul", 0): const.data,
        ("mul", 1): const.data,
        ("div", 0): 1.0 / const.data,
        ("matmul", 0): np.ones((2, 2)) @ const.data.T,
        ("matmul", 1): const.data.T @ np.ones((2, 2)),
    }[name, taped]
    assert g.data.tolist() == want.tolist()


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("late", [False, True])
def test_a_backward_into_an_input_off_the_tape_raises(late, record):
    # a wrt tensor never watched, or one watched only after its first use:
    # the op that used it kept no rule for it
    tape = T.Tape()
    w = tape.tensor([2.0, 0.25])
    x = T.Tensor([0.5, -1.0])
    with T.scope("layer0"):
        y = T.mul(x, w)
    if late:
        tape.watch(x)
        y = T.mul(y, x)
    with pytest.raises(ContractError, match=r"^op 'mul' in scope 'layer0' kept no rule for an input off the tape"):
        tape.gradient(T.sum_(y), [x], record=record)


def test_an_unrecorded_backward_drops_each_rule_once_it_has_run():
    # the product's rule for `a` is all that holds `b`, so `b` is gone by
    # the time its own rule runs
    tape = T.Tape()
    x, y = tape.tensor([0.5, -1.0]), tape.tensor([2.0, 0.25])
    a, b = x * 2.0, y * 3.0
    kept = weakref.ref(b.data)
    root = T.sum_(a * b)
    del a, b
    rec = tape.records[2]
    seen = []
    rec.vjps = (rec.vjps[0], lambda g, rule=rec.vjps[1]: seen.append(kept() is None) or rule(g))
    gx, gy = tape.gradient(root, [x, y], record=False)
    assert seen == [True]
    assert gx.data.tolist() == [12.0, 1.5] and gy.data.tolist() == [3.0, -6.0]


def test_an_unrecorded_backward_holds_no_replaced_sum_into_the_next_rule():
    # x's gradient sums two terms; when the rule that reads the sum runs,
    # neither is alive: not the first, which the sum replaced, nor the second
    tape = T.Tape()
    w = tape.tensor([0.5, -1.0])
    x = w * 1.5
    root = T.sum_(x * 2.0 + x * 3.0)
    terms, seen = [], []

    def noted(t):
        terms.append(weakref.ref(t.data))
        return t

    for rec in tape.records[1:3]:
        rec.vjps = (lambda g, rule=rec.vjps[0]: noted(rule(g)), None)
    first = tape.records[0]
    first.vjps = (lambda g, rule=first.vjps[0]: seen.extend(ref() is None for ref in terms) or rule(g), None)
    del rec, first
    (gw,) = tape.gradient(root, [w], record=False)
    assert seen == [True, True]
    assert gw.data.tolist() == [7.5, 7.5]


def test_an_unrecorded_backward_frees_a_records_gradient_before_its_last_sum(monkeypatch):
    # both rules of x * x feed x's gradient; when the second term is summed
    # into it, the product's own gradient, which no rule reads again, is gone
    tape = T.Tape()
    x = tape.tensor([0.5, -1.0])
    sq = x * x
    root = T.sum_(sq * 3.0)
    (rec,) = [r for r in tape.records if r.output_uid == sq.uid]
    refs, seen = [], []
    rec.vjps = (rec.vjps[0], lambda g, rule=rec.vjps[1]: refs.append(weakref.ref(g.data)) or rule(g))
    add = T.add
    monkeypatch.setattr(T, "add", lambda a, b: seen.append([ref() is None for ref in refs]) or add(a, b))
    del rec
    (gx,) = tape.gradient(root, [x], record=False)
    assert seen == [[True]]
    assert gx.data.tolist() == [3.0, -6.0]


def test_an_unrecorded_backward_runs_only_what_descends_from_its_wrt():
    # the root reaches exp(w), but it does not descend from x: a backward
    # by x neither runs nor spends it, and a later one by w goes through it
    tape = T.Tape()
    x, w = tape.tensor([0.5, -1.0]), tape.tensor([2.0, 0.25])
    e = T.exp(w)
    root = T.sum_(x * e)
    ran = []
    (exp_rec,) = [rec for rec in tape.records if rec.name == "exp"]
    exp_rec.vjps = tuple(lambda g, vjp=vjp: ran.append(vjp) or vjp(g) for vjp in exp_rec.vjps)
    (gx,) = tape.gradient(root, [x], record=False)
    assert gx.data.tolist() == np.exp([2.0, 0.25]).tolist()
    assert ran == [] and exp_rec.vjps is not None
    (gw,) = tape.gradient(T.sum_(e), [w], record=False)
    assert len(ran) == 1 and gw.data.tolist() == np.exp([2.0, 0.25]).tolist()


@pytest.mark.parametrize("record", [False, True])
def test_a_backward_neither_runs_nor_spends_records_made_after_its_root(record):
    tape = T.Tape()
    x = tape.tensor([0.5, -1.0])
    root = T.sum_(T.exp(x))
    later = T.sum_(T.sin(x) * T.exp(x))  # descends from x, made after the root
    ran = []
    after = tape.records[2:]
    for rec in after:
        rec.vjps = tuple(lambda g, vjp=vjp: ran.append(vjp) or vjp(g) for vjp in rec.vjps)
    (g,) = tape.gradient(root, [x], record=record)
    assert g.data.tolist() == np.exp([0.5, -1.0]).tolist()
    assert ran == [] and all(rec.vjps is not None for rec in after)
    # a backward from the later root still runs them
    (g,) = tape.gradient(later, [x], record=record)
    assert len(ran) == 5  # sum, both of mul, sin and exp
    np.testing.assert_allclose(g.data, (np.cos([0.5, -1.0]) + np.sin([0.5, -1.0])) * np.exp([0.5, -1.0]), rtol=1e-15)


@pytest.mark.parametrize("record", [False, True])
def test_a_watched_scalar_leaf_as_its_own_root_gets_ones(record):
    tape = T.Tape()
    x = tape.tensor(3.0)
    T.exp(x)  # a record on the tape, after the root
    (g,) = tape.gradient(x, [x], record=record)
    assert g.data.tolist() == 1.0


ALLOCATOR_PROBE = """
import resource
import numpy as np
import geomnets.tensor

def churn():
    arrays = [np.ones(1 << 17) for _ in range(64)]  # 64 arrays of 1 MiB
    del arrays

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the thresholds are set on glibc only")
def test_freed_pages_stay_in_the_process():
    # once geomnets.tensor is imported, memory freed by one round of large
    # arrays serves the next round without faulting its pages in again
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", ALLOCATOR_PROBE], capture_output=True, text=True, env=env, check=True)
    assert int(out.stdout) < 1000


# ---------------------------------------------------------------------------
# edge products


def _edge_batches():
    """Batches of molecules, of crystals, and of the molecules with every
    edge a pair of its own."""
    from geomnets.models.common import build_batch
    from geomnets.training import synthetic_conformations
    from test_parity import CUTOFF
    from test_tape_cost import _crystals, per_edge

    molecules = build_batch(synthetic_conformations(3, seed=0), CUTOFF)
    return {"molecules": molecules, "crystal": build_batch(_crystals(), CUTOFF), "per_edge": per_edge(molecules)}


EDGE_CASES = ["molecules", "crystal", "per_edge"]


def _into_batches():
    """The edge batches, and for sums into nodes: the molecules after an
    atom with no neighbour, an empty segment before the others; and two
    atoms out of each other's reach, a graph with no edges. The crystal's
    one-atom cell sees several images of itself, rows that tie in `dst`."""
    from geomnets.models.common import build_batch
    from geomnets.training import synthetic_conformations
    from test_parity import CUTOFF

    lone = Conformation([6], [[0.0, 0.0, 0.0]])
    apart = Conformation([6, 8], [[0.0, 0.0, 0.0], [0.0, 0.0, 3.0 * CUTOFF]])
    return dict(
        _edge_batches(),
        isolated=build_batch([lone, *synthetic_conformations(3, seed=0)], CUTOFF),
        no_edges=build_batch([apart], CUTOFF),
    )


INTO_CASES = ["molecules", "crystal", "per_edge", "isolated", "no_edges"]


def _target(batch, into):
    """What a product is summed into: the plan of `src` or `dst`, the
    pairs, or nothing."""
    return {None: None, "src": batch.by_src, "dst": batch.by_dst, "pairs": batch.pairs}[into]


def _summed_rows(product, batch, into):
    """The composition's sum of edge rows: a `scatter_sum` by the index
    itself or into the pairs."""
    if into == "pairs":
        return T.scatter_sum(product, batch.pairs)
    return T.scatter_sum(product, getattr(batch, into), batch.n_nodes)


def _edge_rows(batch, trailing=(5,), seed=3):
    draw = np.random.default_rng(seed).normal
    return draw(size=(batch.n_nodes,) + trailing), draw(size=(batch.pairs.edge.size,) + trailing)


@pytest.mark.parametrize("trailing", [(5,), (2, 3)])
@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_product_is_bitwise_the_gather_times_the_expansion(case, trailing):
    batch = _edge_batches()[case]
    nodes, pair_rows = _edge_rows(batch, trailing)
    got = T.edge_product((nodes, batch.dst), (pair_rows, batch.pairs))
    want = T.gather(nodes, batch.dst) * T.gather(pair_rows, batch.pairs)
    assert got.shape == (batch.n_edges,) + trailing
    assert got.data.tobytes() == want.data.tobytes()


def _edge_gradients(batch, fused, second):
    """Gradients of a nonlinear root of the product by both operands; with
    `second`, of the squared recorded gradients instead."""
    nodes, pair_rows = _edge_rows(batch)
    weights = T.Tensor(np.random.default_rng(5).normal(size=(batch.n_edges, 5)))
    tape = T.Tape()
    a, b = tape.tensor(nodes), tape.tensor(pair_rows)
    if fused:
        product = T.edge_product((a, batch.src), (b, batch.pairs))
    else:
        product = T.gather(a, batch.src) * T.gather(b, batch.pairs)
    root = T.sum_(T.sin(product) * weights)
    if second:
        ga, gb = tape.gradient(root, [a, b])
        root = T.sum_(ga * ga) + T.sum_(gb * gb)
    return [g.data for g in tape.gradient(root, [a, b], record=False)]


@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_product_gradients_match_the_composed_ops(case):
    batch = _edge_batches()[case]
    got = _edge_gradients(batch, fused=True, second=False)
    want = _edge_gradients(batch, fused=False, second=False)
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]
    got = _edge_gradients(batch, fused=True, second=True)
    want = _edge_gradients(batch, fused=False, second=True)
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_edge_product_rejects_bad_indices_and_rows():
    batch = _edge_batches()["molecules"]
    nodes, pair_rows = _edge_rows(batch)
    for bad in (-1, batch.n_nodes):
        index = batch.dst.copy()
        index[3] = bad
        with pytest.raises(IndexError):
            T.edge_product((nodes, index), (pair_rows, batch.pairs))
    with pytest.raises(ShapeError):  # one pair row too many
        T.edge_product((nodes, batch.dst), (np.vstack([pair_rows, pair_rows[:1]]), batch.pairs))
    with pytest.raises(ShapeError):  # rows of another width
        T.edge_product((nodes, batch.dst), (pair_rows[:, :4], batch.pairs))
    with pytest.raises(ShapeError):  # an index that misses an edge
        T.edge_product((nodes, batch.dst[:-1]), (pair_rows, batch.pairs))


# every kind of factor: node rows gathered by an index, pair rows expanded
# by the pair index, rows already per edge; and a 1-D scalar per row
FACTOR_KINDS = ["node", "pair", "edge"]
FACTOR_COMBOS = [*itertools.product(FACTOR_KINDS, repeat=2), *itertools.product(FACTOR_KINDS, repeat=3)]


def _factors(batch, kinds, scalar=(), trailing=(2, 3), seed=11, plans=False):
    """Random leaves on a new tape, one per kind (1-D at the positions in
    `scalar`), and each with how its rows reach the edges; node factors
    alternate between `dst` and `src`, given as the index or, with `plans`,
    as the batch's plan of it."""
    draw = np.random.default_rng(seed).normal
    rows = {"node": batch.n_nodes, "pair": batch.pairs.edge.size, "edge": batch.n_edges}
    nodes = (batch.by_dst, batch.by_src) if plans else (batch.dst, batch.src)
    tape, out = T.Tape(), []
    for i, kind in enumerate(kinds):
        leaf = tape.tensor(draw(size=(rows[kind],) + (() if i in scalar else trailing)))
        how = {"node": nodes[i % 2], "pair": batch.pairs, "edge": None}[kind]
        out.append((leaf, how))
    return tape, out


def _composed(factors, trailing, summed):
    """The product as gathers, reshapes and muls."""
    product = None
    for x, how in factors:
        at = x if how is None else T.gather(x, how)
        if at.ndim == 1:
            at = T.reshape(at, (-1,) + (1,) * len(trailing))
        product = at if product is None else product * at
    return T.sum_(product, axis=tuple(range(1, 1 + len(trailing)))) if summed else product


def _product_gradients(batch, kinds, fused, scalar=(), summed=False, trailing=(2, 3), into=None):
    """The product's value, summed `into` nodes or pairs when given, the
    gradients of a nonlinear root of it by every factor, and those of the
    squared recorded gradients. The fused product takes the batch's plans
    for its node rows when it sums them, the composition the indices."""
    tape, factors = _factors(batch, kinds, scalar, trailing, plans=fused and into is not None)
    if fused:
        product = T.edge_product(*factors, summed=summed, into=_target(batch, into))
    else:
        product = _composed(factors, trailing, summed)
        if into is not None:
            product = _summed_rows(product, batch, into)
    weights = T.Tensor(np.random.default_rng(5).normal(size=product.shape))
    leaves = [x for x, _ in factors]
    first = tape.gradient(T.sum_(T.sin(product) * weights), leaves)
    root = None
    for g in first:
        term = T.sum_(g * g)
        root = term if root is None else root + term
    second = tape.gradient(root, leaves, record=False)
    return product.data, [g.data for g in first], [g.data for g in second]


def _assert_product_matches(got, want):
    (value, first, second), (want_value, want_first, want_second) = got, want
    assert value.tobytes() == want_value.tobytes()
    assert [g.tobytes() for g in first] == [g.tobytes() for g in want_first]
    for g, w in zip(second, want_second):
        assert g.shape == w.shape and (g.size == 0 or np.abs(g - w).max() <= 1e-12 * np.abs(w).max())


@pytest.mark.parametrize("kinds", FACTOR_COMBOS, ids="-".join)
@pytest.mark.parametrize("case", EDGE_CASES)
def test_edge_product_of_every_factor_kind_matches_the_composition(case, kinds):
    batch = _edge_batches()[case]
    got = _product_gradients(batch, kinds, fused=True)
    _assert_product_matches(got, _product_gradients(batch, kinds, fused=False))


@pytest.mark.parametrize("into", [None, "src", "dst", "pairs"])
@pytest.mark.parametrize("summed", [False, True])
@pytest.mark.parametrize("scalar", [(), (0,), (1,), (2,)])
@pytest.mark.parametrize("kinds", [("edge", "pair", "node"), ("node", "edge", "pair")], ids="-".join)
def test_scalar_factors_and_summed_products_match_the_composition(kinds, scalar, summed, into):
    # a scalar factor scales every entry of its edge; a summed product is
    # the sum over its trailing axes, as the attention scores are
    batch = _edge_batches()["molecules"]
    for trailing in [(2, 3), (5,)]:
        args = dict(scalar=scalar, summed=summed, trailing=trailing, into=into)
        got = _product_gradients(batch, kinds, fused=True, **args)
        _assert_product_matches(got, _product_gradients(batch, kinds, fused=False, **args))


# two factors of every kind, and three of different kinds in every order
INTO_COMBOS = [*itertools.product(FACTOR_KINDS, repeat=2), *itertools.permutations(FACTOR_KINDS)]


@pytest.mark.parametrize("blocks", ["whole", "tiny"])
@pytest.mark.parametrize("into", ["src", "dst", "pairs"])
@pytest.mark.parametrize("kinds", INTO_COMBOS, ids="-".join)
@pytest.mark.parametrize("case", INTO_CASES)
def test_an_edge_product_summed_into_nodes_or_pairs_matches_the_composition(case, kinds, into, blocks, monkeypatch):
    # bitwise the scatter_sum into nodes or pairs of the plain product, and so are
    # its first-order gradients; in tiny blocks every segment of two or
    # more rows is longer than a block
    if blocks == "tiny":
        monkeypatch.setattr(T, "_BLOCK_ENTRIES", 1)
    batch = _into_batches()[case]
    got = _product_gradients(batch, kinds, fused=True, into=into)
    _assert_product_matches(got, _product_gradients(batch, kinds, fused=False, into=into))


def test_a_sum_into_nodes_forms_no_edge_sized_array():
    # the forward and the backward of a product summed by `src` hold no
    # (E, width) array, where the composition (gather, gather by pairs, mul,
    # scatter_sum) peaked at 3.1 of them: blocks of whole segments, and
    # node and pair rows
    from test_tape_cost import _cluster
    from geomnets.models.common import build_batch

    batch = build_batch([_cluster(400, seed=0)], 5.0)
    edge_array = batch.n_edges * 32 * 8
    assert T._BLOCK_ENTRIES * 8 * 10 < edge_array  # a block is far smaller

    def forward_and_backward(tape, factors):
        summed = T.edge_product(*factors, into=batch.by_src)
        return tape.gradient(T.sum_(T.sin(summed)), [x for x, _ in factors], record=False)

    forward_and_backward(*_factors(batch, ("node", "pair"), trailing=(32,), plans=True))  # one-time allocations
    leaves = _factors(batch, ("node", "pair"), trailing=(32,), plans=True)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _, grad_pairs = forward_and_backward(*leaves)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the pair gradient alone is half an edge array
    assert grad_pairs.shape == (batch.pairs.edge.size, 32)
    assert peak < edge_array


@pytest.mark.parametrize("into", [None, "src", "pairs"])
def test_edge_product_rules_are_edge_products(into):
    # a recorded backward takes no factor to the edges on its own, nor sums
    # one back: each rule is one edge product, summed into its factor's rows
    batch = _edge_batches()["crystal"]
    tape, factors = _factors(batch, ("edge", "pair", "node"))
    root = T.sum_(T.edge_product(*factors, summed=True, into=_target(batch, into)))
    size = len(tape.records)
    tape.gradient(root, [x for x, _ in factors])
    assert Counter(rec.name for rec in tape.records[size:]) == {"edge_product": 3}


@pytest.mark.parametrize("kind", FACTOR_KINDS)
def test_edge_product_refuses_a_factor_that_misses_the_edges(kind):
    batch, other = _edge_batches()["molecules"], _edge_batches()["crystal"]
    _, factors = _factors(batch, ("edge", "pair", "node"))
    at = ("edge", "pair", "node").index(kind)
    x, how = factors[at]

    def refuse(error, bad):
        with pytest.raises(error):
            T.edge_product(*factors[:at], bad, *factors[at + 1 :])

    refuse(ShapeError, (x[:, :1], how))  # rows of another trailing shape
    if kind == "node":
        for bad in (-1, batch.n_nodes):
            index = how.copy()
            index[3] = bad
            refuse(IndexError, (x, index))
        refuse(ShapeError, (x, how[:-1]))  # an index that misses an edge
    elif kind == "pair":
        refuse(ShapeError, (T.concat([x, x[:1]], axis=0), how))  # a pair row too many
        refuse(ShapeError, (np.zeros((other.pairs.edge.size,) + x.shape[1:]), other.pairs))  # other edges
    else:
        refuse(ShapeError, (x[:-1], None))  # an edge row too few


def test_edge_product_refuses_too_few_factors():
    batch = _edge_batches()["molecules"]
    _, factors = _factors(batch, ("edge", "pair"), scalar=(1,))
    with pytest.raises(ContractError):
        T.edge_product(factors[0])
    with pytest.raises(ShapeError):  # a sum needs two factors with trailing axes
        T.edge_product(*factors, summed=True)
