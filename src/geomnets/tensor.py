"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Every operation validates shapes and promotes inputs to float64. A leaf is
checked for finite values when it is created; operations do not check their
results. Values are finite at the boundaries instead: `checked(fn)` runs a
call that builds a tape (a training step's loss and parameter gradients, an
energy and its forces, an evaluation) and checks the arrays it returns. If
one is non-finite, the failed tape is released and the call replays with
every arithmetic operation checking its result, so the NumericError names
the first op that went non-finite and its scope. Ops that are finite by
construction (reshapes, slices, gathers by nodes or pairs, concat,
broadcast, sigmoid, silu and its two derivative ops, sin, cos) are not
checked even then. Sums and `edge_product`, which can overflow, are.

`scope(name)` labels the records made inside it; the models open one per
layer or block, named like its parameters (`layer1`, `block0`), and one
each around their edge geometry (`edges`), type embedding (`embed`),
dimenet's triplet geometry (`triplets`) and the readout (`readout`); a
training step runs its loss in `loss`, which those inner scopes override. A backward
runs each record's vector-Jacobian rules in that record's scope, so a
replayed failure reads "non-finite result in op 'mul' in scope 'layer1'",
or "... in backward of 'layer1'" when the backward produced it.

Backward passes are built out of the same operations. Each record keeps one
vector-Jacobian rule per input on the tape (a watched leaf or a recorded
result); an input off it, a constant or a tensor never watched, gets none.
A backward pass evaluates only the rules of inputs that lie between the
root and the requested tensors. So a tensor must be watched before its
first use: a backward that needs a rule its op did not keep raises a
ContractError naming the op. A backward records its own operations only
when asked to (`record=True`, the default), so that its gradient can itself
be differentiated again, as a position gradient inside a training loss is.
A first-order caller (forces for inference, the parameter gradient of a
step, evaluation) passes `record=False`, gets plain tensors back, and
releases its tape before it returns; one that needs no parameter gradient
leaves the parameters off the tape.

A rule keeps only what it reads: the rule of `mul` or `matmul` for one
operand keeps the other, `div`'s for the dividend keeps the divisor (its
rule for the divisor keeps both), `exp`'s its result, and `add`'s and
`sub`'s only the shapes. So a product whose other operand is a constant or
an unwatched parameter does not hold its taped operand. An unrecorded
backward spends each record it runs: it drops each rule as soon as the rule
has run, each record's incoming gradient once its last rule has read it,
and each gradient sum as soon as a new one replaces it, so the tensors they
kept are freed as the backward goes instead of at `release`. It therefore
runs last on its tape; a later backward that reaches a spent record raises
a ContractError naming its op.

Two fused ops serve the message-passing models. `silu` is one op, a*s(a)
with s the sigmoid, whose rule `mul(g, silu_d1(a))` keeps the input alone;
`silu_d1` and `silu_d2`, its first and second derivatives in closed form,
are one op each with the same kind of rule, and `silu_d2`'s rule is made
of elementary ops, so every order differentiates. A recorded backward
through an activation makes two records where the product of the input
and a sigmoid made six. `edge_product((x, rows), (y, rows), ...)` is a
product on the edges of factors that each say how their rows reach them,
as `gather` takes them, or None (rows already per edge). A 1-D factor is
a scalar per row, and `summed=True` sums the product over its trailing
axes. It is bitwise the left fold of `mul` over the factors so taken, as
one record. `into` sums the product's rows into nodes by a
`geometry.SegmentPlan` or into pairs by a `PairIndex`, bitwise their
`scatter_sum`, forming and summing the product a block of rows at a
time, so no (E, ...) product exists. Its rule for a factor is itself an
edge product of the incoming gradient, whose rows reach the edges as
`into` says, and the other factors, summed into the factor's rows: a
message summed by `src` gets a gradient taken by `src`. So the rules, and
the records a recorded backward makes of them, keep every factor at its
own scale, and a rule for node or pair rows forms no (E, ...) array
either.

Rows move by two ops, each the other's rule. `gather` takes rows to the
edges and `scatter_sum` sums edge rows back, by one of two indices: a
node index, which every op checks once by `geometry.segment_plan` into a
`SegmentPlan`, or a `PairIndex`, whose sum adds each pair's at most two
rows. A batch's plans of `src` and `dst` are made once
(`models.common.build_batch`); a plan derives its order and offsets only
when a sum first reads them. Sums into segments run on `np.bincount`,
one bin per (segment, column), which adds each bin's terms in row order
from 0.0, as `np.add.at` would. Rows that fit one block of
`_BLOCK_ENTRIES` entries are one block by the ids; more run a block of
whole segments at a time, each bin's terms still in row order, so it is
bitwise the sum by the ids, with bin keys and taken rows the size of a
block. `scatter_sum` of rows already formed sums by the ids when they are
not sorted: taking each row once more into segment order costs more than
the keys it saves.

On glibc, importing this module raises the process's mmap and trim
thresholds, so pages a backward frees stay in the process for the next
call instead of going back to the kernel and faulting in again.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
import math
import platform
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.array_utils import normalize_axis_tuple

from .errors import ContractError, NumericError, ParseError, ShapeError
from .geometry import PairIndex, SegmentPlan, segment_plan

_UID = itertools.count()

# per-op finiteness checks: on only while `checked` replays a failed call
_check_ops = False
# the scope new records are made in, and whether a backward is running it
_scope = ""
_in_backward = False

# glibc mallopt parameters and the values set for them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024  # glibc's largest on 64-bit
_TRIM_THRESHOLD_BYTES = 1024 * 1024 * 1024


def _keep_freed_pages() -> None:
    """Serve large arrays from the heap and keep its top when they are freed.

    By default glibc gives a block of 128 KiB or more a mapping of its own
    and unmaps it on free, and trims the free top of the heap, so every
    backward faults its pages in again. Setting either threshold also turns
    off glibc's dynamic mmap threshold, so both are set. Other C libraries
    are left alone.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    libc = ctypes.CDLL(None)
    libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_freed_pages()


class Tensor:
    """A float64 array, optionally attached to a Tape."""

    __slots__ = ("data", "tape", "uid")

    def __init__(self, values):
        self.data = np.asarray(values, dtype=np.float64)
        self.tape = None
        self.uid = next(_UID)
        if not np.isfinite(self.data).all():
            raise NumericError("tensor created with non-finite values")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # arithmetic sugar; plain numbers and arrays become constants
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, key):
        return slice_(self, key)


@dataclass
class _Record:
    """One executed operation: inputs, output and one vector-Jacobian rule
    per input, mapping the output's gradient to that input's contribution
    (None for an input that was off the tape), and the scope the operation
    ran in. An unrecorded backward that runs the rules sets `vjps` to None
    and drops each rule once it has run, which frees what they kept."""

    name: str
    input_uids: tuple[int, ...]
    output_uid: int
    vjps: tuple[Callable[[Tensor], Tensor] | None, ...] | None
    scope: str

    def site(self) -> str:
        return f"op '{self.name}'" + (f" in scope '{self.scope}'" if self.scope else "")


@dataclass
class Tape:
    """Append-only record of operations for one differentiation context."""

    records: list[_Record] = field(default_factory=list)
    _recording: bool = True

    def watch(self, tensor: Tensor) -> Tensor:
        """Mark a leaf whose gradient should be tracked."""
        if tensor.tape is not None:  # only a tensor on a tape can be a result; a fresh leaf needs no scan
            if tensor.tape is not self:
                raise ContractError("tensor already belongs to a different tape")
            if any(rec.output_uid == tensor.uid for rec in self.records):
                raise ContractError("only leaf tensors can be watched")
        tensor.tape = self
        return tensor

    def tensor(self, values) -> Tensor:
        """A watched leaf holding `values`."""
        return self.watch(Tensor(values))

    def release(self) -> None:
        """Drop the records once the tape is done.

        Records close over the tape's own tensors, which point back at the
        tape, so a finished tape is a reference cycle; releasing it lets
        reference counting free the tensors right away instead of the cyclic
        collector some time later. An unrecorded backward has already freed
        what the rules it ran kept; this frees the rest, the rules it did not
        reach and the records themselves. The tape is unusable afterwards.
        """
        self.records.clear()

    def gradient(self, root: Tensor, wrt: Sequence[Tensor], *, record: bool = True) -> list[Tensor]:
        """Gradients of a scalar root w.r.t. the given tensors.

        Tensors that do not influence the root get zero gradients. With
        `record` (the default) the backward's operations are recorded on the
        tape, so the returned gradients stay differentiable. With
        `record=False` they run unrecorded: the tape does not grow, and the
        gradients, bitwise the same, are plain tensors off the tape. Each
        record's rules run in that record's scope.

        An unrecorded backward also spends the records whose rules it runs:
        it drops each rule as soon as it has run, a record's incoming
        gradient before the sum of its last rule's term, and keeps no
        replaced gradient sum or summed-in term past its add, so the
        tensors they held are freed during the backward rather than at
        `release`. The
        records stay, with their name, scope and uids. Run it last on a
        tape: a later backward that needs a spent record raises a
        ContractError naming its op, and one over records it did not run
        still works.

        A record keeps no rule for an input that was off the tape when it
        ran. A backward that needs one, for a `wrt` tensor never watched or
        watched only after its first use, raises a ContractError naming the
        op and its scope.
        """
        global _scope, _in_backward
        if root.tape is not self:
            raise ContractError("root tensor is not on this tape")
        if root.size != 1:
            raise ContractError("backward root must be a scalar")
        # a snapshot, as a recorded backward appends; a record made after
        # the root never receives a gradient, so it is neither run nor spent
        records = list(self.records)

        # which inputs of each record descend from any wrt tensor, as a bit
        # mask: 0 when its output does not. A gradient reaches only what the
        # root reaches, so this is the only pruning; the set of descending
        # uids is gone before the first rule runs
        descends: set[int] = {t.uid for t in wrt}
        masks = []
        for rec in records:
            mask = 0
            for i, uid in enumerate(rec.input_uids):
                if uid in descends:
                    mask |= 1 << i
            if mask:
                descends.add(rec.output_uid)
            masks.append(mask)
        del descends

        grads: dict[int, Tensor] = {root.uid: Tensor(np.ones_like(root.data))}
        outer = _scope, _in_backward
        self._recording = record
        _in_backward = True
        try:
            for rec, mask in zip(reversed(records), reversed(masks)):
                g = grads.pop(rec.output_uid, None)
                if g is None or not mask:
                    continue
                rules = rec.vjps
                if rules is None:
                    raise ContractError(f"{rec.site()} was spent by an earlier unrecorded backward")
                if not record:  # spend the record, and each rule as soon as it has run
                    rec.vjps, rules = None, list(rules)
                _scope = rec.scope
                last = mask.bit_length() - 1
                for i, uid in enumerate(rec.input_uids):
                    if not mask >> i & 1:
                        continue
                    if rules[i] is None:
                        raise ContractError(
                            f"{rec.site()} kept no rule for an input off the tape when it ran;"
                            " watch a tensor before its first use"
                        )
                    term = rules[i](g)
                    if not record:
                        rules[i] = None
                    if i == last:  # no rule reads it again: free it before the sum
                        del g
                    # no local keeps the term or the sum it replaces into the next rule
                    grads[uid] = add(grads[uid], term) if uid in grads else term
                    del term
        finally:
            self._recording = True
            _scope, _in_backward = outer
        out = []
        for t in wrt:
            g = grads.get(t.uid)
            out.append(g if g is not None else Tensor(np.zeros_like(t.data)))
        return out


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ops that map finite inputs to finite outputs; a replay checks every other op
_FINITE_BY_CONSTRUCTION = frozenset(
    {
        "reshape", "transpose2", "slice", "unslice", "concat", "gather", "broadcast",
        "sigmoid", "silu", "silu_d1", "silu_d2", "sin", "cos",
    }
)


def _finite(data: np.ndarray) -> bool:
    return bool(np.isfinite(data).all())


def _where(name: str) -> str:
    where = f"op '{name}'"
    if _in_backward:
        return f"{where} in backward of '{_scope}'" if _scope else f"{where} in a backward"
    return f"{where} in scope '{_scope}'" if _scope else where


def _op(name: str, inputs: Sequence[Tensor], data: np.ndarray, vjps: tuple) -> Tensor:
    if _check_ops and name not in _FINITE_BY_CONSTRUCTION and not _finite(data):
        raise NumericError(f"non-finite result in {_where(name)}")
    tape, off_tape = None, False
    for t in inputs:
        if t.tape is None:
            off_tape = True
        elif tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("operands live on different tapes")
    if tape is not None and not tape._recording:
        tape = None  # an unrecorded backward: the result is a plain tensor
    out = Tensor.__new__(Tensor)
    out.data = data
    out.tape = tape
    out.uid = next(_UID)
    if tape is not None:
        if off_tape:  # keep no rule, nor what it closes over, for an input off the tape
            vjps = tuple([None if t.tape is None else vjp for t, vjp in zip(inputs, vjps)])
        tape.records.append(_Record(name, tuple(t.uid for t in inputs), out.uid, vjps, _scope))
    return out


@contextlib.contextmanager
def scope(name: str):
    """Label the records made inside with `name`; the innermost scope wins."""
    global _scope
    outer, _scope = _scope, name
    try:
        yield
    finally:
        _scope = outer


def _arrays(out):
    """The arrays among `out`: tensors, arrays and numbers, nested in tuples
    and lists; None is skipped."""
    if isinstance(out, Tensor):
        yield out.data
    elif isinstance(out, (tuple, list)):
        for item in out:
            yield from _arrays(item)
    elif out is not None:
        yield np.asarray(out, dtype=np.float64)


def checked(fn: Callable[[Tape], object]) -> tuple[Tape, object]:
    """Run `fn(tape)` on a fresh tape; return the tape and what `fn` returned,
    every array in it finite. The caller releases the tape when done; if
    `fn` raises, the tape is released before the error goes on.

    Operations do not check their own results, so this is where a non-finite
    value is caught, or a NumericError from a leaf made of one. Then the
    failed tape is released and `fn` runs again on a new tape with every
    operation checking its result, which raises a NumericError naming the
    first op, and its scope, that went non-finite; `fn` must compute the
    same values when called again. Should the replay find no failing op, a
    NumericError is raised all the same.
    """
    global _check_ops
    # floating-point warnings would only repeat what the check reports
    with np.errstate(all="ignore"):
        tape = Tape()
        try:
            out = fn(tape)
            if all(_finite(a) for a in _arrays(out)):
                return tape, out
        except NumericError:
            pass
        except BaseException:
            tape.release()
            raise
        tape.release()
        tape = Tape()
        outer, _check_ops = _check_ops, True
        try:
            fn(tape)
        finally:
            _check_ops = outer
            tape.release()
    raise NumericError("non-finite result, but no op produced one when the call was replayed")


def _unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Sum a gradient back down to the shape of a broadcast operand."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = sum_(g, axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = sum_(g, axis=axes, keepdims=True)
    if g.shape != shape:
        raise ShapeError(f"cannot reduce gradient {g.shape} to {shape}")
    return g


# The rules of add and sub read only their operands' shapes, so they keep
# those: keeping the operands would hold every bias add's matmul result, and
# both terms of every gradient sum in a recorded backward, as long as the tape.
def add(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    return _op(
        "add",
        (a, b),
        a.data + b.data,
        (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(g, sb)),
    )


def sub(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    return _op(
        "sub",
        (a, b),
        a.data - b.data,
        (lambda g: _unbroadcast(g, sa), lambda g: _unbroadcast(mul(g, -1.0), sb)),
    )


# The rules of mul, div and matmul close over the partner operand and the
# shapes, so a record whose other input is off the tape, and so keeps no
# rule for it, does not hold its taped operand. Only div's rule for the
# divisor reads the divisor itself.
def mul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    return _op(
        "mul",
        (a, b),
        a.data * b.data,
        (lambda g: _unbroadcast(mul(g, b), sa), lambda g: _unbroadcast(mul(g, a), sb)),
    )


def div(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    with np.errstate(all="ignore"):
        data = a.data / b.data
    return _op(
        "div",
        (a, b),
        data,
        (
            lambda g: _unbroadcast(div(g, b), sa),
            lambda g: _unbroadcast(mul(div(mul(g, a), mul(b, b)), -1.0), sb),
        ),
    )


def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError("matmul operands need at least two dimensions")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul inner dims differ: {sa} @ {sb}")
    return _op(
        "matmul",
        (a, b),
        a.data @ b.data,
        (
            lambda g: _unbroadcast(matmul(g, transpose2(b)), sa),
            lambda g: _unbroadcast(matmul(transpose2(a), g), sb),
        ),
    )


def transpose2(a) -> Tensor:
    """Swap the last two axes."""
    a = _coerce(a)
    if a.ndim < 2:
        raise ShapeError("transpose2 needs at least two dimensions")
    return _op("transpose2", (a,), np.swapaxes(a.data, -1, -2), (transpose2,))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _coerce(a)
    old = a.shape
    return _op("reshape", (a,), a.data.reshape(shape), (lambda g: reshape(g, old),))


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = [_coerce(t) for t in tensors]
    if not tensors:
        raise ContractError("concat needs at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    ax = axis if axis >= 0 else data.ndim + axis
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def piece(i):
        key = [slice(None)] * data.ndim
        key[ax] = slice(int(offsets[i]), int(offsets[i + 1]))
        key = tuple(key)
        return lambda g: slice_(g, key)

    return _op("concat", tensors, data, tuple(piece(i) for i in range(len(tensors))))


def slice_(a, key) -> Tensor:
    """Basic slicing (slices and ints only; use gather for index arrays)."""
    a = _coerce(a)
    _check_basic_key(key)
    in_shape = a.shape
    return _op("slice", (a,), a.data[key], (lambda g: unslice(g, key, in_shape),))


def unslice(g, key, shape: tuple[int, ...]) -> Tensor:
    """Adjoint of slice_: embed into zeros of the original shape."""
    g = _coerce(g)
    _check_basic_key(key)
    data = np.zeros(shape, dtype=np.float64)
    data[key] = g.data
    return _op("unslice", (g,), data, (lambda gg: slice_(gg, key),))


def _check_basic_key(key) -> None:
    parts = key if isinstance(key, tuple) else (key,)
    for p in parts:
        if not isinstance(p, (slice, int, np.integer)):
            raise ContractError("slice accepts slices and ints only")


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    """The logistic function of `x`, a fresh array even for 0-d input, where
    ufuncs would return scalars."""
    e = np.abs(x, out=np.empty(np.shape(x)))
    np.negative(e, out=e)
    np.exp(e, out=e)
    # e <= 1, so the numerator is 1 where x >= 0 and e elsewhere: the same
    # 1/(1+e) and e/(1+e) as a two-branch select, without computing both
    data = np.maximum(e, x >= 0, out=np.empty_like(e))
    e += 1.0
    data /= e
    return data


def sigmoid(a) -> Tensor:
    a = _coerce(a)
    out = _op("sigmoid", (a,), _sigmoid_data(a.data), (lambda g: mul(g, mul(out, sub(1.0, out))),))
    return out


# SiLU a*s(a), s the sigmoid, and its first two derivatives are one op each,
# computed in place on the sigmoid's array; each rule keeps the input alone.
# For finite input all three are finite: s, 1 - s and |1 - 2s| are at most 1,
# so no factor exceeds |a| + 2.
def silu(a) -> Tensor:
    a = _coerce(a)
    data = _sigmoid_data(a.data)
    data *= a.data
    return _op("silu", (a,), data, (lambda g: mul(g, silu_d1(a)),))


def silu_d1(a) -> Tensor:
    """The derivative of `silu`, s (1 + a (1 - s))."""
    a = _coerce(a)
    s = _sigmoid_data(a.data)
    data = np.subtract(1.0, s, out=np.empty_like(s))
    data *= a.data
    data += 1.0
    data *= s
    return _op("silu_d1", (a,), data, (lambda g: mul(g, silu_d2(a)),))


def silu_d2(a) -> Tensor:
    """The second derivative of `silu`, s (1 - s) (2 + a (1 - 2s))."""
    a = _coerce(a)
    data = _sigmoid_data(a.data)
    q = np.subtract(1.0, data)
    q *= data
    data *= -2.0
    data += 1.0
    data *= a.data
    data += 2.0
    data *= q
    return _op("silu_d2", (a,), data, (lambda g: mul(g, _silu_d3(a)),))


def _silu_d3(a: Tensor) -> Tensor:
    """The third derivative of `silu`, q ((1 - 2s)(3 + a (1 - 2s)) - 2 a q)
    with q = s (1 - s), of elementary ops, so it differentiates again."""
    s = sigmoid(a)
    q = mul(s, sub(1.0, s))
    u = sub(1.0, mul(s, 2.0))
    return mul(q, sub(mul(u, add(mul(a, u), 3.0)), mul(mul(a, q), 2.0)))


def exp(a) -> Tensor:
    a = _coerce(a)
    with np.errstate(all="ignore"):
        data = np.exp(a.data)
    out = _op("exp", (a,), data, (lambda g: mul(g, out),))
    return out


def log(a) -> Tensor:
    a = _coerce(a)
    with np.errstate(all="ignore"):
        data = np.log(a.data)
    return _op("log", (a,), data, (lambda g: div(g, a),))


def sin(a) -> Tensor:
    a = _coerce(a)
    return _op("sin", (a,), np.sin(a.data), (lambda g: mul(g, cos(a)),))


def cos(a) -> Tensor:
    a = _coerce(a)
    return _op("cos", (a,), np.cos(a.data), (lambda g: mul(mul(g, sin(a)), -1.0),))


def power(a, p: float) -> Tensor:
    a = _coerce(a)
    p = float(p)
    with np.errstate(all="ignore"):
        data = a.data**p
    return _op("power", (a,), data, (lambda g: mul(g, mul(power(a, p - 1.0), p)),))


def _sum_data(data: np.ndarray, axes: tuple[int, ...] | None, keepdims: bool) -> np.ndarray:
    """`data.sum(axes, keepdims=keepdims)`, bitwise.

    numpy sums fewer than eight terms one at a time from +0.0, but over a
    short inner axis it pays its per-row loop set-up for every few terms. So
    one non-leading axis of length 2-7 is summed by adding its slices in the
    same order, from +0.0, which is the same arithmetic done a row at a time.
    """
    if axes is None or len(axes) != 1 or axes[0] == 0 or not 2 <= data.shape[axes[0]] <= 7:
        return data.sum(axis=axes, keepdims=keepdims)
    ax = axes[0]
    key = [slice(None)] * data.ndim
    key[ax] = 0
    out = data[tuple(key)] + 0.0
    for k in range(1, data.shape[ax]):
        key[ax] = k
        out += data[tuple(key)]
    return np.expand_dims(out, ax) if keepdims else out


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    in_shape = a.shape
    axes = _norm_axes(axis, len(in_shape))
    data = _sum_data(a.data, axes, keepdims)

    def vjp(g):
        if not keepdims:
            g = reshape(g, tuple(1 if axes is None or i in axes else d for i, d in enumerate(in_shape)))
        return broadcast_to(g, in_shape)

    return _op("sum", (a,), data, (vjp,))


def broadcast_to(a, shape: tuple[int, ...]) -> Tensor:
    """Copy `a` out to `shape` under numpy broadcasting rules."""
    a = _coerce(a)
    in_shape = a.shape
    # a contiguous copy, not a zero-stride view: numpy's matmul leaves BLAS
    # for such a view, which is slower and need not round the same
    data = np.broadcast_to(a.data, shape).copy()
    return _op("broadcast", (a,), data, (lambda g: _unbroadcast(g, in_shape),))


def _norm_axes(axis, ndim) -> tuple[int, ...] | None:
    """`axis` as a tuple of axes in range(ndim); AxisError for one outside."""
    return None if axis is None else normalize_axis_tuple(axis, ndim)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    axes = _norm_axes(axis, a.ndim)
    if axes is None:
        count = a.size
    else:
        count = int(np.prod([a.shape[i] for i in axes]))
    if count == 0:
        raise ContractError("mean over an empty axis")
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def norm(a, axis: int = -1, keepdims: bool = False, eps: float = 0.0) -> Tensor:
    """Euclidean norm along one axis; pass eps > 0 when zeros can occur."""
    a = _coerce(a)
    sq = sum_(mul(a, a), axis=axis, keepdims=keepdims)
    if eps:
        sq = add(sq, eps * eps)
    return power(sq, 0.5)


def _index(index, n: int | None):
    """How rows reach the edges, checked against `n` rows (None: the
    index's own count): a `PairIndex` as it is, else the `SegmentPlan` that
    `geometry.segment_plan` makes of a node index, or the plan itself."""
    if not isinstance(index, PairIndex):
        return segment_plan(index, n)
    if n is not None and n != index.edge.size:
        raise ShapeError(f"{n} rows do not match {index.edge.size} pairs")
    return index


def _slots(index) -> np.ndarray:
    """The row each edge of a `SegmentPlan` or `PairIndex` reads."""
    return index.slot if isinstance(index, PairIndex) else index.index


def gather(a, index) -> Tensor:
    """Rows along the leading axis taken to the edges of `index`: a node
    index or `SegmentPlan`, or a `PairIndex`, whose edges read their pair's
    row. Its rule is `scatter_sum` into the same index."""
    a = _coerce(a)
    if a.ndim < 1:
        raise ShapeError("gather needs at least one dimension")
    index = _index(index, a.shape[0])
    # take reads the same rows as fancy indexing, in less time
    return _op("gather", (a,), a.data.take(_slots(index), axis=0), (lambda g: scatter_sum(g, index),))


# entries of one block of a blocked sum: the rows it takes, their product
# and their bin keys each stay this size
_BLOCK_ENTRIES = 1 << 15


def _block_rows(trailing: tuple[int, ...]) -> int:
    return max(1, _BLOCK_ENTRIES // max(1, math.prod(trailing)))


def _segment_sums(take, plan: SegmentPlan, trailing: tuple[int, ...], per_block: int | None = None) -> np.ndarray:
    """Rows summed into the segments of a plan, (S, *trailing), in blocks
    of `per_block` rows (default: `_BLOCK_ENTRIES` entries); `take(rows)`
    gives the rows at a slice or an int array of rows.

    One bin per (segment, column), which `np.bincount` fills adding its
    terms in row order from 0.0, exactly as `np.add.at` would. A block
    holds whole segments, each segment's rows in row order, so each bin
    adds the same terms in the same order with keys and rows the size of a
    block."""
    n, width = plan.n_segments, math.prod(trailing)
    out = np.empty((n, width))
    cols = np.arange(width)
    for rows, first, end in plan.blocks(_block_rows(trailing) if per_block is None else per_block):
        # the keys filled in place: a broadcast sum would take two buffers
        base = plan.index[rows] - first
        base *= width
        keys = np.empty((base.size, width), dtype=np.int64)
        np.copyto(keys, cols)
        keys += base[:, None]
        sums = np.bincount(keys.reshape(-1), weights=take(rows).reshape(-1), minlength=(end - first) * width)
        out[first:end] = sums.reshape(end - first, width)
    return out.reshape((n,) + trailing)


def _pair_sums(take, pairs: PairIndex, trailing: tuple[int, ...]) -> np.ndarray:
    """Each pair's edge rows summed, (P, *trailing), a block of edge rows at
    a time in row order; `take(rows)` gives the rows at a slice of rows.

    A pair's lower row, its representative, comes first: it is written,
    the flipped row added after it, and the sum added to +0.0, which is
    bitwise the lower row added to +0.0 and the flipped row after it: the
    sum into the pair slots, byte for byte."""
    n_edges = pairs.slot.size
    out = np.empty((pairs.edge.size,) + trailing)
    flips = np.flatnonzero(pairs.flipped)
    bounds = [*range(0, n_edges, _block_rows(trailing)), n_edges]
    # where each block's pairs, numbered by their representatives, and its
    # flipped rows begin
    rep_cuts = np.searchsorted(pairs.edge, bounds).tolist()
    flip_cuts = np.searchsorted(flips, bounds).tolist()
    for k, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        block = take(slice(start, stop))
        reps, flipped = slice(rep_cuts[k], rep_cuts[k + 1]), flips[flip_cuts[k] : flip_cuts[k + 1]]
        out[reps] = block.take(pairs.edge[reps] - start, axis=0)
        out[pairs.slot[flipped]] += block.take(flipped - start, axis=0)  # a pair has one flipped row at most
    out += 0.0  # a -0.0 sum, which only two -0.0 rows make, becomes +0.0
    return out


def _take(data: np.ndarray, rows) -> np.ndarray:
    return data[rows] if isinstance(rows, slice) else data.take(rows, axis=0)


def _factor(x, rows, n_edges: int | None) -> tuple[Tensor, object, int]:
    """One factor of `edge_product`: its tensor, how its rows reach the
    edges (a `SegmentPlan`, a `PairIndex` or None) and the edges they
    reach, which must be `n_edges` when that is known."""
    x = _coerce(x)
    if x.ndim < 1:
        raise ShapeError("an edge product factor needs a row axis")
    if rows is None:
        edges = x.shape[0]
    else:
        rows = _index(rows, x.shape[0])
        edges = _slots(rows).size
    if n_edges is not None and edges != n_edges:
        raise ShapeError(f"factor {x.shape} reaches {edges} edges, not {n_edges}")
    return x, rows, edges


def _at_edges(x: Tensor, how, rows, trailing: int) -> np.ndarray:
    """The rows of `x` taken to the edge rows `rows` (a slice or an int
    array), a scalar factor's as a column with `trailing` unit axes."""
    data = _take(x.data, rows) if how is None else x.data.take(_slots(how)[rows], axis=0)
    return data.reshape(data.shape + (1,) * trailing) if x.ndim == 1 else data


def _product_at(parts, rows, trailing: tuple[int, ...], summed: bool) -> np.ndarray:
    """The product of `parts` at the edge rows `rows`: the first factor's
    rows, the others multiplied in, in place once the array is the op's."""
    data, owned = None, False
    for x, how in parts:
        at = _at_edges(x, how, rows, len(trailing))
        if data is None:
            data, owned = at, how is not None or not isinstance(rows, slice)
        elif owned and data.shape[1:] == trailing:
            data *= at
        else:  # the caller's array, or a column
            data, owned = np.multiply(data, at), True
        del at  # before the next factor's rows are taken
    return _sum_data(data, tuple(range(1, data.ndim)), False) if summed else data


def edge_product(*factors, summed: bool = False, into=None) -> Tensor:
    """The product on the edges of `factors`, each a pair `(x, rows)` that
    says how the rows of `x` reach the edges, as `gather` takes them: a
    node index or `geometry.SegmentPlan`, a `geometry.PairIndex`, or None
    (`x` has a row per edge). A factor is full, of the product's trailing
    shape, or a scalar per row, 1-D, which scales all of its edge's
    entries. The product is bitwise the left fold of `mul` over the factors
    so taken (a scalar reshaped to broadcast), (E, ...); `summed` sums it
    over its trailing axes, (E,), as `sum_` would, and then needs two full
    factors.

    `into` sums the product's rows into the nodes of a `SegmentPlan` or
    the pairs of a `PairIndex`, bitwise `scatter_sum`; None keeps a row
    per edge. The product is formed and summed a block of rows at a time,
    so no (E, ...) array exists.

    One record. Its rule for a factor is itself an edge product of the
    incoming gradient, whose rows reach the edges as `into` says, and the
    other factors, summed into the factor's rows: summed over the trailing
    axes for a scalar factor, and with a scalar gradient for a summed
    product. The rule multiplies in the order of the fold's chain rule, so
    first-order gradients are bitwise those of the composition for up to
    three factors. Neither the forward nor its recorded backward keeps an
    (E, ...) copy of a node or pair factor."""
    if len(factors) < 2:
        raise ContractError("an edge product needs at least two factors")
    parts, n_edges = [], None
    for x, rows in factors:
        x, rows, n_edges = _factor(x, rows, n_edges)
        parts.append((x, rows))
    full = [x.shape for x, _ in parts if x.ndim > 1]
    trailing = full[0][1:] if full else ()
    if any(shape[1:] != trailing for shape in full):
        raise ShapeError(f"edge product factors {[x.shape for x, _ in parts]} differ in trailing shape")
    if summed and len(full) < 2:
        raise ShapeError("a summed edge product needs two factors with trailing axes")
    if into is not None:
        if not isinstance(into, (PairIndex, SegmentPlan)):
            raise ContractError(f"an edge product sums into a SegmentPlan or a PairIndex, not {type(into).__name__}")
        covered = _slots(into).size
        if covered != n_edges:
            raise ShapeError(f"the sum's {type(into).__name__} covers {covered} edges, not {n_edges}")
    take = lambda rows: _product_at(parts, rows, trailing, summed)
    if into is None:
        data = take(slice(None))
    elif isinstance(into, PairIndex):
        data = _pair_sums(take, into, () if summed else trailing)
    else:
        data = _segment_sums(take, into, () if summed else trailing)

    def rule(i):
        x, rows = parts[i]
        # g times the factors after the i-th, last first, then the product of those before it
        order = [*parts[:i], None] if i == len(parts) - 1 else [None, *parts[:i:-1], *parts[:i]]
        scalar = x.ndim == 1 and len(trailing) > 0
        return lambda g: edge_product(*[(g, into) if p is None else p for p in order], summed=scalar, into=rows)

    return _op("edge_product", tuple(x for x, _ in parts), data, tuple(rule(i) for i in range(len(parts))))


def scatter_sum(values, into, num_segments: int | None = None) -> Tensor:
    """Rows of `values` summed along axis 0, the adjoint of `gather`: into
    `num_segments` nodes by a node index, into the nodes of a `SegmentPlan`,
    or into the pairs of a `PairIndex`, each pair's at most two edge rows
    added. A sum into nodes runs a block of whole segments at a time when
    the plan's index is sorted (a batch's `src`), and otherwise by the ids
    in one block: taking each row once more into segment order costs more
    than the keys it saves. The result is the same either way, byte for
    byte. Its rule is `gather` by the same index."""
    values = _coerce(values)
    into = _index(into, num_segments)
    edges = _slots(into).size
    if values.ndim < 1 or values.shape[0] != edges:
        raise ShapeError(f"values {values.shape} do not match {edges} edges along the leading axis")
    take = lambda rows: _take(values.data, rows)
    if isinstance(into, PairIndex):
        data = _pair_sums(take, into, values.shape[1:])
    else:
        data = _segment_sums(take, into, values.shape[1:], None if into.sorted else edges)
    return _op("scatter_sum", (values,), data, (lambda g: gather(g, into),))


def segment_softmax(scores: Tensor, index, num_segments: int | None = None) -> Tensor:
    """Softmax over rows sharing a segment, by a node index into
    `num_segments` or by a `SegmentPlan`, stabilized by the segment max.

    The subtracted max is treated as a constant, which leaves both the value
    and the gradient of the softmax unchanged.
    """
    plan = segment_plan(index, num_segments)
    if scores.shape != plan.index.shape:
        raise ShapeError(f"segment_softmax expects 1-D scores, one per row of the index, not {scores.shape}")
    raw_max = np.full(plan.n_segments, -np.inf)
    np.maximum.at(raw_max, plan.index, scores.data)
    raw_max[~np.isfinite(raw_max)] = 0.0
    e = exp(sub(scores, Tensor(raw_max[plan.index])))
    return div(e, gather(scatter_sum(e, plan), plan))


# ---------------------------------------------------------------------------
# multi-layer perceptrons


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_mlp(widths: tuple[int, ...], rng: np.random.Generator, prefix: str) -> dict[str, np.ndarray]:
    """A dense network of `widths`, e.g. (in, hidden, out), as the weights
    `{prefix}.w0`, `{prefix}.b0`, `{prefix}.w1`, ...; they are all that
    `mlp_apply` reads of its shape."""
    if len(widths) < 2 or any(w < 1 for w in widths):
        raise ContractError(f"dense network '{prefix}' needs at least two positive widths, got {widths}")
    params: dict[str, np.ndarray] = {}
    for i, (fi, fo) in enumerate(zip(widths[:-1], widths[1:])):
        params[f"{prefix}.w{i}"] = glorot_uniform(rng, fi, fo)
        params[f"{prefix}.b{i}"] = np.zeros(fo)
    return params


def mlp_apply(params: dict[str, Tensor], x: Tensor, prefix: str) -> Tensor:
    """The dense network under `prefix`: layers w0, w1, ... for as long as
    they exist, with SiLU between them."""
    if f"{prefix}.w0" not in params:
        raise ContractError(f"no dense network under '{prefix}'")
    h = add(matmul(x, params[f"{prefix}.w0"]), params[f"{prefix}.b0"])
    i = 1
    while f"{prefix}.w{i}" in params:
        h = add(matmul(silu(h), params[f"{prefix}.w{i}"]), params[f"{prefix}.b{i}"])
        i += 1
    return h


def lift(params: dict[str, np.ndarray], tape: Tape | None = None) -> dict[str, Tensor]:
    """Wrap a numpy parameter dict as tensors, watched when a tape is given."""
    out: dict[str, Tensor] = {}
    for k, v in params.items():
        t = Tensor(v)
        if tape is not None:
            tape.watch(t)
        out[k] = t
    return out


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, params: dict[str, np.ndarray]) -> None:
    """Write named parameters as JSON: {name: {shape, values}}, sorted keys."""
    payload = {
        name: {"shape": list(arr.shape), "values": np.asarray(arr, dtype=np.float64).reshape(-1).tolist()}
        for name, arr in params.items()
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read what save_checkpoint wrote; ParseError if the file is not that.
    Training never writes a non-finite value, so NaN or Infinity is too."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"checkpoint {path} is not a JSON object")
    out = {}
    for name, entry in payload.items():
        try:
            out[name] = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"checkpoint {path}: parameter '{name}' is malformed: {exc!r}") from exc
        if not np.isfinite(out[name]).all():
            raise ParseError(f"checkpoint {path}: parameter '{name}' has a non-finite value")
    return out
