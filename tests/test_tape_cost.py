"""Pinned tape sizes and finiteness checks of one energy+force training step
per model family.

A step records the forward pass, the force backward (dE/dpos) and the loss
on one tape; the loss backward, which nothing differentiates again, runs
unrecorded. The counts are exact: a backward that again evaluates a
vector-Jacobian rule nobody asked for, an op that comes back, or a backward
recorded without need changes them. Scopes add no records, and every
record of a step carries one.

Values are checked for finite entries at the step's boundary only: the loss
and one gradient per parameter, so a step makes one check more than the
model has parameters. An operation that checked its own result again would
change these counts too. The setup is that of `test_parity.py`. A change
that alters the tape on purpose updates the tables and says why.

An energy forward records only what its energy reads: `ModelHandle.energy`
asks the family's forward for no vectors. egnn's last layer then skips its
gate network and coordinate sum, and its readout the displacement (10
records); painn's last layer skips its vector update, and its readout the
vector mix (6); tfn's and se3attn's last layer outputs no degree-1 block
(its mix, its row segments, their concat, the matmul and the residual's
add), and the readout mixes no vectors (13 each). schnet and leaky no
longer divide the edge vectors by their lengths for unit vectors they
never read, and dimenet's order-0 spherical Bessel function takes no
cosine (1 each). None of these records was reached by a backward. That
moved the pins dimenet 354 -> 353, egnn 171 -> 161, leaky 142 -> 141,
painn 318 -> 312, schnet 137 -> 136, se3attn 754 -> 741 and tfn 476 -> 463,
and the energy-only pins egnn 68 -> 58, painn 104 -> 98, se3attn 279 -> 266
and tfn 154 -> 141. An energy-only step watches no positions, so its edge
geometry is unrecorded and the energy-only pins of schnet, leaky and
dimenet stay. The parameters, and so the checks, are the same.

Work runs on the set it depends on. dimenet computes its distance
expansions, envelopes and unit vectors per edge and gathers them to the
triplets, applies its block networks' first layer to the (message,
distance) rows per edge and their linear second layer after the sum over
triplets; painn computes its radial basis and unit vectors once per
forward instead of once per layer and runs phi per node. That moved the
pins dimenet 473 -> 370 and painn 385 -> 341, and dimenet's records with a
row per triplet 326 -> 82, which `TRIPLET_RECORDS_PER_STEP` pins.

Every family with a radial basis builds its edge lengths, unit vectors,
envelope and enveloped basis once per forward with
`invariant.edge_geometry`, which takes the lengths with the norm's kept
axis so no reshape turns them into a column. schnet, leaky, dimenet, tfn
and se3attn evaluated the envelope twice, tfn and se3attn the norm twice,
and the envelope was reshaped in every layer that read it; the degree-0
harmonics took three coordinate slices nothing read. That moved the pins
schnet 148 -> 133, leaky 153 -> 138, dimenet 370 -> 350, painn 341 -> 336,
tfn 605 -> 583 and se3attn 873 -> 851, and dimenet's triplet records
82 -> 78 (the reshape of each block's incoming envelopes and its backward).

An edge and its reverse share their length, and their directions differ
in sign only, so the edge geometry, the filter and radial networks and the
enveloped harmonics run once per edge pair and are gathered to the edges:
every record in scope `edges` and every filter or radial matmul has a row
per pair. Each of those expansions (a `gather` by the pair index, whose
adjoint, a `scatter_sum` into the pairs, adds a pair's two rows) adds a
record and its backward a second:
schnet and leaky one per layer for the filter, painn one per layer for the
filter and one (with the sign's mul) for the unit vectors, tfn and se3attn
one (with the sign's mul) for the harmonics and one per message set and
input block for the radial outputs, dimenet one for the basis of the first
message layer and one for the readout's envelopes. That moved the pins
schnet 133 -> 137, leaky 138 -> 142, dimenet 350 -> 354, painn 336 -> 344,
tfn 583 -> 595 and se3attn 851 -> 869; the records are fewer rows, not
fewer records. A per-edge reference, the forward with every edge a pair of
its own, gives bitwise the same energies on open graphs, where an edge's
vector is exactly the negated vector of its reverse; periodic energies and
all forces agree with it to 1e-12.

schnet and leaky apply their input transform `win` per atom and gather its
rows to the edges, where they gathered the atoms' rows and applied it per
edge: a matmul and a gather trade places, so the pins stay.

tfn and se3attn hold their features as one (N, mult, 2l+1) tensor per
degree block. Before, each layer concatenated its output blocks into one
flat row (a reshape per block and a concat), and every read of a block cut
it out again (a slice and a reshape); each slice's backward padded its
gradient to the full row (`unslice`), and an add summed the padded
gradients. The energy reads only the last layer's degree-0 block, yet the
concat's backward handed zero gradients to its degree-1 and degree-2
blocks, which the force backward carried back through their mix. That
moved the pins tfn 595 -> 506 and se3attn 869 -> 784.

The last convolution of a steerable stack (tfn's last layer, the only
layer of a one-layer se3attn) outputs only the blocks the readout reads,
degrees 0 and 1. Its degree-2 block took a mix (a gather of the stored
rows and their scale), a slice and a reshape per input block, a concat,
the mix's matmul between two transposes, and the residual's add: 13
records that nothing read. Its paths into degree 2 and their mix, 25
parameters at this setup, are gone, and each parameter has one check.
That moved tfn's pins 506 -> 493 and 57 checks where it had 82.

The last attention layer of a stack outputs those two blocks too. Its keys
still output every degree for the scores, and its values, which stop at
degree 1, read the leading columns of the keys' coupling matrices. The
values' degree-2 block took the same 13 records as the convolution's;
reading the leading columns takes a slice per input block, and each
slice's force backward an `unslice`, 6 records. Its value paths into
degree 2 and their mix, 25 parameters, are gone. That moved se3attn's
pins 784 -> 777 and 123 checks where it had 148.

Equivariant features hold their channels last: steerable blocks are
(N, 2l+1, mult), edge messages (E, width, mult) and painn's vectors
(N, 3, F), so every channel mix is one matmul by the stored weights. Each
steerable output block's mix lost the gather that permuted its stored rows
and the two transposes around its matmul. Each key mix lost the gather
and the two transposes around its query's matmul, and takes the query
rows back through one transpose of the stored mix. The vector readouts
lost their two transposes, painn's channel mixes theirs, and painn's
message sum the reshapes around it. The radial networks' spread output
gained one transpose per input block and message set, which lays it onto
the interleaved coupling rows. With their recorded force backward that moved
the pins tfn 493 -> 476, se3attn 777 -> 754 and painn 344 -> 318.

A step with a zero force weight computes the energy alone: no recorded
force backward, and its positions are not watched, so the edge geometry is
constant and unrecorded. `ENERGY_ONLY_RECORDS_PER_STEP` pins those steps,
whose parameters are bitwise those of the full loss with its force term at
weight 0.

painn's first layer starts from no vectors, PaiNN's initial vectors being
zero: its message is the unit vectors' term alone, and the new vectors are
its sum. The gate on the zero vectors (a slice of the gates, a reshape and
the mul) and the two adds of exact zeros are gone, 5 records of the
forward and 5 of its force backward. That moved painn's pins 312 -> 302
and its energy-only pin 98 -> 93.

SiLU is one op, `silu`, whose rule is `mul(g, silu_d1(a))`. It was the
product of its input and a `sigmoid`: a forward now records one op per
activation instead of two, and a recorded force backward through it two
(`silu_d1` and its `mul`) instead of six (the two products' rules, the
sigmoid rule's `sub` and two products, and the `add` of the two terms).
schnet's and leaky's messages and painn's gates are one `edge_product`
each, where they were a `gather` by nodes, one by pairs and a `mul`. Its
rules take the rows to the edges again, so its recorded backward has a
`gather` more for each operand on the position path. That moved
the pins dimenet 353 -> 333, egnn 161 -> 136, leaky 141 -> 130, painn
302 -> 285, schnet 136 -> 125, se3attn 741 -> 706 and tfn 463 -> 443; the
energy-only pins, in the same order, 56 -> 52, 58 -> 53, 39 -> 33,
93 -> 85, 37 -> 31, 266 -> 259 and 141 -> 137; the force-call pins
114 -> 110, 57 -> 52, 49 -> 44, 103 -> 97, 47 -> 42, 257 -> 250 and
162 -> 158; and dimenet's triplet records 78 -> 68, the activation of each
of its two blocks' triplet networks and its recorded backward.

The loss backward runs unrecorded and spends the records it runs, so the
tensors their rules kept are freed as it goes, and `add` and `sub` keep only
their operands' shapes. Traced memory (tracemalloc) may rise during that
backward by at most `LOSS_BACKWARD_GROWTH` times what the step held when it
began; a tape that held every rule until `release` rose 1.23-1.33 times at
these configs, one that freed each record after running all its rules
1.01-1.13 times. A record now keeps no rule for an input off the tape, and
`mul`, `div` and `matmul` close over the partner operand, so a step holds
less when that backward begins, and the backward drops each rule, and each
gradient sum it replaces, as soon as it is done with it: 1.02-1.18 times
(tfn 1.133 -> 1.183, though its peak fell 1.39 -> 1.24 MB). With the
SiLU op and edge products a step holds less when that backward begins
(tfn 1.025 -> 0.947 MB), and its rise, whose peak is in tfn's layer0
message products, became the larger share: 1.214. The backward now keeps
a bit mask of descending inputs per record instead of the set of
descending uids, and frees each record's incoming gradient before the
sum of its last rule's term: 1.02-1.18 times again (tfn 1.183).

A first-order call (`force_from_energy`, `evaluate_energy_force`) needs
position gradients alone, so it leaves the parameters off the tape: work on
parameters alone, such as the type embedding's gather and schnet's and
leaky's layer-0 input transform and its gather, records nothing, and no
record of a product keeps an activation for the sake of a weight's
gradient. `FORCE_CALL_RECORDS` pins the records of one such call on the
first molecule; with every parameter watched they were dimenet 121, egnn
60, leaky 52, painn 111, schnet 50, se3attn 326 and tfn 201.
`FORCE_CALL_PEAK_UNITS` bounds the traced peak of one schnet force call on
a 400-atom cluster in units of one (E, hidden) float64 array: 12.5 units
with every parameter watched and every rule kept, 9.76 while each message
product kept its two (E, hidden) operands, 6.56 now that an edge product
keeps the node and pair rows they are taken from.

An edge product takes factors of any scale, node rows by an index, pair
rows by the pair index or rows already per edge, and its rule for a
factor is itself an edge product of the gradient and the other factors.
A recorded rule of schnet's, leaky's or painn's product took the other
operand to the edges by a `gather` and multiplied by a
`mul`, and now does both in one record: one rule in layer 0, whose node
rows are off the position path, and two in layer 1, 3 records each.
tfn's and se3attn's messages, a `gather` by pairs of the radial outputs
and a `mul`, are one product of the pair and edge rows, a record fewer per
message set and input block (tfn 4 in each of its forwards). se3attn's
scores were the key messages times the gathered query rows, summed over
rows and channels (`gather`, `mul`, `sum`); each is one summed product of
three factors, whose recorded rules need no `reshape` and `broadcast` of
the score gradient. Its values' weighting, a `reshape` of the attention
weights and a `mul` per block, is a scalar factor of the values' product.
That moved the pins leaky 130 -> 127, painn 285 -> 282, schnet 125 ->
122, se3attn 706 -> 670 and tfn 443 -> 439, the energy-only pins se3attn
259 -> 239 and tfn 137 -> 133, and the force-call pins se3attn 250 -> 230
and tfn 158 -> 154. Neither the key messages (E, width, mult), the query
rows gathered to the edges nor the radial outputs expanded to them are
formed, and no rule keeps them: `SE3ATTN_STEP_PEAK_UNITS` bounds the
traced peak of one se3attn step in units of its largest (E, width, mult)
message, 47.8 units before and 35.2 after.

An edge product sums its rows into nodes or pairs itself (`into`), a block
of rows at a time, bitwise the `scatter_sum` into nodes or pairs of the plain
product, and each of its rules is one such product whose rows the other
factors reach as they reached the output: the gradient of a product
summed by `src` is a node factor taken by `src`. schnet's and leaky's
messages, and tfn's and se3attn's messages and weighted values, are summed
into the atoms by the batch's `src` plan within their product, a
`scatter_sum` fewer per layer (schnet, leaky) or per input block (tfn,
se3attn) in a forward; in a recorded backward that sum's rule, a `gather`,
is gone, and so is the `scatter_sum` after each rule for
node or pair rows (painn's gates among them), now the rule's own `into`.
That moved the pins leaky 127 -> 120, painn 282 -> 279, schnet 122 ->
115, se3attn 670 -> 652 and tfn 439 -> 427, the energy-only pins leaky
33 -> 31, schnet 31 -> 29, se3attn 239 -> 235 and tfn 133 -> 129, and the
force-call pins leaky 44 -> 42, schnet 42 -> 40, se3attn 230 -> 226 and
tfn 154 -> 150. No (E, hidden) message of schnet's exists any more, in the
forward or in the backward: its force call on the 400-atom cluster peaked
at 6.56 units before and 4.51 after, in the filter network's backward, whose
rows run per pair; `FORCE_CALL_PEAK_UNITS` allows 2% over that.

A gather and a sum by the pair index were once ops of their own
(`expand_pairs`, `sum_pairs`); they are `gather` and `scatter_sum` by a
`PairIndex` now, so the counts per op name moved between names while
every pin above stayed.
"""

import tracemalloc

import dataclasses
from collections import Counter

import numpy as np
import pytest

from geomnets import tensor as T
from geomnets import training as tr
from geomnets.geometry import Conformation, PairIndex
from geomnets.models import api
from geomnets.models.common import build_batch
from geomnets.models.spherical import _fusion
from test_parity import CONFIGS, CUTOFF, _confs, _schedule

RECORDS_PER_STEP = {
    "dimenet": 333,
    "egnn": 136,
    "leaky": 120,
    "painn": 279,
    "schnet": 115,
    "se3attn": 652,
    "tfn": 427,
}

# dimenet records, of one step, whose result has one row per triplet
TRIPLET_RECORDS_PER_STEP = 68

# records of one step with a zero force weight: the energy alone
ENERGY_ONLY_RECORDS_PER_STEP = {
    "dimenet": 52,
    "egnn": 53,
    "leaky": 31,
    "painn": 85,
    "schnet": 29,
    "se3attn": 235,
    "tfn": 129,
}

# bound on the traced memory at the loss backward's peak over that at its start
LOSS_BACKWARD_GROWTH = 1.2

# records of one `force_from_energy` call on the first molecule
FORCE_CALL_RECORDS = {
    "dimenet": 110,
    "egnn": 52,
    "leaky": 42,
    "painn": 97,
    "schnet": 40,
    "se3attn": 226,
    "tfn": 150,
}

# bound on the traced peak of one schnet force call on a large cluster, in
# units of one (E, hidden) float64 array: 4.51 measured, plus 2%
FORCE_CALL_PEAK_UNITS = 4.6

# bound on the traced peak of one se3attn training step, in units of its
# largest (E, width, mult) message
SE3ATTN_STEP_PEAK_UNITS = 40.0

FINITE_CHECKS_PER_STEP = {
    "dimenet": 19,
    "egnn": 27,
    "leaky": 16,
    "painn": 26,
    "schnet": 15,
    "se3attn": 123,
    "tfn": 57,
}


def test_every_family_is_pinned():
    assert sorted(RECORDS_PER_STEP) == sorted(CONFIGS) == sorted(FINITE_CHECKS_PER_STEP)
    assert sorted(ENERGY_ONLY_RECORDS_PER_STEP) == sorted(CONFIGS) == sorted(FORCE_CALL_RECORDS)


def _count_records(monkeypatch):
    """Sizes of the tapes released from now on, and the scopes of their
    records."""
    sizes, scopes = [], set()
    release = T.Tape.release

    def counting_release(tape):
        sizes.append(len(tape.records))
        scopes.update(rec.scope for rec in tape.records)
        release(tape)

    monkeypatch.setattr(T.Tape, "release", counting_release)
    return sizes, scopes


@pytest.mark.parametrize("family", sorted(RECORDS_PER_STEP))
def test_records_of_one_training_step(family, monkeypatch):
    sizes, scopes = _count_records(monkeypatch)
    tr.train_energy_force(api.model_from_config(CONFIGS[family]), _confs(), _schedule(), seed=0, steps=1)
    assert sizes == [RECORDS_PER_STEP[family]]
    assert "" not in scopes  # every record of the step is scoped


@pytest.mark.parametrize("family", sorted(ENERGY_ONLY_RECORDS_PER_STEP))
def test_zero_force_weight_trains_the_energy_alone(family, monkeypatch):
    model = api.model_from_config(CONFIGS[family])
    confs = _confs()
    weights = tr.LossWeights(1.0, 0.0)
    sizes, _ = _count_records(monkeypatch)
    params, history = tr.train_energy_force(model, confs, _schedule(), seed=0, steps=3, weights=weights)
    assert sizes == [ENERGY_ONLY_RECORDS_PER_STEP[family]] * 3
    assert history["force_loss"] == [0.0] * 3

    # the full loss, whose force term at weight 0 adds exact zeros
    batch = build_batch(confs, model.cutoff, model.needs_angles)
    e_true, f_true = (T.Tensor(a) for a in tr._targets(confs))

    def loss_fn(tape, params_t, step):
        energy, forces = tr._predict(model, params_t, batch, tape, None, None, record=True)
        terms = {}
        return tr.energy_force_loss(energy, e_true, forces, f_true, weights, "mse", terms), terms

    want, want_history = tr._fit(model.init(0), loss_fn, _schedule(), 3, None, None)
    assert sorted(params) == sorted(want)
    assert all(params[k].tobytes() == want[k].tobytes() for k in want)
    assert {k: np.asarray(v).tobytes() for k, v in history.items() if k != "graph"} == {
        k: np.asarray(v).tobytes() for k, v in want_history.items()
    }


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_loss_backward_frees_what_it_has_run(family, monkeypatch):
    # traced memory at the start and the peak of the step's unrecorded
    # backward, the loss's
    seen = []
    gradient = T.Tape.gradient

    def tracing_gradient(tape, root, wrt, *, record=True):
        if record:
            return gradient(tape, root, wrt, record=record)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = gradient(tape, root, wrt, record=record)
        seen.append((start, tracemalloc.get_traced_memory()[1]))
        return out

    monkeypatch.setattr(T.Tape, "gradient", tracing_gradient)
    model = api.model_from_config(CONFIGS[family])
    confs = _confs()
    tracemalloc.start()
    try:
        tr.train_energy_force(model, confs, _schedule(), seed=0, steps=1)
    finally:
        tracemalloc.stop()
    ((start, peak),) = seen
    assert peak <= LOSS_BACKWARD_GROWTH * start


@pytest.mark.parametrize("family", sorted(FORCE_CALL_RECORDS))
def test_records_of_one_force_call(family, monkeypatch):
    model = api.model_from_config(CONFIGS[family])
    params = model.init(0)
    sizes, scopes = _count_records(monkeypatch)
    tr.force_from_energy(model, params, _confs()[0])
    assert sizes == [FORCE_CALL_RECORDS[family]]
    # the type embedding reads parameters alone; these embed scopes also
    # hold position work (harmonics, edge expansions)
    assert ("embed" in scopes) == (family in ("dimenet", "painn", "se3attn", "tfn"))


def _cluster(n: int, seed: int) -> Conformation:
    """n atoms of a jittered cubic grid at 12 cubic angstrom per atom, the
    sites nearest its centre."""
    rng = np.random.default_rng(seed)
    grid = int(np.ceil((2.0 * n) ** (1.0 / 3.0)))
    cells = np.stack(np.meshgrid(*[np.arange(grid)] * 3, indexing="ij"), -1).reshape(-1, 3)
    nearest = np.argsort(np.linalg.norm(cells + 0.5 - grid / 2.0, axis=1), kind="stable")[:n]
    pos = (cells[nearest] + 0.5 + rng.uniform(-0.15, 0.15, (n, 3))) * 12.0 ** (1.0 / 3.0)
    return Conformation(rng.integers(1, 10, n), pos)


def test_force_call_peak_on_a_large_cluster():
    # the width of the inference benchmark's schnet
    config = {"family": "schnet", "hidden": 32, "layers": 2, "cutoff": CUTOFF}
    model = api.model_from_config(config)
    params = model.init(0)
    conf = _cluster(400, seed=0)
    n_edges = build_batch([conf], model.cutoff).n_edges
    assert n_edges > 25 * conf.n_atoms  # edges, not atoms, set the size
    tr.force_from_energy(model, params, conf)  # one-time tables
    tracemalloc.start()
    try:
        tr.force_from_energy(model, params, conf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= FORCE_CALL_PEAK_UNITS * n_edges * config["hidden"] * 8


def test_se3attn_step_peak():
    model = api.model_from_config(CONFIGS["se3attn"])
    spec, confs = model.spec, _confs()
    n_edges = build_batch(confs, model.cutoff).n_edges
    largest = 0
    for i in range(spec.layers):
        layer = spec.layer_spec(i)
        keys = dataclasses.replace(layer, layout_out=layer.layout_in)  # an attention layer's
        for messages in [keys, layer] if spec.attends(i) else [layer]:
            for (mult, _), blk in zip(messages.layout_in.blocks, _fusion(messages)):
                largest = max(largest, n_edges * blk.width * mult * 8)
    tr.train_energy_force(model, confs, _schedule(), seed=0, steps=1)  # one-time tables
    tracemalloc.start()
    try:
        tr.train_energy_force(model, confs, _schedule(), seed=0, steps=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SE3ATTN_STEP_PEAK_UNITS * largest


def test_dimenet_records_at_triplet_scale(monkeypatch):
    model = api.model_from_config(CONFIGS["dimenet"])
    batch = build_batch(_confs(), model.cutoff, need_angles=True)
    n_triplets = batch.angles.n_triplets
    assert n_triplets not in (batch.n_nodes, batch.n_edges)  # rows tell the scales apart
    rows = []
    op = T._op

    def counting_op(name, inputs, data, vjps):
        out = op(name, inputs, data, vjps)
        if out.tape is not None:  # recorded
            rows.append(data.shape[0] if data.ndim else None)
        return out

    monkeypatch.setattr(T, "_op", counting_op)
    tr.train_energy_force(model, _confs(), _schedule(), seed=0, steps=1)
    assert len(rows) == RECORDS_PER_STEP["dimenet"]
    assert rows.count(n_triplets) == TRIPLET_RECORDS_PER_STEP


@pytest.mark.parametrize("family", sorted(FINITE_CHECKS_PER_STEP))
def test_finiteness_checks_of_one_training_step(family, monkeypatch):
    checked = []
    finite = T._finite

    def counting_finite(data):
        checked.append(data.shape)
        return finite(data)

    monkeypatch.setattr(T, "_finite", counting_finite)
    model = api.model_from_config(CONFIGS[family])
    tr.train_energy_force(model, _confs(), _schedule(), seed=0, steps=1)
    assert len(checked) == FINITE_CHECKS_PER_STEP[family] == len(model.init(0)) + 1
    assert checked[0] == ()  # the loss, then the gradients


def _bits(tensors):
    return [t.data.tobytes() for t in tensors]


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_unrecorded_gradients_equal_recorded(family):
    # forces, then the parameter gradient of a loss on the recorded forces:
    # each backward gives the same bits unrecorded, and adds no record. An
    # unrecorded backward spends what it runs, so it runs last on its tape,
    # and the unrecorded forces take a tape of their own
    model = api.model_from_config(CONFIGS[family])
    confs = _confs()
    batch = build_batch(confs, model.cutoff, model.needs_angles)
    params = model.init(0)

    def forward():
        tape = T.Tape()
        params_t = T.lift(params, tape)
        pos = tape.tensor(batch.pos)
        energy = model.energy(params_t, batch, pos)
        return tape, params_t, pos, energy

    tape, params_t, pos, energy = forward()
    recorded = tape.gradient(T.sum_(energy), [pos])
    e_true, f_true = tr._targets(confs)
    loss = tr.energy_force_loss(energy, T.Tensor(e_true), -recorded[0], T.Tensor(f_true))
    wrt = list(params_t.values())
    kept = tape.gradient(loss, wrt)
    size = len(tape.records)
    free = tape.gradient(loss, wrt, record=False)
    assert len(tape.records) == size and all(g.tape is None for g in free)
    assert _bits(free) == _bits(kept)

    tape, _, pos, energy = forward()
    root = T.sum_(energy)
    size = len(tape.records)
    free = tape.gradient(root, [pos], record=False)
    assert len(tape.records) == size and free[0].tape is None
    assert _bits(free) == _bits(recorded)


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_every_record_of_a_forward_is_scoped(family):
    # outside a training step no `loss` scope covers the model's records
    model = api.model_from_config(CONFIGS[family])
    batch = build_batch(_confs(), model.cutoff, model.needs_angles)
    tape = T.Tape()
    model.energy_and_vectors(T.lift(model.init(0), tape), batch, tape.tensor(batch.pos))
    scopes = {rec.scope for rec in tape.records}
    assert "" not in scopes and {"embed", "readout"} <= scopes
    assert ("triplets" in scopes) == model.needs_angles


# the parity configs, and one-layer steerable stacks, whose scalars read
# harmonics of degree 0 alone
SCALAR_CASES = sorted(CONFIGS) + ["se3attn-1layer", "tfn-1layer"]


def _case_model(case):
    family, _, one_layer = case.partition("-")
    return api.model_from_config(dict(CONFIGS[family], **({"layers": 1} if one_layer else {})))


@pytest.mark.parametrize("call", ["energy", "node_scalars"])
@pytest.mark.parametrize("case", SCALAR_CASES)
def test_a_scalar_forward_records_only_what_it_reads(case, call):
    # every record of an energy or node-scalar forward lies on a path to
    # the summed output: no vector readout, no work only the vectors read
    model = _case_model(case)
    batch = build_batch(_confs(), model.cutoff, model.needs_angles)
    tape = T.Tape()
    out = getattr(model, call)(T.lift(model.init(0), tape), batch, tape.tensor(batch.pos))
    read = {T.sum_(out).uid}
    for rec in reversed(tape.records):
        if rec.output_uid in read:
            read.update(rec.input_uids)
    assert [(rec.scope, rec.name) for rec in tape.records if rec.output_uid not in read] == []


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_edge_geometry_built_once_per_forward(family):
    # one norm (its power) and one envelope (its cos) per forward, in scope
    # `edges`; egnn reads squared distances only
    model = api.model_from_config(CONFIGS[family])
    batch = build_batch(_confs(), model.cutoff, model.needs_angles)
    tape = T.Tape()
    model.energy_and_vectors(T.lift(model.init(0), tape), batch, tape.tensor(batch.pos))
    ops = Counter(rec.name for rec in tape.records if rec.scope == "edges")
    assert ops["cos"] == ops["power"] == (0 if family == "egnn" else 1)


# ---------------------------------------------------------------------------
# work per edge pair

# names of the filter and radial networks' parameters
_FILTER_PARAMS = (".filter.", ".filt.", ".radial.")
# ops whose result, made of those parameters only, is still their weights
_LAYOUT_OPS = ("concat", "reshape", "transpose2")


def _shaped_forward(model, batch, monkeypatch):
    """A recorded forward: its tape, its parameters and each result's shape
    by uid."""
    shapes = {}
    op = T._op

    def shaping_op(name, inputs, data, vjps):
        out = op(name, inputs, data, vjps)
        shapes[out.uid] = data.shape
        return out

    monkeypatch.setattr(T, "_op", shaping_op)
    tape = T.Tape()
    params = T.lift(model.init(0), tape)
    model.energy_and_vectors(params, batch, tape.tensor(batch.pos))
    return tape, params, shapes


@pytest.mark.parametrize("family", ["dimenet", "leaky", "painn", "schnet", "se3attn", "tfn"])
def test_edge_geometry_and_filters_run_per_pair(family, monkeypatch):
    model = api.model_from_config(CONFIGS[family])
    batch = build_batch(_confs(), model.cutoff, model.needs_angles)
    # the molecules' graphs are open, so every edge's reverse is in them
    n_edges = batch.n_edges
    n_pairs = n_edges // 2
    assert n_edges % 2 == 0 and n_pairs > 64  # neither is any layer's width
    tape, params, shapes = _shaped_forward(model, batch, monkeypatch)

    in_edges = [shapes[rec.output_uid] for rec in tape.records if rec.scope == "edges"]
    assert in_edges and all(shape[0] == n_pairs for shape in in_edges)
    weights = {t.uid for name, t in params.items() if any(key in name for key in _FILTER_PARAMS)}
    filter_matmuls = []
    for rec in tape.records:
        if rec.name in _LAYOUT_OPS and weights.issuperset(rec.input_uids):
            weights.add(rec.output_uid)
        elif rec.name == "matmul" and not weights.isdisjoint(rec.input_uids):
            filter_matmuls.append(shapes[rec.output_uid])
    assert bool(filter_matmuls) == (family != "dimenet")
    assert all(n_pairs in shape and n_edges not in shape for shape in filter_matmuls)


@pytest.mark.parametrize("family", ["leaky", "schnet"])
def test_input_transform_runs_per_atom(family, monkeypatch):
    # the matmul reading each layer's `win` has a row per atom, and the
    # edge product that takes its rows to the edges sums them back into
    # the atoms: no record of a layer has a row per edge
    model = api.model_from_config(CONFIGS[family])
    batch = build_batch(_confs(), model.cutoff)
    assert batch.n_nodes != batch.n_edges
    tape, params, shapes = _shaped_forward(model, batch, monkeypatch)
    for i in range(CONFIGS[family]["layers"]):
        (transform,) = [rec for rec in tape.records if params[f"layer{i}.win"].uid in rec.input_uids]
        assert transform.name == "matmul" and shapes[transform.output_uid][0] == batch.n_nodes
        (spread,) = [rec for rec in tape.records if transform.output_uid in rec.input_uids]
        assert spread.name == "edge_product" and shapes[spread.output_uid][0] == batch.n_nodes
        layer = [shapes[rec.output_uid] for rec in tape.records if rec.scope == f"layer{i}"]
        assert layer and all(shape[:1] != (batch.n_edges,) for shape in layer)


def per_edge(batch):
    """The batch with every edge a pair of its own: a forward on it computes
    its edge geometry, filters and harmonics once per directed edge, the
    reference that the work per pair must reproduce."""
    rows = np.arange(batch.n_edges)
    return dataclasses.replace(batch, pairs=PairIndex(rows, rows, np.zeros(rows.size, bool)))


def _crystals():
    """A skewed cell of five atoms and one of a single atom, whose edges all
    run to its own images."""
    rng = np.random.default_rng(7)
    lattice = np.array([[3.1, 0.0, 0.0], [0.9, 2.8, 0.0], [-0.7, 0.6, 3.3]])
    five = Conformation(rng.integers(1, 10, 5), rng.uniform(0.0, 1.0, (5, 3)) @ lattice, lattice=lattice)
    return [five, Conformation([6], [[0.4, 0.5, 0.6]], lattice=lattice * 1.2)]


def _energy_and_forces(model, batch, vectors=False):
    tape = T.Tape()
    params = T.lift(model.init(0), tape)
    pos = tape.tensor(batch.pos)
    energy = model.energy_and_vectors(params, batch, pos)[0] if vectors else model.energy(params, batch, pos)
    (grad,) = tape.gradient(T.sum_(energy), [pos], record=False)
    return energy.data, -grad.data


def _assert_within(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_pairs_match_the_per_edge_reference(family):
    model = api.model_from_config(CONFIGS[family])
    for confs, periodic in ((_confs(), False), (_crystals(), True)):
        batch = build_batch(confs, model.cutoff, model.needs_angles)
        assert (batch.shift_offset != 0).any() == periodic
        assert 2 * batch.pairs.edge.size == batch.n_edges
        energy, forces = _energy_and_forces(model, batch)
        ref_energy, ref_forces = _energy_and_forces(model, per_edge(batch))
        if periodic:
            _assert_within(energy, ref_energy)
        else:
            assert energy.tobytes() == ref_energy.tobytes()
        _assert_within(forces, ref_forces)


@pytest.mark.parametrize("case", SCALAR_CASES)
def test_a_scalar_forward_matches_the_vector_forward(case):
    # the energy of a forward without vectors is that of the forward with
    # them, bit for bit; its forces may round differently where a backward
    # sums over fewer coupling rows or harmonics
    model = _case_model(case)
    for confs in (_confs(), _crystals()):
        batch = build_batch(confs, model.cutoff, model.needs_angles)
        energy, forces = _energy_and_forces(model, batch)
        want_energy, want_forces = _energy_and_forces(model, batch, vectors=True)
        assert energy.tobytes() == want_energy.tobytes()
        _assert_within(forces, want_forces)
