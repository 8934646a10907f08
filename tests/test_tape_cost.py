"""Pinned tape sizes of one energy+force training step per model family.

A step records the forward pass, the force backward (dE/dpos) and the loss
on one tape; the loss backward, which nothing differentiates again, runs
unrecorded. The counts are exact: a backward that again evaluates a
vector-Jacobian rule nobody asked for, an op that comes back, or a backward
recorded without need changes them. The setup is that of `test_parity.py`. A change that alters
the tape on purpose updates the table and says why.
"""

import pytest

from geomnets import tensor as T
from geomnets import training as tr
from geomnets.models import api
from geomnets.models.common import build_batch
from test_parity import CONFIGS, _confs, _schedule

RECORDS_PER_STEP = {
    "dimenet": 473,
    "egnn": 170,
    "leaky": 153,
    "painn": 381,
    "schnet": 148,
    "se3attn": 866,
    "tfn": 598,
}


def test_every_family_is_pinned():
    assert sorted(RECORDS_PER_STEP) == sorted(CONFIGS)


@pytest.mark.parametrize("family", sorted(RECORDS_PER_STEP))
def test_records_of_one_training_step(family, monkeypatch):
    sizes = []
    release = T.Tape.release

    def counting_release(tape):
        sizes.append(len(tape.records))
        release(tape)

    monkeypatch.setattr(T.Tape, "release", counting_release)
    tr.train_energy_force(api.model_from_config(CONFIGS[family]), _confs(), _schedule(), seed=0, steps=1)
    assert sizes == [RECORDS_PER_STEP[family]]


def _bits(tensors):
    return [t.data.tobytes() for t in tensors]


@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_unrecorded_gradients_equal_recorded(family):
    # forces, then the parameter gradient of a loss on the recorded forces:
    # each backward gives the same bits unrecorded, and adds no record
    model = api.model_from_config(CONFIGS[family])
    confs = _confs()
    batch = build_batch(confs, model.cutoff, model.needs_angles)
    tape = T.Tape()
    params_t = T.lift(model.init(0), tape)
    pos = tape.tensor(batch.pos)
    energy = model.energy(params_t, batch, pos)
    root = T.sum_(energy)
    size = len(tape.records)
    free = tape.gradient(root, [pos], record=False)
    assert len(tape.records) == size and free[0].tape is None
    recorded = tape.gradient(root, [pos])
    assert _bits(free) == _bits(recorded)

    e_true, f_true = tr._targets(confs)
    loss = tr.energy_force_loss(energy, T.Tensor(e_true), -recorded[0], T.Tensor(f_true))
    wrt = list(params_t.values())
    size = len(tape.records)
    free = tape.gradient(loss, wrt, record=False)
    assert len(tape.records) == size and all(g.tape is None for g in free)
    assert _bits(free) == _bits(tape.gradient(loss, wrt))
