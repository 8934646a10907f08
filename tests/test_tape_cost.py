"""Pinned tape sizes of one energy+force training step per model family.

A step records the forward pass, the force backward (dE/dpos), the loss and
the loss backward on one tape. The counts are exact: a backward that again
evaluates a vector-Jacobian rule nobody asked for, or an op that comes back,
changes them. The setup is that of `test_parity.py`. A change that alters
the tape on purpose updates the table and says why.
"""

import pytest

from geomnets import tensor as T
from geomnets import training as tr
from geomnets.models import api
from test_parity import CONFIGS, _confs, _schedule

RECORDS_PER_STEP = {
    "dimenet": 916,
    "egnn": 472,
    "leaky": 364,
    "painn": 931,
    "schnet": 350,
    "se3attn": 2182,
    "tfn": 1380,
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
