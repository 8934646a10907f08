"""Pinned numbers for every model family at a fixed seed.

Energies and forces, the energy+force training losses and the losses of
every pretext a family supports are compared with `parity_reference.json`
to 1e-12, relative to the largest magnitude of each compared array. A
change that keeps the arithmetic must reproduce them; only a change meant
to alter the numbers may regenerate the file:

    PYTHONPATH=src python3 tests/test_parity.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from geomnets import training as tr
from geomnets.models import api

REFERENCE = Path(__file__).with_name("parity_reference.json")
RTOL = 1e-12
STEPS = 3
CUTOFF = 5.0
_STEERABLE = {
    "scalar_channels": 4,
    "vector_channels": 2,
    "tensor_channels": 2,
    "layers": 2,
    "cutoff": CUTOFF,
    "basis": {"count": 6},
    "radial_hidden": 4,
}
CONFIGS = {
    "schnet": {"family": "schnet", "hidden": 8, "layers": 2, "cutoff": CUTOFF},
    "dimenet": {"family": "dimenet", "hidden": 8, "layers": 2, "cutoff": CUTOFF, "sbf_l_max": 2, "sbf_n_max": 2},
    "tfn": dict(_STEERABLE, family="tfn"),
    "se3attn": dict(_STEERABLE, family="se3attn"),
    "egnn": {"family": "egnn", "hidden": 8, "layers": 2, "cutoff": CUTOFF},
    "painn": {"family": "painn", "hidden": 8, "layers": 2, "cutoff": CUTOFF},
    "leaky": {"family": "leaky", "hidden": 8, "layers": 2, "cutoff": CUTOFF},
}


def _confs():
    return tr.synthetic_conformations(4, seed=0)


def _schedule():
    return tr.ScheduleSpec(lr_max=1e-3, lr_min=1e-5, total_steps=STEPS)


def _kinds(model):
    return [k for k in tr.PRETRAIN_KINDS if k != "denoise" or model.has_vector_output]


def energy_forces(family) -> dict:
    model = api.model_from_config(CONFIGS[family])
    params = model.init(0)
    energies, forces = zip(*(tr.force_from_energy(model, params, conf) for conf in _confs()))
    return {"energy": list(energies), "forces": np.concatenate(forces).tolist()}


def training(family) -> dict:
    """Losses of the steps, then the errors of the parameters the last step made."""
    model = api.model_from_config(CONFIGS[family])
    confs = _confs()
    params, history = tr.train_energy_force(model, confs, _schedule(), seed=0, steps=STEPS)
    scores = tr.evaluate_energy_force(model, params, confs)
    return {"train_loss": history["train_loss"], "mae": [scores["mae_energy"], scores["mae_force"]]}


def pretraining(family) -> dict:
    model = api.model_from_config(CONFIGS[family])
    out = {}
    for kind in _kinds(model):
        _, history = tr.train_pretrain(model, kind, _confs(), _schedule(), seed=0, steps=STEPS)
        out[kind] = history["train_loss"]
    return out


PARTS = {"energy_forces": energy_forces, "training": training, "pretraining": pretraining}


def _assert_close(got, want, where):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, where
    scale = np.abs(want).max() if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale, err_msg=where)


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("part", sorted(PARTS))
@pytest.mark.parametrize("family", sorted(CONFIGS))
def test_parity(reference, family, part):
    want = reference[family][part]
    got = PARTS[part](family)
    assert sorted(got) == sorted(want)
    for key in want:
        _assert_close(got[key], want[key], f"{family}.{part}.{key}")


def write_reference() -> None:
    table = {family: {part: fn(family) for part, fn in PARTS.items()} for family in sorted(CONFIGS)}
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_parity.py --write")
    write_reference()
