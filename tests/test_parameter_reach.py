"""Every parameter reaches an objective.

One energy+force training step, and one denoising step for a family with
vector output, must between them move every parameter of the model at
the `test_parity.py` setup, and for tfn and se3attn also with 1 and 3
layers. A parameter that neither step moves has a zero gradient under
every objective, so the work that computes its output is dead. Adam's
first step moves every parameter whose gradient is non-zero, however
small.
"""

import numpy as np
import pytest

from geomnets import training as tr
from geomnets.models import api
from test_parity import CONFIGS, _confs, _schedule

CASES = dict(CONFIGS)
for _family in ("tfn", "se3attn"):
    for _layers in (1, 3):
        CASES[f"{_family}-{_layers}layer"] = dict(CONFIGS[_family], layers=_layers)


def unmoved(config) -> set[str]:
    """Names of the parameters that neither objective's first step changes."""
    model = api.model_from_config(config)
    start = model.init(0)
    stepped = [tr.train_energy_force(model, _confs(), _schedule(), seed=0, steps=1)[0]]
    if model.has_vector_output:
        stepped.append(tr.train_pretrain(model, "denoise", _confs(), _schedule(), seed=0, steps=1)[0])
    return {k for k, v in start.items() if all(np.array_equal(v, params[k]) for params in stepped)}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_parameter_reaches_an_objective(case):
    assert unmoved(CASES[case]) == set()
