"""Every parameter reaches an objective.

One energy+force training step, and one denoising step for a family with
vector output, must between them move every parameter of the model at
the `test_parity.py` setup. A parameter that neither step moves has a zero
gradient under every objective, so the work that computes its output is
dead. Adam's first step moves every parameter whose gradient is non-zero,
however small.
"""

import numpy as np
import pytest

from geomnets import training as tr
from geomnets.models import api
from test_parity import CONFIGS, _confs, _schedule

# se3attn's last layer attends: its keys read every degree for the scores,
# but nothing reads the degree-2 block of its values, so the value paths
# into degree 2 (paths 9-14) and their mix get no gradient. This is an open
# defect (ROADMAP, "Compute only what is read"); mending it, or adding
# another dead parameter, moves this pin.
SE3ATTN_VALUES_INTO_DEGREE_2 = {
    f"layer1.value.path{k}.radial.{w}" for k in range(9, 15) for w in ("w0", "b0", "w1", "b1")
} | {"layer1.value.out2.mix"}

CASES = {family: (config, set()) for family, config in CONFIGS.items()}
CASES["se3attn"] = (CONFIGS["se3attn"], SE3ATTN_VALUES_INTO_DEGREE_2)
for _family in ("tfn", "se3attn"):
    CASES[f"{_family}-1layer"] = (dict(CONFIGS[_family], layers=1), set())


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
    config, dead = CASES[case]
    assert unmoved(config) == dead
