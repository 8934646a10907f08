import numpy as np
import pytest

import tracing
from geomnets import tensor, training
from geomnets.geometry import Conformation
from geomnets.models import api, common


def test_self_time_on_a_hand_built_tree():
    spans = [
        ["op", 0.0, 10.0, None],  # 0: children cover [1, 4] and [5, 9]
        ["energy", 1.0, 4.0, 0],  # 1: no children
        ["gradient", 5.0, 9.0, 0],  # 2: child covers [6, 7]
        ["adam_step", 6.0, 7.0, 2],  # 3
        ["setup", 20.0, 21.0, None],  # 4: a second root, no children
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0, 1.0])


def test_self_time_clips_children_and_counts_overlap_once():
    spans = [
        ["op", 0.0, 10.0, None],
        ["energy", 2.0, 6.0, 0],
        ["gradient", 4.0, 8.0, 0],  # overlaps the first child by 2
        ["adam_step", 9.0, 12.0, 0],  # runs past the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_summary_splits_phases_layers_and_gradient_roles():
    spans = [
        ["setup", 0.0, 2.0, None],
        ["build_batch", 0.0, 1.0, 0],
        ["radius_graph", 0.25, 0.75, 1],
        ["op", 3.0, 10.0, None],
        ["energy", 3.0, 5.0, 3],
        ["gradient", 4.0, 5.0, 4],  # force gradient, inside the forward call
        ["gradient", 6.0, 9.0, 3],  # loss gradient
        ["adam_step", 9.0, 9.5, 3],
    ]
    out = tracing.summarize(spans, ("force_grad", "loss_grad"))
    setup, op = out["setup"], out["op"]
    assert setup["ops"] == 1 and op["ops"] == 1
    assert setup["self_s"] == pytest.approx({"training": 1.0, "models.common": 0.5, "geometry": 0.5})
    assert op["grad_s"] == pytest.approx({"force_grad": 1.0, "loss_grad": 3.0})
    assert op["name_s"]["energy"] == pytest.approx(2.0)
    assert op["name_self_s"]["energy"] == pytest.approx(1.0)
    # the op root's own 1.5 plus adam_step's 0.5
    assert op["self_s"] == pytest.approx({"training": 2.0, "models": 1.0, "tensor": 4.0})


def test_installed_wrappers_record_spans_and_counts_then_uninstall():
    originals = (common.radius_graph, training.build_batch, tensor.Tape.gradient, api.ModelHandle.energy)
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 3.0})
    params = model.init(0)
    rng = np.random.default_rng(0)
    conf = Conformation(z=rng.integers(1, 5, 6), pos=rng.uniform(0.0, 3.0, (6, 3)))
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        training.force_from_energy(model, params, conf)  # no root open: not recorded
        assert tracer.spans == []
        tracer.open_root("op", tracer.clock())
        training.force_from_energy(model, params, conf)
        tracer.close_root(tracer.clock())
    finally:
        tracing.uninstall(patched)
    assert (common.radius_graph, training.build_batch, tensor.Tape.gradient, api.ModelHandle.energy) == originals
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "build_batch", "radius_graph", "energy", "gradient"]
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] is not None}
    assert parents == {"build_batch": "op", "radius_graph": "build_batch", "energy": "op", "gradient": "op"}
    counts = tracer.counts["op"]
    assert counts["geometry.edges"] == common.build_batch([conf], 3.0).n_edges
    assert counts["tensor.records"] == sum(v for k, v in counts.items() if k.startswith("tensor.ops."))
    assert counts["tensor.records"] > 0
