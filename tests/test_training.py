"""Training stack: forces from energy, normalization, losses, Adam + cosine
schedule, synthetic labels, supervised loop, and the self-supervised
objectives."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from types import SimpleNamespace

from geomnets import tensor as T
from geomnets import training as tr
from geomnets.errors import ContractError, NumericError
from geomnets.geometry import Conformation
from geomnets.models import api
from geomnets.models.common import build_batch, graph_stats, pair_vectors
from geomnets.tensor import Tensor
from test_parity import CONFIGS, _confs, _kinds, _schedule
from test_tensor import grad_check


def quadratic_model():
    """Energy sum of squared coordinates, so force is exactly -2 * pos."""
    return SimpleNamespace(
        cutoff=10.0,
        needs_angles=False,
        energy=lambda p, batch, pos: T.reshape(T.sum_(pos * pos), (1,)),
    )


def cluster(seed, n=6):
    rng = np.random.default_rng(seed)
    pos = np.zeros((n, 3))
    placed = 0
    while placed < n:
        cand = rng.uniform(0.0, 2.2 * n ** (1 / 3), 3)
        if placed == 0 or np.linalg.norm(pos[:placed] - cand, axis=1).min() >= 0.9:
            pos[placed] = cand
            placed += 1
    return Conformation(z=rng.integers(1, 9, n), pos=pos)


def rotation(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---------------------------------------------------------------------------
# forces from the energy head


def test_force_from_energy_quadratic_toy():
    conf = Conformation(z=[1, 1], pos=[[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    energy, forces = tr.force_from_energy(quadratic_model(), {"w": np.zeros((1, 1))}, conf)
    assert energy == pytest.approx(14.0, abs=1e-12)
    assert np.allclose(forces[0], [-2.0, -4.0, -6.0], atol=1e-12)
    assert np.allclose(forces[1], 0.0, atol=1e-12)


@pytest.mark.parametrize("family", ["schnet", "painn"])
def test_force_matches_finite_differences(family):
    model = api.model_from_config({"family": family, "hidden": 8, "layers": 1, "cutoff": 4.0})
    params = model.init(3)
    conf = cluster(11, n=5)
    energy, forces = tr.force_from_energy(model, params, conf)
    eps = 1e-5
    for i in range(conf.z.size):
        for k in range(3):
            for sign, store in ((1, "hi"), (-1, "lo")):
                shifted = conf.pos.copy()
                shifted[i, k] += sign * eps
                e = tr.force_from_energy(
                    model, params, Conformation(z=conf.z, pos=shifted)
                )[0]
                if store == "hi":
                    hi = e
                else:
                    lo = e
            fd = -(hi - lo) / (2 * eps)
            assert fd == pytest.approx(forces[i, k], rel=1e-4, abs=1e-7)
    # internal interactions cannot push the whole cluster
    assert np.abs(forces.sum(axis=0)).max() < 1e-8 * max(1.0, np.abs(forces).max())


@pytest.mark.parametrize("family", ["schnet", "dimenet", "tfn", "se3attn", "egnn", "painn"])
def test_single_atom_energy_finite_and_force_free(family):
    # a one-atom structure has no edges at all
    model = api.model_from_config({"family": family, api.FAMILY_TABLE[family].width: 8, "layers": 2, "cutoff": 4.0})
    conf = Conformation(z=[6], pos=[[0.3, -1.2, 2.0]])
    energy, forces = tr.force_from_energy(model, model.init(0), conf)
    assert np.isfinite(energy)
    np.testing.assert_array_equal(forces, np.zeros((1, 3)))


def at_cutoff_cell():
    """One atom whose own periodic image the graph builder measures at
    3.5999999999999996, within the 3.6 cutoff, and a forward, from the
    mirror row, at 3.6000000000000005."""
    return Conformation(
        z=[6], pos=[[2.686, 1.293, 0.314]], lattice=3.6 * np.eye(3), energy=0.0, forces=np.zeros((1, 3))
    )


@pytest.mark.parametrize("family", ["schnet", "leaky", "dimenet", "painn", "tfn", "se3attn"])
def test_periodic_pair_at_the_cutoff_passes_the_basis(family):
    batch = build_batch([at_cutoff_cell()], 3.6)
    measured = np.linalg.norm(pair_vectors(Tensor(batch.pos), batch).data, axis=1)
    assert batch.dist.max() <= 3.6 < measured.max()
    width = api.FAMILY_TABLE[family].width
    model = api.model_from_config({"family": family, width: 8, "layers": 2, "cutoff": 3.6})
    energy, forces = tr.force_from_energy(model, model.init(0), at_cutoff_cell())
    assert np.isfinite(energy) and np.isfinite(forces).all()


# ---------------------------------------------------------------------------
# normalization


def invert_normalization(y_phys, stats, n_atoms):
    """Physical energy -> model-space target; inverse of apply_normalization."""
    return (y_phys - stats.energy_mean * n_atoms) / stats.force_mean


def test_normalization_pinned_example():
    stats = tr.NormalizationStats(energy_mean=1.0, force_mean=3.0)
    assert tr.apply_normalization(2.0, stats, 5) == pytest.approx(11.0, abs=1e-12)


def test_normalization_roundtrip_and_affinity():
    stats = tr.NormalizationStats(energy_mean=-0.7, force_mean=2.5)
    rng = np.random.default_rng(0)
    y = rng.normal(size=8)
    n = rng.integers(1, 12, size=8)
    back = invert_normalization(tr.apply_normalization(y, stats, n), stats, n)
    assert np.abs(back - y).max() < 1e-12
    # affine in y: second difference vanishes
    y1, y2 = rng.normal(size=2)
    lam = 0.3
    mixed = tr.apply_normalization(lam * y1 + (1 - lam) * y2, stats, 4)
    parts = lam * tr.apply_normalization(y1, stats, 4) + (1 - lam) * tr.apply_normalization(
        y2, stats, 4
    )
    assert abs(mixed - parts) < 1e-12


def test_normalization_zero_scale_rejected():
    with pytest.raises(ContractError):
        tr.NormalizationStats(energy_mean=0.0, force_mean=0.0)


def test_stats_from_conformations_oracle():
    confs = [
        Conformation(z=[1, 1], pos=np.zeros((2, 3)), energy=4.0, forces=np.full((2, 3), 2.0)),
        Conformation(
            z=[1, 1, 1], pos=np.zeros((3, 3)), energy=-6.0, forces=np.full((3, 3), -1.0)
        ),
    ]
    stats = tr.stats_from_conformations(confs)
    assert stats.energy_mean == pytest.approx((4.0 - 6.0) / 5.0, abs=1e-15)
    assert stats.force_mean == pytest.approx((6 * 2.0 + 9 * 1.0) / 15.0, abs=1e-15)
    with pytest.raises(ContractError):
        tr.stats_from_conformations([Conformation(z=[1], pos=np.zeros((1, 3)))])


# ---------------------------------------------------------------------------
# loss


def test_energy_force_loss_hand_case_mae():
    loss = tr.energy_force_loss(
        Tensor([3.0]),
        Tensor([2.0]),
        Tensor(np.full((2, 3), 2.0)),
        Tensor(np.zeros((2, 3))),
        tr.LossWeights(1.0, 1.0),
        "mae",
    )
    assert float(loss.data) == pytest.approx(3.0, abs=1e-12)


def test_energy_force_loss_hand_case_mse():
    loss = tr.energy_force_loss(
        Tensor([3.0]),
        Tensor([2.0]),
        Tensor(np.full((2, 3), 2.0)),
        Tensor(np.zeros((2, 3))),
        tr.LossWeights(0.5, 2.0),
        "mse",
    )
    assert float(loss.data) == pytest.approx(0.5 * 1.0 + 2.0 * 4.0, abs=1e-12)


def test_loss_weights_validation():
    with pytest.raises(ContractError):
        tr.LossWeights(0.0, 0.0)
    with pytest.raises(ContractError):
        tr.LossWeights(-1.0, 1.0)
    with pytest.raises(ContractError):
        tr.energy_force_loss(Tensor([1.0]), Tensor([1.0]), Tensor([[0.0]]), Tensor([[0.0]]), reduction="huber")


def test_loss_gradient_matches_finite_differences():
    true_e = np.array([0.3, -1.2])
    true_f = np.random.default_rng(4).normal(size=(5, 3))

    def loss_of(flat: Tensor) -> Tensor:
        e = flat[0:2]
        fcomp = T.reshape(flat[2:17], (5, 3))
        return tr.energy_force_loss(
            e, Tensor(true_e), fcomp, Tensor(true_f), tr.LossWeights(1.3, 0.7), "mse"
        )

    x0 = np.random.default_rng(5).normal(size=17)
    assert grad_check(loss_of, x0) < 1e-6


# ---------------------------------------------------------------------------
# optimizer and schedule


def test_cosine_schedule_endpoints_and_midpoint():
    sch = tr.ScheduleSpec(lr_max=1e-2, lr_min=1e-4, total_steps=200)
    assert tr.cosine_lr(sch, 0) == pytest.approx(1e-2, abs=1e-15)
    assert tr.cosine_lr(sch, 200) == pytest.approx(1e-4, abs=1e-15)
    assert tr.cosine_lr(sch, 100) == pytest.approx((1e-2 + 1e-4) / 2, abs=1e-12)
    lrs = [tr.cosine_lr(sch, t) for t in range(201)]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_schedule_validation():
    with pytest.raises(ContractError):
        tr.ScheduleSpec(lr_max=0.0)
    with pytest.raises(ContractError):
        tr.ScheduleSpec(lr_max=1e-3, lr_min=1e-2)
    with pytest.raises(ContractError):
        tr.ScheduleSpec(total_steps=0)


def test_adam_first_step_is_signed_lr():
    params = {"w": np.array([1.0, -1.0, 0.5])}
    grads = {"w": np.array([0.3, -2.0, 0.0])}
    state = tr.OptimizerState.create(params)
    new = tr.adam_step(state, params, grads, lr=0.01)
    delta = new["w"] - params["w"]
    assert np.allclose(delta, [-0.01, 0.01, 0.0], atol=1e-6)


def test_adam_zero_gradients_leave_params_unchanged():
    params = {"w": np.array([[0.2, -0.4]]), "b": np.array([1.0])}
    state = tr.OptimizerState.create(params)
    new = tr.adam_step(state, params, {k: np.zeros_like(v) for k, v in params.items()}, 0.1)
    for k in params:
        assert np.array_equal(new[k], params[k])


def test_adam_matches_reference_implementation():
    # independent reference written from the update equations
    rng = np.random.default_rng(6)
    p = rng.normal(size=(3, 2))
    params = {"w": p.copy()}
    state = tr.OptimizerState.create(params)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    ref = p.copy()
    for t in range(1, 6):
        g = rng.normal(size=(3, 2))
        params = tr.adam_step(state, params, {"w": g}, lr=3e-3)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 3e-3 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert np.abs(params["w"] - ref).max() < 1e-14


ADAM_OVERFLOW = r"^non-finite Adam moment or update for parameter {} at step 1$"


def test_adam_overflowing_second_moment_names_the_parameter():
    # g * g overflows for a finite g above ~1e154; the update must not
    # silently become zero
    params = {"a": np.zeros(2), "b": np.zeros(3)}
    state = tr.OptimizerState.create(params)
    grads = {"a": np.array([0.5, -1.0]), "b": np.array([1.0, 1e160, -2.0])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=ADAM_OVERFLOW.format("'b'")):
            tr.adam_step(state, params, grads, lr=1e-3)


def test_training_step_with_overflowing_moment_raises():
    # a finite loss (~1.5e288) and finite gradients, but the second moments
    # overflow; the parameters used to come back unchanged without an error
    confs = tr.synthetic_conformations(4, seed=0)
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 2, "cutoff": 5.0})
    params = model.init(0)
    params["layer1.filter.w1"] = params["layer1.filter.w1"] * 1e145
    with pytest.raises(NumericError, match=ADAM_OVERFLOW.format("'[^']+'")) as err:
        tr.train_energy_force(model, confs, tr.ScheduleSpec(1e-3, 1e-5, 3), params=params, steps=1)
    assert err.value.args[0].split("'")[1] in params


def test_adam_minimizes_quadratic():
    target = np.array([2.0, -3.0, 0.5])
    params = {"w": np.zeros(3)}
    state = tr.OptimizerState.create(params)
    for _ in range(400):
        g = 2.0 * (params["w"] - target)
        params = tr.adam_step(state, params, {"w": g}, lr=0.05)
    assert np.abs(params["w"] - target).max() < 1e-3


# ---------------------------------------------------------------------------
# synthetic data


def test_pairwise_potential_forces_match_finite_differences():
    pos = np.random.default_rng(0).uniform(0, 3, (5, 3))
    energy, forces = tr.pairwise_potential(pos)
    eps = 1e-6
    for i in range(5):
        for k in range(3):
            hi, lo = pos.copy(), pos.copy()
            hi[i, k] += eps
            lo[i, k] -= eps
            fd = -(tr.pairwise_potential(hi)[0] - tr.pairwise_potential(lo)[0]) / (2 * eps)
            assert fd == pytest.approx(forces[i, k], rel=1e-5, abs=1e-8)
    assert np.abs(forces.sum(axis=0)).max() < 1e-10


def test_pairwise_potential_rigid_motion_invariance():
    pos = np.random.default_rng(1).uniform(0, 3, (6, 3))
    e0, f0 = tr.pairwise_potential(pos)
    rot = rotation(2)
    e1, f1 = tr.pairwise_potential(pos @ rot.T + np.array([3.0, -1.0, 2.0]))
    assert e1 == pytest.approx(e0, abs=1e-10)
    assert np.abs(f1 - f0 @ rot.T).max() < 1e-10


def test_synthetic_conformations_labeled_and_deterministic():
    a = tr.synthetic_conformations(5, seed=9, n_atoms=(4, 7))
    b = tr.synthetic_conformations(5, seed=9, n_atoms=(4, 7))
    c = tr.synthetic_conformations(5, seed=10, n_atoms=(4, 7))
    assert len(a) == 5
    for ca, cb in zip(a, b):
        assert np.array_equal(ca.pos, cb.pos) and ca.energy == cb.energy
        assert 4 <= ca.z.size <= 7
        assert ca.forces is not None and np.isfinite(ca.forces).all()
        d = np.linalg.norm(ca.pos[:, None] - ca.pos[None], axis=-1)
        assert d[~np.eye(ca.z.size, dtype=bool)].min() >= 0.9
    assert any(not np.array_equal(ca.pos, cc.pos) for ca, cc in zip(a, c))


# ---------------------------------------------------------------------------
# supervised loop


def test_train_energy_force_descends_and_is_deterministic():
    confs = tr.synthetic_conformations(8, seed=3, n_atoms=(4, 6))
    model = api.model_from_config({"family": "schnet", "hidden": 16, "layers": 1, "cutoff": 4.0})
    sch = tr.ScheduleSpec(5e-3, 1e-4, 60)
    params1, hist1 = tr.train_energy_force(model, confs, sch, seed=0, steps=60)
    params2, hist2 = tr.train_energy_force(model, confs, sch, seed=0, steps=60)
    assert hist1["train_loss"][-1] < 0.2 * hist1["train_loss"][0]
    assert hist1["train_loss"] == hist2["train_loss"]
    for k in params1:
        assert np.array_equal(params1[k], params2[k])
    metrics = tr.evaluate_energy_force(model, params1, confs)
    assert metrics["mae_energy"] < 2.0 and metrics["mae_force"] < 2.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("label", ["energy", "forces"])
def test_non_finite_labels_refused(label, value):
    # an infinite label used to give mae_energy inf, and a NumericError at
    # the label leaf of a training step
    confs = tr.synthetic_conformations(2, seed=3, n_atoms=(3, 4))
    if label == "energy":
        confs[1].energy = value
    else:
        confs[1].forces[0, 2] = value
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    with pytest.raises(ContractError, match="labels contain NaN"):
        tr.evaluate_energy_force(model, model.init(0), confs)
    with pytest.raises(ContractError, match="labels contain NaN"):
        tr.train_energy_force(model, confs, tr.ScheduleSpec(5e-3, 1e-4, 2), seed=0, steps=2)


def test_train_energy_force_early_stop():
    confs = tr.synthetic_conformations(4, seed=5, n_atoms=(4, 5))
    model = api.model_from_config({"family": "schnet", "hidden": 16, "layers": 1, "cutoff": 4.0})
    sch = tr.ScheduleSpec(5e-3, 1e-4, 500)
    _, hist = tr.train_energy_force(model, confs, sch, seed=1, steps=500, stop_loss_ratio=0.5)
    assert len(hist["step"]) < 500
    assert hist["train_loss"][-1] <= 0.5 * hist["train_loss"][0]


def test_history_logs_lr_and_global_gradient_norm():
    confs = tr.synthetic_conformations(4, seed=5, n_atoms=(4, 5))
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    sch = tr.ScheduleSpec(5e-3, 1e-4, 3)
    params = model.init(1)
    _, hist = tr.train_energy_force(model, confs, sch, steps=3, params=params)
    assert hist["lr"] == [float(tr.cosine_lr(sch, s)) for s in range(3)]
    # the first step's gradient, taken by hand
    batch = build_batch(confs, model.cutoff)
    n_per_graph = np.bincount(batch.node_graph, minlength=batch.n_graphs)
    e_true, f_true = tr._targets(confs)
    tape = T.Tape()
    params_t = T.lift(params, tape)
    energy, forces = tr._predict(model, params_t, batch, tape, None, n_per_graph, record=True)
    loss = tr.energy_force_loss(energy, Tensor(e_true), forces, Tensor(f_true))
    grads = tape.gradient(loss, list(params_t.values()))
    want = np.linalg.norm(np.concatenate([g.data.ravel() for g in grads]))
    assert hist["grad_norm"][0] == pytest.approx(want, rel=1e-12)
    assert len(hist["grad_norm"]) == 3 and all(g > 0.0 for g in hist["grad_norm"])


def test_global_norm_of_finite_gradients_never_raises():
    # the squares overflow, the norm does not; nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = tr._global_norm([np.full((2, 2), 1e300), np.array([-1e300]), np.zeros(0)])
        assert big == pytest.approx(1e300 * math.sqrt(5.0), rel=1e-15)
        assert tr._global_norm([np.zeros(3), np.zeros(0)]) == 0.0
        assert tr._global_norm([np.array([3.0]), np.array([[4.0]])]) == 5.0
        # a norm beyond the largest float is infinite, not an error
        assert tr._global_norm([np.full(4, 1.7e308)]) == math.inf


def test_training_step_overflow_names_op_and_layer():
    # layer1's filter network is blown up in its first layer and shrunk in
    # its second, so the forward, the forces and the loss are finite (a
    # non-finite loss would fail first, in scope 'loss'); the first
    # non-finite value is the loss backward's product of the huge hidden
    # activations and the gradient that reaches the second layer's weights
    confs = tr.synthetic_conformations(4, seed=0)
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 2, "cutoff": 5.0})
    params = model.init(0)
    params["layer1.filter.w0"] = params["layer1.filter.w0"] * 1e280
    params["layer1.filter.w1"] = params["layer1.filter.w1"] * 1e-200
    tr.evaluate_energy_force(model, params, confs)  # raises if the forward or the forces are not finite
    with pytest.raises(NumericError, match=r"^non-finite result in op 'matmul' in backward of 'layer1'$"):
        tr.train_energy_force(model, confs, tr.ScheduleSpec(1e-3, 1e-5, 3), params=params, steps=1)


def test_graph_stats_count_nodes_edges_triplets_and_isolated_atoms():
    chain = Conformation(z=np.array([1, 6, 1]), pos=np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]))
    lone = Conformation(z=np.array([1, 1, 8]), pos=np.array([[0.0, 0, 0], [1.2, 0, 0], [9, 0, 0]]))
    # chain: 0-1 and 1-2; lone: 0-1 and an isolated atom; edges count both directions
    assert graph_stats(build_batch([chain, lone], 1.5)) == {
        "nodes": 6,
        "edges": 6,
        "triplets": 0,
        "isolated_atoms": 1,
    }
    # the only angle is at the chain's middle atom, seen from either end
    assert graph_stats(build_batch([chain, lone], 1.5, need_angles=True))["triplets"] == 2


def test_train_with_normalization_descends():
    confs = tr.synthetic_conformations(8, seed=3, n_atoms=(4, 6))
    stats = tr.stats_from_conformations(confs)
    model = api.model_from_config({"family": "schnet", "hidden": 16, "layers": 1, "cutoff": 4.0})
    sch = tr.ScheduleSpec(5e-3, 1e-4, 60)
    _, hist = tr.train_energy_force(model, confs, sch, seed=0, steps=60, stats=stats)
    assert hist["train_loss"][-1] < 0.5 * hist["train_loss"][0]


# ---------------------------------------------------------------------------
# masked pretraining


def lifted(model, extra_heads=True, seed=0):
    params = model.init(seed)
    if extra_heads:
        params.update(tr.init_pretrain_heads(model, seed + 1))
    tape = T.Tape()
    return params, T.lift(params, tape), tape


def test_type_loss_is_log118_for_uniform_logits():
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    params, params_t, tape = lifted(model)
    params_t["type_head.w"] = tape.tensor(np.zeros((8, 118)))
    batch = build_batch([cluster(0), cluster(1)], 4.0)
    loss = tr.masked_pretrain_loss("type", model, params_t, batch, tape.tensor(batch.pos), 0)
    assert float(loss.data) == pytest.approx(np.log(118.0), abs=1e-12)


def test_distance_loss_zero_for_exact_head():
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    conf = Conformation(z=[1, 1], pos=[[0.0, 0.0, 0.0], [1.3, 0.0, 0.0]])
    params, params_t, tape = lifted(model)
    for key in ("dist_head.w0", "dist_head.b0", "dist_head.w1"):
        params_t[key] = tape.tensor(np.zeros_like(params[key]))
    params_t["dist_head.b1"] = tape.tensor(np.array([1.3]))
    batch = build_batch([conf], 4.0)
    loss = tr.masked_pretrain_loss("distance", model, params_t, batch, tape.tensor(batch.pos), 0)
    assert float(loss.data) < 1e-24


def test_angle_loss_zero_for_collinear_chain_and_pi_head():
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 1.5})
    conf = Conformation(z=[1, 1, 1], pos=[[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    params, params_t, tape = lifted(model)
    for key in ("angle_head.w0", "angle_head.b0", "angle_head.w1"):
        params_t[key] = tape.tensor(np.zeros_like(params[key]))
    params_t["angle_head.b1"] = tape.tensor(np.array([np.pi]))
    batch = build_batch([conf], 1.5, need_angles=True)
    assert batch.angles.n_triplets == 2
    loss = tr.masked_pretrain_loss("angle", model, params_t, batch, tape.tensor(batch.pos), 0)
    assert float(loss.data) < 1e-24


def test_masked_losses_need_nonempty_mask_sets():
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 1.0})
    far = Conformation(z=[1, 1], pos=[[0.0, 0, 0], [5.0, 0, 0]])
    batch = build_batch([far], 1.0, need_angles=True)
    _, params_t, tape = lifted(model)
    pos = tape.tensor(batch.pos)
    with pytest.raises(ContractError):
        tr.masked_pretrain_loss("distance", model, params_t, batch, pos, 0)
    with pytest.raises(ContractError):
        tr.masked_pretrain_loss("angle", model, params_t, batch, pos, 0)
    with pytest.raises(ContractError):
        tr.masked_pretrain_loss("composition", model, params_t, batch, pos, 0)
    without_angles = build_batch([far], 1.0, need_angles=False)
    with pytest.raises(ContractError, match="angle pretraining needs a batch built with angles"):
        tr.masked_pretrain_loss("angle", model, params_t, without_angles, pos, 0)


def test_masked_losses_rigid_motion_invariant():
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    conf = cluster(21, n=7)
    rot = rotation(8)
    moved = Conformation(z=conf.z, pos=conf.pos @ rot.T + np.array([1.0, -2.0, 0.5]))
    for kind in ("type", "distance", "angle"):
        values = []
        for view in (conf, moved):
            _, params_t, tape = lifted(model)
            batch = build_batch([view], 4.0, need_angles=True)
            loss = tr.masked_pretrain_loss(kind, model, params_t, batch, tape.tensor(batch.pos), 3)
            values.append(float(loss.data))
        assert abs(values[0] - values[1]) < 1e-10


def test_masked_type_loss_masks_at_least_one_atom():
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    tiny = Conformation(z=[3, 4], pos=[[0.0, 0, 0], [1.0, 0, 0]])
    _, params_t, tape = lifted(model)
    batch = build_batch([tiny], 4.0)
    loss = tr.masked_pretrain_loss("type", model, params_t, batch, tape.tensor(batch.pos), 0)
    assert np.isfinite(float(loss.data))


# ---------------------------------------------------------------------------
# denoising


def draw_noise(confs, sigma, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, sigma, c.pos.shape) for c in confs]


def taped_batch(model, tape, confs, noise=None):
    """Batch of `confs`, each displaced by its `noise` array when given, and
    its positions watched on `tape`."""
    if noise is not None:
        confs = [Conformation(z=c.z, pos=c.pos + n, lattice=c.lattice) for c, n in zip(confs, noise)]
    batch = build_batch(confs, model.cutoff, model.needs_angles)
    return batch, tape.tensor(batch.pos)


def denoise_loss(model, params_t, tape, confs, noise):
    batch, pos = taped_batch(model, tape, confs, noise)
    return tr.denoise_pretrain_loss(model, params_t, batch, pos, np.concatenate(noise))


def test_denoise_rejects_scalar_only_family():
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    _, params_t, tape = lifted(model, extra_heads=False)
    with pytest.raises(ContractError):
        denoise_loss(model, params_t, tape, [cluster(0)], draw_noise([cluster(0)], 0.1, 0))


def test_denoise_zero_model_matches_noise_power():
    # zeroed coordinate gates make the vector output identically zero, so the
    # loss estimates E[eps^2] = sigma^2
    model = api.model_from_config({"family": "egnn", "hidden": 8, "layers": 1, "cutoff": 4.0})
    params = model.init(0)
    for k in params:
        if ".gate." in k:
            params[k] = np.zeros_like(params[k])
    tape = T.Tape()
    params_t = T.lift(params, tape)
    confs = [cluster(40 + i, n=9) for i in range(14)]
    loss = denoise_loss(model, params_t, tape, confs, draw_noise(confs, 1.0, 5))
    assert float(loss.data) == pytest.approx(1.0, abs=0.1)


def test_denoise_invariant_under_joint_rigid_motion():
    model = api.model_from_config({"family": "painn", "hidden": 8, "layers": 1, "cutoff": 4.0})
    conf = cluster(31, n=6)
    noise = np.random.default_rng(7).normal(0.0, 0.05, conf.pos.shape)
    rot = rotation(12)
    shift = np.array([0.4, 1.0, -2.0])
    values = []
    for view, eps in (
        (conf, noise),
        (Conformation(z=conf.z, pos=conf.pos @ rot.T + shift), noise @ rot.T),
    ):
        _, params_t, tape = lifted(model, extra_heads=False)
        loss = denoise_loss(model, params_t, tape, [view], [eps])
        values.append(float(loss.data))
    assert abs(values[0] - values[1]) < 1e-10


def test_denoise_gradients_reach_parameters():
    model = api.model_from_config({"family": "painn", "hidden": 8, "layers": 1, "cutoff": 4.0})
    _, params_t, tape = lifted(model, extra_heads=False)
    loss = denoise_loss(model, params_t, tape, [cluster(3)], draw_noise([cluster(3)], 0.05, 1))
    (g,) = tape.gradient(loss, [params_t["embed"]])
    assert np.abs(g.data).max() > 0.0


# ---------------------------------------------------------------------------
# contrastive


def test_info_nce_pinned_values():
    eye = Tensor(np.eye(2))
    loss = tr.info_nce_loss(eye, Tensor(np.eye(2)), temperature=1.0)
    assert float(loss.data) == pytest.approx(0.3132616875182228, abs=1e-12)
    same = Tensor(np.ones((3, 4)))
    assert float(tr.info_nce_loss(same, same, 0.5).data) == pytest.approx(np.log(3.0), abs=1e-12)
    sharp = tr.info_nce_loss(eye, Tensor(np.eye(2)), temperature=1e-6)
    assert float(sharp.data) < 1e-6


def test_info_nce_contract_violations():
    eye = Tensor(np.eye(2))
    with pytest.raises(ContractError):
        tr.info_nce_loss(Tensor(np.zeros((2, 2))), eye, 1.0)
    with pytest.raises(ContractError):
        tr.info_nce_loss(eye, eye, 0.0)
    with pytest.raises(ContractError):
        tr.info_nce_loss(eye, Tensor(np.eye(3)), 1.0)


def test_info_nce_scale_invariance():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    base = tr.info_nce_loss(Tensor(a), Tensor(b), 0.2)
    scaled = tr.info_nce_loss(Tensor(3.0 * a), Tensor(0.25 * b), 0.2)
    assert float(base.data) == pytest.approx(float(scaled.data), abs=1e-12)


def test_contrastive_loss_invariant_under_joint_rigid_motion():
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    confs = [cluster(50 + i, n=5) for i in range(3)]
    noise = [np.random.default_rng(60 + i).normal(0.0, 0.05, c.pos.shape) for i, c in enumerate(confs)]
    rot = rotation(5)
    shift = np.array([-1.0, 0.3, 2.0])
    moved = [Conformation(z=c.z, pos=c.pos @ rot.T + shift) for c in confs]
    moved_noise = [n @ rot.T for n in noise]
    values = []
    for views, eps in ((confs, noise), (moved, moved_noise)):
        _, params_t, tape = lifted(model, extra_heads=False)
        loss = tr.contrastive_pretrain_loss(
            model, params_t, *taped_batch(model, tape, views), *taped_batch(model, tape, views, eps)
        )
        values.append(float(loss.data))
    assert abs(values[0] - values[1]) < 1e-10
    with pytest.raises(ContractError):
        tr.contrastive_pretrain_loss(
            model, params_t, *taped_batch(model, tape, confs[:1]), *taped_batch(model, tape, confs[:1], noise[:1])
        )


# ---------------------------------------------------------------------------
# pretraining loop


@pytest.mark.parametrize("kind", ["type", "distance", "angle", "denoise", "contrastive"])
def test_train_pretrain_descends(kind):
    confs = tr.synthetic_conformations(12, seed=7, n_atoms=(5, 6))
    family = "painn" if kind == "denoise" else "schnet"
    model = api.model_from_config({"family": family, "hidden": 12, "layers": 1, "cutoff": 4.0})
    sch = tr.ScheduleSpec(8e-3, 1e-4, 150)
    _, hist = tr.train_pretrain(model, kind, confs, sch, seed=0, steps=150, stop_loss_ratio=0.6)
    assert min(hist["train_loss"]) <= 0.7 * hist["train_loss"][0]


@pytest.mark.parametrize("kind, builds", [("type", 1), ("denoise", 1), ("contrastive", 2)])
def test_train_pretrain_builds_each_graph_once(kind, builds, monkeypatch):
    # the clean and the jittered batch are built before the first step and
    # reused by every step
    calls = []

    def counting_build_batch(*args, **kwargs):
        calls.append(args)
        return build_batch(*args, **kwargs)

    monkeypatch.setattr(tr, "build_batch", counting_build_batch)
    confs = tr.synthetic_conformations(4, seed=0)
    family = "painn" if kind == "denoise" else "schnet"
    model = api.model_from_config({"family": family, "hidden": 8, "layers": 1, "cutoff": 4.0})
    tr.train_pretrain(model, kind, confs, tr.ScheduleSpec(1e-3, 1e-5, 3), seed=0, steps=3)
    assert len(calls) == builds


@pytest.mark.parametrize("kind", [None, "type", "angle", "denoise", "contrastive"])
def test_step_tapes_freed_without_cyclic_collector(kind, monkeypatch):
    # a finished step's tape is released, so reference counting alone frees
    # it and every tensor it recorded
    tapes = []

    class TrackedTape(T.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(T, "Tape", TrackedTape)
    confs = tr.synthetic_conformations(4, seed=0)
    family = "painn" if kind == "denoise" else "dimenet" if kind is None else "schnet"
    model = api.model_from_config({"family": family, "hidden": 8, "layers": 1, "cutoff": 4.0})
    schedule = tr.ScheduleSpec(1e-3, 1e-5, 3)
    gc.disable()
    try:
        if kind is None:
            tr.train_energy_force(model, confs, schedule, steps=3)
        else:
            tr.train_pretrain(model, kind, confs, schedule, steps=3)
        alive = [ref() is not None for ref in tapes]
    finally:
        gc.enable()
    assert alive == [False] * 3


@pytest.mark.parametrize("call", ["force_from_energy", "evaluate_energy_force"])
def test_inference_tape_freed_without_cyclic_collector(call, monkeypatch):
    # a first-order call releases its tape before it returns, so reference
    # counting alone frees it and every tensor it recorded
    tapes = []

    class TrackedTape(T.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    monkeypatch.setattr(T, "Tape", TrackedTape)
    confs = tr.synthetic_conformations(2, seed=0)
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    params = model.init(0)
    gc.disable()
    try:
        if call == "force_from_energy":
            tr.force_from_energy(model, params, confs[0])
        else:
            tr.evaluate_energy_force(model, params, confs)
        alive = [ref() is not None for ref in tapes]
    finally:
        gc.enable()
    assert alive == [False]


@pytest.mark.parametrize("kind", tr.PRETRAIN_KINDS)
def test_train_pretrain_keeps_only_its_own_head(kind):
    # the trunk and the one head the kind's loss reads, with the values
    # that head has among all three
    confs = tr.synthetic_conformations(4, seed=0)
    family = "painn" if kind == "denoise" else "schnet"
    model = api.model_from_config({"family": family, "hidden": 8, "layers": 1, "cutoff": 4.0})
    params, _ = tr.train_pretrain(model, kind, confs, tr.ScheduleSpec(1e-3, 1e-5, 1), seed=3, steps=0)
    heads = {
        "type": {"type_head.w"},
        "distance": {f"dist_head.{name}" for name in ("w0", "b0", "w1", "b1")},
        "angle": {f"angle_head.{name}" for name in ("w0", "b0", "w1", "b1")},
    }.get(kind, set())
    assert set(params) == set(model.init(3)) | heads
    drawn = tr.init_pretrain_heads(model, 4)
    assert all(np.array_equal(params[name], drawn[name]) for name in heads)


@pytest.mark.parametrize(
    "family, kind", [(f, k) for f in sorted(CONFIGS) for k in _kinds(api.model_from_config(CONFIGS[f]))]
)
def test_pretrain_step_records_no_position_geometry(family, kind, monkeypatch):
    # no pretext differentiates by position, so the edge geometry and the
    # triplet bases, which read nothing else, stay off the tape
    scopes = set()
    release = T.Tape.release

    def collecting_release(tape):
        scopes.update(rec.scope for rec in tape.records)
        release(tape)

    monkeypatch.setattr(T.Tape, "release", collecting_release)
    model = api.model_from_config(CONFIGS[family])
    tr.train_pretrain(model, kind, _confs(), _schedule(), seed=0, steps=1)
    assert scopes and not scopes & {"edges", "triplets"}


def test_train_pretrain_rejects_unknown_kind():
    confs = tr.synthetic_conformations(2, seed=1, n_atoms=(4, 4))
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    with pytest.raises(ContractError):
        tr.train_pretrain(model, "rotation", confs, tr.ScheduleSpec(1e-3, 1e-4, 10))


@pytest.mark.parametrize("kind", ["type", "angle", "denoise"])
def test_train_pretrain_history_carries_the_batch_graph(kind):
    confs = tr.synthetic_conformations(4, seed=0)
    family = "painn" if kind == "denoise" else "schnet"
    model = api.model_from_config({"family": family, "hidden": 8, "layers": 1, "cutoff": 4.0})
    _, hist = tr.train_pretrain(model, kind, confs, tr.ScheduleSpec(1e-3, 1e-5, 2), seed=0, steps=2)
    graph = hist["graph"]
    assert graph["nodes"] == sum(c.n_atoms for c in confs)
    assert (graph["triplets"] > 0) == (kind == "angle")
    assert len(hist["lr"]) == len(hist["grad_norm"]) == 2


def test_train_pretrain_deterministic():
    confs = tr.synthetic_conformations(6, seed=2, n_atoms=(4, 5))
    model = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 4.0})
    sch = tr.ScheduleSpec(5e-3, 1e-4, 20)
    _, h1 = tr.train_pretrain(model, "type", confs, sch, seed=4, steps=20)
    _, h2 = tr.train_pretrain(model, "type", confs, sch, seed=4, steps=20)
    assert h1["train_loss"] == h2["train_loss"]
