"""Coordinate-updating and vector-channel stacks."""

import numpy as np
import pytest

from geomnets import tensor as T
from geomnets.errors import ContractError, ShapeError
from geomnets.geometry import Conformation, PairIndex, radius_graph
from geomnets.models import api
from geomnets.models import vector as vec
from geomnets.models.common import build_batch, embed_nodes, pair_vectors
from geomnets.models.invariant import RadialBasisSpec, edge_geometry
from geomnets.so3 import random_rotation
from geomnets.tensor import Tape, Tensor


def cloud(seed, n=5, span=2.4):
    rng = np.random.default_rng(seed)
    while True:
        pos = rng.uniform(0.0, span, (n, 3))
        diff = pos[:, None] - pos[None, :]
        d = np.sqrt((diff**2).sum(-1)) + np.eye(n)
        if d.min() > 0.7:
            return pos


def batch_for(seed, n=5):
    z = np.random.default_rng(seed).integers(1, 10, n)
    return build_batch([Conformation(z=z, pos=cloud(seed, n=n))], cutoff=5.0, need_angles=False)


def as_tensors(params):
    return {k: Tensor(v) for k, v in params.items()}


def egnn_energy(spec, params, batch, pos):
    return api.ModelHandle("egnn", spec, 5.0).energy(params, batch, pos)


def painn_energy(spec, params, batch, pos):
    return api.ModelHandle("painn", spec, spec.basis.cutoff).energy(params, batch, pos)


# ---------------------------------------------------------------------------
# coordinate-updating stack


def egnn_setup(seed=0, **kw):
    spec = vec.EgnnSpec(hidden=12, layers=2, **kw)
    return spec, vec.init_egnn(spec, seed)


def test_egnn_spec_validation():
    with pytest.raises(ContractError):
        vec.EgnnSpec(hidden=0)
    with pytest.raises(ContractError):
        vec.EgnnSpec(layers=0)


def test_egnn_zero_gate_leaves_coordinates():
    spec, params = egnn_setup(1)
    for k in list(params):
        if ".gate." in k:
            params[k] = np.zeros_like(params[k])
    batch = batch_for(3)
    _, delta = vec.egnn_forward(spec, as_tensors(params), batch, Tensor(batch.pos))
    np.testing.assert_array_equal(delta.data, np.zeros_like(batch.pos))


def test_egnn_symmetric_pair_opposite_updates():
    spec, params = egnn_setup(5)
    p = np.array([0.4, -0.9, 0.6])
    conf = Conformation(z=np.array([6, 6]), pos=np.stack([p, -p]))
    batch = build_batch([conf], cutoff=5.0, need_angles=False)
    _, delta = vec.egnn_forward(spec, as_tensors(params), batch, Tensor(batch.pos))
    delta = delta.data
    np.testing.assert_array_equal(delta[0], -delta[1])
    assert np.abs(delta[0]).max() > 0


def test_egnn_rigid_motion():
    spec, params = egnn_setup(7)
    pt = as_tensors(params)
    batch = batch_for(11)
    h0, d0 = (t.data for t in vec.egnn_forward(spec, pt, batch, Tensor(batch.pos)))
    e0 = egnn_energy(spec, pt, batch, Tensor(batch.pos)).data
    for seed in range(4):
        rot = random_rotation(600 + seed)
        shift = np.array([0.3, 2.0, -1.4])
        moved = batch.pos @ rot.T + shift
        h, d = vec.egnn_forward(spec, pt, batch, Tensor(moved))
        np.testing.assert_allclose(h.data, h0, atol=1e-10)
        np.testing.assert_allclose(d.data, d0 @ rot.T, atol=1e-8)
        np.testing.assert_allclose(
            egnn_energy(spec, pt, batch, Tensor(moved)).data, e0, atol=1e-10
        )
        refl = rot @ np.diag([1.0, -1.0, 1.0])
        np.testing.assert_allclose(
            egnn_energy(spec, pt, batch, Tensor(batch.pos @ refl.T)).data, e0, atol=1e-10
        )


def test_egnn_layer_shape_errors():
    spec, params = egnn_setup(2)
    edges = radius_graph(cloud(1), 5.0)
    pt = as_tensors(params)
    graph = (edges.src, edges.dst, np.zeros((edges.n_edges, 3)))
    with pytest.raises(ShapeError):
        vec.egnn_layer(spec, pt, "layer0", Tensor(np.zeros((5, 9))), Tensor(cloud(1)), *graph)
    with pytest.raises(ShapeError):
        vec.egnn_layer(spec, pt, "layer0", Tensor(np.zeros((5, 12))), Tensor(np.zeros((4, 3))), *graph)


def test_egnn_forces_match_finite_differences():
    spec, params = egnn_setup(9)
    pt = as_tensors(params)
    batch = batch_for(13)
    tape = Tape()
    pos = tape.tensor(batch.pos)
    (grad,) = tape.gradient(T.sum_(egnn_energy(spec, pt, batch, pos)), [pos])
    eps = 1e-5
    for atom, axis in [(0, 2), (4, 1)]:
        hi = batch.pos.copy()
        hi[atom, axis] += eps
        lo = batch.pos.copy()
        lo[atom, axis] -= eps
        fd = (
            egnn_energy(spec, pt, batch, Tensor(hi)).data.sum()
            - egnn_energy(spec, pt, batch, Tensor(lo)).data.sum()
        ) / (2 * eps)
        assert abs(fd - grad.data[atom, axis]) / max(abs(fd), 1e-10) < 1e-4
    assert np.abs(grad.data.sum(axis=0)).max() / max(np.abs(grad.data).max(), 1.0) < 1e-12


# ---------------------------------------------------------------------------
# scalar + vector-channel stack


def painn_setup(seed=0, channels=10, layers=2):
    spec = vec.PainnSpec(
        hidden=channels,
        layers=layers,
        basis=RadialBasisSpec(kind="bessel", count=8, cutoff=5.0),
    )
    return spec, vec.init_painn(spec, seed)


def painn_channels(spec, params, batch):
    """The layer stack of `painn_forward` before its readout: node scalars
    and the (N, 3, F) vector channels."""
    pairs = batch.pairs
    geom = edge_geometry(spec.basis, pair_vectors(Tensor(batch.pos), batch))
    unit = T.gather(geom.unit, pairs) * Tensor(np.where(pairs.flipped, -1.0, 1.0)[:, None])
    s = embed_nodes(params["embed"], batch.z)
    v = None
    for i in range(spec.layers):
        s, v = vec.painn_layer(spec, params, f"layer{i}", s, v, batch.src, batch.dst, pairs, geom.rbf, unit)
    return s, v


def test_painn_spec_validation():
    with pytest.raises(ContractError):
        vec.PainnSpec(hidden=0)
    with pytest.raises(ContractError):
        vec.PainnSpec(layers=0)


def test_painn_zero_direction_gate_keeps_vectors_zero():
    spec, params = painn_setup(3)
    f = spec.hidden
    for i in range(spec.layers):
        w = params[f"layer{i}.filt.w"].copy()
        w[:, f : 2 * f] = 0.0
        params[f"layer{i}.filt.w"] = w
    batch = batch_for(17)
    pt = as_tensors(params)
    s, v = painn_channels(spec, pt, batch)
    assert v.shape == (batch.n_nodes, 3, spec.hidden)
    np.testing.assert_array_equal(v.data, np.zeros_like(v.data))
    s_out, readout = vec.painn_forward(spec, pt, batch, Tensor(batch.pos))
    np.testing.assert_array_equal(s_out.data, s.data)
    np.testing.assert_array_equal(readout.data, np.zeros((batch.n_nodes, 3)))


def test_painn_single_node_update_block_acts():
    spec, params = painn_setup(4)
    conf = Conformation(z=np.array([8]), pos=np.zeros((1, 3)))
    batch = build_batch([conf], cutoff=5.0, need_angles=False)
    assert batch.n_edges == 0
    pt = as_tensors(params)
    s, v = painn_channels(spec, pt, batch)
    assert np.abs(s.data - params["embed"][8]).max() > 1e-8
    np.testing.assert_array_equal(v.data, np.zeros((1, 3, spec.hidden)))
    s_out, readout = vec.painn_forward(spec, pt, batch, Tensor(batch.pos))
    np.testing.assert_array_equal(s_out.data, s.data)
    np.testing.assert_array_equal(readout.data, np.zeros((1, 3)))


def test_painn_layer_from_no_vectors_is_the_layer_from_zero_vectors():
    # PaiNN starts its vectors at zero, so the first layer gates none
    spec, params = painn_setup(7)
    batch = batch_for(23)
    pt = as_tensors(params)
    pairs = batch.pairs
    geom = edge_geometry(spec.basis, pair_vectors(Tensor(batch.pos), batch))
    unit = T.gather(geom.unit, pairs) * Tensor(np.where(pairs.flipped, -1.0, 1.0)[:, None])
    s = embed_nodes(pt["embed"], batch.z)
    graph = (batch.src, batch.dst, pairs, geom.rbf, unit)
    zeros = Tensor(np.zeros((batch.n_nodes, 3, spec.hidden)))
    want_s, want_v = vec.painn_layer(spec, pt, "layer0", s, zeros, *graph)
    got_s, got_v = vec.painn_layer(spec, pt, "layer0", s, None, *graph)
    np.testing.assert_array_equal(got_s.data, want_s.data)
    np.testing.assert_array_equal(got_v.data, want_v.data)


def test_painn_layer_shape_errors():
    spec, params = painn_setup(5)
    edges = radius_graph(cloud(2), 5.0)
    pt = as_tensors(params)
    s = Tensor(np.zeros((5, spec.hidden)))
    geom = edge_geometry(spec.basis, Tensor(edges.rel_vec))
    rows = np.arange(edges.n_edges)
    graph = (edges.src, edges.dst, PairIndex(rows, rows, np.zeros(rows.size, bool)), geom.rbf, geom.unit)
    with pytest.raises(ShapeError):
        vec.painn_layer(spec, pt, "layer0", s, Tensor(np.zeros((5, 2, spec.hidden))), *graph)
    with pytest.raises(ShapeError):
        vec.painn_layer(spec, pt, "layer0", Tensor(np.zeros((5, 3))), Tensor(np.zeros((5, 3, spec.hidden))), *graph)


def test_painn_rigid_motion():
    spec, params = painn_setup(6)
    pt = as_tensors(params)
    batch = batch_for(19)
    s0, v0 = (t.data for t in vec.painn_forward(spec, pt, batch, Tensor(batch.pos)))
    e0 = painn_energy(spec, pt, batch, Tensor(batch.pos)).data
    for seed in range(4):
        rot = random_rotation(700 + seed)
        moved = batch.pos @ rot.T + np.array([-0.8, 0.1, 3.0])
        s, v = vec.painn_forward(spec, pt, batch, Tensor(moved))
        np.testing.assert_allclose(s.data, s0, atol=1e-10)
        np.testing.assert_allclose(v.data, v0 @ rot.T, atol=1e-8)
        refl = rot @ np.diag([-1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            painn_energy(spec, pt, batch, Tensor(batch.pos @ refl.T)).data, e0, atol=1e-10
        )


def test_painn_forces_match_finite_differences():
    spec, params = painn_setup(8)
    pt = as_tensors(params)
    batch = batch_for(23)
    tape = Tape()
    pos = tape.tensor(batch.pos)
    (grad,) = tape.gradient(T.sum_(painn_energy(spec, pt, batch, pos)), [pos])
    eps = 1e-5
    for atom, axis in [(1, 0), (3, 2)]:
        hi = batch.pos.copy()
        hi[atom, axis] += eps
        lo = batch.pos.copy()
        lo[atom, axis] -= eps
        fd = (
            painn_energy(spec, pt, batch, Tensor(hi)).data.sum()
            - painn_energy(spec, pt, batch, Tensor(lo)).data.sum()
        ) / (2 * eps)
        assert abs(fd - grad.data[atom, axis]) / max(abs(fd), 1e-10) < 1e-5
    assert np.abs(grad.data.sum(axis=0)).max() < 1e-12

