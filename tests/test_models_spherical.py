"""Steerable stack tests: fused messages against the per-path form, conv
equivariance, the scalar-only reduction to the single-hop stack, and
attention properties."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from geomnets import tensor as T
from geomnets.errors import ContractError, ShapeError
from geomnets.geometry import Conformation, PairIndex, pair_index, radius_graph
from geomnets.models import api
from geomnets.models import invariant as inv
from geomnets.models import spherical as sph
from geomnets.models.common import build_batch
from geomnets.so3 import IrrepsLayout, SteerableFeature, clebsch_gordan, random_rotation, sph_harm_block
from geomnets.tensor import Tape, Tensor
from test_so3 import rotate_steerable

Y00 = 0.28209479177387814


def hidden_layout():
    return IrrepsLayout(((5, 0), (3, 1), (2, 2)))


def layer_spec(layout_in=None, layout_out=None):
    return sph.TfnLayerSpec(
        layout_in=layout_in or hidden_layout(),
        layout_out=layout_out or hidden_layout(),
        radial=inv.RadialBasisSpec(count=6, cutoff=5.0),
        radial_hidden=8,
    )


def cloud(seed, n=4, span=2.2):
    rng = np.random.default_rng(seed)
    while True:
        pos = rng.uniform(0.0, span, (n, 3))
        diff = pos[:, None] - pos[None, :]
        d = np.sqrt((diff**2).sum(-1)) + np.eye(n)
        if d.min() > 0.7:
            return pos


def as_tensors(params):
    return {k: Tensor(v) for k, v in params.items()}


def random_feature(layout, n, seed):
    rng = np.random.default_rng(seed)
    return SteerableFeature(layout, [Tensor(rng.normal(size=(n, 2 * l + 1, mult))) for mult, l in layout.blocks])


def rows(feat):
    """The blocks of a feature side by side, one row per node."""
    return np.concatenate([b.data.reshape(b.shape[0], -1) for b in feat.blocks], axis=1)


def filters(spec, rel, pairs):
    """The filter inputs of edges with vectors `rel` (E, 3) grouped into
    `pairs`, computed on their pairs, up to the highest filter degree that
    a path of `spec` or of its keys reads."""
    keys = dataclasses.replace(spec, layout_out=spec.layout_in)
    degree = max(l_f for _, l_f, _ in spec.paths() + keys.paths())
    return sph.filter_inputs(inv.edge_geometry(spec.radial, T.gather(rel, pairs.edge)), pairs, degree)


def as_layer0(params):
    """A layer's weights under the prefix `layer0.`, as a stack holds them."""
    return {f"layer0.{k}": v for k, v in params.items()}


def conv(spec, params, feat, edges):
    pairs = pair_index(edges.reverse)
    return sph.tfn_conv(
        spec, as_layer0(params), "layer0", feat, edges.src, edges.dst, filters(spec, Tensor(edges.rel_vec), pairs)
    )


def attend(spec, params, feat, edges):
    pairs = pair_index(edges.reverse)
    return sph.se3_attention(
        spec, as_layer0(params), "layer0", feat, edges.src, edges.dst, filters(spec, Tensor(edges.rel_vec), pairs)
    )


def steerable_energy(spec, params, batch, pos):
    return api.ModelHandle(spec.family, spec, spec.basis.cutoff).energy(params, batch, pos)


# ---------------------------------------------------------------------------
# layer spec


def test_spec_rejects_repeated_degree():
    with pytest.raises(ContractError):
        layer_spec(layout_in=IrrepsLayout(((2, 0), (3, 0))))


def test_spec_rejects_high_degree():
    with pytest.raises(ContractError):
        IrrepsLayout(((2, 7),))
    with pytest.raises(ContractError):
        layer_spec(layout_in=IrrepsLayout(((2, 0), (1, 3))))


DEGREE_SETS = [
    degrees for size in (1, 2, 3) for degrees in itertools.combinations(range(sph._DEGREE_CAP + 1), size)
]


@pytest.mark.parametrize("out_degrees", DEGREE_SETS, ids=lambda d: "out" + "".join(map(str, d)))
@pytest.mark.parametrize("in_degrees", DEGREE_SETS, ids=lambda d: "in" + "".join(map(str, d)))
def test_paths_read_every_input_and_reach_every_output(in_degrees, out_degrees):
    # every filter degree is in play, so no layout can leave a block idle
    spec = layer_spec(
        layout_in=IrrepsLayout(tuple((3, l) for l in in_degrees)),
        layout_out=IrrepsLayout(tuple((2, l) for l in out_degrees)),
    )
    paths = spec.paths()
    assert {b_in for b_in, _, _ in paths} == set(range(len(in_degrees)))
    assert {b_out for _, _, b_out in paths} == set(range(len(out_degrees)))


@pytest.mark.parametrize("in_degrees", DEGREE_SETS, ids=lambda d: "in" + "".join(map(str, d)))
def test_readout_outputs_read_the_leading_coupling_columns(in_degrees):
    # attention into the readout's blocks reads its values from the leading
    # rows of its keys' coupling matrices, which output every degree:
    # coupling rows must run by ascending output degree
    layout_in = IrrepsLayout(tuple((3, l) for l in in_degrees))
    wide = sph._fusion(layer_spec(layout_in=layout_in, layout_out=IrrepsLayout(((2, 0), (2, 1), (2, 2)))))
    narrow = sph._fusion(layer_spec(layout_in=layout_in, layout_out=IrrepsLayout(((2, 0), (2, 1)))))
    for (_, l_in), w, nw in zip(layout_in.blocks, wide, narrow):
        assert nw.width < w.width
        leading = w.table.reshape(-1, w.width, 2 * l_in + 1)[:, : nw.width]
        np.testing.assert_array_equal(nw.table.reshape(leading.shape), leading)
        assert nw.segments == {l: w.segments[l] for l in (0, 1)}


def test_coupling_rows_interleave_their_groups_and_meet_the_mix_by_path():
    # in the segment of degree l_out, row start + m * groups + g holds
    # component m of group g, the g-th filter degree reaching l_out; a node's
    # segment then reshapes to (2 l_out + 1, groups * mult) with columns in
    # (path, channel) order, the order of the stored mix rows
    spec = layer_spec()
    params = as_tensors(sph.init_tfn_layer(spec, np.random.default_rng(1), "conv"))
    fusion = sph._fusion(spec)

    def filter_degrees(l_in, l_out):
        return [l_f for l_f in sph._FILTER_DEGREES if abs(l_in - l_f) <= l_out <= l_in + l_f]

    for (_, l_in), blk in zip(spec.layout_in.blocks, fusion):
        table = blk.table.reshape(-1, blk.width, 2 * l_in + 1)
        assert sorted(blk.segments) == [0, 1, 2]
        for l_out, (start, groups) in blk.segments.items():
            assert groups == len(filter_degrees(l_in, l_out))
            for g, l_f in enumerate(filter_degrees(l_in, l_out)):
                for m in range(2 * l_out + 1):
                    want = np.zeros(table.shape[::2])
                    want[l_f * l_f : (l_f + 1) ** 2] = clebsch_gordan(l_f, l_in, l_out)[:, :, m]
                    np.testing.assert_array_equal(table[:, start + m * groups + g], want)

    zero_sums = [np.zeros((1, blk.width, mult)) for blk, (mult, _) in zip(fusion, spec.layout_in.blocks)]
    for b_out, (mult_out, l_out) in enumerate(spec.layout_out.blocks):
        into = [k for k, (_, _, b) in enumerate(spec.paths()) if b == b_out]
        mix = params[f"conv.out{b_out}.mix"].data * (1.0 / math.sqrt(len(into)))
        first = 0
        for k in into:
            b_in, l_f, _ = spec.paths()[k]
            mult, l_in = spec.layout_in.blocks[b_in]
            start, groups = fusion[b_in].segments[l_out]
            g = filter_degrees(l_in, l_out).index(l_f)
            for m, c in itertools.product(range(2 * l_out + 1), range(mult)):
                sums = [Tensor(zeros.copy()) for zeros in zero_sums]
                sums[b_in].data[0, start + m * groups + g, c] = 1.0
                want = np.zeros((1, 2 * l_out + 1, mult_out))
                want[0, m] = mix[first + c]
                np.testing.assert_array_equal(sph._mix(spec, params, "conv", sums)[b_out].data, want)
            first += mult
        assert first == mix.shape[0]


def test_paths_satisfy_triangle_inequality():
    spec = layer_spec()
    assert len(spec.paths()) > 0
    for b_in, l_f, b_out in spec.paths():
        l_in = spec.layout_in.blocks[b_in][1]
        l_out = spec.layout_out.blocks[b_out][1]
        assert abs(l_in - l_f) <= l_out <= l_in + l_f


# ---------------------------------------------------------------------------
# convolution


def test_conv_no_edges_is_identity():
    spec = layer_spec()
    params = as_tensors(sph.init_tfn_layer(spec, np.random.default_rng(2), "conv"))
    feat = random_feature(spec.layout_in, 3, 5)
    edges = radius_graph(np.array([[0.0, 0, 0], [40.0, 0, 0], [80.0, 0, 0]]), 5.0)
    assert edges.n_edges == 0
    out = conv(spec, params, feat, edges)
    np.testing.assert_array_equal(rows(out), rows(feat))


def test_conv_rejects_zero_length_edge():
    spec = layer_spec()
    params = as_tensors(sph.init_tfn_layer(spec, np.random.default_rng(2), "conv"))
    feat = random_feature(spec.layout_in, 2, 5)
    one = np.zeros(1, np.int64)
    with pytest.raises(ContractError):
        filters(spec, Tensor(np.zeros((1, 3))), PairIndex(one, one, np.zeros(1, bool)))


def test_conv_layout_mismatch_rejected():
    spec = layer_spec()
    params = as_tensors(sph.init_tfn_layer(spec, np.random.default_rng(2), "conv"))
    bad = random_feature(IrrepsLayout(((4, 0),)), 3, 5)
    edges = radius_graph(cloud(0), 5.0)
    with pytest.raises(ShapeError):
        conv(spec, params, bad, edges)


def test_conv_equivariance():
    spec = layer_spec()
    params = as_tensors(sph.init_tfn_layer(spec, np.random.default_rng(3), "conv"))
    pos = cloud(1)
    feat = random_feature(spec.layout_in, 4, 6)
    out = conv(spec, params, feat, radius_graph(pos, 5.0))
    for seed in range(5):
        rot = random_rotation(100 + seed)
        out_r = conv(
            spec, params, rotate_steerable(feat, rot), radius_graph(pos @ rot.T, 5.0)
        )
        ref = rotate_steerable(out, rot)
        assert np.abs(rows(out_r) - rows(ref)).max() < 1e-8


def test_conv_translation_invariance():
    spec = layer_spec()
    params = as_tensors(sph.init_tfn_layer(spec, np.random.default_rng(4), "conv"))
    pos = cloud(2)
    feat = random_feature(spec.layout_in, 4, 7)
    out = conv(spec, params, feat, radius_graph(pos, 5.0))
    out_t = conv(spec, params, feat, radius_graph(pos + np.array([3.0, -2.0, 9.0]), 5.0))
    assert np.abs(rows(out_t) - rows(out)).max() < 1e-12


def test_scalar_only_conv_matches_single_hop_layer():
    # with matched weights the l=0-only tensor product collapses onto the
    # radial-filter update of the single-hop stack
    assert clebsch_gordan(0, 0, 0)[0, 0, 0] == 1.0
    d = 7
    rbf_spec = inv.RadialBasisSpec(count=6, cutoff=5.0)
    s_spec = inv.SchNetSpec(hidden=d, layers=1, basis=rbf_spec)
    s_params = inv.init_schnet(s_spec, 8)
    s_params["layer0.win"] = np.eye(d)

    t_spec = sph.TfnLayerSpec(
        layout_in=IrrepsLayout(((d, 0),)),
        layout_out=IrrepsLayout(((d, 0),)),
        radial=rbf_spec,
        radial_hidden=d,
    )
    t_params = {
        "conv.path0.radial.w0": s_params["layer0.filter.w0"],
        "conv.path0.radial.b0": s_params["layer0.filter.b0"],
        "conv.path0.radial.w1": s_params["layer0.filter.w1"] / Y00,
        "conv.path0.radial.b1": s_params["layer0.filter.b1"] / Y00,
        "conv.out0.mix": s_params["layer0.wout"],
    }

    conf = Conformation(z=np.array([1, 6, 8, 7, 2]), pos=cloud(3, n=5))
    batch = build_batch([conf], cutoff=5.0, need_angles=False)
    h, _ = inv.schnet_forward(s_spec, as_tensors(s_params), batch, Tensor(batch.pos))

    feat = SteerableFeature(t_spec.layout_in, [Tensor(s_params["embed"][conf.z][:, None, :])])
    edges = radius_graph(conf.pos, 5.0)
    out = conv(t_spec, as_tensors(t_params), feat, edges)
    np.testing.assert_allclose(rows(out), h.data, atol=1e-12, rtol=0)


# ---------------------------------------------------------------------------
# attention


READOUT_LAYOUT = IrrepsLayout(((5, 0), (3, 1)))


def attention_layer(index, seed):
    """Layer `index` of a three-layer se3attn stack over hidden_layout(), and
    its weights: layer 1 attends over hidden_layout(), layer 2, the last,
    attends into the readout's blocks."""
    model = sph.SteerableModelSpec(
        family="se3attn",
        scalar_channels=5,
        vector_channels=3,
        tensor_channels=2,
        layers=3,
        basis=inv.RadialBasisSpec(count=6, cutoff=5.0),
        radial_hidden=8,
    )
    spec = model.layer_spec(index)
    params = sph.init_steerable(model, seed)
    return spec, {k[len(f"layer{index}.") :]: v for k, v in params.items() if k.startswith(f"layer{index}.")}


def attention_setup(seed=0):
    # the hidden attention layer keeps every degree
    spec, params = attention_layer(1, seed)
    assert spec == layer_spec()
    return spec, params


def last_attention_setup(seed=0):
    spec, params = attention_layer(2, seed)
    assert spec == layer_spec(layout_out=READOUT_LAYOUT)
    return spec, params


def kept_blocks(feat, layout):
    """The blocks of `feat` that `layout` names, in its order."""
    lookup = dict(zip(feat.layout.blocks, feat.blocks))
    return SteerableFeature(layout, [lookup[blk] for blk in layout.blocks])


def test_attention_spec_validation():
    # the residual needs every output block to be an input block: a shrunk
    # output attends, a widened input is refused
    _, params = attention_setup()
    edges = radius_graph(cloud(0), 5.0)
    shrunk = layer_spec(layout_out=READOUT_LAYOUT)
    out, _ = attend(shrunk, as_tensors(params), random_feature(shrunk.layout_in, 4, 9), edges)
    assert out.layout == shrunk.layout_out
    widened = layer_spec(layout_in=IrrepsLayout(((5, 0),)))
    feat = random_feature(widened.layout_in, 4, 9)
    with pytest.raises(ContractError):
        attend(widened, as_tensors(params), feat, edges)


def test_attention_single_neighbor_reduces_to_conv():
    check_single_neighbor_reduces_to_conv(*attention_setup(1))


def test_last_attention_single_neighbor_reduces_to_conv():
    # the narrowed value weights are those of a convolution into the readout's blocks
    check_single_neighbor_reduces_to_conv(*last_attention_setup(1))


def check_single_neighbor_reduces_to_conv(spec, params):
    pos = np.array([[0.0, 0, 0], [1.4, 0.3, -0.2]])
    edges = radius_graph(pos, 5.0)
    feat = random_feature(spec.layout_in, 2, 9)
    out, alpha = attend(spec, as_tensors(params), feat, edges)
    np.testing.assert_array_equal(alpha.data, np.ones(2))
    conv_params = {
        "conv." + k.split(".", 1)[1]: v for k, v in params.items() if k.startswith("value.")
    }
    ref = conv(spec, as_tensors(conv_params), feat, edges)
    np.testing.assert_allclose(rows(out), rows(ref), atol=1e-12, rtol=0)


def test_attention_equal_keys_uniform_weights():
    spec, params = attention_setup(2)
    for k in params:
        if k.startswith("key."):
            params[k] = np.zeros_like(params[k])
    pos = cloud(4, n=5)
    edges = radius_graph(pos, 5.0)
    feat = random_feature(spec.layout_in, 5, 10)
    _, alpha = attend(spec, as_tensors(params), feat, edges)
    incoming = np.bincount(edges.src, minlength=5)
    np.testing.assert_allclose(alpha.data, 1.0 / incoming[edges.src], atol=1e-15)


def test_attention_weights_rotation_invariant():
    spec, params = attention_setup(3)
    pt = as_tensors(params)
    pos = cloud(5, n=4)
    feat = random_feature(spec.layout_in, 4, 11)
    _, alpha = attend(spec, pt, feat, radius_graph(pos, 5.0))
    for seed in range(4):
        rot = random_rotation(200 + seed)
        _, alpha_r = attend(
            spec, pt, rotate_steerable(feat, rot), radius_graph(pos @ rot.T, 5.0)
        )
        assert np.abs(alpha_r.data - alpha.data).max() < 1e-12


def test_attention_equivariance():
    check_attention_equivariance(*attention_setup(4))


def test_last_attention_equivariance():
    check_attention_equivariance(*last_attention_setup(4))


def check_attention_equivariance(spec, params):
    pt = as_tensors(params)
    pos = cloud(6, n=4)
    feat = random_feature(spec.layout_in, 4, 12)
    out, _ = attend(spec, pt, feat, radius_graph(pos, 5.0))
    for seed in range(4):
        rot = random_rotation(300 + seed)
        out_r, _ = attend(
            spec, pt, rotate_steerable(feat, rot), radius_graph(pos @ rot.T, 5.0)
        )
        ref = rotate_steerable(out, rot)
        assert np.abs(rows(out_r) - rows(ref)).max() < 1e-8


def test_attention_isolated_node_keeps_its_row():
    # an atom without neighbors aggregates nothing, so the residual keeps its
    # row, and the other atoms attend as if it were absent
    check_isolated_node_keeps_its_row(*attention_setup(5))


def test_last_attention_isolated_node_keeps_its_rows():
    # the last layer keeps the isolated atom's degree-0 and degree-1 rows
    check_isolated_node_keeps_its_row(*last_attention_setup(5))


def test_last_attention_outputs_the_readout_blocks():
    spec, params = last_attention_setup(6)
    feat = random_feature(spec.layout_in, 4, 14)
    out, _ = attend(spec, as_tensors(params), feat, radius_graph(cloud(7), 5.0))
    assert out.layout == READOUT_LAYOUT
    assert [b.shape for b in out.blocks] == [(4, 1, 5), (4, 3, 3)]


def check_isolated_node_keeps_its_row(spec, params):
    pt = as_tensors(params)
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [90.0, 0, 0]])
    feat = random_feature(spec.layout_in, 3, 13)
    out, alpha = attend(spec, pt, feat, radius_graph(pos, 5.0))
    np.testing.assert_array_equal(rows(out)[2], rows(kept_blocks(feat, spec.layout_out))[2])
    connected = SteerableFeature(feat.layout, [Tensor(b.data[:2]) for b in feat.blocks])
    ref, ref_alpha = attend(spec, pt, connected, radius_graph(pos[:2], 5.0))
    np.testing.assert_allclose(rows(out)[:2], rows(ref), rtol=0, atol=1e-12)
    np.testing.assert_allclose(alpha.data, ref_alpha.data, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# fused messages against the per-path form


def reference_messages(spec, params, prefix, feat, dst, rel):
    """Per output block, the messages of its paths (E, mult_in, 2 l_out + 1)
    in the per-path form: radial output times harmonics as the filter, its
    outer product with the neighbor block, then the coupling table. The
    form holds channels first, so each neighbor block (E, 2 l_in + 1,
    mult_in) is transposed on the way in."""
    geom = inv.edge_geometry(spec.radial, rel)
    unit, rbf, env = geom.unit, geom.rbf, T.reshape(geom.env, (-1, 1, 1))
    e = rel.shape[0]
    per_block = {}
    for k, (b_in, l_f, b_out) in enumerate(spec.paths()):
        mult, l_in = spec.layout_in.blocks[b_in]
        l_out = spec.layout_out.blocks[b_out][1]
        radial = T.mlp_apply(params, rbf, f"{prefix}.path{k}.radial")
        filt = T.reshape(radial, (e, mult, 1)) * T.reshape(sph_harm_block(l_f, unit), (e, 1, 2 * l_f + 1))
        neighbor = T.transpose2(T.gather(feat.blocks[b_in], dst))
        outer = T.reshape(filt, (e, mult, 2 * l_f + 1, 1)) * T.reshape(neighbor, (e, mult, 1, 2 * l_in + 1))
        flat = T.reshape(outer, (e, mult, (2 * l_f + 1) * (2 * l_in + 1)))
        table = Tensor(clebsch_gordan(l_f, l_in, l_out).reshape(-1, 2 * l_out + 1))
        per_block.setdefault(b_out, []).append(T.matmul(flat, table) * env)
    return per_block


def reference_mix(spec, params, prefix, b_out, stacked):
    """Output block (N, 2 l_out + 1, mult_out) from the messages of its
    paths side by side, channels first."""
    mixed = T.matmul(T.transpose2(stacked), params[f"{prefix}.out{b_out}.mix"])
    return mixed * (1.0 / math.sqrt(sum(b == b_out for _, _, b in spec.paths())))


def reference_conv(spec, params, feat, src, dst, rel):
    n = feat.blocks[0].shape[0]
    per_block = reference_messages(spec, params, "conv", feat, dst, rel)
    in_lookup = {blk: i for i, blk in enumerate(spec.layout_in.blocks)}
    blocks = []
    for b_out, blk in enumerate(spec.layout_out.blocks):
        summed = T.scatter_sum(T.concat(per_block[b_out], axis=1), src, n)
        out = reference_mix(spec, params, "conv", b_out, summed)
        if blk in in_lookup:
            out = out + feat.blocks[in_lookup[blk]]
        blocks.append(out)
    return SteerableFeature(spec.layout_out, blocks)


def reference_attention(spec, params, feat, src, dst, rel):
    n = feat.blocks[0].shape[0]

    def mixed_blocks(layer, prefix):
        per_block = reference_messages(layer, params, prefix, feat, dst, rel)
        return [
            reference_mix(layer, params, prefix, b, T.concat(msgs, axis=1))
            for b, msgs in sorted(per_block.items())
        ]

    # keys output the input layout; values output the layer's
    keys = dataclasses.replace(spec, layout_out=spec.layout_in)
    queries = [T.matmul(block, params[f"query{b}.mix"]) for b, block in enumerate(feat.blocks)]
    score = None
    for query, key in zip(queries, mixed_blocks(keys, "key")):
        term = T.sum_(T.gather(query, src) * key, axis=(1, 2))
        score = term if score is None else score + term
    alpha = T.segment_softmax(score, src, n)
    weight = T.reshape(alpha, (-1, 1, 1))
    update = [T.scatter_sum(v * weight, src, n) for v in mixed_blocks(spec, "value")]
    kept = kept_blocks(feat, spec.layout_out)
    return SteerableFeature(spec.layout_out, [b + u for b, u in zip(kept.blocks, update)]), alpha


def fused_and_reference(layer, graph):
    """(tfn_conv or se3_attention, per-path reference, spec, params, feature, positions)."""
    rng = np.random.default_rng(8)
    if layer in ("attention", "last-attention"):
        spec, params = (attention_setup if layer == "attention" else last_attention_setup)(7)

        def fused(spec, params, feat, src, dst, rel, reverse):
            inputs = filters(spec, rel, pair_index(reverse))
            return sph.se3_attention(spec, as_layer0(params), "layer0", feat, src, dst, inputs)

        def ref(*args):
            return reference_attention(*args[:-1])
    else:
        layout_in = {"hidden": hidden_layout(), "scalar": IrrepsLayout(((4, 0),))}[layer]
        spec = layer_spec(layout_in=layout_in)
        params = sph.init_tfn_layer(spec, rng, "conv")

        def fused(spec, params, feat, src, dst, rel, reverse):
            inputs = filters(spec, rel, pair_index(reverse))
            return sph.tfn_conv(spec, as_layer0(params), "layer0", feat, src, dst, inputs), None

        def ref(*args):
            return reference_conv(*args[:-1]), None

    if graph == "isolated":
        pos = np.concatenate([cloud(9, n=5), [[90.0, 0.0, 0.0]]])
    else:
        pos = np.array([[0.0, 0, 0], [40.0, 0, 0], [80.0, 0, 0]])
    return fused, ref, spec, params, random_feature(spec.layout_in, pos.shape[0], 10), pos


def assert_within(got, want):
    """At most 1e-12 of the largest magnitude apart (equal where that is 0)."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)


@pytest.mark.parametrize("graph", ["isolated", "edgeless"])
@pytest.mark.parametrize("layer", ["hidden", "scalar", "attention", "last-attention"])
def test_fused_messages_match_per_path_reference(layer, graph):
    fused, ref, spec, params, feat, pos0 = fused_and_reference(layer, graph)
    edges = radius_graph(pos0, 5.0)
    assert (edges.n_edges > 0) == (graph == "isolated")
    results = []
    for layer_fn in (fused, ref):
        tape = Tape()
        pt = T.lift(params, tape)
        pos = tape.tensor(pos0)
        rel = T.gather(pos, edges.dst) - T.gather(pos, edges.src)
        out, alpha = layer_fn(spec, pt, feat, edges.src, edges.dst, rel, edges.reverse)
        weights = np.random.default_rng(11)
        energy = sum(T.sum_(b * weights.normal(size=b.shape)) for b in out.blocks)
        (force,) = tape.gradient(energy, [pos])
        names = sorted(pt)
        param_grads = tape.gradient(T.sum_(force * force), [pt[k] for k in names])
        results.append((rows(out), alpha, force.data, {k: g.data for k, g in zip(names, param_grads)}))
    (out, alpha, force, grads), (ref_out, ref_alpha, ref_force, ref_grads) = results
    assert_within(out, ref_out)
    if alpha is not None:
        assert_within(alpha.data, ref_alpha.data)
    assert_within(force, ref_force)
    assert grads.keys() == ref_grads.keys()
    for k in grads:
        assert_within(grads[k], ref_grads[k])


# ---------------------------------------------------------------------------
# full stacks


def model_setup(family, seed=0):
    spec = sph.SteerableModelSpec(
        family=family,
        scalar_channels=6,
        vector_channels=4,
        tensor_channels=2,
        layers=2,
        basis=inv.RadialBasisSpec(count=6, cutoff=5.0),
        radial_hidden=8,
    )
    return spec, sph.init_steerable(spec, seed)


def batch_for(seed, n=4):
    conf = Conformation(z=np.random.default_rng(seed).integers(1, 10, n), pos=cloud(seed, n=n))
    return build_batch([conf], cutoff=5.0, need_angles=False)


@pytest.mark.parametrize("family", ["tfn", "se3attn"])
def test_stack_energy_rigid_motion_invariant(family):
    spec, params = model_setup(family, seed=1)
    pt = as_tensors(params)
    batch = batch_for(21)
    base = steerable_energy(spec, pt, batch, Tensor(batch.pos)).data
    for seed in range(4):
        rot = random_rotation(400 + seed)
        refl = rot @ np.diag([-1.0, 1.0, 1.0])
        for m in (rot, refl):
            moved = batch.pos @ m.T + np.array([0.5, -2.0, 1.0])
            got = steerable_energy(spec, pt, batch, Tensor(moved)).data
            np.testing.assert_allclose(got, base, atol=1e-10, rtol=0)


@pytest.mark.parametrize("family", ["tfn", "se3attn"])
def test_stack_vector_head_equivariant(family):
    spec, params = model_setup(family, seed=2)
    pt = as_tensors(params)
    batch = batch_for(22)
    base = sph.steerable_forward(spec, pt, batch, Tensor(batch.pos))[1].data
    for seed in range(4):
        rot = random_rotation(500 + seed)
        moved = batch.pos @ rot.T + 1.25
        got = sph.steerable_forward(spec, pt, batch, Tensor(moved))[1].data
        np.testing.assert_allclose(got, base @ rot.T, atol=1e-8, rtol=0)


@pytest.mark.parametrize("family", ["tfn", "se3attn"])
def test_stack_forces_match_finite_differences(family):
    spec, params = model_setup(family, seed=3)
    pt = as_tensors(params)
    batch = batch_for(23)
    tape = Tape()
    pos = tape.tensor(batch.pos)
    (grad,) = tape.gradient(T.sum_(steerable_energy(spec, pt, batch, pos)), [pos])
    eps = 1e-5
    for atom, axis in [(0, 1), (3, 0)]:
        hi = batch.pos.copy()
        hi[atom, axis] += eps
        lo = batch.pos.copy()
        lo[atom, axis] -= eps
        fd = (
            steerable_energy(spec, pt, batch, Tensor(hi)).data.sum()
            - steerable_energy(spec, pt, batch, Tensor(lo)).data.sum()
        ) / (2 * eps)
        assert abs(fd - grad.data[atom, axis]) / max(abs(fd), 1e-10) < 1e-5
    assert np.abs(grad.data.sum(axis=0)).max() < 1e-12


def test_stack_permutation_invariant_energy():
    spec, params = model_setup("tfn", seed=4)
    pt = as_tensors(params)
    rng = np.random.default_rng(0)
    z = rng.integers(1, 10, 5)
    pos = cloud(31, n=5)
    order = rng.permutation(5)
    b1 = build_batch([Conformation(z=z, pos=pos)], cutoff=5.0, need_angles=False)
    b2 = build_batch([Conformation(z=z[order], pos=pos[order])], cutoff=5.0, need_angles=False)
    e1 = steerable_energy(spec, pt, b1, Tensor(b1.pos)).data
    e2 = steerable_energy(spec, pt, b2, Tensor(b2.pos)).data
    np.testing.assert_allclose(e1, e2, atol=1e-12)


def test_model_spec_validation():
    with pytest.raises(ContractError):
        sph.SteerableModelSpec(family="nequip")
    with pytest.raises(ContractError):
        sph.SteerableModelSpec(layers=0)
    with pytest.raises(ContractError):
        sph.SteerableModelSpec(vector_channels=0)


@pytest.mark.parametrize(
    "family,layers", [("tfn", 1), ("tfn", 2), ("tfn", 3), ("se3attn", 1), ("se3attn", 2), ("se3attn", 3)]
)
def test_last_convolution_outputs_the_readout_blocks(family, layers):
    # the readout reads degrees 0 and 1, and the last layer outputs them
    # alone, whether it convolves or attends
    spec = sph.SteerableModelSpec(family=family, scalar_channels=5, vector_channels=3, tensor_channels=2, layers=layers)
    assert [spec.layer_spec(i).layout_out for i in range(layers)] == [hidden_layout()] * (layers - 1) + [READOUT_LAYOUT]


@pytest.mark.parametrize("family,layers", [("tfn", 1), ("tfn", 3), ("se3attn", 1), ("se3attn", 3)])
def test_a_forward_without_vectors_outputs_degree_0_alone(family, layers):
    # its last layer's paths are the leading paths of the full last layer,
    # and its harmonics stop at the highest filter degree a path reads: a
    # one-layer stack convolves degree 0 into degrees 0 and 1 by filters of
    # the same degrees, into degree 0 alone by the constant filter
    spec = sph.SteerableModelSpec(family=family, scalar_channels=5, vector_channels=3, tensor_channels=2, layers=layers)
    full, scalar = spec.layer_spec(layers - 1), spec.layer_spec(layers - 1, vectors=False)
    assert scalar.layout_out == IrrepsLayout(((5, 0),))
    into_0 = [p for p in full.paths() if p[2] == 0]
    assert scalar.paths() == full.paths()[: len(scalar.paths())] == into_0
    assert [spec.layer_spec(i, vectors=False) for i in range(layers - 1)] == [spec.layer_spec(i) for i in range(layers - 1)]
    assert (spec.filter_degree(vectors=False), spec.filter_degree(vectors=True)) == ((0, 1) if layers == 1 else (2, 2))


@pytest.mark.parametrize("family,layers", [("tfn", 1), ("tfn", 2), ("se3attn", 1), ("se3attn", 2)])
@pytest.mark.parametrize("seed", [0, 7])
def test_last_convolution_keeps_its_hidden_layer_weights(family, layers, seed):
    # with one more layer the same layer is hidden: the last layer drops
    # exactly its paths into degree 2 and their mix (the values' paths, if
    # it attends), and keeps the rest with the values they have there
    spec, _ = model_setup(family, seed)
    deeper = dataclasses.replace(spec, layers=layers + 1)
    last = sph.init_steerable(dataclasses.replace(spec, layers=layers), seed)
    full = sph.init_steerable(deeper, seed)
    prefix = f"layer{layers - 1}." + ("value." if deeper.attends(layers - 1) else "conv.")
    paths = deeper.layer_spec(layers - 1).paths()
    into_2 = tuple(f"{prefix}path{k}." for k, p in enumerate(paths) if p[2] == 2) + (f"{prefix}out2.",)
    assert {k for k in full if k.startswith(prefix)} - set(last) == {k for k in full if k.startswith(into_2)}
    for name, value in last.items():
        if name.startswith("layer"):
            np.testing.assert_array_equal(value, full[name])
