"""Steerable message passing: tensor-product convolution and dot-product
attention over degree-typed features, held as one (N, 2l+1, mult) tensor
per (multiplicity, degree) block, channels last. Messages read whole
blocks, and layers return their output blocks as they compute them.

Along edge e, the message from neighbor block x (2 l_in + 1, mult) into
output degree l_out through filter degree l_f is

    m_e = R_e * (A_e x),    A_e = Y_{l_f}(u_e) . CG(l_f, l_in, l_out)

where R_e (mult,) is the path's radial network on the edge length, scaling
each channel, and A_e is a channel-free (2 l_out + 1, 2 l_in + 1) coupling
matrix: the harmonics of the edge direction contracted with the
Clebsch-Gordan table. A_e rotates like the blocks it connects, so every
message rotates with the Wigner matrix of l_out. The coupling matrices of
all paths out of one input block are stacked row-wise, so the gathered
neighbor block meets them in one batched matmul, and the radial networks
of those paths run as one first-layer matmul and one batched second layer.

R_e and the enveloped harmonics depend only on the edge's length and
direction, so they are computed once per edge pair {e, reverse of e}. A
message is one `tensor.edge_product` of the coupled rows, per edge, and
the radial outputs, per pair, summed into its node by `src` as it is
formed, so neither an edge-sized expansion of the radial outputs nor the
messages themselves are formed or kept. A reversed edge has
the negated unit vector, and Y_l(-u) = (-1)^l Y_l(u), so its harmonics of
odd degree change sign. Messages into one degree are summed per node, laid
side by side over their paths, mixed by a per-degree linear map and scaled
by 1/sqrt(paths): with channels last, every channel mix is one matmul by
the stored weights. Residuals attach only where input and output layouts
carry an identical (multiplicity, degree) block, and add block to block.

Every layer filters with all degrees 0..2, so any input block reaches every
output degree. What a filter reads from an edge (radial basis and enveloped
harmonics) depends only on the edges and the radial basis, which all layers
share, so a forward forms it once with `filter_inputs` from the shared
`invariant.edge_geometry` and hands it to each layer.

Hidden layers output degrees 0..2. The readout reads degree 0 for the node
scalars and degree 1 for the node vectors, so a stack's last layer,
convolution or attention, outputs degrees 0 and 1, or degree 0 alone when
the caller reads no vectors. Its paths into degree 0 and their mix come
first, so both forms share their parameters. The harmonics stop at the
highest filter degree that some layer's paths read, and the coupling
tables are cut to match: a one-layer stack reads degree 0 alone for its
scalars, which takes no edge directions, and degree 1 for its vectors.

Attention keys are messages whose output layout is the input's; values
are messages of the layer spec. Each has its own weights, and both read
the keys' coupling matrices, whose rows run by ascending output degree,
so values without degree 2 read the leading rows. Scores are full dot
products of steerable query and key rows, hence rotation-invariant
scalars. Both sides of a score are linear, so neither the keys nor their
messages are formed: the query rows go back through the key mix at node
scale, and each score is one summed edge product of the coupled rows, the
key radial outputs per pair and those query rows per node. Values are
likewise weighted and summed per node before they are mixed, the
attention weight a scalar factor of their edge product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .. import tensor as T
from ..errors import ContractError, ShapeError
from ..geometry import PairIndex, SegmentPlan, segment_plan
from ..so3 import MAX_DEGREE, IrrepsLayout, SteerableFeature, clebsch_gordan, sph_harm_block
from ..tensor import Tensor, init_mlp
from .common import EMBED_ROWS, GraphBatch, embed_nodes, pair_vectors
from .invariant import EdgeGeometry, RadialBasisSpec, edge_geometry

_DEGREE_CAP = MAX_DEGREE
_FILTER_DEGREES = tuple(range(_DEGREE_CAP + 1))


def _check_layout(layout: IrrepsLayout, who: str) -> None:
    degrees = [l for _, l in layout.blocks]
    if len(set(degrees)) != len(degrees):
        raise ContractError(f"{who} layout repeats a degree; one block per degree")


@dataclass(frozen=True)
class TfnLayerSpec:
    """One tensor-product convolution: layouts and radial net. Its filters
    take every degree 0.._DEGREE_CAP."""

    layout_in: IrrepsLayout
    layout_out: IrrepsLayout
    radial: RadialBasisSpec
    radial_hidden: int

    def __post_init__(self):
        _check_layout(self.layout_in, "input")
        _check_layout(self.layout_out, "output")
        if self.radial_hidden < 1:
            raise ContractError("radial hidden width must be positive")

    def paths(self) -> list[tuple[int, int, int]]:
        """(input block, filter degree, output block) triples allowed by the
        triangle inequality, in deterministic order."""
        out = []
        for b_out, (_, l_out) in enumerate(self.layout_out.blocks):
            for b_in, (_, l_in) in enumerate(self.layout_in.blocks):
                for l_f in _FILTER_DEGREES:
                    if abs(l_in - l_f) <= l_out <= l_in + l_f:
                        out.append((b_in, l_f, b_out))
        return out


def init_tfn_layer(spec: TfnLayerSpec, rng: np.random.Generator, prefix: str) -> dict:
    params = {}
    fan_in = [0] * len(spec.layout_out.blocks)
    for k, (b_in, _, b_out) in enumerate(spec.paths()):
        mult_in = spec.layout_in.blocks[b_in][0]
        params.update(init_mlp((spec.radial.count, spec.radial_hidden, mult_in), rng, f"{prefix}.path{k}.radial"))
        fan_in[b_out] += mult_in
    for b_out, (mult_out, _) in enumerate(spec.layout_out.blocks):
        params[f"{prefix}.out{b_out}.mix"] = T.glorot_uniform(rng, fan_in[b_out], mult_out)
    return params


@dataclass(frozen=True)
class EdgeFilters:
    """What every message of a layer reads from its edges: the radial basis
    of the edge pairs, transposed to (count, P), the `PairIndex` that
    expands pair rows to the edges, and the harmonics of every filter
    degree side by side, (E, (_DEGREE_CAP + 1)^2), times the cosine
    envelope."""

    rbf_t: Tensor
    pairs: PairIndex
    harmonics: Tensor


# the columns of the side-by-side harmonics whose degree is odd
_ODD_COLUMNS = np.concatenate([np.full(2 * l + 1, l % 2 == 1) for l in _FILTER_DEGREES])


def filter_inputs(geom: EdgeGeometry, pairs: PairIndex, degree: int) -> EdgeFilters:
    """The `EdgeFilters` of edges grouped by `pairs`, from the geometry of
    their pairs, with the harmonics of filter degrees 0..`degree`. The
    enveloped harmonics are computed per pair and expanded to the edges,
    their odd degrees negated on flipped edges. Degree 0 is constant, so
    harmonics of degree 0 alone read no edge directions."""
    # the degree-0 block reads only the row count, which the lengths share
    blocks = [sph_harm_block(l, geom.unit if l else geom.dist) for l in range(degree + 1)]
    harmonics = T.gather(T.concat(blocks, axis=1) * geom.env, pairs)
    if degree:
        sign = np.where(pairs.flipped[:, None] & _ODD_COLUMNS[: (degree + 1) ** 2], -1.0, 1.0)
        harmonics = harmonics * Tensor(sign)
    return EdgeFilters(T.transpose2(geom.rbf), pairs, harmonics)


@dataclass(frozen=True)
class _BlockFusion:
    """How the messages out of one input block are computed together.

    Coupling rows come in one segment per output degree, ascending. The
    segment of degree l_out holds one group per filter degree that reaches
    it, ascending, with its rows interleaved: row `start + m * groups + g`
    is component m of group g. `table` turns the harmonics of an edge into
    its coupling matrix (width, 2 l_in + 1), and `spread` copies the radial
    output of each path onto the rows of its group.
    """

    table: np.ndarray  # (harmonics, width * (2 l_in + 1))
    width: int
    segments: dict[int, tuple[int, int]]  # l_out -> (first row, groups)
    paths: tuple[int, ...]  # the paths out of this block, in group order
    spread: np.ndarray  # (paths, width)


@lru_cache(maxsize=None)
def _fusion(spec: TfnLayerSpec) -> tuple[_BlockFusion, ...]:
    """Coupling tables of a layer, one per input block."""
    n_harm = (_DEGREE_CAP + 1) ** 2
    paths = spec.paths()
    degrees_out = [l for _, l in spec.layout_out.blocks]
    plan = []
    for b, (_, l_in) in enumerate(spec.layout_in.blocks):
        rows, segments, width = {}, {}, 0
        for l_out in sorted(degrees_out):
            into = [(k, l_f) for k, (b_in, l_f, b_out) in enumerate(paths) if (b_in, degrees_out[b_out]) == (b, l_out)]
            segments[l_out] = (width, len(into))
            for g, (k, l_f) in enumerate(into):
                rows[k, l_f, l_out] = width + g + len(into) * np.arange(2 * l_out + 1)
            width += len(into) * (2 * l_out + 1)
        # degree l_f sits in rows l_f^2 .. (l_f + 1)^2 of the harmonics
        table = np.zeros((n_harm, width, 2 * l_in + 1))
        spread = np.zeros((len(rows), width))
        for i, ((_, l_f, l_out), r) in enumerate(rows.items()):
            table[l_f * l_f : (l_f + 1) ** 2, r, :] = np.swapaxes(clebsch_gordan(l_f, l_in, l_out), 1, 2)
            spread[i, r] = 1.0
        plan.append(_BlockFusion(table.reshape(n_harm, -1), width, segments, tuple(k for k, _, _ in rows), spread))
    return tuple(plan)


def _messages(
    weights: tuple[tuple[TfnLayerSpec, str], ...],
    params: dict,
    feat: SteerableFeature,
    dst: np.ndarray | SegmentPlan,
    filters: EdgeFilters,
) -> list[list[tuple]]:
    """The factors of the edge messages (E, width, mult_in) per (layer spec,
    weight prefix) of `weights` and per input block, for `T.edge_product`:
    the radial output of each path spread over its rows, run per edge pair,
    with the pair index that takes it to the edges, and the edge's coupling
    matrix times the neighbor block, as edge rows. The pair factor comes
    first, so that its rule, which sums an edge-sized product to the pairs,
    runs before the other's gradient exists. All share the first
    (widest) spec's coupling matrices; a narrower one reads their leading
    rows. The coupling tables are cut to the filter degrees of the harmonics."""
    e, n_harm = filters.harmonics.shape
    out: list[list[tuple]] = [[] for _ in weights]
    for b, blks in enumerate(zip(*(_fusion(spec) for spec, _ in weights))):
        neighbor = T.gather(feat.blocks[b], dst)
        dim_in, mult = neighbor.shape[1], neighbor.shape[2]
        table = Tensor(blks[0].table[:n_harm])
        coupling = T.reshape(T.matmul(filters.harmonics, table), (e, blks[0].width, dim_in))
        coupled = T.matmul(coupling, neighbor)
        for (spec, prefix), blk, factors in zip(weights, blks, out):
            radial = _radial(spec, prefix, params, blk, filters.rbf_t, mult)
            rows = coupled if blk.width == blks[0].width else coupled[:, : blk.width]
            factors.append(((radial, filters.pairs), (rows, None)))
    return out


def _radial(
    spec: TfnLayerSpec, prefix: str, params: dict, blk: _BlockFusion, rbf_t: Tensor, mult: int
) -> Tensor:
    """The radial networks of the paths out of one input block, run
    together and spread over their coupling rows: (P, width, mult).

    The first layers are one matmul over the concatenated weights, the
    second layers one batched matmul."""
    n, h, p = len(blk.paths), spec.radial_hidden, rbf_t.shape[1]

    def stacked(name: str, axis: int) -> Tensor:
        return T.concat([params[f"{prefix}.path{k}.radial.{name}"] for k in blk.paths], axis=axis)

    w0 = T.transpose2(stacked("w0", 1))
    hidden = T.silu(T.matmul(w0, rbf_t) + T.reshape(stacked("b0", 0), (-1, 1)))
    hidden = T.transpose2(T.reshape(hidden, (n, h, p)))
    w1 = T.reshape(stacked("w1", 0), (n, h, mult))
    r = T.matmul(hidden, w1) + T.reshape(stacked("b1", 0), (n, 1, mult))
    spread = T.matmul(T.transpose2(T.reshape(r, (n, p * mult))), Tensor(blk.spread))
    return T.transpose2(T.reshape(spread, (p, mult, blk.width)))


def _mix_weights(
    spec: TfnLayerSpec, params: dict, prefix: str, b_out: int
) -> tuple[Tensor, list[tuple[int, int, int]]]:
    """The mix of output block `b_out`, scaled by 1/sqrt(paths), and the
    row segments it reads as (input block, first row, groups), a group per
    path. The stored mix rows run (path, channel), as do the columns of
    those segments laid side by side."""
    l = spec.layout_out.blocks[b_out][1]
    reads = [(b, *blk.segments[l]) for b, blk in enumerate(_fusion(spec))]
    scale = 1.0 / math.sqrt(sum(groups for _, _, groups in reads))
    return params[f"{prefix}.out{b_out}.mix"] * scale, reads


def _mix(spec: TfnLayerSpec, params: dict, prefix: str, sums: list) -> list[Tensor]:
    """Output blocks (N, 2 l + 1, mult_out) from per-input-block sums of
    messages (N, width, mult_in): each output degree takes its row segment
    from every input block, and a per-degree linear map mixes the channels
    of all its paths."""
    blocks = []
    for b_out, (_, l) in enumerate(spec.layout_out.blocks):
        mix, reads = _mix_weights(spec, params, prefix, b_out)
        pieces = []
        for b, start, groups in reads:
            n, mult = sums[b].shape[0], sums[b].shape[2]
            piece = sums[b][:, start : start + groups * (2 * l + 1)]
            pieces.append(T.reshape(piece, (n, 2 * l + 1, groups * mult)))
        blocks.append(T.matmul(T.concat(pieces, axis=2), mix))
    return blocks


def _residual(spec: TfnLayerSpec, feat: SteerableFeature, blocks: list[Tensor]) -> SteerableFeature:
    in_lookup = dict(zip(spec.layout_in.blocks, feat.blocks))
    return SteerableFeature(
        spec.layout_out,
        [b + in_lookup[blk] if blk in in_lookup else b for b, blk in zip(blocks, spec.layout_out.blocks)],
    )


def tfn_conv(
    spec: TfnLayerSpec,
    params: dict,
    prefix: str,
    feat: SteerableFeature,
    src: np.ndarray | SegmentPlan,
    dst: np.ndarray | SegmentPlan,
    filters: EdgeFilters,
) -> SteerableFeature:
    """Neighborhood tensor-product update over edges (src <- dst), reading
    the `filter_inputs` of their geometry; weights live under `{prefix}.conv.`.
    `src` and `dst` are node indices or their `SegmentPlan`s; the messages
    are summed by `src`'s plan, made here for an index. Without edges
    every message is zero and only the residual remains."""
    if feat.layout != spec.layout_in:
        raise ShapeError("feature layout does not match the layer input layout")
    (messages,) = _messages(((spec, f"{prefix}.conv"),), params, feat, dst, filters)
    src = segment_plan(src, feat.blocks[0].shape[0])
    sums = [T.edge_product(*m, into=src) for m in messages]
    return _residual(spec, feat, _mix(spec, params, f"{prefix}.conv", sums))


# ---------------------------------------------------------------------------
# attention


def _key_scores(
    spec: TfnLayerSpec, params: dict, prefix: str, feat: SteerableFeature, messages: list, src: SegmentPlan
) -> Tensor:
    """Per-edge dot products of query and key rows (E,), without forming
    the keys or their messages. A score is linear in the key messages, so
    the query rows of each degree go back through the key mix at node
    scale, and each input block's term is one edge product of the
    message's factors and those rows, taken to the edges by `src`."""
    n = feat.blocks[0].shape[0]
    back: list[dict[int, Tensor]] = [{} for _ in messages]  # per input block: l_out -> (N, rows, mult)
    for b_out, (_, l) in enumerate(spec.layout_out.blocks):
        mix, reads = _mix_weights(spec, params, f"{prefix}.key", b_out)
        query = T.matmul(feat.blocks[b_out], params[f"{prefix}.query{b_out}.mix"])
        cols = T.matmul(query, T.transpose2(mix))  # (N, 2 l + 1, channels)
        first = 0
        for b, _, groups in reads:
            mult = spec.layout_in.blocks[b][0]
            piece = cols[:, :, first : first + groups * mult]
            back[b][l] = T.reshape(piece, (n, (2 * l + 1) * groups, mult))
            first += groups * mult
    score = None
    for blk, msg, rows in zip(_fusion(spec), messages, back):
        met = T.concat([rows[l] for l in blk.segments], axis=1)
        term = T.edge_product(*msg, (met, src), summed=True)
        score = term if score is None else score + term
    return score


def se3_attention(
    spec: TfnLayerSpec,
    params: dict,
    prefix: str,
    feat: SteerableFeature,
    src: np.ndarray | SegmentPlan,
    dst: np.ndarray | SegmentPlan,
    filters: EdgeFilters,
) -> tuple[SteerableFeature, Tensor]:
    """Attention update plus the attention weights (E,) for inspection.

    Values are messages of `spec` under `{prefix}.value.`, keys those of `spec`
    with the input layout as output under `{prefix}.key.`; queries mix each
    input block under `{prefix}.query{b}.`. Each output block is an input
    block plus its update, so a node without neighbors keeps it as it was."""
    if not set(spec.layout_out.blocks) <= set(spec.layout_in.blocks):
        raise ContractError("every attention output block must be an input block, for the residual")
    if feat.layout != spec.layout_in:
        raise ShapeError("feature layout does not match the attention input")
    n = feat.blocks[0].shape[0]
    keys = replace(spec, layout_out=spec.layout_in)
    key_msgs, value_msgs = _messages(((keys, f"{prefix}.key"), (spec, f"{prefix}.value")), params, feat, dst, filters)
    src = segment_plan(src, n)
    alpha = T.segment_softmax(_key_scores(keys, params, prefix, feat, key_msgs, src), src)
    # values are linear in the messages, so they are weighted and summed
    # per node before they are mixed
    sums = [T.edge_product(*m, (alpha, None), into=src) for m in value_msgs]
    update = _mix(spec, params, f"{prefix}.value", sums)
    return _residual(spec, feat, update), alpha


# ---------------------------------------------------------------------------
# full stacks


@dataclass(frozen=True)
class SteerableModelSpec:
    """Energy model over steerable features: conv stack or conv + attention."""

    family: str = "tfn"
    scalar_channels: int = 8
    vector_channels: int = 4
    tensor_channels: int = 2
    layers: int = 2
    basis: RadialBasisSpec = field(default_factory=lambda: RadialBasisSpec(count=8))
    radial_hidden: int = 8

    def __post_init__(self):
        if self.family not in ("tfn", "se3attn"):
            raise ContractError(f"unknown steerable family '{self.family}'")
        if self.layers < 1:
            raise ContractError("need at least one layer")
        if min(self.scalar_channels, self.vector_channels, self.tensor_channels) < 1:
            raise ContractError("channel counts must be positive")

    @property
    def hidden_layout(self) -> IrrepsLayout:
        return IrrepsLayout(
            ((self.scalar_channels, 0), (self.vector_channels, 1), (self.tensor_channels, 2))
        )

    @property
    def input_layout(self) -> IrrepsLayout:
        return IrrepsLayout(((self.scalar_channels, 0),))

    def attends(self, index: int) -> bool:
        return self.family == "se3attn" and index > 0

    def layer_spec(self, index: int, vectors: bool = True) -> TfnLayerSpec:
        """The last layer outputs only the blocks the readout reads, whether
        it convolves or attends: degrees 0 and 1, or degree 0 alone for a
        caller that reads no `vectors`. Its paths into degree 0 and their
        mix come first, so they are those of the full last layer."""
        last = index == self.layers - 1
        return TfnLayerSpec(
            layout_in=self.input_layout if index == 0 else self.hidden_layout,
            layout_out=IrrepsLayout(self.hidden_layout.blocks[: 1 + vectors]) if last else self.hidden_layout,
            radial=self.basis,
            radial_hidden=self.radial_hidden,
        )

    def filter_degree(self, vectors: bool) -> int:
        """The highest filter degree that some layer's paths read, an
        attention layer's keys reading every degree of its input."""
        layers = [self.layer_spec(i, vectors) for i in range(self.layers)]
        reads = [replace(l, layout_out=l.layout_in) if self.attends(i) else l for i, l in enumerate(layers)]
        return max(l_f for layer in reads for _, l_f, _ in layer.paths())


def init_steerable(spec: SteerableModelSpec, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    params = {"embed": T.glorot_uniform(rng, EMBED_ROWS, spec.scalar_channels)}
    for i in range(spec.layers):
        layer, attends = spec.layer_spec(i), spec.attends(i)
        prefix = f"layer{i}." + ("value" if attends else "conv")
        if attends:
            params.update(init_tfn_layer(replace(layer, layout_out=layer.layout_in), rng, f"layer{i}.key"))
        # drawn for the hidden layout and cut to the layer's paths and
        # mixes, which come first, so each keeps its hidden-layer value
        drawn = init_tfn_layer(replace(layer, layout_out=spec.hidden_layout), rng, prefix)
        kept = [f"{prefix}.path{k}." for k in range(len(layer.paths()))]
        kept += [f"{prefix}.out{b}." for b in range(len(layer.layout_out.blocks))]
        params.update((k, v) for k, v in drawn.items() if k.startswith(tuple(kept)))
        for b, (mult, _) in enumerate(layer.layout_in.blocks if attends else ()):
            params[f"layer{i}.query{b}.mix"] = T.glorot_uniform(rng, mult, mult)
    params["head.w"] = T.glorot_uniform(rng, spec.scalar_channels, 1)
    params["vec_head.mix"] = T.glorot_uniform(rng, spec.vector_channels, 1)
    return params


# degree-1 components are ordered (y, z, x); this permutation reads them
# back out as Cartesian (x, y, z)
_M_TO_CART = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])


def steerable_forward(
    spec: SteerableModelSpec, params: dict, batch: GraphBatch, pos: Tensor, vectors: bool = True
) -> tuple[Tensor, Tensor | None]:
    """Node scalars from the degree-0 block and, if `vectors`, per-node
    Cartesian 3-vectors from the degree-1 block, its channels mixed by
    `vec_head.mix`. Without vectors the last layer outputs degree 0 alone,
    and the harmonics stop at the highest filter degree its paths read."""
    with T.scope("edges"):
        geom = edge_geometry(spec.basis, pair_vectors(pos, batch))
    with T.scope("embed"):
        # every layer has the same radial basis, so one set of filter
        # inputs serves them all
        filters = filter_inputs(geom, batch.pairs, spec.filter_degree(vectors))
        embedded = T.reshape(embed_nodes(params["embed"], batch.z), (batch.n_nodes, 1, spec.scalar_channels))
        feat = SteerableFeature(spec.input_layout, [embedded])
    for i in range(spec.layers):
        layer = spec.layer_spec(i, vectors)
        with T.scope(f"layer{i}"):
            if spec.attends(i):
                feat, _ = se3_attention(layer, params, f"layer{i}", feat, batch.by_src, batch.by_dst, filters)
            else:
                feat = tfn_conv(layer, params, f"layer{i}", feat, batch.by_src, batch.by_dst, filters)
    with T.scope("readout"):
        scalars = T.reshape(feat.blocks[0], (batch.n_nodes, spec.scalar_channels))
        if not vectors:
            return scalars, None
        rows = T.reshape(T.matmul(feat.blocks[1], params["vec_head.mix"]), (batch.n_nodes, 3))
        return scalars, T.matmul(rows, Tensor(_M_TO_CART))
