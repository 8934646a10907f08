"""Steerable message passing: harmonic filters, tensor-product convolution,
and dot-product attention over degree-typed features.

Edge filters factor into a learned radial profile times spherical harmonics
of the edge direction, so each filter block rotates with the matching
Wigner matrix. Convolutions couple filter and neighbor blocks through
Clebsch-Gordan contractions; every (input degree, filter degree, output
degree) path carries its own radial network, outputs into one degree are
channel-concatenated, mixed by a per-degree linear map, and scaled by
1/sqrt(paths). Residuals attach only where input and output layouts carry
an identical (multiplicity, degree) block.

Attention reuses the same per-edge machinery for keys and values; scores
are full dot products of steerable rows, hence rotation-invariant scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import tensor as T
from ..errors import ContractError, ShapeError
from ..so3 import IrrepsLayout, SteerableFeature, clebsch_gordan, from_blocks, sph_harm_block
from ..tensor import MlpSpec, Tensor, init_mlp, mlp_apply
from .common import EMBED_ROWS, GraphBatch, edge_vectors, embed_nodes
from .invariant import RadialBasisSpec, cosine_envelope, radial_basis

_DEGREE_CAP = 2


def _check_layout(layout: IrrepsLayout, who: str) -> None:
    degrees = [l for _, l in layout.blocks]
    if len(set(degrees)) != len(degrees):
        raise ContractError(f"{who} layout repeats a degree; one block per degree")
    if max(degrees) > _DEGREE_CAP:
        raise ContractError(f"{who} layout degree exceeds {_DEGREE_CAP}")


@dataclass(frozen=True)
class TfnLayerSpec:
    """One tensor-product convolution: layouts, filter degrees, radial net."""

    layout_in: IrrepsLayout
    layout_out: IrrepsLayout
    filter_degrees: tuple[int, ...] = (0, 1, 2)
    radial: RadialBasisSpec = field(default_factory=RadialBasisSpec)
    radial_hidden: int = 16

    def __post_init__(self):
        _check_layout(self.layout_in, "input")
        _check_layout(self.layout_out, "output")
        if any(l < 0 or l > _DEGREE_CAP for l in self.filter_degrees):
            raise ContractError(f"filter degrees must lie in 0..{_DEGREE_CAP}")
        if self.radial_hidden < 1:
            raise ContractError("radial hidden width must be positive")
        for b_out in range(len(self.layout_out.blocks)):
            if not any(p[2] == b_out for p in self.paths()):
                raise ContractError(
                    f"output block {self.layout_out.blocks[b_out]} is unreachable"
                )

    def paths(self) -> list[tuple[int, int, int]]:
        """(input block, filter degree, output block) triples allowed by the
        triangle inequality, in deterministic order."""
        out = []
        for b_out, (_, l_out) in enumerate(self.layout_out.blocks):
            for b_in, (_, l_in) in enumerate(self.layout_in.blocks):
                for l_f in self.filter_degrees:
                    if abs(l_in - l_f) <= l_out <= l_in + l_f:
                        out.append((b_in, l_f, b_out))
        return out

    def radial_mlp(self, path: int) -> MlpSpec:
        b_in = self.paths()[path][0]
        mult_in = self.layout_in.blocks[b_in][0]
        return MlpSpec((self.radial.count, self.radial_hidden, mult_in))

    def paths_into(self, b_out: int) -> list[int]:
        return [k for k, p in enumerate(self.paths()) if p[2] == b_out]


def init_tfn_layer(spec: TfnLayerSpec, rng: np.random.Generator, prefix: str) -> dict:
    params = {}
    for k in range(len(spec.paths())):
        params.update(init_mlp(spec.radial_mlp(k), rng, f"{prefix}.path{k}.radial"))
    for b_out, (mult_out, _) in enumerate(spec.layout_out.blocks):
        fan_in = sum(spec.layout_in.blocks[spec.paths()[k][0]][0] for k in spec.paths_into(b_out))
        params[f"{prefix}.out{b_out}.mix"] = T.glorot_uniform(rng, fan_in, mult_out)
    return params


def _unit_and_length(rel: Tensor) -> tuple[Tensor, Tensor]:
    dist = T.norm(rel, axis=1)
    if (dist.data < 1e-12).any():
        raise ContractError("zero-length edge vector reached a harmonic filter")
    unit = rel / T.reshape(dist, (-1, 1))
    return unit, dist


def _edge_filters(
    spec: TfnLayerSpec, params: dict, prefix: str, rel: Tensor
) -> tuple[list[Tensor], Tensor]:
    """Per-path filter blocks (E, mult_in, 2 l_f + 1) plus edge lengths."""
    unit, dist = _unit_and_length(rel)
    rbf = radial_basis(spec.radial, dist)
    harmonics = {l: sph_harm_block(l, unit) for l in set(p[1] for p in spec.paths())}
    filters = []
    for k, (b_in, l_f, _) in enumerate(spec.paths()):
        radial = mlp_apply(spec.radial_mlp(k), params, rbf, f"{prefix}.path{k}.radial")
        e = rel.shape[0]
        filt = T.reshape(radial, (e, -1, 1)) * T.reshape(harmonics[l_f], (e, 1, 2 * l_f + 1))
        filters.append(filt)
    return filters, dist


def tfn_filter(spec: TfnLayerSpec, params: dict, rel_vec: np.ndarray) -> list[Tensor]:
    """Filters for one edge vector: per path, radial profile times harmonics.

    Returns (mult_in, 2 l_f + 1) blocks in `spec.paths()` order. With a
    radial network pinned to output 1 every row equals the degree-l_f
    harmonic vector of the direction.
    """
    rel = np.asarray(rel_vec, dtype=np.float64).reshape(1, 3)
    filters, _ = _edge_filters(spec, params, "filter", Tensor(rel))
    return [T.reshape(f, f.shape[1:]) for f in filters]


def _cg_contract(filt: Tensor, feat: Tensor, l_f: int, l_in: int, l_out: int) -> Tensor:
    """(E, mult, 2l_f+1) x (E, mult, 2l_in+1) -> (E, mult, 2l_out+1)."""
    cg = clebsch_gordan(l_f, l_in, l_out)
    e, mult = filt.shape[0], filt.shape[1]
    outer = T.reshape(filt, (e, mult, 2 * l_f + 1, 1)) * T.reshape(
        feat, (e, mult, 1, 2 * l_in + 1)
    )
    flat = T.reshape(outer, (e, mult, (2 * l_f + 1) * (2 * l_in + 1)))
    table = Tensor(cg.reshape((2 * l_f + 1) * (2 * l_in + 1), 2 * l_out + 1))
    return T.matmul(flat, table)


def _path_messages(
    spec: TfnLayerSpec,
    params: dict,
    prefix: str,
    feat: SteerableFeature,
    dst: np.ndarray,
    rel: Tensor,
) -> tuple[dict[int, list[Tensor]], Tensor]:
    """CG messages per output block, envelope-weighted, still per edge."""
    filters, dist = _edge_filters(spec, params, prefix, rel)
    env = None
    if spec.radial.envelope == "cosine":
        env = T.reshape(cosine_envelope(dist, spec.radial.cutoff), (-1, 1, 1))
    per_block: dict[int, list[Tensor]] = {}
    for k, (b_in, l_f, b_out) in enumerate(spec.paths()):
        _, l_in = spec.layout_in.blocks[b_in]
        _, l_out = spec.layout_out.blocks[b_out]
        neighbor = T.gather(feat.block(b_in), dst)
        msg = _cg_contract(filters[k], neighbor, l_f, l_in, l_out)
        if env is not None:
            msg = msg * env
        per_block.setdefault(b_out, []).append(msg)
    return per_block, dist


def _mix_block(spec: TfnLayerSpec, params: dict, prefix: str, b_out: int, stacked: Tensor) -> Tensor:
    """Mix concatenated path channels down to the block multiplicity."""
    n_paths = len(spec.paths_into(b_out))
    mix = params[f"{prefix}.out{b_out}.mix"]
    mixed = T.transpose2(T.matmul(T.transpose2(stacked), mix))
    return mixed * (1.0 / math.sqrt(n_paths))


def _residual(
    spec: TfnLayerSpec, feat: SteerableFeature, blocks: dict[int, Tensor]
) -> SteerableFeature:
    out_blocks = []
    in_lookup = {(mult, l): i for i, (mult, l) in enumerate(spec.layout_in.blocks)}
    for b_out, (mult, l) in enumerate(spec.layout_out.blocks):
        b = blocks[b_out]
        if (mult, l) in in_lookup:
            b = b + feat.block(in_lookup[(mult, l)])
        out_blocks.append(b)
    return from_blocks(spec.layout_out, out_blocks)


def tfn_conv(
    spec: TfnLayerSpec,
    params: dict,
    feat: SteerableFeature,
    src: np.ndarray,
    dst: np.ndarray,
    rel: Tensor,
) -> SteerableFeature:
    """Neighborhood tensor-product update over edges (src <- dst) with
    relative vectors `rel` (possibly taped); weights live under `conv.`.
    Without edges every message is zero and only the residual remains."""
    if feat.layout != spec.layout_in:
        raise ShapeError("feature layout does not match the layer input layout")
    n = feat.data.shape[0]
    if src.size == 0:
        zero = {
            b: Tensor(np.zeros((n, mult, 2 * l + 1)))
            for b, (mult, l) in enumerate(spec.layout_out.blocks)
        }
        return _residual(spec, feat, zero)
    per_block, _ = _path_messages(spec, params, "conv", feat, dst, rel)
    mixed = {}
    for b_out, (mult, l) in enumerate(spec.layout_out.blocks):
        msgs = T.concat(per_block[b_out], axis=1)
        e = msgs.shape[0]
        flat = T.reshape(msgs, (e, -1))
        agg = T.scatter_sum(flat, src, n)
        stacked = T.reshape(agg, (n, -1, 2 * l + 1))
        mixed[b_out] = _mix_block(spec, params, "conv", b_out, stacked)
    return _residual(spec, feat, mixed)


# ---------------------------------------------------------------------------
# attention


@dataclass(frozen=True)
class AttentionSpec:
    """Dot-product attention whose keys/values are tensor-product messages."""

    key: TfnLayerSpec
    value: TfnLayerSpec

    def __post_init__(self):
        if self.key.layout_in != self.value.layout_in:
            raise ContractError("key and value layers must read the same layout")
        if self.value.layout_out != self.value.layout_in:
            raise ContractError("value layout must match the input for the residual")
        in_degrees = {l: mult for mult, l in self.key.layout_in.blocks}
        for _, l in self.key.layout_out.blocks:
            if l not in in_degrees:
                raise ContractError("query cannot produce a degree absent from the input")


def _per_edge_rows(
    spec: TfnLayerSpec,
    params: dict,
    prefix: str,
    feat: SteerableFeature,
    dst: np.ndarray,
    rel: Tensor,
) -> SteerableFeature:
    """Per-edge steerable rows (messages mixed per edge, no aggregation)."""
    per_block, _ = _path_messages(spec, params, prefix, feat, dst, rel)
    blocks = []
    for b_out in range(len(spec.layout_out.blocks)):
        stacked = T.concat(per_block[b_out], axis=1)
        blocks.append(_mix_block(spec, params, prefix, b_out, stacked))
    return from_blocks(spec.layout_out, blocks)


def se3_attention(
    spec: AttentionSpec,
    params: dict,
    feat: SteerableFeature,
    src: np.ndarray,
    dst: np.ndarray,
    rel: Tensor,
) -> tuple[SteerableFeature, Tensor]:
    """Attention update plus the attention weights (E,) for inspection.

    A node without neighbors aggregates nothing and keeps its features
    through the residual; without any edges the update is the identity."""
    if feat.layout != spec.key.layout_in:
        raise ShapeError("feature layout does not match the attention input")
    if src.size == 0:
        return feat, Tensor(np.zeros(0))
    n = feat.data.shape[0]
    lookup = {l: i for i, (_, l) in enumerate(spec.key.layout_in.blocks)}
    queries = []
    for b, (mult, l) in enumerate(spec.key.layout_out.blocks):
        base = feat.block(lookup[l])
        queries.append(T.transpose2(T.matmul(T.transpose2(base), params[f"query{b}.mix"])))
    keys = _per_edge_rows(spec.key, params, "key", feat, dst, rel)
    values = _per_edge_rows(spec.value, params, "value", feat, dst, rel)
    q_rows = from_blocks(spec.key.layout_out, queries)
    score = T.sum_(T.gather(q_rows.data, src) * keys.data, axis=1)
    alpha = T.segment_softmax(score, src, n)
    weighted = values.data * T.reshape(alpha, (-1, 1))
    agg = T.scatter_sum(weighted, src, n)
    return SteerableFeature(feat.layout, feat.data + agg), alpha


# ---------------------------------------------------------------------------
# full stacks


@dataclass(frozen=True)
class SteerableModelSpec:
    """Energy model over steerable features: conv stack or conv + attention."""

    family: str = "tfn"
    scalar_channels: int = 16
    vector_channels: int = 8
    tensor_channels: int = 4
    layers: int = 2
    radial: RadialBasisSpec = field(default_factory=RadialBasisSpec)
    radial_hidden: int = 16

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

    def layer_spec(self, index: int) -> TfnLayerSpec:
        return TfnLayerSpec(
            layout_in=self.input_layout if index == 0 else self.hidden_layout,
            layout_out=self.hidden_layout,
            radial=self.radial,
            radial_hidden=self.radial_hidden,
        )

    def attention_spec(self, index: int) -> AttentionSpec:
        base = self.layer_spec(index)
        return AttentionSpec(key=base, value=base)


def init_steerable(spec: SteerableModelSpec, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    params = {"embed": T.glorot_uniform(rng, EMBED_ROWS, spec.scalar_channels)}
    for i in range(spec.layers):
        if spec.family == "se3attn" and i > 0:
            aspec = spec.attention_spec(i)
            params.update(init_tfn_layer(aspec.key, rng, f"layer{i}.key"))
            params.update(init_tfn_layer(aspec.value, rng, f"layer{i}.value"))
            in_mult = {l: mult for mult, l in aspec.key.layout_in.blocks}
            for b, (mult, l) in enumerate(aspec.key.layout_out.blocks):
                params[f"layer{i}.query{b}.mix"] = T.glorot_uniform(rng, in_mult[l], mult)
        else:
            params.update(init_tfn_layer(spec.layer_spec(i), rng, f"layer{i}.conv"))
    params["head.w"] = T.glorot_uniform(rng, spec.scalar_channels, 1)
    params["vec_head.mix"] = T.glorot_uniform(rng, spec.vector_channels, 1)
    return params


def _scoped(params: dict, scope: str) -> dict:
    offset = len(scope) + 1
    return {k[offset:]: v for k, v in params.items() if k.startswith(scope + ".")}


def steerable_features(
    spec: SteerableModelSpec, params: dict, batch: GraphBatch, pos: Tensor
) -> SteerableFeature:
    rel, _ = edge_vectors(pos, batch)
    h = embed_nodes(params["embed"], batch.z)
    feat = SteerableFeature(spec.input_layout, h)
    for i in range(spec.layers):
        scoped = _scoped(params, f"layer{i}")
        if spec.family == "se3attn" and i > 0:
            feat, _ = se3_attention(
                spec.attention_spec(i), scoped, feat, batch.src, batch.dst, rel
            )
        else:
            feat = tfn_conv(spec.layer_spec(i), scoped, feat, batch.src, batch.dst, rel)
    return feat


def steerable_node_scalars(
    spec: SteerableModelSpec, params: dict, batch: GraphBatch, pos: Tensor
) -> Tensor:
    feat = steerable_features(spec, params, batch, pos)
    return T.reshape(feat.block(0), (batch.n_nodes, spec.scalar_channels))


# degree-1 components are ordered (y, z, x); this permutation reads them
# back out as Cartesian (x, y, z)
_M_TO_CART = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])


def steerable_node_vectors(
    spec: SteerableModelSpec, params: dict, batch: GraphBatch, pos: Tensor
) -> Tensor:
    """Per-node Cartesian 3-vectors from the degree-1 block."""
    feat = steerable_features(spec, params, batch, pos)
    vec = feat.block(1)
    mixed = T.matmul(T.transpose2(vec), params["vec_head.mix"])
    rows = T.reshape(T.transpose2(mixed), (batch.n_nodes, 3))
    return T.matmul(rows, Tensor(_M_TO_CART))
