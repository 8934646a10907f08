"""Vector-frame equivariant models.

Two stacks: one updates coordinates directly with gated difference vectors
(messages see squared distances only), the other carries multi-channel
3-vectors next to scalars and keeps equivariance by combining vectors
strictly linearly or through invariant gates. Its vectors are held
(N, 3, F), channels last, so a channel mix is one matmul by the stored
weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import tensor as T
from ..errors import ContractError, ShapeError
from ..geometry import PairIndex, SegmentPlan
from ..tensor import Tensor, init_mlp, mlp_apply
from .common import EMBED_ROWS, GraphBatch, cell_positions, embed_nodes, pair_vectors
from .invariant import RadialBasisSpec, edge_geometry

# ---------------------------------------------------------------------------
# coordinate-updating stack


@dataclass(frozen=True)
class EgnnSpec:
    hidden: int = 32
    layers: int = 2
    cutoff: float = 5.0  # of its graphs; the stack has no radial basis

    def __post_init__(self):
        if self.hidden < 1 or self.layers < 1:
            raise ContractError("hidden width and layer count must be positive")
        if self.cutoff <= 0:
            raise ContractError("cutoff must be positive")


def init_egnn(spec: EgnnSpec, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    d = spec.hidden
    params = {"embed": T.glorot_uniform(rng, EMBED_ROWS, d)}
    for i in range(spec.layers):
        params.update(init_mlp((2 * d + 1, d, d), rng, f"layer{i}.msg"))
        params.update(init_mlp((d, d, 1), rng, f"layer{i}.gate"))
        params.update(init_mlp((2 * d, d, d), rng, f"layer{i}.upd"))
    params["head.w"] = T.glorot_uniform(rng, d, 1)
    return params


def egnn_layer(
    spec: EgnnSpec,
    params: dict,
    prefix: str,
    h: Tensor,
    x: Tensor,
    src: np.ndarray | SegmentPlan,
    dst: np.ndarray | SegmentPlan,
    shift: np.ndarray,
    vectors: bool = True,
) -> tuple[Tensor, Tensor]:
    """One block: message from (h_i, h_j, squared distance), gated coordinate
    update along the difference vector, then the node update network.
    Without `vectors`, when nothing reads the coordinates it outputs, they
    come back unmoved."""
    if h.ndim != 2 or h.shape[1] != spec.hidden:
        raise ShapeError(f"node features {h.shape} do not match hidden={spec.hidden}")
    if x.shape != (h.shape[0], 3):
        raise ShapeError(f"positions {x.shape} do not match node count {h.shape[0]}")
    n = h.shape[0]
    x_j = T.gather(x, dst) + Tensor(shift)
    diff = T.gather(x, src) - x_j
    d2 = T.sum_(diff * diff, axis=1, keepdims=True)
    m = mlp_apply(params, T.concat([T.gather(h, src), T.gather(h, dst), d2], axis=1), f"{prefix}.msg")
    if vectors:
        gate = mlp_apply(params, m, f"{prefix}.gate")
        x = x + T.scatter_sum(diff * gate, src, n)
    agg = T.scatter_sum(m, src, n)
    h = mlp_apply(params, T.concat([h, agg], axis=1), f"{prefix}.upd")
    return h, x


def egnn_forward(
    spec: EgnnSpec, params: dict, batch: GraphBatch, pos: Tensor, vectors: bool = True
) -> tuple[Tensor, Tensor | None]:
    """Node scalars and, if `vectors`, the coordinate displacement
    accumulated over the stack (equivariant). Without vectors the last
    layer moves no coordinates, which only the displacement reads."""
    with T.scope("embed"):
        h = embed_nodes(params["embed"], batch.z)
    with T.scope("edges"):
        start = x = cell_positions(pos, batch)
    for i in range(spec.layers):
        read = vectors or i < spec.layers - 1
        with T.scope(f"layer{i}"):
            h, x = egnn_layer(spec, params, f"layer{i}", h, x, batch.by_src, batch.by_dst, batch.shift_offset, read)
    if not vectors:
        return h, None
    with T.scope("readout"):
        return h, x - start


# ---------------------------------------------------------------------------
# scalar + multi-channel-vector stack


@dataclass(frozen=True)
class PainnSpec:
    hidden: int = 32
    layers: int = 2
    basis: RadialBasisSpec = field(default_factory=lambda: RadialBasisSpec(kind="bessel", count=16))

    def __post_init__(self):
        if self.hidden < 1 or self.layers < 1:
            raise ContractError("hidden width and layer count must be positive")


def init_painn(spec: PainnSpec, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    f = spec.hidden
    params = {"embed": T.glorot_uniform(rng, EMBED_ROWS, f)}
    for i in range(spec.layers):
        params.update(init_mlp((f, f, 3 * f), rng, f"layer{i}.phi"))
        # bias-free so the filter (and thus every message) vanishes at the cutoff
        params[f"layer{i}.filt.w"] = T.glorot_uniform(rng, spec.basis.count, 3 * f)
        params[f"layer{i}.upd.u"] = T.glorot_uniform(rng, f, f)
        params[f"layer{i}.upd.v"] = T.glorot_uniform(rng, f, f)
        params.update(init_mlp((2 * f, f, 3 * f), rng, f"layer{i}.upd"))
    params["head.w"] = T.glorot_uniform(rng, f, 1)
    params["vec_head.mix"] = T.glorot_uniform(rng, f, 1)
    return params


def painn_layer(
    spec: PainnSpec,
    params: dict,
    prefix: str,
    s: Tensor,
    v: Tensor | None,
    src: np.ndarray | SegmentPlan,
    dst: np.ndarray | SegmentPlan,
    pairs: PairIndex,
    rbf: Tensor,
    unit: Tensor,
    vectors: bool = True,
) -> tuple[Tensor, Tensor]:
    """One message + update block over edges (src <- dst) with their unit
    vectors `unit` (E, 3). The radial basis `rbf` (P, count) has one row per
    edge pair of `pairs`, and the filter made of it is expanded to the
    edges. The first layer takes no vectors (`v` None, PaiNN's start at
    zero), so its message is the unit vectors' term alone. Without
    `vectors`, when nothing reads the vectors it outputs, the update block
    skips its vector update; its scalar update reads them either way."""
    f = spec.hidden
    n = s.shape[0]
    if s.ndim != 2 or s.shape[1] != f:
        raise ShapeError(f"scalar features {s.shape} do not match hidden={f}")
    if v is not None and v.shape != (n, 3, f):
        raise ShapeError(f"vector features {v.shape} do not match ({n}, 3, {f})")

    # message block: invariant gates from (filter(d) * phi(s_j)) split three
    # ways; the filter runs per edge pair and phi per node, and their rows
    # meet on the edges in one edge product
    phi = mlp_apply(params, s, f"{prefix}.phi")
    gates = T.edge_product((phi, dst), (T.matmul(rbf, params[f"{prefix}.filt.w"]), pairs))
    g_ss, g_sv = gates[:, 0:f], gates[:, f : 2 * f]
    dv = T.reshape(unit, (-1, 3, 1)) * T.reshape(g_sv, (-1, 1, f))
    if v is not None:
        dv = T.gather(v, dst) * T.reshape(gates[:, 2 * f : 3 * f], (-1, 1, f)) + dv
    s = s + T.scatter_sum(g_ss, src, n)
    v = T.scatter_sum(dv, src, n) if v is None else v + T.scatter_sum(dv, src, n)

    # update block: node-local, vectors enter only via norms and dot products
    u_mix = T.matmul(v, params[f"{prefix}.upd.u"])
    v_mix = T.matmul(v, params[f"{prefix}.upd.v"])
    v_norm = T.norm(v_mix, axis=1, eps=1e-12)
    b = mlp_apply(params, T.concat([s, v_norm], axis=1), f"{prefix}.upd")
    b_ss, b_sv = b[:, 0:f], b[:, f : 2 * f]
    dot = T.sum_(u_mix * v_mix, axis=1)
    s = s + b_ss + b_sv * dot
    if vectors:
        v = v + u_mix * T.reshape(b[:, 2 * f : 3 * f], (n, 1, f))
    return s, v


def painn_forward(
    spec: PainnSpec, params: dict, batch: GraphBatch, pos: Tensor, vectors: bool = True
) -> tuple[Tensor, Tensor | None]:
    """Node scalars and, if `vectors`, one 3-vector per node, the vector
    channels mixed by `vec_head.mix`; without vectors the last layer skips
    its vector update. The radial basis and unit vectors of the edge pairs
    are computed once for every layer, and the unit vectors expanded to
    the edges with their signs."""
    pairs = batch.pairs
    with T.scope("edges"):
        geom = edge_geometry(spec.basis, pair_vectors(pos, batch))
    with T.scope("embed"):
        s = embed_nodes(params["embed"], batch.z)
        unit = T.gather(geom.unit, pairs) * Tensor(np.where(pairs.flipped, -1.0, 1.0)[:, None])
    v = None
    for i in range(spec.layers):
        read = vectors or i < spec.layers - 1
        with T.scope(f"layer{i}"):
            s, v = painn_layer(spec, params, f"layer{i}", s, v, batch.by_src, batch.by_dst, pairs, geom.rbf, unit, read)
    if not vectors:
        return s, None
    with T.scope("readout"):
        return s, T.reshape(T.matmul(v, params["vec_head.mix"]), (batch.n_nodes, 3))
