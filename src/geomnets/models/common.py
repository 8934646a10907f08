"""Shared plumbing for all model families: batching, edge vectors, readout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import tensor as T
from ..errors import ContractError, ShapeError
from ..geometry import AngleIndex, PairIndex, build_angle_index, pair_index, periodic_radius_graph, radius_graph
from ..tensor import Tensor

# 118 real elements plus one reserved row; row 0 doubles as the mask token
# for type pretraining since real atomic numbers start at 1
EMBED_ROWS = 119


@dataclass
class GraphBatch:
    """Several conformations merged into one disjoint graph, its edges
    grouped into reverse pairs by `pairs`."""

    z: np.ndarray
    pos: np.ndarray
    node_graph: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    shift_offset: np.ndarray
    n_graphs: int
    pairs: PairIndex
    angles: AngleIndex | None = None

    @property
    def n_nodes(self) -> int:
        return self.z.size

    @property
    def n_edges(self) -> int:
        return self.src.size


def build_batch(confs, cutoff: float, need_angles: bool = False) -> GraphBatch:
    """Merge conformations into one batch; crystals use gathered images."""
    if not confs:
        raise ContractError("batch needs at least one conformation")
    zs, poss, node_graph = [], [], []
    srcs, dsts, offsets, reverses = [], [], [], []
    ang_in, ang_out, ang_val = [], [], []
    node_base = 0
    edge_base = 0
    for g, conf in enumerate(confs):
        if conf.lattice is None:
            edges = radius_graph(conf.pos, cutoff)
            shift_off = np.zeros((edges.n_edges, 3))
        else:
            edges = periodic_radius_graph(conf, cutoff, mode="gathered")
            shift_off = edges.shift.astype(np.float64) @ conf.lattice
        zs.append(conf.z)
        poss.append(conf.pos)
        node_graph.append(np.full(conf.n_atoms, g, dtype=np.int64))
        srcs.append(edges.src + node_base)
        dsts.append(edges.dst + node_base)
        offsets.append(shift_off)
        reverses.append(np.where(edges.reverse >= 0, edges.reverse + edge_base, -1))
        if need_angles:
            ang = build_angle_index(edges)
            ang_in.append(ang.in_edge + edge_base)
            ang_out.append(ang.out_edge + edge_base)
            ang_val.append(ang.angle)
        node_base += conf.n_atoms
        edge_base += edges.n_edges
    angles = None
    if need_angles:
        angles = AngleIndex(np.concatenate(ang_in), np.concatenate(ang_out), np.concatenate(ang_val))
    return GraphBatch(
        z=np.concatenate(zs),
        pos=np.concatenate(poss, axis=0),
        node_graph=np.concatenate(node_graph),
        src=np.concatenate(srcs),
        dst=np.concatenate(dsts),
        shift_offset=np.concatenate(offsets, axis=0),
        n_graphs=len(confs),
        pairs=pair_index(np.concatenate(reverses)),
        angles=angles,
    )


def graph_stats(batch: GraphBatch) -> dict[str, int]:
    """Nodes, directed edges, angle triplets (0 without angles) and atoms
    with no edge."""
    linked = np.zeros(batch.n_nodes, dtype=bool)
    linked[batch.src] = True
    linked[batch.dst] = True
    return {
        "nodes": batch.n_nodes,
        "edges": batch.n_edges,
        "triplets": batch.angles.n_triplets if batch.angles is not None else 0,
        "isolated_atoms": int(batch.n_nodes - linked.sum()),
    }


def pair_vectors(pos: Tensor, batch: GraphBatch) -> Tensor:
    """Differentiable relative vectors (P, 3) of each pair's representative
    edge; the other edge of a pair runs along the negated vector."""
    if pos.shape != (batch.n_nodes, 3):
        raise ShapeError(f"positions {pos.shape} do not match batch of {batch.n_nodes} nodes")
    rep = batch.pairs.edge
    return T.gather(pos, batch.dst[rep]) + Tensor(batch.shift_offset[rep]) - T.gather(pos, batch.src[rep])


def embed_nodes(embed_table: Tensor, z: np.ndarray) -> Tensor:
    """Type embeddings; index 0 is the reserved mask row."""
    z = np.asarray(z, dtype=np.int64)
    if (z < 0).any() or (z >= EMBED_ROWS).any():
        raise ContractError("node type outside the embedding table")
    return T.gather(embed_table, z)


def readout(head: Tensor, h: Tensor, segment_ids, n_graphs: int) -> Tensor:
    """Sum node features per graph and apply a bias-free linear head.

    Sum pooling keeps predictions extensive: a disjoint duplicate of a graph
    doubles its output exactly.
    """
    pooled = T.scatter_sum(h, segment_ids, n_graphs)
    return T.reshape(T.matmul(pooled, head), (-1,))
