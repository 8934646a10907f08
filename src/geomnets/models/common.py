"""Shared plumbing for all model families: batching, edge vectors, readout."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .. import tensor as T
from ..errors import ContractError, ShapeError
from ..geometry import (
    AngleIndex,
    EdgeList,
    PairIndex,
    SegmentPlan,
    build_angle_index,
    cell_offsets,
    pair_index,
    periodic_radius_graph,
    radius_graph,
    segment_plan,
)
from ..tensor import Tensor

# 118 real elements plus one reserved row; row 0 doubles as the mask token
# for type pretraining since real atomic numbers start at 1
EMBED_ROWS = 119


@dataclass
class GraphBatch:
    """Several conformations merged into one disjoint graph, its edges
    grouped into reverse pairs by `pairs`; `dist` (E,) holds each edge's
    length as the graph builder measured it, the same for both edges of a
    pair. Edges are measured as the builder measures them, between atoms
    moved into their cells: `shift_offset` (E, 3) is each edge's lattice
    shift from there, and `cell_translation` (N, 3) what moves each atom
    written outside its cell in, or None when every atom lies in its cell.

    `by_src` and `by_dst` are the `geometry.SegmentPlan`s of `src` and
    `dst`: the models gather node rows to the edges by them and sum edge
    rows into the nodes by them (`tensor.scatter_sum`, the `into` of
    `tensor.edge_product`), a block of whole segments at a time. They are
    checked once per batch; each derives its order and offsets when a sum
    first reads them, and keeps them as long as the batch lives."""

    z: np.ndarray
    pos: np.ndarray
    node_graph: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    dist: np.ndarray
    shift_offset: np.ndarray
    n_graphs: int
    pairs: PairIndex
    by_src: SegmentPlan
    by_dst: SegmentPlan
    angles: AngleIndex | None = None
    cell_translation: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.z.size

    @property
    def n_edges(self) -> int:
        return self.src.size


def build_batch(confs, cutoff: float, need_angles: bool = False) -> GraphBatch:
    """Merge conformations into one batch (crystals use gathered images):
    one edge list, node offsets on `src`/`dst` and row offsets on `reverse`,
    whose pairs and triplets are indexed once. No edge crosses graphs, so
    the triplets come graph by graph, each in its graph's own order."""
    if not confs:
        raise ContractError("batch needs at least one conformation")
    graphs, offsets, translations = [], [], []
    for conf in confs:
        if conf.lattice is None:
            graph = radius_graph(conf.pos, cutoff)
            offsets.append(np.zeros((graph.n_edges, 3)))
            translations.append(np.zeros((conf.n_atoms, 3)))
        else:
            graph = periodic_radius_graph(conf, cutoff, mode="gathered")
            # the builder's shifts include the cells its atoms were moved by
            cell, translation = cell_offsets(conf.lattice, conf.pos)
            shift = graph.shift - cell[graph.src] + cell[graph.dst]
            offsets.append(shift.astype(np.float64) @ conf.lattice)
            translations.append(translation)
        graphs.append(graph)
    translation = np.concatenate(translations, axis=0)
    atoms, rows = [conf.n_atoms for conf in confs], [graph.n_edges for graph in graphs]
    edges = EdgeList(*(np.concatenate([getattr(g, f.name) for g in graphs]) for f in fields(EdgeList)))
    node_base = np.repeat(np.cumsum([0] + atoms[:-1]), rows)
    edges.src += node_base
    edges.dst += node_base
    edges.reverse += np.repeat(np.cumsum([0] + rows[:-1]), rows)
    return GraphBatch(
        z=np.concatenate([conf.z for conf in confs]),
        pos=np.concatenate([conf.pos for conf in confs], axis=0),
        node_graph=np.repeat(np.arange(len(confs)), atoms),
        src=edges.src,
        dst=edges.dst,
        dist=edges.dist,
        shift_offset=np.concatenate(offsets, axis=0),
        n_graphs=len(confs),
        pairs=pair_index(edges.reverse),
        by_src=segment_plan(edges.src, sum(atoms)),
        by_dst=segment_plan(edges.dst, sum(atoms)),
        angles=build_angle_index(edges) if need_angles else None,
        cell_translation=translation if translation.any() else None,
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


def cell_positions(pos: Tensor, batch: GraphBatch) -> Tensor:
    """The positions moved into their cells, which `shift_offset` measures
    from; `pos` itself, with no op recorded, when every atom lies in its
    cell."""
    return pos if batch.cell_translation is None else pos - Tensor(batch.cell_translation)


def pair_vectors(pos: Tensor, batch: GraphBatch) -> Tensor:
    """Differentiable relative vectors (P, 3) of each pair's representative
    edge, measured between the atoms moved into their cells as the graph
    builder measured them; the other edge of a pair runs along the negated
    vector."""
    if pos.shape != (batch.n_nodes, 3):
        raise ShapeError(f"positions {pos.shape} do not match batch of {batch.n_nodes} nodes")
    pos = cell_positions(pos, batch)
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
