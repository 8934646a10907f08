"""Structures, cutoff graphs (open and periodic) and dataset serialization.

Edge conventions used everywhere downstream:
  * an edge row (src, dst, shift) means node `src`, sitting in the anchor
    cell, observes a neighbor: atom `dst` displaced by `shift @ lattice`
  * rel_vec = pos[dst] + shift @ lattice - pos[src], dist = |rel_vec|
  * edges are kept when 0 < dist <= cutoff (the boundary is inclusive)
  * rows are sorted by (src, dst, shift), so construction is deterministic
  * every edge's reverse (dst, src, -shift) is in the graph too, and each row
    names the row of its reverse: a pair is measured once and its reverse
    row mirrors it, with the negated vector and the same length
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, ParseError, ShapeError

@dataclass
class Conformation:
    """One structure: atomic numbers, positions, optional cell and labels."""

    z: np.ndarray
    pos: np.ndarray
    lattice: np.ndarray | None = None
    energy: float | None = None
    forces: np.ndarray | None = None
    id: str = ""

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.int64)
        self.pos = np.asarray(self.pos, dtype=np.float64)
        if self.z.ndim != 1 or self.z.size == 0:
            raise ContractError("z must be a non-empty 1-D integer array")
        if (self.z < 1).any() or (self.z > 118).any():
            raise ContractError("atomic numbers must lie in 1..118")
        if self.pos.shape != (self.z.size, 3):
            raise ShapeError(f"pos shape {self.pos.shape} does not match {self.z.size} atoms")
        if not np.isfinite(self.pos).all():
            raise ContractError("positions must be finite")
        if self.lattice is not None:
            self.lattice = np.asarray(self.lattice, dtype=np.float64)
            if self.lattice.shape != (3, 3):
                raise ShapeError("lattice must be 3x3")
            if not np.isfinite(self.lattice).all():
                raise ContractError("lattice must be finite")
        if self.forces is not None:
            self.forces = np.asarray(self.forces, dtype=np.float64)
            if self.forces.shape != self.pos.shape:
                raise ShapeError("forces must match positions in shape")
        if self.energy is not None:
            self.energy = float(self.energy)

    @property
    def n_atoms(self) -> int:
        return self.z.size


@dataclass
class EdgeList:
    """Directed cutoff edges over one structure; `reverse` holds each row's
    reverse row (-1 on an expanded graph's image rows). A mirrored row's
    rel_vec is the negated measured one (0.0 - it), its dist the same."""

    src: np.ndarray
    dst: np.ndarray
    dist: np.ndarray
    rel_vec: np.ndarray
    shift: np.ndarray
    reverse: np.ndarray

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        self.dist = np.asarray(self.dist, dtype=np.float64)
        self.rel_vec = np.asarray(self.rel_vec, dtype=np.float64).reshape(-1, 3)
        self.shift = np.asarray(self.shift, dtype=np.int64).reshape(-1, 3)
        self.reverse = np.asarray(self.reverse, dtype=np.int64)

    @property
    def n_edges(self) -> int:
        return self.src.size


@dataclass
class PeriodicGraph:
    """Expanded periodic graph: anchor atoms plus materialized images.

    `positions` holds the anchors, moved into the cell, then the images.
    A measured row's rel_vec is positions[dst] - positions[src], a mirrored
    row's the negated measured one. Node k sits at atom image_of[k] as
    written plus node_shift[k] @ lattice: minus the atom's cell offset for
    an anchor, plus the image's shift for an image."""

    edges: EdgeList
    z: np.ndarray
    positions: np.ndarray
    image_of: np.ndarray
    node_shift: np.ndarray
    n_anchor: int


@dataclass
class AngleIndex:
    """Two-hop triplets: edge (k -> j) feeding edge (j -> i).

    `in_edge` indexes the k->j row, `out_edge` the j->i row; `angle` is the
    interior angle at the shared middle node j, in [0, pi].
    """

    in_edge: np.ndarray
    out_edge: np.ndarray
    angle: np.ndarray

    @property
    def n_triplets(self) -> int:
        return self.in_edge.size


@dataclass(frozen=True)
class PairIndex:
    """Directed edges grouped into unordered pairs {e, reverse of e}, so that
    whatever depends only on an edge's length, or on its direction up to
    sign, is computed once per pair.

    `edge` (P,) is each pair's representative, the lower row of the two,
    in rising order: pairs are numbered as their representatives run;
    `slot` (E,) is each edge's pair; `flipped` (E,) marks the edges that run
    against their representative. An index built by hand may leave an edge
    a pair of its own, as the per-edge reference does for every edge."""

    edge: np.ndarray
    slot: np.ndarray
    flipped: np.ndarray

    @cached_property
    def partner(self) -> np.ndarray:
        """Each pair's flipped edge (P,), or its representative for a pair of
        one edge; derived once per index."""
        out = self.edge.copy()
        out[self.slot[self.flipped]] = np.flatnonzero(self.flipped)
        return out


def pair_index(reverse: np.ndarray) -> PairIndex:
    """The pairs of edges whose reverse rows are `reverse`, one per edge;
    an edge without one (an expanded graph's image row, -1) is refused."""
    if reverse.size and (reverse.min() < 0 or reverse.max() >= reverse.size):
        raise ContractError(f"reverse rows must lie in 0..{reverse.size - 1}")
    rows = np.arange(reverse.size)
    flipped = reverse < rows
    slot = np.cumsum(~flipped) - 1
    slot[flipped] = slot[reverse[flipped]]
    return PairIndex(np.flatnonzero(~flipped), slot, flipped)


@dataclass(frozen=True)
class SegmentPlan:
    """Rows grouped by the segment, a node, that they are taken from or
    summed into: the one index of a gather, a sum or a softmax over nodes,
    whose sums can run a block of whole segments at a time.

    `index` (E,) is each row's segment, one of `n_segments`. Build a plan
    with `segment_plan`, which checks the index. The rest is derived on
    first read and kept, so a plan that only gathers, or sums rows that fit
    one block, sorts nothing: `sorted` is whether `index` never falls, as a
    batch's `src` does; `order` (E,) lists the rows in stable segment
    order, or is None when `index` is sorted; `offsets` (S + 1,) is where
    each segment's rows start in that order."""

    index: np.ndarray
    n_segments: int

    @cached_property
    def sorted(self) -> bool:
        return not (self.index[1:] < self.index[:-1]).any()

    @cached_property
    def order(self) -> np.ndarray | None:
        if self.sorted:
            return None
        # numpy sorts integers of 16 bits stably by radix, in linear time
        keys = self.index.astype(np.uint16) if self.n_segments <= 1 << 16 else self.index
        return np.argsort(keys, kind="stable")

    @cached_property
    def offsets(self) -> np.ndarray:
        offsets = np.zeros(self.n_segments + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.index, minlength=self.n_segments), out=offsets[1:])
        return offsets

    def blocks(self, rows: int):
        """Runs of whole segments of about `rows` rows each, fewer than
        `rows` plus the longest segment's, as (their rows, a slice or an
        int array; first segment; end segment). Rows that fit one run are
        one run of every row in row order, which reads neither `order` nor
        `offsets`; otherwise a run's rows are in segment order, a slice when
        that order is the rows' own. Either way a segment's rows come in
        row order. Every segment is in one run, an empty one too."""
        if self.index.size <= rows:
            yield slice(None), 0, self.n_segments
            return
        cuts = np.searchsorted(self.offsets, np.arange(rows, self.index.size, rows)).tolist()
        bounds = [0, *cuts, self.n_segments]
        for first, end in zip(bounds[:-1], bounds[1:]):
            if end > first:  # a segment longer than `rows` spans several cuts
                start, stop = self.offsets[first], self.offsets[end]
                yield slice(start, stop) if self.order is None else self.order[start:stop], first, end


def segment_plan(index, n_segments: int | None) -> SegmentPlan:
    """The plan of rows by the node index `index` into `n_segments`
    segments, or `index` itself when it is a plan of that many, or of any
    count when `n_segments` is None. ContractError for an index without a
    count, ShapeError for one that is not one-dimensional integers or a
    plan of another count, IndexError for a segment outside
    0..n_segments - 1. Nothing is sorted or counted here."""
    if isinstance(index, SegmentPlan):
        if n_segments is not None and index.n_segments != n_segments:
            raise ShapeError(f"a plan of {index.n_segments} segments does not match {n_segments} rows")
        return index
    if n_segments is None:
        raise ContractError("segment ids need their count, num_segments")
    index = np.asarray(index)
    if index.ndim != 1 or not (index.size == 0 or index.dtype.kind in "iu"):
        raise ShapeError(f"a segment index must be one-dimensional integers, got {index.dtype} {index.shape}")
    index = index.astype(np.int64, copy=False)
    if n_segments < 0:
        raise ShapeError(f"a plan needs a non-negative segment count, got {n_segments}")
    if index.size and (index.min() < 0 or index.max() >= n_segments):
        raise IndexError(f"segment index outside 0..{n_segments - 1}")
    return SegmentPlan(index, n_segments)


def _with_mirrors(key, src, dst, shift, rel, dist) -> EdgeList:
    """Rows measured once per pair, then their mirrors, in the order of
    `key`, a unique int64 rising with (src, dst, shift); `key`, `src` and
    `dst` cover both halves. A mirror is its row's reverse, with -shift, the
    same dist and rel 0.0 - rel, which keeps +0.0 as a subtraction gives it."""
    order = np.argsort(key)
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    # row u's mirror is row u +- dist.size, which `at` rolled by dist.size reads at u
    reverse = np.roll(at, dist.size)[order]
    both = [np.concatenate(p)[order] for p in ((dist, dist), (rel, 0.0 - rel), (shift, -shift))]
    return EdgeList(src[order], dst[order], *both, reverse)


# bins are this much wider than the cutoff, so that a pair at exactly the
# cutoff still lands in adjacent bins after the rounding of the bin arithmetic
_BIN_SLACK = 1e-6
# a sparse cloud gets wider bins rather than more than this many per axis,
# which keeps bin keys inside int64 and bin rounding far below the slack
_MAX_AXIS_BINS = 1 << 20
# relative slack of the squared-length prefilter in `_pairs_within`
_NEAR_SLACK = 1e-9


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenated index ranges [start, start + count), in order."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - (ends - counts), counts)


def _bin_keys(bins: np.ndarray, strides: np.ndarray) -> np.ndarray:
    """bins @ strides (int64, strides[2] == 1) column by column: exact, and faster than an integer matmul."""
    return bins[:, 0] * strides[0] + bins[:, 1] * strides[1] + bins[:, 2]


def _pairs_within(anchors: np.ndarray, candidates: np.ndarray, cutoff: float, base: int):
    """Every (anchor, candidate) index pair with 0 < dist <= cutoff and
    dst > src + base, as (src, dst, rel, dist) with rel = candidates[dst] -
    anchors[src]. Candidate src + base is anchor src itself, so candidates
    in an order symmetric about it give each pair of points once.

    Linked cells: points fall into cubic bins at least the cutoff wide, so
    a pair within the cutoff sits in the same or an adjacent bin along each
    axis, and every anchor measures only the candidates of its 27
    neighbouring bins. Candidates outside the anchors' bins grown by one bin
    are dropped first. The cost is linear in the points at fixed density.

    The cutoff sphere fills at most a sixth of the 27 bins, so a prefilter
    first sums each candidate's squared offsets axis by axis and keeps those
    at most cutoff^2 (1 + 1e-9); the relative vectors and the exact test
    0 < dist <= cutoff are then taken on the survivors only. The slack lies
    far above the rounding of either length, so the prefilter drops no pair
    the exact test keeps. A survivor's length is the root of its prefilter
    sum, which adds the squares in the order `np.linalg.norm` does. Past
    `_MAX_ROWS` candidates is a ContractError, before they are gathered.
    """
    if anchors.shape[0] == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 3)), np.zeros(0)
    lo = anchors.min(axis=0)
    span = float((anchors.max(axis=0) - lo).max())
    side = max(cutoff * (1.0 + _BIN_SLACK), span / _MAX_AXIS_BINS)
    # bin 0 and the last bin along each axis hold only candidates
    anchor_bin = np.floor((anchors - lo) / side).astype(np.int64) + 1
    dims = anchor_bin.max(axis=0) + 2
    cand_bin = np.floor((candidates - lo) / side) + 1
    inside = (cand_bin >= 0) & (cand_bin < dims)
    kept = np.flatnonzero(inside[:, 0] & inside[:, 1] & inside[:, 2])
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    cand_key = _bin_keys(cand_bin[kept].astype(np.int64), strides)
    order = np.argsort(cand_key, kind="stable")
    cand_key, kept = cand_key[order], kept[order]

    # along the last axis the three neighbouring bins have consecutive keys,
    # so the 27 bins are 9 key ranges [row - 1, row + 1]
    rows = np.array([dx * strides[0] + dy * strides[1] for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
    row_keys = _bin_keys(anchor_bin, strides)[:, None] + rows
    starts = np.searchsorted(cand_key, row_keys - 1, "left").ravel()
    counts = np.searchsorted(cand_key, row_keys + 1, "right").ravel() - starts
    if counts.sum() > _MAX_ROWS:
        raise ContractError(f"cutoff {cutoff} gives {counts.sum()} candidate pairs to measure, over {_MAX_ROWS}")
    src = np.repeat(np.arange(anchors.shape[0]), counts.reshape(-1, rows.size).sum(axis=1))
    dst = kept[_ranges(starts, counts)]
    ahead = np.flatnonzero(dst > src + base)
    src, dst = src[ahead], dst[ahead]

    near_sq = np.zeros(src.size)
    for axis in range(3):
        offset = candidates[:, axis][dst] - anchors[:, axis][src]
        offset *= offset
        near_sq += offset
    near = np.flatnonzero(near_sq <= cutoff * cutoff * (1.0 + _NEAR_SLACK))
    dist = np.sqrt(near_sq[near])
    hit = np.flatnonzero((dist > 0.0) & (dist <= cutoff))
    src, dst = src[near[hit]], dst[near[hit]]
    return src, dst, candidates[dst] - anchors[src], dist[hit]


def _check_cutoff(cutoff: float) -> None:
    if not (math.isfinite(cutoff) and cutoff > 0):
        raise ContractError(f"cutoff must be positive and finite, got {cutoff}")


def radius_graph(pos, cutoff: float) -> EdgeList:
    """All ordered pairs with 0 < dist <= cutoff, no periodicity."""
    _check_cutoff(cutoff)
    pos = np.asarray(pos, dtype=np.float64).reshape(-1, 3)
    if not np.isfinite(pos).all():
        raise ContractError("positions must be finite")
    src, dst, rel, dist = _pairs_within(pos, pos, cutoff, 0)
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return _with_mirrors(src * len(pos) + dst, src, dst, np.zeros((dist.size, 3), np.int64), rel, dist)


def _shift_ranges(lattice: np.ndarray, inv: np.ndarray, frac: np.ndarray, cutoff: float) -> tuple[int, int, int]:
    """Largest |shift| per lattice axis that can bring a pair within cutoff,
    given the lattice, its inverse and the atoms' fractional coordinates.

    The planes of axis i lie 1 / |inv[:, i]| apart, so a pair's offset
    across them is (shift_i + frac_j - frac_i) / |inv[:, i]|, and |shift_i|
    never exceeds the reach cutoff * |inv[:, i]| plus the spread of the
    fractional coordinates. In the cell the spread is below 1 and the range
    is ceil(reach); the spread term covers atoms that the face slack leaves
    just across a face. Before any image exists, a ContractError refuses
    past `_MAX_ROWS` images or certain candidates: the shifts within ranges
    times room / max(ranges @ |lattice|), room the cutoff less the atoms'
    spread on any axis, bring all atom pairs within the cutoff on each axis."""
    spread = frac.max(axis=0) - frac.min(axis=0)
    reach = [cutoff * math.hypot(*inv[:, i]) for i in range(3)]
    counts = [float(max(np.ceil(r), np.floor(r + s))) for r, s in zip(reach, spread)]
    images = math.prod(2.0 * c + 1.0 for c in counts) * frac.shape[0]  # in floats: a reach can be inf
    if not images <= _MAX_ROWS:
        raise ContractError(f"cutoff {cutoff} needs {images:.3g} periodic images of the atoms, over {_MAX_ROWS}")
    room = cutoff - (spread @ np.abs(lattice)).max()
    pairs = math.prod(2 * int(m) + 1 for m in np.multiply(counts, room) // (counts @ np.abs(lattice)).max()) * len(frac) ** 2
    if room >= 0.0 and pairs > _MAX_ROWS:
        raise ContractError(f"cutoff {cutoff} gives {pairs} candidate pairs or more to measure, over {_MAX_ROWS}")
    return tuple(int(c) for c in counts)


# an atom further out than this many cells cannot be moved into the cell
# exactly enough to keep its neighbors
_MAX_CELL_OFFSET = 2**40
# the most rows of atom images (shifts times atoms) a periodic graph
# enumerates, and of candidate pairs any graph measures; a cutoff that needs
# more would exhaust memory before the graph was built
_MAX_ROWS = 2**24
# fractional coordinates this close to a cell face count as inside, so that
# atoms on a face, which rounding puts on either side, are never moved
_FACE_SLACK = 1e-9


def _cells(lattice: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The inverse of the lattice, the fractional coordinates of `pos` and
    the whole cells (float) that move each atom into the lattice cell."""
    if abs(np.linalg.det(lattice)) < 1e-12:
        raise ContractError("lattice is degenerate (near-zero volume)")
    inv = np.linalg.inv(lattice)
    frac = pos @ inv
    cell = np.where((frac >= -_FACE_SLACK) & (frac < 1.0 + _FACE_SLACK), 0.0, np.floor(frac))
    if (np.abs(cell) > _MAX_CELL_OFFSET).any():
        raise ContractError(f"an atom lies more than {_MAX_CELL_OFFSET} cells outside the lattice cell")
    return inv, frac, cell


def _translations(lattice: np.ndarray, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    offset = cell.astype(np.int64)
    translation = np.zeros(cell.shape)
    out = offset.any(axis=1)
    translation[out] = offset[out] @ lattice
    return offset, translation


def cell_offsets(lattice: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each atom's integer cell offset (N, 3), as the periodic graph builder
    finds it, and its translation offset @ lattice, zero for an atom in the
    cell: pos - translation is the builder's atom moved into the cell, bit
    for bit."""
    return _translations(lattice, _cells(lattice, pos)[2])


def _into_cell(lattice: np.ndarray, pos: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions moved into the cell by whole lattice vectors (those in it
    keep theirs bit for bit), each atom's integer cell offset, with pos =
    moved + offset @ lattice, and every shift within `_shift_ranges` in
    ascending (a, b, c) order, all from one inverse of the lattice."""
    inv, frac, cell = _cells(lattice, pos)
    ranges = _shift_ranges(lattice, inv, frac - cell, cutoff)
    # the grid's indices in C order, a row per shift (np.meshgrid takes three times as long)
    shifts = np.ascontiguousarray(np.indices([2 * n + 1 for n in ranges]).reshape(3, -1).T) - ranges
    offset, translation = _translations(lattice, cell)
    return pos - translation, offset, shifts


def periodic_radius_graph(conf: Conformation, cutoff: float, mode: str = "gathered"):
    """Cutoff graph under periodic boundary conditions.

    gathered: images keep the anchor atom's index; returns an EdgeList whose
    shift column records which image was seen.
    expanded: images become fresh nodes with copied types; returns a
    PeriodicGraph. Every edge keeps the anchor node as its src endpoint and
    no image-image edge is ever produced. An anchor written outside the cell
    sits at its position moved into the cell by whole lattice vectors.
    """
    _check_cutoff(cutoff)
    if conf.lattice is None:
        raise ContractError("conformation has no lattice")
    if mode not in ("gathered", "expanded"):
        raise ContractError(f"unknown mode '{mode}'")
    lat, n = conf.lattice, conf.n_atoms
    # images are enumerated around the cell, so atoms written outside it are
    # first moved in; their offsets go back into the reported shifts. Atom i
    # through shift w is image w * n + i. The S shifts are symmetric and
    # ascending: anchor i is image centre * n + i, and a pair's mirror
    # (dst, src) sees src through shift S - 1 - w, the negation of shift w
    pos, offset, shifts = _into_cell(lat, conf.pos, cutoff)
    images = (pos[None, :, :] + (shifts.astype(np.float64) @ lat)[:, None, :]).reshape(-1, 3)
    n_shifts, centre = shifts.shape[0], shifts.shape[0] // 2
    src, image, rel, dist = _pairs_within(pos, images, cutoff, centre * n)
    which, dst = np.divmod(image, n)
    both_src, both_dst, both_which = (np.concatenate(p) for p in ((src, dst), (dst, src), (which, n_shifts - 1 - which)))

    if mode == "gathered":
        # the shifts come in ascending (a, b, c) order and a pair's offset
        # term is constant, so `which` orders a pair's rows as their shifts
        key = (both_src * n + both_dst) * n_shifts + both_which
        return _with_mirrors(key, both_src, both_dst, shifts[which] + offset[src] - offset[dst], rel, dist)

    # expanded: a block of nodes per shift in `layout` order, anchors first; argsort(layout) maps w to its block
    layout = np.r_[centre, :centre, centre + 1 : n_shifts]
    node = np.argsort(layout)[both_which] * n + both_dst
    edges = _with_mirrors(both_src * (n_shifts * n) + node, both_src, node, np.zeros((dist.size, 3), np.int64), rel, dist)
    # only anchor-anchor rows have a reverse: images are never a src
    edges.reverse[edges.dst >= n] = -1
    all_pos = images.reshape(n_shifts, n, 3)[layout].reshape(-1, 3)
    all_pos[:n] = pos
    image_of = np.tile(np.arange(n), n_shifts)
    node_shift = shifts[layout].repeat(n, axis=0) - offset[image_of]
    return PeriodicGraph(edges, conf.z[image_of], all_pos, image_of, node_shift, n)


def build_angle_index(edges: EdgeList) -> AngleIndex:
    """All two-hop triplets (k -> j, j -> i) with k not the physical i.

    The receiving row e = (src=i, dst=j) pairs with every row f =
    (src=j, dst=k) except its reverse row. The angle at j is
    between the vectors j->k and j->i. Triplets come ordered by e, then f.
    """
    by_src = np.argsort(edges.src, kind="stable")
    sorted_src = edges.src[by_src]
    starts = np.searchsorted(sorted_src, edges.dst, "left")
    counts = np.searchsorted(sorted_src, edges.dst, "right") - starts
    out_edge = np.repeat(np.arange(edges.n_edges), counts)
    in_edge = by_src[_ranges(starts, counts)]
    back = in_edge == edges.reverse[out_edge]
    in_edge, out_edge = in_edge[~back], out_edge[~back]
    to_k = edges.rel_vec[in_edge]
    to_i = -edges.rel_vec[out_edge]
    cosang = np.vecdot(to_k, to_i) / (edges.dist[in_edge] * edges.dist[out_edge])
    return AngleIndex(in_edge, out_edge, np.arccos(np.clip(cosang, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# dataset serialization (one JSON object per line)


def _conf_to_record(conf: Conformation) -> dict:
    return {
        "id": conf.id,
        "z": conf.z.tolist(),
        "pos": conf.pos.tolist(),
        "lattice": None if conf.lattice is None else conf.lattice.tolist(),
        "energy": conf.energy,
        "forces": None if conf.forces is None else conf.forces.tolist(),
    }


def _is_number(x) -> bool:
    """A finite JSON number: an int or a float, not a bool, within float range."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:
        return False


def _rows_of_3(value, what: str) -> np.ndarray:
    if not isinstance(value, list) or not all(
        isinstance(row, list) and len(row) == 3 and all(map(_is_number, row)) for row in value
    ):
        raise ContractError(f"{what} must be a list of rows of 3 finite numbers")
    return np.asarray(value, dtype=np.float64).reshape(-1, 3)


def _record_to_conf(rec: dict) -> Conformation:
    """A Conformation from one dataset record, with every field's JSON type
    checked first, so that malformed input raises ContractError."""
    z = rec["z"]
    if not (isinstance(z, list) and all(type(v) is int and 1 <= v <= 118 for v in z)):
        raise ContractError("z must be a list of atomic numbers (integers 1..118)")
    lattice, energy, forces = rec.get("lattice"), rec.get("energy"), rec.get("forces")
    if lattice is not None and (not isinstance(lattice, list) or len(lattice) != 3):
        raise ContractError("lattice must be 3x3 finite numbers or null")
    if energy is not None and not _is_number(energy):
        raise ContractError("energy must be a finite number or null")
    return Conformation(
        z=np.asarray(z, dtype=np.int64),
        pos=_rows_of_3(rec["pos"], "pos"),
        lattice=None if lattice is None else _rows_of_3(lattice, "lattice"),
        energy=energy,
        forces=None if forces is None else _rows_of_3(forces, "forces"),
        id=rec.get("id", ""),
    )


def save_dataset(path, confs) -> None:
    with open(path, "w") as fh:
        for conf in confs:
            fh.write(json.dumps(_conf_to_record(conf), separators=(",", ":")))
            fh.write("\n")


def load_dataset(path) -> list[Conformation]:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            try:
                out.append(_record_to_conf(rec))
            except (KeyError, ContractError, ShapeError, TypeError) as exc:
                raise ParseError(f"bad record: {exc}", line=lineno) from exc
    return out
