"""Distance- and angle-based message passing (rotation-invariant features).

Two stacks live here. The first passes messages gated by a learned radial
filter over each edge. The second additionally aggregates over two-hop
paths, expanding (incoming distance, interior angle) pairs in a 2-D basis
built from spherical Bessel functions and zonal harmonics.

Both produce per-node invariant scalars; energies come from sum pooling and
a bias-free linear head. Smooth cutoff behavior is obtained by multiplying
every message by the cosine envelope of the edge it depends on, so an edge
appearing at the cutoff contributes exactly zero at first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .. import tensor as T
from ..errors import ContractError
from ..geometry import AngleIndex, PairIndex, SegmentPlan
from ..tensor import Tensor, init_mlp, mlp_apply
from .common import EMBED_ROWS, GraphBatch, embed_nodes, pair_vectors

# ---------------------------------------------------------------------------
# radial bases


@dataclass(frozen=True)
class RadialBasisSpec:
    """Distance expansion: evenly spaced gaussians or a sinc-like series."""

    kind: str = "gaussian"
    count: int = 16
    cutoff: float = 5.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "bessel"):
            raise ContractError(f"unknown radial basis '{self.kind}'")
        if self.kind == "gaussian" and self.count < 2:
            raise ContractError("gaussian basis needs at least two centers")
        if self.count < 1:
            raise ContractError("basis needs at least one function")
        if self.cutoff <= 0:
            raise ContractError("cutoff must be positive")


def cosine_envelope(d: Tensor, cutoff: float) -> Tensor:
    """Smooth switch (cos(pi d / cutoff) + 1) / 2; value and slope 0 at the cutoff."""
    return (T.cos(d * (math.pi / cutoff)) + 1.0) * 0.5


# The bases admit lengths this far (relative) past the cutoff: a forward
# measures a periodic pair again along its representative row, often the
# mirror of the row the graph builder kept, and land a few ulps (3e-16) past.
_CUTOFF_SLACK = 1e-12


def _check_distances(d: Tensor, cutoff: float) -> None:
    if d.size and (d.data <= 0.0).any():
        raise ContractError("distances must be positive")
    if d.size and (d.data > cutoff * (1.0 + _CUTOFF_SLACK)).any():
        raise ContractError("distance beyond the basis cutoff")


def radial_basis(spec: RadialBasisSpec, d: Tensor) -> Tensor:
    """Expand distances, (E,) or (E, 1), into (E, count); differentiable."""
    _check_distances(d, spec.cutoff)
    col = T.reshape(d, (-1, 1))
    if spec.kind == "gaussian":
        centers = np.linspace(0.0, spec.cutoff, spec.count)
        gamma = 1.0 / (centers[1] - centers[0]) ** 2
        delta = col - Tensor(centers)
        return T.exp(delta * delta * (-gamma))
    freqs = np.arange(1, spec.count + 1) * (math.pi / spec.cutoff)
    return T.sin(T.mul(col, Tensor(freqs))) / col * math.sqrt(2.0 / spec.cutoff)


@dataclass(frozen=True)
class EdgeGeometry:
    """What a forward reads from its edges, one row per edge pair: relative
    vectors `rel` (P, 3) and lengths (P, 1) of the representative edges,
    the cosine envelope (P, 1) and the radial basis times it. A flipped
    edge shares its pair's row, with the unit vector negated."""

    rel: Tensor
    dist: Tensor
    env: Tensor
    rbf: Tensor

    @cached_property
    def unit(self) -> Tensor:
        """Unit vectors (P, 3), divided out on first read, in scope `edges`:
        a forward that reads no directions records no division."""
        with T.scope("edges"):
            return self.rel / self.dist


def edge_geometry(basis: RadialBasisSpec, rel: Tensor) -> EdgeGeometry:
    """The geometry of edges with relative vectors `rel` (rows, 3), built
    once per forward, from `common.pair_vectors`, and shared by all its
    layers."""
    dist = T.norm(rel, axis=1, keepdims=True)
    bare = radial_basis(basis, dist)  # rejects zero lengths before `unit` divides by them
    env = cosine_envelope(dist, basis.cutoff)
    return EdgeGeometry(rel, dist, env, bare * env)


# ---------------------------------------------------------------------------
# spherical Bessel functions, their roots, and the 2-D basis

def _double_factorial(n: int) -> float:
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


def _jl_series_coeffs(l: int, terms: int = 9) -> list[float]:
    coeffs = []
    for k in range(terms):
        coeffs.append((-1.0) ** k / (2.0**k * math.factorial(k) * _double_factorial(2 * l + 2 * k + 1)))
    return coeffs


def _jl_closed(l: int, x: Tensor) -> Tensor:
    s, inv = T.sin(x), T.div(1.0, x)
    if l == 0:
        return s * inv
    c = T.cos(x)
    i2 = inv * inv
    if l == 1:
        return s * i2 - c * inv
    i3 = i2 * inv
    if l == 2:
        return s * (i3 * 3.0 - inv) - c * (i2 * 3.0)
    i4 = i3 * inv
    if l == 3:
        return s * (i4 * 15.0 - i2 * 6.0) - c * (i3 * 15.0 - inv)
    i5 = i4 * inv
    return s * (i5 * 105.0 - i3 * 45.0 + inv) - c * (i4 * 105.0 - i2 * 10.0)


def _jl_series(l: int, x: Tensor) -> Tensor:
    x2 = x * x
    acc = None
    for k, coef in enumerate(_jl_series_coeffs(l)):
        term = T.power(x, float(l)) if l else Tensor(np.ones(x.shape))
        term = term * coef
        if k:
            term = term * T.power(x2, float(k))
        acc = term if acc is None else acc + term
    return acc


# below these arguments, by order, spherical_jl sums its series: the closed
# form cancels more the higher the order, and each switch sits where the two
# agree with scipy to about 1e-14
_SERIES_BELOW = (0.5, 0.5, 0.5, 1.9, 2.15)


def spherical_jl(l: int, x: Tensor) -> Tensor:
    """Order-l spherical Bessel function of the first kind, x > 0.

    Small arguments switch to a truncated series, below `_SERIES_BELOW[l]`;
    the closed form loses precision there through cancellation.
    """
    if not 0 <= l < len(_SERIES_BELOW):
        raise ContractError(f"spherical bessel order {l} not supported")
    small = x.data < _SERIES_BELOW[l]
    if not small.any():
        return _jl_closed(l, x)
    if small.all():
        return _jl_series(l, x)
    mask = Tensor(small.astype(np.float64))
    safe = x + mask  # keeps 1/x bounded exactly where the closed form is masked out
    return mask * _jl_series(l, x) + (1.0 - mask) * _jl_closed(l, safe)


def _jl_values(l: int, x: np.ndarray) -> np.ndarray:
    return spherical_jl(l, Tensor(x)).data


# the root scan: its step, how many steps it takes at most, and how many it
# evaluates at once
_SCAN_STEP = 0.05
_SCAN_STEPS = 20000
_SCAN_BLOCK = 256


@lru_cache(maxsize=None)
def bessel_roots(l: int, count: int) -> np.ndarray:
    """First `count` positive roots of j_l, found by a scan in steps of
    `_SCAN_STEP` for sign changes, then 80 bisections of all brackets at
    once. The scan adds each step to the last point, and j_l is evaluated
    elementwise, so the roots are bitwise those of one point at a time."""
    if count < 1:
        raise ContractError("need at least one root")
    grid = np.add.accumulate(np.full(_SCAN_STEPS, _SCAN_STEP))
    values = np.empty(0)
    for stop in range(_SCAN_BLOCK, _SCAN_STEPS + _SCAN_BLOCK, _SCAN_BLOCK):
        values = np.concatenate([values, _jl_values(l, grid[values.size : stop])])
        zero = values[:-1] == 0.0  # a root on the grid
        brackets = np.flatnonzero(zero | (values[:-1] * values[1:] < 0.0))[:count]
        if brackets.size == count:
            break
    else:
        raise ContractError("root scan ran away")
    lo, hi, at_lo = grid[brackets], grid[brackets + 1], values[brackets]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        at_mid = _jl_values(l, mid)
        left = at_lo * at_mid <= 0.0
        hi = np.where(left, mid, hi)
        lo, at_lo = np.where(left, lo, mid), np.where(left, at_lo, at_mid)
    return np.where(zero[brackets], grid[brackets], 0.5 * (lo + hi))


@lru_cache(maxsize=None)
def _bessel_norms(l: int, n_max: int, cutoff: float) -> np.ndarray:
    """sqrt(2 / (cutoff^3 j_{l+1}(z_ln)^2)) over the first `n_max` roots z_ln
    of j_l, read-only since every caller shares it."""
    at_roots = _jl_values(l + 1, bessel_roots(l, n_max)).tolist()
    norms = np.array([math.sqrt(2.0 / (cutoff**3 * v**2)) for v in at_roots])
    norms.flags.writeable = False
    return norms


_ZONAL_NORM = [math.sqrt((2 * l + 1) / (4.0 * math.pi)) for l in range(4)]


def _legendre(l: int, c: Tensor) -> Tensor:
    if l == 0:
        return Tensor(np.ones(c.shape))
    if l == 1:
        return c
    c2 = c * c
    if l == 2:
        return c2 * 1.5 - 0.5
    if l == 3:
        return (c2 * 2.5 - 1.5) * c
    raise ContractError(f"legendre degree {l} not supported")


def zonal_harmonic(l: int, cos_angle: Tensor) -> Tensor:
    """Degree-l harmonic along the polar axis, as a polynomial in cos(angle)."""
    return _legendre(l, cos_angle) * _ZONAL_NORM[l]


def _check_basis_degrees(l_max: int, n_max: int) -> None:
    if not (0 <= l_max <= 3):
        raise ContractError("sbf degree cap is 0..3")
    if n_max < 1:
        raise ContractError("sbf needs at least one radial order")


def spherical_basis_radial(l_max: int, n_max: int, cutoff: float, d: Tensor) -> Tensor:
    """Distance factor of the 2-D basis, (rows, (l_max+1)*n_max), degree-major:
    entry (l, n) is sqrt(2 / (cutoff^3 j_{l+1}(z_ln)^2)) j_l(z_ln d/cutoff)."""
    _check_basis_degrees(l_max, n_max)
    _check_distances(d, cutoff)
    col = T.reshape(d, (-1, 1))
    blocks = []
    for l in range(l_max + 1):
        roots = bessel_roots(l, n_max)
        blocks.append(spherical_jl(l, col * Tensor(roots / cutoff)) * Tensor(_bessel_norms(l, n_max, cutoff)))
    return T.concat(blocks, axis=1)


def spherical_basis_zonal(l_max: int, n_max: int, cos_angle: Tensor) -> Tensor:
    """Angle factor of the 2-D basis in the layout of `spherical_basis_radial`:
    entry (l, n) is the degree-l zonal harmonic of the angle, for every n."""
    _check_basis_degrees(l_max, n_max)
    shape = (cos_angle.shape[0], n_max)
    return T.concat(
        [T.broadcast_to(T.reshape(zonal_harmonic(l, cos_angle), (-1, 1)), shape) for l in range(l_max + 1)],
        axis=1,
    )


# ---------------------------------------------------------------------------
# edge-filtered stack (single hop)


@dataclass(frozen=True)
class SchNetSpec:
    hidden: int = 32
    layers: int = 2
    basis: RadialBasisSpec = field(default_factory=RadialBasisSpec)

    def __post_init__(self):
        if self.hidden < 1 or self.layers < 1:
            raise ContractError("hidden width and layer count must be positive")


def init_schnet(spec: SchNetSpec, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    params = {"embed": T.glorot_uniform(rng, EMBED_ROWS, spec.hidden)}
    for i in range(spec.layers):
        params.update(init_mlp((spec.basis.count, spec.hidden, spec.hidden), rng, f"layer{i}.filter"))
        params[f"layer{i}.win"] = T.glorot_uniform(rng, spec.hidden, spec.hidden)
        params[f"layer{i}.wout"] = T.glorot_uniform(rng, spec.hidden, spec.hidden)
    params["head.w"] = T.glorot_uniform(rng, spec.hidden, 1)
    return params


def schnet_layer(
    spec: SchNetSpec,
    params: dict[str, Tensor],
    prefix: str,
    h: Tensor,
    src: SegmentPlan,
    dst: SegmentPlan,
    pairs: PairIndex,
    rbf: Tensor,
    env: Tensor,
) -> Tensor:
    """One residual interaction: h_i <- h_i + sum_j filter(d_ij) * (W h_j) W'.

    The input transform W is applied atom-wise, as in SchNet, and its rows
    are gathered to the edges. The filter depends on the edge length alone,
    so its network runs once per edge pair, on the pairs' basis `rbf`
    (P, count) times their envelope (P, 1). `T.edge_product` multiplies the
    two on the edges and sums them into the atoms by `src`, a block of
    edges at a time, so no message row outlives its block and the backward
    keeps node and pair rows alone. A message fades to zero as its edge
    reaches the cutoff; with all-zero filter weights the update is exactly
    the identity.
    """
    filt = mlp_apply(params, rbf, f"{prefix}.filter") * env
    agg = T.edge_product((T.matmul(h, params[f"{prefix}.win"]), dst), (filt, pairs), into=src)
    return h + T.matmul(agg, params[f"{prefix}.wout"])


def schnet_forward(
    spec: SchNetSpec, params: dict[str, Tensor], batch: GraphBatch, pos: Tensor, vectors: bool = True
) -> tuple[Tensor, None]:
    """Node scalars; the stack has no vectors, so `vectors` changes nothing."""
    with T.scope("edges"):
        geom = edge_geometry(spec.basis, pair_vectors(pos, batch))
    with T.scope("embed"):
        h = embed_nodes(params["embed"], batch.z)
    for i in range(spec.layers):
        with T.scope(f"layer{i}"):
            h = schnet_layer(
                spec, params, f"layer{i}", h, batch.by_src, batch.by_dst, batch.pairs, geom.rbf, geom.env
            )
    return h, None


# ---------------------------------------------------------------------------
# two-hop directional stack


@dataclass(frozen=True)
class DimeNetSpec:
    hidden: int = 32
    layers: int = 2
    basis: RadialBasisSpec = field(default_factory=lambda: RadialBasisSpec(kind="bessel", count=8))
    sbf_l_max: int = 2
    sbf_n_max: int = 3

    def __post_init__(self):
        if self.hidden < 1 or self.layers < 1:
            raise ContractError("hidden width and layer count must be positive")
        _check_basis_degrees(self.sbf_l_max, self.sbf_n_max)

    @property
    def sbf_width(self) -> int:
        return (self.sbf_l_max + 1) * self.sbf_n_max


def init_dimenet(spec: DimeNetSpec, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    d, r = spec.hidden, spec.basis.count
    params = {"embed": T.glorot_uniform(rng, EMBED_ROWS, d)}
    params.update(init_mlp((2 * d + r, d, d), rng, "m0"))
    for i in range(spec.layers):
        params.update(init_mlp((d + r + spec.sbf_width, d, d), rng, f"block{i}"))
    params.update(init_mlp((d, d, d), rng, "edge_out"))
    params["head.w"] = T.glorot_uniform(rng, d, 1)
    return params


def dimenet_layer(
    spec: DimeNetSpec,
    params: dict[str, Tensor],
    prefix: str,
    m: Tensor,
    rbf: Tensor,
    sbf_rows: Tensor,
    env_in: Tensor,
    angles: AngleIndex,
    n_edges: int,
) -> Tensor:
    """Replace each edge message by its two-hop aggregation.

    For the receiving edge (j -> i), every incoming edge (k -> j) except the
    reverse contributes one network evaluation of (message, distance
    expansion of d_ji, 2-D expansion of (d_kj, angle at j)), weighted by the
    incoming edge's envelope `env_in` (T, 1). Edges with no incoming paths
    become zero.

    Each part of the network runs on the set it depends on. The first
    layer's (message, distance) rows are applied per edge and gathered to
    the triplets, where only the 2-D expansion's rows are added. The second
    layer is linear, so it is applied after the envelope-weighted sum over
    an edge's triplets, its bias weighted by their summed envelopes.
    """
    w0 = params[f"{prefix}.w0"]
    k = spec.hidden + spec.basis.count
    per_edge = T.matmul(T.concat([m, rbf], axis=1), w0[:k]) + params[f"{prefix}.b0"]
    pre = T.gather(per_edge, angles.out_edge) + T.matmul(sbf_rows, w0[k:])
    hidden = T.scatter_sum(T.silu(pre) * env_in, angles.out_edge, n_edges)
    weight = T.scatter_sum(env_in, angles.out_edge, n_edges)
    return T.matmul(hidden, params[f"{prefix}.w1"]) + weight * params[f"{prefix}.b1"]


def dimenet_messages(
    spec: DimeNetSpec, params: dict[str, Tensor], batch: GraphBatch, pos: Tensor
) -> tuple[Tensor, Tensor]:
    """Edge messages after the last block, and each edge pair's cosine
    envelope (P, 1).

    Whatever depends on one edge's length alone (its distance expansions
    and envelope) is computed once per edge pair, and its unit vector once
    per pair up to sign; they are expanded to the edges and gathered to the
    triplets by pair slot. Only the angle's zonal factor is computed per
    triplet.
    """
    if batch.angles is None:
        raise ContractError("batch was built without angle triplets")
    angles, pairs = batch.angles, batch.pairs
    with T.scope("edges"):
        geom = edge_geometry(spec.basis, pair_vectors(pos, batch))
    with T.scope("embed"):
        h = embed_nodes(params["embed"], batch.z)
        rbf = T.gather(geom.rbf, pairs)
        m = mlp_apply(params, T.concat([T.gather(h, batch.by_dst), T.gather(h, batch.by_src), rbf], axis=1), "m0")
    with T.scope("triplets"):
        in_pair = pairs.slot[angles.in_edge]
        # the angle at j between (j -> k) and (j -> i), whose unit
        # vectors are those of the pairs, negated on flipped edges
        turn = np.where(pairs.flipped[angles.in_edge] == pairs.flipped[angles.out_edge], -1.0, 1.0)
        cos_angle = T.sum_(
            T.gather(geom.unit, in_pair) * T.gather(geom.unit, pairs.slot[angles.out_edge]), axis=1
        ) * Tensor(turn)
        radial = spherical_basis_radial(spec.sbf_l_max, spec.sbf_n_max, spec.basis.cutoff, geom.dist)
        sbf_rows = T.gather(radial, in_pair) * spherical_basis_zonal(spec.sbf_l_max, spec.sbf_n_max, cos_angle)
        env_in = T.gather(geom.env, in_pair)
    for i in range(spec.layers):
        with T.scope(f"block{i}"):
            m = dimenet_layer(spec, params, f"block{i}", m, rbf, sbf_rows, env_in, angles, batch.n_edges)
    return m, geom.env


def dimenet_forward(
    spec: DimeNetSpec, params: dict[str, Tensor], batch: GraphBatch, pos: Tensor, vectors: bool = True
) -> tuple[Tensor, None]:
    """Node scalars, summed from the readouts of outgoing edges; no vectors,
    so `vectors` changes nothing."""
    m, env = dimenet_messages(spec, params, batch, pos)
    with T.scope("readout"):
        per_edge = mlp_apply(params, m, "edge_out") * T.gather(env, batch.pairs)
        return T.scatter_sum(per_edge, batch.by_src), None
