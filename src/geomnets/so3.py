"""Rotation algebra for degree-typed features.

Real spherical harmonics up to degree 2 (`MAX_DEGREE`), rotation matrices
acting on them (Wigner blocks), coupling coefficients between degrees, and
the container for features that carry several degrees: a layout of
(multiplicity, degree) blocks and one (N, 2l+1, mult) tensor per block,
channels last, so a rotation acts on a block as D @ block and a channel mix
as block @ W.

Conventions, fixed across the package:
  * components of degree l are ordered m = -l..l; degree 1 is (y, z, x)
  * harmonics are orthonormal on the sphere, so the vector of degree-l
    values at any direction has Euclidean norm sqrt((2l+1)/(4*pi))
  * coupling tensors have unit Frobenius norm and their first nonzero
    entry (flat index order) is positive
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError, ShapeError
from .tensor import Tensor

# the highest degree anything reads; dimenet's angles have their own Legendre
MAX_DEGREE = 2

_C0 = 0.5 / math.sqrt(math.pi)
_C1 = math.sqrt(3.0 / (4.0 * math.pi))
_C2A = 0.5 * math.sqrt(15.0 / math.pi)
_C2B = 0.25 * math.sqrt(5.0 / math.pi)
_C2C = 0.25 * math.sqrt(15.0 / math.pi)


def _check_degree(l: int) -> None:
    if not (0 <= l <= MAX_DEGREE):
        raise ContractError(f"degree {l} outside supported range 0..{MAX_DEGREE}")


def _columns(cols: list[Tensor]) -> Tensor:
    return T.concat([T.reshape(c, (-1, 1)) for c in cols], axis=1)


def sph_harm_block(l: int, unit_vecs: Tensor) -> Tensor:
    """Degree-l harmonics for rows of unit vectors, shape (N, 2l+1).

    Input rows must already be normalized; the polynomial forms below assume
    x^2 + y^2 + z^2 = 1. Differentiable in the inputs.
    """
    _check_degree(l)
    if l == 0:
        return _columns([Tensor(np.ones(unit_vecs.shape[0])) * _C0])
    x = unit_vecs[:, 0]
    y = unit_vecs[:, 1]
    z = unit_vecs[:, 2]
    if l == 1:
        return _columns([y * _C1, z * _C1, x * _C1])
    return _columns(
        [
            x * y * _C2A,
            y * z * _C2A,
            (z * z * 3.0 - 1.0) * _C2B,
            x * z * _C2A,
            (x * x - y * y) * _C2C,
        ]
    )


def _fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count) + 0.5
    polar = np.arccos(1.0 - 2.0 * i / count)
    azim = math.pi * (1.0 + math.sqrt(5.0)) * i
    return np.stack(
        [np.sin(polar) * np.cos(azim), np.sin(polar) * np.sin(azim), np.cos(polar)], axis=1
    )


@lru_cache(maxsize=None)
def _sample_pinv(l: int) -> tuple[np.ndarray, np.ndarray]:
    pts = _fibonacci_sphere(max(4 * (2 * l + 1), 12))
    values = sph_harm_block(l, Tensor(pts)).data.T  # (2l+1, K)
    return pts, np.linalg.pinv(values)


def check_rotation(rot) -> np.ndarray:
    rot = np.asarray(rot, dtype=np.float64)
    if rot.shape != (3, 3):
        raise ShapeError("rotation must be a 3x3 matrix")
    if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9:
        raise ContractError("matrix is not orthogonal")
    if abs(np.linalg.det(rot) - 1.0) > 1e-9:
        raise ContractError("matrix is not a proper rotation (det != +1)")
    return rot


def wigner_d(l: int, rot) -> np.ndarray:
    """The (2l+1)x(2l+1) block satisfying Y^l(R u) = D Y^l(u).

    Solved from harmonic values on a fixed well-spread direction set; the
    pseudoinverse is cached per degree, so each call costs one evaluation
    and one small matrix product.
    """
    _check_degree(l)
    rot = check_rotation(rot)
    pts, pinv = _sample_pinv(l)
    rotated = sph_harm_block(l, Tensor(pts @ rot.T)).data.T
    d = rotated @ pinv
    if not np.isfinite(d).all():
        raise NumericError("wigner block solve produced non-finite values")
    return d


def random_rotation(seed) -> np.ndarray:
    """Uniform random rotation from a normalized 4-component Gaussian."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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


@lru_cache(maxsize=None)
def clebsch_gordan(l1: int, l2: int, l3: int) -> np.ndarray:
    """Coupling tensor C with sum_{m1 m2} C[m1,m2,m3] u_{m1} v_{m2} of type l3.

    Computed as the null space of the change-of-frame constraints stacked
    over a few fixed random rotations; unit Frobenius norm, first nonzero
    entry positive. Raises if the triangle rule fails.
    """
    for l in (l1, l2, l3):
        _check_degree(l)
    if not (abs(l1 - l2) <= l3 <= l1 + l2):
        raise ContractError(f"triangle rule violated for ({l1}, {l2}, {l3})")
    d1, d2, d3 = 2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1
    rng = np.random.default_rng(20240915)
    blocks = []
    for _ in range(3):
        rot = random_rotation(rng)
        m1, m2, m3 = wigner_d(l1, rot), wigner_d(l2, rot), wigner_d(l3, rot)
        blocks.append(np.kron(np.kron(m1.T, m2.T), np.eye(d3)) - np.kron(np.eye(d1 * d2), m3))
    _, sing, vt = np.linalg.svd(np.vstack(blocks))
    if sing[-1] > 1e-8 or (len(sing) > 1 and sing[-2] < 1e-4):
        raise NumericError(f"coupling space for ({l1}, {l2}, {l3}) is not one-dimensional")
    coeff = vt[-1].reshape(d1, d2, d3)
    coeff = coeff / np.linalg.norm(coeff)
    flat = coeff.reshape(-1)
    lead = flat[np.abs(flat) > 1e-8]
    if lead.size and lead[0] < 0:
        coeff = -coeff
    coeff.setflags(write=False)
    return coeff


# ---------------------------------------------------------------------------
# degree-typed feature containers


@dataclass(frozen=True)
class IrrepsLayout:
    """Ordered (multiplicity, degree) blocks of a feature."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for mult, l in self.blocks:
            if mult < 1:
                raise ContractError("multiplicity must be positive")
            _check_degree(l)


@dataclass
class SteerableFeature:
    """Node features held as one (N, 2l+1, mult) tensor per block of
    `layout`, every block with the same N."""

    layout: IrrepsLayout
    blocks: list[Tensor]

    def __post_init__(self):
        if len(self.blocks) != len(self.layout.blocks):
            raise ShapeError(f"{len(self.blocks)} blocks for a layout of {len(self.layout.blocks)}")
        for b, (mult, l) in zip(self.blocks, self.layout.blocks):
            want = (self.blocks[0].shape[0], 2 * l + 1, mult)
            if b.shape != want:
                raise ShapeError(f"block of shape {b.shape} where layout block ({mult}, {l}) needs {want}")
