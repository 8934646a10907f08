"""Seeded inputs for the geomnets benchmark.

Every generator takes a seed and returns plain `Conformation` objects, so the
program under test only ever sees the generated structures. The same seed
gives the same structures; the size ranges and the density are fixed here.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from geomnets.geometry import Conformation
from geomnets.training import synthetic_conformations

MOLECULES = 64  # structures per training batch (train-mol, pretrain-mol)
VOLUME_PER_ATOM = 12.0  # cubic angstrom per atom, crystals and clusters alike
CRYSTAL_ATOMS = (8, 512)
CLUSTER_ATOMS = (16, 1024)
SITE_JITTER = 0.15  # of a grid spacing, so neighbouring sites never merge
FRAME_JITTER = 0.05  # angstrom, per frame
Z_MAX = 9


def molecules(seed: int) -> list[Conformation]:
    """The training batch: the library's own labeled synthetic molecules."""
    return synthetic_conformations(MOLECULES, seed)


def log_uniform_sizes(rng: np.random.Generator, count: int, lo: int, hi: int) -> np.ndarray:
    """`count` sizes in [lo, hi], log-uniform and stratified.

    One draw falls in each of `count` equal slices of log-size, so every seed
    covers the whole range evenly and the latency percentiles of a stream do
    not hinge on a lucky draw of large structures.
    """
    u = (np.arange(count) + rng.uniform(size=count)) / count
    sizes = np.floor(np.exp(np.log(lo) + u * np.log((hi + 1) / lo))).astype(np.int64)
    return np.clip(sizes, lo, hi)


def _grid_cells(grid: int) -> np.ndarray:
    """Integer corners of the cells of a grid^3 lattice, one row per cell."""
    return np.stack(np.meshgrid(*[np.arange(grid)] * 3, indexing="ij"), -1).reshape(-1, 3)


def _jittered_sites(rng: np.random.Generator, n: int, grid: int) -> np.ndarray:
    """n distinct cells of a grid^3 lattice, each jittered inside its cell,
    in fractional coordinates of the grid's bounding cube."""
    cells = _grid_cells(grid)
    pick = rng.choice(len(cells), size=n, replace=False)
    return (cells[pick] + 0.5 + rng.uniform(-SITE_JITTER, SITE_JITTER, (n, 3))) / grid


def skewed_cell(rng: np.random.Generator, volume: float) -> np.ndarray:
    """Lattice rows a, b, c with uneven lengths and 66-114 degree angles,
    scaled to the given volume."""
    lengths = rng.uniform(0.8, 1.25, 3)
    shear = rng.uniform(-0.35, 0.35, 3)
    cell = np.array(
        [
            [lengths[0], 0.0, 0.0],
            [shear[0], lengths[1], 0.0],
            [shear[1], shear[2], lengths[2]],
        ]
    )
    return cell * (volume / np.linalg.det(cell)) ** (1.0 / 3.0)


def crystal(rng: np.random.Generator, n: int) -> Conformation:
    """A periodic structure of n atoms at VOLUME_PER_ATOM in a skewed cell."""
    lattice = skewed_cell(rng, VOLUME_PER_ATOM * n)
    frac = _jittered_sites(rng, n, int(np.ceil(n ** (1.0 / 3.0))))
    z = rng.integers(1, Z_MAX + 1, n)
    return Conformation(z=z, pos=frac @ lattice, lattice=lattice, id=f"crystal{n}")


def cluster(rng: np.random.Generator, n: int) -> Conformation:
    """An open blob of n atoms: the sites of a jittered cubic grid at
    VOLUME_PER_ATOM nearest to a random centre."""
    spacing = VOLUME_PER_ATOM ** (1.0 / 3.0)
    grid = int(np.ceil((2.0 * n) ** (1.0 / 3.0)))
    cells = _grid_cells(grid)
    centre = rng.uniform(0.4, 0.6, 3) * grid
    nearest = np.argsort(np.linalg.norm(cells + 0.5 - centre, axis=1), kind="stable")[:n]
    pos = (cells[nearest] + 0.5 + rng.uniform(-SITE_JITTER, SITE_JITTER, (n, 3))) * spacing
    z = rng.integers(1, Z_MAX + 1, n)
    return Conformation(z=z, pos=pos, id=f"cluster{n}")


def infer_stream(seed: int, structures: int, frames: int) -> list[Conformation]:
    """Crystals and open clusters taking turns, each followed by `frames`
    jittered copies of itself (as in MD or a relaxation), so every frame
    needs a fresh graph.

    Sizes come one per stratum of log-size, and the strata are visited in
    one fixed shuffled order for every seed: the seed changes the structures,
    not the sequence of sizes, so the collector meets the large tapes at the
    same points of every run and peak memory compares across seeds.
    """
    rng = np.random.default_rng(seed)
    fixed = np.random.default_rng(0)  # the order of strata, the same for every seed
    n_crystal, n_cluster = structures // 2, structures - structures // 2
    crystals = log_uniform_sizes(rng, n_crystal, *CRYSTAL_ATOMS)[fixed.permutation(n_crystal)]
    clusters = log_uniform_sizes(rng, n_cluster, *CLUSTER_ATOMS)[fixed.permutation(n_cluster)]
    turns = zip_longest([(crystal, n) for n in crystals], [(cluster, n) for n in clusters])
    stream = []
    for make, n in (item for pair in turns for item in pair if item is not None):
        base = make(rng, int(n))
        for _ in range(frames):
            pos = base.pos + rng.normal(0.0, FRAME_JITTER, base.pos.shape)
            stream.append(Conformation(z=base.z, pos=pos, lattice=base.lattice, id=base.id))
    return stream
