import numpy as np
import pytest

import inputs


def _same(a, b) -> bool:
    return (
        len(a) == len(b)
        and all(np.array_equal(x.z, y.z) and np.array_equal(x.pos, y.pos) for x, y in zip(a, b))
        and all((x.lattice is None and y.lattice is None) or np.array_equal(x.lattice, y.lattice) for x, y in zip(a, b))
    )


def test_same_seed_gives_identical_inputs():
    assert _same(inputs.infer_stream(3, 12, 2), inputs.infer_stream(3, 12, 2))
    assert _same(inputs.molecules(3), inputs.molecules(3))


def test_different_seed_gives_different_inputs():
    assert not _same(inputs.infer_stream(3, 12, 2), inputs.infer_stream(4, 12, 2))
    assert not _same(inputs.molecules(3), inputs.molecules(4))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stream_sizes_kinds_and_frames(seed):
    structures, frames = 20, 3
    stream = inputs.infer_stream(seed, structures, frames)
    assert len(stream) == structures * frames
    bases = stream[::frames]
    crystals = [c for c in bases if c.lattice is not None]
    clusters = [c for c in bases if c.lattice is None]
    assert len(crystals) == len(clusters) == structures // 2
    assert all(inputs.CRYSTAL_ATOMS[0] <= c.n_atoms <= inputs.CRYSTAL_ATOMS[1] for c in crystals)
    assert all(inputs.CLUSTER_ATOMS[0] <= c.n_atoms <= inputs.CLUSTER_ATOMS[1] for c in clusters)
    for i, first in enumerate(bases):
        for frame in stream[i * frames + 1 : (i + 1) * frames]:
            assert np.array_equal(frame.z, first.z)
            assert 0 < np.abs(frame.pos - first.pos).max() < 0.5


def test_log_uniform_sizes_cover_each_stratum():
    rng = np.random.default_rng(0)
    lo, hi, count = 8, 512, 30
    sizes = inputs.log_uniform_sizes(rng, count, lo, hi)
    assert sizes.min() >= lo and sizes.max() <= hi
    # one draw per equal slice of log size
    edges = np.exp(np.linspace(np.log(lo), np.log(hi + 1), count + 1))
    assert np.all(np.histogram(sizes + 0.5, bins=edges)[0] <= 2)
    assert sizes.max() > 0.7 * hi and sizes.min() < 1.5 * lo


@pytest.mark.parametrize("n", [8, 100, 512])
def test_crystals_are_skewed_non_degenerate_and_at_the_stated_density(n):
    conf = inputs.crystal(np.random.default_rng(n), n)
    lat = conf.lattice
    volume = np.linalg.det(lat)
    assert volume == pytest.approx(inputs.VOLUME_PER_ATOM * n)
    cosines = [
        abs(lat[i] @ lat[j]) / (np.linalg.norm(lat[i]) * np.linalg.norm(lat[j]))
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    assert max(cosines) < 0.5
    frac = conf.pos @ np.linalg.inv(lat)
    assert frac.min() > 0 and frac.max() < 1


@pytest.mark.parametrize("n", [16, 300, 1024])
def test_clusters_are_open_and_keep_atoms_apart(n):
    conf = inputs.cluster(np.random.default_rng(n), n)
    assert conf.lattice is None and conf.n_atoms == n
    d = np.linalg.norm(conf.pos[:, None] - conf.pos[None], axis=-1)
    np.fill_diagonal(d, np.inf)
    spacing = inputs.VOLUME_PER_ATOM ** (1.0 / 3.0)
    assert d.min() >= (1.0 - 2.0 * inputs.SITE_JITTER) * spacing - 1e-9
