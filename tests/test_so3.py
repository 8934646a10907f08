import math

import numpy as np
import pytest

from geomnets import so3
from geomnets import tensor as T
from geomnets.errors import ContractError, ShapeError
from test_tensor import grad_check


def real_spherical_harmonics(l_max, u):
    """Harmonic vectors Y^0 .. Y^l_max at one unit direction."""
    vecs = T.Tensor(np.asarray(u, dtype=np.float64).reshape(1, 3))
    return [so3.sph_harm_block(l, vecs).data[0] for l in range(l_max + 1)]


def rotate_steerable(feat, rot):
    """Oracle: the block-diagonal rotation action on every degree block."""
    rot = so3.check_rotation(rot)
    blocks = [
        b if l == 0 else T.matmul(T.Tensor(so3.wigner_d(l, rot)), b)
        for b, (_, l) in zip(feat.blocks, feat.layout.blocks)
    ]
    return so3.SteerableFeature(feat.layout, blocks)


def random_feature(layout, n, rng):
    blocks = [T.Tensor(rng.normal(size=(n, 2 * l + 1, mult))) for mult, l in layout.blocks]
    return so3.SteerableFeature(layout, blocks)


def scipy_real_harmonics(l, u):
    """Independent oracle: real harmonics from scipy's complex ones."""
    from scipy.special import sph_harm_y

    x, y, z = u
    polar = np.arccos(np.clip(z, -1, 1))
    azim = np.arctan2(y, x)
    out = np.zeros(2 * l + 1)
    for m in range(-l, l + 1):
        val = sph_harm_y(l, abs(m), polar, azim)
        if m == 0:
            out[l] = val.real
        elif m > 0:
            out[l + m] = math.sqrt(2) * (-1) ** m * val.real
        else:
            out[l + m] = math.sqrt(2) * (-1) ** (-m) * val.imag
    return out


class TestSphericalHarmonics:
    def test_degree_zero_is_constant(self):
        for u in ([0, 0, 1], [1, 0, 0], [0.6, 0.8, 0.0]):
            (y0,) = real_spherical_harmonics(0, u)[:1]
            assert y0[0] == pytest.approx(0.28209479177387814, abs=1e-15)

    def test_degree_one_is_scaled_yzx(self):
        vals = real_spherical_harmonics(1, [0.0, 0.0, 1.0])[1]
        assert np.allclose(vals, [0.0, 0.4886025119029199, 0.0], atol=1e-15)
        u = np.array([0.36, -0.48, 0.8])
        vals = real_spherical_harmonics(1, u)[1]
        assert np.allclose(vals, 0.4886025119029199 * u[[1, 2, 0]], atol=1e-15)

    def test_degree_two_pinned_direction(self):
        vals = real_spherical_harmonics(2, [1.0, 0.0, 0.0])[2]
        expect = [0.0, 0.0, -0.31539156525252005, 0.0, 0.5462742152960396]
        assert np.allclose(vals, expect, atol=1e-15)

    @pytest.mark.parametrize("l", range(so3.MAX_DEGREE + 1))
    def test_matches_complex_harmonics_oracle(self, l):
        rng = np.random.default_rng(11)
        for _ in range(25):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            mine = real_spherical_harmonics(l, u)[l]
            assert np.abs(mine - scipy_real_harmonics(l, u)).max() < 1e-12

    @pytest.mark.parametrize("l", range(so3.MAX_DEGREE + 1))
    def test_vector_norm_is_orthonormal_convention(self, l):
        u = np.array([2.0, -1.0, 0.5])
        u /= np.linalg.norm(u)
        vals = real_spherical_harmonics(l, u)[l]
        assert np.linalg.norm(vals) == pytest.approx(math.sqrt((2 * l + 1) / (4 * math.pi)), abs=1e-12)

    def test_degree_above_cap_rejected(self):
        with pytest.raises(ContractError):
            real_spherical_harmonics(5, [0.0, 0.0, 1.0])

    def test_degree_three_is_refused_everywhere(self):
        # nothing reads a degree above 2, so its harmonics, rotation blocks,
        # couplings and feature blocks are refused rather than kept untested
        assert so3.MAX_DEGREE == 2
        for call in (
            lambda: so3.sph_harm_block(3, T.Tensor(np.array([[0.0, 0.0, 1.0]]))),
            lambda: so3.wigner_d(3, np.eye(3)),
            lambda: so3.clebsch_gordan(1, 2, 3),
            lambda: so3.IrrepsLayout(((1, 3),)),
        ):
            with pytest.raises(ContractError, match="degree 3 outside supported range 0..2"):
                call()

    def test_block_is_differentiable(self):
        f = lambda v: T.sum_(T.power(so3.sph_harm_block(2, v), 2.0))
        pts = np.random.default_rng(3).normal(size=(4, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        assert grad_check(f, pts) < 1e-6


class TestWigner:
    def test_identity_rotation(self):
        for l in range(so3.MAX_DEGREE + 1):
            assert np.abs(so3.wigner_d(l, np.eye(3)) - np.eye(2 * l + 1)).max() < 1e-12

    def test_degree_one_quarter_turn_about_z(self):
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        expect = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
        assert np.abs(so3.wigner_d(1, rot) - expect).max() < 1e-12

    @pytest.mark.parametrize("l", range(so3.MAX_DEGREE + 1))
    def test_transforms_harmonics(self, l):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rot = so3.random_rotation(rng)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            lhs = real_spherical_harmonics(l, rot @ u)[l]
            rhs = so3.wigner_d(l, rot) @ real_spherical_harmonics(l, u)[l]
            assert np.abs(lhs - rhs).max() < 1e-10

    @pytest.mark.parametrize("l", range(so3.MAX_DEGREE + 1))
    def test_orthogonal_and_homomorphic(self, l):
        rng = np.random.default_rng(8)
        for _ in range(10):
            r1, r2 = so3.random_rotation(rng), so3.random_rotation(rng)
            d1, d2 = so3.wigner_d(l, r1), so3.wigner_d(l, r2)
            assert np.abs(d1.T @ d1 - np.eye(2 * l + 1)).max() < 1e-10
            assert np.abs(so3.wigner_d(l, r1 @ r2) - d1 @ d2).max() < 1e-10

    def test_improper_matrix_rejected(self):
        with pytest.raises(ContractError):
            so3.wigner_d(1, -np.eye(3))
        with pytest.raises(ShapeError):
            so3.wigner_d(1, np.eye(2))
        with pytest.raises(ContractError):
            so3.wigner_d(1, np.eye(3) * 2.0)


class TestRandomRotation:
    def test_produces_proper_rotations(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rot = so3.random_rotation(rng)
            assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-12
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        assert np.array_equal(so3.random_rotation(42), so3.random_rotation(42))
        assert not np.array_equal(so3.random_rotation(42), so3.random_rotation(43))

    def test_axis_images_cover_sphere(self):
        # weak uniformity check: mean image of a fixed axis is near zero
        rng = np.random.default_rng(123)
        imgs = np.array([so3.random_rotation(rng) @ np.array([0.0, 0.0, 1.0]) for _ in range(4000)])
        assert np.abs(imgs.mean(axis=0)).max() < 0.05


class TestClebschGordan:
    def test_scalar_with_degree_l(self):
        for l in range(so3.MAX_DEGREE + 1):
            c = so3.clebsch_gordan(0, l, l)
            assert np.abs(c[0] - np.eye(2 * l + 1) / math.sqrt(2 * l + 1)).max() < 1e-12

    def test_two_vectors_to_scalar(self):
        c = so3.clebsch_gordan(1, 1, 0)
        assert np.abs(c[:, :, 0] - np.eye(3) / math.sqrt(3)).max() < 1e-12

    def test_two_vectors_to_vector_is_levi_civita(self):
        c = so3.clebsch_gordan(1, 1, 1)
        eps = np.zeros((3, 3, 3))
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            eps[i, j, k] = 1.0
            eps[j, i, k] = -1.0
        assert np.abs(c - eps / math.sqrt(6)).max() < 1e-12

    def test_unit_frobenius_and_sign_rule(self):
        for l1, l2, l3 in [(1, 1, 2), (2, 2, 2)]:
            c = so3.clebsch_gordan(l1, l2, l3)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
            flat = c.reshape(-1)
            lead = flat[np.abs(flat) > 1e-8]
            assert lead[0] > 0

    @pytest.mark.parametrize("triple", [(1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 2)])
    def test_intertwining_property(self, triple):
        l1, l2, l3 = triple
        c = so3.clebsch_gordan(l1, l2, l3)
        rng = np.random.default_rng(17)
        for _ in range(10):
            rot = so3.random_rotation(rng)
            u = rng.normal(size=2 * l1 + 1)
            v = rng.normal(size=2 * l2 + 1)
            lhs = np.einsum("abc,a,b->c", c, so3.wigner_d(l1, rot) @ u, so3.wigner_d(l2, rot) @ v)
            rhs = so3.wigner_d(l3, rot) @ np.einsum("abc,a,b->c", c, u, v)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_triangle_violation_rejected(self):
        with pytest.raises(ContractError):
            so3.clebsch_gordan(1, 1, 3)
        with pytest.raises(ContractError):
            so3.clebsch_gordan(0, 2, 1)

    def test_repeated_calls_identical(self):
        a = so3.clebsch_gordan(2, 1, 2)
        b = so3.clebsch_gordan(2, 1, 2)
        assert np.array_equal(a, b)


class TestSteerable:
    def test_rotation_preserves_block_norms(self):
        layout = so3.IrrepsLayout(((2, 0), (2, 1), (1, 2)))
        rng = np.random.default_rng(2)
        feat = random_feature(layout, 5, rng)
        rot = so3.random_rotation(rng)
        rotated = rotate_steerable(feat, rot)
        for i in range(len(layout.blocks)):
            a = np.linalg.norm(feat.blocks[i].data, axis=1)
            b = np.linalg.norm(rotated.blocks[i].data, axis=1)
            assert np.abs(a - b).max() < 1e-12

    def test_degree_zero_block_untouched(self):
        layout = so3.IrrepsLayout(((3, 0), (1, 1)))
        rng = np.random.default_rng(4)
        feat = random_feature(layout, 2, rng)
        rotated = rotate_steerable(feat, so3.random_rotation(rng))
        assert np.array_equal(rotated.blocks[0].data, feat.blocks[0].data)

    def test_rotation_composes(self):
        layout = so3.IrrepsLayout(((1, 1), (1, 2)))
        rng = np.random.default_rng(9)
        feat = random_feature(layout, 3, rng)
        r1, r2 = so3.random_rotation(rng), so3.random_rotation(rng)
        once = rotate_steerable(feat, r1 @ r2)
        twice = rotate_steerable(rotate_steerable(feat, r2), r1)
        for a, b in zip(once.blocks, twice.blocks):
            assert np.abs(a.data - b.data).max() < 1e-10

    def test_width_mismatch_rejected(self):
        layout = so3.IrrepsLayout(((1, 1),))
        with pytest.raises(ShapeError):
            so3.SteerableFeature(layout, [T.Tensor(np.ones((2, 1, 4)))])

    def test_blocks_of_unequal_rows_rejected(self):
        layout = so3.IrrepsLayout(((2, 0), (1, 1)))
        with pytest.raises(ShapeError):
            so3.SteerableFeature(layout, [T.Tensor(np.ones((3, 1, 2))), T.Tensor(np.ones((2, 3, 1)))])
        with pytest.raises(ShapeError):
            so3.SteerableFeature(layout, [T.Tensor(np.ones((3, 1, 2)))])
