"""Distance/angle model stack tests.

scipy supplies independent oracles for spherical Bessel functions, their
roots, and Legendre polynomials; the two-hop stack is checked against a
plain-numpy triple loop that rebuilds the whole computation from scratch.
The 2-D (distance, angle) basis of a triplet, `spherical_basis_rows` and
its point evaluation `spherical_basis_2d`, is built here from the model's
distance and angle factors as an oracle; the model never forms it in one
piece.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from geomnets import tensor as T
from geomnets.errors import ContractError, ShapeError
from geomnets.geometry import Conformation
from geomnets.models import api
from geomnets.models import invariant as inv
from geomnets.models import spherical as sph
from geomnets.models import vector as vec
from geomnets.models.common import build_batch, embed_nodes, pair_vectors, readout
from geomnets.so3 import MAX_DEGREE, IrrepsLayout, SteerableFeature, random_rotation, sph_harm_block
from geomnets.tensor import Tape, Tensor
from test_tensor import grad_check


@lru_cache(maxsize=None)
def scipy_jl_roots(l, count):
    roots, x, step = [], 0.05, 0.05
    prev = special.spherical_jn(l, x)
    while len(roots) < count:
        xn = x + step
        cur = special.spherical_jn(l, xn)
        if prev * cur < 0:
            roots.append(
                optimize.brentq(lambda t: special.spherical_jn(l, t), x, xn, xtol=1e-15)
            )
        x, prev = xn, cur
    return np.array(roots)


def scipy_sbf(l_max, n_max, d, cutoff, angle):
    out = []
    for l in range(l_max + 1):
        roots = scipy_jl_roots(l, n_max)
        zonal = math.sqrt((2 * l + 1) / (4 * math.pi)) * special.eval_legendre(l, math.cos(angle))
        for n in range(n_max):
            z = roots[n]
            norm = math.sqrt(2.0 / (cutoff**3 * special.spherical_jn(l + 1, z) ** 2))
            out.append(norm * special.spherical_jn(l, z * d / cutoff) * zonal)
    return np.array(out)


def molecule(seed, n=5, span=2.5):
    rng = np.random.default_rng(seed)
    while True:
        pos = rng.uniform(0.0, span, (n, 3))
        diff = pos[:, None] - pos[None, :]
        d = np.sqrt((diff**2).sum(-1)) + np.eye(n)
        if d.min() > 0.6:
            return Conformation(z=rng.integers(1, 10, n), pos=pos)


# ---------------------------------------------------------------------------
# radial bases and envelope


def test_radial_spec_validation():
    with pytest.raises(ContractError):
        inv.RadialBasisSpec(kind="fourier")
    with pytest.raises(ContractError):
        inv.RadialBasisSpec(kind="gaussian", count=1)
    with pytest.raises(ContractError):
        inv.RadialBasisSpec(cutoff=0.0)


def test_gaussian_center_peak_is_one():
    spec = inv.RadialBasisSpec(kind="gaussian", count=6, cutoff=5.0)
    centers = np.linspace(0.0, 5.0, 6)
    out = inv.radial_basis(spec, Tensor(centers[1:])).data
    for k in range(1, 6):
        assert out[k - 1, k] == pytest.approx(1.0, abs=0.0)


def test_edge_geometry_envelopes_the_bare_basis():
    spec = inv.RadialBasisSpec(kind="gaussian", count=6, cutoff=5.0)
    d = np.array([1.3, 2.0, 4.9])
    rel = np.array([[1.3, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 4.9]])
    geom = inv.edge_geometry(spec, Tensor(rel))
    factor = 0.5 * (np.cos(np.pi * d / 5.0) + 1.0)
    np.testing.assert_allclose(geom.dist.data[:, 0], d, rtol=1e-15)
    np.testing.assert_allclose(geom.unit.data, rel / d[:, None], rtol=1e-15)
    np.testing.assert_allclose(geom.env.data[:, 0], factor, rtol=1e-15)
    bare = inv.radial_basis(spec, Tensor(d)).data
    np.testing.assert_allclose(geom.rbf.data, bare * factor[:, None], rtol=1e-15)


def test_bessel_basis_pinned_value():
    spec = inv.RadialBasisSpec(kind="bessel", count=3, cutoff=5.0)
    out = inv.radial_basis(spec, Tensor(np.array([2.5]))).data
    assert out[0, 0] == pytest.approx(0.25298221281347033, abs=1e-15)


def test_radial_rejects_out_of_range():
    spec = inv.RadialBasisSpec(cutoff=5.0)
    for bad in (0.0, -1.0, 5.0 + 1e-9):
        with pytest.raises(ContractError):
            inv.radial_basis(spec, Tensor(np.array([bad])))


def test_radial_basis_gradients():
    d = np.array([0.8, 2.1, 3.3])
    for kind in ("gaussian", "bessel"):
        spec = inv.RadialBasisSpec(kind=kind, count=5, cutoff=5.0)
        err = grad_check(lambda x: T.sum_(inv.radial_basis(spec, x)), d)
        assert err < 1e-6
        rel = np.array([[0.8, 0.0, 0.0], [1.2, -0.9, 1.5], [-2.0, 2.5, 0.9]])
        err = grad_check(lambda x: T.sum_(inv.edge_geometry(spec, x).rbf), rel)
        assert err < 1e-6


def test_envelope_boundary_values():
    c = 3.0
    ends = inv.cosine_envelope(Tensor(np.array([1e-300, c])), c).data
    assert ends[0] == pytest.approx(1.0, abs=1e-15)
    assert ends[1] == 0.0
    # slope also vanishes at the cutoff
    eps = 1e-6
    lo, hi = inv.cosine_envelope(Tensor(np.array([c - 2 * eps, c - eps])), c).data
    assert abs(hi - lo) / eps < 1e-5


@given(st.lists(st.floats(0.01, 4.99), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_gaussian_components_bounded(ds):
    spec = inv.RadialBasisSpec(kind="gaussian", count=7, cutoff=5.0)
    out = inv.radial_basis(spec, Tensor(np.array(ds))).data
    assert (out > 0.0).all() and (out <= 1.0).all()


# ---------------------------------------------------------------------------
# spherical Bessel functions and roots


def test_spherical_jl_matches_scipy_both_branches():
    # relative: j_l is ~x^l/(2l+1)!! near 0, where an absolute tolerance
    # would hide the closed form's cancellation at higher orders
    xs = np.concatenate([np.linspace(1e-4, 0.499, 41), np.linspace(0.5, 30.0, 83)])
    for l in range(5):
        mine = inv.spherical_jl(l, Tensor(xs)).data
        np.testing.assert_allclose(mine, special.spherical_jn(l, xs), rtol=1e-13, atol=0)


def test_spherical_jl_mixed_branch_equals_pure():
    xs = np.array([0.01, 0.3, 0.7, 5.0])
    mixed = inv.spherical_jl(2, Tensor(xs)).data
    for i, x in enumerate(xs):
        alone = inv.spherical_jl(2, Tensor(np.array([x]))).data[0]
        assert mixed[i] == alone


def test_spherical_jl_gradient():
    xs = np.array([0.05, 0.4, 0.9, 3.0, 11.0])
    for l in range(5):
        err = grad_check(lambda x: T.sum_(inv.spherical_jl(l, x)), xs)
        assert err < 1e-5


def test_bessel_roots_l0_are_multiples_of_pi():
    roots = inv.bessel_roots(0, 4)
    np.testing.assert_allclose(roots, np.arange(1, 5) * np.pi, atol=1e-12, rtol=0)


def test_bessel_roots_match_scipy():
    for l in range(5):
        np.testing.assert_allclose(inv.bessel_roots(l, 3), scipy_jl_roots(l, 3), atol=1e-12, rtol=0)
    assert inv.bessel_roots(1, 1)[0] == pytest.approx(4.493409457909064, abs=1e-12)


def test_bessel_roots_are_roots_and_cached():
    roots = inv.bessel_roots(3, 3)
    for z in roots:
        assert abs(special.spherical_jn(3, z)) < 1e-13
    assert inv.bessel_roots(3, 3) is roots
    with pytest.raises(ContractError):
        inv.bessel_roots(0, 0)


# the first four roots of j_l, l = 0..3, as float64 bytes: those of a scan
# and bisection that evaluated j_l one point at a time
BESSEL_ROOT_BYTES = {
    0: "182d4454fb210940182d4454fb211940d221337f7cd92240182d4454fb212940",
    1: "ac06355440f91140a60be46aa8e61e406ab4bd08e9ce2540649c252be4212c40",
    2: "56f8693fc80d1740704a3a53a5302240723ed68458a528400a5dbc0b7a072f40",
    3: "4e494372a4f31b404a19ef8f90d52440d61c6e4a63652b4008e2cd7172ec3040",
}


@pytest.mark.parametrize("l", sorted(BESSEL_ROOT_BYTES))
def test_bessel_roots_are_pinned_bitwise(l):
    inv.bessel_roots.cache_clear()
    for n in range(1, 5):
        assert inv.bessel_roots(l, n).tobytes() == bytes.fromhex(BESSEL_ROOT_BYTES[l])[: 8 * n]


def test_zonal_matches_full_harmonic_m0_column():
    # the m=0 component of the degree-l block depends only on the polar
    # angle: sqrt((2l + 1) / 4 pi) P_l(cos), which stands in for the block
    # above so3's degree cap
    thetas = np.linspace(0.0, np.pi, 9)
    u = np.stack([np.sin(thetas), np.zeros_like(thetas), np.cos(thetas)], axis=1)
    for l in range(4):
        if l <= MAX_DEGREE:
            full = sph_harm_block(l, Tensor(u)).data[:, l]
        else:
            full = math.sqrt((2 * l + 1) / (4 * math.pi)) * special.eval_legendre(l, np.cos(thetas))
        mine = inv.zonal_harmonic(l, Tensor(np.cos(thetas))).data
        np.testing.assert_allclose(mine, full, atol=1e-13, rtol=0)


def test_2d_basis_stops_at_dimenets_degree_cap():
    # sbf_l_max runs 0..3, so the basis reads Legendre degrees up to 3 and
    # Bessel orders up to 4 (the norms of degree 3), and no further
    x = Tensor(np.array([0.3, 2.0]))
    for call in (
        lambda: inv.spherical_jl(5, x),
        lambda: inv.zonal_harmonic(4, x * 0.1),
        lambda: inv.spherical_basis_radial(4, 2, 5.0, x),
        lambda: inv.DimeNetSpec(sbf_l_max=4),
    ):
        with pytest.raises(ContractError, match="not supported|degree cap"):
            call()


# ---------------------------------------------------------------------------
# 2-D distance-angle basis


def spherical_basis_rows(l_max, n_max, cutoff, d, cos_angle):
    """2-D (distance, angle) expansion, (rows, (l_max+1)*n_max), degree-major.

    Entry (l, n) is sqrt(2 / (cutoff^3 j_{l+1}(z_ln)^2)) j_l(z_ln d/cutoff)
    times the degree-l zonal harmonic of the angle: the product of
    `spherical_basis_radial` and `spherical_basis_zonal`. Differentiable in
    both inputs; the angle enters only through its cosine.
    """
    return inv.spherical_basis_radial(l_max, n_max, cutoff, d) * inv.spherical_basis_zonal(l_max, n_max, cos_angle)


def spherical_basis_2d(l_max, n_max, d, cutoff, angle):
    """Point evaluation of the 2-D basis at one (distance, angle) pair."""
    if not (0.0 <= angle <= math.pi + 1e-12):
        raise ContractError("angle must lie in [0, pi]")
    rows = spherical_basis_rows(l_max, n_max, cutoff, Tensor(np.array([d])), Tensor(np.array([math.cos(angle)])))
    return rows.data[0]


def test_sbf_pinned_single_value():
    out = spherical_basis_2d(1, 1, 0.5, 1.0, 0.0)
    assert out.shape == (2,)
    assert out[1] == pytest.approx(1.3773379132084297, abs=1e-13)


def test_sbf_pinned_vector():
    out = spherical_basis_2d(2, 2, 1.7, 4.0, 0.9)
    pinned = np.array(
        [
            0.1140939627756496,
            0.053269413307847305,
            0.1069423901150858,
            0.12063225428665596,
            0.013655084441078802,
            0.023630428501582985,
        ]
    )
    np.testing.assert_allclose(out, pinned, atol=1e-13, rtol=0)


def test_sbf_matches_scipy_grid():
    for d, ang in [(0.3, 0.0), (1.1, 1.2), (2.9, np.pi), (3.0, 2.0)]:
        mine = spherical_basis_2d(3, 4, d, 3.0, ang)
        np.testing.assert_allclose(mine, scipy_sbf(3, 4, d, 3.0, ang), atol=1e-11, rtol=0)


def test_sbf_degree_zero_rows_angle_independent():
    a = spherical_basis_2d(2, 3, 1.2, 4.0, 0.1)
    b = spherical_basis_2d(2, 3, 1.2, 4.0, 2.9)
    np.testing.assert_array_equal(a[:3], b[:3])
    assert np.abs(a[3:] - b[3:]).max() > 1e-3


def test_sbf_vanishes_at_small_distance_for_positive_degree():
    out = spherical_basis_2d(3, 2, 1e-10, 4.0, 0.7)
    assert np.abs(out[2:]).max() < 1e-8
    assert abs(out[0]) > 1e-2


def test_sbf_contract_violations():
    with pytest.raises(ContractError):
        spherical_basis_2d(2, 2, 0.0, 4.0, 0.5)
    with pytest.raises(ContractError):
        spherical_basis_2d(2, 2, 4.1, 4.0, 0.5)
    with pytest.raises(ContractError):
        spherical_basis_2d(2, 2, 1.0, 4.0, -0.2)
    with pytest.raises(ContractError):
        spherical_basis_2d(2, 2, 1.0, 4.0, 3.5)
    with pytest.raises(ContractError):
        spherical_basis_2d(5, 2, 1.0, 4.0, 0.5)


def test_sbf_rows_differentiable():
    d = np.array([0.9, 2.2])
    ca = np.array([0.3, -0.8])
    err_d = grad_check(
        lambda x: T.sum_(spherical_basis_rows(2, 2, 4.0, x, Tensor(ca))), d
    )
    err_a = grad_check(
        lambda x: T.sum_(spherical_basis_rows(2, 2, 4.0, Tensor(d), x)), ca
    )
    assert err_d < 1e-6 and err_a < 1e-6


# ---------------------------------------------------------------------------
# readout


def test_readout_sum_and_mean_examples():
    h = Tensor(np.array([[1.0], [2.0], [3.0]]))
    head = Tensor(np.array([[1.0]]))
    ids = np.zeros(3, dtype=np.int64)
    assert readout(head, h, ids, 1).data[0] == pytest.approx(6.0)


def test_readout_batch_equals_concatenated_singles():
    rng = np.random.default_rng(0)
    h = Tensor(rng.normal(size=(7, 4)))
    head = Tensor(rng.normal(size=(4, 1)))
    ids = np.array([0, 0, 0, 1, 1, 1, 1])
    both = readout(head, h, ids, 2).data
    first = readout(head, Tensor(h.data[:3]), np.zeros(3, dtype=int), 1).data
    second = readout(head, Tensor(h.data[3:]), np.zeros(4, dtype=int), 1).data
    np.testing.assert_allclose(both, np.concatenate([first, second]), atol=1e-12)


def _attend_on_another_layout():
    hidden = IrrepsLayout(((3, 0), (2, 1)))
    spec = sph.TfnLayerSpec(hidden, hidden, inv.RadialBasisSpec(), 4)
    feat = SteerableFeature(IrrepsLayout(((3, 0),)), [Tensor(np.ones((2, 1, 3)))])
    sph.se3_attention(spec, {}, "layer0", feat, np.zeros(0, int), np.zeros(0, int), None)


def _tfn_layer_without_radial_width():
    layout = IrrepsLayout(((3, 0),))
    sph.TfnLayerSpec(layout, layout, inv.RadialBasisSpec(), 0)


def _positions_of_another_shape():
    batch = build_batch([Conformation(z=[1, 1], pos=[[0.0, 0, 0], [1.0, 0, 0]])], 2.0)
    pair_vectors(Tensor(np.zeros((3, 3))), batch)


MODEL_REFUSALS = {
    "empty-batch": (lambda: build_batch([], 5.0), ContractError, "at least one conformation"),
    "positions-shape": (_positions_of_another_shape, ShapeError, "do not match batch of 2 nodes"),
    "type-119": (lambda: embed_nodes(Tensor(np.ones((119, 2))), np.array([119])), ContractError, "embedding table"),
    "bessel-count-0": (lambda: inv.RadialBasisSpec(kind="bessel", count=0), ContractError, "at least one function"),
    "schnet-hidden-0": (lambda: inv.SchNetSpec(hidden=0), ContractError, "must be positive"),
    "egnn-cutoff-0": (lambda: vec.EgnnSpec(cutoff=0.0), ContractError, "cutoff must be positive"),
    "tfn-radial-hidden-0": (_tfn_layer_without_radial_width, ContractError, "radial hidden width"),
    "attention-layout": (_attend_on_another_layout, ShapeError, "does not match the attention input"),
    "irreps-multiplicity-0": (lambda: IrrepsLayout(((0, 1),)), ContractError, "multiplicity must be positive"),
}


@pytest.mark.parametrize("case", MODEL_REFUSALS)
def test_model_input_refusals_name_what_is_wrong(case):
    call, error, fragment = MODEL_REFUSALS[case]
    with pytest.raises(error, match=fragment):
        call()


# ---------------------------------------------------------------------------
# single-hop stack


def schnet_setup(seed=0, hidden=16, layers=2, cutoff=4.0):
    spec = inv.SchNetSpec(
        hidden=hidden, layers=layers, basis=inv.RadialBasisSpec(count=8, cutoff=cutoff)
    )
    params = inv.init_schnet(spec, seed)
    return spec, params


def as_tensors(params):
    return {k: Tensor(v) for k, v in params.items()}


def schnet_energy(spec, params, batch, pos):
    return api.ModelHandle("schnet", spec, spec.basis.cutoff).energy(params, batch, pos)


def dimenet_energy(spec, params, batch, pos):
    return api.ModelHandle("dimenet", spec, spec.basis.cutoff).energy(params, batch, pos)


def test_schnet_param_shapes():
    spec, params = schnet_setup(hidden=16, layers=2)
    assert params["embed"].shape == (119, 16)
    assert params["layer0.filter.w0"].shape == (8, 16)
    assert params["layer1.wout"].shape == (16, 16)
    assert params["head.w"].shape == (16, 1)


def test_schnet_zero_filter_is_identity():
    spec, params = schnet_setup()
    for k in list(params):
        if ".filter." in k:
            params[k] = np.zeros_like(params[k])
    conf = molecule(1)
    batch = build_batch([conf], cutoff=4.0, need_angles=False)
    h = inv.schnet_forward(spec, as_tensors(params), batch, Tensor(batch.pos))[0]
    np.testing.assert_array_equal(h.data, params["embed"][conf.z])


def test_schnet_isolated_node_row_unchanged():
    spec, params = schnet_setup()
    pos = np.array([[0.0, 0, 0], [1.1, 0, 0], [50.0, 0, 0]])
    conf = Conformation(z=np.array([1, 6, 8]), pos=pos)
    batch = build_batch([conf], cutoff=4.0, need_angles=False)
    h = inv.schnet_forward(spec, as_tensors(params), batch, Tensor(batch.pos))[0]
    np.testing.assert_array_equal(h.data[2], params["embed"][8])
    assert np.abs(h.data[0] - params["embed"][1]).max() > 1e-6


def test_schnet_permutation_equivariance():
    spec, params = schnet_setup(seed=3)
    conf = molecule(11, n=6)
    order = np.random.default_rng(2).permutation(6)
    shuffled = Conformation(z=conf.z[order], pos=conf.pos[order])
    b1 = build_batch([conf], cutoff=4.0, need_angles=False)
    b2 = build_batch([shuffled], cutoff=4.0, need_angles=False)
    pt = as_tensors(params)
    h1 = inv.schnet_forward(spec, pt, b1, Tensor(b1.pos))[0]
    h2 = inv.schnet_forward(spec, pt, b2, Tensor(b2.pos))[0]
    np.testing.assert_allclose(h2.data, h1.data[order], atol=1e-12)
    e1 = schnet_energy(spec, pt, b1, Tensor(b1.pos)).data
    e2 = schnet_energy(spec, pt, b2, Tensor(b2.pos)).data
    np.testing.assert_allclose(e1, e2, atol=1e-12)


def rigid_motions(seed):
    rot = random_rotation(seed)
    refl = rot @ np.diag([1.0, -1.0, 1.0])
    shift = np.array([1.25, -3.0, 0.5])
    return [(rot, shift), (refl, shift), (np.eye(3), shift)]


def test_schnet_energy_rigid_motion_invariant():
    spec, params = schnet_setup(seed=5)
    pt = as_tensors(params)
    conf = molecule(21, n=6)
    batch = build_batch([conf], cutoff=4.0, need_angles=False)
    base = schnet_energy(spec, pt, batch, Tensor(batch.pos)).data
    for rot, shift in rigid_motions(40):
        moved = batch.pos @ rot.T + shift
        got = schnet_energy(spec, pt, batch, Tensor(moved)).data
        np.testing.assert_allclose(got, base, atol=1e-10, rtol=0)


def test_schnet_energy_extensive_over_disconnected_copies():
    spec, params = schnet_setup(seed=9)
    pt = as_tensors(params)
    conf = molecule(31, n=4)
    far = Conformation(
        z=np.concatenate([conf.z, conf.z]),
        pos=np.concatenate([conf.pos, conf.pos + 100.0]),
    )
    b1 = build_batch([conf], cutoff=4.0, need_angles=False)
    b2 = build_batch([far], cutoff=4.0, need_angles=False)
    single = schnet_energy(spec, pt, b1, Tensor(b1.pos)).data[0]
    double = schnet_energy(spec, pt, b2, Tensor(b2.pos)).data[0]
    assert double == pytest.approx(2 * single, rel=1e-12)


def test_schnet_energy_unchanged_when_an_atom_moves_by_a_lattice_vector():
    # the same crystal, written with one atom three cells away
    spec, params = schnet_setup(seed=3, cutoff=5.0)
    pt = as_tensors(params)
    lat = np.eye(3) * 6.0
    pos = np.random.default_rng(2).uniform(0.0, 6.0, (6, 3))
    moved = pos.copy()
    moved[0] += 3 * lat[0]
    energies = []
    for p in (pos, moved):
        batch = build_batch([Conformation([6, 8, 1, 1, 7, 6], p, lattice=lat)], cutoff=5.0)
        energies.append(schnet_energy(spec, pt, batch, Tensor(batch.pos)).data[0])
    assert energies[1] == pytest.approx(energies[0], abs=1e-12, rel=0)


def test_schnet_forces_match_finite_differences():
    spec, params = schnet_setup(seed=13)
    pt = as_tensors(params)
    conf = molecule(41, n=5)
    batch = build_batch([conf], cutoff=4.0, need_angles=False)
    tape = Tape()
    pos = tape.tensor(batch.pos)
    (grad,) = tape.gradient(T.sum_(schnet_energy(spec, pt, batch, pos)), [pos])
    eps = 1e-5
    for atom, axis in [(0, 0), (2, 1), (4, 2)]:
        hi = batch.pos.copy()
        hi[atom, axis] += eps
        lo = batch.pos.copy()
        lo[atom, axis] -= eps
        fd = (
            schnet_energy(spec, pt, batch, Tensor(hi)).data.sum()
            - schnet_energy(spec, pt, batch, Tensor(lo)).data.sum()
        ) / (2 * eps)
        assert abs(fd - grad.data[atom, axis]) / max(abs(fd), 1e-10) < 1e-5
    assert np.abs(grad.data.sum(axis=0)).max() < 1e-12


def test_schnet_energy_smooth_across_cutoff():
    spec, params = schnet_setup(seed=17, cutoff=3.0)
    pt = as_tensors(params)
    eps = 5e-7
    vals = []
    for d in (3.0 - eps, 3.0 + eps):
        conf = Conformation(z=np.array([1, 6]), pos=np.array([[0.0, 0, 0], [d, 0, 0]]))
        batch = build_batch([conf], cutoff=3.0, need_angles=False)
        vals.append(schnet_energy(spec, pt, batch, Tensor(batch.pos)).data[0])
    assert abs(vals[0] - vals[1]) < 1e-8


# ---------------------------------------------------------------------------
# two-hop stack with triple-loop oracle


def dimenet_setup(seed=0, hidden=10, blocks=2, cutoff=4.0):
    spec = inv.DimeNetSpec(
        hidden=hidden,
        layers=blocks,
        basis=inv.RadialBasisSpec(kind="bessel", count=6, cutoff=cutoff),
        sbf_l_max=2,
        sbf_n_max=3,
    )
    return spec, inv.init_dimenet(spec, seed)


def np_silu(x):
    return x / (1.0 + np.exp(-x))


def np_mlp(params, prefix, x, layers=2):
    for i in range(layers):
        x = x @ params[f"{prefix}.w{i}"] + params[f"{prefix}.b{i}"]
        if i < layers - 1:
            x = np_silu(x)
    return x


def np_env(d, c):
    return 0.5 * (np.cos(np.pi * d / c) + 1.0)


def np_bessel_rbf(d, c, count):
    n = np.arange(1, count + 1)
    return np.sqrt(2.0 / c) * np.sin(n * np.pi * d / c) / d * np_env(d, c)


def dimenet_oracle_energy(spec, params, z, pos):
    """Naive reference: explicit loops over edges and two-hop triplets."""
    c = spec.basis.cutoff
    n = len(z)
    edges = []
    for i in range(n):
        for j in range(n):
            d = np.linalg.norm(pos[j] - pos[i])
            if i != j and d <= c:
                edges.append((i, j, d))
    emb = params["embed"]
    m = [
        np_mlp(params, "m0", np.concatenate([emb[z[j]], emb[z[i]], np_bessel_rbf(d, c, spec.basis.count)]))
        for i, j, d in edges
    ]
    for b in range(spec.layers):
        new = []
        for ei, (i, j, d_ji) in enumerate(edges):
            acc = np.zeros(spec.hidden)
            for fi, (j2, k, d_kj) in enumerate(edges):
                if j2 != j or k == i:
                    continue
                vec_jk = pos[k] - pos[j]
                vec_ji = pos[i] - pos[j]
                cang = np.clip(
                    vec_jk @ vec_ji / (np.linalg.norm(vec_jk) * np.linalg.norm(vec_ji)), -1, 1
                )
                sbf = scipy_sbf(spec.sbf_l_max, spec.sbf_n_max, d_kj, c, np.arccos(cang))
                inp = np.concatenate([m[ei], np_bessel_rbf(d_ji, c, spec.basis.count), sbf])
                acc += np_mlp(params, f"block{b}", inp) * np_env(d_kj, c)
            new.append(acc)
        m = new
    node = np.zeros((n, spec.hidden))
    for ei, (i, j, d) in enumerate(edges):
        node[i] += np_mlp(params, "edge_out", m[ei]) * np_env(d, c)
    return (node @ params["head.w"]).sum()


def test_dimenet_param_shapes():
    spec, params = dimenet_setup(hidden=10)
    assert params["embed"].shape == (119, 10)
    assert params["m0.w0"].shape == (26, 10)
    assert params["block0.w0"].shape == (10 + 6 + 9, 10)
    assert params["head.w"].shape == (10, 1)


def test_dimenet_energy_matches_triple_loop_oracle():
    spec, params = dimenet_setup(seed=23)
    pt = as_tensors(params)
    for seed in range(6):
        conf = molecule(100 + seed, n=int(np.random.default_rng(seed).integers(3, 8)))
        batch = build_batch([conf], cutoff=4.0, need_angles=True)
        mine = dimenet_energy(spec, pt, batch, Tensor(batch.pos)).data[0]
        ref = dimenet_oracle_energy(spec, params, conf.z, conf.pos)
        assert abs(mine - ref) < 1e-10


def test_dimenet_layer_zero_weights_zero_messages():
    spec, params = dimenet_setup(seed=2)
    for k in list(params):
        if k.startswith("block0."):
            params[k] = np.zeros_like(params[k])
    conf = molecule(7, n=4)
    batch = build_batch([conf], cutoff=4.0, need_angles=True)
    spec1 = inv.DimeNetSpec(
        hidden=spec.hidden, layers=1, basis=spec.basis, sbf_l_max=2, sbf_n_max=3
    )
    m, _ = inv.dimenet_messages(spec1, as_tensors(params), batch, Tensor(batch.pos))
    np.testing.assert_array_equal(m.data, np.zeros_like(m.data))


def test_dimenet_chain_single_two_hop_path():
    # k - j - i chain: the edge j->i receives exactly one triplet term
    spec, params = dimenet_setup(seed=4, blocks=1, cutoff=2.0)
    pos = np.array([[0.0, 0, 0], [1.5, 0, 0], [3.0, 0.4, 0]])
    conf = Conformation(z=np.array([1, 6, 8]), pos=pos)
    batch = build_batch([conf], cutoff=2.0, need_angles=True)
    counts = np.bincount(batch.angles.out_edge, minlength=batch.n_edges)
    assert counts.max() == 1 and counts.sum() == 2
    pt = as_tensors(params)
    mine = dimenet_energy(spec, pt, batch, Tensor(batch.pos)).data[0]
    ref = dimenet_oracle_energy(spec, params, conf.z, conf.pos)
    assert abs(mine - ref) < 1e-12


def per_triplet_messages(spec, params, batch, pos):
    """`dimenet_messages` as it was first written: the incoming edges'
    distance factors and envelopes, and both block-network layers, evaluated
    once per triplet on concatenated (message, distance, 2-D basis) rows."""
    angles, cutoff = batch.angles, spec.basis.cutoff
    rel = T.gather(pos, batch.dst) + Tensor(batch.shift_offset) - T.gather(pos, batch.src)
    dist, rbf = T.norm(rel, axis=1), inv.edge_geometry(spec.basis, rel).rbf
    h = embed_nodes(params["embed"], batch.z)
    m = T.mlp_apply(params, T.concat([T.gather(h, batch.dst), T.gather(h, batch.src), rbf], axis=1), "m0")
    to_k = T.gather(rel, angles.in_edge)
    to_i = T.gather(rel, angles.out_edge) * -1.0
    d_in = T.gather(dist, angles.in_edge)
    cos_angle = T.sum_(to_k * to_i, axis=1) / (d_in * T.gather(dist, angles.out_edge))
    sbf_rows = spherical_basis_rows(spec.sbf_l_max, spec.sbf_n_max, cutoff, d_in, cos_angle)
    env_in = T.reshape(inv.cosine_envelope(d_in, cutoff), (-1, 1))
    for i in range(spec.layers):
        inp = T.concat([T.gather(m, angles.out_edge), T.gather(rbf, angles.out_edge), sbf_rows], axis=1)
        term = T.mlp_apply(params, inp, f"block{i}") * env_in
        m = T.scatter_sum(term, angles.out_edge, batch.n_edges)
    return m


def test_dimenet_messages_match_per_triplet_formula():
    # a skewed cell whose cluster bonds across the faces, and a dimer far
    # from it whose two edges have no triplet; plus an open molecule
    lattice = np.array([[7.0, 0.0, 0.0], [0.8, 7.5, 0.0], [0.3, -0.4, 8.0]])
    frac = np.array(
        [[0.05, 0.06, 0.04], [0.93, 0.08, 0.05], [0.06, 0.22, 0.07], [0.95, 0.90, 0.96], [0.5, 0.5, 0.45], [0.5, 0.5, 0.6]]
    )
    crystal = Conformation(z=np.array([6, 8, 1, 7, 1, 1]), pos=frac @ lattice, lattice=lattice)
    batch = build_batch([crystal, molecule(5, n=4)], cutoff=3.0, need_angles=True)
    per_edge = np.bincount(batch.angles.out_edge, minlength=batch.n_edges)
    assert (per_edge == 0).any() and (per_edge > 1).any()
    assert np.abs(batch.shift_offset).max() > 0
    spec, params = dimenet_setup(seed=53, blocks=2, cutoff=3.0)
    rng = np.random.default_rng(54)
    params = {k: rng.normal(size=v.shape) if ".b" in k else v for k, v in params.items()}  # biases start at 0
    tape = Tape()
    pt = T.lift(params, tape)
    pos = tape.tensor(batch.pos)
    mine, _ = inv.dimenet_messages(spec, pt, batch, pos)
    ref = per_triplet_messages(spec, pt, batch, pos)
    assert np.abs(mine.data - ref.data).max() <= 1e-12 * np.abs(ref.data).max()
    # and so are their gradients, w.r.t. positions and every parameter
    weights = Tensor(rng.normal(size=ref.shape))
    wrt = [pos, *pt.values()]
    got = tape.gradient(T.sum_(mine * weights), wrt, record=False)
    want = tape.gradient(T.sum_(ref * weights), wrt, record=False)
    for g, w in zip(got, want):
        assert np.abs(g.data - w.data).max() <= 1e-12 * np.abs(w.data).max()


def test_dimenet_energy_rigid_motion_invariant():
    spec, params = dimenet_setup(seed=29)
    pt = as_tensors(params)
    conf = molecule(51, n=5)
    batch = build_batch([conf], cutoff=4.0, need_angles=True)
    base = dimenet_energy(spec, pt, batch, Tensor(batch.pos)).data
    for rot, shift in rigid_motions(41):
        moved = batch.pos @ rot.T + shift
        got = dimenet_energy(spec, pt, batch, Tensor(moved)).data
        np.testing.assert_allclose(got, base, atol=1e-10, rtol=0)


def test_dimenet_two_atoms_no_triplets():
    spec, params = dimenet_setup(seed=6)
    conf = Conformation(z=np.array([1, 8]), pos=np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    batch = build_batch([conf], cutoff=4.0, need_angles=True)
    assert batch.angles.n_triplets == 0
    e = dimenet_energy(spec, as_tensors(params), batch, Tensor(batch.pos)).data
    assert np.isfinite(e).all()


def test_dimenet_requires_angles():
    spec, params = dimenet_setup()
    conf = molecule(61, n=4)
    batch = build_batch([conf], cutoff=4.0, need_angles=False)
    with pytest.raises(ContractError):
        dimenet_energy(spec, as_tensors(params), batch, Tensor(batch.pos))


def test_dimenet_forces_match_finite_differences():
    spec, params = dimenet_setup(seed=37)
    pt = as_tensors(params)
    conf = molecule(71, n=5)
    batch = build_batch([conf], cutoff=4.0, need_angles=True)
    tape = Tape()
    pos = tape.tensor(batch.pos)
    (grad,) = tape.gradient(T.sum_(dimenet_energy(spec, pt, batch, pos)), [pos])
    eps = 1e-5
    for atom, axis in [(1, 0), (3, 2)]:
        hi = batch.pos.copy()
        hi[atom, axis] += eps
        lo = batch.pos.copy()
        lo[atom, axis] -= eps
        fd = (
            dimenet_energy(spec, pt, batch, Tensor(hi)).data.sum()
            - dimenet_energy(spec, pt, batch, Tensor(lo)).data.sum()
        ) / (2 * eps)
        assert abs(fd - grad.data[atom, axis]) / max(abs(fd), 1e-10) < 1e-5
    assert np.abs(grad.data.sum(axis=0)).max() < 1e-12


def test_dimenet_energy_smooth_across_cutoff():
    spec, params = dimenet_setup(seed=43, cutoff=2.0)
    pt = as_tensors(params)
    eps = 5e-7
    vals = []
    for d in (2.0 - eps, 2.0 + eps):
        pos = np.array([[0.0, 0, 0], [1.2, 0, 0], [1.2, d, 0]])
        conf = Conformation(z=np.array([1, 6, 8]), pos=pos)
        batch = build_batch([conf], cutoff=2.0, need_angles=True)
        vals.append(dimenet_energy(spec, pt, batch, Tensor(batch.pos)).data[0])
    assert abs(vals[0] - vals[1]) < 1e-8


def test_dimenet_spec_validation():
    with pytest.raises(ContractError):
        inv.DimeNetSpec(sbf_l_max=4)
    with pytest.raises(ContractError):
        inv.DimeNetSpec(hidden=0)
    with pytest.raises(ContractError):
        inv.DimeNetSpec(sbf_n_max=0)
