import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomnets import geometry as G
from geomnets.errors import ContractError, ParseError, ShapeError


def brute_radius_edges(pos, cutoff):
    """Independent oracle: nested loops over ordered pairs."""
    out = set()
    for i in range(len(pos)):
        for j in range(len(pos)):
            if i == j:
                continue
            d = math.dist(pos[i], pos[j])
            if 0 < d <= cutoff:
                out.add((i, j))
    return out


def brute_periodic_pairs(conf, cutoff, reach=4):
    """Oracle with a generous fixed shift range, independent of the impl."""
    out = []
    for s in itertools.product(range(-reach, reach + 1), repeat=3):
        off = np.asarray(s, dtype=float) @ conf.lattice
        for i in range(conf.n_atoms):
            for j in range(conf.n_atoms):
                if i == j and s == (0, 0, 0):
                    continue
                rel = conf.pos[j] + off - conf.pos[i]
                d = np.linalg.norm(rel)
                if 0 < d <= cutoff:
                    out.append((i, j, s))
    return sorted(out)


class TestRadiusGraph:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pos = rng.uniform(-2, 2, size=(7, 3))
            edges = G.radius_graph(pos, 2.5)
            got = set(zip(edges.src.tolist(), edges.dst.tolist()))
            assert got == brute_radius_edges(pos, 2.5)

    def test_boundary_distance_is_kept(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
        edges = G.radius_graph(pos, 1.5)
        assert edges.n_edges == 2
        assert np.allclose(edges.dist, [1.5, 1.5])

    def test_just_beyond_boundary_is_dropped(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.5 + 1e-12, 0.0, 0.0]])
        assert G.radius_graph(pos, 1.5).n_edges == 0

    def test_rel_vec_identity_and_order(self):
        rng = np.random.default_rng(1)
        pos = rng.normal(size=(6, 3))
        edges = G.radius_graph(pos, 3.0)
        assert np.array_equal(edges.rel_vec, pos[edges.dst] - pos[edges.src])
        assert np.allclose(edges.dist, np.linalg.norm(edges.rel_vec, axis=1))
        keys = list(zip(edges.src.tolist(), edges.dst.tolist()))
        assert keys == sorted(keys)

    def test_no_self_loops(self):
        pos = np.zeros((3, 3))
        pos[1] = [0.1, 0, 0]
        pos[2] = [0.1, 0, 0]  # coincident pair: zero distance excluded
        edges = G.radius_graph(pos, 1.0)
        assert (edges.src != edges.dst).all()
        assert {(1, 2), (2, 1)}.isdisjoint(zip(edges.src.tolist(), edges.dst.tolist()))

    def test_nonpositive_cutoff_rejected(self):
        with pytest.raises(ContractError):
            G.radius_graph(np.zeros((2, 3)), 0.0)

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan])
    def test_nonfinite_cutoff_rejected(self, cutoff):
        with pytest.raises(ContractError):
            G.radius_graph(np.zeros((2, 3)), cutoff)

    def test_nonfinite_positions_rejected(self):
        pos = np.zeros((3, 3))
        pos[1, 0] = math.nan
        with pytest.raises(ContractError):
            G.radius_graph(pos, 1.0)

    def test_exact_cutoff_pair_across_a_rounded_bin_edge_is_kept(self):
        # the pair (1, 2) is exactly one cutoff apart, yet dividing by the
        # cutoff from the cloud's lower corner puts them two bins apart
        cutoff = 1.3484040812902207
        x = np.array([-3.564737385127003, 0.48047485874365853, 1.8288789400338792])
        assert x[2] - x[1] == cutoff
        assert math.floor((x[2] - x[0]) / cutoff) - math.floor((x[1] - x[0]) / cutoff) == 2
        pos = np.zeros((3, 3))
        pos[:, 0] = x
        edges = G.radius_graph(pos, cutoff)
        assert list(zip(edges.src.tolist(), edges.dst.tolist())) == [(1, 2), (2, 1)]
        assert (edges.dist == cutoff).all()

    def test_sparse_cloud_bin_keys_stay_in_int64(self):
        # a cloud ~2e9 cutoffs wide: with bins one cutoff wide, the close
        # pair (2, 3) would get the bin key 2**63 - 1 and its neighbour
        # range would wrap around the int64 limit
        side = 1.0 + G._BIN_SLACK
        rows = 2**31 + 11
        bx, by = divmod((2**63 - 2) // 3, rows)
        x, y = (bx - 0.5) * side, (by - 0.5) * side
        pos = np.array([[0.0, 0, 0], [0, (rows - 2.5) * side, 0], [x, y, 0], [x, y, 0.5]])
        edges = G.radius_graph(pos, 1.0)
        assert list(zip(edges.src.tolist(), edges.dst.tolist())) == [(2, 3), (3, 2)]

    def test_candidate_pairs_past_the_cap_rejected_before_allocating(self):
        # 4097 atoms in one bin pair up as 4097^2 candidates, one row of
        # them more than 2^24 = 4096^2; gathering them would take gigabytes
        pos = np.random.default_rng(0).uniform(0.0, 1.0, size=(4097, 3))
        tracemalloc.start()
        try:
            with pytest.raises(ContractError, match=f"{4097**2} candidate pairs"):
                G.radius_graph(pos, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 4097**2 > G._MAX_ROWS == 4096**2
        assert peak < 2e6

    def test_peak_memory_linear_at_4000_atoms(self):
        # 4000 atoms at 12 cubic angstrom per atom and cutoff 5: a dense
        # distance tensor alone would need several hundred megabytes
        rng = np.random.default_rng(0)
        pos = rng.uniform(0.0, (12.0 * 4000) ** (1 / 3), size=(4000, 3))
        tracemalloc.start()
        try:
            edges = G.radius_graph(pos, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edges.n_edges > 100_000
        assert peak < 150e6


class TestPeriodicGathered:
    def test_single_atom_cubic_cell_six_neighbors_at_exact_cutoff(self):
        # one atom, cubic cell of edge a, cutoff exactly a: the six axis
        # images sit at distance a (kept, inclusive) and the twelve face
        # diagonals at a*sqrt(2) (dropped)
        a = 2.0
        conf = G.Conformation([26], [[0.3, 0.4, 0.5]], lattice=np.eye(3) * a)
        edges = G.periodic_radius_graph(conf, a, mode="gathered")
        assert edges.n_edges == 6
        assert np.allclose(edges.dist, a)
        shifts = {tuple(s) for s in edges.shift.tolist()}
        assert shifts == {
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        }
        assert (edges.src == 0).all() and (edges.dst == 0).all()

    def test_cutoff_just_above_cell_edge_still_six(self):
        a = 2.0
        conf = G.Conformation([26], [[0.0, 0.0, 0.0]], lattice=np.eye(3) * a)
        edges = G.periodic_radius_graph(conf, 1.01 * a, mode="gathered")
        assert edges.n_edges == 6

    def test_in_cell_pair_at_exact_cutoff_kept(self):
        conf = G.Conformation(
            [6, 8], [[0.2, 0.2, 0.2], [1.2, 0.2, 0.2]], lattice=np.eye(3) * 4.0
        )
        edges = G.periodic_radius_graph(conf, 1.0, mode="gathered")
        got = set(zip(edges.src.tolist(), edges.dst.tolist(), map(tuple, edges.shift.tolist())))
        assert (0, 1, (0, 0, 0)) in got
        assert (1, 0, (0, 0, 0)) in got
        assert edges.n_edges == 2

    def test_matches_generous_range_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            lat = rng.uniform(-1, 1, size=(3, 3)) + np.eye(3) * 2.5
            if abs(np.linalg.det(lat)) < 0.5:
                continue
            frac = rng.uniform(0, 1, size=(3, 3))
            conf = G.Conformation([1, 6, 8], frac @ lat, lattice=lat)
            cutoff = rng.uniform(1.5, 3.5)
            edges = G.periodic_radius_graph(conf, cutoff, mode="gathered")
            got = sorted(zip(edges.src.tolist(), edges.dst.tolist(), map(tuple, edges.shift.tolist())))
            assert got == brute_periodic_pairs(conf, cutoff)

    def test_skewed_lattice_uses_plane_spacing(self):
        # shear makes naive a-axis spacing wrong; plane spacing catches the
        # short inter-plane direction
        lat = np.array([[2.0, 0.0, 0.0], [1.9, 0.5, 0.0], [0.0, 0.0, 2.0]])
        conf = G.Conformation([14], [[0.1, 0.1, 0.1]], lattice=lat)
        cutoff = 1.4
        edges = G.periodic_radius_graph(conf, cutoff, mode="gathered")
        got = sorted(zip(edges.src.tolist(), edges.dst.tolist(), map(tuple, edges.shift.tolist())))
        assert got == brute_periodic_pairs(conf, cutoff, reach=6)

    def test_degenerate_lattice_rejected(self):
        lat = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
        conf = G.Conformation([1], [[0.0, 0.0, 0.0]], lattice=lat)
        with pytest.raises(ContractError):
            G.periodic_radius_graph(conf, 1.0)

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan])
    def test_nonfinite_cutoff_rejected(self, cutoff):
        conf = G.Conformation([1], [[0.0, 0.0, 0.0]], lattice=np.eye(3))
        for mode in ("gathered", "expanded"):
            with pytest.raises(ContractError):
                G.periodic_radius_graph(conf, cutoff, mode=mode)

    def test_cutoff_past_the_image_cap_rejected_before_allocating(self):
        # 1e308 over a 3 A cell overflows the reach to infinity; just past
        # the cap, the images would take gigabytes. At the largest range
        # the cap admits, the (2n - 1)^3 nearest shifts of each of the 4
        # (anchor, atom) pairs alone give more candidate pairs than the cap,
        # which is refused just as early
        lat = np.eye(3) * 3.0
        pos = np.array([[0.0, 0.0, 0.0], [1.5, 1.5, 1.5]])
        conf = G.Conformation([11, 17], pos, lattice=lat)
        n = 0  # the largest range whose (2n + 1)^3 shifts of 2 atoms fit the cap
        while (2 * n + 3) ** 3 * 2 <= G._MAX_ROWS:
            n += 1
        assert 4 * (2 * n - 1) ** 3 > G._MAX_ROWS
        inv = np.linalg.inv(lat)
        with pytest.raises(ContractError, match=f"gives {4 * (2 * n - 1) ** 3} candidate pairs or more"):
            G._shift_ranges(lat, inv, pos @ inv, 3.0 * n)
        for cutoff, refusal in ((3.0 * n, "candidate pairs"), (3.0 * n * (1.0 + 1e-12), "periodic images"), (1e308, "periodic images")):
            for mode in ("gathered", "expanded"):
                tracemalloc.start()
                try:
                    with pytest.raises(ContractError, match=refusal):
                        G.periodic_radius_graph(conf, cutoff, mode=mode)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 1e6

    def test_atom_written_outside_the_cell_keeps_its_neighbors(self):
        # moving an atom by a lattice vector describes the same crystal
        rng = np.random.default_rng(2)
        lat = np.eye(3) * 6.0
        pos = rng.uniform(0.0, 6.0, size=(6, 3))
        conf = G.Conformation([6, 8, 1, 1, 7, 6], pos, lattice=lat)
        moved_pos = pos.copy()
        moved_pos[0] += 3 * lat[0]
        moved = G.Conformation(conf.z, moved_pos, lattice=lat)
        for c in (conf, moved):
            edges = G.periodic_radius_graph(c, 5.0, mode="gathered")
            got = sorted(zip(edges.src.tolist(), edges.dst.tolist(), map(tuple, edges.shift.tolist())))
            assert got == brute_periodic_pairs(c, 5.0, reach=5)
        n_edges = [G.periodic_radius_graph(c, 5.0).n_edges for c in (conf, moved)]
        assert n_edges[0] == n_edges[1]

    def test_atom_far_outside_the_cell_builds_fast(self):
        # the shift range does not grow with how far out an atom is written:
        # its offset is carried into the shifts of its edges
        rng = np.random.default_rng(3)
        lat = np.array([[3.0, 0.0, 0.0], [0.4, 3.2, 0.0], [-0.3, 0.5, 2.9]])
        home = G.Conformation([6, 8, 1, 1, 7], rng.uniform(0.0, 1.0, size=(5, 3)) @ lat, lattice=lat)
        far = np.array([1000, -1000, 1000])
        moved_pos = home.pos.copy()
        moved_pos[2] += far @ lat
        moved = G.Conformation(home.z, moved_pos, lattice=lat)
        offset = {2: far}
        expect = sorted(
            (i, j, tuple((np.asarray(s) + offset.get(i, 0) - offset.get(j, 0)).tolist()))
            for i, j, s in brute_periodic_pairs(home, 4.0, reach=3)
        )
        for mode in ("gathered", "expanded"):
            start = time.perf_counter()
            rows = periodic_rows(moved, 4.0, mode)
            assert time.perf_counter() - start < 1.0
            assert rows == expect
        # carrying the offset keeps the row order, so rows pair up one to one
        edges = G.periodic_radius_graph(moved, 4.0, mode="gathered")
        ref = G.periodic_radius_graph(home, 4.0, mode="gathered")
        np.testing.assert_allclose(edges.rel_vec, ref.rel_vec, rtol=0, atol=1e-12)

    def test_atom_beyond_the_offset_bound_rejected(self):
        # so far out that moving it into the cell would lose its neighbors to rounding
        conf = G.Conformation([1, 1], [[0.5, 0.5, 0.5], [2.0**45, 0.5, 0.5]], lattice=np.eye(3) * 2.0)
        for mode in ("gathered", "expanded"):
            with pytest.raises(ContractError):
                G.periodic_radius_graph(conf, 1.0, mode=mode)

    def test_missing_lattice_rejected(self):
        conf = G.Conformation([1], [[0.0, 0.0, 0.0]])
        with pytest.raises(ContractError):
            G.periodic_radius_graph(conf, 1.0)


class TestPeriodicExpanded:
    def test_cubic_case_has_fresh_image_indices(self):
        a = 2.0
        conf = G.Conformation([26], [[0.3, 0.4, 0.5]], lattice=np.eye(3) * a)
        graph = G.periodic_radius_graph(conf, a, mode="expanded")
        edges = graph.edges
        assert graph.n_anchor == 1
        assert edges.n_edges == 6
        assert (edges.src == 0).all()
        assert (edges.dst > 0).all()  # neighbors are image nodes
        assert np.allclose(edges.dist, a)
        assert (graph.z == 26).all()
        assert (graph.image_of == 0).all()
        assert (edges.shift == 0).all()

    def test_no_image_image_edges(self):
        rng = np.random.default_rng(5)
        lat = np.eye(3) * 2.0
        conf = G.Conformation([1, 6], rng.uniform(0, 2, size=(2, 3)), lattice=lat)
        graph = G.periodic_radius_graph(conf, 2.0, mode="expanded")
        assert (graph.edges.src < graph.n_anchor).all()

    def test_anchor_distance_direction_multisets_match_gathered(self):
        rng = np.random.default_rng(9)
        for _ in range(8):
            lat = rng.uniform(-1, 1, size=(3, 3)) + np.eye(3) * 2.2
            if abs(np.linalg.det(lat)) < 0.5:
                continue
            conf = G.Conformation(
                rng.integers(1, 30, size=3), rng.uniform(0, 1, size=(3, 3)) @ lat, lattice=lat
            )
            cutoff = rng.uniform(1.5, 3.0)
            gath = G.periodic_radius_graph(conf, cutoff, mode="gathered")
            expd = G.periodic_radius_graph(conf, cutoff, mode="expanded")

            def key(src, dist, rel):
                return (int(src), round(float(dist), 10), tuple(np.round(rel / dist, 8)))

            a = sorted(key(s, d, r) for s, d, r in zip(gath.src, gath.dist, gath.rel_vec))
            b = sorted(
                key(s, d, r)
                for s, d, r in zip(expd.edges.src, expd.edges.dist, expd.edges.rel_vec)
            )
            assert a == b

    def test_node_shift_places_each_node_from_its_atom_as_written(self):
        rng = np.random.default_rng(4)
        lat = np.array([[3.0, 0.0, 0.0], [0.4, 3.2, 0.0], [-0.3, 0.5, 2.9]])
        frac = rng.uniform(0.0, 1.0, size=(5, 3)) + rng.integers(-3, 4, size=(5, 3))
        conf = G.Conformation([6, 8, 1, 1, 7], frac @ lat, lattice=lat)
        graph = G.periodic_radius_graph(conf, 4.0, mode="expanded")
        assert graph.node_shift.dtype == np.int64
        placed = conf.pos[graph.image_of] + graph.node_shift @ lat
        np.testing.assert_allclose(graph.positions, placed, rtol=0, atol=1e-12)

    def test_unknown_mode_rejected(self):
        conf = G.Conformation([1], [[0.0, 0.0, 0.0]], lattice=np.eye(3))
        with pytest.raises(ContractError):
            G.periodic_radius_graph(conf, 1.0, mode="folded")


def brute_angle_triplets(edges):
    """Oracle: all (in, out) edge pairs sharing the middle node."""
    out = []
    for e in range(edges.n_edges):
        for f in range(edges.n_edges):
            if edges.src[f] != edges.dst[e]:
                continue
            if edges.dst[f] == edges.src[e] and np.array_equal(edges.shift[f], -edges.shift[e]):
                continue
            cosang = np.dot(edges.rel_vec[f], -edges.rel_vec[e]) / (edges.dist[f] * edges.dist[e])
            out.append((f, e, math.acos(np.clip(cosang, -1, 1))))
    return sorted(out)


class TestAngleIndex:
    def test_collinear_chain_angle_is_pi(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        edges = G.radius_graph(pos, 1.2)
        angles = G.build_angle_index(edges)
        assert angles.n_triplets == 2  # 0-1-2 and 2-1-0
        assert np.allclose(angles.angle, math.pi)

    def test_right_angle(self):
        pos = np.array([[1.0, 0, 0], [0.0, 0, 0], [0.0, 1.0, 0]])
        edges = G.radius_graph(pos, 1.2)
        angles = G.build_angle_index(edges)
        assert np.allclose(angles.angle, math.pi / 2)

    def test_back_edge_excluded(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        edges = G.radius_graph(pos, 1.5)
        assert G.build_angle_index(edges).n_triplets == 0

    def test_matches_brute_force_on_random_cloud(self):
        rng = np.random.default_rng(12)
        pos = rng.uniform(-1.5, 1.5, size=(6, 3))
        edges = G.radius_graph(pos, 2.0)
        angles = G.build_angle_index(edges)
        got = sorted(zip(angles.in_edge.tolist(), angles.out_edge.tolist(), angles.angle.tolist()))
        expect = brute_angle_triplets(edges)
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expect]
        assert np.allclose([x[2] for x in got], [x[2] for x in expect], atol=1e-12)

    def test_periodic_self_image_chain(self):
        # one atom in a narrow cell: edges to its own +x and -x images form
        # a straight two-hop path whose angle is pi
        conf = G.Conformation([6], [[0.5, 0.5, 0.5]], lattice=np.eye(3) * 1.0)
        edges = G.periodic_radius_graph(conf, 1.0, mode="gathered")
        angles = G.build_angle_index(edges)
        assert angles.n_triplets > 0
        straight = [
            a
            for f, e, a in zip(angles.in_edge, angles.out_edge, angles.angle)
            if np.array_equal(edges.shift[f], edges.shift[e])
        ]
        assert np.allclose(straight, math.pi)


class TestDatasetIO:
    def _sample_confs(self):
        rng = np.random.default_rng(8)
        return [
            G.Conformation(
                [1, 8], rng.normal(size=(2, 3)), energy=-1.25, forces=rng.normal(size=(2, 3)), id="mol-0"
            ),
            G.Conformation(
                [26], rng.normal(size=(1, 3)), lattice=np.eye(3) * 2.1, id="xtl-1"
            ),
        ]

    def test_round_trip_bit_identical(self, tmp_path):
        path = tmp_path / "data.jsonl"
        confs = self._sample_confs()
        G.save_dataset(path, confs)
        loaded = G.load_dataset(path)
        assert len(loaded) == 2
        for a, b in zip(confs, loaded):
            assert np.array_equal(a.z, b.z)
            assert np.array_equal(a.pos, b.pos)
            assert a.id == b.id
            assert (a.energy is None) == (b.energy is None)
            if a.energy is not None:
                assert a.energy == b.energy
            for field in ("lattice", "forces"):
                av, bv = getattr(a, field), getattr(b, field)
                assert (av is None) == (bv is None)
                if av is not None:
                    assert np.array_equal(av, bv)

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "data.jsonl"
        G.save_dataset(path, self._sample_confs())
        assert [c.id for c in G.load_dataset(path)] == ["mol-0", "xtl-1"]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "z": [1], "pos": [[0,0,0]]}\n{broken\n')
        with pytest.raises(ParseError) as err:
            G.load_dataset(path)
        assert err.value.line == 2

    def test_missing_key_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "z": [1]}\n')
        with pytest.raises(ParseError) as err:
            G.load_dataset(path)
        assert err.value.line == 1

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert G.load_dataset(path) == []


class TestConformationValidation:
    def test_atomic_number_bounds(self):
        with pytest.raises(ContractError):
            G.Conformation([0], [[0.0, 0, 0]])
        with pytest.raises(ContractError):
            G.Conformation([119], [[0.0, 0, 0]])

    def test_position_shape(self):
        with pytest.raises(ShapeError):
            G.Conformation([1, 1], [[0.0, 0, 0]])

    def test_forces_shape(self):
        with pytest.raises(ShapeError):
            G.Conformation([1], [[0.0, 0, 0]], forces=[[0.0, 0]])

    def test_lattice_finite(self):
        with pytest.raises(ContractError):
            G.Conformation([1], [[0.0, 0, 0]], lattice=np.diag([2.0, math.inf, 2.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(1.2, 3.0))
def test_gathered_expanded_consistency_property(seed, cutoff):
    rng = np.random.default_rng(seed)
    lat = rng.uniform(-0.8, 0.8, size=(3, 3)) + np.eye(3) * 2.4
    if abs(np.linalg.det(lat)) < 1.0:
        return
    conf = G.Conformation(
        rng.integers(1, 50, size=2), rng.uniform(0, 1, size=(2, 3)) @ lat, lattice=lat
    )
    gath = G.periodic_radius_graph(conf, cutoff, mode="gathered")
    expd = G.periodic_radius_graph(conf, cutoff, mode="expanded")
    a = sorted(
        (int(s), round(float(d), 9)) for s, d in zip(gath.src, gath.dist)
    )
    b = sorted(
        (int(s), round(float(d), 9)) for s, d in zip(expd.edges.src, expd.edges.dist)
    )
    assert a == b


def periodic_rows(conf, cutoff, mode):
    """(src, dst, shift) rows of either periodic mode, in the gathered form."""
    if mode == "gathered":
        edges = G.periodic_radius_graph(conf, cutoff, mode=mode)
        return sorted(zip(edges.src.tolist(), edges.dst.tolist(), map(tuple, edges.shift.tolist())))
    graph = G.periodic_radius_graph(conf, cutoff, mode=mode)
    src, atom = graph.edges.src, graph.image_of[graph.edges.dst]
    seen = graph.positions[graph.edges.dst] - graph.positions[src]
    shift = np.rint((seen - conf.pos[atom] + conf.pos[src]) @ np.linalg.inv(conf.lattice))
    return sorted(zip(graph.edges.src.tolist(), atom.tolist(), map(tuple, shift.astype(int).tolist())))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(2, 40),
    st.sampled_from([0.5, 0.75, 1.25, 2.0]),
    st.integers(0, 4),
)
def test_open_search_matches_brute_force_property(seed, n, cutoff, n_dup):
    # half the points sit on a grid of spacing `cutoff`, giving pairs at
    # exactly the cutoff, the rest are scattered over several bins; some
    # points are duplicated, and the whole cloud sits far from the origin
    rng = np.random.default_rng(seed)
    grid = rng.integers(-3, 4, size=(n // 2, 3)) * cutoff
    scattered = rng.uniform(-4 * cutoff, 4 * cutoff, size=(n - n // 2, 3))
    pos = np.concatenate([grid, scattered])
    pos = np.concatenate([pos, pos[rng.integers(0, n, n_dup)]]) + rng.integers(-10**6, 10**6, 3)
    edges = G.radius_graph(pos, cutoff)
    assert list(zip(edges.src.tolist(), edges.dst.tolist())) == sorted(brute_radius_edges(pos, cutoff))
    assert np.array_equal(edges.rel_vec, pos[edges.dst] - pos[edges.src])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(8, 24), st.booleans())
def test_periodic_search_matches_brute_force_property(seed, n, eighths, outside):
    # a skewed cell and positions on the 1/8 grid, so that coincident
    # atoms and pairs at exactly the cutoff come up; `outside` writes atoms
    # up to one cell away from the cell they belong to
    rng = np.random.default_rng(seed)
    lat = np.tril(rng.integers(-6, 7, size=(3, 3)), -1) / 8 + np.diag(rng.integers(12, 25, 3) / 8)
    frac = rng.integers(0, 8, size=(n, 3)) / 8 + outside * rng.integers(-1, 2, size=(n, 3))
    conf = G.Conformation(rng.integers(1, 30, n), frac @ lat, lattice=lat)
    cutoff = eighths / 8
    spacing = min(abs(np.linalg.det(lat)) / np.linalg.norm(np.cross(lat[i - 2], lat[i - 1])) for i in range(3))
    expect = brute_periodic_pairs(conf, cutoff, reach=int(cutoff / spacing) + 3)
    for mode in ("gathered", "expanded"):
        assert periodic_rows(conf, cutoff, mode) == expect


def test_angle_index_matches_brute_force_on_periodic_graphs():
    rng = np.random.default_rng(21)
    for _ in range(4):
        lat = rng.uniform(-0.8, 0.8, size=(3, 3)) + np.eye(3) * 2.6
        conf = G.Conformation([1, 6, 8], rng.uniform(0, 1, size=(3, 3)) @ lat, lattice=lat)
        edges = G.periodic_radius_graph(conf, rng.uniform(1.5, 2.5), mode="gathered")
        angles = G.build_angle_index(edges)
        got = list(zip(angles.in_edge.tolist(), angles.out_edge.tolist(), angles.angle.tolist()))
        expect = brute_angle_triplets(edges)
        assert angles.n_triplets > 0
        assert sorted((a, b) for a, b, _ in got) == [(a, b) for a, b, _ in expect]
        np.testing.assert_allclose(
            [x[2] for x in sorted(got)], [x[2] for x in expect], atol=1e-12, rtol=0
        )


def all_pairs_edges(anchors, candidates, cutoff):
    """(src, dst, rel, dist) of every anchor-candidate pair with
    0 < dist <= cutoff, measured over all pairs with no bins or prefilter."""
    src, dst = np.divmod(np.arange(len(anchors) * len(candidates)), len(candidates))
    rel = candidates[dst] - anchors[src]
    dist = np.linalg.norm(rel, axis=-1)
    hit = np.flatnonzero((dist > 0.0) & (dist <= cutoff))
    return src[hit], dst[hit], rel[hit], dist[hit]


def lexsorted_reference(src, dst, shift, rel, dist):
    """The rows, each measured from one end of its pair, with their mirrors
    (dst, src, -shift), whose vector is 0.0 - rel and length the same,
    lexsorted by (src, dst, shift), each naming the row of its reverse, or
    -1, found by a dictionary lookup."""
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    shift, rel, dist = np.concatenate([shift, -shift]), np.concatenate([rel, 0.0 - rel]), np.concatenate([dist, dist])
    order = np.lexsort((shift[:, 2], shift[:, 1], shift[:, 0], dst, src))
    src, dst, shift = src[order], dst[order], shift[order]
    rows = [(s, d, *sh) for s, d, sh in zip(src.tolist(), dst.tolist(), shift.tolist())]
    index = {row: i for i, row in enumerate(rows)}
    reverse = [index.get((d, s, -a, -b, -c), -1) for s, d, a, b, c in rows]
    return G.EdgeList(src, dst, dist[order], rel[order], shift, reverse)


def reference_open_graph(pos, cutoff):
    """Each pair measured from its lower point, then mirrored."""
    src, dst, rel, dist = all_pairs_edges(pos, pos, cutoff)
    one = src < dst
    return lexsorted_reference(src[one], dst[one], np.zeros((one.sum(), 3), np.int64), rel[one], dist[one])


def reference_shifts(lattice, cutoff):
    """Every shift out to the reach over the plane spacings, taken from
    cross products, plus one layer on each axis: wider than any range
    `_shift_ranges` needs for atoms in the cell, and found without it."""
    vol = abs(np.linalg.det(lattice))
    reach = [math.ceil(cutoff * np.linalg.norm(np.cross(lattice[i - 2], lattice[i - 1])) / vol) + 1 for i in range(3)]
    return np.array(list(itertools.product(*(range(-r, r + 1) for r in reach))))


def reference_periodic_graph(conf, cutoff):
    """The gathered graph of `periodic_radius_graph` from an all-pairs search
    over the images of `reference_shifts`. Each pair is measured from the
    end that sees the other through a lexicographically positive image
    shift, or through shift zero from the lower atom, and then mirrored.
    The cell offsets are shared; the shift set, the search and the sort are
    not. An image is its atom, moved into the cell, plus its shift times the
    lattice, in the arithmetic of the graph."""
    pos, offset, _ = G._into_cell(conf.lattice, conf.pos, cutoff)
    shifts = reference_shifts(conf.lattice, cutoff)
    images = (pos[None, :, :] + (shifts.astype(np.float64) @ conf.lattice)[:, None, :]).reshape(-1, 3)
    src, image, rel, dist = all_pairs_edges(pos, images, cutoff)
    which, dst = np.divmod(image, conf.n_atoms)
    rows = zip(map(tuple, shifts[which].tolist()), src.tolist(), dst.tolist())
    one = np.array([(s, d) > ((0, 0, 0), a) for s, a, d in rows], bool)
    src, dst, which = src[one], dst[one], which[one]
    return lexsorted_reference(src, dst, shifts[which] + offset[src] - offset[dst], rel[one], dist[one])


def expanded_rows(graph):
    """(src, atom, shift from the atoms as written, dist) of each row of an
    expanded graph, sorted."""
    src, dst, dist = graph.edges.src, graph.edges.dst, graph.edges.dist
    shift = graph.node_shift[dst] - graph.node_shift[src]
    return sorted(zip(src.tolist(), graph.image_of[dst].tolist(), map(tuple, shift.tolist()), dist.tolist()))


def assert_rows_equal_reference(conf, cutoff, mode):
    """Gathered rows equal the reference's byte for byte; expanded rows are
    its rows in the (src, atom, shift, dist) form."""
    ref = reference_periodic_graph(conf, cutoff)
    got = G.periodic_radius_graph(conf, cutoff, mode)
    if mode == "gathered":
        assert_same_rows(got, ref)
    else:
        shifts = map(tuple, ref.shift.tolist())
        assert expanded_rows(got) == sorted(zip(ref.src.tolist(), ref.dst.tolist(), shifts, ref.dist.tolist()))


def assert_same_rows(got, ref):
    for name in ("src", "dst", "shift", "rel_vec", "dist", "reverse"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("seed", range(6))
def test_open_rows_equal_all_pairs_lexsort_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    pos = rng.uniform(-6.0, 6.0, size=(n, 3)) + rng.integers(-1000, 1000, 3)
    pos[rng.integers(0, n, 3)] = pos[0]  # coincident points
    assert_same_rows(G.radius_graph(pos, 2.5), reference_open_graph(pos, 2.5))


@pytest.mark.parametrize("mode", ["gathered", "expanded"])
@pytest.mark.parametrize("seed,outside", [(0, 0), (1, 0), (2, 1), (3, 2)])
def test_periodic_rows_equal_all_pairs_lexsort_reference(seed, outside, mode):
    # a skewed cell; `outside` writes atoms up to that many cells away
    rng = np.random.default_rng(seed)
    lat = np.array([[3.1, 0.0, 0.0], [0.9, 2.8, 0.0], [-0.7, 0.6, 3.3]])
    frac = rng.uniform(0.0, 1.0, size=(12, 3)) + rng.integers(-outside, outside + 1, size=(12, 3))
    conf = G.Conformation(rng.integers(1, 30, 12), frac @ lat, lattice=lat)
    assert_rows_equal_reference(conf, 4.0, mode)


@pytest.mark.parametrize("mode", ["gathered", "expanded"])
def test_rows_at_a_cutoff_of_whole_plane_spacings_equal_reference(mode):
    # the planes of the last axis lie exactly 4 apart, so at cutoff 8 the
    # reach along it is exactly 2, the range it needs. Atom 0 sees atom 1
    # exactly 8 away along that axis, through the cell shift (0, 0, 2);
    # atoms 1 and 3 are written outside the cell
    lat = np.array([[2.0, 0.0, 0.0], [0.5, 4.0, 0.0], [-0.5, 0.25, 4.0]])
    inv = np.linalg.inv(lat)
    assert np.sqrt(inv[:, 2] @ inv[:, 2]) * 8.0 == 2.0
    pos = np.array([[1.0, 1.0, 1.0], [2.0, 0.5, 1.0], [1.5, 2.25, 3.0], [0.25, 3.5, 2.75]])
    pos[1] += np.array([1, -2, 1]) @ lat
    pos[3] -= np.array([0, 3, 1]) @ lat
    conf = G.Conformation([6, 8, 1, 7], pos, lattice=lat)
    edges = G.periodic_radius_graph(conf, 8.0)
    at = (edges.src == 0) & (edges.dst == 1) & (edges.dist == 8.0)
    assert np.array_equal(edges.rel_vec[at], [[0.0, 0.0, 8.0]])
    assert_rows_equal_reference(conf, 8.0, mode)


# atoms written this far out carry shifts of the same size, which the row
# order must still sort by
@pytest.mark.parametrize("mode", ["gathered", "expanded"])
@pytest.mark.parametrize("cells", [1000, 3 * 10**7])
def test_rows_of_atoms_far_outside_the_cell_equal_reference(cells, mode):
    rng = np.random.default_rng(3)
    lat = np.array([[3.0, 0.0, 0.0], [0.4, 3.2, 0.0], [-0.3, 0.5, 2.9]])
    pos = rng.uniform(0.0, 1.0, size=(5, 3)) @ lat
    pos[1:4] += np.array([[0, cells, -cells], [cells, -cells, cells], [-cells, 0, 0]]) @ lat
    conf = G.Conformation([6, 8, 1, 1, 7], pos, lattice=lat)
    assert_rows_equal_reference(conf, 4.0, mode)


def test_prefilter_keeps_the_exact_cutoff_and_drops_the_next_float():
    cutoff = 5.0
    beyond = np.nextafter(cutoff, np.inf)
    pos = np.array([[0.0, 0.0, 0.0], [cutoff, 0.0, 0.0], [0.0, 40.0, 0.0], [beyond, 40.0, 0.0]])
    # both pairs are inside the prefilter's slack, so the exact test decides
    assert beyond * beyond <= cutoff * cutoff * (1.0 + G._NEAR_SLACK)
    edges = G.radius_graph(pos, cutoff)
    assert list(zip(edges.src.tolist(), edges.dst.tolist())) == [(0, 1), (1, 0)]
    assert edges.dist.tolist() == [cutoff, cutoff]
    assert_same_rows(edges, reference_open_graph(pos, cutoff))
