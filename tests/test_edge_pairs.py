"""Reverse rows of the cutoff graphs and the edge-pair index of a batch.

Every edge's partner must be its reverse (dst, src, -shift), and the pair
slots must cover each pair exactly twice. A cutoff graph measures each
pair once and mirrors it, so open and gathered graphs give every edge its
reverse. A batch merges its graphs once and indexes the pairs and angle
triplets once; they must equal each graph's own, moved by the rows before
it, and the distance pretext must read the builder's lengths.

On every pair index built here, `tensor.scatter_sum` into the pairs, the
adjoint of `tensor.gather` by the pair index, must give the bytes of
`tensor.scatter_sum` by slot, -0.0 rows included, and a recorded backward
through the gather the bits of an unrecorded one.
"""

import numpy as np
import pytest

from geomnets import geometry as G
from geomnets import tensor as T
from geomnets import training as tr
from geomnets.errors import ContractError
from geomnets.models import api
from geomnets.models.common import build_batch

SKEWED = np.array([[3.1, 0.0, 0.0], [0.9, 2.8, 0.0], [-0.7, 0.6, 3.3]])


def cluster(seed, n=7, span=3.0):
    rng = np.random.default_rng(seed)
    return G.Conformation(rng.integers(1, 10, n), rng.uniform(0.0, span, (n, 3)))


def crystal(seed, n=5, lattice=SKEWED):
    rng = np.random.default_rng(seed)
    return G.Conformation(rng.integers(1, 10, n), rng.uniform(0.0, 1.0, (n, 3)) @ lattice, lattice=lattice)


def integer_shifts(confs, cutoff):
    """Each batch edge's integer shift, from the graphs the batch is built on."""
    out = []
    for conf in confs:
        if conf.lattice is None:
            out.append(np.zeros((G.radius_graph(conf.pos, cutoff).n_edges, 3), np.int64))
        else:
            out.append(G.periodic_radius_graph(conf, cutoff).shift)
    return np.concatenate(out)


def check_pairs(batch, shift):
    """The pair index of `batch` against its edges (src, dst, integer shift):
    a flipped edge's representative is its reverse and sits in a lower row,
    every slot holds two edges, and a representative is the edge its slot
    names."""
    pairs, e = batch.pairs, batch.n_edges
    assert pairs.slot.shape == pairs.flipped.shape == (e,)
    counts = np.bincount(pairs.slot, minlength=pairs.edge.size)
    assert counts.size == pairs.edge.size and (counts == 2).all() and 2 * pairs.edge.size == e
    rows = np.arange(e)
    kept = ~pairs.flipped
    assert (pairs.edge[pairs.slot[kept]] == rows[kept]).all()
    flip = rows[pairs.flipped]
    rep = pairs.edge[pairs.slot[flip]]
    assert (rep < flip).all()
    assert (batch.src[rep] == batch.dst[flip]).all() and (batch.dst[rep] == batch.src[flip]).all()
    assert (shift[rep] == -shift[flip]).all()
    assert (batch.shift_offset[rep] == -batch.shift_offset[flip]).all()
    check_expansion(pairs)


def check_expansion(pairs, width=3):
    """`gather` by a pair index reads each edge's pair row; its adjoint, a
    `scatter_sum` into the pairs, equals `scatter_sum` by slot byte for
    byte, also on rows of -0.0, where
    a sum that starts from +0.0 reads +0.0; and its backward, recorded or
    not, gives the same bits, and differentiates again."""
    e, p = pairs.slot.size, pairs.edge.size
    rng = np.random.default_rng(e)
    g = rng.normal(size=(e, width))
    g[pairs.slot % 3 == 0] = -0.0  # both rows of a pair
    g[(pairs.slot % 3 == 1) & pairs.flipped, 0] = -0.0  # one row of a pair
    summed = T.scatter_sum(g, pairs).data
    assert summed.tobytes() == T.scatter_sum(g, pairs.slot, p).data.tobytes()
    assert summed.shape == (p, width) and not np.signbit(summed[::3]).any()

    x = rng.normal(size=(p, width))
    np.testing.assert_array_equal(T.gather(x, pairs).data, x[pairs.slot])

    def forward():
        # a tape per backward that ends unrecorded, which spends what it runs
        tape = T.Tape()
        xt = tape.tensor(x)
        return tape, xt, T.sum_(T.gather(xt, pairs) ** 2 * T.Tensor(g))

    tape, xt, root = forward()
    (free,) = tape.gradient(root, [xt], record=False)
    tape, xt, root = forward()
    (kept,) = tape.gradient(root, [xt])
    assert free.data.tobytes() == kept.data.tobytes()
    # the gradient is the pair sum of 2 g x[slot]; its gradient along v is
    # the pair sum of 2 g v[slot], through the gather that is the adjoint's adjoint
    v = rng.normal(size=(p, width))
    (again,) = tape.gradient(T.sum_(kept * T.Tensor(v)), [xt], record=False)
    want = T.scatter_sum(2.0 * g * v[pairs.slot], pairs.slot, p).data
    np.testing.assert_allclose(again.data, want, rtol=1e-12, atol=0.0)


def test_open_cluster():
    conf = cluster(0)
    batch = build_batch([conf], 2.5)
    assert batch.n_edges > 10
    check_pairs(batch, integer_shifts([conf], 2.5))
    # on open graphs the representative is the edge with src < dst
    np.testing.assert_array_equal(batch.pairs.flipped, batch.src > batch.dst)


def test_gathered_periodic_cell():
    conf = crystal(1)
    batch = build_batch([conf], 4.0)
    shift = integer_shifts([conf], 4.0)
    assert (shift != 0).any() and batch.n_edges > 50
    check_pairs(batch, shift)


def test_one_atom_cell_self_images_pair_opposite_shifts():
    conf = G.Conformation([6], [[0.5, 0.5, 0.5]], lattice=SKEWED)
    batch = build_batch([conf], 4.0)
    shift = integer_shifts([conf], 4.0)
    assert batch.n_edges > 6 and (batch.src == 0).all() and (batch.dst == 0).all()
    check_pairs(batch, shift)
    # the rows run by shift, whose set is symmetric, so the representatives
    # are the lower half
    np.testing.assert_array_equal(shift[::-1], -shift)
    np.testing.assert_array_equal(batch.pairs.edge, np.arange(batch.n_edges // 2))


def test_atom_written_a_lattice_vector_outside_the_cell():
    conf = crystal(2)
    pos = conf.pos.copy()
    pos[0] += SKEWED[1]
    pos[3] -= SKEWED[0] + SKEWED[2]
    moved = G.Conformation(conf.z, pos, lattice=SKEWED)
    batch = build_batch([moved], 4.0)
    shift = integer_shifts([moved], 4.0)
    check_pairs(batch, shift)
    inside = build_batch([conf], 4.0)
    # the same pairs, the moved atoms' shifts offset by their cells
    np.testing.assert_array_equal(batch.pairs.slot, inside.pairs.slot)
    np.testing.assert_array_equal(batch.pairs.flipped, inside.pairs.flipped)


def _close(got, want):
    return np.abs(np.asarray(got) - want).max() <= 1e-8 * np.abs(want).max()


def test_an_atom_written_far_outside_its_cell_is_measured_inside_it():
    # two-atom cubic cells, schnet's cutoff at the builder's longest pair
    # under 3.0. With one atom written 1e5 cells out, pairs measured from
    # the written positions lost their last digits, and some landed past
    # the cutoff the builder had kept them within
    rng = np.random.default_rng(0)
    lattice = np.eye(3) * 3.6
    egnn = api.model_from_config({"family": "egnn", "hidden": 8, "layers": 2, "cutoff": 3.0})
    for _ in range(40):
        inside = G.Conformation([6, 8], rng.uniform(size=(2, 3)) @ lattice, lattice=lattice)
        cutoff = float(G.periodic_radius_graph(inside, 3.0).dist.max())
        pos = inside.pos.copy()
        pos[1, 0] += 1e5 * 3.6
        far = G.Conformation(inside.z, pos, lattice=lattice)
        schnet = api.model_from_config({"family": "schnet", "hidden": 8, "layers": 1, "cutoff": cutoff})
        params = schnet.init(0)
        got, want = tr.force_from_energy(schnet, params, far), tr.force_from_energy(schnet, params, inside)
        assert _close(got[0], want[0]) and _close(got[1], want[1])
        # egnn moves its coordinates from the atoms in their cells, and
        # reports how far they moved
        params = T.lift(egnn.init(0))
        got, want = (
            egnn.energy_and_vectors(params, batch, T.Tensor(batch.pos))
            for batch in (build_batch([far], 3.0), build_batch([inside], 3.0))
        )
        assert _close(got[0].data, want[0].data) and _close(got[1].data, want[1].data)
    # only a batch with an atom outside its cell translates its positions
    assert build_batch([inside], 3.0).cell_translation is None
    assert build_batch([far], 3.0).cell_translation[1, 0] > 0


def test_multi_conformation_batch_offsets():
    # molecules, a crystal and a conformation with no edges in one batch:
    # its pairs and triplets, bit for bit, are each graph's own index with
    # the rows and pairs of the graphs before it added
    confs = [cluster(3), crystal(4), G.Conformation([8], [[0.0, 0.0, 0.0]]), cluster(5, n=4)]
    batch = build_batch(confs, 4.0, need_angles=True)
    check_pairs(batch, integer_shifts(confs, 4.0))
    want = {k: [] for k in ("edge", "slot", "flipped", "in_edge", "out_edge", "angle")}
    rows = n_pairs = 0
    for conf in confs:
        graph = G.radius_graph(conf.pos, 4.0) if conf.lattice is None else G.periodic_radius_graph(conf, 4.0)
        pairs, angles = G.pair_index(graph.reverse), G.build_angle_index(graph)
        want["edge"].append(pairs.edge + rows)
        want["slot"].append(pairs.slot + n_pairs)
        want["flipped"].append(pairs.flipped)
        want["in_edge"].append(angles.in_edge + rows)
        want["out_edge"].append(angles.out_edge + rows)
        want["angle"].append(angles.angle)
        rows, n_pairs = rows + graph.n_edges, n_pairs + pairs.edge.size
    assert (rows, n_pairs) == (batch.n_edges, batch.pairs.edge.size) and batch.angles.n_triplets > 0
    for name, parts in want.items():
        got = getattr(batch.pairs if name in ("edge", "slot", "flipped") else batch.angles, name)
        expected = np.concatenate(parts)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name


def test_zero_edge_single_atom_batch():
    batch = build_batch([G.Conformation([6], [[0.0, 0.0, 0.0]])], 4.0)
    pairs = batch.pairs
    assert batch.n_edges == pairs.edge.size == 0
    assert pairs.slot.shape == pairs.flipped.shape == pairs.edge.shape == (0,)
    assert pairs.slot.dtype == pairs.edge.dtype == np.int64
    check_expansion(pairs)
    model = api.model_from_config({"family": "schnet", "hidden": 4, "layers": 1, "cutoff": 4.0})
    energy = model.energy(T.lift(model.init(0)), batch, T.Tensor(batch.pos))
    assert energy.shape == (1,) and np.isfinite(energy.data).all()


def rounding_apart():
    """A two-atom crystal whose pair (0 -> 1, shift a + b) has two lengths
    when each direction is measured on its own: the two directions'
    vectors are rounded differently. Returns the crystal and the lengths of
    0 -> 1 and of 1 -> 0."""
    rng = np.random.default_rng(0)
    shift = SKEWED[0] + SKEWED[1]
    while True:
        pos = rng.uniform(0.0, 1.0, (2, 3)) @ SKEWED
        ahead = np.linalg.norm((pos[1] + shift) - pos[0])
        back = np.linalg.norm((pos[0] - shift) - pos[1])
        if ahead != back:
            return G.Conformation([6, 8], pos, lattice=SKEWED), (ahead, back)


def test_periodic_pair_whose_directions_round_apart_keeps_both():
    # a cutoff at either length keeps both directions of the pair or
    # neither, so every row has its reverse; at the length of the measured
    # direction, 0 -> 1 through (1, 1, 0), both are kept with that length
    conf, (ahead, back) = rounding_apart()
    for cutoff in (ahead, back):
        edges = G.periodic_radius_graph(conf, cutoff)
        assert (edges.reverse >= 0).all()
        check_pairs(build_batch([conf], cutoff), edges.shift)
        rows = zip(edges.src.tolist(), edges.dst.tolist(), map(tuple, edges.shift.tolist()))
        pair = [k for k, row in enumerate(rows) if row in {(0, 1, (1, 1, 0)), (1, 0, (-1, -1, 0))}]
        assert edges.dist[pair].tolist() == ([ahead, ahead] if ahead <= cutoff else [])


def test_distance_pretext_targets_are_the_builders_lengths():
    # with the distance head zeroed the loss is the mean square of the
    # picked rows' targets, the batch's lengths; the picks include the
    # mirror of the pair whose directions round apart, whose target is its
    # pair's one length, not a second measurement of the reverse direction
    conf, (ahead, back) = rounding_apart()
    cutoff = max(ahead, back)
    batch = build_batch([conf], cutoff)
    rows = list(zip(batch.src.tolist(), batch.dst.tolist(), map(tuple, integer_shifts([conf], cutoff).tolist())))
    measured, mirror = rows.index((0, 1, (1, 1, 0))), rows.index((1, 0, (-1, -1, 0)))
    assert batch.dist[mirror] == batch.dist[measured] == ahead != back
    seed = next(s for s in range(100) if mirror in tr._mask_indices(np.random.default_rng(s), batch.n_edges))
    picked = tr._mask_indices(np.random.default_rng(seed), batch.n_edges)
    model = api.model_from_config({"family": "schnet", "hidden": 4, "layers": 1, "cutoff": cutoff})
    params = model.init(0)
    heads = tr.init_pretrain_heads(model, 1)
    params.update((k, np.zeros_like(v)) for k, v in heads.items() if k.startswith(tr.MASKED_HEADS["distance"]))
    loss = tr.masked_pretrain_loss("distance", model, T.lift(params), batch, T.Tensor(batch.pos), seed)
    assert float(loss.data) == (batch.dist[picked] ** 2).sum() * (1.0 / picked.size)


@pytest.mark.parametrize("seed", range(3))
def test_graph_reverse_rows_are_the_reverses(seed):
    # a reverse row mirrors its row bit for bit: the vector 0.0 - rel_vec
    # (+0.0 stays +0.0) and the same length. Open and gathered graphs give
    # every row a reverse, an expanded graph its anchor-anchor rows. Atoms
    # on lines along the axes of a cubic cell give components of +0.0
    aligned = G.Conformation([6, 8, 1], [[0.5, 0.5, 0.5], [2.0, 0.5, 0.5], [0.5, 1.5 + 0.25 * seed, 0.5]], np.eye(3) * 3.0)
    for conf in (crystal(seed, n=8), aligned):
        expanded = G.periodic_radius_graph(conf, 4.0, "expanded").edges
        assert ((expanded.reverse >= 0) == (expanded.dst < conf.n_atoms)).all()
        for edges in (G.periodic_radius_graph(conf, 4.0), G.radius_graph(conf.pos, 4.0), expanded):
            rows = np.flatnonzero(edges.reverse >= 0)
            assert rows.size == edges.n_edges or edges is expanded
            back = edges.reverse[rows]
            assert (edges.reverse[back] == rows).all()
            assert (edges.src[back] == edges.dst[rows]).all() and (edges.dst[back] == edges.src[rows]).all()
            assert (edges.shift[back] == -edges.shift[rows]).all()
            assert edges.rel_vec[back].tobytes() == (0.0 - edges.rel_vec[rows]).tobytes()
            assert edges.dist[back].tobytes() == edges.dist[rows].tobytes()


def test_pair_index_refuses_rows_without_a_reverse():
    # the expanded graph of two atoms in a 2.5 cubic cell at cutoff 2 has
    # image rows, whose reverse is -1; they have no partner to pair with
    conf = G.Conformation([6, 8], [[0.3, 0.4, 0.5], [1.4, 1.1, 0.9]], np.eye(3) * 2.5)
    edges = G.periodic_radius_graph(conf, 2.0, "expanded").edges
    assert edges.n_edges == 4 and (edges.reverse == -1).sum() == 2
    with pytest.raises(ContractError, match="reverse rows"):
        G.pair_index(edges.reverse)
    with pytest.raises(ContractError, match="reverse rows"):
        G.pair_index(np.array([1, 2]))
