"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package, measures its own
deviation and runtime, and prints a single PASS/FAIL line (visible with
pytest -s).  Tolerances and budgets are asserted, not just reported.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from geomnets import so3
from geomnets import tensor as T
from geomnets import training as tr
from geomnets.geometry import Conformation, periodic_radius_graph
from geomnets.models import api, invariant
from geomnets.models.common import build_batch
from geomnets.tensor import Tensor
from test_models_invariant import spherical_basis_2d


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def cluster(rng: np.random.Generator, lo: int, hi: int, min_dist: float = 0.9):
    # chain placement keeps every atom within ~2.9 of an earlier one, so no
    # atom is ever isolated at the cutoffs used below
    n = int(rng.integers(lo, hi + 1))
    pos = np.zeros((n, 3))
    placed = 1
    while placed < n:
        base = pos[int(rng.integers(placed))]
        cand = base + rng.uniform(-1.7, 1.7, 3)
        if np.linalg.norm(pos[:placed] - cand, axis=1).min() >= min_dist:
            pos[placed] = cand
            placed += 1
    return Conformation(z=rng.integers(1, 10, n), pos=pos)


def rotation(rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def reflection(rng: np.random.Generator) -> np.ndarray:
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return np.eye(3) - 2.0 * np.outer(n, n)


def model_energy_vectors(model, params, z, pos):
    batch = build_batch([Conformation(z=z, pos=pos)], model.cutoff, model.needs_angles)
    tape = T.Tape()
    params_t = T.lift(params, tape)
    pos_t = tape.tensor(batch.pos)
    energy, vectors = model.energy_and_vectors(params_t, batch, pos_t)
    return float(energy.data.sum()), None if vectors is None else vectors.data


# ---------------------------------------------------------------------------


def test_criterion_01_harmonic_rotation_equivariance():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        rot = rotation(rng)
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        for l in range(so3.MAX_DEGREE + 1):
            y_u = so3.sph_harm_block(l, Tensor(u[None, :])).data[0]
            y_ru = so3.sph_harm_block(l, Tensor((rot @ u)[None, :])).data[0]
            worst = max(worst, np.abs(y_ru - so3.wigner_d(l, rot) @ y_u).max())
    elapsed = time.perf_counter() - started
    report(
        1,
        "spherical harmonics rotate through their degree-l matrices",
        worst < 1e-10 and elapsed < 1.0,
        f"max deviation {worst:.2e} (tol 1e-10), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_02_rotation_matrix_homomorphism_and_orthogonality():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    worst_hom = 0.0
    worst_orth = 0.0
    for _ in range(100):
        r1, r2 = rotation(rng), rotation(rng)
        for l in range(so3.MAX_DEGREE + 1):
            d1, d2 = so3.wigner_d(l, r1), so3.wigner_d(l, r2)
            d12 = so3.wigner_d(l, r1 @ r2)
            worst_hom = max(worst_hom, np.abs(d12 - d1 @ d2).max())
            worst_orth = max(worst_orth, np.abs(d1 @ d1.T - np.eye(2 * l + 1)).max())
    elapsed = time.perf_counter() - started
    report(
        2,
        "degree-l rotation matrices compose and are orthogonal",
        worst_hom < 1e-10 and worst_orth < 1e-10 and elapsed < 1.0,
        f"homomorphism {worst_hom:.2e}, orthogonality {worst_orth:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s (budget 1s)",
    )


def test_criterion_03_coupling_tensor_intertwines_rotations():
    rng = np.random.default_rng(103)
    started = time.perf_counter()
    worst = 0.0
    n_triples = 0
    for l1 in range(3):
        for l2 in range(3):
            for l3 in range(abs(l1 - l2), min(l1 + l2, 2) + 1):
                coupling = so3.clebsch_gordan(l1, l2, l3)
                n_triples += 1
                for _ in range(10):
                    rot = rotation(rng)
                    d1 = so3.wigner_d(l1, rot)
                    d2 = so3.wigner_d(l2, rot)
                    d3 = so3.wigner_d(l3, rot)
                    lhs = np.einsum("ijk,ia,jb->abk", coupling, d1, d2)
                    rhs = np.einsum("kc,abc->abk", d3, coupling)
                    worst = max(worst, np.abs(lhs - rhs).max())
    elapsed = time.perf_counter() - started
    report(
        3,
        f"coupling tensors commute with rotations over {n_triples} degree triples",
        worst < 1e-10 and elapsed < 5.0,
        f"max deviation {worst:.2e} (tol 1e-10), {elapsed:.2f}s (budget 5s)",
    )


EQUIV_CONFIGS = {
    "schnet": {"family": "schnet", "hidden": 16, "layers": 2, "cutoff": 4.0},
    "dimenet": {"family": "dimenet", "hidden": 8, "layers": 1, "cutoff": 4.0},
    "tfn": {
        "family": "tfn",
        "scalar_channels": 4,
        "vector_channels": 2,
        "tensor_channels": 1,
        "layers": 2,
        "cutoff": 4.0,
    },
    "se3attn": {
        "family": "se3attn",
        "scalar_channels": 4,
        "vector_channels": 2,
        "tensor_channels": 1,
        "layers": 2,
        "cutoff": 4.0,
    },
    "egnn": {"family": "egnn", "hidden": 16, "layers": 2, "cutoff": 4.0},
    "painn": {"family": "painn", "hidden": 16, "layers": 2, "cutoff": 4.0},
}


def test_criterion_04_symmetry_suite_over_all_families(tmp_path):
    started = time.perf_counter()
    details = []
    ok = True
    for name, cfg in EQUIV_CONFIGS.items():
        model = api.model_from_config(cfg)
        params = model.init(0)
        rng = np.random.default_rng(104)
        tol = 1e-10 if not model.has_vector_output else 1e-8
        worst = 0.0
        for _ in range(50):
            conf = cluster(rng, 4, 7)
            rot = rotation(rng)
            shift = rng.normal(size=3)
            e0, v0 = model_energy_vectors(model, params, conf.z, conf.pos)
            e1, v1 = model_energy_vectors(model, params, conf.z, conf.pos @ rot.T + shift)
            worst = max(worst, abs(e1 - e0))
            if model.has_vector_output:
                worst = max(worst, np.abs(v1 - v0 @ rot.T).max())
            else:
                mirror = reflection(rng)
                e2, _ = model_energy_vectors(model, params, conf.z, conf.pos @ mirror.T)
                worst = max(worst, abs(e2 - e0))
        ok = ok and worst < tol
        details.append(f"{name} {worst:.1e}<{tol:.0e}")
    for family in ("schnet", "painn"):
        path = tmp_path / f"{family}.json"
        path.write_text(json.dumps(EQUIV_CONFIGS[family]))
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "geomnets",
                "check-equiv",
                "--config",
                str(path),
                "--trials",
                "10",
            ],
            capture_output=True,
            text=True,
        )
        ok = ok and result.returncode == 0
        details.append(f"check-equiv[{family}] exit {result.returncode}")
    elapsed = time.perf_counter() - started
    report(
        4,
        "energies invariant, vector outputs equivariant, audit command clean",
        ok and elapsed < 120.0,
        f"{'; '.join(details)}; {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_05_forces_match_finite_differences():
    rng = np.random.default_rng(105)
    started = time.perf_counter()
    worst_rel = 0.0
    worst_net = 0.0
    eps = 1e-4
    for name, cfg in EQUIV_CONFIGS.items():
        model = api.model_from_config(cfg)
        params = model.init(2)
        for _ in range(2):
            conf = cluster(rng, 6, 10)
            _, forces = tr.force_from_energy(model, params, conf)
            worst_net = max(worst_net, np.abs(forces.sum(axis=0)).max())
            flat = [(a, c) for a in range(conf.z.size) for c in range(3)]
            for idx in rng.choice(len(flat), size=4, replace=False):
                atom, comp = flat[idx]
                hi, lo = conf.pos.copy(), conf.pos.copy()
                hi[atom, comp] += eps
                lo[atom, comp] -= eps
                e_hi = tr.force_from_energy(model, params, Conformation(z=conf.z, pos=hi))[0]
                e_lo = tr.force_from_energy(model, params, Conformation(z=conf.z, pos=lo))[0]
                fd = -(e_hi - e_lo) / (2 * eps)
                scale = max(abs(fd), abs(forces[atom, comp]), 1e-6)
                worst_rel = max(worst_rel, abs(fd - forces[atom, comp]) / scale)
    elapsed = time.perf_counter() - started
    report(
        5,
        "differentiated forces agree with central differences, zero net force",
        worst_rel < 1e-4 and worst_net < 1e-8 and elapsed < 60.0,
        f"max rel err {worst_rel:.2e} (tol 1e-4), max net force {worst_net:.2e} "
        f"(tol 1e-8), {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_06_periodic_graph_worked_example_and_mode_agreement():
    started = time.perf_counter()
    # two atoms in a cubic cell of edge 2 with the cutoff equal to the edge:
    # the in-cell pair (0, 1) must be kept, and every edge must touch an
    # anchor atom in both construction modes
    edge = 2.0
    lat = np.eye(3) * edge
    pos = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
    conf = Conformation(z=[6, 6], pos=pos, lattice=lat)
    gathered = periodic_radius_graph(conf, edge, "gathered")
    got = set(zip(gathered.src.tolist(), gathered.dst.tolist(), map(tuple, gathered.shift.tolist())))
    expected = set()
    for i in range(2):
        for j in range(2):
            for sx in range(-2, 3):
                for sy in range(-2, 3):
                    for sz in range(-2, 3):
                        s = (sx, sy, sz)
                        if i == j and s == (0, 0, 0):
                            continue
                        d = np.linalg.norm(pos[j] + np.array(s) @ lat - pos[i])
                        if 0.0 < d <= edge:
                            expected.add((i, j, s))
    edge_match = got == expected and (0, 1, (0, 0, 0)) in got
    expanded = periodic_radius_graph(conf, edge, "expanded")
    anchor_incident = bool((expanded.edges.src < expanded.n_anchor).all())
    same_dists = np.allclose(
        np.sort(gathered.dist), np.sort(expanded.edges.dist), atol=1e-12
    )
    worst_cells = 0.0
    rng = np.random.default_rng(106)
    for _ in range(20):
        cell = 3.0 * np.eye(3) + rng.uniform(-0.8, 0.8, (3, 3))
        n = int(rng.integers(1, 4))
        frac = rng.uniform(0.05, 0.95, (n, 3))
        xtl = Conformation(z=rng.integers(1, 30, n), pos=frac @ cell, lattice=cell)
        g = periodic_radius_graph(xtl, 2.5, "gathered")
        e = periodic_radius_graph(xtl, 2.5, "expanded")
        if g.dist.size != e.edges.dist.size:
            worst_cells = np.inf
            break
        if g.dist.size:
            worst_cells = max(
                worst_cells, np.abs(np.sort(g.dist) - np.sort(e.edges.dist)).max()
            )
    elapsed = time.perf_counter() - started
    report(
        6,
        "cubic worked example edge-for-edge, modes agree on 20 triclinic cells",
        edge_match and anchor_incident and same_dists and worst_cells < 1e-12 and elapsed < 10.0,
        f"edges {'match' if edge_match else 'MISMATCH'}, "
        f"mode distance gap {worst_cells:.1e} (tol 1e-12), {elapsed:.1f}s (budget 10s)",
    )


def _np_silu(x):
    return x / (1.0 + np.exp(-x))


def _np_mlp(params, prefix, n_layers, x):
    h = x
    for i in range(n_layers):
        h = h @ params[f"{prefix}.w{i}"] + params[f"{prefix}.b{i}"]
        if i < n_layers - 1:
            h = _np_silu(h)
    return h


def _naive_two_hop_messages(spec, params, batch):
    """Triple-loop reference for one message-refinement block in plain numpy."""
    pos = batch.pos
    src, dst = batch.src, batch.dst
    n_edges = src.size
    rel = pos[dst] - pos[src]
    dist = np.linalg.norm(rel, axis=1)
    cutoff = spec.basis.cutoff
    env = (np.cos(np.pi * dist / cutoff) + 1.0) / 2.0
    freqs = np.arange(1, spec.basis.count + 1) * np.pi / cutoff
    rbf = (
        math.sqrt(2.0 / cutoff)
        * np.sin(dist[:, None] * freqs[None, :])
        / dist[:, None]
        * env[:, None]
    )
    h = params["embed"][batch.z]
    m = _np_mlp(params, "m0", 2, np.concatenate([h[dst], h[src], rbf], axis=1))
    out = np.zeros((n_edges, spec.hidden))
    for e in range(n_edges):
        i, j = src[e], dst[e]
        for f in range(n_edges):
            if src[f] != j or dst[f] == i:
                continue
            cos_angle = np.clip(
                np.dot(rel[f], -rel[e]) / (dist[f] * dist[e]), -1.0, 1.0
            )
            two_d = spherical_basis_2d(
                spec.sbf_l_max, spec.sbf_n_max, dist[f], cutoff, math.acos(cos_angle)
            )
            row = np.concatenate([m[e], rbf[e], two_d])
            out[e] += _np_mlp(params, "block0", 2, row) * env[f]
    return out


def test_criterion_07_two_hop_messages_match_triple_loop_reference():
    rng = np.random.default_rng(107)
    started = time.perf_counter()
    worst = 0.0
    spec = invariant.DimeNetSpec(
        hidden=8,
        layers=1,
        basis=invariant.RadialBasisSpec(kind="bessel", count=6, cutoff=3.0),
        sbf_l_max=2,
        sbf_n_max=2,
    )
    for trial in range(50):
        params = invariant.init_dimenet(spec, trial)
        conf = cluster(rng, 3, 8, min_dist=0.8)
        batch = build_batch([conf], 3.0, need_angles=True)
        if batch.n_edges == 0:
            continue
        messages, _ = invariant.dimenet_messages(spec, T.lift(params), batch, Tensor(batch.pos))
        naive = _naive_two_hop_messages(spec, params, batch)
        worst = max(worst, np.abs(messages.data - naive).max())
    elapsed = time.perf_counter() - started
    report(
        7,
        "vectorized two-hop aggregation equals the naive triple loop",
        worst < 1e-10 and elapsed < 30.0,
        f"max deviation {worst:.2e} (tol 1e-10) over 50 graphs, "
        f"{elapsed:.1f}s (budget 30s)",
    )


OVERFIT_CONFIGS = {
    "schnet": {"family": "schnet", "hidden": 32, "layers": 2, "cutoff": 4.0},
    "dimenet": {
        "family": "dimenet",
        "hidden": 16,
        "layers": 1,
        "cutoff": 4.0,
        "sbf_l_max": 2,
        "sbf_n_max": 3,
    },
    "egnn": {"family": "egnn", "hidden": 32, "layers": 2, "cutoff": 4.0},
    "painn": {"family": "painn", "hidden": 16, "layers": 2, "cutoff": 4.0},
    "tfn": {
        "family": "tfn",
        "scalar_channels": 8,
        "vector_channels": 4,
        "tensor_channels": 2,
        "layers": 1,
        "cutoff": 4.0,
        "basis": {"count": 8},
        "radial_hidden": 8,
    },
}


def test_criterion_08_every_family_overfits_the_synthetic_potential():
    confs = tr.synthetic_conformations(64, seed=20, n_atoms=(4, 6))
    details = []
    ok = True
    for name, cfg in OVERFIT_CONFIGS.items():
        model = api.model_from_config(cfg)
        schedule = tr.ScheduleSpec(8e-3, 1e-4, 2000)
        started = time.perf_counter()
        _, hist = tr.train_energy_force(
            model, confs, schedule, seed=0, steps=2000, stop_loss_ratio=0.05
        )
        elapsed = time.perf_counter() - started
        ratio = hist["train_loss"][-1] / hist["train_loss"][0]
        ok = ok and ratio <= 0.05 and elapsed < 300.0
        details.append(f"{name} {100 * (1 - ratio):.1f}% in {len(hist['step'])} steps {elapsed:.0f}s")
    report(
        8,
        "energy+force loss drops at least 95% on 64 structures",
        ok,
        "; ".join(details) + " (budget 300s each)",
    )


def test_criterion_09_normalization_harness(tmp_path):
    started = time.perf_counter()
    confs = tr.synthetic_conformations(24, seed=40, n_atoms=(4, 6))
    stats = tr.stats_from_conformations(confs)
    # the calibrated head must be exactly affine in the raw prediction
    model = api.model_from_config({"family": "schnet", "hidden": 16, "layers": 1, "cutoff": 4.0})
    params = model.init(0)
    batch = build_batch(confs[:4], model.cutoff, model.needs_angles)
    tape = T.Tape()
    raw = model.energy(T.lift(params, tape), batch, tape.tensor(batch.pos)).data
    n_atoms = np.bincount(batch.node_graph, minlength=batch.n_graphs)
    calibrated = tr.apply_normalization(raw, stats, n_atoms)
    affine_dev = np.abs(calibrated - (raw * stats.force_mean + stats.energy_mean * n_atoms)).max()
    inverted = (calibrated - stats.energy_mean * n_atoms) / stats.force_mean
    roundtrip_dev = np.abs(inverted - raw).max()
    # the comparison harness must run both arms and emit the gap structure
    out = tmp_path / "ablation.json"
    result = subprocess.run(
        [
            sys.executable,
            "scripts/normalization_ablation.py",
            "--count",
            "16",
            "--steps",
            "30",
            "--seed",
            "3",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    ok_runs = result.returncode == 0 and out.exists()
    structure_ok = False
    if ok_runs:
        payload = json.loads(out.read_text())
        structure_ok = (
            {"task", "with_normalization", "without_normalization", "gap"} <= set(payload)
            and {"val_mae_energy", "val_mae_force"} <= set(payload["gap"])
            and all(np.isfinite(v) for v in payload["gap"].values())
        )
    elapsed = time.perf_counter() - started
    report(
        9,
        "calibration is exactly affine and the ablation harness emits MAE gaps",
        affine_dev < 1e-12 and roundtrip_dev < 1e-12 and ok_runs and structure_ok,
        f"affine dev {affine_dev:.1e}, roundtrip dev {roundtrip_dev:.1e} (tol 1e-12), "
        f"harness exit {result.returncode}, {elapsed:.1f}s",
    )


PRETRAIN_SETUPS = {
    "type": ({"family": "schnet", "hidden": 16, "layers": 1, "cutoff": 4.0}, 8e-3),
    "distance": ({"family": "schnet", "hidden": 16, "layers": 1, "cutoff": 4.0}, 8e-3),
    "angle": ({"family": "schnet", "hidden": 16, "layers": 1, "cutoff": 4.0}, 8e-3),
    "denoise": ({"family": "painn", "hidden": 16, "layers": 2, "cutoff": 4.0}, 1e-2),
    "contrastive": ({"family": "schnet", "hidden": 16, "layers": 1, "cutoff": 4.0}, 8e-3),
}


def _pretrain_loss_value(kind, model, conf_list, noise_list):
    params = model.init(0)
    if kind in ("type", "distance", "angle"):
        params.update(tr.init_pretrain_heads(model, 1))
    tape = T.Tape()
    params_t = T.lift(params, tape)
    if kind in ("type", "distance", "angle"):
        batch = build_batch(conf_list, model.cutoff, need_angles=True)
        loss = tr.masked_pretrain_loss(kind, model, params_t, batch, tape.tensor(batch.pos), 7)
    else:
        jittered = [Conformation(z=c.z, pos=c.pos + n) for c, n in zip(conf_list, noise_list)]
        view = build_batch(jittered, model.cutoff, model.needs_angles)
        view_pos = tape.tensor(view.pos)
        if kind == "denoise":
            loss = tr.denoise_pretrain_loss(model, params_t, view, view_pos, np.concatenate(noise_list))
        else:
            batch = build_batch(conf_list, model.cutoff, model.needs_angles)
            loss = tr.contrastive_pretrain_loss(model, params_t, batch, tape.tensor(batch.pos), view, view_pos)
    return float(loss.data)


def test_criterion_10_pretraining_losses_descend_and_respect_rigid_motion():
    started = time.perf_counter()
    confs = tr.synthetic_conformations(128, seed=30, n_atoms=(4, 6))
    details = []
    ok = True
    for kind, (cfg, lr) in PRETRAIN_SETUPS.items():
        model = api.model_from_config(cfg)
        schedule = tr.ScheduleSpec(lr, 1e-4, 500)
        _, hist = tr.train_pretrain(
            model, kind, confs, schedule, seed=0, steps=500, stop_loss_ratio=0.45
        )
        ratio = min(hist["train_loss"]) / hist["train_loss"][0]
        ok = ok and ratio <= 0.5
        details.append(f"{kind} -{100 * (1 - ratio):.0f}% in {len(hist['step'])} steps")
    # rigid motion must leave every loss unchanged
    rng = np.random.default_rng(110)
    base = [cluster(rng, 5, 6) for _ in range(3)]
    noise = [rng.normal(0.0, 0.05, c.pos.shape) for c in base]
    rot = rotation(rng)
    shift = rng.normal(size=3)
    moved = [Conformation(z=c.z, pos=c.pos @ rot.T + shift) for c in base]
    moved_noise = [n @ rot.T for n in noise]
    worst_motion = 0.0
    for kind, (cfg, _) in PRETRAIN_SETUPS.items():
        model = api.model_from_config(cfg)
        a = _pretrain_loss_value(kind, model, base, noise)
        b = _pretrain_loss_value(kind, model, moved, moved_noise)
        worst_motion = max(worst_motion, abs(a - b))
    elapsed = time.perf_counter() - started
    ok = ok and worst_motion < 1e-10 and elapsed < 300.0
    report(
        10,
        "all five pretraining losses halve within 500 steps, rigid-motion stable",
        ok,
        f"{'; '.join(details)}; motion dev {worst_motion:.1e} (tol 1e-10); "
        f"{elapsed:.0f}s (budget 300s)",
    )
