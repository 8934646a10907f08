"""Command-line behavior: artifacts, determinism, exit codes."""

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from geomnets import cli, tensor as T, training as tr
from geomnets.errors import ContractError
from geomnets.geometry import Conformation, load_dataset, periodic_radius_graph, save_dataset
from geomnets.models import api
from geomnets.models import spherical as sph


def run_cli(*args, env_extra=None, timeout=None):
    env = os.environ.copy()
    env["PYTHONWARNINGS"] = "ignore"
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "geomnets", *args], capture_output=True, text=True, env=env, timeout=timeout
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    confs = tr.synthetic_conformations(20, seed=11, n_atoms=(4, 6))
    data = root / "data.jsonl"
    save_dataset(data, confs)
    cfg = {
        "dataset": str(data),
        "model": {"family": "schnet", "hidden": 16, "layers": 1, "cutoff": 4.0},
        "task": "energy+force",
        "seed": 3,
        "steps": 10,
        "lr_max": 5e-3,
        "lr_min": 1e-4,
        "split": [0.8, 0.1, 0.1],
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return root, cfg, cfg_path


def brute_force_graph(confs, cutoff, angles):
    """Graph statistics of a batch of open structures, from pair distances."""
    nodes = edges = triplets = isolated = 0
    for conf in confs:
        dist = np.linalg.norm(conf.pos[:, None] - conf.pos[None], axis=-1)
        degree = ((dist > 0.0) & (dist <= cutoff)).sum(axis=1)
        nodes += conf.n_atoms
        edges += int(degree.sum())
        triplets += int((degree * (degree - 1)).sum()) if angles else 0
        isolated += int((degree == 0).sum())
    return {"nodes": nodes, "edges": edges, "triplets": triplets, "isolated_atoms": isolated}


def assert_history(metrics, cfg, steps):
    schedule = tr.ScheduleSpec(cfg["lr_max"], cfg["lr_min"], cfg["steps"])
    assert metrics["lr"] == [float(tr.cosine_lr(schedule, s)) for s in range(steps)]
    assert len(metrics["grad_norm"]) == steps
    assert all(math.isfinite(g) and g > 0.0 for g in metrics["grad_norm"])


def canonical_metrics(path):
    payload = json.loads(path.read_text())
    assert payload.pop("wall_seconds") >= 0.0
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# config handling


def test_run_config_split_must_sum_to_one():
    base = {"dataset": "d", "model": {"family": "schnet"}}
    cli.RunConfig.from_dict({**base, "split": [0.7, 0.2, 0.1 + 5e-10]})
    with pytest.raises(ContractError):
        cli.RunConfig.from_dict({**base, "split": [0.7, 0.2, 0.2]})
    with pytest.raises(ContractError):
        cli.RunConfig.from_dict({**base, "split": [1.2, -0.1, -0.1]})


def test_run_config_rejects_unknown_keys_and_tasks():
    with pytest.raises(ContractError):
        cli.RunConfig.from_dict({"dataset": "d", "model": {}, "lr": 0.1})
    with pytest.raises(ContractError):
        cli.RunConfig.from_dict({"dataset": "d", "model": {}, "task": "diffusion"})
    with pytest.raises(ContractError):
        cli.RunConfig.from_dict({"model": {}})


def test_config_hash_ignores_key_order_and_tracks_seed():
    a = cli.RunConfig.from_dict(
        {"dataset": "d", "model": {"family": "schnet"}, "seed": 1, "steps": 5}
    )
    b = cli.RunConfig.from_dict(
        {"steps": 5, "seed": 1, "model": {"family": "schnet"}, "dataset": "d"}
    )
    assert cli.config_hash(a) == cli.config_hash(b)
    assert cli.config_hash(a) != cli.config_hash(a.with_seed(2))


def test_config_hash_pinned():
    # hashes already written to metrics files must not drift
    cfg = cli.RunConfig.from_dict(
        {
            "dataset": "data.jsonl",
            "model": {"family": "schnet", "hidden": 16, "layers": 1, "cutoff": 4.0},
            "task": "energy+force",
            "seed": 3,
            "steps": 10,
            "lr_max": 5e-3,
            "lr_min": 1e-4,
            "split": [0.8, 0.1, 0.1],
        }
    )
    assert cli.config_hash(cfg) == "81ac368a8eb1a497ad45d968d1ea35e8fdb490f745f7f7bb08ecaf48f741e588"
    assert cli.config_hash(cfg.with_seed(7)) == "de3d35128c45cfe46fb80aa499e1ff1efbbe107e046aa34d484f9edf6e80b2f7"


def test_split_dataset_partitions_everything():
    confs = tr.synthetic_conformations(10, seed=0, n_atoms=(4, 4))
    train, val, test = cli.split_dataset(confs, (0.8, 0.1, 0.1), seed=5)
    assert len(train) == 8 and len(val) == 1 and len(test) == 1
    ids = sorted(c.id for part in (train, val, test) for c in part)
    assert ids == sorted(c.id for c in confs)
    train2, _, _ = cli.split_dataset(confs, (0.8, 0.1, 0.1), seed=5)
    assert [c.id for c in train] == [c.id for c in train2]


# ---------------------------------------------------------------------------
# train


def test_train_writes_metrics_and_checkpoint(workspace):
    root, cfg, cfg_path = workspace
    out = root / "run_main"
    result = run_cli("train", "--config", str(cfg_path), "--out", str(out))
    assert result.returncode == 0, result.stderr
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["step"]) == 10 and len(metrics["train_loss"]) == 10
    assert metrics["train_loss"][-1] < metrics["train_loss"][0]
    assert set(metrics) >= {
        "step",
        "train_loss",
        "energy_loss",
        "force_loss",
        "lr",
        "grad_norm",
        "graph",
        "val_mae_energy",
        "val_mae_force",
        "wall_seconds",
        "config_hash",
        "version",
    }
    assert_history(metrics, cfg, 10)
    # the weighted energy and force terms sum to the loss of each step
    terms = zip(metrics["energy_loss"], metrics["force_loss"])
    assert [e + f for e, f in terms] == metrics["train_loss"]
    assert min(metrics["energy_loss"]) > 0.0 and min(metrics["force_loss"]) > 0.0
    train, _, _ = cli.split_dataset(load_dataset(cfg["dataset"]), cfg["split"], cfg["seed"])
    assert metrics["graph"] == brute_force_graph(train, 4.0, angles=False)
    assert (out / "checkpoint.json").exists()
    # progress went to stderr, artifact paths to stdout
    assert "loss" in result.stderr
    assert "metrics.json" in result.stdout


def test_train_on_a_periodic_pair_at_the_cutoff_exits_0(tmp_path):
    # the graph builder measures the atom's own image within the 3.6 cutoff,
    # and the forward, from the mirror row, a few ulps past it
    cell = Conformation(
        z=[6], pos=[[2.686, 1.293, 0.314]], lattice=3.6 * np.eye(3), energy=-1.0, forces=np.zeros((1, 3))
    )
    save_dataset(tmp_path / "cell.jsonl", [cell, cell])
    cfg = {
        "dataset": str(tmp_path / "cell.jsonl"),
        "model": {"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 3.6},
        "steps": 2,
        "split": [0.5, 0.5, 0.0],
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    result = run_cli("train", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run"))
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "run" / "checkpoint.json").exists()


def test_train_is_deterministic_modulo_wall_time(workspace):
    root, cfg, cfg_path = workspace
    out_a, out_b = root / "det_a", root / "det_b"
    for out in (out_a, out_b):
        result = run_cli("train", "--config", str(cfg_path), "--out", str(out))
        assert result.returncode == 0, result.stderr
    assert canonical_metrics(out_a / "metrics.json") == canonical_metrics(out_b / "metrics.json")


def test_geom_seed_env_overrides_config(workspace):
    root, cfg, cfg_path = workspace
    out = root / "seed_override"
    result = run_cli(
        "train", "--config", str(cfg_path), "--out", str(out), env_extra={"GEOM_SEED": "7"}
    )
    assert result.returncode == 0, result.stderr
    metrics = json.loads((out / "metrics.json").read_text())
    base = json.loads((root / "run_main" / "metrics.json").read_text())
    assert metrics["train_loss"] != base["train_loss"]
    expected = cli.config_hash(cli.RunConfig.from_dict(cfg).with_seed(7))
    assert metrics["config_hash"] == expected
    for raw in ("x", "-1"):
        bad = run_cli(
            "train", "--config", str(cfg_path), "--out", str(out), env_extra={"GEOM_SEED": raw}
        )
        assert_config_error(bad)
        bad = run_cli("check-equiv", "--config", str(cfg_path), "--trials", "1", env_extra={"GEOM_SEED": raw})
        assert_config_error(bad)
        assert "GEOM_SEED" in bad.stderr
    # a negative seed reached numpy's generators and ended in a traceback
    assert_config_error(run_cli("check-equiv", "--config", str(cfg_path), "--trials", "1", "--seed", "-3"))


def test_missing_files_exit_2_with_path(workspace):
    root, cfg, cfg_path = workspace
    gone = root / "not_there.json"
    result = run_cli("train", "--config", str(gone), "--out", str(root / "x"))
    assert result.returncode == 2 and str(gone) in result.stderr
    bad_cfg = dict(cfg, dataset=str(root / "no_data.jsonl"))
    bad_path = root / "cfg_missing_data.json"
    bad_path.write_text(json.dumps(bad_cfg))
    result = run_cli("train", "--config", str(bad_path), "--out", str(root / "x"))
    assert result.returncode == 2 and "no_data.jsonl" in result.stderr


@pytest.mark.parametrize("command", ["train", "eval", "build-graph", "check-equiv"])
def test_directory_as_file_argument_exits_2(workspace, command, tmp_path):
    root, _, cfg_path = workspace
    args = {
        "train": ["--config", str(tmp_path), "--out", str(root / "x")],
        "eval": ["--config", str(cfg_path), "--checkpoint", str(tmp_path)],
        "build-graph": ["--input", str(tmp_path), "--output", str(root / "x.jsonl"), "--cutoff", "3.0"],
        "check-equiv": ["--config", str(tmp_path), "--trials", "1"],
    }[command]
    result = run_cli(command, *args)
    assert result.returncode == 2, result.stderr
    assert str(tmp_path) in result.stderr and "Traceback" not in result.stderr


def test_invalid_config_exits_2(workspace):
    root, cfg, _ = workspace
    bad = dict(cfg, split=[0.5, 0.5, 0.5])
    path = root / "cfg_bad_split.json"
    path.write_text(json.dumps(bad))
    result = run_cli("train", "--config", str(path), "--out", str(root / "x"))
    assert result.returncode == 2
    path.write_text("{not json")
    assert run_cli("train", "--config", str(path), "--out", str(root / "x")).returncode == 2


def assert_config_error(result):
    assert result.returncode == 2, result.stderr
    assert "config error" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "change",
    [
        {"model": {"family": "schnet", "hidden": "abc", "layers": 1, "cutoff": 4.0}},
        {"steps": "2"},
        {"split": [0.5, "x", 0.5]},
        {"lr_max": float("nan")},
        {"energy_weight": float("inf")},
        {"seed": -1},
        {"sigma": -1.0},
        # tfn's width is `scalar_channels`; a `hidden` would build the default width
        {"model": {"family": "tfn", "hidden": 64, "layers": 1, "cutoff": 4.0}},
    ],
    ids=[
        "hidden-string",
        "steps-string",
        "split-entry-string",
        "lr-max-nan",
        "energy-weight-inf",
        "seed-negative",
        "sigma-negative",
        "model-key-not-a-field",
    ],
)
def test_train_bad_config_value_exits_2(workspace, change, tmp_path):
    _, cfg, _ = workspace
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, **change)))
    assert_config_error(run_cli("train", "--config", str(path), "--out", str(tmp_path / "x")))


@pytest.mark.parametrize(
    "spoil",
    [
        lambda cfg: dict(cfg, steps=0),
        lambda cfg: dict(cfg, loss="huber"),
        lambda cfg: [cfg],
        lambda cfg: dict(cfg, split=[0, 1, 0]),
        lambda cfg: dict(cfg, model={k: v for k, v in cfg["model"].items() if k != "family"}),
        lambda cfg: dict(cfg, model=dict(cfg["model"], family="gcn")),
    ],
    ids=["steps-zero", "loss-unknown", "config-a-list", "training-split-empty", "family-missing", "family-unknown"],
)
def test_train_refused_config_exits_2(workspace, spoil, tmp_path):
    _, cfg, _ = workspace
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(spoil(cfg)))
    assert_config_error(run_cli("train", "--config", str(path), "--out", str(tmp_path / "x")))


@pytest.mark.parametrize(
    "command,task,label",
    [
        ("train", "energy", "forces"),
        ("train", "energy", "energy"),
        ("train", "energy+force", "forces"),
        ("train", "energy+force", "energy"),
        ("eval", "energy+force", "forces"),
        ("eval", "energy+force", "energy"),
    ],
)
def test_unlabeled_data_exits_2(workspace, tmp_path, command, task, label):
    # records without a label are bad input for either task, named by the
    # first conformation that lacks it
    _, cfg, _ = workspace
    with open(cfg["dataset"]) as fh:
        records = [dict(json.loads(line), **{label: None}) for line in fh]
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in records))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, dataset=str(data), task=task)))
    if command == "train":
        args = ("--out", str(tmp_path / "out"))
    else:
        checkpoint = tmp_path / "checkpoint.json"
        T.save_checkpoint(checkpoint, api.model_from_config(cfg["model"]).init(0))
        args = ("--checkpoint", str(checkpoint))
    result = run_cli(command, "--config", str(path), *args)
    assert_config_error(result)
    assert re.search(rf"conformation \d+ \(syn\d+\) has no {label} label", result.stderr), result.stderr


def test_numeric_blowup_exits_3(workspace):
    root, cfg, _ = workspace
    bad = dict(cfg, lr_max=1e200, lr_min=1e199, steps=12)
    path = root / "cfg_blowup.json"
    path.write_text(json.dumps(bad))
    result = run_cli("train", "--config", str(path), "--out", str(root / "x"))
    assert result.returncode == 3
    assert "numeric" in result.stderr.lower()


def test_numeric_blowup_names_the_op(workspace, tmp_path):
    _, cfg, _ = workspace
    path = tmp_path / "cfg_blowup.json"
    path.write_text(json.dumps(dict(cfg, lr_max=1e200, lr_min=1e199, steps=12)))
    result = run_cli("train", "--config", str(path), "--out", str(tmp_path / "x"))
    assert result.returncode == 3
    assert "non-finite result in op '" in result.stderr and "Traceback" not in result.stderr


# ---------------------------------------------------------------------------
# eval


def test_eval_reports_maes(workspace):
    root, cfg, cfg_path = workspace
    checkpoint = root / "run_main" / "checkpoint.json"
    result = run_cli("eval", "--config", str(cfg_path), "--checkpoint", str(checkpoint))
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["mae_energy"] >= 0.0 and payload["mae_force"] >= 0.0
    assert payload["n_structures"] == 2
    missing = run_cli("eval", "--config", str(cfg_path), "--checkpoint", str(root / "no.json"))
    assert missing.returncode == 2


def _spoil_truncated(text):
    return text[: len(text) // 2]


def _spoil_short_values(text):
    payload = json.loads(text)
    entry = payload["layer0.filter.w0"]
    entry["values"] = entry["values"][:-1]
    return json.dumps(payload)


def _spoil_missing_parameter(text):
    payload = json.loads(text)
    del payload["layer0.filter.w0"]
    return json.dumps(payload)


def _spoil_head_shape(text):
    payload = json.loads(text)
    payload["head.w"] = {"shape": [1, 1], "values": [0.5]}
    return json.dumps(payload)


def _spoil_value(value):
    """A spoiler that writes `value` into one parameter entry, as JSON
    writes it (NaN, Infinity)."""

    def spoil(text):
        payload = json.loads(text)
        payload["layer0.filter.w0"]["values"][3] = value
        return json.dumps(payload)

    return spoil


@pytest.mark.parametrize(
    "spoil,message",
    [
        (_spoil_truncated, "parse error"),
        (_spoil_short_values, "parse error"),
        (_spoil_missing_parameter, "layer0.filter.w0"),
        (_spoil_head_shape, "parameter 'head.w' has shape (1, 1), the model needs (16, 1)"),
        (_spoil_value(math.nan), "parameter 'layer0.filter.w0' has a non-finite value"),
        (_spoil_value(math.inf), "parameter 'layer0.filter.w0' has a non-finite value"),
    ],
    ids=["truncated", "values-short-of-shape", "missing-parameter", "head-shape", "nan-value", "inf-value"],
)
def test_eval_bad_checkpoint_exits_2(workspace, spoil, message, tmp_path):
    _, cfg, cfg_path = workspace
    good = tmp_path / "good.json"
    T.save_checkpoint(good, api.model_from_config(cfg["model"]).init(0))
    bad = tmp_path / "bad.json"
    bad.write_text(spoil(good.read_text()))
    result = run_cli("eval", "--config", str(cfg_path), "--checkpoint", str(bad))
    assert result.returncode == 2, result.stderr
    assert message in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("family,layers", [("tfn", 1), ("se3attn", 2)])
def test_eval_ignores_extra_checkpoint_entries(workspace, tmp_path, family, layers):
    # a checkpoint written while the last layer (tfn's convolution,
    # se3attn's attention values) still had paths into degree 2 carries
    # their weights; eval scores it exactly as it scores the same
    # checkpoint without them
    _, cfg, _ = workspace
    model_cfg = {"family": family, "scalar_channels": 4, "vector_channels": 2, "tensor_channels": 2, "layers": layers, "cutoff": 4.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(cfg, model=model_cfg)))
    model = api.model_from_config(model_cfg)
    params = model.init(cfg["seed"])
    last = layers - 1
    prefix = f"layer{last}." + ("value" if model.spec.attends(last) else "conv")
    older = dataclasses.replace(model.spec.layer_spec(last), layout_out=model.spec.hidden_layout)
    extra = {k: v for k, v in sph.init_tfn_layer(older, np.random.default_rng(0), prefix).items() if k not in params}
    assert f"{prefix}.out2.mix" in extra
    T.save_checkpoint(tmp_path / "new.json", params)
    T.save_checkpoint(tmp_path / "old.json", {**params, **extra})
    new, old = (
        run_cli("eval", "--config", str(cfg_path), "--checkpoint", str(tmp_path / name)) for name in ("new.json", "old.json")
    )
    assert new.returncode == old.returncode == 0, new.stderr + old.stderr
    assert old.stdout == new.stdout


def test_eval_adds_no_layer_for_extra_network_weights(workspace, tmp_path):
    # a network's depth is read from its weights, so entries past the last
    # layer of schnet's filter network must not reach the model
    _, cfg, cfg_path = workspace
    params = api.model_from_config(cfg["model"]).init(cfg["seed"])
    hidden = cfg["model"]["hidden"]
    rng = np.random.default_rng(1)
    extra = {"layer0.filter.w2": rng.normal(size=(hidden, hidden)), "layer0.filter.b2": rng.normal(size=hidden)}
    T.save_checkpoint(tmp_path / "clean.json", params)
    T.save_checkpoint(tmp_path / "extra.json", {**params, **extra})
    clean, padded = (
        run_cli("eval", "--config", str(cfg_path), "--checkpoint", str(tmp_path / name)) for name in ("clean.json", "extra.json")
    )
    assert clean.returncode == padded.returncode == 0, clean.stderr + padded.stderr
    assert padded.stdout == clean.stdout


# ---------------------------------------------------------------------------
# pretrain


def test_pretrain_runs_and_logs(workspace):
    root, cfg, _ = workspace
    pre = dict(cfg, task="type", steps=6, split=[1.0, 0.0, 0.0])
    path = root / "cfg_pre.json"
    path.write_text(json.dumps(pre))
    out = root / "pre_run"
    result = run_cli("pretrain", "--config", str(path), "--out", str(out))
    assert result.returncode == 0, result.stderr
    metrics = json.loads((out / "metrics.json").read_text())
    assert len(metrics["train_loss"]) == 6
    assert metrics["final_loss"] == metrics["train_loss"][-1]
    assert_history(metrics, pre, 6)
    assert "energy_loss" not in metrics and "force_loss" not in metrics
    assert metrics["graph"] == brute_force_graph(load_dataset(cfg["dataset"]), 4.0, angles=False)
    # supervised task through pretrain is a config error
    wrong = run_cli("pretrain", "--config", str(root / "cfg.json"), "--out", str(out))
    assert wrong.returncode == 2


def test_pretrain_angle_graph_counts_triplets(workspace, tmp_path):
    _, cfg, _ = workspace
    pre = dict(cfg, task="angle", steps=2, split=[1.0, 0.0, 0.0])
    path = tmp_path / "cfg_angle.json"
    path.write_text(json.dumps(pre))
    result = run_cli("pretrain", "--config", str(path), "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    graph = brute_force_graph(load_dataset(cfg["dataset"]), 4.0, angles=True)
    assert metrics["graph"] == graph and graph["triplets"] > 0
    assert_history(metrics, pre, 2)


# ---------------------------------------------------------------------------
# check-equiv


def model_cfg(tmp, family):
    path = tmp / f"model_{family}.json"
    path.write_text(json.dumps({"family": family, "hidden": 8, "layers": 1, "cutoff": 4.0}))
    return path


def test_check_equiv_passes_invariant_family(workspace):
    root, _, _ = workspace
    result = run_cli("check-equiv", "--config", str(model_cfg(root, "schnet")), "--trials", "5")
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [l for l in result.stdout.splitlines() if l.startswith("claim=")]
    assert len(lines) == 2
    translation = next(l for l in lines if "translation_energy" in l)
    assert "max_deviation=0.000e+00" in translation


def test_check_equiv_passes_equivariant_family(workspace):
    root, _, _ = workspace
    result = run_cli("check-equiv", "--config", str(model_cfg(root, "painn")), "--trials", "4")
    assert result.returncode == 0, result.stdout + result.stderr
    assert sum(l.startswith("claim=") for l in result.stdout.splitlines()) == 4
    assert "status=ok" in result.stdout and "FAIL" not in result.stdout


def test_check_equiv_flags_coordinate_leak(workspace):
    root, _, _ = workspace
    result = run_cli("check-equiv", "--config", str(model_cfg(root, "leaky")), "--trials", "3")
    assert result.returncode == 1
    assert "FAIL" in result.stdout
    assert "leaky.rotation_energy" in result.stderr


@pytest.mark.parametrize(
    "config",
    [[{"family": "schnet"}], {"family": "schnet", "hidden": "abc"}],
    ids=["json-list", "hidden-string"],
)
def test_check_equiv_config_of_wrong_type_exits_2(config, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    assert_config_error(run_cli("check-equiv", "--config", str(path), "--trials", "1"))


@pytest.mark.parametrize("cutoff", ["NaN", "Infinity", "-1.0"])
@pytest.mark.parametrize("family", ["schnet", "egnn"])
def test_check_equiv_bad_cutoff_exits_2(family, cutoff, tmp_path):
    # a NaN cutoff made check-equiv spin forever drawing a cluster clear of it
    path = tmp_path / "model.json"
    path.write_text(f'{{"family": "{family}", "cutoff": {cutoff}}}')
    assert_config_error(run_cli("check-equiv", "--config", str(path), "--trials", "1", timeout=60))


def _spec_at_defaults(family):
    spec_class = api.FAMILY_TABLE[family].spec
    return spec_class(family=family) if family in ("tfn", "se3attn") else spec_class()


@pytest.mark.parametrize("family", api.FAMILIES)
def test_model_config_defaults_are_the_spec_defaults(family):
    default = _spec_at_defaults(family)
    assert api.model_from_config({"family": family}).spec == default
    # every field spelled out at its default, the cutoff at the top level
    spelled = {"family": family}
    for f in dataclasses.fields(default):
        value = getattr(default, f.name)
        if dataclasses.is_dataclass(value):
            spelled["cutoff"] = value.cutoff
            value = {k: v for k, v in dataclasses.asdict(value).items() if k != "cutoff"}
        spelled[f.name] = value
    model = api.model_from_config(json.loads(json.dumps(spelled)))
    assert model.spec == default
    assert model.cutoff == spelled["cutoff"]


README = Path(__file__).resolve().parents[1] / "README.md"
# "`name` value" or "`name` {`name` value, ...}", as the model-config table writes them
_README_ENTRY = re.compile(r"`(\w+)` (\{[^}]*\}|[^,{}]+)")


def _readme_entries(text):
    return [(k, _readme_entries(v[1:-1]) if v.startswith("{") else v.strip()) for k, v in _README_ENTRY.findall(text)]


def _readme_model_rows():
    """{family: (spec dataclass cell, [(key, default), ...])} from the README's model-config table."""
    lines = README.read_text().splitlines()
    start = lines.index("| family | spec dataclass | keys and defaults |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        families, spec, keys = (cell.strip() for cell in line.strip("|").split("|"))
        for family in re.findall(r"`(\w+)`", families):
            assert family not in rows, f"README lists {family} twice"
            rows[family] = (spec.strip("`"), _readme_entries(keys))
    return rows


def test_readme_model_table_lists_every_spec_field_and_default():
    # the basis's cutoff is the model's, so it appears once, at the top level
    rows = _readme_model_rows()
    assert set(rows) == set(api.FAMILIES)
    for family, (spec_cell, entries) in rows.items():
        default = _spec_at_defaults(family)
        assert spec_cell == f"{type(default).__module__.rsplit('.', 1)[1]}.{type(default).__name__}"
        want = {}
        for f in dataclasses.fields(default):
            value = getattr(default, f.name)
            if dataclasses.is_dataclass(value):
                want["cutoff"] = str(value.cutoff)
                value = {k: str(v) for k, v in dataclasses.asdict(value).items() if k != "cutoff"}
            elif f.name == "family":
                continue
            want[f.name] = value if isinstance(value, dict) else str(value)
        names = [k for k, _ in entries]
        assert len(names) == len(set(names)), f"{family}: a key listed twice"
        got = {k: dict(v) if isinstance(v, list) else v for k, v in entries}
        assert got == want, family


def test_readme_command_lines_use_existing_flags():
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    lines = re.findall(r"^geomnets ([\w-]+)(.*)$", README.read_text(), flags=re.MULTILINE)
    assert {command for command, _ in lines} == set(commands)
    for command, rest in lines:
        for flag in re.findall(r"--[\w-]+", rest):
            assert flag in commands[command]._option_string_actions, f"geomnets {command} has no {flag}"


@pytest.mark.parametrize(
    "config",
    [
        {"family": "tfn", "hidden": 64},
        {"family": "schnet", "hiden": 64},
        {"family": "painn", "basis": {"size": 8}},
        {"family": "dimenet", "basis": {"envelope": "none"}},
        {"family": "egnn", "update_coords": False},
    ],
    ids=["other-family-key", "misspelt", "nested", "removed-envelope", "removed-update-coords"],
)
def test_model_key_not_a_field_is_rejected(config):
    # a stray key used to build a default-sized model without a word
    with pytest.raises(ContractError, match="not fields of"):
        api.model_from_config(config)


@pytest.mark.parametrize("family", [f for f in api.FAMILIES if hasattr(_spec_at_defaults(f), "basis")])
def test_model_basis_cutoff_is_rejected(family):
    # bases and graphs are both cut at the model cutoff; a second one would
    # silently build a different model
    with pytest.raises(ContractError, match="cutoff"):
        api.model_from_config({"family": family, "basis": {"cutoff": 3.0}})


def test_check_equiv_basis_cutoff_exits_2(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"family": "schnet", "basis": {"cutoff": 3.0}}))
    assert_config_error(run_cli("check-equiv", "--config", str(path), "--trials", "1"))


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_equiv_needs_a_trial(workspace, trials):
    root, _, _ = workspace
    result = run_cli("check-equiv", "--config", str(model_cfg(root, "schnet")), "--trials", trials)
    assert_config_error(result)
    assert "--trials" in result.stderr and result.stdout == ""


def _count_forwards(monkeypatch) -> list[str]:
    """Swap every family's forward for one that logs its family's calls."""
    calls = []
    for family, row in api.FAMILY_TABLE.items():

        def counting(*args, _forward=row.forward, _family=family):
            calls.append(_family)
            return _forward(*args)

        monkeypatch.setitem(api.FAMILY_TABLE, family, dataclasses.replace(row, forward=counting))
    return calls


@pytest.mark.parametrize("family", api.FAMILIES)
def test_energy_and_vectors_runs_one_forward(family, monkeypatch):
    calls = _count_forwards(monkeypatch)
    model = api.model_from_config({"family": family, api.FAMILY_TABLE[family].width: 8, "layers": 1, "cutoff": 4.0})
    pos = cli._dyadic_cluster(np.random.default_rng(0), model.cutoff)
    z = np.full(pos.shape[0], 6)
    energy, vectors = cli._energy_and_vectors(model, model.init(0), z, pos)
    assert calls == [family]
    assert math.isfinite(energy) and (vectors is None) == (not model.has_vector_output)


def test_check_equiv_runs_one_forward_per_evaluation(workspace, monkeypatch, capsys):
    # three evaluations per trial (reference, rotated, shifted), one forward each
    root, _, _ = workspace
    calls = _count_forwards(monkeypatch)
    code = cli.main(["check-equiv", "--config", str(model_cfg(root, "painn")), "--trials", "2"])
    assert code == 0, capsys.readouterr().err
    assert calls == ["painn"] * 6


def test_check_equiv_nan_energy_exits_3(workspace, monkeypatch, capsys):
    # a NaN energy is a numeric failure, not a symmetry violation
    root, _, _ = workspace
    run = api.ModelHandle.energy_and_vectors

    def nan_energy(self, *a):
        energy, vectors = run(self, *a)
        return T.log(energy * 0.0 - 1.0), vectors

    monkeypatch.setattr(api.ModelHandle, "energy_and_vectors", nan_energy)
    code = cli.main(["check-equiv", "--config", str(model_cfg(root, "schnet")), "--trials", "1"])
    assert code == 3
    assert "non-finite result in op 'log'" in capsys.readouterr().err


def test_train_overflowing_adam_moment_exits_3(workspace, monkeypatch, capsys, tmp_path):
    # finite gradients above ~1e154 overflow Adam's second moment
    _, _, cfg_path = workspace
    init = api.ModelHandle.init

    def blown_up(self, seed):
        params = init(self, seed)
        params["layer0.filter.w1"] = params["layer0.filter.w1"] * 1e145
        return params

    monkeypatch.setattr(api.ModelHandle, "init", blown_up)
    code = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 3
    assert "non-finite Adam moment or update for parameter '" in capsys.readouterr().err


def test_check_equiv_tolerance_flag(workspace):
    root, _, _ = workspace
    # an absurdly loose tolerance lets even the broken model through
    result = run_cli(
        "check-equiv",
        "--config",
        str(model_cfg(root, "leaky")),
        "--trials",
        "2",
        "--tolerance",
        "1e6",
    )
    assert result.returncode == 0


@pytest.mark.parametrize("tolerance", ["nan", "-0.5"])
def test_check_equiv_rejects_a_bad_tolerance(workspace, tolerance):
    # bad input, not a violation of any claim
    root, _, _ = workspace
    result = run_cli(
        "check-equiv", "--config", str(model_cfg(root, "schnet")), "--trials", "1", "--tolerance", tolerance
    )
    assert_config_error(result)
    assert "--tolerance" in result.stderr and result.stdout == ""


def test_check_equiv_infinite_tolerance_passes(workspace):
    root, _, _ = workspace
    result = run_cli("check-equiv", "--config", str(model_cfg(root, "leaky")), "--trials", "1", "--tolerance", "inf")
    assert result.returncode == 0, result.stderr
    assert "tolerance=inf" in result.stdout


# ---------------------------------------------------------------------------
# build-graph


@pytest.fixture(scope="module")
def structures(tmp_path_factory):
    root = tmp_path_factory.mktemp("graphs")
    lat = np.diag([3.0, 3.0, 3.0])
    confs = [
        Conformation(z=[1, 8], pos=[[0.0, 0, 0], [1.2, 0, 0]], id="mol0"),
        Conformation(z=[11, 17], pos=[[0.0, 0, 0], [1.5, 1.5, 1.5]], lattice=lat, id="salt"),
    ]
    path = root / "structs.jsonl"
    save_dataset(path, confs)
    return root, path


def test_build_graph_molecule_edges(structures):
    root, path = structures
    out = root / "edges.jsonl"
    result = run_cli(
        "build-graph", "--input", str(path), "--output", str(out), "--cutoff", "3.0"
    )
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    mol = [r for r in records if r["id"] == "mol0"]
    assert {(r["src"], r["dst"]) for r in mol} == {(0, 1), (1, 0)}
    for r in mol:
        assert r["dist"] == pytest.approx(1.2, abs=1e-12)
        assert r["shift"] == [0, 0, 0]
    assert any(r["shift"] != [0, 0, 0] for r in records if r["id"] == "salt")


def test_build_graph_deterministic_bytes(structures):
    root, path = structures
    out_a, out_b = root / "a.jsonl", root / "b.jsonl"
    for out in (out_a, out_b):
        assert run_cli(
            "build-graph", "--input", str(path), "--output", str(out), "--cutoff", "3.0"
        ).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_build_graph_modes_agree_as_multisets(structures):
    root, path = structures
    outs = {}
    for mode in ("gathered", "expanded"):
        out = root / f"edges_{mode}.jsonl"
        assert run_cli(
            "build-graph",
            "--input",
            str(path),
            "--output",
            str(out),
            "--cutoff",
            "3.0",
            "--periodic",
            mode,
        ).returncode == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        outs[mode] = sorted(
            (r["id"], r["src"], r["dst"], tuple(r["shift"]), round(r["dist"], 10))
            for r in rows
        )
    assert outs["gathered"] == outs["expanded"]


def test_build_graph_expanded_rows_follow_the_expanded_graph(tmp_path):
    # a skewed cell with one atom written outside it: rows come in the
    # expanded graph's order, each dst is the anchor of its image, and the
    # shift reaches that image from the atoms as written
    lat = np.array([[3.0, 0.0, 0.0], [0.8, 2.9, 0.0], [0.3, 0.4, 3.1]])
    pos = np.array([[0.0, 0.0, 0.0], [1.5, 1.5, 1.5], [4.1, -0.7, 0.9]])
    conf = Conformation(z=[11, 17, 8], pos=pos, lattice=lat, id="skew")
    path, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    save_dataset(path, [conf])
    result = run_cli(
        "build-graph", "--input", str(path), "--output", str(out), "--cutoff", "3.0", "--periodic", "expanded"
    )
    assert result.returncode == 0, result.stderr
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    graph = periodic_radius_graph(conf, 3.0, "expanded")
    assert [r["src"] for r in rows] == graph.edges.src.tolist()
    assert [r["dst"] for r in rows] == graph.image_of[graph.edges.dst].tolist()
    assert [r["dist"] for r in rows] == graph.edges.dist.tolist()
    assert any(r["shift"] != [0, 0, 0] for r in rows)
    for r in rows:
        rel = pos[r["dst"]] + np.array(r["shift"]) @ lat - pos[r["src"]]
        assert abs(np.linalg.norm(rel) - r["dist"]) <= 1e-12


@pytest.mark.parametrize("command", ["build-graph", "train"])
def test_a_cutoff_past_the_periodic_image_cap_exits_2(command, tmp_path):
    # 1e308 over a 3 A cell would need infinitely many images
    salt = Conformation(
        z=[11, 17], pos=[[0.0, 0, 0], [1.5, 1.5, 1.5]], lattice=np.eye(3) * 3.0, energy=-1.0, forces=np.zeros((2, 3))
    )
    data = tmp_path / "salt.jsonl"
    save_dataset(data, [salt] * 4)
    if command == "build-graph":
        args = ["--input", str(data), "--output", str(tmp_path / "o.jsonl"), "--cutoff", "1e308"]
    else:
        cfg = {"dataset": str(data), "model": {"family": "schnet", "hidden": 8, "layers": 1, "cutoff": 1e308}}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        args = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run")]
    result = run_cli(command, *args)
    assert result.returncode == 2
    assert "periodic images" in result.stderr and "Traceback" not in result.stderr


def build_graph_within(limit, data, cutoff, mode):
    """`build-graph` on `data` in a child process whose address space is
    capped at `limit` bytes, with BLAS on one thread."""
    env = dict(os.environ, PYTHONWARNINGS="ignore", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = ["--input", str(data), "--output", str(data.parent / "o.jsonl"), "--cutoff", str(cutoff), "--periodic", mode]
    return subprocess.run(
        [sys.executable, "-m", "geomnets", "build-graph", *argv],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_a_cutoff_past_the_candidate_pair_cap_exits_2_within_2_gb(tmp_path):
    # a 64-atom benchmark crystal at cutoff 150: its 3.2e6 images pass the
    # image cap, but they give 1.7e8 candidate pairs, whose per-pair arrays
    # would take several GB (their shift ranges alone show 2.2e7, which is
    # refused before the images exist); the child runs under a 2 GB
    # address-space limit
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    )
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    data = tmp_path / "crystal.jsonl"
    save_dataset(data, [inputs.crystal(np.random.default_rng(0), 64)])
    for mode in ("gathered", "expanded"):
        result = build_graph_within(2 << 30, data, 150.0, mode)
        assert result.returncode == 2
        count = re.search(r"gives (\d+) candidate pairs", result.stderr)
        assert count and int(count.group(1)) > 2**24 and "Traceback" not in result.stderr


def test_a_cutoff_at_the_periodic_image_cap_exits_2_within_1_gb(tmp_path):
    # the 2-atom 3 A cell at cutoff 303 needs shifts out to 101 cells, the
    # most the image cap admits: its 1.7e7 images would take over a GB
    # before the candidate pairs they give were counted
    salt = Conformation(z=[11, 17], pos=[[0.0, 0, 0], [1.5, 1.5, 1.5]], lattice=np.eye(3) * 3.0)
    data = tmp_path / "salt.jsonl"
    save_dataset(data, [salt])
    for mode in ("gathered", "expanded"):
        result = build_graph_within(1 << 30, data, 303.0, mode)
        assert result.returncode == 2
        assert "candidate pairs" in result.stderr and "Traceback" not in result.stderr


def test_build_graph_parse_error_names_line(structures):
    root, _ = structures
    bad = root / "broken.jsonl"
    bad.write_text('{"id":"x","z":[1],"pos":[[0,0,0]]}\nnot json at all\n')
    result = run_cli(
        "build-graph", "--input", str(bad), "--output", str(root / "o.jsonl"), "--cutoff", "3.0"
    )
    assert result.returncode == 2
    assert "line 2" in result.stderr


@pytest.mark.parametrize(
    "fault",
    [
        {"z": [1, "x"]},
        {"z": [1, True]},
        {"pos": [[0, 0, 0], [1, 0]]},
        {"lattice": [[3, 0, 0], [0, 3, 0], [0, 0, "q"]]},
        {"energy": "low"},
        {"forces": [[0, 0, 0], [0, 0]]},
    ],
    ids=["z-string", "z-bool", "pos-ragged", "lattice-string", "energy-string", "forces-ragged"],
)
def test_build_graph_malformed_record_exits_2(fault, tmp_path):
    record = dict({"id": "m", "z": [1, 8], "pos": [[0, 0, 0], [1.2, 0, 0]]}, **fault)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    result = run_cli(
        "build-graph", "--input", str(path), "--output", str(tmp_path / "o.jsonl"), "--cutoff", "3.0"
    )
    assert result.returncode == 2
    assert "line 1" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("cutoff", ["inf", "nan"])
@pytest.mark.parametrize("kind", ["molecule", "crystal"])
def test_build_graph_nonfinite_cutoff_exits_2(structures, cutoff, kind, tmp_path):
    # a non-finite cutoff is bad input for open and periodic graphs alike
    _, path = structures
    lines = path.read_text().splitlines()
    single = tmp_path / "one.jsonl"
    single.write_text(lines[0 if kind == "molecule" else 1] + "\n")
    result = run_cli(
        "build-graph", "--input", str(single), "--output", str(tmp_path / "o.jsonl"), "--cutoff", cutoff
    )
    assert result.returncode == 2
    assert "cutoff" in result.stderr and "Traceback" not in result.stderr


def test_unknown_command_exits_2():
    assert run_cli("explode").returncode == 2
