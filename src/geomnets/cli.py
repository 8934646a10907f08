"""Command-line front end.

Commands: train, eval, pretrain, check-equiv, build-graph.
Exit codes: 0 success, 1 property violation, 2 usage or config error,
3 numeric failure.  Progress goes to stderr, artifacts to files; the
GEOM_SEED environment variable overrides the config seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import training as tr
from .errors import ContractError, NumericError, ParseError
from .geometry import Conformation, load_dataset, periodic_radius_graph, radius_graph
from .models import api
from .so3 import random_rotation
from . import tensor as T

ARTIFACT_VERSION = 1
SUPERVISED_TASKS = ("energy", "energy+force")
_FIELD_TYPES = {"str": str, "dict": dict, "int": int, "float": float, "bool": bool}


# ---------------------------------------------------------------------------
# run configuration


def _read_json(path: str):
    """The JSON value in the config file at `path`."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ContractError(f"config {path} is not valid JSON: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """One experiment: data, model, objective, optimization, bookkeeping."""

    dataset: str
    model: dict
    task: str = "energy+force"
    seed: int = 0
    steps: int = 100
    lr_max: float = 1e-3
    lr_min: float = 1e-5
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    normalize: bool = False
    loss: str = "mse"
    energy_weight: float = 1.0
    force_weight: float = 1.0
    sigma: float = 0.04
    temperature: float = 0.1

    def __post_init__(self):
        if self.task not in SUPERVISED_TASKS + tr.PRETRAIN_KINDS:
            raise ContractError(f"unknown task '{self.task}'")
        if self.steps < 1:
            raise ContractError("steps must be positive")
        if len(self.split) != 3 or any(f < 0 for f in self.split):
            raise ContractError("split needs three non-negative fractions")
        if abs(sum(self.split) - 1.0) > 1e-9:
            raise ContractError(f"split fractions sum to {sum(self.split)}, not 1")
        if self.loss not in ("mse", "mae"):
            raise ContractError(f"unknown loss '{self.loss}'")
        if self.seed < 0:  # numpy's generators take non-negative seeds only
            raise ContractError(f"config 'seed' must be non-negative, got {self.seed}")
        if self.sigma < 0:
            raise ContractError(f"config 'sigma' must be non-negative, got {self.sigma}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ContractError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ContractError(f"unknown config keys: {sorted(unknown)}")
        if "dataset" not in raw or "model" not in raw:
            raise ContractError("config needs 'dataset' and 'model' entries")
        kw = dict(raw)
        for f in fields(cls):
            if f.name in kw and f.name != "split":
                api.check_json_type(kw[f.name], _FIELD_TYPES[f.type], f"config '{f.name}'")
        if "split" in kw:
            split = api.check_json_type(kw["split"], list, "config 'split'")
            kw["split"] = tuple(float(api.check_json_type(f, float, "config 'split' entry")) for f in split)
        return cls(**kw)

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls.from_dict(_read_json(path))

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    def canonical(self) -> dict:
        out = asdict(self)
        out["split"] = list(self.split)
        return out


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _env_seed(default: int) -> int:
    """The GEOM_SEED environment variable as an integer, else `default`;
    either must be non-negative, as numpy's generators need."""
    raw = os.environ.get("GEOM_SEED")
    try:
        seed = default if raw is None else int(raw)
    except ValueError as exc:
        raise ContractError(f"GEOM_SEED must be an integer, got '{raw}'") from exc
    if seed < 0:
        raise ContractError(f"{'seed' if raw is None else 'GEOM_SEED'} must be non-negative, got {seed}")
    return seed


def apply_seed_override(cfg: RunConfig) -> RunConfig:
    return cfg.with_seed(_env_seed(cfg.seed))


def split_dataset(confs, fractions, seed):
    """Deterministic shuffled train/val/test split."""
    order = np.random.default_rng(seed).permutation(len(confs))
    n_train = int(round(fractions[0] * len(confs)))
    n_val = min(int(round(fractions[1] * len(confs))), len(confs) - n_train)
    picks = [order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]]
    return tuple([confs[i] for i in part] for part in picks)


# ---------------------------------------------------------------------------
# shared output helpers


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _progress(steps: int):
    every = max(1, steps // 10)

    def emit(step: int, value: float) -> None:
        if step % every == 0 or step == steps - 1:
            print(f"step {step} loss {value:.6g}", file=sys.stderr)

    return emit


def _write_run(out: str, cfg: RunConfig, params: dict, history: dict, started: float, extra: dict) -> int:
    """metrics.json (the history, the config hash and `extra`) and
    checkpoint.json under `out`; prints the metrics path."""
    os.makedirs(out, exist_ok=True)
    metrics = {"version": ARTIFACT_VERSION, "config_hash": config_hash(cfg)}
    keys = ("step", "train_loss", "energy_loss", "force_loss", "lr", "grad_norm", "graph")
    metrics.update({key: history[key] for key in keys if key in history})
    metrics.update(extra, wall_seconds=time.perf_counter() - started)
    _write_json(os.path.join(out, "metrics.json"), metrics)
    T.save_checkpoint(os.path.join(out, "checkpoint.json"), params)
    print(os.path.join(out, "metrics.json"))
    return 0


# ---------------------------------------------------------------------------
# train / eval / pretrain


def _run_setup(path: str, tasks: tuple, refusal: str, needs_train: bool):
    """The config at `path` with GEOM_SEED applied, its dataset, the dataset's
    (train, val, test) split and the model. A task outside `tasks` is a
    ContractError reading `refusal`; so is an empty training split when
    `needs_train`, found before the model is built."""
    cfg = apply_seed_override(RunConfig.from_file(path))
    if cfg.task not in tasks:
        raise ContractError(f"{refusal}, not '{cfg.task}'")
    confs = load_dataset(cfg.dataset)
    parts = split_dataset(confs, cfg.split, cfg.seed)
    if needs_train and not parts[0]:
        raise ContractError("training split is empty")
    return cfg, confs, parts, api.model_from_config(cfg.model)


def cmd_train(args) -> int:
    cfg, _, (train, val, _), model = _run_setup(args.config, SUPERVISED_TASKS, "train handles supervised tasks", True)
    stats = tr.stats_from_conformations(train) if cfg.normalize else None
    weights = tr.LossWeights(
        cfg.energy_weight, 0.0 if cfg.task == "energy" else cfg.force_weight
    )
    schedule = tr.ScheduleSpec(cfg.lr_max, cfg.lr_min, cfg.steps)
    started = time.perf_counter()
    params, history = tr.train_energy_force(
        model,
        train,
        schedule,
        seed=cfg.seed,
        weights=weights,
        reduction=cfg.loss,
        stats=stats,
        steps=cfg.steps,
        progress=_progress(cfg.steps),
    )
    held_out = val if val else train
    scores = tr.evaluate_energy_force(model, params, held_out, stats)
    extra = {"val_mae_energy": scores["mae_energy"], "val_mae_force": scores["mae_force"]}
    return _write_run(args.out, cfg, params, history, started, extra)


def cmd_eval(args) -> int:
    cfg, confs, (train, _, test), model = _run_setup(args.config, SUPERVISED_TASKS, "eval handles supervised tasks", False)
    held_out = test if test else confs
    params = _checkpoint_params(T.load_checkpoint(args.checkpoint), model.init(cfg.seed), args.checkpoint)
    stats = tr.stats_from_conformations(train) if cfg.normalize else None
    scores = tr.evaluate_energy_force(model, params, held_out, stats)
    payload = {
        "config_hash": config_hash(cfg),
        "mae_energy": scores["mae_energy"],
        "mae_force": scores["mae_force"],
        "n_structures": len(held_out),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _checkpoint_params(params: dict, expected: dict, path: str) -> dict:
    """The parameters the model needs, each checked present with its shape.
    Extra entries (a pretext head, say) are left out: a dense network's
    depth is read from its weights, so a stray layer would be run."""
    missing = sorted(set(expected) - set(params))
    if missing:
        raise ContractError(f"checkpoint {path} lacks parameters {missing}")
    for name, arr in expected.items():
        if params[name].shape != arr.shape:
            raise ContractError(
                f"checkpoint {path}: parameter '{name}' has shape {params[name].shape}, the model needs {arr.shape}"
            )
    return {name: params[name] for name in expected}


def cmd_pretrain(args) -> int:
    cfg, _, (train, _, _), model = _run_setup(args.config, tr.PRETRAIN_KINDS, "pretrain needs a self-supervised task", True)
    schedule = tr.ScheduleSpec(cfg.lr_max, cfg.lr_min, cfg.steps)
    started = time.perf_counter()
    params, history = tr.train_pretrain(
        model,
        cfg.task,
        train,
        schedule,
        seed=cfg.seed,
        steps=cfg.steps,
        sigma=cfg.sigma,
        temperature=cfg.temperature,
        progress=_progress(cfg.steps),
    )
    return _write_run(args.out, cfg, params, history, started, {"final_loss": history["train_loss"][-1]})


# ---------------------------------------------------------------------------
# equivariance audit


def _dyadic_cluster(rng: np.random.Generator, cutoff: float) -> np.ndarray:
    """Positions on the 1/8 grid, well separated and clear of the cutoff."""
    n = int(rng.integers(4, 8))
    while True:
        pos = rng.integers(0, 25, (n, 3)) / 8.0
        dist = np.sqrt(np.square(pos[:, None] - pos[None]).sum(axis=-1))
        off = dist[~np.eye(n, dtype=bool)]
        if off.min() >= 0.9 and np.abs(off - cutoff).min() > 1e-6:
            return pos


def _energy_and_vectors(model, params, z, pos):
    from .models.common import build_batch

    conf = Conformation(z=z, pos=pos)
    batch = build_batch([conf], model.cutoff, model.needs_angles)

    def run(_tape):  # evaluated without a tape; checked for finite values
        params_t = T.lift(params)
        pos_t = T.Tensor(batch.pos)
        return model.energy_and_vectors(params_t, batch, pos_t)

    _, (energy, vectors) = T.checked(run)
    return float(energy.data.sum()), None if vectors is None else vectors.data


def equivariance_claims(model, params, trials: int, seed: int) -> list[dict]:
    """Max deviations over random trials for every symmetry the family claims."""
    rng = np.random.default_rng(seed)
    vectors = model.has_vector_output
    tol = 1e-8 if vectors else 1e-10
    quantities = ("energy", "vectors") if vectors else ("energy",)
    dev = {f"{motion}_{q}": 0.0 for q in quantities for motion in ("rotation", "translation")}
    for _ in range(trials):
        pos = _dyadic_cluster(rng, model.cutoff)
        z = rng.integers(1, 10, pos.shape[0])
        rot = random_rotation(int(rng.integers(2**31)))
        shift = rng.integers(-16, 17, 3) / 8.0
        e0, v0 = _energy_and_vectors(model, params, z, pos)
        # each motion moves the positions, and the vectors by its linear part alone
        for motion, moved, linear in (("rotation", pos @ rot.T, rot), ("translation", pos + shift, None)):
            e, v = _energy_and_vectors(model, params, z, moved)
            dev[f"{motion}_energy"] = max(dev[f"{motion}_energy"], abs(e - e0))
            if vectors:
                expected = v0 if linear is None else v0 @ linear.T
                dev[f"{motion}_vectors"] = max(dev[f"{motion}_vectors"], np.abs(v - expected).max())
    return [
        {"claim": name, "max_deviation": value, "tolerance": 0.0 if name == "translation_energy" and not vectors else tol}
        for name, value in dev.items()
    ]


def cmd_check_equiv(args) -> int:
    if args.trials < 1:
        raise ContractError(f"--trials must be at least 1, got {args.trials}")
    if args.tolerance is not None and not args.tolerance >= 0:  # NaN fails the comparison
        raise ContractError(f"--tolerance must be a non-negative number, got {args.tolerance}")
    raw = _read_json(args.config)
    model_cfg = raw.get("model", raw) if isinstance(raw, dict) else raw
    model = api.model_from_config(model_cfg)
    seed = _env_seed(args.seed)
    params = model.init(seed)
    claims = equivariance_claims(model, params, args.trials, seed)
    failures = []
    for item in claims:
        tol = item["tolerance"] if args.tolerance is None else max(
            args.tolerance, item["tolerance"]
        )
        ok = item["max_deviation"] <= tol
        print(
            f"claim={model.family}.{item['claim']} "
            f"max_deviation={item['max_deviation']:.3e} tolerance={tol:.1e} "
            f"status={'ok' if ok else 'FAIL'}"
        )
        if not ok:
            failures.append(f"{model.family}.{item['claim']}")
    if failures:
        print(f"equivariance violation: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# graph construction


def _edge_records(conf: Conformation, cutoff: float, mode: str):
    if conf.lattice is None or mode == "gathered":
        edges = radius_graph(conf.pos, cutoff) if conf.lattice is None else periodic_radius_graph(conf, cutoff, mode)
        dst, shift = edges.dst, edges.shift
    else:
        graph = periodic_radius_graph(conf, cutoff, "expanded")
        edges, node_shift = graph.edges, graph.node_shift
        # the image of each dst atom as written, seen from its src atom as written
        dst, shift = graph.image_of[edges.dst], node_shift[edges.dst] - node_shift[edges.src]
    for k in range(edges.src.size):
        yield {
            "id": conf.id,
            "src": int(edges.src[k]),
            "dst": int(dst[k]),
            "dist": float(edges.dist[k]),
            "shift": shift[k].tolist(),
        }


def cmd_build_graph(args) -> int:
    confs = load_dataset(args.input)
    with open(args.output, "w") as fh:
        for conf in confs:
            for record in _edge_records(conf, args.cutoff, args.periodic):
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
                fh.write("\n")
    print(args.output)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomnets", description="geometric model training and auditing"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model on labeled conformations")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=".")
    p_train.set_defaults(handler=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on the held-out split")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.set_defaults(handler=cmd_eval)

    p_pre = sub.add_parser("pretrain", help="run a self-supervised objective")
    p_pre.add_argument("--config", required=True)
    p_pre.add_argument("--out", default=".")
    p_pre.set_defaults(handler=cmd_pretrain)

    p_chk = sub.add_parser("check-equiv", help="audit symmetry claims of a model")
    p_chk.add_argument("--config", required=True)
    p_chk.add_argument("--trials", type=int, default=50)
    p_chk.add_argument("--tolerance", type=float, default=None)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.set_defaults(handler=cmd_check_equiv)

    p_bg = sub.add_parser("build-graph", help="emit cutoff edges as jsonl")
    p_bg.add_argument("--input", required=True)
    p_bg.add_argument("--output", required=True)
    p_bg.add_argument("--cutoff", type=float, required=True)
    p_bg.add_argument("--periodic", choices=("gathered", "expanded"), default="gathered")
    p_bg.set_defaults(handler=cmd_build_graph)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
