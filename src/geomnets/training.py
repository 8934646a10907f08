"""Supervised and self-supervised training on conformations.

Forces always come from the energy head by differentiation, so every model
family trains through the same loop: lift parameters onto a tape,
differentiate the predicted energy by the coordinates for forces, then
differentiate the combined loss for the parameter update. Coordinates are
watched only where forces are taken (`_predict`); a zero force weight and
every pretext read them off the tape, so their position-only geometry is
never recorded. Parameters are watched only where their gradient is taken,
in a training step: the first-order calls (`force_from_energy`,
`evaluate_energy_force`) read them off the tape, so work on parameters
alone records nothing and no record keeps an activation for a weight's
gradient. Only the force backward inside a loss is recorded; every
outermost backward runs unrecorded, last on its tape, and each caller
releases its tape before it returns.

Each training step, energy-and-force call and evaluation runs through
`tensor.checked`: its loss and parameter gradients, or its energies and
forces, are checked for finite values, and a failure is replayed to raise a
NumericError that names the op and the layer (`layer{i}` / `block{i}`)
that first went non-finite. A step is deterministic in the parameters and
the step number, so the replay recomputes the same values. The history of
a run holds, per step, the loss (for energy+force training also its
weighted energy and force terms), the learning rate and the global L2 norm
of the parameter gradient, and the statistics of the graph batch it built.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError
from .geometry import Conformation
from .models.common import GraphBatch, build_batch, graph_stats
from .tensor import Tensor


# ---------------------------------------------------------------------------
# forces from the energy head


def force_from_energy(model, params: dict[str, np.ndarray], conf: Conformation):
    """Energy and forces for one conformation.

    `model` only needs `.energy(params, batch, pos) -> (G,)`, `.cutoff`, and
    `.needs_angles`, so test doubles work alongside real handles.  Forces are
    the negative coordinate gradient of the summed energy.
    """
    energy, forces = _checked_prediction(model, params, [conf], None)
    return float(energy.sum()), forces


# ---------------------------------------------------------------------------
# target normalization


@dataclass(frozen=True)
class NormalizationStats:
    """Affine output calibration: scale by the mean absolute force component
    and shift by the per-atom mean energy times the atom count."""

    energy_mean: float
    force_mean: float

    def __post_init__(self):
        if self.force_mean == 0.0:
            raise ContractError("force_mean must be nonzero to be invertible")


def stats_from_conformations(confs: Sequence[Conformation]) -> NormalizationStats:
    energies, n_atoms, comps = [], [], []
    for c in confs:
        if c.energy is None or c.forces is None:
            raise ContractError("normalization stats need labeled conformations")
        energies.append(c.energy)
        n_atoms.append(c.z.size)
        comps.append(np.abs(c.forces).ravel())
    em = float(np.sum(energies) / np.sum(n_atoms))
    fm = float(np.mean(np.concatenate(comps)))
    return NormalizationStats(energy_mean=em, force_mean=fm)


def apply_normalization(y, stats: NormalizationStats, n_atoms):
    """Model output -> physical energy.  Works on floats, arrays, Tensors."""
    return y * stats.force_mean + stats.energy_mean * n_atoms


# ---------------------------------------------------------------------------
# loss


@dataclass(frozen=True)
class LossWeights:
    energy: float = 1.0
    force: float = 1.0

    def __post_init__(self):
        if self.energy < 0 or self.force < 0:
            raise ContractError("loss weights must be non-negative")
        if self.energy == 0 and self.force == 0:
            raise ContractError("at least one loss weight must be positive")


def _reduce(diff: Tensor, reduction: str) -> Tensor:
    if reduction == "mse":
        return T.mean(diff * diff)
    if reduction == "mae":
        return T.mean(diff * Tensor(np.sign(diff.data)))
    raise ContractError(f"unknown reduction '{reduction}'")


def energy_force_loss(
    pred_energy: Tensor,
    true_energy: Tensor,
    pred_forces: Tensor,
    true_forces: Tensor,
    weights: LossWeights = LossWeights(),
    reduction: str = "mse",
    terms: dict | None = None,
) -> Tensor:
    """Weighted sum of an energy term (mean over graphs) and a force term
    (mean over all force components). A `terms` dict receives the two
    weighted terms, which sum to the loss, as "energy_loss" and
    "force_loss"."""
    loss_e = _reduce(pred_energy - true_energy, reduction)
    loss_f = _reduce(pred_forces - true_forces, reduction)
    term_e, term_f = loss_e * weights.energy, loss_f * weights.force
    if terms is not None:
        terms.update(energy_loss=term_e, force_loss=term_f)
    return term_e + term_f


# ---------------------------------------------------------------------------
# optimizer and schedule


@dataclass(frozen=True)
class ScheduleSpec:
    """Half-cosine decay from lr_max at step 0 to lr_min at total_steps."""

    lr_max: float = 1e-3
    lr_min: float = 0.0
    total_steps: int = 1000

    def __post_init__(self):
        if self.lr_max <= 0 or self.lr_min < 0 or self.lr_min > self.lr_max:
            raise ContractError("need lr_max >= lr_min >= 0 and lr_max > 0")
        if self.total_steps < 1:
            raise ContractError("total_steps must be positive")


def cosine_lr(schedule: ScheduleSpec, step: int) -> float:
    t = min(max(step, 0), schedule.total_steps) / schedule.total_steps
    return schedule.lr_min + 0.5 * (schedule.lr_max - schedule.lr_min) * (1.0 + np.cos(np.pi * t))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam moments with bias correction."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def create(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def adam_step(
    state: OptimizerState,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
) -> dict[str, np.ndarray]:
    """One update; mutates `state`, returns fresh parameter arrays.

    A finite gradient above ~1e154 overflows the second moment, which would
    silently zero that parameter's update; a non-finite moment or updated
    parameter raises a NumericError naming the parameter instead."""
    state.step += 1
    t = state.step
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for key, p in params.items():
            g = grads[key]
            state.m[key] = ADAM_BETA1 * state.m[key] + (1.0 - ADAM_BETA1) * g
            state.v[key] = ADAM_BETA2 * state.v[key] + (1.0 - ADAM_BETA2) * g * g
            m_hat = state.m[key] / (1.0 - ADAM_BETA1**t)
            v_hat = state.v[key] / (1.0 - ADAM_BETA2**t)
            out[key] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            if not all(np.isfinite(a).all() for a in (state.m[key], state.v[key], out[key])):
                raise NumericError(f"non-finite Adam moment or update for parameter '{key}' at step {t}")
    return out


# ---------------------------------------------------------------------------
# synthetic labeled data


def pairwise_potential(pos: np.ndarray, depth=1.0, width=1.5, r0=1.2):
    """Morse-style pair potential with analytic forces.

    E = sum_{i<j} depth * ((1 - exp(-width (d - r0)))^2 - 1)
    """
    n = pos.shape[0]
    energy = 0.0
    forces = np.zeros_like(pos)
    for i in range(n):
        for j in range(i + 1, n):
            rij = pos[i] - pos[j]
            d = np.linalg.norm(rij)
            ex = np.exp(-width * (d - r0))
            energy += depth * ((1.0 - ex) ** 2 - 1.0)
            dEdd = 2.0 * depth * width * (1.0 - ex) * ex
            f = -dEdd * rij / d
            forces[i] += f
            forces[j] -= f
    return energy, forces


def synthetic_conformations(
    count: int,
    seed: int,
    n_atoms: tuple[int, int] = (6, 10),
    min_dist: float = 0.9,
    z_max: int = 9,
) -> list[Conformation]:
    """Random clusters labeled with the analytic pair potential."""
    rng = np.random.default_rng(seed)
    confs = []
    for idx in range(count):
        n = int(rng.integers(n_atoms[0], n_atoms[1] + 1))
        side = 2.2 * n ** (1.0 / 3.0)
        pos = np.zeros((n, 3))
        placed = 0
        while placed < n:
            cand = rng.uniform(0.0, side, 3)
            if placed == 0 or np.linalg.norm(pos[:placed] - cand, axis=1).min() >= min_dist:
                pos[placed] = cand
                placed += 1
        z = rng.integers(1, z_max + 1, n)
        energy, forces = pairwise_potential(pos)
        confs.append(Conformation(z=z, pos=pos, energy=energy, forces=forces, id=f"syn{idx}"))
    return confs


# ---------------------------------------------------------------------------
# supervised loop


def _targets(confs: Sequence[Conformation]):
    """Energy (G,) and force (N, 3) labels; ContractError naming the first
    conformation that lacks one."""
    for i, c in enumerate(confs):
        for label in ("energy", "forces"):
            if getattr(c, label) is None:
                raise ContractError(f"conformation {i}{f' ({c.id})' if c.id else ''} has no {label} label")
    e = np.array([c.energy for c in confs], dtype=np.float64)
    f = np.concatenate([c.forces for c in confs], axis=0)
    if not (np.isfinite(e).all() and np.isfinite(f).all()):
        raise ContractError("labels contain NaN or infinite values")
    return e, f


def _energy(model, params_t, batch, pos, stats, n_per_graph):
    """Energies (G,), calibrated when `stats` is given."""
    raw = model.energy(params_t, batch, pos)
    if stats is None:
        return raw
    return apply_normalization(raw, stats, Tensor(n_per_graph.astype(np.float64)))


def _predict(model, params_t, batch, tape, stats, n_per_graph, record):
    """Energies and forces; `record` keeps the force backward on the tape for
    a loss that differentiates the forces again."""
    pos = tape.tensor(batch.pos)
    energy = _energy(model, params_t, batch, pos, stats, n_per_graph)
    (g,) = tape.gradient(T.sum_(energy), [pos], record=record)
    return energy, -g


def _checked_prediction(model, params, confs, stats):
    """Energies (G,) and forces (N, 3) of `confs` as arrays, from one batch
    with the parameters off the tape, checked for finite values."""
    batch = build_batch(confs, model.cutoff, model.needs_angles)
    n_per_graph = None if stats is None else np.bincount(batch.node_graph, minlength=batch.n_graphs)

    def run(tape):
        return _predict(model, T.lift(params), batch, tape, stats, n_per_graph, record=False)

    tape, (energy, forces) = T.checked(run)
    tape.release()
    return energy.data, forces.data


def _global_norm(arrays) -> float:
    """L2 norm over every entry of `arrays`, scaled by the largest magnitude
    so that the sum of squares cannot overflow."""
    top = max((float(np.abs(a).max()) for a in arrays if a.size), default=0.0)
    if top == 0.0:
        return 0.0
    return top * float(np.sqrt(sum(float(np.sum(np.square(a / top))) for a in arrays)))


def _fit(params, loss_fn, schedule: ScheduleSpec, steps: int, stop_loss_ratio, progress):
    """Full-batch Adam on `loss_fn(tape, params_t, step) -> (loss, terms)`,
    the loss a scalar Tensor and `terms` a dict of named scalar Tensors.

    Stops early once the loss falls below stop_loss_ratio times the first
    step's loss.  Returns (params, history) with history carrying parallel
    step, train_loss, lr and grad_norm lists and one list per term.
    """
    state = OptimizerState.create(params)
    history = {"step": [], "train_loss": [], "lr": [], "grad_norm": []}
    keys = sorted(params)
    first_loss = None
    for step in range(steps):

        terms = {}  # the terms sum to the loss, so they are finite when it is

        def run(tape):
            params_t = T.lift(params, tape)
            with T.scope("loss"):  # the model's own scopes win inside
                loss, named = loss_fn(tape, params_t, step)
            terms.update(named)
            return loss, tape.gradient(loss, [params_t[k] for k in keys], record=False)

        tape, (loss, grads) = T.checked(run)
        grads = [g.data for g in grads]
        lr = cosine_lr(schedule, step)
        params = adam_step(state, params, dict(zip(keys, grads)), lr)
        value = float(loss.data)
        history["step"].append(step)
        history["train_loss"].append(value)
        for name, term in terms.items():
            history.setdefault(name, []).append(float(term.data))
        history["lr"].append(float(lr))
        history["grad_norm"].append(_global_norm(grads))
        if progress is not None:
            progress(step, value)
        tape.release()  # after progress, which may still read the tape
        if first_loss is None:
            first_loss = value
        if stop_loss_ratio is not None and value <= stop_loss_ratio * first_loss:
            break
    return params, history


def train_energy_force(
    model,
    confs: Sequence[Conformation],
    schedule: ScheduleSpec,
    seed: int = 0,
    weights: LossWeights = LossWeights(),
    reduction: str = "mse",
    stats: NormalizationStats | None = None,
    steps: int | None = None,
    stop_loss_ratio: float | None = None,
    params: dict[str, np.ndarray] | None = None,
    progress=None,
):
    """Full-batch Adam on energy + force matching; returns (params, history),
    the history with the statistics of the training batch under "graph".

    With a zero force weight a step computes the energy alone: the force
    term would add exact zeros to the loss and its gradient, so the history
    records a force_loss of 0.0 and the parameters come out bitwise the
    same. The labels are checked as for the full loss."""
    if steps is None:
        steps = schedule.total_steps
    batch = build_batch(confs, model.cutoff, model.needs_angles)
    n_per_graph = np.bincount(batch.node_graph, minlength=batch.n_graphs)
    e_true, f_true = _targets(confs)
    e_true_t, f_true_t = Tensor(e_true), Tensor(f_true)
    if params is None:
        params = model.init(seed)

    def loss_fn(tape, params_t, step):
        if weights.force == 0:
            energy = _energy(model, params_t, batch, Tensor(batch.pos), stats, n_per_graph)
            loss = _reduce(energy - e_true_t, reduction) * weights.energy
            return loss, {"energy_loss": loss, "force_loss": Tensor(0.0)}
        energy, forces = _predict(model, params_t, batch, tape, stats, n_per_graph, record=True)
        terms = {}
        return energy_force_loss(energy, e_true_t, forces, f_true_t, weights, reduction, terms), terms

    params, history = _fit(params, loss_fn, schedule, steps, stop_loss_ratio, progress)
    history["graph"] = graph_stats(batch)
    return params, history


def evaluate_energy_force(
    model,
    params: dict[str, np.ndarray],
    confs: Sequence[Conformation],
    stats: NormalizationStats | None = None,
) -> dict[str, float]:
    """Physical-unit mean absolute errors over a labeled set."""
    energy, forces = _checked_prediction(model, params, confs, stats)
    e_true, f_true = _targets(confs)
    return {
        "mae_energy": float(np.mean(np.abs(energy - e_true))),
        "mae_force": float(np.mean(np.abs(forces - f_true))),
    }


# ---------------------------------------------------------------------------
# self-supervised objectives

MASK_FRACTION = 0.15
MASK_TOKEN = 0
N_ELEMENT_CLASSES = 118
PRETRAIN_KINDS = ("type", "distance", "angle", "denoise", "contrastive")
# the head each masked objective reads, by parameter prefix
MASKED_HEADS = {"type": "type_head.", "distance": "dist_head.", "angle": "angle_head."}


def _mask_indices(rng: np.random.Generator, count: int) -> np.ndarray:
    if count == 0:
        raise ContractError("empty mask set: nothing to predict")
    k = max(1, int(round(MASK_FRACTION * count)))
    return np.sort(rng.choice(count, size=k, replace=False))


def _cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    shift = Tensor(np.max(logits.data, axis=1, keepdims=True))
    lse = T.log(T.sum_(T.exp(logits - shift), axis=1)) + T.reshape(shift, (targets.size,))
    onehot = np.zeros(logits.data.shape)
    onehot[np.arange(targets.size), targets] = 1.0
    picked = T.sum_(logits * Tensor(onehot), axis=1)
    return T.mean(lse - picked)


def masked_pretrain_loss(
    kind: str,
    model,
    params_t: dict[str, Tensor],
    batch: GraphBatch,
    pos: Tensor,
    seed: int,
) -> Tensor:
    """Masked-prediction objectives over a batch.

    type:     mask 15% of atoms (at least one) by pointing them at embedding
              row 0, then classify the true element from node features.
    distance: regress the builder's lengths (`GraphBatch.dist`) of a 15% edge
              subset from endpoint features.
    angle:    regress true interior angles of a 15% triplet subset.
    """
    rng = np.random.default_rng(seed)
    if kind == "type":
        masked = _mask_indices(rng, batch.n_nodes)
        z_masked = batch.z.copy()
        z_masked[masked] = MASK_TOKEN
        h = model.node_scalars(params_t, dataclasses.replace(batch, z=z_masked), pos)
        logits = T.matmul(T.gather(h, masked), params_t["type_head.w"])
        return _cross_entropy(logits, batch.z[masked] - 1)
    if kind == "distance":
        picked = _mask_indices(rng, batch.n_edges)
        atoms = (batch.src[picked], batch.dst[picked])
        target, head = batch.dist[picked], "dist_head"
    elif kind == "angle":
        if batch.angles is None:
            raise ContractError("angle pretraining needs a batch built with angles")
        picked = _mask_indices(rng, batch.angles.n_triplets)
        out_e, in_e = batch.angles.out_edge[picked], batch.angles.in_edge[picked]
        atoms = (batch.dst[out_e], batch.src[out_e], batch.dst[in_e])
        target, head = batch.angles.angle[picked], "angle_head"
    else:
        raise ContractError(f"unknown masked pretraining kind '{kind}'")
    h = model.node_scalars(params_t, batch, pos)
    pred = T.mlp_apply(params_t, T.concat([T.gather(h, a) for a in atoms], axis=1), head)
    return _reduce(pred - Tensor(target[:, None]), "mse")


def init_pretrain_heads(model, seed: int) -> dict[str, np.ndarray]:
    """Heads for the masked objectives, keyed apart from the trunk, drawn
    in one order so that each has the same values whichever one is kept."""
    rng = np.random.default_rng(seed)
    d = model.scalar_width
    params = {"type_head.w": T.glorot_uniform(rng, d, N_ELEMENT_CLASSES)}
    params.update(T.init_mlp((2 * d, d, 1), rng, "dist_head"))
    params.update(T.init_mlp((3 * d, d, 1), rng, "angle_head"))
    return params


def denoise_pretrain_loss(
    model,
    params_t: dict[str, Tensor],
    batch: GraphBatch,
    pos: Tensor,
    noise: np.ndarray,
) -> Tensor:
    """Predict the (N, 3) displacement `noise` that jittered each atom of
    `batch`, whose positions already carry it.

    Only families with an equivariant vector output can express the target;
    `node_vectors` raises a ContractError for scalar-only families.
    """
    return _reduce(model.node_vectors(params_t, batch, pos) - Tensor(noise), "mse")


def info_nce_loss(anchors: Tensor, positives: Tensor, temperature: float = 0.1) -> Tensor:
    """Cosine-similarity contrastive loss with in-batch negatives.

    Row i of `anchors` is matched against row i of `positives`; all other
    rows act as negatives.  Rows must have nonzero norm.
    """
    if temperature <= 0:
        raise ContractError("temperature must be positive")
    if anchors.data.shape != positives.data.shape or anchors.data.ndim != 2:
        raise ContractError("anchors and positives must be matching 2-d batches")
    for side in (anchors, positives):
        if (np.linalg.norm(side.data, axis=1) == 0.0).any():
            raise ContractError("zero-norm embedding row has no direction")
    a = anchors / T.norm(anchors, axis=1, keepdims=True)
    b = positives / T.norm(positives, axis=1, keepdims=True)
    logits = T.matmul(a, T.transpose2(b)) * (1.0 / temperature)
    n = logits.data.shape[0]
    return _cross_entropy(logits, np.arange(n))


def _pooled_embedding(model, params_t, batch: GraphBatch, pos: Tensor) -> Tensor:
    h = model.node_scalars(params_t, batch, pos)
    sums = T.scatter_sum(h, batch.node_graph, batch.n_graphs)
    counts = np.bincount(batch.node_graph, minlength=batch.n_graphs).astype(np.float64)
    return sums * Tensor(1.0 / counts[:, None])


def contrastive_pretrain_loss(
    model,
    params_t: dict[str, Tensor],
    batch: GraphBatch,
    pos: Tensor,
    view: GraphBatch,
    view_pos: Tensor,
    temperature: float = 0.1,
) -> Tensor:
    """Match each structure's pooled embedding in `batch` to that of the
    same structure in `view`, a jittered copy of the batch."""
    if batch.n_graphs < 2:
        raise ContractError("contrastive loss needs at least two structures")
    anchors = _pooled_embedding(model, params_t, batch, pos)
    positives = _pooled_embedding(model, params_t, view, view_pos)
    return info_nce_loss(anchors, positives, temperature)


def train_pretrain(
    model,
    kind: str,
    confs: Sequence[Conformation],
    schedule: ScheduleSpec,
    seed: int = 0,
    steps: int | None = None,
    sigma: float = 0.04,
    temperature: float = 0.1,
    stop_loss_ratio: float | None = None,
    progress=None,
):
    """Adam over one self-supervised objective; returns (params, history).

    Every graph the objective reads is built once, before the first step;
    the history's graph statistics are those of the clean batch, or of the
    jittered one for denoising, which reads no other.
    """
    if kind not in PRETRAIN_KINDS:
        raise ContractError(f"unknown pretraining kind '{kind}'")
    if steps is None:
        steps = schedule.total_steps
    params = model.init(seed)
    if kind in MASKED_HEADS:
        # only the kind's own head reaches its loss
        heads = init_pretrain_heads(model, seed + 1)
        params.update((k, v) for k, v in heads.items() if k.startswith(MASKED_HEADS[kind]))
    if kind != "denoise":
        batch = build_batch(confs, model.cutoff, model.needs_angles or kind == "angle")
    if kind in ("denoise", "contrastive"):
        # corruption is drawn once: the loop trains against a fixed corrupted
        # view of the dataset rather than resampling noise per step
        noise_rng = np.random.default_rng(seed + 2)
        draws = [noise_rng.normal(0.0, sigma, c.pos.shape) for c in confs]
        views = [Conformation(z=c.z, pos=c.pos + n, lattice=c.lattice) for c, n in zip(confs, draws)]
        jittered = build_batch(views, model.cutoff, model.needs_angles)
        noise = np.concatenate(draws, axis=0)

    def loss_fn(tape, params_t, step):
        # no pretext differentiates by position, so positions stay off the tape
        if kind == "denoise":
            return denoise_pretrain_loss(model, params_t, jittered, Tensor(jittered.pos), noise)
        pos = Tensor(batch.pos)
        if kind == "contrastive":
            return contrastive_pretrain_loss(model, params_t, batch, pos, jittered, Tensor(jittered.pos), temperature)
        return masked_pretrain_loss(kind, model, params_t, batch, pos, seed + step)

    # a pretext's loss has no named terms
    params, history = _fit(params, lambda *args: (loss_fn(*args), {}), schedule, steps, stop_loss_ratio, progress)
    history["graph"] = graph_stats(jittered if kind == "denoise" else batch)
    return params, history
