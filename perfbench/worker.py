"""One benchmark process: set up one model, then time its operations.

run.py starts these one at a time, as

    python3 perfbench/worker.py '<job as JSON>'

with geomnets on PYTHONPATH and BLAS pinned to one thread. The last line of
standard output is a JSON object with the set-up time, every timed
operation (seconds, atoms, output check), the peak RSS and, for a traced
job, the span summary. An operation is a training step or an inference call.
"""

import time

STARTED = time.perf_counter()  # set-up includes importing numpy and geomnets

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
from geomnets import training as tr  # noqa: E402
from geomnets.models import api  # noqa: E402

CUTOFF = 5.0
# the per-family configs of scripts/overfit_families.py at CUTOFF; se3attn is
# the tfn config with two layers, since with one layer it is plain TFN
_TFN = {
    "family": "tfn",
    "scalar_channels": 8,
    "vector_channels": 4,
    "tensor_channels": 2,
    "layers": 1,
    "cutoff": CUTOFF,
    "basis": {"count": 8},
    "radial_hidden": 8,
}
CONFIGS = {
    "schnet": {"family": "schnet", "hidden": 32, "layers": 2, "cutoff": CUTOFF},
    "dimenet": {"family": "dimenet", "hidden": 16, "layers": 1, "cutoff": CUTOFF, "sbf_l_max": 2, "sbf_n_max": 3},
    "egnn": {"family": "egnn", "hidden": 32, "layers": 2, "cutoff": CUTOFF},
    "painn": {"family": "painn", "hidden": 16, "layers": 2, "cutoff": CUTOFF},
    "tfn": _TFN,
    "se3attn": dict(_TFN, family="se3attn", layers=2),
}
# Adam rates (peak, end of the cosine). The pretexts take the CLI's default
# peak; energy+force training, with as few as two steps a run, takes a tenth
# of it so that every step descends: at 1e-3 egnn's loss climbs for the first
# five steps from some inits (seed 303), and at 8e-3, the rate of
# scripts/overfit_families.py, it diverges
LR = {"train-mol": (1e-4, 1e-5), "pretrain-mol": (1e-3, 1e-5)}
NET_FORCE_TOL = 1e-8  # every family is translation invariant, so forces sum to ~0
GRAD_ROLES = {
    "train-mol": ("force_grad", "loss_grad"),
    "pretrain-mol": ("loss_grad",),
    "infer-mixed": ("force_grad",),
}


def _traced(job, index: int) -> bool:
    """Traced jobs trace every other operation, counted across the whole
    workload, so the untraced ones in between give the overhead."""
    return job["trace"] and (job["op_offset"] + index) % 2 == 1


def run_training(job, tracer, result) -> None:
    """train-mol and pretrain-mol: one family, one warm-up step, then
    `steps` timed steps reported through the public progress callback."""
    confs = inputs.molecules(job["batch_seed"])
    atoms = sum(c.n_atoms for c in confs)
    steps = job["steps"]
    clock = time.perf_counter
    losses = []
    began = clock()
    if tracer:
        tracer.open_root("setup", began)
    model = api.model_from_config(CONFIGS[job["family"]])
    schedule = tr.ScheduleSpec(*LR[job["workload"]], steps + 1)

    start, traced = began, False

    def progress(step, loss):
        nonlocal start, traced
        now = clock()
        losses.append(loss)
        if tracer and tracer.active:
            tracer.close_root(now)
        if step == 0:
            result["setup_s"] += now - began
            result["warmup_ok"] = math.isfinite(loss)
        else:
            result["ops"].append({"s": now - start, "atoms": atoms, "ok": math.isfinite(loss), "traced": traced})
        if step < steps:
            traced = _traced(job, step)
            start = clock()
            if traced:
                tracer.open_root("op", start)

    kw = dict(seed=job["seed"], steps=steps + 1, progress=progress)
    if job["kind"] is None:
        tr.train_energy_force(model, confs, schedule, **kw)
    else:
        tr.train_pretrain(model, job["kind"], confs, schedule, **kw)
    # masked pretexts draw a fresh mask every step, so single losses compare
    # different subsets; the means of the first and last half of the run do not
    half = len(losses) // 2
    first, last = statistics.fmean(losses[:half]), statistics.fmean(losses[-half:])
    if result["ops"] and not last < first:
        result["ops"][-1]["ok"] = False
        result["errors"].append(f"loss did not fall: first half {first!r}, last half {last!r}")


def _infer_ok(energy: float, forces: np.ndarray) -> bool:
    return (
        math.isfinite(energy)
        and bool(np.isfinite(forces).all())
        and float(np.linalg.norm(forces.sum(axis=0))) <= NET_FORCE_TOL
    )


def run_infer(job, tracer, result) -> None:
    """infer-mixed: forces for one slice of the structure stream, after one
    warm-up call on the slice's smallest frame."""
    stream = inputs.infer_stream(job["seed"], job["structures"], job["frames"])
    frames = stream[job["start"] : job["stop"]]
    clock = time.perf_counter
    began = clock()
    if tracer:
        tracer.open_root("setup", began)
    model = api.model_from_config(CONFIGS[job["family"]])
    params = model.init(job["seed"])
    result["warmup_ok"] = _infer_ok(*tr.force_from_energy(model, params, min(frames, key=lambda c: c.n_atoms)))
    now = clock()
    if tracer:
        tracer.close_root(now)
    result["setup_s"] += now - began
    for index, conf in enumerate(frames):
        traced = _traced(job, index)
        start = clock()
        if traced:
            tracer.open_root("op", start)
        energy, forces = tr.force_from_energy(model, params, conf)
        now = clock()
        if traced:
            tracer.close_root(now)
        result["ops"].append({"s": now - start, "atoms": conf.n_atoms, "ok": _infer_ok(energy, forces), "traced": traced})


def main(argv) -> int:
    job = json.loads(argv[1])
    result = {"setup_s": time.perf_counter() - STARTED, "warmup_ok": False, "ops": [], "errors": []}
    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracing.install(tracer)
    try:
        (run_infer if job["workload"] == "infer-mixed" else run_training)(job, tracer, result)
    except Exception as exc:  # a failed operation is counted, not fatal to the run
        result["errors"].append(f"{type(exc).__name__}: {exc}")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["trace"] = {
            "summary": tracing.summarize(tracer.spans, GRAD_ROLES[job["workload"]]),
            "counts": {phase: dict(c) for phase, c in tracer.counts.items()},
            "spans": tracer.spans,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
