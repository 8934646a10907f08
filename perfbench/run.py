"""geomnets benchmark: train-mol, pretrain-mol and infer-mixed.

    python3 perfbench/run.py --workload train-mol --seed 0 --seconds 20 --trace 0

`--workload all` runs the three in turn, each with its own report and JSON
line.
Run from the root of a geomnets checkout; the library is imported from its
`src/`. Each workload is a closed loop with a single caller, run as PASSES
passes of fresh worker processes (worker.py), one process at a time, with
BLAS and OpenMP pinned to one thread. Work per pass is fixed by the seed and
`--seconds` (sized so the timed part takes about that long on a 2-CPU
machine, and never less than NOMINAL_SECONDS of work), not by the clock, so
runs of different speed do the same work.

Prints a readable report, then as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
(untraced run) or, with `--trace 1`, the per-layer metrics. Exits 1 when an
output check fails and 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
DEADLINE_S = 170.0  # the whole run, every worker included

NOMINAL_SECONDS = 20  # the work below takes about this many timed seconds
# fresh processes per family; set-up is the median over passes. Process speed
# on a shared 2-CPU host varies by ~10% from one process to the next, so the
# cheap-to-start inference workload spreads its stream over more processes
PASSES = {"train-mol": 3, "pretrain-mol": 3, "infer-mixed": 6}
FAMILIES = ("schnet", "dimenet", "egnn", "painn", "tfn", "se3attn")
# timed steps per family process and pass at NOMINAL_SECONDS; se3attn grows
# by ~1.1 GB per step until the cyclic collector runs, so it gets one
TRAIN_STEPS = {"schnet": 5, "dimenet": 2, "egnn": 5, "painn": 3, "tfn": 5, "se3attn": 1}
PRETRAIN = {
    "schnet": ("type", 20),
    "egnn": ("distance", 20),
    "tfn": ("angle", 20),
    "painn": ("denoise", 12),
    "dimenet": ("contrastive", 3),
}
INFER_FAMILY, INFER_STRUCTURES, INFER_FRAMES = "schnet", 60, 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
TAPE_OPS = ("mul", "add", "matmul", "sum", "reshape", "transpose2", "gather", "scatter_sum", "concat", "div")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_mean": "ms", "op_ms_gmean": "ms", "atoms_per_s": "1/s"}


def unit(name: str) -> str:
    return UNITS.get(name) or ("ms" if "_ms" in name else "count")


def _scaled(count: int, seconds: float) -> int:
    """Work grows with --seconds but never drops below the nominal amount:
    fewer steps leave the masked pretexts' loss check to the luck of the mask."""
    return max(count, round(count * seconds / NOMINAL_SECONDS))


def plan(workload: str, seed: int, seconds: float, trace: bool) -> list[list[dict]]:
    """Jobs per pass. `op_offset` numbers operations across the workload so
    that traced runs can trace every other one."""
    base = {"workload": workload, "seed": seed, "trace": trace}
    n_passes = PASSES[workload]
    passes = []
    if workload == "infer-mixed":
        structures = _scaled(INFER_STRUCTURES, seconds)
        total = structures * INFER_FRAMES
        for p in range(n_passes):
            start, stop = p * total // n_passes, (p + 1) * total // n_passes
            job = dict(base, family=INFER_FAMILY, structures=structures, frames=INFER_FRAMES, start=start, stop=stop)
            passes.append([dict(job, op_offset=start, planned=stop - start)])
        return passes
    if workload == "train-mol":
        families = [(family, None, count) for family, count in TRAIN_STEPS.items()]
    else:
        families = [(family, kind, count) for family, (kind, count) in PRETRAIN.items()]
    for p in range(n_passes):
        jobs = []
        for family, kind, count in families:
            steps = _scaled(count, seconds)
            # each pass trains on its own 64-molecule batch, so one run averages
            # over several batch sizes; pass 0 of seed 0 is synthetic_conformations(64, 0)
            job = dict(base, family=family, kind=kind, steps=steps, batch_seed=seed * n_passes + p)
            jobs.append(dict(job, op_offset=p * steps, planned=steps))
        passes.append(jobs)
    return passes


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_job(job: dict, deadline: float) -> dict | None:
    """One worker process; None when it crashed or ran out of time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        return None
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=ROOT,
            timeout=remaining,
            text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {job['family']}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"worker failed ({done.returncode}): {job['family']}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def _untraced_seconds(results) -> dict[str, list[float]]:
    """Wall seconds of every untraced operation, per family."""
    out = defaultdict(list)
    for job, res in results:
        out[job["family"]] += [op["s"] for op in res["ops"] if not op["traced"]]
    return out


def end_to_end(passes: list[list[tuple[dict, dict]]]) -> dict[str, float]:
    results = [pair for jobs in passes for pair in jobs]
    ops = [op for _, res in results for op in res["ops"] if not op["traced"]]
    seconds = [op["s"] for op in ops]
    return {
        "setup_s": statistics.median(sum(res["setup_s"] for _, res in jobs) for jobs in passes),
        "peak_rss_mb": max(res["peak_rss_mb"] for _, res in results),
        "op_ms_mean": 1e3 * _geomean(statistics.fmean(s) for s in _untraced_seconds(results).values()),
        "op_ms_gmean": 1e3 * _geomean(seconds),
        "atoms_per_s": sum(op["atoms"] for op in ops) / sum(seconds),
    }


def _traced_sums(results):
    """Traced-operation counts and summed summaries per family and, under
    "*", over the whole workload."""
    ops: Counter = Counter()
    sums: dict = defaultdict(lambda: defaultdict(Counter))
    for job, res in results:
        op = res["trace"]["summary"]["op"]
        for key in (job["family"], "*"):
            ops[key] += op["ops"]
            for part in ("name_s", "name_self_s", "self_s", "grad_s"):
                sums[key][part].update(op[part])
            sums[key]["counts"].update(res["trace"]["counts"]["op"])
    return ops, sums


def per_layer(passes: list[list[tuple[dict, dict]]]) -> dict[str, float]:
    """Per-layer metrics from the traced operations, in ms (or counts) per
    traced operation, plus set-up self time per pass and the tracing
    overhead. A family or layer the workload does not run reads 0."""
    results = [pair for jobs in passes for pair in jobs]
    ops, sums = _traced_sums(results)

    def per_op(key, part, names, scale=1e3):
        return scale * sum(sums[key][part][n] for n in names) / ops[key] if ops[key] else 0.0

    m = {}
    for f in FAMILIES:
        m[f"models.forward_ms.{f}"] = per_op(f, "name_s", tracing.FORWARD)
        m[f"tensor.force_grad_ms.{f}"] = per_op(f, "grad_s", ["force_grad"])
        m[f"tensor.loss_grad_ms.{f}"] = per_op(f, "grad_s", ["loss_grad"])
        m[f"tensor.records.{f}"] = per_op(f, "counts", ["tensor.records"], scale=1)
        m[f"training.adam_ms.{f}"] = per_op(f, "name_s", ["adam_step"])
        m[f"training.loss_ms.{f}"] = per_op(f, "name_self_s", tracing.LOSSES)
    for f in ("tfn", "se3attn"):
        m[f"so3.sph_harm_ms.{f}"] = per_op(f, "name_s", ["sph_harm_block"])
    m["so3.clebsch_gordan_ms"] = per_op("*", "name_s", ["clebsch_gordan"])
    m["geometry.radius_graph_ms"] = per_op("*", "name_s", ["radius_graph"])
    m["geometry.periodic_graph_ms"] = per_op("*", "name_s", ["periodic_radius_graph"])
    m["geometry.angle_index_ms"] = per_op("*", "name_s", ["build_angle_index"])
    for key in ("geometry.edges", "geometry.shifts", "geometry.triplets"):
        m[key] = per_op("*", "counts", [key], scale=1)
    m["models.common.build_batch_ms"] = per_op("*", "name_self_s", ["build_batch"])
    for name in TAPE_OPS:
        m[f"tensor.ops.{name}"] = per_op("*", "counts", [f"tensor.ops.{name}"], scale=1)
    setup_self = Counter()
    for _, res in results:
        setup_self.update(res["trace"]["summary"]["setup"]["self_s"])
    for layer in tracing.LAYERS:
        m[f"{layer}.self_ms"] = per_op("*", "self_s", [layer])
        m[f"setup.{layer}.self_ms"] = 1e3 * setup_self[layer] / len(passes)
    m["trace.overhead_ms"] = 1e3 * _overhead(results)
    return m


def _overhead(results) -> float:
    """Traced minus untraced seconds per operation, compared within each
    (family, atoms) group, that is the same batch or structure, and then
    averaged over the groups that have both kinds."""
    groups = defaultdict(lambda: ([], []))
    for job, res in results:
        for op in res["ops"]:
            groups[job["family"], op["atoms"]][op["traced"]].append(op["s"])
    diffs = [statistics.fmean(t) - statistics.fmean(u) for u, t in groups.values() if u and t]
    return statistics.fmean(diffs) if diffs else 0.0


def report(workload: str, passes, metrics: dict[str, float]) -> None:
    """The readable part of the output, with the per-family step times."""
    results = [pair for jobs in passes for pair in jobs]
    print(f"workload {workload}: {len(passes)} passes, {len(results)} worker processes")
    label = "infer_ms" if workload == "infer-mixed" else "step_ms"
    for family, seconds in _untraced_seconds(results).items():
        print(f"  {label}.{family:8s} {1e3 * statistics.fmean(seconds):10.2f} ms   (mean of {len(seconds)} untraced operations)")
    if workload == "infer-mixed":
        ms = [1e3 * s for s in _untraced_seconds(results)[INFER_FAMILY]]
        p90 = statistics.quantiles(ms, n=10)[8]
        print(f"  infer_ms_p50 {statistics.median(ms):.2f} ms, infer_ms_p90 {p90:.2f} ms over {len(ms)} calls")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit(name)}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload, print its report and JSON line; 1 if a check failed."""
    deadline = time.monotonic() + DEADLINE_S
    attempted = failed = 0
    done: list[list[tuple[dict, dict]]] = []
    errors = []
    for jobs in plan(workload, seed, seconds, trace):
        done.append([])
        for job in jobs:
            attempted += 1 + job["planned"]  # the warm-up is an operation too
            res = run_job(job, deadline)
            if res is None:
                failed += 1 + job["planned"]
                continue
            bad = sum(not op["ok"] for op in res["ops"]) + (job["planned"] - len(res["ops"]))
            failed += bad + (not res["warmup_ok"])
            errors += [f"{job['family']}: {e}" for e in res["errors"]]
            done[-1].append((job, res))
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if failed:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    metrics = per_layer(done) if trace else end_to_end(done)
    report(workload, done, metrics)
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps([{"job": job, "spans": res["trace"]["spans"]} for jobs in done for job, res in jobs]))
        print(f"  spans written to {path.relative_to(ROOT)}")
    out = {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*PASSES, "all"], help="'all' runs each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geomnets" / "__init__.py").is_file():
        print(f"geomnets sources not found under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    workloads = list(PASSES) if args.workload == "all" else [args.workload]
    codes = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
