"""Compare the numbers of this checkout with those of a git revision, bit
for bit.

    python3 scripts/bitwise_ab.py REF

Exports REF with `git archive` into a temporary directory and runs one fixed
dump on each tree, in a fresh process with BLAS pinned to one thread and
the tree's own `src/` on the path. The dump holds, for every family at the
configs of `tests/test_parity.py`, and for tfn and se3attn at those configs
with 3 layers (so a hidden attention layer is compared too):

- energies and forces on `synthetic_conformations(6, 0)` and on the frames
  of `perfbench.inputs.infer_stream(0, 8, 1)`, and for a family with vector
  output its node vectors from `energy_and_vectors` on the same frames, so
  both a forward without vectors and one with them are compared;
- the parameters and the history after 3 `train_energy_force` steps;
- the losses of 3 steps of every pretext the family supports.

It holds the graphs of `periodic_radius_graph`, in both modes at cutoffs 2
and 5, of the stream's crystals and of seeded skewed cells with their atoms
written up to 3 cells outside (`outside_cells`), where moving the atoms into
the cell and the shift ranges are put to work. It holds the batch the models
read: `build_batch(..., need_angles=True)` of the synthetic set and of the
stream's frames, each set one batch, at cutoffs 2 and 5, its `src`, `dst`,
`shift_offset`, pair index and angle triplets.

It also holds the artifacts of CLI runs on the tree: `build-graph` in both
modes on the same two sets at cutoff 5 and on the outside cells at cutoffs
2 and 5, `check-equiv --trials 5` for every family of
`tests/test_parity.py`, and a 3-step painn `train` with `normalize`, its
`eval` and a `denoise` `pretrain`. An artifact is a run's exit code, stdout,
stderr and the files it wrote, its metrics.json without `wall_seconds`.

Float arrays are compared as int64 bits, artifacts byte for byte. Prints, per (family, quantity),
the arrays compared, how many differ and the largest difference relative
to the largest magnitude of the reference array, then any parameter name
that exists on one side only. Then, for information, each side's traced
peak (tracemalloc) of one more `train_energy_force` step per family, and of
one first-order force call (`force_from_energy`) per family on the largest
frame of the stream, which show what a change does to the memory a training
step and an inference call hold, each next to the number of tape records
that call made, so a change that moves the pins of
`tests/test_tape_cost.py` shows it here too, and each family's step
records per op name, so ops merged or split show as counts moving between
names while the totals stay; the same for one step of
se3attn and of dimenet on the benchmark's batch
(`synthetic_conformations(64, 0)`, at the configs of `BENCH_CONFIGS`),
where a step holds what the benchmark's peak RSS reads; that of one schnet
force call, at the benchmark's inference config, on the largest frame of
its `infer-mixed` stream (`infer_stream(0, 60, 3)`, the 898-atom cluster),
in MB and in units of one (E, hidden) float64 array; and each tree's `src/` line
count (`wc -l src/geomnets/*.py src/geomnets/models/*.py`), so a change
shows what it added or removed. The last line gives
the number of arrays that differ and the largest of those relative
differences, and the number of CLI artifacts that differ. Exits 1 if any
array or artifact differs; the peaks, record and line counts do not count.
"""

import contextlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
STEPS = 3
# the benchmark's energy+force training configs of the two families with the
# largest tapes (perfbench/worker.py), and its rate
BENCH_CONFIGS = {
    "se3attn": {
        "family": "se3attn",
        "scalar_channels": 8,
        "vector_channels": 4,
        "tensor_channels": 2,
        "layers": 2,
        "cutoff": 5.0,
        "basis": {"count": 8},
        "radial_hidden": 8,
    },
    "dimenet": {"family": "dimenet", "hidden": 16, "layers": 1, "cutoff": 5.0, "sbf_l_max": 2, "sbf_n_max": 3},
}
BENCH_LR = (1e-4, 1e-5)
# the benchmark's inference config and the (seed, structures, frames) of its
# `infer-mixed` stream
INFER_CONFIG = {"family": "schnet", "hidden": 32, "layers": 2, "cutoff": 5.0}
INFER_STREAM = (0, 60, 3)


def traced_peak(fn) -> int:
    """Bytes at the peak of what `fn()` allocated and held, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def records_of(fn) -> Counter:
    """Records of the tapes released while `fn()` runs, per op name."""
    from geomnets import tensor as T

    counts = Counter()
    release = T.Tape.release

    def counting_release(tape):
        counts.update(rec.name for rec in tape.records)
        release(tape)

    T.Tape.release = counting_release
    try:
        fn()
    finally:
        T.Tape.release = release
    return counts


def outside_cells(seed: int, count: int) -> list:
    """Seeded skewed cells of 2-24 atoms at the benchmark's density, every
    atom written up to 3 cells outside the cell."""
    from geomnets.geometry import Conformation
    from perfbench.inputs import VOLUME_PER_ATOM, skewed_cell

    rng = np.random.default_rng(seed)
    cells = []
    for i in range(count):
        n = int(rng.integers(2, 25))
        lattice = skewed_cell(rng, VOLUME_PER_ATOM * n)
        frac = rng.uniform(size=(n, 3)) + rng.integers(-3, 4, size=(n, 3))
        cells.append(Conformation(z=rng.integers(1, 10, n), pos=frac @ lattice, lattice=lattice, id=f"outside{i}"))
    return cells


def graph_arrays(structures: list) -> dict:
    """{(geometry, mode.cutoff): {name: array}} of every periodic structure's
    graph in both modes at cutoffs 2 and 5."""
    from geomnets.geometry import periodic_radius_graph

    arrays = {}
    for i, conf in enumerate(structures):
        for cutoff in (2.0, 5.0):
            for mode in ("gathered", "expanded"):
                graph = periodic_radius_graph(conf, cutoff, mode)
                edges = graph if mode == "gathered" else graph.edges
                fields = {f: getattr(edges, f) for f in ("src", "dst", "dist", "rel_vec", "shift", "reverse")}
                if mode == "expanded":
                    fields.update(z=graph.z, positions=graph.positions, image_of=graph.image_of)
                named = arrays.setdefault(("geometry", f"{mode}.{cutoff:g}"), {})
                named.update({f"{i}.{f}": a for f, a in fields.items()})
    return arrays


def batch_arrays(sets: dict) -> dict:
    """{("batch", set.cutoff): {name: array}} of each set's batch with
    angles at cutoffs 2 and 5; `pairs.flipped` is kept as its rows."""
    from geomnets.models.common import build_batch

    arrays = {}
    for label, structures in sets.items():
        for cutoff in (2.0, 5.0):
            batch = build_batch(structures, cutoff, need_angles=True)
            pairs, angles = batch.pairs, batch.angles
            arrays["batch", f"{label}.{cutoff:g}"] = {
                "src": batch.src,
                "dst": batch.dst,
                "shift_offset": batch.shift_offset,
                "pairs.edge": pairs.edge,
                "pairs.slot": pairs.slot,
                "pairs.flipped": np.flatnonzero(pairs.flipped),
                **{f"angles.{f}": getattr(angles, f) for f in ("in_edge", "out_edge", "angle")},
            }
    return arrays


def cli_artifacts(sets: dict, configs: dict) -> dict[str, bytes]:
    """{run label: artifact} of the CLI runs of the module docstring, made in
    the working directory with the tree on the path."""
    from geomnets import cli
    from geomnets.geometry import save_dataset

    artifacts = {}

    def run(label, *argv, files=()):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(argv))
        parts = [f"exit {code}", stdout.getvalue(), stderr.getvalue()]
        for name in files:
            text = Path(name).read_text()
            if name.endswith("metrics.json"):
                metrics = json.loads(text)
                del metrics["wall_seconds"]
                text = json.dumps(metrics, sort_keys=True)
            parts.append(f"{name}\n{text}")
        artifacts[label] = "\n".join(parts).encode()

    for label, structures in sets.items():
        save_dataset(f"{label}.jsonl", structures)
        for cutoff in ("2.0", "5.0") if label == "outside" else ("5.0",):
            for mode in ("gathered", "expanded"):
                argv = ["--input", f"{label}.jsonl", "--output", "edges.jsonl", "--cutoff", cutoff, "--periodic", mode]
                run(f"build-graph.{label}.{cutoff}.{mode}", "build-graph", *argv, files=["edges.jsonl"])
    for family, config in configs.items():
        Path("model.json").write_text(json.dumps(config))
        run(f"check-equiv.{family}", "check-equiv", "--config", "model.json", "--trials", "5")
    train = {"dataset": "synthetic.jsonl", "model": configs["painn"], "steps": STEPS, "normalize": True}
    Path("train.json").write_text(json.dumps(train))
    Path("pretrain.json").write_text(json.dumps(dict(train, task="denoise")))
    for command in ("train", "pretrain"):  # each writes under a directory of its name
        outputs = [f"{command}/metrics.json", f"{command}/checkpoint.json"]
        run(command, command, "--config", f"{command}.json", "--out", command, files=outputs)
    run("eval", "eval", "--config", "train.json", "--checkpoint", "train/checkpoint.json")
    return artifacts


def dump(out: str) -> None:
    """Write {"arrays": {(family, quantity): {name: array}}, "peaks":
    {family: (bytes, records per op name)}, and the same for "force_peaks"
    and "bench_peaks", "infer_peak": (bytes, bytes
    of one (E, hidden) array), "cli": {label: bytes}} for the tree on the
    path."""
    from geomnets import tensor as T
    from geomnets import training as tr
    from geomnets.models import api
    from geomnets.models.common import build_batch
    from perfbench.inputs import infer_stream
    from test_parity import CONFIGS

    confs = tr.synthetic_conformations(6, 0)
    sets = {"synthetic": confs, "stream": infer_stream(0, 8, 1)}
    schedule = tr.ScheduleSpec(lr_max=1e-3, lr_min=1e-5, total_steps=STEPS)
    configs = dict(CONFIGS, **{f"{f}-3layer": dict(CONFIGS[f], layers=3) for f in ("tfn", "se3attn")})
    largest = max(sets["stream"], key=lambda conf: conf.n_atoms)
    arrays, peaks, force_peaks = {}, {}, {}
    for family, config in configs.items():
        model = api.model_from_config(config)
        params = model.init(0)
        for label, structures in sets.items():
            for i, conf in enumerate(structures):
                energy, forces = tr.force_from_energy(model, params, conf)
                arrays.setdefault((family, f"energy.{label}"), {})[str(i)] = np.asarray(energy)
                arrays.setdefault((family, f"forces.{label}"), {})[str(i)] = forces
                if model.has_vector_output:
                    batch = build_batch([conf], model.cutoff, model.needs_angles)
                    _, vectors = model.energy_and_vectors(T.lift(params), batch, T.Tensor(batch.pos))
                    arrays.setdefault((family, f"vectors.{label}"), {})[str(i)] = vectors.data
        trained, history = tr.train_energy_force(model, confs, schedule, seed=0, steps=STEPS)
        arrays[family, "params"] = trained
        arrays[family, "history"] = {
            k: np.asarray(list(v.values()) if isinstance(v, dict) else v) for k, v in history.items()
        }
        for kind in tr.PRETRAIN_KINDS:
            if kind != "denoise" or model.has_vector_output:
                _, history = tr.train_pretrain(model, kind, confs, schedule, seed=0, steps=STEPS)
                arrays[family, f"pretext.{kind}"] = {"train_loss": np.asarray(history["train_loss"])}
        # after the steps above, so one-time tables are built already
        step = lambda: tr.train_energy_force(model, confs, schedule, seed=0, steps=1)
        force = lambda: tr.force_from_energy(model, params, largest)
        peaks[family] = traced_peak(step), records_of(step)
        force_peaks[family] = traced_peak(force), records_of(force)
    bench_confs = tr.synthetic_conformations(64, 0)
    bench_schedule = tr.ScheduleSpec(lr_max=BENCH_LR[0], lr_min=BENCH_LR[1], total_steps=2)
    bench_peaks = {}
    for family, config in BENCH_CONFIGS.items():
        model = api.model_from_config(config)
        step = lambda: tr.train_energy_force(model, bench_confs, bench_schedule, seed=0, steps=1)
        step()  # one-time tables
        bench_peaks[family] = traced_peak(step), records_of(step)
    model = api.model_from_config(INFER_CONFIG)
    params = model.init(0)
    frame = max(infer_stream(*INFER_STREAM), key=lambda conf: conf.n_atoms)
    force = lambda: tr.force_from_energy(model, params, frame)
    force()  # one-time tables
    unit = build_batch([frame], model.cutoff).n_edges * INFER_CONFIG["hidden"] * 8
    infer_peak = traced_peak(force), unit
    outside = outside_cells(0, 40)
    arrays.update(graph_arrays([c for c in sets["stream"] if c.lattice is not None] + outside))
    arrays.update(batch_arrays(sets))
    cli = cli_artifacts(dict(sets, outside=outside), CONFIGS)
    with open(out, "wb") as fh:
        pickle.dump(
            {
                "arrays": arrays,
                "peaks": peaks,
                "force_peaks": force_peaks,
                "bench_peaks": bench_peaks,
                "infer_peak": infer_peak,
                "cli": cli,
            },
            fh,
        )


def src_lines(tree: Path) -> int:
    """Lines of the tree's `src/`, counted as `wc -l` counts them."""
    files = [*(tree / "src" / "geomnets").glob("*.py"), *(tree / "src" / "geomnets" / "models").glob("*.py")]
    return sum(f.read_bytes().count(b"\n") for f in files)


def run_dump(tree: Path, out: Path) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("GEOM_SEED", None)  # the CLI runs use their configs' seeds
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (tree / "src", tree, tree / "tests", ROOT / "scripts"))
    code = "import sys, bitwise_ab; bitwise_ab.dump(sys.argv[1])"
    work = out.with_suffix(".cli")  # the CLI runs' working directory, so their paths read the same
    work.mkdir()
    subprocess.run([sys.executable, "-c", code, str(out)], cwd=work, env=env, check=True)
    with open(out, "rb") as fh:
        return pickle.load(fh)


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64) if a.dtype == np.float64 else a


def compare(ref: dict, new: dict) -> tuple[int, float]:
    """Print the comparison; the number of arrays that differ and the
    largest relative difference among them."""
    total, largest = 0, 0.0
    for key in sorted(set(ref) | set(new)):
        a, b = ref.get(key, {}), new.get(key, {})
        shared = sorted(set(a) & set(b))
        differ, worst = 0, 0.0
        for name in shared:
            x, y = np.asarray(a[name]), np.asarray(b[name])
            if x.shape != y.shape or x.dtype != y.dtype:
                differ, worst = differ + 1, math.inf
            elif not np.array_equal(_bits(x), _bits(y)):
                differ += 1
                scale = np.abs(x).max()
                worst = max(worst, float(np.abs(x - y).max() / scale) if scale else math.inf)
        total += differ
        largest = max(largest, worst)
        print(f"{key[0]:15s} {key[1]:22s} arrays={len(shared):3d} differ={differ:3d} max_rel={worst:.3e}")
        for name in sorted(set(a) ^ set(b)):
            print(f"  only in {'REF' if name in a else 'this checkout'}: {name}")
    return total, largest


def compare_cli(ref: dict, new: dict) -> int:
    """Print whether each CLI artifact is the same; the number that differ."""
    differ = 0
    for label in sorted(set(ref) | set(new)):
        same = ref.get(label) == new.get(label)
        differ += not same
        print(f"cli {label:36s} {'same' if same else 'DIFFERS'}")
    return differ


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "ref"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", argv[0]], cwd=ROOT, capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode(), file=sys.stderr, end="")
            return 2
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, filter="data")
        ref = run_dump(tree, Path(tmp) / "ref.pkl")
        lines = src_lines(tree), src_lines(ROOT)
        new = run_dump(ROOT, Path(tmp) / "new.pkl")
    differ, largest = compare(ref["arrays"], new["arrays"])
    cli_differ = compare_cli(ref["cli"], new["cli"])
    sides = (
        ("peaks", "one train_energy_force step"),
        ("force_peaks", "one force call, largest frame"),
        ("bench_peaks", "one step on the benchmark's batch"),
    )
    for key, what in sides:
        print(f"traced peak (MB) and tape records of {what}, REF -> this checkout:")
        for family in sorted(set(ref[key]) | set(new[key])):
            (a, ra), (b, rb) = (side[key].get(family, (math.nan, Counter())) for side in (ref, new))
            print(f"{family:15s} {a / 1e6:8.2f} -> {b / 1e6:8.2f}  records {ra.total():5d} -> {rb.total():5d}")
    print("records per op name of one train_energy_force step, REF -> this checkout (for information):")
    for family in sorted(set(ref["peaks"]) | set(new["peaks"])):
        ra, rb = (side["peaks"].get(family, (math.nan, Counter()))[1] for side in (ref, new))
        print(f"{family:15s} " + ", ".join(f"{op} {ra[op]}->{rb[op]}" for op in sorted(ra | rb)))
    (a, unit), (b, _) = ref["infer_peak"], new["infer_peak"]
    n_edges = unit // (8 * INFER_CONFIG["hidden"])
    print(f"traced peak of one schnet force call on the largest infer-mixed frame (E = {n_edges}), REF -> this checkout:")
    print(f"{a / 1e6:.2f} MB ({a / unit:.2f} (E, hidden) units) -> {b / 1e6:.2f} MB ({b / unit:.2f} units)")
    print(f"src/ lines, REF -> this checkout: {lines[0]} -> {lines[1]}")
    print(f"{differ} arrays differ, max_rel={largest:.3e}, {cli_differ} CLI artifacts differ")
    return 1 if differ or cli_differ else 0


if __name__ == "__main__":
    sys.exit(main())
