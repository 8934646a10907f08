"""In-memory spans around the public calls into each geomnets layer.

The wrappers are installed from the benchmark at run time, at the name each
caller looks up (a module global or a class attribute), so the library
itself is untouched. A span is (name, start, end, parent); roots are the
set-up phase and one span per timed operation. A layer's self time is the
time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np

# wrapped name -> layer; root spans (set-up, one per operation) belong to the
# training layer, whose loops and glue code they are
LAYER = {
    "radius_graph": "geometry",
    "periodic_radius_graph": "geometry",
    "build_angle_index": "geometry",
    "build_batch": "models.common",
    "energy": "models",
    "node_scalars": "models",
    "node_vectors": "models",
    "sph_harm_block": "so3",
    "clebsch_gordan": "so3",
    "gradient": "tensor",
    "adam_step": "training",
    "energy_force_loss": "training",
    "masked_pretrain_loss": "training",
    "denoise_pretrain_loss": "training",
    "contrastive_pretrain_loss": "training",
    "setup": "training",
    "op": "training",
}
LAYERS = ("geometry", "models.common", "models", "so3", "tensor", "training")
LOSSES = ("energy_force_loss", "masked_pretrain_loss", "denoise_pretrain_loss", "contrastive_pretrain_loss")
FORWARD = ("energy", "node_scalars", "node_vectors")


class Tracer:
    """Records spans while a root span is open; otherwise calls pass through."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self._pending: list[tuple[str, object]] = []  # results counted between operations
        self.counts = {"setup": Counter(), "op": Counter()}

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def open_root(self, name: str, start: float) -> None:
        if self._stack:
            raise RuntimeError("a root span is already open")
        self.spans.append([name, start, None, None])
        self._stack.append(len(self.spans) - 1)

    def close_root(self, end: float) -> None:
        if len(self._stack) != 1:
            raise RuntimeError("close_root needs exactly the root span open")
        root = self.spans[self._stack.pop()]
        root[2] = end
        self._count_pending(self.counts[root[0]])

    def call(self, name: str, fn, args, kwargs):
        if not self._stack:
            return fn(*args, **kwargs)
        span = [name, self.clock(), None, self._stack[-1]]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = self.clock()
            self._stack.pop()
        if name in COUNTERS or name == "gradient":
            self._pending.append((name, args[0] if name == "gradient" else result))
        return result

    def _count_pending(self, counts: Counter) -> None:
        """Counts taken from call results once the root has closed, so the
        counting never lands inside a timed span. For a tape, the last
        gradient of the operation sees every record the operation made."""
        tape = None
        for name, obj in self._pending:
            if name == "gradient":
                tape = obj
            else:
                for key, value in COUNTERS[name](obj).items():
                    counts[key] += value
        if tape is not None:
            counts["tensor.records"] += len(tape.records)
            counts.update("tensor.ops." + rec.name for rec in tape.records)
        self._pending.clear()


def _distinct_shifts(edges) -> int:
    return int(np.unique(edges.shift, axis=0).shape[0]) if edges.n_edges else 0


COUNTERS = {
    "radius_graph": lambda e: {"geometry.edges": e.n_edges},
    "periodic_radius_graph": lambda e: {"geometry.edges": e.n_edges, "geometry.shifts": _distinct_shifts(e)},
    "build_angle_index": lambda a: {"geometry.triplets": a.n_triplets},
}


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced call at the name its caller looks up. Returns the
    replaced attributes for `uninstall`."""
    from geomnets import tensor, training
    from geomnets.models import api, common, spherical

    sites = [
        (common, "radius_graph"),
        (common, "periodic_radius_graph"),
        (common, "build_angle_index"),
        (training, "build_batch"),
        (api.ModelHandle, "energy"),
        (api.ModelHandle, "node_scalars"),
        (api.ModelHandle, "node_vectors"),
        (spherical, "sph_harm_block"),
        (spherical, "clebsch_gordan"),
        (tensor.Tape, "gradient"),
        (training, "adam_step"),
    ] + [(training, name) for name in LOSSES]
    patched = []
    for owner, name in sites:
        original = owner.__dict__[name]
        patched.append((owner, name, original))
        setattr(owner, name, _wrap(tracer, name, original))
    return patched


def uninstall(patched) -> None:
    for owner, name, original in reversed(patched):
        setattr(owner, name, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent and overlapping children are
    counted once, so the result never goes negative.
    """
    children = defaultdict(list)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(spans, grad_roles: tuple[str, ...]) -> dict:
    """Per-phase totals in seconds: inclusive and self time per wrapped name,
    self time per layer, and the gradients of each operation labelled by their order
    (`grad_roles`, e.g. force then loss). Phases are the root span names."""
    selfs = self_times(spans)
    out = {
        phase: {"ops": 0, "name_s": Counter(), "name_self_s": Counter(), "self_s": Counter(), "grad_s": Counter()}
        for phase in ("setup", "op")
    }
    root_of: list[int] = []
    grads_seen: Counter = Counter()
    for idx, (name, start, end, parent) in enumerate(spans):
        root = idx if parent is None else root_of[parent]
        root_of.append(root)
        bucket = out[spans[root][0]]
        bucket["self_s"][LAYER[name]] += selfs[idx]
        if parent is None:
            bucket["ops"] += 1
            continue
        bucket["name_s"][name] += end - start
        bucket["name_self_s"][name] += selfs[idx]
        if name == "gradient":
            k = min(grads_seen[root], len(grad_roles) - 1)
            grads_seen[root] += 1
            bucket["grad_s"][grad_roles[k]] += end - start
    return {phase: {k: dict(v) if isinstance(v, Counter) else v for k, v in b.items()} for phase, b in out.items()}
