"""One handle per model family: construction from a config dict, parameter
init, and the energy / per-node scalar / per-node vector entry points that
training, pretraining, and the CLI share.

Every family is one row of `FAMILY_TABLE`. Its spec dataclass alone defines
its model config (field names are keys, field defaults the defaults), and
its forward maps a geometry to invariant node scalars and, where the family
can and the caller reads them, equivariant node vectors. The energy is the
same for all of them, a bias-free linear head over sum-pooled node scalars.

The `leaky` family is a deliberately broken negative control: it adds raw
coordinates into the scalar head, so every symmetry check must flag it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Callable

import numpy as np

from .. import tensor as T
from ..errors import ContractError
from ..tensor import Tensor
from . import invariant, spherical, vector
from .common import GraphBatch, readout


def init_leaky(spec: invariant.SchNetSpec, seed: int) -> dict[str, np.ndarray]:
    params = invariant.init_schnet(spec, seed)
    params["leak.w"] = T.glorot_uniform(np.random.default_rng(seed + 1), 3, spec.hidden)
    return params


def leaky_forward(
    spec: invariant.SchNetSpec, params: dict, batch: GraphBatch, pos: Tensor, vectors: bool = True
) -> tuple[Tensor, None]:
    h, _ = invariant.schnet_forward(spec, params, batch, pos)
    with T.scope("leak"):
        return h + T.matmul(pos, params["leak.w"]), None


@dataclass(frozen=True)
class Family:
    """What a family supplies: its spec dataclass, `(spec, seed) -> params`,
    one forward `(spec, params, batch, pos, vectors) -> (node scalars
    (N, width), node vectors (N, 3) or None)`, whether that forward can
    return vectors, whether its batches need angle triplets, and which spec
    field is width.

    `vectors` says whether the caller reads the vectors. Without it the
    forward returns None for them and builds only what the scalars read;
    a family without vector output ignores it. The parameters are the
    same either way."""

    spec: type
    init: Callable
    forward: Callable
    has_vectors: bool
    needs_angles: bool
    width: str = "hidden"


_STEERABLE = Family(
    spherical.SteerableModelSpec, spherical.init_steerable, spherical.steerable_forward, True, False, "scalar_channels"
)
FAMILY_TABLE = {
    "schnet": Family(invariant.SchNetSpec, invariant.init_schnet, invariant.schnet_forward, False, False),
    "dimenet": Family(invariant.DimeNetSpec, invariant.init_dimenet, invariant.dimenet_forward, False, True),
    "tfn": _STEERABLE,
    "se3attn": _STEERABLE,
    "egnn": Family(vector.EgnnSpec, vector.init_egnn, vector.egnn_forward, True, False),
    "painn": Family(vector.PainnSpec, vector.init_painn, vector.painn_forward, True, False),
    "leaky": Family(invariant.SchNetSpec, init_leaky, leaky_forward, False, False),
}
FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class ModelHandle:
    """Family tag, its spec, and the cutoff its graphs are built with.

    Every entry point reads one run of the family's forward; `energy`,
    `node_scalars` and `node_vectors` stay separate names so that a caller
    (or a tracer) can tell the uses apart. `energy` and `node_scalars` ask
    the forward for no vectors, so it skips the work only they feed;
    `node_vectors` and `energy_and_vectors` ask for them."""

    family: str
    spec: Any
    cutoff: float

    @property
    def _row(self) -> Family:
        return FAMILY_TABLE[self.family]

    @property
    def needs_angles(self) -> bool:
        return self._row.needs_angles

    @property
    def scalar_width(self) -> int:
        return getattr(self.spec, self._row.width)

    @property
    def has_vector_output(self) -> bool:
        return self._row.has_vectors

    def init(self, seed: int) -> dict[str, np.ndarray]:
        return self._row.init(self.spec, seed)

    def energy_and_vectors(
        self, params: dict, batch: GraphBatch, pos: Tensor
    ) -> tuple[Tensor, Tensor | None]:
        """Graph energies (G,) and node vectors (N, 3), None for a family
        without vector output, from one forward."""
        h, vectors = self._row.forward(self.spec, params, batch, pos, True)
        return self._readout(params, h, batch), vectors

    def energy(self, params: dict, batch: GraphBatch, pos: Tensor) -> Tensor:
        return self._readout(params, self._row.forward(self.spec, params, batch, pos, False)[0], batch)

    def node_scalars(self, params: dict, batch: GraphBatch, pos: Tensor) -> Tensor:
        return self._row.forward(self.spec, params, batch, pos, False)[0]

    def node_vectors(self, params: dict, batch: GraphBatch, pos: Tensor) -> Tensor:
        if not self.has_vector_output:
            raise ContractError(f"family '{self.family}' has no equivariant vector output")
        return self._row.forward(self.spec, params, batch, pos, True)[1]

    @staticmethod
    def _readout(params: dict, h: Tensor, batch: GraphBatch) -> Tensor:
        with T.scope("readout"):
            return readout(params["head.w"], h, batch.node_graph, batch.n_graphs)


def check_json_type(value, kind: type, what: str):
    """`value`, if JSON holds it as a `kind` (str, list, dict, int, float or
    bool): an int passes as a float, true/false only as a bool, and NaN or
    Infinity (which Python's JSON reader accepts) not at all. Otherwise
    ContractError naming `what`."""
    kinds = (int, float) if kind is float else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool):
        raise ContractError(f"{what} must be of type {kind.__name__}, got {value!r}")
    # NaN passes every `<= 0` range check and compares false with any distance
    if kind is float and not math.isfinite(value):
        raise ContractError(f"{what} must be finite, got {value!r}")
    return value


def _configured(spec, table: dict, where: str, extra: tuple[str, ...] = ()):
    """`spec` with the fields that `table` names, each checked against the
    JSON type of its default; a nested spec reads its sub-mapping and `cutoff`.
    A key that is neither a field nor in `extra` raises ContractError."""
    stray = sorted(set(table) - {f.name for f in fields(spec)} - set(extra))
    if stray:
        keys = ", ".join(map(repr, stray))
        raise ContractError(f"{where} keys {keys} are not fields of {type(spec).__name__}")
    changes = {}
    for f in fields(spec):
        default = getattr(spec, f.name)
        if is_dataclass(default):
            sub = dict(check_json_type(table.get(f.name, {}), dict, f"{where} '{f.name}'"))
            if "cutoff" in sub:
                raise ContractError(f"{where} '{f.name}' takes no 'cutoff'; set the model 'cutoff'")
            if "cutoff" in table:
                sub["cutoff"] = check_json_type(table["cutoff"], float, f"{where} 'cutoff'")
            changes[f.name] = _configured(default, sub, f"{where} {f.name}")
        elif f.name in table:
            kind = type(default)  # a float field takes a JSON int as a float
            changes[f.name] = kind(check_json_type(table[f.name], kind, f"{where} '{f.name}'"))
    return replace(spec, **changes)


def model_from_config(config: dict) -> ModelHandle:
    """Build a handle from the JSON-style config mapping.

    `family` picks a `FAMILY_TABLE` row; every other key is a field of the
    row's spec dataclass, defaulting to the field's default, and a nested
    spec (`basis`) reads a mapping of its own fields. Radial bases and
    graphs are both cut at `cutoff`, so `basis` takes none of its own. A
    key the spec lacks, a value of the wrong JSON type, or a `basis.cutoff`
    raises ContractError.
    """
    check_json_type(config, dict, "model config")
    if "family" not in config:
        raise ContractError("model config needs a 'family' key")
    family = check_json_type(config["family"], str, "model 'family'")
    if family not in FAMILY_TABLE:
        raise ContractError(f"unknown model family '{family}'")
    spec = _configured(FAMILY_TABLE[family].spec(), config, "model", ("family", "cutoff"))
    return ModelHandle(family, spec, getattr(spec, "basis", spec).cutoff)
