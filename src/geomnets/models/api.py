"""One handle per model family: construction from a config dict, parameter
init, and the energy / per-node scalar / per-node vector entry points that
training, pretraining, and the CLI share.

Every family is one row of `FAMILY_TABLE`, whose forward maps a geometry to
invariant node scalars and, where the family can, equivariant node vectors.
The energy is the same for all of them, a bias-free linear head over
sum-pooled node scalars.

The `leaky` family is a deliberately broken negative control: it adds raw
coordinates into the scalar head, so every symmetry check must flag it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable

import numpy as np

from .. import tensor as T
from ..errors import ContractError
from ..tensor import Tensor
from . import invariant, spherical, vector
from .common import GraphBatch, readout


def _init_leaky(spec: invariant.SchNetSpec, seed: int) -> dict[str, np.ndarray]:
    params = invariant.init_schnet(spec, seed)
    params["leak.w"] = T.glorot_uniform(np.random.default_rng(seed + 1), 3, spec.hidden)
    return params


def _leaky_scalars(spec, params: dict, batch: GraphBatch, pos: Tensor) -> Tensor:
    h = invariant.schnet_node_features(spec, params, batch, pos)
    with T.scope("leak"):
        return h + T.matmul(pos, params["leak.w"])


def _scalars_only(node_features: Callable) -> Callable:
    """The forward of a family whose node features are all it returns."""

    def forward(spec, params: dict, batch: GraphBatch, pos: Tensor) -> tuple[Tensor, None]:
        return node_features(spec, params, batch, pos), None

    return forward


@dataclass(frozen=True)
class Family:
    """What a family supplies: `(spec, seed) -> params`, one forward
    `(spec, params, batch, pos) -> (node scalars (N, width), node vectors
    (N, 3) or None)`, whether that forward returns vectors, whether its
    batches need angle triplets, and its scalar width."""

    init: Callable
    forward: Callable
    has_vectors: bool
    needs_angles: bool
    width: Callable[[Any], int]


_HIDDEN = attrgetter("hidden")
_STEERABLE = Family(
    spherical.init_steerable, spherical.steerable_forward, True, False, attrgetter("scalar_channels")
)
_SCHNET = _scalars_only(invariant.schnet_node_features)
_DIMENET = _scalars_only(invariant.dimenet_node_features)
FAMILY_TABLE = {
    "schnet": Family(invariant.init_schnet, _SCHNET, False, False, _HIDDEN),
    "dimenet": Family(invariant.init_dimenet, _DIMENET, False, True, _HIDDEN),
    "tfn": _STEERABLE,
    "se3attn": _STEERABLE,
    "egnn": Family(vector.init_egnn, vector.egnn_forward, True, False, _HIDDEN),
    "painn": Family(vector.init_painn, vector.painn_forward, True, False, attrgetter("channels")),
    "leaky": Family(_init_leaky, _scalars_only(_leaky_scalars), False, False, _HIDDEN),
}
FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class ModelHandle:
    """Family tag, its spec, and the cutoff its graphs are built with.

    Every entry point reads one run of the family's forward; `energy`,
    `node_scalars` and `node_vectors` stay separate names so that a caller
    (or a tracer) can tell the uses apart."""

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
        return self._row.width(self.spec)

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
        h, vectors = self._row.forward(self.spec, params, batch, pos)
        with T.scope("readout"):
            return readout(params["head.w"], h, batch.node_graph, batch.n_graphs), vectors

    def energy(self, params: dict, batch: GraphBatch, pos: Tensor) -> Tensor:
        return self.energy_and_vectors(params, batch, pos)[0]

    def node_scalars(self, params: dict, batch: GraphBatch, pos: Tensor) -> Tensor:
        return self._row.forward(self.spec, params, batch, pos)[0]

    def node_vectors(self, params: dict, batch: GraphBatch, pos: Tensor) -> Tensor:
        if not self.has_vector_output:
            raise ContractError(f"family '{self.family}' has no equivariant vector output")
        return self._row.forward(self.spec, params, batch, pos)[1]


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


def model_from_config(config: dict) -> ModelHandle:
    """Build a handle from the JSON-style config mapping.

    Common keys: family, hidden, layers, cutoff, basis {kind, count, envelope}.
    Steerable families read scalar/vector/tensor channel counts instead of
    hidden; egnn honors update_coords. Graphs are cut at the radial basis
    cutoff (`basis.cutoff`, by default `cutoff`); egnn has no basis and uses
    `cutoff`. A value of the wrong JSON type raises ContractError.
    """
    check_json_type(config, dict, "model config")
    if "family" not in config:
        raise ContractError("model config needs a 'family' key")
    family = check_json_type(config["family"], str, "model 'family'")
    if family not in FAMILY_TABLE:
        raise ContractError(f"unknown model family '{family}'")

    def get(key: str, default, kind: type, table: dict = config, where: str = "model"):
        return kind(check_json_type(table.get(key, default), kind, f"{where} '{key}'"))

    cutoff = get("cutoff", 5.0, float)
    basis_cfg = dict(get("basis", {}, dict))
    basis_cfg.setdefault("cutoff", cutoff)

    def basis(default_kind: str, default_count: int) -> invariant.RadialBasisSpec:
        return invariant.RadialBasisSpec(
            kind=get("kind", default_kind, str, basis_cfg, "model basis"),
            count=get("count", default_count, int, basis_cfg, "model basis"),
            cutoff=get("cutoff", None, float, basis_cfg, "model basis"),
            envelope=get("envelope", "cosine", str, basis_cfg, "model basis"),
        )

    hidden = get("hidden", 32, int)
    layers = get("layers", 2, int)
    if family in ("schnet", "leaky"):
        spec = invariant.SchNetSpec(hidden=hidden, layers=layers, basis=basis("gaussian", 16))
    elif family == "dimenet":
        spec = invariant.DimeNetSpec(
            hidden=hidden,
            blocks=layers,
            basis=basis("bessel", 8),
            sbf_l_max=get("sbf_l_max", 2, int),
            sbf_n_max=get("sbf_n_max", 3, int),
        )
    elif family in ("tfn", "se3attn"):
        spec = spherical.SteerableModelSpec(
            family=family,
            scalar_channels=get("scalar_channels", 8, int),
            vector_channels=get("vector_channels", 4, int),
            tensor_channels=get("tensor_channels", 2, int),
            layers=layers,
            radial=basis("gaussian", 8),
            radial_hidden=get("radial_hidden", 8, int),
        )
    elif family == "egnn":
        spec = vector.EgnnSpec(
            hidden=hidden,
            layers=layers,
            update_coords=get("update_coords", True, bool),
        )
        return ModelHandle(family, spec, cutoff)
    else:
        spec = vector.PainnSpec(channels=hidden, layers=layers, basis=basis("bessel", 16))
    return ModelHandle(family, spec, float(basis_cfg["cutoff"]))

