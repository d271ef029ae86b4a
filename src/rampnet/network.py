"""Static description of a metered freeway network.

A network is a set of named highways, each a chain of homogeneous cells with a
triangular fundamental diagram, plus metered on-ramps and fixed-turn-ratio
junctions that route a share of one highway's flow onto another. Every ramp
is one meter and one loop detector: the detector sits in the cell the ramp
merges into, as in the local occupancy law ALINEA. Everything here is
geometry and timing; the dynamics live in :mod:`rampnet.plant`.

Configs travel as YAML with units spelled out in the key names
(``length_km``, ``demand_veh_per_hour``, ...). The canonical three-highway
testbed ships as ``data/benchmark.cfg``; see :func:`benchmark_config_path`.
:func:`neighbourhood_masks` reads the road graph for the model fit: which
sensors and meters share a road with each sensor.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from importlib import resources

import yaml

__all__ = [
    "CellParams",
    "Highway",
    "RampSpec",
    "JunctionSpec",
    "NetworkConfig",
    "ConfigError",
    "load_config",
    "serialize_config",
    "benchmark_config_path",
    "neighbourhood_masks",
]


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or violates an invariant."""


def _is_int(value) -> bool:
    """A YAML or JSON integer: an int, never a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A YAML or JSON number: an int or a float, never a bool or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_bool(value) -> bool:
    """A YAML or JSON bool."""
    return isinstance(value, bool)


def _list_of(valid):
    """Whether a value is a JSON list whose every item passes ``valid``."""
    return lambda value: isinstance(value, list) and all(map(valid, value))


def _require_ints(owner: str, **fields) -> None:
    """A :class:`ConfigError` naming the first field that is not an ``int``."""
    for key, value in fields.items():
        if not _is_int(value):
            raise ConfigError(f"{owner} invariant violated: {key} must be an "
                              f"integer, got {value!r}")


def _refuse_bools(owner: str, spec, keys) -> None:
    """A :class:`ConfigError` naming the first of ``spec``'s fields ``keys``
    that holds a ``bool``: YAML's ``true`` would read as 1.0."""
    for key in keys:
        value = getattr(spec, key)
        if isinstance(value, bool):
            raise ConfigError(f"{owner} invariant violated: {key} must be a "
                              f"number, got {value!r}")


@dataclass(frozen=True)
class CellParams:
    """Physical parameters of one cell of highway.

    The triangular fundamental diagram is fixed by free-flow speed, capacity,
    and jam density; the congestion wave speed follows from those three and is
    exposed as a property. Occupancy (%) is derived from density through the
    effective vehicle length.
    """

    length_km: float
    lanes: int
    free_flow_kmh: float
    capacity_vphl: float  # veh/h per lane
    jam_density_vkml: float  # veh/km per lane
    vehicle_length_m: float = 7.5  # effective length seen by a loop detector

    def __post_init__(self) -> None:
        names = ("length_km", "free_flow_kmh", "capacity_vphl",
                 "jam_density_vkml", "vehicle_length_m")
        _refuse_bools("cell", self, names)
        for name in names:
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"cell invariant violated: {name} must be positive")
        _require_ints("cell", lanes=self.lanes)
        if self.lanes < 1:
            raise ConfigError("cell invariant violated: lanes must be >= 1")
        if self.critical_density_vkml >= self.jam_density_vkml:
            raise ConfigError(
                "cell invariant violated: critical density must fall below jam "
                "density (capacity too high for the given speeds)")

    @property
    def critical_density_vkml(self) -> float:
        """Density at the flow peak, veh/km per lane."""
        return self.capacity_vphl / self.free_flow_kmh

    @property
    def wave_speed_kmh(self) -> float:
        """Backward congestion wave speed of the triangular diagram."""
        return self.capacity_vphl / (self.jam_density_vkml - self.critical_density_vkml)


@dataclass(frozen=True)
class Highway:
    """A directed chain of cells with a Poisson mainline source at cell 0."""

    name: str
    cells: tuple[CellParams, ...]
    demand_veh_per_hour: float

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigError(f"highway invariant violated: '{self.name}' has no cells")
        _refuse_bools(f"highway '{self.name}'", self, ("demand_veh_per_hour",))
        # 3000 and 3000.0 are one network, with one config digest.
        object.__setattr__(self, "demand_veh_per_hour", float(self.demand_veh_per_hour))
        if self.demand_veh_per_hour < 0.0:
            raise ConfigError(
                f"highway invariant violated: '{self.name}' demand must be >= 0")


@dataclass(frozen=True)
class RampSpec:
    """A single-lane on-ramp with a Poisson source, a queue, and a meter.

    ``sensor_id`` names the loop detector in ``merge_cell``, the occupancy
    the ramp's meter regulates.
    """

    id: str
    highway: str
    merge_cell: int
    sensor_id: str
    demand_veh_per_hour: float
    queue_capacity_veh: float = 100.0

    def __post_init__(self) -> None:
        # YAML reads ``sensor_id: 717046`` as an int, which the episode
        # files written from this config could not carry as an id.
        for key in ("id", "sensor_id"):
            if not isinstance(getattr(self, key), str):
                raise ConfigError(f"ramp '{self.id}' invariant violated: {key} "
                                  f"must be a string, got {getattr(self, key)!r}")
        _require_ints(f"ramp '{self.id}'", merge_cell=self.merge_cell)
        _refuse_bools(f"ramp '{self.id}'", self,
                      ("demand_veh_per_hour", "queue_capacity_veh"))
        if self.demand_veh_per_hour < 0.0:
            raise ConfigError(f"ramp invariant violated: '{self.id}' demand must be >= 0")
        if self.queue_capacity_veh <= 0.0:
            raise ConfigError(
                f"ramp invariant violated: '{self.id}' queue capacity must be positive")


@dataclass(frozen=True)
class JunctionSpec:
    """Fixed-ratio diverge: a share of ``from_cell``'s outflow merges into
    ``to_cell`` on another highway; the rest continues down its own chain."""

    from_highway: str
    from_cell: int
    to_highway: str
    to_cell: int
    turn_ratio: float

    def __post_init__(self) -> None:
        _require_ints("junction", from_cell=self.from_cell, to_cell=self.to_cell)
        _refuse_bools("junction", self, ("turn_ratio",))
        if not 0.0 < self.turn_ratio < 1.0:
            raise ConfigError("junction invariant violated: turn_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class NetworkConfig:
    """Complete immutable description of a network plus episode timing.

    Ordering convention: ``ramps[j]`` is the j-th meter and its detector the
    j-th sensor, so the j-th occupancy state and the j-th metering rate
    always refer to the same merge cell.
    """

    highways: tuple[Highway, ...]
    ramps: tuple[RampSpec, ...]
    junctions: tuple[JunctionSpec, ...] = ()
    sim_step_s: float = 1.0
    control_step_s: float = 30.0
    burn_in_s: float = 1800.0
    horizon_duration_s: float = 3600.0

    def __post_init__(self) -> None:
        _refuse_bools("network", self, _TIMING_KEYS)
        for key in _TIMING_KEYS:  # as for a highway's demand
            object.__setattr__(self, key, float(getattr(self, key)))
        self._validate()

    # -- derived quantities ------------------------------------------------

    @property
    def steps_per_control(self) -> int:
        return round(self.control_step_s / self.sim_step_s)

    @property
    def n_ramps(self) -> int:
        return len(self.ramps)

    def highway(self, name: str) -> Highway:
        for hw in self.highways:
            if hw.name == name:
                return hw
        raise KeyError(name)

    # -- validation ----------------------------------------------------------

    def _validate(self) -> None:
        def fail(msg: str) -> None:
            raise ConfigError("network invariant violated: " + msg)

        if not self.highways:
            fail("at least one highway is required")
        if not self.ramps:
            fail("at least one ramp is required")
        names = [hw.name for hw in self.highways]
        if len(set(names)) != len(names):
            fail("highway names must be unique")
        if self.sim_step_s <= 0.0 or self.control_step_s <= 0.0:
            fail("sim_step_s and control_step_s must be positive")
        ratio = self.control_step_s / self.sim_step_s
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            fail("control_step_s must be a positive integer multiple of sim_step_s")
        for dur in (self.burn_in_s, self.horizon_duration_s):
            if dur < 0.0 or abs(dur / self.control_step_s
                                - round(dur / self.control_step_s)) > 1e-9:
                fail("burn_in_s and horizon_duration_s must be whole control steps")
        if self.horizon_duration_s <= 0.0:
            fail("horizon_duration_s must be positive")

        def check_cell(hw_name: str, cell: int, what: str) -> None:
            if hw_name not in names:
                fail(f"{what} references unknown highway '{hw_name}'")
            n = len(self.highway(hw_name).cells)
            if not 0 <= cell < n:
                fail(f"{what} references cell {cell} outside highway '{hw_name}' (0..{n - 1})")

        for what, ids in (("ramp", [r.id for r in self.ramps]),
                          ("sensor", [r.sensor_id for r in self.ramps])):
            if len(set(ids)) != len(ids):
                fail(f"{what} ids must be unique")
        merge_cells = set()
        for ramp in self.ramps:
            check_cell(ramp.highway, ramp.merge_cell, f"ramp '{ramp.id}'")
            if ramp.merge_cell == 0:
                fail(f"ramp '{ramp.id}' may not merge into an entry cell")
            key = (ramp.highway, ramp.merge_cell)
            if key in merge_cells:
                fail(f"two ramps merge into the same cell {key}")
            merge_cells.add(key)

        # Junction plumbing rules keep every cell's inflow simple: at most one
        # side inflow per cell and never directly behind a diverge.
        diverge_cells = set()
        target_cells = set()
        for jn in self.junctions:
            check_cell(jn.from_highway, jn.from_cell, "junction source")
            check_cell(jn.to_highway, jn.to_cell, "junction target")
            if jn.from_highway == jn.to_highway:
                fail("junction must connect two different highways")
            n_from = len(self.highway(jn.from_highway).cells)
            if jn.from_cell >= n_from - 1:
                fail("junction source cell needs a downstream cell on its own highway")
            if jn.to_cell == 0:
                fail("junction may not target an entry cell")
            src = (jn.from_highway, jn.from_cell)
            tgt = (jn.to_highway, jn.to_cell)
            if src in diverge_cells:
                fail(f"two junctions diverge from the same cell {src}")
            if tgt in target_cells or tgt in merge_cells:
                fail(f"cell {tgt} would receive more than one side inflow")
            diverge_cells.add(src)
            target_cells.add(tgt)
        for hw_name, cell in diverge_cells:
            succ = (hw_name, cell + 1)
            if succ in merge_cells or succ in target_cells:
                fail(f"diverge at {(hw_name, cell)} may not feed a merge cell directly")
            if succ in diverge_cells:
                fail("two consecutive diverge cells are not supported")
        for key in merge_cells | target_cells:
            if key in diverge_cells and key in target_cells:
                fail(f"cell {key} cannot both diverge and receive a junction")

        # CFL conditions so one simulation step never drains or overfills a cell.
        for hw in self.highways:
            for cell in hw.cells:
                step_km = self.sim_step_s / 3600.0
                if cell.free_flow_kmh * step_km > cell.length_km + 1e-12:
                    fail(f"highway '{hw.name}': free-flow speed crosses a whole cell "
                         "per sim step (shorten sim_step_s or lengthen cells)")
                if cell.wave_speed_kmh * step_km > cell.length_km + 1e-12:
                    fail(f"highway '{hw.name}': congestion wave crosses a whole cell "
                         "per sim step")


# -- YAML round trip ---------------------------------------------------------

_TIMING_KEYS = ("sim_step_s", "control_step_s", "burn_in_s", "horizon_duration_s")

# libyaml's safe loader parses the benchmark config about 8x faster than the
# pure-Python one and builds the same document.
_SafeLoader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def serialize_config(config: NetworkConfig) -> str:
    """Render a config as canonical YAML (inverse of :func:`load_config`)."""
    doc = {
        "timing": {key: getattr(config, key) for key in _TIMING_KEYS},
        "highways": [{"name": hw.name,
                      "demand_veh_per_hour": hw.demand_veh_per_hour,
                      "cells": [dataclasses.asdict(c) for c in hw.cells]}
                     for hw in config.highways],
        "ramps": [dataclasses.asdict(r) for r in config.ramps],
        "junctions": [dataclasses.asdict(j) for j in config.junctions],
    }
    return yaml.safe_dump(doc, sort_keys=False)


def _mapping(node, keys, where: str, path) -> dict:
    """``node`` if it is a mapping holding only ``keys``; otherwise a
    :class:`ConfigError` naming what is wrong with it."""
    if not isinstance(node, dict):
        raise ConfigError(f"config parse error in {path}: {where} must be a mapping")
    for key in node:
        if key not in keys:
            raise ConfigError(
                f"config parse error in {path}: unknown key '{key}' in {where}")
    return node


def load_config(path) -> NetworkConfig:
    """Parse and validate a YAML network config.

    Raises FileNotFoundError for a missing file and :class:`ConfigError` for a
    malformed or invariant-violating one, including any key the format does
    not define.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = yaml.load(text, Loader=_SafeLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    doc = _mapping(doc, ("timing", "highways", "ramps", "junctions"), "top level", path)
    try:
        timing = _mapping(doc.get("timing", {}), _TIMING_KEYS, "timing", path)
        highways = []
        for i, node in enumerate(doc.get("highways", [])):
            node = _mapping(node, ("name", "demand_veh_per_hour", "cells"),
                            f"highway {i}", path)
            if not isinstance(node["cells"], list):
                raise ConfigError(
                    f"config parse error in {path}: highway '{node['name']}' "
                    f"cells must be a list, one mapping per cell")
            highways.append(Highway(
                name=node["name"],
                cells=tuple(CellParams(**cell) for cell in node["cells"]),
                demand_veh_per_hour=node["demand_veh_per_hour"],
            ))
        ramps = tuple(RampSpec(**node) for node in doc.get("ramps", []))
        junctions = tuple(JunctionSpec(**node) for node in doc.get("junctions", []))
        return NetworkConfig(
            highways=tuple(highways),
            ramps=ramps,
            junctions=junctions,
            **timing,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc


# -- canonical testbed --------------------------------------------------------

def benchmark_config_path() -> str:
    """Filesystem path of the shipped benchmark config."""
    return str(resources.files("rampnet").joinpath("data/benchmark.cfg"))


# -- road neighbourhoods ---------------------------------------------------------

def neighbourhood_masks(config: NetworkConfig) -> tuple[tuple[bool, ...], ...]:
    """Per-sensor masks over the model's variables (x_1..x_n, u_1..u_n).

    Ramp j's reach is its merge cell and every cell downstream of it, along
    its highway and through each junction, up to and including the next
    metered merge cell on each branch. Two ramps are neighbours when their
    reaches share a cell: one feeds the other's merge, or both feed one
    downstream section. Row k is true at x_j and u_j for each neighbour j of
    ramp k, itself included, so sensor k's dynamics are fitted only on the
    occupancies and rates of its own road neighbourhood (Daganzo 1994,
    *Transp. Res. B* 28:269: a cell's next state depends on its neighbours
    only).
    """
    merges = {(r.highway, r.merge_cell): j for j, r in enumerate(config.ramps)}
    turns: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for jn in config.junctions:
        turns.setdefault((jn.from_highway, jn.from_cell), []).append(
            (jn.to_highway, jn.to_cell))

    def reach(start: tuple[str, int]) -> set[tuple[str, int]]:
        seen, todo = {start}, [start]
        while todo:
            hw, cell = todo.pop()
            nxt = turns.get((hw, cell), [])
            if cell + 1 < len(config.highway(hw).cells):
                nxt = [(hw, cell + 1), *nxt]
            for node in nxt:
                if node not in seen:
                    seen.add(node)
                    if node not in merges:  # another meter's merge ends the branch
                        todo.append(node)
        return seen

    reaches = [reach((r.highway, r.merge_cell)) for r in config.ramps]
    rows = []
    for own in reaches:
        near = tuple(bool(own & other) for other in reaches)
        rows.append(near + near)
    return tuple(rows)
