"""Static description of a metered freeway network.

A network is a set of named highways, each a chain of homogeneous cells with a
triangular fundamental diagram, plus metered on-ramps, occupancy sensors, and
fixed-turn-ratio junctions that route a share of one highway's flow onto
another. Everything here is geometry and timing; the dynamics live in
:mod:`rampnet.plant`.

Configs travel as YAML with units spelled out in the key names
(``length_km``, ``demand_veh_per_hour``, ...). The canonical three-highway
testbed ships as ``data/benchmark.cfg``; see :func:`benchmark_config_path`.
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
    "SensorSpec",
    "JunctionSpec",
    "NetworkConfig",
    "ConfigError",
    "load_config",
    "save_config",
    "serialize_config",
    "benchmark_config_path",
]


class ConfigError(ValueError):
    """Raised when a config file cannot be parsed or violates an invariant."""


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
        for name in ("length_km", "free_flow_kmh", "capacity_vphl",
                     "jam_density_vkml", "vehicle_length_m"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"cell invariant violated: {name} must be positive")
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

    def occupancy_pct(self, density_vkml: float) -> float:
        """Occupancy (%) a detector reports at the given per-lane density."""
        return min(100.0, density_vkml * self.vehicle_length_m / 10.0)


@dataclass(frozen=True)
class Highway:
    """A directed chain of cells with a Poisson mainline source at cell 0."""

    name: str
    cells: tuple[CellParams, ...]
    demand_veh_per_hour: float

    def __post_init__(self) -> None:
        if not self.cells:
            raise ConfigError(f"highway invariant violated: '{self.name}' has no cells")
        if self.demand_veh_per_hour < 0.0:
            raise ConfigError(
                f"highway invariant violated: '{self.name}' demand must be >= 0")


@dataclass(frozen=True)
class RampSpec:
    """A single-lane on-ramp with a Poisson source, a queue, and a meter."""

    id: str
    highway: str
    merge_cell: int
    demand_veh_per_hour: float
    queue_capacity_veh: float = 100.0
    metered: bool = True

    def __post_init__(self) -> None:
        if self.demand_veh_per_hour < 0.0:
            raise ConfigError(f"ramp invariant violated: '{self.id}' demand must be >= 0")
        if self.queue_capacity_veh <= 0.0:
            raise ConfigError(
                f"ramp invariant violated: '{self.id}' queue capacity must be positive")


@dataclass(frozen=True)
class SensorSpec:
    """A loop detector, placed in the first mainline cell its ramp feeds."""

    id: str
    highway: str
    cell: int
    position: str = "downstream of on-ramp"


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
        if not 0.0 < self.turn_ratio < 1.0:
            raise ConfigError("junction invariant violated: turn_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class NetworkConfig:
    """Complete immutable description of a network plus episode timing.

    Ordering conventions: ``sensors[j]`` must sit in the merge cell of
    ``ramps[j]`` for every metered ramp j, so the j-th occupancy state and the
    j-th metering rate always refer to the same location.
    """

    highways: tuple[Highway, ...]
    ramps: tuple[RampSpec, ...]
    sensors: tuple[SensorSpec, ...]
    junctions: tuple[JunctionSpec, ...] = ()
    sim_step_s: float = 1.0
    control_step_s: float = 30.0
    burn_in_s: float = 1800.0
    horizon_duration_s: float = 3600.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        self._validate()

    # -- derived quantities ------------------------------------------------

    @property
    def steps_per_control(self) -> int:
        return round(self.control_step_s / self.sim_step_s)

    @property
    def n_sensors(self) -> int:
        return len(self.sensors)

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

        ramp_ids = [r.id for r in self.ramps]
        if len(set(ramp_ids)) != len(ramp_ids):
            fail("ramp ids must be unique")
        merge_cells = set()
        for ramp in self.ramps:
            check_cell(ramp.highway, ramp.merge_cell, f"ramp '{ramp.id}'")
            if ramp.merge_cell == 0:
                fail(f"ramp '{ramp.id}' may not merge into an entry cell")
            key = (ramp.highway, ramp.merge_cell)
            if key in merge_cells:
                fail(f"two ramps merge into the same cell {key}")
            merge_cells.add(key)

        # Sensors pair one-to-one, in order, with the metered ramps.
        metered = [r for r in self.ramps if r.metered]
        if len(self.sensors) != len(metered):
            fail("exactly one sensor per metered ramp is required "
                 f"({len(self.sensors)} sensors, {len(metered)} metered ramps)")
        for sensor, ramp in zip(self.sensors, metered):
            check_cell(sensor.highway, sensor.cell, f"sensor '{sensor.id}'")
            if (sensor.highway, sensor.cell) != (ramp.highway, ramp.merge_cell):
                fail(f"sensor '{sensor.id}' must sit in the merge cell of ramp "
                     f"'{ramp.id}' (sensors pair with metered ramps in order)")

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

def _cell_to_dict(cell: CellParams) -> dict:
    return {
        "length_km": cell.length_km,
        "lanes": cell.lanes,
        "free_flow_kmh": cell.free_flow_kmh,
        "capacity_vphl": cell.capacity_vphl,
        "jam_density_vkml": cell.jam_density_vkml,
        "vehicle_length_m": cell.vehicle_length_m,
    }


def _cells_from_node(node, hw_name: str) -> tuple[CellParams, ...]:
    if isinstance(node, dict):  # uniform shorthand: one params block + count
        params = dict(node)
        count = params.pop("count", None)
        if count is None or int(count) < 1:
            raise ConfigError(
                f"highway '{hw_name}': uniform cells block needs a positive 'count'")
        return tuple(CellParams(**params) for _ in range(int(count)))
    if isinstance(node, list):
        return tuple(CellParams(**item) for item in node)
    raise ConfigError(f"highway '{hw_name}': cells must be a mapping or a list")


def serialize_config(config: NetworkConfig) -> str:
    """Render a config as canonical YAML (inverse of :func:`load_config`)."""
    highways = []
    for hw in config.highways:
        if len(set(hw.cells)) == 1:
            cells_node: dict | list = {"count": len(hw.cells), **_cell_to_dict(hw.cells[0])}
        else:
            cells_node = [_cell_to_dict(c) for c in hw.cells]
        highways.append({
            "name": hw.name,
            "demand_veh_per_hour": hw.demand_veh_per_hour,
            "cells": cells_node,
        })
    doc = {
        "timing": {
            "sim_step_s": config.sim_step_s,
            "control_step_s": config.control_step_s,
            "burn_in_s": config.burn_in_s,
            "horizon_duration_s": config.horizon_duration_s,
            "rng_seed": config.rng_seed,
        },
        "highways": highways,
        "ramps": [dataclasses.asdict(r) for r in config.ramps],
        "sensors": [dataclasses.asdict(s) for s in config.sensors],
        "junctions": [dataclasses.asdict(j) for j in config.junctions],
    }
    return yaml.safe_dump(doc, sort_keys=False)


def save_config(config: NetworkConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))


def load_config(path) -> NetworkConfig:
    """Parse and validate a YAML network config.

    Raises FileNotFoundError for a missing file and :class:`ConfigError` for a
    malformed or invariant-violating one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config parse error in {path}: top level must be a mapping")
    try:
        timing = doc.get("timing", {})
        if not isinstance(timing, dict):
            raise ConfigError(f"config parse error in {path}: timing must be a mapping")
        highways = tuple(
            Highway(
                name=node["name"],
                cells=_cells_from_node(node["cells"], node["name"]),
                demand_veh_per_hour=float(node["demand_veh_per_hour"]),
            )
            for node in doc.get("highways", [])
        )
        ramps = tuple(RampSpec(**node) for node in doc.get("ramps", []))
        sensors = tuple(SensorSpec(**node) for node in doc.get("sensors", []))
        junctions = tuple(JunctionSpec(**node) for node in doc.get("junctions", []))
        return NetworkConfig(
            highways=highways,
            ramps=ramps,
            sensors=sensors,
            junctions=junctions,
            **{k: (int(v) if k == "rng_seed" else float(v)) for k, v in timing.items()},
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc


# -- canonical testbed --------------------------------------------------------

def benchmark_config_path() -> str:
    """Filesystem path of the shipped benchmark config."""
    return str(resources.files("rampnet").joinpath("data/benchmark.cfg"))
