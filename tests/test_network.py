"""Network config invariants, the YAML round trip, and the shipped benchmark."""

import dataclasses
import itertools

import pytest
import yaml

from rampnet.network import (CellParams, ConfigError, Highway, JunctionSpec,
                             NetworkConfig, RampSpec, benchmark_config_path,
                             load_config, neighbourhood_masks, serialize_config)


def _cell(**over):
    base = dict(length_km=0.5, lanes=3, free_flow_kmh=100.0,
                capacity_vphl=2000.0, jam_density_vkml=160.0)
    base.update(over)
    return CellParams(**base)


def _occupancy_pct(cell, density_vkml):
    """Occupancy (%) the plant's detectors read below the 100 % cap, which
    ``test_occupancy_saturates_at_hundred_percent`` checks."""
    return density_vkml * (cell.vehicle_length_m / 10.0)


def _tiny_config(**over):
    """One highway, one metered ramp, smallest valid timing."""
    cells = (_cell(), _cell(), _cell())
    fields = dict(
        highways=(Highway("A", cells, 3000.0),),
        ramps=(RampSpec("A-R1", "A", 1, "A-S1", 1500.0),),
        sim_step_s=1.0,
        control_step_s=30.0,
        burn_in_s=60.0,
        horizon_duration_s=120.0,
    )
    fields.update(over)
    return NetworkConfig(**fields)


# -- cell parameters ---------------------------------------------------------

def test_cell_derived_quantities():
    cell = _cell()
    assert cell.critical_density_vkml == 20.0
    assert cell.wave_speed_kmh == 2000.0 / 140.0
    # At critical density a 7.5 m effective vehicle reads 15% occupancy.
    assert _occupancy_pct(cell, 20.0) == 15.0


def test_cell_rejects_nonpositive_parameters():
    with pytest.raises(ConfigError):
        _cell(length_km=0.0)
    with pytest.raises(ConfigError):
        _cell(lanes=0)


def test_cell_rejects_critical_at_or_above_jam():
    # 100 km/h with 16000 veh/h/lane puts the flow peak past jam density.
    with pytest.raises(ConfigError):
        _cell(capacity_vphl=16000.0)


# -- validation --------------------------------------------------------------

def test_negative_demand_is_a_config_error():
    with pytest.raises(ConfigError, match="demand must be >= 0"):
        Highway("A", (_cell(),), -1.0)
    with pytest.raises(ConfigError, match="demand must be >= 0"):
        RampSpec("r1", "A", 1, "s1", -1.0)


def test_tiny_config_is_valid():
    cfg = _tiny_config()
    assert cfg.n_ramps == 1
    assert cfg.steps_per_control == 30


def test_ramp_may_not_merge_into_entry_cell():
    with pytest.raises(ConfigError, match="entry cell"):
        _tiny_config(ramps=(RampSpec("A-R1", "A", 0, "A-S1", 1500.0),))


def test_a_network_needs_a_ramp():
    with pytest.raises(ConfigError, match="at least one ramp"):
        _tiny_config(ramps=())


def test_sensor_ids_must_be_unique():
    # Two detectors under one id would label two report rows alike.
    with pytest.raises(ConfigError, match="sensor ids must be unique"):
        _tiny_config(ramps=(RampSpec("r1", "A", 1, "s1", 100.0),
                            RampSpec("r2", "A", 2, "s1", 100.0)))


def test_two_ramps_cannot_share_a_merge_cell():
    with pytest.raises(ConfigError, match="same cell"):
        _tiny_config(ramps=(RampSpec("r1", "A", 1, "s1", 100.0),
                            RampSpec("r2", "A", 1, "s2", 100.0)))


def test_control_step_must_be_integer_multiple_of_sim_step():
    with pytest.raises(ConfigError, match="integer multiple"):
        _tiny_config(sim_step_s=1.0, control_step_s=29.5)


def test_durations_must_be_whole_control_steps():
    with pytest.raises(ConfigError, match="whole control steps"):
        _tiny_config(burn_in_s=45.0)


def test_cfl_guard_rejects_too_short_cells():
    # 100 km/h covers 27.8 m per second; a 10 m cell cannot hold that.
    with pytest.raises(ConfigError, match="free-flow speed crosses"):
        _tiny_config(highways=(
            Highway("A", (_cell(length_km=0.01),) * 3, 3000.0),))


def test_junction_plumbing_rules():
    def two_highway(junctions):
        cells = (_cell(), _cell(), _cell(), _cell())
        return NetworkConfig(
            highways=(Highway("A", cells, 3000.0), Highway("B", cells, 3000.0)),
            ramps=(RampSpec("B-R1", "B", 3, "B-S1", 800.0),),
            junctions=junctions,
            control_step_s=30.0, burn_in_s=0.0, horizon_duration_s=30.0)

    ok = two_highway((JunctionSpec("A", 1, "B", 2, 0.1),))
    assert len(ok.junctions) == 1
    with pytest.raises(ConfigError, match="different highways"):
        two_highway((JunctionSpec("A", 1, "A", 2, 0.1),))
    with pytest.raises(ConfigError, match="entry cell"):
        two_highway((JunctionSpec("A", 1, "B", 0, 0.1),))
    with pytest.raises(ConfigError, match="downstream cell"):
        two_highway((JunctionSpec("A", 3, "B", 2, 0.1),))
    with pytest.raises(ConfigError):
        JunctionSpec("A", 1, "B", 2, 1.5)


# -- serialization -----------------------------------------------------------

def test_yaml_round_trip_preserves_everything(tmp_path):
    cfg = load_config(benchmark_config_path())
    path = tmp_path / "net.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    again = load_config(path)
    assert again == cfg
    # A second serialization of the reloaded config is byte-identical.
    assert serialize_config(again) == serialize_config(cfg)


def test_tiny_round_trip_with_junctions(tmp_path):
    cells = (_cell(), _cell(), _cell(), _cell())
    cfg = NetworkConfig(
        highways=(Highway("A", cells, 3000.0), Highway("B", cells, 2500.0)),
        ramps=(RampSpec("b1", "B", 2, "b-s1", 800.0, queue_capacity_veh=50.0),),
        junctions=(JunctionSpec("A", 1, "B", 3, 0.25),),
        control_step_s=30.0, burn_in_s=0.0, horizon_duration_s=30.0)
    path = tmp_path / "net.cfg"
    path.write_text(serialize_config(cfg), encoding="utf-8")
    assert load_config(path) == cfg


def test_load_config_rejects_garbage(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("highways: [not, a, mapping]\n")
    with pytest.raises(ConfigError):
        load_config(path)
    # A timing block that is not a mapping: null, a list, a scalar.
    body = serialize_config(_tiny_config()).split("highways:", 1)[1]
    for timing in ("null", "[1.0, 30.0]", "30.0"):
        path.write_text(f"timing: {timing}\nhighways:{body}")
        with pytest.raises(ConfigError, match="timing"):
            load_config(path)
    # The older one-block layout of a highway of equal cells.
    doc = yaml.safe_load(serialize_config(_tiny_config()))
    cells = doc["highways"][0]["cells"]
    doc["highways"][0]["cells"] = {"count": len(cells), **cells[0]}
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    with pytest.raises(ConfigError, match="cells must be a list"):
        load_config(path)


def test_load_config_names_the_file_it_cannot_parse(tmp_path):
    """Text that is not YAML (here a flow mapping never closed) is a
    ConfigError naming the file, not a yaml exception."""
    path = tmp_path / "unclosed.cfg"
    path.write_text("timing: {sim_step_s: 1.0, control_step_s: 30.0\nhighways: []\n")
    with pytest.raises(ConfigError, match="config parse error in .*unclosed.cfg") as exc:
        load_config(path)
    assert isinstance(exc.value.__cause__, yaml.YAMLError)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "net.cfg"
    text = serialize_config(_tiny_config())
    for old, new, key in (
            ("junctions:", "junction:", "junction"),
            ("  burn_in_s:", "  burn_in:", "burn_in"),
            ("  demand_veh_per_hour: 3000.0", "  demand_vph: 3000.0", "demand_vph"),
            ("  sensor_id: A-S1", "  metered: true", "metered"),
            ("  burn_in_s:", "  rng_seed: 0\n  burn_in_s:", "rng_seed")):
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ConfigError, match=key):
            load_config(path)


def test_load_config_requires_integer_lanes_and_cell_indices(tmp_path):
    """A float or a bool where the format wants a lane count or a cell index
    is refused, naming the key: ``merge_cell: 2.0`` used to pass validation
    and crash the plant, and ``lanes: 2.5`` was simulated."""
    cells = (_cell(), _cell(), _cell(), _cell())
    cfg = NetworkConfig(
        highways=(Highway("A", cells, 3000.0), Highway("B", cells, 2500.0)),
        ramps=(RampSpec("b1", "B", 2, "b-s1", 800.0),),
        junctions=(JunctionSpec("A", 1, "B", 3, 0.25),),
        control_step_s=30.0, burn_in_s=0.0, horizon_duration_s=30.0)
    path = tmp_path / "net.cfg"
    for value in (2.0, 2.5, True, "2"):
        for key in ("lanes", "merge_cell", "from_cell", "to_cell"):
            doc = yaml.safe_load(serialize_config(cfg))
            node = {"lanes": doc["highways"][0]["cells"][2],
                    "merge_cell": doc["ramps"][0]}.get(key, doc["junctions"][0])
            node[key] = value
            path.write_text(yaml.safe_dump(doc, sort_keys=False))
            with pytest.raises(ConfigError, match=f"{key} must be an integer"):
                load_config(path)


_TIMING = ("sim_step_s", "control_step_s", "burn_in_s", "horizon_duration_s")


def test_load_config_refuses_booleans_where_it_wants_numbers(tmp_path):
    """YAML's ``true`` in a number field is refused, naming the key: it used
    to load as 1.0 (a one-vehicle ramp queue, a 1 m detector vehicle). A
    highway's demand and the timing fields still read a whole or a quoted
    number as the same float, so the serialized config does not change."""
    cells = (_cell(), _cell(), _cell(), _cell())
    cfg = NetworkConfig(
        highways=(Highway("A", cells, 3000.0), Highway("B", cells, 2500.0)),
        ramps=(RampSpec("b1", "B", 2, "b-s1", 800.0),),
        junctions=(JunctionSpec("A", 1, "B", 3, 0.25),),
        control_step_s=30.0, burn_in_s=0.0, horizon_duration_s=30.0)
    path = tmp_path / "net.cfg"
    fields = [*(("cell", key) for key in ("length_km", "free_flow_kmh",
                                          "capacity_vphl", "jam_density_vkml",
                                          "vehicle_length_m")),
              ("highway", "demand_veh_per_hour"), ("ramp", "demand_veh_per_hour"),
              ("ramp", "queue_capacity_veh"), ("junction", "turn_ratio"),
              *(("timing", key) for key in _TIMING)]

    def write(owner, key, value):
        doc = yaml.safe_load(serialize_config(cfg))
        node = {"cell": doc["highways"][0]["cells"][2], "highway": doc["highways"][1],
                "ramp": doc["ramps"][0], "junction": doc["junctions"][0],
                "timing": doc["timing"]}[owner]
        node[key] = value
        path.write_text(yaml.safe_dump(doc, sort_keys=False))

    for owner, key in fields:
        write(owner, key, True)
        with pytest.raises(ConfigError, match=f"{key} must be a number, got True"):
            load_config(path)
    floats = {("highway", "demand_veh_per_hour"): cfg.highways[1].demand_veh_per_hour,
              **{("timing", key): getattr(cfg, key) for key in _TIMING}}
    for ((owner, key), value), kind in itertools.product(floats.items(), (int, str)):
        write(owner, key, kind(int(value)))
        assert serialize_config(load_config(path)) == serialize_config(cfg), (key, kind)


def test_load_config_requires_string_ramp_and_sensor_ids(tmp_path):
    """A ramp or sensor id that YAML reads as a number is refused, naming the
    key: the episode files written from the config carry ids as strings,
    and a numeric one would be collected and then refused by every reader."""
    cfg = _tiny_config()
    path = tmp_path / "net.cfg"
    for key, value in itertools.product(("id", "sensor_id"), (717046, 1.5, True)):
        doc = yaml.safe_load(serialize_config(cfg))
        doc["ramps"][0][key] = value
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        with pytest.raises(ConfigError, match=f"{key} must be a string, got {value!r}"):
            load_config(path)


# -- the shipped benchmark -----------------------------------------------------

def test_benchmark_shape_and_demands():
    cfg = load_config(benchmark_config_path())
    assert len(cfg.highways) == 3
    assert cfg.n_ramps == 8
    assert sorted(hw.demand_veh_per_hour for hw in cfg.highways) == \
        [3250.0, 3400.0, 4200.0]
    assert {r.demand_veh_per_hour for r in cfg.ramps} == {2000.0}
    assert {r.queue_capacity_veh for r in cfg.ramps} == {100.0}
    assert (cfg.control_step_s, cfg.burn_in_s, cfg.horizon_duration_s) == \
        (30.0, 1800.0, 3600.0)
    assert len(cfg.junctions) == 3


def test_benchmark_sensors_sit_at_full_capacity_merge_cells():
    """Every merge cell's critical density must map to 15% occupancy, so the
    regulators' setpoint is the flow peak of the cell their detector watches."""
    cfg = load_config(benchmark_config_path())
    for ramp in cfg.ramps:
        cell = cfg.highway(ramp.highway).cells[ramp.merge_cell]
        assert _occupancy_pct(cell, cell.critical_density_vkml) == 15.0


def test_config_is_immutable():
    cfg = load_config(benchmark_config_path())
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.control_step_s = 60.0


# -- road neighbourhoods ------------------------------------------------------------

def _neighbours(config):
    n = config.n_ramps
    masks = neighbourhood_masks(config)
    assert len(masks) == n and all(len(row) == 2 * n for row in masks)
    # a neighbour's occupancy and its meter's rate come together
    assert all(row[:n] == row[n:] for row in masks)
    return [tuple(j for j in range(n) if row[j]) for row in masks]


def test_benchmark_neighbourhoods_follow_its_roads():
    """A ramp neighbours the next metered merge down each branch of its road
    (through the junctions), the ramps upstream that feed it, and the ramps
    whose flows join its own downstream."""
    assert _neighbours(load_config(benchmark_config_path())) == [
        (0, 1), (0, 1, 2, 6), (1, 2, 3, 4), (2, 3, 4), (2, 3, 4, 5),
        (4, 5, 6, 7), (1, 5, 6, 7), (5, 6, 7)]


def test_one_junction_joins_two_highways_neighbourhoods():
    """Highway A: ramps at cells 1 and 4, a diverge at cell 2 onto B's cell
    2. Highway B: ramps at cells 1 and 3. A's first ramp reaches A's second
    and, through the junction, B's cell 2 and B's second ramp, where B's
    first ramp's flow joins it; A's second ramp reaches neither of B's."""
    cells = tuple(_cell() for _ in range(6))
    config = _tiny_config(
        highways=(Highway("A", cells, 3000.0), Highway("B", cells[:5], 3000.0)),
        ramps=(RampSpec("A-R1", "A", 1, "A-S1", 1500.0),
               RampSpec("A-R2", "A", 4, "A-S2", 1500.0),
               RampSpec("B-R1", "B", 1, "B-S1", 1500.0),
               RampSpec("B-R2", "B", 3, "B-S2", 1500.0)),
        junctions=(JunctionSpec("A", 2, "B", 2, 0.2),))
    assert _neighbours(config) == [(0, 1, 2, 3), (0, 1), (0, 2, 3), (0, 2, 3)]
    # without the junction the two highways share nothing
    assert _neighbours(dataclasses.replace(config, junctions=())) == [
        (0, 1), (0, 1), (2, 3), (2, 3)]
