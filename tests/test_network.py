"""Network config invariants, the YAML round trip, and the shipped benchmark."""

import dataclasses

import pytest
import yaml

from rampnet.network import (CellParams, ConfigError, Highway, JunctionSpec,
                             NetworkConfig, RampSpec, benchmark_config_path,
                             load_config, serialize_config)


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
