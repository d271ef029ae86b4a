"""Plant dynamics: conservation, signals, discharge physics, episode runner."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from rampnet.feedback import ALINEA_GAINS, MeterBank
from rampnet.network import (CellParams, Highway, JunctionSpec, NetworkConfig,
                             RampSpec, benchmark_config_path,
                             load_config)
from rampnet.plant import (CAPACITY_DROP_FRAC, MERGE_FRICTION_FRAC,
                           MERGE_RELAX_S, ConservationError, EpisodeRecord,
                           RampSignal, TrafficPlant, run_episode)


def _cell(lanes=3, capacity=2000.0):
    return CellParams(length_km=0.5, lanes=lanes, free_flow_kmh=100.0,
                      capacity_vphl=capacity, jam_density_vkml=160.0)


# A ramp without demand never admits a vehicle and leaves its merge cell
# as a plain chain cell would.
_IDLE_RAMP = RampSpec("r1", "A", 1, "s1", 0.0)


def _line_config(n_cells, demand=0.0, ramps=(_IDLE_RAMP,), **timing):
    fields = dict(sim_step_s=1.0, control_step_s=30.0, burn_in_s=60.0,
                  horizon_duration_s=120.0)
    fields.update(timing)
    return NetworkConfig(
        highways=(Highway("A", tuple(_cell() for _ in range(n_cells)), demand),),
        ramps=tuple(ramps), **fields)


def _metered_config(**timing):
    """Three cells with one metered ramp into the middle one."""
    return _line_config(
        3, demand=3000.0, ramps=(RampSpec("r1", "A", 1, "s1", 1500.0),), **timing)


def _step(plant, rng):
    """One simulation step on a freshly drawn row of arrivals."""
    return plant.step(plant.draw_arrivals(1, rng)[0])


# -- arrivals -----------------------------------------------------------------

def test_arrival_block_zero_demand_draws_zero_without_consuming_bits():
    plant = TrafficPlant(_line_config(2))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert plant.draw_arrivals(30, rng) == [[0, 0]] * 30
    assert rng.bit_generator.state == before


def test_arrival_block_mean_tracks_demand():
    plant = TrafficPlant(_line_config(2, demand=1800.0,
                                      ramps=(RampSpec("r1", "A", 1, "s1", 720.0),)))
    block = np.array(plant.draw_arrivals(20000, np.random.default_rng(1)))
    assert block.shape == (20000, 2)
    assert np.allclose(block.mean(axis=0), [0.5, 0.2], atol=0.02)


# -- signal arithmetic ----------------------------------------------------------

def test_signal_full_rate_never_leaves_green():
    sig = RampSignal(1800.0)
    for _ in range(10):
        sig.advance(1.0)
        assert sig.phase == "green"


def test_signal_cycle_at_minimum_rate():
    # 2 s green then 16 s red, one vehicle quota per green.
    sig = RampSignal(200.0)
    phases = []
    for _ in range(36):
        phases.append(sig.phase)
        sig.advance(1.0)
    assert phases == (["green"] * 2 + ["red"] * 16) * 2


def test_signal_latches_new_rate_at_next_green():
    sig = RampSignal(1000.0)
    sig.advance(2.0)  # enters red under the old timing
    sig.set_rate(200.0)
    assert sig.phase == "red" and sig.rate == 1000.0
    sig.advance(1.6)  # old red (1.6 s) ends, green adopts the pending rate
    assert sig.phase == "green" and sig.rate == 200.0
    assert sig.quota_veh == 1.0


def test_signal_rejects_infeasible_rate():
    with pytest.raises(ValueError):
        RampSignal(1000.0).set_rate(5000.0)


# -- discharge physics -----------------------------------------------------------

def test_discharge_at_or_below_critical_is_nominal():
    plant = TrafficPlant(_line_config(2))
    plant.density[:] = 20.0  # exactly critical for a 2000 veh/h/lane cell
    info = _step(plant, np.random.default_rng(0))
    assert info.exits_veh == pytest.approx(6000.0 / 3600.0, rel=1e-12)


def test_discharge_drops_linearly_beyond_critical():
    """An over-critical cell wastes throughput; halfway to jam it loses half
    the configured drop fraction."""
    plant = TrafficPlant(_line_config(2))
    plant.density[:] = 90.0  # (90 - 20) / (160 - 20) = 0.5 of the way to jam
    info = _step(plant, np.random.default_rng(0))
    expected = 6000.0 * (1.0 - 0.5 * CAPACITY_DROP_FRAC) / 3600.0
    assert info.exits_veh == pytest.approx(expected, rel=1e-12)


def test_discharge_is_monotone_in_congestion():
    flows = []
    for rho in (20.0, 60.0, 100.0, 150.0):
        plant = TrafficPlant(_line_config(2))
        plant.density[:] = rho
        flows.append(_step(plant, np.random.default_rng(0)).exits_veh)
    assert flows[0] == max(flows)
    assert flows == sorted(flows, reverse=True)


def test_merge_friction_cuts_the_merge_cells_discharge():
    """Recent ramp admissions brake the merge cell in proportion to their
    share of its capacity times how near critical it runs."""
    plant = TrafficPlant(_line_config(2))
    plant.density[1] = 20.0
    plant._merge_flow_ema[0] = 600.0
    info = _step(plant, np.random.default_rng(0))
    fric = MERGE_FRICTION_FRAC * (600.0 / 6000.0) * 1.0
    assert info.exits_veh == pytest.approx(6000.0 * (1.0 - fric) / 3600.0,
                                           rel=1e-12)


def test_merge_friction_memory_relaxes_exponentially():
    plant = TrafficPlant(_line_config(2))
    plant._merge_flow_ema[0] = 600.0
    _step(plant, np.random.default_rng(0))  # empty queue: nothing admitted
    assert plant._merge_flow_ema[0] == pytest.approx(
        600.0 * (1.0 - 1.0 / MERGE_RELAX_S), rel=1e-12)


def test_density_never_exceeds_jam():
    cfg = _metered_config()
    plant = TrafficPlant(cfg)
    plant.set_rates([1800.0])
    rng = np.random.default_rng(5)
    for _ in range(600):
        _step(plant, rng)
        assert (plant.density <= 160.0 + 1e-9).all()
        assert (plant.density >= 0.0).all()


# -- conservation ----------------------------------------------------------------

def test_vehicle_conservation_audit():
    """Arrivals minus drops minus exits equals the change in stored vehicles."""
    cfg = _metered_config()
    plant = TrafficPlant(cfg)
    rng = np.random.default_rng(11)
    start = plant.total_vehicles()
    arrived = dropped = exited = 0.0
    for _ in range(900):
        info = _step(plant, rng)
        arrived += info.arrivals_veh
        dropped += info.dropped_veh
        exited += info.exits_veh
    balance = start + arrived - dropped - exited
    assert abs(balance - plant.total_vehicles()) < 1e-6


def test_run_episode_catches_a_step_that_leaks_vehicles(monkeypatch):
    step = TrafficPlant.step

    def leaky_step(self, arrivals):
        info = step(self, arrivals)
        self.density = self.density * (1.0 - 1e-6)
        return info

    cfg = _metered_config()
    run_episode(cfg, lambda obs: np.array([900.0]), seed=3)
    monkeypatch.setattr(TrafficPlant, "step", leaky_step)
    with pytest.raises(ConservationError) as exc:
        run_episode(cfg, lambda obs: np.array([900.0]), seed=3)
    assert exc.value.residual_veh > 1e-6


def test_same_seed_reproduces_the_trajectory_bitwise():
    cfg = _metered_config()
    a, b = TrafficPlant(cfg), TrafficPlant(cfg)
    ra, rb = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(200):
        _step(a, ra)
        _step(b, rb)
    assert np.array_equal(a.density, b.density)
    assert np.array_equal(a.ramp_queues, b.ramp_queues)


def test_arrivals_are_independent_of_control():
    """Scenario comparisons share demand realizations: the arrival draws only
    depend on the seed, never on what the meters did."""
    cfg = _metered_config()
    open_plant, shut_plant = TrafficPlant(cfg), TrafficPlant(cfg)
    open_plant.set_rates([1800.0])
    shut_plant.set_rates([200.0])
    ra, rb = np.random.default_rng(13), np.random.default_rng(13)
    for _ in range(300):
        assert (_step(open_plant, ra).arrivals_veh
                == _step(shut_plant, rb).arrivals_veh)


# -- sensors and state ------------------------------------------------------------

def test_read_window_without_steps_is_an_error():
    plant = TrafficPlant(_metered_config())
    with pytest.raises(RuntimeError):
        plant.read_window()


def test_window_aggregates_have_sane_ranges():
    cfg = _metered_config()
    plant = TrafficPlant(cfg)
    rng = np.random.default_rng(3)
    for _ in range(30):
        _step(plant, rng)
    obs, green = plant.read_window()
    assert obs.occupancy.shape == (1,) and obs.flow.shape == (1,)
    assert 0.0 <= obs.occupancy[0] <= 100.0
    assert 0.0 <= obs.speed[0] <= 100.0 + 1e-9
    assert 0.0 <= green[0] <= 30.0
    # The window reset means an immediate second read has no steps to report.
    with pytest.raises(RuntimeError):
        plant.read_window()


def test_occupancy_saturates_at_hundred_percent():
    plant = TrafficPlant(_metered_config())
    plant.density[:] = 160.0
    _step(plant, np.random.default_rng(0))
    obs, _ = plant.read_window()
    assert obs.occupancy[0] == 100.0


def test_set_rates_validates_shape():
    plant = TrafficPlant(_metered_config())
    with pytest.raises(ValueError):
        plant.set_rates([1000.0, 1000.0])


# -- episodes --------------------------------------------------------------------

def test_run_episode_records_only_past_burn_in():
    cfg = _metered_config(burn_in_s=60.0, horizon_duration_s=120.0)
    calls = []

    def controller(obs):
        calls.append(obs.time_s)
        return np.array([900.0])

    rec = run_episode(cfg, controller, seed=2)
    assert len(calls) == 6  # 2 burn-in windows + 4 recorded ones
    assert len(rec) == 4
    assert rec.times[0] == 90.0 and rec.times[-1] == 180.0
    assert rec.occupancy.shape == (4, 1) and rec.rates.shape == (4, 1)
    assert (rec.rates == 900.0).all()


def test_run_episode_clamps_and_counts_wild_rates():
    cfg = _metered_config(burn_in_s=60.0, horizon_duration_s=120.0)
    rec = run_episode(cfg, lambda obs: np.array([5000.0]), seed=2)
    assert (rec.rates == 1800.0).all()
    assert rec.clamp_events == 4  # the 2 burn-in windows do not count


def test_dropped_veh_covers_the_recorded_window_only(monkeypatch):
    # A five-vehicle ramp queue under the lowest rate overflows in burn-in.
    cfg = replace(_metered_config(burn_in_s=60.0, horizon_duration_s=120.0),
                  ramps=(RampSpec("r1", "A", 1, "s1", 1500.0, queue_capacity_veh=5.0),))
    drops = []
    step = TrafficPlant.step

    def counting_step(self, *args):
        info = step(self, *args)
        drops.append(info.dropped_veh)
        return info

    monkeypatch.setattr(TrafficPlant, "step", counting_step)
    rec = run_episode(cfg, lambda obs: np.array([200.0]), seed=6)
    burn_in_steps = round(cfg.burn_in_s / cfg.sim_step_s)
    recorded = 0.0
    for dropped in drops[burn_in_steps:]:
        recorded += dropped
    assert sum(drops[:burn_in_steps]) > 0.0 and recorded > 0.0
    assert rec.dropped_veh == recorded


def _two_highway_config():
    """A junction and two ramps, all congested."""
    return NetworkConfig(
        highways=(Highway("A", tuple(_cell() for _ in range(6)), 5500.0),
                  Highway("B", tuple(_cell(lanes=2) for _ in range(5)), 2500.0)),
        ramps=(RampSpec("a-r1", "A", 4, "a-s1", 900.0),
               RampSpec("b-r1", "B", 3, "b-s1", 1500.0, queue_capacity_veh=20.0)),
        junctions=(JunctionSpec("A", 2, "B", 2, 0.3),),
        sim_step_s=1.0, control_step_s=30.0, burn_in_s=300.0,
        horizon_duration_s=900.0)


def _benchmark_short_config():
    return replace(load_config(benchmark_config_path()),
                   burn_in_s=900.0, horizon_duration_s=900.0)


# sha256 of (times, occupancy, flow, speed, rates, green seconds) of one
# ALINEA episode. The corridor's was recorded from the array implementation
# of the plant that preceded the scalar one, the junction case's from the
# scalar plant with a detector on each ramp's merge cell; any change to the
# plant's float arithmetic or its draw order shows here. The digests also depend on numpy's
# Generator.poisson stream, which NEP 19 lets a numpy release change: they
# were recorded with numpy 2.4, and a numpy upgrade that fails this test
# without a plant change needs them recorded again.
@pytest.mark.parametrize("make_config, seed, digest", [
    (_benchmark_short_config, 21,
     "98bbd4958c0884a491926cb4496df58e6a1640f807bfebd3256102018634b3c2"),
    (_two_highway_config, 5,
     "3df0b128d785640603f19b1960303c860946ffb0d8984b8b48b501fcb6c11c80"),
], ids=["benchmark-corridor", "junction-and-two-ramps"])
def test_episode_digests_are_pinned(make_config, seed, digest):
    cfg = make_config()
    rec = run_episode(cfg, MeterBank(cfg.n_ramps, 15.0, *ALINEA_GAINS), seed=seed)
    h = hashlib.sha256()
    for arr in (rec.times, rec.occupancy, rec.flow, rec.speed, rec.rates,
                rec.green_seconds):
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == digest


def test_run_episode_rejects_wrong_controller_shape():
    cfg = _metered_config(burn_in_s=60.0, horizon_duration_s=120.0)
    with pytest.raises(ValueError, match="controller returned shape"):
        run_episode(cfg, lambda obs: np.array([900.0, 900.0]), seed=2)


def test_episode_record_csv_round_trip(tmp_path):
    # A rate below the floor is clamped every window and lets the ramp queue
    # overflow, so every per-episode field is away from its default.
    cfg = _metered_config(burn_in_s=60.0, horizon_duration_s=360.0)
    rec = run_episode(cfg, lambda obs: np.array([100.0]), seed=4)
    assert rec.dropped_veh > 0.0 and rec.clamp_events > 0
    path = tmp_path / "ep.csv"
    rec.to_csv(path)
    back = EpisodeRecord.from_csv(path)
    assert back.seed == 4
    assert back.control_step_s == rec.control_step_s
    assert back.sensor_ids == rec.sensor_ids and back.ramp_ids == rec.ramp_ids
    assert back.dropped_veh == rec.dropped_veh
    assert back.clamp_events == rec.clamp_events
    assert np.array_equal(back.green_seconds, rec.green_seconds)
    assert np.allclose(back.times, rec.times, rtol=0, atol=1e-9)
    for name in ("occupancy", "flow", "speed", "rates"):
        assert np.allclose(getattr(back, name), getattr(rec, name),
                           rtol=1e-11, atol=1e-11)


def test_episode_record_refuses_a_missing_sidecar_or_key(tmp_path):
    """Seed, green seconds, drops and clamps live only in the sidecar, so a
    CSV without it, or a sidecar without one of its seven keys, is refused,
    naming the sidecar and the missing key."""
    cfg = _metered_config(burn_in_s=60.0, horizon_duration_s=120.0)
    path = tmp_path / "ep.csv"
    run_episode(cfg, lambda obs: np.array([100.0]), seed=4).to_csv(path)
    sidecar = tmp_path / "ep.json"
    full = json.loads(sidecar.read_text())
    assert len(full) == 7
    for key in full:
        sidecar.write_text(json.dumps({k: v for k, v in full.items() if k != key}))
        with pytest.raises(ValueError, match=f"ep.json: missing {key}"):
            EpisodeRecord.from_csv(path)
    sidecar.unlink()
    with pytest.raises(ValueError, match="no sidecar .*ep.json"):
        EpisodeRecord.from_csv(path)


def test_episode_record_rejects_malformed_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,occ_1,rate_1\n0,1\n")
    with pytest.raises(ValueError, match="column count"):
        EpisodeRecord.from_csv(path)


def test_episode_record_rejects_a_sidecar_that_is_not_an_object(tmp_path):
    path = tmp_path / "ep.csv"
    path.write_text("time_s,occ_1,flow_1,speed_1,rate_1\n0,10,3000,90,700\n")
    for doc in ("[1, 2, 3]", "null", "12", '{"seed": 1,'):
        (tmp_path / "ep.json").write_text(doc)
        with pytest.raises(ValueError, match="ep.json"):
            EpisodeRecord.from_csv(path)


def test_episode_record_rejects_sidecar_lists_that_do_not_match_the_csv(tmp_path):
    """One sensor and two ramps: each id or green-second list of the wrong
    length is refused, naming the sidecar and the list."""
    path = tmp_path / "ep.csv"
    path.write_text("time_s,occ_1,flow_1,speed_1,rate_1,rate_2\n"
                    "0,10,3000,90,700,900\n")
    good = {"seed": 1, "control_step_s": 30.0, "sensor_ids": ["s1"],
            "ramp_ids": ["r1", "r2"], "green_seconds": [10.0, 20.0],
            "dropped_veh": 0.0, "clamp_events": 0}
    (tmp_path / "ep.json").write_text(json.dumps(good))
    assert EpisodeRecord.from_csv(path).ramp_ids == ("r1", "r2")
    for key, wrong in (("sensor_ids", ["s1", "s2"]), ("ramp_ids", ["r1"]),
                       ("green_seconds", [1.0, 2.0, 3.0]),
                       ("green_seconds", [])):
        (tmp_path / "ep.json").write_text(json.dumps(dict(good, **{key: wrong})))
        with pytest.raises(ValueError, match=f"ep.json: {len(wrong)} {key}"):
            EpisodeRecord.from_csv(path)
