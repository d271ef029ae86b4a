"""Plant dynamics: conservation, signals, discharge physics, episode runner."""

import numpy as np
import pytest

from rampnet.network import (CellParams, Highway, NetworkConfig, RampSpec,
                             SensorSpec)
from rampnet.plant import (CAPACITY_DROP_FRAC, MERGE_FRICTION_FRAC,
                           MERGE_RELAX_S, ConservationError, EpisodeRecord,
                           RampSignal, TrafficPlant, run_episode,
                           sample_arrivals)


def _cell(lanes=3, capacity=2000.0):
    return CellParams(length_km=0.5, lanes=lanes, free_flow_kmh=100.0,
                      capacity_vphl=capacity, jam_density_vkml=160.0)


def _line_config(n_cells, demand=0.0, ramps=(), sensors=(), **timing):
    fields = dict(sim_step_s=1.0, control_step_s=30.0, burn_in_s=60.0,
                  horizon_duration_s=120.0)
    fields.update(timing)
    return NetworkConfig(
        highways=(Highway("A", tuple(_cell() for _ in range(n_cells)), demand),),
        ramps=tuple(ramps), sensors=tuple(sensors), **fields)


def _metered_config(**timing):
    """Three cells with one metered ramp into the middle one."""
    return _line_config(
        3, demand=3000.0,
        ramps=(RampSpec("r1", "A", 1, 1500.0),),
        sensors=(SensorSpec("s1", "A", 1),), **timing)


# -- arrivals -----------------------------------------------------------------

def test_sample_arrivals_zero_demand_draws_zero():
    rng = np.random.default_rng(0)
    assert sample_arrivals(0.0, 1.0, rng) == 0


def test_sample_arrivals_rejects_negative_demand():
    with pytest.raises(ValueError):
        sample_arrivals(-1.0, 1.0, np.random.default_rng(0))


def test_sample_arrivals_mean_tracks_demand():
    rng = np.random.default_rng(1)
    draws = [sample_arrivals(1800.0, 1.0, rng) for _ in range(20000)]
    assert abs(np.mean(draws) - 0.5) < 0.02


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
    plant = TrafficPlant(_line_config(1))
    plant.density[:] = 20.0  # exactly critical for a 2000 veh/h/lane cell
    info = plant.step(np.random.default_rng(0))
    assert info.exits_veh == pytest.approx(6000.0 / 3600.0, rel=1e-12)


def test_discharge_drops_linearly_beyond_critical():
    """An over-critical cell wastes throughput; halfway to jam it loses half
    the configured drop fraction."""
    plant = TrafficPlant(_line_config(1))
    plant.density[:] = 90.0  # (90 - 20) / (160 - 20) = 0.5 of the way to jam
    info = plant.step(np.random.default_rng(0))
    expected = 6000.0 * (1.0 - 0.5 * CAPACITY_DROP_FRAC) / 3600.0
    assert info.exits_veh == pytest.approx(expected, rel=1e-12)


def test_discharge_is_monotone_in_congestion():
    flows = []
    for rho in (20.0, 60.0, 100.0, 150.0):
        plant = TrafficPlant(_line_config(1))
        plant.density[:] = rho
        flows.append(plant.step(np.random.default_rng(0)).exits_veh)
    assert flows[0] == max(flows)
    assert flows == sorted(flows, reverse=True)


def test_merge_friction_cuts_the_merge_cells_discharge():
    """Recent ramp admissions brake the merge cell in proportion to their
    share of its capacity times how near critical it runs."""
    cfg = _line_config(2, ramps=(RampSpec("r1", "A", 1, 0.0),),
                       sensors=(SensorSpec("s1", "A", 1),))
    plant = TrafficPlant(cfg)
    plant.density[1] = 20.0
    plant._merge_flow_ema[0] = 600.0
    info = plant.step(np.random.default_rng(0))
    fric = MERGE_FRICTION_FRAC * (600.0 / 6000.0) * 1.0
    assert info.exits_veh == pytest.approx(6000.0 * (1.0 - fric) / 3600.0,
                                           rel=1e-12)


def test_merge_friction_memory_relaxes_exponentially():
    cfg = _line_config(2, ramps=(RampSpec("r1", "A", 1, 0.0),),
                       sensors=(SensorSpec("s1", "A", 1),))
    plant = TrafficPlant(cfg)
    plant._merge_flow_ema[0] = 600.0
    plant.step(np.random.default_rng(0))  # empty queue: nothing admitted
    assert plant._merge_flow_ema[0] == pytest.approx(
        600.0 * (1.0 - 1.0 / MERGE_RELAX_S), rel=1e-12)


def test_density_never_exceeds_jam():
    cfg = _metered_config()
    plant = TrafficPlant(cfg, initial_rate_vph=1800.0)
    rng = np.random.default_rng(5)
    for _ in range(600):
        plant.step(rng)
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
        info = plant.step(rng)
        arrived += info.arrivals_veh
        dropped += info.dropped_veh
        exited += info.exits_veh
    balance = start + arrived - dropped - exited
    assert abs(balance - plant.total_vehicles()) < 1e-6


def test_run_episode_catches_a_step_that_leaks_vehicles(monkeypatch):
    step = TrafficPlant.step

    def leaky_step(self, rng):
        info = step(self, rng)
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
        a.step(ra)
        b.step(rb)
    assert np.array_equal(a.density, b.density)
    assert np.array_equal(a.ramp_queues, b.ramp_queues)


def test_arrivals_are_independent_of_control():
    """Scenario comparisons share demand realizations: the arrival draws only
    depend on the seed, never on what the meters did."""
    cfg = _metered_config()
    open_plant = TrafficPlant(cfg, initial_rate_vph=1800.0)
    shut_plant = TrafficPlant(cfg, initial_rate_vph=200.0)
    ra, rb = np.random.default_rng(13), np.random.default_rng(13)
    for _ in range(300):
        assert (open_plant.step(ra).arrivals_veh
                == shut_plant.step(rb).arrivals_veh)


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
        plant.step(rng)
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
    plant.step(np.random.default_rng(0))
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
    assert rec.clamp_events == 6


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
    # A CSV without its sidecar still loads, with the caller's seed.
    (tmp_path / "ep.json").unlink()
    bare = EpisodeRecord.from_csv(path, seed=7)
    assert bare.seed == 7 and bare.dropped_veh == 0.0
    assert np.array_equal(bare.rates, back.rates)


def test_episode_record_rejects_malformed_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,occ_1,rate_1\n0,1\n")
    with pytest.raises(ValueError, match="column count"):
        EpisodeRecord.from_csv(path)
