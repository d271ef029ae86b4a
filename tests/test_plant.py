"""Plant dynamics: conservation, signals, discharge physics, episode runner."""

import ast
import csv
import hashlib
import inspect
import json
import math
import time
import traceback
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rampnet.feedback import (ALINEA_GAINS, GREEN_DURATION_S, INITIAL_RATE_VPH,
                              RATE_MAX_VPH, RATE_MIN_VPH, MeterBank,
                              rate_to_red_duration)
from rampnet.network import (CellParams, Highway, JunctionSpec, NetworkConfig,
                             RampSpec, benchmark_config_path,
                             load_config)
from rampnet import plant as plant_module
from rampnet.plant import (CAPACITY_DROP_FRAC, MERGE_FRICTION_FRAC,
                           MERGE_RELAX_S, ConservationError, EpisodeRecord,
                           TrafficPlant, _free_flow_bound, _free_flow_exact,
                           _kernel_source, run_episode)


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
    """One simulation step on a freshly drawn row of arrivals, as floats as
    ``run_episode`` hands them; returns its (arrivals, dropped, exits) in
    veh."""
    return plant.step(plant.draw_arrivals(1, rng).astype(float).tolist()[0])


def _exits(plant):
    """Vehicles that leave in one step from the plant's current state."""
    return _step(plant, np.random.default_rng(0))[2]


def _meter_plant(rate):
    """A plant with one idle ramp whose meter starts a green at ``rate``."""
    plant = TrafficPlant(_line_config(2))
    plant._meter_red_s = [rate_to_red_duration(rate)]
    plant.set_rates([rate])
    return plant


# -- arrivals -----------------------------------------------------------------

def test_arrival_block_zero_demand_draws_zero_without_consuming_bits():
    plant = TrafficPlant(_line_config(2))
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert plant.draw_arrivals(30, rng).tolist() == [[0.0, 0.0]] * 30
    assert rng.bit_generator.state == before


def test_one_arrival_draw_is_the_stream_of_one_draw_per_window():
    """One draw of k windows' steps equals k draws of one window's from the
    same seed, as int64 counts, and the zero-demand ramp among the sources
    takes no bits: the others draw what they draw without it."""
    busy = RampSpec("r2", "A", 2, "s2", 900.0)
    plant = TrafficPlant(_line_config(3, demand=1800.0, ramps=(_IDLE_RAMP, busy)))
    whole = plant.draw_arrivals(5 * 30, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    windows = np.concatenate([plant.draw_arrivals(30, rng) for _ in range(5)])
    assert whole.dtype == np.int64 and whole.shape == (150, 3)
    assert np.array_equal(whole, windows)
    assert whole[:, 1].tolist() == [0.0] * 150 and whole[:, 2].any()
    without_idle = TrafficPlant(_line_config(3, demand=1800.0, ramps=(busy,)))
    assert np.array_equal(
        whole[:, [0, 2]],
        without_idle.draw_arrivals(5 * 30, np.random.default_rng(3)))


def test_arrival_block_mean_tracks_demand():
    plant = TrafficPlant(_line_config(2, demand=1800.0,
                                      ramps=(RampSpec("r1", "A", 1, "s1", 720.0),)))
    block = np.array(plant.draw_arrivals(20000, np.random.default_rng(1)))
    assert block.shape == (20000, 2)
    assert np.allclose(block.mean(axis=0), [0.5, 0.2], atol=0.02)


# -- signal arithmetic ----------------------------------------------------------

def test_signal_full_rate_never_leaves_green():
    plant = _meter_plant(1800.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        _step(plant, rng)
        assert plant._meter_green == [True]
    assert plant.read_window()[1].tolist() == [10.0]  # green seconds


def test_signal_cycle_at_minimum_rate():
    # 2 s green then 16 s red, one vehicle quota per green.
    plant = _meter_plant(200.0)
    rng = np.random.default_rng(0)
    phases = []
    for _ in range(36):
        phases.append(plant._meter_green[0])
        _step(plant, rng)
    assert phases == ([True] * 2 + [False] * 16) * 2


def test_signal_latches_new_rate_at_next_green():
    plant = _meter_plant(1000.0)
    plant.ramp_queues[0] = 5.0  # the first green spends its quota
    rng = np.random.default_rng(0)
    for _ in range(2):  # the 2 s green ends, red starts under the old timing
        _step(plant, rng)
    plant.set_rates([200.0])
    assert plant._meter_green == [False] and plant._meter_red_s == [1.6]
    assert plant._meter_pending_red_s == [16.0]
    assert plant._meter_quota[0] < 1e-9
    for _ in range(2):  # the old red (1.6 s) ends, green adopts the pending rate
        _step(plant, rng)
    assert plant._meter_green == [True] and plant._meter_red_s == [16.0]
    assert plant._meter_quota == [1.0]


def test_signal_rejects_infeasible_rate():
    with pytest.raises(ValueError):
        TrafficPlant(_metered_config()).set_rates([5000.0])


def test_set_rates_publishes_all_or_none():
    """A rate outside the feasible range refuses the whole call, so the
    meters before it keep their pending rates too. A published rate is
    held as the red seconds that realize it."""
    plant = TrafficPlant(_two_highway_config())
    with pytest.raises(ValueError, match="outside feasible meter range"):
        plant.set_rates([900.0, 5000.0])
    assert plant._meter_pending_red_s == [rate_to_red_duration(INITIAL_RATE_VPH)] * 2
    plant.set_rates(np.array([900.0, 1800.0]))
    assert plant._meter_pending_red_s == [rate_to_red_duration(900.0), 0.0]


# -- discharge physics -----------------------------------------------------------

def test_discharge_at_or_below_critical_is_nominal():
    plant = TrafficPlant(_line_config(2))
    plant.density = [20.0] * 2  # exactly critical for a 2000 veh/h/lane cell
    assert _exits(plant) == pytest.approx(6000.0 / 3600.0, rel=1e-12)


def test_discharge_drops_linearly_beyond_critical():
    """An over-critical cell wastes throughput; halfway to jam it loses half
    the configured drop fraction."""
    plant = TrafficPlant(_line_config(2))
    plant.density = [90.0] * 2  # (90 - 20) / (160 - 20) = 0.5 of the way to jam
    expected = 6000.0 * (1.0 - 0.5 * CAPACITY_DROP_FRAC) / 3600.0
    assert _exits(plant) == pytest.approx(expected, rel=1e-12)


def test_discharge_is_monotone_in_congestion():
    flows = []
    for rho in (20.0, 60.0, 100.0, 150.0):
        plant = TrafficPlant(_line_config(2))
        plant.density = [rho] * 2
        flows.append(_exits(plant))
    assert flows[0] == max(flows)
    assert flows == sorted(flows, reverse=True)


def test_merge_friction_cuts_the_merge_cells_discharge():
    """Recent ramp admissions brake the merge cell in proportion to their
    share of its capacity times how near critical it runs."""
    plant = TrafficPlant(_line_config(2))
    plant.density[1] = 20.0
    plant._merge_flow_ema[0] = 600.0
    fric = MERGE_FRICTION_FRAC * (600.0 / 6000.0) * 1.0
    assert _exits(plant) == pytest.approx(6000.0 * (1.0 - fric) / 3600.0,
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
        assert max(plant.density) <= 160.0 + 1e-9
        assert min(plant.density) >= 0.0


# -- conservation ----------------------------------------------------------------

def test_vehicle_conservation_audit():
    """Arrivals minus drops minus exits equals the change in stored vehicles."""
    cfg = _metered_config()
    plant = TrafficPlant(cfg)
    rng = np.random.default_rng(11)
    start = plant.total_vehicles()
    arrived = dropped = exited = 0.0
    for _ in range(900):
        arrivals, drops, exits = _step(plant, rng)
        arrived += arrivals
        dropped += drops
        exited += exits
    balance = start + arrived - dropped - exited
    assert abs(balance - plant.total_vehicles()) < 1e-6


def test_run_episode_catches_a_step_that_leaks_vehicles(monkeypatch):
    advance = TrafficPlant.advance

    def leaky_advance(self, block, books):
        advance(self, block, books)
        self.density = [rho * (1.0 - 1e-6) for rho in self.density]

    cfg = _metered_config()
    run_episode(cfg, lambda obs: np.array([900.0]), seed=3)
    monkeypatch.setattr(TrafficPlant, "advance", leaky_advance)
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
    assert a.density == b.density
    assert a.ramp_queues == b.ramp_queues


def test_arrivals_are_independent_of_control():
    """Scenario comparisons share demand realizations: the arrival draws only
    depend on the seed, never on what the meters did."""
    cfg = _metered_config()
    open_plant, shut_plant = TrafficPlant(cfg), TrafficPlant(cfg)
    open_plant.set_rates([1800.0])
    shut_plant.set_rates([200.0])
    ra, rb = np.random.default_rng(13), np.random.default_rng(13)
    for _ in range(300):
        assert _step(open_plant, ra)[0] == _step(shut_plant, rb)[0]


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
    plant.density = [160.0] * 3
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


def test_run_episode_splits_its_wall_time(tmp_path):
    cfg = _metered_config(burn_in_s=60.0, horizon_duration_s=120.0)

    def slow_controller(obs):
        time.sleep(0.01)
        return np.array([900.0])

    started = time.perf_counter()
    rec = run_episode(cfg, slow_controller, seed=2)
    wall = time.perf_counter() - started
    split = rec.time_split_s
    assert set(split) == {"plant", "controller", "rest"}
    assert split["controller"] >= 6 * 0.01  # six windows, one call each
    assert min(split.values()) > 0.0
    assert sum(split.values()) <= wall
    # The split describes the run, so the episode files leave it out.
    rec.to_csv(tmp_path / "ep.csv")
    assert EpisodeRecord.from_csv(tmp_path / "ep.csv").time_split_s is None


def test_run_episode_clamps_and_counts_wild_rates():
    cfg = _metered_config(burn_in_s=60.0, horizon_duration_s=120.0)
    rec = run_episode(cfg, lambda obs: np.array([5000.0]), seed=2)
    assert (rec.rates == 1800.0).all()
    assert rec.clamp_events == 4  # the 2 burn-in windows do not count


def test_run_episode_refuses_a_nan_rate():
    """The clamp passes NaN through, and the meters refuse it."""
    cfg = _metered_config(burn_in_s=60.0, horizon_duration_s=120.0)
    with pytest.raises(ValueError,
                       match=r"^rate nan veh/h outside feasible meter range"):
        run_episode(cfg, lambda obs: np.array([np.nan]), seed=2)


def test_dropped_veh_covers_the_recorded_window_only(monkeypatch):
    # A five-vehicle ramp queue under the lowest rate overflows in burn-in.
    cfg = replace(_metered_config(burn_in_s=60.0, horizon_duration_s=120.0),
                  ramps=(RampSpec("r1", "A", 1, "s1", 1500.0, queue_capacity_veh=5.0),))
    drops = []
    advance = TrafficPlant.advance

    def counting_advance(self, block, books):
        # One kernel call per row, each on books of its own that then join
        # the window's: the same steps and the same sums
        # (test_window_kernel_matches_one_step_per_row), counted.
        for row in block:
            step_books = [0.0, 0.0]
            advance(self, [row], step_books)
            drops.append(step_books[0])
            books[0] += step_books[0]
            books[1] += step_books[1]

    monkeypatch.setattr(TrafficPlant, "advance", counting_advance)
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


class _SlowWaveCell(CellParams):
    """A cell whose congestion wave is half the triangular diagram's, so no
    density near critical receives its capacity."""

    @property
    def wave_speed_kmh(self) -> float:
        return 0.5 * super().wave_speed_kmh


def _slow_wave_config():
    """The metered line with one slow-wave cell downstream of the merge."""
    cfg = _metered_config()
    hw = cfg.highways[0]
    cells = (*hw.cells[:2], _SlowWaveCell(**vars(hw.cells[2])))
    return replace(cfg, highways=(replace(hw, cells=cells),))


def _benchmark_short_config():
    return replace(load_config(benchmark_config_path()),
                   burn_in_s=900.0, horizon_duration_s=900.0)


# sha256 of (times, occupancy, flow, speed, rates, green seconds) of one
# ALINEA episode, and its recorded-window drops as an exact float (the
# running sum of every step's drops, which the sidecar stores). The
# corridor's digest was recorded from the array implementation of the plant
# that preceded the scalar one, the junction case's from the scalar plant
# with a detector on each ramp's merge cell; any change to the plant's float
# arithmetic, its draw order or the order its books add up shows here. The
# pins also depend on numpy's Generator.poisson stream, which NEP 19 lets a
# numpy release change: they were recorded with numpy 2.4, and a numpy
# upgrade that fails this test without a plant change needs them recorded
# again.
@pytest.mark.parametrize("make_config, seed, digest, dropped_veh", [
    (_benchmark_short_config, 21,
     "98bbd4958c0884a491926cb4496df58e6a1640f807bfebd3256102018634b3c2",
     2500.10059839847),
    (_two_highway_config, 5,
     "3df0b128d785640603f19b1960303c860946ffb0d8984b8b48b501fcb6c11c80",
     337.72806550473416),
], ids=["benchmark-corridor", "junction-and-two-ramps"])
def test_episode_digests_are_pinned(make_config, seed, digest, dropped_veh):
    cfg = make_config()
    rec = run_episode(cfg, MeterBank(cfg.n_ramps, 15.0, *ALINEA_GAINS), seed=seed)
    h = hashlib.sha256()
    for arr in (rec.times, rec.occupancy, rec.flow, rec.speed, rec.rates,
                rec.green_seconds):
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == digest
    assert rec.dropped_veh == dropped_veh


def _plant_state(plant):
    """Everything a step reads or writes, as plain values."""
    return (plant.time_s, plant.density, plant.entry_queues,
            plant.ramp_queues, plant._merge_flow_ema,
            plant._meter_green, plant._meter_left_s, plant._meter_quota,
            plant._meter_red_s, plant._meter_pending_red_s,
            plant._steps_in_window, plant._occ_sum, plant._dens_sum,
            plant._passed_veh, plant._green_s)


@pytest.mark.parametrize("make_config", [_benchmark_short_config,
                                         _two_highway_config],
                         ids=["benchmark-corridor", "junction-and-two-ramps"])
def test_window_kernel_matches_one_step_per_row(make_config):
    """One advance call per control window and one step call per row, on
    twin plants fed the same arrivals and rates, stay bit-equal: state,
    every meter's phase, seconds left, quota, running and pending red, window
    sums, sensor reads and vehicle books; each step returns its row's sum as
    its arrivals."""
    cfg = make_config()
    windowed, stepped = TrafficPlant(cfg), TrafficPlant(cfg)
    rng = np.random.default_rng(8)
    windowed_books, stepped_books = [0.0, 0.0], [0.0, 0.0]
    # Meters swing between the rails, so queues overflow and cycles change.
    rates = np.linspace(200.0, 1800.0, cfg.n_ramps)
    for _ in range(60):
        block = windowed.draw_arrivals(cfg.steps_per_control,
                                       rng).astype(float).tolist()
        windowed.advance(block, windowed_books)
        for row in block:
            arrivals, dropped, exits = stepped.step(row)
            assert arrivals == sum(row)
            stepped_books[0] += dropped
            stepped_books[1] += exits
        assert _plant_state(windowed) == _plant_state(stepped)
        assert windowed_books == stepped_books
        (obs_w, green_w), (obs_s, green_s) = windowed.read_window(), stepped.read_window()
        for name in ("time_s", "occupancy", "flow", "speed"):
            assert np.array_equal(getattr(obs_w, name), getattr(obs_s, name))
        assert np.array_equal(green_w, green_s)
        rates = np.roll(rates, 1)
        windowed.set_rates(rates)
        stepped.set_rates(rates)
    assert windowed_books[0] > 0.0  # some ramp queue overflowed


class RampSignal:
    """Fixed-green meter signal: 2 s green, one vehicle per green, then red.

    The red duration realizes the published rate and is computed when the
    rate is published. A new red is latched when the signal next enters
    green, so a running cycle always finishes under the timing it started
    with. This is the object the plant kept per meter before the kernel held
    each meter's state in locals: a readable reference of the cycle that
    :class:`_LoopKernel` steps.
    """

    def __init__(self, red_s: float, pending_red_s: float):
        self.red_s = red_s  # red of the cycle in progress
        self.pending_red_s = pending_red_s
        self.phase = "green"
        self.remaining_s = GREEN_DURATION_S
        self.quota_veh = 1.0  # release budget for the current green

    def advance(self, dt_s: float = 1.0) -> None:
        self.remaining_s -= dt_s
        while self.remaining_s <= 1e-12:
            if self.phase == "green":
                self.phase = "red"
                self.remaining_s += self.red_s
            else:
                self.phase = "green"
                self.red_s = self.pending_red_s
                self.quota_veh = 1.0
                self.remaining_s += GREEN_DURATION_S


class _LoopKernel:
    """The window kernel as loops over per-cell tuples, the form the plant
    ran before its kernel was generated per network: a readable reference
    that the generated kernel must match bit for bit."""

    def __init__(self, config):
        self.config = config
        cells = [c for hw in config.highways for c in hw.cells]
        starts, offset = [], 0
        for hw in config.highways:
            starts.append(offset)
            offset += len(hw.cells)
        hw_index = {hw.name: i for i, hw in enumerate(config.highways)}

        def gidx(hw_name, cell):
            return starts[hw_index[hw_name]] + cell

        # (vf, cap per lane, lanes, wave speed, jam, critical, jam - critical,
        # vehicles per unit density)
        consts = []
        for c in cells:
            vf, cap = float(c.free_flow_kmh), float(c.capacity_vphl)
            lanes, jam = float(c.lanes), float(c.jam_density_vkml)
            crit = cap / vf
            consts.append((vf, cap, lanes, c.wave_speed_kmh, jam, crit,
                           jam - crit, float(c.length_km) * lanes))
        self.cell_consts = tuple(consts)
        cap_total = [cap * lanes for _, cap, lanes, *_ in consts]
        ramp_cells = [gidx(r.highway, r.merge_cell) for r in config.ramps]
        junctions = [(gidx(j.from_highway, j.from_cell),
                      gidx(j.to_highway, j.to_cell), j.turn_ratio)
                     for j in config.junctions]
        self.junctions = tuple(
            (p, t, f, cap_total[t - 1] / (cap_total[t - 1] + f * cap_total[p]))
            for p, t, f in junctions)
        self.ramps = tuple(
            (g, float(r.queue_capacity_veh),
             cap_total[g - 1] / (cap_total[g - 1] + RATE_MAX_VPH))
            for g, r in zip(ramp_cells, config.ramps))
        self.friction = tuple((g, consts[g][5], cap_total[g]) for g in ramp_cells)
        special_succ = set(ramp_cells) | {t for _, t, _ in junctions}
        diverge_pred = {p for p, _, _ in junctions}
        self.chains = tuple((s, s + len(hw.cells) - 1)
                            for s, hw in zip(starts, config.highways))
        self.plain = tuple((c - 1, c) for s, last in self.chains
                           for c in range(s + 1, last + 1)
                           if c not in special_succ and c - 1 not in diverge_pred)
        self.sensors = tuple((c, cells[c].vehicle_length_m / 10.0)
                             for c in ramp_cells)

    @staticmethod
    def merge(d_main, d_side, supply, main_priority):
        if d_main + d_side <= supply:
            return d_main, d_side
        q_main = main_priority * supply
        if d_main < q_main:
            q_main = d_main
        if supply - d_side > q_main:
            q_main = supply - d_side
        return q_main, supply - q_main

    def settle(self, rho, inflow, outflow, ts_h):
        density, send, recv, dis = [], [], [], []
        for r, q_in, q_out, (vf, cap, lanes, wave, jam, crit, span,
                             veh_factor) in zip(rho, inflow, outflow, self.cell_consts):
            d = r + (q_in - q_out) * ts_h / veh_factor
            r = 0.0 if d <= 0.0 else jam if d >= jam else d
            density.append(r)
            q = vf * r
            send.append((q if q < cap else cap) * lanes)
            q = wave * (jam - r)
            recv.append((q if q < cap else cap) * lanes)
            dis.append(1.0 if r <= crit
                       else 1.0 - CAPACITY_DROP_FRAC * ((r - crit) / span))
        return density, send, recv, dis

    def advance(self, plant, block, books):
        ts = self.config.sim_step_s
        ts_h = ts / 3600.0
        merge, settle, signals = self.merge, self.settle, []
        for green, left, quota, red, pending in zip(
                plant._meter_green, plant._meter_left_s, plant._meter_quota,
                plant._meter_red_s, plant._meter_pending_red_s):
            sig = RampSignal(red, pending)
            sig.phase = "green" if green else "red"
            sig.remaining_s, sig.quota_veh = left, quota
            signals.append(sig)
        rho = plant.density
        entry = plant.entry_queues[:]
        queues = plant.ramp_queues[:]
        ema = plant._merge_flow_ema[:]
        n, n_hw = len(rho), len(entry)
        zeros = [0.0] * n
        rho, send, recv, dis = settle(rho, zeros, zeros, ts_h)
        for arrivals in block:
            dropped = 0.0
            for i in range(n_hw):
                a = arrivals[i]
                if a:
                    entry[i] += a
            for j, (_, qcap, _) in enumerate(self.ramps):
                a = arrivals[n_hw + j]
                if a:
                    room = qcap - queues[j]
                    taken = a if a <= room else room if room > 0.0 else 0.0
                    queues[j] += taken
                    dropped += a - taken
            for j, (g, crit, cap) in enumerate(self.friction):
                dens_fac = rho[g] / crit
                if dens_fac > 2.0:
                    dens_fac = 2.0
                keep = 1.0 - MERGE_FRICTION_FRAC * dens_fac * ema[j] / cap
                dis[g] *= keep if keep > 0.5 else 0.5
            inflow = [0.0] * n
            outflow = [0.0] * n
            for p, c in self.plain:
                q = send[p]
                if recv[c] < q:
                    q = recv[c]
                q *= dis[p]
                inflow[c] = q
                outflow[p] = q
            for p, t, ratio, priority in self.junctions:
                cont = min((1.0 - ratio) * send[p], recv[p + 1]) * dis[p]
                inflow[p + 1] = cont
                q_main, q_side = merge(send[t - 1], ratio * send[p], recv[t], priority)
                q_main *= dis[t - 1]
                q_side *= dis[p]
                inflow[t] = q_main + q_side
                outflow[t - 1] = q_main
                outflow[p] = cont + q_side
            for j, (g, _, priority) in enumerate(self.ramps):
                sig = signals[j]
                avail = queues[j]
                if sig.phase != "green":
                    avail = 0.0
                elif sig.quota_veh < avail:
                    avail = sig.quota_veh
                q_main, q_ramp = merge(send[g - 1], avail / ts_h, recv[g], priority)
                q_main *= dis[g - 1]
                admitted = q_ramp * ts_h
                queues[j] -= admitted
                quota = sig.quota_veh - admitted
                sig.quota_veh = quota if quota > 0.0 else 0.0
                inflow[g] = q_main + q_ramp
                outflow[g - 1] = q_main
                ema[j] += (q_ramp - ema[j]) * ts / MERGE_RELAX_S
            exits = 0.0
            for i, (s, last) in enumerate(self.chains):
                q_in = min(entry[i] / ts_h, recv[s])
                inflow[s] = q_in
                entry[i] -= q_in * ts_h
                q = send[last] * dis[last]
                outflow[last] = q
                exits += q * ts_h
            rho, send, recv, dis = settle(rho, inflow, outflow, ts_h)
            for k, (c, occ_factor) in enumerate(self.sensors):
                d = rho[c]
                occ = d * occ_factor
                plant._occ_sum[k] += occ if occ < 100.0 else 100.0
                plant._dens_sum[k] += d
                plant._passed_veh[k] += outflow[c] * ts_h
            for k, sig in enumerate(signals):
                if sig.phase == "green":
                    plant._green_s[k] += ts
                sig.advance(ts)
            plant.time_s += ts
            books[0] += dropped
            books[1] += exits
        plant.density = rho
        plant.entry_queues = entry
        plant.ramp_queues = queues
        plant._merge_flow_ema = ema
        plant._meter_green = [sig.phase == "green" for sig in signals]
        plant._meter_left_s = [sig.remaining_s for sig in signals]
        plant._meter_quota = [sig.quota_veh for sig in signals]
        plant._meter_red_s = [sig.red_s for sig in signals]
        plant._steps_in_window += len(block)


@pytest.mark.parametrize("make_config", [_benchmark_short_config,
                                         _two_highway_config, _metered_config,
                                         _slow_wave_config],
                         ids=["benchmark-corridor", "junction-and-two-ramps",
                              "metered", "slow-wave"])
def test_generated_kernel_matches_the_loop_reference(make_config):
    """The generated kernel and the loop reference, on twin plants fed the
    same arrivals and random in-range rates one window at a time, stay
    bit-equal: state, every meter's phase, seconds left, quota, running and
    pending red, window sums, sensor reads and vehicle books.
    Between windows one density is written below 0 and one above jam, so
    the clamp on entry runs, and a cell at jam runs the capacity drop.
    Every other window also writes every cell's density at its free-flow
    bound or one ulp above it, so both sides of each cell's free-flow branch
    are checked against the general rule."""
    cfg = make_config()
    generated, reference = TrafficPlant(cfg), TrafficPlant(cfg)
    loops = _LoopKernel(cfg)
    rng = np.random.default_rng(17)
    cells = [c for hw in cfg.highways for c in hw.cells]
    jam = [c.jam_density_vkml for c in cells]
    bounds = [_free_flow_bound(c) for c in cells]
    generated_books, reference_books = [0.0, 0.0], [0.0, 0.0]
    arrived = 0.0
    for window in range(60):
        block = generated.draw_arrivals(cfg.steps_per_control,
                                        rng).astype(float).tolist()
        arrived += sum(map(sum, block))
        generated.advance(block, generated_books)
        loops.advance(reference, block, reference_books)
        assert _plant_state(generated) == _plant_state(reference)
        assert generated_books == reference_books
        (obs_g, green_g), (obs_r, green_r) = (generated.read_window(),
                                              reference.read_window())
        for name in ("time_s", "occupancy", "flow", "speed"):
            assert np.array_equal(getattr(obs_g, name), getattr(obs_r, name))
        assert np.array_equal(green_g, green_r)
        rates = rng.uniform(RATE_MIN_VPH, RATE_MAX_VPH, cfg.n_ramps)
        low, high = rng.choice(len(jam), size=2, replace=False)
        below, above = -rng.uniform(0.0, 20.0), jam[high] + rng.uniform(0.0, 20.0)
        for plant in (generated, reference):
            plant.set_rates(rates)
            if window % 4 == 1:
                plant.density[:] = bounds
            elif window % 4 == 3:
                plant.density[:] = [math.nextafter(b, math.inf) for b in bounds]
            plant.density[low] = below
            plant.density[high] = above
    assert arrived > 0.0 and generated_books[1] > 0.0


@pytest.mark.parametrize("make_config", [_benchmark_short_config,
                                         _two_highway_config, _metered_config],
                         ids=["benchmark-corridor", "junction-and-two-ramps",
                              "metered"])
def test_free_flow_bound_is_exact_and_at_most_a_few_ulps_below_critical(make_config):
    """Each cell's bound is the last density at or below critical where the
    general rule gives the branch's values, a few ulps below critical at
    most, and the kernel compares each cell's density with it."""
    cfg = make_config()
    cells = [c for hw in cfg.highways for c in hw.cells]
    source = _kernel_source(cfg)
    for k, cell in enumerate(cells):
        crit = cell.critical_density_vkml
        args = (float(cell.free_flow_kmh), float(cell.capacity_vphl),
                float(cell.lanes), cell.wave_speed_kmh,
                float(cell.jam_density_vkml))
        bound = _free_flow_bound(cell)
        assert bound <= crit
        assert _free_flow_exact(bound, *args)
        above = math.nextafter(bound, math.inf)
        assert above > crit or not _free_flow_exact(above, *args)
        ulps = 0
        while bound < crit:
            bound = math.nextafter(bound, math.inf)
            ulps += 1
        assert ulps <= 4
        assert f"if rho{k} <= {_free_flow_bound(cell)!r}: " in source


def test_free_flow_bound_on_cells_whose_critical_density_does_not_round_trip():
    """At capacity 1667 both vf * crit and wave * (jam - crit) miss capacity,
    on opposite sides, and the bound steps below critical; at 1790 vf * crit
    falls short of capacity, which the general rule's min already gives."""
    by_capacity = {c.capacity_vphl: c for hw in _benchmark_short_config().highways
                   for c in hw.cells}
    cell = by_capacity[1667]
    crit = cell.critical_density_vkml
    assert cell.free_flow_kmh * crit > 1667.0
    assert cell.wave_speed_kmh * (cell.jam_density_vkml - crit) < 1667.0
    assert _free_flow_bound(cell) == math.nextafter(crit, 0.0)
    cell = by_capacity[1790]
    crit = cell.critical_density_vkml
    assert cell.free_flow_kmh * crit < 1790.0
    assert _free_flow_bound(cell) == crit


def test_a_cell_with_no_free_flow_bound_gets_a_branch_never_taken(monkeypatch):
    """With half the diagram's wave speed no density near critical receives
    capacity: the search stops after its first test, and the branch compares
    with -inf, which no density passes (the kernel's match with the loop
    reference on this config is checked above)."""
    cell = _slow_wave_config().highways[0].cells[2]
    tests = []

    def counted(*args):
        tests.append(args[0])
        return _free_flow_exact(*args)

    monkeypatch.setattr(plant_module, "_free_flow_exact", counted)
    assert _free_flow_bound(cell) == -math.inf
    assert len(tests) == 1
    assert "if rho2 <= float('-inf'): " in _kernel_source(_slow_wave_config())


def test_kernel_tracebacks_show_kernel_lines(monkeypatch):
    """The generated kernel's frames carry their source line, so a failure
    inside a window is readable in a traceback (and in a profile)."""
    cfg = _metered_config()
    plant = TrafficPlant(cfg)
    # The kernel reads the module's constants at each call: with no merge
    # relaxation time the merge average divides by zero.
    monkeypatch.setattr(plant_module, "MERGE_RELAX_S", 0.0)
    with pytest.raises(ZeroDivisionError) as exc:
        block = plant.draw_arrivals(cfg.steps_per_control, np.random.default_rng(0))
        plant.advance(block.astype(float).tolist(), [0.0, 0.0])
    frames = traceback.extract_tb(exc.tb)
    kernel = [frame for frame in frames if frame.filename.startswith("<rampnet.plant")]
    assert len(kernel) == 1 and frames[-1] == kernel[0]
    assert kernel[0].line == "ema0 += (side1 - ema0) * 1.0 / relax"


def _row_loop(tree):
    """The kernel's ``for row in block:`` loop, one step per row."""
    loop, = [node for node in ast.walk(tree) if isinstance(node, ast.For)
             and isinstance(node.target, ast.Name) and node.target.id == "row"]
    return loop


@pytest.mark.parametrize("make_config", [_benchmark_short_config,
                                         _two_highway_config],
                         ids=["benchmark-corridor", "junction-and-two-ramps"])
def test_kernel_steps_touch_no_attributes(make_config):
    """Every value a step reads or writes is a local or a literal: the
    kernel's loop over the block's rows holds no attribute access."""
    loop = _row_loop(ast.parse(_kernel_source(make_config())))
    assert [ast.unparse(node) for node in ast.walk(loop)
            if isinstance(node, ast.Attribute)] == []


@pytest.mark.parametrize("make_config", [_benchmark_short_config,
                                         _two_highway_config],
                         ids=["benchmark-corridor", "junction-and-two-ramps"])
def test_kernel_steps_call_nothing_and_index_nothing(make_config):
    """A step computes each fact once on locals: the kernel's loop over the
    block's rows holds no call and no subscript. Red times come from
    ``set_rates``, the arrivals from the draw and the books are read into
    locals, so the kernel names no red timing, arrival total or ledgers, and
    ``advance`` must be handed its books."""
    tree = ast.parse(_kernel_source(make_config()))
    assert [ast.unparse(node) for stmt in _row_loop(tree).body
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Call, ast.Subscript))] == []
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert names.isdisjoint({"rate_to_red_duration", "total", "ledgers"})
    books = inspect.signature(TrafficPlant.advance).parameters["books"]
    assert books.default is inspect.Parameter.empty


@pytest.mark.parametrize("make_config", [_benchmark_short_config,
                                         _two_highway_config],
                         ids=["benchmark-corridor", "junction-and-two-ramps"])
def test_plant_state_is_python_floats_with_no_array_round_trip(make_config):
    """The plant keeps its cell, queue and merge state as lists of Python
    floats, as built and as each kernel call leaves it, so the kernel
    unpacks and writes back plain lists and calls no numpy."""
    cfg = make_config()
    source = _kernel_source(cfg)
    assert "np." not in source and ".tolist(" not in source
    plant = TrafficPlant(cfg)
    for _ in range(2):
        for attr in ("density", "entry_queues", "ramp_queues", "_merge_flow_ema"):
            value = getattr(plant, attr)
            assert type(value) is list and value, attr
            assert all(type(v) is float for v in value), attr
        block = plant.draw_arrivals(cfg.steps_per_control,
                                    np.random.default_rng(2)).astype(float).tolist()
        plant.advance(block, [0.0, 0.0])


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
    for name in ("times", "occupancy", "flow", "speed", "rates"):
        assert getattr(back, name).tobytes() == getattr(rec, name).tobytes()


def _special_record():
    """nan, ±inf, −0.0, the extremes, 1/3, 2**53 + 2 and integer columns."""
    special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 1e300, 1.0 / 3.0,
               2.0 ** 53 + 2.0, 123456789.0, 0.1 + 0.2]
    table = np.array(special + special[::-1]).reshape(4, 5)
    return EpisodeRecord(
        seed=3, control_step_s=30.0, sensor_ids=("s1", "s2"),
        ramp_ids=("r1", "r2"), times=np.array([30.0, 60.0, 90.0, 1e300]),
        occupancy=table[:, :2], flow=table[:, 2:4], speed=-table[:, 3:],
        rates=np.array([[200, 1800], [-7, 0], [2 ** 40 + 1, 3], [5, 6]]),
        green_seconds=np.array([10.0, 20.0]))


def _csv_writer_reference(record, path, fmt=repr):
    """The per-step table as ``csv.writer`` writes it, each value formatted
    with ``fmt`` of its float: with ``repr``, what :meth:`EpisodeRecord.to_csv`
    must write; with ``f"{v:.12g}"``, the 12-digit files it wrote before."""
    n, m = record.occupancy.shape[1], record.rates.shape[1]
    header = (["time_s"] + [f"occ_{i + 1}" for i in range(n)]
              + [f"flow_{i + 1}" for i in range(n)]
              + [f"speed_{i + 1}" for i in range(n)]
              + [f"rate_{i + 1}" for i in range(m)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(len(record)):
            row = ([record.times[k]], record.occupancy[k], record.flow[k],
                   record.speed[k], record.rates[k])
            writer.writerow([fmt(float(v)) for part in row for v in part])


def _twelve_digits(value):
    return f"{value:.12g}"


def test_episode_record_csv_bytes_match_the_csv_writer(tmp_path):
    """Special and extreme floats and integer columns are written byte for
    byte as csv.writer with ``repr`` fields writes them."""
    rec = _special_record()
    rec.to_csv(tmp_path / "ep.csv")
    _csv_writer_reference(rec, tmp_path / "ref.csv")
    written = (tmp_path / "ep.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert b"\r\n" in written and b"nan" in written and b"-0.0," in written
    # An episode from the plant, too.
    rec = run_episode(_metered_config(), lambda obs: np.array([100.0]), seed=4)
    rec.to_csv(tmp_path / "ep.csv")
    _csv_writer_reference(rec, tmp_path / "ref.csv")
    assert (tmp_path / "ep.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_episode_record_csv_values_round_trip_bit_for_bit(tmp_path):
    """nan, ±inf, −0.0, 1e-300, 1e300, 1/3, 2**53 + 2 and integer columns
    read back with the bytes they were written from. A NaN reads back as
    numpy's NaN: repr() writes -nan as "nan"."""
    rec = _special_record()
    rec.to_csv(tmp_path / "ep.csv")
    back = EpisodeRecord.from_csv(tmp_path / "ep.csv")
    for name in ("times", "occupancy", "flow", "speed", "rates"):
        want = np.asarray(getattr(rec, name), dtype=float)
        want = np.where(np.isnan(want), np.nan, want)
        assert getattr(back, name).tobytes() == want.tobytes(), name
    assert np.signbit(back.occupancy[3, 1]) and back.occupancy[3, 1] == 0.0
    assert back.rates[2, 0] == 2 ** 40 + 1


def test_episode_record_reads_twelve_digit_files(tmp_path):
    """A file in the 12-digit format loads as ``float()`` of each field, as
    it always did."""
    rec = run_episode(_metered_config(), lambda obs: np.array([100.0]), seed=4)
    rec.to_csv(tmp_path / "ep.csv")
    _csv_writer_reference(rec, tmp_path / "ep.csv", _twelve_digits)
    back = EpisodeRecord.from_csv(tmp_path / "ep.csv")

    def table(r):
        return np.column_stack((r.times, r.occupancy, r.flow, r.speed, r.rates))
    assert table(back).tolist() == [[float(_twelve_digits(v)) for v in row]
                                    for row in table(rec).tolist()]
    assert not np.array_equal(back.flow, rec.flow)  # 12 digits lose bits


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


def test_episode_record_rejects_bad_values_ragged_rows_and_no_rows(tmp_path):
    """Each ends in the "malformed episode csv" error naming the file, and
    no warning escapes the parser."""
    path = tmp_path / "bad.csv"
    head = "time_s,occ_1,flow_1,speed_1,rate_1\n"
    (tmp_path / "bad.json").write_text(json.dumps(
        {"seed": 1, "control_step_s": 30.0, "sensor_ids": ["s1"],
         "ramp_ids": ["r1"], "green_seconds": [10.0], "dropped_veh": 0.0,
         "clamp_events": 0}))
    for body in ("0,10,3000,x,700\n", "0,10,3000,90,700\n30,10,3000\n", "",
                 "# 0,10,3000,90,700\n"):
        path.write_text(head + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="malformed episode csv .*bad.csv"):
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


def test_episode_record_refuses_sidecar_values_of_the_wrong_type(tmp_path):
    """Only the JSON types that ``to_csv`` writes load: a number is an int or
    a float, never a bool or a string, an int is an int, and ids are
    strings. Coerced, each of these would load as a plausible value (seed 1,
    two clamps, sensors 'a', 'b' and 'c', green seconds 1 and 2)."""
    path = tmp_path / "ep.csv"
    path.write_text("time_s,occ_1,occ_2,occ_3,flow_1,flow_2,flow_3,speed_1,"
                    "speed_2,speed_3,rate_1,rate_2\n"
                    "0,10,11,12,3000,3000,3000,90,90,90,700,900\n")
    good = {"seed": 1, "control_step_s": 30, "sensor_ids": ["s1", "s2", "s3"],
            "ramp_ids": ["r1", "r2"], "green_seconds": [10, 20.5],
            "dropped_veh": 0, "clamp_events": 0}
    (tmp_path / "ep.json").write_text(json.dumps(good))
    back = EpisodeRecord.from_csv(path)  # JSON ints are numbers
    assert back.control_step_s == 30.0 and back.green_seconds.tolist() == [10.0, 20.5]
    for key, wrong in (("seed", 1.9), ("seed", "1"), ("seed", True),
                       ("clamp_events", 2.5), ("dropped_veh", True),
                       ("control_step_s", "30"), ("sensor_ids", "abc"),
                       ("ramp_ids", ["r1", 2]), ("green_seconds", "12"),
                       ("green_seconds", [10.0, True])):
        (tmp_path / "ep.json").write_text(json.dumps(dict(good, **{key: wrong})))
        with pytest.raises(ValueError, match=f"ep.json: bad {key} "):
            EpisodeRecord.from_csv(path)


def test_episode_record_keeps_planner_steps_in_its_sidecar(tmp_path):
    """Planner steps round-trip exactly; a sidecar without them is an episode
    without a planner, and steps that are not a list of objects holding what
    a report reads of them are refused, naming the sidecar."""
    cfg = _metered_config(burn_in_s=60.0, horizon_duration_s=120.0)
    rec = run_episode(cfg, lambda obs: np.array([900.0]), seed=4)
    path = tmp_path / "ep.csv"
    rec.to_csv(path)
    assert "solver_steps" not in json.loads((tmp_path / "ep.json").read_text())
    assert EpisodeRecord.from_csv(path).solver_steps is None
    rec.solver_steps = [{"time_s": 30.0, "fallback": True},
                        {"time_s": 60.0, "fallback": False, "iterations": 3,
                         "converged": True, "capped": False,
                         "solve_time_s": 0.1 + 0.2}]
    rec.to_csv(path)
    assert EpisodeRecord.from_csv(path).solver_steps == rec.solver_steps
    meta = json.loads((tmp_path / "ep.json").read_text())
    solve = rec.solver_steps[1]
    for steps in ({"iterations": 3}, [1, 2], [{}, "step"], None,
                  [{"time_s": 30.0}], [{"time_s": 30.0, "fallback": False}],
                  # A bool is not a number.
                  [{"time_s": True, "fallback": True}],
                  [dict(solve, iterations=True)],
                  [dict(solve, solve_time_s=False)]):
        (tmp_path / "ep.json").write_text(json.dumps(dict(meta, solver_steps=steps)))
        with pytest.raises(ValueError, match="ep.json: solver_steps is not"):
            EpisodeRecord.from_csv(path)
