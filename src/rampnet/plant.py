"""First-order macroscopic traffic plant with signalized ramp meters.

Cells follow the usual demand/supply (cell transmission) update on a
triangular fundamental diagram. Everything is bookkept in vehicles so the
conservation audit is exact up to float roundoff:

* mainline Poisson arrivals wait in an entry queue per highway and flow into
  cell 0 as supply allows;
* ramp Poisson arrivals wait in a finite queue, overflow is dropped and
  counted, and the meter releases at most one vehicle per green phase, merge
  supply permitting;
* junctions divert a fixed share of a cell's outflow onto another highway,
  each branch admitted independently by its receiver;
* competing inflows at a merge share supply in proportion to capacity;
* a cell running over its critical density discharges below nominal, linearly
  down to ``1 - CAPACITY_DROP_FRAC`` at jam. Standing queues therefore waste
  throughput, which is what metering is there to prevent;
* merging traffic disturbs the merge cell itself: its discharge drops with
  the product of recent ramp admissions and its own density, so the cost of
  admitting a vehicle grows as the cell fills.

Sensors integrate occupancy, flow, and speed over one control step and the
episode runner hands those windows to a controller callback, which answers
with the metering rates for the next control step.

Units: densities veh/km/lane, flows veh/h, queues veh, time s. One simulation
step is ``config.sim_step_s`` (1 s in the benchmark).
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .feedback import (GREEN_DURATION_S, RATE_MAX_VPH, RATE_MIN_VPH,
                       rate_to_red_duration)
from .network import NetworkConfig

__all__ = [
    "sample_arrivals",
    "RampSignal",
    "ControlObservation",
    "StepInfo",
    "ConservationError",
    "TrafficPlant",
    "EpisodeRecord",
    "run_episode",
]

logger = logging.getLogger(__name__)

# Fraction of discharge lost by the time a cell reaches jam density. Flux
# leaving a cell is scaled by 1 - frac * (rho - crit) / (jam - crit) once
# rho exceeds the critical density cap/vf; below critical nothing changes.
CAPACITY_DROP_FRAC = 0.15

# Merge turbulence: vehicles released onto a busy merge cell force mainline
# braking there, so the cell's discharge is cut in proportion to (recent
# admitted ramp flow / cell capacity) times (density / critical), the latter
# capped at twice critical. "Recent" is an exponential average with the
# relaxation time below; the merge region does not recover the instant a
# platoon has passed, and the lag also breaks the circular dependence
# between one step's fluxes.
MERGE_FRICTION_FRAC = 0.25
MERGE_RELAX_S = 30.0

# Largest vehicle imbalance an episode may end with; float roundoff leaves
# about 1e-10 veh over a benchmark episode.
CONSERVATION_TOL_VEH = 1e-6


def sample_arrivals(demand_veh_per_hour: float, step_s: float, rng) -> int:
    """Number of vehicles arriving in one step, Poisson with the given mean.

    Mean is ``demand * step / 3600``; zero demand yields zero draws (the RNG
    is still consumed once, which keeps episode randomness aligned across
    scenarios that only differ in control).
    """
    if demand_veh_per_hour < 0.0:
        raise ValueError("demand must be >= 0")
    return int(rng.poisson(demand_veh_per_hour * step_s / 3600.0))


class RampSignal:
    """Fixed-green meter signal: 2 s green, one vehicle per green, then red.

    The red duration realizes the published rate. A new rate is latched when
    the signal next enters green, so a running cycle always finishes under
    the timing it started with.
    """

    def __init__(self, rate: float):
        self._rate = rate
        self._pending = rate
        self.phase = "green"
        self.remaining_s = GREEN_DURATION_S
        self.quota_veh = 1.0  # release budget for the current green

    @property
    def rate(self) -> float:
        """Rate of the cycle currently in progress, veh/h."""
        return self._rate

    def set_rate(self, rate: float) -> None:
        rate_to_red_duration(rate)  # validates the range
        self._pending = rate

    def advance(self, dt_s: float = 1.0) -> None:
        self.remaining_s -= dt_s
        while self.remaining_s <= 1e-12:
            if self.phase == "green":
                self.phase = "red"
                self.remaining_s += rate_to_red_duration(self._rate)
            else:
                self.phase = "green"
                self._rate = self._pending
                self.quota_veh = 1.0
                self.remaining_s += GREEN_DURATION_S


@dataclass(frozen=True)
class ControlObservation:
    """All sensors' aggregates over the control step ending at ``time_s``."""

    time_s: float
    occupancy: np.ndarray  # (n,) %
    flow: np.ndarray  # (n,) veh/h
    speed: np.ndarray  # (n,) km/h


@dataclass(frozen=True)
class StepInfo:
    """Vehicle bookkeeping for one simulation step (conservation audit)."""

    arrivals_veh: float  # sampled at every source, pre-drop
    dropped_veh: float  # ramp arrivals lost to a full queue
    exits_veh: float  # vehicles that left through a sink


class ConservationError(RuntimeError):
    """An episode's vehicle books did not balance (a plant bug, never data)."""

    def __init__(self, residual_veh: float):
        super().__init__(
            f"vehicles not conserved: arrivals - dropped - exits - stored "
            f"change = {residual_veh:.3g} veh")
        self.residual_veh = residual_veh


class TrafficPlant:
    """Simulates one network. Owns densities, queues, and signals.

    The caller owns the RNG and passes it to :meth:`step` so that episode
    randomness is reproducible and independent of control actions.
    """

    def __init__(self, config: NetworkConfig, initial_rate_vph: float = 1000.0):
        self.config = config
        cells = [c for hw in config.highways for c in hw.cells]
        starts: list[int] = []
        offset = 0
        for hw in config.highways:
            starts.append(offset)
            offset += len(hw.cells)
        self._chains = [(s, s + len(hw.cells)) for s, hw in zip(starts, config.highways)]
        self._hw_index = {hw.name: i for i, hw in enumerate(config.highways)}

        as_arr = lambda attr: np.array([getattr(c, attr) for c in cells], dtype=float)
        self._length_km = as_arr("length_km")
        self._lanes = as_arr("lanes")
        self._vf = as_arr("free_flow_kmh")
        self._cap_lane = as_arr("capacity_vphl")
        self._jam = as_arr("jam_density_vkml")
        self._occ_factor = as_arr("vehicle_length_m") / 10.0
        self._wave = np.array([c.wave_speed_kmh for c in cells])
        self._crit = self._cap_lane / self._vf
        self._cap_total = self._cap_lane * self._lanes
        self._veh_factor = self._length_km * self._lanes  # veh per (veh/km/lane)

        def gidx(hw_name: str, cell: int) -> int:
            return starts[self._hw_index[hw_name]] + cell

        self._demand_vph = np.array([hw.demand_veh_per_hour for hw in config.highways])
        self._ramp_demand = np.array([r.demand_veh_per_hour for r in config.ramps])
        self._ramp_qcap = np.array([r.queue_capacity_veh for r in config.ramps])
        self._ramp_cell = np.array(
            [gidx(r.highway, r.merge_cell) for r in config.ramps], dtype=int)
        self._ramp_metered = [r.metered for r in config.ramps]
        self._ramp_priority = np.array([
            self._cap_total[g - 1] / (self._cap_total[g - 1] + RATE_MAX_VPH)
            for g in self._ramp_cell])
        self._junctions = [
            (gidx(j.from_highway, j.from_cell), gidx(j.to_highway, j.to_cell),
             j.turn_ratio)
            for j in config.junctions]
        self._junction_priority = [
            self._cap_total[t - 1] / (self._cap_total[t - 1] + f * self._cap_total[p])
            for p, t, f in self._junctions]
        self._sensor_cell = np.array(
            [gidx(s.highway, s.cell) for s in config.sensors], dtype=int)

        # Chain pairs (pred -> succ) whose flux is a plain demand/supply min:
        # everything except diverge sources and cells with a side inflow.
        special_succ = set(self._ramp_cell) | {t for _, t, _ in self._junctions}
        diverge_pred = {p for p, _, _ in self._junctions}
        pred, succ = [], []
        for s, e in self._chains:
            for c in range(s + 1, e):
                if c in special_succ or (c - 1) in diverge_pred:
                    continue
                pred.append(c - 1)
                succ.append(c)
        self._plain_pred = np.array(pred, dtype=int)
        self._plain_succ = np.array(succ, dtype=int)

        n_cells = len(cells)
        self.time_s = 0.0
        self.density = np.zeros(n_cells)
        self.entry_queues = np.zeros(len(config.highways))
        self.ramp_queues = np.zeros(len(config.ramps))
        self._merge_flow_ema = np.zeros(len(config.ramps))  # veh/h, recent admissions
        start_rate = min(max(initial_rate_vph, RATE_MIN_VPH), RATE_MAX_VPH)
        self.signals: list[RampSignal] = [
            RampSignal(start_rate) for r in config.ramps if r.metered]

        n_sensors = len(config.sensors)
        self._steps_in_window = 0
        self._occ_sum = np.zeros(n_sensors)
        self._dens_sum = np.zeros(n_sensors)
        self._passed_veh = np.zeros(n_sensors)
        self._green_s = np.zeros(len(self.signals))

    # -- control interface ----------------------------------------------------

    @property
    def n_metered(self) -> int:
        return len(self.signals)

    def set_rates(self, rates) -> None:
        """Publish new rates; each signal adopts its rate at the next cycle."""
        rates = np.asarray(rates, dtype=float)
        if rates.shape != (len(self.signals),):
            raise ValueError(
                f"expected {len(self.signals)} rates, got shape {rates.shape}")
        for sig, rate in zip(self.signals, rates):
            sig.set_rate(float(rate))

    def total_vehicles(self) -> float:
        """All vehicles currently inside: cells plus every kind of queue."""
        return float(self.density @ self._veh_factor
                     + self.entry_queues.sum() + self.ramp_queues.sum())

    # -- dynamics ---------------------------------------------------------------

    @staticmethod
    def _merge(d_main: float, d_side: float, supply: float,
               main_priority: float) -> tuple[float, float]:
        """Split a cell's supply between its mainline and side demand."""
        if d_main + d_side <= supply:
            return d_main, d_side
        q_main = max(min(d_main, main_priority * supply), supply - d_side)
        return q_main, supply - q_main

    def step(self, rng) -> StepInfo:
        """Advance one simulation step; returns the vehicle bookkeeping."""
        cfg = self.config
        ts = cfg.sim_step_s
        ts_h = ts / 3600.0

        # Arrivals (fixed draw order: highways, then ramps).
        arrivals = 0.0
        dropped = 0.0
        for i in range(len(self._demand_vph)):
            a = sample_arrivals(self._demand_vph[i], ts, rng)
            self.entry_queues[i] += a
            arrivals += a
        for j in range(len(self._ramp_demand)):
            a = sample_arrivals(self._ramp_demand[j], ts, rng)
            room = self._ramp_qcap[j] - self.ramp_queues[j]
            taken = min(float(a), max(room, 0.0))
            self.ramp_queues[j] += taken
            arrivals += a
            dropped += a - taken

        rho = self.density
        send = np.minimum(self._vf * rho, self._cap_lane) * self._lanes
        recv = np.maximum(
            np.minimum(self._cap_lane, self._wave * (self._jam - rho)), 0.0
        ) * self._lanes
        # Capacity drop: scale whatever a cell actually discharges (after the
        # demand/supply min) by how far over critical the cell is. Queue
        # releases are not scaled, only cell-to-cell and exit flux.
        over = np.clip((rho - self._crit) / (self._jam - self._crit), 0.0, 1.0)
        dis = 1.0 - CAPACITY_DROP_FRAC * over

        # Merge turbulence: recent ramp admissions brake the merge cell's own
        # discharge, the more so the denser the cell already runs.
        gc = self._ramp_cell
        dens_fac = np.minimum(rho[gc] / self._crit[gc], 2.0)
        fric = np.zeros_like(dis)
        np.add.at(fric, gc, MERGE_FRICTION_FRAC * dens_fac
                  * self._merge_flow_ema / self._cap_total[gc])
        dis *= np.maximum(1.0 - fric, 0.5)

        inflow = np.zeros_like(rho)  # veh/h
        outflow = np.zeros_like(rho)

        q_plain = (np.minimum(send[self._plain_pred], recv[self._plain_succ])
                   * dis[self._plain_pred])
        np.add.at(inflow, self._plain_succ, q_plain)
        np.add.at(outflow, self._plain_pred, q_plain)

        # Diverges: continuation branch now, side branch joins a merge below.
        side_demand = []
        for (p, t, ratio) in self._junctions:
            cont = min((1.0 - ratio) * send[p], recv[p + 1]) * dis[p]
            inflow[p + 1] += cont
            outflow[p] += cont
            side_demand.append(ratio * send[p])

        for k, (p, t, ratio) in enumerate(self._junctions):
            q_main, q_side = self._merge(
                send[t - 1], side_demand[k], recv[t], self._junction_priority[k])
            q_main *= dis[t - 1]
            q_side *= dis[p]
            inflow[t] += q_main + q_side
            outflow[t - 1] += q_main
            outflow[p] += q_side

        # Ramp merges, gated by the meter's green quota.
        sig_iter = iter(self.signals)
        signal_of = [next(sig_iter) if met else None for met in self._ramp_metered]
        for j, g in enumerate(self._ramp_cell):
            sig = signal_of[j]
            if sig is None:
                avail = self.ramp_queues[j]
            elif sig.phase == "green":
                avail = min(self.ramp_queues[j], sig.quota_veh)
            else:
                avail = 0.0
            q_main, q_ramp = self._merge(
                send[g - 1], avail / ts_h, recv[g], self._ramp_priority[j])
            q_main *= dis[g - 1]
            admitted = q_ramp * ts_h
            self.ramp_queues[j] -= admitted
            if sig is not None:
                sig.quota_veh = max(sig.quota_veh - admitted, 0.0)
            inflow[g] += q_main + q_ramp
            outflow[g - 1] += q_main
            self._merge_flow_ema[j] += (
                (q_ramp - self._merge_flow_ema[j]) * ts / MERGE_RELAX_S)

        exits = 0.0
        for i, (s, e) in enumerate(self._chains):
            q_in = min(self.entry_queues[i] / ts_h, recv[s])
            inflow[s] += q_in
            self.entry_queues[i] -= q_in * ts_h
            outflow[e - 1] += send[e - 1] * dis[e - 1]
            exits += send[e - 1] * dis[e - 1] * ts_h

        self.density = np.clip(
            rho + (inflow - outflow) * ts_h / self._veh_factor, 0.0, self._jam)
        self.time_s += ts

        sc = self._sensor_cell
        self._occ_sum += np.minimum(100.0, self.density[sc] * self._occ_factor[sc])
        self._dens_sum += self.density[sc]
        self._passed_veh += outflow[sc] * ts_h
        self._steps_in_window += 1
        for k, sig in enumerate(self.signals):
            if sig.phase == "green":
                self._green_s[k] += ts
            sig.advance(ts)

        return StepInfo(arrivals_veh=arrivals, dropped_veh=dropped, exits_veh=exits)

    # -- sensor aggregation ------------------------------------------------------

    def read_window(self) -> tuple[ControlObservation, np.ndarray]:
        """Close the current control window: (observation, green seconds)."""
        steps = self._steps_in_window
        if steps == 0:
            raise RuntimeError("no simulation steps since the last window read")
        window_s = steps * self.config.sim_step_s
        sc = self._sensor_cell
        occupancy = self._occ_sum / steps
        flow = self._passed_veh * 3600.0 / window_s
        mean_density = self._dens_sum / steps
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = flow / (mean_density * self._lanes[sc])
        speed = np.where(mean_density > 1e-9, speed, self._vf[sc])
        obs = ControlObservation(
            time_s=self.time_s, occupancy=occupancy, flow=flow, speed=speed)
        green = self._green_s.copy()
        self._steps_in_window = 0
        self._occ_sum = np.zeros_like(self._occ_sum)
        self._dens_sum = np.zeros_like(self._dens_sum)
        self._passed_veh = np.zeros_like(self._passed_veh)
        self._green_s = np.zeros_like(self._green_s)
        return obs, green


# -- episodes -------------------------------------------------------------------

@dataclass
class EpisodeRecord:
    """One recorded control window: per-control-step sensor and meter data.

    Row k pairs the sensor aggregates of the control step ending at
    ``times[k]`` with the rates the controller chose at that boundary (those
    rates act during the following control step).
    """

    seed: int
    control_step_s: float
    sensor_ids: tuple[str, ...]
    ramp_ids: tuple[str, ...]
    times: np.ndarray  # (d,) s
    occupancy: np.ndarray  # (d, n) %
    flow: np.ndarray  # (d, n) veh/h
    speed: np.ndarray  # (d, n) km/h
    rates: np.ndarray  # (d, m) veh/h
    green_seconds: np.ndarray  # (m,) green time during the recorded window
    dropped_veh: float = 0.0
    clamp_events: int = 0

    def __len__(self) -> int:
        return len(self.times)

    def to_csv(self, path) -> None:
        """Write the per-step table as CSV and the per-episode fields (seed,
        step, ids, green seconds, drops, clamps) as a JSON sidecar beside it
        (same name, ``.json`` suffix)."""
        n = self.occupancy.shape[1]
        m = self.rates.shape[1]
        header = (["time_s"]
                  + [f"occ_{i + 1}" for i in range(n)]
                  + [f"flow_{i + 1}" for i in range(n)]
                  + [f"speed_{i + 1}" for i in range(n)]
                  + [f"rate_{i + 1}" for i in range(m)])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(len(self)):
                row = ([self.times[k]], self.occupancy[k], self.flow[k],
                       self.speed[k], self.rates[k])
                writer.writerow([f"{v:.12g}" for part in row for v in part])
        meta = {"seed": int(self.seed),
                "control_step_s": float(self.control_step_s),
                "sensor_ids": list(self.sensor_ids),
                "ramp_ids": list(self.ramp_ids),
                "green_seconds": [float(g) for g in self.green_seconds],
                "dropped_veh": float(self.dropped_veh),
                "clamp_events": int(self.clamp_events)}
        with open(Path(path).with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)

    @classmethod
    def from_csv(cls, path, seed: int = -1,
                 control_step_s: float = 30.0) -> "EpisodeRecord":
        """Read an episode written by :meth:`to_csv`. Without its JSON sidecar
        the record takes ``seed`` and ``control_step_s`` from the arguments,
        column names as ids, and zero green seconds, drops and clamps."""
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            try:
                data = np.array([[float(v) for v in row] for row in reader],
                                ndmin=2)
            except ValueError as exc:
                raise ValueError(f"malformed episode csv {path}: {exc}") from None
        n = sum(1 for h in header if h.startswith("occ_"))
        m = sum(1 for h in header if h.startswith("rate_"))
        if data.shape[1] != 1 + 3 * n + m:
            raise ValueError(f"malformed episode csv {path}: bad column count")
        meta = {"seed": seed, "control_step_s": control_step_s,
                "sensor_ids": [f"occ_{i + 1}" for i in range(n)],
                "ramp_ids": [f"rate_{i + 1}" for i in range(m)],
                "green_seconds": [0.0] * m, "dropped_veh": 0.0, "clamp_events": 0}
        sidecar = Path(path).with_suffix(".json")
        if sidecar.exists():
            with open(sidecar, "r", encoding="utf-8") as fh:
                meta.update(json.load(fh))
        return cls(
            seed=int(meta["seed"]),
            control_step_s=float(meta["control_step_s"]),
            sensor_ids=tuple(meta["sensor_ids"]),
            ramp_ids=tuple(meta["ramp_ids"]),
            times=data[:, 0],
            occupancy=data[:, 1:1 + n],
            flow=data[:, 1 + n:1 + 2 * n],
            speed=data[:, 1 + 2 * n:1 + 3 * n],
            rates=data[:, 1 + 3 * n:],
            green_seconds=np.array(meta["green_seconds"], dtype=float),
            dropped_veh=float(meta["dropped_veh"]),
            clamp_events=int(meta["clamp_events"]),
        )


def run_episode(config: NetworkConfig, controller, seed: int | None = None,
                initial_rate_vph: float = 1000.0) -> EpisodeRecord:
    """Simulate burn-in plus one control window under the given controller.

    The controller is a callable mapping a :class:`ControlObservation` to an
    array of metering rates, one per metered ramp. It runs during burn-in too,
    but only the control window is recorded. Rates outside [200, 1800] veh/h
    are clamped and counted as clamp events (logged once at the end). Raises
    :class:`ConservationError` if arrivals minus drops minus exits differ from
    the change in stored vehicles by more than ``CONSERVATION_TOL_VEH``.
    """
    rng = np.random.default_rng(config.rng_seed if seed is None else seed)
    plant = TrafficPlant(config, initial_rate_vph=initial_rate_vph)
    m = plant.n_metered

    total_windows = round((config.burn_in_s + config.horizon_duration_s)
                          / config.control_step_s)
    burn_in_windows = round(config.burn_in_s / config.control_step_s)
    steps_per = plant.config.steps_per_control

    times, occs, flows, speeds, rate_rows = [], [], [], [], []
    green_total = np.zeros(m)
    stored_before = plant.total_vehicles()
    arrivals = dropped = exits = 0.0
    clamp_events = 0
    for window in range(total_windows):
        for _ in range(steps_per):
            info = plant.step(rng)
            arrivals += info.arrivals_veh
            dropped += info.dropped_veh
            exits += info.exits_veh
        obs, green = plant.read_window()
        proposed = np.asarray(controller(obs), dtype=float)
        if proposed.shape != (m,):
            raise ValueError(
                f"controller returned shape {proposed.shape}, expected ({m},)")
        clamped = np.clip(proposed, RATE_MIN_VPH, RATE_MAX_VPH)
        clamp_events += int(np.sum(np.abs(clamped - proposed) > 1e-9))
        if window >= burn_in_windows:
            times.append(obs.time_s)
            occs.append(obs.occupancy)
            flows.append(obs.flow)
            speeds.append(obs.speed)
            rate_rows.append(clamped)
            green_total += green
        plant.set_rates(clamped)

    residual = arrivals - dropped - exits - (plant.total_vehicles() - stored_before)
    if abs(residual) > CONSERVATION_TOL_VEH:
        raise ConservationError(residual)
    if clamp_events:
        logger.warning("controller proposed %d out-of-range rates; clamped",
                       clamp_events)
    return EpisodeRecord(
        seed=int(config.rng_seed if seed is None else seed),
        control_step_s=config.control_step_s,
        sensor_ids=tuple(s.id for s in config.sensors),
        ramp_ids=tuple(r.id for r in config.ramps if r.metered),
        times=np.array(times),
        occupancy=np.array(occs),
        flow=np.array(flows),
        speed=np.array(speeds),
        rates=np.array(rate_rows),
        green_seconds=green_total,
        dropped_veh=dropped,
        clamp_events=clamp_events,
    )
