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

Arrivals come from one ``rng.poisson(means, size=(steps, sources))`` call per
control window (:meth:`TrafficPlant.draw_arrivals`); each step consumes one
row. numpy fills the block in row order with exactly the draws that one
scalar call per source and step would give, and a zero-demand source takes
no bits, so demand realizations depend on the seed alone.

The step itself runs on Python floats: it reads the state arrays with
``tolist()``, loops over per-cell constant tuples compiled once in
``__init__``, and writes the new state back as arrays. On the benchmark's 34
cells a numpy call on an 8-34 element array costs about as much as the
arithmetic it does, so a step written as ~90 such calls was only 1.25-1.3x
faster than one looping over objects, while the scalar loops are 2-3x
faster. The loops keep the array version's float expressions in the same
order, so episodes are bit-identical to it.

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

from .feedback import (GREEN_DURATION_S, INITIAL_RATE_VPH, RATE_MAX_VPH,
                       RATE_MIN_VPH, rate_to_red_duration)
from .network import NetworkConfig

__all__ = [
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

    The caller owns the RNG: :meth:`draw_arrivals` samples a block of
    arrivals from it and :meth:`step` consumes one row of that block, so
    episode randomness is reproducible and independent of control actions.
    ``density``, ``entry_queues`` and ``ramp_queues`` are numpy arrays that
    a step reads when it starts and replaces when it ends; writing into them
    between steps sets the state. Every meter starts at
    ``feedback.INITIAL_RATE_VPH``; :meth:`set_rates` publishes new rates.
    """

    def __init__(self, config: NetworkConfig):
        self.config = config
        cells = [c for hw in config.highways for c in hw.cells]
        starts: list[int] = []
        offset = 0
        for hw in config.highways:
            starts.append(offset)
            offset += len(hw.cells)
        hw_index = {hw.name: i for i, hw in enumerate(config.highways)}

        def gidx(hw_name: str, cell: int) -> int:
            return starts[hw_index[hw_name]] + cell

        # Per-cell constants as Python floats, in the expressions the step
        # reads: (vf, cap per lane, lanes, wave speed, jam, critical,
        # jam - critical, vehicles per unit density).
        consts = []
        for c in cells:
            vf, cap = float(c.free_flow_kmh), float(c.capacity_vphl)
            lanes, jam = float(c.lanes), float(c.jam_density_vkml)
            crit = cap / vf
            consts.append((vf, cap, lanes, c.wave_speed_kmh, jam, crit,
                           jam - crit, float(c.length_km) * lanes))
        self._cell_consts = tuple(consts)
        cap_total = [cap * lanes for _, cap, lanes, *_ in consts]

        ts = config.sim_step_s
        self._arrival_means = [hw.demand_veh_per_hour * ts / 3600.0
                               for hw in config.highways]
        self._arrival_means += [r.demand_veh_per_hour * ts / 3600.0
                                for r in config.ramps]

        # Receivers. The config's plumbing rules give every cell its inflow
        # from exactly one of: a plain chain pair, a junction (continuation
        # or target), a ramp merge or its entry queue; and its outflow to
        # exactly one (a diverge to two). So the step assigns each flux once;
        # only a diverge's outflow is a sum, of its two branches.
        ramp_cells = [gidx(r.highway, r.merge_cell) for r in config.ramps]
        junctions = [(gidx(j.from_highway, j.from_cell),
                      gidx(j.to_highway, j.to_cell), j.turn_ratio)
                     for j in config.junctions]
        self._junctions = tuple(
            (p, t, f, cap_total[t - 1] / (cap_total[t - 1] + f * cap_total[p]))
            for p, t, f in junctions)
        self._ramps = tuple(
            (g, float(r.queue_capacity_veh),
             cap_total[g - 1] / (cap_total[g - 1] + RATE_MAX_VPH),
             RampSignal(INITIAL_RATE_VPH))
            for g, r in zip(ramp_cells, config.ramps))
        self._friction = tuple((g, self._cell_consts[g][5], cap_total[g])
                               for g in ramp_cells)
        # Chain pairs (pred -> succ) whose flux is a plain demand/supply min:
        # everything except diverge sources and cells with a side inflow.
        special_succ = set(ramp_cells) | {t for _, t, _ in junctions}
        diverge_pred = {p for p, _, _ in junctions}
        self._chains = tuple((s, s + len(hw.cells) - 1)
                             for s, hw in zip(starts, config.highways))
        self._plain = tuple((c - 1, c) for s, last in self._chains
                            for c in range(s + 1, last + 1)
                            if c not in special_succ and c - 1 not in diverge_pred)

        # Each ramp's detector sits in its merge cell.
        self._sensors = tuple((c, cells[c].vehicle_length_m / 10.0)
                              for c in ramp_cells)

        self.time_s = 0.0
        self.density = np.zeros(len(cells))
        self.entry_queues = np.zeros(len(config.highways))
        self.ramp_queues = np.zeros(len(config.ramps))
        self._merge_flow_ema = np.zeros(len(config.ramps))  # veh/h, recent admissions
        self.signals: list[RampSignal] = [sig for *_, sig in self._ramps]
        self._clear_window()

    def _clear_window(self) -> None:
        """Zero the per-ramp sums of the control window in progress."""
        n = len(self.signals)
        self._steps_in_window = 0
        self._occ_sum = [0.0] * n
        self._dens_sum = [0.0] * n
        self._passed_veh = [0.0] * n
        self._green_s = [0.0] * n

    # -- control interface ----------------------------------------------------

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
        veh_factor = np.array([c[7] for c in self._cell_consts])
        return float(self.density @ veh_factor
                     + self.entry_queues.sum() + self.ramp_queues.sum())

    def draw_arrivals(self, steps: int, rng) -> list[list[int]]:
        """Poisson arrivals for ``steps`` simulation steps in one draw.

        One row per step, one count per source (highways, then ramps), each
        with mean ``demand * sim_step_s / 3600``. numpy fills the block in
        row order with the same draws as one scalar call per source and step,
        and a zero-demand source reads 0 without consuming any bits.
        """
        means = self._arrival_means
        return rng.poisson(means, size=(steps, len(means))).tolist()

    # -- dynamics ---------------------------------------------------------------

    @staticmethod
    def _merge(d_main: float, d_side: float, supply: float,
               main_priority: float) -> tuple[float, float]:
        """Split a cell's supply between its mainline and side demand."""
        if d_main + d_side <= supply:
            return d_main, d_side
        # max(min(d_main, priority * supply), supply - d_side)
        q_main = main_priority * supply
        if d_main < q_main:
            q_main = d_main
        if supply - d_side > q_main:
            q_main = supply - d_side
        return q_main, supply - q_main

    def step(self, arrivals) -> StepInfo:
        """Advance one simulation step; returns the vehicle bookkeeping.

        ``arrivals`` is one row of :meth:`draw_arrivals`: the vehicles that
        reach each source (highways, then ramps) during this step.
        """
        ts = self.config.sim_step_s
        ts_h = ts / 3600.0
        merge = self._merge
        rho = self.density.tolist()
        entry = self.entry_queues.tolist()
        queues = self.ramp_queues.tolist()
        ema = self._merge_flow_ema.tolist()

        # Arrivals, summed in source order: highways, then ramps. A source
        # with no arrival changes nothing.
        n_hw = len(entry)
        total = dropped = 0.0
        for i in range(n_hw):
            a = arrivals[i]
            if a:
                entry[i] += a
                total += a
        for j, (_, qcap, _, _) in enumerate(self._ramps):
            a = arrivals[n_hw + j]
            if a:
                room = qcap - queues[j]
                taken = a if a <= room else room if room > 0.0 else 0.0
                queues[j] += taken
                total += a
                dropped += a - taken

        # Demand (send), supply (recv) and the capacity drop: whatever a cell
        # actually discharges (after the demand/supply min) is scaled by how
        # far over critical it runs. Queue releases are not scaled, only
        # cell-to-cell and exit flux.
        send, recv, dis = [], [], []
        for r, (vf, cap, lanes, wave, jam, crit, span, _) in zip(rho, self._cell_consts):
            q = vf * r
            send.append((q if q < cap else cap) * lanes)
            q = wave * (jam - r)
            if q > cap:
                q = cap
            recv.append((q if q > 0.0 else 0.0) * lanes)
            if r <= crit:
                dis.append(1.0)
            else:
                over = (r - crit) / span
                dis.append(1.0 - CAPACITY_DROP_FRAC * (over if over < 1.0 else 1.0))

        # Merge turbulence: recent ramp admissions brake the merge cell's own
        # discharge, the more so the denser the cell already runs.
        for j, (g, crit, cap) in enumerate(self._friction):
            dens_fac = rho[g] / crit
            if dens_fac > 2.0:
                dens_fac = 2.0
            keep = 1.0 - MERGE_FRICTION_FRAC * dens_fac * ema[j] / cap
            dis[g] *= keep if keep > 0.5 else 0.5

        n = len(rho)
        inflow = [0.0] * n  # veh/h
        outflow = [0.0] * n
        for p, c in self._plain:
            q = send[p]
            if recv[c] < q:
                q = recv[c]
            q *= dis[p]
            inflow[c] = q
            outflow[p] = q

        # Diverges: the continuation branch and the side branch, which
        # competes with the target's own upstream cell for its supply.
        for p, t, ratio, priority in self._junctions:
            cont = min((1.0 - ratio) * send[p], recv[p + 1]) * dis[p]
            inflow[p + 1] = cont
            q_main, q_side = merge(send[t - 1], ratio * send[p], recv[t], priority)
            q_main *= dis[t - 1]
            q_side *= dis[p]
            inflow[t] = q_main + q_side
            outflow[t - 1] = q_main
            outflow[p] = cont + q_side

        # Ramp merges, gated by the meter's green quota.
        for j, (g, _, priority, sig) in enumerate(self._ramps):
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

        # Entry queues feed each highway's first cell; its last cell exits.
        exits = 0.0
        for i, (s, last) in enumerate(self._chains):
            q_in = min(entry[i] / ts_h, recv[s])
            inflow[s] = q_in
            entry[i] -= q_in * ts_h
            q = send[last] * dis[last]
            outflow[last] = q
            exits += q * ts_h

        density = []
        for r, q_in, q_out, (_, _, _, _, jam, _, _, veh_factor) in zip(
                rho, inflow, outflow, self._cell_consts):
            d = r + (q_in - q_out) * ts_h / veh_factor
            density.append(0.0 if d <= 0.0 else jam if d >= jam else d)

        for k, (c, occ_factor) in enumerate(self._sensors):
            d = density[c]
            occ = d * occ_factor
            self._occ_sum[k] += occ if occ < 100.0 else 100.0
            self._dens_sum[k] += d
            self._passed_veh[k] += outflow[c] * ts_h
        for k, sig in enumerate(self.signals):
            if sig.phase == "green":
                self._green_s[k] += ts
            sig.advance(ts)

        self.density = np.array(density)
        self.entry_queues = np.array(entry)
        self.ramp_queues = np.array(queues)
        self._merge_flow_ema = np.array(ema)
        self.time_s += ts
        self._steps_in_window += 1
        return StepInfo(arrivals_veh=total, dropped_veh=dropped, exits_veh=exits)

    # -- sensor aggregation ------------------------------------------------------

    def read_window(self) -> tuple[ControlObservation, np.ndarray]:
        """Close the current control window: (observation, green seconds)."""
        steps = self._steps_in_window
        if steps == 0:
            raise RuntimeError("no simulation steps since the last window read")
        window_s = steps * self.config.sim_step_s
        occupancy = np.array(self._occ_sum) / steps
        flow = np.array(self._passed_veh) * 3600.0 / window_s
        mean_density = np.array(self._dens_sum) / steps
        cell = [self._cell_consts[c] for c, _ in self._sensors]
        vf = np.array([consts[0] for consts in cell])
        lanes = np.array([consts[2] for consts in cell])
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = flow / (mean_density * lanes)
        speed = np.where(mean_density > 1e-9, speed, vf)
        obs = ControlObservation(
            time_s=self.time_s, occupancy=occupancy, flow=flow, speed=speed)
        green = np.array(self._green_s)
        self._clear_window()
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
    dropped_veh: float = 0.0  # ramp arrivals lost during the recorded window
    clamp_events: int = 0  # proposed rates clamped during the recorded window

    def __len__(self) -> int:
        return len(self.times)

    @staticmethod
    def sidecar_path(path) -> Path:
        """Where :meth:`to_csv` puts the JSON sidecar of the CSV at ``path``."""
        return Path(path).with_suffix(".json")

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
        with open(self.sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)

    @classmethod
    def from_csv(cls, path) -> "EpisodeRecord":
        """Read an episode written by :meth:`to_csv`, CSV and JSON sidecar.

        Raises ``ValueError`` naming the file if the CSV is malformed, if the
        sidecar is missing, is not an object or lacks one of its keys, or if
        its id or green-second lists do not match the CSV's columns: without
        them the seed, green time, drops and clamps would be guesses.
        """
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
        sidecar = cls.sidecar_path(path)
        if not sidecar.exists():
            raise ValueError(f"episode csv {path} has no sidecar {sidecar}; its "
                             "seed, green seconds, drops and clamps live there")
        with open(sidecar, "r", encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"malformed episode sidecar {sidecar}: {exc}") from None
        if not isinstance(meta, dict):
            raise ValueError(f"malformed episode sidecar {sidecar}: "
                             "expected a JSON object")
        missing = [key for key in ("seed", "control_step_s", "sensor_ids",
                                   "ramp_ids", "green_seconds", "dropped_veh",
                                   "clamp_events") if key not in meta]
        if missing:
            raise ValueError(f"malformed episode sidecar {sidecar}: "
                             f"missing {', '.join(missing)}")
        for key, width, prefix in (("sensor_ids", n, "occ_"),
                                   ("ramp_ids", m, "rate_"),
                                   ("green_seconds", m, "rate_")):
            if len(meta[key]) != width:
                raise ValueError(
                    f"malformed episode sidecar {sidecar}: {len(meta[key])} "
                    f"{key} for {width} {prefix} columns")
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


def run_episode(config: NetworkConfig, controller, seed: int) -> EpisodeRecord:
    """Simulate burn-in plus one control window under the given controller.

    ``seed`` seeds the episode's arrivals. The controller is a callable
    mapping a :class:`ControlObservation` to an array of metering rates, one
    per ramp. It runs during burn-in too, but only the control window is
    recorded. Rates outside [200, 1800] veh/h are clamped. The record's clamp events (logged once at the end), drops
    and green seconds cover the control window only.
    Raises :class:`ConservationError` if the whole episode's arrivals minus
    drops minus exits differ from the change in stored vehicles by more than
    ``CONSERVATION_TOL_VEH``.
    """
    rng = np.random.default_rng(seed)
    plant = TrafficPlant(config)
    m = config.n_ramps

    total_windows = round((config.burn_in_s + config.horizon_duration_s)
                          / config.control_step_s)
    burn_in_windows = round(config.burn_in_s / config.control_step_s)
    steps_per = plant.config.steps_per_control

    times, occs, flows, speeds, rate_rows = [], [], [], [], []
    green_total = np.zeros(m)
    stored_before = plant.total_vehicles()
    arrivals = dropped = exits = 0.0
    recorded_dropped = 0.0
    clamp_events = 0
    for window in range(total_windows):
        recording = window >= burn_in_windows
        for row in plant.draw_arrivals(steps_per, rng):
            info = plant.step(row)
            arrivals += info.arrivals_veh
            dropped += info.dropped_veh
            exits += info.exits_veh
            if recording:
                recorded_dropped += info.dropped_veh
        obs, green = plant.read_window()
        proposed = np.asarray(controller(obs), dtype=float)
        if proposed.shape != (m,):
            raise ValueError(
                f"controller returned shape {proposed.shape}, expected ({m},)")
        clamped = np.clip(proposed, RATE_MIN_VPH, RATE_MAX_VPH)
        if recording:
            clamp_events += int(np.sum(np.abs(clamped - proposed) > 1e-9))
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
        logger.warning("controller proposed %d out-of-range rates in the "
                       "recorded window; clamped",
                       clamp_events)
    return EpisodeRecord(
        seed=int(seed),
        control_step_s=config.control_step_s,
        sensor_ids=tuple(r.sensor_id for r in config.ramps),
        ramp_ids=tuple(r.id for r in config.ramps),
        times=np.array(times),
        occupancy=np.array(occs),
        flow=np.array(flows),
        speed=np.array(speeds),
        rates=np.array(rate_rows),
        green_seconds=green_total,
        dropped_veh=recorded_dropped,
        clamp_events=clamp_events,
    )
