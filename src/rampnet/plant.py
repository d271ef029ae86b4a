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

Arrivals come from one ``rng.poisson(means, size=(steps, sources))`` call
per episode (:meth:`TrafficPlant.draw_arrivals`), held once as int64
counts; each step consumes one row, and each control window gets its rows
as Python floats. numpy fills the block in row order with exactly the draws
that one scalar call per source and step would give, so one draw per episode
is the stream of one draw per window, and a zero-demand source takes no
bits, so demand realizations depend on the seed alone. The counts convert to
float exactly; CPython specializes float-float arithmetic but not int-float,
so the kernel runs faster on floats with the same results.

The state is lists of Python floats, and the steps run on them in one window
kernel, which :meth:`TrafficPlant.advance` calls once per control window with
that window's arrival block and a ``[dropped, exits]`` pair of books
(:meth:`TrafficPlant.step` is the kernel on a one-row block). The kernel is
Python source generated for one network, ``_kernel_source``, and compiled
once per distinct ``NetworkConfig`` (``_window_kernel`` caches it by the
frozen config). It unpacks each state list and the books into locals when
the call starts, runs each row as one straight-line step and writes them
back as new lists when the block is done, with no numpy call. In a step
every value is a local and every constant of the config a literal, so it
spends nothing on attribute reads, indexing or calls; module constants such
as ``CAPACITY_DROP_FRAC`` are read at each call. Arrivals are not added up:
the episode's draw holds them. The generator is the one home of the cell
rule, of merges, of the meters' green/red cycle and of the step's order; the
red timing's home, :func:`rampnet.feedback.rate_to_red_duration`, runs once
per published rate in :meth:`TrafficPlant.set_rates`. The steps are scalar
Python, not numpy calls, because on the benchmark's 34 cells a numpy call on
an 8-34 element array costs about as much as the arithmetic it does. Each
element's float expressions keep the order of the array version of the
plant, so episodes are bit-identical to it.

A cell at or below critical density sends ``vf * rho``, receives its full
capacity and loses none of it (Daganzo 1994, *Transp. Res. B* 28:269), and
most of the benchmark's cells sit there. So each cell's rule opens with a
free-flow branch that writes those three values without evaluating the
general min-expressions and the capacity-drop test. Its bound
(``_free_flow_bound``) is the largest density, at most critical and found by
stepping down from it one ulp at a time, at which the general float
expressions give exactly the branch's values; critical densities such as
16.67 do not round-trip through ``vf * rho`` and ``wave * (jam - rho)``, so
the bound can sit an ulp below critical. Every rounding involved is monotone
in the density, so the branch is exact on all of [0, bound] and episodes stay
bit-identical; a cell without a bound within 64 ulps gets a branch that is
never taken. Compiling the benchmark corridor's 655-line kernel takes
8-14 ms and a transient of about 3.3 MB (tracemalloc peak, 2 vCPUs; 586
lines, 7.5-11 ms and 3.0 MB without the branch), once per process and
config; its source is registered in ``linecache``
under a name derived from it, so tracebacks and profiles show kernel lines.

Units: densities veh/km/lane, flows veh/h, queues veh, time s. One simulation
step is ``config.sim_step_s`` (1 s in the benchmark).
"""

from __future__ import annotations

import functools
import hashlib
import json
import linecache
import logging
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .feedback import (GREEN_DURATION_S, INITIAL_RATE_VPH, RATE_MAX_VPH,
                       RATE_MIN_VPH, rate_to_red_duration)
from .network import NetworkConfig, _is_bool, _is_int, _is_number, _list_of

__all__ = [
    "ControlObservation",
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


@dataclass(frozen=True)
class ControlObservation:
    """All sensors' aggregates over the control step ending at ``time_s``."""

    time_s: float
    occupancy: np.ndarray  # (n,) %
    flow: np.ndarray  # (n,) veh/h
    speed: np.ndarray  # (n,) km/h


class ConservationError(RuntimeError):
    """An episode's vehicle books did not balance (a plant bug, never data)."""

    def __init__(self, residual_veh: float):
        super().__init__(
            f"vehicles not conserved: arrivals - dropped - exits - stored "
            f"change = {residual_veh:.3g} veh")
        self.residual_veh = residual_veh

    def __reduce__(self):  # rebuilt from its field when pickled out of a worker
        return type(self), (self.residual_veh,)


# -- window kernel ----------------------------------------------------------------

def _literal(value) -> str:
    """Source text that reads back as exactly ``float(value)``."""
    text = repr(float(value))
    return text if math.isfinite(float(value)) else f"float('{text}')"


def _free_flow_exact(rho, vf, cap, lanes, wave, jam) -> bool:
    """Whether the cell rule's general send and receive expressions give, at
    density ``rho``, exactly the free-flow branch's ``vf * rho * lanes`` and
    ``cap * lanes``."""
    cap_l = cap * lanes
    x = vf * rho
    send = x * lanes if x < cap else cap_l
    x = wave * (jam - rho)
    recv = x * lanes if x < cap else cap_l
    return send == vf * rho * lanes and recv == cap_l


def _free_flow_bound(cell) -> float:
    """The free-flow branch's bound for ``cell``: the largest density at
    most its critical density, and at most 64 ulps below it, at which
    :func:`_free_flow_exact` holds, or -inf when there is none.

    Every rounding involved is monotone in the density, so a test at the
    bound covers all of [0, bound]. Below an exact bound, ``vf * rho`` is
    either under ``cap``, where both paths send ``vf * rho * lanes``, or
    between ``cap`` and its value at the bound, so that times ``lanes`` it
    rounds to between ``cap * lanes`` and the bound's send, which is
    ``cap * lanes`` too. Likewise ``wave * (jam - rho)`` is at least its
    value at the bound, so the receive stays ``cap * lanes``. The discharge
    factor is 1.0 because the bound is at most critical. The lowest
    candidate is tested first, so a cell with no bound costs one test.
    """
    vf, cap = float(cell.free_flow_kmh), float(cell.capacity_vphl)
    lanes, jam = float(cell.lanes), float(cell.jam_density_vkml)
    wave, crit = float(cell.wave_speed_kmh), float(cell.critical_density_vkml)
    floor = crit
    for _ in range(64):
        floor = math.nextafter(floor, 0.0)
    if not _free_flow_exact(floor, vf, cap, lanes, wave, jam):
        return -math.inf
    bound = crit
    while not _free_flow_exact(bound, vf, cap, lanes, wave, jam):
        bound = math.nextafter(bound, 0.0)
    return bound


def _kernel_source(config: NetworkConfig) -> str:
    """Python source of ``window(plant, block, books)`` for ``config``.

    Cell ``c`` (the highways' cells in config order) keeps its density,
    send, receive and discharge factor in ``rho{c}``, ``snd{c}``, ``rcv{c}``
    and ``dis{c}``; ``q{c}`` is a plain or queue-fed flux into it, and a
    merge cell's inflow is ``main{c} + side{c}``. Highway ``i`` has
    ``entry{i}`` and its exit flux ``out{i}``; ramp ``j`` has ``queue{j}``,
    ``ema{j}``, its meter's green flag ``lit{j}``, seconds left in the phase
    ``left{j}``, quota ``quota{j}``, red seconds ``red{j}`` and pending red
    ``pend{j}``, and the sensor sums ``occ{j}``, ``dens{j}``, ``passed{j}``
    and ``green{j}``. The books are ``dropped`` and ``exits``, ``lost`` is
    one step's drops and ``x`` holds intermediate values.
    """
    cells = [c for hw in config.highways for c in hw.cells]
    first, chains, offset = {}, [], 0  # (first, last) cell of each highway
    for hw in config.highways:
        first[hw.name] = offset
        chains.append((offset, offset + len(hw.cells) - 1))
        offset += len(hw.cells)
    ts = float(config.sim_step_s)
    T, TH = _literal(ts), _literal(ts / 3600.0)
    # Per-cell constants in the expressions the step reads: vf, cap per
    # lane, lanes, wave speed, jam, critical, jam - critical, vehicles per
    # unit density, cap * lanes and the free-flow branch's bound.
    consts = []
    for c in cells:
        vf, cap = float(c.free_flow_kmh), float(c.capacity_vphl)
        lanes, jam = float(c.lanes), float(c.jam_density_vkml)
        crit = c.critical_density_vkml
        consts.append([_literal(v) for v in (
            vf, cap, lanes, c.wave_speed_kmh, jam, crit, jam - crit,
            float(c.length_km) * lanes, cap * lanes, _free_flow_bound(c))])
    cap_total = [float(c.capacity_vphl) * float(c.lanes) for c in cells]
    ramp_cells = [first[r.highway] + r.merge_cell for r in config.ramps]
    n, n_hw, m = len(cells), len(config.highways), len(config.ramps)

    def names(prefix, count):
        return "".join(f"{prefix}{i}, " for i in range(count))

    def clamp(c, value):
        jam = consts[c][4]
        return f"rho{c} = 0.0 if {value} <= 0.0 else {jam} if {value} >= {jam} else {value}"

    def merge(c, main, side, priority):
        # Split cell c's supply between its mainline and side demand:
        # max(min(main, priority * supply), supply - side) to the mainline.
        return [f"x = {side}",
                f"if {main} + x <= rcv{c}:",
                f"    main{c} = {main}; side{c} = x",
                "else:",
                f"    main{c} = {_literal(priority)} * rcv{c}",
                f"    if {main} < main{c}: main{c} = {main}",
                f"    if rcv{c} - x > main{c}: main{c} = rcv{c} - x",
                f"    side{c} = rcv{c} - main{c}"]

    # Every flux is assigned once per step: the config's plumbing rules give
    # each cell its inflow from exactly one of a plain chain pair, a junction
    # (continuation or target), a ramp merge or its entry queue, and its
    # outflow to exactly one (a diverge to two, whose outflow is their sum).
    inflow, outflow = {}, {}
    arrive, friction, fluxes, sensors = [], [], [], []
    for i, (s, last) in enumerate(chains):
        arrive.append(f"if arr{i}: entry{i} += arr{i}")
        fluxes += [f"x = entry{i} / {TH}",
                   f"q{s} = rcv{s} if rcv{s} < x else x",
                   f"entry{i} -= q{s} * {TH}",
                   f"out{i} = snd{last} * dis{last}"]
        inflow[s], outflow[last] = f"q{s}", f"out{i}"
    for jn in config.junctions:
        # The continuation branch, then the side branch, which competes with
        # the target's own upstream cell for its supply.
        p = first[jn.from_highway] + jn.from_cell
        t = first[jn.to_highway] + jn.to_cell
        ratio = jn.turn_ratio
        priority = cap_total[t - 1] / (cap_total[t - 1] + ratio * cap_total[p])
        fluxes += [f"x = {_literal(1.0 - ratio)} * snd{p}",
                   f"q{p + 1} = (rcv{p + 1} if rcv{p + 1} < x else x) * dis{p}",
                   *merge(t, f"snd{t - 1}", f"{_literal(ratio)} * snd{p}", priority),
                   f"main{t} *= dis{t - 1}; side{t} *= dis{p}"]
        inflow[p + 1], inflow[t] = f"q{p + 1}", f"main{t} + side{t}"
        outflow[t - 1], outflow[p] = f"main{t}", f"(q{p + 1} + side{t})"
    for j, (g, ramp) in enumerate(zip(ramp_cells, config.ramps)):
        a = n_hw + j
        arrive += [f"if arr{a}:",
                   f"    x = {_literal(ramp.queue_capacity_veh)} - queue{j}",
                   f"    x = arr{a} if arr{a} <= x else x if x > 0.0 else 0.0",
                   f"    queue{j} += x; lost += arr{a} - x"]
        # Merge turbulence: recent ramp admissions brake the merge cell's own
        # discharge, the more so the denser the cell already runs.
        friction += [f"x = rho{g} / {consts[g][5]}",
                     "if x > 2.0: x = 2.0",
                     f"x = 1.0 - fric * x * ema{j} / {consts[g][8]}",
                     f"dis{g} *= x if x > 0.5 else 0.5"]
        # The meter releases at most its green quota of the ramp queue.
        priority = cap_total[g - 1] / (cap_total[g - 1] + RATE_MAX_VPH)
        fluxes += [f"x = queue{j}",
                   f"if not lit{j}: x = 0.0",
                   f"elif quota{j} < x: x = quota{j}",
                   *merge(g, f"snd{g - 1}", f"x / {TH}", priority),
                   f"main{g} *= dis{g - 1}",
                   f"x = side{g} * {TH}",
                   f"queue{j} -= x",
                   f"x = quota{j} - x",
                   f"quota{j} = x if x > 0.0 else 0.0",
                   f"ema{j} += (side{g} - ema{j}) * {T} / relax"]
        inflow[g], outflow[g - 1] = f"main{g} + side{g}", f"main{g}"
    for c in range(n):
        if c not in inflow:  # a plain chain pair
            inflow[c] = outflow[c - 1] = f"q{c}"
            fluxes.append(f"q{c} = (rcv{c} if rcv{c} < snd{c - 1} else snd{c - 1})"
                          f" * dis{c - 1}")
    for j, g in enumerate(ramp_cells):
        # Each ramp's detector sits in its merge cell.
        occ_factor = _literal(cells[g].vehicle_length_m / 10.0)
        sensors += [f"x = rho{g} * {occ_factor}",
                    f"occ{j} += x if x < 100.0 else 100.0",
                    f"dens{j} += rho{g}",
                    f"passed{j} += {outflow[g]} * {TH}"]

    # The cell rule, the one place it is written: from a cell's density,
    # its demand (send) and supply (recv) in veh/h and the capacity-drop
    # factor (dis) that scales what it discharges after the demand/supply
    # min; queue releases are not scaled. At or below the free-flow bound
    # the general expressions give exactly what the branch writes
    # (_free_flow_bound), so the branch only saves their work. After the
    # fluxes each density moves by its inflow minus outflow and is clamped
    # to [0, jam].
    rule, settle = [], []
    for c, (vf, cap, lanes, wave, jam, crit, span, veh, cap_l, bound) in enumerate(consts):
        rule += [f"if rho{c} <= {bound}: snd{c} = {vf} * rho{c} * {lanes}; "
                 f"rcv{c} = {cap_l}; dis{c} = 1.0",
                 "else:",
                 f"    x = {vf} * rho{c}; snd{c} = x * {lanes} if x < {cap} else {cap_l}",
                 f"    x = {wave} * ({jam} - rho{c}); rcv{c} = x * {lanes} if x < {cap} else {cap_l}",
                 f"    dis{c} = 1.0 if rho{c} <= {crit} else 1.0 - drop * ((rho{c} - {crit}) / {span})"]
        settle += [f"x = rho{c} + ({inflow[c]} - {outflow[c]}) * {TH} / {veh}",
                   clamp(c, "x")]
    # A step's drops are summed from 0.0 before they join the books.
    body = [*rule, "lost = 0.0", *arrive, *friction, *fluxes, *settle, *sensors]
    # The signal cycle, the one place it is written: a fixed green with a
    # one-vehicle quota, then the red that realizes the cycle's rate. A new
    # red is latched when the next green starts, so a running cycle always
    # finishes under the timing it started with.
    for j in range(m):
        body += [f"if lit{j}: green{j} += {T}",
                 f"left{j} -= {T}",
                 f"while left{j} <= 1e-12:",
                 f"    if lit{j}: left{j} += red{j}",
                 f"    else: red{j} = pend{j}; quota{j} = 1.0; left{j} += "
                 f"{_literal(GREEN_DURATION_S)}",
                 f"    lit{j} = not lit{j}"]
    body += [f"t += {T}",
             "dropped += lost",
             "exits += " + " + ".join(f"out{i} * {TH}" for i in range(n_hw))]
    # The state the kernel keeps in locals, each a list of the plant's:
    # (prefix, count, attribute).
    state = (("rho", n, "density"), ("entry", n_hw, "entry_queues"),
             ("queue", m, "ramp_queues"), ("ema", m, "_merge_flow_ema"),
             ("lit", m, "_meter_green"), ("left", m, "_meter_left_s"),
             ("quota", m, "_meter_quota"), ("red", m, "_meter_red_s"),
             ("pend", m, "_meter_pending_red_s"), ("occ", m, "_occ_sum"),
             ("dens", m, "_dens_sum"), ("passed", m, "_passed_veh"),
             ("green", m, "_green_s"))
    lines = [
        "def window(plant, block, books):",
        "    drop, fric, relax = CAPACITY_DROP_FRAC, MERGE_FRICTION_FRAC, MERGE_RELAX_S",
        *(f"    {names(p, k)}= plant.{attr}" for p, k, attr in state),
        "    t = plant.time_s",
        "    dropped, exits = books",
        *(f"    {clamp(c, f'rho{c}')}" for c in range(n)),
        "    for row in block:",
        f"        {names('arr', n_hw + m)}= row",
        *(f"        {line}" for line in body),
        *(f"    plant.{attr} = [{names(p, k)}]" for p, k, attr in state),
        "    plant.time_s = t",
        "    books[:] = dropped, exits",
    ]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=8)
def _window_kernel(config: NetworkConfig):
    """The compiled ``window(plant, block, books)`` of ``config``.

    Its source is registered in ``linecache`` under a name derived from the
    source, so tracebacks and profiles show the kernel's lines.
    """
    source = _kernel_source(config)
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    filename = f"<rampnet.plant window kernel {digest}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace["window"]


class TrafficPlant:
    """Simulates one network. Owns densities, queues, and meters.

    The caller owns the RNG: :meth:`draw_arrivals` samples a block of
    arrivals from it and :meth:`advance` runs one step per row of that block
    (:meth:`step` one row), so episode randomness is reproducible and
    independent of control actions. ``density``, ``entry_queues`` and
    ``ramp_queues`` are float lists that a call reads when it starts and
    replaces when it ends; writing into them between calls sets the state
    (the next call clamps densities to [0, jam] before its first step).
    Each meter is kernel state too, one entry per ramp in five lists: green
    or not, seconds left in the phase, the current green's release quota
    (veh), and the red seconds of the running cycle and of the pending rate.
    Every meter starts green at ``feedback.INITIAL_RATE_VPH``;
    :meth:`set_rates` publishes new pending rates.
    """

    def __init__(self, config: NetworkConfig):
        self.config = config
        self._kernel = _window_kernel(config)
        cells = [c for hw in config.highways for c in hw.cells]
        ts = config.sim_step_s
        self._arrival_means = [hw.demand_veh_per_hour * ts / 3600.0
                               for hw in config.highways]
        self._arrival_means += [r.demand_veh_per_hour * ts / 3600.0
                                for r in config.ramps]
        # Each ramp's detector sits in its merge cell.
        merge_cells = [config.highway(r.highway).cells[r.merge_cell]
                       for r in config.ramps]
        self._sensor_vf = [float(c.free_flow_kmh) for c in merge_cells]
        self._sensor_lanes = [float(c.lanes) for c in merge_cells]
        self._veh_factor = [float(c.length_km) * float(c.lanes) for c in cells]

        self.time_s = 0.0
        self.density = [0.0] * len(cells)
        m = len(config.ramps)
        self.entry_queues = [0.0] * len(config.highways)
        self.ramp_queues = [0.0] * m
        self._merge_flow_ema = [0.0] * m  # veh/h, recent admissions
        self._meter_green = [True] * m
        self._meter_left_s = [GREEN_DURATION_S] * m
        self._meter_quota = [1.0] * m
        red_s = rate_to_red_duration(INITIAL_RATE_VPH)
        self._meter_red_s = [red_s] * m
        self._meter_pending_red_s = [red_s] * m
        self._clear_window()

    def _clear_window(self) -> None:
        """Zero the per-ramp sums of the control window in progress."""
        n = len(self.config.ramps)
        self._steps_in_window = 0
        self._occ_sum = [0.0] * n
        self._dens_sum = [0.0] * n
        self._passed_veh = [0.0] * n
        self._green_s = [0.0] * n

    # -- control interface ----------------------------------------------------

    def set_rates(self, rates) -> None:
        """Publish new rates, each adopted when its meter's next green starts;
        if any rate is infeasible, raise ``ValueError`` and publish none."""
        rates = np.asarray(rates, dtype=float)
        m = len(self._meter_pending_red_s)
        if rates.shape != (m,):
            raise ValueError(f"expected {m} rates, got shape {rates.shape}")
        self._meter_pending_red_s = [rate_to_red_duration(r) for r in rates.tolist()]

    def total_vehicles(self) -> float:
        """All vehicles currently inside: cells plus every kind of queue."""
        return (sum(rho * veh for rho, veh in zip(self.density, self._veh_factor))
                + sum(self.entry_queues) + sum(self.ramp_queues))

    def draw_arrivals(self, steps: int, rng) -> np.ndarray:
        """Poisson arrivals for ``steps`` simulation steps in one draw, as a
        (steps, sources) int64 array of counts.

        One row per step, one count per source (highways, then ramps), each
        with mean ``demand * sim_step_s / 3600``. numpy fills the block in
        row order with the same draws as one scalar call per source and step,
        so one draw of k windows' steps is k draws of one window's, and a
        zero-demand source reads 0 without consuming any bits. The counts
        convert to float exactly, and the kernel's arithmetic on floats is
        cheaper than on ints; :meth:`advance` takes rows of Python floats
        (``.astype(float).tolist()`` of a slice), so an episode holds its
        counts once and one window's floats at a time.
        """
        means = self._arrival_means
        return rng.poisson(means, size=(steps, len(means)))

    # -- dynamics ---------------------------------------------------------------

    def advance(self, block, books) -> None:
        """Run one simulation step per row of ``block``.

        ``block`` holds rows of :meth:`draw_arrivals` as lists of Python
        floats: the vehicles that reach each source (highways, then ramps)
        during each step. The state lists are read when the call starts and
        replaced when it ends. ``books`` is a ``[dropped, exits]`` list in
        veh: each step adds its ramp drops and its exits to them. The
        arrivals are the block's own sum, so the books do not keep them.
        """
        self._kernel(self, block, books)
        self._steps_in_window += len(block)

    def step(self, arrivals) -> tuple[float, float, float]:
        """Advance one simulation step; returns (arrivals, dropped, exits), veh.

        ``arrivals`` is one row of :meth:`draw_arrivals` as a list of
        Python floats, and the arrivals returned (before drops) are its sum.
        This is :meth:`advance` on a one-row block.
        """
        books = [0.0, 0.0]
        self.advance((arrivals,), books)
        return sum(arrivals), *books

    # -- sensor aggregation ------------------------------------------------------

    def read_window(self) -> tuple[ControlObservation, np.ndarray]:
        """Close the current control window: (observation, green seconds)."""
        steps = self._steps_in_window
        if steps == 0:
            raise RuntimeError("no simulation steps since the last window read")
        window_s = steps * self.config.sim_step_s
        flow = [veh * 3600.0 / window_s for veh in self._passed_veh]
        speed = []  # space-mean speed; free-flow speed over an empty cell
        for q, dens, lanes, vf in zip(flow, self._dens_sum, self._sensor_lanes,
                                      self._sensor_vf):
            dens /= steps
            speed.append(q / (dens * lanes) if dens > 1e-9 else vf)
        obs = ControlObservation(
            time_s=self.time_s,
            occupancy=np.array([occ / steps for occ in self._occ_sum]),
            flow=np.array(flow), speed=np.array(speed))
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
    # The planner's per-step diagnostics (``MpcController.diagnostics``),
    # burn-in included; None for an episode without a planner.
    solver_steps: list | None = None
    # Wall seconds of the whole episode in "plant", "controller" and "rest"
    # (see run_episode). It describes the run, not the traffic, so it stays
    # in memory: the CSV and its sidecar do not carry it.
    time_split_s: dict | None = None

    def __len__(self) -> int:
        return len(self.times)

    @staticmethod
    def sidecar_path(path) -> Path:
        """Where :meth:`to_csv` puts the JSON sidecar of the CSV at ``path``."""
        return Path(path).with_suffix(".json")

    def to_csv(self, path) -> None:
        """Write the per-step table as CSV and the per-episode fields (seed,
        step, ids, green seconds, drops, clamps, and the planner's steps when
        there are any) as a JSON sidecar beside it (same name, ``.json``
        suffix).

        Every value is written as the shortest repr of its float, which
        ``float()`` reads back bit for bit, so :meth:`from_csv` returns the
        table that was written: a fit or a report from the files is the fit
        or report of the episodes themselves."""
        n = self.occupancy.shape[1]
        m = self.rates.shape[1]
        header = (["time_s"]
                  + [f"occ_{i + 1}" for i in range(n)]
                  + [f"flow_{i + 1}" for i in range(n)]
                  + [f"speed_{i + 1}" for i in range(n)]
                  + [f"rate_{i + 1}" for i in range(m)])
        table = np.column_stack((self.times, self.occupancy, self.flow,
                                 self.speed, self.rates))
        # One format string per row writes what csv.writer would: no field
        # needs quoting, and "%r" formats a float as repr() does.
        row = ",".join(["%r"] * len(header)) + "\r\n"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            fh.writelines(row % tuple(values) for values in table.tolist())
        meta = {"seed": int(self.seed),
                "control_step_s": float(self.control_step_s),
                "sensor_ids": list(self.sensor_ids),
                "ramp_ids": list(self.ramp_ids),
                "green_seconds": [float(g) for g in self.green_seconds],
                "dropped_veh": float(self.dropped_veh),
                "clamp_events": int(self.clamp_events)}
        if self.solver_steps is not None:
            meta["solver_steps"] = self.solver_steps
        with open(self.sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)

    @classmethod
    def from_csv(cls, path) -> "EpisodeRecord":
        """Read an episode written by :meth:`to_csv`, CSV and JSON sidecar.

        Files written with 12 significant digits, as :meth:`to_csv` did
        before it wrote exact values, read as they always did.

        Raises ``ValueError`` naming the file if the CSV is malformed (a value
        that is not a number, a ragged row, no rows), if the
        sidecar is missing, is not an object, lacks one of its keys or holds
        one of the wrong type, or if its id or green-second lists do not
        match the CSV's columns: without them the seed, green time, drops and
        clamps would be guesses. Types are JSON's, not coerced: a number is
        an int or a float, never a bool or a string, an int is an int, and
        ids are strings. The optional ``solver_steps``, when present,
        must be a list of planner steps: objects with a number ``time_s`` and
        a bool ``fallback``, and unless it fell back an int ``iterations``,
        bools ``converged`` and ``capped`` and a number ``solve_time_s``; a
        ``handed_over``, where present, must be a bool. Files written while
        the planner paid a band penalty may carry a number ``penalty``; it is
        checked and otherwise ignored.
        """
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # it warns on no rows
                    data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
            except ValueError as exc:
                raise ValueError(f"malformed episode csv {path}: {exc}") from None
        if not len(data):
            raise ValueError(f"malformed episode csv {path}: no rows")
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
        # Each field, the JSON values that :meth:`to_csv` writes for it, and
        # its conversion. Anything else is refused, not coerced: int() would
        # read a seed of 1.9, "1" or true as 1.
        ids = _list_of(lambda v: isinstance(v, str))
        kinds = {"seed": (_is_int, int), "control_step_s": (_is_number, float),
                 "sensor_ids": (ids, tuple), "ramp_ids": (ids, tuple),
                 "dropped_veh": (_is_number, float), "clamp_events": (_is_int, int),
                 "green_seconds": (_list_of(_is_number),
                                   lambda v: np.array(v, dtype=float))}
        missing = [key for key in kinds if key not in meta]
        if missing:
            raise ValueError(f"malformed episode sidecar {sidecar}: "
                             f"missing {', '.join(missing)}")
        fields = {}
        for key, (valid, kind) in kinds.items():
            if not valid(meta[key]):
                raise ValueError(f"malformed episode sidecar {sidecar}: bad "
                                 f"{key} {json.dumps(meta[key])}")
            fields[key] = kind(meta[key])
        for key, width, prefix in (("sensor_ids", n, "occ_"),
                                   ("ramp_ids", m, "rate_"),
                                   ("green_seconds", m, "rate_")):
            if len(fields[key]) != width:
                raise ValueError(
                    f"malformed episode sidecar {sidecar}: {len(fields[key])} "
                    f"{key} for {width} {prefix} columns")
        steps = meta.get("solver_steps", [])
        if not (isinstance(steps, list) and all(map(_is_planner_step, steps))):
            raise ValueError(f"malformed episode sidecar {sidecar}: "
                             "solver_steps is not a list of planner steps")
        return cls(times=data[:, 0],
                   occupancy=data[:, 1:1 + n],
                   flow=data[:, 1 + n:1 + 2 * n],
                   speed=data[:, 1 + 2 * n:1 + 3 * n],
                   rates=data[:, 1 + 3 * n:],
                   solver_steps=meta.get("solver_steps"),
                   **fields)


def _is_planner_step(step) -> bool:
    """Whether ``step`` has, with usable types, what a report reads of it."""
    if not isinstance(step, dict):
        return False
    kinds = {"time_s": _is_number, "fallback": _is_bool}
    if step.get("fallback") is not True:
        kinds.update(iterations=_is_int, converged=_is_bool, capped=_is_bool,
                     solve_time_s=_is_number)
    optional = {"penalty": _is_number, "handed_over": _is_bool}
    return (all(valid(step.get(key)) for key, valid in kinds.items())
            and all(valid(step[key]) for key, valid in optional.items()
                    if key in step))


def run_episode(config: NetworkConfig, controller, seed: int) -> EpisodeRecord:
    """Simulate burn-in plus one control window under the given controller.

    ``seed`` seeds the episode's arrivals. The controller is a callable
    mapping a :class:`ControlObservation` to an array of metering rates, one
    per ramp. It runs during burn-in too, but only the control window is
    recorded. Rates outside [200, 1800] veh/h are clamped. The record's
    clamp events (logged once at the end), drops and green seconds cover the
    control window only.

    The whole episode's arrivals come from one
    :meth:`TrafficPlant.draw_arrivals` call, the same stream as one draw per
    window, and the plant runs one :meth:`TrafficPlant.advance` call per
    control window on that window's rows as Python floats. The rates are
    clamped and counted on Python floats too. Two clock reads per window
    split the episode's wall time in the record's ``time_split_s``:
    "controller" is the controller calls, "plant" the arrival draw and the
    rest of each window (the window's steps, the sensor read, clamping and
    recording the answer, publishing the rates), and "rest" what lies
    outside (building the plant, the audit and the record).

    Raises :class:`ConservationError` if the whole episode's arrivals minus
    drops minus exits differ from the change in stored vehicles by more than
    ``CONSERVATION_TOL_VEH``.
    """
    started = time.perf_counter()
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
    # [drops, exits] of burn-in and of the recorded window, each added up
    # step by step.
    burn_in_books, recorded_books = [0.0, 0.0], [0.0, 0.0]
    clamp_events = 0
    plant_s = controller_s = 0.0
    mark = time.perf_counter()
    draws = plant.draw_arrivals(total_windows * steps_per, rng)
    for window in range(total_windows):
        recording = window >= burn_in_windows
        block = draws[window * steps_per:(window + 1) * steps_per]
        block = block.astype(float).tolist()
        plant.advance(block, recorded_books if recording else burn_in_books)
        obs, green = plant.read_window()
        asked = time.perf_counter()
        plant_s += asked - mark
        answer = controller(obs)
        mark = time.perf_counter()
        controller_s += mark - asked
        proposed = np.asarray(answer, dtype=float)
        if proposed.shape != (m,):
            raise ValueError(
                f"controller returned shape {proposed.shape}, expected ({m},)")
        proposed = proposed.tolist()
        clamped = [RATE_MIN_VPH if rate < RATE_MIN_VPH
                   else RATE_MAX_VPH if rate > RATE_MAX_VPH else rate
                   for rate in proposed]
        if recording:
            clamp_events += sum(abs(rate - wish) > 1e-9
                                for rate, wish in zip(clamped, proposed))
            times.append(obs.time_s)
            occs.append(obs.occupancy)
            flows.append(obs.flow)
            speeds.append(obs.speed)
            rate_rows.append(clamped)
            green_total += green
        plant.set_rates(clamped)
    plant_s += time.perf_counter() - mark

    # Integer counts: their sum is exact in any order.
    arrivals = float(draws.sum())
    dropped = burn_in_books[0] + recorded_books[0]
    exits = burn_in_books[1] + recorded_books[1]
    residual = arrivals - dropped - exits - (plant.total_vehicles() - stored_before)
    if abs(residual) > CONSERVATION_TOL_VEH:
        raise ConservationError(residual)
    if clamp_events:
        logger.warning("controller proposed %d out-of-range rates in the "
                       "recorded window; clamped",
                       clamp_events)
    record = EpisodeRecord(
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
        dropped_veh=recorded_books[0],
        clamp_events=clamp_events,
    )
    record.time_split_s = {
        "plant": plant_s, "controller": controller_s,
        "rest": time.perf_counter() - started - plant_s - controller_s}
    return record
