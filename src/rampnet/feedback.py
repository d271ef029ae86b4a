"""Local feedback ramp metering and signal timing arithmetic.

A ramp meter publishes a rate r in vehicles per hour. The signal realizes it
as a fixed 2 s green (one vehicle released per green) followed by a red of
``(3600 - 2 r) / r`` seconds, so the cycle count per hour equals the rate.
The classic occupancy regulators live here as small stateful controllers;
each instance serves one ramp and reads one downstream detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RATE_MIN_VPH",
    "RATE_MAX_VPH",
    "GREEN_DURATION_S",
    "clamp_rate",
    "rate_to_red_duration",
    "green_percentage",
    "AlineaController",
    "PiAlineaController",
    "FixedRateController",
    "MeterBank",
]

RATE_MIN_VPH = 200.0
RATE_MAX_VPH = 1800.0
GREEN_DURATION_S = 2.0


def clamp_rate(rate: float) -> float:
    """Truncate a rate to the feasible meter range [200, 1800] veh/h."""
    return min(max(rate, RATE_MIN_VPH), RATE_MAX_VPH)


def rate_to_red_duration(rate: float) -> float:
    """Red phase duration (s) that realizes ``rate`` with one car per green.

    Raises ValueError outside the feasible range; at 1800 veh/h the red
    vanishes entirely and the signal cycles green back to back.
    """
    if not RATE_MIN_VPH <= rate <= RATE_MAX_VPH:
        raise ValueError(
            f"rate {rate} veh/h outside feasible meter range "
            f"[{RATE_MIN_VPH}, {RATE_MAX_VPH}]")
    return (3600.0 - rate * GREEN_DURATION_S) / rate


def green_percentage(rates) -> np.ndarray:
    """Share of time (%) each meter shows green for a series of rates.

    ``rates`` has one row per control step and one column per ramp. Every
    control step weighs the same, so the result is the mean over steps of
    green / (green + red) for that step's rate. The floor is 2 s green out of
    an 18 s cycle at 200 veh/h, about 11.1%.
    """
    rates = np.atleast_2d(np.asarray(rates, dtype=float))
    red = (3600.0 - rates * GREEN_DURATION_S) / rates
    share = 100.0 * GREEN_DURATION_S / (GREEN_DURATION_S + red)
    return share.mean(axis=0)


@dataclass
class AlineaController:
    """Integral occupancy regulator for one ramp.

    Each update moves the rate by ``gain`` veh/h per percentage point of
    occupancy error below the setpoint, then truncates to the feasible range.
    """

    gain: float = 70.0  # veh/h per occupancy %
    target_occupancy_pct: float = 15.0
    rate: float = 1000.0  # last applied rate, the integrator state

    def update(self, occupancy_pct: float) -> float:
        self.rate = clamp_rate(
            self.rate + self.gain * (self.target_occupancy_pct - occupancy_pct))
        return self.rate


@dataclass
class PiAlineaController:
    """Proportional-integral variant of the occupancy regulator.

    Adds a proportional correction on the occupancy trend:
    ``r(k) = r(k-1) - kp (o(k) - o(k-1)) + ki (target - o(k))``, truncated.
    With ``kp = 0`` the update reduces exactly to the integral regulator.
    The first call treats the previous occupancy as equal to the current one.
    """

    kp: float = 40.0  # veh/h per occupancy %/step of trend
    ki: float = 70.0  # veh/h per occupancy % of error
    target_occupancy_pct: float = 15.0
    rate: float = 1000.0
    _prev_occupancy: float | None = field(default=None, repr=False)

    def update(self, occupancy_pct: float) -> float:
        prev = occupancy_pct if self._prev_occupancy is None else self._prev_occupancy
        self.rate = clamp_rate(
            self.rate
            - self.kp * (occupancy_pct - prev)
            + self.ki * (self.target_occupancy_pct - occupancy_pct))
        self._prev_occupancy = occupancy_pct
        return self.rate


@dataclass
class FixedRateController:
    """Pins one meter at a constant rate (the uncontrolled case uses 1800)."""

    rate: float = RATE_MAX_VPH

    def update(self, occupancy_pct: float) -> float:
        return clamp_rate(self.rate)


class MeterBank:
    """One local controller per ramp, driven by that ramp's detector.

    Controller j reads sensor j, the detector in ramp j's merge cell.
    Instances are callables compatible with :func:`rampnet.plant.run_episode`.
    """

    def __init__(self, controllers):
        self.controllers = list(controllers)

    @classmethod
    def uniform(cls, factory, n_ramps: int) -> "MeterBank":
        return cls(factory() for _ in range(n_ramps))

    def __call__(self, observation) -> np.ndarray:
        occ = observation.occupancy
        if len(occ) != len(self.controllers):
            raise ValueError(
                f"observation carries {len(occ)} sensors for "
                f"{len(self.controllers)} controllers")
        return np.array([c.update(o) for c, o in zip(self.controllers, occ)])
