"""Local feedback ramp metering and signal timing arithmetic.

A ramp meter publishes a rate r in vehicles per hour. The signal realizes it
as a fixed 2 s green (one vehicle released per green) followed by a red of
``(3600 - 2 r) / r`` seconds, so the cycle count per hour equals the rate.
The local occupancy law lives here too: one :class:`MeterBank` meters every
ramp from its own downstream detector, and its two gains make it ALINEA,
PI-ALINEA or a meter that never moves.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RATE_MIN_VPH",
    "RATE_MAX_VPH",
    "GREEN_DURATION_S",
    "INITIAL_RATE_VPH",
    "TARGET_OCCUPANCY_PCT",
    "ALINEA_GAINS",
    "PI_ALINEA_GAINS",
    "NO_CONTROL_GAINS",
    "rate_to_red_duration",
    "green_percentage",
    "MeterBank",
]

RATE_MIN_VPH = 200.0
RATE_MAX_VPH = 1800.0
GREEN_DURATION_S = 2.0
#: Every episode's meters, the regulators' integrators and the planner's
#: first previous rates start here.
INITIAL_RATE_VPH = 1000.0
#: The occupancy (%) every controller steers to and every result is scored
#: against, unless a caller names another.
TARGET_OCCUPANCY_PCT = 15.0

# (kp, ki) of the local law: veh/h per occupancy point of trend and per
# occupancy point of error below the target.
ALINEA_GAINS = (0.0, 70.0)
PI_ALINEA_GAINS = (40.0, 70.0)
NO_CONTROL_GAINS = (0.0, 0.0)


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


class MeterBank:
    """The local occupancy law on every ramp at once.

    Meter j reads sensor j, the detector in ramp j's merge cell. Each call
    applies ``r <- clip(r - kp (o - o_prev) + ki (target - o))`` to the rate
    box ``RATE_MIN_VPH`` to ``RATE_MAX_VPH``, with ``o_prev = o`` on the first
    call. ``kp = 0`` is ALINEA (Papageorgiou, Hadj-Salem & Blosseville 1991),
    ``kp > 0`` PI-ALINEA (Wang et al. 2014), and zero gains hold ``rates``
    where they start. The rate is the integrator state, so it is stored
    clipped. Instances are callables compatible with
    :func:`rampnet.plant.run_episode`.
    """

    def __init__(self, n_ramps: int, target_occupancy_pct: float,
                 kp: float, ki: float):
        self.target_occupancy_pct = float(target_occupancy_pct)
        self.kp, self.ki = float(kp), float(ki)
        self.rates = np.full(n_ramps, INITIAL_RATE_VPH)
        self.prev_occupancy: np.ndarray | None = None

    def __call__(self, observation) -> np.ndarray:
        occ = np.asarray(observation.occupancy, dtype=float)
        if occ.shape != self.rates.shape:
            raise ValueError(
                f"observation carries {len(occ)} sensors for "
                f"{len(self.rates)} meters")
        prev = occ if self.prev_occupancy is None else self.prev_occupancy
        self.rates = np.clip(
            self.rates - self.kp * (occ - prev)
            + self.ki * (self.target_occupancy_pct - occ),
            RATE_MIN_VPH, RATE_MAX_VPH)
        self.prev_occupancy = occ
        return self.rates
