"""Signal timing arithmetic and the local occupancy law."""

import numpy as np
import pytest

from rampnet.feedback import (ALINEA_GAINS, GREEN_DURATION_S, INITIAL_RATE_VPH,
                              NO_CONTROL_GAINS, PI_ALINEA_GAINS, RATE_MAX_VPH,
                              RATE_MIN_VPH, MeterBank, green_percentage,
                              rate_to_red_duration)


def test_red_duration_anchors():
    # Full rate leaves no red at all; the minimum rate waits 16 s per cycle.
    assert rate_to_red_duration(1800.0) == 0.0
    assert rate_to_red_duration(200.0) == 16.0
    assert rate_to_red_duration(1000.0) == (3600.0 - 2000.0) / 1000.0


def test_red_duration_rejects_infeasible_rates():
    with pytest.raises(ValueError):
        rate_to_red_duration(199.9)
    with pytest.raises(ValueError):
        rate_to_red_duration(1800.1)


def test_green_percentage_floor_and_ceiling():
    floor = green_percentage([[RATE_MIN_VPH]])[0]
    assert floor == 100.0 * GREEN_DURATION_S / (GREEN_DURATION_S + 16.0)
    assert abs(floor - 100.0 / 9.0) < 1e-12  # about 11.1%
    assert green_percentage([[RATE_MAX_VPH]])[0] == 100.0


def test_green_percentage_averages_over_steps():
    rates = [[200.0, 1800.0], [1800.0, 1800.0]]
    pct = green_percentage(rates)
    assert pct.shape == (2,)
    assert abs(pct[0] - (100.0 / 9.0 + 100.0) / 2.0) < 1e-12
    assert pct[1] == 100.0


class _Obs:
    def __init__(self, *occupancy):
        self.occupancy = np.asarray(occupancy, dtype=float)


def _bank(gains, n_ramps=1, rate=INITIAL_RATE_VPH):
    """A bank on the 15% target whose meters start at ``rate``."""
    bank = MeterBank(n_ramps, 15.0, *gains)
    bank.rates[:] = rate
    return bank


def test_alinea_hand_values():
    """One integrator step per update, 70 veh/h per occupancy point."""
    ctl = _bank(ALINEA_GAINS)
    assert ctl(_Obs(10.0)).tolist() == [1000.0 + 70.0 * 5.0]
    assert ctl(_Obs(20.0)).tolist() == [1350.0 - 70.0 * 5.0]


def test_alinea_clamps_at_the_rails():
    low = _bank(ALINEA_GAINS, rate=300.0)
    assert low(_Obs(40.0)).tolist() == [RATE_MIN_VPH]
    high = _bank(ALINEA_GAINS, rate=1700.0)
    assert high(_Obs(0.0)).tolist() == [RATE_MAX_VPH]
    # The integrator state is the clamped value, not the raw sum.
    assert high.rates.tolist() == [RATE_MAX_VPH]
    assert high(_Obs(16.0)).tolist() == [RATE_MAX_VPH - 70.0]


def test_pi_alinea_first_call_has_no_trend_term():
    ctl = _bank(PI_ALINEA_GAINS)
    alinea = _bank(ALINEA_GAINS)
    assert ctl(_Obs(11.0)).tolist() == alinea(_Obs(11.0)).tolist()


def test_pi_alinea_with_zero_kp_matches_alinea():
    """ALINEA is the PI-ALINEA law without its trend term."""
    rng = np.random.default_rng(3)
    pi = _bank((0.0, PI_ALINEA_GAINS[1]))
    plain = _bank(ALINEA_GAINS)
    for occ in rng.uniform(0.0, 40.0, size=200):
        assert pi(_Obs(occ)).tolist() == plain(_Obs(occ)).tolist()


def test_pi_alinea_trend_term_sign():
    # Rising occupancy should cut the rate harder than the integral alone.
    pi = _bank(PI_ALINEA_GAINS)
    pi(_Obs(15.0))  # settles the trend memory at the setpoint
    plain = _bank(ALINEA_GAINS, rate=pi.rates[0])
    assert pi(_Obs(18.0))[0] < plain(_Obs(18.0))[0]
    assert pi.rates[0] == 1000.0 - 40.0 * 3.0 - 70.0 * 3.0


def test_no_control_bank_ignores_occupancy():
    ctl = _bank(NO_CONTROL_GAINS, rate=RATE_MAX_VPH)
    assert ctl(_Obs(0.0)).tolist() == [RATE_MAX_VPH]
    assert ctl(_Obs(99.0)).tolist() == [RATE_MAX_VPH]
    assert _bank(NO_CONTROL_GAINS)(_Obs(30.0)).tolist() == [INITIAL_RATE_VPH]


def _scalar_law(kp, ki, rate, occupancies):
    """Reference: one ramp's law on Python floats, step by step."""
    prev, rates = None, []
    for occ in occupancies:
        trend = 0.0 if prev is None else occ - prev
        rate = min(max(rate - kp * trend + ki * (15.0 - occ), RATE_MIN_VPH),
                   RATE_MAX_VPH)
        prev = occ
        rates.append(rate)
    return rates


def test_meter_bank_matches_the_scalar_law_bit_for_bit():
    rng = np.random.default_rng(4)
    occ = rng.uniform(0.0, 60.0, size=(300, 3))
    for gains, start in ((ALINEA_GAINS, INITIAL_RATE_VPH),
                         (PI_ALINEA_GAINS, INITIAL_RATE_VPH),
                         (NO_CONTROL_GAINS, RATE_MAX_VPH)):
        bank = _bank(gains, n_ramps=3, rate=start)
        got = np.array([bank(_Obs(*row)) for row in occ])
        for j in range(3):
            assert got[:, j].tolist() == _scalar_law(*gains, start, occ[:, j])


def test_meter_bank_routes_sensor_j_to_controller_j():
    bank = _bank(ALINEA_GAINS, n_ramps=2)
    assert bank(_Obs(10.0, 20.0)).tolist() == [1350.0, 650.0]


def test_meter_bank_rejects_sensor_count_mismatch():
    bank = _bank(ALINEA_GAINS, n_ramps=3)
    with pytest.raises(ValueError, match="2 sensors for 3 meters"):
        bank(_Obs(15.0, 15.0))
