"""Channel math oracles: frozen hand-computed values and invariants."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavclust import channel

from oracle import v2v_gain, v2v_snr

REL = 1e-9


def test_dbm_to_watts_reference_points():
    assert math.isclose(channel.dbm_to_watts(0.0), 1e-3, rel_tol=REL)
    assert math.isclose(channel.dbm_to_watts(-114.0),
                        3.9810717055349695e-15, rel_tol=REL)
    assert math.isclose(channel.dbm_to_watts(-70.0), 1e-10, rel_tol=REL)


def test_a2g_distance_overhead():
    assert math.isclose(channel.a2g_distance(500, 0, 100, 500, 0),
                        100.0, rel_tol=REL)


def test_a2g_distance_hand_value():
    assert math.isclose(channel.a2g_distance(0, 0, 100, 300, 400),
                        509.9019513592785, rel_tol=REL)


def test_a2g_gain_reference_and_inverse_square():
    assert math.isclose(channel.a2g_gain(1.0, 1e-5), 1e-5, rel_tol=REL)
    assert math.isclose(channel.a2g_gain(100.0, 1e-5), 1e-9, rel_tol=REL)
    assert math.isclose(channel.a2g_gain(200.0, 1e-5),
                        channel.a2g_gain(100.0, 1e-5) / 4.0, rel_tol=REL)


def test_a2g_gain_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        channel.a2g_gain(0.0, 1e-5)
    with pytest.raises(ValueError):
        channel.a2g_gain(-1.0, 1e-5)


def test_a2g_snr_hand_value():
    noise = channel.dbm_to_watts(-114.0)
    assert math.isclose(channel.a2g_snr(1.0, 1e-9, noise),
                        251188.6431509582, rel_tol=REL)


def test_a2g_snr_linearity_in_gain():
    noise = 1e-14
    base = channel.a2g_snr(1.0, 1e-9, noise)
    assert math.isclose(channel.a2g_snr(1.0, 7e-9, noise),
                        7.0 * base, rel_tol=REL)


def test_a2g_snr_rejects_nonpositive_noise():
    with pytest.raises(ValueError):
        channel.a2g_snr(1.0, 1e-9, 0.0)


def test_v2v_large_scale_reference_points():
    assert math.isclose(channel.v2v_large_scale(1.0, 1.0, 1e-5, 3.0),
                        1e-5, rel_tol=REL)
    assert math.isclose(channel.v2v_large_scale(10.0, 1.0, 1e-5, 3.0),
                        1e-8, rel_tol=REL)
    # the engine's array form gives each link the scalar form's bits
    rng = np.random.default_rng(5)
    d = np.maximum(channel.MIN_V2V_DISTANCE, rng.uniform(0.0, 1000.0, 500))
    mu = 10.0 ** (rng.normal(0.0, 4.0, 500) / 10.0)
    for eta in (0.0, 2.0, 3.0, 3.7):
        gains = channel.v2v_large_scale(d.tolist(), mu, 1e-5, eta)
        assert gains.tolist() == [channel.v2v_large_scale(a, b, 1e-5, eta)
                                  for a, b in zip(d.tolist(), mu.tolist())]


def test_v2v_large_scale_linearity_in_shadowing():
    base = channel.v2v_large_scale(50.0, 1.0, 1e-5, 3.0)
    assert math.isclose(channel.v2v_large_scale(50.0, 2.5, 1e-5, 3.0),
                        2.5 * base, rel_tol=REL)


def test_v2v_gain_unit_and_zero_fading():
    assert v2v_gain(1e-8, 1.0) == 1e-8
    assert v2v_gain(1e-8, 0.0) == 0.0
    with pytest.raises(ValueError):
        v2v_gain(1e-8, -0.1)


def test_v2v_gain_monte_carlo_mean():
    rng = np.random.default_rng(123)
    large = 1e-8
    draws = rng.exponential(1.0, size=1_000_000)
    mean = float(np.mean(large * draws))
    assert abs(mean - large) / large < 0.01


def test_v2v_snr_hand_value():
    noise = channel.dbm_to_watts(-114.0)
    expected = 1e-10 * 3.981e-5 / (10.0 ** (-114.0 / 10.0) * 1e-3)
    assert math.isclose(v2v_snr(1e-10, 3.981e-5, noise),
                        expected, rel_tol=REL)
    assert math.isclose(expected, 1.0, rel_tol=1e-4)


def test_v2v_snr_zero_gain_and_linearity():
    assert v2v_snr(1e-10, 0.0, 1e-15) == 0.0
    base = v2v_snr(1e-10, 1e-8, 1e-15)
    assert math.isclose(v2v_snr(3e-10, 1e-8, 1e-15),
                        3.0 * base, rel_tol=REL)
    with pytest.raises(ValueError):
        v2v_snr(1e-10, 1e-8, 0.0)


def test_sample_fast_fading_nonnegative_unit_mean():
    rng = np.random.default_rng(7)
    draws = [channel.sample_fast_fading(rng) for _ in range(20000)]
    assert min(draws) >= 0.0
    assert abs(sum(draws) / len(draws) - 1.0) < 0.05


def test_sample_shadowing_positive_median_one():
    rng = np.random.default_rng(7)
    draws = sorted(channel.sample_shadowing(rng, 4.0) for _ in range(20001))
    assert draws[0] > 0.0
    assert 0.9 < draws[len(draws) // 2] < 1.1


@given(st.floats(min_value=1.0, max_value=1e4),
       st.floats(min_value=1.0, max_value=1e4))
@settings(deadline=None)
def test_a2g_gain_monotone_decreasing(d1, d2):
    lo, hi = sorted((d1, d2))
    assert channel.a2g_gain(lo, 1e-5) >= channel.a2g_gain(hi, 1e-5)


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1.0, max_value=1e3),
       st.floats(min_value=2.0, max_value=4.0))
@settings(deadline=None)
def test_v2v_large_scale_positive(mu, d, eta):
    assert channel.v2v_large_scale(d, mu, 1e-5, eta) > 0.0


@given(st.floats(min_value=1.0, max_value=1e3))
@settings(deadline=None)
def test_a2g_distance_at_least_altitude(x):
    assert channel.a2g_distance(0.0, 0.0, 100.0, x, 2.0) >= 100.0
