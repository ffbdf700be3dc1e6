"""Propagation math: A2G free-space links and V2V fading links.

Every function is pure (a2g_snr, v2v_large_scale and v2v_snr also take
arrays of links); fading/shadowing draws take an explicit numpy Generator.
"""
from __future__ import annotations

import math

import numpy as np

# Distance floor for V2V links: the point-mass mobility model lets
# vehicles overlap, which would blow up the d^-eta path loss.
MIN_V2V_DISTANCE = 10.0


def dbm_to_watts(p_dbm: float) -> float:
    """Convert a dBm level to watts."""
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def a2g_distance(uav_x: float, uav_y: float, altitude: float,
                 veh_x: float, veh_y: float) -> float:
    """Euclidean UAV-to-vehicle distance; never below the hover altitude."""
    return math.sqrt((uav_x - veh_x) ** 2 + (uav_y - veh_y) ** 2 + altitude ** 2)


def a2g_gain(d: float, g0: float) -> float:
    """Free-space power gain g0 / d^2 relative to the 1 m reference."""
    if d <= 0.0:
        raise ValueError(f"a2g_gain: distance must be positive, got {d}")
    return g0 / (d * d)


def a2g_snr(p_uav, gain, noise: float):
    """A2G SNR of UAV-vehicle links; assign and validate pass g0 / d^2."""
    if noise <= 0.0:
        raise ValueError(f"a2g_snr: noise power must be positive, got {noise}")
    return p_uav * gain / noise


def v2v_large_scale(d, shadow_mu, loss_const: float, loss_exp: float):
    """Large-scale V2V fading: shadowing times path loss mu * L * d^-eta,
    of one link (floats) or of many (a sequence d and an array mu); d^-eta
    is libm pow per element, as ** is (np.power differs in last bits)."""
    path = math.pow(d, -loss_exp) if np.isscalar(d) else np.fromiter(
        map(math.pow, d, [-loss_exp] * len(d)), dtype=float, count=len(d))
    return shadow_mu * loss_const * path


def v2v_snr(p_vehicle: float, fading, gain, noise: float):
    """V2V SNR of a link: fast fading times large-scale gain, then p / noise."""
    return p_vehicle * (fading * gain) / noise


def sample_fast_fading(rng: np.random.Generator) -> float:
    """Unit-mean exponential fast-fading draw."""
    return float(rng.exponential(1.0))


def sample_shadowing(rng: np.random.Generator, std_db: float) -> float:
    """Log-normal shadowing factor with median 1 and the given dB spread."""
    return float(10.0 ** (rng.normal(0.0, std_db) / 10.0))
