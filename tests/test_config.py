"""Config defaults, validation and the flat key = value file format."""
import dataclasses
import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavclust.config import (MAX_SHADOW_STD_DB, ConfigError, SimConfig,
                             dump_config, parse_config_text, validate)
from uavclust.model import left_sum, left_sum_bound
from uavclust.seeding import EXPONENTIAL_DRAW_BOUND, NORMAL_DRAW_BOUND


def test_default_scenario_is_valid():
    cfg = validate(SimConfig())
    assert cfg.num_vehicles == 12
    assert cfg.num_uavs == 3
    assert cfg.road_length == 1000.0
    assert cfg.cluster_interval == 70.0
    assert cfg.cam_interval == 10.0
    assert cfg.total_time == 700.0
    assert math.isclose(cfg.v_min, 40.0 / 3.6)
    assert math.isclose(cfg.v_max_vehicle, 60.0 / 3.6)
    assert math.isclose(cfg.noise_power, 3.9810717055349695e-15)
    assert math.isclose(cfg.vehicle_tx_power, 1e-10)


def test_weight_sum_violation_is_reported():
    cfg = dataclasses.replace(SimConfig(), weight_speed=0.7,
                              weight_neighbors=0.25, weight_path=0.25)
    with pytest.raises(ConfigError) as exc:
        validate(cfg)
    assert "weight_speed" in str(exc.value)


def test_negative_likelihood_weight_is_rejected():
    cfg = dataclasses.replace(SimConfig(), weight_reselect=1.5,
                              weight_snr=-0.5)
    with pytest.raises(ConfigError) as exc:
        validate(cfg)
    assert "likelihood weights" in str(exc.value)


def test_interval_divisibility_violation():
    for changes, name in [
            ({"slot_duration": 7.0}, "cam_interval"),
            # an interval over the slot that rounds to inf, which round()
            # cannot take
            ({"slot_duration": 1e-300, "total_time": 1e300}, "total_time"),
            ({"slot_duration": 1e-300, "cam_interval": 1e10}, "cam_interval"),
            # within 1e-9 of 0 slots, which no schedule can step by
            ({"cam_interval": 1e-12}, "cam_interval"),
            ({"beacon_interval": 1e-12}, "beacon_interval"),
            ({"cluster_interval": 1e-12}, "cluster_interval"),
            ({"total_time": 1e-12}, "total_time")]:
        with pytest.raises(ConfigError) as exc:
            validate(dataclasses.replace(SimConfig(), **changes))
        assert f"{name}: must be a multiple of slot_duration" in exc.value.errors


def test_a_run_is_at_most_2_53_slots():
    # past 2**53 a slot index k is no longer exact in t = k * dt
    validate(dataclasses.replace(SimConfig(), total_time=2.0 ** 53))
    for changes in ({"total_time": 2.0 ** 53 + 2.0},
                    {"slot_duration": 1e-300, "total_time": 70.0},
                    # a speed fold of min(avg_window, slots) = 2e18 samples
                    {"avg_window": 2 * 10 ** 18, "total_time": 2e18}):
        with pytest.raises(ConfigError) as exc:
            validate(dataclasses.replace(SimConfig(), **changes))
        assert exc.value.errors == [
            "total_time/slot_duration: must be at most 2**53 slots"]


def test_validation_builds_nothing_as_long_as_a_config_count():
    config = dataclasses.replace(SimConfig(), num_vehicles=10 ** 7)
    tracemalloc.start()
    try:
        validate(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@given(st.integers(0, 4096), st.data())
@settings(deadline=None, max_examples=500)
def test_left_sum_bound_bounds_the_fold(n, data):
    # x log-uniform from the least subnormal up to the float maximum over n
    top = math.log2(sys.float_info.max / max(n, 1))
    x = 2.0 ** data.draw(st.floats(-1074.0, top))
    bound = left_sum_bound(n, x)
    if math.isfinite(bound):
        total = left_sum([x] * n)
        assert math.isfinite(total) and total <= bound


def test_multiple_errors_collected():
    cfg = dataclasses.replace(SimConfig(), num_vehicles=0, scheme="nope")
    with pytest.raises(ConfigError) as exc:
        validate(cfg)
    message = str(exc.value)
    assert "num_vehicles" in message and "scheme" in message


def test_parse_speed_and_power_units():
    cfg = parse_config_text("v_min = 36 km/h\n"
                            "noise_power = -114 dBm\n"
                            "vehicle_tx_power = -70 dBm\n")
    assert math.isclose(cfg.v_min, 10.0)
    assert math.isclose(cfg.noise_power, 3.9810717055349695e-15)
    assert math.isclose(cfg.vehicle_tx_power, 1e-10)


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("no_such_field = 3\n")
    assert "no_such_field" in str(exc.value)


def test_parse_rejects_a_key_given_twice():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("num_vehicles = 10\nseed = 3\nnum_vehicles = 20\n")
    assert exc.value.errors == ["line 3: num_vehicles: already given on line 1"]


def test_parse_error_names_the_key_once_and_the_stripped_value():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("benchmarks_use_backup = maybe\nnum_vehicles = x\n")
    assert exc.value.errors == [
        "line 1: benchmarks_use_backup: expected a boolean, got 'maybe'",
        "line 2: num_vehicles: invalid literal for int() with base 10: 'x'"]


def test_parse_ignores_comments_and_blanks():
    cfg = parse_config_text("# comment\n\nnum_vehicles = 7  # trailing\n")
    assert cfg.num_vehicles == 7


def test_dump_load_round_trip():
    cfg = dataclasses.replace(SimConfig(), num_vehicles=17, seed=99,
                              scheme="vmasc")
    loaded = parse_config_text(dump_config(cfg))
    assert loaded == cfg


def test_digest_stable_and_sensitive():
    a = SimConfig()
    assert a.digest() == SimConfig().digest()
    b = dataclasses.replace(a, num_vehicles=13)
    assert a.digest() != b.digest()


def test_num_slots():
    assert SimConfig().num_slots == 700


FLOAT_FIELDS = [f.name for f in dataclasses.fields(SimConfig)
                if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS + ["lane_offsets"])
def test_non_finite_float_is_rejected(name, value):
    # unchecked, a NaN radius, range or shadowing spread runs to a NaN
    # SNR, and an infinite road length fails inside the mobility draws
    if name == "lane_offsets":
        value = (-2.0, value)
    with pytest.raises(ConfigError) as exc:
        validate(dataclasses.replace(SimConfig(), **{name: value}))
    assert exc.value.errors == [f"{name}: must be finite"]


@pytest.mark.parametrize("name, good, bad", [
    ("shadow_std_db", [0.0, 4.0, MAX_SHADOW_STD_DB],
     [-0.5, MAX_SHADOW_STD_DB + 0.5, 1e4]),
    ("v2v_loss_exp", [0.0, 3.0], [-0.5, -200.0])])
def test_link_parameters_are_bounded(name, good, bad):
    # outside the bounds the link SNR arithmetic overflows or reaches a
    # zero shadowing factor, depending on the seed
    for value in good:
        validate(dataclasses.replace(SimConfig(), **{name: value}))
    for value in bad:
        with pytest.raises(ConfigError) as exc:
            validate(dataclasses.replace(SimConfig(), **{name: value}))
        assert [e.split(":")[0] for e in exc.value.errors] == [name]


def test_shadowing_factor_is_finite_and_nonzero_at_the_bound():
    # numpy's standard normal is Marsaglia & Tsang's ziggurat: a draw off
    # the base strip's tail is below r in magnitude, and a tail draw is
    # r + x, accepted only where x^2 < 2y with y = -log1p(-u) for a
    # 53-bit uniform u <= 1 - 2^-53, so y <= 53 ln 2 and
    # |z| < r + sqrt(106 ln 2) = 12.2257... < 12.23
    r = 3.6541528853610088
    assert r + math.sqrt(2.0 * -math.log1p(-(1.0 - 2.0 ** -53))) < \
        NORMAL_DRAW_BOUND
    for sign in (1.0, -1.0):
        factor = 10.0 ** (sign * NORMAL_DRAW_BOUND * MAX_SHADOW_STD_DB / 10.0)
        assert math.isfinite(factor) and factor > 0.0


def test_exponential_draw_bound():
    # numpy's standard exponential is the same ziggurat: a draw off the
    # base strip's tail is below r, and a tail draw is r - log1p(-u) for
    # a 53-bit uniform u <= 1 - 2^-53, so x < r + 53 ln 2 = 44.434... < 44.5
    r = 7.69711747013104972
    assert r - math.log1p(-(1.0 - 2.0 ** -53)) < EXPONENTIAL_DRAW_BOUND
