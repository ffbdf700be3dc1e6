"""Config defaults, validation and the flat key = value file format."""
import dataclasses
import math

import pytest

from uavclust.config import (ConfigError, SimConfig, dump_config,
                             parse_config_text, validate)


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
    cfg = dataclasses.replace(SimConfig(), slot_duration=7.0)
    with pytest.raises(ConfigError) as exc:
        validate(cfg)
    assert "cam_interval" in str(exc.value)


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
