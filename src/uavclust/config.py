"""Simulation configuration: defaults, validation and the flat config file.

The config file is plain ``key = value`` text.  Keys mirror SimConfig
field names; unknown keys are rejected.  Speed values may carry a
``km/h`` (or ``kmh``) suffix and power values a ``dBm`` suffix; both are
converted to SI once at load time.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .channel import dbm_to_watts
from .model import KMH_TO_MS

SCHEMES = ("proposed", "vmasc", "random")

_SPEED_FIELDS = {"v_min", "v_max_vehicle"}
_POWER_FIELDS = {"noise_power", "vehicle_tx_power", "uav_tx_power"}


class ConfigError(ValueError):
    """Raised on any configuration invariant violation.

    Carries one message per offending field.
    """

    def __init__(self, errors: List[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SimConfig:
    """Every physical and algorithmic parameter of one run.

    All values are SI (meters, seconds, m/s, watts).  Defaults reproduce
    the 3-UAV / 12-vehicle suburban scenario.
    """

    num_vehicles: int = 12
    num_uavs: int = 3
    road_length: float = 1000.0
    lane_offsets: Tuple[float, ...] = (-2.0, 2.0)
    v_min: float = 40.0 * KMH_TO_MS
    v_max_vehicle: float = 60.0 * KMH_TO_MS
    uav_altitude: float = 100.0
    uav_coverage_radius: float = 480.0
    slot_duration: float = 1.0
    total_time: float = 700.0
    cam_interval: float = 10.0
    beacon_interval: float = 10.0
    cluster_interval: float = 70.0
    avg_window: int = 10
    ref_gain: float = 1e-5
    noise_power: float = dbm_to_watts(-114.0)
    vehicle_tx_power: float = dbm_to_watts(-70.0)
    uav_tx_power: float = 1.0
    v2v_loss_const: float = 1e-5
    v2v_loss_exp: float = 3.0
    shadow_std_db: float = 4.0
    neighbor_range: float = 150.0
    eps_distance: float = 100.0
    eps_neighbors: int = 3
    weight_speed: float = 0.5
    weight_neighbors: float = 0.25
    weight_path: float = 0.25
    weight_reselect: float = 0.6
    weight_snr: float = 0.4
    poisson_rate: float = 0.5
    gauss_mean: float = 1.0
    gauss_var: float = 0.1
    scheme: str = "proposed"
    seed: int = 1
    snr_fading: str = "large_scale"  # or "instantaneous"
    residual_mode: str = "formula"  # or "geometric"
    backup_raw_scores: bool = False
    benchmarks_use_backup: bool = False

    @property
    def num_slots(self) -> int:
        return int(round(self.total_time / self.slot_duration))

    def digest(self) -> str:
        """Stable hash of all fields, used to detect mixed-config traces."""
        items = sorted(dataclasses.asdict(self).items())
        blob = "\n".join(f"{k}={v!r}" for k, v in items)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _is_multiple(interval: float, dt: float) -> bool:
    ratio = interval / dt
    return abs(ratio - round(ratio)) < 1e-9


def validate(config: SimConfig) -> SimConfig:
    """Check every invariant; return the config or raise ConfigError."""
    c = config
    errors = [f"{name}: must be finite" for name, value in vars(c).items()
              if (isinstance(value, float) and not math.isfinite(value))
              or (isinstance(value, tuple) and not all(map(math.isfinite, value)))]
    # reported alone: the checks below would pass a NaN or fail on it
    if errors:
        raise ConfigError(errors)

    for name in ("num_vehicles", "num_uavs"):
        if getattr(c, name) < 1:
            errors.append(f"{name}: must be >= 1")
    for name in ("road_length", "uav_altitude", "uav_coverage_radius",
                 "slot_duration", "total_time", "cam_interval",
                 "beacon_interval", "cluster_interval", "ref_gain",
                 "noise_power",
                 "vehicle_tx_power", "uav_tx_power", "v2v_loss_const",
                 "neighbor_range", "poisson_rate", "gauss_var"):
        if getattr(c, name) <= 0.0:
            errors.append(f"{name}: must be positive")
    if c.avg_window < 1:
        errors.append("avg_window: must be >= 1")
    if c.v_min <= 0.0 or c.v_max_vehicle < c.v_min:
        errors.append("v_min/v_max_vehicle: need 0 < v_min <= v_max_vehicle")
    if len(c.lane_offsets) != 2:
        errors.append("lane_offsets: exactly two lanes (one per direction)")
    if c.shadow_std_db < 0.0:
        errors.append("shadow_std_db: must be >= 0")
    if c.eps_neighbors < 0:
        errors.append("eps_neighbors: must be >= 0")

    ahp = c.weight_speed + c.weight_neighbors + c.weight_path
    if not math.isclose(ahp, 1.0, rel_tol=0, abs_tol=1e-9):
        errors.append(f"weight_speed+weight_neighbors+weight_path: must sum to 1, got {ahp}")
    if any(w < 0 for w in (c.weight_speed, c.weight_neighbors, c.weight_path)):
        errors.append("AHP weights: must be nonnegative")
    wl = c.weight_reselect + c.weight_snr
    if not math.isclose(wl, 1.0, rel_tol=0, abs_tol=1e-9):
        errors.append(f"weight_reselect+weight_snr: must sum to 1, got {wl}")
    if c.weight_reselect < 0 or c.weight_snr < 0:
        errors.append("likelihood weights: must be nonnegative")

    for name in ("cam_interval", "beacon_interval", "cluster_interval",
                 "total_time"):
        if c.slot_duration > 0 and not _is_multiple(getattr(c, name), c.slot_duration):
            errors.append(f"{name}: must be a multiple of slot_duration")

    if c.scheme not in SCHEMES:
        errors.append(f"scheme: must be one of {SCHEMES}, got {c.scheme!r}")
    if c.snr_fading not in ("instantaneous", "large_scale"):
        errors.append(f"snr_fading: must be instantaneous or large_scale")
    if c.residual_mode not in ("formula", "geometric"):
        errors.append("residual_mode: must be formula or geometric")

    if errors:
        raise ConfigError(errors)
    return c


def _parse_value(name: str, raw: str):
    """Parse one config value; handles unit suffixes and field types."""
    text = raw.strip()
    lowered = text.lower().replace(" ", "")
    if name in _SPEED_FIELDS and (lowered.endswith("km/h") or lowered.endswith("kmh")):
        num = lowered[:-4] if lowered.endswith("km/h") else lowered[:-3]
        return float(num) * KMH_TO_MS
    if name in _POWER_FIELDS and lowered.endswith("dbm"):
        return dbm_to_watts(float(lowered[:-3]))
    if name == "lane_offsets":
        return tuple(float(part) for part in text.split(","))
    field_type = {f.name: f.type for f in dataclasses.fields(SimConfig)}[name]
    if field_type == "bool":
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if field_type == "int":
        return int(text)
    if field_type == "str":
        return text
    return float(text)


def parse_config_text(text: str) -> SimConfig:
    """Build a SimConfig from flat key = value text; a key given on
    more than one line is an error, as order would decide its value."""
    known = {f.name for f in dataclasses.fields(SimConfig)}
    values: Dict[str, object] = {}
    lines: Dict[str, int] = {}  # the line each key was given on
    errors: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected key = value, got {line.strip()!r}")
            continue
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in lines:
            errors.append(f"line {lineno}: {key}: already given on line "
                          f"{lines[key]}")
            continue
        lines[key] = lineno
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            errors.append(f"line {lineno}: {key}: {exc}")
    if errors:
        raise ConfigError(errors)
    return SimConfig(**values)


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def dump_config(config: SimConfig) -> str:
    """Render a config as loadable key = value text."""
    lines = []
    for f in dataclasses.fields(SimConfig):
        value = getattr(config, f.name)
        if f.name == "lane_offsets":
            value = ",".join(repr(v) for v in value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
