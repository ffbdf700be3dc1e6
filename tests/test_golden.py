"""Golden trace lock: trace-body sha256s that every refactor must keep.

A body is every line after the ``#`` header, hashed with its length as
an 8-byte big-endian prefix (the benchmark's pin format).  The header is
left out because it carries the config digest, which changes when a
config field is added or removed while the events do not.  Re-pin only
for a stated behaviour change.
"""
import dataclasses
import hashlib

import pytest

from uavclust import engine, trace
from uavclust.config import SimConfig, validate
from uavclust.seeding import run_seeds

# variant -> (config overrides, {scheme: body sha256}) at seed 1, run 0
# of the default scenario; copied from the seed-1 golden-grid pins.
GRID = {
    "geometric": ({"residual_mode": "geometric"}, {
        "proposed": "d00de02bb596da259d34133d932094e92566e031cbe05dcb7233b34523d808dc",
        "vmasc": "f1555e49069addabd6dd4613f423c958613a4f51e45335459fc9031ec2b37cad",
        "random": "7f73e38c18e25a47c23287638152a014e63037d43a08010f330890c630175a33",
    }),
    "instantaneous": ({"snr_fading": "instantaneous"}, {
        "proposed": "b0510584dd6e329bc5ff61faa9c62d3565108ac5913d5037868d73607bbca18c",
        "vmasc": "875891734c6f819a619a6191e80768e69ca1a310b2a110ec05a2500e3e257dda",
        "random": "3727a96e8be28805a0cffe4106fe277eda36be1964c1de2be0399379665d8198",
    }),
    "benchmarks_use_backup": ({"benchmarks_use_backup": True}, {
        "proposed": "d8126d6020f82e74f215dabc7fa81c0de31c62f7f616d516577fac74446839c3",
        "vmasc": "cb46105b77aaaf73b4e1264dd4ce79c91a8bc5c5ef001f9850f11608ea52319d",
        "random": "8e9d2802fa4a01a400d56ff5a51b3e61a1762bf88b3fb570889f73b7ef1dfbf8",
    }),
    "backup_raw_scores": ({"backup_raw_scores": True}, {
        "proposed": "25c73635fab2d2e94d0984d5484354cbf9fa649dd65c3f5b0a77f6451c20d5d8",
        "vmasc": "f1555e49069addabd6dd4613f423c958613a4f51e45335459fc9031ec2b37cad",
        "random": "7f73e38c18e25a47c23287638152a014e63037d43a08010f330890c630175a33",
    }),
    # dense road: every vehicle has many neighbors and fast fading is drawn
    "dense": ({"num_vehicles": 100, "snr_fading": "instantaneous",
               "total_time": 140.0}, {
        "proposed": "967d3448481771460724bcca50a1878aeb85f51be05d41d49b409d40a300a40b",
        "vmasc": "859174be53fdc278a738298a70b0f1e5e4530f9ba507b81e00ec53c53ba98523",
        "random": "302d582f9ef2a700a8141bcd24603f7df3ccae53964d0d9e1c789f37005336b4",
    }),
}

CELLS = [(variant, scheme) for variant, (_, pins) in GRID.items()
         for scheme in pins]


def body_sha256(path):
    with open(path, "rb") as fh:
        data = fh.read()
    body = data[data.index(b"\n") + 1:]
    return hashlib.sha256(len(body).to_bytes(8, "big") + body).hexdigest()


@pytest.mark.parametrize("variant,scheme", CELLS)
def test_trace_body_matches_pin(variant, scheme, tmp_path):
    overrides, pins = GRID[variant]
    cfg = validate(dataclasses.replace(SimConfig(), seed=1, scheme=scheme,
                                       **overrides))
    events = engine.run(cfg, seeds=run_seeds(1, 0, scheme))
    path = str(tmp_path / "cell.trace")
    trace.write_trace(path, {"config": cfg.digest(), "scheme": scheme}, events)
    assert body_sha256(path) == pins[scheme]
