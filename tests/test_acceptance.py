"""End-to-end acceptance suite.

Eight criteria, one printed PASS/FAIL line each:

1. formula oracles at relative error <= 1e-9
2. algorithm brute-force equivalence on >= 1000 random instances
3. robustness-likelihood ordering over 200 paired runs
4. proposed scheme has significantly fewer CH re-selections
5. proposed scheme's CH-member SNR is at least the benchmarks'
6. cumulative re-selection monotonicity and per-run minimum share
7. re-selections vs vehicle count: rise then flatten
8. byte-identical traces across invocations and worker counts

Criteria 3-6 share one 200-run paired experiment at the default
configuration; criterion 7 runs its own vehicle sweep.
"""
import dataclasses
import math
import os
import time

import numpy as np
import pytest

from uavclust import channel, engine, metrics
from uavclust.backup import build_backup_list
from uavclust.chselect import select_ch, select_ch_vmasc
from uavclust.assignment import assign
from uavclust.cli import main as cli_main
from uavclust.config import SimConfig
from uavclust.mobility import residual_path
from uavclust.model import AirPoint, UavNode
from uavclust.seeding import run_seeds

from conftest import ACCEPTANCE_LINES, fleet_of, make_vehicle

SCHEMES = ("proposed", "vmasc", "random")
RUNS = 200


def _report(criterion, ok, detail):
    line = f"[acceptance {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _paired(a, b):
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    mean = float(d.mean())
    half = 1.96 * float(d.std(ddof=1)) / math.sqrt(len(d))
    return mean, half


@pytest.fixture(scope="module")
def experiment():
    """200 paired runs of all three schemes at the default config."""
    base = SimConfig()
    start = time.perf_counter()
    per = {s: [] for s in SCHEMES}
    for k in range(RUNS):
        for s in SCHEMES:
            events = engine.run(dataclasses.replace(base, scheme=s),
                                seeds=run_seeds(base.seed, k, s))
            per[s].append(metrics.run_metrics(events))
    elapsed = time.perf_counter() - start
    agg = {s: metrics.aggregate(per[s]) for s in SCHEMES}
    scores = metrics.compare_schemes(agg)
    return per, scores, elapsed


def test_criterion_1_formula_oracles():
    rel = 1e-9
    start = time.perf_counter()
    checks = [
        (channel.a2g_distance(0, 0, 100, 300, 400), 509.9019513592785),
        (channel.a2g_gain(100.0, 1e-5), 1e-9),
        (channel.a2g_snr(1.0, 1e-9, channel.dbm_to_watts(-114.0)),
         251188.6431509582),
        (channel.v2v_large_scale(10.0, 1.0, 1e-5, 3.0), 1e-8),
        (sum([10.0, 12.0, 14.0][-3:]) / 3, 12.0),
        (2.0 * 500.0 - 10.0 * 70.0, 300.0),
        (metrics.lambda_r(1.0, 0.5), 1.1931471805599454),
        (metrics.lambda_s(0.5, 1.0, 0.1), 1.01764598670765),
        (metrics.robustness_likelihood(0.0, 1.0), 0.8129721753489352),
        (metrics.robustness_likelihood(1.0, 0.5), 0.3253197601301151),
    ]
    from uavclust.mobility import avg_speed, residual_path
    checks.append((avg_speed([10.0, 12.0, 14.0, 16.0], 3), 14.0))
    checks.append((residual_path(500.0, 15.0, 70.0), -50.0))
    worst = max(abs(got - want) / max(abs(want), 1e-300)
                for got, want in checks)
    elapsed = time.perf_counter() - start
    ok = worst <= rel and elapsed < 1.0
    _report(1, ok, f"{len(checks)} oracles, worst rel err {worst:.2e}, "
                   f"{elapsed * 1000:.0f} ms")


def test_criterion_2_brute_force_equivalence():
    rng = np.random.default_rng(2024)
    noise = channel.dbm_to_watts(-114.0)
    start = time.perf_counter()
    instances = 0

    for _ in range(300):  # assignment argmax
        uavs = [UavNode(j, AirPoint(float(rng.uniform(0, 1000)), 0.0, 100.0),
                        500.0, float(rng.uniform(0.5, 2.0)))
                for j in range(int(rng.integers(1, 6)))]
        vehicles = [make_vehicle(i, float(rng.uniform(0, 1000)),
                                 y=float(rng.choice([-2.0, 2.0])))
                    for i in range(int(rng.integers(1, 51)))]
        column = assign(fleet_of(vehicles), uavs, 1e-5, noise)
        for v in vehicles:
            snrs = {u.id: u.tx_power * 1e-5 / (
                channel.a2g_distance(u.pos.x, u.pos.y, u.pos.h,
                                     v.x, v.y) ** 2) / noise
                for u in uavs}
            best = max(snrs.values())
            assert column[v.id] == min(
                uid for uid, s in snrs.items() if s == best)
        instances += 1

    for _ in range(300):  # threshold CH selection, all-pass case
        n = int(rng.integers(1, 21))
        speeds = np.array([float(rng.uniform(5, 25))
                           for i in range(n)])
        v_cl = float(rng.uniform(5, 25))
        chosen, degraded = select_ch(np.arange(n), np.abs(speeds - v_cl),
                                     np.zeros(n, dtype=int),
                                     residual_path(500.0, speeds, 10.0),
                                     eps_distance=-1e12, eps_neighbors=0)
        expect = min(range(n), key=lambda i: (abs(speeds[i] - v_cl), i))
        assert chosen == expect and not degraded
        instances += 1

    for _ in range(300):  # lowest-average-relative-speed benchmark
        n = int(rng.integers(1, 21))
        # integer-valued speeds keep both mean computations exact, so
        # ties are genuine ties and break identically by lowest id
        speeds = [float(s) for s in rng.integers(50, 250, size=n)]
        if n == 1:
            expect = 0
        else:
            means = [(sum(abs(a - b) for j, b in enumerate(speeds) if j != i)
                      / (n - 1), i) for i, a in enumerate(speeds)]
            expect = min(means)[1]
        assert select_ch_vmasc(np.arange(n), np.array(speeds)) == expect
        instances += 1

    for _ in range(300):  # backup list, single-criterion reductions
        n = int(rng.integers(1, 21))
        cands = [(i, float(rng.uniform(0, 10)),
                  int(rng.integers(0, 8)),
                  float(rng.uniform(-200, 900)))
                 for i in range(n)]
        columns = [np.array(col) for col in zip(*cands)]
        for weights, key in (((1.0, 0.0, 0.0), lambda c: (c[1], c[0])),
                             ((0.0, 1.0, 0.0),
                              lambda c: (-c[2], c[0])),
                             ((0.0, 0.0, 1.0),
                              lambda c: (-c[3], c[0]))):
            got = build_backup_list(*columns, weights)
            want = [c[0] for c in sorted(cands, key=key)]
            assert got == want, (weights, got, want)
        instances += 1

    elapsed = time.perf_counter() - start
    ok = instances >= 1000 and elapsed < 30.0
    _report(2, ok, f"{instances} random instances (4 ops), {elapsed:.1f} s")


def test_criterion_3_likelihood_ordering(experiment):
    _, scores, elapsed = experiment
    lp = scores["proposed"].likelihood
    lv = scores["vmasc"].likelihood
    lr = scores["random"].likelihood
    strict = lp > lv > lr
    in_band = abs(lp - 0.83) <= 0.15
    ok = strict and in_band and elapsed < 120.0
    _report(3, ok, f"L proposed={lp:.3f} vmasc={lv:.3f} random={lr:.3f}, "
                   f"band |{lp:.3f}-0.83|<=0.15, {RUNS} paired runs "
                   f"in {elapsed:.0f} s")


def test_criterion_4_fewer_reselections(experiment):
    per, _, _ = experiment
    totals = {s: [r.total_reselections for r in per[s]] for s in SCHEMES}
    results = {}
    for bench in ("vmasc", "random"):
        mean, half = _paired(totals[bench], totals["proposed"])
        results[bench] = (mean, half)
    ok = all(mean > half for mean, half in results.values())
    detail = ", ".join(f"vs {b}: diff {m:.2f} +- {h:.2f}"
                       for b, (m, h) in results.items())
    _report(4, ok, detail)


def test_criterion_5_snr_at_least_benchmarks(experiment):
    per, _, _ = experiment
    snrs = {s: [r.mean_snr for r in per[s]] for s in SCHEMES}
    results = {}
    for bench in ("vmasc", "random"):
        mean, half = _paired(snrs["proposed"], snrs[bench])
        results[bench] = (mean, half)
    # ">=" standard: the point estimate must favor the proposed scheme
    # and must not be significantly negative at the same 95% level
    ok = all(mean >= 0.0 and mean > -half for mean, half in results.values())
    detail = ", ".join(f"vs {b}: diff {m:.3g} +- {h:.3g}"
                       for b, (m, h) in results.items())
    _report(5, ok, detail)


def test_criterion_6_cumulative_monotone_and_minimum(experiment):
    per, _, _ = experiment
    monotone = all(all(b >= a for (_, a), (_, b) in
                       zip(r.cumulative, r.cumulative[1:]))
                   for s in SCHEMES for r in per[s])
    wins = sum(
        1 for k in range(RUNS)
        if per["proposed"][k].total_reselections
        <= min(per["vmasc"][k].total_reselections,
               per["random"][k].total_reselections))
    share = wins / RUNS
    ok = monotone and share >= 0.80
    _report(6, ok, f"monotone={monotone}, proposed minimum in "
                   f"{share:.0%} of {RUNS} paired runs")


def test_criterion_7_vehicle_sweep_shape():
    counts = {}
    for n in (5, 10, 15, 20, 25, 30, 35):
        cfg = dataclasses.replace(SimConfig(), num_vehicles=n)
        total = 0.0
        for k in range(100):
            events = engine.run(cfg, seeds=run_seeds(cfg.seed, k, "proposed"))
            total += metrics.run_metrics(events).total_reselections
        counts[n] = total / 100.0
    rising = all(counts[a] < counts[b]
                 for a, b in ((5, 10), (10, 15), (15, 20), (20, 25)))
    late = abs(counts[35] - counts[25]) / counts[25]
    mid = abs(counts[25] - counts[15]) / counts[15]
    ok = rising and late < mid
    detail = (" ".join(f"I={n}:{counts[n]:.1f}" for n in sorted(counts))
              + f"; rel 25->35 {late:.2f} < rel 15->25 {mid:.2f}")
    _report(7, ok, detail)


def test_criterion_8_deterministic_traces(tmp_path):
    dirs = {"first": 1, "second": 1, "parallel": 8}
    for name, workers in dirs.items():
        code = cli_main(["compare", "--runs", "2",
                         "--out", str(tmp_path / name),
                         "--workers", str(workers)])
        assert code == 0
    ref_dir = tmp_path / "first"
    names = sorted(os.listdir(ref_dir / "traces"))
    identical = True
    for other in ("second", "parallel"):
        for fname in names:
            with open(ref_dir / "traces" / fname, "rb") as fh:
                ref = fh.read()
            with open(tmp_path / other / "traces" / fname, "rb") as fh:
                if fh.read() != ref:
                    identical = False
    ok = identical and len(names) == 6
    _report(8, ok, f"{len(names)} traces byte-identical across two "
                   f"invocations and worker counts 1 and 8")
