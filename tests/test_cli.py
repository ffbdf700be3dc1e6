"""CLI driver: seed plans, output layout and reproducibility."""
import dataclasses
import math
import operator
import os
import shutil
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavclust import cli, engine, metrics, trace
from uavclust.cli import main, seed_plan
from uavclust.config import (MAX_SHADOW_STD_DB, ConfigError, SimConfig,
                             dump_config, validate)

SCHEMES = ("proposed", "vmasc", "random")


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def trace_files(out_dir):
    trace_dir = os.path.join(out_dir, "traces")
    return sorted(os.listdir(trace_dir)) if os.path.isdir(trace_dir) else []


def tree_bytes(out_dir):
    """Every file under out_dir, by relative path."""
    return {os.path.relpath(os.path.join(root, name), out_dir):
            read_bytes(os.path.join(root, name))
            for root, _, names in os.walk(out_dir) for name in names}


def test_seed_plan_pairing_contract():
    plan = seed_plan(1, 3, SCHEMES)
    assert len(plan) == 3
    for row in plan:
        mob = {row[s].mobility for s in SCHEMES}
        fad = {row[s].fading for s in SCHEMES}
        sch = {row[s].scheme for s in SCHEMES}
        assert len(mob) == 1 and len(fad) == 1  # shared trajectories
        assert len(sch) == len(SCHEMES)  # distinct scheme streams
    assert plan[0]["proposed"].mobility != plan[1]["proposed"].mobility
    assert seed_plan(1, 3, SCHEMES) == plan  # rerun identical
    with pytest.raises(ValueError):
        seed_plan(1, 0, SCHEMES)


def test_run_twice_is_byte_identical(tmp_path):
    args = ["run", "--runs", "2", "--duration", "140"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b]) == 0
    names = trace_files(a)
    assert names == trace_files(b) and names
    for name in names:
        assert read_bytes(os.path.join(a, "traces", name)) == \
            read_bytes(os.path.join(b, "traces", name))


def test_run_is_compare_of_one_scheme(tmp_path):
    flags = ["--scheme", "vmasc", "--runs", "2", "--duration", "140"]
    ran, compared = str(tmp_path / "run"), str(tmp_path / "cmp")
    assert main(["run"] + flags + ["--out", ran]) == 0
    assert main(["compare"] + flags + ["--out", compared]) == 0
    tree = tree_bytes(ran)
    assert "plots/reselections_vs_time.dat" in tree
    assert tree == tree_bytes(compared)


def test_compare_layout_and_likelihood(tmp_path):
    out = str(tmp_path / "cmp")
    assert main(["compare", "--runs", "2", "--duration", "140",
                 "--out", out]) == 0
    assert os.path.isfile(os.path.join(out, "config.echo"))
    for scheme in SCHEMES:
        text = read_bytes(os.path.join(out, f"aggregate.{scheme}.txt")).decode()
        assert f"scheme: {scheme}" in text
        assert "robustness_likelihood:" in text
        header, _ = trace.read_trace(
            os.path.join(out, "traces", f"{scheme}_run0000.trace"))
        assert f"config_digest: {header['config']}\n" in text
    plot = os.path.join(out, "plots", "reselections_vs_time.dat")
    assert os.path.isfile(plot)
    lines = read_bytes(plot).decode().splitlines()
    assert lines[0].startswith("# time")
    assert len(lines) == 1 + 140 // 10 + 1  # header + CAM grid rows


def test_cam_grid_keeps_its_last_point_when_the_division_rounds_down(
        tmp_path):
    # 0.3 / 0.1 is 2.9999999999999996: the grid is counted in slots
    cfg = tmp_path / "short.cfg"
    cfg.write_text("slot_duration = 0.1\ncam_interval = 0.1\n"
                   "beacon_interval = 0.1\ncluster_interval = 0.1\n"
                   "total_time = 0.3\n")
    out = str(tmp_path / "cmp")
    assert main(["compare", "--config", str(cfg), "--out", out]) == 0
    rows = read_bytes(os.path.join(out, "plots", "reselections_vs_time.dat")
                      ).decode().splitlines()[1:]
    assert [float(row.split()[0]) for row in rows] == [
        k * 0.1 for k in range(4)]


def test_workers_do_not_change_traces(tmp_path):
    serial, parallel = str(tmp_path / "w1"), str(tmp_path / "w2")
    base = ["compare", "--runs", "2", "--duration", "140"]
    assert main(base + ["--out", serial, "--workers", "1"]) == 0
    assert main(base + ["--out", parallel, "--workers", "4"]) == 0
    names = trace_files(serial)
    assert names == trace_files(parallel) and names
    for name in names:
        assert read_bytes(os.path.join(serial, "traces", name)) == \
            read_bytes(os.path.join(parallel, "traces", name))


def test_one_run_runs_in_process(tmp_path, monkeypatch):
    serial, pooled = str(tmp_path / "w1"), str(tmp_path / "w2")
    base = ["compare", "--runs", "1", "--duration", "140"]
    assert main(base + ["--out", serial, "--workers", "1"]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one run index")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    assert main(base + ["--out", pooled, "--workers", "2"]) == 0
    names = trace_files(serial)
    assert names == trace_files(pooled) and len(names) == len(SCHEMES)
    for name in names:
        assert read_bytes(os.path.join(serial, "traces", name)) == \
            read_bytes(os.path.join(pooled, "traces", name))


@pytest.mark.parametrize("workers, runs, vehicles",
                         [(2, 2, 12), (3, 3, 12), (2, 5, 64)])
def test_calling_process_runs_every_workers_th_block_beside_a_smaller_pool(
        tmp_path, monkeypatch, workers, runs, vehicles):
    # each case makes one block per run index (64 vehicles fill
    # engine.BLOCK_ROWS); the pool processes are forked after the
    # wrapper is set, so only the blocks this process runs reach the list
    blocks, started = [], []
    real = engine.run_block

    def recorded(config, plans):
        blocks.append(plans)
        return real(config, plans)

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(engine, "run_block", recorded)
    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    base = ["compare", "--runs", str(runs), "--vehicles", str(vehicles),
            "--duration", "140"]
    serial, pooled = str(tmp_path / "w1"), str(tmp_path / "pooled")
    assert main(base + ["--out", serial, "--workers", "1"]) == 0
    plans = [plan for block in blocks for plan in block]
    assert len(plans) == runs and not started
    del blocks[:]
    assert main(base + ["--out", pooled, "--workers", str(workers)]) == 0
    assert started == [workers - 1]
    assert blocks == [[plan] for plan in plans[::workers]]
    traces = tree_bytes(os.path.join(serial, "traces"))
    assert len(traces) == runs * len(SCHEMES)
    assert tree_bytes(os.path.join(pooled, "traces")) == traces


def test_pool_starts_no_more_processes_than_blocks_sent_to_it(
        tmp_path, monkeypatch):
    # 5 runs on 4 workers make blocks of 2, 2 and 1 run indices: this
    # process runs the first, and a pool of 2, not 3, the other two
    started = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    base = ["compare", "--runs", "5", "--vehicles", "12", "--duration", "140"]
    serial, pooled = str(tmp_path / "w1"), str(tmp_path / "w4")
    assert main(base + ["--out", serial, "--workers", "1"]) == 0
    assert not started
    assert main(base + ["--out", pooled, "--workers", "4"]) == 0
    assert started == [2]
    traces = tree_bytes(os.path.join(serial, "traces"))
    assert len(traces) == 5 * len(SCHEMES)
    assert tree_bytes(os.path.join(pooled, "traces")) == traces


def test_schemes_of_a_run_index_share_one_fleet(tmp_path, monkeypatch):
    calls = {"step": 0, "assign": 0}

    def counted(name):
        real = getattr(engine, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, counted(name))
    assert main(["compare", "--runs", "2", "--out", str(tmp_path / "c")]) == 0
    assert len(trace_files(str(tmp_path / "c"))) == 2 * len(SCHEMES)
    # one step per gap between event slots (70 in a 700 s run) and one
    # assignment per round, for all schemes and run indices of a block
    # together; at one worker and I = 12 both run indices are one block
    assert calls == {"step": 70, "assign": 10}


def test_a_block_holds_at_most_block_rows_vehicles(tmp_path, monkeypatch):
    sizes = []
    real = engine.run_block

    def recorded(config, plans):
        sizes.append(len(plans) * config.num_vehicles)
        return real(config, plans)

    monkeypatch.setattr(engine, "run_block", recorded)
    for vehicles, runs in ((12, 12), (100, 2)):
        assert main(["compare", "--runs", str(runs), "--vehicles",
                     str(vehicles), "--duration", "20", "--out",
                     str(tmp_path / f"v{vehicles}")]) == 0
    # engine.BLOCK_ROWS = 64: 64 // 12 = 5 runs of I = 12 per block, and
    # one run of I = 100
    assert sizes == [60, 60, 24, 100, 100]


def test_traces_do_not_depend_on_the_worker_count(tmp_path):
    # 5 runs make one block at one worker, blocks of 3 and 2 at two
    # workers and blocks of 2, 2 and 1 at four
    trees = []
    for workers in (1, 2, 4):
        out = str(tmp_path / f"w{workers}")
        assert main(["compare", "--runs", "5", "--workers", str(workers),
                     "--out", out]) == 0
        trees.append(tree_bytes(os.path.join(out, "traces")))
    assert len(trees[0]) == 5 * len(SCHEMES)
    assert trees[0] == trees[1] == trees[2]


def test_metrics_reaggregates_existing_traces(tmp_path):
    out = str(tmp_path / "exp")
    assert main(["compare", "--runs", "2", "--duration", "140",
                 "--out", out]) == 0
    originals = {s: read_bytes(os.path.join(out, f"aggregate.{s}.txt"))
                 for s in SCHEMES}
    with pytest.raises(SystemExit):  # metrics takes no simulation flags
        main(["metrics", "--duration", "140", "--out", out])
    assert main(["metrics", "--out", out]) == 0
    for s in SCHEMES:
        assert read_bytes(os.path.join(out, f"aggregate.{s}.txt")) == \
            originals[s]


def aggregates(out_dir):
    return {name: read_bytes(os.path.join(out_dir, name))
            for name in os.listdir(out_dir) if name.startswith("aggregate.")}


def test_metrics_drops_the_aggregates_of_schemes_without_traces(tmp_path):
    out, subset = str(tmp_path / "exp"), str(tmp_path / "subset")
    assert main(["compare", "--runs", "2", "--duration", "140",
                 "--out", out]) == 0
    for name in trace_files(out):
        if name.startswith("vmasc_"):
            os.remove(os.path.join(out, "traces", name))
    # a failing metrics touches nothing, the stale aggregate included
    path = os.path.join(out, "traces", "random_run0001.trace")
    body = read_bytes(path)
    lines = body.splitlines(keepends=True)
    lines[4] = b"0\tch_selected\t0,3\t[1]\n"
    with open(path, "wb") as fh:
        fh.write(b"".join(lines))
    before = tree_bytes(out)
    assert main(["metrics", "--out", out]) == 1
    assert tree_bytes(out) == before
    with open(path, "wb") as fh:
        fh.write(body)
    assert main(["metrics", "--out", out]) == 0
    assert main(["compare", "--runs", "2", "--duration", "140",
                 "--scheme", "proposed,random", "--out", subset]) == 0
    assert sorted(aggregates(out)) == ["aggregate.proposed.txt",
                                       "aggregate.random.txt"]
    assert aggregates(out) == aggregates(subset)


def test_metrics_drops_the_plot_of_schemes_without_traces(tmp_path):
    out = str(tmp_path / "exp")
    assert main(["compare", "--runs", "2", "--duration", "140",
                 "--out", out]) == 0
    plot = os.path.join(out, "plots", "reselections_vs_time.dat")
    # nothing is stale: the plot stays as compare wrote it
    before = read_bytes(plot)
    assert before.startswith(b"# time proposed random vmasc\n")
    assert main(["metrics", "--out", out]) == 0
    assert read_bytes(plot) == before
    for name in trace_files(out):
        if name.startswith("random_"):
            os.remove(os.path.join(out, "traces", name))
    assert main(["metrics", "--out", out]) == 0
    assert not os.path.exists(plot)
    assert sorted(aggregates(out)) == ["aggregate.proposed.txt",
                                       "aggregate.vmasc.txt"]


def aggregate_field(out_dir, scheme, key):
    text = read_bytes(os.path.join(out_dir, f"aggregate.{scheme}.txt")).decode()
    for line in text.splitlines():
        name, _, value = line.partition(": ")
        if name == key:
            return value
    raise KeyError(key)


def test_rerun_into_same_out_drops_stale_traces(tmp_path):
    out = str(tmp_path / "reuse")
    base = ["compare", "--duration", "70", "--out", out]
    assert main(base + ["--runs", "3"]) == 0
    assert len(trace_files(out)) == 3 * len(SCHEMES)
    assert main(base + ["--runs", "1"]) == 0
    assert trace_files(out) == sorted(f"{s}_run0000.trace" for s in SCHEMES)
    assert main(["metrics", "--out", out]) == 0
    for scheme in SCHEMES:
        assert aggregate_field(out, scheme, "runs") == "1"
    # a one-scheme run leaves no other scheme's aggregate or plot column
    assert main(["run", "--scheme", "vmasc", "--duration", "70",
                 "--out", out]) == 0
    assert sorted(tree_bytes(out)) == [
        "aggregate.vmasc.txt", "config.echo",
        "plots/reselections_vs_time.dat", "traces/vmasc_run0000.trace"]


def test_an_out_name_is_taken_literally_where_it_is_globbed(tmp_path):
    # "gl[1]" is also a glob pattern, one that matches "gl1" only
    out = str(tmp_path / "gl[1]")
    base = ["--runs", "1", "--duration", "70", "--out", out]
    assert main(["compare"] + base) == 0
    assert main(["compare", "--scheme", "proposed"] + base) == 0
    assert sorted(tree_bytes(out)) == [
        "aggregate.proposed.txt", "config.echo",
        "plots/reselections_vs_time.dat", "traces/proposed_run0000.trace"]
    written = aggregates(out)
    shutil.copyfile(os.path.join(out, "aggregate.proposed.txt"),
                    os.path.join(out, "aggregate.vmasc.txt"))
    assert main(["metrics", "--out", out]) == 0
    assert aggregates(out) == written
    sweep = ["sweep", "--var", "vehicles", "--scheme", "proposed"]
    assert main(sweep + ["--values", "5"] + base) == 0
    assert main(sweep + ["--values", "6"] + base) == 0
    assert sorted(name for name in os.listdir(out)
                  if name.startswith("vehicles_")) == ["vehicles_6"]


def test_metrics_rejects_two_traces_of_one_run(tmp_path, capsys):
    # the paired normalization would score run 0 of proposed twice
    out = str(tmp_path / "dup")
    assert main(["compare", "--runs", "2", "--duration", "70",
                 "--out", out]) == 0
    original = os.path.join(out, "traces", "proposed_run0000.trace")
    copy = os.path.join(out, "traces", "proposed_run0007.trace")
    shutil.copyfile(original, copy)
    before = tree_bytes(out)
    capsys.readouterr()
    assert main(["metrics", "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {original} and {copy} both hold run 0 of proposed\n")
    assert tree_bytes(out) == before


def test_rejected_experiment_leaves_out_untouched(tmp_path, capsys):
    out = str(tmp_path / "done")
    assert main(["compare", "--runs", "2", "--duration", "70",
                 "--out", out]) == 0
    before = tree_bytes(out)
    assert len(trace_files(out)) == 2 * len(SCHEMES)
    sweep = ["sweep", "--var", "vehicles", "--values", "5"]
    for bad in (["compare", "--runs", "0"],
                ["compare", "--scheme", "proposed,nosuch"],
                ["run", "--runs", "0"],
                sweep + ["--runs", "0"],
                sweep + ["--scheme", "nosuch"],
                # 75.5 is no multiple of slot_duration
                ["sweep", "--var", "duration", "--values", "70,75.5"]):
        assert main(bad + ["--seed", "9", "--out", out]) == 1, bad
        assert tree_bytes(out) == before, bad
    err = capsys.readouterr().err
    assert "--runs" in err and "nosuch" in err


def test_inputs_given_twice_are_rejected_before_out_is_touched(tmp_path,
                                                                capsys):
    # whichever of the two came last would otherwise decide the run
    out = str(tmp_path / "done")
    assert main(["compare", "--runs", "1", "--duration", "70",
                 "--out", out]) == 0
    before = tree_bytes(out)
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("num_vehicles = 10\nnum_vehicles = 20\n")
    sweep = ["sweep", "--var", "vehicles", "--values", "5"]
    for bad, message in (
            (["compare", "--scheme", "proposed,proposed"],
             "error: scheme(s) ['proposed'] given more than once\n"),
            (sweep + ["--scheme", "vmasc,random,vmasc"],
             "error: scheme(s) ['vmasc'] given more than once\n"),
            (["compare", "--config", str(cfg)],
             "error: line 2: num_vehicles: already given on line 1\n")):
        capsys.readouterr()
        assert main(bad + ["--runs", "1", "--out", out]) == 1, bad
        assert capsys.readouterr().err == message
        assert tree_bytes(out) == before, bad


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_are_rejected_before_out_is_touched(
        tmp_path, capsys, workers):
    out = str(tmp_path / "done")
    assert main(["compare", "--runs", "1", "--duration", "70",
                 "--out", out]) == 0
    before = tree_bytes(out)
    capsys.readouterr()
    assert main(["compare", "--runs", "2", "--workers", workers,
                 "--out", out]) == 1
    assert capsys.readouterr().err == \
        f"error: --workers must be >= 1, got {workers}\n"
    assert tree_bytes(out) == before


@pytest.mark.parametrize("line", ["shadow_std_db = 200.5",
                                  "shadow_std_db = 2000",
                                  "v2v_loss_exp = -200"])
def test_degenerate_link_parameters_are_rejected_before_out_exists(
        tmp_path, capsys, line):
    # unbounded, the link SNRs overflow or reach a zero shadowing factor,
    # and which comes first depends on the seed
    cfg = tmp_path / "link.cfg"
    cfg.write_text(line + "\n")
    name = line.split(" = ")[0]
    out = tmp_path / "never"
    for seed in range(1, 7):
        capsys.readouterr()
        assert main(["compare", "--config", str(cfg), "--runs", "1",
                     "--duration", "70", "--seed", str(seed),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {name}: ")
        assert not out.exists()


@pytest.mark.parametrize("line", ["uav_altitude = 1e200",
                                  "road_length = 1e300",
                                  "gauss_mean = 1e200",
                                  "v2v_loss_const = 1e300\nshadow_std_db = 200",
                                  "uav_tx_power = 1e308",
                                  "ref_gain = 1e-320",
                                  "lane_offsets = -1e160,1e160",
                                  "v2v_loss_const = 6e306\nshadow_std_db = 0\n"
                                  "num_vehicles = 100",
                                  "v_max_vehicle = 1e308"])
def test_an_overflow_in_the_model_exits_with_one_error_line(tmp_path, capsys,
                                                            line):
    # unchecked, an SNR, a CAM batch's sum of I - 1 finite SNRs, a fold of
    # speeds (the last case) or the likelihood's (s - mean) ** 2 overflows
    # a float, or every A2G SNR rounds to inf or 0 and the UAVs tie
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    assert main(["compare", "--config", str(cfg), "--runs", "1",
                 "--duration", "70", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert line.split(" = ")[0] in err.split(": ")[1].split("/")
    assert not out.exists()


@pytest.mark.parametrize("line, field", [
    ("cam_interval = 1e-12", "cam_interval"),
    ("beacon_interval = 1e-12", "beacon_interval"),
    ("cluster_interval = 1e-12", "cluster_interval"),
    ("total_time = 1e-12", "total_time"),
    ("slot_duration = 1e-300\ntotal_time = 70", "total_time/slot_duration"),
    ("avg_window = 2000000000000000000\ntotal_time = 2e18",
     "total_time/slot_duration")])
def test_a_timing_fault_is_rejected_before_out_exists(tmp_path, capsys, line,
                                                      field):
    # unchecked, an interval of 0 slots stops the schedule's range() after
    # --out exists, and a run of 0 slots writes NaN aggregates
    cfg = tmp_path / "timing.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "never"
    assert main(["compare", "--config", str(cfg), "--runs", "1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("raised, message", [
    (MemoryError("Unable to allocate 8.73 TiB"), "Unable to allocate 8.73 TiB"),
    (MemoryError(), "MemoryError")])
def test_a_memory_error_exits_with_one_error_line(tmp_path, capsys,
                                                  monkeypatch, raised, message):
    # a validated config can still ask mobility.step for a larger array
    # than the host has
    def no_memory(*args, **kwargs):
        raise raised
    monkeypatch.setattr(engine, "run_block", no_memory)
    assert main(["compare", "--runs", "1", "--duration", "70",
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_subnormal_noise_power_runs_to_finite_aggregates(tmp_path):
    # every SNR's extremes are finite (the largest V2V SNR ~ 8e296), so
    # the config is valid although the noise power is subnormal
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text("noise_power = 1e-310\n")
    out = str(tmp_path / "quiet")
    assert main(["compare", "--config", str(cfg), "--runs", "2",
                 "--duration", "140", "--out", out]) == 0
    for scheme in SCHEMES:
        for key in ("mean_snr", "normalized_snr", "robustness_likelihood"):
            value = float(aggregate_field(out, scheme, key))
            assert math.isfinite(value) and value > 0.0, (scheme, key)


def drawn(default, signed=False):
    """The default, or a magnitude log-uniform in [1e-300, 1e300]."""
    magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
    if signed:
        magnitude = st.builds(operator.mul, st.sampled_from([1.0, -1.0]),
                              magnitude)
    return st.one_of(st.just(default), magnitude)


# the link-budget, A2G and likelihood floats and the top speed; timing
# fields and v_min keep their defaults
MODEL_FIELDS = {
    name: drawn(getattr(SimConfig(), name), signed=name == "gauss_mean")
    for name in ("vehicle_tx_power", "noise_power", "v2v_loss_const",
                 "v2v_loss_exp", "shadow_std_db", "uav_tx_power", "ref_gain",
                 "uav_altitude", "road_length", "poisson_rate", "gauss_mean",
                 "gauss_var", "v_max_vehicle")}


@given(st.fixed_dictionaries({
    **MODEL_FIELDS,
    "lane_offsets": st.tuples(drawn(-2.0, signed=True), drawn(2.0, signed=True)),
    "num_vehicles": st.integers(1, 20),
    "snr_fading": st.sampled_from(["large_scale", "instantaneous"])}))
@settings(deadline=None, max_examples=100)
def test_a_config_is_rejected_or_runs_to_finite_traces(fields):
    # validate evaluates the model at the ends of its inputs, a CAM batch's
    # sum of I - 1 V2V SNRs included, so a config it passes reaches no
    # overflow, warning or non-finite SNR in a trace.  The aggregates sum
    # over counts set by --duration and --runs, which no config bounds, so
    # they are not checked here
    config = dataclasses.replace(SimConfig(), **fields)
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("error", RuntimeWarning)
        try:
            validate(config)
        except ConfigError:
            return
        cfg = os.path.join(tmp, "drawn.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(dump_config(config))
        out = os.path.join(tmp, "out")
        assert main(["compare", "--config", cfg, "--runs", "2",
                     "--duration", "140", "--out", out]) == 0
        for name in trace_files(out):
            text = read_bytes(os.path.join(out, "traces", name)).decode()
            assert "Infinity" not in text and "NaN" not in text, name


def test_a_failing_metrics_keeps_the_stale_aggregate(tmp_path, capsys):
    # metrics aggregates every scheme before it writes or removes any
    # aggregate, so one that fails leaves the directory as it was
    out = str(tmp_path / "exp")
    assert main(["compare", "--runs", "2", "--duration", "70",
                 "--out", out]) == 0
    for name in trace_files(out):
        if name.startswith("vmasc_"):
            os.remove(os.path.join(out, "traces", name))
    # one proposed trace claims another config: aggregate_traces refuses
    # the mix
    path = os.path.join(out, "traces", "proposed_run0001.trace")
    text = read_bytes(path).decode()
    digest = text.split("config=", 1)[1].split(" ", 1)[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(f"config={digest}", "config=" + "0" * len(digest), 1))
    before = tree_bytes(out)
    assert "aggregate.vmasc.txt" in before
    capsys.readouterr()
    assert main(["metrics", "--out", out]) == 1
    assert "mixed config digests" in capsys.readouterr().err
    assert tree_bytes(out) == before


def test_compare_at_the_shadowing_bound_has_finite_aggregates(tmp_path):
    # the dense cell at the largest valid spread: every shadowing factor
    # is finite and non-zero (test_config), so is every mean SNR
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(f"shadow_std_db = {MAX_SHADOW_STD_DB}\n"
                   "num_vehicles = 100\nsnr_fading = instantaneous\n")
    out = str(tmp_path / "bound")
    assert main(["compare", "--config", str(cfg), "--runs", "2",
                 "--duration", "140", "--out", out]) == 0
    for scheme in SCHEMES:
        for key in ("mean_snr", "normalized_snr", "robustness_likelihood"):
            value = float(aggregate_field(out, scheme, key))
            assert math.isfinite(value) and value > 0.0, (scheme, key)


def test_metrics_scores_with_the_echoed_config(tmp_path):
    cfg = tmp_path / "weights.cfg"
    cfg.write_text("weight_reselect = 0.9\nweight_snr = 0.1\n")
    out = str(tmp_path / "weighted")
    assert main(["compare", "--config", str(cfg), "--runs", "2",
                 "--duration", "140", "--out", out]) == 0
    written = {s: aggregate_field(out, s, "robustness_likelihood")
               for s in SCHEMES}
    assert main(["metrics", "--out", out]) == 0
    for scheme in SCHEMES:
        assert aggregate_field(out, scheme, "robustness_likelihood") == \
            written[scheme]


def test_metrics_agrees_with_pooled_compare(tmp_path):
    # the pool's tasks score their runs in memory; metrics re-parses the
    # traces (test_metrics_reaggregates_existing_traces: one worker)
    out = str(tmp_path / "exp")
    assert main(["compare", "--runs", "2", "--duration", "140",
                 "--workers", "2", "--out", out]) == 0
    in_memory = {s: read_bytes(os.path.join(out, f"aggregate.{s}.txt"))
                 for s in SCHEMES}
    assert main(["metrics", "--out", out]) == 0
    for s in SCHEMES:
        assert read_bytes(os.path.join(out, f"aggregate.{s}.txt")) == \
            in_memory[s]


def test_each_trace_is_parsed_once(tmp_path, monkeypatch):
    # compare scores in memory and opens no trace; metrics folds each
    # trace once, parsing only the kinds the fold reads
    folded, parsed = [], []
    original = metrics.fold_trace

    def counting_fold_trace(path, kinds, fold):
        folded.append((os.path.basename(path), kinds))
        return original(path, kinds, fold)

    monkeypatch.setattr(metrics, "fold_trace", counting_fold_trace)
    monkeypatch.setattr(trace, "read_trace", parsed.append)
    out = str(tmp_path / "once")
    assert main(["compare", "--runs", "2", "--duration", "70",
                 "--out", out]) == 0
    names = trace_files(out)
    assert len(names) == 2 * len(SCHEMES)
    assert folded == [] and parsed == []
    assert main(["metrics", "--out", out]) == 0
    assert sorted(folded) == [(name, metrics.SCORED_KINDS) for name in names]
    assert parsed == []


@pytest.mark.parametrize("line", [
    # a cam_batch without its tenure
    '10\tcam_batch\t0,3\t{"members":2,"snr":1e-05}',
    # a selection whose payload is not an object
    "0\tch_selected\t0,3\t[1]",
    # a re-selection without a cluster id
    '30\tch_reselected_full\t\t{"degraded":false,"tenure":2}',
    # a string SNR
    '10\tcam_batch\t0,3\t{"members":2,"snr":"-46","tenure":1}',
])
def test_metrics_rejects_a_scored_line_of_the_wrong_shape(tmp_path, capsys,
                                                          line):
    out = str(tmp_path / "shape")
    assert main(["compare", "--runs", "1", "--duration", "70",
                 "--scheme", "proposed", "--out", out]) == 0
    path = os.path.join(out, "traces", "proposed_run0000.trace")
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[4] = line  # line 5 of the file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["metrics", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}, line 5: ")


@pytest.mark.parametrize("key", ["config", "scheme", "seed", "run"])
def test_metrics_rejects_a_header_without_a_key_it_reads(tmp_path, capsys,
                                                         key):
    out = str(tmp_path / "header")
    assert main(["compare", "--runs", "1", "--duration", "70",
                 "--scheme", "proposed", "--out", out]) == 0
    path = os.path.join(out, "traces", "proposed_run0000.trace")
    with open(path, "r", encoding="utf-8") as fh:
        header, body = fh.read().split("\n", 1)
    kept = [part for part in header.split(" ")
            if not part.startswith(f"{key}=")]
    assert len(kept) == len(header.split(" ")) - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(kept) + "\n" + body)
    capsys.readouterr()
    assert main(["metrics", "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}, line 1: the trace header has no {key}=\n")


def test_sweep_writes_shape_file(tmp_path):
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--var", "vehicles", "--values", "5,10",
                 "--scheme", "proposed", "--runs", "2",
                 "--duration", "140", "--out", out]) == 0
    data = read_bytes(os.path.join(out, "plots", "sweep_vehicles.dat")).decode()
    lines = data.splitlines()
    assert lines[0].startswith("# vehicles")
    assert len(lines) == 3
    assert lines[1].split()[0] == "5"
    assert lines[2].split()[0] == "10"


def test_sweep_points_echo_their_own_config(tmp_path):
    cfg = tmp_path / "weights.cfg"
    cfg.write_text("weight_reselect = 0.9\nweight_snr = 0.1\n")
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", str(cfg), "--var", "vehicles",
                 "--values", "5", "--runs", "2", "--duration", "140",
                 "--out", out]) == 0
    point = os.path.join(out, "vehicles_5")
    echo = read_bytes(os.path.join(point, "config.echo")).decode()
    assert "num_vehicles = 5" in echo and "weight_reselect = 0.9" in echo
    written = {s: aggregate_field(point, s, "robustness_likelihood")
               for s in SCHEMES}
    assert main(["metrics", "--out", point]) == 0
    for scheme in SCHEMES:
        assert aggregate_field(point, scheme, "robustness_likelihood") == \
            written[scheme]


def test_sweep_point_names_keep_every_digit(tmp_path, monkeypatch):
    # 1e6 and 1000001 both read "1e+06" under %g
    point_dirs = []

    def no_simulation(config, schemes, runs, out_dir, workers):
        os.makedirs(out_dir, exist_ok=True)
        point_dirs.append(os.path.basename(out_dir))
        rm = metrics.RunMetrics(per_cluster={}, total_reselections=1,
                                cumulative=(), mean_snr=1.0,
                                degraded_selections=0)
        return {s: [({"config": config.digest(), "seed": "1"}, rm)]
                for s in schemes}

    monkeypatch.setattr(cli, "_run_experiment", no_simulation)
    out = str(tmp_path / "long")
    assert main(["sweep", "--var", "duration", "--values", "1000000,1000001",
                 "--scheme", "proposed", "--out", out]) == 0
    assert len(set(point_dirs)) == 2
    assert [float(d.split("_")[1]) for d in point_dirs] == [1e6, 1000001.0]
    rows = read_bytes(os.path.join(out, "plots", "sweep_duration.dat")
                      ).decode().splitlines()[1:]
    assert [float(r.split()[0]) for r in rows] == [1e6, 1000001.0]


def test_sweep_over_compare_drops_its_output(tmp_path):
    out = str(tmp_path / "reuse")
    assert main(["compare", "--runs", "1", "--duration", "70",
                 "--out", out]) == 0
    assert main(["sweep", "--var", "vehicles", "--values", "5",
                 "--scheme", "proposed", "--duration", "70",
                 "--out", out]) == 0
    assert sorted(n for n in tree_bytes(out)
                  if not n.startswith("vehicles_5/")) == [
        "config.echo", "plots/sweep_vehicles.dat"]


def test_sweep_drops_an_earlier_sweeps_points(tmp_path):
    out = str(tmp_path / "reuse")
    sweep = ["sweep", "--scheme", "proposed", "--out", out]
    assert main(sweep + ["--var", "vehicles", "--values", "5",
                         "--duration", "70"]) == 0
    assert main(sweep + ["--var", "duration", "--values", "70"]) == 0
    # a directory that holds no echo was not written by a sweep
    os.makedirs(os.path.join(out, "vehicles_notes"))
    assert main(sweep + ["--var", "vehicles", "--values", "6",
                         "--duration", "70"]) == 0
    assert sorted(os.listdir(out)) == [
        "config.echo", "plots", "vehicles_6", "vehicles_notes"]
    assert os.listdir(os.path.join(out, "plots")) == ["sweep_vehicles.dat"]


def test_sweep_rejects_unsorted_values(tmp_path, capsys):
    out = str(tmp_path / "bad")
    assert main(["sweep", "--var", "vehicles", "--values", "10,5",
                 "--out", out]) == 2
    assert "increasing" in capsys.readouterr().err


def test_bad_config_file_reports_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_field = 1\n")
    assert main(["run", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 1
    assert "no_such_field" in capsys.readouterr().err


def test_config_file_round_trips_through_echo(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("num_vehicles = 6\nv_min = 36 km/h\n")
    out = str(tmp_path / "echo")
    assert main(["run", "--config", str(cfg), "--runs", "1",
                 "--duration", "140", "--out", out]) == 0
    echo = read_bytes(os.path.join(out, "config.echo")).decode()
    assert "num_vehicles = 6" in echo
    assert "v_min = 10.0" in echo
