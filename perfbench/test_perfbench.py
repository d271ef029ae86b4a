"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import dataclasses
import json
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run
import speed
import tracing
from tracing import SpanTable, Tracer, self_times


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7].
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_tracer_records_nesting_episodes_and_layers():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: None, "sysid.evaluate")
    solve = tracer.wrap(lambda: [leaf() for _ in range(3)], "mpc.solve")
    episode = tracer.wrap(lambda: solve(), "plant.run_episode")
    with tracer.region("benchmark.unit"):
        episode()
        episode()
    leaf()  # outside every unit and episode

    cols = tracer.arrays()
    names = [tracer.names[i] for i in cols["name_id"]]
    assert names.count("sysid.evaluate") == 7
    assert cols["parent"][0] == -1 and cols["parent"][-1] == -1
    solves = [i for i, n in enumerate(names) if n == "mpc.solve"]
    assert [names[cols["parent"][i]] for i in solves] == ["plant.run_episode"] * 2
    assert sorted(set(cols["episode"][solves])) == [0, 1]
    assert cols["episode"][-1] == -1

    table = SpanTable(tracer)
    body = table.inside("benchmark.unit")
    assert body.sum() == len(names) - 1
    assert table.calls("sysid.evaluate", body) == 6
    shares = table.layer_self(body)
    assert set(shares) == {"benchmark", "plant", "mpc", "sysid_read"}
    assert sum(shares.values()) == pytest.approx(table.total("benchmark.unit"))


def test_installed_wrappers_are_removed_afterwards():
    from rampnet import mpc, plant

    before = (mpc.solve, plant.TrafficPlant.step)
    with tracing.installed(Tracer()):
        assert mpc.solve is not before[0]
    assert (mpc.solve, plant.TrafficPlant.step) == before


def test_trimmed_mean_drops_both_tails():
    values = [1.0] * 98 + [1000.0, -1000.0]
    assert speed.trimmed_mean(values) == 1.0
    assert speed.trimmed_mean([3.0, 5.0]) == 4.0  # too few to trim


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_speed_probe_takes_its_own_time_out_and_scales_to_nominal(monkeypatch):
    # A reference slice that takes 2 ms where its nominal time is 1 ms: the
    # machine looks half as fast as the reference.
    slow = speed.Reference(lambda: _busy(0.002), 0.001, 0.005)
    monkeypatch.setitem(speed.REFERENCES, "slow", slow)
    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe("slow") as probe:
        t0 = time.perf_counter()
        _, took, during = probe.timed(_busy, 0.3)
        outer = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = probe.samples[during]
    assert len(inside) >= 10
    assert outer - took >= sum(inside)
    assert took == pytest.approx(0.3 - (outer - took), abs=0.005)
    assert 0.4 < probe.factor(during) <= 0.5


@pytest.mark.parametrize("n", [20, 90, 99, 180, 200, 999, 1000, 5000])
def test_samples_beyond_counts_what_numpy_leaves_above(n):
    values = np.random.default_rng(n).permutation(n).astype(float)
    for p in checks.PERCENTILE_LADDER:
        above = int(np.sum(values > np.percentile(values, p)))
        assert checks.samples_beyond(n, p) == above


def test_tail_percentile_needs_ten_samples_beyond():
    assert checks.tail_percentile(90) is None
    assert checks.tail_percentile(99) == 90.0
    assert checks.tail_percentile(180) == 90.0
    assert checks.tail_percentile(360) == 95.0
    assert checks.tail_percentile(901) == 95.0
    assert checks.tail_percentile(902) == 99.0
    assert checks.tail_percentile(10_000) == 99.9


@pytest.fixture(scope="module")
def alinea_episode():
    from rampnet import harness, network, plant

    config = network.load_config(network.benchmark_config_path())

    def once():
        controller = harness.make_controller("alinea", config.n_ramps)
        return plant.run_episode(config, controller, seed=21)

    return once


def test_digest_is_stable_across_two_runs(alinea_episode):
    first, second = alinea_episode(), alinea_episode()
    assert checks.check_record(first, "a") == []
    assert checks.record_digest(first) == checks.record_digest(second)
    nudged = dataclasses.replace(second, flow=second.flow.copy())
    nudged.flow[60, 3] = np.nextafter(nudged.flow[60, 3], np.inf)
    assert checks.record_digest(nudged) != checks.record_digest(first)


def test_digest_book_flags_a_rerun_that_differs():
    book = checks.DigestBook()
    assert book.note("episode x", "aa")
    assert not book.note("episode x", "aa")
    assert not book.note("episode x", "bb")
    assert book.repeats == 2 and len(book.mismatches) == 1


def _fake_record(windows=checks.RECORDED_WINDOWS, rate=1000.0):
    return type("R", (), {
        "occupancy": np.full((windows, 8), 15.0),
        "flow": np.full((windows, 8), 5000.0),
        "rates": np.full((windows, 8), rate),
        "__len__": lambda self: windows,
    })()


@pytest.mark.parametrize("rate", [200.0, 1800.0])
def test_rates_on_the_rails_pass(rate):
    assert checks.check_record(_fake_record(rate=rate), "r") == []


@pytest.mark.parametrize("field,value,expect", [
    ("rates", 199.999, "applied rate outside"),
    ("rates", 1800.001, "applied rate outside"),
    ("rates", np.nan, "non-finite rates"),
    ("rates", np.inf, "non-finite rates"),
    ("occupancy", np.nan, "non-finite occupancy"),
    ("flow", -np.inf, "non-finite flow"),
])
def test_bad_records_are_rejected(field, value, expect):
    record = _fake_record()
    getattr(record, field)[7, 2] = value
    problems = checks.check_record(record, "r")
    assert any(expect in p for p in problems), problems


def test_wrong_window_count_is_rejected():
    problems = checks.check_record(_fake_record(windows=119), "r")
    assert problems and "119 recorded windows" in problems[0]


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(layers.PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_every_named_workload_exists():
    from workloads import WORKLOADS

    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
