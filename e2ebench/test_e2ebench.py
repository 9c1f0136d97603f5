"""Self-tests of the benchmark: ``python3 -m pytest e2ebench -q``.

They check the benchmark's own machinery (percentiles, self time, the
SSE cursor check, visibility, the node protocol, the result line) and
run each workload once at a toy size against the single-process
reference.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from load import Subscriber, percentile  # noqa: E402


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.0, 10.0], 95) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        percentile([], 50)


def _spin(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_time_excludes_nested_wrapped_calls():
    timer = layers.CallTimer()
    inner = timer._wrap("inner", lambda: _spin(0.05), None)

    def outer_body():
        _spin(0.02)
        inner()
        inner()

    outer = timer._wrap("outer", outer_body, None)
    outer()
    (outer_wall, outer_self), = timer.calls["outer"]
    assert timer.self_cpu("inner") == pytest.approx(0.10, abs=0.02)
    assert outer_self == pytest.approx(0.02, abs=0.02)
    assert outer_wall >= 0.12


def test_frozen_timer_records_nothing():
    timer = layers.CallTimer()
    timer.frozen = True
    timer._wrap("x", lambda: None, None)()
    assert not timer.calls


def test_layer_store_keeps_every_span_and_filters_paths():
    store = layers.LayerStore()
    for i in range(600):  # more than the stock 512-sample reservoir
        store.record({"trace_id": str(i), "span_id": str(i),
                      "parent_id": None, "name": "http.request",
                      "started_at": float(i), "duration": 0.001,
                      "cpu_time": 0.0005,
                      "attrs": {"path": "/stories" if i else "/subscribez"}})
    assert len(store.durations("http.request")) == 600
    assert len(store.durations("http.request", "/subscribez")) == 599
    assert sum(store.cpu("http.request")) == pytest.approx(0.3)


def _subscriber_after(cursors):
    sub = Subscriber(0)
    sub._dispatch({"event": "hello", "cursor": 10})
    for cursor in cursors:
        sub._dispatch({"event": "created", "cursor": cursor,
                       "snippet_id": f"s{cursor}"})
    return sub


def test_cursor_check_counts_gaps_not_reordering():
    assert _subscriber_after([11, 12, 13]).gaps() == 0
    assert _subscriber_after([11, 13, 12, 14]).gaps() == 0
    missing = _subscriber_after([11, 13, 14])
    assert missing.gaps() == 1
    repeated = _subscriber_after([11, 12, 12])
    assert repeated.gaps() == 1


def test_goodbye_ends_the_stream():
    sub = _subscriber_after([11])
    assert sub._dispatch({"event": "goodbye", "cursor": 11})
    assert sub.ended == "goodbye"


class _Snippet:
    def __init__(self, snippet_id, source_id):
        self.snippet_id, self.source_id = snippet_id, source_id


def test_visibility_follows_per_source_prefixes():
    out = {
        "admitted": [_Snippet("a1", "a"), _Snippet("b1", "b"),
                     _Snippet("a2", "a"), _Snippet("b2", "b"),
                     _Snippet("a3", "a")],
        # generation 3's event never arrived: generation 4 announces it
        "installs": [(4, {"a": 3, "b": 2}), (2, {"a": 1, "b": 1}),
                     (3, {"a": 2, "b": 1})],
    }
    visible = workloads.Live._visible(out, {2: 10.0, 4: 30.0})
    assert visible == {"a1": 10.0, "b1": 10.0, "a2": 30.0, "b2": 30.0,
                       "a3": 30.0}


def test_node_that_dies_fails_the_round(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "NODE", str(tmp_path / "missing.py"))
    node = workloads.Node("realign", {}, str(tmp_path), traced=False)
    try:
        with pytest.raises(RuntimeError, match="node exited"):
            node.expect("ready")
    finally:
        node.close()
    assert not list(tmp_path.iterdir())


def test_node_gets_a_cpu_of_its_own_in_turn():
    cpus = set(workloads.CPUS)
    nodes = []
    for turn in range(len(cpus)):
        bench, node = workloads.split_cpus(turn)
        if len(cpus) < 2:
            assert bench == node == cpus
            return
        assert len(node) == 1 and not bench & node and bench | node == cpus
        nodes.append(node)
    assert set().union(*nodes) == cpus


@pytest.fixture
def toy_sizes(monkeypatch):
    """Shrink every workload so a round takes a second or two."""
    monkeypatch.setattr(workloads.Workload, "events", 200)
    monkeypatch.setattr(workloads.Realign, "size", 260)
    monkeypatch.setattr(workloads.Realign, "realign_every", 100)
    monkeypatch.setattr(workloads.Live, "size", 160)
    monkeypatch.setattr(workloads.Live, "preload", 80)
    monkeypatch.setattr(workloads.Live, "rate", 200.0)
    monkeypatch.setattr(workloads.Live, "min_rounds", 1)
    monkeypatch.setattr(workloads.Live, "refresh_interval", 0.2)


@pytest.mark.parametrize("name", ["realign", "live"])
def test_workload_round_matches_reference(name, toy_sizes, tmp_path):
    workload = workloads.WORKLOADS[name](7, str(tmp_path))
    result = workload.run_round(0, traced=True)
    assert not +result.failures
    assert workload.check(workload.reference(result), result) == []
    assert result.sent and result.read_attempts and result.push
    assert len(result.visible) == len(result.push)
    if name == "realign":
        assert result.layers["runtime.realign.count"] >= 2
    else:
        assert result.layers["connect.normalize.busy_s"] > 0
    assert set(result.layers) | {"bench.gen_late_p95_ms",
                                 "bench.trace_overhead",
                                 "bench.host_calib_ms"} == set(
        layers.LAYER_UNITS)
    assert result.peak_rss_mb > 0
    assert not list(tmp_path.iterdir())  # node and WAL directories removed


def test_check_flags_a_diverged_state(toy_sizes, tmp_path):
    workload = workloads.Realign(7, str(tmp_path))
    result = workload.run_round(0)
    result.digest = "0" * 64
    assert workload.check(workload.reference(result), result) == [
        "identification state differs from reference"
    ]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace, toy_sizes, capsys):
    assert run.main(["--workload", "realign", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = layers.LAYER_UNITS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        layers.LAYER_UNITS
    )
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    """Run from a tree holding only BENCHMARK.json and this directory."""
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "realign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
