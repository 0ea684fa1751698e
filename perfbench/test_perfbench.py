"""Tests of the benchmark harness itself (not of the library).

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import re
import signal
import sys
import time

import pytest

import run
from spans import Tracer, layer_of, self_times
from speed import REF_LOOP_S, Speed

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def bench(monkeypatch):
    """Run the harness in this process and put the library modules the
    other tests imported back afterwards (the harness re-imports them)."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "treeforms"}
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(run, "SETUP_SHARE", 0.0)
    with open(run.GOLDEN) as fh:
        golden = json.load(fh)
    yield golden
    for k in [k for k in sys.modules if k.split(".")[0] == "treeforms"]:
        del sys.modules[k]
    sys.modules.update(saved)


def _run(capsys, golden, trace=0):
    code = run.main(["--workload", "cli-suites", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], golden=golden)
    last = capsys.readouterr().out.splitlines()[-1]
    return code, json.loads(last)


def test_benchmark_json_lists_exactly_the_emitted_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    names = [name for name, _unit in run.END_TO_END + run.PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(unit) for _name, unit in run.END_TO_END + run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.all_workloads(run.ROOT))


def test_untraced_and_traced_runs_emit_valid_names(bench, capsys):
    code, result = _run(capsys, bench, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _unit in run.END_TO_END]
    code, result = _run(capsys, bench, trace=1)
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [name for name, _unit in run.PER_LAYER]
    assert all(NAME.match(name) for name in result["metrics"])
    assert result["metrics"]["cli.main.check-euler.s"]["value"] > 0


def test_wrong_golden_answer_fails_and_sets_exit_status(bench, capsys):
    wrong = copy.deepcopy(bench)
    wrong["cli-suites"]["cases"]["check-euler"]["harmonic_dim"] += 1
    code, result = _run(capsys, wrong)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 14


def test_changed_case_list_is_refused(bench, capsys):
    shrunk = copy.deepcopy(bench)
    del shrunk["harmonic-grid"]["cases"]["q2-R5-k3/intersect"]
    code = run.main(["--workload", "harmonic-grid", "--seed", "0", "--seconds", "0"],
                    golden=shrunk)
    assert code == 2
    assert capsys.readouterr().out == ""


def test_self_time_on_synthetic_span_tree():
    # id, name, start, end, parent, pass
    spans = [
        (0, "pass", 0.0, 10.0, None, "p0"),
        (1, "case a", 1.0, 4.0, 0, "p0"),
        (2, "radon.primitive", 2.0, 3.0, 1, "p0"),
        (3, "case b", 5.0, 7.0, 0, "p0"),
        (4, "outer", 20.0, 24.0, None, "p1"),
        (5, "inner1", 21.0, 23.0, 4, "p1"),   # children overlap and overrun:
        (6, "inner2", 22.0, 25.0, 4, "p1"),   # covered part is [21, 24]
    ]
    got = self_times(spans)
    assert got == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 2.0, 6: 3.0}
    assert layer_of("radon.primitive") == "radon"
    assert layer_of("case q2-R3-k0/euler") == "bench"


def test_layer_metrics_take_pass_medians_and_report_yield_bases():
    tr = Tracer()
    with tr.span("tree.build_ball"):
        pass
    tr.count("radon.apartment_count", 40)
    for pid, rows in (("pass0", 10), ("pass1", 30), ("pass2", 20)):
        tr.pass_id = pid
        with tr.span("pass"):
            tr.call("radon.primitive", lambda: None)
        tr.count("radon.kernel_rows_distinct", rows)
    m = run.layer_metrics(tr)
    assert m["radon.kernel_rows_distinct"] == 20
    assert m["radon.apartment_count"] == 40
    assert m["radon.kernel_row_yield"] == 0.5
    assert m["tree.build_ball.s"] > 0 and m["radon.primitive.s"] > 0
    assert m["trace.spans"] == 2
    assert m["padic.tree_distance.s"] == 0


def test_speed_removes_sampler_time_and_scales_by_nearby_loop_times():
    sp = Speed()
    # (start, duration): the machine runs at half the reference speed near
    # t = 10 and at the reference speed from t = 100 on.
    for t, d in ((9.8, 2 * REF_LOOP_S), (10.2, 2 * REF_LOOP_S), (10.5, 2 * REF_LOOP_S),
                 (10.9, 2 * REF_LOOP_S), (100.0, REF_LOOP_S), (100.1, REF_LOOP_S),
                 (100.2, REF_LOOP_S), (100.3, REF_LOOP_S)):
        sp.starts.append(t)
        sp.durations.append(d)
    assert sp.busy(10.0, 11.0) == pytest.approx(1.0 - 3 * 2 * REF_LOOP_S)
    assert sp.seconds(10.0, 11.0) == pytest.approx(sp.busy(10.0, 11.0) / 2)
    assert sp.seconds(100.05, 100.25) == pytest.approx(0.2 - 2 * REF_LOOP_S)
    # No sample within the window: the nearest ones on either side count.
    assert sp.loop_time(50.0, 50.1) == pytest.approx(1.5 * REF_LOOP_S)


def test_speed_sampler_runs_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    sp = Speed()
    sp.start()
    try:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    finally:
        sp.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(sp.starts) > 8 and sp.starts == sorted(sp.starts)
