"""Tests of the benchmark itself: contract, tracing, gate and seeding.

Run from the root of a checkout with ``python3 -m pytest bench/tests``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import jordanform
import jordanform.cli
import jordanform.jordan
import jordanform.matrices
import jordanform.nilpotent
from jordanform import Mat, Poly

import gate
import harness
import hostclock
import run
import tracing
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of one traced round of every workload."""
    return {name: harness.run(name, seed=3, seconds=0.01, trace=True) for name in workloads.NAMES}


def test_benchmark_json_matches_the_harness():
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert run.WORKLOADS == workloads.NAMES
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.LAYER_METRICS
    predictions = _load(os.path.join(BENCH, "predictions.json"))
    assert set(predictions["per_layer"]) == set(tracing.LAYER_METRICS)
    assert predictions["workloads"] == {w["name"]: w["why"] for w in spec["workloads"]}


def test_every_span_fires_on_the_workloads_it_names(traced):
    predictions = _load(os.path.join(BENCH, "predictions.json"))["per_layer"]
    for metric, row in predictions.items():
        for name in row["on"]:
            value = traced[name]["metrics"][metric]["value"]
            assert value > 0 or metric == "trace.overhead_ratio", (metric, name)


def test_traced_run_reports_every_layer_metric_and_passes_the_gate(traced):
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(tracing.LAYER_METRICS)
        assert result["metrics"]["trace.overhead_ratio"]["value"] > -1


def test_untraced_run_installs_no_wrapper(monkeypatch):
    originals = (Mat.__dict__["__mul__"], jordanform.jordan.rational_roots)

    def forbidden(self):
        raise AssertionError("tracer installed during an untraced run")

    monkeypatch.setattr(tracing.Tracer, "installed", forbidden)
    result = harness.run("stream", seed=5, seconds=0.01, trace=False)
    assert result["correct"]
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert (Mat.__dict__["__mul__"], jordanform.jordan.rational_roots) == originals


def test_wrappers_sit_where_callers_look_functions_up():
    looked_up = [
        (jordanform.jordan, "block_generators"), (jordanform.jordan, "rational_roots"),
        (jordanform.jordan, "solve_right"), (jordanform.cli, "char_poly"),
        (jordanform.cli, "generalized_eigenspace"), (jordanform.cli, "restrict"),
        (jordanform.cli, "d_sequence"), (jordanform.cli, "block_sizes"),
        (jordanform.matrices, "solve_right"), (jordanform.nilpotent, "extend_independent"),
        (jordanform, "jordan_form"), (Mat, "__mul__"), (Mat, "rref"), (Mat, "apply"),
        (Poly, "__call__"),
    ]
    before = [getattr(owner, attr) for owner, attr in looked_up]
    with tracing.Tracer().installed():
        during = [getattr(owner, attr) for owner, attr in looked_up]
    after = [getattr(owner, attr) for owner, attr in looked_up]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans.extend([
        ["jordan.jordan_form", 0.0, 10.0, -1, 0],
        ["jordan.char_poly", 1.0, 5.0, 0, 0],
        ["matrices.mul", 2.0, 4.0, 1, 0],
        ["jordan.generalized_eigenspace", 5.0, 8.0, 0, 0],
        ["matrices.mul", 6.0, 7.0, 3, 0],
    ])
    summary = tracer.summary()
    assert summary["jordan.jordan_form"]["self_s"] == 3.0
    assert summary["jordan.char_poly"]["self_s"] == 2.0
    assert summary["matrices.mul"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert tracer.muls_under("jordan.generalized_eigenspace") == 1


def test_gate_rejects_wrong_answers(tmp_path):
    workload = workloads.make("stream", str(tmp_path))
    inst = workload.build("k6")
    dec = jordanform.jordan_form(inst.a)
    gate.check_jordan_form(inst.a_rows, inst.spec.pairs, dec)
    bad_p = Mat([[x + (i == 0 == j) for j, x in enumerate(dec.p.row(i))]
                 for i in range(dec.p.nrows)])
    with pytest.raises(gate.Mismatch):
        gate.check_jordan_form(inst.a_rows, inst.spec.pairs,
                               jordanform.JordanDecomposition(dec.spectrum_blocks, dec.j, bad_p))
    with pytest.raises(gate.Mismatch):
        gate.check_similar(inst.a_rows, inst.a_rows, True, None)
    with pytest.raises(gate.Mismatch):
        gate.check_validate(True, False)


def test_changed_output_bytes_count_as_failures(tmp_path):
    workload = workloads.make("stream", str(tmp_path))
    inst = workload.build("k6")
    runner = harness.Runner(workload, expected={})
    stats = harness.Stats()
    runner.run_round([inst], stats)
    assert stats.failed == stats.attempted == len(workload.ops(inst))
    runner = harness.Runner(workload, expected=harness.load_digests("stream"))
    stats = harness.Stats()
    runner.run_round([inst], stats)
    assert stats.failed == 0, runner.errors


def test_digests_cover_every_pool_key(tmp_path):
    for name in workloads.NAMES:
        workload = workloads.make(name, str(tmp_path))
        keys = {key for stratum in workload.strata() for key in stratum}
        recorded = harness.load_digests(name)
        assert {k.split(":")[0] for k in recorded} == keys


def test_same_seed_gives_same_inputs(tmp_path):
    workload = workloads.make("tall_spectrum", str(tmp_path))
    first = harness.schedule(workload, 11)
    again = harness.schedule(workload, 11)
    assert [first(r) for r in range(4)] == [again(r) for r in range(4)]
    assert workload.build(first(0)[0]).a == workload.build(again(0)[0]).a
    assert first(0) != harness.schedule(workload, 12)(0)


def test_inputs_stress_what_each_workload_claims(tmp_path):
    tall = workloads.make("tall_spectrum", str(tmp_path))
    for key in tall.strata()[0][:4]:
        props = tall.build(key).properties
        assert 37 <= props["eigenvalue_height_bits"] <= 40
        assert 48 <= props["conjugator_bits"] <= 64
        assert props["const_term_bits"] >= 39
    stream = workloads.make("stream", str(tmp_path))
    assert [len(s) > 0 for s in stream.strata()] == [True] * 8
    assert workloads.Ladder.SIZES == (8, 12, 16, 20, 24)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _clock_with_ticks(ticks):
    clock = hostclock.HostClock()
    clock.ticks = list(ticks)
    clock._build()
    return clock


def test_host_clock_cancels_host_speed_and_skips_its_own_ticks():
    ticks = [(0.0, 0.001), (0.051, 0.052), (0.102, 0.104), (0.154, 0.155)]
    clock = _clock_with_ticks(ticks)
    rate = hostclock.NOMINAL_S / 0.001
    assert clock.ref(0.001) == 0.0
    assert clock.ref(0.051) == pytest.approx(0.05 * rate)
    assert clock.ref(0.0515) == clock.ref(0.052) == clock.ref(0.051)  # inside a tick
    assert clock.duration(0.001, 0.102) == pytest.approx(0.1 * rate)
    # The same work on a host half as fast: every wall stamp doubles, and so
    # does the calibration loop; reference time does not change.
    slow = _clock_with_ticks([(2 * a, 2 * b) for a, b in ticks])
    for t in (0.01, 0.07, 0.12, 0.154):
        assert slow.ref(2 * t) == pytest.approx(clock.ref(t))


def test_host_clock_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock().start()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.2:
        pass
    clock.stop()
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.ticks) >= 3
    assert 0 < clock.duration(start, start + 0.1) <= clock.ref(clock.ticks[-1][0])
