"""Closed-loop, single-threaded benchmark harness.

One client runs one op at a time and starts the next only when the
previous one returned. An op is one call to a public entry point
(``jordan_form``, ``matrix_exp``, ``validate_decomposition``, ``similar``,
or one ``cli.run`` command line). Only the call itself is timed; building
inputs, the correctness gate and digest checks run between ops.

Times are taken in wall seconds and reported in reference seconds: the
``hostclock.HostClock`` that runs through the whole run scales each stretch
of wall time by the host speed it measured at that moment, so a shared
core's slow and fast phases do not show up as changes of the package.
``--seconds`` and the round loop still count wall seconds.

A run repeats whole rounds (one instance of every stratum, see
``workloads``) until the timed ops add up to ``seconds``. With tracing on,
it first runs rounds untraced for a third of ``seconds``, then replays the
same rounds with the tracer installed; per-layer figures come from the
replay and ``trace.overhead_ratio`` compares the two.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from time import perf_counter

import gate
import tracing
import workloads
from hostclock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it
MAX_ERROR_LINES = 5

#: end-to-end metrics every workload reports: name -> (unit, better); the
#: times are reference seconds (see ``hostclock``). Latency is gated as a
#: mean: a median over the few samples of one input size jumps between
#: neighbouring samples from seed to seed. p50 and p90 are report lines.
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "jordan_form_mean_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def digest_path(name: str) -> str:
    return os.path.join(HERE, "digests", f"{name}.json")


def load_digests(name: str) -> dict[str, str]:
    with open(digest_path(name), encoding="utf-8") as handle:
        return json.load(handle)["digests"]


class Stats:
    """Latencies and outcomes of the timed ops of one phase.

    Ops are recorded as wall stamps; ``resolve`` turns them into reference
    latencies once the clock has stopped.
    """

    def __init__(self):
        self.stamps: list[tuple[str, str, float, float]] = []  # kind, group, start, end
        self.by_kind: dict[str, list[float]] = {}
        self.by_group: dict[str, list[float]] = {}
        self.all: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        self.timed_s = 0.0
        self.cli_calls = 0
        self.stdout_bytes = 0

    def resolve(self, clock: HostClock) -> None:
        for kind, group, start, end in self.stamps:
            elapsed = clock.duration(start, end)
            self.all.append(elapsed)
            self.by_kind.setdefault(kind, []).append(elapsed)
            if kind == "jordan_form":
                self.by_group.setdefault(group, []).append(elapsed)
        self.timed_s = math.fsum(self.all)


class Runner:
    """Runs ops, times them, and gates every result.

    With ``expected`` set, each op's output digest must equal the recorded
    one; with ``expected=None`` the digests are collected in ``recorded``.
    """

    def __init__(self, workload, expected: dict[str, str] | None, tracer=None):
        self.workload = workload
        self.expected = expected
        self.recorded: dict[str, str] = {}
        self.tracer = tracer
        self.errors: list[str] = []

    def run_round(self, instances, stats: Stats) -> None:
        for inst in instances:
            for op in self.workload.ops(inst):
                self.run_op(inst, op, stats)

    def run_op(self, inst, op, stats: Stats) -> None:
        if self.tracer is not None:
            self.tracer.op = stats.attempted
        start = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # an op that raises is counted as failed
            end = perf_counter()
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            end = perf_counter()
            problem = self._check(f"{inst.key}:{op.label}", op, out)
            if op.kind == "cli":
                stats.cli_calls += 1
                stats.stdout_bytes += len(out[1].encode())
        stats.attempted += 1
        stats.wall_s += end - start
        stats.stamps.append((op.kind, inst.group, start, end))
        if problem is not None:
            stats.failed += 1
            self.errors.append(f"{inst.key}:{op.label}: {problem}")

    def _check(self, key: str, op, out) -> str | None:
        try:
            found = gate.digest(op.check(out))
        except gate.Mismatch as exc:
            return f"wrong answer: {exc}"
        if self.expected is None:
            self.recorded[key] = found
            return None
        if self.expected.get(key) != found:
            return f"output bytes changed (digest {found}, recorded {self.expected.get(key)})"
        return None


def schedule(workload, seed: int):
    """Keys of round r: the r-th key of every stratum, in a seeded order."""
    rng = random.Random(seed)
    orders = [rng.sample(keys, len(keys)) for keys in workload.strata()]
    return lambda r: [order[r % len(order)] for order in orders]


def _ms(values: list[float]) -> float:
    return statistics.median(values) * 1000


def _input_lines(props: list[dict]) -> list[str]:
    lines = []
    for key in props[0]:
        values = [p[key] for p in props]
        lines.append(f"input.{key}: min {min(values)} max {max(values)}")
    return lines


@contextlib.contextmanager
def scratch_dir(label: str):
    """A fresh directory under ``.bench_tmp`` of the checkout, removed on exit."""
    path = os.path.join(ROOT, ".bench_tmp", f"{label}-{os.getpid()}")
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass  # another run still uses it


def run(name: str, seed: int, seconds: float, trace: bool,
        clock: HostClock | None = None, started: float | None = None) -> dict:
    """One benchmark run; returns the result object plus report lines.

    ``clock`` is a running ``HostClock`` and ``started`` the wall stamp at
    which set-up began (before the imports); by default both start here.
    The clock is stopped on return.
    """
    if started is None:
        started = perf_counter()
    if clock is None:
        clock = HostClock().start()
    try:
        with scratch_dir(name) as workdir:
            return _run(name, workdir, seed, seconds, trace, clock, started)
    finally:
        clock.stop()


def _run(name, workdir, seed, seconds, trace, clock, started) -> dict:
    expected = load_digests(name)
    workload = workloads.make(name, workdir)
    keys_of = schedule(workload, seed)
    once_end = perf_counter()
    repeats = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        first = [workload.build(key) for key in keys_of(0)]
        for op in workload.ops(first[0]):
            op.call()  # warm-up: first-call costs stay out of the timed ops
        repeats.append((t, perf_counter()))

    runner = Runner(workload, expected)
    phase = Stats()
    budget = seconds / 3 if trace else seconds
    # Only a traced run keeps its rounds, for the replay: otherwise the peak
    # RSS would grow with the number of rounds the host's speed allowed.
    rounds, props, current, done = [], [], first, 0
    while True:
        gc.collect()  # every round starts from a collected heap
        runner.run_round(current, phase)
        done += 1
        props += [inst.properties for inst in current]
        if trace:
            rounds.append(current)
        if phase.wall_s >= budget:
            break
        current = [workload.build(key) for key in keys_of(done)]
    if trace:
        tracer = tracing.Tracer()
        traced = Stats()
        runner.tracer = tracer
        with tracer.installed():
            for rnd in rounds:
                gc.collect()
                runner.run_round(rnd, traced)
    clock.stop()

    setup_s = clock.duration(started, once_end) + statistics.median(
        clock.duration(a, b) for a, b in repeats)
    phase.resolve(clock)
    report = [
        f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}",
        f"rounds {done} instances {len(props)}",
        f"host speed {clock.speed()} reference s per wall s over {len(clock.ticks)} ticks; "
        f"timed ops {phase.timed_s} reference s, {phase.wall_s} wall s",
        *_input_lines(props),
    ]
    if trace:
        traced.resolve(clock)
        tracer.to_reference(clock)
        values = tracer.layer_metrics(
            ops=traced.attempted, cli_calls=traced.cli_calls,
            stdout_bytes=traced.stdout_bytes,
            untraced_s=phase.timed_s, traced_s=traced.timed_s,
        )
        units = {m: unit for m, (unit, _) in tracing.LAYER_METRICS.items()}
        report += _span_lines(tracer, traced.attempted)
        attempted = phase.attempted + traced.attempted
        failed = phase.failed + traced.failed
    else:
        values = _end_to_end(phase, setup_s)
        units = {m: unit for m, (unit, _) in END_TO_END.items()}
        report += _latency_lines(phase)
        attempted, failed = phase.attempted, phase.failed
    report.append(f"fail_ratio {failed / attempted} ({failed} of {attempted} ops)")
    report += [f"{m} {v} {units[m]}" for m, v in values.items()]
    for line in runner.errors[:MAX_ERROR_LINES]:
        print(f"failed op {line}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        "report": report,
    }


def _end_to_end(stats: Stats, setup_s: float) -> dict[str, float]:
    return {
        "ops_per_s": stats.attempted / stats.timed_s,
        "jordan_form_mean_ms": statistics.fmean(stats.by_kind["jordan_form"]) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _latency_lines(stats: Stats) -> list[str]:
    """Latency figures beyond the gated set, each with its sample count."""
    n = len(stats.all)
    lines = [
        f"samples {n} ops, timed_s {stats.timed_s}",
        f"op_p50_ms {_ms(stats.all)} ms (samples {n})",
    ]
    if n >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(stats.all, n=10, method="inclusive")[-1] * 1000
        lines.append(f"op_p90_ms {p90} ms (samples {n})")
    else:
        lines.append(f"op_p90_ms not reported: {n} samples, fewer than {P90_MIN_SAMPLES}")
    for kind, values in sorted(stats.by_kind.items()):
        lines.append(f"{kind}_p50_ms {_ms(values)} ms (samples {len(values)})")
    for group, values in stats.by_group.items():
        lines.append(f"jordan_form_p50_ms[{group}] {_ms(values)} ms (samples {len(values)})")
    return lines


def _span_lines(tracer, ops: int) -> list[str]:
    lines = [f"traced ops {ops}; span totals over the traced replay:"]
    for name, entry in sorted(tracer.summary().items()):
        lines.append(
            f"span {name} calls {entry['calls']} total_s {entry['total_s']:.4f} "
            f"self_s {entry['self_s']:.4f}"
        )
    return lines
