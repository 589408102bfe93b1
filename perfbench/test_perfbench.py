"""Tests for the benchmark's own code.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.tpcc.scale import TINY  # noqa: E402


def spans_self_times(spans):
    names, starts, ends, parents = zip(*spans)
    return tracing.self_times(names, starts, ends, parents)


# -- self time ------------------------------------------------------------------


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 4.0, 0),
        ("grandchild", 2.0, 3.0, 1),
        ("child2", 5.0, 7.0, 0),
    ]
    assert spans_self_times(spans) == pytest.approx(
        {"root": 5.0, "child": 2.0, "grandchild": 1.0, "child2": 2.0}
    )


def test_overlapping_children_are_covered_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 5.0, 0),
        ("b", 3.0, 8.0, 0),
        ("c", 4.0, 6.0, 0),
    ]
    # The children cover [1, 8] once: 7 of the root's 10 seconds.
    assert spans_self_times(spans)["root"] == pytest.approx(3.0)


def test_child_time_outside_its_parent_is_not_subtracted():
    spans = [("root", 0.0, 4.0, -1), ("late", 2.0, 6.0, 0)]
    assert spans_self_times(spans) == pytest.approx({"root": 2.0, "late": 4.0})


def test_spans_given_out_of_start_order():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("b", 6.0, 9.0, 0),
        ("a", 1.0, 2.0, 0),
    ]
    assert spans_self_times(spans)["root"] == pytest.approx(6.0)


def test_same_name_spans_add_up():
    spans = [("x", 0.0, 1.0, -1), ("x", 2.0, 4.0, -1)]
    assert spans_self_times(spans) == pytest.approx({"x": 3.0})


class _Base:
    def work(self, n):
        return n + 1


class _Derived(_Base):
    def work(self, n):
        return super().work(n) * 2


class _Outer:
    def __init__(self):
        self.inner = _Derived()

    def call(self):
        return self.inner.work(1) + self.inner.work(2)


def test_tracer_self_times_sum_to_root_spans_and_restore():
    tracer = tracing.Tracer()
    tracer.wrap(_Outer, "call", "outer", root=True)
    for cls in (_Base, _Derived):
        tracer.wrap(cls, "work", "inner", lambda c, a, k, r: c.update(["calls"]))
    assert _Outer().call() == 10
    tracer.restore()
    # super() re-enters the same boundary: one span per outer call, but
    # the count hooks of both levels ran.
    assert len(tracer) == 3
    assert tracer.counts["calls"] == 4
    assert list(tracer.tx) == [1, 1, 1]
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.root_seconds())
    assert "work" in _Derived.__dict__ and _Derived.work.__name__ == "work"
    assert not hasattr(_Derived.work, "__wrapped__")


# -- calibrated host clock ------------------------------------------------------


def _clock(samples):
    clock = hostspeed.HostClock()
    clock.samples = samples
    return clock


def test_reference_seconds_scale_each_gap_by_local_speed(monkeypatch):
    monkeypatch.setattr(hostspeed, "WINDOW", 0)
    ref = hostspeed.REFERENCE_S
    # Samples at 1 s and 3 s; the host runs the routine at reference speed
    # around the first and at half speed around the second.
    clock = _clock([(1.0, 1.0 + ref), (3.0, 3.0 + 2 * ref)])
    host, reference_s = clock.measure(0.0, 4.0)
    # Gaps: [0, 1] before sample 0, [1+ref, 3] before sample 1, and the
    # tail [3+2ref, 4] scaled like the last sample.
    assert host == pytest.approx(4.0 - 3 * ref)
    assert reference_s == pytest.approx(1.0 + (2.0 - ref) * 0.5 + (1.0 - 2 * ref) * 0.5)


def test_reference_seconds_of_an_interval_between_samples():
    ref = hostspeed.REFERENCE_S
    clock = _clock([(float(t), t + 2 * ref) for t in range(10)])
    # Half speed everywhere: an interval with no sample inside counts half.
    assert clock.measure(4.5, 4.9) == pytest.approx((0.4, 0.2))
    # The part of a sample straddling the start is not counted as work.
    assert clock.measure(5.0 + ref, 5.5)[0] == pytest.approx(0.5 - 2 * ref)


def test_a_slow_sample_does_not_move_the_local_speed():
    ref = hostspeed.REFERENCE_S
    samples = [(float(t), t + ref) for t in range(10)]
    samples[5] = (5.0, 5.0 + 50 * ref)  # one sample hit by a pause
    assert _clock(samples).measure(5.0 + 50 * ref, 6.0)[1] == pytest.approx(
        1.0 - 50 * ref
    )


def test_measure_needs_samples():
    with pytest.raises(ValueError, match="samples"):
        hostspeed.HostClock().measure(0.0, 1.0)


def test_clock_samples_while_active_and_restores_the_handler(monkeypatch):
    monkeypatch.setattr(hostspeed, "INTERVAL_S", 0.01)
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock() as clock:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert len(clock.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- percentiles -----------------------------------------------------------------


def test_quantile_is_nearest_rank_with_sample_count():
    samples = list(range(1, 1001))
    assert workloads.quantile(samples, 0.5) == (500, 1000)
    assert workloads.quantile(samples, 0.99) == (990, 1000)
    assert workloads.quantile(reversed(samples), 0.99) == (990, 1000)


def test_quantile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="beyond"):
        workloads.quantile(range(100), 0.99)
    assert workloads.quantile(range(100), 0.99, min_beyond=1) == (98, 100)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 2.0])
def test_quantile_rejects_out_of_range(q):
    with pytest.raises(ValueError, match="within"):
        workloads.quantile(range(100), q)


# -- metric names and the declaration ---------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "storage.disk.busy_s", "sim.p99-ms", "9lives"])
def test_valid_metric_names(name):
    run.check_metric_names([name])


@pytest.mark.parametrize("name", ["", "a b", "_x", ".x", "x/y", "x" * 65, 3])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError, match="invalid"):
        run.check_metric_names([name])


def test_duplicate_metric_names():
    with pytest.raises(ValueError, match="twice"):
        run.check_metric_names(["a", "b", "a"])


def test_declaration_names_every_metric_the_harness_emits():
    declaration = run.load_declaration()
    assert [w["name"] for w in declaration["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    per_layer = {m["name"] for m in declaration["per_layer"]}
    assert set(run.SELF_TIME_METRICS.values()) <= per_layer
    assert set(run.COUNT_METRICS) <= per_layer
    setup = next(m for m in declaration["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    bounds = [m["bound"] for m in declaration["end_to_end"]]
    assert max(bounds) <= 0.25 and setup["bound"] == max(bounds)


# -- regime guards ------------------------------------------------------------------


def test_miss_regime_guard_trips_at_tiny_scale():
    # At TINY scale the whole database fits the flash cache: flash hit
    # rate 1.0 and the CPU is the bottleneck, so tpcc-miss is out of regime.
    workload = workloads.TpccService(
        "tpcc-miss", 0.004, seed=42, scale=TINY, measure_transactions=300
    )
    workload.setup()
    with workloads.Probes() as probes:
        outcome = workload.run_round(probes)
        checks = workload.check(outcome, probes)
    failed = {check.name for check in checks if check.problem}
    assert "regime guard: tpcc-miss 0 < flash hit < 1" in failed
    assert "regime guard: tpcc-miss disk bottleneck" in failed
    # The audits still pass: the guard, not correctness, rejects the run.
    assert not [name for name in failed if "guard" not in name]


# -- the command -----------------------------------------------------------------------


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tpcc-miss", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "missing" in proc.stderr
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]
