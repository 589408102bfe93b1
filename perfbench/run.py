"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tpcc-miss --seed 42 --seconds 10 --trace 0

Each invocation is one fresh process running one workload, with a private
trace-cache directory that is deleted on exit.  The workload is set up
several times from cold; ``setup_s`` is the time from the start of this
script to the end of its imports plus the median set-up.  Timed rounds then
run until ``--seconds`` of host time have been measured (and at least the
workload's ``min_rounds``); audits, parity checks and regime guards run
after each round, outside the timed region.  ``setup_s`` and
``host_tx_per_s`` are in reference seconds: host time calibrated against
the host's speed, sampled while the work runs (see ``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs a
traced pass of exactly one round with spans at every layer boundary and
prints the per-layer metrics instead; its spans are written to
``.perfbench/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero when
any transaction raised or any check failed.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("tpcc-miss", "tpcc-fit", "sweep-replay", "crash-restart")
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Layer of each traced span -> the per-layer metric holding its self time.
SELF_TIME_METRICS = {
    "tpcc": "tpcc.self_s",
    "core": "core.self_s",
    "buffer": "buffer.self_s",
    "flashcache": "flashcache.self_s",
    "storage.device": "storage.device.self_s",
    "storage.store": "storage.store.self_s",
    "wal": "wal.self_s",
    "recovery": "recovery.host_s",
    "sim.replay": "sim.replay.self_s",
    "sim.service": "sim.service.host_s",
    "sim.warmstate": "sim.warmstate.fork_s",
}

#: Boundary counts copied through unchanged.
COUNT_METRICS = (
    "tpcc.tx",
    "core.page_accesses",
    "buffer.lookups",
    "buffer.evictions",
    "buffer.dirty_evictions",
    "flashcache.lookups",
    "storage.disk.ops",
    "storage.disk.pages",
    "storage.flash.ops",
    "storage.flash.pages",
    "storage.log.ops",
    "storage.log.pages",
    "storage.store.gets",
    "storage.store.puts",
    "wal.records",
    "wal.forces",
    "wal.fpw",
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program or declaration)."""


def check_metric_names(names) -> None:
    """Raise ``ValueError`` for a name outside ``[A-Za-z0-9_.-]`` (64 at
    most, starting with a letter or digit) or used twice."""
    seen = set()
    for name in names:
        if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
            raise ValueError(f"invalid metric name {name!r}")
        if name in seen:
            raise ValueError(f"metric name {name!r} used twice")
        seen.add(name)


def load_declaration(root: Path = ROOT) -> dict:
    """Read ``BENCHMARK.json`` and validate its metric names."""
    path = root / "BENCHMARK.json"
    try:
        declaration = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path.name}: {exc}") from exc
    check_metric_names(
        [m["name"] for m in declaration["end_to_end"] + declaration["per_layer"]]
    )
    return declaration


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """Timed rounds of one workload.

    Untraced, rounds run until ``seconds`` of host time and at least the
    workload's ``min_rounds``.  Traced, exactly one round runs, so every
    per-layer count and self time describes the same work on any host.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        #: (start, end) ``perf_counter`` times of each timed round.
        self.intervals: list[tuple[float, float]] = []
        self.transactions = 0
        self.rounds = 0
        self.checks: list = []
        self.sims: list[dict] = []
        self.layer: dict = {}

    def run(self, workload, probes, seconds: float, tracer=None) -> "Pass":
        from tracing import install_boundaries

        while True:
            probes.take()  # drop anything a check collected
            getattr(workload, "before_round", lambda: None)()
            gc.collect()  # the previous round's garbage is not this round's cost
            if tracer is not None:
                install_boundaries(tracer)
            start = time.perf_counter()
            try:
                outcome = workload.run_round(probes)
            finally:
                end = time.perf_counter()
                self.seconds += end - start
                self.intervals.append((start, end))
                if tracer is not None:
                    tracer.restore()
            self.transactions += outcome.transactions
            self.rounds += 1
            self.checks += workload.check(outcome, probes)
            sim, self.layer = workload.summarise(outcome)
            self.sims.append(sim)
            del outcome
            if tracer is not None or (
                self.seconds >= seconds and self.rounds >= workload.min_rounds
            ):
                return self

    @property
    def tx_per_s(self) -> float:
        return ratio(self.transactions, self.seconds)


def per_layer_metrics(
    untraced_tx_per_s: float, traced: Pass, tracer, declared
) -> dict[str, float]:
    """Per-layer numbers of the traced pass (see ``perfbench/README.md``);
    ``untraced_tx_per_s`` is the untraced pass's rate in host seconds."""
    counts = tracer.counts
    # Zero stands for a layer the workload does not exercise (no restart
    # outside crash-restart, no replay outside sweep-replay).
    metrics = {name: 0.0 for name in declared}
    for layer, seconds in tracer.self_times().items():
        metrics[SELF_TIME_METRICS[layer]] = seconds
    metrics["untraced.self_s"] = traced.seconds - tracer.root_seconds()
    for name in COUNT_METRICS:
        metrics[name] = counts[name]
    metrics["tpcc.abort_fraction"] = ratio(counts["tpcc.aborts"], counts["tpcc.tx"])
    metrics["buffer.hit_rate"] = ratio(counts["buffer.hits"], counts["buffer.lookups"])
    metrics["flashcache.hit_rate"] = ratio(
        counts["flashcache.hits"], counts["flashcache.lookups"]
    )
    metrics.update(traced.layer)
    metrics["sim.service.latency_samples"] = traced.sims[0]["samples"]
    metrics["trace.host_tx_per_s"] = traced.tx_per_s
    metrics["trace.overhead"] = ratio(untraced_tx_per_s, traced.tx_per_s) - 1.0
    metrics["trace.timed_s"] = traced.seconds
    metrics["trace.spans"] = len(tracer)
    return metrics


def measure(args, declaration: dict) -> tuple[dict, list, int, dict]:
    """Set up, run the timed pass(es), check; returns (metrics, checks,
    transactions attempted, notes)."""
    from hostspeed import HostClock

    # Imports, set-ups and the untraced pass run on the calibrated clock;
    # the traced pass does not, so no sample lands inside a span.
    with HostClock() as clock:
        from workloads import WORKLOADS, Check, Probes, reset_process_state

        workload = WORKLOADS[args.workload](args.seed)
        imported = time.perf_counter()
        setup_intervals = []
        for _ in range(SETUP_REPEATS):
            reset_process_state()
            gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_intervals.append((start, time.perf_counter()))
        with Probes() as probes:
            untraced = Pass().run(workload, probes, args.seconds)
    rss = peak_rss_mb()
    passes = [untraced]
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with Probes() as probes:
            passes.append(Pass().run(workload, probes, args.seconds, tracer))

    # Starting the script and importing the package happen once; every
    # set-up sample carries that cost, so all of them are timed alike.
    import_s, import_reference_s = clock.measure(_PROCESS_START, imported)
    setups = [import_reference_s + clock.measure(*span)[1] for span in setup_intervals]
    host_s, reference_s = (
        sum(times) for times in zip(*(clock.measure(*span) for span in untraced.intervals))
    )

    checks = [check for p in passes for check in p.checks]
    sims = [sim for p in passes for sim in p.sims]
    if len(sims) > 1:
        checks.append(
            Check(
                f"simulated metrics repeat exactly across {len(sims)} rounds",
                "" if all(sim == sims[0] for sim in sims) else f"rounds differ: {sims}",
            )
        )
    sim = sims[0]
    notes = {
        "rounds": [p.rounds for p in passes],
        "import_s": import_s,
        "setup_samples_s": setups,
        "timed_host_speed": ratio(reference_s, host_s),
        "host_speed_samples": len(clock.samples),
        "uncalibrated_host_tx_per_s": ratio(untraced.transactions, host_s),
        "latency_samples": sim["samples"],
    }
    if args.trace:
        metrics = per_layer_metrics(
            ratio(untraced.transactions, host_s),
            passes[1],
            tracer,
            [m["name"] for m in declaration["per_layer"]],
        )
        path = WORK_DIR / f"spans-{args.workload}.tsv.gz"
        tracer.write(path)
        notes["spans_file"] = str(path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "host_tx_per_s": ratio(untraced.transactions, reference_s),
            "peak_rss_mb": rss,
            "sim_tpmc": sim["sim_tpmc"],
            "sim_p50_ms": sim["sim_p50_ms"],
            "sim_p99_ms": sim["sim_p99_ms"],
        }
        for name, value in metrics.items():
            if not value > 0.0:
                checks.append(Check(f"{name} is positive", f"{name} = {value}"))
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"] for m in declaration[section]}
    if set(metrics) != declared:
        checks.append(
            Check(
                f"emitted {section} metrics match BENCHMARK.json",
                f"missing {sorted(declared - set(metrics))}, "
                f"undeclared {sorted(set(metrics) - declared)}",
            )
        )
    attempted = sum(p.transactions for p in passes)
    return metrics, checks, attempted, notes


def isolate_environment() -> Path:
    """Drop inherited ``REPRO_*`` switches and point the trace cache at a
    private directory, so no run reuses another run's trace or settings."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    WORK_DIR.mkdir(exist_ok=True)
    cache = Path(tempfile.mkdtemp(prefix="trace-cache-", dir=WORK_DIR))
    os.environ["REPRO_TRACE_CACHE"] = str(cache)
    return cache


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        declaration = load_declaration()
    except (BenchmarkError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # A terminated run still removes its private trace cache.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cache = isolate_environment()
    units = {
        m["name"]: m["unit"] for m in declaration["end_to_end"] + declaration["per_layer"]
    }
    metrics, checks, attempted, notes = {}, [], 0, {}
    raised = 0
    try:
        metrics, checks, attempted, notes = measure(args, declaration)
    except Exception:  # a transaction or a cell raised: report, then fail
        traceback.print_exc()
        raised = 1
    finally:
        shutil.rmtree(cache, ignore_errors=True)

    failed_checks = [c for c in checks if c.problem]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in notes.items():
        print(f"  note {key}: {value}")
    print(f"  checks: {len(checks) - len(failed_checks)}/{len(checks)} passed")
    for check in failed_checks:
        print(f"  FAILED {check.name}: {check.problem}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units.get(name, '?')}")
    failed = raised + len(failed_checks)
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted + len(checks) + raised),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
