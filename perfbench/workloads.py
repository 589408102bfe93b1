"""The benchmark's workloads: set-up, timed rounds, checks and regime guards.

Every workload is TPC-C at ``BENCH`` scale (17,409 pages) on the memory
page store, driven in one process through the package's public API.  A
workload object has four parts the harness (``run.py``) calls:

* ``setup()`` builds the cold shared state a round starts from (the loaded
  database snapshot; for ``sweep-replay`` also the boundary trace), and an
  optional ``before_round()`` resets memos between rounds, untimed;
* ``run_round()`` is the timed work: whole cells, from that state to their
  results.  It returns an :class:`Outcome` holding the cells' systems;
* ``check(outcome, probes)`` runs the audits, the parity check and the
  regime guard, outside the timed region;
* ``summarise(outcome)`` reads the simulated metrics, which are
  deterministic for a seed.

``min_rounds`` is the number of timed rounds a pass runs at least, so the
harness can compare the simulated metrics of two rounds.  ``sweep-replay``
runs one (a round is longer than ``--seconds``) and compares its headline
cell with a full execution of the same cell in ``check`` instead.

Why each workload was chosen is in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import repro.sim.warmstate as warmstate
from repro import (
    CellSpec,
    ExperimentConfig,
    ExperimentRunner,
    RecoveryManager,
    run_cells,
)
from repro.db.verify import verify_all
from repro.sim.kernel import kernel_totals, reset_kernel_totals
from repro.sim.replay import ReplayRunner, clear_recorders, get_recorder
from repro.sim.scenario import run_until_crash_point
from repro.sim.service import (
    RESOURCE_ORDER,
    ServiceSimulation,
    TxnDemand,
)
from repro.tpcc.consistency import check_all
from repro.tpcc.scale import BENCH

#: Closed-loop clients in every service measurement (the paper's setup).
CLIENTS = 50
#: Samples a reported percentile must leave beyond it.
MIN_BEYOND = 10


def quantile(samples, q: float, min_beyond: int = MIN_BEYOND) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile of ``samples`` and the sample count.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie
    beyond the quantile's rank, so a reported tail is never one or two
    outliers.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be within (0, 1), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {n} samples leaves {n - rank} beyond it; "
            f"need at least {min_beyond}"
        )
    return ordered[rank - 1], n


# -- probes: public methods wrapped for the whole run ---------------------------


class _Recording:
    """Histogram stand-in that keeps every observed value."""

    def __init__(self, inner, samples: list[float]) -> None:
        self.inner = inner
        self.samples = samples

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self.inner.observe(value)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


class Probes:
    """Wraps two public methods for the whole run.

    * ``ServiceSimulation.run`` keeps every per-transaction latency, so
      percentiles are exact instead of read from histogram buckets;
    * ``ReplayRunner.__init__`` keeps each replay runner, so the systems a
      sweep replayed can be audited after the timed region.
    """

    def __init__(self) -> None:
        self.latencies: list[list[float]] = []
        self.replay_runners: list[ReplayRunner] = []
        self._saved: list[tuple[type, str, Any]] = []

    def __enter__(self) -> "Probes":
        probes = self
        run = ServiceSimulation.__dict__["run"]
        init = ReplayRunner.__dict__["__init__"]

        def tapped_run(sim):
            samples: list[float] = []
            probes.latencies.append(samples)
            sim.histogram = _Recording(sim.histogram, samples)
            try:
                return run(sim)
            finally:
                sim.histogram = sim.histogram.inner

        def kept_init(runner, *args, **kwargs):
            init(runner, *args, **kwargs)
            probes.replay_runners.append(runner)

        self._saved = [(ServiceSimulation, "run", run), (ReplayRunner, "__init__", init)]
        ServiceSimulation.run = tapped_run
        ReplayRunner.__init__ = kept_init
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in self._saved:
            setattr(owner, name, original)

    def take(self) -> tuple[list[list[float]], list[ReplayRunner]]:
        """Hand over (and forget) what was collected since the last take."""
        taken = (self.latencies, self.replay_runners)
        self.latencies, self.replay_runners = [], []
        return taken


# -- outcomes --------------------------------------------------------------------


@dataclass
class Cell:
    """One executed cell: its key, system, result and latencies."""

    key: tuple
    runner: Any
    result: Any
    latencies: list[float] = field(default_factory=list)
    #: Simulated state captured before a crash wiped it (crash cells).
    busy: dict[str, float] = field(default_factory=dict)
    wall: float = 0.0
    cache_stats: Any = None
    report: Any = None


@dataclass
class Outcome:
    """What one timed round produced."""

    cells: list[Cell]
    #: Simulated transactions executed (warm-up, measured, replayed and
    #: pre-crash).
    transactions: int
    #: Transactions recorded natively (not replayed) during the round.
    native_tx: int = 0
    kernel: dict[str, Any] = field(default_factory=dict)

    def cell(self, key: tuple) -> Cell:
        return next(cell for cell in self.cells if cell.key == key)


@dataclass
class Check:
    """One correctness check: ``problem`` is empty when it passed."""

    name: str
    problem: str = ""


def _audit(name: str, runner, database=None) -> list[Check]:
    checks = []
    if database is not None:
        report = check_all(database)
        checks.append(Check(f"{name}: tpcc consistency", "; ".join(report.violations[:3])))
    report = verify_all(runner.dbms)
    checks.append(Check(f"{name}: tier/directory verify", "; ".join(report.violations[:3])))
    return checks


def _guard(name: str, ok: bool, detail: str) -> Check:
    return Check(f"regime guard: {name}", "" if ok else detail)


def _fork_loader(seed: int):
    return lambda dbms, scale: warmstate.fork_database(dbms, scale, seed)


def _device_layer(busy: dict[str, float], wall: float) -> dict[str, float]:
    values = {}
    for device in ("disk", "flash", "log"):
        values[f"storage.{device}.busy_s"] = busy.get(device, 0.0)
        values[f"storage.{device}.utilization"] = (
            busy.get(device, 0.0) / wall if wall > 0 else 0.0
        )
    return values


def _cache_layer(stats, cache) -> dict[str, float]:
    return {
        "flashcache.flash_writes": stats.flash_writes,
        "flashcache.disk_writes": stats.disk_writes,
        "flashcache.write_reduction": stats.write_reduction,
        "flashcache.duplicate_fraction": getattr(cache, "duplicate_fraction", 0.0),
    }


def _service_layer(result) -> dict[str, float]:
    values = {}
    for resource in RESOURCE_ORDER:
        values[f"sim.service.queue_wait_ms.{resource}"] = (
            result.queue_wait_mean.get(resource, 0.0) * 1000.0
        )
        values[f"sim.service.utilization.{resource}"] = result.utilization.get(
            resource, 0.0
        )
    return values


def _latency_metrics(samples: list[float]) -> dict[str, float]:
    p50, n = quantile(samples, 0.50)
    p99, _ = quantile(samples, 0.99)
    return {"sim_p50_ms": p50 * 1000.0, "sim_p99_ms": p99 * 1000.0, "samples": n}


def _cleaner_flushes(cells: list[Cell]) -> int:
    return sum(
        getattr(cell.runner.dbms.cache, "cleaner_flushes", 0)
        for cell in cells
        if cell.key[0] == "lc"
    )


# -- tpcc-miss / tpcc-fit ----------------------------------------------------------


class TpccService:
    """One FaCE+GSC cell under 50 closed-loop clients, fully executed."""

    min_rounds = 2

    def __init__(
        self,
        name: str,
        buffer_fraction: float,
        seed: int = 42,
        scale=BENCH,
        measure_transactions: int = 3000,
    ) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.config = ExperimentConfig(
            scale=scale,
            seed=seed,
            policy="face+gsc",
            cache_fraction=0.12,
            buffer_fraction=buffer_fraction,
            scenario="service",
            n_clients=CLIENTS,
            measure_transactions=measure_transactions,
        )

    def setup(self) -> None:
        warmstate.get_snapshot(self.scale, self.seed)

    def run_round(self, probes: Probes) -> Outcome:
        runner = ExperimentRunner(
            self.config.system_config(),
            self.scale,
            seed=self.seed,
            loader=_fork_loader(self.seed),
        )
        result = self.config.build_scenario().execute(runner)
        latencies, _ = probes.take()
        cell = Cell(("face+gsc", self.config.buffer_fraction), runner, result, latencies[-1])
        return Outcome([cell], runner.warmup_transactions + result.transactions)

    def regime(self, outcome: Outcome) -> list[Check]:
        cell = outcome.cells[0]
        dbms = cell.runner.dbms
        dram = dbms.buffer.stats.hit_rate
        flash = dbms.cache.stats.flash_hit_rate
        bottleneck = cell.result.bottleneck
        if self.name == "tpcc-miss":
            return [
                _guard("tpcc-miss DRAM hit < 0.6", dram < 0.6, f"DRAM hit {dram:.3f}"),
                _guard(
                    "tpcc-miss 0 < flash hit < 1", 0.0 < flash < 1.0, f"flash hit {flash:.3f}"
                ),
                _guard(
                    "tpcc-miss disk bottleneck", bottleneck == "disk", f"bottleneck {bottleneck}"
                ),
            ]
        return [
            _guard("tpcc-fit DRAM hit >= 0.99", dram >= 0.99, f"DRAM hit {dram:.3f}"),
            _guard("tpcc-fit cpu bottleneck", bottleneck == "cpu", f"bottleneck {bottleneck}"),
        ]

    def check(self, outcome: Outcome, probes: Probes) -> list[Check]:
        cell = outcome.cells[0]
        return _audit(self.name, cell.runner, cell.runner.database) + self.regime(outcome)

    def summarise(self, outcome: Outcome) -> tuple[dict, dict]:
        cell = outcome.cells[0]
        dbms = cell.runner.dbms
        sim = {"sim_tpmc": cell.result.tpmc, **_latency_metrics(cell.latencies)}
        layer = {
            **_device_layer(dbms.resource_times(), dbms.wall_clock()),
            **_cache_layer(dbms.cache.stats, dbms.cache),
            **_service_layer(cell.result),
        }
        return sim, layer


# -- sweep-replay --------------------------------------------------------------------


class SweepReplay:
    """{face+gsc, face, lc} x {4%, 12%} flash, replayed by the --fast engine."""

    POLICIES = ("face+gsc", "face", "lc")
    FRACTIONS = (0.04, 0.12)
    HEADLINE = ("face+gsc", 0.12)
    scale = BENCH
    min_rounds = 1

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        base = ExperimentConfig(
            scale=self.scale,
            seed=seed,
            scenario="service",
            n_clients=CLIENTS,
            measure_transactions=2000,
            warmup_max=2000,
        )
        self.specs = [
            CellSpec.from_config((policy, fraction), base.with_(policy=policy, cache_fraction=fraction))
            for fraction in self.FRACTIONS
            for policy in self.POLICIES
        ]
        self.record_s: list[float] = []

    def _recorder(self):
        return get_recorder(self.scale, self.seed)

    def setup(self) -> None:
        start = time.perf_counter()
        bound = max(spec.resolve_scenario().trace_bound() for spec in self.specs)
        self._recorder().ensure(bound)
        self.record_s.append(time.perf_counter() - start)

    def before_round(self) -> None:
        # Each round replays cold, as a --fast sweep in a fresh process
        # does: drop the post-warm-up forks the previous round captured.
        warmstate.clear_snapshots()

    def run_round(self, probes: Probes) -> Outcome:
        recorded_before = self._recorder().trace.n_transactions
        reset_kernel_totals()
        results = run_cells(self.specs, jobs=1, fast=True)
        latencies, runners = probes.take()
        native = self._recorder().trace.n_transactions - recorded_before
        if len(runners) != len(self.specs) or len(latencies) != len(self.specs):
            raise RuntimeError(
                f"expected {len(self.specs)} replayed cells, saw {len(runners)} "
                f"replays and {len(latencies)} service runs"
            )
        cells = [
            Cell(spec.key, runner, results[spec.key], samples)
            for spec, runner, samples in zip(self.specs, runners, latencies)
        ]
        transactions = sum(
            cell.result.warmup_transactions + cell.result.transactions for cell in cells
        )
        return Outcome(cells, transactions, native_tx=native, kernel=kernel_totals())

    def regime(self, outcome: Outcome) -> list[Check]:
        checks = []
        for fraction in self.FRACTIONS:
            tpmc = {p: outcome.cell((p, fraction)).result.tpmc for p in self.POLICIES}
            checks.append(
                _guard(
                    f"sweep-replay tpmC differs between policies at {fraction:.0%}",
                    len(set(tpmc.values())) == len(tpmc),
                    f"tpmC {tpmc}",
                )
            )
        checks.append(
            _guard(
                "sweep-replay records nothing in the timed pass",
                outcome.native_tx == 0,
                f"{outcome.native_tx} transactions recorded natively",
            )
        )
        return checks

    def check(self, outcome: Outcome, probes: Probes) -> list[Check]:
        checks = []
        for cell in outcome.cells:
            checks += _audit(f"sweep-replay {cell.key}", cell.runner)
        # Parity: the headline cell, fully executed, must equal its replay
        # field for field, down to every transaction's latency, so the
        # simulated metrics are reproduced even in a one-round pass.  A
        # replayed system holds no rows, so the TPC-C audit runs on this
        # full execution.
        spec = next(spec for spec in self.specs if spec.key == self.HEADLINE)
        runner = ExperimentRunner(
            spec.config, self.scale, seed=spec.seed, loader=_fork_loader(spec.seed)
        )
        full = spec.resolve_scenario().execute(runner)
        full_latencies = probes.take()[0][-1]
        head = outcome.cell(self.HEADLINE)
        checks.append(
            Check(
                f"sweep-replay parity {self.HEADLINE}",
                "" if full == head.result else f"full {full.tpmc} != replayed {head.result.tpmc}",
            )
        )
        checks.append(
            Check(
                f"sweep-replay latency parity {self.HEADLINE}",
                "" if full_latencies == head.latencies
                else f"{len(full_latencies)} full vs {len(head.latencies)} replayed latencies differ",
            )
        )
        checks += _audit(f"sweep-replay full {self.HEADLINE}", runner, runner.database)
        return checks + self.regime(outcome)

    def summarise(self, outcome: Outcome) -> tuple[dict, dict]:
        head = outcome.cell(self.HEADLINE)
        dbms = head.runner.dbms
        speedup = min(
            outcome.cell(("face+gsc", f)).result.tpmc
            / outcome.cell(("lc", f)).result.tpmc
            for f in self.FRACTIONS
        )
        kernel = outcome.kernel
        reads = kernel.get("batched_reads", 0) + kernel.get("scalar_reads", 0)
        sim = {"sim_tpmc": head.result.tpmc, **_latency_metrics(head.latencies)}
        layer = {
            **_device_layer(dbms.resource_times(), dbms.wall_clock()),
            **_cache_layer(dbms.cache.stats, dbms.cache),
            **_service_layer(head.result),
            "flashcache.tpmc_speedup": speedup,
            "flashcache.lc_cleaner_flushes": _cleaner_flushes(outcome.cells),
            "sim.replay.batched_fraction": kernel.get("batched_reads", 0) / reads if reads else 0.0,
            "sim.replay.native_tx": outcome.native_tx,
            "sim.replay.record_s": statistics.median(self.record_s),
        }
        return sim, layer


# -- crash-restart ---------------------------------------------------------------------


class _DemandRecorder:
    """Steps a runner and keeps each transaction's resource demand, so the
    pre-crash stream can be served to closed-loop clients afterwards."""

    def __init__(self, runner) -> None:
        self.runner = runner
        self.dbms = runner.dbms
        self.demands: list[TxnDemand] = []
        self._before = self.dbms.resource_times()

    def step(self) -> None:
        stats = self.runner.driver.stats
        committed, new_orders = stats.committed, stats.neworder_commits
        self.runner.step()
        # A checkpoint fired between steps lands in the next demand.
        after = self.dbms.resource_times()
        self.demands.append(
            TxnDemand(
                stages=tuple(
                    (name, after[name] - self._before[name])
                    for name in RESOURCE_ORDER
                    if after[name] - self._before[name] > 0.0
                ),
                committed=stats.committed > committed,
                new_order_commit=stats.neworder_commits > new_orders,
            )
        )
        self._before = after


class CrashRestart:
    """{face+gsc, lc, hdd-only} x two checkpoint intervals, killed at the
    mid-point of an interval and restarted."""

    POLICIES = ("face+gsc", "lc", "hdd-only")
    INTERVALS = (1.5, 3.0)
    HEADLINE = ("face+gsc", 3.0)
    scale = BENCH
    min_rounds = 2

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self.base = ExperimentConfig(
            scale=self.scale,
            seed=seed,
            cache_fraction=0.08,
            scenario="crash",
            checkpoint_interval=self.INTERVALS[0],
        )

    def setup(self) -> None:
        warmstate.get_snapshot(self.scale, self.seed)

    def _run_cell(self, policy: str, interval: float, probes: Probes) -> tuple[Cell, int]:
        config = self.base.with_(policy=policy, checkpoint_interval=interval)
        runner = ExperimentRunner(
            config.system_config(), self.scale, seed=self.seed, loader=_fork_loader(self.seed)
        )
        runner.warm_up(config.warmup_min, config.warmup_max)
        stepper = _DemandRecorder(runner)
        executed, _ = run_until_crash_point(
            stepper,
            interval,
            crash_point=config.crash_point,
            max_transactions=config.crash_max_transactions,
        )
        dbms = runner.dbms
        busy, wall = dbms.resource_times(), dbms.wall_clock()
        cache_stats = _cache_layer(dbms.cache.stats, dbms.cache)
        service = ServiceSimulation(stepper.demands, n_clients=CLIENTS).run().result(
            name=policy
        )
        latencies, _ = probes.take()
        dbms.crash()
        report = RecoveryManager(dbms).restart()
        cell = Cell(
            (policy, interval),
            runner,
            service,
            latencies[-1],
            busy=busy,
            wall=wall,
            cache_stats=cache_stats,
            report=report,
        )
        return cell, runner.warmup_transactions + executed

    def run_round(self, probes: Probes) -> Outcome:
        cells, transactions = [], 0
        for interval in self.INTERVALS:
            for policy in self.POLICIES:
                cell, executed = self._run_cell(policy, interval, probes)
                cells.append(cell)
                transactions += executed
        return Outcome(cells, transactions)

    def regime(self, outcome: Outcome) -> list[Check]:
        checks = []
        for interval in self.INTERVALS:
            fraction = outcome.cell(("face+gsc", interval)).report.flash_read_fraction
            checks.append(
                _guard(
                    f"crash-restart FaCE+GSC flash read fraction > 0.9 at {interval}s",
                    fraction > 0.9,
                    f"flash read fraction {fraction:.3f}",
                )
            )
        return checks

    def check(self, outcome: Outcome, probes: Probes) -> list[Check]:
        checks = []
        for cell in outcome.cells:
            checks += _audit(f"crash-restart {cell.key} after restart", cell.runner, cell.runner.database)
        return checks + self.regime(outcome)

    def summarise(self, outcome: Outcome) -> tuple[dict, dict]:
        face = [outcome.cell(("face+gsc", i)) for i in self.INTERVALS]
        head = outcome.cell(self.HEADLINE)
        report = head.report
        seconds = sum(cell.result.sim_seconds for cell in face)
        tpmc = sum(cell.result.tpmc * cell.result.sim_seconds for cell in face) / seconds
        latencies = [x for cell in face for x in cell.latencies]
        restart_speedup = min(
            outcome.cell((baseline, i)).report.total_time
            / outcome.cell(("face+gsc", i)).report.total_time
            for baseline in ("lc", "hdd-only")
            for i in self.INTERVALS
        )
        tpmc_speedup = min(
            outcome.cell(("face+gsc", i)).result.tpmc
            / outcome.cell(("lc", i)).result.tpmc
            for i in self.INTERVALS
        )
        sim = {"sim_tpmc": tpmc, **_latency_metrics(latencies)}
        layer = {
            **_device_layer(head.busy, head.wall),
            **head.cache_stats,
            **_service_layer(head.result),
            "flashcache.tpmc_speedup": tpmc_speedup,
            "flashcache.lc_cleaner_flushes": _cleaner_flushes(outcome.cells),
            "recovery.redo_applied": report.redo_applied,
            "recovery.pages_from_flash": report.pages_from_flash,
            "recovery.pages_from_disk": report.pages_from_disk,
            "recovery.flash_read_fraction": report.flash_read_fraction,
            "recovery.sim_restart_s": statistics.median(c.report.total_time for c in face),
            "recovery.restart_speedup": restart_speedup,
        }
        for phase in ("metadata", "analysis", "redo", "checkpoint"):
            layer[f"recovery.{phase}_sim_s"] = report.phase_times.get(phase, 0.0)
        return sim, layer


WORKLOADS = {
    "tpcc-miss": lambda seed: TpccService("tpcc-miss", 0.004, seed),
    "tpcc-fit": lambda seed: TpccService("tpcc-fit", 0.5, seed),
    "sweep-replay": SweepReplay,
    "crash-restart": CrashRestart,
}


def reset_process_state() -> None:
    """Forget every in-process memo (load snapshots, warm forks, live
    trace recorders), so the next set-up starts cold."""
    warmstate.clear_snapshots()
    clear_recorders()
