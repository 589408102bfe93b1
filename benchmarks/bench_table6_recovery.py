"""Table 6 + Section 4.2 metrics: restart time after a crash.

Paper (4 GB cache ≈ 8 % of DB, checkpoint intervals 60/120/180 s, crash at
the mid-point of a checkpoint interval)::

    (seconds)      60    120    180
    FaCE+GSC       93    118    188
    HDD only      604    786    823

i.e. a 77-85 % reduction, because >98 % of the pages redo needs are fetched
from the (persistent) flash cache, and the metadata directory restore adds
only ~2.5 s.  Checkpoint intervals scale with the simulated system; the
crash is injected halfway through an interval, as in the paper.

The {policy} x {interval} grid runs as :class:`CrashRecoveryScenario` cells
through the parallel engine: every cell shares one ``(BENCH, 42)`` workload
stream, so on the trace-replay fast path all six crash cells
replay one recorded boundary trace — truncated at each cell's kill point —
with bit-identical restart reports.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.sim.parallel import CellSpec, run_cells
from repro.sim.scenario import CrashRecoveryScenario
from repro.tpcc.scale import BENCH
from benchmarks.conftest import (
    BENCH_JOBS,
    FULL_MODE,
    WARMUP_MAX,
    WARMUP_MIN,
    config_for,
    once,
)

#: Checkpoint intervals in simulated seconds.  The paper used 60/120/180 s;
#: the scaled system runs ~1000x less data, so intervals are scaled to keep
#: the redo window in the same proportion to the DRAM buffer and flash
#: cache (see EXPERIMENTS.md) while preserving the 1:2:3 ratio.
INTERVALS = (1.0, 2.0, 3.0)
CACHE_FRACTION = 0.08
SERIES = ("FaCE+GSC", "HDD-only")
_MAX_TX = 40_000 if FULL_MODE else 20_000


def _crash_grid():
    """Every (policy, interval) crash cell, through the parallel engine."""
    specs = [
        CellSpec(
            key=(policy, interval),
            config=config_for(policy, CACHE_FRACTION),
            scale=BENCH,
            seed=42,
            scenario=CrashRecoveryScenario(
                checkpoint_interval=interval,
                max_transactions=_MAX_TX,
                warmup_min=WARMUP_MIN,
                warmup_max=WARMUP_MAX,
            ),
        )
        for policy in SERIES
        for interval in INTERVALS
    ]
    cells = run_cells(specs, jobs=BENCH_JOBS, fast=True)
    return {
        policy: [cells[(policy, interval)].report for interval in INTERVALS]
        for policy in SERIES
    }


def test_table6_restart_times(benchmark):
    reports = once(benchmark, _crash_grid)

    print()
    print(
        format_table(
            "Table 6 - time to restart after a crash (simulated seconds)",
            ["policy", *[f"ckpt {int(i)}s" for i in INTERVALS]],
            [
                (p, *[round(r.total_time, 2) for r in reports[p]])
                for p in SERIES
            ],
        )
    )
    face = reports["FaCE+GSC"]
    print(
        format_table(
            "Section 4.2 - FaCE restart breakdown",
            ["interval", "metadata(s)", "flash-read %", "redo applied"],
            [
                (
                    f"{int(i)}s",
                    round(r.metadata_restore_time, 3),
                    round(100 * r.flash_read_fraction, 1),
                    r.redo_applied,
                )
                for i, r in zip(INTERVALS, face)
            ],
        )
    )

    for i, interval in enumerate(INTERVALS):
        face_time = reports["FaCE+GSC"][i].total_time
        hdd_time = reports["HDD-only"][i].total_time
        # The paper: 77-85 % reduction; the scaled system achieves 50-70 %
        # (see EXPERIMENTS.md).  Require at least 40 %.
        assert face_time < 0.6 * hdd_time, (
            f"interval {interval}: FaCE {face_time:.2f}s vs HDD {hdd_time:.2f}s"
        )
        # Section 5.5: >98 % of recovery pages came from the flash cache.
        assert reports["FaCE+GSC"][i].flash_read_fraction > 0.9
        assert reports["FaCE+GSC"][i].cache_survived
        # Metadata restore is a small additive term, as in the paper.
        assert (
            reports["FaCE+GSC"][i].metadata_restore_time < 0.3 * face_time
            or reports["FaCE+GSC"][i].metadata_restore_time < 1.0
        )

    # Longer checkpoint intervals mean longer redo, for both systems.
    for policy in SERIES:
        times = [r.total_time for r in reports[policy]]
        assert times[-1] > times[0] * 0.8  # monotone up to sampling noise
