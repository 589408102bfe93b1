"""Cross-scale trace retargeting: identity parity pin + machinery tests.

The identity tier is pinned the way the replay parity suites pin replay:
retargeting a trace onto its own scale must be bit-identical to the direct
path, both at the byte level and through a full replayed measurement.  The
donor tier uses a purpose-built ``DONOR`` profile slightly larger than
``TINY`` in every segment, so donor recording stays test-cheap while still
exercising real compression.  The statistical gates themselves
(:func:`repro.sim.retarget.verify_retarget`) run at reference size in CI's
``cli-smoke`` job via ``python -m repro retarget --verify``; here the
profile machinery is unit-tested on its own invariants.
"""

from __future__ import annotations

import dataclasses
import pickle
import random
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.config import CachePolicy, scaled_reference_config
from repro.errors import ConfigError
from repro.obs import OBS
from repro.sim.parallel import CellSpec, run_cells
from repro.sim.replay import (
    TraceRecorder,
    cached_trace_exists,
    clear_recorders,
    get_recorder,
    list_cached_traces,
    prepare_replay,
    prune_trace_cache,
    remove_cached_traces,
    replay_cell,
)
from repro.sim import retarget
from repro.sim.retarget import (
    RetargetedTraceRecorder,
    access_profile,
    build_remap_table,
    find_donor_scale,
    resolve_recorder,
    retarget_compatible,
    retarget_incompatibility,
    remap_trace_args,
    retargeted_recorder,
)
from repro.sim.trace import (
    OP_ABORT,
    OP_BEGIN,
    OP_COMMIT,
    OP_READ,
    OP_READ_DUP,
    OP_TXEND,
    OP_UPDATE,
    PAYLOAD_BITS,
    PAYLOAD_MASK,
    SharedTraceHandle,
)
from repro.sim.warmstate import clear_snapshots
from repro.tpcc.loader import estimate_db_pages
from repro.tpcc.scale import BENCH, TINY, ScaleProfile, page_geometry

#: A donor ~2x TINY in the variable segments: cheap to record, and every
#: TINY segment fits inside it, so compression is real but test-fast.
DONOR = ScaleProfile(
    warehouses=1,
    districts_per_warehouse=2,
    customers_per_district=60,
    items=400,
    orders_per_district=60,
)

SEED = 23
FAST = dict(measure_transactions=120, warmup_min=40, warmup_max=600)


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
    clear_recorders()
    clear_snapshots()
    yield
    clear_recorders()
    clear_snapshots()


def _spec(scale=TINY, seed=SEED, donor=None, policy=CachePolicy.FACE_GSC) -> CellSpec:
    return CellSpec(
        key=(policy.value, repr(donor)),
        config=scaled_reference_config(
            estimate_db_pages(scale), cache_fraction=0.08, policy=policy
        ),
        scale=scale,
        seed=seed,
        trace_donor=donor,
        **FAST,
    )


# -- remap table ---------------------------------------------------------------


def test_identity_table_is_identity():
    table = build_remap_table(TINY, TINY)
    assert list(table) == list(range(page_geometry(TINY)[-1].end_page))


def test_remap_table_preserves_segments_and_order():
    table = build_remap_table(DONOR, TINY)
    assert len(table) == page_geometry(DONOR)[-1].end_page
    for donor_seg, target_seg in zip(page_geometry(DONOR), page_geometry(TINY)):
        mapped = [table[p] for p in range(donor_seg.first_page, donor_seg.end_page)]
        # Every donor page lands inside the *same-name* target segment...
        assert min(mapped) == target_seg.first_page
        assert max(mapped) == target_seg.end_page - 1
        # ...and relative order within the segment is preserved.
        assert mapped == sorted(mapped)


def test_expansion_is_rejected():
    assert retarget_compatible(DONOR, TINY)
    why = retarget_incompatibility(TINY, DONOR)
    assert why is not None and "only compresses" in why
    with pytest.raises(ConfigError):
        build_remap_table(TINY, DONOR)


# -- identity parity (tier 1, pinned) -----------------------------------------


def test_identity_retarget_is_bit_identical():
    native = get_recorder(TINY, SEED)
    native.ensure(300)
    identity = RetargetedTraceRecorder(TINY, SEED, TINY)
    identity.ensure(300)
    native_trace = native.longest_trace()
    assert identity.trace.ops == native_trace.ops[: len(identity.trace.ops)]
    assert identity.trace.args == native_trace.args[: len(identity.trace.args)]
    assert identity.trace.n_transactions >= 300


def test_identity_retarget_replay_parity():
    spec = _spec()
    direct = replay_cell(spec, get_recorder(TINY, SEED))
    retargeted = replay_cell(spec, RetargetedTraceRecorder(TINY, SEED, TINY))
    assert dataclasses.replace(direct, obs=None) == dataclasses.replace(
        retargeted, obs=None
    )


# -- donor retargeting ---------------------------------------------------------


def test_retargeted_pages_stay_in_target_universe():
    recorder = retargeted_recorder(TINY, SEED, DONOR)
    trace = recorder.ensure(200)
    profile = access_profile(trace, TINY, 200)
    assert profile["accesses"] > 0
    shares = [seg["share"] for seg in profile["segments"].values()]
    assert abs(sum(shares) - 1.0) < 1e-9  # no access fell outside a segment


def test_retargeted_replay_is_deterministic():
    spec = _spec(donor=DONOR)
    first = replay_cell(spec, retargeted_recorder(TINY, SEED, DONOR))
    clear_recorders()
    clear_snapshots()
    second = replay_cell(spec, retargeted_recorder(TINY, SEED, DONOR))
    assert dataclasses.replace(first, obs=None) == dataclasses.replace(
        second, obs=None
    )


def test_access_profile_decile_mass():
    recorder = get_recorder(TINY, SEED)
    profile = access_profile(recorder.ensure(200), TINY, 200)
    for segment in profile["segments"].values():
        if segment["share"]:
            assert abs(sum(segment["deciles"]) - 1.0) < 1e-9


# -- numpy and pure-array branches ---------------------------------------------

#: Transactions in the synthetic BENCH stream, and where the remapped suffix
#: starts (a transaction boundary past the first third).
SYNTH_TX = 300
SUFFIX_TX = 100


def _synthetic_bench_trace(seed: int = 7):
    """A BENCH-page-id boundary stream using every opcode, plus the
    ``(op, arg)`` offsets of transaction ``SUFFIX_TX``'s BEGIN."""
    rng = random.Random(seed)
    n_pages = page_geometry(BENCH)[-1].end_page
    ops, args = array("B"), array("q")
    suffix = None
    for tx in range(SYNTH_TX):
        if tx == SUFFIX_TX:
            suffix = (len(ops), len(args))
        ops.append(OP_BEGIN)
        for _ in range(rng.randint(1, 12)):
            draw = rng.random()
            if draw < 0.6:
                ops.append(OP_READ)
                args.append(rng.randrange(n_pages))
            elif draw < 0.75:
                ops.append(OP_READ_DUP)
            else:
                ops.append(OP_UPDATE)
                args.append(
                    (rng.randrange(n_pages) << PAYLOAD_BITS) | rng.randrange(PAYLOAD_MASK)
                )
        ops.append(OP_COMMIT if rng.random() < 0.95 else OP_ABORT)
        ops.append(OP_TXEND)
        args.append(rng.randrange(16))
    return ops, args, suffix


def _remap_outputs(ops, args, suffix):
    """Every output of the three branched functions on a BENCH->TINY remap."""
    table = build_remap_table.__wrapped__(BENCH, TINY)  # bypass the cache
    remapped = remap_trace_args(ops, args, table)
    tail = remap_trace_args(ops, args, table, *suffix)
    profile = access_profile(SimpleNamespace(ops=ops, args=remapped), TINY, SYNTH_TX)
    return table, remapped, tail, profile


def test_array_branch_remaps_bench_onto_tiny(monkeypatch):
    monkeypatch.setattr(retarget, "_np", None)
    ops, args, suffix = _synthetic_bench_trace()
    table, remapped, tail, profile = _remap_outputs(ops, args, suffix)
    assert len(table) == page_geometry(BENCH)[-1].end_page
    assert tail == remapped[suffix[1]:]
    tiny_pages = page_geometry(TINY)[-1].end_page
    slot = 0
    for op in ops:
        if op == OP_READ:
            assert remapped[slot] == table[args[slot]] < tiny_pages
        elif op == OP_UPDATE:
            assert remapped[slot] >> PAYLOAD_BITS == table[args[slot] >> PAYLOAD_BITS]
            assert remapped[slot] & PAYLOAD_MASK == args[slot] & PAYLOAD_MASK
        elif op == OP_TXEND:
            assert remapped[slot] == args[slot]
        slot += op in (OP_READ, OP_UPDATE, OP_TXEND)
    assert slot == len(args)
    assert profile["accesses"] == sum(op in (OP_READ, OP_UPDATE) for op in ops)
    assert sum(seg["share"] for seg in profile["segments"].values()) == pytest.approx(1.0)


def test_numpy_branch_matches_array_branch(monkeypatch):
    if retarget._np is None:
        pytest.skip("numpy is not installed; only the array branch exists")
    ops, args, suffix = _synthetic_bench_trace()
    vectorized = _remap_outputs(ops, args, suffix)
    monkeypatch.setattr(retarget, "_np", None)
    assert _remap_outputs(ops, args, suffix) == vectorized


# -- resolution precedence -----------------------------------------------------


def test_resolve_prefers_exact_native_source():
    recorder = TraceRecorder(TINY, SEED)
    recorder.ensure(50)
    assert recorder.save_cache()
    clear_recorders()
    resolved = resolve_recorder(TINY, SEED)
    assert isinstance(resolved, TraceRecorder)


def test_resolve_discovers_cached_donor():
    donor = TraceRecorder(DONOR, SEED)
    donor.ensure(50)
    assert donor.save_cache()
    clear_recorders()
    assert not cached_trace_exists(TINY, SEED)
    assert find_donor_scale(TINY, SEED) == DONOR
    resolved = resolve_recorder(TINY, SEED)
    assert isinstance(resolved, RetargetedTraceRecorder)
    assert resolved.donor_scale == DONOR


def test_escape_hatch_disables_auto_donor(monkeypatch):
    donor = TraceRecorder(DONOR, SEED)
    donor.ensure(50)
    assert donor.save_cache()
    clear_recorders()
    monkeypatch.setenv("REPRO_REPLAY_RETARGET", "0")
    resolved = resolve_recorder(TINY, SEED)
    assert isinstance(resolved, TraceRecorder)
    # Explicit donors are still honoured with the hatch thrown.
    explicit = resolve_recorder(TINY, SEED, DONOR)
    assert isinstance(explicit, RetargetedTraceRecorder)


def test_explicit_incompatible_donor_raises():
    with pytest.raises(ConfigError):
        resolve_recorder(DONOR, SEED, TINY)


# -- sweep engine & prepare ----------------------------------------------------


def test_fast_sweep_runs_from_donor_only():
    donor = TraceRecorder(DONOR, SEED)
    donor.ensure(50)
    assert donor.save_cache()
    clear_recorders()
    specs = [
        _spec(donor=DONOR, policy=CachePolicy.LC),
        _spec(donor=DONOR, policy=CachePolicy.FACE_GSC),
    ]
    OBS.clear()
    OBS.enable()
    try:
        results = run_cells(specs, jobs=1, fast=True)
        assert OBS.counter("replay.retarget.cells").value == 2
        assert OBS.counter("replay.trace.recorded_transactions").value == 0
    finally:
        OBS.clear()
        OBS.disable()
    assert len(results) == 2
    assert not cached_trace_exists(TINY, SEED)  # derived state never persisted


def test_prepare_replay_reports_remap_cost():
    donor = TraceRecorder(DONOR, SEED)
    donor.ensure(50)
    assert donor.save_cache()
    clear_recorders()
    prep = prepare_replay([_spec(donor=DONOR)])
    (group,) = prep["groups"]
    assert group["retargeted"] is True
    assert group["donor"] == repr(DONOR)
    assert group["remap_seconds"] >= 0.0
    assert prep["retarget_seconds"] == pytest.approx(group["remap_seconds"])
    # A seed with no donor recording resolves natively (no auto-discovery).
    native = prepare_replay([_spec(seed=SEED + 5)])
    assert native["groups"][0]["retargeted"] is False
    assert native["retarget_seconds"] == 0.0


def test_fork_token_separates_warm_state():
    native = TraceRecorder(TINY, SEED)
    retargeted = RetargetedTraceRecorder(TINY, SEED, DONOR)
    assert native.fork_token == "native"
    assert retargeted.fork_token != native.fork_token
    handle = SharedTraceHandle("seg", 1, 1, 1, token=retargeted.fork_token)
    assert pickle.loads(pickle.dumps(handle)).token == retargeted.fork_token


# -- experiment / ablation integration ----------------------------------------


def test_experiment_validates_trace_donor():
    from repro.sim.experiment import ExperimentConfig

    config = ExperimentConfig(scale=TINY, seed=SEED, trace_donor=DONOR)
    assert "trace_donor" in config.describe()
    with pytest.raises(ConfigError):
        ExperimentConfig(scale=DONOR, seed=SEED, trace_donor=TINY)


def test_verify_parity_rejects_donor_studies():
    from repro.sim.ablation import AblationStudy, verify_parity
    from repro.sim.experiment import ExperimentConfig

    base = ExperimentConfig(
        scale=TINY, seed=SEED, trace_donor=DONOR, measure_transactions=120
    )
    study = AblationStudy(base, {"admission": None})
    with pytest.raises(ConfigError, match="retarget --verify"):
        verify_parity(study, results=None)


# -- trace-cache housekeeping --------------------------------------------------


def _saved(scale: ScaleProfile, seed: int) -> None:
    recorder = TraceRecorder(scale, seed)
    recorder.ensure(30)
    assert recorder.save_cache()


def test_list_cached_traces_reads_headers():
    _saved(TINY, SEED)
    _saved(DONOR, SEED + 1)
    entries = list_cached_traces()
    assert len(entries) == 2
    by_scale = {repr(entry["scale_profile"]): entry for entry in entries}
    assert by_scale[repr(TINY)]["seed"] == SEED
    assert by_scale[repr(DONOR)]["seed"] == SEED + 1
    for entry in entries:
        assert entry["n_transactions"] >= 30
        assert entry["file_bytes"] > 0
        assert entry["age_seconds"] >= 0.0


def test_remove_cached_traces_filters():
    _saved(TINY, SEED)
    _saved(TINY, SEED + 1)
    _saved(DONOR, SEED)
    assert len(remove_cached_traces(seed=SEED + 1)) == 1
    assert len(remove_cached_traces(scale=DONOR)) == 1
    assert len(remove_cached_traces()) == 1  # unfiltered: everything left
    assert list_cached_traces() == []


def test_prune_by_size_drops_oldest_first(tmp_path):
    import os

    _saved(TINY, SEED)
    _saved(TINY, SEED + 1)
    entries = list_cached_traces()
    oldest = entries[0]["path"]
    # Make ages unambiguous regardless of filesystem timestamp granularity.
    past = entries[-1]["mtime"] - 100
    os.utime(oldest, (past, past))
    keep_bytes = max(entry["file_bytes"] for entry in entries)
    report = prune_trace_cache(max_bytes=keep_bytes)
    assert report["removed"] == [Path(oldest).name]
    assert report["kept"] == 1


def test_prune_by_age(tmp_path):
    import os

    _saved(TINY, SEED)
    path = list_cached_traces()[0]["path"]
    old = list_cached_traces()[0]["mtime"] - 10_000
    os.utime(path, (old, old))
    report = prune_trace_cache(max_age_seconds=5_000.0)
    assert report["removed"] == [Path(path).name]
    assert list_cached_traces() == []
