"""Boundary tracing for the benchmark's traced run.

Spans are recorded by wrapping public methods at each layer boundary from
this file: nothing inside ``src/`` is instrumented.  A span is
``(layer, start, end, parent, transaction id)``; spans live in flat
in-memory arrays while the run lasts and are written out once, at exit.

A layer's *self time* is its spans' duration minus the part of each span's
interval covered by its child spans (:func:`self_times`).  Because every
span's self time plus its children's durations equals its own duration,
the self times of all layers sum to the duration of the root spans; the
rest of the traced timed phase is harness and protocol code between
boundaries, reported as an explicit untraced remainder.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Sequence

#: ``count(counts, args, kwargs, result)``: records boundary counts for one
#: completed call into the tracer's counter.
CountHook = Callable[[Counter, tuple, dict, Any], None]


class Tracer:
    """Records spans and boundary counts from wrapped methods."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.tx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._keys: list[int] = []
        self._key_ids: dict[tuple[str, str], int] = {}
        self._tx = -1
        self._tx_counter = 0
        self._patches: list[tuple[Any, str, Any]] = []

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        count: CountHook | None = None,
        root: bool = False,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with a
        span-recording wrapper; ``root`` spans open a new transaction id."""
        original = owner.__dict__[attr]
        layer_id = self._layer_id(layer)
        # Calls that re-enter the same boundary (an override calling its
        # base through super()) stay inside the outer span.
        key = self._key_ids.setdefault((layer, attr), len(self._key_ids))
        tracer = self
        stack, keys = self._stack, self._keys
        layers, parents, txs = self.layer, self.parent, self.tx
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if keys and keys[-1] == key:
                result = original(*args, **kwargs)
            else:
                index = len(starts)
                outer_tx = tracer._tx
                if root:
                    tracer._tx_counter += 1
                    tracer._tx = tracer._tx_counter
                layers.append(layer_id)
                parents.append(stack[-1] if stack else -1)
                txs.append(tracer._tx)
                ends.append(0.0)
                stack.append(index)
                keys.append(key)
                starts.append(clock())
                try:
                    result = original(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                    keys.pop()
                    tracer._tx = outer_tx
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer over every recorded span."""
        by_id = self_times(self.layer, self.start, self.end, self.parent)
        return {self.layers[i]: seconds for i, seconds in by_id.items()}

    def root_seconds(self) -> float:
        """Summed duration of the spans without a parent."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] < 0
        )

    def write(self, path: Path) -> None:
        """Write every span as gzip'd tab-separated text."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tlayer\tstart_s\tend_s\tparent\ttx\n")
            names = self.layers
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{names[self.layer[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.tx[i]}\n"
                )


def self_times(
    names: Sequence,
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> dict:
    """Per-name self time: each span's duration minus the union of its
    children's intervals, clipped to the span.

    Children may overlap each other or stick out of their parent (spans of
    concurrent work); covered time is counted once and only inside the
    parent.  Runs in one pass over the spans in start order, keeping one
    open merged interval per parent.
    """
    n = len(starts)
    # Recorded spans are already in start order; sort only other input.
    in_order = all(starts[i] <= starts[i + 1] for i in range(n - 1))
    order = range(n) if in_order else sorted(range(n), key=starts.__getitem__)
    run_start = array("d", bytes(8 * n))
    run_end = array("d", [float("-inf")]) * n
    covered = array("d", bytes(8 * n))
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p])
        hi = min(ends[i], ends[p])
        if hi <= lo:
            continue
        if lo > run_end[p]:
            if run_end[p] > run_start[p]:
                covered[p] += run_end[p] - run_start[p]
            run_start[p] = lo
            run_end[p] = hi
        elif hi > run_end[p]:
            run_end[p] = hi
    result: dict = {}
    for i in range(n):
        cover = covered[i] + max(0.0, run_end[i] - run_start[i])
        result[names[i]] = result.get(names[i], 0.0) + (ends[i] - starts[i]) - cover
    return result


# -- the layer boundaries -----------------------------------------------------


def _subclasses(root: type) -> list[type]:
    found, todo = [], [root]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _wrap_hierarchy(tracer, root, methods, layer, count=None) -> None:
    """Wrap each method on every class of ``root``'s hierarchy that
    defines it, so overrides are traced as well as the base."""
    for cls in _subclasses(root):
        for name in methods:
            if name in cls.__dict__:
                tracer.wrap(cls, name, layer, count(name) if count else None)


def install_boundaries(tracer: Tracer) -> None:
    """Wrap the public methods at every layer boundary the benchmark
    attributes host time to (see ``perfbench/README.md``)."""
    import repro.sim.replay as replay_module
    import repro.sim.warmstate as warmstate_module
    from repro.buffer.pool import BufferPool
    from repro.core.dbms import SimulatedDBMS
    from repro.flashcache.base import FlashCacheBase
    from repro.recovery.restart import RecoveryManager
    from repro.sim.replay import ReplayRunner
    from repro.sim.service import ServiceSimulation
    from repro.storage.backing import PageStore
    from repro.storage.device import Device
    from repro.storage.hdd import DiskDevice
    from repro.storage.raid import Raid0Array
    from repro.storage.ssd import FlashDevice
    from repro.tpcc.driver import TpccDriver
    from repro.wal.log import LogManager

    def tpcc_count(counts, args, kwargs, result):
        counts["tpcc.tx"] += 1
        if not result.committed:
            counts["tpcc.aborts"] += 1

    tracer.wrap(TpccDriver, "run_one", "tpcc", tpcc_count, root=True)

    def access_count(counts, args, kwargs, result):
        counts["core.page_accesses"] += 1

    for name in ("read_page", "update_slot_tx"):
        tracer.wrap(SimulatedDBMS, name, "core", access_count)
    for name in ("commit", "checkpoint"):
        tracer.wrap(SimulatedDBMS, name, "core")

    def evicted(counts, frames):
        counts["buffer.evictions"] += len(frames)
        counts["buffer.dirty_evictions"] += sum(
            1 for frame in frames if frame.dirty or frame.fdirty
        )

    def buffer_count(name):
        def count(counts, args, kwargs, result):
            if name == "lookup":
                counts["buffer.lookups"] += 1
                counts["buffer.hits"] += result is not None
            elif name == "make_room" and result is not None:
                evicted(counts, (result,))
            elif name == "pull_tail":
                evicted(counts, result)

        return count

    _wrap_hierarchy(
        tracer, BufferPool, ("lookup", "make_room", "admit", "pull_tail"),
        "buffer", buffer_count,
    )

    def cache_count(name):
        def count(counts, args, kwargs, result):
            if name == "lookup_fetch":
                counts["flashcache.lookups"] += 1
                counts["flashcache.hits"] += result is not None

        return count

    _wrap_hierarchy(
        tracer,
        FlashCacheBase,
        ("lookup_fetch", "on_dram_evict", "on_fetch_from_disk",
         "checkpoint_frame", "finish_checkpoint"),
        "flashcache",
        cache_count,
    )

    # Device roles follow the device model's class: the database sits on
    # the RAID-0 array, the cache on the SSD, the WAL on a single disk
    # (no benchmark cell runs the ssd-only configuration).
    roles = {Raid0Array: "disk", FlashDevice: "flash", DiskDevice: "log"}

    def device_count(name):
        def count(counts, args, kwargs, result):
            role = roles.get(type(args[0]), "other")
            npages = args[2] if len(args) > 2 else kwargs.get("npages", 1)
            counts[f"storage.{role}.ops"] += 1
            counts[f"storage.{role}.pages"] += npages
            if role == "log" and name == "write":
                counts["wal.forces"] += 1

        return count

    # Overrides call the base through super(): count only at the base so
    # each I/O is counted once.
    for cls in _subclasses(Device):
        for name in ("read", "write"):
            if name in cls.__dict__:
                count = device_count(name) if cls is Device else None
                tracer.wrap(cls, name, "storage.device", count)

    def store_count(name):
        key = "storage.store.puts" if name == "put" else "storage.store.gets"

        def count(counts, args, kwargs, result):
            counts[key] += 1

        return count

    _wrap_hierarchy(
        tracer, PageStore, ("get", "put", "peek"), "storage.store", store_count
    )

    def wal_count(name):
        def count(counts, args, kwargs, result):
            if name in ("log_update", "log_update_sized"):
                counts["wal.records"] += 1
            elif name == "attach_full_page_image":
                counts["wal.fpw"] += 1

        return count

    _wrap_hierarchy(
        tracer,
        LogManager,
        ("log_update", "log_update_sized", "commit", "force", "force_up_to",
         "attach_full_page_image"),
        "wal",
        wal_count,
    )
    tracer.wrap(RecoveryManager, "restart", "recovery")
    # A replayed transaction is one ``step``; warm-up and measurement
    # replay their transactions inside the span.
    tracer.wrap(ReplayRunner, "step", "sim.replay", root=True)
    for name in ("warm_up", "measure"):
        tracer.wrap(ReplayRunner, name, "sim.replay")
    tracer.wrap(ServiceSimulation, "run", "sim.service")
    # Forks are module functions imported by name into the replay module,
    # so both bindings are wrapped.
    for module in (warmstate_module, replay_module):
        for name in ("fork_database", "fork_dbms"):
            tracer.wrap(module, name, "sim.warmstate")
