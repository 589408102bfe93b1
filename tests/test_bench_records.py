"""The bench recorder's spec table, its committed records and its docs.

``benchmarks/record.py`` writes every gated ``BENCH_<spec>.json`` from one
entry of ``SPECS``; each entry's gates are a pure function of the record
and the previous one.  These tests pin that contract without re-measuring
anything:

* every committed record carries ``spec``/``provenance``/``gates`` and
  re-running its spec's gates on it reproduces the stored gates, all
  passing;
* one mutated record per spec flips the gate guarding it;
* every ``record.py`` invocation the docs show names a real spec and only
  options the recorder accepts.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "bench_record", BENCH_DIR / "record.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


record = _load_recorder()
SPEC_NAMES = list(record.SPECS)


def committed(name: str) -> dict:
    return json.loads((BENCH_DIR / f"BENCH_{name}.json").read_text())


def gates_of(name: str, latest: dict, previous: dict | None) -> dict:
    gates = record.SPECS[name].gates(latest, previous)
    return {gate.name: gate for gate in gates}


def test_spec_table_names_the_six_records():
    assert SPEC_NAMES == ["sweep", "ablation", "latency", "scan", "recovery", "storage"]
    for name in SPEC_NAMES:
        assert (BENCH_DIR / f"BENCH_{name}.json").exists(), name


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_committed_record_reproduces_its_gates(name):
    stored = committed(name)
    latest, history = stored["latest"], stored["history"]
    assert latest["spec"] == name
    assert latest["mode"] == "full"
    assert set(latest["provenance"]) == {"commit", "python", "numpy", "cores", "scale"}
    assert len(history) <= record.HISTORY_LIMIT
    previous = history[-1] if history else None
    regated = [
        dataclasses.asdict(gate)
        for gate in record.SPECS[name].gates(latest, previous)
    ]
    assert json.loads(json.dumps(regated)) == latest["gates"]
    failed = [gate["name"] for gate in latest["gates"] if not gate["passed"]]
    assert failed == []
    assert len(latest["gates"]) > 1  # more than the schema gate


def _leak(latest):
    latest["fast"]["shared"]["leaked_segments"] = ["repro-bt-leaked"]


def _lose_knee(latest):
    latest["knees"][next(iter(latest["knees"]))] = None


def _compress_less(latest):
    latest["trace"]["compression_ratio"] = 2.9


def _slow_backend(latest):
    latest["backends"]["sqlite"]["overhead_vs_memory"] = 51.0


def _slow_restart(latest):
    entry = latest["speedups"][0]
    entry["face_speedup_vs"][next(iter(entry["face_speedup_vs"]))] = 1.0


def _lose_scan_claim(latest):
    latest["scan_resistance"]["pure-scan"]["gsc_beats_lru2"] = False


@pytest.mark.parametrize(
    "name, mutate, gate",
    [
        ("sweep", _leak, "fast.shared.leaked_segments"),
        ("latency", _lose_knee, "knees.missing"),
        ("ablation", _compress_less, "trace.compression_ratio"),
        ("storage", _slow_backend, "backends.overhead_vs_memory_max"),
        ("recovery", _slow_restart, "face_speedup_vs_baselines_min"),
        ("scan", _lose_scan_claim, "scan_resistance.pure-scan.gsc_beats_lru2"),
    ],
)
def test_mutated_record_fails_its_gate(name, mutate, gate):
    stored = committed(name)
    previous = stored["history"][-1] if stored["history"] else None
    latest = copy.deepcopy(stored["latest"])
    assert gates_of(name, latest, previous)[gate].passed
    mutate(latest)
    gates = gates_of(name, latest, previous)
    assert not gates[gate].passed
    assert [n for n, g in gates.items() if not g.passed] == [gate]


def test_knee_gate_is_full_mode_only():
    latest = copy.deepcopy(committed("latency")["latest"])
    _lose_knee(latest)
    latest["mode"] = "smoke"
    assert "knees.missing" not in gates_of("latency", latest, None)


def test_wall_time_gates_compare_only_records_of_one_mode():
    latest = committed("sweep")["latest"]
    slow = copy.deepcopy(latest)
    slow["serial"]["wall_seconds_per_cell"] *= 10
    for row in slow["cells"]:
        row["wall_seconds"] *= 10
    same_mode = gates_of("sweep", slow, latest)
    assert not same_mode["serial.wall_seconds_per_cell_vs_previous"].passed
    assert not same_mode["cells.wall_seconds_vs_previous_max"].passed
    smoke_baseline = {**latest, "mode": "smoke"}
    other_mode = gates_of("sweep", slow, smoke_baseline)
    assert "serial.wall_seconds_per_cell_vs_previous" not in other_mode
    assert "cells.wall_seconds_vs_previous_max" not in other_mode


def test_missing_keys_fail_the_schema_gate_alone():
    latest = copy.deepcopy(committed("storage")["latest"])
    del latest["backends"]["mmap"]["tpmc"]
    gates = record.SPECS["storage"].gates(latest)
    assert [(gate.name, gate.passed) for gate in gates] == [("schema", False)]
    assert gates[0].value == ["backends{}.tpmc"]


@pytest.mark.parametrize(
    "points", [[], [(1, 10.0)], [(1, 10.0), (50, 100.0), (500, 1000.0)]]
)
def test_locate_knee_none_when_nothing_saturates(points):
    assert record.locate_knee(points) is None


def test_locate_knee_finds_the_first_flat_rung():
    assert record.locate_knee([(1, 10.0), (50, 100.0), (500, 105.0)]) == 500


# -- docs name only real specs and options -----------------------------------

#: Files whose ``record.py`` invocations must stay runnable.
DOC_FILES = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "docs/API.md",
    "docs/CONCURRENCY.md",
    ".claude/skills/verify/SKILL.md",
    "benchmarks/record.py",
    "src/repro/sim/ablation.py",
    "src/repro/storage/backing.py",
    "src/repro/storage/registry.py",
    "src/repro/workload/tpch.py",
)
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
_SPAN = re.compile(r"`+([^`]+)`+")
_CALL = re.compile(r"record\.py\b(.*)")


def _invocations(text: str):
    """Argument strings after each ``record.py`` in code blocks and spans."""
    chunks = []
    for block in _FENCE.findall(text):
        chunks += [line.split("#")[0] for line in block.splitlines()]
    chunks += [" ".join(span.split()) for span in _SPAN.findall(_FENCE.sub("", text))]
    for chunk in chunks:
        match = _CALL.search(chunk)
        if match:
            yield re.split(r"[;|]|&&", match.group(1))[0]


def test_doc_invocations_name_real_specs_and_options(capsys):
    parser = record.build_parser()
    seen = 0
    for name in DOC_FILES:
        path = ROOT / name
        if not path.exists():
            continue
        for args in _invocations(path.read_text()):
            seen += 1
            try:
                parser.parse_args(shlex.split(args))
            except SystemExit:
                pytest.fail(
                    f"{name}: `record.py{args}` is not a valid invocation: "
                    f"{capsys.readouterr().err.strip()}"
                )
    assert seen >= 10


def test_ci_smoke_matrix_covers_every_spec():
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    match = re.search(r"spec:\s*\[([^\]]*)\]", ci)
    assert match, "bench-smoke matrix not found"
    assert [s.strip() for s in match.group(1).split(",")] == SPEC_NAMES
