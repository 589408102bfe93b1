"""Process-wide replay tally: how much trace replay this process drove.

:func:`repro.sim.replay.replay_cell` folds each replayed cell's trace
cursors (transactions and events stepped, warm-up included) into one
process-wide tally, so front ends can report the replay work behind a
whole ``--fast`` sweep without keeping per-cell runners alive — and
without OBS enabled.  The CLI prints it after every ``--fast`` command.

Only the parent process is counted: shared-trace pool workers tally in
their own processes and are not merged.
"""

from __future__ import annotations

_TOTALS: dict[str, int] = {"cells": 0, "transactions": 0, "events": 0}


def accumulate(transactions: int, events: int) -> None:
    """Fold one replayed cell into the tally."""
    _TOTALS["cells"] += 1
    _TOTALS["transactions"] += transactions
    _TOTALS["events"] += events


def kernel_totals() -> dict[str, int]:
    """Snapshot of the process-wide tally: ``cells``/``transactions``/``events``."""
    return dict(_TOTALS)


def reset_kernel_totals() -> None:
    """Zero the process-wide tally (tests / benchmark passes)."""
    for name in _TOTALS:
        _TOTALS[name] = 0
