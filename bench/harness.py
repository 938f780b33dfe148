"""Operations, timed rounds and the metrics computed from them.

A workload is a fixed list of operations built from the seed. One round runs
the whole list once, one operation after another (a closed loop with one
client). Each operation is timed alone; its result is then reduced to a small
digest outside the timed region, and the raw result is dropped, so that a
round never holds more than one large value at a time.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Failed:
    """An operation that raised instead of returning a verdict."""
    error: str


@dataclass
class Op:
    kind: str
    args: tuple
    run: Callable[[], object]
    digest: Callable[[object], object] = field(default=lambda raw: raw)


@dataclass
class Rounds:
    op_times: list      # seconds, every operation of every round
    round_walls: list   # seconds, the sum of one round's operation times
    outputs: list       # digests of the first round, aligned with the ops
    attempted: int
    failed: int
    mismatches: list    # later rounds whose digests differ from the first


def run_round(ops):
    """Run every op once; return (times, digests, failed count)."""
    times, outs, failed = [], [], 0
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        try:
            raw = op.run()
        except Exception as e:  # the verdict is missing: count it, keep going
            t1 = clock()
            failed += 1
            outs.append(Failed(f"{type(e).__name__}: {e}"))
        else:
            t1 = clock()
            outs.append(op.digest(raw))
            del raw
        times.append(t1 - t0)
    return times, outs, failed


def run_rounds(ops, seconds: float, min_ops: int = 100) -> Rounds:
    """Whole rounds until the next one would end after `seconds`.

    At least enough rounds for `min_ops` timed operations, so that the 90th
    percentile has ten samples beyond it.
    """
    op_times, walls, first, mismatches = [], [], None, []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        times, outs, nfail = run_round(ops)
        op_times.extend(times)
        walls.append(sum(times))
        attempted += len(ops)
        failed += nfail
        if first is None:
            first = outs
        elif outs != first:
            mismatches.append(len(walls))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(walls)
        if attempted >= min_ops and elapsed + per_round > seconds:
            break
    return Rounds(op_times, walls, first, attempted, failed, mismatches)


def percentile(values, q: int):
    """The q-th percentile (1..99) by the exclusive method of statistics."""
    return statistics.quantiles(values, n=100)[q - 1]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
