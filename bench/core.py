"""Shared pieces of the quadstab benchmark: ops, the closed measuring loop,
order statistics and digests.

A workload module provides:

    WORK_UNIT              the unit its throughput counts
    generate(seed)         list of rounds, each a list of Op; pure in the seed
    warmup(ctx)            small fixed calls that load lazy code paths
    execute(op, ctx)       the timed library call(s); returns the raw result
    work(op, result)       work units the op performed (probes, rows, tuples)
    check(op, result, ctx) theorem-based check; returns a JSON-able answer
                           or raises CheckFailed
    mappings_of(ops)       the mappings the ops evaluate, for the replay metrics
    unitary_orders(ops)    the matrix orders k whose Haar unitaries they draw

A workload may also define known_defects(seed): ops that are generated and
run on every run but kept out of the timed loop (see run.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One operation: a scenario, an oracle query or a sweep."""

    id: str
    kind: str
    params: dict


class CheckFailed(Exception):
    """The op returned, but its answer contradicts the theorem it audits."""


@dataclass
class Outcome:
    op: Op
    latency_s: float
    work: float = 0.0
    answer: object = None
    error: str | None = None


def run_op(wl, op: Op, ctx, tracer=None) -> Outcome:
    """Execute and check one op; never raises, so one bad op cannot end a run.

    Latency covers the library call only; the correctness check runs after
    the clock stops and outside any trace span.
    """
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.execute(op, ctx)
        else:
            with tracer.op_span(op):
                result = wl.execute(op, ctx)
    except Exception as e:  # op boundary: record and keep the run going
        return Outcome(op, time.perf_counter() - t0, error=describe(e))
    latency = time.perf_counter() - t0
    out = Outcome(op, latency, work=float(wl.work(op, result)))
    if tracer is not None:
        tracer.paused = True
    try:
        out.answer = wl.check(op, result, ctx)
    except CheckFailed as e:
        out.error = f"check: {e}"
    except Exception as e:  # a check that crashes is a failed op, not a dead run
        out.error = f"check raised {describe(e)}"
    finally:
        if tracer is not None:
            tracer.paused = False
    return out


def describe(e: BaseException) -> str:
    text = str(e).splitlines()[0] if str(e) else ""
    return f"{type(e).__name__}: {text[:200]}"


def measure(wl, pool, ctx, seconds: float | None = None,
            rounds: int | None = None, between=None) -> tuple[list[Outcome], float, int]:
    """Run whole rounds back to back until `seconds` have passed (or for
    exactly `rounds` rounds).  A round is never cut short, so every run sees
    the same mix of op kinds.  `between(elapsed)`, if given, is called after
    each round; its own time is kept out of the loop's clock.  Returns
    outcomes, wall time of the rounds and rounds run."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    done = 0
    while True:
        for op in pool[done % len(pool)]:
            outcomes.append(run_op(wl, op, ctx))
        done += 1
        if between is not None:
            t0 = time.perf_counter()
            between(t0 - start)
            start += time.perf_counter() - t0
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return outcomes, time.perf_counter() - start, done


def measure_paired(wl, pool, ctx, seconds: float, tracer):
    """Run whole rounds until `seconds` have passed, each round twice: once
    untraced and once with the tracer installed, in alternating order so
    that neither pass always meets warm caches.  Returns the untraced and
    traced outcomes, the per-round wall times of each pass kind, and the
    rounds run."""
    outcomes: dict[bool, list[Outcome]] = {False: [], True: []}
    walls: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    done = 0
    while True:
        for traced in ((False, True) if done % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                for op in pool[done % len(pool)]:
                    outcomes[traced].append(run_op(wl, op, ctx, tracer if traced else None))
                walls[traced].append(time.perf_counter() - t0)
            finally:
                if traced:
                    tracer.uninstall()
        done += 1
        if time.perf_counter() - start >= seconds:
            break
    return outcomes[False], outcomes[True], walls[False], walls[True], done


def tail(values, beyond: int = 10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile): the value is the order statistic with
    exactly `beyond` larger samples; with fewer than beyond + 1 samples it
    is the minimum, reported as percentile 0.
    """
    s = sorted(values)
    n = len(s)
    k = max(n - beyond - 1, 0)
    pct = 100.0 * (k + 1) / n if n > beyond else 0.0
    return s[k], pct


def sha256_json(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)
    return hashlib.sha256(blob.encode()).hexdigest()


def _json_default(x):
    if hasattr(x, "tolist"):
        return x.tolist()
    if isinstance(x, complex):
        return [x.real, x.imag]
    raise TypeError(f"not JSON-serializable: {type(x).__name__}")


def finite_float(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise CheckFailed(f"non-finite value {x}")
    return x
