"""The benchmark's arithmetic, kept free of numpy and of the program.

Everything here is pure Python so the parent runner and the comparison
command can use it without importing the system under test, and so the
rules have tests of their own (``perfbench/test_arithmetic.py``).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly beyond percentile ``q``.

    Percentiles interpolate linearly between order statistics (numpy's
    default), so percentile ``q`` sits at position ``q/100 * (n - 1)`` and
    every sample above its floor lies beyond it.  For ``q <= 50`` the
    shorter side is the lower one, which is counted instead.
    """
    if n < 1:
        return 0
    pos = q / 100.0 * (n - 1)
    above = n - 1 - math.floor(pos)
    below = math.ceil(pos)
    return min(above, below) if q <= 50 else above


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` of ``values``; raises unless ``MIN_TAIL`` samples lie beyond it."""
    n = len(values)
    if samples_beyond(n, q) < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples has {samples_beyond(n, q)} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    ordered = sorted(values)
    pos = q / 100.0 * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the spread a set of runs is judged by)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def better(a: float, b: float, direction: str) -> bool:
    """Whether ``b`` is strictly better than ``a`` for a metric of ``direction``."""
    if direction == "lower":
        return b < a
    if direction == "higher":
        return b > a
    raise ValueError(f"direction must be 'lower' or 'higher', got {direction!r}")


def pair_wins(base: Sequence[float], change: Sequence[float], direction: str) -> tuple[int, int, int]:
    """(wins, losses, ties) of ``change`` over ``base`` across aligned pairs."""
    if len(base) != len(change):
        raise ValueError("pairs need equally many runs on both sides")
    wins = sum(1 for a, b in zip(base, change) if better(a, b, direction))
    losses = sum(1 for a, b in zip(base, change) if better(b, a, direction))
    return wins, losses, len(base) - wins - losses


def self_times(spans: Iterable[tuple]) -> list[tuple[tuple, float]]:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` are ``(name, t0, t1, lane)`` tuples; a child is a span on the
    same lane whose interval lies inside its parent's.  Children of one
    parent are merged as intervals, so overlapping children are not counted
    twice.  Returns ``[(span, self_seconds)]`` in the input order.
    """
    spans = list(spans)
    order = sorted(range(len(spans)), key=lambda i: (spans[i][3], spans[i][1], -spans[i][2]))
    children: dict[int, list[tuple[float, float]]] = {i: [] for i in range(len(spans))}
    stack: list[int] = []
    lane = object()
    for i in order:
        _, t0, t1, span_lane = spans[i]
        if span_lane != lane:
            stack, lane = [], span_lane
        while stack and spans[stack[-1]][2] < t1:
            stack.pop()
        if stack and spans[stack[-1]][1] <= t0:
            children[stack[-1]].append((t0, t1))
        stack.append(i)
    out = []
    for i, span in enumerate(spans):
        covered, end = 0.0, -math.inf
        for t0, t1 in sorted(children[i]):
            t0 = max(t0, end)
            if t1 > t0:
                covered += t1 - t0
                end = t1
        out.append((span, (span[2] - span[1]) - covered))
    return out
