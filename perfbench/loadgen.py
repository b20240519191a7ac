"""Due-time open-loop load generator.

Each request is sent when it falls due and timed from that moment, not
from when the server accepted it.  The serve loop renders misses inline on
the event loop, so a request that falls due during such a render is
submitted late; timing from submission (``FrameResponse.latency_s``, and
``repro.serve.replay.replay_trace(time_scale>0)``) drops that wait.  Here
it is part of the latency, and the generator reports how late it ran.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Awaitable, Callable, Sequence

#: How long before a due time the generator stops sleeping and polls.
SPIN_S = 0.002


@dataclasses.dataclass(frozen=True)
class Timing:
    """When one request fell due, was sent, and completed (clock seconds)."""

    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


async def open_loop(
    schedule: Sequence[tuple[float, object]],
    submit: Callable[[object], Awaitable[object]],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    spin_s: float = SPIN_S,
) -> tuple[list[Timing], list[object]]:
    """Send ``submit(item)`` for each ``(offset_s, item)`` when it falls due.

    Offsets are seconds from the start and must not decrease.  Returns the
    timings and responses in schedule order; a request that raised has its
    exception in place of a response.  The generator sleeps until
    ``spin_s`` before each due time and then yields to the event loop
    until the time comes, because a timed sleep alone wakes up to a
    millisecond late.  ``clock`` and ``sleep`` are seams for tests on a
    fake clock, which pass ``spin_s=0``.
    """
    start = clock()
    timings: list[Timing | None] = [None] * len(schedule)
    responses: list[object] = [None] * len(schedule)

    async def send(index: int, due: float, item: object) -> None:
        sent = clock()
        try:
            responses[index] = await submit(item)
        except Exception as exc:  # counted by the caller as a failed request
            responses[index] = exc
        timings[index] = Timing(due, sent, clock())

    tasks = []
    for index, (offset, item) in enumerate(schedule):
        due = start + offset
        wait = due - clock() - spin_s
        if wait > 0:
            await sleep(wait)
        while spin_s and clock() < due:
            await asyncio.sleep(0)
        tasks.append(asyncio.create_task(send(index, due, item)))
    await asyncio.gather(*tasks)
    return timings, responses
