"""Host-speed probe, for throughputs that hold still while the host drifts.

On a host whose cores are shared with other machines, a CPU-bound
Python program's speed drifts by 20% and more over minutes: on the
2-vCPU VM this benchmark was built on, WAL replay ran at 15k records/s
in one run and 24k a minute later. Each throughput behind an end-to-end
metric is therefore measured in segments of a few seconds, with a run of
a fixed pure-Python loop (:func:`slowness`, about 0.3 s) just before and
after each segment in the same process, and every segment's time is
divided by the mean of its two probes:

    reference_seconds = measured_seconds / slowness

``slowness`` is the loop's time over :data:`REFERENCE_S`, its time on
that VM in its usual state. A probe that short-cut the loop (a best-of-3
of a few milliseconds) followed the host's sub-second flicker instead of
its drift and made the spread worse; one long enough to average the
flicker tracked a simulation's time to 2% while the raw time moved by
30%. A change to the program moves the metric; a drift of the host
mostly does not. Runs print the raw figures next to the normalised ones.
"""

from __future__ import annotations

import random
import time

#: Time of one :func:`slowness` loop on the reference host.
REFERENCE_S = 0.35
LOOP = 300_000
KEYS = 50_000


def slowness() -> float:
    """How slow the host runs now: 1.0 at the reference speed, 2.0 at
    half of it."""
    started = time.perf_counter()
    rng = random.Random(1)
    table: dict = {}
    for _ in range(LOOP):
        key = f"k{rng.randrange(KEYS)}"
        table[key] = table.get(key, 0) + 1
    sorted(table.items())
    return (time.perf_counter() - started) / REFERENCE_S


def reference_seconds(segments: list) -> float:
    """Total reference seconds of ``[(seconds, slowness before,
    slowness after)]`` segments."""
    return sum(seconds / ((before + after) / 2)
               for seconds, before, after in segments)
