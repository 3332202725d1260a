"""Self-time arithmetic of the span tracer."""

import asyncio

import pytest

from spans import Tracer, traced_coroutine, wrap_method


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("outer")          # 0
    clock.now = 1.0
    child = tracer.enter("child")          # 1
    clock.now = 3.0
    grandchild = tracer.enter("grand")     # 3
    clock.now = 3.5
    tracer.exit(grandchild)                # 3.5
    clock.now = 4.0
    tracer.exit(child)                     # 4
    clock.now = 4.5
    second = tracer.enter("child")         # 4.5
    clock.now = 5.0
    tracer.exit(second)                    # 5
    clock.now = 7.0
    tracer.exit(outer)                     # 7

    assert tracer.inclusive("outer") == 7.0
    assert tracer.self_time("outer") == 7.0 - 3.0 - 0.5
    assert tracer.calls("child") == 2
    assert tracer.inclusive("child") == 3.5
    assert tracer.self_time("child") == 3.5 - 0.5
    assert tracer.self_time("grand") == 0.5
    # Self times partition the root span's window.
    assert tracer.total_self() == pytest.approx(7.0)
    names = [span[0] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["outer", "child", "grand", "child"]
    assert parents == [-1, 0, 1, 0]
    assert tracer.spans[2][1:3] == [3.0, 3.5]


def test_out_of_order_close_is_refused():
    tracer = Tracer()
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def test_merge_state_adds_aggregates_and_counts():
    clock = FakeClock()
    a, b = Tracer(clock), Tracer(clock)
    for tracer, length in ((a, 1.0), (b, 2.0)):
        frame = tracer.enter("work")
        clock.now += length
        tracer.exit(frame, hit=True)
        tracer.count("rows", 3)
    a.merge_state(b.state())
    assert a.calls("work") == 2
    assert a.inclusive("work") == 3.0
    assert a.hits("work") == 2
    assert a.counts["rows"] == 6


class Box:
    def value(self, x):
        if x is None:
            raise ValueError("no value")
        return x


def test_hit_predicate_sees_only_returned_values():
    tracer = Tracer()
    wrap_method(tracer, Box, "value", "box", hit=lambda r: r.real > 1)
    box = Box()
    assert box.value(2) == 2
    assert box.value(1) == 1
    with pytest.raises(ValueError):
        box.value(None)  # the predicate would fail on None
    assert tracer.calls("box") == 3
    assert tracer.hits("box") == 1
    assert tracer.current() is None  # nothing left open


def test_traced_coroutine_counts_only_busy_steps():
    clock = FakeClock()
    tracer = Tracer(clock)

    async def session():
        clock.now += 1.0               # busy step 1
        await asyncio.sleep(0)         # while suspended, other() runs
        clock.now += 2.0               # busy step 2
        await asyncio.sleep(0)
        return "done"                  # step 3

    async def other():
        await asyncio.sleep(0)
        clock.now += 5.0

    async def main():
        both = await asyncio.gather(
            traced_coroutine(tracer, "session", session()), other())
        return both[0]

    assert asyncio.run(main()) == "done"
    assert tracer.calls("session") == 3
    assert tracer.inclusive("session") == 3.0
