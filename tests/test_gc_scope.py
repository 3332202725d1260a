"""The collector scope around every simulated run (``repro.util.gcpause``).

A run pauses automatic collection, freezes each simulated day's
survivors, and must hand the caller back its collector exactly as it
found it: enabled flag restored, nothing frozen, the dropped world
collectable. The pause must also leave every record of the run alone.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.experiments import run_simulation
from repro.experiments.parallel import store_digest
from repro.sim.engine import Simulator

#: ``tiny``/seed 7 as the uninterrupted, never-paused clock produced it.
TINY_SEED7_EVENTS = 19665
TINY_SEED7_DIGEST = (
    "b54c19f5c785fc5473e83325bfeff7944cf9c8f2d3d4e9ea8b1eafb8b8bbc188"
)


class _Aborted(Exception):
    pass


@pytest.fixture
def collector_enabled(request):
    """Run the test with the caller's collector on or off, restoring it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("collector_enabled", [True, False],
                         indirect=True)
def test_run_restores_the_callers_collector(collector_enabled):
    run_simulation("tiny", seed=7)
    assert gc.isenabled() == collector_enabled
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("collector_enabled", [True, False],
                         indirect=True)
@pytest.mark.parametrize("abort_at", [0, 3])
def test_aborted_run_restores_the_callers_collector(
    collector_enabled, abort_at, monkeypatch
):
    """Raise from the first clock run (the benchmark's set-up pattern)
    or from a later one, once earlier days are frozen."""
    calls = []
    run = Simulator.run

    def abort(simulator, until=None):
        calls.append(until)
        if len(calls) > abort_at:
            raise _Aborted()
        return run(simulator, until)

    monkeypatch.setattr(Simulator, "run", abort)
    with pytest.raises(_Aborted):
        run_simulation("tiny", seed=7)
    assert gc.isenabled() == collector_enabled
    assert gc.get_freeze_count() == 0


def test_clock_runs_paused_and_frozen_by_day(monkeypatch):
    """Inside the run the collector is off, and from the first day
    boundary on the earlier days' objects are frozen."""
    seen = []
    run = Simulator.run

    def observed(simulator, until=None):
        seen.append((gc.isenabled(), gc.get_freeze_count()))
        return run(simulator, until)

    monkeypatch.setattr(Simulator, "run", observed)
    run_simulation("tiny", seed=7)
    assert not any(enabled for enabled, _frozen in seen)
    assert seen[0][1] == 0
    assert all(frozen > 0 for _enabled, frozen in seen[1:])
    # One clock run per simulated day, then the drain.
    assert len(seen) == 10 + 1


def test_dropped_world_is_collected_by_the_next_run():
    """The world was frozen at the run's day boundaries; once dropped,
    a cycle through it must still be reclaimable by the collector."""
    result = run_simulation("tiny", seed=7)
    result.world.cycle = result  # reference counting alone cannot free it
    world = weakref.ref(result.world)
    del result
    run_simulation("tiny", seed=7)
    assert world() is None


def test_day_chunked_clock_keeps_the_run_bit_identical():
    result = run_simulation("tiny", seed=7)
    assert result.events_processed == TINY_SEED7_EVENTS
    assert store_digest(result.store) == TINY_SEED7_DIGEST
