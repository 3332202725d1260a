"""Property-style tests for the discrete-event engine.

Seeded stdlib ``random`` drives randomized schedules — including
callbacks that schedule further events and cancellations mid-run — and
checks the invariants every simulation model relies on:

* events fire in nondecreasing time order, ties broken FIFO by ``seq``;
* scheduling into the past or with a negative delay raises
  :class:`SimulationError`;
* ``events_processed`` counts exactly the callbacks that fired.
"""

import random

import pytest

from repro.sim.engine import SimulationError, Simulator

SEEDS = range(8)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_schedule_fires_in_nondecreasing_time_order(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    for _ in range(300):
        # Coarse-grained times so equal timestamps occur often.
        at = float(rng.randrange(0, 40))
        sim.schedule(at, lambda at=at: fired.append(at))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == 300


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_times_break_ties_fifo_by_seq(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    events = []
    for _ in range(200):
        at = float(rng.randrange(0, 10))  # heavy collisions by design
        event = sim.schedule(at, lambda: None)
        event.action = lambda e=event: fired.append((e.time, e.seq))
        events.append(event)
    sim.run()
    # Global order is exactly sort-by-(time, seq): among same-time events
    # the earlier-scheduled (lower seq) one always fires first.
    assert fired == sorted(fired)
    assert len(fired) == len(events)


@pytest.mark.parametrize("seed", SEEDS)
def test_callbacks_scheduling_more_work_stay_time_ordered(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired = []

    def make_action(depth):
        def action():
            fired.append(sim.now)
            if depth > 0 and rng.random() < 0.7:
                sim.schedule_after(rng.uniform(0.0, 5.0), make_action(depth - 1))

        return action

    for _ in range(50):
        sim.schedule(rng.uniform(0.0, 20.0), make_action(3))
    sim.run()
    assert fired == sorted(fired)
    assert sim.events_processed == len(fired)
    assert sim.pending == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_scheduling_into_the_past_raises(seed):
    rng = random.Random(seed)
    sim = Simulator()
    sim.schedule(rng.uniform(1.0, 10.0), lambda: None)
    sim.run()
    assert sim.now > 0.0
    with pytest.raises(SimulationError):
        sim.schedule(sim.now - rng.uniform(0.001, sim.now), lambda: None)


@pytest.mark.parametrize("seed", SEEDS)
def test_negative_delay_raises(seed):
    rng = random.Random(seed)
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule_after(-rng.uniform(0.001, 100.0), lambda: None)


@pytest.mark.parametrize("seed", SEEDS)
def test_events_processed_counts_fired_callbacks_only(seed):
    """Cancelled events are skipped: they neither fire nor count."""
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    events = []
    for index in range(200):
        at = rng.uniform(0.0, 50.0)
        events.append(sim.schedule(at, lambda i=index: fired.append(i)))
    cancelled = rng.sample(events, k=60)
    for event in cancelled:
        event.cancel()
    sim.run()
    assert len(fired) == 200 - 60
    assert sim.events_processed == len(fired)
    # Events are scheduled one per index, so seq == callback index here.
    assert set(fired).isdisjoint({e.seq for e in cancelled})


@pytest.mark.parametrize("seed", SEEDS)
def test_run_until_is_half_open_and_advances_clock(seed):
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    boundary = 10.0
    times = sorted(rng.uniform(0.0, 20.0) for _ in range(100))
    times.append(boundary)  # an event exactly at the boundary
    for at in times:
        sim.schedule(at, lambda at=at: fired.append(at))
    sim.run(until=boundary)
    assert all(at < boundary for at in fired)
    assert sim.now == boundary
    before = len(fired)
    sim.run()
    assert len(fired) == len(times)
    assert fired[before:] == sorted(fired[before:])
    assert all(at >= boundary for at in fired[before:])


# -- batched scheduling (the PR 6 data plane) ---------------------------------


def _mixed_operations(rng):
    """A random scheduling script mixing batches and single events.

    Returns ops of the form ``("single", t, tag)`` or ``("batch", rows)``;
    times are coarse-grained so same-timestamp collisions (within a batch,
    between batches, and between batch and single events) are common.
    """
    ops = []
    tag = 0
    for _ in range(rng.randrange(3, 8)):
        if rng.random() < 0.5:
            ops.append(("single", float(rng.randrange(0, 15)), tag))
            tag += 1
        else:
            rows = sorted(
                (float(rng.randrange(0, 15)), tag + i)
                for i in range(rng.randrange(1, 40))
            )
            tag += len(rows)
            ops.append(("batch", rows))
    return ops


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_fires_identically_to_individual_scheduling(seed):
    """schedule_batch is a pure packing: a batch must interleave with the
    rest of the queue exactly as the same items scheduled one by one (the
    same seqs are allocated, so the global (time, seq) order is equal)."""
    ops = _mixed_operations(random.Random(seed))

    def execute(batched):
        sim = Simulator()
        fired = []
        for op in ops:
            if op[0] == "single":
                _, at, tag = op
                sim.schedule(at, lambda t=tag: fired.append((sim.now, t)))
            elif batched:
                rows = op[1]
                times = [t for t, _ in rows]
                actions = [lambda t: fired.append((sim.now, t))] * len(rows)
                args = [tag for _, tag in rows]
                sim.schedule_batch(times, actions, args)
            else:
                for at, tag in op[1]:
                    sim.schedule(
                        at, lambda t=tag: fired.append((sim.now, t))
                    )
        sim.run()
        return fired, sim.events_processed

    batched_fired, batched_count = execute(batched=True)
    plain_fired, plain_count = execute(batched=False)
    assert batched_fired == plain_fired
    assert batched_count == plain_count


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_interleaves_with_events_scheduled_mid_run(seed):
    """Callbacks fired from batch items may schedule new single events;
    those must interleave into the remaining batch in global time order."""
    rng = random.Random(seed)
    sim = Simulator()
    fired = []

    def batch_action(tag):
        fired.append(("batch", sim.now, tag))
        if rng.random() < 0.5:
            extra = sim.now + rng.uniform(0.0, 6.0)
            sim.schedule(extra, lambda: fired.append(("late", sim.now)))

    times = sorted(float(rng.randrange(0, 10)) for _ in range(60))
    sim.schedule_batch(times, [batch_action] * 60, list(range(60)))
    sim.run()
    stamps = [entry[1] for entry in fired]
    assert stamps == sorted(stamps)
    assert sim.pending == 0
    assert sim.events_processed == len(fired)


@pytest.mark.parametrize("seed", SEEDS)
def test_run_until_pauses_and_resumes_mid_batch(seed):
    """run(until=...) may stop with a batch partially consumed; resuming
    must fire the remainder (and nothing twice)."""
    rng = random.Random(seed)
    sim = Simulator()
    fired = []
    times = sorted(float(rng.randrange(0, 20)) for _ in range(80))
    sim.schedule_batch(
        times, [lambda tag: fired.append(tag)] * 80, list(range(80))
    )
    boundary = 10.0
    sim.run(until=boundary)
    assert all(times[tag] < boundary for tag in fired)
    assert sim.pending == 80 - len(fired)
    sim.run()
    assert sorted(fired) == list(range(80))
    assert sim.pending == 0


@pytest.mark.parametrize("preset,seed,weather", [
    pytest.param("tiny", 3, {}, id="tiny-3"),
    pytest.param("tiny", 7, {}, id="tiny-7"),
    pytest.param("small", 11, {}, id="small-11"),
    pytest.param("tiny", 7, {"faults": "stormy"}, id="tiny-7-faults"),
    pytest.param("tiny", 7, {"crashes": "flaky"}, id="tiny-7-crashes"),
])
def test_full_simulation_digest_batched_vs_unbatched(
    preset, seed, weather, monkeypatch
):
    """End-to-end oracle for the whole batched data plane: columnar
    generation + schedule_batch delivery must leave a store byte-identical
    to per-message scheduling (same draws, ids, and tie-breaks) — and a
    trace drawn ahead by the forked day planner must leave the store and
    the execution-invariant metrics of a trace planned in-process."""
    from repro.experiments import run_simulation
    from repro.experiments.parallel import store_digest
    from repro.util.metrics import execution_invariant
    from repro.workload import planner

    pipelined = planner.can_fork_planner()
    batched = run_simulation(preset, seed=seed, batch_delivery=True, **weather)
    unbatched = run_simulation(
        preset, seed=seed, batch_delivery=False, **weather
    )
    assert store_digest(batched.store) == store_digest(unbatched.store)

    monkeypatch.setattr(planner, "can_fork_planner", lambda: False)
    in_process = run_simulation(preset, seed=seed, **weather)
    assert in_process.metrics["planner.days"] == 0
    assert (batched.metrics["planner.days"] > 0) == pipelined
    assert store_digest(in_process.store) == store_digest(batched.store)
    assert execution_invariant(in_process.metrics) == execution_invariant(
        batched.metrics
    )
