"""The forked day planner's lifecycle: the child never outlives its run,
a dead planner or a diverging replay raises instead of hanging or going
silent, and the runs that must plan in-process do so with unchanged
stores."""

from __future__ import annotations

import os
import signal

import pytest

from repro.core.engine import CompanyInstallation
from repro.experiments.parallel import store_digest
from repro.experiments.runner import run_simulation
from repro.sim.engine import Simulator
from repro.workload import generator, planner

pytestmark = pytest.mark.skipif(
    not planner.can_fork_planner(), reason="needs fork and two CPUs"
)


class Boom(Exception):
    pass


@pytest.fixture
def planners(monkeypatch):
    """Every :class:`~repro.workload.planner.Planner` the test starts."""
    started = []
    original = planner.Planner.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        started.append(self)

    monkeypatch.setattr(planner.Planner, "__init__", init)
    return started


@pytest.fixture
def deadline():
    """Fail a test that blocks for more than a minute instead of hanging
    the suite."""

    def expired(_signum, _frame):
        raise TimeoutError("the run hung")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _assert_reaped(pid: int) -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def _on_day(monkeypatch, day: int, action) -> None:
    """Call ``action(generator)`` before the planning event of *day*."""
    original = generator.TraceGenerator._dispatch_day

    def dispatch(self, plan, plan_day):
        if plan_day == day:
            action(self)
        return original(self, plan, plan_day)

    monkeypatch.setattr(generator.TraceGenerator, "_dispatch_day", dispatch)


def test_a_run_forks_one_planner_and_reaps_it(planners):
    result = run_simulation("tiny", seed=7)
    (started,) = planners
    assert result.metrics["planner.days"] == result.info.horizon_days - 1
    assert result.metrics["planner.busy_s"] > 0
    assert result.metrics["planner.max_rss_bytes"] > 0
    _assert_reaped(started.pid)


def test_exception_from_the_first_clock_run_reaps_the_planner(
    monkeypatch, planners
):
    original = Simulator.run

    def run_then_fail(simulator, until=None):
        original(simulator, until)
        raise Boom()

    monkeypatch.setattr(Simulator, "run", run_then_fail)
    with pytest.raises(Boom):
        run_simulation("tiny", seed=7)
    (started,) = planners
    _assert_reaped(started.pid)


def test_exception_before_the_first_planning_event_starts_no_planner(
    monkeypatch, planners
):
    def fail(simulator, until=None):
        raise Boom()

    monkeypatch.setattr(Simulator, "run", fail)
    with pytest.raises(Boom):
        run_simulation("tiny", seed=7)
    assert planners == []


def test_exception_from_a_handler_mid_run_reaps_the_planner(
    monkeypatch, planners
):
    original = CompanyInstallation.handle_inbound
    calls = []

    def inbound(self, message):
        calls.append(None)
        if len(calls) == 2000:
            raise Boom()
        return original(self, message)

    monkeypatch.setattr(CompanyInstallation, "handle_inbound", inbound)
    with pytest.raises(Boom):
        run_simulation("tiny", seed=7)
    (started,) = planners  # the failure came after the fork
    _assert_reaped(started.pid)


def test_a_killed_planner_raises_naming_the_planner(
    monkeypatch, planners, deadline
):
    _on_day(monkeypatch, 3, lambda gen: os.kill(
        gen._planner.pid, signal.SIGKILL))
    with pytest.raises(planner.PlannerError, match="day planner"):
        run_simulation("tiny", seed=7)
    (started,) = planners
    _assert_reaped(started.pid)


def test_a_planner_failure_behind_an_unsent_plan_raises_its_traceback(
    monkeypatch, planners, deadline
):
    """The child fails while its sender thread is still writing the plan
    before (padded past the socket's buffer): the error frame must follow
    that plan whole, not cut into it."""
    main = os.getpid()
    dump, draw = planner._dump, generator.TraceGenerator._draw_day

    def padded(*args):
        return dump(*args) + bytes(1 << 20)  # pickle ignores the tail

    def draw_day(self, day):
        if day == 2 and os.getpid() != main:
            raise Boom("planner failed on day 2")
        return draw(self, day)

    monkeypatch.setattr(planner, "_dump", padded)
    monkeypatch.setattr(generator.TraceGenerator, "_draw_day", draw_day)
    with pytest.raises(planner.PlannerError, match="planner failed on day 2"):
        run_simulation("tiny", seed=7)
    (started,) = planners
    assert started.stats.days == 1  # day 1's plan arrived whole
    _assert_reaped(started.pid)


def test_a_replay_ip_mismatch_raises(monkeypatch, planners, deadline):
    """An IP leased outside the generator mid-run shifts the main
    process's allocator: the next replayed lease must not go silent."""
    _on_day(monkeypatch, 2, lambda gen: gen.world._ip_allocator.allocate())
    with pytest.raises(planner.PlannerError, match="leased"):
        run_simulation("tiny", seed=7)
    (started,) = planners
    _assert_reaped(started.pid)


def test_scenario_runs_plan_in_process(planners):
    result = run_simulation("tiny", seed=7, scenario="trap-bombing")
    assert result.metrics["planner.days"] == 0
    assert planners == []


def test_checkpointed_and_resumed_runs_plan_in_process(tmp_path, planners):
    from repro.core.recovery import latest_checkpoint

    plain = run_simulation("tiny", seed=7)
    (started,) = planners
    checkpointed = run_simulation(
        "tiny", seed=7, checkpoint_every=3 * 86400.0,
        checkpoint_dir=str(tmp_path),
    )
    resumed = run_simulation(
        "tiny", seed=7, resume_from=latest_checkpoint(str(tmp_path)),
    )
    assert planners == [started]
    for result in (checkpointed, resumed):
        assert result.metrics["planner.days"] == 0
        assert store_digest(result.store) == store_digest(plain.store)
