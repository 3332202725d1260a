"""Plan the trace a few days ahead of the engine, in a forked child.

Each simulated day's traffic is a **plan** — pure data — and an
**apply** step (DESIGN.md §19). :meth:`TraceGenerator._draw_day` makes
the plan: the day's rows sorted by arrival time, each with its
generation index, company index and ``mta_hint``, as a :class:`DayPlan`.
:meth:`TraceGenerator._dispatch_day` applies it at the day's planning
event: it replays the plan's op log, allocates the id block,
materialises the messages (or, for rows MTA-IN refuses whatever DNS
says, only what the refusal reads) and schedules them.

A top-level run forks one :class:`Planner` child at the end of its first
planning event. The child runs the unchanged drawing code on its forked
copy of the run for the following days, up to ``_AHEAD`` days ahead of
the engine, and a sender thread writes each pickled plan to a socket
pair: a day's plan is larger than the socket's buffer, so the drawing
must not wait for the main process to read it. Every side effect the
drawing makes outside the generator is recorded, in generation order,
as one op in the plan's log:

* an IP leased from the world's allocator (the child's own allocator
  advances, because the drawing reads it back; the replay checks that
  the main process leases the same IP);
* a client PTR record, a bulk DNSBL pre-listing, a contact mailbox;
* a scheduled ``send_user_mail`` or ``manual_whitelist`` call;
* the newsletter and marketing issue counters.

The main process replays them at the same simulated time and in the
same order as in-process planning would have made them, so the run is
bit-identical either way. A plan crosses the pipe as one plain pickle:
pickle already writes a value repeated within a day once, and enum
members unpickle as the same objects.

Planning stays in-process when :func:`can_fork_planner` says no, or
when the run shows attacks or checkpoint writes (see :meth:`TraceGenerator.planning_ahead`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import resource
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from functools import partial

from repro.blacklistd.service import DnsblService
from repro.core.message import MessageBatch
from repro.net.dns import DnsRegistry
from repro.net.hosts import RemoteMailHost
from repro.util.simtime import DAY
from repro.workload.entities import IpAllocator

#: Op kinds of a plan's log.
_IP, _PTR, _LIST, _MAILBOX, _CALL, _COUNTERS = range(6)

#: Days the planner may draw beyond the one the engine is running.
_AHEAD = 3

#: Seconds between liveness checks while the main process waits for a
#: plan: a dead planner raises instead of hanging even if some other
#: process still holds the pipe's far end.
_LIVENESS_POLL_S = 0.1


class PlannerError(RuntimeError):
    """The forked day planner died, failed or disagreed with the run."""


def can_fork_planner() -> bool:
    """Whether this process can plan on a second core: it has
    ``os.fork``, at least two usable CPUs, and is not itself a worker of
    a process pool (``jobs>1`` sweep workers)."""
    if not hasattr(os, "fork") or multiprocessing.parent_process() is not None:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return cpus >= 2


class DayPlan(MessageBatch):
    """One simulated day's drawn traffic plus the op log of its side
    effects (empty when the day was drawn in-process, whose effects
    already happened)."""

    __slots__ = ("day", "ops")

    def __init__(self, day: int, ops=(), **columns) -> None:
        super().__init__(**columns)
        self.day = day
        self.ops = ops


@dataclass
class PlannerStats:
    """The ``planner.*`` metrics of a run."""

    #: Days planned by the forked planner (0 when planning in-process).
    days: int = 0
    #: Main-process seconds blocked waiting for a plan.
    wait_s: float = 0.0
    #: Planner seconds spent drawing and pickling plans.
    busy_s: float = 0.0
    #: The planner's own peak resident set size.
    max_rss_bytes: int = 0


class Planner:
    """Main side of a forked day planner: receives and checks each day's
    plan; kills and reaps the child on :meth:`close`."""

    def __init__(self, generator, first_day: int, n_days: int) -> None:
        self.n_days = n_days
        self.stats = PlannerStats()
        conn, child_conn = multiprocessing.Pipe()
        pid = os.fork()
        if pid == 0:
            conn.close()
            _serve(generator, child_conn, first_day, n_days)
        child_conn.close()
        self.pid = pid
        self._conn = conn
        self._reaped = False

    def receive(self, day: int) -> DayPlan:
        """The plan for *day*; raises :class:`PlannerError` if the
        planner died, failed or sent another day."""
        conn = self._conn
        started = time.perf_counter()
        while not conn.poll(_LIVENESS_POLL_S):
            self._check_alive(day)
        self.stats.wait_s += time.perf_counter() - started
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise PlannerError(
                f"day planner (pid {self.pid}) closed its pipe before "
                f"sending day {day}"
            ) from exc
        if payload[:1] == b"E":
            raise PlannerError(
                f"day planner (pid {self.pid}) failed:\n"
                + payload[1:].decode("utf-8", "replace")
            )
        plan = self._load(payload)
        if plan.day != day:
            raise PlannerError(
                f"day planner (pid {self.pid}) sent day {plan.day}, "
                f"expected day {day}"
            )
        if day + _AHEAD < self.n_days:
            try:
                conn.send_bytes(b"")  # the planner may draw another day
            except OSError as exc:
                raise PlannerError(
                    f"day planner (pid {self.pid}) is gone after day {day}"
                ) from exc
        return plan

    def close(self) -> None:
        """Kill and reap the child, whatever state it is in; idempotent."""
        if not self._reaped:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            try:
                os.waitpid(self.pid, 0)
            except ChildProcessError:  # reaped elsewhere already
                pass
            self._reaped = True
        self._conn.close()

    def _check_alive(self, day: int) -> None:
        if self._reaped:
            raise PlannerError(f"day planner (pid {self.pid}) is closed")
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if pid:
            self._reaped = True
            raise PlannerError(
                f"day planner (pid {self.pid}) died with exit status "
                f"{os.waitstatus_to_exitcode(status)} before sending day "
                f"{day}"
            )

    def _load(self, payload: bytes) -> DayPlan:
        day, rows, hints, order, companies, ops, busy, rss = pickle.loads(
            payload
        )
        stats = self.stats
        stats.days += 1
        stats.busy_s += busy
        stats.max_rss_bytes = max(stats.max_rss_bytes, rss)
        return DayPlan(
            day, ops, rows=rows, handlers=companies, order=order, hints=hints
        )


def replay(generator, ops) -> None:
    """Apply a plan's op log to the main process's run, in log order."""
    world = generator.world
    allocate = world._ip_allocator.allocate
    for op in ops:
        kind = op[0]
        if kind == _IP:
            ip = allocate()
            if ip != op[1]:
                raise PlannerError(
                    f"replay leased IP {ip} where the day planner leased "
                    f"{op[1]}: something outside the generator leases IPs "
                    "during the run"
                )
        elif kind == _PTR:
            world.registry.register_client_ptr(op[1], op[2])
        elif kind == _LIST:
            world.services[op[1]].force_list_many(op[2], op[3], op[4])
        elif kind == _MAILBOX:
            world._ext_by_domain[op[1]].host.add_mailbox(op[2])
        elif kind == _CALL:
            _kind, t, company, method, args = op
            installation = generator.installation_at(company)
            generator.simulator.schedule(
                t, partial(getattr(installation, method), *args)
            )
        else:
            _kind, issues, blasts = op
            for source, sent in zip(world.newsletter_sources, issues):
                source.issues_sent = sent
            for source, sent in zip(world.marketing_sources, blasts):
                source.blasts_sent = sent


class _Recorder:
    """Child side: stands in for the simulator the drawing code reads the
    clock from and schedules on, and records each world mutation the
    drawing makes as an op. Installed only in the planner child, whose
    copy of the run exists for nothing else."""

    def __init__(self, generator) -> None:
        self.now = 0.0
        self.ops: list = []
        self._world = generator.world
        self._company_index = {
            company.company_id: index
            for index, company in enumerate(generator.world.companies)
        }
        self._counters = self._read_counters()
        generator.simulator = self
        self._patch()

    def schedule(self, at: float, action, label: str = "") -> None:
        method = action.func
        self.ops.append((
            _CALL, at,
            self._company_index[method.__self__.config.company_id],
            method.__name__, action.args,
        ))

    def take_ops(self) -> list:
        counters = self._read_counters()
        if counters != self._counters:
            self._counters = counters
            self.ops.append((_COUNTERS,) + counters)
        ops = self.ops[:]
        self.ops.clear()  # in place: the patched methods hold the list
        return ops

    def _read_counters(self) -> tuple:
        world = self._world
        return (
            [source.issues_sent for source in world.newsletter_sources],
            [source.blasts_sent for source in world.marketing_sources],
        )

    def _patch(self) -> None:
        ops = self.ops
        allocate = IpAllocator.allocate

        def leased(allocator):
            ip = allocate(allocator)
            ops.append((_IP, ip))
            return ip

        def ptr(_registry, ip, hostname):
            ops.append((_PTR, ip, hostname))

        def listed(service, ips, now, duration):
            ops.append((_LIST, service.name, ips, now, duration))

        def mailbox(host, local):
            ops.append((_MAILBOX, host.domain, local))

        IpAllocator.allocate = leased
        DnsRegistry.register_client_ptr = ptr
        DnsblService.force_list_many = listed
        RemoteMailHost.add_mailbox = mailbox


def _serve(generator, conn, first_day: int, n_days: int) -> None:
    """The planner child: plan days ``first_day..n_days-1``, at most
    ``_AHEAD`` days beyond the one the main process took last, then exit.
    Never returns."""
    status = 1
    # Plans and the error frame leave through one queue and one sender
    # thread, so a frame is never written into the middle of another.
    outbox = queue.SimpleQueue()
    sender = threading.Thread(target=_send, args=(conn, outbox))
    try:
        # A profiler or tracer inherited from the main process would only
        # slow the child down; what it measured here is never read.
        sys.setprofile(None)
        sys.settrace(None)
        sender.start()
        recorder = _Recorder(generator)
        for day in range(first_day, n_days):
            if day >= first_day + _AHEAD:
                conn.recv_bytes()
            started = time.perf_counter()
            recorder.now = day * DAY
            plan = generator._draw_day(day)
            outbox.put(_dump(plan, recorder.take_ops(), started))
        status = 0
    except BaseException:
        outbox.put(b"E" + traceback.format_exc().encode("utf-8"))
    finally:
        outbox.put(None)
        try:
            sender.join()
        finally:
            os._exit(status)


def _send(conn, outbox: queue.SimpleQueue) -> None:
    """The child's sender thread: write each queued frame until ``None``."""
    try:
        for payload in iter(outbox.get, None):
            conn.send_bytes(payload)
    except OSError:
        pass  # the main process is gone; the drawing loop sees it too


def _dump(plan: DayPlan, ops: list, started: float) -> bytes:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    if sys.platform != "darwin":
        rss *= 1024
    return pickle.dumps(
        (plan.day, plan.rows, plan.hints, plan.order, plan.handlers, ops,
         time.perf_counter() - started, rss),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
