"""Checkpoint/restore: crash-consistent snapshots of a running simulation.

The CR product's zero-loss claim (tested by :mod:`repro.net.crashes`)
extends to the *simulation harness itself*: a long run killed halfway —
a preempted batch job, a crashed laptop, a failed parallel-sweep run —
must be resumable without redoing the finished part and, crucially,
without changing the answer. The contract is exact:

    **resume ≡ uninterrupted** — a run checkpointed at time *T* and
    resumed from that checkpoint produces a byte-identical measurement
    store (same :func:`~repro.experiments.parallel.store_digest`) as the
    same run left alone.

That works because a checkpoint is one pickle of the *entire* live object
graph — simulator (with its event queue), world, installations, log
store, trace generator, behavior model, fault and crash plans — plus the
one piece of process-global state (the message-id counter). Pickling
shares references, so the graph reconnects exactly; every scheduled
callable is a bound method, ``functools.partial``, or callable class
(never a closure) precisely so this pickle succeeds. Writing a checkpoint
draws no random numbers and mutates nothing observable, so a run *with*
checkpointing is also byte-identical to one without.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

from repro._version import __version__
from repro.util.simtime import DAY

#: On-disk snapshot format; bump on incompatible RunState changes (2: the
#: generator routes rows by company index; 3: DNSBL services keep a
#: pending pre-listing table and a listing log; 4: the generator has no
#: shard context and DNSBL services no listing log; 5: store tables are
#: column tables).
CHECKPOINT_FORMAT = 5

#: Default spacing between snapshots for ``--checkpoint-every`` style knobs.
DEFAULT_CHECKPOINT_EVERY = 7 * DAY

#: Snapshot filename pattern (sortable by sim time).
_FILE_PREFIX = "checkpoint-"
_FILE_SUFFIX = ".pkl"


class CheckpointError(RuntimeError):
    """Raised on unreadable, incompatible, or corrupt snapshot files."""


@dataclass
class RunState:
    """The whole live object graph of one in-flight run.

    Everything :func:`repro.experiments.run_simulation` builds before it
    starts the clock, in one place — both so a checkpoint is a single
    ``pickle.dump`` and so the runner's finish path works identically on
    fresh and restored state.
    """

    scale: object
    seed: int
    audit: bool
    horizon: float
    simulator: object
    store: object
    world: object
    installations: dict
    monitor: object
    generator: object
    behavior: object
    fault_plan: object = None
    crash_plan: object = None
    #: The recurring snapshot writer armed on ``simulator`` (or ``None``);
    #: kept here so a resumed run keeps checkpointing to the same place.
    checkpointer: object = None
    #: Value of the global message-id counter at snapshot time.
    msg_id_counter: int = 0
    #: Resolved :class:`repro.scenarios.ScenarioSpec` of a scenario run
    #: (``None`` otherwise).
    scenario: object = None


class Checkpointer:
    """Recurring snapshot writer, scheduled with ``schedule_every``.

    A callable class (not a closure) because it rides in the event queue
    and is therefore itself part of every snapshot: a resumed run wakes up
    with its checkpointer armed and keeps writing to the same directory.

    On platforms with ``os.fork`` the write happens in a forked child
    (the BGSAVE trick): the fork freezes a copy-on-write image of the
    whole object graph, the child pickles and writes it while the parent
    keeps simulating, and the parent only ever blocks on the fork itself
    plus — if snapshots come faster than the disk drains them — a wait
    for the previous writer. At most one writer is in flight at a time,
    and :meth:`finalize` joins the last one before the run reports its
    results, so snapshot files are always complete by the time anyone
    can resume from them. ``synchronous=True`` forces the in-process
    write path (used where fork is unavailable and by tests that want
    deterministic timing).

    Either way the write path is side-effect-free with respect to the
    simulation: no RNG draws, no state mutation beyond wall-clock
    accounting (which is not part of the measurement store), so enabling
    checkpointing cannot change any result byte.
    """

    def __init__(
        self,
        state: RunState,
        directory: str,
        every: float,
        synchronous: Optional[bool] = None,
    ) -> None:
        if every <= 0:
            raise ValueError(f"checkpoint interval must be positive: {every}")
        self.state = state
        self.directory = str(directory)
        self.every = float(every)
        self.synchronous = (
            not hasattr(os, "fork") if synchronous is None else synchronous
        )
        self.written = 0
        self.write_seconds = 0.0
        self.last_path: Optional[str] = None
        #: PID of the in-flight background writer, if any.
        self._child: Optional[int] = None

    def arm(self) -> None:
        """Schedule the recurring snapshot on the state's simulator."""
        simulator = self.state.simulator
        self.state.checkpointer = self
        simulator.schedule_every(
            self.every, self.save, until=self.state.horizon,
            label="checkpoint",
        )

    def save(self) -> str:
        """Snapshot the current state; returns the snapshot's path.

        In background mode the returned path is where the child is
        writing; it is guaranteed complete only after the next
        :meth:`save` or :meth:`finalize` joins the writer.
        """
        started = time.perf_counter()
        self._join_writer()
        if self.synchronous:
            path = save_checkpoint(self.state, self.directory)
        else:
            path = _snapshot_path(self.directory, self.state.simulator.now)
            pid = os.fork()
            if pid == 0:
                # Child: write the frozen image and leave without running
                # any of the parent's cleanup (atexit, buffered IO, ...).
                code = 0
                try:
                    save_checkpoint(self.state, self.directory)
                except BaseException:
                    code = 1
                finally:
                    os._exit(code)
            self._child = pid
        self.written += 1
        self.write_seconds += time.perf_counter() - started
        self.last_path = path
        return path

    def finalize(self) -> None:
        """Join the in-flight background writer, if any.

        Called by the runner after the drain, so every snapshot is on
        disk (or has raised) before the run's results are visible.
        """
        started = time.perf_counter()
        self._join_writer()
        self.write_seconds += time.perf_counter() - started

    def _join_writer(self) -> None:
        if self._child is None:
            return
        pid, status = os.waitpid(self._child, 0)
        self._child = None
        if os.waitstatus_to_exitcode(status) != 0:
            raise CheckpointError(
                f"background checkpoint writer (pid {pid}) failed with "
                f"status {status}; snapshot under {self.directory} was "
                "not written"
            )

    def __getstate__(self) -> dict:
        # A writer PID is meaningless in a snapshot (and in the child's
        # own frozen copy of this object).
        state = self.__dict__.copy()
        state["_child"] = None
        return state


def _snapshot_path(directory: str, sim_time: float) -> str:
    return os.path.join(
        directory, f"{_FILE_PREFIX}{int(sim_time):012d}{_FILE_SUFFIX}"
    )


def save_checkpoint(state: RunState, directory: str) -> str:
    """Atomically write *state* to ``directory`` and return the file path.

    The file lands as ``checkpoint-<sim_seconds>.pkl`` via write-then-
    rename, so a crash mid-write can never leave a half snapshot behind
    with a valid name — the recovery scan only ever sees complete files.
    """
    from repro.core.message import snapshot_msg_ids

    state.msg_id_counter = snapshot_msg_ids()
    os.makedirs(directory, exist_ok=True)
    path = _snapshot_path(directory, state.simulator.now)
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": __version__,
        "sim_time": state.simulator.now,
        "state": state,
    }
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=".checkpoint-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def load_checkpoint(path: str) -> RunState:
    """Read a snapshot written by :func:`save_checkpoint` and reconnect
    the process-global message-id counter.

    Raises :class:`CheckpointError` on missing/corrupt files or on
    format/version mismatches — a snapshot from a different code version
    could deserialize into objects whose behavior silently diverged, so
    it is refused outright rather than trusted.
    """
    from repro.core.message import restore_msg_ids

    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except Exception as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or "state" not in payload:
        raise CheckpointError(f"corrupt checkpoint {path}: not a snapshot")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has format {payload.get('format')!r}; "
            f"this build reads format {CHECKPOINT_FORMAT}"
        )
    if payload.get("version") != __version__:
        raise CheckpointError(
            f"checkpoint {path} was written by version "
            f"{payload.get('version')!r}; this is {__version__} — refusing "
            f"to resume across versions"
        )
    state = payload["state"]
    if not isinstance(state, RunState):
        raise CheckpointError(f"corrupt checkpoint {path}: bad state object")
    restore_msg_ids(state.msg_id_counter)
    return state


def checkpoint_paths(directory: str) -> list:
    """All complete snapshots under *directory*, oldest first."""
    try:
        names = os.listdir(directory)
    except (FileNotFoundError, NotADirectoryError):
        return []
    names = sorted(
        n for n in names
        if n.startswith(_FILE_PREFIX) and n.endswith(_FILE_SUFFIX)
    )
    return [os.path.join(directory, n) for n in names]


def latest_checkpoint(directory: str) -> Optional[str]:
    """Newest complete snapshot under *directory*, or ``None``."""
    paths = checkpoint_paths(directory)
    return paths[-1] if paths else None
