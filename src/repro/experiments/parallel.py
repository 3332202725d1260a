"""Parallel multi-run execution with deterministic result merging.

Every multi-run study in this repo — the Fig. 5 variability sweep, the
filter ablations, the FP/FN frontier — re-simulates the deployment
across seeds and configurations, and each run is independent of the
others. This module fans those runs out across worker processes and
merges the results back **in spec order**, so callers see exactly the
list they would have produced serially:

    specs = [RunSpec("tiny", seed=s) for s in (3, 5, 7, 11)]
    records = run_specs(specs, jobs=4)

Three design points worth knowing:

* **The pickling boundary.** :class:`~repro.experiments.runner.SimulationResult`
  holds live objects — the :class:`~repro.sim.engine.Simulator` with its
  scheduled closures, the installations, the monitor — none of which can
  cross a process boundary. Workers therefore ship back its
  :class:`~repro.experiments.runner.RunRecord`: the
  :class:`~repro.analysis.store.LogStore` record lists, the
  :class:`~repro.analysis.context.DeploymentInfo`, the static per-company
  configs, the seed, the scenario, the metrics map, the ledger snapshots,
  the wall time and the store's content digest, computed in the worker.
  Everything the analysis layer consumes is in there; the live
  simulation machinery stays in the worker and dies with it.

* **Serial bypass.** ``jobs=1`` never touches ``multiprocessing`` at all:
  specs execute inline, in order, in the calling process — bit-for-bit
  the behaviour of calling :func:`run_simulation` in a loop. The worker
  pool (preferring the ``fork`` start method so children share the
  parent's hash seed) is only spun up for two or more uncached specs.

* **The result cache.** Each spec hashes to a key covering every
  resolved :class:`~repro.experiments.runner.RunSpec` field that changes
  the run (scale config, seed, calibration, config overrides, weather,
  scenario, chain, ...) and the package version; records are pickled
  under ``.cache/runs/<key>.pkl``
  (override with ``$REPRO_CACHE_DIR``). Re-running a benchmark or ablation
  sweep with an unchanged spec set performs zero simulations. The runner
  counts ``cache_hits`` and ``runs_executed`` so tests can assert exactly
  that.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import tempfile
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

# ``parallel.store_digest`` is the name callers fingerprint a store by.
from repro.analysis.persistence import store_digest  # noqa: F401
from repro.core.recovery import latest_checkpoint
from repro.experiments.runner import RunRecord, RunSpec, simulate

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".cache/runs"

#: Default root for per-spec checkpoint directories (failed runs of a
#: sweep resume from here instead of restarting from day 0).
DEFAULT_CHECKPOINT_ROOT = ".cache/checkpoints"


@dataclass(frozen=True)
class RunFailure:
    """A spec whose run raised, and raised again on its retry. It holds
    a sweep's slot in place of a record and is never cached."""

    seed: int
    #: The retry's traceback text.
    error: str


def _spec_checkpoint_dir(spec: RunSpec, checkpoint_root) -> Optional[str]:
    """Per-spec snapshot directory: the spec's own, else a
    content-addressed (collision-free) one under the checkpoint root."""
    if spec.checkpoint_every is None:
        return None
    if spec.checkpoint_dir is not None:
        return spec.checkpoint_dir
    root = checkpoint_root or os.environ.get(
        "REPRO_CHECKPOINT_ROOT", DEFAULT_CHECKPOINT_ROOT
    )
    return str(Path(root) / f"spec-{spec.cache_key()[:16]}")


def _execute_spec(
    spec: RunSpec,
    checkpoint_root: Union[str, Path, None] = None,
    resume: bool = False,
) -> RunRecord:
    """Worker entry point: one full simulation, as its record. Module-level
    so the process pool can pickle it.

    With *resume* set, a checkpointing spec first looks for its newest
    snapshot under its per-spec directory and continues from there — this
    is how a retried run avoids redoing the part that already ran.

    A spec with ``spill_dir`` spills into a private temporary directory
    under it, and its record is pulled back into memory before that
    directory is removed.
    """
    directory = _spec_checkpoint_dir(spec, checkpoint_root)
    snapshot = None
    if resume and directory is not None:
        snapshot = latest_checkpoint(directory)
    spill_dir = None
    if snapshot is None and spec.spill_dir is not None:
        os.makedirs(spec.spill_dir, exist_ok=True)
        spill_dir = tempfile.mkdtemp(prefix="repro-spill-", dir=spec.spill_dir)
    try:
        if snapshot is not None:
            result = simulate(RunSpec(resume_from=snapshot))
        else:
            result = simulate(
                replace(spec, checkpoint_dir=directory, spill_dir=spill_dir)
            )
        # A spilled run's directory dies with this call, so pull every
        # table back into memory before the chunk files disappear.
        result.store.gather()
    finally:
        if spill_dir is not None:
            import shutil

            shutil.rmtree(spill_dir, ignore_errors=True)
    record = result.record()
    # Read here, so the parent and every later cache hit reuse it.
    record.digest
    return record


class RunCache:
    """Pickle-per-key result cache under a directory.

    Corrupt or unreadable entries are treated as misses — a half-written
    file from an interrupted run never poisons later sweeps.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(
            root or os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR)
        )

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def load(self, key: str) -> Optional[RunRecord]:
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
        except FileNotFoundError:
            return None  # plain miss: nothing was ever cached here
        except Exception as exc:
            # The unpickler raises a different exception type for nearly
            # every flavour of truncation/garbage (UnpicklingError,
            # EOFError, ValueError, KeyError, ...); any unreadable entry
            # is a miss, but an *existing* unreadable entry means the
            # cache was corrupted (killed writer, disk trouble) — say so
            # before silently recomputing.
            warnings.warn(
                f"corrupt run-cache entry {path}: "
                f"{type(exc).__name__}: {exc}; recomputing",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        if not isinstance(record, RunRecord):
            warnings.warn(
                f"run-cache entry {path} holds {type(record).__name__}, "
                "not a RunRecord; recomputing",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return record

    def save(self, key: str, record: RunRecord) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so concurrent workers/readers never observe a
        # partial pickle.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(record, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, self.path_for(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


def _pool_context():
    """Prefer ``fork`` so workers inherit the parent's hash seed; fall back
    to the platform default elsewhere."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


class ParallelRunner:
    """Executes batches of :class:`RunSpec` and merges results in spec order.

    ``jobs=1`` (the default) runs everything inline — no pool, no pickling
    of specs, identical to a serial loop. ``cache=None`` disables the
    on-disk result cache entirely.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[RunCache] = None,
        checkpoint_root: Union[str, Path, None] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.checkpoint_root = checkpoint_root
        #: Specs answered from the on-disk cache, lifetime total.
        self.cache_hits = 0
        #: Specs actually simulated, lifetime total.
        self.runs_executed = 0
        #: Specs that failed even after their retry, lifetime total.
        self.failures = 0

    def run(
        self, specs: Sequence[RunSpec]
    ) -> list[Union[RunRecord, RunFailure]]:
        """Execute every spec, returning records in spec order.

        Completion order never matters: parallel results are matched back
        to their originating index, so ``run(specs)[i]`` always belongs to
        ``specs[i]``.

        A spec whose worker raises is retried once, serially, in the
        calling process — checkpointing specs resume from their newest
        snapshot rather than restarting at day 0. If the retry also
        raises, its slot holds a :class:`RunFailure` carrying the
        traceback; the survivors are merged exactly as if the failed spec
        had never been requested, and failures are never written to the
        cache.
        """
        specs = list(specs)
        results: list = [None] * len(specs)

        pending: list[tuple[int, RunSpec]] = []
        for index, spec in enumerate(specs):
            cached = (
                self.cache.load(spec.cache_key()) if self.cache else None
            )
            if cached is not None:
                results[index] = cached
                self.cache_hits += 1
            else:
                pending.append((index, spec))

        failed: list[tuple[int, RunSpec]] = []
        completed: list[tuple[int, RunRecord]] = []
        if pending:
            if self.jobs == 1 or len(pending) == 1:
                for index, spec in pending:
                    try:
                        completed.append(
                            (index, _execute_spec(spec, self.checkpoint_root))
                        )
                    except Exception:
                        failed.append((index, spec))
            else:
                workers = min(self.jobs, len(pending))
                with ProcessPoolExecutor(
                    max_workers=workers, mp_context=_pool_context()
                ) as pool:
                    futures = [
                        (
                            index,
                            spec,
                            pool.submit(
                                _execute_spec, spec, self.checkpoint_root
                            ),
                        )
                        for index, spec in pending
                    ]
                    for index, spec, future in futures:
                        try:
                            completed.append((index, future.result()))
                        except Exception:
                            failed.append((index, spec))

        # One retry per failed spec, serially in the parent so the failure
        # (and any second traceback) is attributable; resume=True lets a
        # checkpointing spec continue from its last snapshot.
        for index, spec in failed:
            try:
                completed.append(
                    (index, _execute_spec(spec, self.checkpoint_root, resume=True))
                )
            except Exception:
                self.failures += 1
                results[index] = RunFailure(spec.seed, traceback.format_exc())

        for index, record in completed:
            results[index] = record
            self.runs_executed += 1
            if self.cache:
                self.cache.save(specs[index].cache_key(), record)

        return results  # type: ignore[return-value]  # every slot is filled


def run_specs(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Union[str, Path, None] = None,
    checkpoint_root: Union[str, Path, None] = None,
) -> list[Union[RunRecord, RunFailure]]:
    """One-shot convenience wrapper around :class:`ParallelRunner`."""
    cache = RunCache(cache_dir) if use_cache else None
    return ParallelRunner(
        jobs=jobs, cache=cache, checkpoint_root=checkpoint_root
    ).run(specs)
