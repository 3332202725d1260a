"""Parallel multi-run execution with deterministic result merging.

Every multi-run study in this repo — the Fig. 5 variability sweep, the
filter ablations, the FP/FN frontier — re-simulates the deployment
across seeds and configurations, and each run is independent of the
others. This module fans those runs out across worker processes and
merges the results back **in spec order**, so callers see exactly the
list they would have produced serially:

    specs = [RunSpec("tiny", seed=s) for s in (3, 5, 7, 11)]
    summaries = run_specs(specs, jobs=4)

Three design points worth knowing:

* **The pickling boundary.** :class:`~repro.experiments.runner.SimulationResult`
  holds live objects — the :class:`~repro.sim.engine.Simulator` with its
  scheduled closures, the installations, the monitor — none of which can
  cross a process boundary. Workers therefore ship back a
  :class:`RunSummary`: the :class:`~repro.analysis.store.LogStore` record
  lists plus :class:`~repro.analysis.context.DeploymentInfo`, the static
  per-company configs, the seed, the wall time, and a content digest of
  the records. Everything the analysis layer consumes is in there; the
  live simulation machinery stays in the worker and dies with it.

* **Serial bypass.** ``jobs=1`` never touches ``multiprocessing`` at all:
  specs execute inline, in order, in the calling process — bit-for-bit
  the behaviour of calling :func:`run_simulation` in a loop. The worker
  pool (preferring the ``fork`` start method so children share the
  parent's hash seed) is only spun up for two or more uncached specs.

* **The result cache.** Each spec hashes to a key covering every
  resolved :class:`~repro.experiments.runner.RunSpec` field that changes
  the run (scale config, seed, calibration, config overrides, weather,
  scenario, chain, ...) and the package version; summaries are pickled
  under ``.cache/runs/<key>.pkl``
  (override with ``$REPRO_CACHE_DIR``). Re-running a benchmark or ablation
  sweep with an unchanged spec set performs zero simulations. The runner
  counts ``cache_hits`` and ``runs_executed`` so tests can assert exactly
  that.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import tempfile
import traceback
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.analysis.context import DeploymentInfo
from repro.analysis.persistence import encoded_records
from repro.analysis.store import TABLES, LogStore
from repro.core.config import CompanyConfig
from repro.core.recovery import latest_checkpoint
from repro.experiments.runner import RunSpec, SimulationResult, simulate

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".cache/runs"

#: Default root for per-spec checkpoint directories (failed runs of a
#: sweep resume from here instead of restarting from day 0).
DEFAULT_CHECKPOINT_ROOT = ".cache/checkpoints"


@dataclass
class RunSummary:
    """The picklable cross-process residue of one simulation run.

    Carries the full measurement database (:class:`LogStore` — record
    lists only, indices dropped) plus the static facts analyses and
    ablation reports need. Live objects (simulator, installations,
    world) never leave the worker.
    """

    store: LogStore
    info: DeploymentInfo
    #: Static per-company configuration (company_id -> config); stands in
    #: for ``SimulationResult.installations`` in config-level analyses
    #: such as the dual-MTA ablation.
    company_configs: dict[str, CompanyConfig] = field(default_factory=dict)
    seed: int = 0
    wall_seconds: float = 0.0
    #: SHA-256 over the canonical JSON encoding of every record, in codec
    #: order — two runs with equal digests produced identical logs.
    digest: str = ""
    #: The run's resolved :class:`~repro.scenarios.ScenarioSpec`
    #: (``None`` for scenario-free runs).
    scenario: object = None
    #: Traceback text when the spec ultimately failed (after its retry);
    #: ``None`` for a successful run. A failed summary carries an empty
    #: store and is never written to the cache.
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


#: ``json.dumps(..., sort_keys=True)`` builds a new encoder on every
#: call; the digest encodes one payload per record, so it keeps one.
_SORTED_JSON = json.JSONEncoder(sort_keys=True).encode


def store_digest(store: LogStore) -> str:
    """Content fingerprint of a measurement database.

    Hashes the same JSON payloads :func:`repro.analysis.persistence.save_run`
    would write, so the digest is stable across processes, platforms, and
    hash-seed randomisation.
    """
    digest = hashlib.sha256()
    for tag, payload in encoded_records(store):
        digest.update((tag + _SORTED_JSON(payload)).encode("utf-8"))
    return digest.hexdigest()


def summarize_result(result: SimulationResult) -> RunSummary:
    """Boil a live :class:`SimulationResult` down to its picklable summary."""
    result.store.drop_indices()
    return RunSummary(
        store=result.store,
        info=result.info,
        company_configs={
            company_id: installation.config
            for company_id, installation in result.installations.items()
        },
        seed=result.seed,
        wall_seconds=result.wall_seconds,
        digest=store_digest(result.store),
        scenario=result.scenario,
    )


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
) -> RunSummary:
    """Worker entry point: one full simulation, summarised. Module-level
    so the process pool can pickle it.

    With *resume* set, a checkpointing spec first looks for its newest
    snapshot under its per-spec directory and continues from there — this
    is how a retried run avoids redoing the part that already ran.

    A spec with ``spill_dir`` spills into a private temporary directory
    under it, and its summary is pulled back into memory before that
    directory is removed.
    """
    directory = _spec_checkpoint_dir(spec, checkpoint_root)
    if resume and directory is not None:
        snapshot = latest_checkpoint(directory)
        if snapshot is not None:
            return summarize_result(simulate(RunSpec(resume_from=snapshot)))
    spill_dir = None
    if spec.spill_dir is not None:
        os.makedirs(spec.spill_dir, exist_ok=True)
        spill_dir = tempfile.mkdtemp(prefix="repro-spill-", dir=spec.spill_dir)
    try:
        result = simulate(
            replace(spec, checkpoint_dir=directory, spill_dir=spill_dir)
        )
        if spill_dir is not None:
            # The spill directory dies with this call, so pull every
            # table back into memory before the chunk files disappear.
            store = result.store
            for table in TABLES:
                rows = getattr(store, table)
                if not isinstance(rows, list):
                    setattr(store, table, list(rows))
    finally:
        if spill_dir is not None:
            import shutil

            shutil.rmtree(spill_dir, ignore_errors=True)
    return summarize_result(result)


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

    def load(self, key: str) -> Optional[RunSummary]:
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                summary = pickle.load(handle)
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
        if not isinstance(summary, RunSummary):
            warnings.warn(
                f"run-cache entry {path} holds {type(summary).__name__}, "
                "not a RunSummary; recomputing",
                RuntimeWarning,
                stacklevel=2,
            )
            return None
        return summary

    def save(self, key: str, summary: RunSummary) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        # Write-then-rename so concurrent workers/readers never observe a
        # partial pickle.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(summary, handle, protocol=pickle.HIGHEST_PROTOCOL)
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

    def run(self, specs: Sequence[RunSpec]) -> list[RunSummary]:
        """Execute every spec, returning summaries in spec order.

        Completion order never matters: parallel results are matched back
        to their originating index, so ``run(specs)[i]`` always belongs to
        ``specs[i]``.

        A spec whose worker raises is retried once, serially, in the
        calling process — checkpointing specs resume from their newest
        snapshot rather than restarting at day 0. If the retry also
        raises, its slot holds a failed :class:`RunSummary` (empty store,
        ``error`` carrying the traceback); the survivors are merged
        exactly as if the failed spec had never been requested, and
        failed summaries are never written to the cache.
        """
        specs = list(specs)
        results: list[Optional[RunSummary]] = [None] * len(specs)

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
        completed: list[tuple[int, RunSummary]] = []
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
                results[index] = RunSummary(
                    store=LogStore(),
                    info=DeploymentInfo(
                        n_companies=0,
                        n_open_relays=0,
                        users_per_company={},
                        horizon_days=0.0,
                        min_cluster_size=1,
                    ),
                    seed=spec.seed,
                    error=traceback.format_exc(),
                )

        for index, summary in completed:
            results[index] = summary
            self.runs_executed += 1
            if self.cache:
                self.cache.save(specs[index].cache_key(), summary)

        return results  # type: ignore[return-value]  # every slot is filled


def run_specs(
    specs: Sequence[RunSpec],
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Union[str, Path, None] = None,
    checkpoint_root: Union[str, Path, None] = None,
) -> list[RunSummary]:
    """One-shot convenience wrapper around :class:`ParallelRunner`."""
    cache = RunCache(cache_dir) if use_cache else None
    return ParallelRunner(
        jobs=jobs, cache=cache, checkpoint_root=checkpoint_root
    ).run(specs)
