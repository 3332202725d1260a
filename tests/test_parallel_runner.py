"""The parallel execution layer's contract: determinism, ordering, caching.

The one property everything downstream leans on: fanning runs out over a
process pool changes *nothing* about the results — same content digests,
same spec order — so `jobs=N` is always a pure wall-time optimisation.
"""

import dataclasses
import pickle
import warnings

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    ParallelRunner,
    RunCache,
    RunFailure,
    RunSpec,
    run_specs,
)
from repro.experiments.runner import NON_KEY_FIELDS, RunRecord
from repro.util.simtime import DAY
from repro.workload.calibration import DEFAULT_CALIBRATION

#: The sweep both execution modes must agree on.
SPECS = [RunSpec("tiny", seed=3), RunSpec("tiny", seed=5)]


@pytest.fixture(scope="module")
def serial_summaries():
    """The sweep, executed on the jobs=1 bypass (no multiprocessing)."""
    return ParallelRunner(jobs=1, cache=None).run(SPECS)


class TestDeterminism:
    def test_jobs4_digests_match_jobs1(self, serial_summaries):
        """The acceptance gate: parallel output is bit-identical to serial."""
        parallel_summaries = ParallelRunner(jobs=4, cache=None).run(SPECS)
        assert [s.digest for s in parallel_summaries] == [
            s.digest for s in serial_summaries
        ]
        # Digest equality is meaningful: it covers every record list.
        assert all(len(s.digest) == 64 for s in parallel_summaries)
        for serial, par in zip(serial_summaries, parallel_summaries):
            assert serial.store.summary_counts() == par.store.summary_counts()

    def test_results_in_spec_order(self, serial_summaries):
        assert [s.seed for s in serial_summaries] == [s.seed for s in SPECS]
        # Different seeds really did produce different runs.
        assert serial_summaries[0].digest != serial_summaries[1].digest

    def test_summary_carries_analysis_inputs(self, serial_summaries):
        summary = serial_summaries[0]
        assert summary.store.summary_counts()["mta"] > 0
        assert summary.info.n_companies == 6
        assert set(summary.company_configs) == set(
            summary.info.users_per_company
        )
        assert summary.wall_seconds > 0
        # The counters outside the store travel with it.
        assert summary.metrics["ledger.accepted"] > 0
        assert summary.ledger_stats.conserved
        assert len(summary.ledger_snapshots) == summary.info.n_companies


class TestSerialBypass:
    def test_jobs1_never_touches_multiprocessing(self, monkeypatch):
        """The jobs=1 path must not even construct a pool."""

        def explode(*_args, **_kwargs):
            raise AssertionError("jobs=1 must not create a process pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", explode)
        runner = ParallelRunner(jobs=1, cache=None)
        [summary] = runner.run([RunSpec("tiny", seed=3)])
        assert summary.seed == 3

    def test_single_pending_spec_skips_pool_even_with_jobs4(self, monkeypatch):
        monkeypatch.setattr(
            parallel,
            "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pool")),
        )
        runner = ParallelRunner(jobs=4, cache=None)
        [summary] = runner.run([RunSpec("tiny", seed=3)])
        assert summary.seed == 3

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=0)


class TestCache:
    def test_cached_sweep_performs_zero_simulations(
        self, tmp_path, serial_summaries
    ):
        """Second invocation of a cached sweep is simulation-free."""
        cache = RunCache(tmp_path / "runs")
        # Warm the cache from the already-executed serial summaries.
        for spec, summary in zip(SPECS, serial_summaries):
            cache.save(spec.cache_key(), summary)

        runner = ParallelRunner(jobs=4, cache=cache)
        summaries = runner.run(SPECS)
        assert runner.runs_executed == 0
        assert runner.cache_hits == len(SPECS)
        assert [s.digest for s in summaries] == [
            s.digest for s in serial_summaries
        ]
        assert [s.metrics for s in summaries] == [
            s.metrics for s in serial_summaries
        ]

    def test_runner_populates_cache_on_miss(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        first = ParallelRunner(jobs=1, cache=cache)
        first.run([RunSpec("tiny", seed=3)])
        assert (first.cache_hits, first.runs_executed) == (0, 1)
        assert cache.path_for(RunSpec("tiny", seed=3).cache_key()).exists()

        second = ParallelRunner(jobs=1, cache=cache)
        second.run([RunSpec("tiny", seed=3)])
        assert (second.cache_hits, second.runs_executed) == (1, 0)

    @pytest.mark.parametrize(
        "junk",
        [
            b"not a pickle",
            b"garbage\n",  # 'g' is a GET opcode: raises ValueError, not
            b"",           # UnpicklingError — load() must eat both
            pickle.dumps({"not": "a run record"}),
        ],
    )
    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, junk):
        cache = RunCache(tmp_path / "runs")
        key = SPECS[0].cache_key()
        cache.root.mkdir(parents=True)
        cache.path_for(key).write_bytes(junk)
        # Corrupt ≠ absent: the miss must announce itself so an operator
        # learns the cache was damaged rather than silently rebuilt.
        with pytest.warns(RuntimeWarning, match="recomputing"):
            assert cache.load(key) is None

    def test_missing_cache_entry_is_a_silent_miss(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(SPECS[0].cache_key()) is None

    def test_corrupt_entry_is_recomputed_by_the_runner(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        spec = RunSpec("tiny", seed=3)
        cache.root.mkdir(parents=True)
        cache.path_for(spec.cache_key()).write_bytes(b"\x80garbage")
        runner = ParallelRunner(jobs=1, cache=cache)
        with pytest.warns(RuntimeWarning, match="corrupt run-cache entry"):
            summaries = runner.run([spec])
        assert isinstance(summaries[0], RunRecord)
        assert (runner.cache_hits, runner.runs_executed) == (0, 1)
        # The recomputed summary replaced the garbage entry.
        fresh = ParallelRunner(jobs=1, cache=cache)
        assert fresh.run([spec])[0].digest == summaries[0].digest
        assert fresh.cache_hits == 1

    @pytest.mark.parametrize("layout", ["columnar-v1", "records"])
    def test_entry_in_the_record_object_layout_is_a_miss(
        self, tmp_path, serial_summaries, monkeypatch, layout
    ):
        """A store pickled before tables were column tables — each table
        a list of records, or a ``columnar-v1`` tuple of per-field
        tuples — is refused on load instead of misread."""
        from repro.analysis.store import SCHEMA, LogStore

        record = serial_summaries[0]
        state = dict(vars(record.store), _index=None)
        for table, _tag, cls in SCHEMA:
            rows = list(getattr(record.store, table))
            names = [f.name for f in dataclasses.fields(cls)]
            state[table] = rows if layout == "records" else (
                "columnar-v1",
                cls,
                tuple(tuple(getattr(r, n) for r in rows) for n in names),
            )
        cache = RunCache(tmp_path / "runs")
        key = SPECS[0].cache_key()
        with monkeypatch.context() as patch:
            patch.setattr(LogStore, "__getstate__", lambda self: state)
            cache.save(key, record)
        with pytest.raises(ValueError, match="older layout"):
            pickle.loads(cache.path_for(key).read_bytes())
        with pytest.warns(RuntimeWarning, match="recomputing"):
            assert cache.load(key) is None

    def test_run_specs_respects_use_cache_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "runs"))
        run_specs([RunSpec("tiny", seed=3)], jobs=1, use_cache=False)
        assert not (tmp_path / "runs").exists()


#: A spec whose worker always raises (unknown crash preset) — exercises
#: the retry + failure-summary path without monkeypatching workers.
BAD_SPEC = RunSpec("tiny", seed=3, crashes="no-such-preset")


class TestFailureCapture:
    def test_failed_spec_becomes_failure_summary(self, tmp_path):
        runner = ParallelRunner(jobs=1, cache=None, checkpoint_root=tmp_path)
        good, bad = runner.run([RunSpec("tiny", seed=3), BAD_SPEC])
        assert isinstance(good, RunRecord) and good.digest
        assert isinstance(bad, RunFailure)
        assert "no-such-preset" in bad.error
        assert "Traceback" in bad.error
        assert bad.seed == BAD_SPEC.seed
        assert runner.failures == 1
        # Survivors merged deterministically: the good spec's digest is
        # exactly what a clean batch produces.
        clean = ParallelRunner(jobs=1, cache=None)
        assert clean.run([RunSpec("tiny", seed=3)])[0].digest == good.digest

    def test_failed_spec_in_pool_is_captured(self, tmp_path):
        runner = ParallelRunner(jobs=2, cache=None, checkpoint_root=tmp_path)
        good, bad = runner.run([RunSpec("tiny", seed=3), BAD_SPEC])
        assert isinstance(good, RunRecord)
        assert isinstance(bad, RunFailure) and "no-such-preset" in bad.error

    def test_failed_summary_is_never_cached(self, tmp_path):
        cache = RunCache(tmp_path / "runs")
        runner = ParallelRunner(
            jobs=1, cache=cache, checkpoint_root=tmp_path / "ckpt"
        )
        (bad,) = runner.run([BAD_SPEC])
        assert isinstance(bad, RunFailure)
        assert not cache.path_for(BAD_SPEC.cache_key()).exists()


#: One non-default value per RunSpec field. A field added without an
#: entry here fails the key test below, so every new input gets a
#: decision: part of the cache key, or declared in NON_KEY_FIELDS.
ALTERNATE_VALUES = {
    "preset": "small",
    "seed": 4,
    "calibration": dataclasses.replace(
        DEFAULT_CALIBRATION,
        challenge_size=DEFAULT_CALIBRATION.challenge_size + 1,
    ),
    "config_overrides": {"challenge_dedup": False},
    "faults": "stormy",
    "audit": True,
    "crashes": "rare",
    "scenario": "captcha-farm",
    "chain": "hybrid",
    "checkpoint_every": DAY,
    "batch_delivery": False,
    "checkpoint_dir": "ckpt",
    "resume_from": "ckpt/snapshot.pkl",
    "spill_dir": "spill",
    "spill_chunk_rows": 64,
    "label": "x",
}


class TestSpecKeys:
    def test_every_key_field_changes_the_key(self):
        """Changing any key field changes the key; changing a declared
        non-key field does not."""
        assert set(ALTERNATE_VALUES) == {
            f.name for f in dataclasses.fields(RunSpec)
        }
        assert NON_KEY_FIELDS < set(ALTERNATE_VALUES)
        base = RunSpec("tiny", seed=3)
        for name, value in ALTERNATE_VALUES.items():
            variant = dataclasses.replace(base, **{name: value})
            changed = variant.cache_key() != base.cache_key()
            assert changed == (name not in NON_KEY_FIELDS), name

    def test_key_stable_and_order_insensitive(self):
        spec_a = RunSpec("tiny", seed=3, config_overrides={"a": 1, "b": 2})
        spec_b = RunSpec("tiny", seed=3, config_overrides={"b": 2, "a": 1})
        assert spec_a.cache_key() == spec_b.cache_key()

    def test_key_distinguishes_every_axis(self):
        base = RunSpec("tiny", seed=3)
        variants = [
            RunSpec("small", seed=3),
            RunSpec("tiny", seed=4),
            RunSpec("tiny", seed=3, chain="antivirus,reverse_dns,rbl,spf"),
            RunSpec(
                "tiny", seed=3, config_overrides={"challenge_dedup": False}
            ),
        ]
        keys = {base.cache_key()} | {v.cache_key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_label_not_part_of_key(self):
        assert (
            RunSpec("tiny", seed=3, label="x").cache_key()
            == RunSpec("tiny", seed=3).cache_key()
        )

    def test_audit_is_part_of_key(self):
        # A cached unaudited summary must never satisfy an audit request
        # (and vice versa): the audited run carries per-message evidence.
        assert (
            RunSpec("tiny", seed=3, audit=True).cache_key()
            != RunSpec("tiny", seed=3).cache_key()
        )

    def test_audit_default_keeps_existing_keys(self):
        assert (
            RunSpec("tiny", seed=3, audit=False).cache_key()
            == RunSpec("tiny", seed=3).cache_key()
        )


class TestSummaryPickling:
    def test_summary_round_trips_through_pickle(self, serial_summaries):
        summary = serial_summaries[0]
        # The worker read the digest, so it travels in the pickle.
        assert "digest" in vars(summary)
        clone = pickle.loads(pickle.dumps(summary))
        assert type(clone) is RunRecord
        assert "digest" in vars(clone)
        assert clone.digest == summary.digest
        assert clone.metrics == summary.metrics
        assert clone.store.summary_counts() == summary.store.summary_counts()
        assert parallel.store_digest(clone.store) == summary.digest
        assert clone.info == summary.info


class TestSweepConsumers:
    def test_variability_and_defence_sweeps_share_one_fanout(
        self, serial_summaries
    ):
        from repro.analysis import frontier, variability

        sweep = variability.sweep_from_summaries(serial_summaries)
        assert [seed for seed, _stats in sweep.per_seed] == [3, 5]
        rendered = variability.render_sweep(sweep)
        assert "correlation stability across 2 seeds" in rendered

        rendered = frontier.render_sweep(serial_summaries)
        assert "2 independent deployments" in rendered
        seed_rows = [
            line.split()[0] for line in rendered.splitlines()
            if line.split() and line.split()[0] in ("3", "5")
        ]
        assert seed_rows == ["3", "5"]
