"""Tests for saving/loading the measurement database (JSONL)."""

import json
import pickle

import hypothesis as _hyp
import pytest
from hypothesis import strategies as _st

from repro.analysis.persistence import (
    PersistenceError,
    load_run,
    save_run,
)
from repro.experiments.registry import CANONICAL_ORDER, run_experiment
from repro.experiments.runner import RunRecord


#: sha256 of ``save_run`` on the tiny/seed-7 run. The store digest
#: ignores key order; this pin holds the file's bytes (tags, short keys
#: and their order) fixed.
TINY_SEED7_FILE_SHA256 = (
    "435758e0decfd3df85f7c21cbdc7406a3e1e9c4ff903c21ac44cb710b7f4798a"
)


#: Reports that also read the run's counters, which files do not carry.
RUN_COUNTER_REPORTS = frozenset({"faults", "audit", "recovery"})


@pytest.fixture(scope="module")
def loaded_tiny(tiny_result, tmp_path_factory):
    path = tmp_path_factory.mktemp("loaded") / "run.jsonl"
    save_run(tiny_result.store, tiny_result.info, path)
    return load_run(path)


@pytest.fixture(scope="module")
def weathered_run():
    """tiny/7 under stormy weather and flaky crashes: a pickle round trip
    of its record, and each report rendered from the live result."""
    from repro.experiments import run_simulation

    result = run_simulation("tiny", seed=7, faults="stormy", crashes="flaky")
    live = {exp_id: run_experiment(exp_id, result)
            for exp_id in CANONICAL_ORDER}
    return pickle.loads(pickle.dumps(result.record())), live


class TestRoundTrip:
    def test_full_round_trip_preserves_every_record(self, tiny_result, tmp_path):
        from repro.analysis.store import TABLES

        path = tmp_path / "run.jsonl"
        written = save_run(tiny_result.store, tiny_result.info, path)
        loaded = load_run(path)
        assert type(loaded) is RunRecord
        assert loaded.metrics == {} and loaded.wall_seconds is None
        assert written == sum(tiny_result.store.summary_counts().values())
        for table in TABLES:
            assert list(getattr(loaded.store, table)) == list(
                getattr(tiny_result.store, table)
            ), table

    def test_file_bytes_pinned(self, tiny_result, tmp_path):
        import hashlib

        path = tmp_path / "run.jsonl"
        save_run(tiny_result.store, tiny_result.info, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == TINY_SEED7_FILE_SHA256

    def test_record_contents_preserved(self, tiny_result, tmp_path):
        path = tmp_path / "run.jsonl"
        save_run(tiny_result.store, tiny_result.info, path)
        loaded = load_run(path)
        for original, restored in zip(
            tiny_result.store.dispatch[:50], loaded.store.dispatch[:50]
        ):
            assert original == restored
        for original, restored in zip(
            tiny_result.store.challenge_outcomes[:50],
            loaded.store.challenge_outcomes[:50],
        ):
            assert original == restored

    def test_info_preserved(self, tiny_result, tmp_path):
        path = tmp_path / "run.jsonl"
        save_run(tiny_result.store, tiny_result.info, path)
        loaded = load_run(path)
        assert loaded.info.n_companies == tiny_result.info.n_companies
        assert loaded.info.horizon_days == tiny_result.info.horizon_days
        assert dict(loaded.info.users_per_company) == dict(
            tiny_result.info.users_per_company
        )

    def test_analyses_identical_on_loaded_store(self, tiny_result, tmp_path):
        from repro.analysis import flow, reflection

        path = tmp_path / "run.jsonl"
        save_run(tiny_result.store, tiny_result.info, path)
        loaded = load_run(path)
        assert flow.render(loaded.store) == flow.render(tiny_result.store)
        assert reflection.render(loaded.store) == reflection.render(
            tiny_result.store
        )

    @pytest.mark.parametrize("exp_id", CANONICAL_ORDER)
    def test_registry_runs_on_loaded_run(
        self, tiny_result, loaded_tiny, exp_id
    ):
        """Every report renders from a file; those that read only the
        store equal the live run's."""
        rendered = run_experiment(exp_id, loaded_tiny)
        if exp_id not in RUN_COUNTER_REPORTS:
            assert rendered == run_experiment(exp_id, tiny_result)

    @pytest.mark.parametrize("exp_id", CANONICAL_ORDER)
    def test_registry_runs_on_pickled_record(self, weathered_run, exp_id):
        """A pickled record renders every report byte-identical to the
        live run, the run counters' reports included."""
        clone, live = weathered_run
        assert run_experiment(exp_id, clone) == live[exp_id]


class TestErrorHandling:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "mta", "c": "c0"}\n')
        with pytest.raises(PersistenceError, match="bad mta record|missing header"):
            load_run(path)

    def test_header_only_is_valid_empty_run(self, tmp_path, tiny_result):
        path = tmp_path / "empty.jsonl"
        from repro.analysis.store import LogStore

        save_run(LogStore(), tiny_result.info, path)
        loaded = load_run(path)
        assert sum(loaded.store.summary_counts().values()) == 0

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(PersistenceError, match="invalid JSON"):
            load_run(path)

    def test_unknown_record_type(self, tmp_path, tiny_result):
        path = tmp_path / "bad.jsonl"
        from repro.analysis.store import LogStore

        for tag in ("mystery", ["not", "hashable"]):
            save_run(LogStore(), tiny_result.info, path)
            with open(path, "a") as handle:
                handle.write(json.dumps({"type": tag}) + "\n")
            with pytest.raises(PersistenceError, match="unknown record type"):
                load_run(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"type": "header", "schema": 99}) + "\n")
        with pytest.raises(PersistenceError, match="unsupported schema"):
            load_run(path)

    def test_bad_enum_value(self, tmp_path, tiny_result):
        path = tmp_path / "bad.jsonl"
        from repro.analysis.store import LogStore

        save_run(LogStore(), tiny_result.info, path)
        with open(path, "a") as handle:
            handle.write(
                json.dumps(
                    {
                        "type": "mta",
                        "c": "c0",
                        "t": 0.0,
                        "m": 1,
                        "d": "not-a-reason",
                        "o": False,
                        "s": 100,
                    }
                )
                + "\n"
            )
        with pytest.raises(PersistenceError, match="bad mta record"):
            load_run(path)

    def test_header_info_missing_key(self, tmp_path, tiny_result):
        from repro.analysis.store import LogStore

        path = tmp_path / "bad.jsonl"
        save_run(LogStore(), tiny_result.info, path)
        header = json.loads(path.read_text())
        del header["info"]["n_open_relays"]
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(
            PersistenceError, match=r"bad\.jsonl:1: bad header info"
        ):
            load_run(path)

    def test_header_info_wrong_type(self, tmp_path, tiny_result):
        """A header field of the wrong type is refused at load, not left
        to fail inside an analysis (``DeploymentInfo.total_users``)."""
        from repro.analysis.store import LogStore

        path = tmp_path / "bad.jsonl"
        save_run(LogStore(), tiny_result.info, path)
        header = json.loads(path.read_text())
        header["info"]["users_per_company"] = [5]
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(
            PersistenceError,
            match=r"bad\.jsonl:1: bad header info: users_per_company",
        ):
            load_run(path)

    def test_record_field_wrong_type(self, tmp_path, tiny_result):
        from repro.analysis.store import LogStore

        path = tmp_path / "bad.jsonl"
        save_run(LogStore(), tiny_result.info, path)
        with open(path, "a") as handle:
            handle.write(json.dumps({
                "type": "mta", "c": "c0", "t": "noon", "m": 1, "d": None,
                "o": False, "s": 100,
            }) + "\n")
        with pytest.raises(
            PersistenceError, match=r"bad\.jsonl:2: bad mta record: t: "
        ):
            load_run(path)

    def test_line_that_is_not_an_object(self, tmp_path, tiny_result):
        from repro.analysis.store import LogStore

        path = tmp_path / "bad.jsonl"
        save_run(LogStore(), tiny_result.info, path)
        with open(path, "a") as handle:
            handle.write("[1, 2]\n")
        with pytest.raises(
            PersistenceError, match=r"bad\.jsonl:2: expected a JSON object"
        ):
            load_run(path)

    def test_blank_lines_skipped(self, tmp_path, tiny_result):
        path = tmp_path / "gaps.jsonl"
        from repro.analysis.store import LogStore

        save_run(LogStore(), tiny_result.info, path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        load_run(path)  # must not raise


class TestCliIntegration:
    def test_save_then_load_via_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        assert main(
            ["run", "--preset", "tiny", "--seed", "3", "--save", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "saved" in out
        assert path.exists()

        assert main(["experiment", "sec31", "--load", str(path)]) == 0
        out = capsys.readouterr().out
        assert "reflection ratio R" in out

    def test_malformed_file_is_a_clean_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        assert main(["experiment", "sec31", "--load", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("load error: ") and "bad.jsonl:1:" in err

    def test_mistyped_header_is_a_clean_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        assert main(
            ["run", "--preset", "tiny", "--seed", "3", "--save", str(path)]
        ) == 0
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["info"]["users_per_company"] = [5]
        lines[0] = json.dumps(header) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert main(["experiment", "tab1", "--load", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("load error: ") and "cli.jsonl:1:" in err


def _field_strategy(hint):
    """Values for one record field, from its annotation."""
    import enum
    import typing

    if typing.get_origin(hint) is typing.Union:
        (inner,) = [a for a in typing.get_args(hint) if a is not type(None)]
        return _st.none() | _field_strategy(inner)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return _st.sampled_from(list(hint))
    return {
        str: _st.text(max_size=20),
        int: _st.integers(-(2**40), 2**40),
        float: _st.floats(allow_nan=False),
        bool: _st.booleans(),
    }[hint]


def _record_strategy(entry):
    """``(table, record)`` pairs for one store table."""
    import typing
    from dataclasses import fields

    table, _tag, cls = entry
    hints = typing.get_type_hints(cls)
    return _st.tuples(
        *[_field_strategy(hints[f.name]) for f in fields(cls)]
    ).map(lambda values: (table, cls(*values)))


def _any_record():
    from repro.analysis.store import SCHEMA

    return _st.one_of(*[_record_strategy(entry) for entry in SCHEMA])


class TestRoundTripProperties:
    """Hypothesis: arbitrary mixes of all twelve record types, every
    ``Optional`` field sometimes ``None``, survive save/load unchanged."""

    @_hyp.settings(max_examples=60, deadline=None)
    @_hyp.given(rows=_st.lists(_any_record(), max_size=60))
    def test_random_records_round_trip(self, tmp_path_factory, rows):
        from repro.analysis.context import DeploymentInfo
        from repro.analysis.store import TABLES, LogStore

        info = DeploymentInfo(
            n_companies=1,
            n_open_relays=0,
            users_per_company={"c0": 5},
            horizon_days=3.0,
            min_cluster_size=2,
            volume_scale=1.0,
        )
        store = LogStore()
        for table, record in rows:
            getattr(store, table).append(record)
        path = tmp_path_factory.mktemp("prop") / "run.jsonl"
        assert save_run(store, info, path) == len(rows)
        loaded = load_run(path)
        assert loaded.info == info
        for table in TABLES:
            assert getattr(loaded.store, table) == getattr(store, table), table
