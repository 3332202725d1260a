"""``repro check``: the shipped ``checks/`` load, dotted verdict names
resolve or fail loudly, and the exit status follows the checks (on
temporary check files at tiny)."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.analysis.verdicts import evaluate
from repro.cli import main
from repro.experiments.checks import check_dir, load_check
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import RunSpec
from repro.scenarios import ScenarioSpec, VerdictCheck, scenario_names
from repro.util.metrics import GROUPS


@pytest.mark.parametrize("name", scenario_names(check_dir()))
def test_check_file_loads(name):
    check = load_check(name)
    for run in (check.run, *check.same_as):
        assert set(run) <= {f.name for f in fields(RunSpec)}
    assert set(check.experiments) <= set(EXPERIMENTS)
    assert check.spec.verdicts or check.frontier, "a check must assert"


def test_groups_name_every_run_metric(tiny_result):
    assert {name.split(".")[0] for name in tiny_result.metrics} == set(GROUPS)


@pytest.mark.parametrize("metric, value", [
    ("faults.greylist_deferals", 0),  # misspelt counter
    ("faults.GROUP", 0),  # a view attribute, not a metric
    ("shard.exchange_rows", 0),  # no shard costs on an unsharded run
    ("store.no_such_table", 0),
    ("ledger.accepted", "ledger.no_such_total"),  # unknown named value
])
def test_unknown_name_fails_with_an_error(tiny_result, metric, value):
    """Each would pass as ``>= 0`` if an unknown name read as 0."""
    spec = ScenarioSpec(name="typo", verdicts=(
        VerdictCheck(name="typo", metric=metric, op=">=", value=value),
    ))
    (check,) = evaluate(tiny_result, spec).checks
    assert not check.passed
    assert "no metric" in check.error


def _check(tmp_path, name: str, body: str) -> str:
    path = tmp_path / f"{name}.yaml"
    path.write_text("run: {preset: tiny, seed: 7}\n" + body)
    return str(path)


def test_true_check_exits_zero(tmp_path, capsys):
    holds = _check(tmp_path, "holds", (
        "same_as:\n"
        "  - {shards: 2, shard_jobs: 1}\n"
        "verdicts:\n"
        "  - {name: a, metric: faults.conserved, op: '==', value: true}\n"
        "  - {name: b, metric: ledger.accepted, op: '==',"
        " value: ledger.terminal_total}\n"
    ))
    assert main(["check", holds]) == 0
    out = capsys.readouterr().out
    assert "faults.messages_sent" in out  # the metrics map
    assert "VERDICT: PASS (2/2 checks)" in out
    assert "same_as shards=2 shard_jobs=1: PASS" in out
    assert "check holds: PASS" in out


def test_false_expectation_exits_one_and_names_the_check(tmp_path, capsys):
    silent = _check(tmp_path, "no-mail", (
        "verdicts:\n"
        "  - {name: no-mail, metric: store.mta, op: '==', value: 0}\n"
    ))
    assert main(["check", silent]) == 1
    assert "check no-mail: FAIL" in capsys.readouterr().out


def test_same_as_another_seed_exits_one(tmp_path, capsys):
    """The digest comparison is not vacuous: a different run differs."""
    reseeded = _check(tmp_path, "reseeded", "same_as:\n  - {seed: 8}\n")
    assert main(["check", reseeded]) == 1
    out = capsys.readouterr().out
    assert "same_as seed=8: FAIL (store digest differs" in out
    assert "check reseeded: FAIL" in out


def test_raising_run_fails_the_check(tmp_path, capsys):
    broken = tmp_path / "broken.yaml"
    broken.write_text("run: {preset: no-such-preset}\n")
    assert main(["check", str(broken)]) == 1
    assert "check broken: FAIL" in capsys.readouterr().out


def test_unknown_run_field_is_rejected_at_load(tmp_path, capsys):
    typo = _check(tmp_path, "typo", "same_as:\n  - {seeed: 8}\n")
    assert main(["check", typo]) == 2
    assert f"{typo}: unknown run field(s)" in capsys.readouterr().err
