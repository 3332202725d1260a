"""``repro check``: the shipped ``checks/`` load, dotted verdict names
resolve or fail loudly, the exit status follows the checks (on
temporary check files at tiny), and the paper bands cover every
compared quantity and catch a mis-set calibration."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.analysis.verdicts import evaluate
from repro.cli import main
from repro.experiments.checks import check_dir, load_check
from repro.experiments.registry import EXPERIMENTS, run_all
from repro.experiments.runner import RunSpec, simulate
from repro.scenarios import ScenarioSpec, VerdictCheck, scenario_names
from repro.util.metrics import GROUPS
from repro.util.render import ComparisonTable
from repro.workload.calibration import DEFAULT_CALIBRATION

PAPER_CHECKS = [n for n in scenario_names(check_dir()) if n.startswith("paper")]


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
    ("shard.exchange_rows", 0),  # no such group
    ("store.no_such_table", 0),
    ("ledger.accepted", "ledger.no_such_total"),  # unknown named value
    ("paper.fig3.no_such_field", 0),  # a known experiment, unknown path
    ("paper.no_such_exp.x", 0),  # the loader rejects this one earlier
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
        "  - {batch_delivery: false}\n"
        "verdicts:\n"
        "  - {name: a, metric: faults.conserved, op: '==', value: true}\n"
        "  - {name: b, metric: ledger.accepted, op: '==',"
        " value: ledger.terminal_total}\n"
    ))
    assert main(["check", holds]) == 0
    out = capsys.readouterr().out
    assert "faults.messages_sent" in out  # the metrics map
    assert "VERDICT: PASS (2/2 checks)" in out
    assert "same_as batch_delivery=False: PASS" in out
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


def test_every_paper_row_has_a_band(tiny_result, monkeypatch):
    """Each report row with a paper value names a band of a paper check."""
    rows = []
    add = ComparisonTable.add

    def record(table, label, paper, measured, unit=""):
        rows.append((label, paper))
        add(table, label, paper, measured, unit)

    monkeypatch.setattr(ComparisonTable, "add", record)
    run_all(tiny_result)
    bands = {
        verdict.name
        for name in PAPER_CHECKS
        for verdict in load_check(name).spec.verdicts
    }
    compared = {label for label, paper in rows if paper is not None}
    assert len(compared) > 60
    assert sorted(compared - bands) == []


@pytest.mark.parametrize("name", PAPER_CHECKS)
def test_every_paper_band_resolves(tiny_result, name):
    """A mistyped path would otherwise show only in a bench-scale run."""
    verdict = evaluate(tiny_result, load_check(name).spec)
    assert [c.error for c in verdict.checks if c.error] == []


def _unknown_recipient_band() -> ScenarioSpec:
    band = tuple(
        verdict
        for verdict in load_check("paper-7").spec.verdicts
        if verdict.name == "dropped: Unknown recipient"
    )
    assert [(v.op, v.value) for v in band] == [(">", 0.5), ("<", 0.8)]
    return ScenarioSpec(name="unknown-recipient", verdicts=band)


def test_paper_band_passes_the_calibrated_run(small_result):
    assert evaluate(small_result, _unknown_recipient_band()).passed


def test_paper_band_fails_a_mis_set_calibration():
    """Spam to unknown recipients at half the calibrated rate drops the
    §2 table's unknown-recipient share below the band."""
    calibration = replace(
        DEFAULT_CALIBRATION, spam_unknown_recipient_factor=0.5
    )
    run = simulate(RunSpec(preset="small", seed=11, calibration=calibration))
    (low, high) = evaluate(run, _unknown_recipient_band()).checks
    assert not low.passed and high.passed
    assert low.observed < 0.5
