"""``python -m repro check [NAME...]``: run ``checks/*.yaml``.

A check file is a scenario file plus what to run: ``run:`` (RunSpec
fields, ``checkpoint_every`` in days), ``same_as:`` (overrides whose runs
must reproduce its store digest and execution-invariant metrics;
``resume_from: latest`` is its newest snapshot), ``experiments:`` (ids to
render), ``pack: true`` (every pack scenario instead, each judged by its
own verdicts and the check's) or ``frontier: true`` (the FP/FN frontier
at ``run.preset`` instead, gated by ``check_frontier``). DESIGN.md §18.
"""

from __future__ import annotations

import os
import tempfile
import time
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.analysis import verdicts
from repro.core.recovery import latest_checkpoint
from repro.experiments.parallel import store_digest
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import RunSpec, simulate
from repro.scenarios import ScenarioError, ScenarioSpec, scenario_names
from repro.scenarios.loader import load_file, load_scenario
from repro.util.metrics import execution_invariant
from repro.util.simtime import DAY

CHECK_KEYS = ("run", "same_as", "experiments", "pack", "frontier")

#: What ``run:`` and ``same_as:`` may set; the scenario is the file.
RUN_FIELDS = tuple(f.name for f in fields(RunSpec) if f.name != "scenario")


@dataclass(frozen=True)
class Check:
    spec: ScenarioSpec  # the file's scenario keys, named by its stem
    run: dict  # RunSpec fields, checkpoint_every in sim-seconds
    same_as: tuple
    experiments: tuple
    pack: bool
    frontier: bool


def check_dir() -> Path:
    return Path(__file__).resolve().parents[3] / "checks"


def load_check(name: str) -> Check:
    """A check by name in :func:`check_dir`, or by ``.yaml`` path."""
    path = Path(name)
    if not name.endswith(".yaml"):
        path = check_dir() / f"{name}.yaml"
    if not path.is_file():
        known = ", ".join(scenario_names(check_dir()))
        raise ScenarioError(f"no check {name!r}; known: {known}", str(path))
    spec, extras = load_file(path, CHECK_KEYS)
    experiments = tuple(extras.get("experiments") or ())
    runs = [extras.get("run") or {}, *(extras.get("same_as") or ())]
    unknown = {key for run in runs for key in run} - set(RUN_FIELDS)
    unknown |= set(experiments) - set(EXPERIMENTS)
    if unknown:
        raise ScenarioError(
            f"unknown run field(s) or experiment(s): "
            f"{', '.join(sorted(unknown))}",
            str(path),
        )
    return Check(
        spec=spec,
        run=_in_engine_units(extras.get("run") or {}),
        same_as=tuple(map(_in_engine_units, extras.get("same_as") or ())),
        experiments=experiments,
        pack=bool(extras.get("pack")),
        frontier=bool(extras.get("frontier")),
    )


def _in_engine_units(run: dict) -> dict:
    if run.get("checkpoint_every") is None:
        return dict(run)
    return dict(run, checkpoint_every=run["checkpoint_every"] * DAY)


def run_checks(names=()) -> int:
    """Run the named checks (default: all), printing each one's metrics,
    verdicts, ``same_as`` lines and renders; 1 if any check failed,
    errored or raised."""
    checks = [load_check(n) for n in names or scenario_names(check_dir())]
    outcomes = []
    for check in checks:
        print(f"=== check {check.spec.name}: {check.spec.description} ===")
        started = time.perf_counter()
        try:
            passed = _run_check(check)
        except Exception:
            traceback.print_exc()
            passed = False
        seconds = time.perf_counter() - started
        outcomes.append((check.spec.name, passed, seconds))
    for name, passed, seconds in outcomes:
        status = "PASS" if passed else "FAIL"
        print(f"check {name}: {status} ({seconds:.1f}s)")
    return 0 if all(passed for _, passed, _ in outcomes) else 1


def _run_check(check: Check) -> bool:
    if check.frontier:
        from repro.analysis import frontier

        result = frontier.run_frontier(
            preset=check.run.get("preset", RunSpec.preset),
            jobs=min(4, os.cpu_count() or 1),
        )
        print(frontier.render(result))
        return not frontier.check_frontier(result)
    if not check.pack:
        return _run_scenario(check, check.spec)
    if not scenario_names():
        raise ScenarioError("the scenario pack is empty")
    # A list, not a generator: every scenario runs, failing or not.
    return all([
        _run_scenario(
            check, replace(spec, verdicts=spec.verdicts + check.spec.verdicts)
        )
        for spec in map(load_scenario, scenario_names())
    ])


def _run_scenario(check: Check, scenario: ScenarioSpec) -> bool:
    from repro.cli import format_run_metrics

    with tempfile.TemporaryDirectory(prefix="repro-check-") as scratch:
        spec = RunSpec(scenario=scenario, **check.run)
        if spec.checkpoint_every is not None and spec.checkpoint_dir is None:
            spec = replace(spec, checkpoint_dir=scratch)
        result = simulate(spec)
        print(format_run_metrics(result))
        verdict = verdicts.evaluate(result, scenario)
        print(verdicts.render(verdict, scenario.description))
        same = [_same_as(result, spec, other) for other in check.same_as]
        for exp_id in check.experiments:
            print(f"=== {exp_id} ===\n{run_experiment(exp_id, result)}")
    return verdict.passed and all(same)


def _same_as(result, spec: RunSpec, overrides: dict) -> bool:
    """Run *spec* with *overrides*; it must reproduce *result*."""
    label = " ".join(f"{name}={value}" for name, value in overrides.items())
    if overrides.get("resume_from") == "latest":
        snapshot = latest_checkpoint(spec.checkpoint_dir or "")
        if snapshot is None:
            print(f"same_as {label}: FAIL (the run wrote no snapshot)")
            return False
        overrides = dict(overrides, resume_from=snapshot)
    other = simulate(replace(spec, **overrides))
    ours = execution_invariant(result.metrics)
    theirs = execution_invariant(other.metrics)
    problems = [
        f"{name} {ours.get(name)} != {theirs.get(name)}"
        for name in sorted(ours.keys() | theirs.keys())
        if ours.get(name) != theirs.get(name)
    ]
    if store_digest(other.store) != store_digest(result.store):
        problems.insert(0, "store digest differs")
    if problems:
        print(f"same_as {label}: FAIL ({'; '.join(problems)})")
    else:
        print(f"same_as {label}: PASS (digest and {len(ours)} metrics equal)")
    return not problems
