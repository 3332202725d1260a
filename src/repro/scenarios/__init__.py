"""Declarative attack-scenario packs (DESIGN.md §13).

Scenarios are named YAML files under ``<repo>/scenarios/`` that compose
workload attacks, fault/crash weather, a filter-chain composition, and
machine-checked pass/fail verdicts into one hashable
:class:`~repro.scenarios.spec.ScenarioSpec` the runner and the sweep
cache consume.
"""

from repro.scenarios.loader import (
    SCENARIO_DIR_ENV,
    load_scenario,
    resolve_scenario,
    scenario_dir,
    scenario_names,
)
from repro.scenarios.spec import (
    AttackSpec,
    ScenarioError,
    ScenarioSpec,
    VerdictCheck,
)

__all__ = [
    "SCENARIO_DIR_ENV",
    "AttackSpec",
    "ScenarioError",
    "ScenarioSpec",
    "VerdictCheck",
    "load_scenario",
    "resolve_scenario",
    "scenario_dir",
    "scenario_names",
]
