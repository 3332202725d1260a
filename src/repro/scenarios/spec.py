"""Hashable scenario specifications.

A scenario is *data*: frozen dataclasses of scalars and tuples, so one
spec is hashable (it folds into the sweep cache key), picklable (it
ships to shard workers), and has a deterministic ``repr`` (two loads of
the same YAML produce identical cache keys). Anything live — attack
objects, the filter chain — is built from the spec at install time via
:meth:`ScenarioSpec.build_attacks` / :meth:`ScenarioSpec.chain_spec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass(frozen=True)
class AttackSpec:
    """One attack instance, by registry kind name.

    Extra per-kind constructor parameters (``guess_prob``,
    ``seed_days``, ...) ride in ``params`` as sorted ``(name, value)``
    pairs so the spec stays hashable with a canonical repr.
    """

    kind: str
    company_id: str
    start_day: int = 1
    duration_days: int = 7
    messages_per_day: float = 50.0
    params: tuple = ()

    def build(self):
        from repro.workload.attacks import build_attack

        return build_attack(self)


@dataclass(frozen=True)
class VerdictCheck:
    """One machine-checked assertion about a finished run.

    ``metric`` names a function in :mod:`repro.analysis.verdicts` or,
    dotted, a run counter (``faults.greylist_deferrals``);
    ``campaign``/``company_id`` scope it; the check passes when
    ``observed <op> value`` holds. A string ``value`` names another
    metric (``shard.exchange_rows == store.mta``).
    """

    name: str
    metric: str
    op: str = ">="
    value: Union[float, str] = 0.0
    campaign: Optional[str] = None
    company_id: Optional[str] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, declarative attack scenario.

    Composes attacks + fault/crash weather + a filter-chain composition
    + pass/fail verdict checks. Fully hashable: every field is a scalar
    or a tuple of frozen dataclasses / pairs.
    """

    name: str
    description: str = ""
    attacks: tuple = ()
    #: Fault-injection preset name applied to the run (``None`` = clear
    #: weather), overridable by an explicit ``run_simulation`` argument.
    faults: Optional[str] = None
    #: Crash-injection preset name, same override rule.
    crashes: Optional[str] = None
    #: Filter-chain composition as sorted
    #: :class:`~repro.core.config.FilterChainSpec` ``(field, value)``
    #: pairs (``members`` value itself a tuple); empty = the run's
    #: ``default`` chain. Same override rule: an explicit
    #: ``RunSpec.chain`` wins.
    chain: tuple = ()
    verdicts: tuple = ()

    def build_attacks(self) -> list:
        """Fresh attack instances (never cached: attacks hold per-run
        state that :meth:`~repro.workload.attacks.AttackScenario.install`
        allocates)."""
        return [attack.build() for attack in self.attacks]

    def chain_spec(self):
        """The composed ``FilterChainSpec``, or ``None`` when the scenario
        leaves the chain composition alone."""
        if not self.chain:
            return None
        from repro.core.config import FilterChainSpec

        return FilterChainSpec(**dict(self.chain))


@dataclass
class ScenarioError(Exception):
    """A scenario file is malformed or references unknown machinery."""

    message: str
    path: str = ""

    def __str__(self) -> str:
        prefix = f"{self.path}: " if self.path else ""
        return f"{prefix}{self.message}"
