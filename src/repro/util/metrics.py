"""One flat map of a run's counters.

A finished run reports every counter it kept under a dotted name,
``<group>.<counter>`` — ``faults.greylist_deferrals``,
``ledger.accepted``, ``crashes.by_component.<component>`` — in one
plain ``{name: value}`` dict (DESIGN.md "Run metrics"). The live
service keeps its own counters in the same model
(``LiveCrService.metrics()``).
"""

from __future__ import annotations

from typing import Mapping

#: The groups a run's map holds names under.
GROUPS = (
    "cache", "checkpoint", "crashes", "faults", "ledger", "memory",
    "planner", "sim",
)

#: Names that say how a run executed, not what it measured: per-process
#: work and memory (which includes where the store's rows live, in
#: memory or spilled), per-resume snapshots, and whether a forked planner
#: drew the trace. The rest match with or without a snapshot, a resume,
#: a spill or a planner.
EXECUTION_VARIANT = (
    "cache.", "checkpoint.", "sim.events", "memory.", "planner.",
)


def execution_invariant(metrics: Mapping) -> dict:
    """*metrics* without the :data:`EXECUTION_VARIANT` names."""
    return {
        name: value
        for name, value in metrics.items()
        if not name.startswith(EXECUTION_VARIANT)
    }


def flatten(group: str, counters: Mapping) -> dict:
    """*counters* under ``<group>.<name>`` names; a nested mapping nests
    one level deeper (``crashes.by_component.<component>``)."""
    flat = {}
    for name, value in counters.items():
        if isinstance(value, Mapping):
            flat.update(flatten(f"{group}.{name}", value))
        else:
            flat[f"{group}.{name}"] = value
    return flat


def short_names(metrics: Mapping, *groups: str) -> dict:
    """The metrics of *groups*, each under its name without the group:
    ``{"smtp.acked": 3}`` → ``{"acked": 3}``."""
    prefixes = tuple(f"{group}." for group in groups)
    return {
        name.partition(".")[2]: value
        for name, value in metrics.items()
        if name.startswith(prefixes)
    }


def format_metrics(metrics: Mapping) -> str:
    """One aligned ``name  value`` line per metric, sorted by name."""
    width = max(map(len, metrics), default=0)
    return "\n".join(
        f"  {name:<{width}}  {_format_value(value)}"
        for name, value in sorted(metrics.items())
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.3f}"
    return f"{value:,}"


class MetricsView:
    """Read-only attributes over one group of a metrics map.

    ``view.name`` is ``metrics["<GROUP>.name"]``, and the instance
    ``__dict__`` holds exactly the group's counters under those short
    names. Subclasses name the group and add derived properties.
    """

    GROUP = ""

    def __init__(self, metrics: Mapping) -> None:
        vars(self).update(short_names(metrics, self.GROUP))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is a read-only view")

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in vars(self).items()
        )
        return f"{type(self).__name__}({fields})"
