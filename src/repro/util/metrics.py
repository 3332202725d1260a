"""One flat map of a run's counters, and the rules that merge such maps.

A finished run reports every counter it kept under a dotted name,
``<group>.<counter>`` — ``faults.greylist_deferrals``,
``ledger.accepted``, ``crashes.by_component.<component>`` — in one
plain ``{name: value}`` dict (DESIGN.md "Run metrics"). The shards of
one run each report such a map; :func:`merge` combines them into the
run's. A name sums unless :data:`MERGE_RULES` declares otherwise.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

#: The names that do not sum across shards, and how they combine.
MERGE_RULES: dict[str, Callable] = {
    # A high-water mark: the run's peak is its largest process's.
    "memory.max_rss_bytes": max,
    "planner.max_rss_bytes": max,
    # Every shard snapshots at the run's one interval.
    "checkpoint.every": max,
    # Each shard reports the run's own flag, so a shard that owns no
    # company still says whether the run audited.
    "ledger.audit": all,
    # A plan installed in any shard is installed for the run.
    "faults.enabled": any,
    "crashes.enabled": any,
}

#: The groups a run's map holds names under.
GROUPS = (
    "cache", "checkpoint", "crashes", "faults", "ledger", "memory",
    "planner", "sim",
)

#: Names that say how a run executed, not what it measured: per-process
#: work (every shard replays the world and trace), per-shard, per-resume
#: snapshots, and whether a forked planner drew the trace. The rest match
#: at any shard count, snapshot or planner.
EXECUTION_VARIANT = (
    "cache.", "checkpoint.", "sim.events", "memory.max_rss_bytes",
    "planner.",
)


def execution_invariant(metrics: Mapping) -> dict:
    """*metrics* without the :data:`EXECUTION_VARIANT` names."""
    return {
        name: value
        for name, value in metrics.items()
        if not name.startswith(EXECUTION_VARIANT)
    }


def merge(maps: Iterable[Mapping]) -> dict:
    """Combine per-shard metrics maps into the run's one map.

    A name missing from some maps (a component that crashed only in
    another shard) combines over the maps that have it.
    """
    maps = list(maps)
    names = dict.fromkeys(name for metrics in maps for name in metrics)
    return {
        name: MERGE_RULES.get(name, sum)(
            metrics[name] for metrics in maps if name in metrics
        )
        for name in names
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
        prefix = f"{self.GROUP}."
        vars(self).update(
            (name[len(prefix):], value)
            for name, value in metrics.items()
            if name.startswith(prefix)
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is a read-only view")

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in vars(self).items()
        )
        return f"{type(self).__name__}({fields})"
