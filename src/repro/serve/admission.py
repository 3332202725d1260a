"""Admission control for the live frontend: the graceful-degradation
ladder.

The admission queue itself is a plain bounded ``asyncio.Queue`` owned by
:class:`~repro.serve.service.LiveCrService`, which also counts its
refusals (``admission.*`` in the service's metrics map). This module
holds the policy around it: :class:`DegradationLadder`, a
queue-depth-driven shed level with hysteresis, so sustained overload
degrades the pipeline *in stages* (full chain → chain minus auxiliary
members → quarantine-by-default) and load removal walks it back up.
Every transition is recorded, which is what makes the ladder observable
and reversible rather than folklore.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Tuple

#: Shed levels, shallowest to deepest. Level 1 sheds the PR 9 auxiliary
#: chain members (content / reputation); level 2 quarantines gray mail
#: without chain or challenge. Nothing is ever silently dropped at any
#: level — deeper levels trade *classification quality* for throughput.
MAX_SHED_LEVEL = 2


@dataclass
class DegradationLadder:
    """Hysteresis-driven shed level derived from admission-queue depth.

    ``up[i]`` is the queue-fill fraction at which level ``i`` escalates to
    ``i+1``; ``down[i]`` the fraction at which ``i+1`` relaxes back to
    ``i``. Up thresholds sit above down thresholds so the level cannot
    flap around a single watermark. ``observe`` is called by the engine
    worker with the instantaneous depth; transitions are timestamped and
    kept for the health endpoint.
    """

    capacity: int
    up: Tuple[float, float] = (0.55, 0.85)
    down: Tuple[float, float] = (0.20, 0.50)
    level: int = 0
    #: (wall time, old level, new level, queue depth) per transition.
    transitions: List[Tuple[float, int, int, int]] = field(default_factory=list)

    def observe(self, depth: int) -> int:
        """Update the shed level for *depth*; returns the (new) level."""
        fraction = depth / self.capacity if self.capacity else 0.0
        while self.level < MAX_SHED_LEVEL and fraction >= self.up[self.level]:
            self._move(self.level + 1, depth)
        while self.level > 0 and fraction <= self.down[self.level - 1]:
            self._move(self.level - 1, depth)
        return self.level

    def pin(self, level: int) -> int:
        """Force the level (ops override / tests). Recorded like any other
        transition; the next ``observe`` resumes normal hysteresis."""
        level = max(0, min(MAX_SHED_LEVEL, level))
        if level != self.level:
            self._move(level, -1)
        return self.level

    def _move(self, new_level: int, depth: int) -> None:
        self.transitions.append((time.time(), self.level, new_level, depth))
        self.level = new_level

    def transitions_as_dicts(self) -> List[dict]:
        return [
            {"wall": wall, "from": old, "to": new, "depth": depth}
            for wall, old, new, depth in self.transitions
        ]


__all__ = ["DegradationLadder", "MAX_SHED_LEVEL"]
