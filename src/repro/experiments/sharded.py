"""Import shim for the retired intra-run sharding (DESIGN.md §12).

A run used to be splittable across shard workers here. That mode is
gone; the module stays only because ``perfbench/sim.py`` imports it for
every simulator workload, and the benchmark harness is kept unchanged.
``run_simulation`` is the runner's own.
"""

from repro.experiments.runner import run_simulation

__all__ = ["run_simulation"]
