"""Experiment orchestration: run the simulated deployment (serially or
fanned out over a process pool), then regenerate each of the paper's
tables and figures from its logs."""

from repro.experiments.runner import (
    RunRecord,
    RunSpec,
    SimulationResult,
    run_simulation,
    simulate,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.parallel import (
    ParallelRunner,
    RunCache,
    RunFailure,
    run_specs,
)

__all__ = [
    "run_simulation",
    "simulate",
    "SimulationResult",
    "RunRecord",
    "EXPERIMENTS",
    "run_experiment",
    "ParallelRunner",
    "RunCache",
    "RunSpec",
    "RunFailure",
    "run_specs",
]
