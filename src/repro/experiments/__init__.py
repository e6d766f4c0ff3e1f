"""Experiments: workloads, the E1-E14 sweep grids, reporting, CLI.

The reports themselves are declared in :mod:`repro.reports`;
:func:`run_experiment` builds one by id.
"""

from repro.experiments.workloads import (
    bimodal_noise,
    cut_aligned,
    gaussian,
    linear_gradient,
    make_workload,
    spike,
)
from repro.experiments.specs_sweeps import (
    SWEEPS,
    default_sweep_budget,
    get_sweep,
)
from repro.reports.model import ExperimentReport, ShapeCheck
from repro.reports.registry import run_experiment

__all__ = [
    "bimodal_noise",
    "cut_aligned",
    "gaussian",
    "linear_gradient",
    "make_workload",
    "spike",
    "ExperimentReport",
    "ShapeCheck",
    "run_experiment",
    "SWEEPS",
    "default_sweep_budget",
    "get_sweep",
]
