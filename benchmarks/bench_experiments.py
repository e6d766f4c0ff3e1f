"""Experiment benchmarks: every E1-E14 report, timed end to end.

One test per entry of :data:`repro.reports.REPORT_SPECS`.  Each runs the
experiment at the configured scale (``REPRO_SCALE``, default
"default"), records its wall time through pytest-benchmark's pedantic
mode (one round: these measure a Monte-Carlo pipeline, not a
microbenchmark), prints the regenerated tables and figures, saves the
artifacts under ``benchmarks/results/`` and asserts every shape check
passed::

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -q
    REPRO_SCALE=smoke PYTHONPATH=src python -m pytest \\
        benchmarks/bench_experiments.py -k "E7 or E13" -q
"""

from __future__ import annotations

import pytest
from _stamp import RESULTS_DIR

from repro.experiments.reporting import save_report
from repro.experiments.specs_sweeps import resolve_scale
from repro.reports.registry import REPORT_SPECS, run_experiment


@pytest.mark.parametrize("experiment_id", list(REPORT_SPECS))
def test_experiment(experiment_id, benchmark, capsys):
    scale = resolve_scale(None)
    report = benchmark.pedantic(
        lambda: run_experiment(experiment_id, scale=scale), rounds=1, iterations=1
    )
    save_report(report, RESULTS_DIR)
    with capsys.disabled():
        print()
        print(report.render())
    failed = [check for check in report.checks if not check.passed]
    assert not failed, f"{experiment_id} failed shape checks: " + "; ".join(
        f"{check.name} ({check.detail})" for check in failed
    )
