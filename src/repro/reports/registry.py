"""The E1-E14 report catalogue, keyed by experiment id."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ExperimentError
from repro.reports import (
    catalog_analysis,
    catalog_baselines,
    catalog_extensions,
    catalog_scaling,
)
from repro.reports.model import ExperimentReport, ReportSpec, build_report

if TYPE_CHECKING:
    from repro.reports.data import SweepSource

#: Every declared report, in experiment order (E1-E10 reproduce the
#: paper's claims; E11-E14 are the documented extensions).  The CLI's
#: ``run`` and ``list`` commands and :func:`run_experiment` read this
#: table; there is no other report path.
REPORT_SPECS: "dict[str, ReportSpec]" = {
    spec.experiment_id: spec
    for spec in (
        catalog_scaling.E1,
        catalog_scaling.E2,
        catalog_scaling.E3,
        catalog_scaling.E4,
        catalog_scaling.E5,
        catalog_analysis.E6,
        catalog_analysis.E7,
        catalog_baselines.E8,
        catalog_baselines.E9,
        catalog_baselines.E10,
        catalog_extensions.E11,
        catalog_extensions.E12,
        catalog_extensions.E13,
        catalog_extensions.E14,
    )
}


def run_experiment(
    experiment_id: str,
    *,
    scale: "str | None" = None,
    seed: "int | None" = None,
    source: "SweepSource | None" = None,
) -> ExperimentReport:
    """Build one experiment's report, looked up by id (case-insensitive)."""
    spec = REPORT_SPECS.get(experiment_id.upper())
    if spec is None:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(REPORT_SPECS)}"
        )
    return build_report(spec, scale=scale, seed=seed, source=source)
