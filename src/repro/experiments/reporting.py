"""Report rendering and artifact persistence for experiment runs."""

from __future__ import annotations

import math
import os
from pathlib import Path

from repro.engine.sweeps import SweepResult
from repro.reports.model import ExperimentReport
from repro.util.serialization import to_json_file
from repro.util.tables import Table


def save_report(
    report: ExperimentReport, directory: "str | Path"
) -> "tuple[Path, Path]":
    """Write ``<id>.txt`` (rendered) and ``<id>.json`` (structured).

    Returns the two paths.
    """
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    text_path = base / f"{report.experiment_id.lower()}.txt"
    json_path = base / f"{report.experiment_id.lower()}.json"
    text_path.write_text(report.render() + "\n", encoding="utf-8")
    to_json_file(report.to_dict(), json_path)
    return text_path, json_path


def render_sweep_table(result: SweepResult) -> Table:
    """One row per grid point: quantile estimate, CI, replicate spend."""
    axis_names = list(result.axes)
    table = Table(
        axis_names
        + [
            "T_av (q)",
            "ci low",
            "ci high",
            "rel width",
            "reps",
            "cens",
            "div",
            "flags",
        ],
        title=(
            f"sweep {result.sweep_name}: {result.n_points} configurations, "
            f"{result.total_replicates} replicates"
        ),
    )
    for point in result.points:
        flags = "budget_exhausted" if point.budget_exhausted else ""
        if math.isinf(point.estimate):
            estimate: "str | float" = "censored"
        elif math.isnan(point.estimate):
            estimate = "diverged"
        else:
            estimate = point.estimate
        table.add_row(
            [point.params[name] for name in axis_names]
            + [
                estimate,
                point.ci_low,
                point.ci_high,
                point.ci_relative_width,
                point.n_replicates,
                point.n_censored,
                point.n_diverged,
                flags,
            ]
        )
    return table


def render_sweep_stats(result: SweepResult, stats: "dict[str, int]") -> str:
    """One-line scheduler telemetry (rounds, surplus, resume, shipping).

    ``stats`` is :attr:`~repro.engine.sweeps.SweepRunner.stats` — the
    wall-clock facts deliberately kept out of the bit-identical
    :class:`SweepResult`.
    """
    line = (
        f"scheduler: {stats.get('rounds', 0)} rounds, "
        f"{stats.get('replicates_scheduled', 0)} replicates scheduled "
        f"({result.total_replicates} reported), "
        f"{stats.get('points_resumed', 0)} points resumed"
    )
    if "shared_state_points" in stats:
        line += (
            f"; shared-state shipping: {stats['shared_state_points']} "
            "configuration payload(s) (at most once per worker)"
        )
    if "vectorized_replicates" in stats or "scalar_replicates" in stats:
        line += (
            f"; kernels: {stats.get('vectorized_replicates', 0)} "
            f"replicate(s) vectorized in "
            f"{stats.get('kernel_installs', 0)} lockstep batch(es), "
            f"{stats.get('scalar_replicates', 0)} scalar"
        )
    demotions = {
        key[len("demoted:") :]: count
        for key, count in stats.items()
        if key.startswith("demoted:") and count
    }
    if demotions:
        rendered = ", ".join(
            f"{code} x{count}" for code, count in sorted(demotions.items())
        )
        line += f"; demotions: {rendered}"
    return line


def save_sweep_result(
    result: SweepResult,
    directory: "str | Path",
    *,
    fingerprint: "str | None" = None,
) -> Path:
    """Write the sweep artifact, disambiguated by configuration.

    The primary file is ``sweep_<id>_<fingerprint12>.json`` — two runs
    of the same sweep with different configurations (axes, seed,
    budget) land in different files instead of silently overwriting
    each other.  A ``sweep_<id>.json`` alias (symlink where the
    platform allows, else a copy) always points at the **latest** save,
    so tooling that greps for the fixed name — the CI ``cmp`` jobs —
    keeps working.  ``fingerprint`` defaults to
    :func:`~repro.engine.store.result_fingerprint` (configuration only,
    no code version: the same grid lands in the same file across
    commits); pass a store fingerprint to align the artifact with a
    stored run instead.  Returns the primary path.
    """
    from repro.engine.store import result_fingerprint

    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    if fingerprint is None:
        fingerprint = result_fingerprint(result)
    name = result.sweep_name.lower()
    target = result.save(base / f"sweep_{name}_{fingerprint[:12]}.json")
    alias = base / f"sweep_{name}.json"
    # The alias must never be observed missing or half-written: build the
    # replacement under a tmp name and os.replace() it into place (the
    # same atomic protocol as repro.util.serialization.to_json_file).  A
    # reader racing this sees either the previous alias or the new one.
    tmp = base / f".{alias.name}.{os.getpid()}.tmp"
    try:
        try:
            os.symlink(target.name, tmp)
        except OSError:
            # Platforms without symlink support get a plain copy — the
            # writer is deterministic (atomic tmp+fsync+rename inside),
            # so the bytes match the primary.
            result.save(tmp)
        os.replace(tmp, alias)
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass
    return target


def render_summary(reports: "list[ExperimentReport]") -> str:
    """One-line-per-experiment pass/fail overview."""
    lines = ["experiment summary:"]
    for report in reports:
        status = "PASS" if report.all_checks_passed else "FAIL"
        n_pass = sum(1 for c in report.checks if c.passed)
        lines.append(
            f"  [{status}] {report.experiment_id}: {report.title} "
            f"({n_pass}/{len(report.checks)} checks)"
        )
    return "\n".join(lines)
