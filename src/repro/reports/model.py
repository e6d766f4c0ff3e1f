"""The declarative report model: one pipeline for every E1-E14 report.

A :class:`ReportSpec` declares *what* one experiment's report contains —
which sweeps feed it, which provider measures any non-grid data, and
the table/figure/finding/check builders that assemble the rendered
report — and :func:`build_report` is the single path that turns a spec
into an :class:`ExperimentReport`: the tables, rendered figures,
measured scalars and *shape checks* that together reproduce one claim
of the paper.  Shape checks encode what the paper actually predicts
(orderings, scaling exponents, bound satisfaction), not absolute
constants.  No report value is produced anywhere else: sweep-backed
experiments read stored :class:`~repro.engine.sweeps.SweepResult` rows
(resolved through :class:`~repro.reports.data.SweepSource` — results
store, artifact directory, or a fresh computation), and
measurement-backed experiments read their provider's plain-data payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.engine.sweeps import SweepResult
from repro.errors import ExperimentError
from repro.experiments.specs_sweeps import resolve_scale
from repro.util.tables import Table


@dataclass(frozen=True)
class ShapeCheck:
    """One verified prediction: name, pass/fail, human-readable detail."""

    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        """Plain-dict view for serialization."""
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class ExperimentReport:
    """Everything one experiment produced.

    Attributes
    ----------
    experiment_id:
        Short id ("E1"...).
    title:
        One-line description.
    paper_claim:
        What the paper predicts, quoted/paraphrased.
    tables:
        Rendered :class:`Table` objects (the regenerated "tables").
    figures:
        Rendered ASCII figures (the regenerated "figures").
    findings:
        Measured scalars worth quoting (exponents, speedups, bounds).
    checks:
        Shape checks; ``all_checks_passed`` summarizes them.
    """

    experiment_id: str
    title: str
    paper_claim: str
    tables: "list[Table]" = field(default_factory=list)
    figures: "list[str]" = field(default_factory=list)
    findings: dict = field(default_factory=dict)
    checks: "list[ShapeCheck]" = field(default_factory=list)

    @property
    def all_checks_passed(self) -> bool:
        """True when every shape check passed."""
        return all(check.passed for check in self.checks)

    def add_check(self, name: str, passed: bool, detail: str) -> None:
        """Record one shape check."""
        self.checks.append(ShapeCheck(name=name, passed=bool(passed), detail=detail))

    def render(self) -> str:
        """Full human-readable report."""
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper claim: {self.paper_claim}",
            "",
        ]
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        for figure in self.figures:
            lines.append(figure)
            lines.append("")
        if self.findings:
            lines.append("findings:")
            for key, value in self.findings.items():
                if isinstance(value, float):
                    lines.append(f"  {key} = {value:.4g}")
                else:
                    lines.append(f"  {key} = {value}")
            lines.append("")
        lines.append("shape checks:")
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{status}] {check.name}: {check.detail}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Serializable summary (tables as row lists)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "findings": self.findings,
            "checks": [check.to_dict() for check in self.checks],
            "all_checks_passed": self.all_checks_passed,
            "tables": [
                {"columns": table.columns, "rows": table.to_rows()}
                for table in self.tables
            ],
        }


@dataclass
class ReportContext:
    """Everything a spec's builders may read while assembling a report.

    ``sweeps`` maps sweep id to the resolved :class:`SweepResult`;
    ``data`` is the provider payload (empty for pure sweep reports).
    :meth:`memo` caches derived series so a table builder and a check
    builder computing the same aggregation share one pass.
    """

    experiment_id: str
    scale: str
    seed: int
    sweeps: "dict[str, SweepResult]"
    data: "Mapping[str, Any]"
    _memo: dict = field(default_factory=dict)

    def sweep(self, sweep_id: str) -> SweepResult:
        """The resolved result for one of the spec's declared sweeps."""
        if sweep_id not in self.sweeps:
            raise ExperimentError(
                f"report {self.experiment_id} did not declare sweep "
                f"{sweep_id!r}; declared: {sorted(self.sweeps)}"
            )
        return self.sweeps[sweep_id]

    def memo(self, key: str, compute: "Callable[[], Any]") -> Any:
        """Cache a derived series under ``key`` for this report build."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


#: A check builder returns ``(name, passed, detail)``.
CheckBuilder = Callable[[ReportContext], "tuple[str, bool, str]"]


@dataclass(frozen=True)
class ReportSpec:
    """One experiment's report, declared.

    Attributes
    ----------
    experiment_id:
        Short id ("E1"...).
    title:
        Report title — a string or a callable of the context (for
        titles quoting resolved instance sizes).
    paper_claim:
        What the paper predicts, quoted/paraphrased.
    summary:
        One-line description for the CLI ``list`` output and docs.
    default_seed:
        Seed used when the caller passes none; also the seed the claim
        catalogue resolves this experiment's sweeps under, so claims
        and reports share store cache entries.
    sweeps:
        Sweep ids (see :data:`~repro.experiments.specs_sweeps.SWEEPS`)
        resolved through the :class:`~repro.reports.data.SweepSource`
        before any builder runs.
    provider:
        Optional measurement provider ``(scale=..., seed=...) -> dict``
        for data that does not fit a sweep grid; its payload becomes
        ``ctx.data``.
    tables / figures / findings / checks:
        Builders assembling the report from the context, in order.
    """

    experiment_id: str
    title: "str | Callable[[ReportContext], str]"
    paper_claim: str
    summary: str
    default_seed: int
    sweeps: "tuple[str, ...]" = ()
    provider: "Callable[..., Mapping[str, Any]] | None" = None
    tables: "tuple[Callable[[ReportContext], Table], ...]" = ()
    figures: "tuple[Callable[[ReportContext], str], ...]" = ()
    findings: "Callable[[ReportContext], Mapping[str, Any]] | None" = None
    checks: "tuple[CheckBuilder, ...]" = ()

    def __post_init__(self) -> None:
        if not self.sweeps and self.provider is None:
            raise ExperimentError(
                f"report {self.experiment_id} declares neither sweeps nor "
                "a provider: it would have no data to report"
            )


def build_report(
    spec: ReportSpec,
    *,
    scale: "str | None" = None,
    seed: "int | None" = None,
    source: "Any | None" = None,
) -> ExperimentReport:
    """The one pipeline from declared spec to rendered report.

    Resolves the spec's sweeps through ``source`` (default: a
    compute-on-miss :class:`~repro.reports.data.SweepSource`), runs the
    provider if any, then assembles tables, figures, findings and shape
    checks in declaration order.
    """
    from repro.reports.data import SweepSource

    scale = resolve_scale(scale)
    if seed is None:
        seed = spec.default_seed
    if source is None:
        source = SweepSource()
    sweeps = {
        sweep_id: source.resolve(sweep_id, scale=scale, seed=seed)
        for sweep_id in spec.sweeps
    }
    data: "Mapping[str, Any]" = {}
    if spec.provider is not None:
        data = dict(spec.provider(scale=scale, seed=seed))
    ctx = ReportContext(
        experiment_id=spec.experiment_id,
        scale=scale,
        seed=seed,
        sweeps=sweeps,
        data=data,
    )
    title = spec.title(ctx) if callable(spec.title) else spec.title
    report = ExperimentReport(
        experiment_id=spec.experiment_id,
        title=title,
        paper_claim=spec.paper_claim,
    )
    for build_table in spec.tables:
        report.tables.append(build_table(ctx))
    for build_figure in spec.figures:
        report.figures.append(build_figure(ctx))
    if spec.findings is not None:
        report.findings.update(spec.findings(ctx))
    for build_check in spec.checks:
        name, passed, detail = build_check(ctx)
        report.add_check(name, passed, detail)
    return report
