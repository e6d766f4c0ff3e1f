"""Unit tests for the declarative report pipeline.

Three surfaces: the :class:`ReportSpec`/:class:`ReportContext` model
(one pipeline, explicit errors), :class:`SweepSource` resolution order
(store -> artifacts -> compute, with identity checks at every step),
and the artifact/rendering helpers the pipeline leans on
(``save_sweep_result``'s crash-safe latest-alias,
``render_sweep_table``'s censored/diverged cells).
"""

from __future__ import annotations

import math
import os

import pytest

from repro.engine.store import ResultsStore
from repro.engine.sweeps import PointResult, ReplicateBudget, SweepResult
from repro.errors import ExperimentError
from repro.experiments.reporting import render_sweep_table, save_sweep_result
from repro.experiments.specs_sweeps import get_sweep, report_budget
from repro.reports.data import SweepSource, expected_result_fingerprint
from repro.reports.model import ReportContext, ReportSpec, build_report
from repro.reports.registry import REPORT_SPECS


def make_point(index, params, estimate, samples=None):
    if samples is None:
        samples = [estimate] * 3
    return PointResult(
        index=index,
        params=dict(params),
        estimate=estimate,
        ci_low=estimate,
        ci_high=estimate,
        quantile=0.5,
        threshold=1e-3,
        samples=list(samples),
        n_censored=sum(1 for s in samples if math.isinf(s)),
        n_diverged=sum(1 for s in samples if math.isnan(s)),
        budget_exhausted=False,
    )


class TestRegistry:
    def test_all_fourteen_experiments_are_declared(self):
        assert sorted(REPORT_SPECS) == sorted(f"E{i}" for i in range(1, 15))

    def test_every_spec_is_internally_consistent(self):
        for experiment_id, spec in REPORT_SPECS.items():
            assert spec.experiment_id == experiment_id
            assert spec.sweeps or spec.provider is not None
            assert spec.tables, f"{experiment_id} renders no table"
            assert spec.checks, f"{experiment_id} declares no checks"
            assert spec.summary and spec.paper_claim

    def test_specless_report_is_rejected_at_declaration(self):
        with pytest.raises(ExperimentError, match="neither sweeps nor"):
            ReportSpec(
                experiment_id="EX",
                title="t",
                paper_claim="c",
                summary="s",
                default_seed=0,
            )


class TestReportContext:
    def _ctx(self):
        return ReportContext(
            experiment_id="EX",
            scale="smoke",
            seed=0,
            sweeps={},
            data={},
        )

    def test_undeclared_sweep_is_an_experiment_error(self):
        with pytest.raises(ExperimentError, match="did not declare sweep"):
            self._ctx().sweep("E3")

    def test_memo_computes_once(self):
        ctx = self._ctx()
        calls = []
        assert ctx.memo("k", lambda: calls.append(1) or 42) == 42
        assert ctx.memo("k", lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1


class TestBuildReport:
    def _spec(self, **overrides):
        def provider(scale=None, seed=None):
            return {"scale": scale, "seed": seed, "value": 7.0}

        fields = dict(
            experiment_id="EX",
            title=lambda ctx: f"t(value={ctx.data['value']:g})",
            paper_claim="c",
            summary="s",
            default_seed=123,
            provider=provider,
            tables=(),
            checks=(
                lambda ctx: ("positive", ctx.data["value"] > 0, "detail"),
            ),
            findings=lambda ctx: {"value": ctx.data["value"]},
        )
        fields.update(overrides)
        return ReportSpec(**fields)

    def test_provider_payload_feeds_title_findings_and_checks(self):
        report = build_report(self._spec(), scale="smoke")
        assert report.title == "t(value=7)"
        assert report.findings == {"value": 7.0}
        assert report.all_checks_passed
        (check,) = report.checks
        assert (check.name, check.passed) == ("positive", True)

    def test_seed_defaults_to_the_spec_default(self):
        seen = {}

        def provider(scale=None, seed=None):
            seen["seed"] = seed
            return {"value": 1.0}

        build_report(self._spec(provider=provider), scale="smoke")
        assert seen["seed"] == 123
        build_report(self._spec(provider=provider), scale="smoke", seed=9)
        assert seen["seed"] == 9


class TestSweepSource:
    """Resolution order and identity checks, on the smallest real sweep."""

    SCALE, SEED = "smoke", 13

    def _resolve(self, **kwargs):
        return SweepSource(**kwargs).resolve(
            "E3", scale=self.SCALE, seed=self.SEED
        )

    @pytest.fixture(scope="class")
    def computed(self):
        """One computed E3 smoke result shared by the class."""
        return SweepSource().resolve("E3", scale=self.SCALE, seed=self.SEED)

    def test_store_miss_computes_through_the_store_then_hits(
        self, tmp_path, computed
    ):
        store = ResultsStore(tmp_path / "runs.sqlite")
        first = self._resolve(store=store)
        assert first.to_dict() == computed.to_dict()
        # Now a pure reader must resolve the same bytes with compute off.
        again = self._resolve(store=store, compute=False)
        assert again.to_dict() == computed.to_dict()

    def test_each_resolution_looks_the_store_up_once(
        self, tmp_path, computed, monkeypatch
    ):
        store = ResultsStore(tmp_path / "runs.sqlite")
        lookups = []
        lookup = store.lookup

        def counting_lookup(fingerprint):
            lookups.append(fingerprint)
            return lookup(fingerprint)

        monkeypatch.setattr(store, "lookup", counting_lookup)
        assert self._resolve(store=store).to_dict() == computed.to_dict()
        assert len(lookups) == 1  # the miss that computed
        assert self._resolve(store=store).to_dict() == computed.to_dict()
        assert len(lookups) == 2  # the hit

    def test_artifact_dir_resolves_by_fingerprint(self, tmp_path, computed):
        save_sweep_result(computed, tmp_path)
        result = self._resolve(artifact_dir=tmp_path, compute=False)
        assert result.to_dict() == computed.to_dict()

    def test_mismatched_alias_is_skipped_not_trusted(self, tmp_path, computed):
        # An alias left by a different configuration (other seed) must
        # not satisfy this resolution.
        other = computed.to_dict()
        other["seed"] = self.SEED + 1
        SweepResult.from_dict(other).save(tmp_path / "sweep_e3.json")
        with pytest.raises(ExperimentError, match="computing is disabled"):
            self._resolve(artifact_dir=tmp_path, compute=False)

    def test_corrupt_artifact_is_a_clean_error(self, tmp_path, computed):
        spec = get_sweep("E3", scale=self.SCALE, seed=self.SEED)
        fingerprint = expected_result_fingerprint(
            spec, self.SEED, report_budget(self.SCALE)
        )
        path = tmp_path / f"sweep_e3_{fingerprint[:12]}.json"
        path.write_text('{"not": "a sweep result"}', encoding="utf-8")
        with pytest.raises(ExperimentError, match="not a readable sweep"):
            self._resolve(artifact_dir=tmp_path, compute=False)

    def test_no_compute_miss_names_the_seeding_command(self, tmp_path):
        store = ResultsStore(tmp_path / "runs.sqlite")
        with pytest.raises(ExperimentError) as err:
            self._resolve(store=store, compute=False)
        message = str(err.value)
        assert "repro-experiments sweep E3 --scale smoke --seed 13" in message
        assert "--replicates 3" in message
        assert str(store.path) in message

    def test_unknown_sweep_id_propagates(self):
        with pytest.raises(ExperimentError, match="no sweep declared"):
            SweepSource().resolve("E99", scale="smoke", seed=0)


class TestSaveSweepResultAlias:
    def _result(self, seed=0):
        return SweepResult(
            sweep_name="T",
            axes={"n": [4]},
            seed=seed,
            budget=ReplicateBudget.fixed(2),
            points=[make_point(0, {"n": 4}, 1.5)],
        )

    def test_alias_tracks_the_latest_save(self, tmp_path):
        save_sweep_result(self._result(seed=0), tmp_path)
        target = save_sweep_result(self._result(seed=1), tmp_path)
        alias = tmp_path / "sweep_t.json"
        assert alias.read_bytes() == target.read_bytes()
        assert SweepResult.load(alias).seed == 1

    def test_symlink_failure_falls_back_to_an_intact_copy(
        self, tmp_path, monkeypatch
    ):
        """A failing symlink must leave a complete alias, not a stale or
        missing one (the tmp+rename protocol)."""

        def broken_symlink(src, dst, *args, **kwargs):
            raise OSError("symlinks unsupported")

        monkeypatch.setattr(os, "symlink", broken_symlink)
        target = save_sweep_result(self._result(seed=0), tmp_path)
        alias = tmp_path / "sweep_t.json"
        assert not alias.is_symlink()
        assert alias.read_bytes() == target.read_bytes()
        # A second save must atomically replace, never leave the old
        # alias bytes behind.
        newer = save_sweep_result(self._result(seed=5), tmp_path)
        assert alias.read_bytes() == newer.read_bytes()
        assert not list(tmp_path.glob(".sweep_t.json.*"))

    def test_replacement_failure_leaves_no_tmp_litter(
        self, tmp_path, monkeypatch
    ):
        save_sweep_result(self._result(seed=0), tmp_path)
        before = (tmp_path / "sweep_t.json").read_bytes()

        def broken_replace(src, dst, *args, **kwargs):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="replace failed"):
            save_sweep_result(self._result(seed=5), tmp_path)
        monkeypatch.undo()
        # The old alias is untouched and no tmp files are left behind.
        assert (tmp_path / "sweep_t.json").read_bytes() == before
        assert not list(tmp_path.glob(".sweep_t.json.*"))


class TestRenderSweepTable:
    def test_censored_and_diverged_cells_are_labelled(self):
        result = SweepResult(
            sweep_name="T",
            axes={"n": [4, 8, 16]},
            seed=0,
            budget=ReplicateBudget.fixed(2),
            points=[
                make_point(0, {"n": 4}, 2.5),
                make_point(1, {"n": 8}, math.inf, samples=[math.inf] * 2),
                make_point(2, {"n": 16}, math.nan, samples=[math.nan] * 2),
            ],
        )
        rows = render_sweep_table(result).to_rows()
        by_n = {row[0]: row for row in rows}
        assert by_n["4"][1] == "2.5"
        assert by_n["8"][1] == "censored"
        assert by_n["16"][1] == "diverged"
