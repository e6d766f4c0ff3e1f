"""Unit tests for workloads, the report harness, reporting and the CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ExperimentError
from repro.experiments.cli import build_parser, main
from repro.experiments.reporting import render_summary, save_report
from repro.experiments.specs_sweeps import pick, resolve_scale
from repro.experiments.workloads import (
    bimodal_noise,
    cut_aligned,
    gaussian,
    linear_gradient,
    make_workload,
    spike,
)
from repro.reports.model import ExperimentReport, ShapeCheck
from repro.reports.registry import REPORT_SPECS, run_experiment
from repro.util.tables import Table


class TestWorkloads:
    def test_cut_aligned_matches_paper(self, medium_dumbbell):
        partition = medium_dumbbell.partition
        values = cut_aligned(partition)
        assert np.all(values[partition.vertices_1] == 1.0)
        assert np.all(values[partition.vertices_2] == -16 / 16)
        assert values.mean() == pytest.approx(0.0, abs=1e-12)

    def test_cut_aligned_unbalanced_zero_mean(self, unbalanced_partition):
        values = cut_aligned(unbalanced_partition)
        assert values.sum() == pytest.approx(0.0, abs=1e-12)
        assert np.all(values[unbalanced_partition.vertices_2] == -2 / 4)

    def test_gaussian_zero_mean(self):
        values = gaussian(50, rng=1)
        assert values.mean() == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ExperimentError):
            gaussian(0)
        with pytest.raises(ExperimentError):
            gaussian(5, scale=-1)

    def test_spike(self):
        values = spike(10, vertex=3)
        assert values.mean() == pytest.approx(0.0, abs=1e-12)
        assert np.argmax(values) == 3
        with pytest.raises(ExperimentError):
            spike(5, vertex=9)

    def test_linear_gradient(self):
        values = linear_gradient(5)
        assert values.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_bimodal_noise(self, medium_dumbbell):
        values = bimodal_noise(medium_dumbbell.partition, rng=2, noise=0.1)
        assert values.mean() == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ExperimentError):
            bimodal_noise(medium_dumbbell.partition, noise=-0.5)

    def test_make_workload_dispatch(self, medium_dumbbell):
        graph = medium_dumbbell.graph
        partition = medium_dumbbell.partition
        rng = np.random.default_rng(0)
        for name in ("cut_aligned", "gaussian", "spike", "linear_gradient",
                     "bimodal_noise"):
            sampler = make_workload(name, graph=graph, partition=partition)
            values = np.asarray(sampler(rng))
            assert values.shape == (32,)
        with pytest.raises(ExperimentError, match="unknown workload"):
            make_workload("nope", graph=graph)
        with pytest.raises(ExperimentError, match="requires a partition"):
            make_workload("cut_aligned", graph=graph)


class TestReportHarness:
    def test_report_checks_and_render(self):
        report = ExperimentReport("EX", "title", "claim")
        table = Table(["a"])
        table.add_row([1])
        report.tables.append(table)
        report.findings["speedup"] = 3.5
        report.add_check("works", True, "detail-1")
        report.add_check("fails", False, "detail-2")
        assert not report.all_checks_passed
        text = report.render()
        assert "[PASS] works" in text and "[FAIL] fails" in text
        assert "speedup = 3.5" in text
        info = report.to_dict()
        assert info["all_checks_passed"] is False
        assert info["tables"][0]["rows"] == [["1"]]

    def test_shape_check_dataclass(self):
        check = ShapeCheck("name", True, "d")
        assert check.to_dict() == {"name": "name", "passed": True, "detail": "d"}

    def test_scale_resolution(self, monkeypatch):
        assert resolve_scale("smoke") == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert resolve_scale(None) == "full"
        monkeypatch.delenv("REPRO_SCALE")
        assert resolve_scale(None) == "default"
        with pytest.raises(ExperimentError):
            resolve_scale("huge")

    def test_pick(self):
        assert pick("smoke", smoke=1, default=2, full=3) == 1
        assert pick("full", smoke=1, default=2, full=3) == 3


@pytest.mark.parametrize("module", ["repro.reports", "repro.experiments.cli"])
def test_first_import_in_fresh_interpreter(module):
    """``repro.experiments`` and ``repro.reports`` import each other
    (report types and the registry one way, scale presets and sweep
    grids the other); either side must load as the first import."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", ["repro.experiments.cli", "repro.engine.cluster"])
def test_start_up_import_leaves_scipy_unloaded(module):
    """The CLI and a cluster worker never call scipy at start-up (the
    coordinator precomputes every spectral quantity a spec needs), so
    importing them must not load it; spectral code imports it lazily."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = f"import sys, {module}; print('scipy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


class TestRegistryAndReporting:
    def test_registry_complete(self):
        assert set(REPORT_SPECS) == {f"E{i}" for i in range(1, 15)}

    def test_run_experiment_case_insensitive(self):
        lower = run_experiment("e7", scale="smoke")
        upper = run_experiment("E7", scale="smoke")
        assert lower.experiment_id == "E7"
        assert lower.render() == upper.render()
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("E99")

    def test_save_report_artifacts(self, tmp_path):
        report = ExperimentReport("E0", "t", "c")
        report.add_check("x", True, "d")
        text_path, json_path = save_report(report, tmp_path)
        assert text_path.exists() and json_path.exists()
        assert "E0" in text_path.read_text()

    def test_render_summary(self):
        good = ExperimentReport("E1", "one", "c")
        good.add_check("a", True, "d")
        bad = ExperimentReport("E2", "two", "c")
        bad.add_check("a", False, "d")
        summary = render_summary([good, bad])
        assert "[PASS] E1" in summary and "[FAIL] E2" in summary


class TestCli:
    def test_parser_list_and_run(self):
        parser = build_parser()
        args = parser.parse_args(["run", "E3", "--scale", "smoke"])
        assert args.experiment == "E3" and args.scale == "smoke"
        assert parser.parse_args(["list"]).command == "list"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out and "E10:" in out

    def test_run_command_smoke(self, tmp_path, capsys):
        code = main(["run", "E7", "--scale", "smoke", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "E7" in out
        assert (tmp_path / "e7.json").exists()
        assert code == 0
