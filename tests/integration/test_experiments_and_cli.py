"""Integration: every experiment runs at smoke scale with all checks green."""

from __future__ import annotations

import pytest

from repro.experiments.cli import main
from repro.reports.registry import REPORT_SPECS, run_experiment


@pytest.mark.parametrize("experiment_id", sorted(REPORT_SPECS))
def test_experiment_smoke_passes(experiment_id):
    report = run_experiment(experiment_id, scale="smoke")
    failed = [c for c in report.checks if not c.passed]
    assert not failed, (
        f"{experiment_id} failed checks: "
        + "; ".join(f"{c.name} ({c.detail})" for c in failed)
    )
    assert report.tables, "every experiment must regenerate a table"
    rendered = report.render()
    assert report.experiment_id in rendered


def test_cli_runs_single_experiment(tmp_path, capsys):
    exit_code = main(["run", "E6", "--scale", "smoke", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "E6" in captured.out
    assert (tmp_path / "e6.txt").exists()
    assert (tmp_path / "e6.json").exists()


def test_cli_workers_flag_sets_env_and_reproduces_serial(
    monkeypatch, capsys
):
    """--workers must parallelize via REPRO_WORKERS without changing
    any measured number (the backend reproducibility guarantee)."""
    import os

    from repro.engine.backends import WORKERS_ENV_VAR

    # setenv (not delenv) so monkeypatch restores the pre-test state even
    # though main() writes to os.environ itself; "1" means serial.
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    from repro.engine.backends import _SHARED_PROCESS_BACKENDS

    pools_before = set(_SHARED_PROCESS_BACKENDS)
    serial_out = run(["run", "E3", "--scale", "smoke"])
    parallel_out = run(["run", "E3", "--scale", "smoke", "--workers", "2"])
    # main() restores the pre-run value and releases the worker pools it
    # created (and only those), so programmatic calls leave no trace.
    assert os.environ.get(WORKERS_ENV_VAR) == "1"
    assert set(_SHARED_PROCESS_BACKENDS) == pools_before
    assert serial_out == parallel_out

    assert main(["run", "E3", "--workers", "0"]) == 2


def test_cli_sweep_runs_and_saves_artifact(tmp_path, capsys):
    """The sweep subcommand: axis overrides, fixed budget, JSON artifact."""
    exit_code = main([
        "sweep", "E3", "--scale", "smoke",
        "--axis", "n=16,24", "--axis", "algorithm=vanilla",
        "--replicates", "2", "--out", str(tmp_path),
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "sweep E3" in captured.out
    assert (tmp_path / "sweep_e3.json").exists()

    from repro.engine.sweeps import SweepResult

    result = SweepResult.load(tmp_path / "sweep_e3.json")
    assert result.n_points == 2
    assert all(p.n_replicates == 2 for p in result.points)


@pytest.mark.slow
def test_cli_sweep_workers_reproduce_serial(tmp_path, capsys):
    """--workers must not change a single byte of the sweep artifact."""
    from repro.engine.backends import _SHARED_PROCESS_BACKENDS

    argv = [
        "sweep", "E3", "--scale", "smoke",
        "--axis", "n=16,24,32", "--axis", "algorithm=vanilla",
        "--target-ci", "0.8", "--min-replicates", "3",
        "--max-replicates", "8",
    ]
    pools_before = set(_SHARED_PROCESS_BACKENDS)
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    assert main(argv + ["--out", str(tmp_path / "pooled"),
                        "--workers", "2"]) == 0
    capsys.readouterr()
    # Programmatic main() must release the worker pools it created.
    assert set(_SHARED_PROCESS_BACKENDS) == pools_before
    serial = (tmp_path / "serial" / "sweep_e3.json").read_text()
    pooled = (tmp_path / "pooled" / "sweep_e3.json").read_text()
    assert serial == pooled


def test_cli_sweep_checkpoint_resume(tmp_path, capsys):
    """A finished checkpoint makes the rerun a pure read."""
    argv = [
        "sweep", "E3", "--scale", "smoke", "--axis", "n=16",
        "--axis", "algorithm=vanilla", "--replicates", "2",
        "--checkpoint", str(tmp_path / "ckpt.json"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "1 points resumed" in second
    assert first.splitlines()[:5] == second.splitlines()[:5]  # same table


def test_cli_sweep_rejects_bad_input(capsys):
    assert main(["sweep", "E99"]) == 2
    assert "no sweep declared" in capsys.readouterr().err
    assert main(["sweep", "E3", "--axis", "bogus"]) == 2
    assert "--axis expects" in capsys.readouterr().err
    assert main(["sweep", "E3", "--workers", "0"]) == 2
    capsys.readouterr()


def test_cli_run_rejects_bad_input(monkeypatch, capsys):
    """An unknown id or scale is a usage error (exit 2), not a failed
    shape check (exit 1) and not a traceback."""
    assert main(["run", "E99"]) == 2
    assert "unknown experiment 'E99'" in capsys.readouterr().err
    monkeypatch.setenv("REPRO_SCALE", "huge")
    assert main(["run", "E6"]) == 2
    assert "unknown scale 'huge'" in capsys.readouterr().err


def test_cli_reports_failure_exit_code(monkeypatch, capsys):
    """A failing check must surface as a non-zero exit code."""
    from repro.reports.model import ReportSpec

    failing = ReportSpec(
        experiment_id="E1",
        title="t",
        paper_claim="c",
        summary="s",
        default_seed=0,
        provider=lambda scale, seed: {},
        checks=(lambda ctx: ("x", False, "boom"),),
    )
    monkeypatch.setitem(REPORT_SPECS, "E1", failing)
    assert main(["run", "E1", "--scale", "smoke"]) == 1
    assert "[FAIL] x: boom" in capsys.readouterr().out
