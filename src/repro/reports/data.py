"""Where report data comes from: store, artifact directory, or compute.

:class:`SweepSource` resolves a sweep id (plus scale and seed) to a
:class:`~repro.engine.sweeps.SweepResult`, preferring already-stored
data over recomputation:

1. **Results store** — a content-addressed fingerprint hit returns the
   stored, byte-identical result with zero simulation work; with
   ``compute`` enabled a miss computes *through* the store
   (:func:`~repro.engine.store.run_sweep_cached`), so the next report
   build is a hit.  When the exact fingerprint is absent (typically a
   different code version), the typed query API scans the sweep's done
   runs for one with the same configuration identity.
2. **Artifact directory** — ``sweep_<id>_<fingerprint12>.json`` files
   written by :func:`~repro.experiments.reporting.save_sweep_result`
   (the ``sweep_<id>.json`` latest-alias is accepted when its identity
   matches).
3. **Fresh computation** — :func:`~repro.engine.sweeps.run_sweep`,
   unless ``compute`` is disabled, in which case resolution failure is
   an :class:`~repro.errors.ExperimentError` with the exact command
   that would seed the missing data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.engine.sweeps import ReplicateBudget, SweepResult, run_sweep
from repro.errors import ExperimentError, SerializationError


def expected_result_fingerprint(spec, seed: int, budget: ReplicateBudget) -> str:
    """The artifact fingerprint a run of ``(spec, seed, budget)`` gets.

    Mirrors :func:`~repro.engine.store.result_fingerprint` — the digest
    over the result's identity fields (name, axes, seed, logical
    budget), no code version — but computed *a priori* from the spec,
    so artifacts can be located without loading them.
    """
    from repro.engine.store import config_fingerprint

    payload = {
        "sweep_name": spec.name,
        "axes": {axis.name: list(axis.values) for axis in spec.axes},
        "seed": seed,
        "budget": budget.logical_dict(),
    }
    return config_fingerprint(payload, code_version=None)


@dataclass
class SweepSource:
    """Resolves sweep ids to results: store, artifacts, then compute.

    Parameters
    ----------
    store:
        An open :class:`~repro.engine.store.ResultsStore`, or ``None``.
    artifact_dir:
        A directory of ``sweep_*.json`` artifacts, or ``None``.
    compute:
        Whether a miss may simulate.  ``False`` turns this source into
        a pure reader — the drift gate's mode, where report values must
        come from recorded data alone.
    n_workers / kernel:
        Scheduling knobs forwarded to computed sweeps (never part of
        the data identity; results are bit-identical across them).
    """

    store: "Any | None" = None
    artifact_dir: "str | Path | None" = None
    compute: bool = True
    n_workers: "int | None" = None
    kernel: "str | None" = None

    def resolve(self, sweep_id: str, *, scale: str, seed: int) -> SweepResult:
        """The sweep's result under the report budget for ``scale``."""
        from repro.experiments.specs_sweeps import get_sweep, report_budget

        spec = get_sweep(sweep_id, scale=scale, seed=seed)
        budget = report_budget(scale)
        if self.store is not None:
            result = self._from_store(spec, seed, budget)
            if result is not None:
                return result
        if self.artifact_dir is not None:
            result = self._from_artifacts(spec, seed, budget)
            if result is not None:
                return result
        if self.compute and self.store is None:
            return run_sweep(
                spec,
                seed=seed,
                budget=budget,
                n_workers=self.n_workers,
                kernel=self.kernel,
            )
        raise ExperimentError(
            f"no stored result for sweep {spec.name} (scale={scale}, "
            f"seed={seed}) and computing is disabled; seed it with: "
            f"repro-experiments sweep {spec.name} --scale {scale} "
            f"--seed {seed} --replicates {budget.min_replicates}"
            + (f" --store {self.store.path}" if self.store is not None else "")
            + (f" --out {self.artifact_dir}" if self.artifact_dir else "")
        )

    # -- store ---------------------------------------------------------

    def _from_store(self, spec, seed, budget) -> "SweepResult | None":
        from repro.engine.store import (
            result_fingerprint,
            run_sweep_cached,
            sweep_fingerprint,
        )

        if self.compute:
            # One lookup: a hit loads the stored result, a miss computes
            # and records it.
            return run_sweep_cached(
                spec,
                store=self.store,
                seed=seed,
                budget=budget,
                n_workers=self.n_workers,
                kernel=self.kernel,
            ).result
        fingerprint = sweep_fingerprint(spec, seed=seed, budget=budget)
        row = self.store.lookup(fingerprint)
        if row is not None and row.status == "done":
            return self.store.load_result(row.run_id)
        # Same configuration recorded under another code version still
        # satisfies a read-only resolution (the drift gate's point is
        # precisely to recompute claims against such data).
        expected = expected_result_fingerprint(spec, seed, budget)
        for _run, result in self.store.results_for_sweep(spec.name):
            if result_fingerprint(result) == expected:
                return result
        return None

    # -- artifacts -----------------------------------------------------

    def _from_artifacts(self, spec, seed, budget) -> "SweepResult | None":
        from repro.engine.store import result_fingerprint

        base = Path(self.artifact_dir)
        expected = expected_result_fingerprint(spec, seed, budget)
        name = spec.name.lower()
        candidates = [
            base / f"sweep_{name}_{expected[:12]}.json",
            base / f"sweep_{name}.json",
        ]
        for path in candidates:
            if not path.exists():
                continue
            try:
                result = SweepResult.load(path)
            except (SerializationError, KeyError, TypeError, ValueError) as exc:
                raise ExperimentError(
                    f"artifact {path} is not a readable sweep result ({exc})"
                ) from exc
            if result_fingerprint(result) != expected:
                # The latest-alias may point at another seed/scale/budget
                # of the same sweep — not an error, just not our data.
                continue
            return result
        return None
