"""Exact expected dynamics of vanilla gossip, in closed form.

Under rate-1 edge clocks, vanilla gossip's expected value vector obeys the
heat equation on the graph:

    ``d/dt E[x(t)] = -(1/2) L E[x(t)]``  =>  ``E[x(t)] = exp(-t L / 2) x0``

and the expected *squared deviation* obeys a second-moment linear system
whose eigen-decomposition this module computes exactly.  For the squared
deviation the relevant identity is cleaner than the full second moment:
projecting ``x0`` on the Laplacian eigenbasis ``(lambda_k, u_k)``,

    ``E[Phi(t)] = sum_k  c_k(t) <x0, u_k>^2``  with  ``Phi = |x - mean|^2``

where each mode's coefficient solves a linear ODE driven by the edge-tick
quadratic contraction.  We implement the exact first-moment propagator and
a rigorous **upper envelope** for the variance,

    ``E[var(t)] <= var(0) * exp(-lambda_2 t / 2)``,

(the Dirichlet-form bound behind the library's ``Tvan`` proxy) plus the
matching per-mode *expected-value* variance ``var(E[x(t)])``, which is a
lower envelope since ``var`` is convex.  The sandwich

    ``var(E[x(t)]) <= E[var(t)] <= var(0) e^{-lambda_2 t / 2}``

is what the validation experiment checks the Monte-Carlo engine against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.graphs.graph import Graph
from repro.graphs.spectral import laplacian_matrix


class VanillaMeanDynamics:
    """Closed-form ``E[x(t)]`` for vanilla gossip on a fixed graph.

    Diagonalizes ``L`` once; evaluation at any ``t`` is then a couple of
    matrix-vector products.
    """

    def __init__(self, graph: Graph) -> None:
        if graph.n_vertices < 2:
            raise AnalysisError("dynamics need at least two vertices")
        self.graph = graph
        import scipy.linalg  # deferred: keeps scipy off CLI and worker start-up

        laplacian = laplacian_matrix(graph)
        eigenvalues, eigenvectors = scipy.linalg.eigh(laplacian)
        self._eigenvalues = eigenvalues
        self._eigenvectors = eigenvectors

    @property
    def eigenvalues(self) -> np.ndarray:
        """Laplacian eigenvalues in ascending order."""
        return self._eigenvalues.copy()

    def expected_values(self, x0: "Sequence[float]", t: float) -> np.ndarray:
        """``E[x(t)] = exp(-t L / 2) x0`` exactly."""
        if t < 0:
            raise AnalysisError(f"time must be non-negative, got {t}")
        vector = np.asarray(x0, dtype=np.float64)
        if vector.shape != (self.graph.n_vertices,):
            raise AnalysisError(
                f"x0 must have shape ({self.graph.n_vertices},), "
                f"got {vector.shape}"
            )
        coefficients = self._eigenvectors.T @ vector
        damped = coefficients * np.exp(-0.5 * self._eigenvalues * t)
        return self._eigenvectors @ damped

    def variance_of_expected(self, x0: "Sequence[float]", t: float) -> float:
        """``var(E[x(t)])`` — a lower envelope for ``E[var(x(t))]``.

        (Jensen: ``var`` is convex in ``x``.)
        """
        return float(np.var(self.expected_values(x0, t)))

    def variance_upper_envelope(self, x0: "Sequence[float]", t: float) -> float:
        """``var(0) * exp(-lambda_2 t / 2)`` — the Dirichlet-form bound."""
        if t < 0:
            raise AnalysisError(f"time must be non-negative, got {t}")
        vector = np.asarray(x0, dtype=np.float64)
        gap = float(max(self._eigenvalues[1], 0.0))
        return float(np.var(vector)) * float(np.exp(-0.5 * gap * t))

    def half_life_of_mode(self, mode: int) -> float:
        """Time for eigen-mode ``mode`` of ``E[x]`` to halve."""
        if not 1 <= mode < self.graph.n_vertices:
            raise AnalysisError(
                f"mode must be in [1, {self.graph.n_vertices - 1}], got {mode}"
            )
        eigenvalue = float(self._eigenvalues[mode])
        if eigenvalue <= 0:
            return float("inf")
        return 2.0 * float(np.log(2.0)) / eigenvalue


def monte_carlo_expected_variance(
    graph: Graph,
    x0: "Sequence[float]",
    times: "Sequence[float]",
    *,
    n_replicates: int = 32,
    seed: "int | None" = None,
) -> np.ndarray:
    """``E[var(x(t))]`` at the given times, estimated by simulation.

    Used by the validation test: the estimate must fall inside the
    closed-form sandwich of :class:`VanillaMeanDynamics`.
    """
    from repro.algorithms.vanilla import VanillaGossip
    from repro.engine.recorder import TraceRecorder
    from repro.engine.simulator import Simulator
    from repro.util.rng import spawn_generators

    grid = np.asarray(times, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise AnalysisError("times must be a non-empty 1-D sequence")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise AnalysisError("times must be non-negative and increasing")
    if n_replicates < 1:
        raise AnalysisError("n_replicates must be positive")
    horizon = float(grid[-1])
    accumulator = np.zeros(grid.size)
    for rng in spawn_generators(seed, n_replicates):
        # Sample every event: the step interpolation below must resolve
        # the grid times, and validation sizes are small.
        recorder = TraceRecorder(sample_every=1)
        simulator = Simulator(graph, VanillaGossip(), x0, seed=rng)
        simulator.run(max_time=horizon * 1.01, recorder=recorder)
        sampled_times = recorder.times
        sampled_variances = recorder.variances
        # Step interpolation: variance at time t is the last sample <= t.
        indices = np.searchsorted(sampled_times, grid, side="right") - 1
        indices = np.clip(indices, 0, len(sampled_times) - 1)
        accumulator += sampled_variances[indices]
    return accumulator / n_replicates
