"""Fault-injection scenarios for the cluster backend, end to end.

Every scenario runs a whole sweep (or the E3 acceptance sweep) through
:class:`~repro.engine.cluster.ClusterBackend` under an injected fault —
a worker killed mid-round, a dropped connection, duplicated result
delivery, a straggler — and asserts the two halves of the contract:

* the final :class:`~repro.engine.sweeps.SweepResult` artifact is
  **byte-identical** to a serial rerun (the reproducibility guarantee
  survives failure and recovery);
* the coordinator's reassignment/dedup/respawn counters match what the
  injected fault should have caused (the recovery machinery actually
  engaged — the run didn't just get lucky).

Builders and algorithm factories live at module level so they pickle to
worker processes.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.algorithms.vanilla import VanillaGossip
from repro.engine.backends import SerialBackend
from repro.engine.cluster import ClusterBackend, FaultPlan, run_worker
from repro.engine.sweeps import (
    PointConfig,
    ReplicateBudget,
    SweepAxis,
    SweepRunner,
    SweepSpec,
)
from repro.graphs.topologies import complete_graph

pytestmark = pytest.mark.slow


def build_complete_point(*, n: int) -> PointConfig:
    return PointConfig(
        graph=complete_graph(int(n)),
        algorithm_factory=VanillaGossip,
        initial_values=[float(i) for i in range(int(n))],
        max_time=50.0,
        max_events=100_000,
    )


def small_spec() -> SweepSpec:
    return SweepSpec(
        name="faults",
        axes=(SweepAxis("n", (5, 6, 7)),),
        builder=build_complete_point,
    )


#: 3 points x 4 replicates = 12 work units in the first (only) round,
#: dispatched as three 4-replicate chunks (one per configuration).  A
#: spawned fleet starts a batch only once both workers are up and hands
#: chunks out round-robin, so each worker holds a chunk from the start.
#: Every fault below fires after fewer results than a chunk holds: the
#: faulty worker still has unreported tasks when it fires and the
#: coordinator must recover them — however fast the healthy worker is.
BUDGET = ReplicateBudget.fixed(4)


def sweep_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def serial_reference():
    """One serial run of the fault sweep, shared by every scenario."""
    return SweepRunner(small_spec(), seed=11, budget=BUDGET).run()


def run_cluster_sweep(backend) -> "tuple[str, dict]":
    try:
        result = SweepRunner(
            small_spec(), seed=11, budget=BUDGET, backend=backend
        ).run()
        return sweep_json(result), dict(backend.stats)
    finally:
        backend.shutdown()


class TestFaultScenarios:
    def test_worker_killed_mid_round(self, serial_reference):
        """Crash (no goodbye) after 2 results: in-flight specs must be
        reassigned, the slot respawned, and the artifact unchanged.

        The crashed process may still be exiting when its connection
        drops, so it is first stashed for a reconnect, pruned once it is
        dead, and only then respawned.  The healthy worker takes 0.1 s a
        task, so the round outlasts that exit by far and the respawn
        always lands inside it."""
        backend = ClusterBackend(2, worker_faults=["die-after:2", "slow:0.1"], window=3)
        payload, stats = run_cluster_sweep(backend)
        assert payload == sweep_json(serial_reference)
        assert stats["worker_failures"] >= 1
        assert stats["reassigned"] >= 1
        assert stats["respawns"] >= 1

    def test_connection_dropped_mid_round(self, serial_reference):
        """A network-style drop (socket closed, process exits cleanly)
        takes the same recovery path as a crash."""
        backend = ClusterBackend(2, worker_faults=["drop-after:1", None])
        payload, stats = run_cluster_sweep(backend)
        assert payload == sweep_json(serial_reference)
        assert stats["worker_failures"] >= 1
        assert stats["reassigned"] >= 1

    def test_duplicate_result_delivery_collapses(self, serial_reference):
        """A worker sending every result twice: at-least-once delivery
        must collapse to exactly-once in the coordinator."""
        backend = ClusterBackend(
            2, worker_faults=["duplicate-results", "duplicate-results"]
        )
        payload, stats = run_cluster_sweep(backend)
        assert payload == sweep_json(serial_reference)
        # Every one of the 12 results was delivered twice and none may
        # be double-counted.  The batch ends the instant the last unique
        # result lands, so each worker's final in-flight duplicate can
        # legitimately go unread — at most one per worker.
        assert 10 <= stats["duplicates_dropped"] <= 12
        assert stats["worker_failures"] == 0

    def test_straggler_not_declared_dead(self, serial_reference):
        """A slow worker keeps heartbeating while it computes: the
        coordinator must wait for it, not reassign its specs."""
        backend = ClusterBackend(
            2,
            worker_faults=[FaultPlan(slow=0.15), None],
            heartbeat_timeout=5.0,
        )
        payload, stats = run_cluster_sweep(backend)
        assert payload == sweep_json(serial_reference)
        assert stats["worker_failures"] == 0
        assert stats["reassigned"] == 0
        assert stats["duplicates_dropped"] == 0

    def test_full_fleet_loss_retried_at_round_level(self, serial_reference):
        """Everything dies mid-batch with no respawn budget: the backend
        raises a *retryable* error, the sweep scheduler re-runs the
        round against a fresh fleet, and the artifact is unchanged."""
        backend = ClusterBackend(
            1, worker_faults=["die-after:2"], max_respawns=0
        )
        try:
            runner = SweepRunner(
                small_spec(), seed=11, budget=BUDGET, backend=backend
            )
            result = runner.run()
            assert sweep_json(result) == sweep_json(serial_reference)
            assert runner.stats["round_retries"] >= 1
            assert backend.stats["worker_failures"] >= 1
        finally:
            backend.shutdown()


class TestElasticMembership:
    """Membership churn mid-sweep: joins, drains, flaps, auth — each
    scenario must leave the artifact byte-identical to serial and the
    coordinator's membership counters must show the churn happened."""

    def test_late_external_worker_joins_mid_sweep(self, serial_reference):
        """Two externally attached workers, one joining ~0.8s late: the
        coordinator integrates it into the batch in flight."""
        backend = ClusterBackend(2, spawn_workers=False)
        host, port = backend.address
        codes: "dict[str, int]" = {}

        def attach(name: str, fault: FaultPlan) -> None:
            codes[name] = run_worker(
                host,
                port,
                fault=fault,
                heartbeat_interval=0.2,
                max_reconnects=0,
            )

        threads = [
            threading.Thread(
                target=attach,
                args=("steady", FaultPlan(slow=0.15)),
                daemon=True,
            ),
            threading.Thread(
                target=attach,
                args=("late", FaultPlan(slow_start=0.8)),
                daemon=True,
            ),
        ]
        for thread in threads:
            thread.start()
        payload, stats = run_cluster_sweep(backend)
        for thread in threads:
            thread.join(timeout=10)
        assert payload == sweep_json(serial_reference)
        assert stats["external_joins"] == 2
        assert stats["worker_failures"] == 0
        assert codes == {"steady": 0, "late": 0}

    def test_graceful_drain_mid_sweep(self, serial_reference):
        """A worker draining after 3 results is a scale-down event, not
        a failure: goodbye, requeue, free replacement spawn."""
        backend = ClusterBackend(2, worker_faults=["drain-after:3", None], window=4)
        payload, stats = run_cluster_sweep(backend)
        assert payload == sweep_json(serial_reference)
        assert stats["drains"] >= 1
        assert stats["worker_failures"] == 0
        assert stats["respawns"] == 0  # the replacement was free

    def test_reconnect_with_backoff_mid_sweep(self, serial_reference):
        """A WAN flap: the worker reconnects with jittered backoff and
        resumes its identity from the coordinator's grace stash."""
        backend = ClusterBackend(
            2,
            worker_faults=["disconnect-after:2", "slow:0.1"],
            worker_reconnect_backoff=0.05,
            window=3,
        )
        payload, stats = run_cluster_sweep(backend)
        assert payload == sweep_json(serial_reference)
        assert stats["reconnects"] >= 1
        assert stats["worker_failures"] >= 1

    def test_tokenless_worker_rejected_mid_sweep(self, serial_reference):
        """A keyed coordinator with its spawned (keyed) fleet completes
        the sweep while a tokenless intruder is turned away before any
        of its bytes are unpickled."""
        backend = ClusterBackend(2, auth_token="sweep-secret")
        host, port = backend.address
        codes: "dict[str, int]" = {}

        def intrude() -> None:
            codes["intruder"] = run_worker(
                host,
                port,
                heartbeat_interval=0.2,
                auth_token="",
                max_reconnects=0,
            )

        thread = threading.Thread(target=intrude, daemon=True)
        thread.start()
        payload, stats = run_cluster_sweep(backend)
        thread.join(timeout=15)
        assert payload == sweep_json(serial_reference)
        assert codes.get("intruder") == 3
        assert stats["auth_rejected"] >= 1
        assert stats["worker_failures"] == 0


#: Multi-round budget for the crash/resume scenario: an unreachable CI
#: target forces every point through three rounds, so there is always a
#: later round for the coordinator to die in.
RESUME_BUDGET = ReplicateBudget.adaptive(
    target_ci=0.05, min_replicates=3, max_replicates=9, round_size=3
)


class _CrashingClusterBackend(ClusterBackend):
    """Raises after the first completed batch — an in-process stand-in
    for the coordinator host dying between sweep rounds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches_completed = 0

    def _maybe_crash(self) -> None:
        if self.batches_completed >= 1:
            raise RuntimeError("simulated coordinator crash")

    def execute(self, specs):
        self._maybe_crash()
        out = super().execute(specs)
        self.batches_completed += 1
        return out

    def execute_shared(self, specs, shared_state):
        self._maybe_crash()
        out = super().execute_shared(specs, shared_state)
        self.batches_completed += 1
        return out


class TestCoordinatorCrashResume:
    def test_crash_then_checkpoint_resume_is_byte_identical(self, tmp_path):
        """Kill the coordinator after round 1; resume from the checkpoint
        with a fresh fleet.  The resumed run restores the interrupted
        points' sample prefixes and the final artifact is byte-identical
        to an uninterrupted serial run."""
        spec = small_spec()
        serial_path = (
            SweepRunner(spec, seed=11, budget=RESUME_BUDGET)
            .run()
            .save(tmp_path / "serial.json")
        )
        ckpt = tmp_path / "ckpt.json"
        crashing = _CrashingClusterBackend(2)
        with pytest.raises(RuntimeError, match="simulated coordinator crash"):
            try:
                SweepRunner(
                    spec,
                    seed=11,
                    budget=RESUME_BUDGET,
                    backend=crashing,
                    checkpoint_path=ckpt,
                ).run()
            finally:
                crashing.shutdown()
        assert ckpt.exists()  # round 1 was checkpointed before the crash
        fresh = ClusterBackend(2)
        try:
            runner = SweepRunner(
                spec,
                seed=11,
                budget=RESUME_BUDGET,
                backend=fresh,
                checkpoint_path=ckpt,
            )
            resumed_path = runner.run().save(tmp_path / "resumed.json")
        finally:
            fresh.shutdown()
        assert runner.stats["replicates_resumed"] > 0
        assert resumed_path.read_bytes() == serial_path.read_bytes()


class TestAcceptanceE3ClusterSweep:
    """The PR's acceptance criterion, pinned as a regression test: the
    E3 smoke sweep on 2 local cluster workers produces a JSON artifact
    byte-identical (``cmp`` semantics: raw file bytes) to the serial
    rerun — including when one worker is killed mid-round."""

    BUDGET = ReplicateBudget.adaptive(
        target_ci=0.8, min_replicates=3, max_replicates=16, round_size=2
    )

    @pytest.fixture(scope="class")
    def e3_artifacts(self, tmp_path_factory):
        from repro.experiments.specs_sweeps import get_sweep

        base = tmp_path_factory.mktemp("e3")
        spec = get_sweep("E3", scale="smoke").with_axis("n", [16, 24])
        serial_path = SweepRunner(
            spec, seed=0, budget=self.BUDGET, backend=SerialBackend()
        ).run().save(base / "serial.json")
        return spec, serial_path

    def test_cluster_artifact_cmp_identical(self, e3_artifacts, tmp_path):
        spec, serial_path = e3_artifacts
        backend = ClusterBackend(2)
        try:
            path = SweepRunner(
                spec, seed=0, budget=self.BUDGET, backend=backend
            ).run().save(tmp_path / "cluster.json")
        finally:
            backend.shutdown()
        assert path.read_bytes() == serial_path.read_bytes()

    def test_cluster_artifact_cmp_identical_under_worker_kill(
        self, e3_artifacts, tmp_path
    ):
        spec, serial_path = e3_artifacts
        backend = ClusterBackend(2, worker_faults=["die-after:2", None], window=3)
        try:
            path = SweepRunner(
                spec, seed=0, budget=self.BUDGET, backend=backend
            ).run().save(tmp_path / "cluster-faulty.json")
            stats = dict(backend.stats)
        finally:
            backend.shutdown()
        assert path.read_bytes() == serial_path.read_bytes()
        assert stats["worker_failures"] >= 1
        assert stats["reassigned"] >= 1

    def test_cluster_artifact_cmp_identical_under_membership_churn(
        self, e3_artifacts, tmp_path
    ):
        """The elasticity acceptance criterion: one worker starts late
        and flaps once (reconnecting with backoff), the other drains
        gracefully mid-sweep and is replaced — the artifact still
        matches serial byte for byte.

        A fixed budget keeps the whole sweep in one long round.  The
        round waits for both workers to start and hands each of them
        10-replicate chunks up front, so both faults fire with tasks in
        flight.  The
        drained worker's replacement needs a whole interpreter start-up,
        far longer than the flapped worker's 0.05-0.15 s backoff, so the
        reconnect lands while the round is still in flight."""
        spec, _ = e3_artifacts
        budget = ReplicateBudget.fixed(10)
        serial_path = (
            SweepRunner(spec, seed=0, budget=budget, backend=SerialBackend())
            .run()
            .save(tmp_path / "serial-churn.json")
        )
        backend = ClusterBackend(
            2,
            worker_faults=[
                "slow-start:0.5,disconnect-after:2",
                "drain-after:3",
            ],
            worker_reconnect_backoff=0.05,
            window=4,
        )
        try:
            path = SweepRunner(
                spec, seed=0, budget=budget, backend=backend
            ).run().save(tmp_path / "cluster-churn.json")
            stats = dict(backend.stats)
        finally:
            backend.shutdown()
        assert path.read_bytes() == serial_path.read_bytes()
        assert stats["drains"] >= 1
        assert stats["reconnects"] >= 1
        assert stats["worker_failures"] >= 1  # the flap itself
