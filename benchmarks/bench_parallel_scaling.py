"""Parallel Monte-Carlo scaling: speedup vs worker count.

Runs the E3 headline workload (dumbbell, cut-aligned vector, vanilla
gossip vs Algorithm A replicates) through the serial backend and process
pools of increasing size, recording wall time and speedup per worker
count.  Two properties are asserted:

* **determinism** — every worker count reproduces the serial results
  bit-for-bit (the backend contract; checked unconditionally);
* **speedup** — at 4 workers the fan-out must beat serial by >1.5x.  The
  speedup assertion only arms on machines with >= 4 CPUs: replicate
  fan-out cannot beat serial on fewer cores, so elsewhere the measured
  speedups are recorded in ``extra_info`` without failing the run.

``test_sweep_scaling`` measures the same thing one level up — a whole
E3 *sweep* (configuration x replicate fan-out through the sharded
scheduler) — and persists the throughput trajectory (configs/sec,
replicates/sec per worker count) to ``results/BENCH_sweep_scaling.json``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.core.epochs import epoch_length_ticks
from repro.engine.backends import (
    AlgorithmFactory,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.engine.results import results_identical
from repro.engine.runner import MonteCarloRunner
from repro.experiments.specs_sweeps import convex_budget, nonconvex_budget
from repro.experiments.workloads import cut_aligned
from repro.graphs.composites import dumbbell_graph

#: The e3 headline instance (the largest size of the "default" scale —
#: big enough that worker startup is noise against ~2s of serial work).
DUMBBELL_N = int(os.environ.get("REPRO_BENCH_PARALLEL_N", "128"))
REPLICATES = int(os.environ.get("REPRO_BENCH_PARALLEL_REPLICATES", "8"))
WORKER_COUNTS = (2, 4)
MAX_EVENTS = 5_000_000
#: 4-worker speedup floor; 0 records the numbers without asserting.
#: Disarm it (REPRO_BENCH_SPEEDUP_FLOOR=0) when the workload is scaled
#: down below what amortizes worker spawn — e.g. the CI smoke job,
#: whose ~0.1s serial section can never beat pool startup even on a
#: 4-vCPU runner where the >=4-CPU arming condition holds.
SPEEDUP_FLOOR = float(os.environ.get("REPRO_BENCH_SPEEDUP_FLOOR", "1.5"))


def _build_workload() -> dict:
    pair = dumbbell_graph(DUMBBELL_N)
    x0 = cut_aligned(pair.partition)
    epoch = epoch_length_ticks(pair.partition, constant=3.0)
    return {
        "pair": pair,
        "x0": x0,
        "vanilla": VanillaGossip,
        "algorithm_a": AlgorithmFactory(
            NonConvexSparseCutGossip, pair.partition, epoch_length=epoch
        ),
    }


def _run_headline(workload, backend) -> "tuple[list, list]":
    """One full e3-style measurement pass under the given backend."""
    pair = workload["pair"]
    vanilla = MonteCarloRunner(
        pair.graph, workload["vanilla"], workload["x0"], seed=13,
        backend=backend,
    ).run(
        REPLICATES,
        target_ratio=np.e**-2,
        max_time=convex_budget(pair),
        max_events=MAX_EVENTS,
    )
    algorithm_a = MonteCarloRunner(
        pair.graph, workload["algorithm_a"], workload["x0"], seed=14,
        backend=backend,
    ).run(
        REPLICATES,
        target_ratio=np.e**-2 * 1e-6,
        max_time=nonconvex_budget(pair),
        max_events=MAX_EVENTS,
    )
    return vanilla, algorithm_a


def _assert_identical(first, second):
    assert len(first) == len(second)
    assert all(
        results_identical(a, b) for a, b in zip(first, second)
    ), "process results diverged from serial"


def test_parallel_scaling(benchmark, capsys):
    """Speedup of replicate fan-out on the e3 dumbbell headline workload."""
    pair_workload = _build_workload()

    # Serial reference (also the benchmark's timed section).
    start = time.perf_counter()
    serial = benchmark.pedantic(
        lambda: _run_headline(pair_workload, SerialBackend()),
        rounds=1,
        iterations=1,
    )
    serial_seconds = time.perf_counter() - start

    speedups = {}
    for n_workers in WORKER_COUNTS:
        backend = ProcessPoolBackend(n_workers)
        start = time.perf_counter()
        pooled = _run_headline(pair_workload, backend)
        pooled_seconds = time.perf_counter() - start
        backend.shutdown()  # don't leak idle workers into later benchmarks
        # Contract: fan-out must not change a single bit of any result.
        _assert_identical(serial[0], pooled[0])
        _assert_identical(serial[1], pooled[1])
        speedups[n_workers] = serial_seconds / pooled_seconds

    benchmark.extra_info["serial_seconds"] = serial_seconds
    benchmark.extra_info["speedups"] = {
        str(k): round(v, 3) for k, v in speedups.items()
    }
    benchmark.extra_info["cpu_count"] = os.cpu_count()

    with capsys.disabled():
        print()
        print(f"parallel scaling, dumbbell n={DUMBBELL_N}, "
              f"{REPLICATES} replicates, serial {serial_seconds:.2f}s:")
        for n_workers, speedup in speedups.items():
            print(f"  {n_workers} workers: {speedup:.2f}x")

    if SPEEDUP_FLOOR <= 0:
        pytest.skip(
            "speedup floor disarmed (REPRO_BENCH_SPEEDUP_FLOOR=0); "
            f"determinism verified, measured {speedups}"
        )
    elif (os.cpu_count() or 1) >= 4:
        assert speedups[4] > SPEEDUP_FLOOR, (
            f"4-worker speedup {speedups[4]:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor (serial {serial_seconds:.2f}s)"
        )
    else:
        pytest.skip(
            f"speedup floor needs >= 4 CPUs (have {os.cpu_count()}); "
            f"determinism verified, measured {speedups}"
        )


# ----------------------------------------------------------------------
# sweep-level throughput (configs/sec through the sharded scheduler)
# ----------------------------------------------------------------------

SWEEP_SIZES = tuple(
    int(token)
    for token in os.environ.get("REPRO_BENCH_SWEEP_SIZES", "32,48,64").split(",")
)


def _run_e3_sweep(backend):
    """One adaptive smoke-budget E3 sweep through the given backend."""
    from repro.engine.sweeps import ReplicateBudget, SweepRunner
    from repro.experiments.specs_sweeps import get_sweep

    spec = get_sweep("E3", scale="smoke").with_axis("n", list(SWEEP_SIZES))
    runner = SweepRunner(
        spec,
        seed=0,
        budget=ReplicateBudget.adaptive(
            target_ci=0.5,
            min_replicates=REPLICATES // 2 or 1,
            max_replicates=2 * REPLICATES,
            round_size=2,
        ),
        backend=backend,
    )
    return runner.run(), runner.stats


def test_sweep_scaling(benchmark, capsys):
    """Whole-grid fan-out: sweep throughput serial vs process pools."""
    from _stamp import write_result

    start = time.perf_counter()
    serial_result, serial_stats = benchmark.pedantic(
        lambda: _run_e3_sweep(SerialBackend()), rounds=1, iterations=1
    )
    serial_seconds = time.perf_counter() - start
    serial_json = json.dumps(serial_result.to_dict(), sort_keys=True)

    record = {
        "sweep": "E3",
        "sizes": list(SWEEP_SIZES),
        "n_configurations": serial_result.n_points,
        "replicates_reported": serial_result.total_replicates,
        "replicates_scheduled": serial_stats["replicates_scheduled"],
        "rounds": serial_stats["rounds"],
        "cpu_count": os.cpu_count(),
        "backends": {
            "serial": {
                "seconds": round(serial_seconds, 4),
                "configs_per_sec": round(serial_result.n_points / serial_seconds, 4),
                "replicates_per_sec": round(
                    serial_stats["replicates_scheduled"] / serial_seconds, 4
                ),
            }
        },
    }
    for n_workers in WORKER_COUNTS:
        backend = ProcessPoolBackend(n_workers)
        start = time.perf_counter()
        pooled_result, pooled_stats = _run_e3_sweep(backend)
        pooled_seconds = time.perf_counter() - start
        backend.shutdown()
        # The sweep contract: scheduling must not change a single byte.
        assert (
            json.dumps(pooled_result.to_dict(), sort_keys=True) == serial_json
        ), f"{n_workers}-worker sweep diverged from serial"
        record["backends"][f"process-{n_workers}"] = {
            "seconds": round(pooled_seconds, 4),
            "configs_per_sec": round(pooled_result.n_points / pooled_seconds, 4),
            "replicates_per_sec": round(
                pooled_stats["replicates_scheduled"] / pooled_seconds, 4
            ),
            "speedup_vs_serial": round(serial_seconds / pooled_seconds, 3),
        }

    # Run-stamped artifact in benchmarks/results/ — the committed copy
    # is the repo's throughput trajectory, CI uploads it per PR.
    out_path = write_result("sweep_scaling", record)

    benchmark.extra_info["sweep_throughput"] = record["backends"]
    with capsys.disabled():
        print()
        print(f"sweep scaling, E3 sizes {list(SWEEP_SIZES)}, "
              f"{record['replicates_scheduled']} replicates scheduled:")
        for label, stats in record["backends"].items():
            print(f"  {label}: {stats['seconds']:.2f}s, "
                  f"{stats['configs_per_sec']:.2f} configs/sec")
        print(f"  wrote {out_path}")
