"""The vectorized replicate-batch kernel.

Advances many replicates of **one configuration** in lockstep: the value
vectors live in a ``(n_replicates, n_nodes + 1)`` float64 matrix (the
extra column is a per-row *pad cell*, see below) and every clock tick
updates one ``(replicate, vertex)`` pair per row with a handful of numpy
gather/scatter operations, amortizing interpreter overhead over the
whole batch (see ``benchmarks/results/BENCH_kernel_scaling.json``).

**Record, then scan.**  One lockstep loop serves every eligible
algorithm and clock.  It advances in *sub-batches* of at most
``_steps_for(width)`` ticks, each in three phases:

* **staging** pulls every row's next ticks from its clock, resolves the
  endpoints into flat indices, and decides ahead of time which steps
  change nothing — Algorithm A's silenced ticks and every tick after a
  row's ``max_time`` stop (known from the clock times) — and redirects
  them to the row's pad cell, whose value stays ``0.0``; it also lists
  the (rare) steps that fire Algorithm A's non-convex swap;
* **recording** runs the per-tick body — gather ``x_u``/``x_v`` into
  row ``j`` of a ``(steps, width)`` history, compute the new values into
  the history, scatter them back — with no masks and no statistics;
* **scanning** derives everything the scalar loop tracks per tick from
  the history with whole-matrix numpy calls: the ``T``/``S`` deltas, the
  running sums, the variance, the threshold crossings and the first
  stop step per row.  A row stopped mid-sub-batch by ``target_ratio``
  or ``diverged`` is rolled back to its stop step from the recorded
  pre-update values, finalized, and compacted out.

**Bit-identity.**  The kernel reproduces the scalar event loop's results
to the byte, not approximately.  The load-bearing facts:

* Each replicate gets its *own* clock object, built exactly as the
  scalar path builds it, and ``next_batch`` is called with the scalar
  loop's request sequence (see :class:`_TickStream`), so every replicate
  sees the identical event stream.
* The deltas are evaluated elementwise in the scalar loop's association
  order (``((nu^2 + nv^2) - xu^2) - xv^2``) and summed with
  ``np.add.accumulate`` along the step axis, which adds strictly in
  sequence like the scalar ``+=``.  A redirected step's delta is exactly
  ``+0.0``; adding it changes nothing the variance can see.
* The exact ``T``/``S`` recompute falls on each row's own update
  boundary: a sub-batch never runs past the nearest one, so it can only
  land on a sub-batch's last step, where it is applied before the scan
  reads the variance.
* The variance of a step without an update is the persisted value of
  the last update; recomputing it from unchanged sums gives the same
  bits, except before a row's first update, where the scalar loop still
  holds the ``np.var`` initial value — the scan restores that.
* Per-tick algorithm randomness (``RandomConvexGossip``'s mixing weight)
  is pre-drawn per sub-batch from each replicate's generator; numpy's
  ``Generator.uniform(size=k)`` consumes the bit stream exactly as
  ``k`` sequential scalar draws do.

**Eligibility.**  The public verdict lives in
:mod:`repro.engine.kernels.eligibility`: the algorithm's type must have
a registered update builder (exact type match — the built-in
registrations are below), the clock must be the standard Poisson model
or one of the lossy/failing wrappers, and the run kwargs must carry no
recorder and no unknown keys.  Everything else falls back to the scalar
kernel, with reason codes surfaced through telemetry.
``docs/kernels.md`` walks through the rules.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.algorithms.convex import ConvexGossip, RandomConvexGossip
from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.poisson import PoissonEdgeClocks
from repro.engine.kernels.eligibility import (
    eligibility as _spec_eligibility,
    register_update,
    resolve_update as _resolve_update,
)
from repro.engine.kernels.base import SimulationKernel, replicate_substreams
from repro.engine.results import Crossing, RunResult
from repro.engine.simulator import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MAX_EVENTS,
    DEFAULT_RECOMPUTE_EVERY,
)
from repro.errors import AlgorithmError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.backends import ReplicateSpec

#: Largest replicate batch advanced as one lockstep group; bigger groups
#: are split (grouping never affects results, only memory).
MAX_GROUP_SIZE = 2048

#: Element budget of one ``(steps, width)`` history matrix: a sub-batch
#: runs ``_HISTORY_ELEMENTS // width`` steps (within the bounds below),
#: so each history buffer stays at 1MB up to width 256 and never
#: exceeds ``_MIN_STEPS x MAX_GROUP_SIZE`` cells (8MB).
_HISTORY_ELEMENTS = 1 << 17
#: Fewest steps per sub-batch: keeps the per-row staging cost of wide
#: groups amortized over enough ticks.
_MIN_STEPS = 512

#: Cells per scan chunk: the scan streams ~20 elementwise passes over
#: its scratch, which stays cache-resident at this size.
_SCAN_ELEMENTS = 1 << 15

_TILE_ROWS = 64
_TILE_COLS = 2048


def _steps_for(width: int) -> int:
    """Sub-batch length (in ticks) for a group of ``width`` rows."""
    return min(DEFAULT_BATCH_SIZE, max(_MIN_STEPS, _HISTORY_ELEMENTS // width))


def _transpose_into(dst: np.ndarray, src: np.ndarray) -> None:
    """Cache-blocked ``dst[:] = src.T``.

    A naive strided transpose walks one page per element and thrashes
    the TLB (~6x slower at 1024x8192 measured); small tiles keep both
    sides' working sets cache-resident.
    """
    n_rows, n_cols = src.shape
    for i0 in range(0, n_rows, _TILE_ROWS):
        s = src[i0 : i0 + _TILE_ROWS]
        d = dst[:, i0 : i0 + _TILE_ROWS]
        for j0 in range(0, n_cols, _TILE_COLS):
            d[j0 : j0 + _TILE_COLS] = s[:, j0 : j0 + _TILE_COLS].T


class MeanUpdate:
    """``x_u, x_v <- (x_u + x_v) / 2`` (vanilla gossip)."""


class ConvexUpdate:
    """``a x_u + b x_v, a x_v + b x_u`` with ``b = 1 - a``.

    ``alpha`` fixes ``a``; otherwise ``a ~ U[low, high]`` is drawn per
    tick from each replicate's algorithm generator.
    """

    def __init__(
        self,
        alpha: "float | None" = None,
        low: float = 0.0,
        high: float = 1.0,
    ) -> None:
        self.alpha = alpha
        self.low = low
        self.high = high


class _NonConvexUpdate(MeanUpdate):
    """Algorithm A's per-tick state machine, staged for lockstep replay.

    A tick's effect depends on the edge's class (internal → vanilla
    averaging, non-designated cut → nothing, designated → nothing except
    on every ``L``-th designated tick, when the non-convex swap fires).
    Staging resolves the classes and a per-row running count of
    designated ticks into update masks; the record loop averages every
    row and computes the rare swap rows with the scalar oracle's exact
    Python-float arithmetic (including the ``oracle_means`` side-mean
    reads and the fixed return orientation).
    """

    def __init__(self, algorithm: NonConvexSparseCutGossip) -> None:
        params = algorithm.lockstep_parameters()
        self.edge_class: np.ndarray = params["edge_class"]
        self.epoch_length: int = int(params["epoch_length"])
        self.gain: float = float(params["gain"])
        self.oracle_means: bool = bool(params["oracle_means"])
        self.endpoint_v1: int = int(params["endpoint_v1"])
        self.endpoint_v2: int = int(params["endpoint_v2"])
        self.designated_u_is_v1: bool = bool(params["designated_u_is_v1"])
        self.vertices_1: np.ndarray = params["vertices_1"]
        self.vertices_2: np.ndarray = params["vertices_2"]
        self.graph = params["graph"]

    def swap(self, row: np.ndarray) -> "tuple[float, float]":
        """The swap's ``(new_u, new_v)`` on one replicate's values."""
        a = self.endpoint_v1
        b = self.endpoint_v2
        if self.oracle_means:
            delta = float(row[self.vertices_2].mean() - row[self.vertices_1].mean())
        else:
            delta = float(row[b] - row[a])
        transfer = self.gain * delta
        new_a = float(row[a]) + transfer
        new_b = float(row[b]) - transfer
        if self.designated_u_is_v1:
            return new_a, new_b
        return new_b, new_a


#: The per-tick update rules the lockstep loop implements.  A registered
#: builder must return one of these; the eligibility verdict demotes an
#: algorithm whose builder returns anything else.
LOCKSTEP_UPDATES = (MeanUpdate, ConvexUpdate)


@register_update(VanillaGossip)
def _build_vanilla(algorithm: VanillaGossip) -> MeanUpdate:
    return MeanUpdate()


@register_update(ConvexGossip)
def _build_convex(algorithm: ConvexGossip) -> ConvexUpdate:
    return ConvexUpdate(alpha=algorithm.alpha)


@register_update(RandomConvexGossip)
def _build_random_convex(algorithm: RandomConvexGossip) -> ConvexUpdate:
    return ConvexUpdate(low=algorithm.low, high=algorithm.high)


@register_update(NonConvexSparseCutGossip)
def _build_nonconvex(algorithm: NonConvexSparseCutGossip) -> _NonConvexUpdate:
    return _NonConvexUpdate(algorithm)


class _Member:
    """One replicate's pre-lockstep state (setup mirrors the scalar path)."""

    __slots__ = (
        "position",
        "values",
        "variance_0",
        "sum_0",
        "square_sum_0",
        "crossings",
        "clock",
        "rng",
    )

    def __init__(self, position: int) -> None:
        self.position = position


class _Arena:
    """Flat scratch buffers, kept warm across sub-batches and groups.

    ``view(name, rows, cols)`` is a C-contiguous ``(rows, cols)`` view
    of the leading elements, so a group that narrows after compaction
    keeps reading contiguous step rows from the same pages.
    """

    def __init__(self) -> None:
        self._buffers: "dict[str, np.ndarray]" = {}

    def view(
        self, name: str, rows: int, cols: int, dtype: Any = np.float64
    ) -> np.ndarray:
        size = rows * cols
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(rows, cols)


class _TickStream:
    """A buffered per-replicate tick stream.

    Wrapped clocks deliver *fewer* ticks than requested, and the RNG
    draws a clock consumes depend on the request-size sequence — so bit
    identity requires replaying the scalar loop's exact sequence:
    ``min(DEFAULT_BATCH_SIZE, event_cap - delivered_so_far)``.  The
    scalar loop processes each delivered batch fully before requesting
    again, so the sequence depends only on cumulative *delivered* ticks
    — which makes buffering safe: prefetching ahead of lockstep
    consumption issues the identical requests, just earlier.  (A
    replicate that stops mid-buffer simply discards the surplus, exactly
    like the scalar loop discards the rest of its batch.)
    """

    __slots__ = (
        "clock",
        "event_cap",
        "received",
        "buffered",
        "chunks",
        "pos",
        "exhausted",
    )

    def __init__(self, clock: object, event_cap: int) -> None:
        self.clock = clock
        self.event_cap = event_cap
        self.received = 0
        self.buffered = 0
        self.chunks: "list[tuple[np.ndarray, np.ndarray]]" = []
        self.pos = 0  # consumed prefix of chunks[0]
        self.exhausted = False

    def prefetch(self, k: int) -> int:
        """Buffer up to ``k`` ticks; returns how many are available.

        A return below ``k`` means the clock is exhausted (an empty
        delivery, or the event cap consumed) — and ``0`` means this
        replicate has no next event at all.
        """
        while self.buffered < k and not self.exhausted:
            q = min(DEFAULT_BATCH_SIZE, self.event_cap - self.received)
            if q <= 0:
                self.exhausted = True
                break
            times, edge_ids = self.clock.next_batch(q)
            if len(times) == 0:
                self.exhausted = True
                break
            self.chunks.append((times, edge_ids))
            self.received += len(times)
            self.buffered += len(times)
        return self.buffered if self.buffered < k else k

    def take(self, k: int) -> "tuple[np.ndarray, np.ndarray]":
        """Pop exactly ``k`` buffered ticks (prefetch must cover them)."""
        times_parts = []
        edge_parts = []
        while k:
            times, edge_ids = self.chunks[0]
            pos = self.pos
            take = min(len(times) - pos, k)
            times_parts.append(times[pos : pos + take])
            edge_parts.append(edge_ids[pos : pos + take])
            self.pos = pos + take
            self.buffered -= take
            k -= take
            if self.pos == len(times):
                self.chunks.pop(0)
                self.pos = 0
        if len(times_parts) == 1:
            return times_parts[0], edge_parts[0]
        return np.concatenate(times_parts), np.concatenate(edge_parts)


class VectorizedBatchKernel(SimulationKernel):
    """Advance same-configuration replicates in numpy lockstep."""

    name = "vectorized"

    def __init__(self) -> None:
        self._arena = _Arena()

    def supports(self, spec: "ReplicateSpec") -> bool:
        return bool(_spec_eligibility(spec))

    def execute(self, specs: "Sequence[ReplicateSpec]") -> "list[RunResult]":
        """Run a batch of same-configuration specs in lockstep.

        Callers (the dispatcher) group specs by configuration; this
        method only splits oversized groups, which cannot affect results
        because every replicate's streams and arithmetic are independent
        of group composition.
        """
        results: "list[RunResult]" = []
        for start in range(0, len(specs), MAX_GROUP_SIZE):
            results.extend(self._run_group(specs[start : start + MAX_GROUP_SIZE]))
        return results

    def _run_group(self, specs: "Sequence[ReplicateSpec]") -> "list[RunResult]":
        update = _resolve_update(specs[0].algorithm_factory())
        if not isinstance(update, LOCKSTEP_UPDATES):
            raise SimulationError(
                "VectorizedBatchKernel has no lockstep update for this "
                "spec's algorithm; dispatch through "
                "repro.engine.kernels.execute_specs"
            )
        graph = specs[0].graph
        (max_time, max_events, target_ratio, thresholds, divergence_ratio) = (
            _parse_run_kwargs(dict(specs[0].run_kwargs))
        )
        if graph.n_edges == 0:
            raise SimulationError("cannot simulate on a graph with no edges")
        if isinstance(update, _NonConvexUpdate):
            # The scalar path validates this in Algorithm A's setup();
            # surface the same mistake with the same error here.
            if update.graph is not graph and update.graph != graph:
                raise AlgorithmError(
                    "Algorithm A was configured for a different graph than "
                    "the one it is being run on"
                )
        results: "list[RunResult | None]" = [None] * len(specs)
        members = _setup_members(specs, graph, thresholds, results)
        if members:
            _Lockstep(
                members,
                graph,
                update,
                self._arena,
                results,
                max_time=max_time,
                event_cap=DEFAULT_MAX_EVENTS if max_events is None else max_events,
                target_ratio=target_ratio,
                divergence_ratio=divergence_ratio,
            ).run()
        return results  # type: ignore[return-value]


class _Lockstep:
    """One group's record-then-scan lockstep run.

    Row ``i`` of every per-row array belongs to ``live[i]``; rows that
    stop are finalized at the end of their sub-batch and compacted out.
    """

    def __init__(
        self,
        members: "list[_Member]",
        graph: Any,
        update: Any,
        arena: _Arena,
        results: "list[RunResult | None]",
        *,
        max_time: "float | None",
        event_cap: int,
        target_ratio: "float | None",
        divergence_ratio: "float | None",
    ) -> None:
        self.live = list(members)
        self.update = update
        self.arena = arena
        self.results = results
        self.max_time = max_time
        self.event_cap = event_cap
        self.n = n = graph.n_vertices
        self.inv_n = 1.0 / n
        self.masked = isinstance(update, _NonConvexUpdate)
        self.mean = isinstance(update, MeanUpdate)
        self.end_u = np.ascontiguousarray(graph.edges[:, 0]).astype(np.int64)
        self.end_v = np.ascontiguousarray(graph.edges[:, 1]).astype(np.int64)
        A = len(members)
        self.steps = _steps_for(A)
        # Column n is the row's pad cell: redirected steps average it
        # with itself, so it stays 0.0 and their deltas are exactly 0.0.
        self.X = np.zeros((A, n + 1))
        for i, member in enumerate(members):
            self.X[i, :n] = member.values
        self.total = np.array([m.sum_0 for m in members])
        self.square_sum = np.array([m.square_sum_0 for m in members])
        variance_0 = np.array([m.variance_0 for m in members])
        # The scalar loop's persisted ``variance``: refreshed only on
        # update ticks, starting at the exact np.var result.
        self.variance = variance_0.copy()
        # Deduped thresholds in the scalar loop's tracking order
        # (descending), as absolute variances per replicate.
        tracked = sorted(members[0].crossings, reverse=True)
        self.thr_abs = np.outer(np.asarray(tracked), variance_0)
        self.first_below = np.full(self.thr_abs.shape, np.nan)
        self.below_unset = np.ones(self.thr_abs.shape, dtype=bool)
        self.last_above = np.zeros(self.thr_abs.shape)
        self.target_abs = None if target_ratio is None else target_ratio * variance_0
        self.divergence_abs = (
            None if divergence_ratio is None else divergence_ratio * variance_0
        )
        self.streams = [_TickStream(m.clock, event_cap) for m in members]
        self.rngs = [m.rng for m in members]
        self.n_upd = np.zeros(A, dtype=np.int64)
        self.next_recompute = np.full(A, DEFAULT_RECOMPUTE_EVERY, dtype=np.int64)
        self.designated = np.zeros(A, dtype=np.int64)  # designated-tick counts
        self.last_t = np.zeros(A)
        self.events_done = 0

    # -- main loop -------------------------------------------------------

    def run(self) -> None:
        # Diverging rows overflow to inf/NaN, which the scalar loop's
        # Python floats carry silently; so do the numpy passes here.
        with np.errstate(over="ignore", invalid="ignore"):
            self._advance()
        # Event budget exhausted: finalize the survivors at their last
        # event's time, exactly as the scalar loop reports them.
        for i in range(len(self.live)):
            self._finalize(
                i, self.last_t[i], self.events_done, self.n_upd[i], "max_events"
            )

    def _advance(self) -> None:
        while self.live and self.events_done < self.event_cap:
            k_want = min(
                self.steps,
                self.event_cap - self.events_done,
                int((self.next_recompute - self.n_upd).min()),
            )
            avail = [stream.prefetch(k_want) for stream in self.streams]
            if min(avail) == 0:
                # Some clock delivered nothing and never will again: the
                # scalar loop's ``clock_exhausted`` exit, at that row's
                # last processed event.
                done = np.array([a == 0 for a in avail])
                for i in np.flatnonzero(done):
                    self._finalize(
                        i,
                        self.last_t[i],
                        self.events_done,
                        self.n_upd[i],
                        "clock_exhausted",
                    )
                self._compact(~done)
                continue
            k = min(avail)
            swaps = self._stage(k)
            self._record(k, swaps)
            self._scan(k)

    # -- staging ---------------------------------------------------------

    def _stage(self, k: int) -> "list[tuple[int, int]]":
        """Fill the step-major tick matrices for the next ``k`` steps.

        Returns the ``(step, row)`` cells that fire Algorithm A's swap,
        in step order.
        """
        arena = self.arena
        A = len(self.live)
        n1 = self.n + 1
        ticks = [stream.take(k) for stream in self.streams]
        # Times stay replicate-major: only the scan reads them.
        times = arena.view("times", A, k)
        stage_e = arena.view("stage_e", A, k, np.int64)
        np.concatenate([t for t, _ in ticks], out=times.reshape(-1))
        np.concatenate([e for _, e in ticks], out=stage_e.reshape(-1))
        edges = arena.view("edges", k, A, np.int64)
        _transpose_into(edges, stage_e)
        offsets = np.arange(A, dtype=np.int64) * n1
        fu = arena.view("fu", k, A, np.int64)
        fv = arena.view("fv", k, A, np.int64)
        # mode="clip" (the indices are in range by construction) lets
        # take() write straight into ``out``; "raise" buffers it.
        self.end_u.take(edges, out=fu, mode="clip")
        fu += offsets
        self.end_v.take(edges, out=fv, mode="clip")
        fv += offsets
        self.times, self.fu, self.fv = times, fu, fv

        update = self.update
        if isinstance(update, ConvexUpdate) and update.alpha is None:
            stage_a = arena.view("stage_a", A, k)
            for i, rng in enumerate(self.rngs):
                stage_a[i] = rng.uniform(update.low, update.high, size=k)
            a_w = arena.view("a_w", k, A)
            _transpose_into(a_w, stage_a)
            b_w = arena.view("b_w", k, A)
            np.subtract(1.0, a_w, out=b_w)
            self.weights = (a_w, b_w)

        # Rows reaching ``max_time`` stop at their first such tick; the
        # steps after it must leave the row untouched.
        self.time_stop = np.full(A, k, dtype=np.int64)
        if self.max_time is not None:
            late = arena.view("late", A, k, bool)
            np.greater_equal(times, self.max_time, out=late)
            for i in np.flatnonzero(late.any(axis=1)):
                self.time_stop[i] = late[i].argmax()

        pads = offsets + self.n
        swaps: "list[tuple[int, int]]" = []
        if self.masked:
            upd = arena.view("upd", k, A, bool)
            op = update.edge_class.take(edges)
            np.equal(op, 1, out=upd)
            steps, rows = self._epoch_swaps(op == 2)
            # Swaps are updates too, unless past the row's time stop.
            keep = steps <= self.time_stop[rows]
            steps, rows = steps[keep], rows[keep]
            upd[steps, rows] = True
            for i in np.flatnonzero(self.time_stop < k - 1):
                upd[self.time_stop[i] + 1 :, i] = False
            self.upd = upd
            idle = ~upd
            np.copyto(fu, pads, where=idle)
            np.copyto(fv, pads, where=idle)
            swaps = list(zip(steps.tolist(), rows.tolist()))
        else:
            for i in np.flatnonzero(self.time_stop < k - 1):
                fu[self.time_stop[i] + 1 :, i] = pads[i]
                fv[self.time_stop[i] + 1 :, i] = pads[i]
        return swaps

    def _epoch_swaps(
        self, designated: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The ``(steps, rows)`` of designated ticks that fire the swap.

        The swap fires when the row's 1-based running count of
        designated ticks is a multiple of the epoch length.  Designated
        ticks are rare, so the counts are ranked per row over the
        nonzero cells only; the cells come back in step order.
        """
        steps, rows = np.nonzero(designated)
        by_row = np.argsort(rows, kind="stable")  # steps ascend within a row
        sorted_rows = rows[by_row]
        first = np.searchsorted(sorted_rows, sorted_rows)
        count = np.empty_like(rows)
        count[by_row] = (
            self.designated[sorted_rows] + np.arange(1, rows.size + 1) - first
        )
        self.designated += np.bincount(rows, minlength=designated.shape[1])
        fire = count % self.update.epoch_length == 0
        return steps[fire], rows[fire]

    # -- recording -------------------------------------------------------

    def _record(self, k: int, swaps: "list[tuple[int, int]]") -> None:
        """The per-tick body: gather, update, scatter — nothing else."""
        arena = self.arena
        A = len(self.live)
        flat = self.X.reshape(-1)
        take = flat.take
        add = np.add
        multiply = np.multiply
        xu_h = self.xu = arena.view("xu", k, A)
        xv_h = self.xv = arena.view("xv", k, A)
        nu_h = self.nu = arena.view("nu", k, A)
        self.swapped: "list[tuple[int, int, float, float]]" = []
        if self.mean:
            self.nv = nu_h
            next_swap = swaps[0][0] if swaps else -1
            for j, (fu, fv, xu, xv, nu) in enumerate(
                zip(self.fu, self.fv, xu_h, xv_h, nu_h)
            ):
                take(fu, out=xu, mode="clip")
                take(fv, out=xv, mode="clip")
                add(xu, xv, out=nu)
                multiply(nu, 0.5, out=nu)
                nv = nu
                if j == next_swap:
                    nv = self._swap(j, swaps, nu)
                    next_swap = swaps[0][0] if swaps else -1
                flat[fu] = nu
                flat[fv] = nv
            return
        nv_h = self.nv = arena.view("nv", k, A)
        tmp = np.empty(A)
        alpha = self.update.alpha
        if alpha is None:
            a_w, b_w = self.weights
        else:
            a_w = itertools.repeat(alpha)
            b_w = itertools.repeat(1.0 - alpha)
        for fu, fv, xu, xv, nu, nv, a, b in zip(
            self.fu, self.fv, xu_h, xv_h, nu_h, nv_h, a_w, b_w
        ):
            take(fu, out=xu, mode="clip")
            take(fv, out=xv, mode="clip")
            multiply(xu, a, out=nu)
            multiply(xv, b, out=tmp)
            add(nu, tmp, out=nu)  # a*x_u + b*x_v
            multiply(xv, a, out=nv)
            multiply(xu, b, out=tmp)
            add(nv, tmp, out=nv)  # a*x_v + b*x_u
            flat[fu] = nu
            flat[fv] = nv

    def _swap(
        self, j: int, swaps: "list[tuple[int, int]]", nu: np.ndarray
    ) -> np.ndarray:
        """Apply step ``j``'s swap rows; returns the ``x_v`` values to write.

        Pops the step's cells off ``swaps`` and remembers each swap's new
        values for the scan, whose vectorized deltas assume averaging.
        """
        nv = nu.copy()
        while swaps and swaps[0][0] == j:
            _, i = swaps.pop(0)
            new_u, new_v = self.update.swap(self.X[i])
            nu[i] = new_u
            nv[i] = new_v
            self.swapped.append((j, i, new_u, new_v))
        return nv

    # -- scanning --------------------------------------------------------

    def _scan(self, k: int) -> None:
        """Replay the scalar loop's per-tick bookkeeping over the history.

        Works through the ``k`` steps in chunks of at most
        ``_SCAN_ELEMENTS`` cells, so the scratch it streams through stays
        cache-resident at any width; the running sums carry across
        chunks, and a row's stop step, once found, bounds the threshold
        search of every later step.
        """
        A = len(self.live)
        cols = np.arange(A)
        if self.masked:
            counts = self.upd.sum(axis=0)
        else:
            counts = np.minimum(self.time_stop + 1, k)
        n_upd = self.n_upd + counts
        # The sub-batch holds no step past a recompute boundary, so only
        # its last step can reach one: same reductions as the scalar
        # refresh, on a fresh contiguous copy of the row.
        recompute = np.flatnonzero(n_upd >= self.next_recompute)
        rows = [self.X[i, : self.n].copy() for i in recompute]
        totals = np.array([row.sum() for row in rows])
        squares = np.array([row @ row for row in rows])
        self.next_recompute[recompute] = n_upd[recompute] + DEFAULT_RECOMPUTE_EVERY
        # Per-row stop step (k = none yet) and cause: 0 max_time,
        # 1 target_ratio, 2 diverged.
        stop = self.time_stop.copy()
        cause = np.zeros(A, dtype=np.int8)
        fresh = self.n_upd == 0 if self.masked else None
        chunk = max(1, _SCAN_ELEMENTS // A)
        for j0 in range(0, k, chunk):
            j1 = min(j0 + chunk, k)
            var = self._variance(j0, j1)
            if j1 == k and recompute.size:
                # Swap the refreshed sums in for the last step's.
                self.total[recompute] = totals
                self.square_sum[recompute] = squares
                mean = totals * self.inv_n
                last = squares * self.inv_n - mean * mean
                var[-1, recompute] = np.maximum(last, 0.0)
            if fresh is not None and fresh.any():
                # Before a row's first update the scalar loop still holds
                # the np.var initial value, which the formula does not
                # reproduce to the last ulp.
                seen = np.logical_or.accumulate(self.upd[j0:j1], axis=0)
                np.copyto(var, self.variance, where=~seen & fresh)
                fresh &= ~seen[-1]
            self._find_stops(var, j0, stop, cause)
            self._track_thresholds(var, j0, stop, cols)
            self.variance = var[-1].copy()

        self.events_done += k
        times = self.times
        self.last_t = times[:, k - 1].copy()
        stopped = np.flatnonzero(stop < k)
        flat = self.X.reshape(-1)
        for i in stopped:
            j = int(stop[i])
            if cause[i]:
                self._rollback(i, j, flat)
            if self.masked:
                updates = self.n_upd[i] + self.upd[: j + 1, i].sum()
            else:
                updates = self.n_upd[i] + j + 1
            events = self.events_done - k + j + 1
            label = ("max_time", "target_ratio", "diverged")[cause[i]]
            self._finalize(i, times[i, j], events, updates, label)
        self.n_upd = n_upd
        if stopped.size:
            self._compact(stop >= k)

    def _variance(self, j0: int, j1: int) -> np.ndarray:
        """The variance after each of steps ``j0..j1-1``, per row.

        Also advances the carried ``total``/``square_sum`` to step
        ``j1 - 1``.
        """
        arena = self.arena
        A = len(self.live)
        c = j1 - j0
        xu, xv = self.xu[j0:j1], self.xv[j0:j1]
        nu, nv = self.nu[j0:j1], self.nv[j0:j1]
        tmp = arena.view("tmp", c, A)
        # Running sums with the carried values as row 0, so a running
        # sum down the steps reproduces the scalar ``+=`` sequence.
        sq = arena.view("sq", c + 1, A)
        tot = arena.view("tot", c + 1, A)
        sq[0] = self.square_sum
        tot[0] = self.total
        d_sq = sq[1:]
        d_tot = tot[1:]
        # ((nu^2 + nv^2) - xu^2) - xv^2 and ((nu + nv) - xu) - xv.
        np.multiply(nu, nu, out=d_sq)
        if self.nv is self.nu:
            np.add(d_sq, d_sq, out=d_sq)
        else:
            np.multiply(nv, nv, out=tmp)
            np.add(d_sq, tmp, out=d_sq)
        np.multiply(xu, xu, out=tmp)
        np.subtract(d_sq, tmp, out=d_sq)
        np.multiply(xv, xv, out=tmp)
        np.subtract(d_sq, tmp, out=d_sq)
        np.add(nu, nv, out=d_tot)
        np.subtract(d_tot, xu, out=d_tot)
        np.subtract(d_tot, xv, out=d_tot)
        for j, i, new_u, new_v in self.swapped:
            if j0 <= j < j1:
                old_u = float(xu[j - j0, i])
                old_v = float(xv[j - j0, i])
                d_sq[j - j0, i] = (
                    new_u * new_u + new_v * new_v - old_u * old_u - old_v * old_v
                )
                d_tot[j - j0, i] = new_u + new_v - old_u - old_v
        np.add.accumulate(sq, axis=0, out=sq)
        np.add.accumulate(tot, axis=0, out=tot)
        self.square_sum = sq[c].copy()
        self.total = tot[c].copy()
        # S/n - (T/n)^2, clamped at 0 (NaN passes), in place.
        var = d_sq
        mean = d_tot
        np.multiply(var, self.inv_n, out=var)
        np.multiply(mean, self.inv_n, out=mean)
        np.multiply(mean, mean, out=mean)
        np.subtract(var, mean, out=var)
        np.maximum(var, 0.0, out=var)
        return var

    def _find_stops(
        self, var: np.ndarray, j0: int, stop: np.ndarray, cause: np.ndarray
    ) -> None:
        """Lower ``stop`` to each row's first target/divergence step.

        A data stop on a row's ``max_time`` step wins, as the scalar
        loop checks the target, then divergence, then the time budget.
        """
        hit = None if self.target_abs is None else var <= self.target_abs
        diverged = (
            None if self.divergence_abs is None else ~(var <= self.divergence_abs)
        )  # NaN diverges
        if hit is None and diverged is None:
            return
        if hit is None or diverged is None:
            flagged = hit if diverged is None else diverged
        else:
            flagged = hit | diverged
        found = flagged.any(axis=0)
        if not found.any():
            return
        first = flagged.argmax(axis=0)
        rows = np.flatnonzero(found & (j0 + first <= stop))
        at = first[rows]
        stop[rows] = j0 + at
        if hit is None:
            cause[rows] = 2
        else:
            cause[rows] = np.where(hit[at, rows], 1, 2)

    def _track_thresholds(
        self, var: np.ndarray, j0: int, stop: np.ndarray, cols: np.ndarray
    ) -> None:
        """Update the crossing records from steps ``j0..`` of ``var``.

        The scalar loop's per-tick branch: ``last_above`` takes every
        above-threshold tick, ``first_below`` the first other tick while
        unset (NaN counts as below); steps past a row's stop do not
        count.
        """
        c = var.shape[0]
        times = self.times[:, j0 : j0 + c]
        valid = None
        if (stop < j0 + c - 1).any():
            valid = np.less_equal(np.arange(j0, j0 + c)[:, None], stop)
        above = self.arena.view("above", c, var.shape[1], bool)
        for ki in range(self.thr_abs.shape[0]):
            np.greater(var, self.thr_abs[ki], out=above)
            unset = self.below_unset[ki]
            if unset.any():
                below = ~above
                if valid is not None:
                    below &= valid
                found = below.any(axis=0) & unset
                at = below.argmax(axis=0)
                np.copyto(self.first_below[ki], times[cols, at], where=found)
                unset &= ~found
            if valid is not None:
                above &= valid
            found = above.any(axis=0)
            at = c - 1 - above[::-1].argmax(axis=0)
            np.copyto(self.last_above[ki], times[cols, at], where=found)

    def _rollback(self, i: int, j: int, flat: np.ndarray) -> None:
        """Restore row ``i`` to its state right after step ``j``.

        The recorded pre-update values of the later steps hold it: each
        cell they wrote gets back its value from the earliest of them.
        """
        cells = np.stack((self.fu[j + 1 :, i], self.fv[j + 1 :, i]), axis=1).ravel()
        olds = np.stack((self.xu[j + 1 :, i], self.xv[j + 1 :, i]), axis=1).ravel()
        cells, first = np.unique(cells, return_index=True)
        flat[cells] = olds[first]

    # -- bookkeeping -----------------------------------------------------

    def _finalize(
        self, i: int, duration: float, n_events: int, n_updates: int, label: str
    ) -> None:
        """Emit row ``i``'s RunResult (reads the *current* arrays)."""
        member = self.live[i]
        final = self.X[i, : self.n].copy()
        tracked = sorted(member.crossings.values(), key=lambda c: -c.threshold)
        for ki, record in enumerate(tracked):
            below_at = self.first_below[ki, i]
            record.first_below = None if np.isnan(below_at) else float(below_at)
            record.last_above = float(self.last_above[ki, i])
        self.results[member.position] = RunResult(
            values=final,
            duration=float(duration),
            n_events=int(n_events),
            n_updates=int(n_updates),
            variance_initial=member.variance_0,
            variance_final=float(np.var(final)),
            sum_initial=member.sum_0,
            sum_final=float(final.sum()),
            crossings=member.crossings,
            stopped_by=label,
        )

    def _compact(self, keep: np.ndarray) -> None:
        """Drop the rows not in ``keep`` from every per-row structure."""
        kept = np.flatnonzero(keep)
        self.live = [self.live[i] for i in kept]
        self.streams = [self.streams[i] for i in kept]
        self.rngs = [self.rngs[i] for i in kept]
        for name in (
            "X",
            "total",
            "square_sum",
            "variance",
            "n_upd",
            "next_recompute",
            "designated",
            "last_t",
            "target_abs",
            "divergence_abs",
        ):
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[kept])
        for name in ("thr_abs", "first_below", "below_unset", "last_above"):
            setattr(self, name, np.ascontiguousarray(getattr(self, name)[:, kept]))


def _setup_members(
    specs: "Sequence[ReplicateSpec]",
    graph: Any,
    thresholds: "Sequence[float]",
    results: "list[RunResult | None]",
) -> "list[_Member]":
    """Per-replicate setup, mirroring the scalar path draw for draw.

    Replicates whose workload is already averaged short-circuit to
    their zero-variance result here (never entering lockstep),
    exactly as the scalar loop returns before its first event.
    """
    members: "list[_Member]" = []
    for position, spec in enumerate(specs):
        clock_seq, workload_seq, algorithm_seq = replicate_substreams(spec)
        clock_rng = np.random.default_rng(clock_seq)
        if callable(spec.initial_values):
            workload_rng = np.random.default_rng(workload_seq)
            raw_values = spec.initial_values(workload_rng)
        else:
            raw_values = spec.initial_values
        values = np.asarray(raw_values, dtype=np.float64)
        if values.shape != (graph.n_vertices,):
            raise SimulationError(
                f"initial_values must have shape ({graph.n_vertices},), "
                f"got {values.shape}"
            )
        values = values.copy()
        member = _Member(position)
        member.values = values
        member.variance_0 = float(np.var(values))
        member.sum_0 = float(values.sum())
        member.crossings = {
            float(thr): Crossing(threshold=float(thr)) for thr in thresholds
        }
        if member.variance_0 == 0.0:
            results[position] = RunResult(
                values=values,
                duration=0.0,
                n_events=0,
                n_updates=0,
                variance_initial=0.0,
                variance_final=0.0,
                sum_initial=member.sum_0,
                sum_final=member.sum_0,
                crossings=member.crossings,
                stopped_by="target_ratio",
            )
            continue
        member.square_sum_0 = float(values @ values)
        if spec.clock_factory is not None:
            member.clock = spec.clock_factory(clock_rng)
        else:
            member.clock = PoissonEdgeClocks(graph.n_edges, seed=clock_rng)
        clock_edges = getattr(member.clock, "n_edges", None)
        if clock_edges != graph.n_edges:
            raise SimulationError(
                f"clock models {clock_edges} edges but the "
                f"graph has {graph.n_edges}"
            )
        member.rng = np.random.default_rng(algorithm_seq)
        members.append(member)
    return members


def _parse_run_kwargs(
    run_kwargs: dict,
) -> "tuple[float | None, int | None, float | None, Sequence[float], float | None]":
    """Validate run kwargs with the scalar loop's exact rules/messages."""
    max_time = run_kwargs.get("max_time")
    max_events = run_kwargs.get("max_events")
    target_ratio = run_kwargs.get("target_ratio")
    thresholds = run_kwargs.get("thresholds", (math.e**-2,))
    divergence_ratio = run_kwargs.get("divergence_ratio", 1e9)
    if max_time is None and max_events is None and target_ratio is None:
        raise SimulationError(
            "provide at least one of max_time, max_events, target_ratio"
        )
    if max_time is not None and max_time <= 0:
        raise SimulationError(f"max_time must be positive, got {max_time}")
    if max_events is not None and max_events < 1:
        raise SimulationError(f"max_events must be positive, got {max_events}")
    if target_ratio is not None and target_ratio <= 0:
        raise SimulationError(f"target_ratio must be positive, got {target_ratio}")
    for threshold in thresholds:
        if threshold <= 0:
            raise SimulationError(f"thresholds must be positive, got {threshold}")
    return max_time, max_events, target_ratio, thresholds, divergence_ratio
