"""E11-E14 report specs: extensions beyond the paper's theorems.

E11 reproduces the motivation of the paper's reference [6] (geographic
gossip); E12 evaluates the multi-cut generalization; E14 asks the
systems question Theorem 1 implies — is a faster cut *clock*
(bandwidth) a substitute for the non-convex *algorithm*?  Their
measurement providers (:func:`e11_measurements`, :func:`e12_measurements`,
:func:`e14_measurements`) return plain data; E13 (failure injection) is
sweep-backed and reads stored :class:`~repro.engine.sweeps.SweepResult`
rows for its five clock/algorithm configurations.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.geographic import GeographicGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.poisson import PoissonClockFactory
from repro.core.multi_cut import MultiClusterAveraging
from repro.engine.averaging_time import estimate_averaging_time
from repro.engine.simulator import simulate
from repro.experiments.specs_sweeps import (
    E13_DEATH_TIME,
    MAX_EVENTS,
    REPORT_REPLICATES,
    _algorithm_a_factory,
    convex_budget,
    nonconvex_budget,
    pick,
    resolve_scale,
)
from repro.experiments.workloads import cut_aligned
from repro.graphs.clustering import chain_of_cliques, spectral_clusters
from repro.graphs.composites import two_cliques
from repro.graphs.geometric import random_geometric_network
from repro.reports.model import ReportContext, ReportSpec
from repro.util.mathx import fit_power_law
from repro.util.tables import Table


# ----------------------------------------------------------------------
# E11 — geographic gossip on geometric random graphs (reference [6])
# ----------------------------------------------------------------------

#: Variance target the E11 message counts are measured to.
E11_TARGET_RATIO = 1e-2


def e11_measurements(scale: "str | None" = None, seed: int = 43) -> dict:
    """Messages-to-accuracy: geographic rendezvous vs local gossip.

    [6]'s motivation: on random geometric graphs, local gossip needs
    ``~n^2`` pairwise updates to average (diffusion), while routing to
    random remote partners needs ``~n^{1.5}`` messages.  Measures total
    messages to a fixed variance target from the *smooth* worst-case
    field (value = x-coordinate, the slow diffusion mode).
    """
    scale = resolve_scale(scale)
    sizes = pick(
        scale, smoke=[64, 100], default=[100, 256, 484], full=[100, 256, 484, 900]
    )
    replicates = pick(scale, smoke=2, default=3, full=5)

    rows = []
    for index, n in enumerate(sizes):
        radius = 1.3 * math.sqrt(math.log(n) / n)
        network = random_geometric_network(n, radius=radius, seed=seed + index)
        field = network.positions[:, 0].copy()
        field -= field.mean()
        v_msgs, g_msgs, v_time, g_time = [], [], [], []
        for rep in range(replicates):
            run_seed = seed + 100 * index + rep
            vanilla_run = simulate(
                network.graph,
                VanillaGossip(),
                field,
                seed=run_seed,
                target_ratio=E11_TARGET_RATIO,
                max_events=MAX_EVENTS,
            )
            geographic = GeographicGossip(network, initiation_probability=1.0)
            geo_run = simulate(
                network.graph,
                geographic,
                field,
                seed=run_seed,
                target_ratio=E11_TARGET_RATIO,
                max_events=MAX_EVENTS,
            )
            v_msgs.append(vanilla_run.n_updates)
            g_msgs.append(geographic.message_count)
            v_time.append(vanilla_run.duration)
            g_time.append(geo_run.duration)
        rows.append(
            {
                "n": n,
                "avg_degree": 2 * network.graph.n_edges / n,
                "vanilla_messages": float(np.mean(v_msgs)),
                "geo_messages": float(np.mean(g_msgs)),
                "vanilla_time": float(np.mean(v_time)),
                "geo_time": float(np.mean(g_time)),
            }
        )
    return {"sizes": sizes, "target_ratio": E11_TARGET_RATIO, "rows": rows}


def _e11_table(ctx: ReportContext) -> Table:
    table = Table(
        ["n", "avg degree", "msgs vanilla", "msgs geographic", "msg ratio",
         "time vanilla", "time geographic"],
        title=f"E11: messages/time to variance ratio "
        f"{ctx.data['target_ratio']:g} (smooth field)",
    )
    for row in ctx.data["rows"]:
        table.add_row(
            [row["n"], row["avg_degree"], row["vanilla_messages"],
             row["geo_messages"],
             row["vanilla_messages"] / row["geo_messages"],
             row["vanilla_time"], row["geo_time"]]
        )
    return table


def _e11_exponents(ctx: ReportContext) -> "tuple[float, float]":
    def compute():
        sizes = [row["n"] for row in ctx.data["rows"]]
        vanilla = fit_power_law(
            sizes, [row["vanilla_messages"] for row in ctx.data["rows"]]
        )[0]
        geo = fit_power_law(
            sizes, [row["geo_messages"] for row in ctx.data["rows"]]
        )[0]
        return vanilla, geo

    return ctx.memo("e11_exponents", compute)


def _e11_findings(ctx: ReportContext) -> dict:
    vanilla, geo = _e11_exponents(ctx)
    return {
        "vanilla_message_exponent": vanilla,
        "geographic_message_exponent": geo,
    }


def _e11_check_exponent(ctx: ReportContext) -> "tuple[str, bool, str]":
    vanilla, geo = _e11_exponents(ctx)
    return (
        "geographic needs asymptotically fewer messages",
        geo < vanilla - 0.15,
        f"message exponents: geographic {geo:.2f} vs vanilla {vanilla:.2f}",
    )


def _e11_check_growth(ctx: ReportContext) -> "tuple[str, bool, str]":
    ratios = [
        row["vanilla_messages"] / row["geo_messages"]
        for row in ctx.data["rows"]
    ]
    return (
        "the message advantage grows with n",
        ratios[-1] > ratios[0],
        f"vanilla/geographic message ratio: "
        f"{ratios[0]:.2f} -> {ratios[-1]:.2f}",
    )


E11 = ReportSpec(
    experiment_id="E11",
    title="Geographic gossip on geometric random graphs (reference [6])",
    paper_claim=(
        "Narayanan PODC'07 (the paper's ref. [6], its non-convexity "
        "precursor): routing to random remote partners beats local "
        "diffusion on geometric graphs — fewer total messages, with "
        "the advantage growing in n."
    ),
    summary="Messages-to-accuracy: geographic rendezvous vs local gossip.",
    default_seed=43,
    provider=e11_measurements,
    tables=(_e11_table,),
    findings=_e11_findings,
    checks=(_e11_check_exponent, _e11_check_growth),
)


# ----------------------------------------------------------------------
# E12 — multi-cut generalization on chains of cliques
# ----------------------------------------------------------------------


def e12_measurements(scale: "str | None" = None, seed: int = 47) -> dict:
    """k sparse cuts at once: the multi-cluster extension of Algorithm A."""
    scale = resolve_scale(scale)
    clique_sizes = pick(
        scale, smoke=[8, 16], default=[16, 32, 64], full=[16, 32, 64, 128]
    )
    k = pick(scale, smoke=3, default=4, full=4)
    replicates = REPORT_REPLICATES[scale]

    rows = []
    detection_ok = True
    for index, clique_size in enumerate(clique_sizes):
        graph, clusters = chain_of_cliques(clique_size, k)
        # Cross-check the detector on the planted structure (cheap sizes).
        if graph.n_vertices <= 128:
            detected = spectral_clusters(graph, k)
            sizes_match = sorted(detected.cluster_size(c) for c in range(k)) == sorted(
                clusters.cluster_size(c) for c in range(k)
            )
            detection_ok = detection_ok and sizes_match
        # Adversarial field: +1 on the first half of cliques, -1 on the rest.
        x0 = np.where(clusters.labels < k / 2.0, 1.0, -1.0)
        x0 = x0 - x0.mean()
        mca = MultiClusterAveraging(graph, clusters=clusters)
        budget = 40.0 * (
            sum(mca.cluster_vanilla_times()) * math.log(graph.n_vertices) * k * k
            + max(mca.epoch_lengths().values()) * k * k
        )
        est_vanilla = estimate_averaging_time(
            graph,
            VanillaGossip,
            x0,
            n_replicates=replicates,
            seed=seed + 100 + index,
            max_time=budget,
            max_events=MAX_EVENTS,
        )
        est_multi = estimate_averaging_time(
            graph,
            mca.build_algorithm,
            x0,
            n_replicates=replicates,
            seed=seed + 200 + index,
            max_time=budget,
            max_events=MAX_EVENTS,
        )
        rows.append(
            {
                "clique_size": clique_size,
                "n": graph.n_vertices,
                "vanilla": est_vanilla.estimate,
                "multi": est_multi.estimate,
            }
        )
    return {
        "clique_sizes": clique_sizes,
        "k": k,
        "detection_ok": detection_ok,
        "rows": rows,
    }


def _e12_table(ctx: ReportContext) -> Table:
    table = Table(
        ["clique size", "n", "T_av vanilla", "T_av multi-cut A", "speedup"],
        title=f"E12: chain of {ctx.data['k']} cliques, single bridges",
    )
    for row in ctx.data["rows"]:
        table.add_row(
            [row["clique_size"], row["n"], row["vanilla"], row["multi"],
             row["vanilla"] / max(row["multi"], 1e-9)]
        )
    return table


def _e12_exponents(ctx: ReportContext) -> "tuple[float, float]":
    def compute():
        sizes = [row["clique_size"] for row in ctx.data["rows"]]
        vanilla = fit_power_law(
            sizes, [row["vanilla"] for row in ctx.data["rows"]]
        )[0]
        multi = fit_power_law(
            sizes, [row["multi"] for row in ctx.data["rows"]]
        )[0]
        return vanilla, multi

    return ctx.memo("e12_exponents", compute)


def _e12_findings(ctx: ReportContext) -> dict:
    vanilla, multi = _e12_exponents(ctx)
    return {
        "vanilla_exponent_in_clique_size": vanilla,
        "multi_cut_exponent_in_clique_size": multi,
    }


def _e12_check_detection(ctx: ReportContext) -> "tuple[str, bool, str]":
    return (
        "spectral clustering recovers the planted chain structure",
        ctx.data["detection_ok"],
        f"recursive bisection found the {ctx.data['k']} cliques",
    )


def _e12_check_converges(ctx: ReportContext) -> "tuple[str, bool, str]":
    return (
        "multi-cut A converges on every instance",
        all(math.isfinite(row["multi"]) for row in ctx.data["rows"]),
        "no censored quantile",
    )


def _e12_check_scaling(ctx: ReportContext) -> "tuple[str, bool, str]":
    vanilla, multi = _e12_exponents(ctx)
    return (
        "multi-cut A scales better in clique size than vanilla",
        multi < vanilla - 0.3,
        f"exponents: multi-cut {multi:.2f} vs vanilla {vanilla:.2f}",
    )


def _e12_check_wins(ctx: ReportContext) -> "tuple[str, bool, str]":
    last = ctx.data["rows"][-1]
    return (
        "multi-cut A wins at the largest size",
        last["vanilla"] > 1.5 * last["multi"],
        f"{last['vanilla']:.3g} vs {last['multi']:.3g}",
    )


E12 = ReportSpec(
    experiment_id="E12",
    title=lambda ctx: f"Multi-cut extension: chain of {ctx.data['k']} cliques",
    paper_claim=(
        "Extension beyond the paper (its single-cut assumption is the "
        "natural thing to relax): one designated edge per adjacent "
        "cluster pair, pairwise harmonic gains. Cluster means then mix "
        "like vanilla gossip on the quotient path, so the advantage "
        "over convex gossip should persist and scale."
    ),
    summary="k sparse cuts at once: the multi-cluster extension of A.",
    default_seed=47,
    provider=e12_measurements,
    tables=(_e12_table,),
    findings=_e12_findings,
    checks=(
        _e12_check_detection,
        _e12_check_converges,
        _e12_check_scaling,
        _e12_check_wins,
    ),
)


# ----------------------------------------------------------------------
# E13 — failure injection: the designated edge dies (sweep-backed)
# ----------------------------------------------------------------------

_E13_LABELS = {
    "vanilla_failing": "vanilla (3 bridges, 1 dies)",
    "algorithm_a_failing": "algorithm A (plain)",
    "resilient_failing": "algorithm A (resilient failover)",
    "vanilla_lossy": "vanilla (30% message loss, no deaths)",
    "vanilla_healthy": "vanilla (healthy baseline)",
}


def _e13_series(ctx: ReportContext) -> dict:
    def compute():
        result = ctx.sweep("E13")
        by_config = {}
        for config in result.axes["config"]:
            point = result.point(config=config)
            by_config[str(config)] = point
        half = int(result.points[0].params["half"])
        return {"half": half, "points": by_config}

    return ctx.memo("e13_series", compute)


def _e13_table(ctx: ReportContext) -> Table:
    series = _e13_series(ctx)
    table = Table(
        ["configuration", "T_av", "outcome"],
        title=f"E13: dumbbell-with-3-bridges (n = {2 * series['half']}), "
        f"e_c dies at t = {E13_DEATH_TIME:g}",
    )
    for config, point in series["points"].items():
        outcome = "stalls forever" if point.is_censored else "converges"
        cell = "censored" if point.is_censored else f"{point.estimate:.4g}"
        table.add_row([_E13_LABELS.get(config, config), cell, outcome])
    return table


def _e13_findings(ctx: ReportContext) -> dict:
    points = _e13_series(ctx)["points"]
    healthy = points["vanilla_healthy"].estimate
    return {
        "vanilla_healthy_tav": healthy,
        "lossy_slowdown": points["vanilla_lossy"].estimate / healthy,
    }


def _e13_check_stalls(ctx: ReportContext) -> "tuple[str, bool, str]":
    points = _e13_series(ctx)["points"]
    return (
        "plain Algorithm A stalls when e_c dies",
        points["algorithm_a_failing"].is_censored,
        "all cross-cut progress was funneled through the dead link",
    )


def _e13_check_failover(ctx: ReportContext) -> "tuple[str, bool, str]":
    point = _e13_series(ctx)["points"]["resilient_failing"]
    return (
        "the resilient variant converges through failover",
        not point.is_censored,
        f"T_av = {point.estimate:.3g}",
    )


def _e13_check_vanilla(ctx: ReportContext) -> "tuple[str, bool, str]":
    point = _e13_series(ctx)["points"]["vanilla_failing"]
    return (
        "vanilla survives the death (it uses all bridges)",
        not point.is_censored,
        f"T_av = {point.estimate:.3g}",
    )


def _e13_check_slowdown(ctx: ReportContext) -> "tuple[str, bool, str]":
    points = _e13_series(ctx)["points"]
    slowdown = (
        points["vanilla_lossy"].estimate / points["vanilla_healthy"].estimate
    )
    # Independent replicate streams per sweep point (no common random
    # numbers), so the band is wider than the thinning prediction alone.
    return (
        "30% tick loss slows vanilla by ~1/0.7 (Poisson thinning)",
        1.0 <= slowdown <= 2.6,
        f"measured slowdown {slowdown:.2f} (thinning predicts ~1.43)",
    )


E13 = ReportSpec(
    experiment_id="E13",
    title="Failure injection: designated cut edge dies at t = 2",
    paper_claim=(
        "Operational corollary of the paper's design: Algorithm A "
        "funnels all cross-cut progress through e_c, so losing that "
        "one link stalls it forever even though two other bridges "
        "remain; a heartbeat-failover variant recovers, and plain "
        "convex gossip (which uses all bridges) merely slows down."
    ),
    summary="Algorithm A's single point of failure, and the failover fix.",
    default_seed=53,
    sweeps=("E13",),
    tables=(_e13_table,),
    findings=_e13_findings,
    checks=(
        _e13_check_stalls,
        _e13_check_failover,
        _e13_check_vanilla,
        _e13_check_slowdown,
    ),
)


# ----------------------------------------------------------------------
# E14 — bandwidth vs algorithm: boosting the cut edge's clock rate
# ----------------------------------------------------------------------


def e14_measurements(scale: "str | None" = None, seed: int = 59) -> dict:
    """Boosted cut clock vs the non-convex swap on one clique pair.

    Theorem 1 counts cut *ticks*: with the designated cut edge ticking at
    rate ``b`` the convex bound relaxes to ``Omega(n1 / (b |E12|))``.
    """
    scale = resolve_scale(scale)
    half = pick(scale, smoke=24, default=48, full=96)
    boosts = pick(
        scale, smoke=[1, 4, 64], default=[1, 4, 16, 64, 256], full=[1, 4, 16, 64, 256]
    )
    replicates = REPORT_REPLICATES[scale]

    pair = two_cliques(half, half, n_bridges=1)
    x0 = cut_aligned(pair.partition)
    cut_edge = pair.designated_edge
    budget = convex_budget(pair)

    boosted_times = []
    for index, boost in enumerate(boosts):
        rates = np.ones(pair.graph.n_edges)
        rates[cut_edge] = float(boost)
        clock_factory = PoissonClockFactory(pair.graph.n_edges, rates=rates)

        estimate = estimate_averaging_time(
            pair.graph,
            VanillaGossip,
            x0,
            n_replicates=replicates,
            seed=seed + 10 * index,
            max_time=budget,
            max_events=MAX_EVENTS,
            clock_factory=clock_factory,
        )
        boosted_times.append(estimate.estimate)
    factory_a, _ = _algorithm_a_factory(pair)
    est_a = estimate_averaging_time(
        pair.graph,
        factory_a,
        x0,
        n_replicates=replicates,
        seed=seed + 999,
        max_time=max(nonconvex_budget(pair), budget),
        max_events=MAX_EVENTS,
    )
    return {
        "half": half,
        "boosts": boosts,
        "boosted_times": boosted_times,
        "a_tav": est_a.estimate,
    }


def _e14_table(ctx: ReportContext) -> Table:
    data = ctx.data
    table = Table(
        ["cut clock rate b", "T_av vanilla (boosted)", "vs b=1"],
        title=f"E14: clique pair n = {2 * data['half']}, one bridge",
    )
    baseline = data["boosted_times"][0]
    for boost, tav in zip(data["boosts"], data["boosted_times"]):
        table.add_row([boost, tav, baseline / tav])
    table.add_row(
        ["algorithm A @ rate 1", data["a_tav"],
         baseline / max(data["a_tav"], 1e-9)]
    )
    return table


def _e14_findings(ctx: ReportContext) -> dict:
    data = ctx.data
    return {
        "speedup_at_first_boost": (
            data["boosted_times"][0] / data["boosted_times"][1]
        ),
        "algorithm_a_equivalent_boost": (
            data["boosted_times"][0] / max(data["a_tav"], 1e-9)
        ),
    }


def _e14_check_linear(ctx: ReportContext) -> "tuple[str, bool, str]":
    data = ctx.data
    gain_small = data["boosted_times"][0] / data["boosted_times"][1]
    boost_small = data["boosts"][1] / data["boosts"][0]
    return (
        "moderate boosts pay off near-linearly",
        0.3 * boost_small <= gain_small <= 1.5 * boost_small,
        f"boost x{boost_small:g} bought x{gain_small:.1f}",
    )


def _e14_check_saturation(ctx: ReportContext) -> "tuple[str, bool, str]":
    data = ctx.data
    total_gain = data["boosted_times"][0] / data["boosted_times"][-1]
    total_boost = data["boosts"][-1] / data["boosts"][0]
    return (
        "boost returns saturate at the internal-mixing floor",
        total_gain < 0.8 * total_boost,
        f"x{total_boost:g} rate bought only x{total_gain:.1f}",
    )


def _e14_check_equivalent(ctx: ReportContext) -> "tuple[str, bool, str]":
    data = ctx.data
    equivalent = data["boosted_times"][0] / max(data["a_tav"], 1e-9)
    return (
        "algorithm A at rate 1 matches a large bandwidth multiplier",
        equivalent >= 2.0,
        f"equivalent to x{equivalent:.1f} cut bandwidth",
    )


E14 = ReportSpec(
    experiment_id="E14",
    title="Bandwidth-vs-algorithm: boosted cut clock vs non-convex swap",
    paper_claim=(
        "Theorem 1's bound counts cut ticks, so multiplying the cut "
        "edge's clock rate by b buys a ~b-fold convex speedup (until "
        "internal mixing dominates); Algorithm A achieves the "
        "bottleneck-free time at rate 1."
    ),
    summary="Is a faster cut clock a substitute for the non-convex update?",
    default_seed=59,
    provider=e14_measurements,
    tables=(_e14_table,),
    findings=_e14_findings,
    checks=(
        _e14_check_linear,
        _e14_check_saturation,
        _e14_check_equivalent,
    ),
)
