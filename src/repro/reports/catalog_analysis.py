"""E6-E7 report specs: the proof machinery, measured and assembled.

E6 measures the stochastic-dominance argument (the per-epoch
log-variance walk, its dominating biased walk, Theorem 3's tail, the
constant settling time); E7 the per-epoch potential inequalities (4)-(8).
Their measurement providers (:func:`e6_measurements` /
:func:`e7_measurements`) return plain data; the specs turn those
payloads into tables, figures, findings and checks.

A fidelity finding surfaced here: the paper's Lemma 1, *read as a
worst-case operator-norm statement* ``P[||A_k||^2 >= n^-3] <= 1/2``, is
false — the epoch operator always maps the cross-cut imbalance direction
to a post-swap spike of norm ~ gain.  What is true (and what the walk
argument actually needs) is the **trajectory** version, the paper's
inequality (8): the variance of the *actual state* contracts by
``poly(n)`` per epoch w.h.p., because the state at an epoch boundary is
never an adversarial unit vector — it is itself a post-swap state whose
spike the next epoch mixes away.  E6 therefore measures the trajectory
increments ``D_k = log(var X(T_{k+1}^+) / var X(T_k^+))`` and couples
*those* with the dominating walk; the operator norms are measured too.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.dominance import (
    couple_with_dominating_walk,
    dominance_violations,
)
from repro.analysis.epoch_trace import epoch_potential_trace
from repro.analysis.operators import (
    lemma1_empirical_probability,
    sample_epoch_operators,
)
from repro.analysis.random_walk import (
    settling_time_estimate,
    tail_probability_estimate,
    theorem3_tail_bound,
)
from repro.core.epochs import epoch_length_ticks
from repro.experiments.specs_sweeps import pick, resolve_scale
from repro.experiments.workloads import bimodal_noise
from repro.graphs.composites import dumbbell_graph
from repro.reports.model import ReportContext, ReportSpec
from repro.util.ascii_plot import line_plot
from repro.util.mathx import safe_log
from repro.util.tables import Table


# ----------------------------------------------------------------------
# E6 — stochastic dominance and the dominating walk
# ----------------------------------------------------------------------

#: The simple-walk size Theorem 3's tail is sampled at (E6d).
E6_TAIL_WALK_N = 400
#: The tail quantiles sampled against the Hoeffding envelope (E6d).
E6_TAIL_POINTS = (0.5, 1.0, 1.5, 2.0)
#: The walk sizes whose settling time must stay bounded (E6e).
E6_SETTLE_SIZES = (16, 64, 256, 1024)


def _trajectory_increments(
    pair, *, epoch_length: int, replicates: int, seed: int
) -> "tuple[list[float], list[float]]":
    """Per-epoch log-variance increments (transient D_1, steady D_2).

    Each replicate starts from a fresh noisy cut-aligned state and runs
    two epochs; ``D_k = log(var(T_{k+1}^+) / var(T_k^+))``.
    """
    transient, steady = [], []
    for rep in range(replicates):
        x0 = bimodal_noise(pair.partition, rng=seed + rep, noise=0.5)
        records = epoch_potential_trace(
            pair.partition,
            x0,
            epoch_length=epoch_length,
            n_epochs=2,
            seed=seed + 10_000 + rep,
        )
        transient.append(safe_log(records[0].variance_contraction))
        steady.append(safe_log(records[1].variance_contraction))
    return transient, steady


def e6_measurements(scale: "str | None" = None, seed: int = 23) -> dict:
    """Measure the dominance machinery on one dumbbell (raw data only)."""
    scale = resolve_scale(scale)
    n = pick(scale, smoke=16, default=32, full=64)
    replicates = pick(scale, smoke=16, default=60, full=150)
    n_operator_epochs = pick(scale, smoke=12, default=40, full=100)
    walk_paths = pick(scale, smoke=300, default=2_000, full=10_000)

    pair = dumbbell_graph(n)
    epoch = epoch_length_ticks(pair.partition, constant=3.0)

    transient, steady = _trajectory_increments(
        pair, epoch_length=epoch, replicates=replicates, seed=seed
    )
    walk, dominating = couple_with_dominating_walk(steady, n, seed=seed)
    violations = dominance_violations(walk, dominating)

    samples = sample_epoch_operators(
        pair.partition,
        epoch_length=epoch,
        n_epochs=n_operator_epochs,
        seed=seed + 7,
    )

    tails = [
        {
            "s": s,
            "mc": tail_probability_estimate(
                E6_TAIL_WALK_N, s, n_paths=walk_paths, seed=seed + 1
            ),
            "bound": theorem3_tail_bound(s, c=1.0, beta=0.5),
        }
        for s in E6_TAIL_POINTS
    ]
    settle = [
        {
            "n": walk_n,
            "t0": settling_time_estimate(
                walk_n, n_paths=walk_paths, seed=seed + walk_n
            ),
        }
        for walk_n in E6_SETTLE_SIZES
    ]
    return {
        "n": n,
        "epoch": epoch,
        "log_n": math.log(n),
        "replicates": replicates,
        "n_operator_epochs": n_operator_epochs,
        "walk_paths": walk_paths,
        "transient": transient,
        "steady": steady,
        "walk": walk.tolist(),
        "dominating": dominating.tolist(),
        "violations": int(violations),
        "max_norm": max(s.norm for s in samples),
        "lemma1_worst_case": lemma1_empirical_probability(samples),
        "tails": tails,
        "settle": settle,
    }


def _e6_increments_table(ctx: ReportContext) -> Table:
    data = ctx.data
    log_n = data["log_n"]
    steady = data["steady"]
    table = Table(
        ["quantity", "measured", "paper requirement"],
        title=f"E6a: per-epoch log-variance increments "
        f"(dumbbell n={data['n']}, L={data['epoch']}, "
        f"{data['replicates']} replicates)",
    )
    frac_above = float(np.mean([d >= -1.5 * log_n for d in steady]))
    table.add_row(
        ["max transient D_1", max(data["transient"]),
         f"<= 2 ln n = {2 * log_n:.2f}"]
    )
    table.add_row(["max steady D_2", max(steady), f"<= ln n = {log_n:.2f}"])
    table.add_row(
        ["P[D_2 >= -(3/2) ln n]", frac_above, "<= 1/2 (ineq. 8 analog)"]
    )
    table.add_row(
        ["median steady D_2", float(np.median(steady)),
         f"<< -(3/2) ln n = {-1.5 * log_n:.2f}"]
    )
    return table


def _e6_walk_figure(ctx: ReportContext) -> str:
    walk = ctx.data["walk"]
    dominating = ctx.data["dominating"]
    return line_plot(
        {
            "W_k (steady log-var walk)": (list(range(len(walk))), list(walk)),
            "W~_k (dominating)": (
                list(range(len(dominating))),
                list(dominating),
            ),
        },
        title="E6b: coupled walks - W_k must stay below W~_k",
    )


def _e6_operators_table(ctx: ReportContext) -> Table:
    data = ctx.data
    table = Table(
        ["quantity", "measured", "status"],
        title=f"E6c: epoch operator norms ({data['n_operator_epochs']} "
        "epochs) - fidelity note F5",
    )
    table.add_row(
        ["max ||A_k||", data["max_norm"],
         f"Eq. 12 requires <= n = {data['n']}"]
    )
    table.add_row(
        ["P[||A_k||^2 >= n^-3] (worst-case reading)",
         data["lemma1_worst_case"],
         "Lemma 1 claims <= 1/2; FALSE as operator statement "
         "(post-swap spike direction) - trajectory version in E6a holds"]
    )
    return table


def _e6_tail_table(ctx: ReportContext) -> Table:
    table = Table(
        ["s", "P[S_n >= s sqrt(n)] (MC)", "Hoeffding exp(-s^2/2)"],
        title="E6d: Theorem-3 sub-Gaussian tail of the simple walk (n=400)",
    )
    for row in ctx.data["tails"]:
        table.add_row([row["s"], row["mc"], row["bound"]])
    return table


def _e6_settle_table(ctx: ReportContext) -> Table:
    table = Table(
        ["n", "settling time t0 (epochs)"],
        title="E6e: dominating-walk settling time below -2 "
        "(bounded across n = Theorem 2's epoch count)",
    )
    for row in ctx.data["settle"]:
        table.add_row([row["n"], row["t0"]])
    return table


def _e6_findings(ctx: ReportContext) -> dict:
    data = ctx.data
    log_n = data["log_n"]
    frac_above = float(
        np.mean([d >= -1.5 * log_n for d in data["steady"]])
    )
    return {
        "max_steady_increment": max(data["steady"]),
        "steady_fraction_above_-1.5logn": frac_above,
        "coupling_violations": data["violations"],
        "lemma1_worst_case_probability": data["lemma1_worst_case"],
    }


def _e6_check_increments(ctx: ReportContext) -> "tuple[str, bool, str]":
    max_steady = max(ctx.data["steady"])
    log_n = ctx.data["log_n"]
    return (
        "steady increments bounded by +ln n (Eq.-12 trajectory analog)",
        max_steady <= log_n + 1e-9,
        f"max D_2 = {max_steady:.2f} vs ln n = {log_n:.2f}",
    )


def _e6_check_fraction(ctx: ReportContext) -> "tuple[str, bool, str]":
    log_n = ctx.data["log_n"]
    frac_above = float(
        np.mean([d >= -1.5 * log_n for d in ctx.data["steady"]])
    )
    return (
        "steady increments below -(3/2) ln n at least half the time",
        frac_above <= 0.5,
        f"measured fraction above: {frac_above:.3f}",
    )


def _e6_check_coupling(ctx: ReportContext) -> "tuple[str, bool, str]":
    violations = ctx.data["violations"]
    return (
        "pathwise coupling: W_k <= W~_k throughout",
        violations == 0,
        f"{violations} violations over {len(ctx.data['walk'])} steps",
    )


def _e6_check_norms(ctx: ReportContext) -> "tuple[str, bool, str]":
    max_norm = ctx.data["max_norm"]
    n = ctx.data["n"]
    return (
        "Eq. 12: every ||A_k|| <= n",
        max_norm <= n + 1e-9,
        f"max {max_norm:.3g} vs n = {n}",
    )


def _e6_check_tails(ctx: ReportContext) -> "tuple[str, bool, str]":
    walk_paths = ctx.data["walk_paths"]
    ok = True
    for row in ctx.data["tails"]:
        slack = 2.0 * math.sqrt(
            row["bound"] * (1 - row["bound"]) / walk_paths + 1e-12
        )
        ok = ok and row["mc"] <= row["bound"] + slack + 0.02
    return (
        "Theorem-3 tails within the sub-Gaussian envelope",
        ok,
        "empirical tails below exp(-s^2/2) + MC slack",
    )


def _e6_check_settling(ctx: ReportContext) -> "tuple[str, bool, str]":
    values = [row["t0"] for row in ctx.data["settle"]]
    return (
        "dominating-walk settling time is bounded and does not grow with n",
        max(values) <= 48.0 and values[-1] <= values[0] + 4.0,
        f"t0 across n: {[round(v, 1) for v in values]}",
    )


E6 = ReportSpec(
    experiment_id="E6",
    title="Stochastic dominance: log-variance epochs vs the dominating walk",
    paper_claim=(
        "Per epoch, log var X(T_k^+) moves by at most ~log n upward "
        "and by at least (3/2) log n downward with probability >= 1/2 "
        "(ineq. 8 / Lemma 1 / Eq. 12), so it is dominated pathwise by "
        "the walk with steps +log n / -(3/2) log n; that walk settles "
        "below -2 in O(1) epochs independent of n (via Theorem 3)."
    ),
    summary="Trajectory log-variance walk vs the paper's dominating walk.",
    default_seed=23,
    provider=e6_measurements,
    tables=(
        _e6_increments_table,
        _e6_operators_table,
        _e6_tail_table,
        _e6_settle_table,
    ),
    figures=(_e6_walk_figure,),
    findings=_e6_findings,
    checks=(
        _e6_check_increments,
        _e6_check_fraction,
        _e6_check_coupling,
        _e6_check_norms,
        _e6_check_tails,
        _e6_check_settling,
    ),
)


# ----------------------------------------------------------------------
# E7 — within-epoch potential contraction (inequalities 4-8)
# ----------------------------------------------------------------------


def e7_measurements(scale: "str | None" = None, seed: int = 29) -> dict:
    """Measure per-epoch contraction statistics across dumbbell sizes."""
    scale = resolve_scale(scale)
    sizes = pick(scale, smoke=[16], default=[16, 32, 64], full=[16, 32, 64, 128])
    replicates = pick(scale, smoke=4, default=10, full=20)

    rows = []
    for index, n in enumerate(sizes):
        pair = dumbbell_graph(n)
        epoch = epoch_length_ticks(pair.partition, constant=3.0)
        sigma_ratios, var_transient, var_steady, mu_margins = [], [], [], []
        for rep in range(replicates):
            x0 = bimodal_noise(pair.partition, rng=seed + 1000 * index + rep, noise=0.5)
            records = epoch_potential_trace(
                pair.partition,
                x0,
                epoch_length=epoch,
                n_epochs=2,
                seed=seed + 2000 * index + rep,
            )
            first, second = records[0], records[1]
            sigma_ratios.append(first.sigma_contraction)
            var_transient.append(first.variance_contraction)
            var_steady.append(second.variance_contraction)
            denominator = n**1.5 * first.sigma_pre_swap + 1e-12
            mu_margins.append(first.mu_end / denominator)
        rows.append(
            {
                "n": n,
                "epoch": epoch,
                "sigma_ratios": sigma_ratios,
                "var_transient": var_transient,
                "var_steady": var_steady,
                "mu_margins": mu_margins,
            }
        )
    return {"sizes": sizes, "replicates": replicates, "rows": rows}


def _e7_rows(ctx: ReportContext) -> "list[dict]":
    def compute():
        rows = []
        for raw in ctx.data["rows"]:
            n = raw["n"]
            rows.append(
                {
                    "n": n,
                    "epoch": raw["epoch"],
                    "median_sigma": float(np.median(raw["sigma_ratios"])),
                    "median_var": float(np.median(raw["var_steady"])),
                    "median_transient": float(np.median(raw["var_transient"])),
                    "max_mu_margin": float(np.max(raw["mu_margins"])),
                }
            )
        return rows

    return ctx.memo("e7_rows", compute)


def _e7_table(ctx: ReportContext) -> Table:
    table = Table(
        ["n", "epoch L", "median sigma contraction (e1)", "n^-3",
         "median var contraction (e2)", "n^-4",
         "max |mu_end|/(n^1.5 sigma_pre)", "median transient var growth (e1)"],
        title="E7: epoch contraction statistics (dumbbells)",
    )
    for row in _e7_rows(ctx):
        n = row["n"]
        table.add_row(
            [n, row["epoch"], row["median_sigma"], n**-3.0,
             row["median_var"], n**-4.0, row["max_mu_margin"],
             row["median_transient"]]
        )
    return table


def _e7_check_sigma(ctx: ReportContext) -> "tuple[str, bool, str]":
    return (
        "median within-epoch sigma contraction beats n^-3",
        all(r["median_sigma"] <= r["n"] ** -3.0 for r in _e7_rows(ctx)),
        "ineq. (4) asks for n^-6 w.p. 1 - 1/(4n); the median comfortably "
        "clears n^-3 at these sizes",
    )


def _e7_check_var(ctx: ReportContext) -> "tuple[str, bool, str]":
    return (
        "median steady-state variance contraction beats n^-4",
        all(r["median_var"] <= r["n"] ** -4.0 for r in _e7_rows(ctx)),
        "ineq. (8), measured on epoch 2",
    )


def _e7_check_mu(ctx: ReportContext) -> "tuple[str, bool, str]":
    return (
        "post-swap imbalance obeys ineq. (7) up to a small constant",
        all(r["max_mu_margin"] <= 3.0 for r in _e7_rows(ctx)),
        "|mu(T+)| <= 3 * n^(3/2) * sigma(T-) across all replicates",
    )


def _e7_check_transient(ctx: ReportContext) -> "tuple[str, bool, str]":
    return (
        "the non-convex transient is real (first epoch can inflate variance)",
        any(r["median_transient"] > 1.0 for r in _e7_rows(ctx)),
        "the paper's 'skew the values in the short term', observed",
    )


E7 = ReportSpec(
    experiment_id="E7",
    title="Within-epoch contraction of sigma and variance",
    paper_claim=(
        "Ineq. (4): sigma shrinks by poly(n) within an epoch w.h.p.; "
        "Ineq. (7): the post-swap imbalance is <= n^(3/2) "
        "sigma(T_{k+1}^-); Ineq. (8): variance contracts by n^-4 per "
        "epoch w.h.p. (measured from the second epoch on; the first "
        "is the documented non-convex transient)."
    ),
    summary="Measure sigma/mu/variance across epochs of Algorithm A.",
    default_seed=29,
    provider=e7_measurements,
    tables=(_e7_table,),
    checks=(
        _e7_check_sigma,
        _e7_check_var,
        _e7_check_mu,
        _e7_check_transient,
    ),
)
