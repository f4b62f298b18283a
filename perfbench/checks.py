"""Correctness checks on the outputs of the benchmark's runs.

Each check returns a list of problems, empty when the output is correct.
Expected values are computed here, not by the package's settlement or
metric code: notionals, fees, totals and day metrics are recomputed from the
fills, and balances are compared exactly, as `Fraction`s. The one package
function used is `replay_fills`, whose result is compared with the balances
that live settlement left.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from fracmarket import AgentKind, DayMetrics, replay_fills

# the paper's reference day statistics and the acceptance tolerances
REFERENCE = {
    "liquidity_ratio": (0.139, 0.02),
    "n_offers": (69.0, 7.0),
    "n_trades": (130.0, 15.0),
    "offered_shares": (4746.0, 500.0),
    "traded_shares": (614.28, 80.0),
}


def pooled(aggs, name: str) -> tuple[float, float, int]:
    """Mean, sample standard deviation and day count of one metric over all
    the days of several aggregates."""
    parts = []
    for agg in aggs:
        n = agg.n_experiments
        if name == "liquidity_ratio":
            n -= agg.n_undefined_ratio
        if n:
            parts.append((n, agg.mean(name), agg.std(name)))
    total = sum(n for n, _, _ in parts)
    mean = sum(n * m for n, m, _ in parts) / total
    ss = sum((n - 1) * s**2 + n * (m - mean) ** 2 for n, m, s in parts)
    return mean, (ss / (total - 1)) ** 0.5 if total > 1 else 0.0, total


def check_reference(aggs) -> list[str]:
    """The pooled means fall within the reference statistics' tolerances."""
    problems = []
    for name, (target, tol) in REFERENCE.items():
        mean = pooled(aggs, name)[0]
        if not abs(mean - target) <= tol:
            problems.append(f"{name} mean {mean:.4f} outside {target} +- {tol}")
    return problems


def check_equal(label: str, expected: list, got: list) -> list[str]:
    """Two lists of output records are identical, item by item."""
    if len(expected) != len(got):
        return [f"{label}: {len(got)} records, expected {len(expected)}"]
    return [
        f"{label}: record {i} differs"
        for i, (e, g) in enumerate(zip(expected, got))
        if e != g
    ]


def check_trend(sweeps, lo_value, hi_value) -> list[str]:
    """Over all days of several sweeps, the liquidity ratio at `hi_value`
    exceeds the one at `lo_value` by more than two standard errors of the
    difference."""
    stats = {}
    for value in (lo_value, hi_value):
        aggs = [agg for sweep in sweeps for v, agg in sweep if v == value]
        stats[value] = pooled(aggs, "liquidity_ratio")
    diff = stats[hi_value][0] - stats[lo_value][0]
    se = sum(s**2 / n for _, s, n in stats.values()) ** 0.5
    if diff > 2.0 * se:
        return []
    return [
        f"liquidity ratio rises by {diff:.4f} from {lo_value} to {hi_value}, "
        f"not more than two standard errors ({2.0 * se:.4f})"
    ]


def check_day(initial, final, trace, day, params) -> list[str]:
    """Invariants of one settled day on a fixed roster.

    `initial` holds the start-of-day balances (not modified), `final` the
    balances after the day, `trace` and `day` what `run_day` returned.
    """
    problems: list[str] = []
    p_ref = params.p_ref
    fee_rate = Fraction(params.exit_fee_rate)
    bands = {
        AgentKind.PURE_SELLER: (params.ps_price_lo * p_ref, params.ps_price_hi * p_ref),
        AgentKind.BUYER_SELLER: (params.bs_price_lo * p_ref, params.bs_price_hi * p_ref),
    }
    kind = [a.kind for a in initial]
    posted = {o.seller: o for o in trace.offers_entered}
    taken: Counter = Counter()
    notional = Fraction(0)
    for n, ev in enumerate(trace.fills):
        f = ev.fill
        where = f"fill {n} ({f.buyer} buys {f.units} from {f.seller} at {f.price})"
        if f.buyer == f.seller:
            problems.append(f"{where}: self-trade")
        offer = posted.get(f.seller)
        if offer is None or offer.price != f.price:
            problems.append(f"{where}: matches no posted offer")
        taken[f.seller] += f.units
        exact = Fraction(f.price) * f.units
        if f.notional != exact:
            problems.append(f"{where}: notional {f.notional} is not price * units")
        notional += exact
        if kind[f.buyer] is AgentKind.BUYER_SELLER and not f.price < p_ref:
            problems.append(f"{where}: buyer-seller paid at or above p_ref")
        lo, hi = bands[kind[f.seller]]
        if not lo <= f.price <= hi:
            problems.append(f"{where}: price outside the seller's band [{lo}, {hi}]")
    for seller, units in taken.items():
        if seller in posted and units > posted[seller].quantity:
            problems.append(
                f"seller {seller}: {units} units filled against {posted[seller].quantity} posted"
            )

    if sum(a.shares for a in final) != sum(a.shares for a in initial):
        problems.append("share total not conserved")
    fee = fee_rate * notional
    cash_drop = sum(a.cash for a in initial) - sum(a.cash for a in final)
    if cash_drop != (fee if params.debit_exit_fee else 0):
        problems.append(f"cash total fell by {cash_drop}, expected the debited fee {fee}")
    if any(a.shares < 0 or a.cash < 0 for a in final):
        problems.append("negative balance after the day")

    replayed = [a.copy() for a in initial]
    replay_fills(replayed, trace.fills, params)
    diverged = [
        a.id for a, b in zip(replayed, final) if (a.shares, a.cash) != (b.shares, b.cash)
    ]
    if diverged:
        problems.append(f"replay diverges from the final balances of agents {diverged[:5]}")

    offered = sum(o.quantity for o in trace.offers_entered)
    traded = sum(ev.fill.units for ev in trace.fills)
    expected = DayMetrics(
        n_offers=len(trace.offers_entered),
        n_trades=len(trace.fills),
        offered_shares=offered,
        traded_shares=traded,
        traded_notional=float(notional),
        platform_revenue=float(fee),
        liquidity_ratio=traded / offered if offered else None,
    )
    if day != expected:
        problems.append(f"day metrics {day} differ from the recomputed {expected}")
    return problems
