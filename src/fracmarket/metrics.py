"""Per-day market quality metrics and their aggregation over repetitions.

The headline figure is the liquidity ratio: shares actually traded during a
day divided by shares offered at its start. Days with an empty book have no
defined ratio; aggregation averages the ratio over the days where it exists
(mean of per-day ratios, not ratio of means) and reports how many days were
excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .core import ConfigError, ModelParams, OfferBook

if TYPE_CHECKING:  # pragma: no cover
    from .engine import DayTrace

__all__ = [
    "METRIC_FIELDS",
    "AggregateMetrics",
    "DayMetrics",
    "aggregate",
    "compute_day_metrics",
]

# canonical reporting order
METRIC_FIELDS = (
    "liquidity_ratio",
    "n_offers",
    "n_trades",
    "offered_shares",
    "traded_shares",
    "traded_notional",
    "platform_revenue",
)


@dataclass(frozen=True, slots=True)
class DayMetrics:
    """Outcome of one simulated trading day.

    `liquidity_ratio` is None when nothing was offered. `platform_revenue`
    is the exit fee accrued on the day's notional, independent of whether
    sellers were debited for it.
    """

    n_offers: int
    n_trades: int
    offered_shares: int
    traded_shares: int
    traded_notional: float
    platform_revenue: float
    liquidity_ratio: float | None


def compute_day_metrics(
    trace: "DayTrace", book_initial: OfferBook, params: ModelParams
) -> DayMetrics:
    """Reduce one day to its metrics.

    `book_initial` must be the start-of-day book (post offer entry, before
    any fill); offered quantities are read from it, traded quantities from
    the trace. Notional sums are carried out exactly before conversion: the
    prices' integer ratios times units, summed in integers over their
    common denominator, then divided once (int / int rounds correctly, as
    float(Fraction) does). No Fraction is built.
    """
    n_offers = len(book_initial.offers)
    offered = sum(o.quantity for o in book_initial.offers)
    n_trades = len(trace.fills)
    traded = sum(ev.fill.units for ev in trace.fills)
    terms = [(ev.fill.price.as_integer_ratio(), ev.fill.units) for ev in trace.fills]
    den = math.lcm(*(pd for (_, pd), _ in terms))
    num = sum(pn * units * (den // pd) for (pn, pd), units in terms)  # notional = num/den
    fn, fd = params.exit_fee_rate.as_integer_ratio()
    return DayMetrics(
        n_offers=n_offers,
        n_trades=n_trades,
        offered_shares=offered,
        traded_shares=traded,
        traded_notional=num / den,
        platform_revenue=(num * fn) / (den * fd),
        liquidity_ratio=(traded / offered) if offered > 0 else None,
    )


@dataclass(frozen=True, slots=True)
class AggregateMetrics:
    """Mean and sample standard deviation of day metrics over repetitions.

    Ratio statistics cover only the days where the ratio was defined;
    `n_undefined_ratio` counts the excluded days. With every day undefined
    the ratio mean and std are None.
    """

    n_experiments: int
    n_undefined_ratio: int
    means: dict[str, float | None]
    stds: dict[str, float | None]

    def mean(self, name: str) -> float | None:
        return self.means[name]

    def std(self, name: str) -> float | None:
        return self.stds[name]

    def to_record(self) -> dict[str, float | int | None]:
        """Flat dict in canonical order, stds prefixed with std_."""
        rec: dict[str, float | int | None] = {}
        for name in METRIC_FIELDS:
            rec[name] = self.means[name]
        for name in METRIC_FIELDS:
            rec["std_" + name] = self.stds[name]
        rec["n_experiments"] = self.n_experiments
        rec["n_undefined_ratio"] = self.n_undefined_ratio
        return rec


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    n = len(values)
    m = math.fsum(values) / n
    if n < 2:
        return m, 0.0
    var = math.fsum((v - m) ** 2 for v in values) / (n - 1)
    return m, math.sqrt(var)


def aggregate(days: Sequence[DayMetrics]) -> AggregateMetrics:
    """Average day metrics over repetitions.

    Uses exactly rounded sums, so the result does not depend on the order
    the days are listed in. Raises ConfigError on empty input.
    """
    if not days:
        raise ConfigError("cannot aggregate zero experiments")
    means: dict[str, float | None] = {}
    stds: dict[str, float | None] = {}
    for name in METRIC_FIELDS:
        if name == "liquidity_ratio":
            vals = [d.liquidity_ratio for d in days if d.liquidity_ratio is not None]
            if not vals:
                means[name] = None
                stds[name] = None
                continue
        else:
            vals = [float(getattr(d, name)) for d in days]
        m, s = _mean_std(vals)
        means[name] = m
        stds[name] = s
    n_undef = sum(1 for d in days if d.liquidity_ratio is None)
    return AggregateMetrics(
        n_experiments=len(days),
        n_undefined_ratio=n_undef,
        means=means,
        stds=stds,
    )
