"""Day metric reduction and cross-repetition aggregation."""

from fractions import Fraction

import pytest

from fracmarket import (
    ConfigError,
    DayMetrics,
    DayTrace,
    FillEvent,
    OfferBook,
    TradeFill,
    aggregate,
    compute_day_metrics,
)

from conftest import make_offer, make_params


def day(
    n_offers=0,
    n_trades=0,
    offered=0,
    traded=0,
    notional=0.0,
    revenue=0.0,
    ratio=None,
):
    return DayMetrics(
        n_offers=n_offers,
        n_trades=n_trades,
        offered_shares=offered,
        traded_shares=traded,
        traded_notional=notional,
        platform_revenue=revenue,
        liquidity_ratio=ratio,
    )


def trace_with(book: OfferBook, fills: list[TradeFill]) -> DayTrace:
    return DayTrace(
        offers_entered=[o.copy() for o in book.offers],
        fills=[FillEvent(1, f) for f in fills],
    )


def fill(price: float, units: int, buyer=0, seller=1) -> TradeFill:
    return TradeFill(
        buyer=buyer,
        seller=seller,
        price=price,
        units=units,
        budget=(10**9, 1),
    )


def test_no_trades_gives_zero_ratio():
    book = OfferBook()
    book.insert(make_offer(quantity=10, seller=1))
    m = compute_day_metrics(trace_with(book, []), book, make_params())
    assert m.n_offers == 1
    assert m.offered_shares == 10
    assert m.n_trades == 0
    assert m.liquidity_ratio == 0.0


def test_ratio_is_quotient_of_traded_and_offered():
    book = OfferBook()
    book.insert(make_offer(price=50.0, quantity=4746, seller=1))
    m = compute_day_metrics(
        trace_with(book, [fill(50.0, 614)]), book, make_params()
    )
    assert m.liquidity_ratio == 614 / 4746  # 0.129372...
    assert m.traded_shares == 614


def test_empty_book_flags_ratio_undefined_but_reports_rest():
    book = OfferBook()
    m = compute_day_metrics(trace_with(book, []), book, make_params())
    assert m.liquidity_ratio is None
    assert m.n_offers == 0 and m.offered_shares == 0
    assert m.traded_notional == 0.0


def test_notional_and_revenue_are_exact_sums():
    book = OfferBook()
    book.insert(make_offer(price=40.0, quantity=100, seller=1))
    fills = [fill(40.0, 3), fill(40.0, 2)]
    m = compute_day_metrics(trace_with(book, fills), book, make_params())
    assert m.traded_notional == 200.0
    assert m.platform_revenue == float(Fraction(0.02) * 200)
    assert m.n_trades == 2
    assert m.traded_shares == 5


def test_aggregate_single_day_is_identity():
    d = day(n_offers=3, n_trades=2, offered=30, traded=7, notional=280.0, revenue=5.6, ratio=7 / 30)
    agg = aggregate([d])
    assert agg.n_experiments == 1
    assert agg.mean("liquidity_ratio") == 7 / 30
    assert agg.mean("n_offers") == 3.0
    assert agg.std("n_trades") == 0.0


def test_aggregate_averages_per_day_ratios():
    # mean of ratios, not ratio of sums: (0.1 + 0.2) / 2
    days = [day(offered=10, traded=1, ratio=0.1), day(offered=100, traded=20, ratio=0.2)]
    agg = aggregate(days)
    assert agg.mean("liquidity_ratio") == pytest.approx(0.15)
    assert agg.mean("traded_shares") == 10.5


def test_aggregate_excludes_undefined_ratios_and_counts_them():
    days = [day(offered=10, traded=5, ratio=0.5), day(ratio=None), day(ratio=None)]
    agg = aggregate(days)
    assert agg.mean("liquidity_ratio") == 0.5
    assert agg.n_undefined_ratio == 2
    assert agg.n_experiments == 3


def test_aggregate_all_undefined_gives_none():
    agg = aggregate([day(ratio=None), day(ratio=None)])
    assert agg.mean("liquidity_ratio") is None
    assert agg.std("liquidity_ratio") is None
    assert agg.n_undefined_ratio == 2


def test_aggregate_is_permutation_invariant():
    rngless = [
        day(offered=10 + i, traded=i, notional=13.7 * i + 0.1, ratio=i / (10 + i))
        for i in range(25)
    ]
    a = aggregate(rngless)
    b = aggregate(list(reversed(rngless)))
    assert a == b


def test_aggregate_rejects_empty():
    with pytest.raises(ConfigError):
        aggregate([])


def test_aggregate_std_is_sample_std():
    days = [day(traded=0, ratio=0.1), day(traded=10, ratio=0.1)]
    agg = aggregate(days)
    assert agg.std("traded_shares") == pytest.approx(7.0710678118654755)


def test_to_record_layout():
    rec = aggregate([day(offered=10, traded=2, ratio=0.2)]).to_record()
    assert rec["liquidity_ratio"] == 0.2
    assert rec["std_liquidity_ratio"] == 0.0
    assert rec["n_experiments"] == 1
    assert rec["n_undefined_ratio"] == 0
