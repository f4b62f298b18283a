"""Trading-day engine: one pre-trading pass, then repeated trading rounds.

A day runs in two phases over a fresh, empty book:

1. pre-trading: every potential seller is visited exactly once, in a
   uniformly random order, and may post one sell offer;
2. trading: for each of `n_trading_iters` rounds, every potential buyer is
   visited once in a fresh uniformly random order and may execute at most
   one fill, settled immediately.

Offers still live after the last round are deleted; nothing carries over to
the next day.

Randomness layout per day (one generator, consumed in this order): seller
visit permutation, one activation uniform per seller visit, then the price
draws of the agents that post, in visit order. Each trading round consumes a
buyer visit permutation, one activation uniform per buyer visit, then the
per-agent draws of the active buyers in visit order. Activation uniforms are
drawn as one block per phase purely for speed; the per-agent rules accept
them via their `activation` parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .agents import (
    TradeFill,
    _transfer,
    bs_buy_decide,
    bs_offer_decide,
    pb_decide,
    ps_decide,
    settle_fill,
)
from .core import (
    AgentKind,
    AgentState,
    ModelParams,
    Offer,
    OfferBook,
    Rng,
    make_rng,
)
from .metrics import DayMetrics, compute_day_metrics

__all__ = [
    "DayTrace",
    "FillEvent",
    "export_trace",
    "replay_fills",
    "run_day",
    "run_pretrading",
    "run_trading",
]


@dataclass(frozen=True, slots=True)
class FillEvent:
    """A fill together with the trading round (1-based) it happened in."""

    iteration: int
    fill: TradeFill


@dataclass(slots=True)
class DayTrace:
    """Complete record of one day.

    `offers_entered` holds copies of the offers as posted (quantities before
    any fill). `per_iteration_metrics` has one cumulative snapshot after
    each trading round. Replaying `fills` against the initial balances
    reproduces the final balances exactly.
    """

    offers_entered: list[Offer]
    fills: list[FillEvent]
    per_iteration_metrics: list[DayMetrics]


def run_pretrading(
    population: Sequence[AgentState], params: ModelParams, rng: Rng
) -> OfferBook:
    """Visit each seller once in random order; return the resulting book."""
    book = OfferBook()
    sellers = [i for i, a in enumerate(population) if a.kind.sells]
    if not sellers:
        return book
    probs = np.array(
        [
            params.ps_offer_prob
            if population[i].kind is AgentKind.PURE_SELLER
            else params.bs_offer_prob
            for i in sellers
        ]
    )
    order = rng.permutation(len(sellers))
    draws = rng.random(len(sellers))
    active = np.nonzero(draws < probs[order])[0]
    for j in active:
        agent = population[sellers[int(order[j])]]
        if agent.kind is AgentKind.PURE_SELLER:
            offer = ps_decide(agent, params, rng, activation=float(draws[j]))
        else:
            offer = bs_offer_decide(agent, params, rng, activation=float(draws[j]))
        if offer is not None:
            book.insert(offer)
    return book


def run_trading(
    population: Sequence[AgentState],
    book: OfferBook,
    params: ModelParams,
    rng: Rng,
) -> DayTrace:
    """Run the trading rounds against a start-of-day book, settling fills
    in place on `population` and `book`. Returns the day's trace."""
    offers_entered = [o.copy() for o in book.offers]
    offered_total = sum(o.quantity for o in offers_entered)
    buyers = [i for i, a in enumerate(population) if a.kind.buys]
    probs = np.array(
        [
            params.pb_trade_prob
            if population[i].kind is AgentKind.PURE_BUYER
            else params.bs_trade_prob
            for i in buyers
        ]
    )

    fills: list[FillEvent] = []
    per_iter: list[DayMetrics] = []
    traded = 0
    notional_sum = Fraction(0)
    fee_sum = Fraction(0)

    for it in range(1, params.n_trading_iters + 1):
        if buyers:
            order = rng.permutation(len(buyers))
            draws = rng.random(len(buyers))
            active = np.nonzero(draws < probs[order])[0]
            for j in active:
                agent = population[buyers[int(order[j])]]
                u = float(draws[j])
                if agent.kind is AgentKind.PURE_BUYER:
                    fill = pb_decide(agent, book, params, rng, activation=u)
                else:
                    fill = bs_buy_decide(agent, book, params, rng, activation=u)
                if fill is None:
                    continue
                seller = population[fill.seller]
                fee = settle_fill(fill, agent, seller, book, params)
                fills.append(FillEvent(it, fill))
                traded += fill.units
                notional_sum += fill.notional
                fee_sum += fee
        per_iter.append(
            DayMetrics(
                n_offers=len(offers_entered),
                n_trades=len(fills),
                offered_shares=offered_total,
                traded_shares=traded,
                traded_notional=float(notional_sum),
                platform_revenue=float(fee_sum),
                liquidity_ratio=(traded / offered_total) if offered_total else None,
            )
        )
    return DayTrace(offers_entered, fills, per_iter)


def run_day(
    population: list[AgentState],
    params: ModelParams,
    seed: int | np.random.SeedSequence,
) -> tuple[DayTrace, DayMetrics]:
    """Simulate one full day from `seed`, mutating `population` in place.

    Returns the trace and the day metrics. Residual offers are discarded;
    callers that need the pristine balances must copy before calling.
    """
    params.validate()
    rng = make_rng(seed)
    book = run_pretrading(population, params, rng)
    book_initial = book.snapshot()
    trace = run_trading(population, book, params, rng)
    return trace, compute_day_metrics(trace, book_initial, params)


def replay_fills(
    population: list[AgentState],
    fills: Iterable[FillEvent | TradeFill],
    params: ModelParams,
) -> None:
    """Apply recorded fills to `population` in order, without a book.

    Uses the same transfer as live settlement, so replaying a day's trace
    against the initial balances lands on the final balances exactly.
    """
    for ev in fills:
        fill = ev.fill if isinstance(ev, FillEvent) else ev
        _transfer(fill, population[fill.buyer], population[fill.seller], params)


def export_trace(trace: DayTrace, path) -> None:
    """Write the day's fills as line-delimited JSON, one object per fill."""
    with open(path, "w", encoding="utf-8") as f:
        for ev in trace.fills:
            f.write(
                json.dumps(
                    {
                        "iteration": ev.iteration,
                        "buyer": ev.fill.buyer,
                        "seller": ev.fill.seller,
                        "price": ev.fill.price,
                        "units": ev.fill.units,
                        "notional": float(ev.fill.notional),
                    }
                )
                + "\n"
            )

