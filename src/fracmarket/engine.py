"""Trading-day engine: one pre-trading pass, then repeated trading rounds.

A day runs in two phases over a fresh, empty book:

1. pre-trading: every potential seller is visited exactly once, in a
   uniformly random order. A pure seller is active with probability
   `ps_offer_prob`, a buyer-seller with `bs_offer_prob`; an active seller
   may post one sell offer;
2. trading: for each of `n_trading_iters` rounds, every potential buyer is
   visited once in a fresh uniformly random order. A pure buyer is active
   with probability `pb_trade_prob`, a buyer-seller with `bs_trade_prob`;
   an active buyer may execute at most one fill, settled immediately.

Offers still live after the last round are deleted; nothing carries over to
the next day.

Randomness layout per day (one generator, consumed in this order): the
pre-trading visit, then one visit per trading round. A visit makes three
draws and no others:

1. a permutation of its agents;
2. one uniform per visit position; the agent at a position is active when
   its uniform is below its activation probability;
3. a block `rng.random((n_active, W))`, one row per active agent in visit
   order. Pre-trading has W = 1 (an offer's price). Trading has
   W = max(2, min(bs_search_len, number of potential sellers)): two for a
   pure buyer's pick and acceptance, and room for a buyer-seller's search,
   which never has more candidates than there are sellers.

Each active agent's rule is handed its row and reads it as listed in
`agents`; the rules draw nothing themselves. So the draws of a day depend
only on the population's kinds, the activation probabilities and W, never
on the book or on balances. The rules are called for active agents only:
activation is decided here and nowhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
    any fill). Each fill carries its round, so per-round totals are sums
    over `fills` grouped by `iteration`. Replaying `fills` against the
    initial balances reproduces the final balances exactly.
    """

    offers_entered: list[Offer]
    fills: list[FillEvent]


def _visit(
    agents: Sequence[AgentState], probs: np.ndarray, width: int, rng: Rng
) -> Iterator[tuple[AgentState, list[float]]]:
    """Visit `agents` once each in a uniformly random order, activating the
    agent at each position with its probability in `probs`. Makes all three
    draws of the visit at once and returns the active agents in visit order,
    each paired with its row of `width` uniforms. Draws nothing when
    `agents` is empty."""
    if not agents:
        return zip()
    order = rng.permutation(len(agents))
    active = order[rng.random(len(agents)) < probs[order]].tolist()
    rows = rng.random((len(active), width)).tolist()
    return zip([agents[i] for i in active], rows)


def run_pretrading(
    population: Sequence[AgentState], params: ModelParams, rng: Rng
) -> OfferBook:
    """Visit each seller once in random order; return the resulting book."""
    book = OfferBook()
    sellers = [a for a in population if a.kind.sells]
    probs = np.array(
        [
            params.ps_offer_prob
            if a.kind is AgentKind.PURE_SELLER
            else params.bs_offer_prob
            for a in sellers
        ]
    )
    for agent, u in _visit(sellers, probs, 1, rng):
        if agent.kind is AgentKind.PURE_SELLER:
            offer = ps_decide(agent, params, u)
        else:
            offer = bs_offer_decide(agent, params, u)
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
    buyers = [a for a in population if a.kind.buys]
    probs = np.array(
        [
            params.pb_trade_prob
            if a.kind is AgentKind.PURE_BUYER
            else params.bs_trade_prob
            for a in buyers
        ]
    )
    n_sellers = sum(1 for a in population if a.kind.sells)
    width = max(2, min(params.bs_search_len, n_sellers))
    fills: list[FillEvent] = []
    for it in range(1, params.n_trading_iters + 1):
        for agent, u in _visit(buyers, probs, width, rng):
            if agent.kind is AgentKind.PURE_BUYER:
                fill = pb_decide(agent, book, params, u)
            else:
                fill = bs_buy_decide(agent, book, params, u)
            if fill is None:
                continue
            settle_fill(fill, agent, population[fill.seller], book, params)
            fills.append(FillEvent(it, fill))
    return DayTrace(offers_entered, fills)


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
    fills: Iterable[FillEvent],
    params: ModelParams,
) -> None:
    """Apply recorded fills to `population` in order, without a book.

    Uses the same transfer as live settlement, so replaying a day's trace
    against the initial balances lands on the final balances exactly.
    """
    for ev in fills:
        fill = ev.fill
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
