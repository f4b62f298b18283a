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

The draws: each phase draws its visits from the day's one generator as it
runs, the pre-trading visit first, then one visit as each trading round
starts. A visit makes three draws and no others:

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

Inert buyers: once pre-trading has filled the book, the trading rounds
call a buyer's rule only while its budget passes `agents._budget_fill`'s
float gate at its kind's bound, `ratio * float(cash) >= bound * (1 -
1e-9) - 1e-300`, which cash beyond float range passes unless the ratio is
0. A pure buyer's bound is the cheapest offer; a buyer-seller's, the cheapest
priced strictly below `p_ref`, its own included. With no such offer the
kind is never called. The skip is exact: offers enter only in
pre-trading, so no offer a buyer could pick is ever below its bound, and
its cash rises only when it sells, after which the engine checks its gate
again. Float rounding is monotone, so until then the gate rejects it at
every offer, where its rule would return None and change nothing; its row
was drawn with its visit, so skipping the call changes no draw.

Every entry reads its population through `core.LazyPopulation.of`, as
kind and cash columns and `population[i]` for the agents that act. So a
generated day builds, and a roster batch copies, only the sellers active
in pre-trading and the buyers active in trading while not inert.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .agents import (
    _GATE,
    _UNDERFLOW,
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
    LazyPopulation,
    ModelParams,
    Offer,
    OfferBook,
    Rng,
    _KIND_CODE,
    _float_cash,
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


_PB, _PS = _KIND_CODE[AgentKind.PURE_BUYER], _KIND_CODE[AgentKind.PURE_SELLER]


def _draw_visit(
    ids: np.ndarray, probs: np.ndarray, width: int, rng: Rng
) -> tuple[list[int], list[list[float]]]:
    """Visit the agents `ids` once each in a uniformly random order,
    activating the agent at each position with its probability in `probs`,
    and draw a row of `width` uniforms per active agent. Returns the active
    ids in visit order and their rows; draws nothing when `ids` is empty."""
    if not len(ids):
        return [], []
    order = rng.permutation(len(ids))
    active = ids[order[rng.random(len(ids)) < probs[order]]]
    return active.tolist(), rng.random((len(active), width)).tolist()


def _gate(offers: Sequence[Offer]) -> float:
    """`agents._budget_fill`'s float gate at the cheapest of `offers`; NaN,
    which no budget passes, when there are none."""
    return min(o.price for o in offers) * _GATE - _UNDERFLOW if offers else math.nan


def run_pretrading(population: Sequence[AgentState], params: ModelParams, rng: Rng) -> OfferBook:
    """Visit each seller once in random order, drawn from `rng`; return
    the resulting book."""
    population = LazyPopulation.of(population)
    kinds = population.kinds
    sellers = np.flatnonzero(kinds != _PB)
    probs = np.where(kinds[sellers] == _PS, params.ps_offer_prob, params.bs_offer_prob)
    book = OfferBook()
    for i, u in zip(*_draw_visit(sellers, probs, 1, rng)):
        agent = population[i]
        if agent.kind is AgentKind.PURE_SELLER:
            offer = ps_decide(agent, params, u)
        else:
            offer = bs_offer_decide(agent, params, u)
        if offer is not None:
            book.insert(offer)
    return book


def run_trading(
    population: Sequence[AgentState], book: OfferBook, params: ModelParams, rng: Rng
) -> DayTrace:
    """Run the trading rounds against a start-of-day book, each round's
    visit drawn from `rng` as it starts, settling fills in place on
    `population` and `book`. Returns the day's trace.

    Inert buyers are skipped (see the module docstring). A
    `core.LazyPopulation` trades once; a second run is a ContractViolation.
    """
    population = LazyPopulation.of(population)
    population.start_trading()
    pure = population.kinds == _PB
    buyers = np.flatnonzero(population.kinds != _PS)
    probs = np.where(pure[buyers], params.pb_trade_prob, params.bs_trade_prob)
    width = max(2, min(params.bs_search_len, len(pure) - int(np.count_nonzero(pure))))
    offers_entered = [o.copy() for o in book.offers]
    gates = _gate(book.offers), _gate(book.below(params.p_ref))
    # per agent, whether its budget passes its kind's gate (only buyers' are read)
    ratio = np.where(pure, params.pb_purchase_ratio, params.bs_purchase_ratio)
    live = (ratio * population.cash >= np.where(pure, *gates)).tolist()
    fills: list[FillEvent] = []
    for it in range(1, params.n_trading_iters + 1):
        for i, u in zip(*_draw_visit(buyers, probs, width, rng)):
            if not live[i]:
                continue
            agent = population[i]
            if agent.kind is AgentKind.PURE_BUYER:
                fill = pb_decide(agent, book, params, u)
            else:
                fill = bs_buy_decide(agent, book, params, u)
            if fill is None:
                continue
            seller = population[fill.seller]
            settle_fill(fill, agent, seller, book, params)
            fills.append(FillEvent(it, fill))
            if not live[seller.id] and seller.kind is AgentKind.BUYER_SELLER:
                # the sale raised its cash: check its gate again
                live[seller.id] = params.bs_purchase_ratio * _float_cash(seller) >= gates[1]
    return DayTrace(offers_entered, fills)


def run_day(
    population: Sequence[AgentState],
    params: ModelParams,
    seed: int | np.random.SeedSequence,
) -> tuple[DayTrace, DayMetrics]:
    """Simulate one full day from `seed`, mutating `population` in place.

    `population` is a roster (a list whose agent at position `i` has id
    `i`) or a `core.LazyPopulation`, which builds only the agents that act
    and runs one day. Returns the trace and the day metrics. Residual
    offers are discarded; callers that need the pristine balances must
    copy before calling.
    """
    population = LazyPopulation.of(population)
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
