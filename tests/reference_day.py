"""A reference trading day: the market rules read as literally as possible.

This is the executable statement of what `fracmarket.engine.run_day` must
compute, written without any of its machinery: plain loops over plain
lists, exact `Fraction` arithmetic for every amount of money, no book
index, no float pre-check. `tests/test_reference_day.py` runs both from
the same seed and requires them to agree exactly.

Randomness, one generator per day, consumed in this order (the `engine`
and `agents` docstrings):

1. pre-trading: draw a permutation of the sellers and one uniform per
   visit position; a pure seller is active when its uniform is below
   `ps_offer_prob`, a buyer-seller below `bs_offer_prob`. Then, in visit
   order, each active seller that lists at least one share draws its
   price uniformly from (lo, hi) * p_ref;
2. each trading round: draw a permutation of the buyers and one uniform
   per position (`pb_trade_prob`, `bs_trade_prob`). Then, in visit order,
   an active pure buyer facing a non-empty book draws an offer index and
   then one acceptance uniform; an active buyer-seller draws a
   permutation of its candidates, and only when it holds more than
   `bs_search_len` of them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from fracmarket import AgentKind, DayMetrics, ModelParams

PS = AgentKind.PURE_SELLER
PB = AgentKind.PURE_BUYER
BS = AgentKind.BUYER_SELLER


def reference_day(roster: list, params: ModelParams, seed) -> dict:
    """Simulate one day on copies of `roster`'s balances.

    Returns the posted offers (price, quantity, seller, entry), the fills
    in order (round, buyer, seller, price, units, notional, budget), the
    final balances (shares, cash) and the day metrics.
    """
    rng = np.random.default_rng(seed)
    kind = [a.kind for a in roster]
    shares = [a.shares for a in roster]
    cash = [Fraction(a.cash) for a in roster]
    p_ref = params.p_ref

    # pre-trading
    book = []  # live offers as [price, quantity, seller, entry], in entry order
    sellers = [i for i in range(len(roster)) if kind[i] is not PB]
    if sellers:
        order = rng.permutation(len(sellers))
        u = rng.random(len(sellers))
        for pos in range(len(sellers)):
            i = sellers[order[pos]]
            if kind[i] is PS:
                prob, ratio = params.ps_offer_prob, params.ps_offer_ratio
                lo, hi = params.ps_price_lo, params.ps_price_hi
            else:
                prob, ratio = params.bs_offer_prob, params.bs_offer_ratio
                lo, hi = params.bs_price_lo, params.bs_price_hi
            if not u[pos] < prob:
                continue
            if shares[i] <= 0:
                continue
            qty = math.floor(ratio * shares[i])
            if qty < 1:
                continue
            price = float(rng.uniform(lo * p_ref, hi * p_ref))
            book.append([price, qty, i, len(book)])
    offers = [tuple(o) for o in book]

    # trading
    fills = []
    buyers = [i for i in range(len(roster)) if kind[i] is not PS]
    for rnd in range(1, params.n_trading_iters + 1):
        if not buyers:
            continue
        order = rng.permutation(len(buyers))
        u = rng.random(len(buyers))
        for pos in range(len(buyers)):
            i = buyers[order[pos]]
            if kind[i] is PB:
                if not u[pos] < params.pb_trade_prob:
                    continue
                if not book:
                    continue
                offer = book[int(rng.integers(len(book)))]
                x = params.k_pb * (offer[0] - p_ref)
                accept = 0.0 if x > 500.0 else 1.0 if x < -500.0 else 1.0 / (1.0 + math.exp(x))
                if not rng.random() < accept:
                    continue
                ratio = params.pb_purchase_ratio
            else:
                if not u[pos] < params.bs_trade_prob:
                    continue
                candidates = [o for o in book if o[0] < p_ref and o[2] != i]
                if not candidates:
                    continue
                if params.bs_search_len < len(candidates):
                    picks = rng.permutation(len(candidates))[: params.bs_search_len]
                    sample = [candidates[j] for j in picks]
                else:
                    sample = candidates
                offer = min(sample, key=lambda o: (o[0], o[3]))
                ratio = params.bs_purchase_ratio
            budget = Fraction(ratio) * cash[i]
            price = Fraction(offer[0])
            if budget >= price * offer[1]:
                units = offer[1]
            else:
                units = math.floor(budget / price)
            if units < 1:
                continue
            # settle
            notional = price * units
            fee = Fraction(params.exit_fee_rate) * notional
            seller = offer[2]
            shares[i] += units
            cash[i] -= notional
            shares[seller] -= units
            cash[seller] += notional - fee if params.debit_exit_fee else notional
            offer[1] -= units
            if offer[1] == 0:
                book.remove(offer)
            fills.append((rnd, i, seller, offer[0], units, notional, budget))

    offered = sum(o[1] for o in offers)
    traded = sum(f[4] for f in fills)
    notional = sum((f[5] for f in fills), Fraction(0))
    metrics = DayMetrics(
        n_offers=len(offers),
        n_trades=len(fills),
        offered_shares=offered,
        traded_shares=traded,
        traded_notional=float(notional),
        platform_revenue=float(Fraction(params.exit_fee_rate) * notional),
        liquidity_ratio=traded / offered if offered > 0 else None,
    )
    return {
        "offers": offers,
        "fills": fills,
        "balances": list(zip(shares, cash)),
        "metrics": metrics,
    }
