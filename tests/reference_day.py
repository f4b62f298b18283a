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
   `ps_offer_prob`, a buyer-seller below `bs_offer_prob`. Then draw one
   uniform per active seller, in visit order; a seller that lists at least
   one share prices its offer at a + (b - a) * u, with (a, b) = (lo, hi) *
   p_ref;
2. each trading round: draw a permutation of the buyers and one uniform
   per position (`pb_trade_prob`, `bs_trade_prob`). Then draw a row of W
   uniforms per active buyer, in visit order, with W = max(2,
   min(bs_search_len, number of sellers)). An active pure buyer facing a
   non-empty book takes the offer at int(u[0] * len(book)) and accepts it
   when u[1] is below the acceptance probability; an active buyer-seller
   with more than k = bs_search_len candidates swaps positions j and
   j + int(u[j] * (m - j)) of its m candidates for j < k and looks at the
   first k, otherwise at all of them.

Every row is drawn whether or not the agent's rule reads it.
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
        active = []
        for pos in range(len(sellers)):
            i = sellers[order[pos]]
            prob = params.ps_offer_prob if kind[i] is PS else params.bs_offer_prob
            if u[pos] < prob:
                active.append(i)
        rows = rng.random((len(active), 1))
        for i, row in zip(active, rows):
            if kind[i] is PS:
                ratio, lo, hi = params.ps_offer_ratio, params.ps_price_lo, params.ps_price_hi
            else:
                ratio, lo, hi = params.bs_offer_ratio, params.bs_price_lo, params.bs_price_hi
            if shares[i] <= 0:
                continue
            qty = math.floor(ratio * shares[i])
            if qty < 1:
                continue
            a, b = lo * p_ref, hi * p_ref
            price = a + (b - a) * float(row[0])
            book.append([price, qty, i, len(book)])
    offers = [tuple(o) for o in book]

    # trading
    fills = []
    buyers = [i for i in range(len(roster)) if kind[i] is not PS]
    width = max(2, min(params.bs_search_len, len(sellers)))
    for rnd in range(1, params.n_trading_iters + 1):
        if not buyers:
            continue
        order = rng.permutation(len(buyers))
        u = rng.random(len(buyers))
        active = []
        for pos in range(len(buyers)):
            i = buyers[order[pos]]
            prob = params.pb_trade_prob if kind[i] is PB else params.bs_trade_prob
            if u[pos] < prob:
                active.append(i)
        rows = rng.random((len(active), width))
        for i, row in zip(active, rows):
            row = [float(x) for x in row]
            if kind[i] is PB:
                if not book:
                    continue
                offer = book[int(row[0] * len(book))]
                x = params.k_pb * (offer[0] - p_ref)
                accept = 0.0 if x > 500.0 else 1.0 if x < -500.0 else 1.0 / (1.0 + math.exp(x))
                if not row[1] < accept:
                    continue
                ratio = params.pb_purchase_ratio
            else:
                candidates = [o for o in book if o[0] < p_ref and o[2] != i]
                if not candidates:
                    continue
                k, m = params.bs_search_len, len(candidates)
                if k < m:
                    for j in range(k):
                        r = j + int(row[j] * (m - j))
                        candidates[j], candidates[r] = candidates[r], candidates[j]
                    sample = candidates[:k]
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
