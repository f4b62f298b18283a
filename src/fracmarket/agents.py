"""Per-agent decision rules and trade settlement.

The engine calls a rule only for an agent it has activated (see
`engine`). A rule draws nothing itself: it is handed `u`, its row of the
visit's block of uniforms on [0, 1), and reads it in a fixed documented
order. Every row is the same width whatever the rule does with it, so the
draws of a day never depend on the book or on balances:

* offer rules: `u[0]` prices the offer at `a + (b - a) * u[0]`, with
  `a = lo * p_ref` and `b = hi * p_ref` (numpy's own `uniform` formula),
  when an offer results;
* pure-buyer rule: `u[0]` picks the offer at position `int(u[0] * n)` of
  the `n` live offers, and the buyer accepts when `u[1]` is below
  `pb_accept_prob` of its price;
* buyer-seller buy rule: with `m` candidates and a search length `k < m`,
  step `j` of a partial Fisher-Yates shuffle swaps candidate positions `j`
  and `j + int(u[j] * (m - j))`, for `j < k`; with `m <= k` every
  candidate is inspected and the row is not read. The shuffle keeps only
  the positions it has moved, in a dict, so a search costs O(k) however
  deep the book: the same swaps and sample as shuffling `range(m)`.

A uniform `u` is at most `1 - 2**-53`, so `int(u * n) < n` for every
`n < 2**53`: `u * n` falls short of `n` by `n * 2**-53`, which is exactly
one step below `n` when `n` is a power of two and more than half a step
otherwise, so the product rounds to a float below `n`. A pick is always
a valid position.

Settlement builds no `Fraction`. It computes on plain integers: each
agent's cash pair `cn / cd` (see `core.AgentState`) and the float price
and rates as `float.as_integer_ratio` gives them, exactly. Every guard is
an integer cross-product, and `_credit` adds an amount `n / d` to a
balance with a multiply and an add, rescaling `cd` to the least common
multiple only when `d` does not divide it. A price's denominator and the
fee rate's are powers of two, so `cd` keeps the odd part of the agent's
starting denominator and its power of two never exceeds the largest seen:
`cd` stays below the starting denominator times the largest price
denominator times the fee rate's, however long an agent trades. A fill
records its price, units and the buyer's budget as an unreduced integer
pair; `notional` and `purchase_budget` build their Fractions only when
read.

Before the exact budget test, a float gate rejects a buyer whose budget
`ratio * float(cash)` falls short of the offer's price by more than a
relative 1e-9 (plus an absolute 1e-300 for underflow). The float budget
is within a relative 2**-52 of the exact one, seven orders of magnitude
inside that margin, so the gate only rejects what the exact test would
reject; every other case, and cash too large for a float, goes on to the
exact test. Results are the same as with exact arithmetic alone.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import _ENTRY, AgentState, ContractViolation, ModelParams, Offer, OfferBook

__all__ = [
    "TradeFill",
    "bs_buy_decide",
    "bs_offer_decide",
    "pb_accept_prob",
    "pb_decide",
    "ps_decide",
    "settle_fill",
]


@dataclass(slots=True)
class TradeFill:
    """One executed trade: `units` shares at `price` against a live offer.

    `budget` is the buyer's spendable cash at decision time as an integer
    pair `(n, d)`, not necessarily reduced (useful for audits). Equality
    compares the budget by value.
    """

    buyer: int
    seller: int
    price: float
    units: int
    budget: tuple[int, int]

    @property
    def notional(self) -> Fraction:
        """The exact price * units."""
        return Fraction(self.price) * self.units

    @notional.setter
    def notional(self, value: Fraction) -> None:
        # derived from price and units, so it can only be restated
        if value != self.notional:
            raise ContractViolation(f"notional {value} is not price * units")

    @property
    def purchase_budget(self) -> Fraction:
        """`budget` as a reduced Fraction."""
        return Fraction(*self.budget)

    def __eq__(self, other) -> bool:
        if type(other) is not TradeFill:
            return NotImplemented
        (bn, bd), (on, od) = self.budget, other.budget
        return (self.buyer, self.seller, self.price, self.units) == (
            other.buyer,
            other.seller,
            other.price,
            other.units,
        ) and bn * od == on * bd


def _price_offer(
    agent: AgentState,
    ratio: float,
    lo: float,
    hi: float,
    params: ModelParams,
    u: Sequence[float],
) -> Offer | None:
    if agent.shares <= 0:
        return None
    qty = math.floor(ratio * agent.shares)
    if qty < 1:
        # holdings too small for the listing fraction; no price is set
        return None
    a = lo * params.p_ref
    price = a + (hi * params.p_ref - a) * u[0]
    return Offer(price=price, quantity=qty, seller=agent.id)


def ps_decide(agent: AgentState, params: ModelParams, u: Sequence[float]) -> Offer | None:
    """Pure-seller offer rule.

    A seller holding shares lists floor(ps_offer_ratio * shares) of them at
    a price uniform on (ps_price_lo, ps_price_hi) * p_ref, set by `u[0]`.
    Returns None when out of shares or when the floor comes to zero.
    """
    return _price_offer(
        agent,
        params.ps_offer_ratio,
        params.ps_price_lo,
        params.ps_price_hi,
        params,
        u,
    )


def bs_offer_decide(agent: AgentState, params: ModelParams, u: Sequence[float]) -> Offer | None:
    """Buyer-seller offer rule; same shape as ps_decide, own parameters."""
    return _price_offer(
        agent,
        params.bs_offer_ratio,
        params.bs_price_lo,
        params.bs_price_hi,
        params,
        u,
    )


def pb_accept_prob(price: float, params: ModelParams) -> float:
    """Probability that a pure buyer accepts an offer at `price`.

    Logistic in the distance from the reference price: exactly 0.5 at p_ref,
    falling towards 0 above it with slope k_pb. The exponent is clamped so
    extreme prices saturate cleanly instead of overflowing.
    """
    x = params.k_pb * (price - params.p_ref)
    if x > 500.0:
        return 0.0
    if x < -500.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(x))


# the float gate in _budget_fill rejects only budgets below price * _GATE -
# _UNDERFLOW; see the module docstring for why that is safe
_GATE = 1.0 - 1e-9
_UNDERFLOW = 1e-300


def _budget_fill(
    agent: AgentState, offer: Offer, ratio: float
) -> TradeFill | None:
    """Fill `offer` as far as agent's budget ratio allows; None if < 1 unit.

    The budget is ratio * cash, exactly. A float gate rejects budgets
    clearly below one share; the rest is decided on raw integers, so no
    exactness is lost and no rationals are built on a rejection path.
    """
    cn, cd = agent.cn, agent.cd
    price = offer.price
    try:
        if ratio * (cn / cd) < price * _GATE - _UNDERFLOW:  # cn / cd == float(cash), rounded once
            return None
    except OverflowError:
        pass  # cash beyond float range: the exact test decides
    rn, rd = ratio.as_integer_ratio()
    bn = rn * cn  # budget = bn / bd, unnormalized
    bd = rd * cd
    pn, pd = price.as_integer_ratio()
    qty = offer.quantity
    if bn * pd >= pn * qty * bd:  # budget >= price * qty
        units = qty
    else:
        units = (bn * pd) // (bd * pn)  # floor(budget / price), all >= 0
        if units < 1:
            return None
    return TradeFill(agent.id, offer.seller, price, units, (bn, bd))


def pb_decide(
    agent: AgentState, book: OfferBook, params: ModelParams, u: Sequence[float]
) -> TradeFill | None:
    """Pure-buyer rule.

    The buyer inspects one uniformly chosen offer (`u[0]`) and accepts it
    with probability pb_accept_prob(price) (`u[1]`). On acceptance it
    spends up to pb_purchase_ratio of its cash: the whole offer if
    affordable, otherwise the largest whole number of shares within budget.
    Returns None when the book is empty, the offer is rejected, or not even
    one share is affordable.
    """
    if len(book) == 0:
        return None
    offer = book.offers[int(u[0] * len(book))]
    if not (u[1] < pb_accept_prob(offer.price, params)):
        return None
    return _budget_fill(agent, offer, params.pb_purchase_ratio)


def bs_buy_decide(
    agent: AgentState, book: OfferBook, params: ModelParams, u: Sequence[float]
) -> TradeFill | None:
    """Buyer-seller buy rule.

    The agent screens the offers priced strictly below p_ref, excluding its
    own, samples at most bs_search_len of them without replacement (a
    partial shuffle driven by `u[:bs_search_len]`) and takes the cheapest
    (earliest entry on a price tie), spending up to bs_purchase_ratio of its
    cash as in pb_decide. Bargain hunting: there is no acceptance lottery.
    """
    # the book's index, read in place: candidate p is below[p + (p >= cut)],
    # stepping over the agent's own offer if it sits at position `cut`
    below = book.below(params.p_ref)
    own, cut = book.find(agent.id), len(below)
    if own is not None and own.price < params.p_ref:
        cut = bisect_left(below, own.entry_order, key=_ENTRY)
    k, m = params.bs_search_len, len(below) - (cut < len(below))
    if m == 0:
        return None
    picks = range(m)
    if k < m:
        # partial Fisher-Yates over the candidate positions
        moved: dict[int, int] = {}
        picks = []
        for j in range(k):
            r = j + int(u[j] * (m - j))
            picks.append(moved.get(r, r))
            moved[r] = moved.get(j, j)
    best = min((below[p + (p >= cut)] for p in picks), key=_PRICE_ENTRY)
    return _budget_fill(agent, best, params.bs_purchase_ratio)


_PRICE_ENTRY = operator.attrgetter("price", "entry_order")


def settle_fill(
    fill: TradeFill,
    buyer: AgentState,
    seller: AgentState,
    book: OfferBook,
    params: ModelParams,
) -> None:
    """Settle one fill immediately.

    Shares move to the buyer, the notional moves to the seller, and the
    book's offer is reduced or removed. The fee (exit_fee_rate of notional)
    accrues to the platform (`compute_day_metrics` reports it); it is
    withheld from the seller's proceeds only when debit_exit_fee is set.
    Raises ContractViolation if the fill does not match a live offer or
    either party cannot cover its leg.
    """
    if buyer.id != fill.buyer or seller.id != fill.seller:
        raise ContractViolation("fill does not reference these agents")
    if buyer.id == seller.id:
        raise ContractViolation("self-trade")
    offer = book.find(fill.seller)
    if offer is None or offer.price != fill.price or fill.units > offer.quantity:
        raise ContractViolation("fill inconsistent with the live offer")
    if fill.units < 1:
        raise ContractViolation("fill of zero units")
    pn, pd = fill.price.as_integer_ratio()
    if buyer.cn * pd < pn * fill.units * buyer.cd:  # cash < price * units
        raise ContractViolation("buyer cannot cover the notional")
    if seller.shares < fill.units:
        raise ContractViolation("seller does not hold the filled units")
    _transfer(fill, buyer, seller, params)
    book.apply_fill(fill.seller, fill.units)


def _transfer(
    fill: TradeFill, buyer: AgentState, seller: AgentState, params: ModelParams
) -> None:
    """Move the fill's shares to the buyer and its notional to the seller,
    less the exit fee when debit_exit_fee is set. Shared by live settlement
    and replay, so both land on the same exact balances.

    With price p/q and fee rate f/g, the notional is (p * units)/q; the
    seller receives it, or (p * units)(g - f)/(qg) when the fee is debited.
    """
    pn, pd = fill.price.as_integer_ratio()
    n = pn * fill.units
    buyer.shares += fill.units
    _credit(buyer, -n, pd)
    seller.shares -= fill.units
    if params.debit_exit_fee:
        fn, fd = params.exit_fee_rate.as_integer_ratio()
        _credit(seller, n * (fd - fn), pd * fd)
    else:
        _credit(seller, n, pd)


def _credit(agent: AgentState, n: int, d: int) -> None:
    """Add n/d to the agent's cash pair, exactly; a negative n debits.

    `cd` is rescaled, to lcm(cd, d), only when d does not divide it.
    """
    cd = agent.cd
    if cd % d:
        scale = d // math.gcd(cd, d)
        agent.cn *= scale
        agent.cd = cd = cd * scale
    agent.cn += n * (cd // d)
