"""Per-agent decision rules and trade settlement.

The engine calls a rule only for an agent it has activated (see
`engine`). Each rule consumes randomness from the generator it is handed,
in a fixed documented order, so that a day is fully reproducible from one
seed:

* offer rules: one uniform price draw, if an offer results;
* pure-buyer rule: one integer draw to pick an offer, then one uniform
  against the acceptance probability (nothing on an empty book);
* buyer-seller buy rule: one without-replacement index sample over the
  below-reference offers (skipped when the whole candidate set is taken).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import AgentState, ContractViolation, ModelParams, Offer, OfferBook, Rng

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

    `notional` is the exact price * units; `purchase_budget` records the
    buyer's spendable cash at decision time (useful for audits).
    """

    buyer: int
    seller: int
    price: float
    units: int
    notional: Fraction
    purchase_budget: Fraction


def _draw_offer(
    agent: AgentState,
    ratio: float,
    lo: float,
    hi: float,
    params: ModelParams,
    rng: Rng,
) -> Offer | None:
    if agent.shares <= 0:
        return None
    qty = math.floor(ratio * agent.shares)
    if qty < 1:
        # holdings too small for the listing fraction; no price is drawn
        return None
    price = float(rng.uniform(lo * params.p_ref, hi * params.p_ref))
    return Offer(price=price, quantity=qty, seller=agent.id)


def ps_decide(agent: AgentState, params: ModelParams, rng: Rng) -> Offer | None:
    """Pure-seller offer rule.

    A seller holding shares lists floor(ps_offer_ratio * shares) of them at
    a price drawn uniformly from (ps_price_lo, ps_price_hi) * p_ref.
    Returns None when out of shares or when the floor comes to zero.
    """
    return _draw_offer(
        agent,
        params.ps_offer_ratio,
        params.ps_price_lo,
        params.ps_price_hi,
        params,
        rng,
    )


def bs_offer_decide(agent: AgentState, params: ModelParams, rng: Rng) -> Offer | None:
    """Buyer-seller offer rule; same shape as ps_decide, own parameters."""
    return _draw_offer(
        agent,
        params.bs_offer_ratio,
        params.bs_price_lo,
        params.bs_price_hi,
        params,
        rng,
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


# float -> exact rational, cached; ratios and fee rates recur constantly
_frac = lru_cache(maxsize=256)(Fraction)


def _budget_fill(
    agent: AgentState, offer: Offer, ratio: float
) -> TradeFill | None:
    """Fill `offer` as far as agent's budget ratio allows; None if < 1 unit.

    The budget is ratio * cash, exactly; comparisons and the floor run on
    raw integers so no exactness is lost and no rationals are built on the
    rejection path.
    """
    r = _frac(ratio)
    cash = agent.cash
    bn = r.numerator * cash.numerator  # budget = bn / bd, unnormalized
    bd = r.denominator * cash.denominator
    price = offer.price_exact
    pn, pd = price.numerator, price.denominator
    qty = offer.quantity
    if bn * pd >= pn * qty * bd:  # budget >= price * qty
        units = qty
    else:
        units = (bn * pd) // (bd * pn)  # floor(budget / price), all >= 0
        if units < 1:
            return None
    return TradeFill(
        buyer=agent.id,
        seller=offer.seller,
        price=offer.price,
        units=units,
        notional=price * units,
        purchase_budget=Fraction(bn, bd),
    )


def pb_decide(
    agent: AgentState, book: OfferBook, params: ModelParams, rng: Rng
) -> TradeFill | None:
    """Pure-buyer rule.

    The buyer inspects one uniformly chosen offer and accepts it with
    probability pb_accept_prob(price). On acceptance it spends up to
    pb_purchase_ratio of its cash: the whole offer if affordable, otherwise
    the largest whole number of shares within budget. Returns None when the
    book is empty, the offer is rejected, or not even one share is
    affordable.
    """
    if len(book) == 0:
        return None
    offer = book.offers[int(rng.integers(len(book)))]
    if not (rng.random() < pb_accept_prob(offer.price, params)):
        return None
    return _budget_fill(agent, offer, params.pb_purchase_ratio)


def bs_buy_decide(
    agent: AgentState, book: OfferBook, params: ModelParams, rng: Rng
) -> TradeFill | None:
    """Buyer-seller buy rule.

    The agent screens the offers priced strictly below p_ref, excluding its
    own, samples at most bs_search_len of them without replacement and
    takes the cheapest (earliest entry on a price tie), spending up to
    bs_purchase_ratio of its cash as in pb_decide. Bargain hunting: there
    is no acceptance lottery.
    """
    p_ref = params.p_ref
    own = agent.id
    candidates = [o for o in book.offers if o.price < p_ref and o.seller != own]
    if not candidates:
        return None
    k = params.bs_search_len
    if k < len(candidates):
        # uniform sample without replacement via a partial shuffle
        idx = rng.permutation(len(candidates))[:k]
        sample = [candidates[int(i)] for i in idx]
    else:
        sample = candidates  # whole set inspected, no draw consumed
    best = min(sample, key=lambda o: (o.price, o.entry_order))
    return _budget_fill(agent, best, params.bs_purchase_ratio)


def settle_fill(
    fill: TradeFill,
    buyer: AgentState,
    seller: AgentState,
    book: OfferBook,
    params: ModelParams,
) -> Fraction:
    """Settle one fill immediately; returns the platform's exit fee on it.

    Shares move to the buyer, the notional moves to the seller, and the
    book's offer is reduced or removed. The fee (exit_fee_rate of notional)
    accrues to the platform; it is withheld from the seller's proceeds only
    when debit_exit_fee is set. Raises ContractViolation if the fill does
    not match a live offer or either party cannot cover its leg.
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
    notional = fill.notional
    if notional != offer.price_exact * fill.units:
        raise ContractViolation("fill notional does not equal price * units")
    if buyer.cash < notional:
        raise ContractViolation("buyer cannot cover the notional")
    if seller.shares < fill.units:
        raise ContractViolation("seller does not hold the filled units")
    fee = _transfer(fill, buyer, seller, params)
    book.apply_fill(fill.seller, fill.units)
    return fee


def _transfer(
    fill: TradeFill, buyer: AgentState, seller: AgentState, params: ModelParams
) -> Fraction:
    """Move the fill's shares to the buyer and its notional to the seller,
    less the exit fee when debit_exit_fee is set; returns the fee. Shared by
    live settlement and replay, so both land on the same exact balances."""
    notional = fill.notional
    fee = _frac(params.exit_fee_rate) * notional
    buyer.shares += fill.units
    buyer.cash -= notional
    seller.shares -= fill.units
    seller.cash += notional - fee if params.debit_exit_fee else notional
    return fee
