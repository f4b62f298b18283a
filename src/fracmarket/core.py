"""Domain types for a sell-offer-driven secondary market in fractional shares.

The market trades whole shares of a single asset against cash. Sellers post
priced sell offers into a one-sided book during a pre-trading phase; buyers
then accept offers, fully or partially, over a fixed number of trading
iterations. Buyers cannot post bids, and offers that remain unmatched at the
end of a trading day are deleted, so no order state survives across days.

Cash is exact: every binary float is a dyadic rational and converts
without loss, which lets conservation checks use equality instead of
tolerances. An agent holds its cash as two plain integers, `cn / cd`, not
necessarily in lowest terms; a `fractions.Fraction` is built only when
`agent.cash` is read. The `agents` docstring sets out how settlement
updates the pair, why `cd` stays bounded however long an agent trades,
and why the float gate before the exact budget test changes no result.
"""

from __future__ import annotations

import contextlib
import math
import operator
import numbers
import sys
import typing
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from enum import Enum
from fractions import Fraction
from functools import partial

import numpy as np

__all__ = [
    "AgentId",
    "AgentKind",
    "AgentState",
    "ConfigError",
    "ContractViolation",
    "EndowmentError",
    "MarketError",
    "ModelParams",
    "Offer",
    "OfferBook",
    "Rng",
    "as_count",
    "as_number",
    "as_seed",
    "make_rng",
]

# Agents are addressed by their dense index into the population list.
AgentId = int

# All randomness flows through numpy Generator objects (PCG64 under
# np.random.default_rng), seeded explicitly by the caller.
Rng = np.random.Generator


def make_rng(seed: int | np.random.SeedSequence) -> Rng:
    """Return the generator used throughout the simulator (PCG64). A seed
    that is not a SeedSequence must pass `as_seed`."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = as_seed(seed)
    return np.random.default_rng(seed)


class MarketError(Exception):
    """Base class for all errors raised by this package."""


class ContractViolation(MarketError):
    """An operation was called in a state its contract forbids."""


class ConfigError(MarketError):
    """A parameter set or configuration input is invalid."""


class EndowmentError(MarketError):
    """An endowment file or profile could not be used."""


class AgentKind(Enum):
    """Participant role, fixed for the lifetime of an agent.

    Pure sellers hold shares and no cash role; pure buyers hold cash and no
    shares; buyer-sellers may hold both and act on both sides of the market.
    """

    PURE_SELLER = "PS"
    PURE_BUYER = "PB"
    BUYER_SELLER = "BS"

    @property
    def sells(self) -> bool:
        return self is not AgentKind.PURE_BUYER

    @property
    def buys(self) -> bool:
        return self is not AgentKind.PURE_SELLER


class AgentState:
    """Mutable balance sheet of one market participant.

    `AgentState(id, kind, shares, cash)` takes cash as any exact number (an
    int, a Fraction, a float, a Decimal or a decimal string) and stores it
    as the integer pair `cn / cd`, `cd > 0`, not necessarily reduced.
    Reading `cash` returns the reduced Fraction; assigning it replaces the
    pair. Equality compares values, the cash by cross-multiplication.
    """

    __slots__ = ("id", "kind", "shares", "cn", "cd")

    def __init__(self, id: AgentId, kind: AgentKind, shares: int, cash) -> None:
        self.id = id
        self.kind = kind
        self.shares = shares if type(shares) is int else int(shares)
        self.cash = cash
        if self.shares < 0:
            raise ContractViolation(f"agent {id}: negative shares {self.shares}")
        if self.cn < 0:
            raise ContractViolation(f"agent {id}: negative cash {self.cash}")

    @property
    def cash(self) -> Fraction:
        return Fraction(self.cn, self.cd)

    @cash.setter
    def cash(self, value) -> None:
        # exact type checks; Fraction's metaclass makes isinstance costly
        t = type(value)
        if t is not int and t is not float and t is not Fraction:
            value = Fraction(value)
        self.cn, self.cd = value.as_integer_ratio()

    def __eq__(self, other) -> bool:
        if type(other) is not AgentState:
            return NotImplemented
        return (self.id, self.kind, self.shares) == (
            other.id,
            other.kind,
            other.shares,
        ) and self.cn * other.cd == other.cn * self.cd

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return (
            f"AgentState(id={self.id!r}, kind={self.kind!r}, "
            f"shares={self.shares!r}, cash={self.cash!r})"
        )

    def copy(self) -> "AgentState":
        out = AgentState.__new__(AgentState)  # the pair as it is, unvalidated
        out.id, out.kind, out.shares = self.id, self.kind, self.shares
        out.cn, out.cd = self.cn, self.cd
        return out


# a kind column holds each agent's kind as its position in this tuple, the
# block order of a generated population
KIND_ORDER = (AgentKind.PURE_BUYER, AgentKind.PURE_SELLER, AgentKind.BUYER_SELLER)
_KIND_CODE = {k: c for c, k in enumerate(KIND_ORDER)}


class LazyPopulation(Sequence[AgentState]):
    """A population read as columns, its agents built on first use; the
    engine reads every population in this form (see `of`). Agent `i` has
    kind `KIND_ORDER[kinds[i]]` and starting cash `cash[i]` (`_float_cash`).
    `pop[i]` is `build(i)`, made the first time it is asked for, and that
    same object afterwards. The columns do not follow trades, so a
    population runs one day (`start_trading`)."""

    __slots__ = ("kinds", "cash", "_agents", "_build", "_traded")

    def __init__(self, kinds: np.ndarray, cash: np.ndarray, build) -> None:
        self.kinds, self.cash, self._build = kinds, cash, build
        self._agents: list[AgentState | None] = [None] * len(kinds)
        self._traded = False

    @classmethod
    def of(cls, population: Sequence[AgentState]) -> "LazyPopulation":
        """`population` itself if lazy; else a view of the roster whose
        `pop[i]` is its own agent `i`, so a day settles on it in place. A
        roster's ids must be its positions, or ConfigError is raised."""
        if isinstance(population, LazyPopulation):
            return population
        agents = list(population)
        for pos, a in enumerate(agents):
            if not isinstance(a, AgentState):
                raise ConfigError(f"population roster contains a non-agent: {_quote(a)}")
            if a.id != pos:
                raise ConfigError(
                    f"population roster: agent at position {pos} has id {a.id}; "
                    "ids must be the list positions 0, 1, 2, ..."
                )
        kinds = np.array([_KIND_CODE[a.kind] for a in agents], dtype=np.int8)
        return cls(kinds, np.array([_float_cash(a) for a in agents]), agents.__getitem__)

    def copy(self) -> "LazyPopulation":
        """A fresh population from the same starting balances: agent `i` is
        a copy of `build(i)` made on first use, so a day copies what it touches."""
        return LazyPopulation(self.kinds, self.cash, partial(_copied, self._build))

    def start_trading(self) -> None:
        """Mark the population's one trading run. A second raises
        ContractViolation before anything settles: it would read the
        first day's starting cash from the columns."""
        if self._traded:
            raise ContractViolation("a population runs one day; run the next on list(population)")
        self._traded = True

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> AgentState:
        agent = self._agents[i]
        if agent is None:
            agent = self._agents[i] = self._build(i)
        return agent


def _copied(build, i: int) -> AgentState:
    return build(i).copy()


def _float_cash(agent: AgentState) -> float:
    """`float(agent.cash)`, or infinity for cash beyond float range. Integer
    division rounds correctly, so the unreduced pair gives the same float."""
    try:
        return agent.cn / agent.cd
    except OverflowError:
        return math.inf


@dataclass(slots=True)
class Offer:
    """A live sell offer: `quantity` whole shares at unit price `price`.

    `entry_order` is assigned by the book at insertion and is unique within a
    day; ties between equally priced offers are broken in favour of the
    earlier entry.
    """

    price: float
    quantity: int
    seller: AgentId
    entry_order: int = -1

    def __post_init__(self) -> None:
        self.price = float(self.price)
        self.quantity = int(self.quantity)

    def copy(self) -> "Offer":
        out = Offer(self.price, self.quantity, self.seller)
        out.entry_order = self.entry_order
        return out


class OfferBook:
    """Insertion-ordered collection of live sell offers.

    The book is rebuilt from scratch every trading day. It enforces at most
    one live offer per seller and hands out monotonically increasing entry
    numbers so that price ties always resolve the same way. `offers` keeps
    the live offers in entry order; `_by_seller` indexes the same objects by
    seller, and `below(p_ref)` lists those priced below a reference price.
    """

    __slots__ = ("offers", "_by_seller", "_next_entry", "_below", "_below_ref")

    def __init__(self) -> None:
        self.offers: list[Offer] = []
        self._by_seller: dict[AgentId, Offer] = {}
        self._next_entry = 0
        # the live offers priced below _below_ref, in entry order; built by
        # the first below() call, then kept current by insert and apply_fill
        self._below: list[Offer] = []
        self._below_ref = -math.inf

    def __len__(self) -> int:
        return len(self.offers)

    def insert(self, offer: Offer) -> Offer:
        """Add `offer` to the book, assigning its entry number.

        Raises ContractViolation for a non-positive quantity or price, or if
        the seller already has a live offer.
        """
        if offer.quantity < 1:
            raise ContractViolation(
                f"offer from seller {offer.seller} has quantity {offer.quantity}"
            )
        if not (offer.price > 0.0) or not math.isfinite(offer.price):
            raise ContractViolation(
                f"offer from seller {offer.seller} has price {offer.price}"
            )
        if offer.seller in self._by_seller:
            raise ContractViolation(f"seller {offer.seller} already has a live offer")
        offer.entry_order = self._next_entry
        self._next_entry += 1
        self.offers.append(offer)
        self._by_seller[offer.seller] = offer
        if offer.price < self._below_ref:
            self._below.append(offer)
        return offer

    def find(self, seller: AgentId) -> Offer | None:
        return self._by_seller.get(seller)

    def below(self, p_ref: float) -> list[Offer]:
        """The live offers priced strictly below `p_ref`, in entry order.

        The list is the book's own index, kept current as offers enter and
        are used up; callers must not modify it. Asking for another
        reference price rebuilds it.
        """
        if p_ref != self._below_ref:
            self._below = [o for o in self.offers if o.price < p_ref]
            self._below_ref = p_ref
        return self._below

    def apply_fill(self, seller: AgentId, units: int) -> Offer:
        """Consume `units` shares from the live offer of `seller`.

        The offer is removed once its quantity reaches zero. Returns the
        affected offer (post-reduction). Raises ContractViolation if there is
        no live offer from `seller` or `units` is not in [1, quantity].
        """
        offer = self.find(seller)
        if offer is None:
            raise ContractViolation(f"no live offer from seller {seller}")
        if units < 1 or units > offer.quantity:
            raise ContractViolation(
                f"fill of {units} units against offer of {offer.quantity}"
            )
        offer.quantity -= units
        if offer.quantity == 0:
            # both lists are in entry order, so a used-up offer is found by
            # bisection on its entry number
            del self.offers[bisect_left(self.offers, offer.entry_order, key=_ENTRY)]
            if offer.price < self._below_ref:
                del self._below[bisect_left(self._below, offer.entry_order, key=_ENTRY)]
            del self._by_seller[seller]
        return offer

    def snapshot(self) -> "OfferBook":
        """Deep copy preserving entry numbers, for start-of-day records.

        The copy's below-reference index is built on its first `below` call.
        """
        out = OfferBook()
        out.offers = [o.copy() for o in self.offers]
        out._by_seller = {o.seller: o for o in out.offers}
        out._next_entry = self._next_entry
        return out


_ENTRY = operator.attrgetter("entry_order")


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Behavioural parameters of the simulated market.

    Price bounds are multiples of the reference price `p_ref`: a seller
    drawing from (0.75, 1.05) posts between 75% and 105% of `p_ref`. The
    defaults are the calibrated baseline configuration.
    """

    p_ref: float = 50.0  # platform-quoted reference price per share

    # pure sellers: offer with prob ps_offer_prob, list floor(ratio * holding)
    ps_offer_prob: float = 0.114
    ps_offer_ratio: float = 0.603
    ps_price_lo: float = 0.75
    ps_price_hi: float = 1.05

    # pure buyers: shop with prob pb_trade_prob, budget ratio of cash,
    # accept a uniformly drawn offer with logistic probability of slope k_pb
    pb_trade_prob: float = 0.092
    pb_purchase_ratio: float = 0.566
    k_pb: float = 2.0

    # buyer-sellers, offer side
    bs_offer_prob: float = 0.278
    bs_offer_ratio: float = 0.333
    bs_price_lo: float = 0.80
    bs_price_hi: float = 1.10

    # buyer-sellers, buy side: sample up to bs_search_len offers priced
    # below p_ref and take the cheapest
    bs_trade_prob: float = 0.104
    bs_purchase_ratio: float = 0.485
    bs_search_len: int = 5

    # envelope of admissible valuations, used to derive the per-kind bounds
    market_lo: float = 0.75
    market_hi: float = 1.10

    n_trading_iters: int = 12

    # the platform keeps exit_fee_rate of each trade's notional; by default
    # the fee is reported as revenue but not debited from seller proceeds
    exit_fee_rate: float = 0.02
    debit_exit_fee: bool = False

    @classmethod
    def baseline(cls) -> "ModelParams":
        return cls()

    def with_ranges_from_market(self, lo: float, hi: float) -> "ModelParams":
        """Copy with the valuation envelope moved to (lo, hi).

        Per-kind bounds are re-derived by shrinking the envelope by 0.05 on
        one side each: pure sellers use (lo, hi - 0.05), buyer-sellers
        (lo + 0.05, hi), so buyer-sellers skew 0.05 higher. The new envelope
        must be at least 0.10 wide for both to stay ordered.
        """
        return self.replace(
            market_lo=lo,
            market_hi=hi,
            ps_price_lo=lo,
            ps_price_hi=hi - 0.05,
            bs_price_lo=lo + 0.05,
            bs_price_hi=hi,
        )

    def validate(self) -> None:
        """Raise ConfigError listing every field out of its range."""
        problems: list[str] = []
        # every probability, ratio and rate, as the field names say, lies in [0, 1]
        for name in (n for n in _FIELD_TYPES if n.endswith(("_prob", "_ratio", "_rate"))):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                problems.append(f"{name}={_quote(v)} not in [0, 1]")
        p_ref_ok = 0 < self.p_ref < math.inf
        if not p_ref_ok:
            problems.append(f"p_ref={_quote(self.p_ref)} not positive and finite")
        if not math.isfinite(self.k_pb):
            problems.append(f"k_pb={_quote(self.k_pb)} not finite")
        # zero-width bounds (lo == hi) are legal so degenerate price draws
        # can be scripted in tests. The two price bands price offers from
        # lo * p_ref to hi * p_ref; the market envelope only derives them.
        for lo_name, hi_name, prices in (
            ("ps_price_lo", "ps_price_hi", True),
            ("bs_price_lo", "bs_price_hi", True),
            ("market_lo", "market_hi", False),
        ):
            lo, hi = getattr(self, lo_name), getattr(self, hi_name)
            if not (0.0 < lo <= hi < math.inf):
                problems.append(
                    f"({lo_name}, {hi_name})=({_quote(lo)}, {_quote(hi)})"
                    " must satisfy 0 < lo <= hi < inf"
                )
            elif prices and p_ref_ok:
                band = (lo * self.p_ref, hi * self.p_ref)
                if not (band[0] > 0.0 and band[1] < math.inf):
                    problems.append(
                        f"({lo_name}, {hi_name}) * p_ref={band} must be positive and finite"
                    )
        for name in (n for n, kind in _FIELD_TYPES.items() if kind is int):
            if getattr(self, name) < 1:
                problems.append(f"{name}={_quote(getattr(self, name))} not a positive int")
        if problems:
            raise ConfigError("invalid parameters: " + "; ".join(problems))

    def __post_init__(self) -> None:
        _read_then_validate(self, _FIELD_TYPES, "invalid parameters")

    @staticmethod
    def coerce(name: str, value) -> float | int | bool:
        """`value` read as field `name` reads it (`as_number`); ConfigError
        for a field that does not exist. Ranges are left to `validate`."""
        kind = _FIELD_TYPES.get(name)
        if kind is None:
            raise ConfigError(f"unknown parameter field {_quote(name)}")
        return as_number(name, value, kind)

    replace = replace  # dataclasses.replace: a copy with fields changed, checked when made

    @staticmethod
    def field_names() -> tuple[str, ...]:
        return tuple(f.name for f in fields(ModelParams))


def _is_number(value, kind: type = float) -> bool:
    """The one test for a number: an integer (numpy's included; for
    `kind=float` only within float range, so arithmetic on it cannot
    overflow) or, for `kind=float`, a float; never a bool."""
    if isinstance(value, numbers.Integral):
        return not isinstance(value, bool) and (kind is int or abs(value) <= sys.float_info.max)
    return isinstance(value, kind)


def as_number(name: str, value, kind: type = float) -> float | int | bool:
    """`value` read as a float, an integer or a flag (`kind` float, int or bool).

    The one reader for every number a config type or a setting is given, at
    every door. A float takes a number (`_is_number`) or numeric text; an
    integer an integer, read exactly, or an integral float or text; a flag a
    bool (numpy's too), 0 or 1 as a number or text, or true or false in any
    case. A bool is never a number. Anything else raises ConfigError naming
    `name` and the value. Ranges are left to the caller.
    """
    if kind is bool:
        x = value
        if isinstance(value, str):  # a word, or numeric text read as its number
            x = {"true": True, "false": False}.get(value.strip().lower(), value)
            with contextlib.suppress(ValueError):
                x = float(value)
        if isinstance(x, (numbers.Real, np.bool_)) and x in (0, 1):
            return bool(x)
        raise ConfigError(f"{name}={_quote(value)} is not a flag (true, false, 0 or 1)")
    if kind is int and (isinstance(value, str) or _is_number(value, int)):
        try:
            return int(value)  # exact where float() would round or overflow, as for 2**60
        except ValueError as e:
            if str(e).startswith("Exceeds the limit"):  # text past the 4300-digit limit
                raise ConfigError(f"{name}={_quote(value)} is too long to read: {e}") from None
    x = None
    if isinstance(value, str) or _is_number(value):
        with contextlib.suppress(ValueError):
            x = float(value)
    if x is None:
        raise ConfigError(f"{name}={_quote(value)} is not a number")
    if kind is float:
        return x
    if not x.is_integer():
        raise ConfigError(f"{name}={_quote(value)} is not an integer")
    return int(x)


def _read_then_validate(obj, kinds: dict[str, type], what: str) -> None:
    """Set each field of the frozen dataclass `obj` named in `kinds` to its
    value read by `as_number` as that kind, then run `obj.validate()`: so a
    config type that exists is valid. Reading again changes nothing. A
    ConfigError starting with `what` lists every field it cannot read."""
    problems = []
    for name, kind in kinds.items():
        try:
            object.__setattr__(obj, name, as_number(name, getattr(obj, name), kind))
        except ConfigError as e:
            problems.append(str(e))
    if problems:
        raise ConfigError(f"{what}: " + "; ".join(problems))
    obj.validate()


def as_seed(value, name: str = "seed") -> int:
    """`value` read as a master seed for `numpy.random.SeedSequence`, which
    would reject anything else with a raw ValueError or TypeError: an
    integer (`as_number`) that is not negative. Raises ConfigError naming
    `name` and the value."""
    return _as_int(value, name, 0, "non-negative")


def as_count(value, name: str) -> int:
    """`value` read as a count, such as a number of days or workers: an
    integer (`as_number`) of at least 1. Raises ConfigError naming `name`
    and the value."""
    return _as_int(value, name, 1, "positive")


def _as_int(value, name: str, least: int, what: str) -> int:  # as_seed's and as_count's check
    if (n := as_number(name, value, int)) >= least:
        return n
    raise ConfigError(f"{name}={_quote(value)} must be a {what} integer")


def _quote(value) -> str:
    """`repr(value)` for an error message, on one line of at most 80 characters."""
    try:
        text = " ".join(repr(value).splitlines())
    except ValueError:  # an int past the 4300-digit limit for text
        return f"<{type(value).__name__} too long to print>"
    return text if len(text) <= 80 else text[:77] + "..."


# field name -> int, float or bool, read from ModelParams' annotations
_FIELD_TYPES: dict[str, type] = typing.get_type_hints(ModelParams)
