"""Offer book bookkeeping and parameter validation."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracmarket import (
    AgentKind,
    AgentState,
    ConfigError,
    ContractViolation,
    ModelParams,
    OfferBook,
    make_rng,
    run_day,
)
from fracmarket.core import LazyPopulation

from conftest import make_agent, make_offer, make_params, make_population


def test_insert_into_empty_book():
    book = OfferBook()
    offer = book.insert(make_offer(price=45.0, quantity=5, seller=3))
    assert len(book) == 1
    assert offer.entry_order == 0
    assert book.find(3) is offer


def test_entry_order_strictly_increasing():
    book = OfferBook()
    orders = [book.insert(make_offer(seller=s)).entry_order for s in range(20)]
    assert orders == sorted(orders)
    assert len(set(orders)) == 20


def test_second_offer_from_same_seller_rejected():
    book = OfferBook()
    book.insert(make_offer(seller=7))
    with pytest.raises(ContractViolation):
        book.insert(make_offer(seller=7, price=50.0))


def test_zero_quantity_offer_rejected():
    book = OfferBook()
    with pytest.raises(ContractViolation):
        book.insert(make_offer(quantity=0))


def test_nonpositive_price_rejected():
    book = OfferBook()
    with pytest.raises(ContractViolation):
        book.insert(make_offer(price=0.0))
    with pytest.raises(ContractViolation):
        book.insert(make_offer(price=-3.0))


def test_partial_fill_reduces_quantity():
    book = OfferBook()
    book.insert(make_offer(quantity=5, seller=1))
    offer = book.apply_fill(seller=1, units=2)
    assert offer.quantity == 3
    assert len(book) == 1


def test_full_fill_removes_offer():
    book = OfferBook()
    book.insert(make_offer(quantity=5, seller=1))
    book.apply_fill(seller=1, units=5)
    assert len(book) == 0
    assert book.find(1) is None


def test_overfill_rejected():
    book = OfferBook()
    book.insert(make_offer(quantity=5, seller=1))
    with pytest.raises(ContractViolation):
        book.apply_fill(seller=1, units=6)
    with pytest.raises(ContractViolation):
        book.apply_fill(seller=1, units=0)


def test_fill_against_unknown_seller_rejected():
    book = OfferBook()
    with pytest.raises(ContractViolation):
        book.apply_fill(seller=9, units=1)


def test_snapshot_is_independent():
    book = OfferBook()
    book.insert(make_offer(quantity=5, seller=1))
    snap = book.snapshot()
    book.apply_fill(seller=1, units=5)
    assert len(book) == 0
    assert len(snap) == 1
    assert snap.offers[0].quantity == 5


def test_random_op_sequences_keep_book_consistent():
    # seeded fuzz over inserts and fills; the book must never hold two
    # offers from one seller, lose entry ordering, or go negative
    rng = make_rng(101)
    for _ in range(50):
        book = OfferBook()
        live_qty: dict[int, int] = {}
        inserted = 0
        for _ in range(200):
            if live_qty and rng.random() < 0.5:
                seller = int(rng.choice(sorted(live_qty)))
                take = int(rng.integers(1, live_qty[seller] + 1))
                book.apply_fill(seller, take)
                live_qty[seller] -= take
                if live_qty[seller] == 0:
                    del live_qty[seller]
            else:
                seller = int(rng.integers(0, 40))
                qty = int(rng.integers(1, 10))
                if seller in live_qty:
                    with pytest.raises(ContractViolation):
                        book.insert(make_offer(seller=seller, quantity=qty))
                    continue
                book.insert(make_offer(seller=seller, quantity=qty))
                live_qty[seller] = qty
                inserted += 1
            sellers = [o.seller for o in book.offers]
            assert len(sellers) == len(set(sellers))
            entries = [o.entry_order for o in book.offers]
            assert entries == sorted(entries)
            assert all(o.quantity >= 1 for o in book.offers)
            assert {o.seller: o.quantity for o in book.offers} == live_qty


# --- the below-reference index and removal by entry order -------------------

# prices on a coarse grid around the reference, so ties and offers priced
# exactly at p_ref (never below it) are common
_BOOK_OPS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(0, 15),
        st.sampled_from([40.0, 45.5, 49.999, 50.0, 50.001, 55.0]),
        st.integers(1, 4),
    ),
    max_size=80,
)


def _below(book: OfferBook, p_ref: float) -> list:
    return [o for o in book.offers if o.price < p_ref]


def _same_objects(a: list, b: list) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


@given(ops=_BOOK_OPS, early=st.booleans())
def test_below_index_tracks_random_inserts_and_fills(ops, early):
    # the index is either built before the first insert (and kept current
    # from then on) or built late, from a book that already holds offers
    p_ref = 50.0
    book = OfferBook()
    if early:
        assert book.below(p_ref) == []
    for is_fill, seller, price, qty in ops:
        live = book.find(seller)
        if is_fill and live is not None:
            book.apply_fill(seller, min(qty, live.quantity))
        elif not is_fill and live is None:
            book.insert(make_offer(price=price, quantity=qty, seller=seller))
        if early:
            assert _same_objects(book.below(p_ref), _below(book, p_ref))
    assert _same_objects(book.below(p_ref), _below(book, p_ref))
    snap = book.snapshot()
    assert _same_objects(snap.below(p_ref), _below(snap, p_ref))
    # the snapshot's index holds its own copies, and a fill on the book
    # leaves it alone
    assert not any(x is y for x in snap.below(p_ref) for y in book.offers)
    for o in list(book.below(p_ref)):
        book.apply_fill(o.seller, o.quantity)
    assert book.below(p_ref) == [] and _below(book, p_ref) == []
    assert _same_objects(snap.below(p_ref), _below(snap, p_ref))
    # another reference price gives that price's list
    assert _same_objects(snap.below(55.0), _below(snap, 55.0))


def test_used_up_offers_are_removed_by_entry_order():
    book = OfferBook()
    offers = [book.insert(make_offer(price=40.0, quantity=2, seller=s)) for s in range(8)]
    book.below(50.0)
    for used_up, seller in enumerate((5, 0, 7, 3)):
        book.apply_fill(seller, 1)  # a partial fill removes nothing
        assert len(book) == 8 - used_up
        book.apply_fill(seller, 1)
        assert len(book) == 7 - used_up
    left = [1, 2, 4, 6]
    assert _same_objects(book.offers, [offers[i] for i in left])
    assert _same_objects(book.below(50.0), [offers[i] for i in left])
    assert [o.entry_order for o in book.offers] == left
    assert all(book.find(s) is None for s in (0, 3, 5, 7))


def test_agent_state_rejects_negative_balances():
    with pytest.raises(ContractViolation):
        AgentState(0, AgentKind.PURE_BUYER, -1, Fraction(0))
    with pytest.raises(ContractViolation):
        AgentState(0, AgentKind.PURE_BUYER, 0, Fraction(-1))
    with pytest.raises(ContractViolation, match="negative cash -1/4"):
        AgentState(3, AgentKind.PURE_BUYER, 0, -0.25)


def test_agent_state_copy_is_deep_enough():
    a = make_agent(shares=5, cash=10)
    b = a.copy()
    b.shares += 1
    b.cash += 1
    assert a.shares == 5 and a.cash == 10
    a.cn, a.cd = 70, 7
    b = a.copy()
    assert (b.id, b.kind, b.shares, b.cn, b.cd) == (a.id, a.kind, 5, 70, 7)


def test_agent_state_holds_cash_as_an_integer_pair():
    assert (make_agent(cash=7).cn, make_agent(cash=7).cd) == (7, 1)
    a = AgentState(0, AgentKind.PURE_BUYER, 0, Fraction(10, 4))
    assert (a.cn, a.cd) == (5, 2) and type(a.cash) is Fraction
    for cash, want in ((0.1, Fraction(0.1)), ("12.34", Fraction(1234, 100)), (True, 1)):
        assert AgentState(0, AgentKind.PURE_BUYER, 0, cash).cash == want
    a.cn, a.cd = 30, 6  # an unreduced pair, as settlement leaves it
    assert a.cash == 5 and (a.cash.numerator, a.cash.denominator) == (5, 1)
    a.cash += Fraction(1, 3)
    assert a.cash == Fraction(16, 3)
    a.cash = 0.5
    assert (a.cn, a.cd) == (1, 2)
    a.cash = 4
    assert (a.cn, a.cd) == (4, 1)


def test_agent_state_equality_compares_values():
    a = make_agent(id=2, kind=AgentKind.BUYER_SELLER, shares=3, cash=Fraction(3, 2))
    b = a.copy()
    b.cn, b.cd = 3 * 2**60, 2**61  # the same cash, unreduced
    assert a == b and not a != b
    assert a != make_agent(id=2, kind=AgentKind.BUYER_SELLER, shares=3, cash=Fraction(3, 4))
    assert a != make_agent(id=2, kind=AgentKind.BUYER_SELLER, shares=4, cash=Fraction(3, 2))
    assert a != make_agent(id=1, kind=AgentKind.BUYER_SELLER, shares=3, cash=Fraction(3, 2))
    assert a != make_agent(id=2, kind=AgentKind.PURE_BUYER, shares=3, cash=Fraction(3, 2))
    assert a != (2, AgentKind.BUYER_SELLER, 3, Fraction(3, 2))
    with pytest.raises(TypeError):
        hash(a)


def test_agent_state_repr_shows_the_reduced_cash():
    a = make_agent(id=4, kind=AgentKind.PURE_BUYER, shares=0, cash=1)
    a.cn, a.cd = 9, 6
    assert repr(a) == (
        "AgentState(id=4, kind=<AgentKind.PURE_BUYER: 'PB'>, shares=0, cash=Fraction(3, 2))"
    )


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_agent_state_pickles(protocol):
    a = make_agent(id=9, kind=AgentKind.BUYER_SELLER, shares=12, cash=Fraction(1234, 100))
    a.cn, a.cd = a.cn * 2**50, a.cd * 2**50
    b = pickle.loads(pickle.dumps([a], protocol))[0]
    assert type(b) is AgentState and b == a
    assert (b.id, b.kind, b.shares, b.cn, b.cd) == (a.id, a.kind, a.shares, a.cn, a.cd)


def test_a_roster_view_is_the_roster_and_its_copy_copies_on_first_use():
    roster = make_population(n_pb=2, n_ps=1, n_bs=1)
    view = LazyPopulation.of(roster)
    assert LazyPopulation.of(view) is view
    assert all(view[i] is a for i, a in enumerate(roster))
    assert view.kinds.tolist() == [0, 0, 1, 2]
    assert view.cash.tolist() == [100.0, 100.0, 0.0, 100.0]
    # a pool's workers may receive the view pickled
    day = pickle.loads(pickle.dumps(view)).copy()
    assert day[3] == roster[3] and day[3] is not roster[3] and day[3] is day[3]
    assert day._agents.count(None) == 3


def test_agent_kind_roles():
    assert AgentKind.PURE_SELLER.sells and not AgentKind.PURE_SELLER.buys
    assert AgentKind.PURE_BUYER.buys and not AgentKind.PURE_BUYER.sells
    assert AgentKind.BUYER_SELLER.buys and AgentKind.BUYER_SELLER.sells


def test_baseline_params_valid():
    ModelParams.baseline().validate()


def test_baseline_defaults():
    p = ModelParams.baseline()
    assert p.p_ref == 50.0
    assert p.ps_offer_prob == 0.114
    assert p.ps_offer_ratio == 0.603
    assert (p.ps_price_lo, p.ps_price_hi) == (0.75, 1.05)
    assert p.pb_trade_prob == 0.092
    assert p.pb_purchase_ratio == 0.566
    assert p.k_pb == 2.0
    assert p.bs_offer_prob == 0.278
    assert p.bs_offer_ratio == 0.333
    assert (p.bs_price_lo, p.bs_price_hi) == (0.80, 1.10)
    assert p.bs_trade_prob == 0.104
    assert p.bs_purchase_ratio == 0.485
    assert p.bs_search_len == 5
    assert (p.market_lo, p.market_hi) == (0.75, 1.10)
    assert p.n_trading_iters == 12
    assert p.exit_fee_rate == 0.02
    assert p.debit_exit_fee is False


def test_validation_reports_every_problem():
    with pytest.raises(ConfigError) as e:
        make_params(ps_offer_prob=1.5, pb_purchase_ratio=-0.1, p_ref=0.0)
    msg = str(e.value)
    assert "ps_offer_prob" in msg and "pb_purchase_ratio" in msg and "p_ref" in msg


def test_validation_rejects_bools_for_numeric_fields():
    with pytest.raises(ConfigError) as e:
        make_params(
            pb_trade_prob=True, exit_fee_rate=False, k_pb=True, p_ref=True, ps_price_lo=True
        )
    msg = str(e.value)
    assert "\n" not in msg
    for name in ("pb_trade_prob=True", "exit_fee_rate=False", "k_pb=True", "p_ref=True", "ps_price_lo"):
        assert name in msg


def test_price_bounds_must_be_ordered():
    with pytest.raises(ConfigError):
        make_params(ps_price_lo=1.1, ps_price_hi=0.9).validate()
    with pytest.raises(ConfigError):
        make_params(market_lo=0.0, market_hi=1.0).validate()
    for bad in ({"p_ref": math.inf}, {"p_ref": math.nan},
                {"ps_price_hi": math.inf}, {"market_lo": 0.75, "market_hi": math.inf}):
        with pytest.raises(ConfigError):
            make_params(**bad).validate()


@pytest.mark.parametrize(
    "fields, band",
    [
        # lo * p_ref underflows to 0: offers would be priced 0.0
        (dict(p_ref=1e-200, ps_price_lo=1e-200, ps_price_hi=1e-200), r"\(0\.0, 0\.0\)"),
        # hi * p_ref overflows: offers would be priced nan
        (dict(p_ref=1e300, ps_price_lo=1e10, ps_price_hi=1e10), r"\(inf, inf\)"),
        (dict(p_ref=1e300, bs_price_lo=0.5, bs_price_hi=1e10), r"\(5e\+299, inf\)"),
        # ints within float range whose exact product is not, but whose float one is inf
        (dict(p_ref=10**200, ps_price_lo=1, ps_price_hi=10**200), r"\(1e\+200, inf\)"),
    ],
)
def test_a_price_band_times_p_ref_must_be_positive_and_finite(fields, band):
    with pytest.raises(ConfigError, match=r"price_hi\) \* p_ref=" + band) as e:
        make_params(ps_offer_prob=1.0, **fields)
    assert "\n" not in str(e.value)
    seller = make_agent(0, AgentKind.PURE_SELLER, shares=10)
    with pytest.raises(ConfigError):
        run_day([seller], make_params(ps_offer_prob=1.0, **fields), 0)


def test_zero_width_price_bounds_allowed():
    make_params(ps_price_lo=0.9, ps_price_hi=0.9).validate()


def test_search_len_and_iters_must_be_positive_ints():
    with pytest.raises(ConfigError):
        make_params(bs_search_len=0).validate()
    with pytest.raises(ConfigError):
        make_params(n_trading_iters=0).validate()
    with pytest.raises(ConfigError, match="bs_search_len"):
        make_params(bs_search_len=True).validate()
    with pytest.raises(ConfigError, match="n_trading_iters"):
        make_params(n_trading_iters=True).validate()


@pytest.mark.parametrize(
    "flag, want",
    [("false", False), (" TRUE ", True), (0, False), (1, True), (1.0, True),
     (np.bool_(True), True), (False, False), (None, None), ("yes", None), (2, None)],
)
def test_debit_exit_fee_reads_a_flag_as_every_door_does(flag, want):
    # read as a flag, never by truth: the string "false" does not debit the fee
    if want is None:
        message = rf"^invalid parameters: debit_exit_fee={flag!r} is not a flag \(true, false, 0 or 1\)$"
        with pytest.raises(ConfigError, match=message):
            make_params(debit_exit_fee=flag)
    else:
        assert make_params(debit_exit_fee=flag).debit_exit_fee is want


def test_numpy_integers_are_int_field_values():
    roster = make_population(30, 15, 8)
    ints = make_params(bs_search_len=2, n_trading_iters=5, bs_trade_prob=0.5)
    numpy_ints = ints.replace(bs_search_len=np.int64(2), n_trading_iters=np.int32(5))
    trace, day = run_day(roster, numpy_ints, 4)
    assert trace.fills and (trace, day) == run_day(make_population(30, 15, 8), ints, 4)
    with pytest.raises(ConfigError, match="bs_search_len=.*0.* not a positive int"):
        make_params(bs_search_len=np.int64(0)).validate()


def test_market_range_derivation():
    p = ModelParams().with_ranges_from_market(0.75, 1.10)
    assert (p.ps_price_lo, p.ps_price_hi) == (0.75, 1.05)
    assert (p.bs_price_lo, p.bs_price_hi) == (0.80, 1.10)
    assert (p.market_lo, p.market_hi) == (0.75, 1.10)


def test_market_range_rederivation_keeps_other_fields():
    base = make_params(pb_trade_prob=0.2)
    p = base.with_ranges_from_market(0.85, 1.00)
    assert p.pb_trade_prob == 0.2
    assert (p.ps_price_lo, p.ps_price_hi) == (0.85, 0.95)
    assert (p.bs_price_lo, p.bs_price_hi) == (0.90, 1.00)


def test_replace_validates():
    with pytest.raises(ConfigError):
        ModelParams.baseline().replace(pb_trade_prob=2.0)


# --- parameter coercion -----------------------------------------------------


def test_coerce_converts_to_the_field_type():
    assert ModelParams.coerce("pb_trade_prob", "0.25") == 0.25
    assert type(ModelParams.coerce("p_ref", 50)) is float
    assert ModelParams.coerce("bs_search_len", "7") == 7
    assert type(ModelParams.coerce("n_trading_iters", 3.0)) is int
    for text, flag in (("true", True), (" FALSE ", False), ("1", True), ("0", False)):
        assert ModelParams.coerce("debit_exit_fee", text) is flag
    assert ModelParams.coerce("debit_exit_fee", 1) is True
    assert ModelParams.coerce("debit_exit_fee", np.bool_(False)) is False


@pytest.mark.parametrize(
    "name, value",
    [
        ("pb_trade_prob", "abc"),
        ("pb_trade_prob", True),
        ("pb_trade_prob", None),
        ("bs_search_len", 2.5),
        ("bs_search_len", "inf"),
        ("debit_exit_fee", "yes"),
        ("debit_exit_fee", 2),
    ],
)
def test_coerce_rejects_with_field_and_value(name, value):
    with pytest.raises(ConfigError) as exc:
        ModelParams.coerce(name, value)
    assert f"{name}={value!r}" in str(exc.value)


def test_coerce_rejects_unknown_field():
    with pytest.raises(ConfigError, match="spread"):
        ModelParams.coerce("spread", 0.5)


_COERCE_INPUTS = st.one_of(
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "False", "0", "1", "1e400", "-inf", "nan", "", " 7 "]),
    st.text(),
)


@given(name=st.sampled_from(ModelParams.field_names()), value=_COERCE_INPUTS)
def test_coerce_returns_field_type_or_config_error(name, value):
    try:
        out = ModelParams.coerce(name, value)
    except ConfigError:
        return
    assert type(out) is type(getattr(ModelParams(), name))
