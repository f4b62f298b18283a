"""Decision rules: offer posting, acceptance, budget fills, settlement."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracmarket import (
    AgentKind,
    ContractViolation,
    DayTrace,
    FillEvent,
    Offer,
    OfferBook,
    TradeFill,
    bs_buy_decide,
    bs_offer_decide,
    compute_day_metrics,
    make_rng,
    pb_accept_prob,
    pb_decide,
    ps_decide,
    replay_fills,
    settle_fill,
)

from fracmarket.agents import _budget_fill

from conftest import make_agent, make_offer, make_params

PS = AgentKind.PURE_SELLER
PB = AgentKind.PURE_BUYER
BS = AgentKind.BUYER_SELLER


# --- offer side -------------------------------------------------------------

# the largest uniform the generator returns, 1 - 2**-53
U_MAX = math.nextafter(1.0, 0.0)


def test_ps_without_shares_posts_nothing():
    params = make_params(ps_offer_prob=1.0)
    agent = make_agent(kind=PS, shares=0)
    assert ps_decide(agent, params, [0.5]) is None


def test_ps_quantity_is_floor_of_ratio_times_holding():
    params = make_params(ps_offer_prob=1.0)
    agent = make_agent(id=4, kind=PS, shares=10)
    offer = ps_decide(agent, params, [0.5])
    assert offer is not None
    assert offer.quantity == 6  # floor(0.603 * 10)
    assert offer.seller == 4
    assert offer.price == 37.5 + 15.0 * 0.5  # (0.75 + 0.30 * u) * 50


def test_ps_floor_to_zero_posts_nothing():
    params = make_params(ps_offer_prob=1.0)
    agent = make_agent(kind=PS, shares=1)  # floor(0.603) == 0
    assert ps_decide(agent, params, [0.5]) is None


def test_bs_offer_quantity_floor():
    params = make_params(bs_offer_prob=1.0)
    agent = make_agent(kind=BS, shares=9)
    offer = bs_offer_decide(agent, params, [0.5])
    assert offer is not None
    assert offer.quantity == 2  # floor(0.333 * 9) = floor(2.997)
    assert 0.80 * 50 <= offer.price <= 1.10 * 50


def test_offer_prices_stay_in_range_over_many_draws():
    params = make_params(ps_offer_prob=1.0, bs_offer_prob=1.0)
    agent = make_agent(kind=PS, shares=10)
    bs_agent = make_agent(kind=BS, shares=10)
    # the band's ends as floats: 1.10 * 50 is 55.00000000000001
    ps_lo, ps_hi = 0.75 * 50, 1.05 * 50
    bs_lo, bs_hi = 0.80 * 50, 1.10 * 50
    rows = make_rng(77).random((10_000, 1)).tolist() + [[0.0], [U_MAX]]
    for u in rows:
        o = ps_decide(agent, params, u)
        assert ps_lo <= o.price <= ps_hi
        o = bs_offer_decide(bs_agent, params, u)
        assert bs_lo <= o.price <= bs_hi
    assert ps_decide(agent, params, [0.0]).price == ps_lo
    assert bs_offer_decide(bs_agent, params, [U_MAX]).price <= bs_hi


def test_offer_price_is_numpys_uniform_formula():
    # the price a row gives is what Generator.uniform makes of the same draw
    params = make_params(ps_offer_prob=1.0)
    agent = make_agent(kind=PS, shares=10)
    a, b = params.ps_price_lo * params.p_ref, params.ps_price_hi * params.p_ref
    rows, draws = make_rng(5), make_rng(5)
    for _ in range(1000):
        assert ps_decide(agent, params, [rows.random()]).price == draws.uniform(a, b)


def test_zero_width_range_pins_the_price():
    params = make_params(ps_offer_prob=1.0, ps_price_lo=0.8, ps_price_hi=0.8)
    agent = make_agent(kind=PS, shares=10)
    for u in (0.0, 0.3, 0.9, U_MAX):
        assert ps_decide(agent, params, [u]).price == 40.0


# --- acceptance probability -------------------------------------------------


def test_accept_prob_is_exactly_half_at_reference():
    assert pb_accept_prob(50.0, make_params()) == 0.5


def test_accept_prob_below_reference_oracle():
    # frozen high-precision value of the logistic one unit under reference
    assert abs(pb_accept_prob(49.0, make_params()) - 0.8807970779778824) < 1e-12


def test_accept_prob_above_reference_oracle():
    assert abs(pb_accept_prob(55.0, make_params()) - 4.5397868702434395e-05) < 1e-15


def test_accept_prob_monotone_decreasing_in_price():
    params = make_params()
    probs = [pb_accept_prob(35.0 + i, params) for i in range(31)]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_accept_prob_saturates_without_overflow():
    params = make_params()
    assert pb_accept_prob(1e9, params) == 0.0
    assert pb_accept_prob(1e-9, params) == 1.0
    assert pb_accept_prob(-1e9, make_params(k_pb=-2.0)) == 0.0


# --- pure buyer -------------------------------------------------------------


def certain_buy_params(**overrides):
    # a price far enough under reference that the logistic saturates to 1.0
    return make_params(pb_trade_prob=1.0, **overrides)


# pick the first offer, accept whenever the acceptance probability is > 0
TAKE_FIRST = [0.0, 0.0]


def test_pb_empty_book_does_nothing():
    agent = make_agent(id=0, kind=PB, cash=100)
    assert pb_decide(agent, OfferBook(), certain_buy_params(), TAKE_FIRST) is None


def test_pb_partial_fill_takes_affordable_units():
    book = OfferBook()
    book.insert(make_offer(price=30.0, quantity=3, seller=1))
    agent = make_agent(id=0, kind=PB, cash=100)
    fill = pb_decide(agent, book, certain_buy_params(), TAKE_FIRST)
    assert fill is not None
    # budget 0.566 * 100 = 56.6, one unit of 30 affordable, two are not
    assert fill.units == 1
    assert fill.price == 30.0
    assert fill.notional == Fraction(30.0)
    assert fill.buyer == 0 and fill.seller == 1


def test_pb_full_fill_when_budget_covers_offer():
    book = OfferBook()
    book.insert(make_offer(price=30.0, quantity=1, seller=1))
    agent = make_agent(id=0, kind=PB, cash=100)
    fill = pb_decide(agent, book, certain_buy_params(), TAKE_FIRST)
    assert fill.units == 1
    assert fill.purchase_budget == Fraction(0.566) * 100


def test_pb_cannot_afford_one_unit_does_nothing():
    book = OfferBook()
    book.insert(make_offer(price=30.0, quantity=3, seller=1))
    agent = make_agent(id=0, kind=PB, cash=10)  # budget 5.66 < 30
    assert pb_decide(agent, book, certain_buy_params(), TAKE_FIRST) is None


def test_pb_certain_rejection_above_clamp():
    book = OfferBook()
    book.insert(make_offer(price=400.0, quantity=3, seller=1))
    agent = make_agent(id=0, kind=PB, cash=10_000)
    # k * (400 - 50) = 700 > clamp, acceptance prob is exactly 0
    for u in [TAKE_FIRST, [0.5, 0.5], [U_MAX, U_MAX]] + make_rng(3).random((10, 2)).tolist():
        assert pb_decide(agent, book, certain_buy_params(), u) is None


def _cheap_book(n: int) -> OfferBook:
    # n offers far below reference, seller i + 1 at entry i
    book = OfferBook()
    for i in range(n):
        book.insert(make_offer(price=20.0 + 0.01 * i, quantity=1, seller=i + 1))
    return book


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000])
def test_pb_pick_spans_the_book_from_first_to_last(n):
    book = _cheap_book(n)
    agent = make_agent(id=0, kind=PB, cash=1000)
    params = certain_buy_params()
    assert pb_decide(agent, book, params, [0.0, 0.0]).seller == 1
    assert pb_decide(agent, book, params, [U_MAX, 0.0]).seller == n
    mid = pb_decide(agent, book, params, [0.5, 0.0])
    assert mid.seller == n // 2 + 1


@given(n=st.integers(1, 2**53 - 1) | st.sampled_from([2**e for e in range(53)]))
def test_largest_uniform_picks_the_last_of_any_count(n):
    # int(u * n) for u = 1 - 2**-53 is n - 1 < n: the pick is always valid
    # (the reason is in the agents docstring)
    assert int(U_MAX * n) == n - 1


def test_pb_accepts_just_below_the_probability_only():
    book = OfferBook()
    book.insert(make_offer(price=49.0, quantity=1, seller=1))
    agent = make_agent(id=0, kind=PB, cash=1000)
    params = certain_buy_params()
    p = pb_accept_prob(49.0, params)
    assert 0.0 < p < 1.0
    assert pb_decide(agent, book, params, [0.0, math.nextafter(p, 0.0)]) is not None
    assert pb_decide(agent, book, params, [0.0, p]) is None
    assert pb_decide(agent, book, params, [0.0, math.nextafter(p, 1.0)]) is None


def test_pb_budget_floor_matches_exact_arithmetic():
    rng = make_rng(5)
    params = certain_buy_params()
    for _ in range(500):
        price = float(rng.uniform(20, 60))
        qty = int(rng.integers(1, 12))
        cash = int(rng.integers(0, 400))
        book = OfferBook()
        book.insert(Offer(price=price, quantity=qty, seller=1))
        agent = make_agent(id=0, kind=PB, cash=cash)
        fill = pb_decide(agent, book, params, TAKE_FIRST)
        budget = Fraction(0.566) * cash
        exact_units = min(qty, int(budget / Fraction(price)))
        if fill is None:
            assert exact_units == 0 or pb_accept_prob(price, params) == 0.0
        else:
            assert fill.units == exact_units
            assert fill.notional == Fraction(price) * exact_units
            assert fill.notional <= budget or fill.units == qty


# --- the float gate before the exact budget test ----------------------------


def _exact_units(cash: Fraction, ratio: float, price: float, qty: int) -> int:
    return min(qty, math.floor(Fraction(ratio) * cash / Fraction(price)))


# at the last two, ratio * float(cash) rounds to just below the price even
# though the exact budget equals it: a gate without a margin would reject
AT_THE_PRICE = [(37.3, 1.0), (37.3, 0.566), (83.92, 0.561), (9.09, 0.274)]


@pytest.mark.parametrize("price, ratio", AT_THE_PRICE)
def test_budget_exactly_at_the_price_buys_one_share(price, ratio):
    cash = Fraction(price) / Fraction(ratio)  # budget == price, exactly
    fill = _budget_fill(make_agent(cash=cash), make_offer(price=price, quantity=3), ratio)
    assert fill is not None and fill.units == 1
    assert fill.purchase_budget == Fraction(price)


@pytest.mark.parametrize("price, ratio", AT_THE_PRICE)
def test_budget_one_float_step_below_the_price_buys_nothing(price, ratio):
    short = Fraction(math.nextafter(price, 0.0))
    cash = short / Fraction(ratio)  # budget one representable step short
    assert _budget_fill(make_agent(cash=cash), make_offer(price=price, quantity=3), ratio) is None


def test_cash_beyond_float_range_is_decided_exactly():
    cash = Fraction(10**400)
    fill = _budget_fill(make_agent(cash=cash), make_offer(price=37.3, quantity=3), 0.5)
    assert fill is not None and fill.units == 3
    assert fill.purchase_budget == Fraction(0.5) * cash
    tiny = Fraction(1, 10**400)  # the float of this budget underflows to 0
    assert _budget_fill(make_agent(cash=tiny), make_offer(price=37.3, quantity=3), 1.0) is None


def test_zero_ratio_buys_nothing():
    offer = make_offer(price=0.01, quantity=3)
    assert _budget_fill(make_agent(cash=10**6), offer, 0.0) is None


@given(
    price=st.floats(1e-3, 1e4),
    ratio=st.floats(0.0, 1.0),
    qty=st.integers(1, 20),
    units=st.integers(0, 25),
    nudge=st.integers(-3, 3),
    den=st.sampled_from([1, 100, 2**40, 3 * 10**7]),
)
def test_budget_fill_equals_the_exact_rule_near_every_boundary(price, ratio, qty, units, nudge, den):
    # cash puts the budget at `units` shares, nudged by a few units of 1/den
    if ratio == 0.0:
        cash = Fraction(abs(nudge), den)
    else:
        cash = max(Fraction(0), Fraction(price) * units / Fraction(ratio) + Fraction(nudge, den))
    fill = _budget_fill(make_agent(cash=cash), make_offer(price=price, quantity=qty), ratio)
    want = _exact_units(cash, ratio, price, qty)
    if want < 1:
        assert fill is None
    else:
        assert fill is not None and fill.units == want
        assert fill.notional == Fraction(price) * want
        assert fill.purchase_budget == Fraction(ratio) * cash


# --- buyer-seller buy side --------------------------------------------------


def test_bs_no_candidates_below_reference():
    book = OfferBook()
    book.insert(make_offer(price=50.0, quantity=3, seller=1))  # not strictly below
    book.insert(make_offer(price=60.0, quantity=3, seller=2))
    agent = make_agent(id=0, kind=BS, cash=1000)
    assert bs_buy_decide(agent, book, make_params(bs_trade_prob=1.0), [0.0] * 5) is None


def test_bs_excludes_own_offer():
    book = OfferBook()
    book.insert(make_offer(price=45.0, quantity=3, seller=0))  # own
    agent = make_agent(id=0, kind=BS, cash=1000)
    assert bs_buy_decide(agent, book, make_params(bs_trade_prob=1.0), [0.0] * 5) is None


def test_bs_takes_cheapest_when_sample_covers_everything():
    book = OfferBook()
    book.insert(make_offer(price=48.0, quantity=3, seller=1))
    book.insert(make_offer(price=45.0, quantity=3, seller=2))
    book.insert(make_offer(price=47.0, quantity=3, seller=3))
    agent = make_agent(id=0, kind=BS, cash=1000)
    params = make_params(bs_trade_prob=1.0, bs_search_len=5)
    # m = 3 <= k = 5: the row is not read, so even an empty one will do
    for u in [[]] + make_rng(0).random((10, 5)).tolist():
        fill = bs_buy_decide(agent, book, params, u)
        assert fill.seller == 2 and fill.price == 45.0


def test_bs_price_tie_goes_to_earlier_entry():
    book = OfferBook()
    book.insert(make_offer(price=45.0, quantity=3, seller=4))
    book.insert(make_offer(price=45.0, quantity=3, seller=2))
    agent = make_agent(id=0, kind=BS, cash=1000)
    params = make_params(bs_trade_prob=1.0, bs_search_len=5)
    fill = bs_buy_decide(agent, book, params, [])
    assert fill.seller == 4


def _descending_book(m: int) -> OfferBook:
    # m candidates below reference, each cheaper than the one before it;
    # seller s + 1 at entry s
    book = OfferBook()
    for s in range(m):
        book.insert(make_offer(price=49.0 - 0.25 * s, quantity=3, seller=s + 1))
    book.insert(make_offer(price=58.0, quantity=3, seller=99))
    return book


def test_bs_zero_row_takes_the_first_k_candidates_in_entry_order():
    # u[j] = 0 swaps position j with itself at every step: the sample is the
    # first k candidates, whose cheapest is the k-th, not the book's cheapest
    agent = make_agent(id=0, kind=BS, cash=1000)
    for k in (1, 3, 11):
        params = make_params(bs_trade_prob=1.0, bs_search_len=k)
        fill = bs_buy_decide(agent, _descending_book(12), params, [0.0] * k)
        assert fill.seller == k


def test_bs_largest_row_swaps_in_the_last_candidate():
    # u[0] = 1 - 2**-53 swaps position 0 with the last, m - 1
    agent = make_agent(id=0, kind=BS, cash=1000)
    params = make_params(bs_trade_prob=1.0, bs_search_len=1)
    fill = bs_buy_decide(agent, _descending_book(12), params, [U_MAX])
    assert fill.seller == 12


def test_bs_sample_is_among_candidates():
    book = OfferBook()
    for s in range(12):
        book.insert(make_offer(price=44.0 + s * 0.25, quantity=3, seller=s + 1))
    book.insert(make_offer(price=58.0, quantity=3, seller=99))
    agent = make_agent(id=0, kind=BS, cash=1000)
    params = make_params(bs_trade_prob=1.0, bs_search_len=3)
    seen = set()
    for u in make_rng(0).random((200, 3)).tolist():
        fill = bs_buy_decide(agent, book, params, u)
        assert fill is not None
        assert fill.price < 50.0
        seen.add(fill.seller)
    assert 99 not in seen
    assert len(seen) > 3  # different samples reach different cheapest picks


def test_bs_sample_is_uniform_without_replacement():
    # prices ascend in entry order, so the pick is the lowest position the
    # sample holds: position i with probability C(m-1-i, k-1) / C(m, k)
    m, k, n = 12, 3, 20_000
    book = OfferBook()
    for s in range(m):
        book.insert(make_offer(price=44.0 + s * 0.25, quantity=3, seller=s + 1))
    book.insert(make_offer(price=58.0, quantity=3, seller=99))
    agent = make_agent(id=0, kind=BS, cash=1000)
    params = make_params(bs_trade_prob=1.0, bs_search_len=k)
    counts = [0] * m
    for u in make_rng(11).random((n, k)).tolist():
        counts[bs_buy_decide(agent, book, params, u).seller - 1] += 1
    for i in range(m):
        p = math.comb(m - 1 - i, k - 1) / math.comb(m, k)
        assert abs(counts[i] - n * p) <= 4 * math.sqrt(n * p * (1 - p)) + 1


def _shuffled_pick(agent, book, params, u):
    # the search as first written: copy the candidates, shuffle a full list
    # of their positions, then take the cheapest of the first k
    candidates = [o for o in book.offers if o.price < params.p_ref and o.seller != agent.id]
    if not candidates:
        return None
    k, m = params.bs_search_len, len(candidates)
    if k < m:
        pos = list(range(m))
        for j in range(k):
            r = j + int(u[j] * (m - j))
            pos[j], pos[r] = pos[r], pos[j]
        candidates = [candidates[i] for i in pos[:k]]
    return min(candidates, key=lambda o: (o.price, o.entry_order))


@settings(max_examples=300, deadline=None)
@given(
    offers=st.lists(
        st.tuples(
            st.sampled_from([40.0, 49.999, 50.0]) | st.floats(30.0, 60.0), st.integers(1, 3)
        ),
        max_size=40,
    ),
    used_up=st.lists(st.integers(0, 39), max_size=10),
    agent_id=st.integers(0, 41),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    head=st.lists(st.sampled_from([0.0, U_MAX]) | st.floats(0.0, U_MAX), max_size=12),
)
# step 0 swaps positions 0 and 1, steps 1 and 2 both reach position 4: the
# second must find there what step 1 put there, the 0 that step 0 moved
@example(
    offers=[(40.0 + s, 3) for s in range(5)], used_up=[], agent_id=41, k=3, seed=0,
    head=[0.3, U_MAX, U_MAX],
)
def test_bs_sparse_search_picks_what_a_full_shuffle_picks(offers, used_up, agent_id, k, seed, head):
    # seller s posts offers[s]; some offers are used up after the index is
    # built, and the agent may or may not have an offer of its own in it.
    # The row is uniform, its first entries replaced by `head`
    u = make_rng(seed).random(12).tolist()
    u[: len(head)] = head
    book = OfferBook()
    for s, (price, qty) in enumerate(offers):
        book.insert(make_offer(price=price, quantity=qty, seller=s))
    book.below(50.0)
    for s in used_up:
        if book.find(s) is not None:
            book.apply_fill(s, book.find(s).quantity)
    agent = make_agent(id=agent_id, kind=BS, cash=10**6)
    params = make_params(bs_trade_prob=1.0, bs_search_len=k)
    want = _shuffled_pick(agent, book, params, u)
    fill = bs_buy_decide(agent, book, params, u)
    if want is None:
        assert fill is None
    else:
        assert (fill.seller, fill.price) == (want.seller, want.price)


def test_bs_budget_uses_bs_ratio():
    book = OfferBook()
    book.insert(make_offer(price=40.0, quantity=10, seller=1))
    agent = make_agent(id=0, kind=BS, cash=200)
    params = make_params(bs_trade_prob=1.0)
    fill = bs_buy_decide(agent, book, params, [])
    # budget 0.485 * 200 = 97, floor(97 / 40) = 2 units
    assert fill.units == 2
    assert fill.purchase_budget == Fraction(0.485) * 200


# --- settlement -------------------------------------------------------------


def test_settle_moves_shares_cash_and_book_exactly():
    book = OfferBook()
    book.insert(make_offer(price=40.0, quantity=5, seller=1))
    buyer = make_agent(id=0, kind=PB, cash=200)
    seller = make_agent(id=1, kind=PS, shares=9)
    params = certain_buy_params(pb_purchase_ratio=1.0)
    fill = pb_decide(buyer, book, params, TAKE_FIRST)
    assert fill.units == 5
    debited = [buyer.copy(), seller.copy()]
    assert settle_fill(fill, buyer, seller, book, params) is None
    assert buyer.shares == 5
    assert buyer.cash == 0  # 200 - 40 * 5 exactly
    assert seller.shares == 4
    assert seller.cash == 200
    # the fee accrued on the fill is what a debit withholds from the seller
    replay_fills(debited, [FillEvent(1, fill)], params.replace(debit_exit_fee=True))
    assert seller.cash - debited[1].cash == Fraction(0.02) * 200
    assert len(book) == 0


def test_settle_fee_debited_only_when_enabled():
    params = make_params(exit_fee_rate=0.25, debit_exit_fee=True)
    book = OfferBook()
    book.insert(make_offer(price=40.0, quantity=5, seller=1))
    buyer = make_agent(id=0, kind=PB, cash=200)
    seller = make_agent(id=1, kind=PS, shares=5)
    fill = pb_decide(buyer, book, params.replace(pb_trade_prob=1.0, pb_purchase_ratio=1.0), TAKE_FIRST)
    assert settle_fill(fill, buyer, seller, book, params) is None
    fee = fill.notional - seller.cash  # the seller's proceeds fall short by the fee
    assert fee == Fraction(0.25) * fill.notional
    assert fee == 50  # 0.25 is exactly representable, 0.25 * 200 == 50
    assert seller.cash == 150
    assert buyer.cash == 0


def test_settle_rejects_inconsistent_fills():
    book = OfferBook()
    book.insert(make_offer(price=40.0, quantity=2, seller=1))
    buyer = make_agent(id=0, kind=PB, cash=1000)
    seller = make_agent(id=1, kind=PS, shares=10)
    params = certain_buy_params()
    fill = pb_decide(buyer, book, params, TAKE_FIRST)

    wrong_units = TradeFill(buyer=0, seller=1, price=40.0, units=3, budget=fill.budget)
    with pytest.raises(ContractViolation):
        settle_fill(wrong_units, buyer, seller, book, params)

    wrong_price = TradeFill(buyer=0, seller=1, price=41.0, units=1, budget=fill.budget)
    with pytest.raises(ContractViolation):
        settle_fill(wrong_price, buyer, seller, book, params)

    poor_buyer = make_agent(id=0, kind=PB, cash=1)
    with pytest.raises(ContractViolation):
        settle_fill(fill, poor_buyer, seller, book, params)

    with pytest.raises(ContractViolation):
        settle_fill(fill, buyer, make_agent(id=2, kind=PS, shares=10), book, params)

    zero_units = TradeFill(buyer=0, seller=1, price=40.0, units=0, budget=fill.budget)
    with pytest.raises(ContractViolation, match="^fill of zero units$"):
        settle_fill(zero_units, buyer, seller, book, params)

    with pytest.raises(ContractViolation, match="^seller does not hold the filled units$"):
        settle_fill(fill, buyer, make_agent(id=1, kind=PS, shares=0), book, params)


def test_settle_rejects_self_trade():
    book = OfferBook()
    book.insert(make_offer(price=40.0, quantity=2, seller=0))
    agent = make_agent(id=0, kind=BS, shares=5, cash=1000)
    params = certain_buy_params()
    fill = TradeFill(buyer=0, seller=0, price=40.0, units=1, budget=(100, 1))
    with pytest.raises(ContractViolation):
        settle_fill(fill, agent, agent, book, params)


# --- integer cash against plain Fraction arithmetic ---------------------------

_CASH = st.one_of(
    st.integers(0, 10**9).map(lambda c: Fraction(c, 100)),  # whole cents
    st.integers(10**6, 10**15).map(lambda c: Fraction(c, 10**6)),
    st.floats(1.0, 1e12).map(Fraction),  # dyadic
    st.integers(2**1024, 2**1100),  # beyond float range
)
_PRICE = st.one_of(
    st.floats(1e-3, 1e6),
    st.floats(10.0, 100.0),
    st.floats(5e-324, 1e-250),  # tiny, subnormals included
    st.floats(1e250, 1e300),  # huge: only cash beyond float range covers it
)


@settings(max_examples=200, deadline=None)
@given(
    cash=st.lists(_CASH, min_size=2, max_size=4),
    trades=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), _PRICE, st.integers(1, 5)),
        min_size=1,
        max_size=30,
    ),
    fee=st.floats(0.0, 1.0),
    debit=st.booleans(),
)
def test_integer_settlement_equals_fraction_arithmetic(cash, trades, fee, debit):
    """Random fills, many on the same agents, settled live and replayed,
    land on the balances plain Fraction arithmetic gives; the cash
    denominators stay within their bound and the day metrics match."""
    params = make_params(exit_fee_rate=fee, debit_exit_fee=debit)
    n = len(cash)
    agents = [make_agent(i, BS, shares=10**6, cash=c) for i, c in enumerate(cash)]
    start = [a.copy() for a in agents]
    ref = [[10**6, Fraction(c)] for c in cash]
    rate = Fraction(fee)
    done = []
    for b, step, price, units in trades:
        b = b % n
        s = (b + 1 + step % (n - 1)) % n  # never the buyer
        book = OfferBook()
        book.insert(Offer(price, units, s))
        fill = TradeFill(b, s, price, units, (0, 1))
        notional = Fraction(price) * units
        if ref[b][1] < notional:
            with pytest.raises(ContractViolation, match="cannot cover"):
                settle_fill(fill, agents[b], agents[s], book, params)
            continue
        assert settle_fill(fill, agents[b], agents[s], book, params) is None
        ref[b][0] += units
        ref[b][1] -= notional
        ref[s][0] -= units
        ref[s][1] += notional - rate * notional if debit else notional
        done.append(FillEvent(1, fill))
        assert [[a.shares, a.cash] for a in agents] == ref
    replayed = [a.copy() for a in start]
    replay_fills(replayed, done, params)
    assert replayed == agents
    largest = max((ev.fill.price.as_integer_ratio()[1] for ev in done), default=1)
    bound = largest * fee.as_integer_ratio()[1]
    assert all((a0.cd * bound) % a.cd == 0 for a, a0 in zip(agents, start))
    day = compute_day_metrics(DayTrace([], done), OfferBook(), params)
    total = sum((ev.fill.notional for ev in done), Fraction(0))
    assert day.traded_notional == float(total)
    assert day.platform_revenue == float(rate * total)


def test_fill_notional_and_budget_are_exact_and_compare_by_value():
    fill = TradeFill(0, 1, 0.1, 3, (10, 4))
    assert fill.notional == Fraction(0.1) * 3
    assert fill.purchase_budget == Fraction(5, 2)
    assert fill == TradeFill(0, 1, 0.1, 3, (5 * 2**70, 2**71))
    assert fill != TradeFill(0, 1, 0.1, 3, (5, 3))
    assert fill != TradeFill(0, 1, 0.1, 2, (5, 2))
    fill.notional = Fraction(0.1) * 3  # restating the value is allowed
    with pytest.raises(ContractViolation, match="not price"):
        fill.notional = Fraction(3, 10)
