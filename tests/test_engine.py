"""Day engine: phase structure, determinism, conservation, traces."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fracmarket import (
    AgentKind,
    ConfigError,
    export_trace,
    make_rng,
    replay_fills,
    run_day,
    run_pretrading,
    run_trading,
)

import fracmarket.engine as engine
from conftest import drawn_visits, make_agent, make_params, make_population, traded_by_round
from reference_day import reference_day

PS = AgentKind.PURE_SELLER
PB = AgentKind.PURE_BUYER
BS = AgentKind.BUYER_SELLER


def test_pretrading_with_only_buyers_leaves_book_empty():
    pop = make_population(n_pb=10)
    book = run_pretrading(pop, make_params(), make_rng(0))
    assert len(book) == 0


def test_pretrading_certain_sellers_post_one_offer_each():
    pop = make_population(n_ps=5, n_bs=3, shares=10)
    params = make_params(ps_offer_prob=1.0, bs_offer_prob=1.0)
    book = run_pretrading(pop, params, make_rng(3))
    assert len(book) == 8
    sellers = {o.seller for o in book.offers}
    assert sellers == {a.id for a in pop}
    for o in book.offers:
        want = 6 if pop[o.seller].kind is PS else 3  # floor(.603*10), floor(.333*10)
        assert o.quantity == want


def test_pretrading_mean_book_size_matches_binomial_expectation():
    # 211 sellers at 0.114 plus 163 at 0.278 gives an expected book of
    # 69.368 offers; the simulated mean must sit within a few standard
    # errors (sd of the sum is ~7.35, so 2000 days pin the mean to ~0.16)
    pop = make_population(n_ps=211, n_bs=163, shares=10)
    params = make_params()
    rng = make_rng(42)
    n_days = 2000
    total = sum(len(run_pretrading(pop, params, rng)) for _ in range(n_days))
    mean = total / n_days
    assert abs(mean - 69.368) < 0.6


def test_trading_with_no_buyers_fills_nothing():
    pop = make_population(n_ps=4, shares=10)
    params = make_params(ps_offer_prob=1.0)
    rng = make_rng(1)
    book = run_pretrading(pop, params, rng)
    trace = run_trading(pop, book, params, rng)
    assert trace.fills == []
    assert len(trace.offers_entered) == 4


def test_inactive_sellers_post_nothing():
    # activation is the engine's: with ps_offer_prob 0 no pure seller posts,
    # while every buyer-seller (probability 1) does
    pop = make_population(n_ps=6, n_bs=4, shares=10)
    params = make_params(ps_offer_prob=0.0, bs_offer_prob=1.0)
    for seed in range(5):
        book = run_pretrading(pop, params, make_rng(seed))
        assert {o.seller for o in book.offers} == {a.id for a in pop if a.kind is BS}


def test_inactive_pure_buyers_never_fill():
    # pb_trade_prob 0: no pure buyer is ever activated, while the
    # buyer-sellers still trade against the cheap offers
    params = make_params(
        ps_offer_prob=1.0, ps_price_lo=0.8, ps_price_hi=0.8,
        pb_trade_prob=0.0, bs_trade_prob=1.0,
    )
    bs_fills = 0
    for seed in range(5):
        pop = make_population(n_pb=20, n_ps=10, n_bs=5, shares=10, cash=1000)
        trace, _ = run_day(pop, params, seed)
        assert all(pop[ev.fill.buyer].kind is BS for ev in trace.fills)
        bs_fills += len(trace.fills)
    assert bs_fills > 0


def test_run_day_calls_the_rules_through_the_engine(monkeypatch):
    # the engine looks its rules up in its own namespace at call time; a
    # wrapper put there sees every call (per-layer timing relies on this)
    calls = {"pb_decide": 0, "ps_decide": 0}

    def counting(name):
        rule = getattr(engine, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return rule(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, counting(name))
    pop = make_population(n_pb=10, n_ps=5, shares=10, cash=500)
    params = make_params(ps_offer_prob=1.0, pb_trade_prob=1.0)
    run_day(pop, params, 3)
    assert calls["ps_decide"] == 5
    assert calls["pb_decide"] == 10 * params.n_trading_iters


def _drawn_day(monkeypatch, pop, params, seed):
    # run one day, recording the visits it draws (`drawn_visits`),
    # together with the day's fills
    visits, (trace, _) = drawn_visits(monkeypatch, lambda: run_day(pop, params, seed))
    return visits, [(ev.iteration, ev.fill) for ev in trace.fills]


@pytest.mark.parametrize(
    "change", [{"pb_purchase_ratio": 0.9}, {"k_pb": 0.2}, {"exit_fee_rate": 0.4}]
)
def test_who_acts_when_does_not_depend_on_the_book(monkeypatch, change):
    # the parameters changed here move fills, the book and balances, but
    # not a single draw: every day draws the same visits, the same agents
    # active in the same visits in the same order, with the same rows
    base = make_params(
        ps_offer_prob=0.6, bs_offer_prob=0.6, pb_trade_prob=0.5,
        bs_trade_prob=0.5, bs_search_len=3, debit_exit_fee=True,
    )
    fills_differ = []
    for seed in range(4):
        pops = [make_population(n_pb=40, n_ps=20, n_bs=15, shares=12, cash=90) for _ in range(2)]
        tape, fills = _drawn_day(monkeypatch, pops[0], base, seed)
        tape_b, fills_b = _drawn_day(monkeypatch, pops[1], base.replace(**change), seed)
        assert tape_b == tape
        assert len(tape) == base.n_trading_iters + 1 and all(ids for ids, _ in tape)
        fills_differ.append(fills_b != fills)
    assert any(fills_differ)  # otherwise the comparison is vacuous


class _BlockWidths:
    """A generator that notes the width of every 2-d block it draws, and
    refuses to draw one wider than `limit`."""

    def __init__(self, seed, limit):
        self.rng, self.limit, self.widths = make_rng(seed), limit, []

    def permutation(self, n):
        return self.rng.permutation(n)

    def random(self, size):
        if isinstance(size, tuple):
            assert size[1] <= self.limit, f"a block {size[1]} wide"
            self.widths.append(size[1])
        return self.rng.random(size)


def test_a_huge_search_length_draws_no_wider_block_than_the_sellers(monkeypatch):
    # W = max(2, min(bs_search_len, sellers)): beyond the number of sellers
    # the search length changes neither the block nor the day
    n_sellers = 7
    days = []
    for k in (n_sellers, 10**6):
        pop = make_population(n_pb=6, n_ps=3, n_bs=4, shares=10, cash=500)
        gen = _BlockWidths(5, limit=len(pop))
        monkeypatch.setattr(engine, "make_rng", lambda seed: gen)
        params = make_params(
            ps_offer_prob=1.0, bs_offer_prob=1.0, pb_trade_prob=0.8,
            bs_trade_prob=0.8, bs_search_len=k,
        )
        trace, day = run_day(pop, params, 0)
        assert gen.widths == [1] + [n_sellers] * params.n_trading_iters
        days.append((trace.offers_entered, trace.fills, day, [(a.shares, a.cash) for a in pop]))
    assert days[0] == days[1]
    assert days[0][1]  # otherwise the comparison is vacuous


def test_trading_prob_zero_fills_nothing():
    pop = make_population(n_pb=10, n_ps=4, shares=10, cash=1000)
    params = make_params(ps_offer_prob=1.0, pb_trade_prob=0.0, bs_trade_prob=0.0)
    rng = make_rng(1)
    book = run_pretrading(pop, params, rng)
    trace = run_trading(pop, book, params, rng)
    assert trace.fills == []


def test_single_unit_offer_fills_exactly_once():
    # price pinned deep under reference so acceptance saturates; one unit
    # on offer, many eager buyers, exactly one gets it
    pop = make_population(n_pb=10, cash=1000) + [
        make_agent(10, PS, shares=2)
    ]
    params = make_params(
        ps_offer_prob=1.0,
        ps_offer_ratio=0.5,
        ps_price_lo=0.5,
        ps_price_hi=0.5,
        pb_trade_prob=1.0,
        market_lo=0.5,
        market_hi=1.2,
    )
    trace, day = run_day(pop, params, 9)
    assert day.n_offers == 1
    assert day.offered_shares == 1
    assert day.n_trades == 1
    assert day.traded_shares == 1
    assert sum(a.shares for a in pop[:10]) == 1


def test_run_day_is_deterministic():
    params = make_params()
    pop_a = make_population(n_pb=30, n_ps=15, n_bs=8, shares=12, cash=300)
    pop_b = make_population(n_pb=30, n_ps=15, n_bs=8, shares=12, cash=300)
    trace_a, day_a = run_day(pop_a, params, 1234)
    trace_b, day_b = run_day(pop_b, params, 1234)
    assert day_a == day_b
    assert trace_a.offers_entered == trace_b.offers_entered
    assert trace_a.fills == trace_b.fills
    n = params.n_trading_iters
    assert traded_by_round(trace_a, n) == traded_by_round(trace_b, n)
    assert all(x.cash == y.cash and x.shares == y.shares for x, y in zip(pop_a, pop_b))


def test_different_seeds_differ():
    params = make_params()
    days = []
    for seed in range(6):
        pop = make_population(n_pb=30, n_ps=15, n_bs=8, shares=12, cash=300)
        _, day = run_day(pop, params, seed)
        days.append(day)
    assert len({d.traded_shares for d in days} | {d.n_offers for d in days}) > 1


def test_day_conserves_shares_and_cash_exactly():
    for seed, debit in ((5, False), (6, True)):
        pop = make_population(n_pb=30, n_ps=15, n_bs=8, shares=12, cash=300)
        params = make_params(debit_exit_fee=debit)
        shares0 = sum(a.shares for a in pop)
        cash0 = sum((a.cash for a in pop), Fraction(0))
        trace, day = run_day(pop, params, seed)
        shares1 = sum(a.shares for a in pop)
        cash1 = sum((a.cash for a in pop), Fraction(0))
        assert shares1 == shares0
        fee_total = sum(
            (Fraction(params.exit_fee_rate) * ev.fill.notional for ev in trace.fills),
            Fraction(0),
        )
        if debit:
            assert cash0 - cash1 == fee_total
        else:
            assert cash1 == cash0


def test_replay_reproduces_final_balances_exactly():
    pop = make_population(n_pb=30, n_ps=15, n_bs=8, shares=12, cash=300)
    initial = [a.copy() for a in pop]
    params = make_params(debit_exit_fee=True)
    trace, _ = run_day(pop, params, 17)
    assert trace.fills  # otherwise the check is vacuous
    replay_fills(initial, trace.fills, params)
    for live, replayed in zip(pop, initial):
        assert live.shares == replayed.shares
        assert live.cash == replayed.cash


def test_run_day_empty_population():
    trace, day = run_day([], make_params(), 0)
    assert day.n_offers == 0
    assert day.offered_shares == 0
    assert day.n_trades == 0
    assert day.liquidity_ratio is None
    assert trace.offers_entered == [] and trace.fills == []


def test_per_round_totals_accumulate():
    pop = make_population(n_pb=40, n_ps=20, n_bs=10, shares=12, cash=500)
    params = make_params(pb_trade_prob=0.5, ps_offer_prob=0.8)
    trace, day = run_day(pop, params, 23)
    rounds = [ev.iteration for ev in trace.fills]
    assert rounds == sorted(rounds)
    assert set(rounds) <= set(range(1, params.n_trading_iters + 1))
    assert len(set(rounds)) > 1  # otherwise the accumulation is vacuous
    traded = traded_by_round(trace, params.n_trading_iters)
    assert len(traded) == params.n_trading_iters
    assert traded == sorted(traded)
    assert traded[-1] == day.traded_shares
    assert len(rounds) == day.n_trades


def test_no_self_trades_and_bs_buys_below_reference():
    params = make_params(bs_trade_prob=0.6, bs_offer_prob=0.7, pb_trade_prob=0.4)
    for seed in range(10):
        pop = make_population(n_pb=20, n_ps=10, n_bs=12, shares=15, cash=800)
        trace, _ = run_day(pop, params, seed)
        for ev in trace.fills:
            assert ev.fill.buyer != ev.fill.seller
            if pop[ev.fill.buyer].kind is BS:
                assert ev.fill.price < params.p_ref


def test_export_trace_is_line_json(tmp_path):
    pop = make_population(n_pb=30, n_ps=15, n_bs=8, shares=12, cash=500)
    params = make_params(pb_trade_prob=0.5)
    trace, day = run_day(pop, params, 31)
    path = tmp_path / "fills.ndjson"
    export_trace(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == day.n_trades
    for line, ev in zip(lines, trace.fills):
        rec = json.loads(line)
        assert rec["iteration"] == ev.iteration
        assert rec["buyer"] == ev.fill.buyer
        assert rec["seller"] == ev.fill.seller
        assert rec["units"] == ev.fill.units
        assert math.isclose(rec["notional"], float(ev.fill.notional))


def test_run_day_validates_params_before_running():
    pop = make_population(n_pb=2)
    from fracmarket import ConfigError

    with pytest.raises(ConfigError):
        run_day(pop, make_params(pb_trade_prob=7.0), 0)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_run_day_rejects_a_bad_seed(seed):
    with pytest.raises(ConfigError, match=rf"seed={seed!r} must be a non-negative integer"):
        run_day([], make_params(), seed)


# --- inert buyers ---------------------------------------------------------------

# one pure seller posts 3 shares at exactly 25.0, which every pure buyer
# accepts (k_pb * (25 - 50) = -50 saturates the acceptance curve)
SKIP_PARAMS = make_params(
    ps_offer_prob=1.0, ps_offer_ratio=0.5, ps_price_lo=0.5, ps_price_hi=0.5,
    pb_trade_prob=1.0, pb_purchase_ratio=0.5, n_trading_iters=3,
)
# the least budget that _budget_fill's float gate lets through at 25.0
GATE_AT_25 = 25.0 * (1.0 - 1e-9) - 1e-300


def _day_with_calls(monkeypatch, roster, params, seed=0):
    # run_day on a copy of `roster`, counting the pb_decide and
    # bs_buy_decide calls per buyer; the day must equal the reference day
    calls = {}

    def counting(rule):
        def wrapper(agent, *args):
            calls[agent.id] = calls.get(agent.id, 0) + 1
            return rule(agent, *args)

        return wrapper

    for name in ("pb_decide", "bs_buy_decide"):
        monkeypatch.setattr(engine, name, counting(getattr(engine, name)))
    pop = [a.copy() for a in roster]
    trace, day = run_day(pop, params, seed)
    want = reference_day(roster, params, seed)
    got_fills = [
        (ev.iteration, f.buyer, f.seller, f.price, f.units, f.notional, f.purchase_budget)
        for ev in trace.fills
        for f in (ev.fill,)
    ]
    assert got_fills == want["fills"]
    assert [(a.shares, a.cash) for a in pop] == want["balances"]
    assert day == want["metrics"]
    return calls, trace


def _skip_roster(*budgets):
    # pure buyers 0..n-1 with budget (cash * 0.5) `budgets`, then the seller
    pop = [make_agent(i, PB, 0, 2 * Fraction(b)) for i, b in enumerate(budgets)]
    return pop + [make_agent(len(pop), PS, shares=6)]


def _fills(trace):
    return [(ev.iteration, ev.fill.buyer, ev.fill.seller, ev.fill.units) for ev in trace.fills]


def test_a_budget_exactly_at_the_cheapest_price_fills(monkeypatch):
    calls, trace = _day_with_calls(monkeypatch, _skip_roster(25.0), SKIP_PARAMS)
    assert calls == {0: 3}
    assert [(ev.fill.buyer, ev.fill.units) for ev in trace.fills] == [(0, 1)]


def test_a_budget_one_step_below_the_gate_is_skipped(monkeypatch):
    # buyer 0 sits one float step below the gate and is never called; buyer
    # 1 sits at it and is called, and so is buyer 2, one step below the
    # price, whom only the exact test turns down
    below = math.nextafter(GATE_AT_25, 0.0)
    roster = _skip_roster(below, GATE_AT_25, math.nextafter(25.0, 0.0))
    calls, trace = _day_with_calls(monkeypatch, roster, SKIP_PARAMS)
    assert calls == {1: 3, 2: 3}
    assert trace.fills == []


def test_cash_beyond_float_range_is_never_skipped(monkeypatch):
    roster = _skip_roster(Fraction(10**400), 1.0)
    calls, trace = _day_with_calls(monkeypatch, roster, SKIP_PARAMS)
    assert calls == {0: 3}
    assert [(ev.fill.buyer, ev.fill.units) for ev in trace.fills] == [(0, 3)]


def test_an_empty_book_skips_every_pure_buyer(monkeypatch):
    # and every buyer-seller too, whatever its cash
    roster = _skip_roster(Fraction(10**400), 25.0, 0.0)
    roster.append(make_agent(len(roster), BS, shares=6, cash=1000))
    params = SKIP_PARAMS.replace(ps_offer_prob=0.0, bs_offer_prob=0.0, bs_trade_prob=1.0)
    calls, trace = _day_with_calls(monkeypatch, roster, params)
    assert calls == {} and trace.fills == []


def _bs_skip_roster(*budgets):
    # the pure seller of SKIP_PARAMS (3 shares at 25.0), then buyer-sellers
    # 1..n holding no shares, with budget (cash * 0.5) `budgets`
    pop = [make_agent(0, PS, shares=6)]
    return pop + [make_agent(i, BS, 0, 2 * Fraction(b)) for i, b in enumerate(budgets, 1)]


BS_SKIP_PARAMS = SKIP_PARAMS.replace(bs_trade_prob=1.0, bs_purchase_ratio=0.5)


def test_a_buyer_seller_below_its_gate_is_never_called(monkeypatch):
    # buyer-seller 1 is one float step below the gate at 25.0; 2 sits at
    # it, and 3 at 25.0 itself fills
    below = math.nextafter(GATE_AT_25, 0.0)
    roster = _bs_skip_roster(below, GATE_AT_25, 25.0)
    calls, trace = _day_with_calls(monkeypatch, roster, BS_SKIP_PARAMS)
    assert calls == {2: 3, 3: 3}
    assert _fills(trace) == [(1, 3, 0, 1)]


def test_no_offer_below_the_reference_skips_every_buyer_seller(monkeypatch):
    # the only offer sits at 55.0: buyer-sellers are never called, whatever
    # their cash, while a pure buyer is (k_pb 0: it accepts with odds 1/2)
    params = BS_SKIP_PARAMS.replace(ps_price_lo=1.1, ps_price_hi=1.1, k_pb=0.0)
    roster = _bs_skip_roster(Fraction(10**400), 1000.0)
    roster.append(make_agent(len(roster), PB, 0, 1000))
    calls, trace = _day_with_calls(monkeypatch, roster, params)
    assert calls == {3: 3}
    assert _fills(trace) == [(1, 3, 0, 3)]


def test_an_own_offer_cheapest_below_the_reference_sets_the_bound(monkeypatch):
    # buyer-seller 1 lists 3 of its 9 shares at 30.0, below the pure
    # seller's 40.0. Its bound is its own 30.0, so with a budget of 35.0 it
    # is called every round and turns 40.0 down each time; buyer-seller 2,
    # budget 29.0 and no shares, is below that bound and never called
    params = BS_SKIP_PARAMS.replace(
        ps_price_lo=0.8, ps_price_hi=0.8,
        bs_offer_prob=1.0, bs_offer_ratio=1 / 3, bs_price_lo=0.6, bs_price_hi=0.6,
    )
    roster = _bs_skip_roster(35.0, 29.0)
    roster[1].shares = 9
    calls, trace = _day_with_calls(monkeypatch, roster, params)
    assert sorted((o.seller, o.price) for o in trace.offers_entered) == [(0, 40.0), (1, 30.0)]
    assert calls == {1: 3}
    assert trace.fills == []


@pytest.mark.parametrize(
    "seed, fills",
    [
        # the buyer-seller buys in the round after its sale
        (1, [(1, 2, 0, 3), (2, 2, 1, 1), (2, 0, 1, 1)]),
        # it is visited after the pure buyer in the round of its sale, and
        # buys in that same round
        (2, [(1, 2, 0, 3), (1, 0, 1, 1), (2, 2, 1, 1)]),
    ],
)
def test_a_sale_rearms_an_inert_buyer_seller(monkeypatch, seed, fills):
    # buyer-seller 0 has no cash, so it is inert at the start: its bound is
    # its own offer, 3 shares at 30.0. Pure buyer 2 buys that offer, and
    # the 90.0 it brings (budget 54.0) lets 0 buy the pure seller's 49.0
    params = make_params(
        ps_offer_prob=1.0, ps_offer_ratio=0.5, ps_price_lo=0.98, ps_price_hi=0.98,
        bs_offer_prob=1.0, bs_offer_ratio=1 / 3, bs_price_lo=0.6, bs_price_hi=0.6,
        pb_trade_prob=1.0, pb_purchase_ratio=0.5, k_pb=1000.0,
        bs_trade_prob=1.0, bs_purchase_ratio=0.6, n_trading_iters=4,
    )
    roster = [make_agent(0, BS, 9, 0), make_agent(1, PS, 6, 0), make_agent(2, PB, 0, 200)]
    calls, trace = _day_with_calls(monkeypatch, roster, params, seed)
    assert _fills(trace) == fills
    assert 0 in calls


# --- exact settlement digest --------------------------------------------------

# SHA-256 of three consecutive days on a seeded 300-agent roster with cash
# in whole cents and a debited fee: every fill (notional and purchase
# budget as exact "n/d" strings), the day metrics, and every agent's
# balances at the end of each day. The aggregate digest in
# test_experiments only sees float means; this one pins the exact rational
# settlement. A change of the arithmetic must leave it bit-identical.
ROSTER_DIGEST = "56ee2ac7625206d9ec324f744dfc8fcd4705ab28fbeb9b00acdfba85f71735ca"


def _cent_roster(seed: int) -> list:
    rng = np.random.default_rng(seed)
    kinds = [PB] * 140 + [PS] * 100 + [BS] * 60
    order = rng.permutation(len(kinds))
    pop = []
    for i in order.tolist():
        kind = kinds[i]
        shares = int(rng.integers(10, 120)) if kind.sells else 0
        cents = int(rng.integers(20_000, 400_000)) if kind.buys else 0
        pop.append(make_agent(len(pop), kind, shares, Fraction(cents, 100)))
    return pop


def _ratio(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def test_roster_settlement_digest_is_pinned():
    pop = _cent_roster(2024)
    params = make_params(
        ps_offer_prob=0.5,
        bs_offer_prob=0.5,
        pb_trade_prob=0.3,
        bs_trade_prob=0.3,
        pb_purchase_ratio=0.1,
        bs_purchase_ratio=0.1,
        debit_exit_fee=True,
    )
    days = []
    for d in range(3):
        trace, day = run_day(pop, params, np.random.SeedSequence(77, spawn_key=(d,)))
        days.append(
            {
                "fills": [
                    [
                        ev.iteration,
                        ev.fill.buyer,
                        ev.fill.seller,
                        repr(ev.fill.price),
                        ev.fill.units,
                        _ratio(ev.fill.notional),
                        _ratio(ev.fill.purchase_budget),
                    ]
                    for ev in trace.fills
                ],
                "metrics": repr(day),
                "balances": [[a.shares, _ratio(a.cash)] for a in pop],
            }
        )
    assert sum(len(d["fills"]) for d in days) > 300  # otherwise the pin is weak
    record = json.dumps(days, sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == ROSTER_DIGEST


def test_cash_denominators_stay_bounded_over_fifty_days():
    """Over 50 days of debited-fee trading on one roster, every agent's cash
    denominator keeps dividing its starting one times the largest price
    denominator times the fee rate's (all but the first are powers of
    two), so it cannot grow without bound however long agents trade."""
    pop = _cent_roster(31)
    params = make_params(
        ps_offer_prob=0.5,
        bs_offer_prob=0.5,
        pb_trade_prob=0.3,
        bs_trade_prob=0.3,
        pb_purchase_ratio=0.1,
        bs_purchase_ratio=0.1,
        debit_exit_fee=True,
    )
    start = [a.cd for a in pop]
    fee_den = params.exit_fee_rate.as_integer_ratio()[1]
    largest = n_fills = 0
    for d in range(50):
        trace, _ = run_day(pop, params, np.random.SeedSequence(91, spawn_key=(d,)))
        n_fills += len(trace.fills)
        largest = max([largest] + [ev.fill.price.as_integer_ratio()[1] for ev in trace.fills])
        bad = [a.id for a, cd0 in zip(pop, start) if (cd0 * largest * fee_den) % a.cd]
        assert not bad, f"day {d}: agents {bad[:5]} beyond the bound"
    assert n_fills > 2000
    # sellers were credited net of the fee, so the bound is reached, not idle
    assert max(a.cd // cd0 for a, cd0 in zip(pop, start)) > fee_den
