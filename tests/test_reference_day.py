"""Differential test: `run_day` against the literal reference day.

Hypothesis draws parameters and rosters (kinds in shuffled order, cash in
whole cents or dyadic, the fee debited or not, varied `p_ref` and
`bs_search_len`); both implementations run from the same seed and must
agree exactly on the offers, the fills in order, the final balances and
the day metrics.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fracmarket import AgentKind, AgentState, ModelParams, run_day

from reference_day import reference_day

KINDS = list(AgentKind)

_prob = st.sampled_from([0.0, 0.3, 0.7, 1.0]) | st.floats(0.0, 1.0)
_ratio = st.sampled_from([0.05, 0.3, 1.0]) | st.floats(0.0, 1.0)

# cash: whole cents, or dyadic (a binary float, as profile draws are)
_cash = st.one_of(
    st.integers(0, 5_000_000).map(lambda c: Fraction(c, 100)),
    st.floats(0.0, 50_000.0).map(Fraction),
    st.just(Fraction(0)),
)


@st.composite
def rosters(draw):
    n = draw(st.integers(0, 80))
    roster = []
    for _ in range(n):
        kind = draw(st.sampled_from(KINDS))
        shares = draw(st.integers(0, 120)) if kind.sells else 0
        cash = draw(_cash) if kind.buys else Fraction(0)
        roster.append(AgentState(len(roster), kind, shares, cash))
    return roster


@st.composite
def market_params(draw):
    p_ref = draw(st.sampled_from([50.0, 1.0, 0.37, 125.5]) | st.floats(0.01, 500.0))
    lo = draw(st.floats(0.5, 1.2))
    bs_lo = draw(st.floats(0.5, 1.2))
    return ModelParams(
        p_ref=p_ref,
        ps_offer_prob=draw(_prob),
        ps_offer_ratio=draw(_ratio),
        ps_price_lo=lo,
        ps_price_hi=lo + draw(st.floats(0.0, 0.5)),
        pb_trade_prob=draw(_prob),
        pb_purchase_ratio=draw(_ratio),
        k_pb=draw(st.floats(0.0, 5.0)),
        bs_offer_prob=draw(_prob),
        bs_offer_ratio=draw(_ratio),
        bs_price_lo=bs_lo,
        bs_price_hi=bs_lo + draw(st.floats(0.0, 0.5)),
        bs_trade_prob=draw(_prob),
        bs_purchase_ratio=draw(_ratio),
        bs_search_len=draw(st.integers(1, 12)),
        n_trading_iters=draw(st.integers(1, 6)),
        exit_fee_rate=draw(st.sampled_from([0.0, 0.02, 0.5]) | st.floats(0.0, 1.0)),
        debit_exit_fee=draw(st.booleans()),
    )


def _engine_day(roster, params, seed) -> dict:
    population = [a.copy() for a in roster]
    trace, metrics = run_day(population, params, seed)
    return {
        "offers": [(o.price, o.quantity, o.seller, o.entry_order) for o in trace.offers_entered],
        "fills": [
            (ev.iteration, f.buyer, f.seller, f.price, f.units, f.notional, f.purchase_budget)
            for ev in trace.fills
            for f in (ev.fill,)
        ],
        "balances": [(a.shares, a.cash) for a in population],
        "metrics": metrics,
    }


@settings(max_examples=200, deadline=None)
@given(roster=rosters(), params=market_params(), seed=st.integers(0, 2**32))
def test_run_day_equals_the_reference_day(roster, params, seed):
    want = reference_day(roster, params, seed)
    got = _engine_day(roster, params, seed)
    assert got["offers"] == want["offers"]
    assert got["fills"] == want["fills"]
    assert got["balances"] == want["balances"]
    assert got["metrics"] == want["metrics"]


def test_reference_day_trades_on_a_busy_market():
    # a fixed busy case, so the comparison above is known to reach fills
    # by both kinds of buyer, debited fees and used-up offers
    kinds = [AgentKind.PURE_BUYER, AgentKind.PURE_SELLER, AgentKind.BUYER_SELLER] * 20
    roster = [
        AgentState(i, k, 0 if k is AgentKind.PURE_BUYER else 30, Fraction(123_456 + 7 * i, 100))
        for i, k in enumerate(kinds)
    ]
    params = ModelParams(
        ps_offer_prob=0.9,
        bs_offer_prob=0.9,
        pb_trade_prob=0.6,
        bs_trade_prob=0.6,
        bs_search_len=3,
        debit_exit_fee=True,
    )
    want = reference_day(roster, params, 12)
    buyer_kinds = {kinds[f[1]] for f in want["fills"]}
    assert buyer_kinds == {AgentKind.PURE_BUYER, AgentKind.BUYER_SELLER}
    sold = {}
    for f in want["fills"]:
        sold[f[2]] = sold.get(f[2], 0) + f[4]
    assert any(sold.get(o[2]) == o[1] for o in want["offers"])  # an offer used up
    assert _engine_day(roster, params, 12) == want
