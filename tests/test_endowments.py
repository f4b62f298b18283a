"""Endowment distributions, population generation, file I/O, calibration."""

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmarket import (
    AgentKind,
    DEFAULT_TARGETS,
    CalibrationTargets,
    ConfigError,
    ContractViolation,
    DistSpec,
    EndowmentError,
    EndowmentProfile,
    ModelParams,
    calibrate_profile,
    default_profile,
    evaluate_profile,
    generate_population,
    load_population,
    make_rng,
    run_day,
    save_population,
    simulate_profile_day,
)
from fracmarket.endowments import _draw_columns, load_profile, save_profile
from fracmarket.engine import run_pretrading
from fracmarket.experiments import _sample_candidate

from conftest import drawn_visits
from reference_day import reference_day
from test_reference_day import market_params

PS = AgentKind.PURE_SELLER
PB = AgentKind.PURE_BUYER
BS = AgentKind.BUYER_SELLER


def small_profile(**overrides) -> EndowmentProfile:
    base = dict(
        n_pb=20,
        n_ps=10,
        n_bs=6,
        ps_holder_frac=1.0,
        bs_holder_frac=1.0,
        share_dist_ps=DistSpec("constant", {"value": 10}),
        share_dist_bs=DistSpec("constant", {"value": 10}),
        cash_dist_pb=DistSpec("constant", {"value": 100}),
        cash_dist_bs=DistSpec("constant", {"value": 100}),
    )
    base.update(overrides)
    return EndowmentProfile(**base)


# --- distributions ----------------------------------------------------------


def test_unknown_family_rejected():
    with pytest.raises(ConfigError):
        DistSpec("zipf", {"s": 2.0}).validate()
    with pytest.raises(ConfigError, match=r"unknown distribution family \['constant'\]"):
        DistSpec(["constant"], {"value": 1.0}).validate()


def test_missing_and_extra_args_rejected():
    with pytest.raises(ConfigError):
        DistSpec("lognormal-rounded", {"mu": 1.0}).validate()
    with pytest.raises(ConfigError):
        DistSpec("constant", {"value": 1.0, "x": 2}).validate()
    with pytest.raises(ConfigError, match="args None not a dict"):
        DistSpec("constant", None).validate()


def test_uniform_integer_bounds_stay_inside_int64():
    # numpy draws int64; hi = 2**63 - 1 is the largest it can reach
    top = DistSpec("uniform-integer", {"lo": 2**63 - 1, "hi": 2**63 - 1})
    top.validate()
    assert (top.sample(3, make_rng(0)) == float(2**63 - 1)).all()
    for hi in (2**63, 1e30):
        with pytest.raises(ConfigError, match=r"uniform-integer bounds \(0, .*\) invalid"):
            DistSpec("uniform-integer", {"lo": 0, "hi": hi}).validate()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"n_pb": True}, r"^invalid profile: n_pb=True is not a number$"),
        ({"ps_holder_frac": "x"}, r"^invalid profile: ps_holder_frac='x' is not a number$"),
        ({"bs_holder_frac": None, "n_ps": 2.5},
         r"^invalid profile: n_ps=2\.5 is not an integer; bs_holder_frac=None is not a number$"),
        ({"cash_floor": "-1"}, r"^invalid profile: cash_floor=-1\.0 not nonnegative and finite$"),
        ({"cash_dist_pb": {"family": "constant", "value": 1}}, "cash_dist_pb=.* is not a DistSpec"),
        # a (family, args) pair is made a DistSpec inside the raises block;
        # a bad one is refused when made, before any profile names its field
        ({"share_dist_ps": ("constant", {"value": "one"})}, r"^value='one' is not a number$"),
        ({"cash_dist_bs": ("lognormal-rounded", {"mu": True, "sigma": 1.0})},
         r"^mu=True is not a number$"),
        ({"share_dist_ps": ("uniform-integer", {"lo": 0, "hi": 2.5})},
         r"^hi=2\.5 is not an integer$"),
        # an int past float range is a bound out of range, not an overflow
        ({"share_dist_ps": ("uniform-integer", {"lo": 0, "hi": 10**400})},
         r"^uniform-integer bounds \(0, 10{76}\.\.\.\) invalid$"),
        ({"cash_dist_pb": ("lognormal-rounded", {"mu": 1.0, "sigma": -0.5})},
         r"^lognormal sigma -0\.5 negative$"),
        ({"share_dist_ps": ("pareto-rounded", {"shape": 0, "scale": 10.0})},
         r"^pareto shape/scale \(0\.0, 10\.0\) invalid$"),
        ({"share_dist_bs": ("pareto-rounded", {"shape": 1.5, "scale": -1})},
         r"^pareto shape/scale \(1\.5, -1\.0\) invalid$"),
    ],
)
def test_a_profile_built_in_code_reads_its_fields(change, message):
    with pytest.raises(ConfigError, match=message) as e:
        small_profile(**{k: DistSpec(*v) if type(v) is tuple else v for k, v in change.items()})
    assert "\n" not in str(e.value)


def test_a_profile_built_in_code_reads_text_and_integral_floats_as_a_file_does():
    profile = small_profile(
        n_pb="30", n_ps=15.0, cash_floor="0",
        share_dist_ps=DistSpec("constant", {"value": "1"}),
        share_dist_bs=DistSpec("uniform-integer", {"lo": "1", "hi": 9.0}),
    )
    assert (profile.n_pb, profile.n_ps, profile.cash_floor) == (30, 15, 0.0)
    assert (type(profile.n_ps), type(profile.cash_floor)) == (int, float)
    assert profile.share_dist_ps.args == {"value": 1.0}
    assert type(profile.share_dist_ps.args["value"]) is float
    assert {type(v) for v in profile.share_dist_bs.args.values()} == {int}
    assert EndowmentProfile.from_json_dict(profile.to_json_dict()) == profile


def test_a_json_uniform_integer_bound_is_read_exactly():
    d = small_profile().to_json_dict()
    d["share_dist_ps"] = {"family": "uniform-integer", "lo": 1, "hi": 2**63 - 1}
    read = EndowmentProfile.from_json_dict(json.loads(json.dumps(d))).share_dist_ps
    assert read == DistSpec("uniform-integer", {"lo": 1, "hi": 2**63 - 1})
    assert read.args["hi"] == 2**63 - 1 and type(read.args["hi"]) is int


def test_numpy_integer_counts_draw_the_same_population():
    cash = DistSpec("uniform-integer", {"lo": 0, "hi": 500})
    profile = small_profile(
        n_pb=np.int64(20), n_ps=np.int32(10), n_bs=np.int64(6), cash_dist_pb=cash
    )
    plain = small_profile(n_pb=20, n_ps=10, n_bs=6, cash_dist_pb=cash)
    assert generate_population(profile, make_rng(5)) == generate_population(plain, make_rng(5))
    params = ModelParams.baseline()
    assert simulate_profile_day(profile, params, 5) == simulate_profile_day(plain, params, 5)


def test_constant_family():
    vals = DistSpec("constant", {"value": 7}).sample(100, make_rng(0))
    assert (vals == 7.0).all()


def test_uniform_integer_family_inclusive_bounds():
    vals = DistSpec("uniform-integer", {"lo": 2, "hi": 5}).sample(5000, make_rng(1))
    assert set(np.unique(vals)) == {2.0, 3.0, 4.0, 5.0}


def test_lognormal_rounded_is_integral():
    vals = DistSpec("lognormal-rounded", {"mu": 2.0, "sigma": 1.0}).sample(1000, make_rng(2))
    assert (vals == np.rint(vals)).all()
    assert vals.std() > 0


def test_pareto_rounded_respects_scale_floor():
    vals = DistSpec("pareto-rounded", {"shape": 1.5, "scale": 10.0}).sample(2000, make_rng(3))
    assert (vals == np.rint(vals)).all()
    assert vals.min() >= 10.0
    assert vals.max() > 30.0  # heavy tail actually produces large draws


# --- generation -------------------------------------------------------------


def test_generate_block_layout_and_endowments():
    pop = generate_population(small_profile(), make_rng(0))
    assert len(pop) == 36
    assert [a.id for a in pop] == list(range(36))
    assert all(a.kind is PB for a in pop[:20])
    assert all(a.kind is PS for a in pop[20:30])
    assert all(a.kind is BS for a in pop[30:])
    assert all(a.shares == 0 and a.cash == 100 for a in pop[:20])
    assert all(a.shares == 10 and a.cash == 0 for a in pop[20:30])
    assert all(a.shares == 10 and a.cash == 100 for a in pop[30:])


def test_generate_holder_fraction_extremes():
    none = generate_population(
        small_profile(ps_holder_frac=0.0, bs_holder_frac=0.0), make_rng(1)
    )
    assert all(a.shares == 0 for a in none if a.kind is not PB)
    everyone = generate_population(small_profile(), make_rng(1))
    assert all(a.shares >= 1 for a in everyone if a.kind is not PB)


def test_generated_cash_is_the_exact_value_of_its_draw():
    # neither 0.1 nor a floor of 112.25 is whole: cash is the float's exact value
    profile = small_profile(cash_dist_pb=DistSpec("constant", {"value": 0.1}))
    pop = generate_population(profile, make_rng(0))
    assert all(a.cash == Fraction(0.1) != Fraction(1, 10) for a in pop if a.kind is PB)
    floored = generate_population(small_profile(cash_floor=112.25), make_rng(0))
    assert all(a.cash == Fraction(449, 4) for a in floored if a.kind is not PS)


def test_generate_holder_fraction_statistics():
    profile = small_profile(n_ps=400, ps_holder_frac=0.5)
    pop = generate_population(profile, make_rng(7))
    holders = sum(1 for a in pop if a.kind is PS and a.shares > 0)
    assert 160 <= holders <= 240  # binomial(400, .5), +-4 sd


def test_share_draws_floored_at_one_for_holders():
    profile = small_profile(
        share_dist_ps=DistSpec("constant", {"value": 0.2}),
        share_dist_bs=DistSpec("constant", {"value": 0.2}),
    )
    pop = generate_population(profile, make_rng(0))
    assert all(a.shares == 1 for a in pop if a.kind is not PB)


def test_cash_floor_applies():
    profile = small_profile(
        cash_dist_pb=DistSpec("constant", {"value": 3}), cash_floor=25.0
    )
    pop = generate_population(profile, make_rng(0))
    assert all(a.cash == 25 for a in pop if a.kind is PB)


def test_generate_is_deterministic_per_seed():
    p = small_profile(
        share_dist_ps=DistSpec("lognormal-rounded", {"mu": 3.0, "sigma": 1.0}),
        cash_dist_pb=DistSpec("pareto-rounded", {"shape": 1.3, "scale": 5.0}),
        ps_holder_frac=0.6,
    )
    a = generate_population(p, make_rng(99))
    b = generate_population(p, make_rng(99))
    c = generate_population(p, make_rng(100))
    assert all(x.shares == y.shares and x.cash == y.cash for x, y in zip(a, b))
    assert any(x.shares != y.shares or x.cash != y.cash for x, y in zip(a, c))


def test_profile_day_does_not_advance_its_seed_sequence():
    ss = np.random.SeedSequence(5)
    profile, params = default_profile(), ModelParams.baseline()
    first = simulate_profile_day(profile, params, ss)
    assert simulate_profile_day(profile, params, ss) == first
    assert first == simulate_profile_day(profile, params, 5)


def test_zero_holders_make_ratio_undefined():
    profile = small_profile(ps_holder_frac=0.0, bs_holder_frac=0.0)
    day = simulate_profile_day(profile, ModelParams.baseline(), 5)
    assert day.n_offers == 0
    assert day.liquidity_ratio is None


# --- the lazy profile day ----------------------------------------------------

_dists = st.one_of(
    st.builds(
        lambda v: DistSpec("constant", {"value": v}),
        st.sampled_from([0.0, 1.0, 37.5, 0.1]) | st.floats(0.0, 1e4),
    ),
    st.builds(
        lambda lo, w: DistSpec("uniform-integer", {"lo": lo, "hi": lo + w}),
        st.integers(0, 500),
        st.integers(0, 500),
    ),
    st.builds(
        lambda mu, sigma: DistSpec("lognormal-rounded", {"mu": mu, "sigma": sigma}),
        st.floats(0.0, 8.0),
        st.floats(0.0, 2.0),
    ),
    st.builds(
        lambda shape, scale: DistSpec("pareto-rounded", {"shape": shape, "scale": scale}),
        st.floats(0.5, 4.0),
        st.floats(0.0, 500.0),
    ),
)
_counts = st.sampled_from([0, 1]) | st.integers(0, 60)
_fracs = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def profiles(draw):
    return EndowmentProfile(
        share_dist_ps=draw(_dists),
        share_dist_bs=draw(_dists),
        cash_dist_pb=draw(_dists),
        cash_dist_bs=draw(_dists),
        n_pb=draw(_counts),
        n_ps=draw(_counts),
        n_bs=draw(_counts),
        ps_holder_frac=draw(_fracs),
        bs_holder_frac=draw(_fracs),
        cash_floor=draw(st.sampled_from([0.0, 0.5, 12.25]) | st.floats(0.0, 100.0)),
    )


@settings(max_examples=150, deadline=None)
@given(profile=profiles(), params=market_params(), seed=st.integers(0, 2**32))
def test_profile_day_equals_a_built_population_day(profile, params, seed):
    # the lazy path builds only the agents that act; the day must be the one
    # run_day makes on the whole generated population from the same streams
    gen_ss, day_ss = np.random.SeedSequence(seed).spawn(2)
    population = generate_population(profile, make_rng(gen_ss))
    _, want = run_day(population, params, day_ss)
    assert simulate_profile_day(profile, params, seed) == want


def test_profile_day_builds_only_the_agents_that_act(monkeypatch):
    # the sellers active in pre-trading and the buyers active in trading
    # whose budget passes the gate at the cheapest offer they could be
    # shown (for a buyer-seller, the cheapest below p_ref); a few hundred
    # of 1365. A buyer-seller called again after a sale posted an offer, so
    # it was built in pre-trading
    profile, params = default_profile(), ModelParams.baseline()
    gen_ss, day_ss = np.random.SeedSequence(8).spawn(2)
    lazy = _draw_columns(profile, make_rng(gen_ss))
    full = generate_population(profile, make_rng(gen_ss))
    book = run_pretrading(full, params, make_rng(day_ss))

    def gate(prices):
        return min(prices) * (1.0 - 1e-9) - 1e-300

    bounds = {
        PB: (params.pb_purchase_ratio, gate(o.price for o in book.offers)),
        BS: (params.bs_purchase_ratio, gate(o.price for o in book.offers if o.price < params.p_ref)),
    }
    (pretrading, *rounds), _ = drawn_visits(monkeypatch, lambda: run_day(lazy, params, day_ss))
    acting = set(pretrading[0]) | {
        i
        for ids, _ in rounds
        for i in ids
        if bounds[full[i].kind][0] * float(full[i].cash) >= bounds[full[i].kind][1]
    }
    built = {i for i, a in enumerate(lazy._agents) if a is not None}
    assert built == acting
    assert len(built) < len(lazy) / 4


def test_a_lazy_population_runs_one_day():
    # the columns keep the starting cash, so a second day on the same lazy
    # population would skip buyers by the first day's balances: it is a
    # ContractViolation before anything settles. A roster runs day after
    # day, each on a fresh view of its current balances
    profile, params = default_profile(), ModelParams.baseline()
    lazy = _draw_columns(profile, make_rng(4))
    roster = generate_population(profile, make_rng(4))
    assert run_day(lazy, params, 1) == run_day(roster, params, 1)
    after = [(a.shares, a.cash) for a in roster]
    assert [(a.shares, a.cash) for a in lazy] == after
    with pytest.raises(ContractViolation, match="^a population runs one day"):
        run_day(lazy, params, 2)
    assert [(a.shares, a.cash) for a in lazy] == after
    want = reference_day(roster, params, 2)
    _, day = run_day(roster, params, 2)
    assert want["balances"] != after  # day 2 trades
    assert [(a.shares, a.cash) for a in roster] == want["balances"]
    assert day == want["metrics"]
    assert run_day(list(lazy), params, 2)[1] == day


def test_a_profile_draw_beyond_float_range_is_an_endowment_error():
    profile = small_profile(cash_dist_pb=DistSpec("lognormal-rounded", {"mu": 800.0, "sigma": 0.0}))
    with pytest.raises(EndowmentError, match="beyond float range"):
        generate_population(profile, make_rng(0))
    with pytest.raises(EndowmentError, match="beyond float range"):
        simulate_profile_day(profile, ModelParams.baseline(), 0)


# --- CSV round trip ---------------------------------------------------------


def test_population_csv_round_trip(tmp_path):
    profile = small_profile(
        share_dist_ps=DistSpec("lognormal-rounded", {"mu": 3.0, "sigma": 1.0}),
        cash_dist_pb=DistSpec("lognormal-rounded", {"mu": 2.0, "sigma": 1.5}),
    )
    pop = generate_population(profile, make_rng(11))
    path = tmp_path / "endow.csv"
    save_population(pop, path)
    loaded = load_population(path)
    assert len(loaded) == len(pop)
    for a, b in zip(pop, loaded):
        assert a.kind is b.kind
        assert a.shares == b.shares
        assert a.cash == b.cash  # exact, not approximate


def test_round_trip_preserves_dyadic_cash(tmp_path):
    # post-trade balances carry float-price denominators; the writer must
    # render them exactly
    from conftest import make_agent

    a = make_agent(0, PB, 0, 100)
    a.cash -= Fraction(30.7) * 2  # dyadic but messy
    path = tmp_path / "endow.csv"
    save_population([a], path)
    loaded = load_population(path)
    assert loaded[0].cash == a.cash


def test_a_cash_with_no_finite_decimal_round_trips(tmp_path):
    from conftest import make_agent

    cash = [Fraction(1, 3), Fraction(200, 7), Fraction(1, 5), Fraction(41, 4), Fraction(3)]
    pop = [make_agent(i, PB, 0, c) for i, c in enumerate(cash)]
    path = tmp_path / "endow.csv"
    save_population(pop, path)
    assert path.read_text().splitlines()[1:] == [
        "PB,0,1/3", "PB,0,200/7", "PB,0,0.2", "PB,0,10.25", "PB,0,3"
    ]
    assert load_population(path) == pop


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("kind,shares\nPS,1\n")
    with pytest.raises(EndowmentError, match="header"):
        load_population(p)


def test_load_names_offending_row(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("kind,shares,cash\nPS,10,0\nXX,5,0\n")
    with pytest.raises(EndowmentError, match="row 2"):
        load_population(p)
    p.write_text("kind,shares,cash\nPS,-1,0\n")
    with pytest.raises(EndowmentError, match="row 1"):
        load_population(p)
    p.write_text("kind,shares,cash\nPB,0,-5\n")
    with pytest.raises(EndowmentError, match="row 1"):
        load_population(p)
    p.write_text("kind,shares,cash\nPB,0.5,1\n")
    with pytest.raises(EndowmentError, match="row 1"):
        load_population(p)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty file, expected header kind,shares,cash"),
        ("kind,shares,cash\nPB,0\n", "row 1: expected 3 fields, got 2"),
        ("kind,shares,cash\nPB,0,1\nPS,1,0,0\n", "row 2: expected 3 fields, got 4"),
        ("kind,shares,cash\nPB,0,ten\n", "row 1: cash 'ten' not a decimal"),
        ("kind,shares,cash\nPB,0,1/0\n", "row 1: cash '1/0' not a decimal"),
    ],
)
def test_a_bad_population_file_is_a_one_line_error(tmp_path, text, message):
    p = tmp_path / "x.csv"
    p.write_text(text)
    with pytest.raises(EndowmentError, match="^" + re.escape(f"{p}: {message}") + "$"):
        load_population(p)


def test_load_skips_blank_lines(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("kind,shares,cash\n\nPB,0,5\n  \nPS,3,0\n\n")
    assert [(a.id, a.kind, a.shares, a.cash) for a in load_population(p)] == [
        (0, PB, 0, 5), (1, PS, 3, 0)
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("{", r"is not valid JSON: Expecting property name enclosed in double quotes"),
        ("[1, 2]", r"must hold a JSON object$"),
    ],
)
def test_a_profile_file_that_holds_no_json_object_is_a_one_line_error(tmp_path, text, message):
    p = tmp_path / "prof.json"
    p.write_text(text)
    with pytest.raises(EndowmentError, match="^" + re.escape(f"profile file {p} ") + message) as e:
        load_profile(p)
    assert "\n" not in str(e.value)


def test_load_missing_file_names_path(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(EndowmentError, match="nope.csv"):
        load_population(missing)


@pytest.mark.parametrize("load", [load_population, load_profile])
def test_a_path_that_cannot_be_opened_is_a_one_line_error(load, tmp_path):
    for path, reason in ((str(tmp_path), "Is a directory"), ("bad\x00name", "embedded null byte")):
        with pytest.raises(EndowmentError, match=reason) as e:
            load(path)
        msg = str(e.value)
        assert repr(path) in msg and "\n" not in msg


@pytest.mark.parametrize("load", [load_population, load_profile])
def test_a_file_that_is_not_utf8_is_a_one_line_error(load, tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"kind,shares,cash\nPB,0,\xff\n" if load is load_population else b"{\xff}")
    with pytest.raises(EndowmentError, match=r"'.*bad' is not UTF-8 text: invalid start byte$"):
        load(p)


def test_load_decimal_cash_is_exact(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("kind,shares,cash\nPB,0,10.25\nPB,0,0.1\n")
    pop = load_population(p)
    assert pop[0].cash == Fraction(41, 4)
    assert pop[1].cash == Fraction(1, 10)


def test_loaded_population_runs(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text(
        "kind,shares,cash\n"
        "PS,10,0\n"
        "PB,0,500\n"
        "BS,8,200\n"
    )
    pop = load_population(p)
    _, day = run_day(pop, ModelParams.baseline(), 3)
    assert day.n_offers in (0, 1, 2)


# --- profiles ---------------------------------------------------------------


def test_profile_json_round_trip(tmp_path):
    prof = small_profile(ps_holder_frac=0.4)
    path = tmp_path / "prof.json"
    save_profile(prof, path, metadata={"objective": 0.5})
    loaded = load_profile(path)
    assert loaded == prof


def test_profile_validation_errors():
    with pytest.raises(ConfigError):
        small_profile(ps_holder_frac=1.5).validate()
    with pytest.raises(ConfigError):
        small_profile(n_pb=-1).validate()
    with pytest.raises(ConfigError, match=r"^constant value -2\.0 negative$"):
        small_profile(share_dist_ps=DistSpec("constant", {"value": -2}))


def test_profile_missing_key_rejected():
    with pytest.raises(ConfigError):
        EndowmentProfile.from_json_dict({"n_pb": 3})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n_pb", "x", "n_pb='x' is not a number"),
        ("n_ps", 2.5, "n_ps=2.5 is not an integer"),
        ("n_bs", "7.2", "n_bs='7.2' is not an integer"),
        ("n_bs", True, "n_bs=True is not a number"),
        ("ps_holder_frac", "most", "ps_holder_frac='most' is not a number"),
        ("cash_floor", "inf", "cash_floor=inf"),
        ("share_dist_ps", {"family": "constant", "value": "abc"},
         "share_dist_ps: value='abc' is not a number"),
        ("cash_dist_bs", {"family": "lognormal-rounded", "mu": 1, "sigma": [1]},
         r"cash_dist_bs: sigma=\[1\] is not a number"),
        ("share_dist_bs", {"family": "uniform-integer", "lo": "nan", "hi": 3},
         "share_dist_bs: lo='nan' is not an integer"),
        ("cash_dist_bs", {"family": "lognormal-rounded", "mu": "nan", "sigma": 1},
         r"cash_dist_bs: distribution 'lognormal-rounded': args \['mu'\] not finite numbers"),
        ("cash_dist_pb", 5, "cash_dist_pb: distribution spec 5 lacks a family"),
        ("share_dist_bs", json.loads('{"family": "uniform-integer", "lo": 0, "hi": 1%s}' % ("0" * 400)),
         r"^share_dist_bs: uniform-integer bounds \(0, 10{76}\.\.\.\) invalid$"),
    ],
)
def test_profile_bad_value_names_its_key(key, value, message):
    d = small_profile().to_json_dict()
    d[key] = value
    with pytest.raises(ConfigError, match=message):
        EndowmentProfile.from_json_dict(d)


def test_profile_counts_parse_integral_values_exactly():
    d = small_profile().to_json_dict()
    d.update(n_pb="12", n_ps=4.0)
    prof = EndowmentProfile.from_json_dict(d)
    assert (prof.n_pb, prof.n_ps) == (12, 4)
    assert type(prof.n_ps) is int


# --- calibration ------------------------------------------------------------


def test_evaluate_profile_self_targets_give_zero_objective():
    # measure a profile, then use its own means as targets: with common
    # random numbers the objective must vanish
    prof = small_profile(n_pb=40, n_ps=20, n_bs=10)
    params = ModelParams.baseline()
    _, sim = evaluate_profile(
        prof,
        CalibrationTargets(0.1, 1, 1, 1, 1),
        params,
        reps=30,
        seed=5,
    )
    targets = CalibrationTargets(**{k: sim[k] for k in CalibrationTargets.FIELDS})
    obj2, _ = evaluate_profile(prof, targets, params, reps=30, seed=5)
    assert obj2 == 0.0


@pytest.mark.parametrize(
    "seed, message", [(-1, "must be a non-negative integer"), (1.5, "is not an integer")]
)
def test_calibration_rejects_a_bad_seed(seed, message):
    targets = CalibrationTargets(0.1, 1, 1, 1, 1)
    with pytest.raises(ConfigError, match=rf"^master_seed={seed!r} {message}$"):
        evaluate_profile(small_profile(), targets, ModelParams.baseline(), reps=1, seed=seed)
    with pytest.raises(ConfigError, match=rf"seed={seed!r}"):
        calibrate_profile(targets, 1, seed, reps=1)


def test_calibrate_reports_each_candidate_and_scores_an_undefined_ratio_as_infinite():
    # a profile without share holders makes no offers, so its ratio is
    # undefined every day
    no_holders = small_profile(ps_holder_frac=0.0, bs_holder_frac=0.0)
    holders = small_profile(n_pb=40, n_ps=20, n_bs=10)
    targets, params = CalibrationTargets(0.1, 1, 1, 1, 1), ModelParams.baseline()
    obj, sim = evaluate_profile(no_holders, targets, params, reps=3, seed=9)
    assert obj == math.inf
    assert math.isnan(sim["liquidity_ratio"]) and sim["n_offers"] == 0.0
    scored, _ = evaluate_profile(holders, targets, params, reps=3, seed=9)
    calls = []
    best, best_obj = calibrate_profile(
        targets, 2, 9, params=params, reps=3, initial=[no_holders, holders],
        progress=lambda *triple: calls.append(triple),
    )
    assert calls == [(0, math.inf, math.inf), (1, scored, scored)]
    assert (best, best_obj) == (holders, scored)


def test_calibration_without_a_defined_ratio_is_a_config_error():
    # no share holders, so no offers: every candidate's objective is infinite
    no_holders = small_profile(n_pb=20, n_ps=10, n_bs=5, ps_holder_frac=0.0, bs_holder_frac=0.0)
    message = "^no candidate produced a day with a defined liquidity ratio$"
    with pytest.raises(ConfigError, match=message):
        calibrate_profile(DEFAULT_TARGETS, 1, 0, reps=2, initial=[no_holders])


def test_calibrate_warm_start_never_loses_to_no_better_candidate():
    prof = small_profile(n_pb=40, n_ps=20, n_bs=10)
    params = ModelParams.baseline()
    _, sim = evaluate_profile(
        prof, CalibrationTargets(0.1, 1, 1, 1, 1), params, reps=20, seed=9
    )
    targets = CalibrationTargets(**{k: sim[k] for k in CalibrationTargets.FIELDS})
    best, obj = calibrate_profile(
        targets, 4, 9, params=params, reps=20, initial=[prof]
    )
    assert obj == 0.0
    assert best == prof


def test_calibrate_budget_one_returns_sampled_candidate():
    best, obj = calibrate_profile(
        CalibrationTargets(0.1, 10, 10, 100, 10), 1, 3, reps=2
    )
    best.validate()
    assert obj >= 0.0


def test_calibrate_is_deterministic():
    targets = CalibrationTargets(0.1, 10, 10, 100, 10)
    a = calibrate_profile(targets, 3, 11, reps=3)
    b = calibrate_profile(targets, 3, 11, reps=3)
    assert a == b


# SHA-256 of the sorted-key JSON of a small calibration's best profile and
# objective. Moving or restructuring calibration must leave it bit-identical.
CALIBRATION_DIGEST = "51e272a0069b528ec3f39611397fad7fb3f7057f8ac74db757ccf779ba63bff0"


def test_calibration_digest_is_pinned():
    best, objective = calibrate_profile(DEFAULT_TARGETS, 3, 11, reps=3)
    record = json.dumps([best.to_json_dict(), objective], sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == CALIBRATION_DIGEST


def test_calibration_digest_holds_at_two_jobs():
    best, objective = calibrate_profile(DEFAULT_TARGETS, 3, 11, reps=3, jobs=2)
    record = json.dumps([best.to_json_dict(), objective], sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == CALIBRATION_DIGEST


@pytest.mark.parametrize(
    "target, message",
    [
        (True, "invalid targets: liquidity_ratio=True is not a number"),
        (None, "invalid targets: liquidity_ratio=None is not a number"),
        ([0.1], r"invalid targets: liquidity_ratio=\[0\.1\] is not a number"),
        (0.0, "target liquidity_ratio=0.0 must be a positive finite number"),
        (-1, "target liquidity_ratio=-1.0 must be a positive finite number"),
        (math.inf, "target liquidity_ratio=inf must be a positive finite number"),
        ("nan", "target liquidity_ratio=nan must be a positive finite number"),
    ],
)
def test_targets_must_be_positive_finite_numbers(target, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        CalibrationTargets(target, n_offers=60, n_trades=100, offered_shares=4000, traded_shares=500)
    read = CalibrationTargets("0.1", 60, 100, "4000", 500)
    assert read == CalibrationTargets(0.1, 60.0, 100.0, 4000.0, 500.0)
    assert {type(getattr(read, k)) for k in CalibrationTargets.FIELDS} == {float}


BEYOND_FLOAT = 10**400  # an int no float can hold


@pytest.mark.parametrize(
    "call",
    [
        lambda: ModelParams(p_ref=BEYOND_FLOAT).validate(),
        lambda: ModelParams(k_pb=BEYOND_FLOAT).validate(),
        lambda: ModelParams(ps_price_lo=BEYOND_FLOAT, ps_price_hi=BEYOND_FLOAT).validate(),
        lambda: DistSpec("constant", {"value": BEYOND_FLOAT}).validate(),
        lambda: generate_population(small_profile(cash_floor=BEYOND_FLOAT), make_rng(0)),
        lambda: evaluate_profile(
            small_profile(), CalibrationTargets(BEYOND_FLOAT, 1, 1, 1, 1),
            ModelParams.baseline(), reps=1, seed=0,
        ),
    ],
    ids=["p_ref", "k_pb", "price_bounds", "dist_value", "cash_floor", "target"],
)
def test_an_int_beyond_float_range_is_no_float_number(call):
    with pytest.raises(ConfigError) as exc:
        call()
    assert "\n" not in str(exc.value)


def test_calibrate_rejects_nonpositive_targets():
    with pytest.raises(ConfigError):
        calibrate_profile(CalibrationTargets(0.0, 1, 1, 1, 1), 2, 0, reps=2)
    with pytest.raises(ConfigError):
        calibrate_profile(CalibrationTargets(0.1, 1, 1, 1, 1), 0, 0, reps=2)


def test_sampled_candidates_are_valid_profiles():
    rng = make_rng(21)
    for _ in range(50):
        _sample_candidate(rng).validate()
