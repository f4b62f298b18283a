"""Valid when made: each config type checks itself in `__post_init__`.

`ModelParams`, `DistSpec`, `EndowmentProfile`, `CalibrationTargets` and
`SweepSpec` either come out valid or raise a one-line ConfigError, so the
code that runs days re-checks none of them. Messages quote values through
one bounded repr, which copes with an integer too long for Python to print.
"""

import contextlib
import io
import json
import pickle
import warnings
from dataclasses import asdict, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fracmarket import (
    CalibrationTargets,
    ConfigError,
    DistSpec,
    EndowmentError,
    EndowmentProfile,
    ModelParams,
    SweepSpec,
    as_count,
    as_number,
    default_profile,
    generate_population,
    make_rng,
    run_batch,
    run_sweep,
    sweep_axes,
)
from fracmarket.cli import main
from fracmarket.endowments import _FAMILIES, load_population, load_profile, save_profile

SMALL_PROFILE = {**default_profile().__dict__, "n_pb": 30, "n_ps": 15, "n_bs": 10}


def small_profile(**changes) -> EndowmentProfile:
    return EndowmentProfile(**{**SMALL_PROFILE, **changes})


BAD_FIELD = {
    "ModelParams": lambda: ModelParams(pb_trade_prob=2.0),
    "DistSpec": lambda: DistSpec("lognormal-rounded", {"mu": 1.0, "sigma": -1.0}),
    "EndowmentProfile": lambda: small_profile(n_pb=-1),
    "CalibrationTargets": lambda: CalibrationTargets(0.0, 60, 100, 4000, 500),
    "SweepSpec": lambda: SweepSpec("pb_trade_prob", (0.1,), reps=0),
}


@pytest.mark.parametrize("make", BAD_FIELD.values(), ids=list(BAD_FIELD))
def test_a_config_type_made_with_one_bad_field_is_refused_in_one_line(make):
    with pytest.raises(ConfigError) as e:
        make()
    assert "\n" not in str(e.value)


def test_a_dist_spec_keeps_its_own_copy_of_its_args():
    args = {"mu": 1.0, "sigma": 1.0}
    profile = small_profile(cash_dist_pb=DistSpec("lognormal-rounded", args))
    args["sigma"] = -1
    assert profile.cash_dist_pb.args == {"mu": 1.0, "sigma": 1.0}
    with pytest.raises(TypeError):
        profile.cash_dist_pb.args["sigma"] = -1
    assert profile.cash_dist_pb.args == {"mu": 1.0, "sigma": 1.0}
    assert len(generate_population(profile, make_rng(0))) == 55
    assert pickle.loads(pickle.dumps(profile)) == profile  # a pool's workers receive it so
    assert replace(profile.cash_dist_pb, family="lognormal-rounded") == profile.cash_dist_pb
    assert asdict(profile)["cash_dist_pb"]["args"] == {"mu": 1.0, "sigma": 1.0}


def test_a_profile_holds_plain_numbers_and_saves(tmp_path):
    profile = small_profile(
        n_pb=np.int64(30), cash_floor=np.float64(1.5),
        share_dist_ps=DistSpec("uniform-integer", {"lo": np.int64(1), "hi": np.uint8(9)}),
    )
    assert type(profile.n_pb) is int and type(profile.cash_floor) is float
    assert {type(v) for v in profile.share_dist_ps.args.values()} == {int}
    save_profile(profile, tmp_path / "p.json")
    assert load_profile(tmp_path / "p.json") == profile


def test_a_day_re_checks_nothing(monkeypatch):
    params, profile = ModelParams(), small_profile()
    spec = SweepSpec("pb_trade_prob", (0.1, 0.2), reps=2)

    def refused(self):
        raise AssertionError(f"{type(self).__name__} checked again")

    for cls in (ModelParams, DistSpec, EndowmentProfile, SweepSpec):
        monkeypatch.setattr(cls, "validate", refused)
    assert run_batch(params, profile, 2, 0).n_experiments == 2
    assert [v for v, _ in run_sweep(spec, profile)] == [0.1, 0.2]


def test_counts_too_large_to_draw_are_an_endowment_error(tmp_path):
    # numpy refuses an array of 10**19 items before it allocates anything
    message = (
        r"^profile counts n_pb=10000000000000000000, n_ps=15, n_bs=10 too large to draw: "
        r"Maximum allowed dimension exceeded$"
    )
    with pytest.raises(EndowmentError, match=message):
        generate_population(small_profile(n_pb=10**19), make_rng(0))
    path = tmp_path / "big.json"
    path.write_text(json.dumps({**small_profile().to_json_dict(), "n_pb": 10**19}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["gen-endowments", "--profile", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert err.getvalue().startswith("fracmarket: configuration error: profile counts n_pb=")
    assert err.getvalue().count("\n") == 1


# --- integers however long ---------------------------------------------------

HUGE = 10**5000  # past Python's 4300-digit limit for int <-> text


@pytest.mark.parametrize(
    "value",
    [10**400, -(10**400), np.int64(-7), np.uint64(2**64 - 1)],
    ids=["10**400", "-10**400", "int64", "uint64"],
)
def test_an_integer_is_read_exactly_for_an_int(value):
    got = as_number("n", value, int)
    assert got == int(value) and type(got) is int


@pytest.mark.parametrize(
    "make, quoted",
    [
        (lambda: ModelParams(p_ref=HUGE), "p_ref=<int too long to print>"),
        (lambda: as_count(-HUGE, "reps"), "reps=<int too long to print>"),
        (lambda: CalibrationTargets(HUGE, 1, 1, 1, 1), "liquidity_ratio=<int too long to print>"),
    ],
    ids=["ModelParams", "as_count", "CalibrationTargets"],
)
def test_an_integer_too_long_to_print_is_quoted_by_its_type(make, quoted):
    with pytest.raises(ConfigError, match=quoted) as e:
        make()
    assert "\n" not in str(e.value)


def test_a_json_integer_too_long_to_read_is_an_endowment_error(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text('{"n_pb": 1' + "0" * 5000 + "}")
    with pytest.raises(EndowmentError, match=r"is not valid JSON: Exceeds the limit") as e:
        load_profile(path)
    assert "\n" not in str(e.value)


def test_a_long_value_is_quoted_shortened():
    with pytest.raises(ConfigError, match=r"^seed='x{76}\.\.\. is not a number$"):
        as_number("seed", "x" * 200, int)


def test_a_long_roster_cell_is_quoted_shortened(tmp_path):
    path = tmp_path / "roster.csv"
    path.write_text("kind,shares,cash\nPS," + "1" * 5000 + ",0\n")
    with pytest.raises(EndowmentError, match=r"row 1: shares '1{76}\.\.\. not an integer$"):
        load_population(path)


# --- made, or refused in one line ----------------------------------------------

JUNK = st.sampled_from(
    [None, [], [0.5], (), {}, {"a": 1}, b"1", 1j, Decimal("0.5"), Fraction(1, 2),
     np.array([[1, 2], [3, 4]]), object()]
)
NUMBERS = st.floats(0, 1) | st.floats() | st.integers(-3, 60)
TEXT = NUMBERS.map(str) | st.text(max_size=4)
NUMPY_INTS = st.integers(-3, 60).map(np.int64) | st.sampled_from([np.uint8(255), np.uint8(0)])
HUGE_INTS = st.sampled_from([10**400, -(10**400), HUGE])
VALUE = NUMBERS | TEXT | st.booleans() | NUMPY_INTS | HUGE_INTS | JUNK


def args_for(family) -> st.SearchStrategy:
    """A dict of `family`'s argument names, or of "value" for an unknown
    family, each mapped to a drawn value; or a drawn value in place of the dict."""
    known = isinstance(family, str) and family in _FAMILIES
    names = _FAMILIES[family][0] if known else ("value",)
    return st.fixed_dictionaries({k: VALUE for k in names}) | VALUE


DIST_SPECS = (st.sampled_from(sorted(_FAMILIES)) | VALUE).flatmap(
    lambda family: args_for(family).map(lambda args: (DistSpec, (family, args), {}))
)
VALID_DISTS = st.sampled_from(
    [DistSpec("constant", {"value": 5}), DistSpec("uniform-integer", {"lo": 0, "hi": 40}),
     DistSpec("lognormal-rounded", {"mu": 2.0, "sigma": 1.0}),
     DistSpec("pareto-rounded", {"shape": 1.5, "scale": 3.0})]
)
PROFILES = st.dictionaries(
    st.sampled_from(sorted(SMALL_PROFILE)), VALUE | VALID_DISTS, max_size=3
).map(lambda changes: (small_profile, (), changes))
PARAMS = st.dictionaries(
    st.sampled_from(ModelParams.field_names()), VALUE, max_size=3
).map(lambda changes: (ModelParams, (), changes))
TARGETS = st.lists(st.floats(0.01, 5000) | VALUE, min_size=5, max_size=5).map(
    lambda targets: (CalibrationTargets, tuple(targets), {})
)
SWEEP_VALUES = st.lists(VALUE, max_size=3) | VALUE
SWEEPS = st.builds(
    lambda parameter, values, reps, seed, base: (
        SweepSpec, (parameter, values), dict(reps=reps, master_seed=seed, base_params=base)
    ),
    st.sampled_from(sweep_axes()) | VALUE,
    SWEEP_VALUES,
    st.integers(1, 3) | VALUE,
    st.integers(0, 10) | VALUE,
    st.just(ModelParams()) | VALUE,
)
MADE = {
    "ModelParams": PARAMS,
    "DistSpec": DIST_SPECS,
    "EndowmentProfile": PROFILES,
    "CalibrationTargets": TARGETS,
    "SweepSpec": SWEEPS,
}


def made_or_refused(make, args, kwargs):
    """The object, or None after checking that it was refused in one line."""
    try:
        obj = make(*args, **kwargs)
    except ConfigError as e:
        assert "\n" not in str(e), str(e)
        return None
    obj.validate()
    return obj


@pytest.mark.parametrize("kind", sorted(MADE))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_config_type_is_made_valid_or_refused_in_one_line(kind, data):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        made_or_refused(*data.draw(MADE[kind], label=kind))
    assert not caught, [str(w.message) for w in caught]


def near(example) -> st.SearchStrategy:
    """Values of `example`'s type that are mostly valid, three times in four;
    else any drawn value."""
    if isinstance(example, DistSpec):
        valid = VALID_DISTS
    elif isinstance(example, (bool, np.bool_)):
        valid = st.booleans()
    elif isinstance(example, int):
        valid = st.integers(1, 40) | st.integers(1, 40).map(np.int64)
    else:
        valid = st.floats(0, 1)
    return st.integers(0, 3).flatmap(lambda k: valid if k else VALUE)


def near_changes(fields: dict) -> st.SearchStrategy:
    """Up to three of `fields` changed to values `near` their own."""
    change = st.sampled_from(sorted(fields)).flatmap(
        lambda k: near(fields[k]).map(lambda v: (k, v))
    )
    return st.lists(change, max_size=3).map(dict)


BASELINE = {name: getattr(ModelParams(), name) for name in ModelParams.field_names()}
NEAR_PARAMS = near_changes(BASELINE).map(lambda changes: (ModelParams, (), changes))
NEAR_PROFILES = near_changes(SMALL_PROFILE).map(lambda changes: (small_profile, (), changes))
# a day's cost grows with its agents and rounds, which a valid parameter set
# or profile may make as large as it likes; these bounds keep one day small.
# A count past numpy's array limit is valid as well; drawing it is a one-line
# EndowmentError (test_counts_too_large_to_draw_are_an_endowment_error).
MAX_AGENTS, MAX_ROUNDS = 200, 40


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(params=NEAR_PARAMS, profile=NEAR_PROFILES)
def test_a_valid_parameter_set_and_profile_run_a_day(params, profile):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p, prof = made_or_refused(*params), made_or_refused(*profile)
        small = (
            p is not None and prof is not None and p.n_trading_iters <= MAX_ROUNDS
            and sum(int(n) for n in (prof.n_pb, prof.n_ps, prof.n_bs)) <= MAX_AGENTS
        )
        event("ran a day" if small else "made no small day")
        if small:
            assert run_batch(p, prof, 1, 0).n_experiments == 1
    assert not caught, [str(w.message) for w in caught]
