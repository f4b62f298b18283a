"""Batch/sweep harness: seed derivation, parallel equivalence, axes, writers."""

import csv
import hashlib
import json
import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params, make_population
from test_endowments import profiles
from test_reference_day import market_params, rosters

from fracmarket import (
    DEFAULT_TARGETS,
    ConfigError,
    DistSpec,
    EndowmentProfile,
    ModelParams,
    SweepSpec,
    apply_axis,
    calibrate_profile,
    default_profile,
    experiment_seed,
    run_batch,
    run_day,
    run_sweep,
    save_population,
    simulate_profile_day,
    sweep_axes,
    write_sweep_csv,
    write_sweep_json,
)
from fracmarket import experiments
from fracmarket.metrics import aggregate


def tiny_profile() -> EndowmentProfile:
    return EndowmentProfile(
        n_pb=20,
        n_ps=10,
        n_bs=6,
        share_dist_ps=DistSpec("constant", {"value": 10}),
        share_dist_bs=DistSpec("constant", {"value": 10}),
        cash_dist_pb=DistSpec("constant", {"value": 100}),
        cash_dist_bs=DistSpec("constant", {"value": 100}),
    )


# --- seeds ------------------------------------------------------------------


def test_experiment_seed_is_stable_and_distinct():
    a = experiment_seed(7, 0, 3).generate_state(4)
    b = experiment_seed(7, 0, 3).generate_state(4)
    assert (a == b).all()
    others = [
        experiment_seed(7, 0, 4).generate_state(4),
        experiment_seed(7, 1, 3).generate_state(4),
        experiment_seed(8, 0, 3).generate_state(4),
    ]
    for o in others:
        assert (a != o).any()


def test_single_rep_batch_matches_direct_day():
    profile = tiny_profile()
    params = make_params()
    agg = run_batch(params, profile, 1, master_seed=42)
    day = simulate_profile_day(profile, params, experiment_seed(42, 0, 0))
    assert agg == aggregate([day])


# --- batches ----------------------------------------------------------------

# SHA-256 of the sorted-key JSON record of a 50-day baseline batch on the
# packaged profile. A refactor must leave it bit-identical; a deliberate
# change of the random-stream layout re-pins it and says so.
GOLDEN_DIGEST = "2470229aa6a636be4fc202a214d01e7a21dedc6dd3b49b5e109c7a884ef618bf"


@pytest.mark.parametrize("jobs", [1, 2])
def test_golden_digest_is_pinned(jobs):
    agg = run_batch(ModelParams.baseline(), default_profile(), 50, 0, jobs=jobs)
    record = json.dumps(agg.to_record(), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == GOLDEN_DIGEST


BAD_SEEDS = [-1, 1.5, True, "3", None]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_bad_master_seed_is_a_config_error_naming_it(seed):
    profile = tiny_profile()
    with pytest.raises(ConfigError, match=rf"master_seed={seed!r} must be a non-negative integer"):
        run_batch(make_params(), profile, 2, seed)
    with pytest.raises(ConfigError, match=rf"master_seed={seed!r}"):
        run_sweep(SweepSpec("pb_trade_prob", (0.1,), reps=1, master_seed=seed), profile)
    with pytest.raises(ConfigError, match=rf"seed={seed!r}"):
        simulate_profile_day(profile, make_params(), seed)


def test_numpy_integer_seed_is_accepted():
    profile = tiny_profile()
    assert run_batch(make_params(), profile, 2, np.int64(4)) == run_batch(
        make_params(), profile, 2, 4
    )


def test_batch_is_deterministic():
    profile = tiny_profile()
    params = make_params()
    assert run_batch(params, profile, 5, 9) == run_batch(params, profile, 5, 9)
    assert run_batch(params, profile, 5, 9) != run_batch(params, profile, 5, 10)


def test_parallel_batch_matches_serial():
    profile = tiny_profile()
    params = make_params()
    serial = run_batch(params, profile, 8, 3, jobs=1)
    parallel = run_batch(params, profile, 8, 3, jobs=2)
    assert serial == parallel


@settings(max_examples=15, deadline=None)
@given(
    params=market_params(),
    source=profiles() | rosters(),
    reps=st.integers(2, 4),
    seed=st.integers(0, 2**32),
)
def test_two_jobs_give_the_serial_record(params, source, reps, seed):
    # every example starts a pool of two workers, so there are few of them
    serial = run_batch(params, source, reps, seed, jobs=1)
    parallel = run_batch(params, source, reps, seed, jobs=2)
    # compared as JSON, where an undefined mean (NaN) equals itself
    assert json.dumps(parallel.to_record()) == json.dumps(serial.to_record())


def test_pool_has_at_most_one_worker_per_day(monkeypatch):
    sizes = []

    class InlinePool:
        # stands in for multiprocessing.Pool: records the size asked for and
        # runs the days in this process, so no worker starts
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(experiments, "_WORKER_CTX", {})
    profile, params = tiny_profile(), make_params()
    assert run_batch(params, profile, 2, 3, jobs=64) == run_batch(params, profile, 2, 3)
    run_batch(params, profile, 1, 3, jobs=64)
    run_batch(params, profile, 40, 3, jobs=2)
    assert sizes == [2, 2]


def test_roster_source_not_mutated():
    roster = make_population(20, 10, 6)
    before = [(a.kind, a.shares, a.cash) for a in roster]
    run_batch(make_params(), roster, 3, 0)
    assert [(a.kind, a.shares, a.cash) for a in roster] == before


def test_file_source_matches_roster_source(tmp_path):
    roster = make_population(20, 10, 6)
    path = tmp_path / "pop.csv"
    save_population(roster, path)
    params = make_params()
    assert run_batch(params, path, 4, 1) == run_batch(params, roster, 4, 1)


def test_batch_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        run_batch(make_params(), tiny_profile(), 0, 0)
    with pytest.raises(ConfigError):
        run_batch(make_params(), tiny_profile(), 1, 0, jobs=0)
    with pytest.raises(ConfigError):
        run_batch(make_params(), [object()], 1, 0)


@pytest.mark.parametrize("value", [0, -1, 2.5, "3", None, True])
def test_every_count_must_be_a_positive_integer(value):
    params, profile = make_params(), tiny_profile()
    for name, call in (
        ("reps", lambda: run_batch(params, profile, value, 0)),
        ("jobs", lambda: run_batch(params, profile, 1, 0, jobs=value)),
        ("reps", lambda: SweepSpec("pb_trade_prob", (0.1,), reps=value).validate()),
        ("search_budget", lambda: calibrate_profile(DEFAULT_TARGETS, value, 0, reps=1)),
    ):
        with pytest.raises(ConfigError, match=rf"^{name}={value!r} must be a positive integer$"):
            call()


# every entry that takes a roster checks it the same way
_ROSTER_RUNS = {
    "run_batch": lambda params, roster: run_batch(params, roster, 3, 0),
    "run_day": lambda params, roster: run_day(roster, params, 0),
}


@pytest.mark.parametrize("run", _ROSTER_RUNS.values(), ids=_ROSTER_RUNS.keys())
@pytest.mark.parametrize("sellers_first", [False, True])
def test_batch_rejects_roster_ids_that_are_not_positions(sellers_first, run):
    buyers, sellers = make_population(n_pb=20), make_population(n_ps=20)
    roster = sellers + buyers if sellers_first else buyers + sellers
    for pos, agent in enumerate(roster):
        agent.id = 10 + pos  # ids 10..49, not list positions
    params = make_params(ps_offer_prob=0.9, pb_trade_prob=0.9)
    with pytest.raises(ConfigError, match="position 0 has id 10") as exc:
        run(params, roster)
    assert "\n" not in str(exc.value)
    with pytest.raises(ConfigError, match="^population roster contains a non-agent: 'x'$"):
        run(params, ["x"])


@settings(max_examples=25, deadline=None)
@given(
    params=market_params(),
    roster=rosters(),
    reps=st.integers(1, 4),
    seed=st.integers(0, 2**32),
)
def test_roster_batch_matches_days_on_full_copies(params, roster, reps, seed):
    # a batch copies an agent only when its day first touches it; the
    # reference copies the whole roster every day
    before = [a.copy() for a in roster]
    want = aggregate(
        [
            run_day([a.copy() for a in roster], params, experiment_seed(seed, 0, r))[1]
            for r in range(reps)
        ]
    )
    got = run_batch(params, roster, reps, seed)
    # compared as JSON, where an undefined mean (NaN) equals itself
    assert json.dumps(got.to_record()) == json.dumps(want.to_record())
    assert roster == before


# --- sweep axes -------------------------------------------------------------


def test_apply_axis_plain_field():
    p = apply_axis(make_params(), "ps_offer_prob", 0.2)
    assert p.ps_offer_prob == 0.2
    assert p.pb_trade_prob == make_params().pb_trade_prob


def test_apply_axis_market_range_pair():
    p = apply_axis(make_params(), "market_range", (0.7, 1.2))
    assert (p.market_lo, p.market_hi) == (0.7, 1.2)
    assert (p.ps_price_lo, p.ps_price_hi) == (0.7, 1.2 - 0.05)
    assert (p.bs_price_lo, p.bs_price_hi) == (0.7 + 0.05, 1.2)


def test_apply_axis_market_width_keeps_midpoint():
    base = make_params()
    mid = (base.market_lo + base.market_hi) / 2.0
    p = apply_axis(base, "market_width", 0.2)
    assert p.market_hi - p.market_lo == pytest.approx(0.2)
    assert (p.market_lo + p.market_hi) / 2.0 == pytest.approx(mid)


def test_apply_axis_market_midpoint_keeps_width():
    base = make_params()
    width = base.market_hi - base.market_lo
    p = apply_axis(base, "market_midpoint", 1.0)
    assert (p.market_lo + p.market_hi) / 2.0 == pytest.approx(1.0)
    assert p.market_hi - p.market_lo == pytest.approx(width)


def test_apply_axis_unknown_parameter_lists_axes():
    with pytest.raises(ConfigError, match="market_width"):
        apply_axis(make_params(), "spread", 0.1)


def test_apply_axis_bad_value_names_value():
    with pytest.raises(ConfigError, match="-0.5"):
        apply_axis(make_params(), "ps_offer_prob", -0.5)
    with pytest.raises(ConfigError, match="pair"):
        apply_axis(make_params(), "market_range", 0.9)
    with pytest.raises(ConfigError, match="pair"):
        apply_axis(make_params(), "market_range", ("lo", "hi"))
    with pytest.raises(ConfigError, match="'abc' is not a number"):
        apply_axis(make_params(), "market_width", "abc")


@pytest.mark.parametrize("axis", [a for a in sweep_axes() if a != "debit_exit_fee"])
def test_a_bool_is_a_number_on_no_axis(axis):
    # float(True) is 1.0, but a bool is not a width, midpoint or bound of 1
    value = (True, 1.2) if axis == "market_range" else True
    prefix = re.escape(f"sweep value {value!r} for '{axis}': ")
    with pytest.raises(ConfigError, match="^" + prefix):
        apply_axis(make_params(), axis, value)


def test_apply_axis_integer_fields():
    assert apply_axis(make_params(), "bs_search_len", 7.0).bs_search_len == 7
    assert type(apply_axis(make_params(), "n_trading_iters", 3.0).n_trading_iters) is int
    with pytest.raises(ConfigError):
        apply_axis(make_params(), "bs_search_len", 7.5)


def test_apply_axis_debit_flag_coerced():
    assert apply_axis(make_params(), "debit_exit_fee", 1).debit_exit_fee is True
    assert apply_axis(make_params(), "debit_exit_fee", "false").debit_exit_fee is False
    with pytest.raises(ConfigError, match="flag"):
        apply_axis(make_params(), "debit_exit_fee", "no")


def test_sweep_axes_cover_fields_and_composites():
    axes = sweep_axes()
    assert "ps_offer_prob" in axes
    assert "market_range" in axes and "market_midpoint" in axes


# --- sweeps -----------------------------------------------------------------


def test_sweep_positions_match_batches():
    profile = tiny_profile()
    spec = SweepSpec("pb_trade_prob", (0.05, 0.3), reps=4, master_seed=2)
    results = run_sweep(spec, profile)
    assert [v for v, _ in results] == [0.05, 0.3]
    assert spec.validate() == tuple(
        apply_axis(spec.base_params, "pb_trade_prob", v) for v in spec.values
    )
    for i, (v, agg) in enumerate(results):
        params_v = apply_axis(spec.base_params, "pb_trade_prob", v)
        assert agg == run_batch(params_v, profile, 4, 2, axis_index=i)


def test_sweep_applies_each_value_once(monkeypatch):
    applied = []

    def counted(base, parameter, value):
        applied.append(value)
        return apply_axis(base, parameter, value)

    monkeypatch.setattr(experiments, "apply_axis", counted)
    run_sweep(SweepSpec("pb_trade_prob", (0.05, 0.3), reps=1), tiny_profile())
    assert applied == [0.05, 0.3]


@pytest.mark.parametrize(
    "parameter, values, want",
    [
        ("pb_trade_prob", "0.05, 0.1", (0.05, 0.1)),
        ("pb_trade_prob", ("0.1", 0.2), (0.1, 0.2)),
        ("bs_search_len", ["2", 3.0, 4], (2, 3.0, 4)),
        ("market_range", "0.7:1.2,0.8:1.1", ((0.7, 1.2), (0.8, 1.1))),
        ("market_range", [["0.7", "1.2"], (0.8, 1.1)], ((0.7, 1.2), (0.8, 1.1))),
        # text no axis reads stays as given, for validate to reject
        ("market_width", ["abc", True], ("abc", True)),
        ("spread", "0.1", ("0.1",)),
    ],
)
def test_sweep_spec_reads_its_values(parameter, values, want):
    got = SweepSpec(parameter, values).values
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("values", [0.1, None, {}, {"a": 1}, 3])
def test_sweep_values_of_another_type_are_a_config_error(values):
    message = rf"^sweep values {re.escape(repr(values))} must be a list, a tuple or a,b,c text$"
    with pytest.raises(ConfigError, match=message):
        SweepSpec("pb_trade_prob", values)


def test_sweep_prefix_stability():
    # extending the value list must not change earlier rows
    profile = tiny_profile()
    short = run_sweep(SweepSpec("ps_offer_prob", (0.1,), reps=3, master_seed=4), profile)
    long = run_sweep(SweepSpec("ps_offer_prob", (0.1, 0.2), reps=3, master_seed=4), profile)
    assert short[0] == long[0]


def test_sweep_validates_every_value_up_front():
    spec = SweepSpec("ps_offer_prob", (0.1, 2.0), reps=1)
    with pytest.raises(ConfigError, match="2.0"):
        spec.validate()
    with pytest.raises(ConfigError):
        SweepSpec("ps_offer_prob", (), reps=1).validate()


# --- writers ----------------------------------------------------------------


def test_sweep_csv_round_trips_full_precision(tmp_path):
    profile = tiny_profile()
    spec = SweepSpec("pb_trade_prob", (0.05, 0.3), reps=4, master_seed=2)
    results = run_sweep(spec, profile)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(results, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == [
        "value",
        "liquidity_ratio",
        "n_offers",
        "n_trades",
        "offered_shares",
        "traded_shares",
    ]
    assert len(rows) == 3
    for row, (value, agg) in zip(rows[1:], results):
        assert float(row[0]) == value
        for cell, name in zip(row[1:], rows[0][1:]):
            assert float(cell) == agg.mean(name)  # repr round trip, no loss


def test_sweep_csv_renders_range_pairs(tmp_path):
    profile = tiny_profile()
    spec = SweepSpec(
        "market_range", ((0.75, 1.1), (0.8, 1.2)), reps=2, master_seed=0
    )
    results = run_sweep(spec, profile)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(results, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1][0] == "0.75:1.1"
    assert rows[2][0] == "0.8:1.2"


def test_sweep_json_carries_dispersion(tmp_path):
    profile = tiny_profile()
    spec = SweepSpec("pb_trade_prob", (0.05, 0.3), reps=4, master_seed=2)
    results = run_sweep(spec, profile)
    path = tmp_path / "sweep.json"
    write_sweep_json(spec, results, path)
    doc = json.loads(path.read_text())
    assert doc["parameter"] == "pb_trade_prob"
    assert doc["reps"] == 4
    assert len(doc["rows"]) == 2
    for row, (value, agg) in zip(doc["rows"], results):
        assert row["value"] == value
        rec = agg.to_record()
        for key, want in rec.items():
            assert row[key] == want
