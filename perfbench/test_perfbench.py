"""Tests of the benchmark itself: every workload runs and passes its checks,
and every check fails on a tampered output.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import env

env.use_checkout_source()

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fracmarket import (  # noqa: E402
    AgentKind,
    AggregateMetrics,
    ModelParams,
    default_profile,
    endowments,
    engine,
    experiments,
    run_batch,
    run_day,
)

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=env.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_checks(name, trace):
    out = _run("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    record = json.loads((env.OUT / f"{name}-seed3-trace{trace}.json").read_text())
    # a declared layer the run never reached is listed as absent, not reported
    reported = {k: m["unit"] for k, m in result["metrics"].items()}
    absent = set(record["absent_layers"]) & set(declared)
    assert reported == {k: u for k, u in declared.items() if k not in absent}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_workload_names_match_the_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_digest_command_recomputes_the_reported_digest():
    run = _run("--workload", "roster_deep_book", "--seed", "4", "--seconds", "0.1")
    reported = next(
        line.split()[3].rstrip(";") for line in run.stdout.splitlines() if "round-0 sha256" in line
    )
    again = _run("--workload", "roster_deep_book", "--seed", "4", "--digest")
    assert again.returncode == 0, again.stderr
    assert again.stdout.split()[0] == reported


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = _run("--workload", "profile_batch", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# --- checks on tampered outputs ----------------------------------------------


def _reference_aggregate(**shift) -> AggregateMetrics:
    means = {name: target for name, (target, _) in checks.REFERENCE.items()}
    means.update({"traded_notional": 0.0, "platform_revenue": 0.0})
    for name, delta in shift.items():
        means[name] += delta
    return AggregateMetrics(200, 0, means, {name: 1.0 for name in means})


def test_reference_check_passes_on_reference_means():
    assert checks.check_reference([_reference_aggregate()]) == []


@pytest.mark.parametrize("name", list(checks.REFERENCE))
def test_reference_check_fails_when_one_mean_is_shifted(name):
    tol = checks.REFERENCE[name][1]
    problems = checks.check_reference([_reference_aggregate(**{name: 1.01 * tol})])
    assert len(problems) == 1 and name in problems[0]


@pytest.fixture(scope="module")
def roster_day():
    roster = workloads.make_roster(7)
    params = workloads.ROSTER_PARAMS
    final = [a.copy() for a in roster]
    trace, day = run_day(final, params, experiments.experiment_seed(7, 0, 0))
    assert len(trace.fills) > 100
    return roster, final, trace, day, params


def test_day_check_passes_on_a_real_day(roster_day):
    assert checks.check_day(*roster_day) == []


def _first_fill(trace, kind=None, roster=None):
    for ev in trace.fills:
        if kind is None or roster[ev.fill.buyer].kind is kind:
            return ev.fill
    raise AssertionError("no such fill")


def _tamper_final_cash(roster, final, trace, day, params):
    final[trace.fills[0].fill.seller].cash += Fraction(1, 100)


def _tamper_final_shares(roster, final, trace, day, params):
    f = trace.fills[0].fill
    final[f.buyer].shares += 1
    final[f.seller].shares -= 1


def _tamper_self_trade(roster, final, trace, day, params):
    f = trace.fills[0].fill
    f.buyer = f.seller


def _tamper_overfill(roster, final, trace, day, params):
    f = trace.fills[0].fill
    posted = next(o for o in trace.offers_entered if o.seller == f.seller)
    f.units = posted.quantity + 1
    f.notional = Fraction(f.price) * f.units


def _tamper_bs_price(roster, final, trace, day, params):
    f = _first_fill(trace, AgentKind.BUYER_SELLER, roster)
    f.price = params.p_ref


def _tamper_day_metrics(roster, final, trace, day, params):
    return dataclasses.replace(day, n_trades=day.n_trades + 1)


def _tamper_fee(roster, final, trace, day, params):
    return roster, final, trace, day, params.replace(debit_exit_fee=False)


@pytest.mark.parametrize(
    "tamper, expect",
    [
        (_tamper_final_cash, "replay diverges"),
        (_tamper_final_shares, "replay diverges"),
        (_tamper_self_trade, "self-trade"),
        (_tamper_overfill, "posted"),
        (_tamper_bs_price, "at or above p_ref"),
        (_tamper_day_metrics, "day metrics"),
        (_tamper_fee, "cash total fell"),
    ],
)
def test_day_check_fails_on_a_tampered_day(roster_day, tamper, expect):
    roster, final, trace, day, params = copy.deepcopy(roster_day)
    changed = tamper(roster, final, trace, day, params)
    if isinstance(changed, tuple):
        roster, final, trace, day, params = changed
    elif changed is not None:
        day = changed
    problems = checks.check_day(roster, final, trace, day, params)
    assert any(expect in p for p in problems), problems


@pytest.fixture(scope="module")
def small_sweep():
    w = workloads.SweepParallel(5, env.OUT)
    w.reps = 3
    w.make_inputs()
    w.setup()
    return w, w.run_round(0)


def test_sweep_check_passes_on_a_real_round(small_sweep):
    w, result = small_sweep
    assert w.check([result]) == []


def test_sweep_check_fails_when_a_value_differs_from_its_serial_recomputation(small_sweep):
    w, result = small_sweep
    value, agg = result[4]
    shifted = dict(agg.means, n_trades=agg.means["n_trades"] + 1e-9)
    tampered = list(result)
    tampered[4] = (value, dataclasses.replace(agg, means=shifted))
    problems = w.check([tampered])
    assert problems and "serial recomputation" in problems[0]


def test_trend_check_fails_when_the_ratio_does_not_rise(small_sweep):
    w, result = small_sweep
    assert checks.check_trend([result], w.values[0], w.values[-1]) == []
    flipped = [(v, agg) for (v, _), (_, agg) in zip(result, reversed(result))]
    assert checks.check_trend([flipped], w.values[0], w.values[-1])


def test_equality_check_fails_on_a_diverging_traced_record():
    rec = _reference_aggregate().to_record()
    assert checks.check_equal("x", [rec, rec], [rec, dict(rec)]) == []
    assert checks.check_equal("x", [rec, rec], [rec, dict(rec, n_offers=70.0)])
    assert checks.check_equal("x", [rec, rec], [rec])


# --- tracer ----------------------------------------------------------------


def test_tracer_restores_names_and_leaves_results_unchanged(tmp_path):
    params, profile = ModelParams.baseline(), default_profile()
    before = run_batch(params, profile, 3, 11).to_record()
    originals = {attr: getattr(engine, attr) for attr in ("pb_decide", "run_trading")}
    t = tracer.Tracer(tmp_path)
    t.install()
    try:
        traced = experiments.run_batch(params, profile, 3, 11).to_record()
    finally:
        t.uninstall()
    assert traced == before
    assert all(getattr(engine, a) is f for a, f in originals.items())
    layers = tracer.layer_metrics(t.spans, "endowments.simulate_profile_day", 1)
    assert layers["agents.pb_decide.calls"] > 0
    assert layers["core.book_depth"] > 0
    assert layers["endowments.load_population.ms"] is None


def test_removed_name_reads_as_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(engine, "compute_day_metrics")
    t = tracer.Tracer(tmp_path)
    t.install()
    t.uninstall()
    assert t.absent == {"metrics.compute_day_metrics"}
    assert tracer.layer_metrics([], "engine.run_day", 1)["metrics.compute_day_metrics.ms"] is None


def test_a_deleted_hooked_name_is_left_out_of_the_result_line(monkeypatch):
    # a refactor that inlines compute_day_metrics: run_day still computes the
    # day metrics, but the engine no longer has the name the tracer hooks
    day_metrics = engine.compute_day_metrics

    def inlined_run_day(population, params, seed):
        params.validate()
        rng = engine.make_rng(seed)
        book = engine.run_pretrading(population, params, rng)
        book_initial = book.snapshot()
        trace = engine.run_trading(population, book, params, rng)
        return trace, day_metrics(trace, book_initial, params)

    for module in (engine, endowments, experiments, workloads):
        monkeypatch.setattr(module, "run_day", inlined_run_day)
    monkeypatch.delattr(engine, "compute_day_metrics")
    result = run.bench("roster_deep_book", 6, 0.2, True)
    assert result["correct"]
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == declared - {"metrics.compute_day_metrics.ms"}


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = (0, "p", 0.0, 10.0, None, None)
    kids = [(1, "c", 1.0, 4.0, 0, None), (2, "c", 3.0, 5.0, 0, None), (3, "c", 9.0, 12.0, 0, None)]
    assert tracer.self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 1.0)
