"""The benchmark's workloads: inputs made from a seed, one timed round, checks.

A run repeats rounds of one workload. Round `k` calls `run_batch` or
`run_sweep` once with master seed ``round_seed(seed, k)``, so every round
does the same amount of work on different draws, and a traced round
reproduces the untraced round of the same index exactly. The package is
called through its module attributes (`experiments.run_batch`), so the
tracer's wrappers apply when installed.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from fracmarket import (
    AgentKind,
    AgentState,
    ModelParams,
    SweepSpec,
    aggregate,
    apply_axis,
    default_profile,
    experiment_seed,
    experiments,
    load_population,
    run_day,
    simulate_profile_day,
)

import checks


def round_seed(seed: int, k: int) -> int:
    """Master seed of round `k` of a run with workload seed `seed`."""
    return (seed << 20) | k


class ProfileBatch:
    """The paper's calibrated market: each day draws 1365 agents from the
    packaged profile; about 70 offers, most buy decisions end without a fill."""

    name = "profile_batch"
    day_span = "endowments.simulate_profile_day"
    jobs = 1
    reps = 10
    days_per_round = reps
    # the reference statistics are checked on at least this many days
    min_rounds = 10

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def make_inputs(self) -> None:
        """Write the workload's input files, if it has any."""

    def setup(self) -> None:
        self.params = ModelParams.baseline()
        self.params.validate()
        self.source = default_profile()

    def run_round(self, k: int):
        return experiments.run_batch(
            self.params, self.source, self.reps, round_seed(self.seed, k), jobs=self.jobs
        )

    def record(self, result):
        return result.to_record()

    def check(self, results) -> list[str]:
        return checks.check_reference(results)


# roster recipe: agent counts, share holdings and cash (in cents) ranges
ROSTER_COUNTS = {AgentKind.PURE_BUYER: 640, AgentKind.PURE_SELLER: 480, AgentKind.BUYER_SELLER: 280}
ROSTER_SHARES = (10, 120)  # uniform integer, [lo, hi)
ROSTER_CENTS = (20_000, 400_000)  # uniform integer cents, [lo, hi): 200.00 to 3999.99
ROSTER_PARAMS = ModelParams(
    ps_offer_prob=0.52,
    bs_offer_prob=0.52,
    pb_trade_prob=0.2,
    bs_trade_prob=0.2,
    pb_purchase_ratio=0.05,
    bs_purchase_ratio=0.05,
    debit_exit_fee=True,
)


def make_roster(seed: int) -> list[AgentState]:
    """The fixed roster of `roster_deep_book`, drawn from `seed`.

    Kinds are shuffled; sellers hold shares, buyers hold cash in whole
    cents, so balances have non-dyadic denominators.
    """
    rng = np.random.default_rng([seed, 0x0B00C])
    kinds = rng.permutation([k for k, n in ROSTER_COUNTS.items() for _ in range(n)])
    shares = rng.integers(*ROSTER_SHARES, size=len(kinds))
    cents = rng.integers(*ROSTER_CENTS, size=len(kinds))
    roster = []
    for i, kind in enumerate(kinds):
        s = int(shares[i]) if kind.sells else 0
        c = int(cents[i]) if kind.buys else 0
        roster.append(AgentState(i, kind, s, Fraction(c, 100)))
    return roster


def write_roster_csv(roster: list[AgentState], path: Path) -> None:
    """Write the roster in the package's CSV layout, cash as exact decimals."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["kind", "shares", "cash"])
        for a in roster:
            cents = a.cash * 100
            w.writerow([a.kind.value, a.shares, f"{cents.numerator // 100}.{cents.numerator % 100:02d}"])


class RosterDeepBook:
    """A fixed roster read from CSV: a deep book (about 400 offers), many
    fills, debited fees and decimal cash; no population generation."""

    name = "roster_deep_book"
    day_span = "engine.run_day"
    jobs = 1
    reps = 2
    days_per_round = reps
    # rounds re-simulated and checked day by day after the timed rounds
    min_rounds = check_rounds = 2

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.csv_path = Path(out_dir) / f"roster-{seed}.csv"

    def make_inputs(self) -> None:
        self.roster = make_roster(self.seed)
        write_roster_csv(self.roster, self.csv_path)

    def setup(self) -> None:
        self.params = ROSTER_PARAMS
        self.params.validate()
        load_population(self.csv_path)  # parsed once up front, as the CLI does
        self.source = str(self.csv_path)

    def run_round(self, k: int):
        return experiments.run_batch(
            self.params, self.source, self.reps, round_seed(self.seed, k), jobs=self.jobs
        )

    def record(self, result):
        return result.to_record()

    def check(self, results) -> list[str]:
        """Re-simulate the first rounds day by day; check each day and each
        round's aggregate."""
        loaded = load_population(self.csv_path)
        if [(a.id, a.kind, a.shares, a.cash) for a in loaded] != [
            (a.id, a.kind, a.shares, a.cash) for a in self.roster
        ]:
            return ["the CSV does not load back to the roster written"]
        problems = []
        for k, result in enumerate(results[: self.check_rounds]):
            days = []
            for r in range(self.reps):
                final = [a.copy() for a in self.roster]
                seed = experiment_seed(round_seed(self.seed, k), 0, r)
                trace, day = run_day(final, self.params, seed)
                problems += [
                    f"round {k} day {r}: {p}"
                    for p in checks.check_day(self.roster, final, trace, day, self.params)
                ]
                days.append(day)
            problems += checks.check_equal(
                f"round {k} aggregate against its day-by-day recomputation",
                [aggregate(days).to_record()],
                [result.to_record()],
            )
        return problems


class SweepParallel:
    """`run_sweep` over pb_trade_prob with two workers: profile days, plus
    one process pool per sweep value.

    40 repetitions a value; the package's own sweep callers use 200
    (`demos/`) to 1000. The pool's share of the wall time is about the same
    at either count, since it comes mostly from the two workers slowing each
    other, not from pool start and stop (measured in the README).
    """

    name = "sweep_parallel"
    day_span = "endowments.simulate_profile_day"
    jobs = 2
    values = tuple(i / 100 for i in range(6, 37, 6))  # 0.06, 0.12, ..., 0.36
    reps = 40  # per value
    days_per_round = reps * len(values)
    min_rounds = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def make_inputs(self) -> None:
        pass

    def setup(self) -> None:
        self.source = default_profile()
        self.spec = SweepSpec(
            "pb_trade_prob", self.values, reps=self.reps, base_params=ModelParams.baseline()
        )
        self.spec.validate()

    def run_round(self, k: int):
        spec = dataclasses.replace(self.spec, master_seed=round_seed(self.seed, k))
        return experiments.run_sweep(spec, self.source, jobs=self.jobs)

    def record(self, result):
        return [[value, agg.to_record()] for value, agg in result]

    def check(self, results) -> list[str]:
        """Round 0 against a serial recomputation; the trend over all rounds."""
        master = round_seed(self.seed, 0)
        serial = []
        for i, v in enumerate(self.values):
            params = apply_axis(self.spec.base_params, self.spec.parameter, v)
            days = [
                simulate_profile_day(self.source, params, experiment_seed(master, i, r))
                for r in range(self.reps)
            ]
            serial.append([v, aggregate(days).to_record()])
        problems = checks.check_equal(
            "round 0 sweep values against their serial recomputation",
            serial,
            self.record(results[0]),
        )
        return problems + checks.check_trend(results, self.values[0], self.values[-1])


WORKLOADS = {w.name: w for w in (ProfileBatch, RosterDeepBook, SweepParallel)}


def digest(record) -> str:
    """SHA-256 of a round's output records, as canonical JSON."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
