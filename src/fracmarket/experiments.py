"""Monte Carlo batches, one-dimensional parameter sweeps and calibration.

Every repetition is an independent experiment: a fresh population (drawn
from a profile, or copied from a fixed roster) trading for one day. These
are all the seeds the library derives from a master seed:

* ``SeedSequence(master_seed, spawn_key=(i, r))`` seeds repetition `r` of
  the batch at sweep position `i`; a plain batch sits at position 0;
* spawn key ``(1,)`` seeds the stream calibration draws candidates from;
* spawn key ``(2, r)`` seeds day `r` of every calibration candidate, which
  is scored as a batch at position 2;
* a profile day splits its seed into child 0, which generates the
  population, and child 1, which runs the day (`simulate_profile_day`).

Seeds therefore never depend on worker scheduling, and results are joined
in repetition order, so aggregate output is identical for any ``jobs`` value.
"""

from __future__ import annotations

import csv
import json
import math
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    AgentState, ConfigError, LazyPopulation, ModelParams, Rng,
    _quote, _read_then_validate, as_count, as_number, as_seed, make_rng,
)
from .endowments import (
    _FAMILIES, DistSpec, EndowmentProfile, load_population, simulate_profile_day,
)
from .engine import run_day
from .metrics import METRIC_FIELDS, AggregateMetrics, DayMetrics, aggregate

__all__ = [
    "CalibrationTargets",
    "DEFAULT_BOXES",
    "DEFAULT_TARGETS",
    "PopulationSource",
    "SweepSpec",
    "apply_axis",
    "calibrate_profile",
    "evaluate_profile",
    "experiment_seed",
    "run_batch",
    "run_sweep",
    "sweep_axes",
    "write_sweep_csv",
    "write_sweep_json",
]

# a population source is a profile to draw from, a fixed roster to copy, or
# a path to an endowment CSV
PopulationSource = Union[EndowmentProfile, Sequence[AgentState], str, Path]

# sweep axes beyond plain parameter fields; these move the market valuation
# envelope and re-derive the per-kind price bounds from it
_COMPOSITE_AXES = ("market_range", "market_width", "market_midpoint")


def sweep_axes() -> tuple[str, ...]:
    """All accepted values for SweepSpec.parameter."""
    return ModelParams.field_names() + _COMPOSITE_AXES


def experiment_seed(master_seed: int, axis_index: int, rep: int) -> np.random.SeedSequence:
    """Seed of one experiment; stable contract, safe to rely on in scripts."""
    return np.random.SeedSequence(master_seed, spawn_key=(axis_index, rep))


def apply_axis(base: ModelParams, parameter: str, value) -> ModelParams:
    """Return `base` with one sweep axis set to `value`.

    Composite axes: ``market_range`` takes a (lo, hi) pair; ``market_width``
    resizes the envelope around its current midpoint; ``market_midpoint``
    recenters it at its current width. All three re-derive the per-kind
    price bounds. Raises ConfigError naming the value if the axis cannot
    read it (`_applied`) or the result is not a valid parameter set.
    """
    return _applied(base, parameter, value)[1]


def _applied(base: ModelParams, parameter: str, value) -> tuple[object, ModelParams]:
    """`value` read by `parameter`'s axis, and `base` with the axis set to it:
    ``market_range`` reads a (lo, hi) list or tuple of floats, the other
    composite axes a float, a field what `ModelParams.coerce` reads."""
    try:
        _check_axis(parameter)
        if parameter == "market_range":
            try:
                if not isinstance(value, (list, tuple)):  # text would be read by character
                    raise TypeError
                lo, hi = (as_number(parameter, x) for x in value)
            except (TypeError, ValueError, ConfigError):
                raise ConfigError(
                    f"market_range value {_quote(value)} must be a (lo, hi) pair of numbers"
                ) from None
            return (lo, hi), base.with_ranges_from_market(lo, hi)
        if parameter not in _COMPOSITE_AXES:
            x = ModelParams.coerce(parameter, value)
            return x, base.replace(**{parameter: x})
        x = as_number(parameter, value)
        lo, hi = base.market_lo, base.market_hi
        mid, w = ((lo + hi) / 2.0, x) if parameter == "market_width" else (x, hi - lo)
        return x, base.with_ranges_from_market(mid - w / 2.0, mid + w / 2.0)
    except ConfigError as e:
        raise ConfigError(f"sweep value {_quote(value)} for {_quote(parameter)}: {e}") from None


def _check_axis(parameter) -> None:
    if not isinstance(parameter, str) or parameter not in sweep_axes():
        axes = ", ".join(sweep_axes())
        raise ConfigError(f"unknown sweep parameter {_quote(parameter)}; valid axes: {axes}")


def _resolve_source(source: PopulationSource) -> EndowmentProfile | LazyPopulation:
    """A profile as it is; a roster, or a CSV file's, as the view each day copies."""
    if isinstance(source, EndowmentProfile):
        return source
    if isinstance(source, (str, Path)):
        source = load_population(source)
    return LazyPopulation.of(source)


def _one_experiment(
    resolved: EndowmentProfile | LazyPopulation,
    params: ModelParams,
    master_seed: int,
    axis_index: int,
    rep: int,
) -> DayMetrics:
    ss = experiment_seed(master_seed, axis_index, rep)
    if isinstance(resolved, EndowmentProfile):
        return simulate_profile_day(resolved, params, ss)
    _, day = run_day(resolved.copy(), params, ss)
    return day


# worker-side state for multiprocessing, set once per worker by _init_worker
_WORKER_CTX: dict = {}


def _init_worker(resolved, params, master_seed, axis_index) -> None:
    _WORKER_CTX["args"] = (resolved, params, master_seed, axis_index)


def _worker_rep(rep: int) -> DayMetrics:
    resolved, params, master_seed, axis_index = _WORKER_CTX["args"]
    return _one_experiment(resolved, params, master_seed, axis_index, rep)


def run_batch(
    params: ModelParams,
    source: PopulationSource,
    reps: int,
    master_seed: int,
    jobs: int = 1,
    axis_index: int = 0,
) -> AggregateMetrics:
    """Run `reps` independent one-day experiments and aggregate them.

    With a profile source each experiment regenerates its population; with
    a roster or file source each experiment starts from a copy of the same
    balances. A roster's ids must be dense: the agent at list position `i`
    has id `i`, or ConfigError is raised. Output is independent of `jobs`.
    """
    master_seed = as_seed(master_seed, "master_seed")
    reps, jobs = as_count(reps, "reps"), as_count(jobs, "jobs")
    resolved = _resolve_source(source)
    jobs = min(jobs, reps)  # a worker beyond one per day would sit idle
    if jobs == 1:
        days = [
            _one_experiment(resolved, params, master_seed, axis_index, r)
            for r in range(reps)
        ]
    else:
        chunk = max(1, reps // (jobs * 4))
        with multiprocessing.Pool(
            processes=jobs,
            initializer=_init_worker,
            initargs=(resolved, params, master_seed, axis_index),
        ) as pool:
            days = list(pool.imap(_worker_rep, range(reps), chunksize=chunk))
    return aggregate(days)


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep: `parameter` takes each of `values` in turn.

    `values` is a list or tuple, or text ``a,b,c`` with pairs as ``lo:hi``
    as ``fracmarket sweep --values`` takes it. A spec reads `reps`
    (`as_count`), `master_seed` (`as_seed`) and each value (`_applied`)
    when made, keeps them as read, and keeps the parameter set each value
    gives for `run_sweep`.
    """

    parameter: str
    values: tuple
    reps: int = 1000
    master_seed: int = 0
    base_params: ModelParams = field(default_factory=ModelParams)

    def __post_init__(self):
        _check_axis(self.parameter)
        if not isinstance(self.base_params, ModelParams):
            raise ConfigError(f"base_params={_quote(self.base_params)} is not a ModelParams")
        items = self.values
        if isinstance(items, str):
            texts = (s.strip() for s in items.split(","))
            items = [s.split(":", 1) if ":" in s else s for s in texts if s]
        elif not isinstance(items, (list, tuple)):
            raise ConfigError(f"sweep values {_quote(items)} must be a list, a tuple or a,b,c text")
        object.__setattr__(self, "reps", as_count(self.reps, "reps"))
        object.__setattr__(self, "master_seed", as_seed(self.master_seed, "master_seed"))
        applied = [_applied(self.base_params, self.parameter, v) for v in items]
        object.__setattr__(self, "values", tuple(x for x, _ in applied))
        object.__setattr__(self, "_param_sets", tuple(p for _, p in applied))
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError on a sweep without values; the rest was read when made."""
        if not self.values:
            raise ConfigError("sweep has no values")


def run_sweep(
    spec: SweepSpec, source: PopulationSource, jobs: int = 1
) -> list[tuple[object, AggregateMetrics]]:
    """Run one batch per sweep value; returns (value, aggregate) pairs.

    Value `i` uses seeds derived at axis position `i`, so adding a value to
    the end of a sweep never changes the results of the earlier ones.
    """
    resolved = _resolve_source(source)
    return [
        (v, run_batch(p, resolved, spec.reps, spec.master_seed, jobs=jobs, axis_index=i))
        for i, (v, p) in enumerate(zip(spec.values, spec._param_sets))
    ]


@dataclass(frozen=True)
class CalibrationTargets:
    """Target day-metric means the calibrator steers towards."""

    liquidity_ratio: float
    n_offers: float
    n_trades: float
    offered_shares: float
    traded_shares: float

    FIELDS = ("liquidity_ratio", "n_offers", "n_trades", "offered_shares", "traded_shares")

    def validate(self) -> None:
        for name in self.FIELDS:
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ConfigError(f"target {name}={_quote(v)} must be a positive finite number")

    def __post_init__(self) -> None:
        _read_then_validate(self, dict.fromkeys(self.FIELDS, float), "invalid targets")


# reproduction targets for the default market configuration
DEFAULT_TARGETS = CalibrationTargets(
    liquidity_ratio=0.139,
    n_offers=69.0,
    n_trades=130.0,
    offered_shares=4746.0,
    traded_shares=614.28,
)

# Random-search boxes. Share holdings and cash are explored over lognormal
# and heavy-tail families; a slot's box for a family argument is named
# <slot>_<argument>, as ps_share_mu or pb_cash_scale.
# Centers reflect the structure the targets impose: a couple hundred
# share-holding sellers with skewed stakes, and buyer cash heavy-tailed
# enough that the few who can afford shares at all can afford several.
DEFAULT_BOXES: dict[str, tuple[float, float]] = {
    "ps_holder_frac": (0.40, 0.64),
    "bs_holder_frac": (0.60, 0.86),
    "ps_share_mu": (3.2, 4.2),
    "ps_share_sigma": (0.5, 1.2),
    "ps_share_shape": (1.2, 2.4),
    "ps_share_scale": (8.0, 35.0),
    "bs_share_mu": (4.5, 5.6),
    "bs_share_sigma": (0.7, 1.5),
    "bs_share_shape": (1.1, 2.2),
    "bs_share_scale": (40.0, 140.0),
    "pb_cash_mu": (1.4, 2.6),
    "pb_cash_sigma": (1.7, 2.7),
    "pb_cash_shape": (1.05, 1.7),
    "pb_cash_scale": (2.0, 15.0),
    "bs_cash_mu": (1.8, 3.0),
    "bs_cash_sigma": (1.8, 2.8),
    "bs_cash_shape": (1.05, 1.7),
    "bs_cash_scale": (3.0, 20.0),
}

_SLOT_FIELDS = {
    "ps_share": "share_dist_ps",
    "bs_share": "share_dist_bs",
    "pb_cash": "cash_dist_pb",
    "bs_cash": "cash_dist_bs",
}


def _sample_candidate(rng: Rng) -> EndowmentProfile:
    """One uniform draw from `DEFAULT_BOXES`: each slot flips its family,
    then draws that family's arguments in their `_FAMILIES` order; the
    holder fractions come last."""

    def u(name: str) -> float:
        lo, hi = DEFAULT_BOXES[name]
        return float(rng.uniform(lo, hi))

    dists: dict[str, DistSpec] = {}
    for slot, fieldname in _SLOT_FIELDS.items():
        family = "lognormal-rounded" if rng.random() < 0.5 else "pareto-rounded"
        dists[fieldname] = DistSpec(family, {a: u(f"{slot}_{a}") for a in _FAMILIES[family][0]})
    return EndowmentProfile(
        ps_holder_frac=u("ps_holder_frac"),
        bs_holder_frac=u("bs_holder_frac"),
        **dists,
    )


def evaluate_profile(
    profile: EndowmentProfile,
    targets: CalibrationTargets,
    params: ModelParams,
    reps: int,
    seed: int,
    jobs: int = 1,
) -> tuple[float, dict[str, float]]:
    """Mean day metrics of `profile` over a `reps`-day batch at axis
    position 2, and the sum of their squared relative errors against
    `targets`.

    Evaluation seeds depend only on (seed, rep), so different profiles
    evaluated under the same seed share their randomness and compare with
    less noise. The batch runs on `jobs` worker processes, which does not
    change the result. Returns (objective, mean metrics dict).
    """
    agg = run_batch(params, profile, reps, seed, jobs=jobs, axis_index=2)
    sim = {name: agg.mean(name) for name in CalibrationTargets.FIELDS}
    if sim["liquidity_ratio"] is None:
        return math.inf, {k: (v if v is not None else math.nan) for k, v in sim.items()}
    obj = 0.0
    for name in CalibrationTargets.FIELDS:
        t = getattr(targets, name)
        obj += ((sim[name] - t) / t) ** 2
    return obj, sim


def calibrate_profile(
    targets: CalibrationTargets,
    search_budget: int,
    seed: int,
    *,
    params: ModelParams | None = None,
    reps: int = 200,
    initial: Sequence[EndowmentProfile] = (),
    progress: Callable[[int, float, float], None] | None = None,
    jobs: int = 1,
) -> tuple[EndowmentProfile, float]:
    """Random-search calibration of an endowment profile.

    Evaluates `search_budget` candidate profiles (any in `initial` first,
    then uniform draws from `DEFAULT_BOXES`) against `targets`, each over
    `reps` simulated days with common random numbers, and returns the best
    profile with its achieved objective. Deterministic in (seed, budget,
    reps); ties keep the earliest candidate. `progress`, if given, is called after each
    candidate with (index, objective, best_so_far). Each candidate's batch
    runs on `jobs` worker processes, which does not change the result.
    """
    search_budget = as_count(search_budget, "search_budget")
    seed = as_seed(seed)
    params = params if params is not None else ModelParams.baseline()

    cand_rng = make_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    best: EndowmentProfile | None = None
    best_obj = math.inf
    for idx in range(search_budget):
        candidate = initial[idx] if idx < len(initial) else _sample_candidate(cand_rng)
        obj, _ = evaluate_profile(candidate, targets, params, reps, seed, jobs)
        if obj < best_obj:
            best, best_obj = candidate, obj
        if progress is not None:
            progress(idx, obj, best_obj)
    if best is None:
        raise ConfigError("no candidate produced a day with a defined liquidity ratio")
    return best, best_obj


# sweep CSV carries the means of the calibrated headline metrics, one row
# per value
_SWEEP_CSV_FIELDS = CalibrationTargets.FIELDS


def _value_str(v) -> str:
    if isinstance(v, (tuple, list)):
        return ":".join(repr(float(x)) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def write_sweep_csv(
    results: Sequence[tuple[object, AggregateMetrics]], path
) -> None:
    """One row per sweep value with full-precision metric means."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("value",) + _SWEEP_CSV_FIELDS)
        for value, agg in results:
            row = [_value_str(value)]
            for name in _SWEEP_CSV_FIELDS:
                m = agg.mean(name)
                row.append("" if m is None else repr(m))
            w.writerow(row)


def write_sweep_json(
    spec: SweepSpec,
    results: Sequence[tuple[object, AggregateMetrics]],
    path,
) -> None:
    """Sweep output with dispersion: adds per-metric standard deviations and
    experiment counts to the same means the CSV carries."""
    rows = []
    for value, agg in results:
        rec: dict = {"value": value}
        rec.update(agg.to_record())
        rows.append(rec)
    doc = {
        "parameter": spec.parameter,
        "reps": spec.reps,
        "master_seed": spec.master_seed,
        "metrics": list(METRIC_FIELDS),
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
