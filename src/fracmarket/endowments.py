"""Population endowments: profiles, generation, file I/O and profile days.

A population is a flat list of agents in three contiguous blocks (pure
buyers, then pure sellers, then buyer-sellers) with dense ids. Initial
balances come either from a CSV file (one agent per row) or from an
`EndowmentProfile`, which describes counts, the fraction of each selling
kind that holds shares at all, and the distributions that share holdings
and cash are drawn from.

Holdings are whole shares; share draws are rounded to the nearest integer
and holders get at least one share. Cash draws are floored at
`cash_floor`. Generation consumes randomness in a fixed documented order
(see `_draw_columns`, which `generate_population` and
`simulate_profile_day` share), so a profile plus a seed pins down the
population exactly.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import (
    AgentKind,
    AgentState,
    ConfigError,
    EndowmentError,
    KIND_ORDER,
    LazyPopulation,
    ModelParams,
    Rng,
    _is_number,
    as_number,
    as_seed,
    make_rng,
)
from .engine import DayTrace, run_day
from .metrics import DayMetrics

__all__ = [
    "DEFAULT_PROFILE_RESOURCE",
    "DistSpec",
    "EndowmentProfile",
    "default_profile",
    "generate_population",
    "load_population",
    "load_profile",
    "save_population",
    "save_profile",
    "simulate_profile_day",
]

# family -> (its argument names, the draw of n values as floats, which takes
# the arguments by name); the rounded families return whole numbers
_FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., np.ndarray]]] = {
    "constant": (("value",), lambda n, rng, value: np.full(n, float(value))),
    "uniform-integer": (
        ("lo", "hi"),
        lambda n, rng, lo, hi: rng.integers(int(lo), int(hi) + 1, size=n).astype(float),
    ),
    "lognormal-rounded": (
        ("mu", "sigma"),
        lambda n, rng, mu, sigma: np.rint(rng.lognormal(mu, sigma, size=n)),
    ),
    "pareto-rounded": (
        ("shape", "scale"),
        lambda n, rng, shape, scale: np.rint(scale * (1.0 - rng.random(n)) ** (-1.0 / shape)),
    ),
}


@dataclass(frozen=True)
class DistSpec:
    """One endowment distribution: a family and its arguments, each an int
    or a float (a bool is neither).

    Families and their arguments:

    * ``constant``: {value}
    * ``uniform-integer``: {lo, hi}, both ends inclusive, whole numbers
      with ``0 <= lo <= hi < 2**63``
    * ``lognormal-rounded``: {mu, sigma} of the underlying normal, rounded
      to the nearest whole number
    * ``pareto-rounded``: {shape, scale}, heavy-tailed with minimum
      ``scale``, drawn as scale * (1 - U) ** (-1 / shape) and rounded
    """

    family: str
    args: dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            raise ConfigError(
                f"unknown distribution family {self.family!r}; expected one of {tuple(_FAMILIES)}"
            )
        if not isinstance(self.args, dict):
            raise ConfigError(f"distribution {self.family!r}: args {self.args!r} not a dict")
        required = _FAMILIES[self.family][0]
        missing = [k for k in required if k not in self.args]
        extra = [k for k in self.args if k not in required]
        if missing or extra:
            raise ConfigError(
                f"distribution {self.family!r}: missing args {missing}, unexpected {extra}"
            )
        a = self.args
        bad = [k for k, v in a.items() if not (_is_number(v) and math.isfinite(v))]
        if bad:
            raise ConfigError(f"distribution {self.family!r}: args {bad} not finite numbers")
        if self.family == "constant" and a["value"] < 0:
            raise ConfigError(f"constant value {a['value']} negative")
        if self.family == "uniform-integer":
            lo, hi = a["lo"], a["hi"]
            # numpy draws int64, so hi + 1 may reach 2**63 but not pass it
            if lo != int(lo) or hi != int(hi) or not 0 <= lo <= hi < 2**63:
                raise ConfigError(f"uniform-integer bounds ({lo}, {hi}) invalid")
        if self.family == "lognormal-rounded" and a["sigma"] < 0:
            raise ConfigError(f"lognormal sigma {a['sigma']} negative")
        if self.family == "pareto-rounded":
            if a["shape"] <= 0 or a["scale"] < 0:
                raise ConfigError(
                    f"pareto shape/scale ({a['shape']}, {a['scale']}) invalid"
                )

    def sample(self, n: int, rng: Rng) -> np.ndarray:
        """Draw n values as floats; rounded families return whole numbers."""
        return _FAMILIES[self.family][1](n, rng, **self.args)

    def to_json_dict(self) -> dict:
        return {"family": self.family, **self.args}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DistSpec":
        if not isinstance(d, dict) or "family" not in d:
            raise ConfigError(f"distribution spec {d!r} lacks a family")
        args = {k: as_number(k, v) for k, v in d.items() if k != "family"}
        spec = cls(family=d["family"], args=args)
        spec.validate()
        return spec


@dataclass(frozen=True, kw_only=True)
class EndowmentProfile:
    """Recipe for generating a population.

    Share distributions are separate per selling kind because the two kinds
    need not hold similar stakes; cash distributions are separate per buying
    kind for the same reason. `ps_holder_frac` and `bs_holder_frac` give the
    probability that a seller of that kind holds any shares at all; the rest
    start the day with zero and can never offer.
    """

    n_pb: int = 727
    n_ps: int = 413
    n_bs: int = 225
    ps_holder_frac: float = 1.0
    bs_holder_frac: float = 1.0
    share_dist_ps: DistSpec
    share_dist_bs: DistSpec
    cash_dist_pb: DistSpec
    cash_dist_bs: DistSpec
    cash_floor: float = 0.0

    def validate(self) -> None:
        """Raise ConfigError listing every bad number, else naming the first bad distribution."""
        problems, dists = [], []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.default is MISSING:  # a distribution, as in from_json_dict
                dists.append((f.name, v))
            elif type(f.default) is int:
                if not (_is_number(v, int) and v >= 0):
                    problems.append(f"{f.name}={v!r} not a nonnegative int")
            elif f.name == "cash_floor":
                if not (_is_number(v) and 0.0 <= v < math.inf):
                    problems.append(f"cash_floor={v!r} not nonnegative and finite")
            elif not (_is_number(v) and 0.0 <= v <= 1.0):  # a holder fraction
                problems.append(f"{f.name}={v!r} not in [0, 1]")
        if problems:
            raise ConfigError("invalid profile: " + "; ".join(problems))
        for name, spec in dists:
            if not isinstance(spec, DistSpec):
                raise ConfigError(f"{name}={spec!r} is not a DistSpec")
            try:
                spec.validate()
            except ConfigError as e:
                raise ConfigError(f"{name}: {e}") from None

    def to_json_dict(self) -> dict:
        d = {}
        for f in fields(self):
            v = getattr(self, f.name)
            d[f.name] = v.to_json_dict() if isinstance(v, DistSpec) else v
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "EndowmentProfile":
        """Parse a profile object, whose keys are the fields. A key left out
        takes the field's default; the four distributions have none. A
        missing or bad value is a ConfigError naming its key. Counts must be
        integral; keys that are not fields, such as "calibration", are ignored."""
        values = {}
        for f in fields(cls):
            if f.default is MISSING:  # a distribution
                if f.name not in d:
                    raise ConfigError(f"profile lacks required key {f.name!r}")
                try:
                    values[f.name] = DistSpec.from_json_dict(d[f.name])
                except ConfigError as e:
                    raise ConfigError(f"{f.name}: {e}") from None
            else:  # a number, an int when its default is one
                values[f.name] = as_number(f.name, d.get(f.name, f.default), type(f.default))
        profile = cls(**values)
        profile.validate()
        return profile


@contextlib.contextmanager
def _open(path: Path, what: str, **kwargs):
    """`path` opened for reading as UTF-8 text, for a `with` block. A failure
    to open it (a missing file, a directory, a path with a null byte) or to
    decode what the block reads raises a one-line EndowmentError naming
    `what` and the path."""
    try:
        f = open(path, encoding="utf-8", **kwargs)
    except FileNotFoundError:
        raise EndowmentError(f"{what} not found: {path}") from None
    except (OSError, ValueError) as e:
        reason = getattr(e, "strerror", None) or e
        raise EndowmentError(f"cannot open {what} {str(path)!r}: {reason}") from None
    with f:
        try:
            yield f
        except UnicodeDecodeError as e:
            raise EndowmentError(f"{what} {str(path)!r} is not UTF-8 text: {e.reason}") from None


def _json_object(path, what: str) -> dict:
    """The JSON object in a profile, config or targets file; else a one-line
    EndowmentError naming `what` (as "config file") and the path."""
    try:
        with _open(path, what) as f:
            d = json.load(f)
    except json.JSONDecodeError as e:
        raise EndowmentError(f"{what} {path} is not valid JSON: {e}") from None
    if not isinstance(d, dict):
        raise EndowmentError(f"{what} {path} must hold a JSON object")
    return d


def load_profile(path) -> EndowmentProfile:
    return EndowmentProfile.from_json_dict(_json_object(Path(path), "profile file"))


DEFAULT_PROFILE_RESOURCE = "default_profile.json"


def default_profile() -> EndowmentProfile:
    """The calibrated endowment profile shipped with the package."""
    ref = resources.files("fracmarket").joinpath("data", DEFAULT_PROFILE_RESOURCE)
    return EndowmentProfile.from_json_dict(json.loads(ref.read_text(encoding="utf-8")))


def save_profile(profile: EndowmentProfile, path, metadata: dict | None = None) -> None:
    """Write a profile as JSON; `metadata` is stored under "calibration"."""
    d = profile.to_json_dict()
    if metadata:
        d["calibration"] = metadata
    with open(path, "w", encoding="utf-8") as f:
        json.dump(d, f, indent=2, sort_keys=False)
        f.write("\n")


def generate_population(profile: EndowmentProfile, rng: Rng) -> list[AgentState]:
    """Draw a fresh population from `profile`, in the draw order that
    `_draw_columns` lists."""
    return list(_draw_columns(profile, rng))


def _draw_columns(profile: EndowmentProfile, rng: Rng) -> LazyPopulation:
    """Draw a population from `profile` as columns; no agent is built yet.

    Blocks and draw order: pure-buyer cash, pure-seller holder uniforms,
    pure-seller shares (drawn for every agent, zeroed for non-holders so the
    stream does not depend on the holder outcomes), buyer-seller holder
    uniforms, buyer-seller shares, buyer-seller cash. A draw beyond float
    range is an EndowmentError.
    """
    profile.validate()
    cash_pb = _cash_values(profile.cash_dist_pb, profile.n_pb, profile.cash_floor, rng)
    holder_ps = rng.random(profile.n_ps) < profile.ps_holder_frac
    shares_ps = _share_values(profile.share_dist_ps, profile.n_ps, rng)
    holder_bs = rng.random(profile.n_bs) < profile.bs_holder_frac
    shares_bs = _share_values(profile.share_dist_bs, profile.n_bs, rng)
    cash_bs = _cash_values(profile.cash_dist_bs, profile.n_bs, profile.cash_floor, rng)

    counts = (profile.n_pb, profile.n_ps, profile.n_bs)  # in KIND_ORDER
    kinds = np.repeat(np.arange(3, dtype=np.int8), counts)
    shares = np.concatenate(
        (
            np.zeros(profile.n_pb),
            np.where(holder_ps, shares_ps, 0.0),
            np.where(holder_bs, shares_bs, 0.0),
        )
    )
    cash = np.concatenate((cash_pb, np.zeros(profile.n_ps), cash_bs))
    if not (np.isfinite(shares).all() and np.isfinite(cash).all()):
        raise EndowmentError("profile drew a share holding or cash amount beyond float range")
    return LazyPopulation(kinds, cash, partial(_column_agent, kinds, shares.tolist(), cash))


def _column_agent(kinds: np.ndarray, shares: list[float], cash: np.ndarray, i: int) -> AgentState:
    return AgentState(i, KIND_ORDER[kinds[i]], int(shares[i]), float(cash[i]))


def _share_values(dist: DistSpec, n: int, rng: Rng) -> np.ndarray:
    """Whole-number share holdings (at least 1) as floats."""
    return np.maximum(1.0, np.rint(dist.sample(n, rng)))


def _cash_values(dist: DistSpec, n: int, floor: float, rng: Rng) -> np.ndarray:
    """Cash amounts, floored at `floor`, as floats."""
    return np.maximum(floor, dist.sample(n, rng))


# endowment CSV column layout; kind uses the short labels PS / PB / BS
_CSV_HEADER = ["kind", "shares", "cash"]
_KIND_LABELS = {k.value: k for k in AgentKind}


def load_population(path) -> list[AgentState]:
    """Read agents from CSV with header kind,shares,cash.

    Cash is parsed as an exact decimal. Malformed input raises
    EndowmentError naming the offending data row (1-based).
    """
    p = Path(path)
    with _open(p, "endowment file", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise EndowmentError(f"{p}: empty file, expected header kind,shares,cash") from None
        if [h.strip() for h in header] != _CSV_HEADER:
            raise EndowmentError(
                f"{p}: bad header {header!r}, expected kind,shares,cash"
            )
        agents: list[AgentState] = []
        for i, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if len(row) != 3:
                raise EndowmentError(f"{p}: row {i}: expected 3 fields, got {len(row)}")
            kind_s, shares_s, cash_s = (c.strip() for c in row)
            kind = _KIND_LABELS.get(kind_s)
            if kind is None:
                raise EndowmentError(
                    f"{p}: row {i}: unknown kind {kind_s!r}, expected PS, PB or BS"
                )
            try:
                shares = int(shares_s)
            except ValueError:
                raise EndowmentError(f"{p}: row {i}: shares {shares_s!r} not an integer") from None
            if shares < 0:
                raise EndowmentError(f"{p}: row {i}: shares {shares} negative")
            try:
                cash = Fraction(cash_s)
            except (ValueError, ZeroDivisionError):
                raise EndowmentError(f"{p}: row {i}: cash {cash_s!r} not a decimal") from None
            if cash < 0:
                raise EndowmentError(f"{p}: row {i}: cash {cash_s} negative")
            agents.append(AgentState(len(agents), kind, shares, cash))
    return agents


def _decimal_str(x: Fraction) -> str:
    """`x` as an exact decimal when its denominator allows one, else as
    `n/d`; `load_population` reads both exactly."""
    n, d = x.numerator, x.denominator
    k = d.bit_length()  # places enough for any d that divides a power of ten
    if 10**k % d:
        return str(x)
    s = str(abs(n) * 10**k // d).rjust(k + 1, "0")
    s = (s[:-k] + "." + s[-k:]).rstrip("0").rstrip(".")
    return "-" + s if n < 0 else s


def save_population(population: Sequence[AgentState], path) -> None:
    """Write agents as CSV (kind,shares,cash); reloads to equal balances."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(_CSV_HEADER)
        for a in population:
            w.writerow([a.kind.value, a.shares, _decimal_str(a.cash)])


def simulate_profile_day(
    profile: EndowmentProfile,
    params: ModelParams,
    seed: int | np.random.SeedSequence,
) -> DayMetrics:
    """Generate a fresh population from `profile` and run one day; returns
    the day metrics of `_profile_day`."""
    return _profile_day(profile, params, seed)[1]


def _profile_day(
    profile: EndowmentProfile,
    params: ModelParams,
    seed: int | np.random.SeedSequence,
) -> tuple[DayTrace, DayMetrics]:
    """`run_day` on a population drawn from `profile`: the trace and metrics.

    `seed` is split into its children 0 and 1, the generation and day
    streams, so one seed pins the whole experiment. They are the first two
    children a fresh sequence spawns, but `seed` does not advance, so one
    sequence always gives one day. The day equals `run_day` on
    `generate_population` from the same two streams, but the population
    stays in columns and only the agents that act are built (see the
    `engine` docstring).
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(as_seed(seed))
    gen_ss, day_ss = (
        np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,), pool_size=ss.pool_size)
        for i in (0, 1)
    )
    return run_day(_draw_columns(profile, make_rng(gen_ss)), params, day_ss)
