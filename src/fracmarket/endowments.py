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
    _quote,
    _read_then_validate,
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

# family -> (each argument's name and kind, the draw of n values as floats,
# which takes the arguments by name); the rounded families return whole numbers
_FAMILIES: dict[str, tuple[dict[str, type], Callable[..., np.ndarray]]] = {
    "constant": ({"value": float}, lambda n, rng, value: np.full(n, value)),
    "uniform-integer": (
        {"lo": int, "hi": int},
        lambda n, rng, lo, hi: rng.integers(lo, hi + 1, size=n).astype(float),
    ),
    "lognormal-rounded": (
        {"mu": float, "sigma": float},
        lambda n, rng, mu, sigma: np.rint(rng.lognormal(mu, sigma, size=n)),
    ),
    "pareto-rounded": (
        {"shape": float, "scale": float},
        lambda n, rng, shape, scale: np.rint(scale * (1.0 - rng.random(n)) ** (-1.0 / shape)),
    ),
}


class _Args(dict):
    """A `DistSpec`'s arguments: a dict that refuses changes, so a checked spec stays valid."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a DistSpec's args cannot change; make a new DistSpec")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # pickle would fill it through __setitem__
        return _Args, (dict(self),)


@dataclass(frozen=True)
class DistSpec:
    """One endowment distribution: a family and its arguments, each read by
    `as_number` as its kind in `_FAMILIES` (``uniform-integer``'s bounds as
    ints, the rest as floats) and kept in a dict that refuses changes.

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

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or self.family not in _FAMILIES:
            family, known = _quote(self.family), tuple(_FAMILIES)
            raise ConfigError(f"unknown distribution family {family}; expected one of {known}")
        if not isinstance(self.args, dict):
            raise ConfigError(f"distribution {self.family!r}: args {_quote(self.args)} not a dict")
        kinds = _FAMILIES[self.family][0]
        missing = [k for k in kinds if k not in self.args]
        extra = [k for k in self.args if k not in kinds]
        if missing or extra:
            raise ConfigError(
                f"distribution {self.family!r}: missing args {missing}, unexpected {_quote(extra)}"
            )
        args = {k: as_number(k, v, kinds[k]) for k, v in self.args.items()}
        object.__setattr__(self, "args", _Args(args))
        self.validate()

    def validate(self) -> None:
        """Raise ConfigError on an argument out of its family's range."""
        a = self.args
        kinds = _FAMILIES[self.family][0]  # an int argument is finite, and may pass float range
        bad = [k for k, v in a.items() if kinds[k] is float and not math.isfinite(v)]
        if bad:
            raise ConfigError(f"distribution {self.family!r}: args {bad} not finite numbers")
        q = {k: _quote(v) for k, v in a.items()}
        if self.family == "constant" and a["value"] < 0:
            raise ConfigError(f"constant value {q['value']} negative")
        # numpy draws int64, so hi + 1 may reach 2**63 but not pass it
        if self.family == "uniform-integer" and not 0 <= a["lo"] <= a["hi"] < 2**63:
            raise ConfigError(f"uniform-integer bounds ({q['lo']}, {q['hi']}) invalid")
        if self.family == "lognormal-rounded" and a["sigma"] < 0:
            raise ConfigError(f"lognormal sigma {q['sigma']} negative")
        if self.family == "pareto-rounded" and (a["shape"] <= 0 or a["scale"] < 0):
            raise ConfigError(f"pareto shape/scale ({q['shape']}, {q['scale']}) invalid")

    def sample(self, n: int, rng: Rng) -> np.ndarray:
        """Draw n values as floats; rounded families return whole numbers."""
        return _FAMILIES[self.family][1](n, rng, **self.args)

    def to_json_dict(self) -> dict:
        return {"family": self.family, **self.args}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DistSpec":
        if not isinstance(d, dict) or "family" not in d:
            raise ConfigError(f"distribution spec {_quote(d)} lacks a family")
        return cls(family=d["family"], args={k: v for k, v in d.items() if k != "family"})


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
        """Raise ConfigError listing every number out of its range."""
        problems = []
        for name, kind in _PROFILE_NUMBERS.items():
            v = getattr(self, name)
            if kind is int:
                if v < 0:
                    problems.append(f"{name}={_quote(v)} not a nonnegative int")
            elif name == "cash_floor":
                if not 0.0 <= v < math.inf:
                    problems.append(f"cash_floor={_quote(v)} not nonnegative and finite")
            elif not 0.0 <= v <= 1.0:  # a holder fraction
                problems.append(f"{name}={_quote(v)} not in [0, 1]")
        if problems:
            raise ConfigError("invalid profile: " + "; ".join(problems))

    def __post_init__(self) -> None:
        for f in fields(self):  # a distribution has no default
            v = getattr(self, f.name)
            if f.default is MISSING and not isinstance(v, DistSpec):
                raise ConfigError(f"{f.name}={_quote(v)} is not a DistSpec")
        _read_then_validate(self, _PROFILE_NUMBERS, "invalid profile")

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
        values = {k: d[k] for k in _PROFILE_NUMBERS if k in d}  # read by the profile itself
        for name in (f.name for f in fields(cls) if f.default is MISSING):  # a distribution
            if name not in d:
                raise ConfigError(f"profile lacks required key {name!r}")
            try:
                values[name] = DistSpec.from_json_dict(d[name])
            except ConfigError as e:
                raise ConfigError(f"{name}: {e}") from None
        return cls(**values)


# a profile's number fields and their types, read from their defaults
_PROFILE_NUMBERS = {
    f.name: type(f.default) for f in fields(EndowmentProfile) if f.default is not MISSING
}


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
    except ValueError as e:  # a JSONDecodeError, or an int past the 4300-digit limit
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
    uniforms, buyer-seller shares, buyer-seller cash. Counts too large to
    draw, or a draw beyond float range, are an EndowmentError.
    """
    counts = (profile.n_pb, profile.n_ps, profile.n_bs)  # in KIND_ORDER
    try:
        cash_pb = _cash_values(profile.cash_dist_pb, profile.n_pb, profile.cash_floor, rng)
        holder_ps = rng.random(profile.n_ps) < profile.ps_holder_frac
        shares_ps = _share_values(profile.share_dist_ps, profile.n_ps, rng)
        holder_bs = rng.random(profile.n_bs) < profile.bs_holder_frac
        shares_bs = _share_values(profile.share_dist_bs, profile.n_bs, rng)
        cash_bs = _cash_values(profile.cash_dist_bs, profile.n_bs, profile.cash_floor, rng)
        kinds = np.repeat(np.arange(3, dtype=np.int8), counts)
        held = (np.where(holder_ps, shares_ps, 0.0), np.where(holder_bs, shares_bs, 0.0))
        shares = np.concatenate((np.zeros(profile.n_pb), *held))
        cash = np.concatenate((cash_pb, np.zeros(profile.n_ps), cash_bs))
    except (ValueError, OverflowError, MemoryError) as e:  # numpy's refusal of an array size
        n = ", ".join(f"{k}={_quote(getattr(profile, k))}" for k in ("n_pb", "n_ps", "n_bs"))
        raise EndowmentError(f"profile counts {n} too large to draw: {e}") from None
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
                f"{p}: bad header {_quote(header)}, expected kind,shares,cash"
            )
        agents: list[AgentState] = []
        for i, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            at = f"{p}: row {i}:"
            if len(row) != 3:
                raise EndowmentError(f"{at} expected 3 fields, got {len(row)}")
            kind_s, shares_s, cash_s = (c.strip() for c in row)
            kind = _KIND_LABELS.get(kind_s)
            if kind is None:
                raise EndowmentError(f"{at} unknown kind {_quote(kind_s)}, expected PS, PB or BS")
            try:
                shares = int(shares_s)
            except ValueError:
                raise EndowmentError(f"{at} shares {_quote(shares_s)} not an integer") from None
            if shares < 0:
                raise EndowmentError(f"{at} shares {_quote(shares)} negative")
            try:
                cash = Fraction(cash_s)
            except (ValueError, ZeroDivisionError):
                raise EndowmentError(f"{at} cash {_quote(cash_s)} not a decimal") from None
            if cash < 0:
                raise EndowmentError(f"{at} cash {_quote(cash_s)} negative")
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
