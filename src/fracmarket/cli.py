"""Command line front end.

Subcommands:

* ``run``: one trading day, metrics to stdout, optional fill trace
* ``batch``: many independent day experiments, aggregated
* ``sweep``: a batch per value of one parameter axis
* ``gen-endowments``: draw a population from a profile into a CSV
* ``calibrate``: random-search an endowment profile against targets

Each setting has one row in `_SETTINGS`. A setting comes from its flag, else
from its key in the optional JSON config file, else from its default; a
flag's text and a config value go through the same reader. A JSON null
counts as unset. Stdout rounds to three decimals; files written via --out
carry full precision. Exit status is 0 on success, 1 on a configuration
problem and 2 on a runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import NamedTuple

from .core import (
    ConfigError, EndowmentError, MarketError, ModelParams, _quote, as_count, as_seed, make_rng,
)
from .endowments import (
    EndowmentProfile, _json_object, _profile_day, default_profile, generate_population,
    load_population, load_profile, save_population, save_profile,
)
from .engine import export_trace, run_day
from .experiments import (
    DEFAULT_TARGETS, CalibrationTargets, SweepSpec, calibrate_profile, run_batch,
    run_sweep, write_sweep_csv, write_sweep_json,
)
from .metrics import METRIC_FIELDS


class _Parser(argparse.ArgumentParser):
    # bad flags are a configuration problem, keep them on exit status 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# Readers: `read(raw, name)` turns a flag's text or a config value into the
# setting's value, or raises ConfigError naming the setting and the value.
# Numbers are read as the library reads them: by as_seed, as_count or their type.


def _text(raw, name: str) -> str:
    if isinstance(raw, str) and raw:
        return raw
    raise ConfigError(f"{name}={_quote(raw)} must be a non-empty string")


def _path(raw, name: str) -> Path:
    if "\0" in _text(raw, name):
        raise ConfigError(f"{name}={_quote(raw)} is not a valid path")  # open() raises ValueError
    return Path(raw)


def _file_format(raw, name: str) -> str:
    if raw in ("csv", "json"):
        return raw
    raise ConfigError(f"{name}={_quote(raw)} must be csv or json")


def _roster(raw, name: str) -> list:
    return load_population(_path(raw, name))


def _profile(raw, name: str) -> EndowmentProfile:
    """A profile JSON file's path, or an inline profile object."""
    if isinstance(raw, dict):
        return EndowmentProfile.from_json_dict(raw)
    return load_profile(_path(raw, name))


def _targets(raw, name: str) -> CalibrationTargets:
    path = _path(raw, name)
    doc = _json_object(path, "targets file")
    try:
        return CalibrationTargets(**{k: doc[k] for k in CalibrationTargets.FIELDS})
    except KeyError as e:
        raise ConfigError(f"targets file lacks {e.args[0]!r}") from None
    except ConfigError as e:
        raise ConfigError(f"targets file {path}: {e}") from None


def _params(overrides, name: str) -> ModelParams:
    if not isinstance(overrides, dict):
        raise ConfigError(f'config "{name}" must be an object of field overrides')
    for k in overrides:
        if k not in ModelParams.field_names():
            raise ConfigError(f"unknown parameter field {_quote(k)}")
    return ModelParams(**overrides)


class _Setting(NamedTuple):
    """`defaults` maps each subcommand that reads the setting to its default
    (`_NEEDED`: none, the setting must be given). `key` is the config key,
    dotted inside an object, or None for a flag-only setting. A setting
    without a reader is taken as given, to be read where it is used (as
    SweepSpec reads sweep values); one whose default is False is an on/off flag."""

    read: Callable[[object, str], object] | None
    defaults: dict
    key: str | None
    help: str
    flag: bool = True


_NEEDED = object()


def _on(commands: str, default=None) -> dict:
    return dict.fromkeys(commands.split(), default)


_SIM = "run batch sweep"
_ALL = f"{_SIM} gen-endowments calibrate"
_OUT = {**_on(_SIM), **_on("gen-endowments calibrate", _NEEDED)}
_REPS = {**_on("batch sweep", 1000), "calibrate": 200}

# flags are declared in this order
_SETTINGS = {
    "config": _Setting(_path, _on(_ALL), None, "JSON config file"),
    "seed": _Setting(as_seed, _on(_ALL, 0), "seed", "master seed"),
    "out": _Setting(_path, _OUT, None, "file to write results to (calibrate: the profile)"),
    "format": _Setting(_file_format, _on(_SIM, "csv"), "format", "file format, csv or json"),
    "population": _Setting(_roster, _on(_SIM), "population", "endowment CSV to load"),
    "profile": _Setting(_profile, _on(f"{_SIM} gen-endowments"), "profile", "profile JSON"),
    "trace": _Setting(_path, _on("run"), "trace", "write per-fill trace (JSON lines)"),
    "param": _Setting(_text, _on("sweep", _NEEDED), "sweep.parameter", "axis, e.g. market_width"),
    "values": _Setting(None, _on("sweep", _NEEDED), "sweep.values", "a,b,c or lo:hi,..."),
    "reps": _Setting(as_count, _REPS, "reps", "days per batch, sweep value or candidate"),
    "jobs": _Setting(as_count, _on("batch sweep calibrate", 1), "jobs", "worker processes"),
    "targets": _Setting(_targets, _on("calibrate", DEFAULT_TARGETS), "targets", "targets JSON"),
    "budget": _Setting(as_count, _on("calibrate", 200), "budget", "candidates to evaluate"),
    "progress": _Setting(None, _on("calibrate", False), None, "log each candidate"),
    "params": _Setting(_params, _on(f"{_SIM} calibrate", ModelParams()), "params", "", False),
}


def _config_value(cfg: dict, key: str):
    """The value at dotted `key` in `cfg`; None when absent."""
    node = cfg
    for part in key.split("."):
        if node is None:
            return None
        if not isinstance(node, dict):
            raise ConfigError(f'config "{key.rsplit(".", 1)[0]}" must be an object')
        node = node.get(part)
    return node


def _read(args, cfg: dict, name: str):
    """Setting `name` for `args.command`: its flag, else its config key, else
    its default."""
    s = _SETTINGS[name]
    raw, label = getattr(args, name, None), name
    if raw is None and s.key is not None:
        raw, label = _config_value(cfg, s.key), s.key
    if raw is not None:
        return raw if s.read is None else s.read(raw, label)
    default = s.defaults[args.command]
    if default is _NEEDED:
        where = f" or a config {s.key}" if s.key else ""
        raise ConfigError(f"{args.command} needs --{name}{where}")
    return default


def _build_parser() -> _Parser:
    p = _Parser(prog="fracmarket", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (_, about) in _COMMANDS.items():
        sp = sub.add_parser(command, help=about)
        for name, s in _SETTINGS.items():
            if s.flag and command in s.defaults:
                default = s.defaults[command]
                text = s.help + (
                    " (required)" if default is _NEEDED
                    else f" (default {default})" if type(default) in (int, str) else ""
                )
                switch = {"action": "store_true", "default": None} if default is False else {}
                sp.add_argument(f"--{name}", help=text, **switch)
    return p


def _source(get):
    """A roster from "population", else the "profile", else the packaged one."""
    population = get("population")
    return (get("profile") or default_profile()) if population is None else population


def _fmt3(v) -> str:
    return "undefined" if v is None else f"{v:.3f}"


def _print_metric_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(name) for name, _ in rows)
    for name, val in rows:
        print(f"{name:<{width}}  {val}")


def _write_record(rec: dict, path: Path, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rec, f, indent=2)
            f.write("\n")
        return
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(rec.keys())
        w.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in rec.values()])


# Each handler takes `get`, which reads a setting by name (`_read`).


def _cmd_run(get) -> int:
    params, source, seed = get("params"), _source(get), get("seed")
    trace_path, out, fmt = get("trace"), get("out"), get("format")
    if isinstance(source, EndowmentProfile):
        trace, day = _profile_day(source, params, seed)
    else:
        trace, day = run_day(source, params, seed)
    if trace_path is not None:
        export_trace(trace, trace_path)
    rec = {name: getattr(day, name) for name in METRIC_FIELDS}
    _print_metric_table([(name, _fmt3(v)) for name, v in rec.items()])
    if out is not None:
        _write_record({**rec, "seed": seed}, out, fmt)
    return 0


def _cmd_batch(get) -> int:
    params, source, seed = get("params"), _source(get), get("seed")
    reps, jobs, out, fmt = get("reps"), get("jobs"), get("out"), get("format")
    agg = run_batch(params, source, reps, seed, jobs=jobs)
    rows = [
        (name, _fmt3(agg.mean(name)) + " +- " + _fmt3(agg.std(name) or 0.0))
        for name in METRIC_FIELDS
    ]
    rows.append(("n_experiments", str(agg.n_experiments)))
    if agg.n_undefined_ratio:
        rows.append(("n_undefined_ratio", str(agg.n_undefined_ratio)))
    _print_metric_table(rows)
    if out is not None:
        _write_record({**agg.to_record(), "master_seed": seed, "reps": reps}, out, fmt)
    return 0


def _cmd_sweep(get) -> int:
    params, source, seed = get("params"), _source(get), get("seed")
    reps, jobs, out, fmt = get("reps"), get("jobs"), get("out"), get("format")
    spec = SweepSpec(get("param"), get("values"), reps=reps, master_seed=seed, base_params=params)
    results = run_sweep(spec, source, jobs=jobs)
    print(f"sweep {spec.parameter} ({reps} reps per value)")
    for value, agg in results:
        lr = _fmt3(agg.mean("liquidity_ratio"))
        print(
            f"  {value}: liquidity_ratio {lr}, n_offers {_fmt3(agg.mean('n_offers'))}, "
            f"n_trades {_fmt3(agg.mean('n_trades'))}"
        )
    if out is not None:
        if fmt == "json":
            write_sweep_json(spec, results, out)
        else:
            write_sweep_csv(results, out)
    return 0


def _cmd_gen_endowments(get) -> int:
    seed, profile, out = get("seed"), get("profile") or default_profile(), get("out")
    population = generate_population(profile, make_rng(seed))
    save_population(population, out)
    total_shares = sum(a.shares for a in population)
    try:
        total_cash = float(sum(a.cash for a in population))
    except OverflowError:
        total_cash = math.inf
    print(f"wrote {len(population)} agents to {out}")
    print(f"total shares {total_shares}, total cash {total_cash:.2f}")
    return 0


def _cmd_calibrate(get) -> int:
    params, seed, budget, reps = get("params"), get("seed"), get("budget"), get("reps")
    targets, out, jobs = get("targets"), get("out"), get("jobs")

    progress = None
    if get("progress"):
        def progress(idx, obj, best):  # noqa: E306
            print(f"candidate {idx}: objective {obj:.5f} (best {best:.5f})", flush=True)

    profile, objective = calibrate_profile(
        targets, budget, seed, params=params, reps=reps, progress=progress, jobs=jobs
    )
    save_profile(
        profile,
        out,
        metadata={
            "seed": seed,
            "budget": budget,
            "reps": reps,
            "params": asdict(params),
            "objective": objective,
            "targets": asdict(targets),
        },
    )
    print(f"best objective {objective:.5f}, profile written to {out}")
    return 0


# subcommand: (handler, --help line)
_COMMANDS = {
    "run": (_cmd_run, "simulate one trading day"),
    "batch": (_cmd_batch, "aggregate many independent days"),
    "sweep": (_cmd_sweep, "batch per value of one parameter"),
    "gen-endowments": (_cmd_gen_endowments, "draw a population into a CSV"),
    "calibrate": (_cmd_calibrate, "search an endowment profile"),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        path = _read(args, {}, "config")
        cfg = {} if path is None else _json_object(path, "config file")
        return _COMMANDS[args.command][0](partial(_read, args, cfg))
    except (ConfigError, EndowmentError) as e:
        code, kind, error = 1, "configuration error", e
    except MarketError as e:
        code, kind, error = 2, "error", e
    except OSError as e:
        code, kind, error = 2, "i/o error", e
    # one line, even when a message quotes a key or path with a line break
    print(f"fracmarket: {kind}: {' '.join(str(error).splitlines())}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
