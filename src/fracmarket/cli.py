"""Command line front end.

Subcommands:

* ``run``: one trading day, metrics to stdout, optional fill trace
* ``batch``: many independent day experiments, aggregated
* ``sweep``: a batch per value of one parameter axis
* ``gen-endowments``: draw a population from a profile into a CSV
* ``calibrate``: random-search an endowment profile against targets

Settings come from defaults, then an optional JSON config file, then flags,
each layer overriding the previous one. Stdout rounds to three decimals;
files written via --out carry full precision. Exit status is 0 on success,
1 on a configuration problem and 2 on a runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .core import (
    ConfigError,
    EndowmentError,
    MarketError,
    ModelParams,
    as_number,
    as_seed,
    make_rng,
)
from .endowments import (
    EndowmentProfile,
    _profile_streams,
    default_profile,
    generate_population,
    load_population,
    load_profile,
    save_population,
    save_profile,
)
from .engine import export_trace, run_day
from .experiments import (
    DEFAULT_TARGETS,
    CalibrationTargets,
    SweepSpec,
    calibrate_profile,
    run_batch,
    run_sweep,
    write_sweep_csv,
    write_sweep_json,
)
from .metrics import METRIC_FIELDS, AggregateMetrics, DayMetrics


class _Parser(argparse.ArgumentParser):
    # bad flags are a configuration problem, keep them on exit status 1
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    p = _Parser(prog="fracmarket", description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, reps_default=None):
        sp.add_argument("--config", type=Path, help="JSON config file")
        sp.add_argument("--seed", type=int, help="master seed (default 0)")
        sp.add_argument("--out", type=Path, help="write results to this file")
        sp.add_argument(
            "--format", choices=("csv", "json"), help="output file format (default csv)"
        )

    sp = sub.add_parser("run", help="simulate one trading day")
    common(sp)
    sp.add_argument("--population", type=Path, help="endowment CSV to load")
    sp.add_argument("--profile", type=Path, help="endowment profile JSON to draw from")
    sp.add_argument("--trace", type=Path, help="write per-fill trace (JSON lines)")

    sp = sub.add_parser("batch", help="aggregate many independent days")
    common(sp)
    sp.add_argument("--population", type=Path)
    sp.add_argument("--profile", type=Path)
    sp.add_argument("--reps", type=int, help="number of experiments (default 1000)")
    sp.add_argument("--jobs", type=int, help="worker processes (default 1)")

    sp = sub.add_parser("sweep", help="batch per value of one parameter")
    common(sp)
    sp.add_argument("--population", type=Path)
    sp.add_argument("--profile", type=Path)
    sp.add_argument("--param", help="axis name, e.g. ps_offer_prob or market_width")
    sp.add_argument(
        "--values",
        help="comma-separated values; use lo:hi items for market_range",
    )
    sp.add_argument("--reps", type=int)
    sp.add_argument("--jobs", type=int)

    sp = sub.add_parser("gen-endowments", help="draw a population into a CSV")
    sp.add_argument("--config", type=Path)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--profile", type=Path)
    sp.add_argument("--out", type=Path, required=True)

    sp = sub.add_parser("calibrate", help="search an endowment profile")
    sp.add_argument("--config", type=Path)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--targets", type=Path, help="JSON file with target metrics")
    sp.add_argument("--budget", type=int, help="candidates to evaluate (default 200)")
    sp.add_argument("--reps", type=int, help="days per candidate (default 200)")
    sp.add_argument("--out", type=Path, required=True, help="profile JSON to write")
    sp.add_argument("--progress", action="store_true", help="log each candidate")
    return p


def _load_config(path: Path | None, what: str = "config") -> dict:
    """The JSON object in the file at `path` ({} for no path); `what` names
    the file in error messages."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} file {path} is not valid JSON: {e}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return cfg


def _build_params(cfg: dict) -> ModelParams:
    overrides = cfg.get("params", {})
    if not isinstance(overrides, dict):
        raise ConfigError('config "params" must be an object of field overrides')
    known = set(ModelParams.field_names())
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ConfigError(f"unknown parameter fields in config: {', '.join(unknown)}")
    return ModelParams().replace(
        **{k: ModelParams.coerce(k, v) for k, v in overrides.items()}
    )


def _profile(args, cfg: dict) -> EndowmentProfile:
    """--profile, else the config's "profile" (a path or an inline object),
    else the packaged default profile."""
    prof = getattr(args, "profile", None) or cfg.get("profile")
    if prof is None:
        return default_profile()
    if isinstance(prof, dict):
        return EndowmentProfile.from_json_dict(prof)
    if not isinstance(prof, (str, Path)):
        raise ConfigError(f'"profile" must be a path or an object, not {prof!r}')
    return load_profile(prof)


def _population_source(args, cfg: dict):
    """Resolve where the population comes from; precedence: --population,
    --profile, config keys, packaged default profile."""
    pop_path = getattr(args, "population", None) or cfg.get("population")
    if pop_path:
        return load_population(pop_path)
    return _profile(args, cfg)


def _setting(args, cfg: dict, name: str, default):
    v = getattr(args, name, None)
    if v is not None:
        return v
    return cfg.get(name, default)


def _int_setting(args, cfg: dict, name: str, default: int) -> int:
    """An integer setting (reps, jobs, budget) from the flag, the config or
    `default`; a non-integer value is a ConfigError. Ranges are checked
    where the value is used."""
    return as_number(name, _setting(args, cfg, name, default), int)


def _seed(args, cfg: dict) -> int:
    return as_seed(_int_setting(args, cfg, "seed", 0))


def _fmt3(v) -> str:
    if v is None:
        return "undefined"
    return f"{v:.3f}"


def _print_metric_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(name) for name, _ in rows)
    for name, val in rows:
        print(f"{name:<{width}}  {val}")


def _day_record(day: DayMetrics, seed: int) -> dict:
    rec = {name: getattr(day, name) for name in METRIC_FIELDS}
    rec["seed"] = seed
    return rec


def _agg_record(agg: AggregateMetrics, seed: int, reps: int) -> dict:
    rec = agg.to_record()
    rec["master_seed"] = seed
    rec["reps"] = reps
    return rec


def _write_record(rec: dict, path: Path, fmt: str) -> None:
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rec, f, indent=2)
            f.write("\n")
        return
    import csv as _csv

    with open(path, "w", newline="", encoding="utf-8") as f:
        w = _csv.writer(f)
        w.writerow(rec.keys())
        w.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in rec.values()])


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    params = _build_params(cfg)
    source = _population_source(args, cfg)
    seed = _seed(args, cfg)
    if isinstance(source, EndowmentProfile):
        gen_ss, day_ss = _profile_streams(seed)
        population = generate_population(source, make_rng(gen_ss))
        trace, day = run_day(population, params, day_ss)
    else:
        trace, day = run_day(source, params, seed)
    trace_path = args.trace or cfg.get("trace")
    if trace_path:
        export_trace(trace, trace_path)
    _print_metric_table(
        [(name, _fmt3(getattr(day, name))) for name in METRIC_FIELDS]
    )
    if args.out:
        _write_record(_day_record(day, seed), args.out, _setting(args, cfg, "format", "csv"))
    return 0


def _cmd_batch(args) -> int:
    cfg = _load_config(args.config)
    params = _build_params(cfg)
    source = _population_source(args, cfg)
    seed = _seed(args, cfg)
    reps = _int_setting(args, cfg, "reps", 1000)
    jobs = _int_setting(args, cfg, "jobs", 1)
    agg = run_batch(params, source, reps, seed, jobs=jobs)
    rows = [
        (name, _fmt3(agg.mean(name)) + " +- " + _fmt3(agg.std(name) or 0.0))
        for name in METRIC_FIELDS
    ]
    rows.append(("n_experiments", str(agg.n_experiments)))
    if agg.n_undefined_ratio:
        rows.append(("n_undefined_ratio", str(agg.n_undefined_ratio)))
    _print_metric_table(rows)
    if args.out:
        _write_record(_agg_record(agg, seed, reps), args.out, _setting(args, cfg, "format", "csv"))
    return 0


def _parse_sweep_values(parameter: str, text: str) -> list:
    """Field axes convert each item with ModelParams.coerce; composite axes
    take floats, and ``lo:hi`` items become pairs."""

    def number(item: str):
        if parameter in ModelParams.field_names():
            return ModelParams.coerce(parameter, item)
        try:
            return float(item)
        except ValueError:
            raise ConfigError(f"{parameter}={item!r} is not a number") from None

    vals = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" in item:
            lo, hi = item.split(":", 1)
            vals.append((number(lo), number(hi)))
        else:
            vals.append(number(item))
    if not vals:
        raise ConfigError(f"no sweep values in {text!r}")
    return vals


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    params = _build_params(cfg)
    source = _population_source(args, cfg)
    seed = _seed(args, cfg)
    reps = _int_setting(args, cfg, "reps", 1000)
    jobs = _int_setting(args, cfg, "jobs", 1)
    sweep_cfg = cfg.get("sweep", {})
    parameter = args.param or sweep_cfg.get("parameter")
    if not parameter:
        raise ConfigError("sweep needs --param or a config sweep.parameter")
    if args.values:
        values = _parse_sweep_values(parameter, args.values)
    elif "values" in sweep_cfg:
        values = [tuple(v) if isinstance(v, list) else v for v in sweep_cfg["values"]]
    else:
        raise ConfigError("sweep needs --values or a config sweep.values list")
    spec = SweepSpec(
        parameter=parameter,
        values=tuple(values),
        reps=reps,
        master_seed=seed,
        base_params=params,
    )
    results = run_sweep(spec, source, jobs=jobs)
    print(f"sweep {parameter} ({reps} reps per value)")
    for value, agg in results:
        lr = _fmt3(agg.mean("liquidity_ratio"))
        print(
            f"  {value}: liquidity_ratio {lr}, n_offers {_fmt3(agg.mean('n_offers'))}, "
            f"n_trades {_fmt3(agg.mean('n_trades'))}"
        )
    if args.out:
        fmt = _setting(args, cfg, "format", "csv")
        if fmt == "json":
            write_sweep_json(spec, results, args.out)
        else:
            write_sweep_csv(results, args.out)
    return 0


def _cmd_gen_endowments(args) -> int:
    cfg = _load_config(args.config)
    seed = _seed(args, cfg)
    profile = _profile(args, cfg)
    population = generate_population(profile, make_rng(seed))
    save_population(population, args.out)
    total_shares = sum(a.shares for a in population)
    total_cash = float(sum(a.cash for a in population))
    print(f"wrote {len(population)} agents to {args.out}")
    print(f"total shares {total_shares}, total cash {total_cash:.2f}")
    return 0


def _cmd_calibrate(args) -> int:
    cfg = _load_config(args.config)
    seed = _seed(args, cfg)
    budget = _int_setting(args, cfg, "budget", 200)
    reps = _int_setting(args, cfg, "reps", 200)
    targets_path = args.targets or cfg.get("targets")
    if targets_path is None:
        targets = DEFAULT_TARGETS
    else:
        doc = _load_config(targets_path, "targets")
        try:
            targets = CalibrationTargets(**{k: float(doc[k]) for k in CalibrationTargets.FIELDS})
        except KeyError as e:
            raise ConfigError(f"targets file lacks {e.args[0]!r}") from None
        except (TypeError, ValueError):
            raise ConfigError(f"targets file {targets_path}: targets must be numbers") from None

    progress = None
    if args.progress:
        def progress(idx, obj, best):  # noqa: E306
            print(f"candidate {idx}: objective {obj:.5f} (best {best:.5f})", flush=True)

    profile, objective = calibrate_profile(
        targets, budget, seed, reps=reps, progress=progress
    )
    save_profile(
        profile,
        args.out,
        metadata={
            "seed": seed,
            "budget": budget,
            "reps": reps,
            "objective": objective,
            "targets": asdict(targets),
        },
    )
    print(f"best objective {objective:.5f}, profile written to {args.out}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "batch": _cmd_batch,
    "sweep": _cmd_sweep,
    "gen-endowments": _cmd_gen_endowments,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, EndowmentError) as e:
        print(f"fracmarket: configuration error: {e}", file=sys.stderr)
        return 1
    except MarketError as e:
        print(f"fracmarket: error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"fracmarket: i/o error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
