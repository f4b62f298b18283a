"""Command line behavior: determinism, file outputs, config layering, errors."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import asdict
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import make_population

import fracmarket
from fracmarket import (
    METRIC_FIELDS,
    ModelParams,
    SweepSpec,
    default_profile,
    generate_population,
    load_population,
    make_rng,
    run_day,
    run_sweep,
    save_population,
    simulate_profile_day,
    sweep_axes,
    write_sweep_csv,
    write_sweep_json,
)
from fracmarket.cli import _SETTINGS, _params, main


@pytest.fixture()
def roster_csv(tmp_path):
    path = tmp_path / "pop.csv"
    save_population(make_population(200, 100, 50), path)
    return path


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_metric(out: str, name: str) -> float:
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == name:
            return float(parts[1])
    raise AssertionError(f"{name} not in output:\n{out}")


# --- run --------------------------------------------------------------------


def test_run_stdout_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "run", "--seed", "3")
    code2, out2, _ = run_cli(capsys, "run", "--seed", "3")
    _, out3, _ = run_cli(capsys, "run", "--seed", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1 != out3
    for name in ("liquidity_ratio", "n_offers", "n_trades", "platform_revenue"):
        assert name in out1


def test_run_prints_the_profile_day_of_its_seed(capsys, tmp_path):
    # `run` splits its seed as simulate_profile_day does: generation stream
    # first, day stream second; its trace holds the fills of run_day on the
    # whole population generated from the first stream
    for seed in (0, 7):
        trace_path = tmp_path / f"fills{seed}.ndjson"
        code, out, _ = run_cli(capsys, "run", "--seed", str(seed), "--trace", str(trace_path))
        assert code == 0
        gen_ss, day_ss = np.random.SeedSequence(seed).spawn(2)
        population = generate_population(default_profile(), make_rng(gen_ss))
        trace, _ = run_day(population, ModelParams.baseline(), day_ss)
        fills = [
            {"iteration": ev.iteration, "buyer": f.buyer, "seller": f.seller,
             "price": f.price, "units": f.units, "notional": float(f.notional)}
            for ev in trace.fills
            for f in (ev.fill,)
        ]
        assert fills  # otherwise the comparison is vacuous
        assert [json.loads(line) for line in trace_path.read_text().splitlines()] == fills
        day = simulate_profile_day(default_profile(), ModelParams.baseline(), seed)
        want = [
            f"{name} {getattr(day, name):.3f}" if getattr(day, name) is not None
            else f"{name} undefined"
            for name in METRIC_FIELDS
        ]
        assert [" ".join(line.split()) for line in out.splitlines()] == want


def test_run_trace_lines_match_trade_count(capsys, tmp_path, roster_csv):
    trace = tmp_path / "fills.ndjson"
    code, out, _ = run_cli(
        capsys,
        "run",
        "--seed",
        "2",
        "--population",
        str(roster_csv),
        "--trace",
        str(trace),
    )
    assert code == 0
    n_trades = stdout_metric(out, "n_trades")
    assert n_trades > 0  # roster is big enough that a silent day means a bug
    lines = [l for l in trace.read_text().splitlines() if l]
    assert len(lines) == int(n_trades)
    rec = json.loads(lines[0])
    assert set(rec) == {"iteration", "buyer", "seller", "price", "units", "notional"}


def test_run_out_json_and_csv_agree(capsys, tmp_path, roster_csv):
    jout = tmp_path / "day.json"
    cout = tmp_path / "day.csv"
    run_cli(capsys, "run", "--seed", "5", "--population", str(roster_csv),
            "--out", str(jout), "--format", "json")
    run_cli(capsys, "run", "--seed", "5", "--population", str(roster_csv),
            "--out", str(cout), "--format", "csv")
    rec = json.loads(jout.read_text())
    with open(cout, newline="") as f:
        rows = list(csv.reader(f))
    csv_rec = dict(zip(rows[0], rows[1]))
    assert set(rec) == set(csv_rec)
    for key, want in rec.items():
        got = csv_rec[key]
        if want is None:
            assert got == ""
        else:
            assert float(got) == pytest.approx(float(want), abs=0)


# --- batch ------------------------------------------------------------------


def test_batch_stdout_and_outfile(capsys, tmp_path, roster_csv):
    out_path = tmp_path / "agg.json"
    code, out, _ = run_cli(
        capsys, "batch", "--seed", "1", "--reps", "5",
        "--population", str(roster_csv), "--out", str(out_path),
        "--format", "json",
    )
    assert code == 0
    assert "+-" in out
    assert "n_experiments" in out
    rec = json.loads(out_path.read_text())
    assert rec["master_seed"] == 1
    assert rec["reps"] == 5
    assert rec["n_experiments"] == 5
    assert stdout_metric(out, "n_trades") == pytest.approx(rec["n_trades"], abs=5e-4)


def test_batch_counts_days_with_an_undefined_ratio(capsys, tmp_path):
    buyers = tmp_path / "buyers.csv"
    save_population(make_population(n_pb=20), buyers)  # no offers, so no ratio
    code, out, err = run_cli(capsys, "batch", "--reps", "3", "--population", str(buyers))
    assert code == 0, err
    assert "liquidity_ratio    undefined +- 0.000" in out.splitlines()
    assert stdout_metric(out, "n_undefined_ratio") == 3


def test_batch_deterministic_across_invocations(capsys, roster_csv):
    _, out1, _ = run_cli(capsys, "batch", "--seed", "6", "--reps", "4",
                         "--population", str(roster_csv))
    _, out2, _ = run_cli(capsys, "batch", "--seed", "6", "--reps", "4",
                         "--population", str(roster_csv))
    assert out1 == out2


# --- sweep ------------------------------------------------------------------


def test_sweep_csv_output(capsys, tmp_path, roster_csv):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--param", "pb_trade_prob", "--values", "0.05,0.2",
        "--reps", "3", "--seed", "2", "--population", str(roster_csv),
        "--out", str(out_path),
    )
    assert code == 0
    assert out.startswith("sweep pb_trade_prob")
    with open(out_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["value", "liquidity_ratio", "n_offers", "n_trades",
                       "offered_shares", "traded_shares"]
    assert [r[0] for r in rows[1:]] == ["0.05", "0.2"]


def test_sweep_range_values_parse_as_pairs(capsys, tmp_path, roster_csv):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys, "sweep", "--param", "market_range", "--values",
        "0.75:1.1,0.8:1.2", "--reps", "2", "--population", str(roster_csv),
        "--out", str(out_path),
    )
    assert code == 0
    with open(out_path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1][0] == "0.75:1.1"
    assert rows[2][0] == "0.8:1.2"


@pytest.mark.parametrize(
    "parameter, values, text",
    [
        ("pb_trade_prob", "0.05,0.1", "0.05,0.1"),
        ("market_range", [["0.7", "1.2"]], "0.7:1.2"),
    ],
)
def test_a_library_sweep_reads_values_as_the_cli_does(
    capsys, tmp_path, roster_csv, parameter, values, text
):
    spec = SweepSpec(parameter, values, reps=2, master_seed=3)
    results = run_sweep(spec, roster_csv)
    writers = {"csv": partial(write_sweep_csv, results),
               "json": partial(write_sweep_json, spec, results)}
    for fmt, write in writers.items():
        code, out, err = run_cli(
            capsys, "sweep", "--param", parameter, "--values", text, "--reps", "2",
            "--seed", "3", "--population", str(roster_csv),
            "--format", fmt, "--out", str(tmp_path / f"cli.{fmt}"),
        )
        assert code == 0, err
        assert [line.split(":")[0] for line in out.splitlines()[1:]] == [
            f"  {value}" for value, _ in results
        ]
        write(tmp_path / f"library.{fmt}")
        assert (tmp_path / f"library.{fmt}").read_bytes() == (tmp_path / f"cli.{fmt}").read_bytes()


def test_sweep_without_param_fails(capsys, roster_csv):
    code, _, err = run_cli(capsys, "sweep", "--values", "0.1",
                           "--population", str(roster_csv))
    assert code == 1
    assert "--param" in err


# --- gen-endowments ---------------------------------------------------------


def test_gen_endowments_is_deterministic(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code, out, _ = run_cli(capsys, "gen-endowments", "--seed", "9", "--out", str(a))
    assert code == 0
    assert "1365 agents" in out
    run_cli(capsys, "gen-endowments", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    pop = load_population(a)
    assert len(pop) == 1365


def test_gen_endowments_prints_a_total_cash_beyond_float_range(capsys, tmp_path):
    cash = {"family": "constant", "value": 1e308}
    profile = {**default_profile().to_json_dict(), "n_pb": 3, "n_ps": 0, "n_bs": 1,
               "cash_dist_pb": cash, "cash_dist_bs": cash}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"profile": profile}))
    code, out, err = run_cli(capsys, "gen-endowments", "--config", str(cfg),
                             "--out", str(tmp_path / "pop.csv"))
    assert (code, err) == (0, "")
    assert re.fullmatch(r"total shares \d+, total cash inf", out.splitlines()[1])


# --- calibrate --------------------------------------------------------------


def test_calibrate_writes_profile_with_metadata(capsys, tmp_path):
    targets = tmp_path / "targets.json"
    targets.write_text(json.dumps({
        "liquidity_ratio": 0.1,
        "n_offers": 60,
        "n_trades": 100,
        "offered_shares": 4000,
        "traded_shares": 500,
    }))
    out_path = tmp_path / "prof.json"
    code, out, _ = run_cli(
        capsys, "calibrate", "--seed", "1", "--budget", "1", "--reps", "1",
        "--targets", str(targets), "--out", str(out_path),
    )
    assert code == 0
    assert "best objective" in out
    doc = json.loads(out_path.read_text())
    meta = doc["calibration"]
    assert meta["budget"] == 1
    assert meta["seed"] == 1
    assert meta["objective"] >= 0.0
    assert meta["targets"]["n_offers"] == 60


def test_calibrate_reads_config_params(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"ps_offer_prob": 0.9, "pb_trade_prob": 0.9}}))
    metas = []
    for extra in ((), ("--config", str(cfg))):
        out_path = tmp_path / f"prof{len(metas)}.json"
        code, _, err = run_cli(capsys, "calibrate", "--budget", "1", "--reps", "2",
                               "--out", str(out_path), *extra)
        assert code == 0, err
        metas.append(json.loads(out_path.read_text())["calibration"])
    plain, boosted = metas
    assert plain["params"] == asdict(ModelParams())
    assert boosted["params"] == asdict(ModelParams(ps_offer_prob=0.9, pb_trade_prob=0.9))
    assert boosted["objective"] != plain["objective"]


def test_calibrate_jobs_leave_the_profile_unchanged(capsys, tmp_path):
    profiles = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"prof{jobs}.json"
        code, _, err = run_cli(capsys, "calibrate", "--budget", "1", "--reps", "2",
                               "--jobs", jobs, "--out", str(out_path))
        assert code == 0, err
        profiles.append(out_path.read_text())
    assert profiles[0] == profiles[1]


def test_calibrate_missing_targets_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "calibrate", "--budget", "1", "--reps", "1",
        "--targets", str(tmp_path / "nope.json"), "--out", str(tmp_path / "p.json"),
    )
    assert code == 1
    assert "nope.json" in err


# --- errors and layering ----------------------------------------------------


def test_missing_population_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--population", str(tmp_path / "ghost.csv")
    )
    assert code == 1
    assert "ghost.csv" in err


FILE_FLAGS = {
    "population": "run --population {bad}",
    "profile": "run --profile {bad}",
    "config": "run --config {bad}",
    "targets": "calibrate --budget 1 --reps 1 --targets {bad} --out {tmp}/p.json",
}


@pytest.mark.parametrize("flag", sorted(FILE_FLAGS))
def test_a_file_that_is_not_utf8_exits_1_with_one_line(capsys, tmp_path, flag):
    bad = tmp_path / "bad"
    bad.write_bytes(b"kind,shares,cash\nPB,0,\xff\n" if flag == "population" else b"{\xff}")
    code, _, err = run_cli(capsys, *FILE_FLAGS[flag].format(bad=bad, tmp=tmp_path).split())
    assert code == 1
    assert err.startswith("fracmarket: configuration error: ") and err.count("\n") == 1, err
    assert f"{str(bad)!r} is not UTF-8 text" in err


@pytest.mark.parametrize("flag", ["config", "targets"])
def test_a_directory_given_as_a_file_exits_1_with_one_line(capsys, tmp_path, flag):
    code, _, err = run_cli(capsys, *FILE_FLAGS[flag].format(bad=tmp_path, tmp=tmp_path).split())
    assert code == 1
    assert err.startswith("fracmarket: configuration error: ") and err.count("\n") == 1, err
    assert "Is a directory" in err


def test_unknown_config_param_exits_1(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"spread": 0.5}}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert "spread" in err


def test_invalid_param_value_exits_1(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"ps_offer_prob": 2.0}}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 1
    assert "ps_offer_prob" in err


SWEEP = "sweep --reps 2 --population {pop} --param"


@pytest.mark.parametrize(
    "command, config, want_code",
    [
        ("run --config {cfg}", {"params": {"pb_trade_prob": "abc"}}, 1),
        ("gen-endowments --config {cfg} --out {tmp}/pop.csv", {"profile": 5}, 1),
        (f"{SWEEP} ps_offer_prob --values 0.1,zz", None, 1),
        (f"{SWEEP} bs_search_len --values 2.5", None, 1),
        (f"{SWEEP} debit_exit_fee --values true", None, 0),
        ("calibrate --budget 1 --reps 1 --targets {cfg} --out {tmp}/p.json",
         [0.1, 60, 100, 4000, 500], 1),
        ("gen-endowments --config {cfg} --out {tmp}/pop.csv", {"seed": "abc"}, 1),
        ("gen-endowments --config {cfg} --out {tmp}/pop.csv", {"seed": -2}, 1),
        ("batch --population {pop} --config {cfg}", {"reps": "many"}, 1),
        ("batch --population {pop} --config {cfg}", {"reps": 2.5}, 1),
        ("batch --population {pop} --reps 2 --config {cfg}", {"jobs": "two"}, 1),
        ("calibrate --reps 1 --config {cfg} --out {tmp}/p.json", {"budget": 1.5}, 1),
        ("calibrate --budget 1 --reps 1 --config {cfg} --out {tmp}/p.json", {"jobs": 0}, 1),
        ("run --seed -1", None, 1),
        ("gen-endowments --config {cfg} --out {tmp}/pop.csv",
         {"profile": {**default_profile().to_json_dict(), "n_pb": "x"}}, 1),
        ("gen-endowments --config {cfg} --out {tmp}/pop.csv",
         {"profile": {**default_profile().to_json_dict(),
                      "cash_dist_pb": {"family": "constant", "value": "abc"}}}, 1),
        ("sweep --reps 2 --population {pop} --config {cfg}", {"sweep": 5}, 1),
        ("sweep --reps 2 --population {pop} --config {cfg}",
         {"sweep": {"parameter": "pb_trade_prob", "values": 5}}, 1),
        # a JSON true or false is not a number on a composite axis either
        ("sweep --reps 2 --population {pop} --config {cfg}",
         {"sweep": {"parameter": "market_width", "values": [True]}}, 1),
        ("sweep --reps 2 --population {pop} --config {cfg}",
         {"sweep": {"parameter": "market_midpoint", "values": [0.9, True]}}, 1),
        ("sweep --reps 2 --population {pop} --config {cfg}",
         {"sweep": {"parameter": "market_range", "values": [[True, 1.2]]}}, 1),
        ("run --config {cfg}", {"population": 5}, 1),
        ("sweep --config {cfg}", {"population": "\0"}, 1),
        ("run --population {pop} --config {cfg} --out {tmp}/day.out", {"format": "xml"}, 1),
        ("calibrate --budget 1 --reps 1 --targets {cfg} --out {tmp}/p.json",
         {"liquidity_ratio": True, "n_offers": 60, "n_trades": 100,
          "offered_shares": 4000, "traded_shares": 500}, 1),
        # a bad trace setting once opened file descriptor 1 and closed it;
        # a command starting with "fracmarket" runs in a child interpreter
        ("fracmarket run --population {pop} --config {cfg}", {"trace": 1}, 1),
        ("fracmarket run --population {pop} --config {cfg}", {"trace": True}, 1),
        ("batch --reps 1 --config {cfg}",
         {"profile": {**default_profile().to_json_dict(),
                      "cash_dist_pb": {"family": "uniform-integer", "lo": 0, "hi": 1e30}}}, 1),
    ],
)
def test_bad_input_exits_1_with_one_line(
    capsys, tmp_path, roster_csv, command, config, want_code
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = command.format(cfg=cfg, tmp=tmp_path, pop=roster_csv).split()
    if argv[0] == "fracmarket":
        proc = subprocess.run(
            [sys.executable, "-m", "fracmarket.cli", *argv[1:]],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path,
        )
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code, out, err = run_cli(capsys, *argv)
    assert code == want_code, err
    if want_code == 0:
        assert "True: liquidity_ratio" in out
        assert err == ""
    else:
        assert err.startswith("fracmarket: configuration error: ")
        assert err.count("\n") == 1, err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("run --config {f}", '{"seed": 1,}', "config file {f} is not valid JSON: Expecting"),
        ("run --config {f}", "[1]", "config file {f} must hold a JSON object"),
        ("calibrate --budget 1 --reps 1 --targets {f} --out {f}.out", '"x"',
         "targets file {f} must hold a JSON object"),
        ("calibrate --budget 1 --reps 1 --targets {f} --out {f}.out",
         '{"liquidity_ratio": 0.1, "n_offers": 60}', "targets file lacks 'n_trades'"),
    ],
)
def test_a_bad_json_file_exits_1_naming_the_problem(capsys, tmp_path, command, text, message):
    f = tmp_path / "in.json"
    f.write_text(text)
    code, _, err = run_cli(capsys, *command.format(f=f).split())
    assert code == 1
    assert err.startswith(f"fracmarket: configuration error: {message.format(f=f)}"), err
    assert err.count("\n") == 1, err


def test_config_flag_words_parse():
    assert _params("params", {"debit_exit_fee": "false"}).debit_exit_fee is False
    assert _params("params", {"debit_exit_fee": "true"}).debit_exit_fee is True


def test_bad_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus"])
    assert exc.value.code == 1


def test_flag_seed_overrides_config_seed(capsys, tmp_path, roster_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 5, "population": str(roster_csv)}))
    _, from_cfg, _ = run_cli(capsys, "run", "--config", str(cfg))
    _, overridden, _ = run_cli(capsys, "run", "--config", str(cfg), "--seed", "7")
    _, direct5, _ = run_cli(capsys, "run", "--seed", "5", "--population", str(roster_csv))
    _, direct7, _ = run_cli(capsys, "run", "--seed", "7", "--population", str(roster_csv))
    assert from_cfg == direct5
    assert overridden == direct7


def test_config_params_change_results(capsys, tmp_path, roster_csv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"ps_offer_prob": 0.9}}))
    _, boosted, _ = run_cli(capsys, "run", "--seed", "1", "--config", str(cfg),
                            "--population", str(roster_csv))
    _, plain, _ = run_cli(capsys, "run", "--seed", "1",
                          "--population", str(roster_csv))
    assert stdout_metric(boosted, "n_offers") > stdout_metric(plain, "n_offers")


# --- console script ---------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[1]

# What the console-script wrapper generated by an installer does: import the
# declared attribute and exit with its return value.
ENTRY_POINT_WRAPPER = """\
import importlib, sys
module, attr = sys.argv[1:3]
sys.argv[:3] = ["fracmarket"]
sys.exit(getattr(importlib.import_module(module), attr)())
"""


def declared_console_script(name: str) -> str:
    """The ``module:attr`` target of a ``[project.scripts]`` entry."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def child_env() -> dict:
    """Environment for a child interpreter that imports the fracmarket under
    test first."""
    env = dict(os.environ)
    code_root = str(Path(fracmarket.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (code_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_console_entry_point_runs():
    # Runs the entry point declared in pyproject.toml the way its installed
    # wrapper would, so the test needs no `pip install` and no PATH lookup.
    module, _, attr = declared_console_script("fracmarket").partition(":")
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_POINT_WRAPPER, module, attr,
         "run", "--seed", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "liquidity_ratio" in proc.stdout, proc.stderr


def test_importing_the_package_leaves_the_cli_out():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fracmarket; print('fracmarket.cli' in sys.modules)"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_readme_table_lists_every_config_key():
    # rows of the README's settings table: | `key` | takes | read by | flag |
    rows = {}
    for line in (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 4:
            rows[cells[0].strip("`")] = (set(cells[2].split(", ")), cells[3])
    assert rows == {
        s.key: (set(s.defaults), f"`--{name}`" if s.flag else "none")
        for name, s in _SETTINGS.items()
        if s.key is not None
    }


def test_readme_python_blocks_run(tmp_path):
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", block],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path,
        )
        assert proc.returncode == 0, f"{block}\n{proc.stderr}"


# --- fuzz -------------------------------------------------------------------

# Config objects over the CLI's keys. Numbers stay within +-100, lists within
# 3 items and inline profiles' counts within 100, so no example asks for a
# long day, a big population or many processes.
NUMBERS = st.integers(-100, 100) | st.floats(-100, 100, allow_nan=False)
UNIT = st.floats(0, 1)  # in range for every probability and ratio field
SCALARS = st.none() | st.booleans() | NUMBERS | st.text(max_size=6) | NUMBERS.map(str)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
PARAMS = st.dictionaries(
    st.sampled_from(ModelParams.field_names()), UNIT | SCALARS, max_size=3
) | JSON
SMALL_PROFILE = {**default_profile().to_json_dict(), "n_pb": 30, "n_ps": 15, "n_bs": 10}
PROFILE_FIELDS = sorted(SMALL_PROFILE)
DIST = st.fixed_dictionaries(
    {"family": st.sampled_from(
        ["constant", "uniform-integer", "lognormal-rounded", "pareto-rounded"]) | JSON},
    optional={k: NUMBERS | SCALARS for k in ("value", "lo", "hi", "mu", "sigma", "shape", "scale")},
)
INLINE_PROFILE = st.dictionaries(
    st.sampled_from(PROFILE_FIELDS), st.integers(0, 100) | NUMBERS | DIST | JSON, max_size=3
).map(lambda changes: {**SMALL_PROFILE, **changes})
SWEEP_VALUE = (
    UNIT | UNIT.map(str) | st.lists(st.floats(0.5, 1.5), min_size=2, max_size=2) | SCALARS | JSON
)
AXIS = st.sampled_from(sweep_axes())
SWEEP = st.fixed_dictionaries(
    {"parameter": AXIS, "values": st.lists(SWEEP_VALUE, min_size=1, max_size=3)}
) | st.fixed_dictionaries(
    {},
    optional={
        "parameter": AXIS | JSON,
        "values": st.lists(SWEEP_VALUE, max_size=3)
        | st.lists(NUMBERS.map(str), min_size=1, max_size=3).map(",".join) | JSON,
    },
) | JSON


def fuzz_config(files: dict) -> st.SearchStrategy:
    """Config objects whose path keys may name the files in `files`."""
    path = st.sampled_from(sorted(files.values())) | JSON
    return st.fixed_dictionaries(
        {"sweep": SWEEP},  # always there, so that some sweeps can run
        optional={
            "seed": st.integers(-3, 100) | SCALARS,
            "reps": NUMBERS | SCALARS,
            "jobs": NUMBERS | SCALARS,
            "budget": NUMBERS | SCALARS,
            "format": st.sampled_from(["csv", "json", "xml"]) | JSON,
            "params": PARAMS,
            "population": path,
            "profile": INLINE_PROFILE | path,
            "trace": path,
            "targets": path,
        },
    )


# every subcommand runs at most two days per value and one candidate
PINNED = {
    "run": ["--trace", "{tmp}/fills.ndjson"],
    "batch": ["--reps", "2", "--jobs", "1"],
    "sweep": ["--reps", "2", "--jobs", "1"],
    "gen-endowments": [],
    "calibrate": ["--reps", "2", "--budget", "1", "--jobs", "1"],
}
FILE_NAMES = {"roster": "pop.csv", "profile": "prof.json", "targets": "targets.json"}


@pytest.mark.parametrize("command", sorted(PINNED))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_config_exits_cleanly(command, data):
    # files are made here, not by fixtures, since hypothesis runs the body
    # once per example
    with tempfile.TemporaryDirectory() as tmp:
        files = {k: str(Path(tmp) / name) for k, name in FILE_NAMES.items()}
        save_population(make_population(20, 10, 6), files["roster"])
        Path(files["profile"]).write_text(json.dumps(SMALL_PROFILE))
        Path(files["targets"]).write_text(json.dumps(
            {"liquidity_ratio": 0.1, "n_offers": 60, "n_trades": 100,
             "offered_shares": 4000, "traded_shares": 500}))
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(data.draw(fuzz_config(files), label="config")))
        argv = [command, "--config", str(cfg), "--out", f"{tmp}/out"]
        argv += [a.format(tmp=tmp) for a in PINNED[command]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    assert not caught, [str(w.message) for w in caught]
