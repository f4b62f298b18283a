"""Command line behavior: determinism, file outputs, config layering, errors."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_population

import fracmarket
from fracmarket import (
    METRIC_FIELDS,
    ModelParams,
    default_profile,
    load_population,
    save_population,
    simulate_profile_day,
)
from fracmarket.cli import _build_params, main


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


def test_run_prints_the_profile_day_of_its_seed(capsys):
    # `run` splits its seed as simulate_profile_day does: generation stream
    # first, day stream second
    for seed in (0, 7):
        code, out, _ = run_cli(capsys, "run", "--seed", str(seed))
        assert code == 0
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
        ("run --seed -1", None, 1),
        ("gen-endowments --config {cfg} --out {tmp}/pop.csv",
         {"profile": {**default_profile().to_json_dict(), "n_pb": "x"}}, 1),
        ("gen-endowments --config {cfg} --out {tmp}/pop.csv",
         {"profile": {**default_profile().to_json_dict(),
                      "cash_dist_pb": {"family": "constant", "value": "abc"}}}, 1),
    ],
)
def test_bad_input_exits_1_with_one_line(
    capsys, tmp_path, roster_csv, command, config, want_code
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = command.format(cfg=cfg, tmp=tmp_path, pop=roster_csv).split()
    code, out, err = run_cli(capsys, *argv)
    assert code == want_code, err
    if want_code == 0:
        assert "True: liquidity_ratio" in out
        assert err == ""
    else:
        assert err.startswith("fracmarket: configuration error: ")
        assert err.count("\n") == 1, err


def test_config_flag_words_parse():
    assert _build_params({"params": {"debit_exit_fee": "false"}}).debit_exit_fee is False
    assert _build_params({"params": {"debit_exit_fee": "true"}}).debit_exit_fee is True


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
