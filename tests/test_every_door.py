"""A value means the same at every door.

A setting or a model parameter reaches the package through a command-line
flag, a config key or a library argument (`ModelParams`, `SweepSpec`,
`run_batch`, `calibrate_profile`). This differential test (McKeeman,
"Differential testing for software", 1998) gives one drawn value to every
door and checks that they all read the same value, or all refuse it: the
library with a one-line ConfigError, the command line with one line on
stderr and exit status 1.
"""

import contextlib
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fracmarket import (
    DEFAULT_TARGETS,
    ConfigError,
    ModelParams,
    SweepSpec,
    as_number,
    calibrate_profile,
    experiments,
    run_batch,
)
from fracmarket import cli

TOO_LONG = "1" + "0" * 5000  # past Python's 4300-digit limit for int <-> text

NUMBERS = (
    st.integers(-3, 60)
    | st.floats(allow_nan=False)
    | st.sampled_from([0.0, 1.0, 2.0, 12.0, 0.5, 1e20, -0.0, 2**63, 10**400, -(10**400)])
)
TEXT = NUMBERS.map(str) | st.text(max_size=4) | st.sampled_from(
    ["true", " FALSE ", "0", "1", " 7 ", "2.0", "1e3", "nan", "-inf", "1_000", "", "abc", TOO_LONG]
)
NUMPY = st.integers(-3, 60).map(np.int64) | st.sampled_from(
    [np.uint8(255), np.bool_(True), np.bool_(False), np.float64(0.5), np.float64(12.0)]
)
JUNK = st.sampled_from([[], [1], {}, {"a": 1}])
# every value a JSON config can carry, and numpy's; a JSON null in a
# config means "unset", so None is left out
VALUE = NUMBERS | TEXT | st.booleans() | JUNK | NUMPY


def json_form(value):
    """`value` as a JSON config carries it: a numpy number as Python's."""
    return value.item() if isinstance(value, np.generic) else value


def flag_text(value) -> str:
    """`value` as the text of a flag: text as it is, else its JSON."""
    value = json_form(value)
    return value if isinstance(value, str) else json.dumps(value)


def nested(key: str, value) -> dict:
    """A config object holding `value` at the dotted `key`."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


class Recorded(Exception):
    """Ends a command or a library call once it has read what it was given."""


REFUSED = ("refused",)


def typed(value):
    """`value` compared with its type, so 12 and 12.0 differ, as in a CSV."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    if isinstance(value, (bool, int, float)):
        return type(value).__name__, repr(value)
    return value


def library(call):
    """("ok", what `call()` read), or REFUSED after checking that it
    refused in one line. A call that ends in `Recorded` read "taken"."""
    try:
        return "ok", call()
    except Recorded:
        return "ok", "taken"
    except ConfigError as e:
        assert "\n" not in str(e), str(e)
        return REFUSED


def command_line(command: str, name: str, argv: list[str], cfg_dir, config=None):
    """("ok", setting `name` as `fracmarket command argv` reads it), or
    REFUSED after checking for exit status 1 and one line on stderr. The
    command's work is replaced by reading the setting."""

    def handler(get):
        raise Recorded(get(name))

    if config is not None:
        path = cfg_dir / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, f"--config={path}"]
    err = io.StringIO()
    with mock.patch.dict(cli._COMMANDS, {command: (handler, "")}), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main([command, *argv])
        except Recorded as r:
            return "ok", r.args[0]
    assert code == 1 and len(err.getvalue().splitlines()) == 1, (code, err.getvalue())
    return REFUSED


@pytest.fixture(scope="module")
def cfg_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("doors")


def stopped(target: str):
    """`experiments.<target>` replaced by a stop, so a call ends before any day runs."""
    return mock.patch.object(experiments, target, side_effect=Recorded)


def batch_takes(**arguments):
    with stopped("_resolve_source"):
        run_batch(**{"params": ModelParams(), "source": [], "reps": 1, "master_seed": 0,
                     **arguments})


def calibration_takes(budget):
    with stopped("evaluate_profile"):
        calibrate_profile(DEFAULT_TARGETS, budget, 0, reps=1)


# the library doors of each numeric setting; a SweepSpec keeps what it read
LIBRARY = {
    "seed": [
        lambda v: SweepSpec("pb_trade_prob", [0.1], master_seed=v).master_seed,
        lambda v: batch_takes(master_seed=v),
    ],
    "reps": [
        lambda v: SweepSpec("pb_trade_prob", [0.1], reps=v).reps,
        lambda v: batch_takes(reps=v),
    ],
    "jobs": [lambda v: batch_takes(jobs=v)],
    "budget": [calibration_takes],
}
# settings whose flag and config key both take text: a path, a format or an axis
TEXT_SETTINGS = {"format", "population", "profile", "trace", "param", "targets"}
BOTH_DOORS = [n for n, s in cli._SETTINGS.items() if s.flag and s.key is not None]


def test_every_setting_with_a_flag_and_a_key_is_walked():
    assert set(BOTH_DOORS) == set(LIBRARY) | TEXT_SETTINGS | {"values"}


def agree(outcomes: dict) -> None:
    """All doors accept or all refuse; those that show a value show one."""
    accepted = {door for door, o in outcomes.items() if o != REFUSED}
    assert accepted in (set(), set(outcomes)), outcomes
    values = [typed(o[1]) for o in outcomes.values() if o != REFUSED and o[1] != "taken"]
    assert all(v == values[0] for v in values), outcomes
    event("accepted" if accepted else "refused")


SLOW = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("name", sorted(set(BOTH_DOORS) - {"values"}))
@SLOW
@given(data=st.data())
def test_a_setting_reads_alike_at_its_flag_its_key_and_the_library(name, data, cfg_dir):
    s = cli._SETTINGS[name]
    command = next(iter(s.defaults))
    value = data.draw(TEXT if name in TEXT_SETTINGS else VALUE, label=name)
    outcomes = {
        "flag": command_line(command, name, [f"--{name}={flag_text(value)}"], cfg_dir),
        "config": command_line(command, name, [], cfg_dir, nested(s.key, json_form(value))),
    }
    for i, door in enumerate(LIBRARY.get(name, ())):
        outcomes[f"library {i}"] = library(lambda: door(value))
    agree(outcomes)


def sweep_of(field, values):
    """The first value of a sweep over `field`, as it keeps it and as its parameter set holds it."""
    spec = SweepSpec(field, values)
    value = spec.values[0]
    assert typed(value) == typed(getattr(spec._param_sets[0], field))
    return value


@pytest.mark.parametrize("field", ModelParams.field_names())
@SLOW
@given(value=VALUE)
def test_a_parameter_reads_alike_as_a_config_override_a_sweep_value_and_an_argument(
    field, value, cfg_dir
):
    text = flag_text(value)
    outcomes = {
        "ModelParams": library(lambda: getattr(ModelParams(**{field: value}), field)),
        "SweepSpec": library(lambda: sweep_of(field, [value])),
        "config params": command_line(
            "run", "params", [], cfg_dir, {"params": {field: json_form(value)}}
        ),
    }
    if outcomes["config params"] != REFUSED:
        outcomes["config params"] = "ok", getattr(outcomes["config params"][1], field)
    # the flag splits its text at "," and ":", which a config list item keeps whole
    if not any(c in text for c in ",:") and text.strip():
        sweep = {"parameter": field, "values": [json_form(value)]}
        for door, argv, config in (
            ("sweep flag", [f"--param={field}", f"--values={text}"], None),
            ("sweep config", [], {"sweep": sweep}),
        ):
            raw = command_line("sweep", "values", argv, cfg_dir, config)
            outcomes[door] = raw if raw == REFUSED else library(lambda: sweep_of(field, raw[1]))
    agree(outcomes)


def flag_item(value) -> str | None:
    """`value` as one item of ``--values`` text, or None where the flag
    would split it at "," or ":" or drop it as blank."""
    text = flag_text(value)
    return None if any(c in text for c in ",:") or not text.strip() else text


@pytest.mark.parametrize("axis", experiments._COMPOSITE_AXES)
@SLOW
@given(value=VALUE | st.tuples(VALUE, VALUE) | st.tuples(NUMBERS, NUMBERS))
def test_a_composite_axis_reads_alike_as_a_sweep_flag_a_config_item_and_a_spec(
    axis, value, cfg_dir
):
    # a pair is a market_range value; a lone value, text included, is not one
    items = value if isinstance(value, tuple) else (value,)
    outcomes = {"SweepSpec": library(lambda: SweepSpec(axis, [value]).values[0])}
    config_item = [json_form(v) for v in items] if isinstance(value, tuple) else json_form(value)
    texts = [flag_item(v) for v in items]
    doors = [("sweep config", [], {"sweep": {"parameter": axis, "values": [config_item]}})]
    if None not in texts:
        doors.append(("sweep flag", [f"--param={axis}", f"--values={':'.join(texts)}"], None))
    for door, argv, config in doors:
        raw = command_line("sweep", "values", argv, cfg_dir, config)
        outcomes[door] = raw if raw == REFUSED else library(lambda: SweepSpec(axis, raw[1]).values[0])
    agree(outcomes)


# --- integers too long to read --------------------------------------------------


def test_integer_text_too_long_to_read_says_so():
    message = r"^seed='10{75}\.\.\. is too long to read: Exceeds the limit \(4300 digits\)"
    with pytest.raises(ConfigError, match=message) as e:
        as_number("seed", TOO_LONG, int)
    assert "\n" not in str(e.value)


def test_an_integer_flag_too_long_to_read_exits_1_saying_so(capsys):
    assert cli.main(["batch", f"--seed={TOO_LONG}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fracmarket: configuration error: seed='1")
    assert "is too long to read: Exceeds the limit (4300 digits)" in err
    assert err.count("\n") == 1
