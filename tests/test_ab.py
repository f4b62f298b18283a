"""The paired A/B runner's interval for the median ratio (tools/ab.py)."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parent.parent / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_ten_ratios_give_the_second_and_ninth_order_statistics():
    ratios = [1.04, 0.97, 1.01, 0.99, 1.10, 1.00, 0.95, 1.02, 1.03, 0.98]
    lo, hi, coverage = ab.median_interval(ratios)
    assert (lo, hi) == (0.97, 1.04)
    assert coverage == 1 - 2 * 11 / 1024  # 97.9%


def test_five_ratios_give_the_min_and_max_with_their_coverage():
    lo, hi, coverage = ab.median_interval([1.02, 0.99, 1.05, 1.00, 0.97])
    assert (lo, hi) == (0.97, 1.05)
    assert coverage == 1 - 2 / 32  # 93.8%


def _traced(metrics: dict, correct: bool = True) -> dict:
    return {"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics}


def test_traced_record_pairs_each_declared_layer_of_both_sides():
    base = _traced({"agents.pb_decide.us": 4.0, "agents.pb_decide.calls": 800.0,
                    "core.book_depth": 0.0, "not.declared": 1.0})
    head = _traced({"agents.pb_decide.us": 1.0, "agents.pb_decide.calls": 800.0,
                    "core.book_depth": 5.0}, correct=False)
    rec = ab.traced_record(1010, base, head)
    assert rec["seed"] == 1010
    assert rec["correct"] == {"base": True, "head": False}
    assert set(rec["layers"]) == {m["name"] for m in ab.SPEC["per_layer"]}
    us = rec["layers"]["agents.pb_decide.us"]
    assert us == {"base": 4.0, "head": 1.0, "ratio": 0.25, "better": "lower"}
    assert rec["layers"]["agents.pb_decide.calls"]["ratio"] == 1.0
    # a zero base has no ratio, and neither has a layer one side never reached
    assert rec["layers"]["core.book_depth"]["ratio"] is None
    absent = rec["layers"]["metrics.aggregate.ms"]
    assert absent == {"base": None, "head": None, "ratio": None, "better": "lower"}
