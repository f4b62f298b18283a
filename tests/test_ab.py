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
