"""Locate the fracmarket package in the checkout this benchmark sits in.

The benchmark measures the source tree next to it, never an installed copy,
so `src/` of the checkout goes first on the import path. A checkout without
`src/fracmarket` is an error, not a reason to fall back to another copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def use_checkout_source() -> None:
    """Put the checkout's `src/` first on sys.path and import fracmarket from it.

    Exits with status 2 and a one-line message when the checkout holds no
    package source, or when the import resolves somewhere else.
    """
    if not (SRC / "fracmarket" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'fracmarket'}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import fracmarket

    if Path(fracmarket.__file__).resolve().parent != SRC / "fracmarket":
        sys.exit(f"perfbench: fracmarket imported from {fracmarket.__file__}, not {SRC}")
