"""Agent-based simulator of a sell-offer-driven secondary market for
fractional ownership shares.

Sellers occasionally list part of their holding at a price near a platform
reference price; buyers occasionally shop the one-sided book. The package
simulates trading days, aggregates liquidity metrics over Monte Carlo
repetitions, sweeps behavioural parameters, and calibrates initial
endowments against target metrics. Everything is deterministic given a
seed.
"""

# Each module's __all__ is the one list of its public names; the package
# re-exports all of them.
from . import agents, core, endowments, engine, experiments, metrics
from .agents import *  # noqa: F403
from .core import *  # noqa: F403
from .endowments import *  # noqa: F403
from .engine import *  # noqa: F403
from .experiments import *  # noqa: F403
from .metrics import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *agents.__all__,
    *core.__all__,
    *endowments.__all__,
    *engine.__all__,
    *experiments.__all__,
    *metrics.__all__,
]
