"""Monte Carlo variability engine (ensembles and percentile bands).

See ``docs/montecarlo.md`` for the seeding scheme and the amortization
model behind ``solve_ensemble``.
"""

from .ensemble import (
    EnsembleResult,
    InstanceResult,
    PercentileBand,
    run_ensemble,
)
from .experiment import DEFAULT_MC_RATES, DEFAULT_MC_SAMPLES, mc_sweep

__all__ = [
    "DEFAULT_MC_RATES",
    "DEFAULT_MC_SAMPLES",
    "EnsembleResult",
    "InstanceResult",
    "PercentileBand",
    "mc_sweep",
    "run_ensemble",
]
