"""Metrological figure of merit of multimode photon-number wavepackets.

The package computes the quantum Fisher information, and hence the
achievable phase sensitivity, of interferometry with photon wavepackets
emitted by collectively decaying emitter ladders: a polynomial-cost
table recurrence evaluates the controlling exchange overlap of two arms,
an exact factorial-cost oracle validates it at small photon numbers,
cascade rate equations quantify the collection probability under residual
emission, and an error-budget layer turns platform parameters into
feasibility verdicts.
"""

from types import ModuleType as _ModuleType

from .ladder import (
    DecayLadder, TwinConfiguration, build_anharmonic, build_dicke, build_harmonic,
)
from .oracle import (
    DelayCheck, ExchangeIntegral, OracleTooLargeError, oracle_delay_check, oracle_integral,
    oracle_integral_exact,
)
from .exchange import (
    InvalidLadderError, LadderFamily, SWEEP_COLUMNS, exchange_integral, qfi_vs_n_sweep,
)
from .metrology import (
    ParityCurve, parity_curve, parity_expectation, qfi_general, qfi_mixed_number, qfi_twin,
)
from .dickesim import (
    CollectionProbability, LossModel, PopulationTrace, collection_probability_product,
    collective_rates, dicke_collection_probability, dicke_populations, superradiance_timescale,
)
from .budget import BudgetEntry, ErrorBudget, PlatformParams, SPEED_OF_LIGHT, full_budget

# The public names are those imported above; the imports also bind the six
# submodules, which stay out of __all__.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
