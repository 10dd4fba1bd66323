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

import importlib

# Public names by the module that defines them.  Each module is imported
# on first access to one of its names (PEP 562), so a caller of the
# oracle never pays for importing the other modules.
_EXPORTS = {
    "ladder": (
        "DecayLadder", "TwinConfiguration", "build_anharmonic", "build_dicke",
        "build_harmonic",
    ),
    "oracle": (
        "DelayCheck", "ExchangeIntegral", "OracleTooLargeError", "oracle_delay_check",
        "oracle_integral", "oracle_integral_exact",
    ),
    "exchange": (
        "InvalidLadderError", "LadderFamily", "SWEEP_COLUMNS",
        "exchange_integral", "qfi_vs_n_sweep",
    ),
    "metrology": (
        "ParityCurve", "QfiReport", "parity_curve", "parity_expectation",
        "parity_phase_variance", "qfi_general", "qfi_lossy_lower_bound",
        "qfi_mixed_number", "qfi_twin",
    ),
    "dickesim": (
        "CollectionEstimate", "LossModel", "PopulationTrace", "SuperradianceTime",
        "collection_loss_probability", "collection_probability_product",
        "collective_rates", "dicke_collection_probability", "dicke_populations",
        "superradiance_timescale",
    ),
    "budget": (
        "BudgetEntry", "DelayCorrection", "ErrorBudget", "LossCorrection",
        "PlatformParams", "PropagationCheck", "PulseErrorEstimate", "RetardationCheck",
        "SPEED_OF_LIGHT", "delay_correction", "full_budget",
        "interferometer_loss_correction", "mixed_rate_correction",
        "propagation_length_check", "pulse_error", "retardation_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
