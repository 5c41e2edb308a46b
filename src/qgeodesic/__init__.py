"""Statevector simulation of Grover search and quantum period finding,
with Fisher-information and Fubini-Study geometry of the algorithm paths.

``import qgeodesic`` loads no submodule.  Each public name below, and each
submodule, is imported from its home module on first use (PEP 562), so a
search command never loads the period-finding layer.
"""

import importlib

__version__ = "0.1.0"

# Each submodule -> the public names it defines.
_EXPORTS = {
    "geometry": (
        "GeodesicState",
        "GeodesicTrajectory",
        "UnitarityReport",
        "action",
        "fisher_discrete",
        "fubini_study_distance",
        "geodesic_residual_profile",
        "input_information",
        "integrate_geodesic",
        "unitarity_identity_check",
    ),
    "grover": (
        "GroverInstance",
        "RecursionState",
        "analytic_trajectory",
        "grover_step",
        "marked_mass_after",
        "optimal_iterations",
        "phi_of_step",
        "recursion_step",
        "run_grover",
    ),
    "paths": ("ProbabilityPath",),
    "period": (
        "ComparisonReport",
        "FactorResult",
        "PeriodInstance",
        "PeriodResult",
        "build_register",
        "classify_modulus",
        "compare_methods",
        "continued_fraction_denominator",
        "default_register_size",
        "factor",
        "grover_period",
        "marked_arguments",
        "order_bruteforce",
        "shor_period",
        "shor_project",
        "shor_sample",
    ),
    "states": (
        "DEFAULT_MEMORY_CAP",
        "GROVER_ADIABATIC",
        "SHOR",
        "ResourceLimitError",
        "StateVector",
        "basis_state",
        "invert_about_average",
        "measure_register",
        "new_uniform",
        "phase_flip",
        "probabilities",
        "qft",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("cli", *_EXPORTS))

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing it also binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
