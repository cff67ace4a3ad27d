"""Superimposed-QAM downlink link design with single-user decoding.

Builds multi-user downlink transmission plans from regular Gray-labeled QAM
constellations, checks modulation-order feasibility, assigns two-layer
powers, and evaluates finite-blocklength achievable rates under
treat-interference-as-noise decoding, with Gaussian and shell-code perfect-SIC
benchmarks.

Importing the package imports none of its modules: each public name below
loads its module on first use (PEP 562).
"""
import importlib

__version__ = "0.1.0"

# Every public name, by the module that defines it
_EXPORTS = {
    "constellations": (
        "ConstellationError", "LabeledConstellation", "build_gray_qam",
        "build_rect_qam", "min_pairwise_distance", "normalization_factor",
        "scale", "silent", "superimpose"),
    "rates": (
        "RateEngineError", "RateResult", "SubBlockRateStats",
        "compute_plan_rates", "estimate_mi_dispersion", "qfunc", "qfunc_inv",
        "quadrature_mi_dispersion"),
    "linksim": (
        "ReceivedFrame", "SimulationError", "demap_frame",
        "empirical_id_check", "hard_bits", "random_payloads",
        "simulate_frame", "tin_llr"),
    "scheme": (
        "InfeasiblePlanError", "SchemePlan", "SpecError", "SubBlockLayout",
        "SystemSpec", "UserSpec", "assign_power", "build_frame",
        "build_layout", "check_modulation_constraints", "codeword_lengths",
        "design_search", "map_bits", "verify_min_distances"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
