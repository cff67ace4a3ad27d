"""Superimposed-QAM downlink link design with single-user decoding.

Builds multi-user downlink transmission plans from regular Gray-labeled QAM
constellations, checks modulation-order feasibility, assigns two-layer
powers, and evaluates finite-blocklength achievable rates under
treat-interference-as-noise decoding, with Gaussian and shell-code perfect-SIC
benchmarks.
"""

from .constellations import (
    ConstellationError,
    LabeledConstellation,
    build_gray_qam,
    build_rect_qam,
    min_pairwise_distance,
    normalization_factor,
    scale,
    silent,
    superimpose,
)
from .rates import (
    RateEngineError,
    RateResult,
    SecondOrderRate,
    SubBlockRateStats,
    compute_plan_rates,
    estimate_mi_dispersion,
    qfunc,
    qfunc_inv,
    quadrature_mi_dispersion,
)
from .linksim import (
    ReceivedFrame,
    SimulationError,
    demap_frame,
    empirical_id_check,
    hard_bits,
    random_payloads,
    simulate_frame,
    tin_llr,
)
from .scheme import (
    InfeasiblePlanError,
    SchemePlan,
    SpecError,
    SubBlockLayout,
    SystemSpec,
    UserSpec,
    assign_power,
    build_frame,
    build_layout,
    check_modulation_constraints,
    codeword_lengths,
    design_search,
    map_bits,
    verify_min_distances,
)

__version__ = "0.1.0"

__all__ = [
    "ConstellationError",
    "LabeledConstellation",
    "build_gray_qam",
    "build_rect_qam",
    "min_pairwise_distance",
    "normalization_factor",
    "scale",
    "silent",
    "superimpose",
    "RateEngineError",
    "RateResult",
    "SecondOrderRate",
    "SubBlockRateStats",
    "compute_plan_rates",
    "estimate_mi_dispersion",
    "qfunc",
    "qfunc_inv",
    "quadrature_mi_dispersion",
    "ReceivedFrame",
    "SimulationError",
    "demap_frame",
    "empirical_id_check",
    "hard_bits",
    "random_payloads",
    "simulate_frame",
    "tin_llr",
    "InfeasiblePlanError",
    "SchemePlan",
    "SpecError",
    "SubBlockLayout",
    "SystemSpec",
    "UserSpec",
    "assign_power",
    "build_frame",
    "build_layout",
    "check_modulation_constraints",
    "codeword_lengths",
    "design_search",
    "map_bits",
    "verify_min_distances",
    "__version__",
]
