"""Fractional-order chaotic systems under a Caputo predictor-corrector.

The package integrates componentwise Caputo initial value problems with
an Adams-Bashforth-Moulton predictor-corrector, couples a financial
driver to a Volta follower through nonlinear control, and provides the
spectral machinery (argument criterion, chaos threshold, Mittag-Leffler
error prediction) to reason about when the coupling locks.
"""

from .analysis import (
    ConvergenceProblem,
    ConvergenceReport,
    SyncSummary,
    convergence_order,
    divergence_factor,
    empirical_orders,
    mittag_leffler,
    predicted_error,
    sync_time,
)
from .control import (
    Controller,
    ExactCancellation,
    LiteralFeedback,
    StabilityReport,
    chaos_threshold,
    closed_loop_error_matrix,
    control_exact,
    control_literal,
    coupled_system,
    eigen3,
    gain_matrix_default,
    matignon_check,
)
from .errors import (
    ConfigError,
    DegenerateEigenvalue,
    DegenerateParameters,
    DomainExceeded,
    FracsyncError,
    GridMismatch,
    InvalidGain,
    InvalidOrder,
    MissingErrors,
    NonFiniteState,
    ZeroInitialSeparation,
)
from .solver import (
    SolverConfig,
    Trajectory,
    integrate,
    weights_a,
    weights_b,
)
from .systems import (
    FINANCIAL_CHAOS_ONSET_REFERENCE,
    FinancialParams,
    FractionalOrders,
    SystemDef,
    VoltaParams,
    financial_equilibria,
    financial_jacobian,
    financial_rhs,
    financial_system,
    volta_jacobian,
    volta_rhs,
    volta_system,
    zero_system,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceProblem",
    "ConvergenceReport",
    "Controller",
    "DegenerateEigenvalue",
    "DegenerateParameters",
    "DomainExceeded",
    "ExactCancellation",
    "FINANCIAL_CHAOS_ONSET_REFERENCE",
    "FinancialParams",
    "FractionalOrders",
    "FracsyncError",
    "GridMismatch",
    "InvalidGain",
    "InvalidOrder",
    "LiteralFeedback",
    "MissingErrors",
    "NonFiniteState",
    "SolverConfig",
    "StabilityReport",
    "SyncSummary",
    "SystemDef",
    "Trajectory",
    "VoltaParams",
    "ZeroInitialSeparation",
    "chaos_threshold",
    "closed_loop_error_matrix",
    "control_exact",
    "control_literal",
    "convergence_order",
    "coupled_system",
    "divergence_factor",
    "eigen3",
    "empirical_orders",
    "financial_equilibria",
    "financial_jacobian",
    "financial_rhs",
    "financial_system",
    "gain_matrix_default",
    "integrate",
    "matignon_check",
    "mittag_leffler",
    "predicted_error",
    "sync_time",
    "volta_jacobian",
    "volta_rhs",
    "volta_system",
    "weights_a",
    "weights_b",
    "zero_system",
]
