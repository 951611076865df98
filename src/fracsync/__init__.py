"""Fractional-order chaotic systems under a Caputo predictor-corrector.

The package integrates componentwise Caputo initial value problems with
an Adams-Bashforth-Moulton predictor-corrector, couples a financial
driver to a Volta follower through nonlinear control, and provides the
spectral machinery (argument criterion, chaos threshold, Mittag-Leffler
error prediction) to reason about when the coupling locks.
"""

import importlib

__version__ = "0.1.0"

# Home module -> the public names it defines, bound here at import.
_PUBLIC = {
    "analysis": (
        "ConvergenceProblem", "ConvergenceReport", "SyncSummary", "convergence_order",
        "divergence_factor", "empirical_orders", "mittag_leffler", "predicted_error",
        "sync_time",
    ),
    "control": (
        "Controller", "ExactCancellation", "LiteralFeedback", "StabilityReport",
        "chaos_threshold", "closed_loop_error_matrix", "control_exact", "control_literal",
        "coupled_system", "eigen3", "gain_matrix_default", "matignon_check",
    ),
    "errors": ("ConfigError", "FracsyncError", "InvalidInput", "NonFiniteState"),
    "solver": ("SolverConfig", "Trajectory", "integrate", "weights_a", "weights_b"),
    "systems": (
        "FINANCIAL_CHAOS_ONSET_REFERENCE", "FinancialParams", "FractionalOrders", "SystemDef",
        "VoltaParams", "financial_equilibria", "financial_jacobian", "financial_system",
        "volta_jacobian", "volta_system", "zero_system",
    ),
}

for _home, _names in _PUBLIC.items():
    _module = importlib.import_module(f".{_home}", __name__)
    globals().update({name: getattr(_module, name) for name in _names})
del _home, _names, _module

__all__ = sorted(name for names in _PUBLIC.values() for name in names)
