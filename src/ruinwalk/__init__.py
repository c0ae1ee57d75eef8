"""Exact survival probabilities for discrete-time renewal risk models.

The walk sum(X_i - c*theta_i) with independent non-negative integer claim
amounts X and premium-scaled interarrival times c*theta of finite support
admits closed-form survival probabilities through the unit-disk roots of
its step generating function. This package finds those roots, solves the
initial-value system they induce, extends the table through the ascending
ladder-height factor those roots split off, and verifies everything
against independent simulation and enumeration oracles.
"""

from .errors import (
    DegenerateModelError,
    InfeasibleRebalanceError,
    ModelError,
    NetProfitError,
    NumericalBlowupError,
    NumericalError,
    ResourceError,
    RootCountError,
    RootQualityError,
    RuinwalkError,
    SystemSingularError,
)
from .model import (
    ModelConfig,
    ParametricDist,
    Pmf,
    RiskModel,
    build_model,
    load_model_config,
    materialize,
    parse_model_config,
    rebalance_claim,
    step_pmf,
    truncate,
)
from .pgf import CharPoly, RootSet, char_poly, pgf_eval, unit_disk_roots
from .initial_values import (
    InitialValues,
    InitSystem,
    RowKind,
    build_system,
    determinant_identity,
    elementary_symmetric,
    solve_closed_form,
    solve_linear,
)
from .survival import (
    SurvivalTable,
    finite_grid,
    finite_survival,
    truncation_bounds,
    ultimate_survival,
    xi_coeffs,
)
from .oracle import SimConfig, SimResult, enumerate_finite, simulate

__version__ = "0.1.0"

__all__ = [
    "CharPoly", "DegenerateModelError", "InfeasibleRebalanceError",
    "InitSystem", "InitialValues", "ModelConfig", "ModelError",
    "NetProfitError", "NumericalBlowupError", "NumericalError",
    "ParametricDist", "Pmf", "ResourceError", "RiskModel", "RootCountError",
    "RootQualityError", "RootSet", "RowKind", "RuinwalkError", "SimConfig",
    "SimResult", "SurvivalTable", "SystemSingularError", "build_model",
    "build_system", "char_poly", "determinant_identity",
    "elementary_symmetric", "enumerate_finite", "finite_grid",
    "finite_survival", "load_model_config", "materialize",
    "parse_model_config", "pgf_eval", "rebalance_claim", "simulate",
    "solve_closed_form", "solve_linear", "step_pmf", "truncate",
    "truncation_bounds", "ultimate_survival", "unit_disk_roots", "xi_coeffs",
]
