"""Exact survival probabilities for discrete-time renewal risk models.

The walk sum(X_i - c*theta_i) with independent non-negative integer claim
amounts X and premium-scaled interarrival times c*theta of finite support
admits closed-form survival probabilities through the unit-disk roots of
its step generating function. This package finds those roots, builds the
table from the ascending ladder-height factor they split off, and
verifies it against the initial-value system the roots induce and
against independent simulation and enumeration oracles.
"""

from .errors import (
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
from .pgf import RootSet, char_poly, pgf_eval, unit_disk_roots
from .survival import (
    SurvivalTable,
    finite_grid,
    finite_survival,
    ultimate_survival,
    xi_coeffs,
)

__version__ = "0.1.0"

__all__ = [
    "InfeasibleRebalanceError", "InitSystem", "InitialValues",
    "ModelConfig", "ModelError", "NetProfitError", "NumericalBlowupError",
    "NumericalError",
    "ParametricDist", "Pmf", "ResourceError", "RiskModel", "RootCountError",
    "RootQualityError", "RootSet", "RowKind", "RuinwalkError", "SimConfig",
    "SimResult", "SurvivalTable", "SystemSingularError", "build_model",
    "build_system", "char_poly", "determinant_identity",
    "enumerate_finite", "finite_grid",
    "finite_survival", "load_model_config", "materialize",
    "parse_model_config", "pgf_eval", "rebalance_claim", "simulate",
    "solve_closed_form", "solve_linear", "step_pmf", "truncate",
    "ultimate_survival", "unit_disk_roots", "xi_coeffs",
]


_ORACLE = ("SimConfig", "SimResult", "enumerate_finite", "simulate")


def __getattr__(name: str):
    """Names of __all__ not bound above, loaded on first use: the
    oracle's from oracle, the others from initial_values."""
    if name in _ORACLE:
        from . import oracle as module
    elif name in __all__:
        from . import initial_values as module
    else:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
