"""Exception hierarchy shared by the solver pipeline.

Two families matter to callers: ModelError for bad inputs or violated model
assumptions (the CLI maps these to exit code 2) and NumericalError for
failures of the numerical machinery on a valid model (exit code 3).
"""

import numpy as np


class RuinwalkError(Exception):
    """Base class for all package errors."""


class ModelError(RuinwalkError, ValueError):
    """Invalid distribution parameters, malformed model files, or violated
    structural assumptions (finite interarrival support, trimming, ...)."""


class NetProfitError(ModelError):
    """Mean step E(X - c*theta) >= 0: survival is identically zero and the
    solver pipeline refuses to run."""


class InfeasibleRebalanceError(ModelError):
    """Mass shift requested by a claim rebalance would make a weight
    negative. Carries the smallest feasible shift point, if any."""

    def __init__(self, message: str, min_feasible_l: int | None = None):
        super().__init__(message)
        self.min_feasible_l = min_feasible_l


class NumericalError(RuinwalkError):
    """Numerical failure on a structurally valid model."""


class RootCountError(NumericalError):
    """Unit-disk root search did not find the expected number of roots.
    Carries every candidate root with its modulus for diagnosis."""

    def __init__(self, message: str, roots=None):
        super().__init__(message)
        self.roots = list(roots) if roots is not None else []


class RootQualityError(NumericalError):
    """A located root failed polish-displacement, residual, or multiplicity
    confirmation checks."""


class SystemSingularError(NumericalError):
    """Initial-value system is numerically singular. Carries the per-row
    tags so the offending row can be identified."""

    def __init__(self, message: str, row_kinds=None):
        super().__init__(message)
        self.row_kinds = list(row_kinds) if row_kinds is not None else []


class NumericalBlowupError(NumericalError):
    """Survival recurrence left [0, 1] or broke monotonicity beyond
    tolerance; reports the first failing initial capital."""

    def __init__(self, message: str, u: int | None = None):
        super().__init__(message)
        self.u = u


class ResourceError(RuinwalkError):
    """Enumeration's lattice budget or the int32 walk's reach exceeded."""


def _integer(name: str, value) -> int:
    """`value` as a Python int, if it is an int or a numpy integer, else
    ModelError.

    A float is refused, integral or not: at u = 0.5 the integer walk's
    P(max < u) is phi(1), which int() would silently turn into phi(0).
    A bool is refused too.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    return int(value)
