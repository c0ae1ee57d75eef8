"""Initial values of the walk-maximum distribution.

The probabilities pi_0..pi_{m-1} of the walk's maximum solve an m x m
linear system: one row per unit-disk root (derivative rows for multiple
roots) plus a final mean row, with right-hand side (0, ..., 0, -drift).
Two independent routes are provided: a pivoted complex linear solve (the
paper's route) and the closed-form cascade over elementary symmetric
polynomials of the roots (the verification path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import ModelError, NetProfitError, NumericalError, \
    SystemSingularError
from .model import RiskModel
from .pgf import RootSet

PIVOT_TOL = 1e-13       # relative pivot below this means singular
IMAG_DUST = 1e-9        # largest imaginary part tolerated in a probability
_REFINE_STEPS = 2
_MP_DPS = 40


@dataclass(frozen=True)
class RowKind:
    """Provenance tag for one system row."""

    kind: str                    # "root", "derivative", or "mean"
    root: complex | None = None
    order: int = 0

    def __str__(self) -> str:
        if self.kind == "root":
            return f"root({self.root:.9g})"
        if self.kind == "derivative":
            return f"derivative({self.root:.9g}, n={self.order})"
        return "mean"


@dataclass(frozen=True)
class InitSystem:
    """System matrix and right-hand side.

    matrix_mp holds the entries at _MP_DPS digits as exact functions of
    the double-precision roots and cdf values; matrix is their rounding.
    Iterative refinement runs against residuals from matrix_mp: the
    columns scale like f(-m) alpha^(m-1), so the trailing solution
    components amplify even the entry rounding of the stored matrix by
    1/f(-m)-sized factors, and agreement between the two solution routes
    is only achievable against exact-input residuals. A system built
    without matrix_mp is refined against its double entries."""

    matrix: np.ndarray
    rhs: np.ndarray
    row_kinds: tuple
    matrix_mp: tuple = None

    @property
    def size(self) -> int:
        return len(self.rhs)


@dataclass(frozen=True)
class InitialValues:
    """pi[i] = P(walk maximum = i), i < m, plus solve diagnostics.

    imag_dust is the largest imaginary part stripped from the solution.
    """

    pi: np.ndarray
    drift_pos: float
    residual: float
    imag_dust: float = 0.0

    @property
    def m(self) -> int:
        return len(self.pi)


def _root_rows(z: complex, mult: int, Fv: list) -> list:
    """Rows n = 0..mult-1 of root z: p_i^(n)(z) for every column i.

    With h = s - z, the powers s^j and the prefix sums
    Q_L(s) = sum_{j<=L} F(-m+j) s^j are carried as Taylor series in h,
    truncated to mult terms, in one pass over j. Column i is
    s^i Q_{m-1-i}(s), and row n is n! times its h^n coefficient.
    """
    m = len(Fv)
    zc = mp.mpc(z)
    pw = [mp.mpc(1)] + [mp.mpc(0)] * (mult - 1)
    acc = [mp.mpc(0)] * mult
    powers, prefix = [], []
    for j in range(m):
        acc = [a + Fv[j] * p for a, p in zip(acc, pw)]
        powers.append(pw)
        prefix.append(acc)
        pw = [zc * pw[0]] + [zc * pw[t] + pw[t - 1] for t in range(1, mult)]
    return [[math.factorial(n)
             * mp.fdot(powers[i][: n + 1], prefix[m - 1 - i][n::-1])
             for i in range(m)] for n in range(mult)]


def build_system(model: RiskModel, roots: RootSet) -> InitSystem:
    """Assemble the m x m initial-value system for the model's step pmf.

    A root of multiplicity r contributes derivative rows of orders
    0..r-1; the last row states that the mean one-step drop among the
    first m levels equals E(c*theta - X). Everything is expressed through
    the step distribution, so shifted claim supports (no mass at 0) fall
    on the same code path with m = max_drop.
    """
    if not model.net_profit_holds:
        raise NetProfitError(
            f"mean step is {model.drift:+.6g} >= 0; the net profit condition "
            "fails")
    m = model.max_drop
    if roots.total_multiplicity != m - 1:
        raise ModelError(
            f"root set carries multiplicity {roots.total_multiplicity}, "
            f"expected {m - 1}")
    kinds = []
    rows = []
    # row entries of tiny-modulus roots cancel almost completely; resolve
    # them at _MP_DPS digits and round, so the fixed-precision
    # factorization sees the true row
    with mp.workdps(_MP_DPS):
        Fv = [mp.mpf(float(v)) for v in model.F(np.arange(-m, 0))]
        for z, mult in zip(roots.roots, roots.multiplicities):
            rows += _root_rows(z, mult, Fv)
            kinds += [RowKind("root", z)] + [RowKind("derivative", z, n)
                                             for n in range(1, mult)]
        rows.append([mp.fsum(mp.mpf(j - i) * mp.mpf(model.f(-j))
                             for j in range(i + 1, m + 1))
                     for i in range(m)])
    kinds.append(RowKind("mean"))
    rhs = np.zeros(m, dtype=complex)
    rhs[m - 1] = model.drift_pos
    return InitSystem(matrix=np.array([[complex(v) for v in row]
                                       for row in rows]),
                      rhs=rhs, row_kinds=tuple(kinds),
                      matrix_mp=tuple(map(tuple, rows)))


def _gepp_factor(A: np.ndarray, kinds) -> tuple:
    """In-place LU with partial pivoting; pivots below PIVOT_TOL raise."""
    n = A.shape[0]
    lu = A.copy()
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) < PIVOT_TOL:
            raise SystemSingularError(
                f"pivot {abs(lu[p, k]):.3e} below {PIVOT_TOL} at "
                f"elimination step {k}", row_kinds=kinds)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm


def _lu_solve(lu: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = lu.shape[0]
    x = b[perm].astype(complex)
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
    return x


def _finalize_pi(x: np.ndarray, drift_pos: float, residual: float) -> InitialValues:
    worst = float(np.max(np.abs(x.imag))) if len(x) else 0.0
    if worst > IMAG_DUST:
        raise NumericalError(
            f"initial values carry imaginary part {worst:.3e} "
            f"(> {IMAG_DUST}); conjugate symmetry of the system is broken")
    pi = x.real.copy()
    if np.any(pi < -1e-10):
        raise NumericalError(
            f"negative initial probability {pi.min():.3e} (< -1e-10)")
    if math.fsum(pi) > 1.0 + 1e-9:
        raise NumericalError(
            f"initial probabilities sum to {math.fsum(pi)!r} > 1 + 1e-9")
    return InitialValues(pi=pi, drift_pos=drift_pos, residual=residual,
                         imag_dust=worst)


def solve_linear(sys: InitSystem) -> InitialValues:
    """Gaussian elimination with partial pivoting, plus iterative
    refinement against exact-input residuals with x accumulated in mpmath.

    Rows and columns are equilibrated first: a root of small modulus
    produces a uniformly tiny row (entries scale with F(-m) ... F(-1)
    times its powers) and the last column scales with f(-m) alpha^(m-1),
    so an absolute pivot threshold is only meaningful on the scaled
    matrix.
    """
    A, b = sys.matrix, sys.rhs
    rowmax = np.max(np.abs(A), axis=1)
    if np.any(rowmax == 0.0):
        dead = int(np.argmin(rowmax))
        raise SystemSingularError(
            f"row {dead} ({sys.row_kinds[dead]}) of the system is zero",
            row_kinds=sys.row_kinds)
    Ar = A / rowmax[:, None]
    colmax = np.max(np.abs(Ar), axis=0)
    if np.any(colmax == 0.0):
        dead = int(np.argmin(colmax))
        raise SystemSingularError(f"column {dead} of the system is zero",
                                  row_kinds=sys.row_kinds)
    As = Ar / colmax[None, :]
    lu, perm = _gepp_factor(As, sys.row_kinds)

    def scaled_solve(rhs: np.ndarray) -> np.ndarray:
        return _lu_solve(lu, perm, rhs / rowmax) / colmax

    x = scaled_solve(b)
    with mp.workdps(_MP_DPS):
        A_mp = sys.matrix_mp if sys.matrix_mp is not None else \
            [[mp.mpc(complex(v)) for v in row] for row in A]
        b_mp = [mp.mpc(complex(v)) for v in b]
        xs = [mp.mpc(complex(v)) for v in x]
        for _ in range(_REFINE_STEPS + 1):
            r = np.array([complex(bi - mp.fdot(row, xs))
                          for bi, row in zip(b_mp, A_mp)])
            xs = [xi + mp.mpc(complex(di))
                  for xi, di in zip(xs, scaled_solve(r))]
        x = np.array([complex(v) for v in xs])
        xr = [mp.mpf(float(v)) for v in x.real]
        resid = float(max(abs(bi - mp.fdot(row, xr))
                          for bi, row in zip(b_mp, A_mp)))
    return _finalize_pi(x, drift_pos=float(b[-1].real), residual=resid)


def elementary_symmetric(roots) -> list:
    """e_0..e_n of the given roots by the one-root-at-a-time recurrence,
    in the roots' own arithmetic (complex, or mpmath at its working
    precision)."""
    e = [1.0 + 0.0j]
    for z in roots:
        e.append(0.0 + 0.0j)
        for j in range(len(e) - 1, 0, -1):
            e[j] += z * e[j - 1]
    return e


def solve_closed_form(model: RiskModel, roots: RootSet,
                      system: InitSystem | None = None) -> InitialValues:
    """Closed-form cascade over elementary symmetric polynomials.

    pi~_k = (-1)^k e_{m-1-k} / (f(-m) prod(alpha_j - 1))
            - (1/f(-m)) sum_{i<k} pi~_i F(-m+k-i),
    then pi_k = pi~_k * E(c*theta - X). The F/f ratios cancel
    catastrophically when f(-m) is tiny, so the cascade is accumulated in
    high precision and rounded once at the end; this route verifies the
    linear solve; its residual is taken against `system` (built if None).
    """
    if not roots.all_simple:
        raise NumericalError(
            "closed form requires simple roots; use solve_linear for "
            "models with multiple roots")
    m = model.max_drop
    fm = model.f(-m)
    alphas = [mp.mpc(z) for z in roots.expanded()]
    with mp.workdps(60):
        e = elementary_symmetric(alphas)
        denom = mp.mpf(fm)
        for z in alphas:
            denom *= z - 1
        Fv = [mp.mpf(model.F(-m + t)) for t in range(m)]
        tilde = []
        for k in range(m):
            val = (-1) ** k * e[m - 1 - k] / denom
            for i in range(k):
                val -= tilde[i] * Fv[k - i] / mp.mpf(fm)
            tilde.append(val)
        dp = mp.mpf(model.drift_pos)
        pi = np.array([complex(t * dp) for t in tilde])
    system = system or build_system(model, roots)
    resid = float(np.max(np.abs(system.matrix @ pi.real - system.rhs)))
    return _finalize_pi(pi, drift_pos=model.drift_pos, residual=resid)


def determinant_identity(model: RiskModel, roots: RootSet,
                         system: InitSystem | None = None) -> tuple:
    """Both sides of the Vandermonde-style determinant identity.

    lhs is the determinant of the matrix of `system` (built if None); rhs is
    (-1)^(m-1) f(-m)^m prod_j (alpha_j - 1) prod_{i<j} (alpha_j - alpha_i)
    with roots in system-row order. Returned for external comparison.
    """
    if not roots.all_simple:
        raise NumericalError("determinant identity requires simple roots")
    m = model.max_drop
    system = system or build_system(model, roots)
    lhs = complex(np.linalg.det(system.matrix))
    alphas = roots.expanded()
    rhs = (-1.0) ** (m - 1) * model.f(-m) ** m
    for z in alphas:
        rhs *= z - 1.0
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            rhs *= alphas[j] - alphas[i]
    return lhs, complex(rhs)
