"""Initial values of the walk-maximum distribution.

The probabilities pi_0..pi_{m-1} of the walk's maximum solve an m x m
linear system: one row per unit-disk root (derivative rows for multiple
roots) plus a final mean row, with right-hand side (0, ..., 0, -drift).
Two independent routes are provided: a pivoted complex linear solve (the
paper's route) and the closed-form cascade over elementary symmetric
polynomials of the roots (the verification path).

The system is assembled and refined in integer arithmetic. Every input,
the double roots and the double cdf and pmf values, is an exact dyadic
rational n / 2**e, so each entry is computed exactly and rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NetProfitError, NumericalError, \
    SystemSingularError
from .model import RiskModel
from .pgf import RootSet

PIVOT_TOL = 1e-13       # relative pivot below this means singular
IMAG_DUST = 1e-9        # largest imaginary part tolerated in a probability
_REFINE_STEPS = 2
_BITS = 160             # mantissa bits of a stored system entry


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

    entries holds each entry as (mr, er, mi, ei): real part mr / 2**er,
    imaginary part mi / 2**ei, with |mr|, |mi| < 2**_BITS. build_system
    computes every entry exactly from the double roots and cdf values and
    rounds it once, to odd, so matrix, the doubles of entries, holds the
    correctly rounded double of each exact entry. Iterative refinement
    runs against residuals from entries: the columns scale like
    f(-m) alpha^(m-1), so the trailing solution components amplify even
    the entry rounding of the stored matrix by 1/f(-m)-sized factors, and
    agreement between the two solution routes is only achievable against
    exact-input residuals. A system given by its double matrix alone
    takes those doubles as its exact entries."""

    matrix: np.ndarray
    rhs: np.ndarray
    row_kinds: tuple
    entries: tuple = None

    def __post_init__(self):
        if self.entries is None:
            object.__setattr__(self, "entries", tuple(
                tuple((*_exact(v.real), *_exact(v.imag)) for v in row)
                for row in np.asarray(self.matrix, dtype=complex)))

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


def _exact(v: float) -> tuple:
    """(n, e) with v == n / 2**e exactly."""
    n, d = float(v).as_integer_ratio()
    return n, d.bit_length() - 1


def _over(values) -> tuple:
    """Doubles as integers over one power of two: (ns, e) with
    values[k] == ns[k] / 2**e."""
    pairs = [_exact(v) for v in values]
    e = max((k for _, k in pairs), default=0)
    return [n << (e - k) for n, k in pairs], e


def _to_double(n: int, e: int) -> float:
    """n / 2**e correctly rounded to a double (round half to even,
    subnormal results included)."""
    return n / (1 << e) if e >= 0 else float(n << -e)


def _round(n: int, e: int) -> tuple:
    """n / 2**e rounded to odd at _BITS mantissa bits, as (n', e').

    Rounding to odd keeps a sticky last bit, so a later rounding to
    double is the correct rounding of n / 2**e itself."""
    if not n:
        return 0, 0
    a = abs(n)
    excess = a.bit_length() - _BITS
    if excess <= 0:
        return n, e
    q = a >> excess
    if a & ((1 << excess) - 1):
        q |= 1
    return (q if n > 0 else -q), e - excess


def _root_rows(z: complex, mult: int, N: list, g: int) -> list:
    """Rows n = 0..mult-1 of root z: p_i^(n)(z) for every column i, given
    the cdf values F(-m+j) = N[j] / 2**g.

    Column i is c_i(s) = s^i Q_{m-1-i}(s), with the prefix sums
    Q_L(s) = sum_{j<=L} F(-m+j) s^j, and row n is n! times the h^n
    coefficient of its Taylor series in h = s - z. The series are
    truncated to mult terms and held exactly: with z = Z / 2**e (Z a
    Gaussian integer, held as a (re, im) pair), by their numerators over
    a power of two. One pass over j carries s^j and Q_j(s) up to
    c_0 = Q_{m-1}; the columns then follow from
    c_{i+1}(s) = s (c_i(s) - F(-1-i) s^(m-1)), whose numerators over
    2**(g + e (m-1)) stay integers, so every step costs time linear in
    their length.
    """
    m = len(N)
    (a, b), e = _over((z.real, z.imag))

    def times_s(ser: list) -> list:
        """s p(s) from p(s), its numerators over a further 2**e."""
        return [(a * pr - b * pi + (ur << e), a * pi + b * pr + (ui << e))
                for (pr, pi), (ur, ui) in zip(ser, [(0, 0)] + ser[:-1])]

    pw = [(1, 0)] + [(0, 0)] * (mult - 1)     # s^j over 2**(e j)
    col = [(0, 0)] * mult                      # Q_j(s) over 2**(g + e j)
    for j, nj in enumerate(N):
        if j:
            pw = times_s(pw)
        col = [((qr << e) + nj * pr, (qi << e) + nj * pi)
               for (qr, qi), (pr, pi) in zip(col, pw)]
    den = g + e * (m - 1)
    rows = [[] for _ in range(mult)]
    for i in range(m):
        for n, (row, (re, im)) in enumerate(zip(rows, col)):
            k = math.factorial(n)
            row.append((*_round(k * re, den), *_round(k * im, den)))
        nf = N[m - 1 - i]
        col = [(x >> e, y >> e) for x, y in times_s(
            [(cr - nf * wr, ci - nf * wi)
             for (cr, ci), (wr, wi) in zip(col, pw)])]
    return rows


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
    # row entries of tiny-modulus roots cancel almost completely; they are
    # exact here and rounded once, so the fixed-precision factorization
    # sees the true row
    N, g = _over(model.F(np.arange(-m, 0)))
    done = {}
    for z, mult in zip(roots.roots, roots.multiplicities):
        twin = done.get((complex(z).conjugate(), mult))
        if twin is None:
            own = _root_rows(complex(z), mult, N, g)
        else:   # the rows of conj(z) are exactly the conjugates of twin's
            own = [[(mr, er, -mi, ei) for mr, er, mi, ei in row]
                   for row in twin]
        done[z, mult] = own
        rows += own
        kinds += [RowKind("root", z)] + [RowKind("derivative", z, n)
                                         for n in range(1, mult)]
    fn, h = _over(model.f(-j) for j in range(1, m + 1))
    rows.append([(*_round(sum((j - i) * fn[j - 1]
                              for j in range(i + 1, m + 1)), h), 0, 0)
                 for i in range(m)])
    kinds.append(RowKind("mean"))
    rhs = np.zeros(m, dtype=complex)
    rhs[m - 1] = model.drift_pos
    return InitSystem(matrix=np.array([[complex(_to_double(mr, er),
                                                _to_double(mi, ei))
                                        for mr, er, mi, ei in row]
                                       for row in rows]),
                      rhs=rhs, row_kinds=tuple(kinds),
                      entries=tuple(map(tuple, rows)))


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


def _vector(v) -> tuple:
    """A complex double vector as exact Gaussian integers over one power
    of two: (re, im, e) with v[k] == (re[k] + 1j im[k]) / 2**e."""
    v = np.asarray(v, dtype=complex)
    if not np.all(np.isfinite(v)):
        raise NumericalError("linear solve produced a non-finite value")
    ns, e = _over(np.concatenate([v.real, v.imag]))
    return ns[: len(v)], ns[len(v):], e


def _add(u: tuple, v: tuple) -> tuple:
    """The exact sum of two vectors of _vector's form."""
    (ur, ui, eu), (vr, vi, ev) = u, v
    e = max(eu, ev)
    return ([(p << e - eu) + (q << e - ev) for p, q in zip(ur, vr)],
            [(p << e - eu) + (q << e - ev) for p, q in zip(ui, vi)], e)


def _residual(entries: tuple, tops: list, b: tuple, x: tuple) -> np.ndarray:
    """b - A x over the stored entries of A, each component summed exactly
    and rounded once to double. Row k is summed over 2**tops[k], the
    largest exponent in it; b and x are of _vector's form."""
    (xr, xi, ex), (br, bi, eb) = x, b
    out = []
    for row, E, pr, pi in zip(entries, tops, br, bi):
        sr = si = 0
        for (mr, er, mi, ei), vr, vi in zip(row, xr, xi):
            sr += (mr * vr << E - er) - (mi * vi << E - ei)
            si += (mr * vi << E - er) + (mi * vr << E - ei)
        d = max(E + ex, eb)
        out.append(complex(
            _to_double((pr << d - eb) - (sr << d - E - ex), d),
            _to_double((pi << d - eb) - (si << d - E - ex), d)))
    return np.array(out, dtype=complex)


def solve_linear(sys: InitSystem) -> InitialValues:
    """Gaussian elimination with partial pivoting, plus iterative
    refinement against exact-input residuals. x is kept as the exact sum
    of the double corrections, and each residual is summed exactly.

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

    tops = [max(max(er, ei) for _, er, _, ei in row) for row in sys.entries]
    bx = _vector(b)
    xs = _vector(scaled_solve(b))
    for _ in range(_REFINE_STEPS + 1):
        r = _residual(sys.entries, tops, bx, xs)
        xs = _add(xs, _vector(scaled_solve(r)))
    xr, xi, ex = xs
    x = np.array([complex(_to_double(p, ex), _to_double(q, ex))
                  for p, q in zip(xr, xi)])
    resid = float(np.max(np.abs(_residual(sys.entries, tops, bx,
                                          _vector(x.real)))))
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
    import mpmath as mp

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
