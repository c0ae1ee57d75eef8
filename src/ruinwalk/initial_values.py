"""Initial values of the walk-maximum distribution.

The probabilities pi_0..pi_{m-1} of the walk's maximum solve an m x m
linear system: one row per unit-disk root (derivative rows for multiple
roots) plus a final mean row, with right-hand side (0, ..., 0, -drift).
The paper states the system in complex form. Its non-real rows come in
exact conjugate pairs and its solution is real, so build_system emits it
in real form, the one form stored: the rows of a pair become the real and
the imaginary part of the first. Two independent routes are provided: a
LAPACK solve of the real form, refined against exact residuals (the
paper's route), and the closed-form cascade over elementary symmetric
polynomials of the roots (the verification path). Both report the same
exact residual of their pi. A system passed to the closed form or the
determinant identity must be the one built from their roots.

Both routes run in integer arithmetic: every input, the double roots and
the double cdf and pmf values, is an exact dyadic rational n / 2**e, so
each system entry and each closed-form pi is exact and rounded once. Each
row is stored once, as integers over one power of two, the form that
every exact residual reads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NumericalError, SystemSingularError
from .model import RiskModel
from .pgf import RootSet

SINGULAR_TOL = 1e-13    # 1 / (largest row sum of the equilibrated inverse)
_REFINE_STEPS = 4       # exact residuals per solve, at most
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
    """The system in its real form, the one form stored; build_system
    makes it.

    A and b are the real matrix and right-hand side. A real row is the
    paper's row. Each (j, k) in twins is a conjugate pair of the paper's
    rows: A[j] holds the real parts of row j's entries and A[k] their
    imaginary parts, and the paper's row k is the conjugate of its row j.
    The paper's complex form is thus A[j] + i A[k] in row j and
    A[j] - i A[k] in row k; only the CLI's --dump-system writes it.

    exact holds each row of A as (ns, e): entry j is ns[j] / 2**e.
    build_system computes every entry exactly from the double roots and
    cdf values and rounds it once, to odd, to _BITS mantissa bits, in the
    same pass that puts its row over one power of two, so A holds the
    correctly rounded double of each exact entry. solve_linear refines pi
    against residuals from exact, each summed exactly and rounded once:
    the columns scale like f(-m) alpha^(m-1), so the trailing solution
    components amplify even the entry rounding of A by 1/f(-m)-sized
    factors, and agreement between the two solution routes is only
    achievable against exact-input residuals."""

    A: np.ndarray
    b: np.ndarray
    row_kinds: tuple
    exact: tuple
    twins: tuple

    @property
    def size(self) -> int:
        return len(self.b)


@dataclass(frozen=True)
class InitialValues:
    """pi[i] = P(walk maximum = i), i < m, plus solve diagnostics."""

    pi: np.ndarray
    residual: float

    @property
    def m(self) -> int:
        return len(self.pi)


def _exact(v: float) -> tuple:
    """(n, e) with v == n / 2**e exactly."""
    n, d = float(v).as_integer_ratio()
    return n, d.bit_length() - 1


def _align(pairs) -> tuple:
    """Values n / 2**k, given as (n, k) pairs, as integers over one power
    of two: (ns, e) with ns[j] / 2**e the j-th value."""
    pairs = list(pairs)
    e = max((k for _, k in pairs), default=0)
    return [n << (e - k) for n, k in pairs], e


def _over(values) -> tuple:
    """Doubles as integers over one power of two: (ns, e) with
    values[k] == ns[k] / 2**e."""
    return _align(map(_exact, values))


def _to_double(n: int, e: int) -> float:
    """n / 2**e correctly rounded to a double (round half to even,
    subnormal results included)."""
    return n / (1 << e) if e >= 0 else float(n << -e)


def _doubles(ns: list, e: int) -> list:
    """_to_double of every ns[j] over the one power of two 2**e.

    float(n) rounds correctly. For 0 <= e <= 1022 every nonzero value is
    at least 2**-1022, a normal double, so scaling by 2**-e is exact; an
    n past the double range, or any other e, takes _to_double."""
    if 0 <= e <= 1022:
        s = 2.0 ** -e
        try:
            return [float(n) * s for n in ns]
        except OverflowError:
            pass
    return [_to_double(n, e) for n in ns]


def _rounded(ns: list, e: int) -> tuple:
    """The values ns[j] / 2**e, each rounded to odd at _BITS mantissa
    bits, as integers over one power of two: (ns', e') with ns'[j] / 2**e'
    the j-th rounded value.

    Rounding to odd keeps a sticky last bit, so a later rounding to
    double is the correct rounding of ns[j] / 2**e itself. A value of
    more than _BITS bits drops its c excess low bits, and is then over
    2**(e - c); a zero is over 2**0. The row's power of two is the largest
    of these, as _align takes it."""
    qs, cuts = [], []
    for n in ns:
        c = n.bit_length() - _BITS
        if c > 0:
            # n >> c floors, so setting the last bit when a nonzero
            # remainder was dropped rounds either sign to odd
            q = n >> c
            qs.append(q | 1 if q << c != n else q)
        else:
            qs.append(n)
            c = 0 if n else e
        cuts.append(c)
    low = min(cuts, default=e)
    return [q << (c - low) for q, c in zip(qs, cuts)], e - low


def _root_rows(z: complex, mult: int, N: list, g: int) -> tuple:
    """Rows n = 0..mult-1 of root z: p_i^(n)(z) for every column i, given
    the cdf values F(-m+j) = N[j] / 2**g, as (real parts, imaginary
    parts), each row in _rounded's form.

    Column i is c_i(s) = s^i Q_{m-1-i}(s), with the prefix sums
    Q_L(s) = sum_{j<=L} F(-m+j) s^j, and row n is n! times the h^n
    coefficient of its Taylor series in h = s - z. The series are
    truncated to mult terms and held exactly: with z = (a + i b) / 2**e,
    by the real and imaginary parts of their numerators over a power of
    two. Term 0 is held in plain ints; terms 1..mult-1 in integer lists
    updated in place, empty for a simple root. One pass over j carries
    s^j and Q_j(s) up to c_0 = Q_{m-1}; the columns then follow from
    c_{i+1}(s) = s (c_i(s) - F(-1-i) s^(m-1)), whose numerators over
    2**(g + e (m-1)) stay integers, so every step costs time linear in
    their length. Multiplying by s = z + h adds the old term n-1 to term
    n, so the terms are updated from term 0 up, each passing its old value
    on. Each row's exact numerators over 2**(g + e (m-1)) are rounded by
    _rounded once the columns are done, so row 0 is the same for every
    multiplicity.
    """
    m = len(N)
    (a, b), e = _over((z.real, z.imag))
    up = range(mult - 1)        # terms 1..mult-1, at list index n - 1
    wr0, wi0 = 1, 0             # s^j, over 2**(e j)
    cr0, ci0 = N[0], 0          # Q_j(s), over 2**(g + e j)
    wr, wi, cr, ci = ([0] * (mult - 1) for _ in range(4))
    for nj in N[1:]:
        px, py = wr0, wi0
        wr0, wi0 = a * px - b * py, a * py + b * px
        cr0 = (cr0 << e) + nj * wr0
        ci0 = (ci0 << e) + nj * wi0
        for n in up:
            x, y = wr[n], wi[n]
            wr[n] = u = a * x - b * y + (px << e)
            wi[n] = v = a * y + b * x + (py << e)
            cr[n] = (cr[n] << e) + nj * u
            ci[n] = (ci[n] << e) + nj * v
            px, py = x, y
    scale = [math.factorial(n + 1) for n in up]
    re0, im0 = [], []
    re, im = [[] for _ in up], [[] for _ in up]
    for nf in reversed(N):
        re0.append(cr0)
        im0.append(ci0)
        px, py = cr0 - nf * wr0, ci0 - nf * wi0
        cr0, ci0 = (a * px - b * py) >> e, (a * py + b * px) >> e
        for n in up:
            x, y = cr[n], ci[n]
            k = scale[n]
            re[n].append(k * x)
            im[n].append(k * y)
            x, y = x - nf * wr[n], y - nf * wi[n]
            cr[n] = ((a * x - b * y) >> e) + px
            ci[n] = ((a * y + b * x) >> e) + py
            px, py = x, y
    den = g + e * (m - 1)
    return ([_rounded(row, den) for row in (re0, *re)],
            [_rounded(row, den) for row in (im0, *im)])


def _row_kinds(roots: RootSet) -> tuple:
    """The kinds of the rows of the system of roots, in row order: per
    root its root row and derivative orders 1..mult-1, then the mean row."""
    return tuple(RowKind("derivative", z, n) if n else RowKind("root", z)
                 for z, mult in zip(roots.roots, roots.multiplicities)
                 for n in range(mult)) + (RowKind("mean"),)


def build_system(model: RiskModel, roots: RootSet) -> InitSystem:
    """Assemble the m x m initial-value system for the model's step pmf,
    in real form.

    A root of multiplicity r contributes derivative rows of orders
    0..r-1; the last row states that the mean one-step drop among the
    first m levels equals E(c*theta - X). Everything is expressed through
    the step distribution, so shifted claim supports (no mass at 0) fall
    on the same code path with m = max_drop. A non-real root takes the
    real parts of its rows, and a later root of the set that is its
    conjugate, of the same multiplicity, takes their imaginary parts; a
    non-real root without one raises NumericalError. Every row, the mean
    row included, comes out of _rounded, rounded and over one power of
    two: it is stored as it is, and A is read off it by _doubles.
    """
    model.require_net_profit()
    m = model.max_drop
    if roots.total_multiplicity != m - 1:
        raise ModelError(
            f"root set carries multiplicity {roots.total_multiplicity}, "
            f"expected {m - 1}")
    kinds = _row_kinds(roots)
    rows, twins = [], []
    # row entries of tiny-modulus roots cancel almost completely; they are
    # exact here and rounded once, so the fixed-precision factorization
    # sees the true row
    N, g = _over(model.F(np.arange(-m, 0)).tolist())
    waiting = {}    # (conj(z), mult) -> [(first row, imaginary parts)]
    for z, mult in zip(roots.roots, roots.multiplicities):
        z = complex(z)
        firsts = waiting.get((z, mult))
        if firsts:
            j, im = firsts.pop()
            twins += zip(range(j, j + mult),
                         range(len(rows), len(rows) + mult))
            rows += im
            continue
        re, im = _root_rows(z, mult, N, g)
        if z.imag:
            waiting.setdefault((z.conjugate(), mult), []).append(
                (len(rows), im))
        rows += re
    lone = [j for firsts in waiting.values() for j, _ in firsts]
    if lone:
        raise NumericalError(
            f"root {kinds[min(lone)].root} of the root set has no conjugate "
            "of the same multiplicity")
    # entry i is sum_{j>i} (j - i) f(-j), over 2**h: a running sum of the
    # running tail sum_{j>i} f(-j), from i = m - 1 down
    fn, h = _over(model.f(-j) for j in range(1, m + 1))
    mean = [0] * m
    tail = acc = 0
    for i in range(m - 1, -1, -1):
        tail += fn[i]
        acc += tail
        mean[i] = acc
    rows.append(_rounded(mean, h))
    b = np.zeros(m)
    b[m - 1] = model.drift_pos
    return InitSystem(A=np.array([_doubles(ns, e) for ns, e in rows]),
                      b=b, row_kinds=kinds, exact=tuple(rows),
                      twins=tuple(twins))


def _system_of(model: RiskModel, roots: RootSet,
               system: InitSystem | None) -> InitSystem:
    """The system of roots: build_system's if `system` is None. A given
    system must have been built from them: its row kinds, roots and
    derivative orders in row order, are theirs, else ModelError."""
    if system is None:
        return build_system(model, roots)
    if system.row_kinds != _row_kinds(roots):
        raise ModelError("the system was built from other roots than the "
                         "root set given")
    return system


def _finalize_pi(pi: np.ndarray, residual: float) -> InitialValues:
    if np.any(pi < -1e-10):
        raise NumericalError(
            f"negative initial probability {pi.min():.3e} (< -1e-10)")
    if math.fsum(pi) > 1.0 + 1e-9:
        raise NumericalError(
            f"initial probabilities sum to {math.fsum(pi)!r} > 1 + 1e-9")
    return InitialValues(pi=pi, residual=residual)


def _vector(v: np.ndarray) -> tuple:
    """A double vector as exact integers over one power of two: (ns, e)
    with v[k] == ns[k] / 2**e."""
    if not np.isfinite(v).all():
        raise NumericalError("linear solve produced a non-finite value")
    return _over(v.tolist())


def _residual(rows: tuple, b: tuple, x: tuple) -> np.ndarray:
    """b - A x over the exact rows of A (InitSystem.exact), each component
    summed exactly and rounded once to double; b and x are of _vector's
    form."""
    (xs, ex), (bs, eb) = x, b
    out = []
    for (ns, e), p in zip(rows, bs):
        d = max(e + ex, eb)
        s = sum(map(operator.mul, ns, xs))
        out.append(_to_double((p << d - eb) - (s << d - e - ex), d))
    return np.array(out)


def _paired_max(sys: InitSystem, r: np.ndarray) -> float:
    """The largest modulus of the paper's complex residual, given the
    real form's residual r: a conjugate pair's is the modulus of its two
    real ones."""
    r = r.astype(complex)
    for j, k in sys.twins:
        r[j] = r[k] = complex(r[j].real, r[k].real)
    return float(np.max(np.abs(r)))


def _residual_max(sys: InitSystem, pi: np.ndarray) -> float:
    """_paired_max of the exact residual b - A pi over the exact rows."""
    return _paired_max(sys, _residual(sys.exact, _vector(sys.b),
                                      _vector(pi)))


def solve_linear(sys: InitSystem) -> InitialValues:
    """One LAPACK inverse of the equilibrated real system, plus iterative
    refinement against exact-input residuals. pi is a double vector: each
    step sums the residual of the current pi exactly and rounds it once,
    then adds its solve to pi in double, and refinement stops at the
    first correction that leaves pi unchanged. With the residual exact,
    refinement settles at working accuracy (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 12): the goldens take
    two residuals. At most _REFINE_STEPS are taken; a solve that reaches
    that cap returns the pi of its last residual.

    The system is solved in the real form it is stored in, so each entry
    of a residual is one product of integers. The reported residual is
    the last step's, the residual of the returned pi, paired by
    _paired_max as the closed form's is.

    Rows and columns are equilibrated first: a root of small modulus
    produces a uniformly tiny row (entries scale with F(-m) ... F(-1)
    times its powers) and the last column scales with f(-m) alpha^(m-1),
    so an absolute singularity threshold is only meaningful on the scaled
    matrix. The system is singular, SystemSingularError, when LAPACK
    finds it exactly so or when the largest row sum of the equilibrated
    inverse reaches 1 / SINGULAR_TOL.
    """
    A, b = sys.A, sys.b
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
    try:
        inv = np.linalg.inv(As)
    except np.linalg.LinAlgError:
        norm = math.inf
    else:
        norm = np.abs(inv).sum(axis=1).max()
    if norm >= 1 / SINGULAR_TOL:
        raise SystemSingularError(
            "the equilibrated system is singular: the largest row sum of "
            f"its inverse is {norm:.3e} (>= {1 / SINGULAR_TOL:.0e})",
            row_kinds=sys.row_kinds)

    def scaled_solve(rhs: np.ndarray) -> np.ndarray:
        return inv @ (rhs / rowmax) / colmax

    bx = _vector(b)
    pi = scaled_solve(b)
    for _ in range(_REFINE_STEPS - 1):
        r = _residual(sys.exact, bx, _vector(pi))
        x = pi + scaled_solve(r)
        if np.array_equal(x, pi):
            break
        pi = x
    else:
        r = _residual(sys.exact, bx, _vector(pi))
    return _finalize_pi(pi, _paired_max(sys, r))


def solve_closed_form(model: RiskModel, roots: RootSet,
                      system: InitSystem | None = None) -> InitialValues:
    """Closed-form cascade over elementary symmetric polynomials.

    pi~_k = (-1)^k e_{m-1-k} / (f(-m) prod(alpha_j - 1))
            - (1/f(-m)) sum_{i<k} pi~_i F(-m+k-i),
    then pi_k = pi~_k * E(c*theta - X). The F/f ratios cancel
    catastrophically when f(-m) is tiny, so the cascade runs exactly: with
    alpha_j = Z_j / 2**e, F(-m+j) = N_j / 2**g and c_k = 2**(ek) times the
    t^k coefficient of prod(t - Z_j), pi~_k = 2**g S_k / (N_0^(k+1) sum(c))
    where S_k = c_k N_0^k - sum_{i<k} S_i N_{k-i} N_0^(k-1-i), and each
    pi_k is rounded once. Its residual is solve_linear's, against the
    system of the roots (see _system_of; build_system checks the root set,
    conjugates included)."""
    if not roots.all_simple:
        raise NumericalError(
            "closed form requires simple roots; use solve_linear for "
            "models with multiple roots")
    system = _system_of(model, roots, system)
    zs = roots.roots
    # prod(t - Z_j), ascending, from one real factor per real root or pair
    ns, e = _over([v for z in zs if z.imag >= 0 for v in (z.real, z.imag)])
    D = [1]
    for A, B in zip(ns[::2], ns[1::2]):
        if B:
            D = [(A * A + B * B) * x - 2 * A * y + w for x, y, w
                 in zip(D + [0, 0], [0] + D + [0], [0, 0] + D)]
        else:
            D = [y - A * x for x, y in zip(D + [0], [0] + D)]
    c = [d << e * k for k, d in enumerate(D)]
    m = model.max_drop
    N, g = _over(model.F(np.arange(-m, 0)).tolist())
    pw = [N[0] ** k for k in range(m + 1)]
    S = []
    for k in range(m):
        S.append(c[k] * pw[k] - sum(S[i] * N[k - i] * pw[k - 1 - i]
                                    for i in range(k)))
    dn, h = _exact(model.drift_pos)
    try:
        pi = np.array([(s * dn << g) / (sum(c) * pw[k + 1] << h)
                       for k, s in enumerate(S)])
    except OverflowError:
        raise NumericalError("closed-form pi overflows a double") from None
    return _finalize_pi(pi, _residual_max(system, pi))


def determinant_identity(model: RiskModel, roots: RootSet,
                         system: InitSystem | None = None) -> tuple:
    """Both sides of the Vandermonde-style determinant identity.

    lhs is the paper's complex determinant, (-2i)^p det(A) for the p twin
    pairs of the system of the roots (see _system_of): a pair's rows
    (Re r, Im r) are (r, conj r) times a 2 x 2 matrix of determinant i/2.
    rhs is (-1)^(m-1) f(-m)^m prod_j (alpha_j - 1)
    prod_{i<j} (alpha_j - alpha_i) with roots in system-row order.
    Returned for external comparison.
    """
    if not roots.all_simple:
        raise NumericalError("determinant identity requires simple roots")
    m = model.max_drop
    system = _system_of(model, roots, system)
    p = len(system.twins)
    lhs = complex(np.linalg.det(system.A) * 2.0 ** p * (-1j) ** (p % 4))
    alphas = roots.expanded()
    rhs = (-1.0) ** (m - 1) * model.f(-m) ** m
    for z in alphas:
        rhs *= z - 1.0
    for i in range(len(alphas)):
        for j in range(i + 1, len(alphas)):
            rhs *= alphas[j] - alphas[i]
    return lhs, complex(rhs)


def log10_abs_det(system: InitSystem) -> float:
    """log10 of the modulus of the paper's complex determinant,
    |(-2i)^p det(A)| = 2^p |det(A)| as determinant_identity's lhs reads it,
    from slogdet: finite where det(A) leaves the double range."""
    return float((np.linalg.slogdet(system.A)[1]
                  + len(system.twins) * np.log(2)) / np.log(10))
