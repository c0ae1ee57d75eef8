"""Survival probability tables.

Ultimate-time values come from the Wiener-Hopf ladder factorisation of
the step polynomial P(s) = s^m (G(s) - 1): dividing its unit-disk roots
and s = 1 out of P leaves 1 - H(s), where H is the generating function of
the strict ascending ladder height (Feller, Vol. II, ch. XII). The ruin
tail psi(u) = 1 - phi(u) then follows the defective renewal equation
psi(u) = sum_k h_k psi(u - k) from psi = 1 below zero (ch. XI), a
recurrence of nonnegative terms that is forward-stable for every u. It
stops once K terms in a row, K the largest ladder height, lie below
_PSI_FLOOR: every later psi does too, so phi = 1 - psi is exactly 1.0
there. phi(0) is the one-step balance. Bounds and monotonicity are
checked, never clamped.

Finite-horizon tables step the ruin tail too: the first-step map
`_first_step`, (T psi)(u) = sum_k f(k) psi(u - k) with psi = 1 below
zero, is a sum of nonnegative terms, so phi(u, t) = 1 - psi(u, t) <= 1.
One pass to horizon T produces every level t = 1..T exactly, so a grid
over T = 1..t_max is a single pass of t_max levels, one convolution each,
on one work buffer that each level overwrites with its own psi.
The same map, applied once to the ladder tail, gives its re-substitution
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ModelError, NumericalBlowupError, _integer
from .model import RiskModel
from .pgf import RootSet, _divide, char_poly, unit_disk_roots

if TYPE_CHECKING:              # the paper's system loads only when asked for
    from .initial_values import InitialValues

MONOTONE_TOL = 1e-9       # tolerated [0,1] / monotonicity slack
_BLOCK = 512              # ladder-recurrence terms per matrix product
_BLOCK_CELLS = 2**14      # entries of one block matrix past K = 32
_PSI_FLOOR = 2.0**-600
"""The first-step map reads psi as 0 from its first entry past u = 0
below this floor, and the ladder tail ends at the first block whose K
input terms all lie below it: the products of an underflowing tail are
subnormal and slow. The floor sits some 550 binades below the half ulp
of 1 at which 1 - psi rounds, so it moves no bit of phi."""


@dataclass(frozen=True)
class SurvivalTable:
    """phi(u) for u = 0..u_max (ultimate) or phi(u, T) at fixed T (finite)."""

    phis: np.ndarray
    residual: float = 0.0          # max recurrence re-substitution residual
    warnings = ()                  # free-text notes; the ladder route adds none
    q: np.ndarray | None = None    # ultimate: P(M = i), i = 0..m-1

    @property
    def u_max(self) -> int:
        return len(self.phis) - 1

    def __getitem__(self, u: int) -> float:
        return float(self.phis[u])


def _pad(model: RiskModel) -> int:
    """The ones in front of psi(1) in the first-step map's input, one for
    each v = -max_up..0."""
    return max(model.step.support_max, 0) + 1


def _first_step(model: RiskModel, x: np.ndarray, n: int) -> np.ndarray:
    """(T psi)(u) = sum_k f(k) psi(u - k) for u = 0..n from `x`, which
    holds `_pad` ones for v = -max_up..0 and then psi(1), psi(2), ...;
    psi is read as 0 from its first entry below _PSI_FLOOR, or past the
    end of `x`. So the map is one slice of one convolution of a prefix of
    `x` with step.weights[j] = f(j - m). The slice ends early where T psi
    is 0 for every larger u. The result is a fresh array."""
    pad = _pad(model)
    lo = model.max_drop + pad - 1
    below = np.flatnonzero(x[pad:] < _PSI_FLOOR)
    end = pad + below[0] if below.size else len(x)
    return np.convolve(x[:end], model.step.weights)[lo : lo + n + 1]


def _finite_table(model: RiskModel, u_max: int, T: int):
    """An iterator over phi(0..u_max, t) for t = 1..T from one pass of the
    first-step map on the ruin tail: psi(., 0) = 0 on u >= 1, one
    convolution per level, and phi = 1 - psi, exactly 1 past the stored
    level. u_max and T are checked when it is called, not at the first
    `next`.

    Level t is asked for up to u_max + (T - t)m, m clipped at 0, as later
    levels read at most m past their own width; so every level is exact
    for u <= u_max, not only the last. The pass keeps one work buffer,
    `_pad` ones and then psi(1..) of the latest level: each level is
    `_first_step` on a prefix of it and writes its own psi(1..) back in
    place, so no level is copied into a fresh padded array. A level is at
    most max_up < `_pad` entries wider than the last, so where one does
    not fit, one doubling of the buffer makes room. The next level reads
    it up to its first entry below _PSI_FLOOR, which also drops the exact
    zeros past t times the largest up-step, so the width, and the buffer,
    stop growing once psi has decayed. Each yielded level is a fresh array
    of length u_max + 1, so a caller that keeps it does not keep the work
    buffer alive.
    """
    T = _integer("T", T)
    u_max = _integer("u_max", u_max)
    if T < 1:
        raise ModelError(f"horizon T={T} must be >= 1")
    if u_max < 0:
        raise ModelError(f"u_max={u_max} must be >= 0")
    m = max(model.max_drop, 0)

    def levels():
        pad = _pad(model)
        work = np.ones(2 * pad)
        width = 0                  # psi(u, 0) = 0: nothing has happened yet
        for t in range(1, T + 1):
            psi = _first_step(model, work[: pad + width],
                              u_max + (T - t) * m)
            head = psi[1:]
            width = head.size
            if pad + width > work.size:
                work = np.concatenate([work, np.empty(work.size)])
            work[pad : pad + width] = head
            out = np.ones(u_max + 1)
            out[: len(psi)] -= psi[: u_max + 1]
            yield out
    return levels()


def finite_survival(model: RiskModel, u_max: int, T: int) -> SurvivalTable:
    """Survival through the first T steps, phi(u, T) for u = 0..u_max.

    phi(u, 1) = F(u-1), and conditioning on the first step k < u gives
    phi(u, T) = sum_{k=-m}^{u-1} phi(u-k, T-1) f(k).
    """
    for lvl in _finite_table(model, u_max, T):
        pass
    return SurvivalTable(phis=lvl)


def finite_grid(model: RiskModel, u_max: int, t_max: int):
    """An iterator over (t, phi(0..u_max, t)) for t = 1..t_max from one DP
    pass to horizon t_max: t_max levels, one convolution each, so the
    number of convolutions is linear in t_max. A u_max below 0, a t_max
    below 1 or either not an integer raises ModelError here, before any
    level is made."""
    return enumerate(_finite_table(model, u_max, t_max), start=1)


def _check_length(init: InitialValues | None, m: int) -> None:
    """Raise unless `init`, if given, holds pi_0..pi_{m-1}."""
    if init is not None and init.m != m:
        raise ModelError(
            f"initial values have length {init.m}, model needs {m}")


def _check_table(phi: np.ndarray) -> None:
    """Raise at the first u where phi escapes [0, 1] or drops below
    phi(u-1), each beyond MONOTONE_TOL; nothing is clamped."""
    escaped = ~((phi >= -MONOTONE_TOL) & (phi <= 1.0 + MONOTONE_TOL))
    dropped = np.zeros_like(escaped)
    dropped[1:] = phi[1:] < phi[:-1] - MONOTONE_TOL
    bad = np.flatnonzero(escaped | dropped)
    if bad.size:
        u = int(bad[0])
        if escaped[u]:
            raise NumericalBlowupError(
                f"phi({u}) = {phi[u]!r} escaped [0, 1] (check roots and "
                "residuals)", u=u)
        raise NumericalBlowupError(
            f"phi({u}) = {phi[u]!r} < phi({u - 1}) = {phi[u - 1]!r}; "
            "monotonicity broke beyond tolerance", u=u)


def _divide_out(coeffs: np.ndarray, zs) -> np.ndarray:
    """Divide (s - z) out of an ascending-coefficient polynomial for every
    z in zs, dropping each remainder. The polynomial is held as a list of
    Python complex numbers, highest term first, and each division is one
    `pgf._divide` in double."""
    q = np.asarray(coeffs, dtype=complex)[::-1].tolist()
    for z in zs:
        q = _divide(q, z)
        q.pop()
    return np.array(q[::-1])


def _ladder_factor(model: RiskModel, roots: RootSet) -> np.ndarray:
    """Ascending coefficients of 1 - H(s), H the generating function of
    the strict ascending ladder height.

    The step polynomial factors as P(s) = c (s - 1) prod (s - alpha_j)
    prod (s - beta_k) with the unit-disk roots alpha_j and the roots
    |beta_k| > 1. Dividing out s = 1 and the alpha_j leaves
    c prod (s - beta_k), which scaled to constant term 1 is
    prod (1 - s/beta_k) = 1 - H(s) (Wiener-Hopf).
    """
    a = _divide_out(char_poly(model), roots.expanded() + [1.0]).real
    return a / a[0]


def _check_heights(h: np.ndarray) -> None:
    """Raise unless every ladder height h_k is at least -K 2^-53 max h,
    K = len(h): the rounding a deflation of K terms may leave on an exact
    0. Below that the roots factor lost digits, as on a lattice law whose
    unit-disk roots crowd the circle, and the recurrence would run on a
    negative weight. A detector, not a proof that the factor is good."""
    if h.size == 0:
        return
    bound = h.size * 2.0**-53 * h.max()
    if h.min() < -bound:
        k = int(np.argmin(h)) + 1
        raise NumericalBlowupError(
            f"ladder height h_{k} = {float(h[k - 1])!r} lies below "
            f"-{bound:.1e}, the rounding bound; the roots factor lost "
            "digits")


def _ladder_tail(h: np.ndarray, n: int, m: int) -> np.ndarray:
    """A level psi(0) .. psi(e), m <= e <= n, of the defective renewal
    equation psi(u) = sum_k h_k psi(u - k) for u >= 1, with psi = 1 on
    u <= 0.

    Blocks of terms come from one product with the matrix that maps the
    last K = len(h) terms to the next block. Its rows are the recurrence
    run on the K unit states, built by doubling: rows L..2L-1 are rows
    0..L-1 applied to the state L terms in. With h >= 0 every entry and
    every product is a sum of nonnegative terms. A block has _BLOCK rows
    while K <= 32, else the largest power of two <= _BLOCK_CELLS / K, and
    at least 16. So the doubling's B K^2 products, B the block's rows,
    stay within _BLOCK_CELLS K up to K = 1 024, and a term costs K.

    The level ends at n, or at the first block start e >= m whose K terms
    psi(e-K+1..e) all lie below _PSI_FLOOR. As h >= 0 and sum h < 1, every
    later psi lies below the floor too, so 1 - psi rounds to 1.0 there.
    The cost is O(min(n, L) K), L the floor index. With K = 0 no block
    runs, and the level is psi(0..m).
    """
    k = len(h)
    if k == 0:                     # no up-step: psi = 0 above zero
        return np.concatenate([[1.0], np.zeros(m)])
    psi = np.empty(k + 1 + n)      # psi[k + u] = psi(u)
    psi[: k + 1] = 1.0             # psi(-k..0) = 1
    fit = 1 << (_BLOCK_CELLS // k).bit_length() >> 1   # 2^i <= cells/K, or 0
    block = min(_BLOCK, n, max(16, fit))
    rows = np.zeros((k + (1 << (block - 1).bit_length()), k))
    np.fill_diagonal(rows, 1.0)    # rows 0..K-1: the K unit states
    rows[k] = h[::-1]
    size = 1
    while size < block:
        np.matmul(rows[k : k + size], rows[size : size + k],
                  out=rows[k + size : k + 2 * size])
        size *= 2
    step = rows[k : k + block]
    for j in range(0, n, block):
        window = psi[j + 1 : j + 1 + k]
        if j >= m and window.max() < _PSI_FLOOR:
            return psi[k : k + 1 + j]
        e = min(j + block, n)
        np.matmul(step[: e - j], window, out=psi[k + 1 + j : k + 1 + e])
    return psi[k:]


def ultimate_survival(model: RiskModel, init: InitialValues | None = None,
                      u_max: int | None = None,
                      roots: RootSet | None = None) -> SurvivalTable:
    """phi(u) for u = 0..u_max from the ladder factorisation.

    The unit-disk roots and s = 1 divided out of the step polynomial leave
    1 - H(s), H the strict ascending ladder-height generating function
    with coefficients h_k >= 0. The ruin tail psi(u) = P(M >= u) of the
    walk's maximum M runs psi(u) = sum_k h_k psi(u-k) from psi = 1 on
    u <= 0, a recurrence of nonnegative terms that is forward-stable for
    every u, and phi(u) = 1 - psi(u) for u >= 1; the table keeps
    P(M = i) = psi(i) - psi(i+1), i < m, the paper's pi, as `q`. phi(0)
    is the one-step balance sum_{i<=m} phi(i) f(-i), and `residual` is
    max |phi + T psi - 1|, T the first-step map, over u <= u_max - m. An
    `init`, if given, is checked for its length only; its partial sums are
    the paper's route to phi(1..m) and verify this one. A ladder height
    below -K 2^-53 max h raises NumericalBlowupError before any term is
    run (`_check_heights`), and a value escaping [0, 1] or out of order
    beyond tolerance raises at its u; nothing is clamped.

    The recurrence runs to the level `_ladder_tail` returns, which covers
    u = m and ends where K terms of psi in a row lie below _PSI_FLOOR, K
    the largest ladder height. Past it psi is below the floor, so phi is
    exactly 1.0 there, as the full recurrence gives it, and is not
    computed: the table is allocated as ones, and 1 - psi, the checks and
    the residual run on the level, which `_first_step` reads as it reads
    every psi. The cost is O(min(u_max, L) K), L the floor index of psi,
    plus one fill of u_max + 1 entries.
    """
    u_max = _integer("u_max", u_max)
    if u_max < 0:
        raise ModelError(f"u_max={u_max} must be >= 0")
    model.require_net_profit()
    m = model.max_drop
    _check_length(init, m)
    if roots is None:
        roots = unit_disk_roots(model)
    h = -_ladder_factor(model, roots)[1:]
    _check_heights(h)
    psi = _ladder_tail(h, max(u_max, m), m)
    end = min(len(psi), u_max + 1)
    phi = np.ones(u_max + 1)
    np.subtract(1.0, psi[:end], out=phi[:end])
    phi[0] = math.fsum((1.0 - psi[i]) * model.f(-i) for i in range(1, m + 1))
    _check_table(phi[:end])
    n = max(u_max + 1 - m, 0)      # below n, T psi reads no psi past u_max
    tpsi = _first_step(model, np.concatenate([np.ones(_pad(model)),
                                              psi[1:end]]), n - 1)
    # past the level phi - 1 is 0, and past len(tpsi) so is T psi
    gap = phi[: max(min(end, n), len(tpsi))] - 1.0
    gap[: len(tpsi)] += tpsi
    residual = float(np.max(np.abs(gap), initial=0.0))
    return SurvivalTable(phis=phi, residual=residual,
                         q=psi[:m] - psi[1 : m + 1])


def xi_coeffs(model: RiskModel, init: InitialValues, n: int,
              roots: RootSet | None = None) -> np.ndarray:
    """First n Taylor coefficients of the survival generating function
    Xi(s) = sum_u phi(u+1) s^u, with pi taken from `init`.

    Xi is N(s) / (s^m (G_step(s) - 1)), N(s) = sum_i pi_i sum_j s^(i+j)
    F(-m+j) of degree m - 1. Both vanish at the m - 1 unit-disk roots, so
    N keeps only its leading coefficient top(pi) = sum_i pi_i F(-1-i), and
    the denominator keeps a constant times (1 - s)(1 - H(s)), 1 - H the
    ladder factor of `ultimate_survival`, whose reciprocal is the table's
    sum_u phi(u+1) s^u. With pi = q, the table's own pi, Xi is that
    series, so the constant is top(q): Xi is the table scaled by
    top(pi) / top(q). It sees pi only through that one sum; the check
    that sees every pi is `solve --verify`'s "vs ladder table" line.
    """
    n = _integer("n", n)
    m = model.max_drop
    _check_length(init, m)
    if n <= 0:
        return np.zeros(0)
    table = ultimate_survival(model, u_max=n, roots=roots)
    cdf = model.F(-1 - np.arange(m))
    kappa = math.fsum(init.pi * cdf) / math.fsum(table.q * cdf)
    return kappa * table.phis[1:]

