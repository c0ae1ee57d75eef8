"""Survival probability tables.

Ultimate-time values start from the initial-value vector: phi(i+1) is the
partial sum of pi, phi(0) comes from the one-step balance at u = 0, and
larger u follow the division-by-f(-m) recurrence. That recurrence
amplifies any seed error by 1/|alpha_min| per step, so a stability horizon
is estimated up front and values beyond it come from the finite-horizon
convolution, iterated until successive doublings of the horizon agree.
Bounds and monotonicity are checked, never clamped.

Finite-horizon tables come from the first-step convolution recursion. One
pass to horizon T produces every level t = 1..T exactly, so a grid over
T = 1..t_max is a single pass of t_max levels, and the number of
convolutions is linear in t_max. The per-u work past the recurrence (the
bounds scan, the fallback's survival rows and the re-substitution
residual) runs as whole-array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NetProfitError, NumericalBlowupError
from .initial_values import InitialValues
from .model import RiskModel
from .pgf import RootSet, char_poly, unit_disk_roots

MONOTONE_TOL = 1e-9       # tolerated [0,1] / monotonicity slack
ERROR_BUDGET = 1e-10      # largest recurrence error the horizon may admit
BRACKET_TOL = 1e-10       # fallback stops when phi(.,T) and phi(.,2T) agree
_T_START = 8
_T_CAP = 1 << 16
_CELL_CAP = 2 * 10 ** 8


@dataclass(frozen=True)
class SurvivalTable:
    """phi(u) for u = 0..u_max (ultimate) or phi(u, T) at fixed T (finite)."""

    phis: np.ndarray
    kind: str                      # "ultimate" or "finite"
    horizon: int | None = None     # T for finite tables
    residual: float = 0.0          # max recurrence re-substitution residual
    warnings: tuple = ()

    @property
    def u_max(self) -> int:
        return len(self.phis) - 1

    def __getitem__(self, u: int) -> float:
        return float(self.phis[u])


def _cdf_lookup(model: RiskModel):
    """Vectorized step cdf F(j) over integer arrays."""
    cdf = np.concatenate([[0.0], np.cumsum(model.step.weights)])
    lo = model.step.support_min

    def F(js: np.ndarray) -> np.ndarray:
        idx = np.clip(js - lo + 1, 0, len(cdf) - 1)
        return cdf[idx]

    return F


def _finite_table(model: RiskModel, u_max: int, T: int):
    """Yield phi(0..u_max, t) for t = 1..T from one pass of the first-step
    convolution recursion: T levels, one convolution each.

    Level t is stored only up to width_t = min(u_max + (T-t)m, t*max_up)
    because phi(u, t) = 1 exactly once u exceeds t times the maximal
    upward step; reads past the stored width substitute the cdf tail in
    closed form. (With a truncated infinite-support claim the implicit 1
    is off by the stored tail mass, well below every tolerance used here.)
    Every level of the pass is therefore exact for u <= u_max, not only
    the last. Each yielded level is a fresh array of length u_max + 1, so
    a caller that keeps it does not keep the wider working level alive.
    """
    m = model.max_drop
    max_up = max(model.step.support_max, 0)
    fw = model.step.weights
    F = _cdf_lookup(model)

    def width(t: int) -> int:
        return max(0, min(u_max + (T - t) * m, t * max_up))

    lvl = np.ones(1)               # phi(., 0) = 1: nothing has happened yet
    for t in range(1, T + 1):
        wp = len(lvl) - 1
        wt = width(t)
        u = np.arange(wt + 1)
        new = F(u - wp - 1)
        if wp >= 1:
            conv = np.convolve(lvl[1:], fw)
            j = u + m - 1
            ok = (j >= 0) & (j < len(conv))
            new[ok] += conv[j[ok]]
        lvl = new
        out = np.ones(u_max + 1)
        n = min(len(lvl), u_max + 1)
        out[:n] = lvl[:n]
        yield out


def finite_survival(model: RiskModel, u_max: int, T: int) -> SurvivalTable:
    """Survival through the first T steps, phi(u, T) for u = 0..u_max.

    phi(u, 1) = F(u-1); deeper horizons condition on the first step k,
    which must stay below u, giving phi(u, T) =
    sum_{k=-m}^{u-1} phi(u-k, T-1) f(k).
    """
    if T < 1:
        raise ModelError(f"horizon T={T} must be >= 1")
    if u_max < 0:
        raise ModelError(f"u_max={u_max} must be >= 0")
    for lvl in _finite_table(model, u_max, T):
        pass
    return SurvivalTable(phis=lvl, kind="finite", horizon=T)


def finite_grid(model: RiskModel, u_max: int, t_max: int):
    """Yield (t, phi(0..u_max, t)) for t = 1..t_max from one DP pass to
    horizon t_max: t_max levels, one convolution each, so the number of
    convolutions is linear in t_max."""
    yield from enumerate(_finite_table(model, u_max, t_max), start=1)


def _converged_finite(model: RiskModel, u_max: int,
                      bracket_tol: float = BRACKET_TOL,
                      t_cap: int = _T_CAP) -> tuple:
    """Finite-horizon values phi(., T) iterated until a horizon doubling
    moves nothing, for u >= 1.

    Runs on the running-maximum recursion W_t = (W_{t-1} + step)^+, whose
    final law is that of (sup_{n<=T} S_n)^+ by time reversal, so
    P(W_T < u) = phi(u, T) for u >= 1. Unlike the first-step lattice this
    is linear in T: the pmf width stays bounded by the maximum's
    stationary tail (trailing mass below 1e-22 is dropped; the loss is
    tracked and bounded far below the bracket tolerance).
    """
    m = model.max_drop
    fw = model.step.weights
    w = np.zeros(1)
    w[0] = 1.0
    lost = 0.0
    cells = 0
    cell_budget = _CELL_CAP * max(1, t_cap // _T_CAP)
    target = _T_START
    snapshot = None

    def survival_row(wv: np.ndarray) -> np.ndarray:
        cum = np.concatenate([[0.0], np.cumsum(wv)])
        return cum[np.minimum(np.arange(u_max + 1), len(cum) - 1)]

    t = 0
    while True:
        t += 1
        conv = np.convolve(w, fw)
        head = float(math.fsum(conv[: m + 1]))
        w = conv[m:].copy()
        w[0] = head
        keep = len(w)
        while keep > 1 and w[keep - 1] <= 1e-22:
            lost += w[keep - 1]
            keep -= 1
        w = w[:keep]
        cells += keep
        if t == target:
            snapshot = survival_row(w)
        elif t == 2 * target:
            cur = survival_row(w)
            if float(np.max(np.abs(snapshot - cur))) < bracket_tol:
                if lost > 1e-13:
                    raise NumericalBlowupError(
                        f"running-maximum tail trimming lost {lost:.2e} mass")
                return cur, t
            target, snapshot = t, cur
        if t > 2 * t_cap or cells > cell_budget:
            raise NumericalBlowupError(
                f"finite-horizon fallback did not converge by T = {t}; "
                "the drift is too close to zero for this range of u "
                "(a larger horizon cap extends the work budget)")


def _stability_horizon(model: RiskModel, init: InitialValues,
                       roots: RootSet | None, budget: float) -> int:
    """Largest u the direct recurrence can reach within the error budget.

    Seed errors grow like g^(u-m) with g = 1/|alpha_min|, with a
    two-decade safety margin for the mode projection (multiple roots add
    polynomial-in-u factors); each step also injects fresh rounding noise
    of order eps/f(-m), which then compounds at the same rate:

        err(u) ~ 100 gauge g^(u-m) + 10 noise (g^(u-m) - 1)/(g - 1).
    """
    m = model.max_drop
    eps = float(np.finfo(float).eps)
    gauge = 100.0 * max(init.error_gauge, 16 * eps)
    noise = 10.0 * eps / model.f(-m)
    if gauge + noise >= budget:
        return m
    if roots is None:
        roots = unit_disk_roots(model)
    gmin = min((abs(z) for z in roots.roots), default=1.0)
    if gmin >= 1.0 - 1e-12:
        return m + min(int(budget / max(noise, 1e-300)), 10 ** 9)
    g = 1.0 / gmin
    k = 0
    err = gauge + noise
    while err <= budget and k < 10 ** 6:
        k += 1
        err = gauge * g ** k + noise * (g ** k - 1.0) / (g - 1.0)
    return m + max(k - 1, 0)


def _recurrence_residual(model: RiskModel, phi: np.ndarray) -> float:
    """max |phi(u) - sum_{i>=1} phi(i) f(u-i)| over u = 0..len(phi)-m-1.

    step.weights[k] = f(k - m), so entry u + m of the convolution of phi
    (with phi(0) zeroed) and the weights is the sum on the right.
    """
    m = model.max_drop
    n = len(phi) - m
    if n <= 0:
        return 0.0
    head = phi.copy()
    head[0] = 0.0
    conv = np.convolve(head, model.step.weights)
    return float(np.max(np.abs(phi[:n] - conv[m : m + n])))


def ultimate_survival(model: RiskModel, init: InitialValues, u_max: int,
                      roots: RootSet | None = None, *,
                      monotone_tol: float = MONOTONE_TOL,
                      error_budget: float = ERROR_BUDGET,
                      bracket_tol: float = BRACKET_TOL,
                      fallback_t_cap: int = _T_CAP) -> SurvivalTable:
    """phi(u) for u = 0..u_max from the initial values.

    phi(1..m) are partial sums of pi, phi(0) is the one-step balance
    sum_{i<=m} phi(i) f(-i), and u > m follows
    phi(u) = (phi(u-m) - sum_{i<u} phi(i) f(u-m-i)) / f(-m)
    up to the stability horizon, beyond which the converged finite-horizon
    convolution takes over (flagged in warnings). Any value escaping
    [0, 1] or breaking monotonicity beyond tolerance raises, identifying
    the failing u; nothing is clamped.
    """
    if u_max < 0:
        raise ModelError(f"u_max={u_max} must be >= 0")
    if not model.net_profit_holds:
        raise NetProfitError(
            f"mean step is {model.drift:+.6g} >= 0; the net profit condition "
            "fails")
    m = model.max_drop
    if init.m != m:
        raise ModelError(
            f"initial values have length {init.m}, model needs {m}")
    fm = model.f(-m)
    max_up = model.step.support_max
    warnings = []

    phi = np.zeros(max(u_max, m) + 1)
    phi[1 : m + 1] = np.cumsum(init.pi)
    phi[0] = math.fsum(phi[i] * model.f(-i) for i in range(1, m + 1))

    if u_max > m:
        horizon = _stability_horizon(model, init, roots, error_budget)
        for u in range(m + 1, min(u_max, horizon) + 1):
            lo = max(1, u - m - max_up)
            s = math.fsum(phi[i] * model.f(u - m - i) for i in range(lo, u))
            phi[u] = (phi[u - m] - s) / fm
        if u_max > horizon:
            fb, T = _converged_finite(model, u_max, bracket_tol,
                                      fallback_t_cap)
            phi[horizon + 1 :] = fb[horizon + 1 :]
            warnings.append(
                f"phi(u) for u > {horizon} from the finite-horizon "
                f"convolution (T = {T}); the direct recurrence is unstable "
                "past that point")

    phi = phi[: u_max + 1]
    escaped = ~((phi >= -monotone_tol) & (phi <= 1.0 + monotone_tol))
    dropped = np.zeros_like(escaped)
    dropped[1:] = phi[1:] < phi[:-1] - monotone_tol
    bad = np.flatnonzero(escaped | dropped)
    if bad.size:
        u = int(bad[0])
        if escaped[u]:
            raise NumericalBlowupError(
                f"phi({u}) = {phi[u]!r} escaped [0, 1]; the recurrence "
                "amplified initial-value error (check roots and residuals)",
                u=u)
        raise NumericalBlowupError(
            f"phi({u}) = {phi[u]!r} < phi({u - 1}) = {phi[u - 1]!r}; "
            "monotonicity broke beyond tolerance", u=u)
    return SurvivalTable(phis=phi, kind="ultimate",
                         residual=_recurrence_residual(model, phi),
                         warnings=tuple(warnings))


def _deflate(coeffs: np.ndarray, z: complex) -> np.ndarray:
    """Divide an ascending-coefficient polynomial by (s - z), dropping the
    remainder. Synthetic division from the leading coefficient is the
    stable direction for |z| < 1."""
    n = len(coeffs) - 1
    q = np.zeros(n, dtype=complex)
    q[n - 1] = coeffs[n]
    for k in range(n - 1, 0, -1):
        q[k - 1] = coeffs[k] + z * q[k]
    return q


def xi_coeffs(model: RiskModel, init: InitialValues, n: int,
              roots: RootSet | None = None) -> np.ndarray:
    """First n Taylor coefficients of the survival generating function
    Xi(s) = sum_u phi(u+1) s^u.

    Xi is the ratio of N(s) = sum_i pi_i sum_j s^(i+j) F(-m+j) to the
    cleared-denominator polynomial s^m (G_step(s) - 1). Both share the
    unit-disk roots (N vanishes there to the same multiplicity), and the
    raw long division is unstable at rate 1/|alpha_min| per coefficient,
    so the common factors are deflated from both sides first; what remains
    has no roots inside the disk and divides stably.
    """
    if n <= 0:
        return np.zeros(0)
    m = model.max_drop
    poly = char_poly(model)        # raises if the constant term vanishes
    if roots is None:
        roots = unit_disk_roots(model)
    num = np.zeros(m, dtype=complex)
    for t in range(m):
        num[t] = math.fsum(init.pi[i] * model.F(-m + t - i)
                           for i in range(t + 1))
    den = poly.coeffs.astype(complex)
    for z, mult in zip(roots.roots, roots.multiplicities):
        for _ in range(mult):
            den = _deflate(den, z)
            num = _deflate(num, z) if len(num) > 1 else num
    c = np.zeros(n, dtype=complex)
    for k in range(n):
        acc = num[k] if k < len(num) else 0.0
        lo = max(0, k - len(den) + 1)
        acc -= sum(c[l] * den[k - l] for l in range(lo, k))
        c[k] = acc / den[0]
    return c.real.copy()


def truncation_bounds(model_truncated: RiskModel, original_tail: float,
                      phis: SurvivalTable) -> tuple:
    """Bounds on the defect phi(0) - sum_{i<=m} phi(i) f(-i) left by capping
    the interarrival time at m.

    The defect equals the survival mass carried by drops beyond m, so it
    lies between phi(m+1) * original_tail (phi is nondecreasing) and
    original_tail, where original_tail = P(X - c*theta <= -(m+1)) under
    the uncapped interarrival law.
    """
    if original_tail < 0.0:
        raise ModelError(f"original_tail={original_tail!r} must be >= 0")
    if original_tail == 0.0:
        return 0.0, 0.0
    need = model_truncated.m + 1
    if phis.u_max < need:
        raise ModelError(
            f"survival table must reach u = {need} to estimate the bounds")
    return float(phis.phis[need]) * original_tail, original_tail
