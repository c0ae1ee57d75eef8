"""Generating functions and unit-disk roots of the step distribution.

The walk's step generating function G(s) = sum_j f(j) s^j, cleared of
negative powers, becomes the polynomial P(s) = s^d (G(s) - 1) with
d = max_drop. P has exactly max_drop - 1 roots (with multiplicity) in the
closed unit disk away from 0 and 1; those roots drive the initial-value
system. Root finding runs on the polynomial via companion-matrix
eigenvalues, followed by clustering into multiplicities and one Newton
polish step per cluster in the closed upper half-plane; the lower one
holds the conjugates.

One Horner routine, `_divide`, gives P, its Taylor coefficients, every
generating-function value and every deflation. It runs in the arithmetic
of its arguments. Only the polish and the multiplicity check run it in
numpy's `clongdouble`, the 80-bit x87 extended type on x86-64 Linux:
`_taylor` reads P's coefficients converted once per root search and gives
the Taylor coefficients P^(k)(s) / k!. Everything else runs it in double:
`pgf_eval`, the residual check here and the ladder deflation in
`survival`. The polish relies on the extra bits: with `complex128` in
its place, as on platforms whose long double is plain double (Windows,
macOS on Apple silicon), the closed form of Poisson(6) claims against
geometric(0.05) interarrival times capped at 80 raises on pi = -8.1e-9.

The residual check reads the claim and interarrival weights as lists
converted once per root search, and runs once per real or upper
half-plane root. A conjugate takes its twin's residual and floor: every
operation of the evaluation (the Horner loop, 1/s, abs and the integer
power) commutes with conjugation in IEEE double, so evaluating at the
conjugate would give the same two numbers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError, RootCountError, RootQualityError
from .model import Pmf, RiskModel

# Root-search tolerances.
BOUNDARY_TOL = 1e-9     # how far past |s| = 1 a root may sit
ONE_EXCLUSION = 1e-7    # radius of the exclusion ball around s = 1
CLUSTER_TOL = 1e-6      # roots closer than this merge into one multiple root
RESIDUAL_TOL = 1e-8     # |G(root) - 1| after polish
MAX_POLISH_MOVE = 1e-6  # polish displacement beyond this flags a bad cluster


def _divide(q: list, z) -> list:
    """Synthetic division of a polynomial by (x - z), q its coefficients
    from the highest down: the quotient in the same order, with the
    remainder, the value at z, appended. It runs in the arithmetic of its
    arguments. From the leading coefficient down is the stable direction
    for |z| <= 1."""
    acc = q[0]
    out = [acc]
    for c in q[1:]:
        acc = acc * z + c
        out.append(acc)
    return out


def _extended(coeffs: np.ndarray) -> list:
    """Ascending coefficients as the list `_taylor` reads: highest first,
    each a `clongdouble`."""
    return list(np.asarray(coeffs, dtype=np.clongdouble)[::-1])


def _taylor(q: list, s: complex, n: int = 1) -> list:
    """P^(k)(s) / k! for k < n, P given as `_extended` gives it.

    The complete Horner scheme: n synthetic divisions by (x - s) in
    extended precision, each remainder the next Taylor coefficient at s
    and each quotient the polynomial the next division reads.
    """
    z = np.clongdouble(s)
    out = []
    for _ in range(n):
        q = _divide(q, z)
        out.append(complex(q.pop()))
    return out


def pgf_eval(p: Pmf, s: complex) -> complex:
    """Evaluate sum_k weights[k] * s^(offset + k) by Horner's scheme, one
    `_divide` in double on the weights as Python floats.

    Finite pmfs converge everywhere, but a negative offset makes s = 0 a
    pole. Intended use is |s| <= 1 + 1e-9.
    """
    s = complex(s)
    if s == 0:
        if p.offset < 0:
            raise ModelError("generating function has a pole at s = 0 "
                             f"(offset {p.offset})")
        return complex(p.weights[0]) if p.offset == 0 else 0.0 + 0.0j
    return _value(_horner(p), s)


def _horner(p: Pmf) -> tuple:
    """A pmf as `_value` reads it: its weights from the highest down, as
    Python floats, and its offset."""
    return p.weights[::-1].tolist(), p.offset


def _value(form: tuple, s: complex) -> complex:
    """The generating function of `_horner`'s form at a complex s != 0."""
    q, offset = form
    return _divide(q, s)[-1] * s ** offset


def char_poly(model: RiskModel) -> np.ndarray:
    """Ascending coefficients of P(s) = s^max_drop (G_step(s) - 1).

    coeffs[k] = f(k - max_drop) - [k == max_drop]; the constant term is the
    mass at the maximal downward step and the degree is
    max_drop + max upward step.
    """
    d = model.max_drop
    coeffs = model.step.weights.astype(float).copy()
    if len(coeffs) <= d:
        coeffs = np.pad(coeffs, (0, d + 1 - len(coeffs)))
    coeffs[d] -= 1.0
    return coeffs


@dataclass(frozen=True)
class RootSet:
    """Unit-disk roots of G_step(s) = 1 with multiplicities.

    The multiplicities sum to m - 1, m the walk's maximal downward step.
    Non-real roots come in exactly conjugate pairs. residuals[i] is
    |G_step(root_i) - 1| evaluated through the claim/interarrival product
    form (numerically far better conditioned than the cleared polynomial),
    and floors[i] the noise floor of that evaluation: the check admits a
    root whose residual is at most max(RESIDUAL_TOL, 4 floors[i]). A
    hand-built set may leave floors empty; the report and the `roots` CSV
    refuse such a set.
    """

    roots: tuple
    multiplicities: tuple
    residuals: tuple
    floors: tuple = ()

    def __len__(self) -> int:
        return len(self.roots)

    @property
    def total_multiplicity(self) -> int:
        return int(sum(self.multiplicities))

    @property
    def all_simple(self) -> bool:
        return all(r == 1 for r in self.multiplicities)

    def expanded(self) -> list:
        """Roots repeated by multiplicity."""
        out = []
        for z, r in zip(self.roots, self.multiplicities):
            out.extend([z] * r)
        return out


def _step_residuals(model: RiskModel, zs) -> list:
    """(|G_X(s) G_ctheta(1/s) - 1|, its evaluation noise floor) at each s
    in zs, every s != 0, with the weights converted to lists once.

    The product form is far better conditioned than the cleared
    polynomial divided by s^m, but for roots of very small modulus the
    1/s powers still cancel massively; the floor (machine epsilon times
    the term count times the magnitude sum of the terms) is the smallest
    residual the evaluation could certify. It is the double-precision
    bound of a Horner sum (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 5.1). Each s costs four `_value` calls,
    the operations `pgf_eval` runs; each commutes with conjugation in IEEE
    double, so the conjugate of s gives the same residual and floor bit
    for bit.
    """
    claim, inter = _horner(model.claim), _horner(model.interarrival)
    n_terms = len(model.claim.weights) + len(model.interarrival.weights)
    eps = float(np.finfo(float).eps)
    out = []
    for s in zs:
        s = complex(s)
        g = _value(claim, s) * _value(inter, complex(1.0 / s))
        mag = _value(claim, complex(abs(s))).real \
            * _value(inter, complex(1.0 / abs(s))).real
        out.append((abs(g - 1.0), eps * n_terms * (mag + 1.0)))
    return out


def _cluster(points: np.ndarray, tol: float) -> list:
    """Greedy transitive clustering of complex points at distance tol.

    The points are sorted by real, then imaginary part; each cluster is a
    list of Python complex numbers in the order of a depth-first search
    from its first point, which visits the unused neighbours of a point in
    sorted order and expands the last one found first."""
    pts = points[np.lexsort((points.imag, points.real))]
    near = (np.abs(pts[:, None] - pts[None, :]) < tol).tolist()
    pts = pts.tolist()
    used = [False] * len(pts)
    clusters = []
    for i in range(len(pts)):
        if used[i]:
            continue
        group = [i]
        used[i] = True
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for k, close in enumerate(near[j]):
                if close and not used[k]:
                    used[k] = True
                    group.append(k)
                    frontier.append(k)
        clusters.append([pts[k] for k in group])
    return clusters


def _confirm_multiplicity(q: list, z: complex, r: int, tol: float) -> bool:
    """Check |P^(k)(z)| / k! is small against |P^(r)(z)| / r! for k < r.

    Near a genuine multiplicity-r root those ratios scale like the
    distance to the root raised to r - k, and the polished point sits
    within the cluster radius of it."""
    t = [abs(v) for v in _taylor(q, z, r + 1)]
    if t[r] == 0.0:
        return False
    return all(t[k] <= t[r] * (100.0 * tol) ** (r - k) for k in range(1, r))


def unit_disk_roots(model: RiskModel) -> RootSet:
    """Locate the max_drop - 1 unit-disk roots of G_step(s) = 1.

    Pipeline: companion-matrix eigenvalues of the characteristic
    polynomial; keep |s| <= 1 + BOUNDARY_TOL outside the ONE_EXCLUSION
    ball around 1; cluster at CLUSTER_TOL into multiplicities; one
    (multiplicity-aware) Newton polish step per real or upper half-plane
    cluster, the conjugates added after it; validate the count, the polish
    displacement, the residual of the defining equation (RESIDUAL_TOL), and
    derivative-based multiplicity confirmation.

    The residual is evaluated once per real or upper half-plane root, from
    weight lists converted once per search (`_step_residuals`); each
    conjugate takes its twin's residual and floor, which are exactly what
    an evaluation at the conjugate would give, as every operation of it
    commutes with conjugation in IEEE double.
    """
    model.require_net_profit()
    coeffs = char_poly(model)
    m = model.max_drop

    if m == 1:
        return RootSet(roots=(), multiplicities=(), residuals=())
    q = _extended(coeffs)

    # the companion matrix is real, so LAPACK returns its complex
    # eigenvalues as exact conjugate pairs; the filter and the clusters
    # keep that symmetry, and the lower half-plane is left to conjugation
    all_roots = np.roots(coeffs[::-1])
    inside = all_roots[(np.abs(all_roots) <= 1.0 + BOUNDARY_TOL)
                       & (np.abs(all_roots - 1.0) > ONE_EXCLUSION)]

    finals = []
    for c in _cluster(inside, CLUSTER_TOL):
        r = len(c)
        # summed from 0 as np.mean's add.reduce is, so a -0.0 part comes
        # out +0.0 as it does there
        z = sum(c) / r
        real = abs(z.imag) <= CLUSTER_TOL
        if real:
            z = complex(z.real, 0.0)
        elif z.imag < 0:
            continue
        # a multiplicity-r root is a simple root of the (r-1)-th derivative,
        # where Newton's step is well conditioned; at the root itself both
        # P and P' sit at rounding-noise level and their ratio is garbage
        t = _taylor(q, z, r + 1)
        zp = z if t[r] == 0 else z - t[r - 1] / (r * t[r])
        if real and abs(zp.imag) < 1e-30:
            zp = complex(zp.real, 0.0)
        finals.append((zp, r, abs(zp - z)))
        if not real:
            finals.append((zp.conjugate(), r, abs(zp - z)))

    finals.sort(key=lambda f: (f[0].real, f[0].imag))
    roots = tuple(f[0] for f in finals)
    mults = tuple(f[1] for f in finals)

    total = sum(mults)
    if total != m - 1:
        raise RootCountError(
            f"found {total} unit-disk roots (with multiplicity), expected "
            f"{m - 1}; candidates: "
            + ", ".join(f"{z:.6g} (|s|={abs(z):.6g})" for z in all_roots),
            roots=[(z, abs(z)) for z in all_roots])

    for z, r, move in finals:
        if move > MAX_POLISH_MOVE:
            raise RootQualityError(
                f"Newton polish moved root {z:.9g} by {move:.3e} "
                f"(> {MAX_POLISH_MOVE}); cluster tolerance is unreliable here")
        if abs(z) > 1.0 + BOUNDARY_TOL or abs(z - 1.0) <= ONE_EXCLUSION or z == 0:
            raise RootQualityError(
                f"polished root {z:.9g} left the admissible region")
        if r > 1 and not _confirm_multiplicity(q, z, r, CLUSTER_TOL):
            raise RootQualityError(
                f"root {z:.9g} clustered with multiplicity {r} but the "
                "derivative magnitudes do not confirm it")

    # the set is closed under conjugation: check each real or upper
    # half-plane root once, and give each conjugate its twin's numbers
    own = [z for z in roots if z.imag >= 0]
    by_root = dict(zip(own, _step_residuals(model, own)))
    checked = [by_root[z.conjugate() if z.imag < 0 else z] for z in roots]
    for z, (res, floor) in zip(roots, checked):
        if res > max(RESIDUAL_TOL, 4.0 * floor):
            raise RootQualityError(
                f"root {z:.9g} has residual |G(s) - 1| = {res:.3e} "
                f"(> {RESIDUAL_TOL}, noise floor {floor:.1e})")

    return RootSet(roots=roots, multiplicities=mults,
                   residuals=tuple(res for res, _ in checked),
                   floors=tuple(floor for _, floor in checked))
