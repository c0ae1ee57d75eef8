"""Initial-value system assembly and its two solution routes."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import ruinwalk as rw
from ruinwalk import initial_values as iv
from ruinwalk.cli import _complex_form

from conftest import (ROUTE_CASES, example3_double_root, make_example1,
                      make_example2, make_example3, make_example4,
                      poisson_geometric_model, random_admissible_model,
                      random_simple_root_model)


def horner_rows(model: rw.RiskModel, roots: rw.RootSet) -> list:
    """The exact-input system entry by entry, as it was assembled before
    the Taylor-series form: for every root row, mpmath Horner over the
    coefficients of the n-th derivative of p_i(s) = sum_j s^(j+i) F(-m+j)
    (its k leading zero coefficients become a factor z^k); for the mean
    row, one mp.fsum per column. The derivative coefficients are formed
    in mpmath, so every input is exact."""
    m = model.max_drop
    rows = []
    with mp.workdps(40):
        Fv = [mp.mpf(model.F(-m + j)) for j in range(m)]
        for z, mult in zip(roots.roots, roots.multiplicities):
            zc = mp.mpc(z)
            for n in range(mult):
                row = []
                for i in range(m):
                    # p_i(s) = s^k sum_j c_j s^j with k = i
                    c, k = Fv[: m - i], i
                    for _ in range(n):
                        c = [c[j] * (j + k) for j in range(len(c))]
                        if k:
                            k -= 1
                        else:
                            c = c[1:]
                    row.append(mp.polyval(c[::-1], zc) * zc ** k)
                rows.append(row)
        rows.append([mp.fsum(mp.mpf(j - i) * mp.mpf(model.f(-j))
                             for j in range(i + 1, m + 1))
                     for i in range(m)])
    return rows


def exact_rows(model: rw.RiskModel, roots: rw.RootSet) -> list:
    """The system in exact rational arithmetic, straight from the
    definition: root row n, column i is
    p_i^(n)(z) = sum_j F(-m+j) (i+j)!/(i+j-n)! z^(i+j-n), and the mean
    row's entry i is sum_{j>i} (j-i) f(-j). The root and the cdf and pmf
    values are taken exactly from their doubles; each entry is a (re, im)
    pair of Fractions."""
    m = model.max_drop
    Fv = [Fraction(model.F(-m + j)) for j in range(m)]
    rows = []
    for z, mult in zip(roots.roots, roots.multiplicities):
        zr, zi = Fraction(z.real), Fraction(z.imag)
        pw = [(Fraction(1), Fraction(0))]
        for _ in range(m):
            pr, pi = pw[-1]
            pw.append((pr * zr - pi * zi, pr * zi + pi * zr))
        for n in range(mult):
            row = []
            for i in range(m):
                re = im = Fraction(0)
                for j in range(max(n - i, 0), m - i):
                    c = Fv[j] * math.perm(i + j, n)
                    re += c * pw[i + j - n][0]
                    im += c * pw[i + j - n][1]
                row.append((re, im))
            rows.append(row)
    rows.append([(sum(Fraction(j - i) * Fraction(model.f(-j))
                      for j in range(i + 1, m + 1)), Fraction(0))
                 for i in range(m)])
    return rows


def mp_closed_form(model: rw.RiskModel, roots: rw.RootSet) -> np.ndarray:
    """The closed-form cascade in 60-digit mpmath: a reference that shares
    no arithmetic with the package's integer cascade. Returns the complex
    pi before its real part is taken."""
    m = model.max_drop
    fm = model.f(-m)
    alphas = [mp.mpc(z) for z in roots.expanded()]
    with mp.workdps(60):
        e = [1.0 + 0.0j]        # elementary symmetric e_0..e_(m-1)
        for z in alphas:
            e.append(0.0 + 0.0j)
            for j in range(len(e) - 1, 0, -1):
                e[j] += z * e[j - 1]
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
        return np.array([complex(t * dp) for t in tilde])


def complex_refined_solve(A: np.ndarray, b: np.ndarray,
                          entries: list) -> tuple:
    """The linear route as it ran before the real form, on complex_system's
    (matrix, rhs, entries): complex GEPP on the equilibrated matrix and
    refinement against complex exact-input residuals (four integer
    products per entry), x kept as the exact sum of the complex double
    corrections. Returns the real part of the solution and the residual of
    that real part, both as the package reports them."""
    rowmax = np.max(np.abs(A), axis=1)
    As = A / rowmax[:, None]
    colmax = np.max(np.abs(As), axis=0)
    lu = As / colmax[None, :]
    n = len(b)
    perm = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        lu[[k, p]] = lu[[p, k]]
        perm[[k, p]] = perm[[p, k]]
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])

    def solve(rhs):
        x = (rhs / rowmax)[perm].astype(complex)
        for k in range(1, n):
            x[k] -= lu[k, :k] @ x[:k]
        for k in range(n - 1, -1, -1):
            x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
        return x / colmax

    def vector(v):
        ns, e = iv._over(np.concatenate([v.real, v.imag]))
        return ns[:n], ns[n:], e

    def add(u, v):
        (ur, ui, eu), (vr, vi, ev) = u, v
        e = max(eu, ev)
        return ([(p << e - eu) + (q << e - ev) for p, q in zip(ur, vr)],
                [(p << e - eu) + (q << e - ev) for p, q in zip(ui, vi)], e)

    tops = [max(max(er, ei) for _, er, _, ei in row) for row in entries]

    def residual(x):
        (xr, xi, ex), (br, bi, eb) = x, bx
        out = []
        for row, E, pr, pi in zip(entries, tops, br, bi):
            sr = si = 0
            for (mr, er, mi, ei), vr, vi in zip(row, xr, xi):
                sr += (mr * vr << E - er) - (mi * vi << E - ei)
                si += (mr * vi << E - er) + (mi * vr << E - ei)
            d = max(E + ex, eb)
            out.append(complex(
                iv._to_double((pr << d - eb) - (sr << d - E - ex), d),
                iv._to_double((pi << d - eb) - (si << d - E - ex), d)))
        return np.array(out)

    bx = vector(b)
    xs = vector(solve(b))
    for _ in range(3):
        xs = add(xs, vector(solve(residual(xs))))
    xr, _, ex = xs
    pi = np.array([iv._to_double(p, ex) for p in xr])
    return pi, float(np.max(np.abs(residual(vector(pi.astype(complex))))))


def quadratic_mean_row(model: rw.RiskModel) -> list:
    """The mean row as it was built before the running sums: one
    generator sum over j > i per column, over the same exact integers,
    each entry rounded on its own, as a one-entry row: (n, e) pairs."""
    m = model.max_drop
    fn, h = iv._over(model.f(-j) for j in range(1, m + 1))
    entries = [iv._rounded([sum((j - i) * fn[j - 1]
                                for j in range(i + 1, m + 1))], h)
               for i in range(m)]
    return [(ns[0], e) for ns, e in entries]


def complex_system(model: rw.RiskModel, roots: rw.RootSet) -> tuple:
    """The system as build_system assembled it before the real form: the
    paper's complex rows, those of conj(z) the exact conjugates of its
    twin's, and their doubles, those of conj(z) conjugated from its
    twin's. Returns (matrix, rhs, entries)."""
    m = model.max_drop
    N, g = iv._over(model.F(np.arange(-m, 0)).tolist())

    def doubles(row):
        return [complex(iv._to_double(mr, er), iv._to_double(mi, ei))
                for mr, er, mi, ei in row]

    rows, matrix, conj, done = [], [], [], {}
    for z, mult in zip(roots.roots, roots.multiplicities):
        twin = done.get((complex(z).conjugate(), mult))
        if twin is None:
            own = [[(mr, er, mi, ei) for mr, mi in zip(rs, is_)]
                   for (rs, er), (is_, ei)
                   in zip(*iv._root_rows(complex(z), mult, N, g))]
            own_d = [doubles(row) for row in own]
        else:
            own = [[(mr, er, -mi, ei) for mr, er, mi, ei in row]
                   for row in twin[0]]
            own_d = twin[1]
            conj += range(len(rows), len(rows) + mult)
        done[z, mult] = own, own_d
        rows += own
        matrix += own_d
    rows.append([(n, e, 0, 0) for n, e in quadratic_mean_row(model)])
    matrix = np.array(matrix + [doubles(rows[-1])])
    matrix[conj] = np.conj(matrix[conj]) + 0.0
    rhs = np.zeros(m, dtype=complex)
    rhs[m - 1] = model.drift_pos
    return matrix, rhs, rows


def complex_real_form(matrix: np.ndarray, rhs: np.ndarray,
                      entries: list) -> tuple:
    """The real form as solve_linear derived it from the complex system,
    by finding each non-real row's exact conjugate twin. Returns (A, b,
    rows, twins): the real doubles and right-hand side, each row's exact
    entries over one power of two as InitSystem stores them, and the
    (first, twin) index pairs."""
    A, b = matrix.real.copy(), rhs.real.copy()
    rows, twins, waiting = [], [], {}
    for k, (row, z) in enumerate(zip(entries, rhs)):
        mr, er, mi, ei = zip(*row)
        z = complex(z)
        real = not z.imag and not any(mi)
        first = None if real else waiting.get((mr, er, mi, ei, z))
        if first:
            j, mj, ej = first.pop()
            twins.append((j, k))
            rows.append(iv._align(zip(mj, ej)))
            A[k], b[k] = matrix[j].imag, rhs[j].imag
            continue
        if not real:
            waiting.setdefault((mr, er, tuple(-n for n in mi), ei,
                                z.conjugate()), []).append((k, mi, ei))
        rows.append(iv._align(zip(mr, er)))
    assert not any(waiting.values())
    return A, b, rows, twins


def paper_rows(sys_: rw.InitSystem) -> list:
    """The paper's complex rows read off the real form through its twins,
    each entry as (mr, er, mi, ei): row j of a twin pair (j, k) takes the
    real parts exact[j] and the imaginary parts exact[k], row k is its
    conjugate, and a real row has zero imaginary parts."""
    rows = [[(n, e, 0, 0) for n in ns] for ns, e in sys_.exact]
    for j, k in sys_.twins:
        (rs, er), (is_, ei) = sys_.exact[j], sys_.exact[k]
        rows[j] = [(mr, er, mi, ei) for mr, mi in zip(rs, is_)]
        rows[k] = [(mr, er, -mi, ei) for mr, er, mi, ei in rows[j]]
    return rows


def aligned(row: list) -> list:
    """A complex row of (mr, er, mi, ei) entries with its real parts and
    its imaginary parts each put over one power of two, as paper_rows
    reads the stored rows."""
    (rs, er), (is_, ei) = (iv._align((n, e) for n, e, *_ in row),
                           iv._align((n, e) for *_, n, e in row))
    return [(mr, er, mi, ei) for mr, mi in zip(rs, is_)]


def system_of_doubles(A, b, row_kinds: tuple,
                      twins: tuple = ()) -> rw.InitSystem:
    """A hand-made system whose exact rows are the doubles of A."""
    A = np.array(A, dtype=float)
    return rw.InitSystem(A=A, b=np.array(b, dtype=float),
                         row_kinds=row_kinds,
                         exact=tuple(map(iv._over, A.tolist())), twins=twins)


def mantissa_bits(n: int) -> int:
    """Bits of the odd part of n: the mantissa n / 2**e is held in."""
    return abs(n).bit_length() - (n & -n).bit_length() + 1 if n else 0


def numpy_vector(v: np.ndarray) -> tuple:
    """`_vector` as it read numpy scalars, through the np.all wrapper."""
    if not np.all(np.isfinite(v)):
        raise rw.NumericalError("linear solve produced a non-finite value")
    return iv._over(v)


def dyadic(n: int, e: int) -> Fraction:
    return Fraction(n) / Fraction(2) ** e


class TestBuildSystem:
    def test_example3_matrix_layout(self):
        # the double-root system: root row, derivative row, mean row
        p = 0.5
        model = make_example3(p)
        roots = rw.unit_disk_roots(model)
        sys_ = rw.build_system(model, roots)
        assert roots.roots[0].imag == 0.0
        a = roots.roots[0].real
        F, f = model.F, model.f
        expect = np.array([
            [F(-3) + a * F(-2) + a * a * F(-1),
             F(-3) * a + F(-2) * a * a,
             a * a * f(-3)],
            [F(-2) + 2 * a * F(-1),
             F(-3) + 2 * a * F(-2),
             2 * a * f(-3)],
            [f(-1) + 2 * f(-2) + 3 * f(-3),
             f(-2) + 2 * f(-3),
             f(-3)],
        ])
        np.testing.assert_allclose(sys_.A, expect, atol=1e-15)
        np.testing.assert_allclose(sys_.b, [0, 0, model.drift_pos], atol=0)
        assert sys_.twins == ()
        kinds = [k.kind for k in sys_.row_kinds]
        assert kinds == ["root", "derivative", "mean"]
        assert sys_.row_kinds[1].order == 1

    @pytest.mark.parametrize("case", ["example3", "triple_fake_root",
                                      "complex_double_pair", "random",
                                      "m70"])
    def test_exact_entries_match_entrywise_horner(self, case):
        if case == "example3":
            model = make_example3(0.5)
            cases = [(model, rw.unit_disk_roots(model))]
        elif case == "triple_fake_root":
            # rows n = 0..2 of one root carry the n! scaling
            cases = [(make_example2(), rw.RootSet(
                roots=(0.3 + 0j,), multiplicities=(3,),
                residuals=(0.0,)))]
        elif case == "complex_double_pair":
            # a non-real double root and its conjugate, in either order:
            # the derivative row of the first is a twin like its root row
            model = make_example4(5).build()
            assert model.max_drop == 5
            z = 0.3 + 0.4j
            cases = [(model, rw.RootSet(roots=zs, multiplicities=(2, 2),
                                        residuals=(0.0, 0.0)))
                     for zs in ((z, z.conjugate()), (z.conjugate(), z))]
            for _, roots in cases:
                sys_ = rw.build_system(model, roots)
                assert sys_.twins == ((0, 2), (1, 3))
                assert sys_.row_kinds[:4] == tuple(
                    rw.RowKind(kind, zz, n) for zz in roots.roots
                    for kind, n in (("root", 0), ("derivative", 1)))
        elif case == "random":
            rng = np.random.default_rng(2024)
            models = [random_admissible_model(rng) for _ in range(10)]
            cases = [(mo, rw.unit_disk_roots(mo)) for mo in models]
        else:
            model = poisson_geometric_model(5.0, 70)
            cases = [(model, rw.unit_disk_roots(model))]
        for model, roots in cases:
            sys_ = rw.build_system(model, roots)
            ref = horner_rows(model, roots)
            # the stored rows read through the twins: row j of a pair
            # against the real parts, row k against the imaginary parts
            entries = paper_rows(sys_)
            matrix, _ = _complex_form(sys_)
            with mp.workdps(40):
                for got_row, ref_row in zip(entries, ref, strict=True):
                    for (mr, er, mi, ei), want in zip(got_row, ref_row,
                                                      strict=True):
                        got = mp.mpc(mp.ldexp(mp.mpf(mr), -er),
                                     mp.ldexp(mp.mpf(mi), -ei))
                        assert abs(got - want) <= 1e-20 * abs(want)
            # each entry's mantissa, the odd part of its numerator over the
            # row's power of two, is held in at most 160 bits, and the
            # stored matrix is the rounding of the stored entries
            for (ns, e), drow in zip(sys_.exact, sys_.A, strict=True):
                for n, v in zip(ns, drow, strict=True):
                    assert mantissa_bits(n) <= 160
                    assert v == float(dyadic(n, e))
            if model.max_drop > 10:
                continue
            # against the exact entries: the stored entry is their rounding
            # to 160 bits and the stored matrix their correct rounding
            for row, drow, xrow in zip(entries, matrix,
                                       exact_rows(model, roots), strict=True):
                for (mr, er, mi, ei), v, (xr, xi) in zip(row, drow, xrow,
                                                         strict=True):
                    assert v == complex(float(xr), float(xi))
                    assert abs(dyadic(mr, er) - xr) <= abs(xr) * 2 ** -159
                    assert abs(dyadic(mi, ei) - xi) <= abs(xi) * 2 ** -159

    def test_matrix_is_the_bitwise_rounding_of_entries(self, ex1, ex2, ex3,
                                                       ex4):
        # the dump's complex form of the real form is each entry's own
        # rounding bit for bit, the sign of a zero included: the pure
        # imaginary pair makes zero imaginary parts in the row of -0.5j,
        # whose last column is (-0.5j)^2 F(-3)
        cases = [(s.model, s.roots) for s in (ex1, ex2, *ex3.values(),
                                               *ex4.values())]
        imaginary_pair = rw.RootSet(roots=(0.5j, -0.5j),
                                    multiplicities=(1, 1),
                                    residuals=(0.0, 0.0))
        cases.append((make_example3(0.5), imaginary_pair))
        rng = np.random.default_rng(7)
        for model in [make_example4(m).build() for m in range(11, 21)] + \
                [random_admissible_model(rng) for _ in range(10)]:
            cases.append((model, rw.unit_disk_roots(model)))
        for model, roots in cases:
            sys_ = rw.build_system(model, roots)
            want = np.array([[complex(iv._to_double(mr, er),
                                      iv._to_double(mi, ei))
                              for mr, er, mi, ei in row]
                             for row in paper_rows(sys_)])
            matrix, _ = _complex_form(sys_)
            assert matrix.dtype == want.dtype
            assert matrix.tobytes() == want.tobytes()
            if roots is imaginary_pair:
                assert matrix[1, 2].imag == 0.0
                assert not np.signbit(matrix[1, 2].imag)

    @pytest.mark.parametrize("model, zs, mults", [
        (make_example3(0.5), (0.3, 0.5j), (1, 1)),
        (make_example2(), (0.5j, -0.5j), (2, 1)),
    ], ids=["no_conjugate", "conjugate_of_other_multiplicity"])
    def test_root_without_its_conjugate_raises(self, model, zs, mults):
        # the real form needs each non-real root's conjugate, with the same
        # multiplicity, in the set
        lone = rw.RootSet(roots=zs, multiplicities=mults,
                          residuals=(0.0,) * len(zs))
        with pytest.raises(rw.NumericalError, match=r"root 0\.5j "):
            rw.build_system(model, lone)

    def test_real_form_bit_identical_to_complex_assembly(self, route_cases):
        # the stored real form is the one solve_linear derived from the
        # complex system, and the dump's complex form is that system
        case, cases = route_cases
        assert len(cases) == ROUTE_CASES[case]
        for model, roots in cases:
            sys_ = rw.build_system(model, roots)
            matrix, rhs, entries = complex_system(model, roots)
            A, b, rows, twins = complex_real_form(matrix, rhs, entries)
            dumped = _complex_form(sys_)
            for got, want in ((sys_.A, A), (sys_.b, b), (dumped[0], matrix),
                              (dumped[1], rhs)):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
            assert list(sys_.exact) == rows
            assert sys_.twins == tuple(twins)
            assert paper_rows(sys_) == [aligned(row) for row in entries]

    def test_root_row_does_not_depend_on_the_multiplicity(self,
                                                          route_cases):
        # the rows of a root with its series cut at mult terms are the
        # first rows of a longer cut: row 0 of a simple root is row 0 of
        # the same root taken as double or triple, bit for bit
        case, cases = route_cases
        assert len(cases) == ROUTE_CASES[case]
        for model, roots in cases:
            m = model.max_drop
            N, g = iv._over(model.F(np.arange(-m, 0)).tolist())
            for z in roots.roots:
                re1, im1 = iv._root_rows(complex(z), 1, N, g)
                re2, im2 = iv._root_rows(complex(z), 2, N, g)
                re3, im3 = iv._root_rows(complex(z), 3, N, g)
                assert (len(re1), len(re2), len(re3)) == (1, 2, 3)
                assert (re2[:1], im2[:1]) == (re1, im1)
                assert (re3[:2], im3[:2]) == (re2, im2)

    def test_net_profit_guard(self):
        model = rw.build_model(rw.Pmf.point(1), rw.Pmf.point(1))
        none = rw.RootSet(roots=(), multiplicities=(), residuals=())
        with pytest.raises(rw.NetProfitError):
            rw.build_system(model, none)

    def test_root_set_of_the_wrong_multiplicity(self, ex2):
        # Example 2 has m = 4 and needs three roots; one is dropped
        short = rw.RootSet(roots=ex2.roots.roots[:-1],
                           multiplicities=ex2.roots.multiplicities[:-1],
                           residuals=ex2.roots.residuals[:-1])
        with pytest.raises(rw.ModelError,
                           match="multiplicity 2, expected 3"):
            rw.build_system(ex2.model, short)

    def test_unit_drop_reduces_to_mean_row(self):
        # one unknown: pi_0 = E(c*theta - X) / f(-1)
        model = rw.build_model(rw.Pmf.from_weights(0, [0.5, 0.2, 0.3]),
                               rw.Pmf.point(1))
        roots = rw.unit_disk_roots(model)
        init = rw.solve_linear(rw.build_system(model, roots))
        assert init.pi[0] == pytest.approx(model.drift_pos / model.f(-1),
                                           abs=1e-14)
        # with theta == 1 and c = 1 this is (1 - E X) / P(X = 0)
        assert init.pi[0] == pytest.approx((1 - 0.8) / 0.5, abs=1e-14)

    def test_example2_first_survival_value(self, ex2):
        assert math.fsum(ex2.init.pi[:1]) == pytest.approx(0.697233, abs=1e-6)

    def test_root_equation_residual_at_roots(self, ex1, ex2, ex4):
        # sum_i pi_i sum_{j>i} (1 - alpha^(i-j)) f(-j) vanishes at each root
        for solved in (ex1, ex2, ex4[10], ex4[15]):
            m = solved.model.max_drop
            f = solved.model.f
            for a in solved.roots.expanded():
                val = sum(solved.init.pi[i]
                          * sum((1.0 - a ** (i - j)) * f(-j)
                                for j in range(i + 1, m + 1))
                          for i in range(m))
                assert abs(val) <= 1e-9


class TestSolveLinear:
    def test_example3_point_solution(self):
        for p in (0.1, 0.5, 0.9):
            model = make_example3(p)
            init = rw.solve_linear(
                rw.build_system(model, rw.unit_disk_roots(model)))
            np.testing.assert_allclose(init.pi, [1.0, 0.0, 0.0], atol=1e-9)

    def test_example1_pi0(self, ex1):
        assert ex1.init.pi[0] == pytest.approx(2 - math.sqrt(2), abs=1e-12)

    def test_identity_system(self):
        sys_ = system_of_doubles(np.eye(3), [1.0, 0, 0],
                                 (rw.RowKind("mean"),) * 3)
        init = rw.solve_linear(sys_)
        np.testing.assert_allclose(init.pi, [1.0, 0, 0], atol=0)
        assert init.residual == 0.0

    def test_double_matrix_gives_the_exact_entries(self):
        # a system made from doubles alone (the test helper) refines
        # against those doubles; its one conjugate pair is the paper's rows
        # (0.1 + 0.3j, 2^-1074 + 1e300 j) and their conjugates
        A = np.array([[0.1, 2.0 ** -1074], [0.3, 1e300]])
        sys_ = system_of_doubles(A, [1.0, 0], (rw.RowKind("mean"),) * 2,
                                 twins=((0, 1),))
        for (ns, e), drow in zip(sys_.exact, A):
            for n, v in zip(ns, drow):
                assert dyadic(n, e) == Fraction(v)
        want = np.array([[0.1 + 0.3j, complex(2.0 ** -1074, 1e300)],
                         [0.1 - 0.3j, complex(2.0 ** -1074, -1e300)]])
        assert _complex_form(sys_)[0].tobytes() == want.tobytes()
        for row, drow in zip(paper_rows(sys_), want):
            for (mr, er, mi, ei), v in zip(row, drow):
                assert dyadic(mr, er) == Fraction(v.real)
                assert dyadic(mi, ei) == Fraction(v.imag)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_solve_raises(self):
        # rhs / rowmax overflows: a typed error, not a failed conversion
        sys_ = system_of_doubles([[1e-300]], [1e300], (rw.RowKind("mean"),))
        with pytest.raises(rw.NumericalError, match="non-finite"):
            rw.solve_linear(sys_)

    def test_residual_small_on_goldens(self, ex1, ex2, ex3, ex4):
        for solved in (ex1, ex2, *ex3.values(), *ex4.values()):
            assert solved.init.residual <= 1e-10

    def test_duplicate_root_rows_are_singular(self):
        model = make_example3(0.5)
        a = complex(example3_double_root(0.5))
        fake = rw.RootSet(roots=(a, a), multiplicities=(1, 1),
                          residuals=(0.0, 0.0))
        sys_ = rw.build_system(model, fake)
        with pytest.raises(rw.SystemSingularError) as exc:
            rw.solve_linear(sys_)
        assert exc.value.row_kinds == list(sys_.row_kinds)

    def test_duplicate_conjugate_pair_rows_are_singular(self):
        # one conjugate pair of Example 4 (cap 10) in place of another:
        # the real form holds two equal pairs of rows
        model = make_example4(10).build()
        zs = list(rw.unit_disk_roots(model).roots)
        k = [i for i, z in enumerate(zs) if z.imag < 0][:2]
        zs[k[1]:k[1] + 2] = zs[k[0]:k[0] + 2]
        fake = rw.RootSet(roots=tuple(zs), multiplicities=(1,) * len(zs),
                          residuals=(0.0,) * len(zs))
        sys_ = rw.build_system(model, fake)
        with pytest.raises(rw.SystemSingularError) as exc:
            rw.solve_linear(sys_)
        assert exc.value.row_kinds == list(sys_.row_kinds)

    @pytest.mark.parametrize("matrix, message", [
        ([[0, 0], [1, 1]], r"row 0 \(root\(0.5\)\) of the system is zero"),
        ([[1, 0], [2, 0]], "column 1 of the system is zero"),
    ], ids=["zero_row", "zero_column"])
    def test_zero_row_or_column_is_singular(self, matrix, message):
        kinds = (rw.RowKind("root", 0.5), rw.RowKind("mean"))
        sys_ = system_of_doubles(matrix, [0, 1.0], kinds)
        with pytest.raises(rw.SystemSingularError, match=message) as exc:
            rw.solve_linear(sys_)
        assert exc.value.row_kinds == list(kinds)

    def test_near_singular_system_raises(self):
        # not exactly singular, so LAPACK inverts it; the inverse's row
        # sums, about 2e15, are past 1 / SINGULAR_TOL
        kinds = (rw.RowKind("root", 0.5), rw.RowKind("mean"))
        sys_ = system_of_doubles([[1, 1], [1, 1 + 1e-15]], [0, 1.0], kinds)
        with pytest.raises(rw.SystemSingularError) as exc:
            rw.solve_linear(sys_)
        assert exc.value.row_kinds == list(kinds)

    def test_bit_identical_to_complex_refinement(self, route_cases):
        # the real form and the complex solve refine to the same doubles,
        # and report the same residual
        case, cases = route_cases
        for model, roots in cases:
            sys_ = rw.build_system(model, roots)
            init = rw.solve_linear(sys_)
            pi, residual = complex_refined_solve(
                *complex_system(model, roots))
            assert np.array_equal(init.pi, pi)
            assert init.residual == residual
        multiple = sum(not roots.all_simple for _, roots in cases)
        assert (len(cases), multiple) == {
            "goldens": (7, 3), "example4_caps": (11, 0),
            "poisson_geometric": (3, 0), "random": (220, 0)}[case]

    def test_bit_identical_to_quadratic_mean_row(self, route_cases,
                                                 monkeypatch):
        # the system, pi and the residual are those of the O(m^2) mean row
        # and of the refinement reading numpy scalars
        case, cases = route_cases
        assert len(cases) == ROUTE_CASES[case]
        got = []
        for model, roots in cases:
            sys_ = rw.build_system(model, roots)
            mean = quadratic_mean_row(model)
            assert sys_.exact[-1] == iv._align(mean)
            ref = rw.InitSystem(
                A=np.vstack([sys_.A[:-1],
                             [iv._to_double(n, e) for n, e in mean]]),
                b=sys_.b, row_kinds=sys_.row_kinds,
                exact=sys_.exact[:-1] + (iv._align(mean),), twins=sys_.twins)
            assert sys_.A.tobytes() == ref.A.tobytes()
            got.append((ref, rw.solve_linear(sys_)))
        monkeypatch.setattr(iv, "_vector", numpy_vector)
        for ref, init in got:
            want = rw.solve_linear(ref)
            assert init.pi.tobytes() == want.pi.tobytes()
            assert np.float64(init.residual).tobytes() == \
                np.float64(want.residual).tobytes()

    @staticmethod
    def counted_residual(monkeypatch) -> list:
        """Wrap iv._residual; the list holds the x of every call."""
        seen, residual = [], iv._residual

        def counted(rows, b, x):
            seen.append(x)
            return residual(rows, b, x)

        monkeypatch.setattr(iv, "_residual", counted)
        return seen

    def test_two_exact_residuals_on_goldens(self, ex1, ex2, ex3, ex4,
                                            monkeypatch):
        # the first correction moves pi, the second leaves it where it is
        systems = [rw.build_system(s.model, s.roots)
                   for s in (ex1, ex2, *ex3.values(), *ex4.values())]
        for cap in range(10, 21):
            model = make_example4(cap).build()
            systems.append(rw.build_system(model, rw.unit_disk_roots(model)))
        seen = self.counted_residual(monkeypatch)
        for sys_ in systems:
            seen.clear()
            rw.solve_linear(sys_)
            assert len(seen) == 2

    def test_residual_is_the_last_steps(self, route_cases, monkeypatch):
        # at most _REFINE_STEPS exact residuals, the last of them at the
        # returned pi: the reported residual is _residual_max's, bit for bit
        case, cases = route_cases
        systems = [rw.build_system(model, roots) for model, roots in cases]
        seen = self.counted_residual(monkeypatch)
        for sys_ in systems:
            seen.clear()
            init = rw.solve_linear(sys_)
            assert 1 <= len(seen) <= iv._REFINE_STEPS == 4
            assert seen[-1] == iv._vector(init.pi)
            assert np.float64(init.residual).tobytes() == \
                np.float64(iv._residual_max(sys_, init.pi)).tobytes()

    def test_cap_returns_the_last_residuals_pi(self, ex4, monkeypatch):
        # a residual that flips sign each step never lets pi settle: the
        # solve stops at the fourth exact residual and returns the pi it
        # was taken at, with that residual paired over the twins; the k-th
        # is A times (-1)^k k 1e-6 in every component, so pi stays >= 0
        sys_ = rw.build_system(ex4[10].model, ex4[10].roots)
        assert sys_.twins
        seen = []

        def flipping(k: int) -> np.ndarray:
            return (-1.0) ** k * 1e-6 * k * sys_.A.sum(axis=1)

        def residual(rows, b, x):
            seen.append(x)
            return flipping(len(seen))

        monkeypatch.setattr(iv, "_residual", residual)
        init = rw.solve_linear(sys_)
        assert len(seen) == 4 and len(set(map(str, seen))) == 4
        assert iv._vector(init.pi) == seen[-1]
        assert init.residual == iv._paired_max(sys_, flipping(4))


class TestClosedForm:
    def test_example1_exact(self, ex1):
        closed = rw.solve_closed_form(ex1.model, ex1.roots)
        assert closed.pi[0] == pytest.approx(2 - math.sqrt(2), abs=1e-14)

    def test_example2_cascade_sign_fix(self, ex2):
        # phi(2) and phi(3) pin the alternating-sign pattern of the cascade
        closed = rw.solve_closed_form(ex2.model, ex2.roots)
        phis = np.cumsum(closed.pi)
        assert phis[0] == pytest.approx(0.697233, abs=1e-6)
        assert phis[1] == pytest.approx(0.802783, abs=1e-6)
        assert phis[2] == pytest.approx(0.871536, abs=1e-6)

    def test_unit_drop_empty_products(self):
        model = rw.build_model(rw.Pmf.from_weights(0, [0.5, 0.2, 0.3]),
                               rw.Pmf.point(1))
        roots = rw.unit_disk_roots(model)
        closed = rw.solve_closed_form(model, roots)
        assert closed.pi[0] == pytest.approx(model.drift_pos / model.f(-1),
                                             abs=1e-14)

    def test_rejects_multiple_roots(self):
        model = make_example3(0.5)
        roots = rw.unit_disk_roots(model)
        with pytest.raises(rw.NumericalError):
            rw.solve_closed_form(model, roots)

    def test_agreement_with_linear_route(self, ex1, ex2, ex4):
        for solved in (ex1, ex2, ex4[10], ex4[15]):
            closed = rw.solve_closed_form(solved.model, solved.roots)
            assert float(np.max(np.abs(closed.pi - solved.init.pi))) <= 1e-10

    @pytest.mark.parametrize("case", ["goldens", "example4_caps",
                                      "poisson_geometric", "random"])
    def test_bit_identical_to_mpmath_cascade(self, case, ex1, ex2):
        # the exact cascade rounds each pi once; the 60-digit reference
        # lands on the same doubles, and so on the same exact residual
        if case == "goldens":
            models = [ex1.model, ex2.model]
        elif case == "example4_caps":
            models = [rw.ModelConfig(
                claim_dist=rw.ParametricDist.poisson(1.0),
                interarrival_dist=rw.ParametricDist.poisson(1.01),
                truncate_m=cap).build() for cap in range(10, 21)]
        elif case == "poisson_geometric":
            models = [poisson_geometric_model(6.0, m) for m in (30, 70, 80)]
        else:
            rng = np.random.default_rng(7)
            models = [random_admissible_model(rng, m_max=12)
                      for _ in range(220)]
        checked = 0
        for model in models:
            roots = rw.unit_disk_roots(model)
            if not roots.all_simple:
                continue
            sys_ = rw.build_system(model, roots)
            closed = rw.solve_closed_form(model, roots, sys_)
            ref = mp_closed_form(model, roots)
            assert np.array_equal(closed.pi, ref.real)
            assert closed.residual == iv._residual_max(sys_, ref.real)
            checked += 1
        assert checked >= {"goldens": 2, "example4_caps": 11,
                           "poisson_geometric": 3, "random": 200}[case]

    def test_rejects_roots_off_conjugate_pairs(self, ex2):
        # the lower root of ex2's pair moved by one ulp: not a conjugate
        # pair, so there is no real factor to form, and build_system says so
        zs = list(ex2.roots.roots)
        k = next(i for i, z in enumerate(zs) if z.imag < 0)
        zs[k] = complex(zs[k].real, np.nextafter(zs[k].imag, 0.0))
        bent = rw.RootSet(roots=tuple(zs),
                          multiplicities=ex2.roots.multiplicities,
                          residuals=ex2.roots.residuals)
        with pytest.raises(rw.NumericalError, match="no conjugate"):
            rw.solve_closed_form(ex2.model, bent)

    def test_rejects_a_short_root_set(self, ex2):
        # Example 2 without its real root: a conjugate-closed set of total
        # multiplicity 2 where 3 are needed, refused by build_system before
        # the cascade reads past its coefficients
        pair = [i for i, z in enumerate(ex2.roots.roots) if z.imag]
        assert len(pair) == 2
        short = rw.RootSet(
            roots=tuple(ex2.roots.roots[i] for i in pair),
            multiplicities=tuple(ex2.roots.multiplicities[i] for i in pair),
            residuals=tuple(ex2.roots.residuals[i] for i in pair))
        with pytest.raises(rw.ModelError,
                           match="multiplicity 2, expected 3"):
            rw.solve_closed_form(ex2.model, short)

    @pytest.mark.parametrize("other", ["conjugate_pair_only",
                                       "real_root_moved"])
    @pytest.mark.parametrize("route", [rw.solve_closed_form,
                                       rw.determinant_identity],
                             ids=["closed_form", "determinant_identity"])
    def test_rejects_a_system_of_other_roots(self, ex2, route, other):
        # Example 2's system with a root set it was not built from: its
        # conjugate pair alone (the cascade read past its coefficients and
        # the identity gave a wrong pair), or its real root one ulp off
        full = rw.build_system(ex2.model, ex2.roots)
        zs = ex2.roots.roots
        if other == "conjugate_pair_only":
            keep = [i for i, z in enumerate(zs) if z.imag]
            zs = tuple(zs[i] for i in keep)
        else:
            keep = range(len(zs))
            zs = tuple(complex(np.nextafter(z.real, 1.0), 0.0)
                       if not z.imag else z for z in zs)
            assert zs != ex2.roots.roots
        roots = rw.RootSet(
            roots=zs,
            multiplicities=tuple(ex2.roots.multiplicities[i] for i in keep),
            residuals=tuple(ex2.roots.residuals[i] for i in keep))
        with pytest.raises(rw.ModelError, match="other roots"):
            route(ex2.model, roots, full)
        # the system of the very roots passes
        route(ex2.model, ex2.roots, full)

    def test_residual_is_the_linear_routes_where_pi_agrees(self,
                                                           route_cases):
        # both routes report the one exact residual: where the closed-form
        # pi is solve_linear's bit for bit, so is the residual
        case, cases = route_cases
        same = 0
        for model, roots in cases:
            if not roots.all_simple:
                continue
            sys_ = rw.build_system(model, roots)
            init = rw.solve_linear(sys_)
            closed = rw.solve_closed_form(model, roots, sys_)
            if closed.pi.tobytes() == init.pi.tobytes():
                assert np.float64(closed.residual).tobytes() == \
                    np.float64(init.residual).tobytes()
                same += 1
        # measured 3, 6, 0 and 71 such models
        assert same >= {"goldens": 2, "example4_caps": 3,
                        "poisson_geometric": 0, "random": 50}[case]

    def test_overflow_is_a_numerical_error(self):
        # f(-2) = 1e-310 and a hand-built root 0.5: pi_0 = 2e310 leaves
        # the double range
        model = rw.build_model(rw.Pmf.from_weights(0, [1e-310, 1 - 1e-310]),
                               rw.Pmf.point(2))
        fake = rw.RootSet(roots=(0.5 + 0j,), multiplicities=(1,),
                          residuals=(0.0,))
        with pytest.raises(rw.NumericalError, match="overflow"):
            rw.solve_closed_form(model, fake)

    def test_agreement_at_m80(self):
        # refinement against exact-input residuals holds for every m; the
        # gap measures 1.1e-16
        model = poisson_geometric_model(6.0, 80)
        roots = rw.unit_disk_roots(model)
        init = rw.solve_linear(rw.build_system(model, roots))
        closed = rw.solve_closed_form(model, roots)
        assert model.max_drop == 80
        assert float(np.max(np.abs(closed.pi - init.pi))) <= 1e-14


class TestDeterminantIdentity:
    def test_unit_drop_degenerate(self):
        model = rw.build_model(rw.Pmf.from_weights(0, [0.5, 0.2, 0.3]),
                               rw.Pmf.point(1))
        lhs, rhs = rw.determinant_identity(model, rw.unit_disk_roots(model))
        assert lhs == pytest.approx(model.f(-1) + 0j, abs=1e-15)
        assert rhs == pytest.approx(lhs, abs=1e-15)

    def test_example1_hand_value(self, ex1):
        lhs, rhs = rw.determinant_identity(ex1.model, ex1.roots)
        assert lhs == pytest.approx(math.sqrt(2) / 16, abs=1e-12)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10

    def test_example2(self, ex2):
        lhs, rhs = rw.determinant_identity(ex2.model, ex2.roots)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-8

    def test_random_models(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            model, roots = random_simple_root_model(rng)
            lhs, rhs = rw.determinant_identity(model, roots)
            assert abs(lhs - rhs) / max(abs(rhs), 1e-300) <= 1e-8
