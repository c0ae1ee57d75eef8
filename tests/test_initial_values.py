"""Initial-value system assembly and its two solution routes."""

import math

import mpmath as mp
import numpy as np
import pytest

import ruinwalk as rw

from conftest import (example3_double_root, make_example1, make_example2,
                      make_example3, random_admissible_model,
                      random_simple_root_model)


def poisson_geometric_model(lam: float, cap: int) -> rw.RiskModel:
    """Poisson(lam) claims against geometric(0.05) interarrival times
    capped at cap: m = cap with f(-m) far from tiny, so large systems
    stay solvable."""
    return rw.ModelConfig(claim_dist=rw.ParametricDist.poisson(lam),
                          interarrival_dist=rw.ParametricDist.geometric(0.05),
                          truncate_m=cap).build()


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


class TestBuildSystem:
    def test_example3_matrix_layout(self):
        # the double-root system: root row, derivative row, mean row
        p = 0.5
        model = make_example3(p)
        roots = rw.unit_disk_roots(model)
        sys_ = rw.build_system(model, roots)
        a = roots.roots[0]
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
        ], dtype=complex)
        np.testing.assert_allclose(sys_.matrix, expect, atol=1e-15)
        np.testing.assert_allclose(sys_.rhs, [0, 0, model.drift_pos],
                                   atol=0)
        kinds = [k.kind for k in sys_.row_kinds]
        assert kinds == ["root", "derivative", "mean"]
        assert sys_.row_kinds[1].order == 1

    @pytest.mark.parametrize("case", ["example3", "triple_fake_root",
                                      "random", "m70"])
    def test_exact_entries_match_entrywise_horner(self, case):
        if case == "example3":
            model = make_example3(0.5)
            cases = [(model, rw.unit_disk_roots(model))]
        elif case == "triple_fake_root":
            # rows n = 0..2 of one root carry the n! scaling
            cases = [(make_example2(), rw.RootSet(
                roots=(0.3 + 0j,), multiplicities=(3,), m=4,
                residuals=(0.0,)))]
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
            with mp.workdps(40):
                for got_row, ref_row in zip(sys_.matrix_mp, ref, strict=True):
                    for got, want in zip(got_row, ref_row, strict=True):
                        assert abs(got - want) <= 1e-20 * abs(want)
            # the stored matrix is the rounding of the exact entries
            np.testing.assert_array_equal(
                sys_.matrix,
                [[complex(v) for v in row] for row in sys_.matrix_mp])

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
        sys_ = rw.InitSystem(matrix=np.eye(3, dtype=complex),
                             rhs=np.array([1.0, 0, 0], dtype=complex),
                             row_kinds=(rw.RowKind("mean"),) * 3)
        init = rw.solve_linear(sys_)
        np.testing.assert_allclose(init.pi, [1.0, 0, 0], atol=0)

    def test_residual_small_on_goldens(self, ex1, ex2, ex3, ex4):
        for solved in (ex1, ex2, *ex3.values(), *ex4.values()):
            assert solved.init.residual <= 1e-10
            assert solved.init.imag_dust <= 1e-9

    def test_duplicate_root_rows_are_singular(self):
        model = make_example3(0.5)
        a = complex(example3_double_root(0.5))
        fake = rw.RootSet(roots=(a, a), multiplicities=(1, 1), m=3,
                          residuals=(0.0, 0.0))
        with pytest.raises(rw.SystemSingularError) as exc:
            rw.solve_linear(rw.build_system(model, fake))
        assert any(k.kind == "root" for k in exc.value.row_kinds)


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

    def test_agreement_at_m80(self):
        # refinement against exact-input residuals holds for every m
        model = poisson_geometric_model(6.0, 80)
        roots = rw.unit_disk_roots(model)
        init = rw.solve_linear(rw.build_system(model, roots))
        closed = rw.solve_closed_form(model, roots)
        assert model.max_drop == 80
        assert float(np.max(np.abs(closed.pi - init.pi))) <= 1e-12


class TestElementarySymmetric:
    def test_single(self):
        e = rw.elementary_symmetric([2.0 + 0j])
        np.testing.assert_allclose(e, [1, 2])

    def test_pair_hand_check(self):
        e = rw.elementary_symmetric([2.0 + 0j, 3.0 + 0j])
        np.testing.assert_allclose(e, [1, 5, 6])

    def test_against_polynomial_expansion(self, ex2):
        zs = ex2.roots.expanded()
        e = rw.elementary_symmetric(zs)
        assert e[1] == pytest.approx(-0.597694 + 0j, abs=5e-6)
        # prod (s - a_j) expanded: coefficient of s^(n-k) is (-1)^k e_k
        coeffs = np.poly(zs)         # descending, leading 1
        for k in range(len(zs) + 1):
            assert coeffs[k] == pytest.approx((-1) ** k * e[k], abs=1e-12)


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
