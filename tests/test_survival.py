"""Survival tables: recurrence, finite horizon, generating function, bounds."""

import math

import numpy as np
import pytest

import ruinwalk as rw

from conftest import (make_example1, make_example2, make_example3,
                      make_example4, poisson_sf_series,
                      random_admissible_model, solve_pipeline)

SQ2 = math.sqrt(2.0)


def recurrence_residual_loop(model, phi) -> float:
    """Reference residual: max over u of |phi(u) - sum_{i>=1} phi(i) f(u-i)|
    by one exactly rounded sum per u."""
    m = model.max_drop
    worst = 0.0
    for u in range(len(phi) - m):
        lo = max(1, u - model.step.support_max)
        s = math.fsum(phi[i] * model.f(u - i) for i in range(lo, u + m + 1))
        worst = max(worst, abs(phi[u] - s))
    return worst


class TestUltimate:
    def test_example1_closed_forms(self, ex1):
        expect = [SQ2 / 4, 2 - SQ2, 2 * (SQ2 - 1), 8 - 5 * SQ2]
        for u, e in enumerate(expect):
            assert ex1.table.phis[u] == pytest.approx(e, abs=1e-12)

    def test_example1_recurrence_steps_by_hand(self, ex1):
        phi = ex1.table.phis
        # phi(u) = 4 (phi(u-2) - sum_{i<u} phi(i) f(u-2-i)) for this model
        for u in (4, 5, 6):
            s = sum(phi[i] * ex1.model.f(u - 2 - i) for i in range(1, u))
            assert phi[u] == pytest.approx(4.0 * (phi[u - 2] - s), abs=1e-9)

    def test_example2_recurrence_coefficients_exact(self, ex2):
        # all four step masses are dyadic rationals, so equality is exact
        f = ex2.model.f
        assert f(-1) == 65 / 256
        assert f(-2) == 33 / 128
        assert f(-3) == 9 / 64
        assert f(-4) == 1 / 32
        phi = ex2.table.phis
        val = 32 * (phi[0] - phi[1] * 65 / 256 - phi[2] * 33 / 128
                    - phi[3] * 9 / 64)
        assert phi[4] == pytest.approx(val, abs=1e-12)
        assert phi[4] == pytest.approx(0.916321, abs=1e-6)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_example3_survival_is_one_above_zero(self, p):
        solved = solve_pipeline(make_example3(p), 20)
        assert solved.table.phis[0] == pytest.approx(
            (1 - p + math.sqrt(1 - p)) / 2, abs=1e-10)
        np.testing.assert_allclose(solved.table.phis[1:], 1.0, atol=1e-9)

    def test_monotone_bounded_residual(self, ex1, ex2, ex3, ex4):
        for solved in (ex1, ex2, *ex3.values(), *ex4.values()):
            phis = solved.table.phis
            assert np.all(phis >= -1e-9) and np.all(phis <= 1 + 1e-9)
            assert np.all(np.diff(phis) >= -1e-9)
            assert solved.table.residual <= 1e-9

    def test_limit_toward_one(self, ex1):
        assert ex1.table.phis[50] > 0.99
        assert np.all(np.diff(ex1.table.phis[:20]) > 0)

    def test_fallback_is_flagged_and_stable(self, ex1):
        assert any("finite-horizon" in w for w in ex1.table.warnings)
        # the recurrence alone blows up well before u = 50: force it
        with pytest.raises(rw.NumericalBlowupError) as exc:
            rw.ultimate_survival(ex1.model, ex1.init, 80, ex1.roots,
                                 error_budget=1.0)
        assert exc.value.u is not None

    def test_blowup_reports_first_failing_u(self, ex1):
        with pytest.raises(rw.NumericalBlowupError) as exc:
            rw.ultimate_survival(ex1.model, ex1.init, 80, ex1.roots,
                                 error_budget=1.0)
        u = exc.value.u
        assert f"phi({u})" in str(exc.value)
        # every u before the reported one passes the same checks
        table = rw.ultimate_survival(ex1.model, ex1.init, u - 1, ex1.roots,
                                     error_budget=1.0)
        assert table.u_max == u - 1

    def test_pi_partial_sums_match_recurrence_route(self, ex1, ex2, ex4):
        # phi(m) from the cumulative pi equals the recurrence value
        for solved in (ex1, ex2, ex4[10]):
            m = solved.model.max_drop
            phi = solved.table.phis
            if len(phi) <= m:
                continue
            f = solved.model.f
            s = sum(phi[i] * f(-i) for i in range(1, m))
            rec = (phi[0] - s) / f(-m)
            assert rec == pytest.approx(math.fsum(solved.init.pi), abs=1e-10)

    def test_net_profit_guard(self):
        model = rw.build_model(rw.Pmf.point(1), rw.Pmf.point(1))
        init = rw.InitialValues(pi=np.array([1.0]), drift_pos=0.0,
                                residual=0.0)
        with pytest.raises(rw.NetProfitError):
            rw.ultimate_survival(model, init, 5)


class TestRecurrenceResidual:
    @pytest.mark.parametrize("make", [
        make_example1, make_example2, lambda: make_example3(0.5),
        lambda: random_admissible_model(np.random.default_rng(1)),
        lambda: random_admissible_model(np.random.default_rng(4)),
    ], ids=["ex1", "ex2", "ex3_p05", "random1", "random4"])
    def test_matches_loop_reference(self, make):
        model = make()
        table = solve_pipeline(model, 2000).table
        ref = recurrence_residual_loop(model, table.phis)
        assert table.residual == pytest.approx(ref, abs=1e-15)


class TestFiniteHorizon:
    def test_single_step_is_cdf(self, ex1):
        tab = rw.finite_survival(ex1.model, 6, 1)
        for u in range(7):
            assert tab.phis[u] == pytest.approx(ex1.model.F(u - 1), abs=0)

    def test_example1_two_steps_by_enumeration(self, ex1):
        # 16 equally likely two-step paths; survival needs both partial
        # sums below u = 1
        steps = [-2, -1, 0, 1]
        count = sum(1 for a in steps for b in steps if a < 1 and a + b < 1)
        expect = count / 16.0
        assert expect == 0.6875
        tab = rw.finite_survival(ex1.model, 1, 2)
        assert tab.phis[1] == pytest.approx(expect, abs=1e-15)
        F = ex1.model.F
        assert tab.phis[1] == pytest.approx(
            0.25 * (F(2) + F(1) + F(0)), abs=1e-15)

    def test_converges_to_ultimate(self, ex1):
        tab = rw.finite_survival(ex1.model, 1, 200)
        assert tab.phis[1] == pytest.approx(2 - SQ2, abs=1e-8)

    def test_monotonicity_in_u_and_T(self, ex2):
        t1 = rw.finite_survival(ex2.model, 10, 5).phis
        t2 = rw.finite_survival(ex2.model, 10, 10).phis
        assert np.all(np.diff(t1) >= -1e-12)
        assert np.all(t2 <= t1 + 1e-12)
        assert np.all(t2 + 1e-12 >= ex2.table.phis[:11])

    def test_grid_matches_single_calls(self, ex1):
        rows = {t: lvl for t, lvl in rw.finite_grid(ex1.model, 5, 4)}
        for t in (1, 2, 3, 4):
            np.testing.assert_allclose(
                rows[t], rw.finite_survival(ex1.model, 5, t).phis, atol=0)

    @pytest.mark.parametrize("make", [
        make_example2, lambda: make_example4(10).build(),
    ], ids=["ex2", "ex4_cap10"])
    def test_grid_levels_match_single_horizons(self, make):
        model = make()
        u_max, t_max = 10, 60
        grid = list(rw.finite_grid(model, u_max, t_max))
        assert [t for t, _ in grid] == list(range(1, t_max + 1))
        for t, lvl in grid:
            assert len(lvl) == u_max + 1
            # an owned array: a kept level must not pin the wide DP level
            assert lvl.base is None
            np.testing.assert_allclose(
                lvl, rw.finite_survival(model, u_max, t).phis, rtol=0,
                atol=1e-15)

    def test_domain_errors(self, ex1):
        with pytest.raises(rw.ModelError):
            rw.finite_survival(ex1.model, 5, 0)
        with pytest.raises(rw.ModelError):
            rw.finite_survival(ex1.model, -1, 3)


class TestXiCoefficients:
    def test_example1_rational_form(self, ex1):
        # Xi(s) = (2 - sqrt2 + sqrt2 s) / (1 + s - 3 s^2 + s^3)
        xs = rw.xi_coeffs(ex1.model, ex1.init, 3, ex1.roots)
        np.testing.assert_allclose(
            xs, [2 - SQ2, 2 * (SQ2 - 1), 8 - 5 * SQ2], atol=1e-12)
        poly = rw.char_poly(ex1.model)
        np.testing.assert_allclose(4.0 * poly.coeffs, [1, 1, -3, 1], atol=0)

    def test_example2_printed_rational_form(self, ex2):
        # the compact printed form scales numerator and denominator by
        # 2 (1 - s/2); check both against it
        model, init = ex2.model, ex2.init
        m = model.max_drop
        N = np.array([math.fsum(init.pi[i] * model.F(-m + t - i)
                                for i in range(t + 1)) for t in range(m)])
        scaled_num = np.concatenate([2 * N, [0.0]]) - np.concatenate(
            [[0.0], N])
        np.testing.assert_allclose(
            scaled_num, [0.0435771, 0.224482, 0.516629, 0.750506, -0.535194],
            atol=5e-7)
        assert scaled_num[4] == pytest.approx(-ex2.table.phis[0], abs=1e-12)
        D = rw.char_poly(model).coeffs[: m + 2]
        scaled_den = 2 * D - np.concatenate([[0.0], D[:-1]])
        np.testing.assert_allclose(
            scaled_den, [0.0625, 0.25, 0.375, 0.25, -1.9375, 1.0][: m + 2],
            atol=1e-12)
        assert rw.xi_coeffs(model, init, 1, ex2.roots)[0] == pytest.approx(
            0.697233, abs=1e-6)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_example3_all_ones(self, p):
        solved = solve_pipeline(make_example3(p), 20)
        xs = rw.xi_coeffs(solved.model, solved.init, 20, solved.roots)
        np.testing.assert_allclose(xs, 1.0, atol=1e-9)

    def test_matches_survival_table(self, ex1, ex2, ex4):
        for solved in (ex1, ex2, ex4[10], ex4[15]):
            n = min(20, solved.table.u_max)
            xs = rw.xi_coeffs(solved.model, solved.init, n, solved.roots)
            gap = np.max(np.abs(xs - solved.table.phis[1 : n + 1]))
            assert gap <= 1e-9


class TestTruncationBounds:
    def test_exact_model_has_zero_bounds(self, ex1):
        assert rw.truncation_bounds(ex1.model, 0.0, ex1.table) == (0.0, 0.0)

    def test_example4_bounds_against_series(self):
        cfg = make_example4(10)
        tail = cfg.step_tail_below_cap()
        # independent series: sum_k P(X = k) P(c*theta >= k + 11)
        claim = rw.materialize(rw.ParametricDist.poisson(1.0))
        oracle = math.fsum(claim.weights[k] * poisson_sf_series(1.01, k + 10)
                           for k in range(len(claim.weights)))
        assert tail == pytest.approx(oracle, rel=1e-10)
        model = cfg.build()
        solved = solve_pipeline(model, 10)
        table = rw.ultimate_survival(model, solved.init, 11, solved.roots,
                                     error_budget=1e-6)
        lower, upper = rw.truncation_bounds(model, tail, table)
        assert upper == tail
        assert 0.0 < lower <= upper
        # consistent with the observed m=10 vs m=15 value gaps
        assert upper <= 1.9e-7

    def test_tighter_cap_shrinks_bound_tenfold(self):
        t10 = make_example4(10).step_tail_below_cap()
        t15 = make_example4(15).step_tail_below_cap()
        assert t15 <= t10 / 10.0

    def test_requires_table_past_cap(self, ex4):
        model = ex4[10].model
        with pytest.raises(rw.ModelError):
            rw.truncation_bounds(model, 1e-9, ex4[10].table)
