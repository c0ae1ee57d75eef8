"""Survival tables: recurrence, finite horizon, generating function, bounds."""

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import ruinwalk as rw
from ruinwalk import survival
from ruinwalk.survival import _check_table

from conftest import (make_example1, make_example2, make_example3,
                      make_example4, poisson_geometric_model,
                      random_admissible_model, solve_pipeline)

SQ2 = math.sqrt(2.0)
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
GOLDENS = ["ex1", "ex2", "ex3_p05", "ex4_cap10", "ex4_cap15"]


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


def divide_out_loop(coeffs, zs) -> np.ndarray:
    """The deflation as it ran before pgf._divide: for every z, a numpy
    complex128 array filled one coefficient at a time from the leading
    one down, the remainder dropped."""
    a = np.asarray(coeffs, dtype=complex)
    for z in zs:
        n = len(a) - 1
        q = np.zeros(n, dtype=complex)
        q[n - 1] = a[n]
        for k in range(n - 1, 0, -1):
            q[k - 1] = a[k] + z * q[k]
        a = q
    return a


def ladder_tail_loop(h, n) -> np.ndarray:
    """psi(0..n) of psi(u) = sum_k h_k psi(u - k), psi = 1 on u <= 0, one
    exactly rounded sum of the rounded products per u."""
    k = len(h)
    psi = [1.0] * (k + 1)          # psi(-k..0)
    for _ in range(n):
        psi.append(math.fsum(h * np.array(psi[-1 : -k - 1 : -1])))
    return np.array(psi[k:])


def ladder_tail_every_block(h, n) -> np.ndarray:
    """`survival._ladder_tail` as it ran before it stopped at psi's
    underflow: every block of the recurrence is computed."""
    k = len(h)
    psi = np.ones(k + 1 + n)       # psi[k + u] = psi(u); psi(-k..0) = 1
    block = min(survival._BLOCK, n)
    rows = np.vstack([np.eye(k), h[::-1]])
    while len(rows) - k < block:
        rows = np.vstack([rows, rows[k:] @ rows[len(rows) - k :]])
    step = rows[k : k + block]
    for j in range(0, n, block):
        e = min(j + block, n)
        psi[k + 1 + j : k + 1 + e] = step[: e - j] @ psi[j + 1 : j + 1 + k]
    return psi[k:]


def ultimate_full_length(model, u_max, roots) -> tuple:
    """(phis, q, residual) of `ultimate_survival` as it ran before the
    tail stopped: the recurrence, the checks, phi and the residual over
    every u <= max(u_max, m)."""
    m = model.max_drop
    psi = ladder_tail_every_block(
        -survival._ladder_factor(model, roots)[1:], max(u_max, m))
    phi = 1.0 - psi
    phi[0] = math.fsum(phi[i] * model.f(-i) for i in range(1, m + 1))
    phi = phi[: u_max + 1]
    _check_table(phi)
    n = max(len(phi) - m, 0)
    gap = phi[:n] - 1.0
    tpsi = survival._first_step(model, psi[: u_max + 1], n - 1)
    gap[: len(tpsi)] += tpsi
    residual = float(np.max(np.abs(gap), initial=0.0))
    return phi, psi[:m] - psi[1 : m + 1], residual


def example4_lundberg_root(m: int):
    """Example 4's Lundberg root R > 1 at 50 digits, from the exact laws:
    the root near 1.01 of exp(s - 1) G(1/s) = 1, with exp(s - 1) the
    uncut Poisson(1) claim pgf and G the pgf of the exact Poisson(1.01)
    law capped at m (its mass past m - 1 on m). No weight passes through
    a double, so the stored step law's rounding is not taken for exact."""
    with mp.workdps(50):
        lam = mp.mpf("1.01")
        w = [mp.exp(-lam) * lam ** k / mp.factorial(k) for k in range(m)]
        w.append(1 - mp.fsum(w))
        return mp.findroot(
            lambda s: mp.exp(s - 1) * mp.fsum(
                x * s ** -k for k, x in enumerate(w)) - 1,
            (mp.mpf("1.005"), mp.mpf("1.05")), solver="anderson")


def first_zero(h, n):
    """The first u <= n with psi(u) = 0.0 exactly, or None."""
    zeros = np.flatnonzero(ladder_tail_every_block(h, n) == 0.0)
    return int(zeros[0]) if zeros.size else None


def floor_index(h, n):
    """The floor index: the first u in 1..n with psi(u) below _PSI_FLOOR,
    or None."""
    below = np.flatnonzero(ladder_tail_every_block(h, n)[1:]
                           < survival._PSI_FLOOR)
    return int(below[0]) + 1 if below.size else None


def block_rows(k: int) -> int:
    """The rows of one ladder-tail block at K = k: 512 up to K = 32, then
    the largest power of two <= 2^14 / K, and at least 16."""
    return 512 if k <= 32 else max(16, 2 ** math.floor(math.log2(2**14 / k)))


def level_end(psi, k: int, m: int, n: int) -> int:
    """Where the ladder tail's level ends for the reference psi(0..n): the
    first block start e >= m whose K terms psi(e-K+1..e) all lie below
    _PSI_FLOOR, else n."""
    if k == 0:
        return m
    b = block_rows(k)
    return next((e for e in range(0, n, b) if e >= max(m, k) and np.all(
        psi[e - k + 1 : e + 1] < survival._PSI_FLOOR)), n)


def geometric_claims_model(p: float = 0.05, c: int = 20) -> rw.RiskModel:
    """Geometric(p) claims against a premium of c per period (interarrival
    time c): at p = 0.05 and c = 20 the default claim cut leaves K = 653
    ladder heights."""
    return rw.ModelConfig(
        claim_dist=rw.ParametricDist.geometric(p),
        interarrival_dist=rw.ParametricDist.explicit(rw.Pmf.point(c)),
    ).build()


@pytest.fixture(scope="module", params=["goldens", "example4_caps", "random"])
def deflation_cases(request, ex1, ex2, ex3, ex4):
    """(case, [(model, roots, init)]): the goldens, Example 4 at caps
    10..20, or 220 random models with m up to 12."""
    case = request.param
    if case == "goldens":
        return case, [(s.model, s.roots, s.init)
                      for s in (ex1, ex2, *ex3.values(), *ex4.values())]
    if case == "example4_caps":
        models = [make_example4(cap).build() for cap in range(10, 21)]
    else:
        rng = np.random.default_rng(7)
        models = [random_admissible_model(rng, m_max=12) for _ in range(220)]
    cases = []
    for model in models:
        roots = rw.unit_disk_roots(model)
        cases.append((model, roots, rw.solve_linear(
            rw.build_system(model, roots))))
    return case, cases


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

    def test_blowup_reports_first_failing_u(self):
        # crafted tables: each fails at several u, and the scan must name
        # the first one and its kind
        for phi, u, what in (([0.1, 0.5, 1.2, 1.3, 0.2], 2, "escaped"),
                             ([0.2, 0.6, 0.5, 0.4, 0.9], 2, "monotonicity"),
                             ([0.5, 0.4, 1.5, -0.1], 1, "monotonicity"),
                             ([0.3, -0.2, 0.1, 0.05], 1, "escaped")):
            with pytest.raises(rw.NumericalBlowupError) as exc:
                _check_table(np.array(phi))
            assert exc.value.u == u
            assert f"phi({u})" in str(exc.value)
            assert what in str(exc.value)
        # slack within MONOTONE_TOL passes
        _check_table(np.array([-1e-10, 0.5, 0.5 - 1e-10, 1.0 + 1e-10]))

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
        init = rw.InitialValues(pi=np.array([1.0]), residual=0.0)
        with pytest.raises(rw.NetProfitError):
            rw.ultimate_survival(model, init, 5)


class TestLadderRoute:
    """Values at and past u = m, where the paper's partial sums of pi
    stop."""

    def test_poisson2_cap15_matches_long_horizon(self):
        # Poisson(1) claims against Poisson(2) interarrival times capped at
        # 15; phi(0..40) spans u = m and u = m + 1
        model = rw.ModelConfig(
            claim_dist=rw.ParametricDist.poisson(1.0),
            interarrival_dist=rw.ParametricDist.poisson(2.0),
            truncate_m=15).build()
        assert model.max_drop == 15
        table = rw.ultimate_survival(model, u_max=40)
        ref = rw.finite_survival(model, 40, 500).phis
        np.testing.assert_allclose(table.phis, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.cumsum(table.q), table.phis[1:16],
                                   rtol=0, atol=2**-52)

    def test_example4_cap15_long_table(self):
        model = make_example4(15).build()
        solved = solve_pipeline(model, 2000)
        phis = solved.table.phis
        assert len(phis) == 2001
        assert np.all(np.diff(phis) >= 0)
        assert 0.0 <= phis[0] and phis[-1] <= 1.0
        assert solved.table.residual <= 1e-9
        assert phis[15] == pytest.approx(0.142279142441, abs=1e-11)
        xs = rw.xi_coeffs(model, solved.init, 2000, solved.roots)
        np.testing.assert_allclose(xs, phis[1:], rtol=0, atol=1e-9)

    def test_random_models_match_paper_routes(self):
        # the linear solve's partial sums give phi(1..m); past m, the
        # residual re-substitutes the table into the first-step equation,
        # which reads the step pmf and not the ladder factor
        rng = np.random.default_rng(20261018)
        for _ in range(40):
            model = random_admissible_model(rng, m_max=8)
            solved = solve_pipeline(model, 60)
            m = model.max_drop
            np.testing.assert_allclose(np.cumsum(solved.init.pi),
                                       solved.table.phis[1 : m + 1],
                                       rtol=0, atol=1e-10)
            assert solved.table.residual <= 1e-12
            xs = rw.xi_coeffs(model, solved.init, 60, solved.roots)
            np.testing.assert_allclose(xs, solved.table.phis[1:], rtol=0,
                                       atol=1e-9)


class TestRuinTail:
    """phi = 1 - psi, psi(u) = sum_k h_k psi(u - k) from psi = 1 below
    zero: no running sum of the maximum's pmf to drift past 1."""

    def test_example1_matches_closed_form(self):
        # phi(u) = 1 - (sqrt 2 - 1)^u, the reference in 40 digits
        table = rw.ultimate_survival(make_example1(), u_max=20_000)
        with mp.workdps(40):
            r, tail, ref = mp.sqrt(2) - 1, mp.mpf(1), []
            for _ in range(20_000):
                tail *= r
                ref.append(float(1 - tail))
        np.testing.assert_allclose(table.phis[1:], ref, rtol=0, atol=1.2e-16)

    @pytest.mark.parametrize("cap", [10, 15])
    def test_lundberg_root_against_mpmath(self, cap):
        # psi(u) ~ C R^(-u), so an error dR in the ladder factor's root
        # costs about u dR / R relative in psi(u); the root of the double
        # coefficients is found at 50 digits, so only the factor's own
        # error is measured: 7.7e-17 at cap 10 and 1.8e-16 at cap 15
        model = make_example4(cap).build()
        a = survival._ladder_factor(model, rw.unit_disk_roots(model))
        ref = example4_lundberg_root(model.m)
        with mp.workdps(50):
            coeffs = [mp.mpf(float(x)) for x in a[::-1]]
            got = mp.findroot(lambda s: mp.polyval(coeffs, s),
                              (mp.mpf("1.005"), mp.mpf("1.05")),
                              solver="anderson")
            assert 1.005 < ref < 1.05
            assert abs(got - ref) <= 1e-15 * ref

    def test_geometric_claims_match_closed_form(self):
        # a geometric(p) claim's overshoot over any level is geometric, so
        # psi(u) = (1 - (1 - p)R)/p R^(-u) for u >= 1, R > 1 the root of
        # p / (1 - (1 - p)s) s^-20 = 1, found here by bisection at 40
        # digits; the default claim cut leaves K = 653, so the table runs
        # 16-row blocks, and it reads 4.8e-12 off the closed form
        p = 0.05
        table = rw.ultimate_survival(geometric_claims_model(p, 20),
                                     u_max=2000)
        with mp.workdps(40):
            q = 1 - mp.mpf(p)
            lo, hi = mp.mpf(1), 1 / q
            for _ in range(200):
                mid = (lo + hi) / 2
                if mp.log(p) - mp.log(1 - q * mid) - 20 * mp.log(mid) > 0:
                    hi = mid
                else:
                    lo = mid
            ref = [float((1 - q * lo) / p * lo ** -u) for u in range(1, 2001)]
        np.testing.assert_allclose(1.0 - table.phis[1:], ref, rtol=1e-11,
                                   atol=0)

    @pytest.mark.parametrize("name", GOLDENS)
    def test_goldens_never_exceed_one(self, name):
        model = rw.load_model_config(GOLDEN_DIR / f"{name}.json").build()
        phis = rw.ultimate_survival(model, u_max=20_000).phis
        assert np.all(phis <= 1.0)
        if name.startswith("ex4"):
            assert phis[-1] == 1.0


class TestDeflation:
    def test_bit_identical_to_loop_reference(self, deflation_cases,
                                             monkeypatch):
        # the ladder factor gives the same bits through pgf._divide as
        # through the loop
        case, cases = deflation_cases
        out = [survival._ladder_factor(model, roots).tobytes()
               for model, roots, _ in cases]
        monkeypatch.setattr(survival, "_divide_out", divide_out_loop)
        ref = [survival._ladder_factor(model, roots).tobytes()
               for model, roots, _ in cases]
        assert out == ref
        assert len(cases) == {"goldens": 7, "example4_caps": 11,
                              "random": 220}[case]

    def test_ladder_tail_matches_fsum_loop(self, deflation_cases):
        # n on both sides of the block edge B: one block, a full block, a
        # block and one term, and three blocks of the doubled matrix; on
        # both sides of the floor index L, the first u with psi below
        # _PSI_FLOOR, and of the block start the level ends at, and a
        # block past it. Each level covers u = min(m, n), matches the loop
        # within 4e-15 and ends where the reference says; every psi past
        # it, to n, lies below the floor. Example 4 has no stop before
        # u = 20 000
        assert survival._BLOCK == 512
        floor = survival._PSI_FLOOR
        _, cases = deflation_cases
        for model, roots, _ in cases:
            h = -survival._ladder_factor(model, roots)[1:]
            k, m, b = len(h), model.max_drop, block_rows(len(h))
            ns = [1, b - 1, b, b + 1, 1500]
            low = floor_index(h, 20_000)
            if low is not None:
                stop = level_end(ladder_tail_every_block(h, 20_000), k, m,
                                 20_000)
                ns += [n for n in (low - 1, low, low + 1, stop - 1, stop,
                                   stop + 1, stop + b + 1) if n >= 1]
            ref = ladder_tail_loop(h, max(ns))
            for n in ns:
                lo = min(m, n)
                psi = survival._ladder_tail(h, n, lo)
                assert len(psi) - 1 == level_end(ref, k, lo, n)
                assert len(psi) >= lo + 1
                np.testing.assert_allclose(psi, ref[: len(psi)], rtol=0,
                                           atol=4e-15)
                assert np.all(ref[len(psi) : n + 1] < floor)
                if k and len(psi) <= n:
                    assert np.all(psi[-k:] < floor)

    def test_xi_of_the_tables_own_pi_is_the_table(self, deflation_cases):
        _, cases = deflation_cases
        for model, roots, _ in cases:
            table = rw.ultimate_survival(model, u_max=60, roots=roots)
            own = rw.InitialValues(pi=table.q, residual=0.0)
            assert rw.xi_coeffs(model, own, 60, roots).tobytes() == \
                table.phis[1:61].tobytes()

    def test_xi_scales_by_the_moved_leading_coefficient(self,
                                                        deflation_cases):
        # pi enters Xi only through top(pi) = sum_i pi_i F(-1-i): moving
        # pi_i by delta scales every coefficient by top(pi) / top(q)
        _, cases = deflation_cases
        for model, roots, _ in cases:
            m = model.max_drop
            table = rw.ultimate_survival(model, u_max=60, roots=roots)
            cdf = model.F(-1 - np.arange(m))
            top = math.fsum(table.q * cdf)
            i = m - 1
            pi = table.q.copy()
            pi[i] += 1e-3
            moved = rw.InitialValues(pi=pi, residual=0.0)
            kappa = math.fsum(pi * cdf) / top
            assert kappa == pytest.approx(
                (top + (pi[i] - table.q[i]) * cdf[i]) / top, rel=2**-52)
            assert rw.xi_coeffs(model, moved, 60, roots).tobytes() == \
                (kappa * table.phis[1:61]).tobytes()

    def test_xi_reaches_u_2000_at_the_tables_accuracy(self):
        # the long division kept s = 1 in a double denominator and read
        # 3.8e-11 off the table at u = 2 000, where psi is only 2.3e-9
        model = make_example4(10).build()
        solved = solve_pipeline(model, 2000)
        xs = rw.xi_coeffs(model, solved.init, 2000, solved.roots)
        np.testing.assert_allclose(xs, solved.table.phis[1:], rtol=0,
                                   atol=1e-13)


class TestTailStop:
    """Past K = len(h) terms of psi in a row below _PSI_FLOOR every later
    term is below it too, so the tail stops there and the table reads 1.0
    without computing it."""

    def test_bit_identical_to_every_block(self, deflation_cases):
        # phis, q and residual byte for byte against the full-length path,
        # at u_max on both sides of m, of psi's first exact zero z, of the
        # floor index L, of the block edge and of the level's end
        _, cases = deflation_cases
        for model, roots, _ in cases:
            m = model.max_drop
            h = -survival._ladder_factor(model, roots)[1:]
            b = block_rows(len(h))
            z = first_zero(h, 20_000)
            low = floor_index(h, 20_000)
            u_maxes = {0, 1, m - 1, m, m + 1, b - 1, b, b + 1, 2000, 20_000}
            if z is not None:
                u_maxes |= {z - 1, z, z + 1}
            if low is not None:
                stop = level_end(ladder_tail_every_block(h, 20_000), len(h),
                                 m, 20_000)
                u_maxes |= {low - 1, low, low + 1, stop - 1, stop, stop + 1}
            for u_max in sorted(u for u in u_maxes if u >= 0):
                table = rw.ultimate_survival(model, u_max=u_max, roots=roots)
                phis, q, residual = ultimate_full_length(model, u_max, roots)
                assert table.phis.tobytes() == phis.tobytes(), u_max
                assert table.q.tobytes() == q.tobytes(), u_max
                assert table.residual == residual, u_max

    def test_example4_cap10_runs_to_20000(self):
        # psi(20 000) = 3.7e-87 is above the floor, so every block runs
        # (the table itself is in the bit-identity test's example4_caps
        # case)
        model = make_example4(10).build()
        h = -survival._ladder_factor(model, rw.unit_disk_roots(model))[1:]
        psi = survival._ladder_tail(h, 20_000, model.max_drop)
        assert len(psi) == 20_001
        assert psi[-1] == pytest.approx(3.7e-87, rel=0.01)
        assert psi.tobytes() == ladder_tail_every_block(h, 20_000).tobytes()

    @pytest.mark.parametrize("make, n, count, rows, length", [
        (make_example1, 20_000, 1, 512, 513),
        (lambda: make_example3(0.5), 20_000, 0, None, 4),
        (geometric_claims_model, 2000, 125, 16, 2001),
    ], ids=["ex1", "ex3_p05", "geometric_k653"])
    def test_blocks_run(self, make, n, count, rows, length, monkeypatch):
        # Example 1's psi = (sqrt 2 - 1)^u falls below the floor at
        # u = 472, so the block at 512 reads K = 1 term below it and
        # stops; Example 3 has K = 0, runs no block, and its level is
        # psi(0..m); at K = 653 a block has 16 rows
        blocks = []
        matmul = np.matmul

        def counted(a, b, **kwargs):
            if b.ndim == 1:            # a block; the doubling is matrix-matrix
                blocks.append(a.shape)
            return matmul(a, b, **kwargs)

        model = make()
        h = -survival._ladder_factor(model, rw.unit_disk_roots(model))[1:]
        monkeypatch.setattr(np, "matmul", counted)
        psi = survival._ladder_tail(h, n, model.max_drop)
        assert len(psi) == length
        assert len(blocks) == count
        assert all(r == rows for r, _ in blocks)

    def test_level_covers_m(self):
        # psi(1) = 1e-200 is below the floor at once, yet the level runs
        # to the first block start past m = 600: two blocks of 512
        h = np.array([1e-200])
        psi = survival._ladder_tail(h, 20_000, 600)
        assert len(psi) == 1025
        np.testing.assert_array_equal(psi, ladder_tail_every_block(h, 1024))

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
            assert tab.phis[u] == ex1.model.F(u - 1)

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

    @pytest.mark.parametrize("make, T", [
        (make_example2, 400), (make_example2, 1600),
        (make_example1, 400), (lambda: make_example3(0.5), 400),
        (lambda: make_example4(10).build(), 400),
        (lambda: make_example4(15).build(), 400),
        (lambda: poisson_geometric_model(6.0, 30), 1600),
    ], ids=["ex2_T400", "ex2_T1600", "ex1_T400", "ex3_p05_T400",
            "ex4_cap10_T400", "ex4_cap15_T400", "pg6_cap30_T1600"])
    def test_ultimate_never_above_finite(self, make, T):
        # phi(u, T) >= phi(u) holds for the one proper law both routes
        # read; a tail kept out of the weights breaks it on Example 2. The
        # cap-30 step law sums to 1 - 1e-15: a DP on phi loses that mass
        # at every step (1.2e-12 at T = 1600), one on psi converges
        model = make()
        ult = rw.ultimate_survival(model, u_max=60).phis
        fin = rw.finite_survival(model, 60, T).phis
        assert np.max(ult - fin) <= 1e-15

    @pytest.mark.parametrize("cap", [10, 15, 20])
    def test_never_above_one(self, cap):
        # psi >= 0 and phi = 1 - psi: no level reads past 1.0, where a DP
        # on phi gave 1 + 2.2e-16 from T = 2
        model = make_example4(cap).build()
        for T in (2, 50, 400):
            assert np.max(rw.finite_survival(model, 100, T).phis) <= 1.0

    def test_grid_never_rises_in_T(self):
        # phi(u, T) is nonincreasing in T; a DP on phi rose 1 897 times on
        # this grid
        model = make_example4(10).build()
        prev = np.ones(101)
        for _, lvl in rw.finite_grid(model, 100, 400):
            assert np.all(lvl <= prev)
            prev = lvl

    def test_floor_moves_no_phi_bit(self, monkeypatch):
        # reading psi as 0 below _PSI_FLOOR changes neither a finite table
        # nor a residual, and these models do have positive psi below it
        models = [rw.load_model_config(GOLDEN_DIR / f"{name}.json").build()
                  for name in GOLDENS]
        floor, step, cut = survival._PSI_FLOOR, survival._first_step, []

        def watched(model, psi, n):
            cut.append(bool(np.any((0.0 < psi[1:]) & (psi[1:] < floor))))
            return step(model, psi, n)

        def run():
            return [(rw.finite_survival(model, 60, 400).phis.tobytes(),
                     rw.ultimate_survival(model, u_max=2000).residual)
                    for model in models]

        monkeypatch.setattr(survival, "_first_step", watched)
        floored = run()
        assert any(cut)
        monkeypatch.setattr(survival, "_PSI_FLOOR", 0.0)
        assert run() == floored

    @pytest.mark.parametrize("claim, inter", [
        (rw.Pmf.from_weights(1, [0.5, 0.5]), rw.Pmf.from_weights(0, [0.5, 0.5])),
        (rw.Pmf.from_weights(5, [0.5, 0.5]), rw.Pmf.from_weights(0, [0.5, 0.5])),
        (rw.Pmf.point(0), rw.Pmf.from_weights(0, [0.25, 0.25, 0.5])),
    ], ids=["max_drop_0", "max_drop_-4", "never_up"])
    def test_boundary_models_match_enumeration(self, claim, inter):
        # the first-step map's convolution starts at u = 1 - m; a walk that
        # always steps up still needs every grid level to u_max, and one
        # that never steps up leaves every level one entry wide; below
        # u_max = -m the always-up walk's convolution has no entry to add
        model = rw.build_model(claim, inter)
        exact = {T: [rw.enumerate_finite(model, u, T) for u in range(9)]
                 for T in range(1, 6)}
        for u_max in range(9):
            grid = dict(rw.finite_grid(model, u_max, 5))
            for T in range(1, 6):
                want = exact[T][:u_max + 1]
                np.testing.assert_allclose(grid[T], want, rtol=0, atol=1e-15)
                np.testing.assert_allclose(
                    rw.finite_survival(model, u_max, T).phis, want,
                    rtol=0, atol=1e-15)

    def test_domain_errors(self, ex1):
        with pytest.raises(rw.ModelError):
            rw.finite_survival(ex1.model, 5, 0)
        with pytest.raises(rw.ModelError):
            rw.finite_survival(ex1.model, -1, 3)

    @pytest.mark.parametrize("u_max, t_max, message", [
        (-1, 5, "u_max=-1 must be >= 0"), (5, 0, "horizon T=0 must be >= 1"),
    ])
    def test_grid_checks_its_arguments_when_called(self, ex1, u_max, t_max,
                                                   message):
        # the ModelError comes from the call, not from the first next()
        with pytest.raises(rw.ModelError, match=message):
            rw.finite_grid(ex1.model, u_max, t_max)


class TestXiCoefficients:
    def test_example1_rational_form(self, ex1):
        # Xi(s) = (2 - sqrt2 + sqrt2 s) / (1 + s - 3 s^2 + s^3)
        xs = rw.xi_coeffs(ex1.model, ex1.init, 3, ex1.roots)
        np.testing.assert_allclose(
            xs, [2 - SQ2, 2 * (SQ2 - 1), 8 - 5 * SQ2], atol=1e-12)
        poly = rw.char_poly(ex1.model)
        np.testing.assert_allclose(4.0 * poly, [1, 1, -3, 1], atol=0)

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
        D = rw.char_poly(model)[: m + 2]
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

    def test_initial_values_of_another_model_raise(self, ex2, ex4):
        # Example 4 at cap 10 has m = 10, Example 2 has m = 4
        for solved, other in ((ex2, ex4[10]), (ex4[10], ex2)):
            with pytest.raises(rw.ModelError,
                               match="initial values have length"):
                rw.xi_coeffs(solved.model, other.init, 5, solved.roots)

