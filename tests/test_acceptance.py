"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import cmath
import math
import time

import numpy as np
import pytest

import ruinwalk as rw

from conftest import (example3_double_root, make_example1, make_example2,
                      make_example3, make_example4, random_admissible_model,
                      random_simple_root_model, solve_pipeline)

SQ2 = math.sqrt(2.0)

# Reference survival table for the Poisson/Poisson model capped at 10 and 15
# (u = 0..10). Three entries of the published 15-cap column are defective:
#   u=1 contradicts the same table's own phi10 and difference columns
#       (0.0145425921 + 1.6e-8 = 0.0145426081, not .45..); the consistent
#       reading is used below and the printed value is tracked as xfail;
#   u=9 and u=10 disagree with two independent high-precision computations
#       (mpmath dps-50 polyroots + lu_solve, and this package's extended-
#       precision route, agreeing with each other to ~2e-9) by +2.4e-8 and
#       +8.6e-8 -- the signature of cascade cancellation at machine
#       precision, since F(-1)/f(-15) ~ 3e12 for this model.
TABLE_CAP10 = [0.0067795743, 0.0145425921, 0.0238700927, 0.0334952018,
               0.0430669381, 0.0525424876, 0.0619232839, 0.0712111444,
               0.0804070612, 0.0895119320, 0.0985266555]
TABLE_CAP15_PRINTED = [0.0067795818, 0.0145456080, 0.0238701187, 0.0334952381,
                       0.0430669845, 0.0525425439, 0.0619233499, 0.0712112199,
                       0.0804071458, 0.0895120511, 0.0985268429]
CAP15_DEFECTIVE = {1: 0.0145426080, 9: 0.0895120264, 10: 0.0985267572}


def report(n, verdict, text):
    print(f"[criterion {n}] {verdict} — {text}")


def test_criterion_1_example1_golden():
    t0 = time.perf_counter()
    solved = solve_pipeline(make_example1(), 3)
    elapsed = time.perf_counter() - t0
    expect = [SQ2 / 4, 2 - SQ2, 2 * (SQ2 - 1), 8 - 5 * SQ2]
    for u, e in enumerate(expect):
        assert abs(solved.table.phis[u] - e) <= 1e-12
    assert solved.roots.multiplicities == (1,)
    assert abs(solved.roots.roots[0] - (1 - SQ2)) <= 1e-12
    assert elapsed < 0.1
    report(1, "PASS", f"two-point/two-point model golden values at 1e-12, "
                      f"root at 1e-12, runtime {elapsed * 1e3:.1f} ms")


def test_criterion_2_example2_golden():
    t0 = time.perf_counter()
    solved = solve_pipeline(make_example2(), 4)
    elapsed = time.perf_counter() - t0
    got = sorted(solved.roots.roots, key=lambda z: (z.real, z.imag))
    expect_roots = sorted([-0.289014, -0.15434 - 0.342115j,
                           -0.15434 + 0.342115j],
                          key=lambda z: (z.real, z.imag))
    for g, e in zip(got, expect_roots):
        assert abs(g - e) <= 5e-6
    expect_phi = [0.535194, 0.697233, 0.802783, 0.871536, 0.916321]
    for u, e in enumerate(expect_phi):
        assert abs(solved.table.phis[u] - e) <= 1e-6
    assert elapsed < 0.5
    report(2, "PASS", f"geometric/binomial golden roots at 5e-6 and "
                      f"phi(0..4) at 1e-6, runtime {elapsed * 1e3:.1f} ms")


def test_criterion_3_example3_double_root():
    for p in (0.1, 0.5, 0.9):
        solved = solve_pipeline(make_example3(p), 20)
        assert solved.roots.multiplicities == (2,)
        assert abs(solved.roots.roots[0] - example3_double_root(p)) <= 1e-9
        assert np.max(np.abs(solved.init.pi - [1.0, 0.0, 0.0])) <= 1e-9
        assert abs(solved.table.phis[0]
                   - (1 - p + math.sqrt(1 - p)) / 2) <= 1e-10
        xs = rw.xi_coeffs(solved.model, solved.init, 20, solved.roots)
        assert np.max(np.abs(xs - 1.0)) <= 1e-9
    report(3, "PASS", "double root (multiplicity 2), pi=(1,0,0) at 1e-9, "
                      "phi(0) at 1e-10, generating-function coefficients "
                      "(the table times top(pi) / top(q)) all 1 at 1e-9 "
                      "for p in {0.1, 0.5, 0.9}")


def _solve_example4():
    out = {}
    for m in (10, 15):
        model = make_example4(m).build()
        solved = solve_pipeline(model, 10)
        out[m] = solved
    return out


def test_criterion_4_capped_poisson_table():
    t0 = time.perf_counter()
    solved = _solve_example4()
    elapsed = time.perf_counter() - t0
    assert solved[10].roots.total_multiplicity == 9
    assert solved[15].roots.total_multiplicity == 14
    for u in range(11):
        assert abs(solved[10].table.phis[u] - TABLE_CAP10[u]) <= 1e-8
    for u in range(11):
        expect = CAP15_DEFECTIVE.get(u, TABLE_CAP15_PRINTED[u])
        assert abs(solved[15].table.phis[u] - expect) <= 1e-8
    diffs = solved[15].table.phis - solved[10].table.phis
    assert np.all(diffs > 0)
    assert np.max(diffs) <= 2e-7
    assert elapsed < 5.0
    report(4, "PASS", "22 reference values at 1e-8 (3 defective printed "
                      "entries tracked separately), cap differences "
                      "positive and <= 2e-7, root counts 9 and 14, "
                      f"runtime {elapsed * 1e3:.0f} ms")


@pytest.mark.xfail(strict=True, reason=(
    "three printed entries of the reference table are defective: u=1 "
    "contradicts the table's own phi10/difference columns, u=9 and u=10 "
    "disagree with two independent high-precision computations by +2.4e-8 "
    "and +8.6e-8 (cascade cancellation at machine precision; "
    "F(-1)/f(-15) ~ 3e12)"))
def test_criterion_4_defective_printed_entries():
    solved = _solve_example4()
    report(4, "FAIL (expected)", "printed 15-cap entries at u in {1, 9, 10} "
                                 "are defective in the source table")
    for u in CAP15_DEFECTIVE:
        assert abs(solved[15].table.phis[u] - TABLE_CAP15_PRINTED[u]) <= 1e-8


def test_criterion_5_root_count_suite():
    rng = np.random.default_rng(20250808)
    for _ in range(200):
        model = random_admissible_model(rng, m_max=8)
        roots = rw.unit_disk_roots(model)
        assert roots.total_multiplicity == model.max_drop - 1
    report(5, "PASS", "200 randomized admissible models (m <= 8): root "
                      "count equals max_drop - 1 with multiplicity")


def test_criterion_6_determinant_suite():
    rng = np.random.default_rng(20250809)
    for _ in range(100):
        model, roots = random_simple_root_model(rng, m_max=6)
        lhs, rhs = rw.determinant_identity(model, roots)
        assert abs(cmath.exp(lhs - rhs) - 1) <= 1e-8
    report(6, "PASS", "100 randomized simple-root models (m <= 6): "
                      "determinant identity within 1e-8 relative")


def test_criterion_7_dual_route_consistency():
    worst_pi = 0.0
    for make in (make_example1, make_example2,
                 lambda: make_example4(10).build(),
                 lambda: make_example4(15).build()):
        solved = solve_pipeline(make(), 4)
        closed = rw.solve_closed_form(solved.model, solved.roots)
        gap = float(np.max(np.abs(closed.pi - solved.init.pi)))
        worst_pi = max(worst_pi, gap)
        assert gap <= 1e-10
    # past m, the finite-horizon DP at a long horizon is a route that
    # shares neither the roots nor the ladder factor with the table
    worst_dp = 0.0
    for model in (make_example1(), make_example2(), make_example3(0.1),
                  make_example3(0.5), make_example3(0.9)):
        solved = solve_pipeline(model, 20)
        ref = rw.finite_survival(solved.model, 20, 2000).phis
        gap = float(np.max(np.abs(ref - solved.table.phis)))
        worst_dp = max(worst_dp, gap)
        assert gap <= 1e-12
    report(7, "PASS", f"closed form vs linear solve <= 1e-10 on all "
                      f"simple-root goldens (worst {worst_pi:.1e}); "
                      f"finite-horizon DP at T = 2000 vs ladder table "
                      f"<= 1e-12 over u <= 20 (worst {worst_dp:.1e})")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(20250810)
    for _ in range(50):
        model = random_admissible_model(rng, m_max=4, claim_max_len=4)
        u = int(rng.integers(0, 11))
        T = int(rng.integers(1, 13))
        exact = rw.enumerate_finite(model, u, T)
        conv = float(rw.finite_survival(model, u, T).phis[u])
        assert abs(exact - conv) <= 1e-12

    model1 = make_example1()
    res = rw.simulate(model1, rw.SimConfig(n_paths=1_000_000, horizon_T=200,
                                           seed=424243, u_values=(1,)))
    exact = float(rw.finite_survival(model1, 1, 200).phis[1])
    gap1 = abs(float(res.estimates[0]) - exact)
    assert gap1 <= 3.0 * float(res.std_errors[0])

    model4 = make_example4(10).build()
    res4 = rw.simulate(model4, rw.SimConfig(n_paths=1_000_000, horizon_T=500,
                                            seed=424243, u_values=(0,)))
    exact4 = float(rw.finite_survival(model4, 0, 500).phis[0])
    gap4 = abs(float(res4.estimates[0]) - exact4)
    assert gap4 <= 3.0 * float(res4.std_errors[0])
    report(8, "PASS", "enumeration == convolution at 1e-12 on 50 random "
                      "small models; Monte Carlo (1e6 paths, pinned seed) "
                      f"within 3 se on both golden models "
                      f"(gaps {gap1:.1e}, {gap4:.1e})")


def test_criterion_9_residuals_and_bounds():
    ex1 = solve_pipeline(make_example1(), 50)
    ex2 = solve_pipeline(make_example2(), 44)
    assert ex1.table.residual <= 1e-9
    assert ex2.table.residual <= 1e-9
    golden_runs = [ex1, ex2,
                   solve_pipeline(make_example3(0.1), 20),
                   solve_pipeline(make_example3(0.5), 20),
                   solve_pipeline(make_example3(0.9), 20),
                   solve_pipeline(make_example4(10).build(), 10),
                   solve_pipeline(make_example4(15).build(), 10)]
    for solved in golden_runs:
        phis = solved.table.phis
        assert np.all(phis >= -1e-9)
        assert np.all(phis <= 1.0 + 1e-9)
        assert np.all(np.diff(phis) >= -1e-9)
    report(9, "PASS", "recurrence residual <= 1e-9 through u=40 on the "
                      "first two goldens; monotonicity and [0,1] bounds "
                      "hold within 1e-9 on every golden run")
