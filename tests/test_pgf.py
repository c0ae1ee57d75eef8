"""Generating-function evaluation and unit-disk root location."""

import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

import ruinwalk as rw
from ruinwalk import pgf
from ruinwalk.pgf import _cluster, _extended, _step_residuals, _taylor

from conftest import (ROUTE_CASES, example3_double_root, make_example1,
                      make_example3, make_example4, poisson_geometric_model,
                      random_admissible_model)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


class TestPgfEval:
    def test_normalization_at_one(self):
        for p in (rw.Pmf.from_weights(0, [0.2, 0.8]),
                  rw.Pmf.from_weights(-3, [0.5, 0.25, 0.25])):
            assert rw.pgf_eval(p, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_step_pgf_at_interior_root(self):
        model = make_example1()
        alpha = 1.0 - math.sqrt(2.0)
        val = rw.pgf_eval(model.step, alpha)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_two_point_at_minus_one(self):
        p = rw.Pmf.from_weights(0, [0.5, 0.5])
        assert rw.pgf_eval(p, -1.0) == pytest.approx(0.0, abs=1e-16)

    def test_pole_at_zero(self):
        p = rw.Pmf.from_weights(-2, [0.5, 0.25, 0.25])
        with pytest.raises(rw.ModelError):
            rw.pgf_eval(p, 0.0)
        assert rw.pgf_eval(rw.Pmf.from_weights(0, [0.4, 0.6]), 0.0) == 0.4


class TestCharPoly:
    def test_example1_coefficients(self):
        # (1/2 + s/2)(1/2 s^2 + 1/2) - s^2 expanded by hand
        poly = rw.char_poly(make_example1())
        np.testing.assert_allclose(poly, [0.25, 0.25, -0.75, 0.25],
                                   atol=1e-16)
        roots = np.sort(np.roots(poly[::-1]).real)
        np.testing.assert_allclose(
            roots, [1 - math.sqrt(2), 1.0, 1 + math.sqrt(2)], atol=1e-12)

    def test_degenerate_step_against_unit_drop(self):
        poly = rw.char_poly(rw.build_model(rw.Pmf.point(0), rw.Pmf.point(1)))
        np.testing.assert_allclose(poly, [1.0, -1.0], atol=0)

    def test_degree_and_root_at_one(self):
        model = rw.ModelConfig(
            claim_dist=rw.ParametricDist.geometric(0.5),
            interarrival_dist=rw.ParametricDist.binomial(4, 0.5)).build()
        poly = rw.char_poly(model)
        assert len(poly) - 1 == model.max_drop + model.step.support_max
        assert abs(polyval(1.0, poly)) <= 1e-10

    def test_root_at_one_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            poly = rw.char_poly(random_admissible_model(rng))
            assert abs(polyval(1.0, poly)) <= 1e-10


def _taylor_reference(coeffs, z, k):
    """P^(k)(z) / k! to 50 digits, and the magnitude sum that bounds the
    rounding error of any Horner-type evaluation of it."""
    with mp.workdps(50):
        zm = mp.mpc(z)
        val = mp.fsum(math.comb(j, k) * mp.mpf(float(c)) * zm ** (j - k)
                      for j, c in enumerate(coeffs) if j >= k)
        mag = math.fsum(math.comb(j, k) * abs(float(c)) * abs(z) ** (j - k)
                        for j, c in enumerate(coeffs) if j >= k)
        return complex(val), mag


class TestTaylor:
    EPS = float(np.finfo(float).eps)

    def check(self, coeffs, z):
        got = _taylor(_extended(coeffs), z, 4)
        assert len(got) == 4
        for k in range(4):
            ref, mag = _taylor_reference(coeffs, z, k)
            assert abs(got[k] - ref) <= 64.0 * self.EPS * mag, (k, z)

    def test_random_polynomials(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            coeffs = rng.standard_normal(int(rng.integers(4, 25)))
            z = complex(*rng.uniform(-1.2, 1.2, 2))
            self.check(coeffs, z)
            self.check(coeffs, z.real)

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_example3_double_root(self, p):
        coeffs = rw.char_poly(make_example3(p))
        z = example3_double_root(p)
        self.check(coeffs, z)
        # a double root: P and P' vanish to rounding, P''/2 does not
        t = _taylor(_extended(coeffs), z, 3)
        assert abs(t[0]) <= 1e-14 and abs(t[1]) <= 1e-14
        assert abs(t[2]) >= 1e-3


def _exact_pgf(p: rw.Pmf, re: Fraction, im: Fraction) -> tuple:
    """sum_k weights[k] (re + i im)^(offset + k) in Gaussian rationals, the
    weights and the point read exactly from their doubles; offset >= 0."""
    acc_re, acc_im = Fraction(0), Fraction(0)
    for w in p.weights[::-1].tolist():
        acc_re, acc_im = (acc_re * re - acc_im * im + Fraction(w),
                          acc_re * im + acc_im * re)
    for _ in range(p.offset):
        acc_re, acc_im = acc_re * re - acc_im * im, acc_re * im + acc_im * re
    return acc_re, acc_im


class TestStepResidual:
    """The double-precision residual against its exact value
    |G_X(z) G_ctheta(1/z) - 1| at the double root z."""

    @staticmethod
    def exact(model, z: complex) -> float:
        re, im = Fraction(z.real), Fraction(z.imag)
        norm = re * re + im * im
        xr, xi = _exact_pgf(model.claim, re, im)
        tr, ti = _exact_pgf(model.interarrival, re / norm, -im / norm)
        gr, gi = xr * tr - xi * ti - 1, xr * ti + xi * tr
        return math.sqrt(gr * gr + gi * gi)

    @pytest.mark.parametrize("model", [
        *(rw.load_model_config(str(GOLDEN_DIR / f)).build()
          for f in ("ex1.json", "ex2.json", "ex3_p05.json", "ex4_cap10.json",
                    "ex4_cap15.json")),
        poisson_geometric_model(6.0, 80)],
        ids=["ex1", "ex2", "ex3_p05", "ex4_cap10", "ex4_cap15",
             "poisson_geometric_cap80"])
    def test_within_floor_of_exact_value(self, model):
        roots = rw.unit_disk_roots(model)
        assert roots.roots
        # evaluated at every root, the conjugates included
        checked = _step_residuals(model, roots.roots)
        assert checked == list(zip(roots.residuals, roots.floors))
        for z, (got, floor) in zip(roots.roots, checked):
            assert abs(got - self.exact(model, z)) <= floor, z


def per_root_residual(model, s: complex) -> tuple:
    """The residual check as it ran before the conjugates took their
    twin's numbers: four `pgf_eval` calls at every root."""
    g = rw.pgf_eval(model.claim, s) * rw.pgf_eval(model.interarrival, 1.0 / s)
    mag = rw.pgf_eval(model.claim, abs(s)).real \
        * rw.pgf_eval(model.interarrival, 1.0 / abs(s)).real
    n_terms = len(model.claim.weights) + len(model.interarrival.weights)
    floor = float(np.finfo(float).eps) * n_terms * (mag + 1.0)
    return abs(g - 1.0), floor


class TestConjugateCheck:
    def test_bit_identical_to_per_root_check(self, route_cases):
        # evaluated at each conjugate, the parent's check gives exactly the
        # twin's numbers that the conjugate now takes
        case, cases = route_cases
        assert len(cases) == ROUTE_CASES[case]
        for model, roots in cases:
            ref = [per_root_residual(model, z) for z in roots.roots]
            assert np.array(roots.residuals).tobytes() == \
                np.array([r for r, _ in ref]).tobytes()
            assert np.array(roots.floors).tobytes() == \
                np.array([f for _, f in ref]).tobytes()

    @pytest.mark.parametrize("model", [
        make_example4(15).build(), poisson_geometric_model(6.0, 30),
        make_example3(0.5)], ids=["ex4_cap15", "poisson_geometric_cap30",
                                  "ex3_p05"])
    def test_four_evaluations_per_real_or_upper_root(self, model,
                                                     monkeypatch):
        # the check is the only caller of _divide in double; the polish
        # and the multiplicity check run it in clongdouble
        points = []

        def counted(q, z):
            if type(z) is complex:
                points.append(z)
            return divide(q, z)

        divide = pgf._divide
        monkeypatch.setattr(pgf, "_divide", counted)
        roots = rw.unit_disk_roots(model).roots
        # s, 1/s, |s| and 1/|s| for each real or upper root, in order, and
        # nothing for a lower one
        assert points == [v for s in roots if s.imag >= 0 for v in
                          (s, 1.0 / s, complex(abs(s)), 1.0 / abs(s))]


class TestCluster:
    def test_chain_is_one_cluster_and_isolated_point_stays_alone(self):
        # |a - b| and |b - c| are below tol, |a - c| is not
        a, b, c, far = 0.0, 0.8 + 0.1j, 1.6, 5.0 - 1.0j
        got = _cluster(np.array([c, far, a, b]), 1.0)
        assert got == [[a, b, c], [far]]

    def test_points_come_out_in_depth_first_order(self):
        # sorted p0..p4; p0 touches p1 and p3, p1 touches p4, p3 touches
        # p2: the search expands p3 before p1, so p2 comes before p4; the
        # order pins the bits of the cluster mean
        p0, p1, p2, p3, p4 = 0.0, 0.1 + 0.9j, 0.2 - 1.8j, 0.3 - 0.9j, \
            0.4 + 1.8j
        got = _cluster(np.array([p2, p4, p3, p1, p0]), 1.0)
        assert got == [[p0, p1, p3, p2, p4]]
        assert all(type(z) is complex for z in got[0])


def _conjugation_models():
    rng = np.random.default_rng(7)
    return ([make_example4(m).build() for m in range(10, 21)]
            + [random_admissible_model(rng) for _ in range(200)])


def test_companion_eigenvalues_are_exact_conjugate_pairs():
    # unit_disk_roots keeps the upper half-plane and conjugates it, which
    # relies on np.roots of a real polynomial being closed under
    # conjugation to the last bit
    for model in _conjugation_models():
        zs = np.roots(rw.char_poly(model)[::-1])
        np.testing.assert_array_equal(np.sort(zs), np.sort(zs.conj()))


def test_unit_disk_roots_are_exact_conjugate_pairs():
    for model in _conjugation_models():
        roots = rw.unit_disk_roots(model)
        mult = dict(zip(roots.roots, roots.multiplicities))
        for z, r in mult.items():
            assert mult.get(z.conjugate()) == r, z


class TestUnitDiskRoots:
    def test_example1_single_root(self):
        roots = rw.unit_disk_roots(make_example1())
        assert roots.multiplicities == (1,)
        assert roots.roots[0] == pytest.approx(1 - math.sqrt(2), abs=1e-12)
        assert roots.residuals[0] <= 1e-12

    def test_example2_three_printed_roots(self, ex2):
        got = sorted(ex2.roots.roots, key=lambda z: (z.real, z.imag))
        expect = sorted([-0.289014, -0.15434 - 0.342115j,
                         -0.15434 + 0.342115j], key=lambda z: (z.real, z.imag))
        assert ex2.roots.multiplicities == (1, 1, 1)
        for g, e in zip(got, expect):
            assert abs(g - e) <= 5e-6

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_example3_double_root(self, p):
        roots = rw.unit_disk_roots(make_example3(p))
        assert roots.multiplicities == (2,)
        assert roots.roots[0] == pytest.approx(example3_double_root(p),
                                               abs=1e-9)

    @pytest.mark.parametrize("m,count", [(10, 9), (15, 14)])
    def test_example4_counts(self, m, count):
        roots = rw.unit_disk_roots(make_example4(m).build())
        assert roots.total_multiplicity == count
        assert all(r == 1 for r in roots.multiplicities)

    def test_unit_drop_has_no_roots(self):
        model = rw.build_model(rw.Pmf.from_weights(0, [0.6, 0.4]),
                               rw.Pmf.point(1))
        roots = rw.unit_disk_roots(model)
        assert len(roots.roots) == 0
        assert roots.total_multiplicity == 0

    def test_net_profit_precondition(self):
        model = rw.build_model(rw.Pmf.point(1), rw.Pmf.point(1))
        with pytest.raises(rw.NetProfitError):
            rw.unit_disk_roots(model)

    def test_conjugate_closure_and_bounds(self, ex2, ex4):
        for solved in (ex2, ex4[10], ex4[15]):
            zs = solved.roots.expanded()
            conj = sorted(np.conj(zs), key=lambda z: (z.real, z.imag))
            zs_sorted = sorted(zs, key=lambda z: (z.real, z.imag))
            assert np.allclose(zs_sorted, conj, atol=0)
            for z in zs:
                assert abs(z) <= 1 + 1e-9
                assert abs(z - 1.0) > 1e-7
                assert z != 0

    def test_count_property_random_models(self):
        rng = np.random.default_rng(321)
        for _ in range(50):
            model = random_admissible_model(rng)
            roots = rw.unit_disk_roots(model)
            assert roots.total_multiplicity == model.max_drop - 1
            assert max(roots.residuals, default=0.0) <= 1e-8

    def test_root_count_error_carries_every_candidate(self, ex2,
                                                     monkeypatch):
        # an exclusion ball of radius 2 around s = 1 holds the whole unit
        # disk, so no root survives the filter
        monkeypatch.setattr("ruinwalk.pgf.ONE_EXCLUSION", 2.0)
        with pytest.raises(rw.RootCountError,
                           match="found 0 unit-disk roots") as exc:
            rw.unit_disk_roots(ex2.model)
        degree = len(rw.char_poly(ex2.model)) - 1
        assert degree == 53
        assert len(exc.value.roots) == degree
        for z, modulus in exc.value.roots:
            assert modulus == abs(z)

    def test_cluster_tolerance_failure_is_loud(self, ex2, monkeypatch):
        monkeypatch.setattr("ruinwalk.pgf.CLUSTER_TOL", 0.8)
        with pytest.raises((rw.RootCountError, rw.RootQualityError)):
            rw.unit_disk_roots(ex2.model)
