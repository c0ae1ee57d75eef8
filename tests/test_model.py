"""Distribution plumbing: materialization, truncation, rebalance, step pmf."""

import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest

import ruinwalk as rw
from ruinwalk.cli import main
from ruinwalk.model import excess_mean

from conftest import (capped_excess_series, make_example4,
                      poisson_pmf_series, poisson_sf_series,
                      random_admissible_model)

POISSON_1_101 = {"claim": {"family": "poisson", "lambda": 1.0},
                 "interarrival": {"family": "poisson", "lambda": 1.01}}


class TestPmf:
    def test_trims_and_validates(self):
        p = rw.Pmf.from_weights(2, [0.0, 0.5, 0.25, 0.25, 0.0])
        assert p.offset == 3
        assert p.support_max == 5
        assert p.mass_at(3) == 0.5 and p.mass_at(6) == 0.0

    def test_rejects_bad_mass(self):
        with pytest.raises(rw.ModelError):
            rw.Pmf.from_weights(0, [0.5, 0.4])
        with pytest.raises(rw.ModelError):
            rw.Pmf.from_weights(0, [0.5, -0.1, 0.6])
        with pytest.raises(rw.ModelError):
            rw.Pmf.from_weights(0, [0.0, 0.0])

    def test_fields_are_offset_and_weights(self):
        # a pmf is proper: no field carries mass outside the weights
        assert [f.name for f in dataclasses.fields(rw.Pmf)] == \
            ["offset", "weights"]

    def test_mean_and_cdf(self):
        p = rw.Pmf.from_weights(-1, [0.25, 0.25, 0.5])
        assert p.mean() == pytest.approx(0.25, abs=1e-15)
        # the step cdf is RiskModel.F; a unit interarrival makes the step p
        model = rw.build_model(rw.Pmf.from_weights(0, [0.25, 0.25, 0.5]),
                               rw.Pmf.from_weights(1, [1.0]))
        assert model.step.offset == p.offset
        assert list(model.step.weights) == list(p.weights)
        assert model.F(-2) == 0.0
        assert model.F(0) == 0.5
        assert model.F(9) == 1.0


class TestMaterialize:
    def test_explicit_identity(self):
        p = rw.Pmf.from_weights(0, [0.5, 0.5])
        out = rw.materialize(rw.ParametricDist.explicit(p), 1e-12)
        assert out is p

    def test_geometric_closed_form_tail(self):
        # P(V > 38) = 0.5^39 > 1e-12 >= P(V > 39) = 0.5^40: cut at 39, and
        # the tail P(V >= 39) = 0.5^39 sits on 39
        out = rw.materialize(rw.ParametricDist.geometric(0.5), 1e-12)
        assert out.support_max == 39
        np.testing.assert_allclose(out.weights,
                                   [0.5 ** (k + 1) for k in range(39)]
                                   + [0.5 ** 39], rtol=0, atol=0)
        assert math.fsum(out.weights) == 1.0

    def test_poisson_against_series_oracle(self):
        for lam in (0.1, 1.01, 6.0, 30.0):
            dist = rw.ParametricDist.poisson(lam)
            # pmf and upper tail on both sides of the mode, far into the tail
            for k in range(int(lam) + 61):
                assert dist.pmf_at(k) == pytest.approx(
                    poisson_pmf_series(lam, k), rel=1e-12)
                assert dist.sf(k) == pytest.approx(
                    poisson_sf_series(lam, k), rel=1e-12)
            out = rw.materialize(dist, 1e-15)
            top = out.support_max
            assert out.weights[0] == pytest.approx(math.exp(-lam), abs=1e-16)
            for k in (1, 5, top - 1):
                assert out.weights[k] == pytest.approx(
                    poisson_pmf_series(lam, k), rel=1e-13)
            assert out.weights[top] == pytest.approx(
                poisson_sf_series(lam, top - 1), rel=1e-12)
            assert math.fsum(out.weights) == 1.0

    def test_cut_at_the_smallest_k(self):
        # P(V > 16) = 1.1e-15 and P(V > 17) = 6.1e-17 for Poisson(1)
        assert rw.materialize(rw.ParametricDist.poisson(1.0),
                              1e-15).support_max == 17
        dists = [rw.ParametricDist.poisson(lam)
                 for lam in np.linspace(0.05, 40.0, 100)] + \
            [rw.ParametricDist.geometric(p) for p in np.linspace(0.02, 0.98, 49)]
        for dist in dists:
            for eps in (1e-15, 1e-9):
                out = rw.materialize(dist, eps)
                k = out.support_max
                assert dist.sf(k) <= eps < dist.sf(k - 1)
                # the head is the law itself, the tail from k up sits on k
                assert out.offset == 0
                assert list(out.weights[:k]) == \
                    [dist.pmf_at(j) for j in range(k)]
                assert out.weights[k] == dist.sf(k - 1)
                assert math.fsum(out.weights) == 1.0

    def test_binomial_exact(self):
        out = rw.materialize(rw.ParametricDist.binomial(4, 0.5), 1e-12)
        np.testing.assert_allclose(out.weights,
                                   np.array([1, 4, 6, 4, 1]) / 16.0, atol=1e-15)

    @pytest.mark.parametrize("dist, at", [
        (rw.ParametricDist.binomial(4, 0.0), 0),
        (rw.ParametricDist.binomial(4, 1.0), 4),
        (rw.ParametricDist.geometric(1.0), 0)])
    def test_degenerate_laws_are_point_masses(self, dist, at):
        out = rw.materialize(dist)
        assert (out.offset, list(out.weights)) == (at, [1.0])

    def test_parameter_domains(self):
        with pytest.raises(rw.ModelError):
            rw.ParametricDist.geometric(0.0)
        with pytest.raises(rw.ModelError):
            rw.ParametricDist.poisson(-1.0)
        with pytest.raises(rw.ModelError):
            rw.ParametricDist.binomial(3, 1.5)
        # n is bounded only by the walk's span of n + 1 weights
        out = rw.materialize(rw.ParametricDist.binomial(1030, 0.5))
        assert out.weights.size == 1031 and math.fsum(out.weights) == 1.0
        with pytest.raises(rw.ModelError, match="spans more than"):
            rw.ParametricDist.binomial(2 ** 22, 0.5).run
        with pytest.raises(rw.ModelError):
            rw.materialize(rw.ParametricDist.poisson(1.0), 1e-3)

    def test_large_lambda_poisson_builds(self):
        out = rw.materialize(rw.ParametricDist.poisson(1e4))
        assert math.fsum(out.weights) == 1.0


class TestRun:
    def test_named_laws_walk_to_underflow(self):
        # geometric(1/2) down to 2^-1074, the smallest subnormal; the run
        # is cached, so a law is walked once however often it is read
        dist = rw.ParametricDist.geometric(0.5)
        assert dist.run == (0, [2.0 ** -(k + 1) for k in range(1074)])
        assert dist.run is dist.run
        lo, w = rw.ParametricDist.poisson(1.01).run
        assert lo == 0 and w[-1] > 0.0
        assert rw.ParametricDist.poisson(1.01).pmf_at(len(w)) == 0.0
        lo, w = rw.ParametricDist.binomial(4, 1.0).run
        assert (lo, w) == (4, [1.0])

    def test_poisson_run_ends_where_the_weights_underflow(self):
        # the span is tightened by Newton steps on lam h(k/lam) = 746 from
        # above: no weight past the run's last positive one reaches a
        # subnormal, log 2^-1074 = -744.4
        for lam in [*np.geomspace(1e-3, 1e4, 36).tolist(), 1.01, 6.0, 45.0]:
            lo, w = rw.ParametricDist.poisson(lam).run
            k = lo + len(w)
            assert w[-1] > 0.0
            assert k * math.log(lam) - math.lgamma(k + 1) - lam < -744.4

    @pytest.mark.parametrize("family, args", [
        ("poisson", (1e3,)), ("poisson", (1e4,)), ("poisson", (1e6,)),
        ("binomial", (1030, 0.5)), ("binomial", (10 ** 5, 0.3))],
        ids=["poisson_1e3", "poisson_1e4", "poisson_1e6", "binomial_1030",
             "binomial_1e5"])
    def test_weights_against_mpmath(self, family, args):
        # the walk of ratios from the mode holds every weight to 1e-12
        # relative at the mode, +-1 sd and +-5 sd, and the mass to exactly 1
        dist = getattr(rw.ParametricDist, family)(*args)
        if family == "poisson":
            lam = mp.mpf(dist.lam)
            mean, sd = dist.lam, math.sqrt(dist.lam)
            ref = lambda k: mp.exp(k * mp.log(lam) - mp.loggamma(k + 1) - lam)
        else:
            n, p = dist.n, mp.mpf(dist.p)
            mean, sd = n * dist.p, math.sqrt(n * dist.p * (1.0 - dist.p))
            ref = lambda k: mp.binomial(n, k) * p ** k * (1 - p) ** (n - k)
        lo, w = dist.run
        mode = lo + int(np.argmax(w))
        with mp.workdps(40):
            for k in (mode, *(round(mean + j * sd) for j in (-5, -1, 1, 5))):
                assert abs(dist.pmf_at(k) / ref(k) - 1) <= 1e-12
        assert math.fsum(w) == 1.0 and dist.sf(lo) <= 1.0

    def test_large_lambda_starts_near_the_mode(self):
        # weights below lam - 40 sqrt(lam) are exactly 0, so the run
        # starts there and the head below it reads P(V > j) = 1
        dist = rw.ParametricDist.poisson(1e6)
        lo, w = dist.run
        assert 960_000 < lo < 1e6 and len(w) < 80_000
        assert dist.sf(10) == 1.0 and dist.pmf_at(lo - 1) == 0.0
        out = rw.truncate(dist, 10)
        assert (out.offset, list(out.weights)) == (10, [1.0])

    @pytest.mark.parametrize("dist", [
        rw.ParametricDist.poisson(3e9), rw.ParametricDist.poisson(1e308),
        rw.ParametricDist.geometric(1.7e-4),
        rw.ParametricDist.geometric(1e-300)])
    def test_span_past_the_limit_is_refused(self, dist):
        with pytest.raises(rw.ModelError, match="spans more than 4194304"):
            dist.run

    def test_cap_past_the_run_is_the_run(self):
        # no per-term call and no list of length m: a cap of 10^12 costs
        # what the run does
        dist = rw.ParametricDist.poisson(1.01)
        lo, w = dist.run
        for m in (lo + len(w) - 1, 10 ** 12):
            out = rw.truncate(dist, m)
            assert (out.offset, list(out.weights)) == (lo, w)


class TestStepPmf:
    def test_point_masses(self):
        step = rw.step_pmf(rw.Pmf.point(0), rw.Pmf.point(1))
        assert step.offset == -1
        assert list(step.weights) == [1.0]

    def test_four_point_enumeration(self):
        # claim on {0,1}, interarrival on {0,2}: enumerate the product space
        claim = rw.Pmf.from_weights(0, [0.5, 0.5])
        inter = rw.Pmf.from_weights(0, [0.5, 0.0, 0.5])
        step = rw.step_pmf(claim, inter)
        expect = {}
        for x, px in ((0, 0.5), (1, 0.5)):
            for y, py in ((0, 0.5), (2, 0.5)):
                expect[x - y] = expect.get(x - y, 0.0) + px * py
        for j in range(-2, 2):
            assert step.mass_at(j) == pytest.approx(expect[j], abs=1e-15)

    def test_geometric_binomial_bottom_mass(self):
        claim = rw.materialize(rw.ParametricDist.geometric(0.5))
        inter = rw.materialize(rw.ParametricDist.binomial(4, 0.5))
        step = rw.step_pmf(claim, inter)
        # only claim 0 against interarrival 4 lands on -4
        assert step.mass_at(-4) == pytest.approx(0.5 * (1 / 16), abs=1e-16)
        assert step.mass_at(-4) == pytest.approx(1 / 32, abs=1e-16)

    def test_mass_and_mean_invariants(self):
        rng = np.random.default_rng(20240811)
        for _ in range(25):
            model = random_admissible_model(rng)
            assert math.fsum(model.step.weights) == pytest.approx(1.0, abs=1e-12)
            assert model.step.mean() == pytest.approx(
                model.claim.mean() - model.interarrival.mean(), abs=1e-10)
            assert model.drift == pytest.approx(model.step.mean(), abs=1e-12)


class TestTruncate:
    def test_cap_mass_equals_survivor_function(self):
        out = rw.truncate(rw.ParametricDist.poisson(1.01), 10)
        assert out.support_max == 10
        assert out.weights[10] == pytest.approx(poisson_sf_series(1.01, 9),
                                                rel=1e-12)
        for k in range(10):
            assert out.weights[k] == pytest.approx(
                poisson_pmf_series(1.01, k), rel=1e-13)

    def test_finite_input_unchanged(self):
        p = rw.Pmf.from_weights(0, [0.25, 0.5, 0.25])
        assert rw.truncate(p, 5) is p

    def test_capped_drift_matches_printed_value(self):
        model = rw.ModelConfig(claim_dist=rw.ParametricDist.poisson(1.0),
                               interarrival_dist=rw.ParametricDist.poisson(1.01),
                               truncate_m=15).build()
        assert model.drift == pytest.approx(-0.00999999999998, abs=1e-12)

    def test_idempotent(self):
        a = rw.truncate(rw.ParametricDist.poisson(2.5), 6)
        b = rw.truncate(a, 6)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_drift_never_decreases_with_capping(self):
        # capping the interarrival time can only lower its mean
        claim = rw.materialize(rw.ParametricDist.poisson(1.0))
        base = None
        for m in (20, 15, 10, 8, 6):
            capped = rw.truncate(rw.ParametricDist.poisson(1.01), m)
            drift = claim.mean() - capped.mean()
            if base is not None:
                assert drift >= base - 1e-15
            base = drift

    def test_domain_error(self):
        with pytest.raises(rw.ModelError):
            rw.truncate(rw.ParametricDist.poisson(1.0), 0)

    @staticmethod
    def lumped(dist, m):
        """The capped weights with sf(m - 1) on the atom as it stands."""
        lo, w = dist.run
        lo = min(lo, m)
        return rw.Pmf.from_weights(lo, np.append(w[:m - lo], dist.sf(m - 1)))

    def test_capped_poisson_sums_to_one(self):
        # sf(m - 1) is rounded on its own, so 159 of these 11 850 capped
        # laws miss 1 in fsum by the last bit with the tail as the atom;
        # each now takes the exact residual on it, and every law that
        # summed to 1 keeps the tail there, bit for bit
        short = 0
        for k in range(50, 4000):
            dist = rw.ParametricDist.poisson(k / 100)
            for m in (1, 3, 16):
                got, tail = rw.truncate(dist, m), self.lumped(dist, m)
                assert math.fsum(got.weights) == 1.0, (k, m)
                assert got.offset == tail.offset
                if math.fsum(tail.weights) == 1.0:
                    assert got.weights.tobytes() == tail.weights.tobytes()
                else:
                    short += 1
                    assert got.weights[:-1].tobytes() == \
                        tail.weights[:-1].tobytes()
                    assert abs(got.weights[-1] - tail.weights[-1]) \
                        <= 2.0 ** -52
        assert short == 159

    def test_binomial_cap_takes_the_residual(self):
        dist = rw.ParametricDist.binomial(40, 0.3)
        assert math.fsum(self.lumped(dist, 1).weights) == 1.0 - 2.0 ** -53
        got = rw.truncate(dist, 1)
        assert got.weights[0] == dist.pmf_at(0)
        assert math.fsum(got.weights) == 1.0

    def test_explicit_law_keeps_its_tail(self):
        # an explicit law is read as given, 1e-13 short of mass 1 here: its
        # cap carries sf(m - 1), not the residual to 1
        p = rw.Pmf.from_weights(0, [0.5, 0.25, 0.125, 0.125 - 2e-13, 1e-13])
        got = rw.truncate(p, 3)
        assert got.weights.tolist() == \
            [0.5, 0.25, 0.125, math.fsum([0.125 - 2e-13, 1e-13])]
        assert math.fsum(got.weights) < 1.0 - 5e-14


class TestStepTailBelowCap:
    def test_example4_tail_against_series(self):
        tail = make_example4(10).step_tail_below_cap(10)
        # independent series: sum_k P(X = k) P(c*theta >= k + 11)
        claim = rw.materialize(rw.ParametricDist.poisson(1.0))
        oracle = math.fsum(claim.weights[k] * poisson_sf_series(1.01, k + 10)
                           for k in range(len(claim.weights)))
        assert tail == pytest.approx(oracle, rel=1e-10)

    def test_tighter_cap_shrinks_tail_tenfold(self):
        t10 = make_example4(10).step_tail_below_cap(10)
        t15 = make_example4(15).step_tail_below_cap(15)
        assert t15 <= t10 / 10.0


class TestRebalance:
    def test_no_excess_mass_is_identity(self):
        claim = rw.Pmf.from_weights(0, [0.5, 0.5])
        out = rw.rebalance_claim(claim, rw.ParametricDist.binomial(4, 0.5),
                                 6, 1)
        np.testing.assert_array_equal(out.weights, claim.weights)

    def test_poisson_drift_preserved(self):
        # delta verified against the direct series for sum i P(V = m+i)
        delta = capped_excess_series(1.01, 10)
        assert excess_mean(rw.ParametricDist.poisson(1.01), 10) == \
            pytest.approx(delta, rel=1e-10, abs=0)
        xm = rw.rebalance_claim(rw.ParametricDist.poisson(1.0),
                                rw.ParametricDist.poisson(1.01), 10, 1)
        capped = rw.truncate(rw.ParametricDist.poisson(1.01), 10)
        assert xm.mean() - capped.mean() == pytest.approx(-0.01, abs=1e-10)

    def test_excess_mean_against_mpmath(self):
        # one sum over the run: E(V) - E(V capped at m) cancels, to
        # -1.1e-16 for Poisson(0.5) at cap 15 where the sum is 4.7e-19
        for lam in (0.5, 1.01, 3.0, 10.0):
            dist = rw.ParametricDist.poisson(lam)
            with mp.workdps(50):
                x = mp.mpf(lam)
                pmf = [mp.exp(-x) * x ** k / mp.factorial(k) for k in range(250)]
                for m in range(5, 31):
                    ref = float(mp.fsum((k - m) * pmf[k] for k in range(m + 1, 250)))
                    assert excess_mean(dist, m) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_geometric_l2_mean_equality(self):
        xm = rw.rebalance_claim(rw.ParametricDist.geometric(0.5),
                                rw.ParametricDist.poisson(1.01), 10, 2)
        capped = rw.truncate(rw.ParametricDist.poisson(1.01), 10)
        exact = (1.0 - 0.5) / 0.5 - 1.01     # E(X) - E(c*theta), uncapped
        assert xm.mean() - capped.mean() == pytest.approx(exact, abs=1e-10)
        assert math.fsum(xm.weights) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_names_smallest_feasible_point(self):
        # excess mass beyond the cap is ~1.2e-7: too much for the 1e-9
        # weight at 1, fine for the weight at 2
        claim = rw.Pmf.from_weights(0, [0.6, 1e-9, 0.4 - 1e-9])
        with pytest.raises(rw.InfeasibleRebalanceError) as exc:
            rw.rebalance_claim(claim, rw.ParametricDist.poisson(1.01), 10, 1)
        assert exc.value.min_feasible_l == 2

    def test_no_feasible_point_reported(self):
        claim = rw.Pmf.from_weights(0, [1.0 - 1e-9, 1e-9])
        with pytest.raises(rw.InfeasibleRebalanceError) as exc:
            rw.rebalance_claim(claim, rw.ParametricDist.poisson(5.0), 2, 1)
        assert exc.value.min_feasible_l is None

    def test_model_file_tail_eps_holds_with_rebalance(self):
        # the claim is cut at the file's tail_eps with or without
        # rebalance_l (P(X > 11) <= 1e-9 < P(X > 10) for Poisson(1))
        doc = dict(POISSON_1_101, truncate_m=10, tail_eps=1e-9)
        plain = rw.parse_model_config(doc).build()
        rebalanced = rw.parse_model_config(dict(doc, rebalance_l=1)).build()
        assert plain.claim.support_max == rebalanced.claim.support_max == 11
        expect = rw.rebalance_claim(
            rw.materialize(rw.ParametricDist.poisson(1.0), 1e-9),
            rw.ParametricDist.poisson(1.01), 10, 1)
        np.testing.assert_array_equal(rebalanced.claim.weights, expect.weights)

    def test_l_must_be_positive(self):
        with pytest.raises(rw.ModelError):
            rw.rebalance_claim(rw.Pmf.point(1),
                               rw.ParametricDist.poisson(1.0), 3, 0)


class TestBuildModel:
    def test_infers_m_and_trims_dust(self):
        inter = rw.Pmf.from_weights(0, [0.5, 0.5 - 1e-15, 1e-15])
        model = rw.build_model(rw.Pmf.from_weights(0, [0.7, 0.3]), inter)
        assert model.m == 1
        assert model.interarrival.weights[1] == pytest.approx(0.5, abs=1e-14)
        # the trim is the truncate rule at the new top
        np.testing.assert_array_equal(model.interarrival.weights,
                                      rw.truncate(inter, 1).weights)

    def test_dust_from_records_a_trim_that_lowers_the_top(self):
        claim = rw.Pmf.from_weights(0, [0.7, 0.3])
        dusty = rw.Pmf.from_weights(0, [0.5, 0.5 - 1e-15, 1e-15])
        assert rw.build_model(claim, dusty).dust_from == 2
        clean = rw.Pmf.from_weights(0, [0.5, 0.0, 0.5])
        assert rw.build_model(claim, clean).dust_from is None

    def test_claim_cut_is_the_lumped_tail(self):
        # the Poisson(1) claim is cut at K with P(X >= K) on K; a finite
        # claim law has no cut
        claim = rw.ParametricDist.poisson(1.0)
        k = rw.materialize(claim).support_max
        assert make_example4(10).build().claim_cut == (k, claim.sf(k - 1))
        finite = rw.ModelConfig(
            claim_dist=rw.ParametricDist.binomial(3, 0.5),
            interarrival_dist=rw.ParametricDist.binomial(4, 0.5)).build()
        assert finite.claim_cut is None

    def test_unbounded_interarrival_needs_truncate_m(self, tmp_path):
        with pytest.raises(rw.ModelError, match="set truncate_m"):
            rw.parse_model_config(POISSON_1_101).build()
        path = tmp_path / "uncapped.json"
        path.write_text(json.dumps(POISSON_1_101))
        assert main(["solve", str(path),
                     "--out", str(tmp_path / "phi.csv")]) == 2
        assert not (tmp_path / "phi.csv").exists()

    def test_shifted_claim_support(self):
        model = rw.build_model(rw.Pmf.point(1),
                               rw.Pmf.from_weights(0, [0.5, 0.0, 0.0, 0.5]))
        assert model.m == 3
        assert model.max_drop == 2
        assert model.f(-2) == pytest.approx(0.5)
        assert model.f(1) == pytest.approx(0.5)

    def test_step_cdf(self):
        model = rw.build_model(rw.Pmf.from_weights(0, [0.5, 0.5]),
                               rw.Pmf.from_weights(0, [0.5, 0.0, 0.5]))
        assert model.F(-3) == 0.0
        assert model.F(-2) == pytest.approx(0.25)
        assert model.F(0) == pytest.approx(0.75)
        assert model.F(7) == pytest.approx(1.0)

    def test_step_cdf_on_integer_arrays(self):
        model = rw.ModelConfig(
            claim_dist=rw.ParametricDist.geometric(0.5),
            interarrival_dist=rw.ParametricDist.binomial(4, 0.5)).build()
        js = np.arange(model.step.support_min - 2, model.step.support_max + 3)
        got = model.F(js)
        assert isinstance(got, np.ndarray) and got.shape == js.shape
        np.testing.assert_array_equal(got, [model.F(int(j)) for j in js])
        assert got[0] == got[1] == 0.0 < got[2]
        assert got[-1] == got[-2] == got[-3] == pytest.approx(1.0)
        assert type(model.F(0)) is float


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        doc = {"claim": {"family": "geometric", "p": 0.5},
               "interarrival": {"family": "binomial", "n": 4, "p": 0.5}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        model = rw.load_model_config(str(path)).build()
        assert model.m == 4
        assert model.drift == pytest.approx(-1.0, abs=1e-12)

    def test_explicit_pmf_spec(self):
        cfg = rw.parse_model_config({
            "claim": {"pmf": {"offset": 0, "weights": [0.5, 0.5]}},
            "interarrival": {"pmf": {"offset": 0, "weights": [0.5, 0, 0.5]}}})
        model = cfg.build()
        assert model.max_drop == 2

    @pytest.mark.parametrize("weights", [[0.5, 0.5 - 1e-13],
                                         [0.5, 0.5 + 1e-13],
                                         [0.5 - 3e-13, 0.5 - 1e-13]])
    def test_explicit_pmf_near_one_is_scaled_to_one(self, weights):
        # Example 1 with a claim law off 1 by ~1e-13: read as given, the
        # ladder table lies 2.6e-11 from phi(u, T = 400), below or above
        def doc(w):
            return {"claim": {"pmf": {"weights": w}},
                    "interarrival": {"pmf": {"weights": [0.5, 0, 0.5]}}}
        model = rw.parse_model_config(doc(weights)).build()
        assert abs(math.fsum(model.claim.weights) - 1.0) <= 2.0 ** -52
        ult = rw.ultimate_survival(model, u_max=60).phis
        fin = rw.finite_survival(model, 60, 400).phis
        assert np.max(np.abs(ult - fin)) <= 1e-13
        with pytest.raises(rw.ModelError, match="not 1 within"):
            rw.parse_model_config(doc([0.5, 0.5 - 1e-11]))

    def test_infinite_interarrival_needs_cap(self):
        cfg = rw.parse_model_config({
            "claim": {"family": "poisson", "lambda": 1.0},
            "interarrival": {"family": "poisson", "lambda": 1.01}})
        with pytest.raises(rw.ModelError):
            cfg.build()

    def test_bad_documents(self):
        with pytest.raises(rw.ModelError):
            rw.parse_model_config({"claim": {"family": "poisson", "lambda": 1}})
        with pytest.raises(rw.ModelError):
            rw.parse_model_config({"claim": {"family": "cauchy"},
                                   "interarrival": {"family": "poisson",
                                                    "lambda": 1}})
        with pytest.raises(rw.ModelError):
            rw.parse_model_config({"claim": {"family": "poisson", "lambda": 1},
                                   "interarrival": {"family": "poisson",
                                                    "lambda": 1},
                                   "truncate_m": 0})
