"""Simulation and enumeration oracles, and their agreement with the solver."""

import numpy as np
import pytest

import ruinwalk as rw
from ruinwalk.oracle import _GUIDE, _StepSampler

from conftest import (make_example1, make_example2, make_example4,
                      random_admissible_model)


class TestEnumerate:
    def test_single_step_is_cdf(self, ex1):
        for u in range(0, 5):
            assert rw.enumerate_finite(ex1.model, u, 1) == ex1.model.F(u - 1)

    def test_agrees_with_convolution_route(self, ex1):
        a = rw.enumerate_finite(ex1.model, 2, 3)
        b = rw.finite_survival(ex1.model, 2, 3).phis[2]
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_drift_degenerate_walk(self):
        model = rw.build_model(rw.Pmf.point(1), rw.Pmf.point(1))
        for u in (1, 2, 5):
            assert rw.enumerate_finite(model, u, 8) == 1.0

    def test_lattice_budget(self, ex1):
        with pytest.raises(rw.ResourceError):
            rw.enumerate_finite(ex1.model, 100, 100_000)

    def test_random_model_agreement(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            model = random_admissible_model(rng, m_max=4, claim_max_len=4)
            u = int(rng.integers(0, 11))
            T = int(rng.integers(1, 13))
            a = rw.enumerate_finite(model, u, T)
            b = float(rw.finite_survival(model, u, T).phis[u])
            assert a == pytest.approx(b, abs=1e-12)


def _step_table(model):
    return np.cumsum(model.step.weights), model.step.support_min


STEP_TABLES = {
    "zero_interior": lambda: _step_table(rw.build_model(
        rw.Pmf.from_weights(0, [0.5, 0.0, 0.0, 0.5]), rw.Pmf.point(2))),
    "tail_below_bucket": lambda: _step_table(rw.build_model(
        rw.Pmf.from_weights(0, [1.0 - 1e-4, 1e-4]), rw.Pmf.point(1))),
    # cum[-1] = 0.9999999999999991 < 1
    "example2": lambda: _step_table(make_example2()),
    "example4_cap10": lambda: _step_table(make_example4(10).build()),
    "point_mass": lambda: _step_table(
        rw.build_model(rw.Pmf.point(0), rw.Pmf.point(1))),
    # a table that ends far below 1, so whole buckets lie past it
    "short_table": lambda: (np.array([0.25, 0.5]), -1),
}


class TestStepSampler:
    @pytest.mark.parametrize("law", list(STEP_TABLES))
    def test_matches_binary_search(self, law):
        cum, lo = STEP_TABLES[law]()
        edges = np.arange(_GUIDE) / _GUIDE
        points = np.concatenate([[0.0, 1.0 - 2.0 ** -53], cum, edges])
        draws = np.concatenate([points, np.nextafter(points, -1.0),
                                np.nextafter(points, 2.0)])
        draws = draws[(draws >= 0.0) & (draws < 1.0)]
        expect = np.clip(lo + np.searchsorted(cum, draws, side="right"),
                         lo, lo + len(cum) - 1)
        got = _StepSampler(cum, lo, draws.size).steps(draws)
        assert got.dtype == np.int32        # the walk's dtype in simulate
        np.testing.assert_array_equal(got, expect)


class TestSimulate:
    @pytest.mark.parametrize("make, n_paths, horizon_T, counts", [
        (make_example2, 70_000, 60, [37441, 48783, 56214, 66211, 69533]),
        (lambda: make_example4(10).build(), 70_000, 60,
         [3793, 8009, 12965, 27497, 47181]),
        (make_example2, 200_000, 30,
         [106978, 139459, 160618, 189021, 198670]),
        (lambda: make_example4(10).build(), 200_000, 30,
         [14908, 31552, 50947, 105144, 165403]),
    ], ids=["example2", "example4_cap10", "example2_4_blocks",
            "example4_cap10_4_blocks"])
    def test_pinned_stream(self, make, n_paths, horizon_T, counts):
        # one full block and one partial, or three full blocks and one
        # partial; the survivor counts are those of the int64 binary-search
        # sampler the guide table replaced, so the stream of steps is
        # unchanged
        cfg = rw.SimConfig(n_paths=n_paths, horizon_T=horizon_T,
                           seed=20231018, u_values=(0, 1, 2, 5, 10))
        res = rw.simulate(make(), cfg)
        np.testing.assert_array_equal(res.estimates,
                                      np.array(counts) / n_paths)

    @pytest.mark.parametrize("make, horizon_T, raises", [
        # Example 2 steps from -4 to 49: this horizon could reach 2^31 + 6,
        # one horizon less stays below 2^31 - 1
        (make_example2, (2 ** 31 - 1) // 49 + 1, True),
        (make_example2, (2 ** 31 - 1) // 49, False),
        # steps -1 and 0: the reach is exactly 2^31 - 1
        (lambda: rw.build_model(rw.Pmf.from_weights(0, [0.5, 0.5]),
                                rw.Pmf.point(1)), 2 ** 31 - 1, True),
    ], ids=["example2_past", "example2_below", "unit_step_at_limit"])
    def test_reach_past_int32_raises_before_any_draw(self, monkeypatch, make,
                                                     horizon_T, raises):
        class Built(Exception):
            pass

        def no_sampler(*args):
            raise Built
        monkeypatch.setattr("ruinwalk.oracle._StepSampler", no_sampler)
        cfg = rw.SimConfig(n_paths=1, horizon_T=horizon_T, seed=1,
                           u_values=(0,))
        with pytest.raises(rw.ResourceError if raises else Built):
            rw.simulate(make(), cfg)

    def test_thresholds_past_int32(self, ex2):
        res = rw.simulate(ex2.model, rw.SimConfig(
            n_paths=1_000, horizon_T=30, seed=3,
            u_values=(2 ** 40, -2 ** 40)))
        np.testing.assert_array_equal(res.estimates, [1.0, 0.0])
        np.testing.assert_array_equal(res.std_errors, [0.0, 0.0])

    def test_bit_for_bit_reproducible(self, ex1):
        cfg = rw.SimConfig(n_paths=40_000, horizon_T=30, seed=777,
                           u_values=(0, 1, 3))
        r1 = rw.simulate(ex1.model, cfg)
        r2 = rw.simulate(ex1.model, cfg)
        np.testing.assert_array_equal(r1.estimates, r2.estimates)
        np.testing.assert_array_equal(r1.std_errors, r2.std_errors)

    def test_seed_changes_stream(self, ex1):
        base = rw.SimConfig(n_paths=40_000, horizon_T=30, seed=777,
                            u_values=(1,))
        other = rw.SimConfig(n_paths=40_000, horizon_T=30, seed=778,
                             u_values=(1,))
        assert not np.array_equal(rw.simulate(ex1.model, base).estimates,
                                  rw.simulate(ex1.model, other).estimates)

    def test_sure_survival_is_exact(self):
        model = rw.build_model(rw.Pmf.point(0), rw.Pmf.point(1))
        res = rw.simulate(model, rw.SimConfig(n_paths=10_000, horizon_T=25,
                                              seed=1, u_values=(1, 4)))
        np.testing.assert_array_equal(res.estimates, [1.0, 1.0])
        np.testing.assert_array_equal(res.std_errors, [0.0, 0.0])

    def test_matches_exact_finite_horizon(self, ex1):
        cfg = rw.SimConfig(n_paths=200_000, horizon_T=50, seed=20240810,
                           u_values=(0, 1, 2, 5))
        res = rw.simulate(ex1.model, cfg)
        exact = rw.finite_survival(ex1.model, 5, 50).phis
        for u, est, se in zip(res.u_values, res.estimates, res.std_errors):
            assert abs(est - exact[u]) <= 3.0 * max(se, 1e-12)

    def test_estimates_are_probabilities(self, ex2):
        res = rw.simulate(ex2.model, rw.SimConfig(
            n_paths=50_000, horizon_T=40, seed=5, u_values=(0, 1, 2, 3)))
        assert np.all(res.estimates >= 0) and np.all(res.estimates <= 1)
        assert np.all(np.diff(res.estimates) >= 0)   # monotone in u
        assert res.n_paths == 50_000

    def test_config_validation(self):
        with pytest.raises(rw.ModelError):
            rw.SimConfig(n_paths=0, horizon_T=5, seed=1, u_values=(1,))
        with pytest.raises(rw.ModelError):
            rw.SimConfig(n_paths=5, horizon_T=0, seed=1, u_values=(1,))
        with pytest.raises(rw.ModelError):
            rw.SimConfig(n_paths=5, horizon_T=5, seed=1, u_values=())
