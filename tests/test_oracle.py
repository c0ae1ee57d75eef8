"""Simulation and enumeration oracles, and their agreement with the solver."""

import itertools

import numpy as np
import pytest

import ruinwalk as rw
from ruinwalk.oracle import _StepSampler, _retire

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


def _step_53(cum, lo, k):
    """The step law on 53-bit values k: clip(lo + #{cum <= k 2^-53})."""
    found = np.searchsorted(cum, np.asarray(k, dtype=np.int64) * 2.0 ** -53,
                            side="right")
    return np.minimum(lo + found, lo + len(cum) - 1)


def _reference_simulate(model, cfg):
    """simulate's survivor counts from a plain walk with no step table.

    Each step of n live paths reads ceil(n/4) PCG64 words and splits each
    word w arithmetically into the draws (w >> 16j) & (2^16 - 1) for
    j = 0, 1, 2, 3, in that order; a draw x stands for k = x 2^37 + r. A
    draw whose interval [x 2^37, x 2^37 + 2^37 - 1] gives two steps takes
    r as the top 37 bits of one more word, drawn after the step's words
    in draw order. The walk is int64. After every 8th step the paths
    whose maximum has reached max(u) retire: with `keep` paths left, the
    survivors in slots `keep` on fill the retired slots below `keep`, both
    in slot order, and draw i of the next step goes to slot i.
    """
    cum, lo = _step_table(model)
    u = np.array(cfg.u_values, dtype=np.int64)
    survived = np.zeros(len(u), dtype=np.int64)
    block = 1 << 16
    n_blocks = -(-cfg.n_paths // block)
    streams = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    for b in range(n_blocks):
        bitgen = np.random.PCG64(streams[b])
        size = min(block, cfg.n_paths - b * block)
        running = np.zeros(size, dtype=np.int64)
        maxes = np.full(size, np.iinfo(np.int64).min)
        for t in range(1, cfg.horizon_T + 1):
            n = running.size
            if n == 0:
                break
            words = bitgen.random_raw(-(-n // 4))
            draws = np.empty(4 * words.size, dtype=np.int64)
            for j in range(4):
                draws[j::4] = words >> np.uint64(16 * j) & np.uint64(0xFFFF)
            k = draws[:n] << 37
            steps = _step_53(cum, lo, k)
            split = np.flatnonzero(_step_53(cum, lo, k + 2 ** 37 - 1)
                                   != steps)
            r = bitgen.random_raw(split.size) >> np.uint64(27)
            steps[split] = _step_53(cum, lo, k[split] + r.astype(np.int64))
            running += steps
            maxes = np.maximum(maxes, running)
            if t % 8:
                continue
            gone = np.flatnonzero(maxes >= u.max())
            keep = n - gone.size
            holes = gone[gone < keep]
            tail = keep + np.flatnonzero(maxes[keep:] < u.max())
            running[holes], maxes[holes] = running[tail], maxes[tail]
            running, maxes = running[:keep], maxes[:keep]
        survived += [np.count_nonzero(maxes < v) for v in u]
    return survived


class _Words:
    """A bit generator that hands out given 64-bit words in order."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)
        self.used = 0

    def random_raw(self, size):
        out = self.words[self.used:self.used + size]
        assert out.size == size, "sampler drew past the crafted words"
        self.used += size
        return out.copy()


STEP_TABLES = {
    "zero_interior": lambda: _step_table(rw.build_model(
        rw.Pmf.from_weights(0, [0.5, 0.0, 0.0, 0.5]), rw.Pmf.point(2))),
    "tail_below_bucket": lambda: _step_table(rw.build_model(
        rw.Pmf.from_weights(0, [1.0 - 1e-4, 1e-4]), rw.Pmf.point(1))),
    # cum[-2] = 1 - 2^-53 splits the last draw's interval
    "example2": lambda: _step_table(make_example2()),
    "example4_cap10": lambda: _step_table(make_example4(10).build()),
    "point_mass": lambda: _step_table(
        rw.build_model(rw.Pmf.point(0), rw.Pmf.point(1))),
    # a table that ends far below 1, so whole intervals lie past it
    "short_table": lambda: (np.array([0.25, 0.5]), -1),
    # cdf values one past the start and at the end of a draw's interval
    "interval_ends": lambda: (np.array([0.5 + 2.0 ** -53,
                                        0.75 + (2 ** 37 - 1) * 2.0 ** -53,
                                        1.0]), 0),
    # a last cdf value inside a draw's interval, the one before it below:
    # the clip gives both ends the top step, so the draw is not split
    "ends_inside": lambda: (np.array([0.25, 0.75 + 2.0 ** -40]), 0),
    # rounded sums past 1 before the last cdf value: no draw holds them
    "past_one": lambda: (np.array([0.5, 1.0 + 2.0 ** -52,
                                   1.0 + 2.0 ** -51]), 0),
}


def _split_draws(cum, lo, draws):
    """Where the steps at the two ends of each draw's interval differ."""
    k = np.asarray(draws, dtype=np.int64) << 37
    return _step_53(cum, lo, k) != _step_53(cum, lo, k + 2 ** 37 - 1)


# the two walk dtypes simulate picks from; each sampler test holds both to
# the same expected steps, so the dtype moves no count
WALKS = (np.int16, np.int32)


class TestStepSampler:
    @pytest.mark.parametrize("law", list(STEP_TABLES))
    def test_step_table(self, law):
        # every one of the 2^16 entries is the step at both ends of its
        # draw's interval, or the walk dtype's maximum exactly where those
        # two differ
        cum, lo = STEP_TABLES[law]()
        draws = np.arange(1 << 16, dtype=np.int64)
        split = _split_draws(cum, lo, draws)
        steps = _step_53(cum, lo, draws << 37)
        for walk in WALKS:
            sampler = _StepSampler(cum, lo, 1, walk)
            assert sampler.hard == np.iinfo(walk).max
            got = sampler.step_of
            assert got.dtype == walk
            np.testing.assert_array_equal(got, np.where(split, sampler.hard,
                                                        steps))
        # a cdf value of at most 16 bits starts a draw's interval and
        # splits none, nor does one past 1 or the last one
        assert split.any() or law in ("zero_interior", "point_mass",
                                      "short_table", "ends_inside",
                                      "past_one")

    @pytest.mark.parametrize("law", list(STEP_TABLES))
    def test_matches_binary_search(self, law):
        # 16-bit draws at 0 and 2^16 - 1 and at the draw that holds each
        # cdf value and its two neighbours, cut so that n = 1, 2 and 3
        # (mod 4); each draw that splits a cdf value takes the top 37 bits
        # of one extra word, here r = 0, 2^37 - 1 and one between, under
        # low bits that must be ignored
        cum, lo = STEP_TABLES[law]()
        held = np.floor(cum * 2.0 ** 16).astype(np.int64)
        pool = np.concatenate([[0, 2 ** 16 - 1], held - 1, held, held + 1])
        pool = pool[(pool >= 0) & (pool < 2 ** 16)]
        for spare in (3, 2, 1):     # top lanes of the last word left unused
            draws = np.resize(pool, 4 * len(pool) - spare)
            split = np.flatnonzero(_split_draws(cum, lo, draws))
            # the unused lanes hold 2^16 - 1, which splits on some laws:
            # they must take no extra word
            lanes = np.append(draws, [2 ** 16 - 1] * spare).astype(np.uint64)
            words = (lanes[0::4] | lanes[1::4] << np.uint64(16)
                     | lanes[2::4] << np.uint64(32)
                     | lanes[3::4] << np.uint64(48))
            for r, walk in itertools.product(
                    (0, 2 ** 37 - 1, 0x15A5A5A5A5), WALKS):
                extra = np.full(split.size, r << 27 | 0x5A5A5A5,
                                dtype=np.uint64)
                stub = _Words(np.concatenate([words, extra]))
                got = _StepSampler(cum, lo, draws.size, walk).steps(
                    stub, draws.size)
                assert got.dtype == walk
                assert stub.used == words.size + split.size
                np.testing.assert_array_equal(
                    got, _step_53(cum, lo, (draws << 37) + r))


class TestRetire:
    # u_big = 10: a path retires where its maximum is 10 or more; each
    # position is its max less 3, so a moved pair shows as one, and a path
    # with a max of 10 to 12 has crossed u_big and fallen back below it
    @pytest.mark.parametrize("maxes, want", [
        ([3, 1, 4, 1, 5], [3, 1, 4, 1, 5]),
        ([10, 12, 99, 10], []),
        ([3, 1, 4, 10, 11], [3, 1, 4]),
        ([12, 1, 10, 2, 3, 4, 15, 5, 11], [4, 1, 5, 2, 3]),
        ([1, 10, 2, 11, 3, 12, 4, 5, 13, 6], [1, 4, 2, 5, 3, 6]),
        ([10, 3, 11, 4], [4, 3]),
    ], ids=["none", "all", "only_past_keep", "holes_in_slot_order",
            "interleaved", "fell_back"])
    def test_survivors_fill_the_holes_in_slot_order(self, maxes, want):
        maxes = np.array(maxes, dtype=np.int16)
        running = maxes - 3
        got_running, got_maxes = _retire(running, maxes, 10)
        np.testing.assert_array_equal(got_maxes, want)
        np.testing.assert_array_equal(got_running, got_maxes - 3)
        # views of the inputs: nothing is reallocated
        for got, given in ((got_running, running), (got_maxes, maxes)):
            assert got is given or got.base is given


class TestSimulate:
    @pytest.mark.parametrize("make, n_paths, horizon_T, counts", [
        (make_example2, 70_000, 60, [37512, 48729, 56161, 66143, 69558]),
        (lambda: make_example4(10).build(), 70_000, 60,
         [3808, 8041, 12983, 27636, 47242]),
        (make_example2, 200_000, 30,
         [107208, 139475, 160602, 189021, 198722]),
        (lambda: make_example4(10).build(), 200_000, 30,
         [14684, 31261, 50744, 105197, 165651]),
        # reach 2000 * 17 = 34 000, past int16: the int32 walk
        (lambda: make_example4(10).build(), 5_000, 2_000,
         [71, 146, 231, 501, 885]),
    ], ids=["example2", "example4_cap10", "example2_4_blocks",
            "example4_cap10_4_blocks", "example4_cap10_int32"])
    def test_pinned_stream(self, make, n_paths, horizon_T, counts):
        # one full block and one partial, three full blocks and one
        # partial, or one partial block; the survivor counts are those of
        # the reference walk above, and simulate must match it bit for bit
        model = make()
        cfg = rw.SimConfig(n_paths=n_paths, horizon_T=horizon_T,
                           seed=20231018, u_values=(0, 1, 2, 5, 10))
        np.testing.assert_array_equal(_reference_simulate(model, cfg), counts)
        res = rw.simulate(model, cfg)
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

    @pytest.mark.parametrize("horizon_T, walk", [
        (2 ** 15 - 2, np.int16), (2 ** 15 - 1, np.int32)],
        ids=["int16_below_limit", "int32_at_limit"])
    def test_walk_dtype_from_reach(self, monkeypatch, horizon_T, walk):
        # steps -1 and 0: the reach is the horizon itself
        class Built(Exception):
            pass

        def sampler(cum, lo, size, dtype):
            raise Built(dtype)
        monkeypatch.setattr("ruinwalk.oracle._StepSampler", sampler)
        model = rw.build_model(rw.Pmf.from_weights(0, [0.5, 0.5]),
                               rw.Pmf.point(1))
        cfg = rw.SimConfig(n_paths=1, horizon_T=horizon_T, seed=1,
                           u_values=(0,))
        with pytest.raises(Built) as built:
            rw.simulate(model, cfg)
        assert built.value.args == (walk,)

    def test_thresholds_past_int32(self, ex2):
        # reach 30 * 49: the int16 walk against Python-int thresholds
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

    def test_matches_exact_finite_horizon_at_drift_near_zero(self):
        # Example 4 at cap 10 has drift -0.01 and loses about 90% of its
        # paths over T = 200, so most steps retire some; the seed is fixed
        model = make_example4(10).build()
        u_values = (0, 1, 2, 5, 10)
        res = rw.simulate(model, rw.SimConfig(
            n_paths=200_000, horizon_T=200, seed=20231018,
            u_values=u_values))
        exact = rw.finite_survival(model, 10, 200).phis[list(u_values)]
        se = np.sqrt(exact * (1.0 - exact) / 200_000)
        assert np.all(np.abs(res.estimates - exact) <= 5.0 * se)

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
        with pytest.raises(rw.ModelError, match="seed must be >= 0"):
            rw.SimConfig(n_paths=5, horizon_T=5, seed=-1, u_values=(1,))
        # int() would take u = 0.5 to 0, where the walk's P(max < 0.5) is
        # phi(1); a float or a bool is refused, integral or not
        for field, value in [("u", 0.5), ("u", 2.0), ("u", True),
                             ("n_paths", 250.0), ("n_paths", True),
                             ("horizon_T", 5.0), ("seed", 7.0),
                             ("seed", np.float64(7))]:
            kwargs = dict(n_paths=5, horizon_T=5, seed=1, u_values=(1,))
            if field == "u":
                kwargs["u_values"] = (1, value)
            else:
                kwargs[field] = value
            with pytest.raises(rw.ModelError,
                               match=f"{field} must be an integer"):
                rw.SimConfig(**kwargs)
        # numpy integers are taken, and stored as Python ints
        cfg = rw.SimConfig(n_paths=np.int64(5), horizon_T=np.int32(5),
                           seed=np.uint64(1), u_values=(np.int16(1), 2))
        for value in (cfg.n_paths, cfg.horizon_T, cfg.seed, *cfg.u_values):
            assert type(value) is int
        assert (cfg.n_paths, cfg.horizon_T, cfg.seed, cfg.u_values) == \
            (5, 5, 1, (1, 2))
