"""Simulation and enumeration oracles, and their agreement with the solver."""

import ast
import itertools
import math
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import ruinwalk as rw
from ruinwalk import oracle
from ruinwalk.oracle import _lundberg, _retire, _StepSampler

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

    @pytest.mark.parametrize("value", [3.0, 0.5, True, "3", None],
                             ids=["float_3", "float_half", "bool", "str",
                                  "none"])
    @pytest.mark.parametrize("field", ["u", "T"])
    def test_integer_arguments(self, ex1, field, value):
        # a numpy integer gives the int result; anything else that is not
        # an int raises ModelError: truncating u = 0.5 would give phi(1, 3)
        args = {"u": np.int64(2), "T": np.int32(3)}
        assert rw.enumerate_finite(ex1.model, **args) == \
            rw.enumerate_finite(ex1.model, 2, 3)
        args[field] = value
        with pytest.raises(rw.ModelError,
                           match=f"{field} must be an integer"):
            rw.enumerate_finite(ex1.model, **args)

    def test_lattice_budget(self, ex1):
        with pytest.raises(rw.ResourceError):
            rw.enumerate_finite(ex1.model, 100, 100_000)

    def test_budget_refuses_at_once(self, ex1):
        # the cell count is the sum of u + m t + 1 over t = 1..T, in closed
        # form: a summing loop would take about 90 s at T = 10^9
        m = ex1.model.max_drop
        cells = sum(100 + m * t + 1 for t in range(1, 10 ** 4 + 1))
        with pytest.raises(rw.ResourceError,
                           match=f"enumeration needs {cells} lattice cells"):
            rw.enumerate_finite(ex1.model, 100, 10 ** 4)
        start = time.perf_counter()
        with pytest.raises(rw.ResourceError):
            rw.enumerate_finite(ex1.model, 100, 10 ** 9)
        assert time.perf_counter() - start < 1.0

    def test_random_model_agreement(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            model = random_admissible_model(rng, m_max=4, claim_max_len=4)
            u = int(rng.integers(0, 11))
            T = int(rng.integers(1, 13))
            a = rw.enumerate_finite(model, u, T)
            b = float(rw.finite_survival(model, u, T).phis[u])
            assert a == pytest.approx(b, abs=1e-12)


def make_plunge():
    """Claims 0, 49 or 51 with probabilities 0.02, 0.49 and 0.49 against a
    premium of 50: a +-1 walk that plunges by 50 now and then, so some
    paths fall past the floor while others still hover near u = 0."""
    return rw.build_model(
        rw.Pmf.from_weights(0, [0.02] + [0.0] * 48 + [0.49, 0.0, 0.49]),
        rw.Pmf.point(50))


def _step_table(model):
    return np.cumsum(model.step.weights), model.step.support_min


def _step_53(cum, lo, k):
    """The step law on 53-bit values k: clip(lo + #{cum <= k 2^-53})."""
    found = np.searchsorted(cum, np.asarray(k, dtype=np.int64) * 2.0 ** -53,
                            side="right")
    return np.minimum(lo + found, lo + len(cum) - 1)


def _reference_simulate(model, cfg, floor=None):
    """simulate's survivor counts from a plain walk with no step table.

    Each step of n live paths reads ceil(n/4) PCG64 words and splits each
    word w arithmetically into the draws (w >> 16j) & (2^16 - 1) for
    j = 0, 1, 2, 3, in that order; a draw x stands for k = x 2^37 + r. A
    draw whose interval [x 2^37, x 2^37 + 2^37 - 1] gives two steps takes
    r as the top 37 bits of one more word, drawn after the step's words
    in draw order. The walk is int64. After every 8th step the paths
    whose maximum has reached max(u) retire, and so do the paths at or
    below `floor`, if one is given, each counted as a survivor of every u
    above its maximum: with `keep` paths left, the survivors in slots
    `keep` on fill the retired slots below `keep`, both in slot order,
    and draw i of the next step goes to slot i.
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
            low = np.zeros(n, dtype=bool) if floor is None else \
                running <= floor
            survived += [np.count_nonzero(maxes[low] < v) for v in u]
            out = (maxes >= u.max()) | low
            gone = np.flatnonzero(out)
            keep = n - gone.size
            holes = gone[gone < keep]
            tail = keep + np.flatnonzero(~out[keep:])
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
    # a cdf value less than 2^-53 below the start of draw 64's interval:
    # every k of draw 63 lies below it and every k of draw 64 above, so
    # it splits neither
    "below_a_boundary": lambda: (np.array([2.0 ** -10 - 2.0 ** -60, 1.0]),
                                 0),
}


def _split_draws(cum, lo, draws):
    """Where the steps at the two ends of each draw's interval differ."""
    k = np.asarray(draws, dtype=np.int64) << 37
    return _step_53(cum, lo, k) != _step_53(cum, lo, k + 2 ** 37 - 1)


def _random_laws(n_laws):
    """Seeded step cdfs with 2 to 60 values from Dirichlet draws, sparse
    or flat. Every other one has some values moved onto j 2^-16 for a j
    up to 2^9, the start of draw j's interval, or 2^-60 below it; both
    floats are exact, and 2^53 times the lower one lies within 1 below
    that start."""
    rng = np.random.default_rng(20231101)
    for i in range(n_laws):
        size = int(rng.integers(2, 61))
        alpha = rng.choice([0.05, 1.0, 20.0])
        cum = np.cumsum(rng.dirichlet(np.full(size, alpha)))
        if i % 2:
            at = rng.choice(size - 1, size=int(rng.integers(1, size)),
                            replace=False)
            cum[at] = (rng.integers(1, 2 ** 9 + 1, at.size) * 2.0 ** -16
                       - rng.integers(0, 2, at.size) * 2.0 ** -60)
            cum.sort()
        yield cum, int(rng.integers(-40, 10))


def _lane_words(draws):
    """The 64-bit words whose 16-bit lanes, lowest first, are `draws`;
    the lanes past the last draw hold 2^16 - 1."""
    lanes = np.append(draws, [2 ** 16 - 1] * (-len(draws) % 4))
    lanes = lanes.astype(np.uint64)
    return (lanes[0::4] | lanes[1::4] << np.uint64(16)
            | lanes[2::4] << np.uint64(32) | lanes[3::4] << np.uint64(48))


# the two walk dtypes simulate picks from; each sampler test holds both to
# the same expected steps, so the dtype moves no count
WALKS = (np.int16, np.int32)


def _assert_step_table(cum, lo):
    """Every one of the 2^16 entries is the step at both ends of its
    draw's interval, or the walk dtype's maximum exactly where those two
    differ; return whether any draw is split."""
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
    return split.any()


def _assert_law(cum, lo):
    """The law gives step lo + i to a run of p_i 2^53 values of k, the
    runs in order from k = 0; the binary search gives that step at both
    ends of each run, so to every k in it."""
    p = _StepSampler(cum, lo, 1, np.int16).law()
    assert len(p) == len(cum) and np.all(p >= 0.0)
    counts = p * 2.0 ** 53
    np.testing.assert_array_equal(counts, np.round(counts))
    assert math.fsum(counts) == 2.0 ** 53
    start = np.concatenate([[0.0], np.cumsum(counts)[:-1]])
    full = np.flatnonzero(counts)
    for ends in (start[full], start[full] + counts[full] - 1):
        np.testing.assert_array_equal(
            _step_53(cum, lo, ends.astype(np.int64)), lo + full)


class TestStepSampler:
    @pytest.mark.parametrize("law", list(STEP_TABLES))
    def test_step_table(self, law):
        cum, lo = STEP_TABLES[law]()
        # a cdf value of at most 16 bits starts a draw's interval and
        # splits none, nor does one less than 2^-53 below such a start,
        # one past 1 or the last one
        assert _assert_step_table(cum, lo) or law in (
            "zero_interior", "point_mass", "short_table", "ends_inside",
            "past_one", "below_a_boundary")

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
            words = _lane_words(draws)
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


    @pytest.mark.parametrize("law", list(STEP_TABLES))
    def test_law_is_the_step_map(self, law):
        _assert_law(*STEP_TABLES[law]())

    def test_random_laws(self):
        # the table, the hard draws and the law on 200 seeded cdfs; a hard
        # draw at each cdf value's first k and the k before it, which the
        # binary search puts on the two sides of that value
        for cum, lo in _random_laws(200):
            _assert_step_table(cum, lo)
            _assert_law(cum, lo)
            k = np.ceil(cum * 2.0 ** 53).astype(np.int64)
            k = np.concatenate([k, k - 1])
            k = k[(k >= 0) & (k < 2 ** 53)]
            split = _split_draws(cum, lo, k >> 37)
            r = (k[split] & (2 ** 37 - 1)).astype(np.uint64)
            stub = _Words(np.concatenate([_lane_words(k >> 37),
                                          r << np.uint64(27)]))
            for walk in WALKS:
                stub.used = 0
                got = _StepSampler(cum, lo, k.size, walk).steps(stub, k.size)
                assert stub.used == stub.words.size
                np.testing.assert_array_equal(got, _step_53(cum, lo, k))


def _pm1_walk(p_up):
    """Claims 0 or 2 against a premium of 1: steps -1 and +1."""
    return rw.build_model(rw.Pmf.from_weights(0, [1.0 - p_up, 0.0, p_up]),
                          rw.Pmf.point(1))


def _gamma(model):
    """gamma, and the law and lowest step it was found on."""
    cum, lo = _step_table(model)
    p = _StepSampler(cum, lo, 1, np.int16).law()
    return _lundberg(p, lo), p, lo


class TestLundberg:
    @pytest.mark.parametrize("make, gamma", [
        (lambda: _pm1_walk(0.3), math.log(0.7 / 0.3)),
        (lambda: _pm1_walk(0.1), math.log(9.0)),
        (make_example2, 0.42866),
        (lambda: make_example4(10).build(), 0.00995),
        (make_plunge, 0.2017),
    ], ids=["pm1_0.3", "pm1_0.1", "example2", "example4_cap10", "plunge"])
    def test_mgf_at_gamma_is_below_one(self, make, gamma):
        # on the +-1 walk gamma is ln(q/p), where the mgf is 1; elsewhere
        # the value is quoted to its digits. A 50-digit sum on the law the
        # sampler draws puts the mgf at gamma at or below 1 - 1e-12 + 1e-15
        got, p, lo = _gamma(make())
        digits = len(f"{gamma}".split(".")[1])
        assert got == pytest.approx(gamma, rel=1e-9, abs=0.6 * 10 ** -digits)
        with mp.workdps(50):
            mgf = mp.fsum(mp.mpf(float(pj)) * mp.exp(mp.mpf(got) * (lo + i))
                          for i, pj in enumerate(p))
            assert mgf <= 1 - mp.mpf(1e-12) + mp.mpf(1e-15)
            # and gamma is the largest such, to the bisection's width
            above = mp.fsum(mp.mpf(float(pj))
                            * mp.exp(mp.mpf(got * (1 + 1e-9)) * (lo + i))
                            for i, pj in enumerate(p))
            assert above > 1 - mp.mpf(1e-12)

    @pytest.mark.parametrize("model", [
        _pm1_walk(0.5),
        rw.build_model(rw.Pmf.point(0), rw.Pmf.point(1)),
        rw.build_model(rw.Pmf.from_weights(0, [0.5, 0.5]), rw.Pmf.point(1)),
    ], ids=["zero_drift", "no_up_step", "steps_minus_1_and_0"])
    def test_no_gamma(self, model):
        assert _gamma(model)[0] is None
        res = rw.simulate(model, rw.SimConfig(n_paths=1_000, horizon_T=200,
                                              seed=3, u_values=(0, 1)))
        assert (res.floor, res.floored) == (None, 0)

    @pytest.mark.parametrize("make, horizon_T, floor", [
        # -T * max_drop is -2000 against a floor of -4459
        (lambda: make_example4(10).build(), 200, None),
        # 25 steps of -4 reach -100, 26 reach the floor at -104
        (make_example2, 25, None),
        (make_example2, 26, -104),
    ], ids=["example4_cap10_t200", "example2_t25", "example2_t26"])
    def test_no_floor_past_the_walks_reach(self, make, horizon_T, floor):
        res = rw.simulate(make(), rw.SimConfig(
            n_paths=1_000, horizon_T=horizon_T, seed=3,
            u_values=(0, 1, 2, 5, 10)))
        assert res.floor == floor
        if floor is None:
            assert res.floored == 0

    def test_floor_from_the_smallest_u(self):
        # from the floor a path reaches min(u), the likeliest u to change a
        # count, with probability at most 2^-64: the floor moves with min(u)
        # and not with max(u)
        gamma = _gamma(make_example2())[0]
        drop = math.ceil(64 * math.log(2.0) / gamma)
        for u_values in ((0, 1, 2, 5, 10), (0, 40), (3, 10)):
            res = rw.simulate(make_example2(), rw.SimConfig(
                n_paths=1_000, horizon_T=200, seed=3, u_values=u_values))
            assert res.floor == min(u_values) - drop


class TestOracleIndependence:
    def test_imports_only_errors_and_model(self):
        # the oracle must share no numerics with the solver: from the
        # package it may take the error types and the model alone
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        local, foreign = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                (local if node.level else foreign).add(node.module)
            elif isinstance(node, ast.Import):
                foreign.update(a.name.split(".")[0] for a in node.names)
        assert local == {"errors", "model"}
        assert foreign <= {"__future__", "math", "dataclasses", "numpy"}


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
        survived = np.zeros(1, dtype=np.int64)
        flag = np.ones(maxes.size + 2, dtype=bool)
        got_running, got_maxes, floored = _retire(running, maxes, [10],
                                                  survived, None, flag)
        np.testing.assert_array_equal(got_maxes, want)
        np.testing.assert_array_equal(got_running, got_maxes - 3)
        assert floored == 0 and survived[0] == 0
        # views of the inputs: nothing is reallocated
        for got, given in ((got_running, running), (got_maxes, maxes)):
            assert got is given or got.base is given

    # u = 0, 5, 10 and a floor of -5: a path at or below -5 retires as a
    # survivor of each u above its maximum, unless its maximum has reached
    # 10, where it fails every u wherever it stands
    @pytest.mark.parametrize("running, maxes, want, tally, floored", [
        ([-6, 1, -5, -20, 2], [3, 4, 12, 0, 5], [2, 1], [0, 2, 2], 2),
        ([-9, -9], [-1, 2], [], [1, 2, 2], 2),
        ([-4, -5, 0], [-4, 11, 10], [-4], [0, 0, 0], 0),
        ([-5, 6, -4], [-5, 9, 9], [-4, 6], [1, 1, 1], 1),
        ([-4, 3, 0], [0, 9, 9], [-4, 3, 0], [0, 0, 0], 0),
    ], ids=["low_and_failed", "all_low", "low_but_failed",
            "low_slot_0_filled", "none_low"])
    def test_low_paths_retire_as_survivors(self, running, maxes, want, tally,
                                           floored):
        running = np.array(running, dtype=np.int16)
        maxes = np.array(maxes, dtype=np.int16)
        where = {int(r): int(m) for r, m in zip(running, maxes)}
        survived = np.array([7, 7, 7], dtype=np.int64)
        flag = np.zeros(running.size, dtype=bool)
        got_running, got_maxes, low = _retire(running, maxes, [0, 5, 10],
                                              survived, -5, flag)
        np.testing.assert_array_equal(got_running, want)
        # each survivor keeps its own maximum
        assert [where[r] for r in got_running.tolist()] == \
            got_maxes.tolist()
        np.testing.assert_array_equal(survived, np.add(tally, 7))
        assert low == floored


class TestSimulate:
    @pytest.mark.parametrize("make, n_paths, horizon_T, floor, floored, "
                             "counts", [
        (make_example2, 70_000, 60, -104, 0,
         [37512, 48729, 56161, 66143, 69558]),
        (lambda: make_example4(10).build(), 70_000, 60, None, 0,
         [3808, 8041, 12983, 27636, 47242]),
        (make_example2, 200_000, 30, -104, 0,
         [107208, 139475, 160602, 189021, 198722]),
        (lambda: make_example4(10).build(), 200_000, 30, None, 0,
         [14684, 31261, 50744, 105197, 165651]),
        # reach 2000 * 17 = 34 000, past int16: the int32 walk
        (lambda: make_example4(10).build(), 5_000, 2_000, -4459, 0,
         [71, 146, 231, 501, 885]),
        # without the floor the reference walk gives
        # [7832, 13134, 24049, 46506, 63187]
        (make_plunge, 70_000, 60, -220, 396,
         [7779, 13087, 24006, 46439, 63192]),
    ], ids=["example2", "example4_cap10", "example2_4_blocks",
            "example4_cap10_4_blocks", "example4_cap10_int32", "plunge"])
    def test_pinned_stream(self, make, n_paths, horizon_T, floor, floored,
                           counts):
        # one full block and one partial, three full blocks and one
        # partial, or one partial block; the survivor counts are those of
        # the reference walk above at the pinned floor, and simulate must
        # match it bit for bit
        model = make()
        cfg = rw.SimConfig(n_paths=n_paths, horizon_T=horizon_T,
                           seed=20231018, u_values=(0, 1, 2, 5, 10))
        np.testing.assert_array_equal(_reference_simulate(model, cfg, floor),
                                      counts)
        res = rw.simulate(model, cfg)
        assert (res.floor, res.floored) == (floor, floored)
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

    @pytest.mark.parametrize("u", [40_000, 2 ** 40],
                             ids=["past_int16", "past_int32"])
    def test_floor_past_the_walk_dtype(self, ex2, u):
        # reach 30 * 49 walks in int16, yet the floor u - 104 lies past
        # the dtype's maximum: every path starts below it and retires
        # there as a survivor at the first pass
        res = rw.simulate(ex2.model, rw.SimConfig(
            n_paths=1_000, horizon_T=30, seed=3, u_values=(u,)))
        assert (res.floor, res.floored) == (u - 104, 1_000)
        np.testing.assert_array_equal(res.estimates, [1.0])
        np.testing.assert_array_equal(res.std_errors, [0.0])

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

    def test_example2_floored_matches_exact_finite_horizon(self):
        # Example 2 at 200 000 paths and T = 200: most paths retire at the
        # floor, and the estimates still lie within 5 standard errors
        model = make_example2()
        u_values = (0, 1, 2, 5, 10)
        res = rw.simulate(model, rw.SimConfig(
            n_paths=200_000, horizon_T=200, seed=20231018,
            u_values=u_values))
        assert res.floor == -104 and res.floored > 100_000
        assert type(res.floored) is int
        exact = rw.finite_survival(model, 10, 200).phis[list(u_values)]
        se = np.sqrt(exact * (1.0 - exact) / 200_000)
        assert np.all(np.abs(res.estimates - exact) <= 5.0 * se)

    def test_estimates_are_probabilities(self, ex2):
        res = rw.simulate(ex2.model, rw.SimConfig(
            n_paths=50_000, horizon_T=40, seed=5, u_values=(0, 1, 2, 3)))
        assert np.all(res.estimates >= 0) and np.all(res.estimates <= 1)
        assert np.all(np.diff(res.estimates) >= 0)   # monotone in u
        assert res.n_paths == 50_000

    @pytest.mark.parametrize("value, message", [
        (3, "u_values must be a sequence"),
        (2.0, "u_values must be a sequence"),
        (None, "u_values must be a sequence"),
        ("12", "u must be an integer"),
        ([1, 2.0], "u must be an integer"),
    ], ids=["int", "float", "none", "str", "float_inside"])
    def test_u_values_must_be_a_sequence_of_integers(self, value, message):
        # a bare int or a float is not a sequence: ModelError, not TypeError
        with pytest.raises(rw.ModelError, match=message):
            rw.SimConfig(n_paths=5, horizon_T=5, seed=1, u_values=value)

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
