"""Independent verification of the analytic pipeline.

Two checks that share no code with the solver: Monte Carlo simulation of
the walk's running maximum (PCG64 streams, reproducible bit-for-bit from
the seed; an int16 walk, or int32 where its reach needs it, fed four
steps per 64-bit word, one from each 16-bit lane, each step one table
lookup and rarely 37 more bits; every 8 steps the paths whose maximum
reached max(u) are retired in place, the tail's survivors filling the
freed slots by index, and so are the paths that Lundberg's bound on the
sampled step law puts out of reach of every u, as survivors)
and exact small-instance enumeration of the survival probability by
dynamic programming over partial-sum distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, ResourceError, _integer
from .model import RiskModel

# Paths are simulated in fixed-size blocks, one spawned PCG64 substream
# per block, so results depend only on (seed, n_paths).
_BLOCK = 1 << 16

# bits of a 16-bit draw, and of a 53-bit value below it, drawn only where
# needed
_DRAW_BITS = 16
_LOW_BITS = 53 - _DRAW_BITS
# steps between two retirement passes: a pass scans every live path, and
# a path that crossed max(u) fails every u whenever it is dropped
_RETIRE_EVERY = 8
# a path retires as a survivor where the chance that it would still have
# changed a count is at most 2^-_EPS_BITS
_EPS_BITS = 64
# Lundberg's gamma keeps the step law's mgf this far below 1, far above
# the few ulps by which the summed mgf can be off
_MGF_SLACK = 1e-12
_BISECTIONS = 40

ENUM_CELL_BUDGET = 10 ** 7


@dataclass(frozen=True)
class SimConfig:
    n_paths: int
    horizon_T: int
    seed: int
    u_values: tuple

    def __post_init__(self):
        for name in ("n_paths", "horizon_T", "seed"):
            object.__setattr__(self, name,
                               _integer(name, getattr(self, name)))
        if self.n_paths < 1:
            raise ModelError("n_paths must be >= 1")
        if self.horizon_T < 1:
            raise ModelError("horizon_T must be >= 1")
        if self.seed < 0:
            raise ModelError("seed must be >= 0")
        try:
            u_values = tuple(self.u_values)
        except TypeError:
            raise ModelError("u_values must be a sequence of integers, got "
                             f"{self.u_values!r}") from None
        if len(u_values) == 0:
            raise ModelError("at least one u value is required")
        object.__setattr__(self, "u_values",
                           tuple(_integer("u", u) for u in u_values))


@dataclass(frozen=True)
class SimResult:
    """Estimates of P(sup_{1<=n<=T} S_n < u) with binomial standard errors."""

    u_values: tuple
    estimates: np.ndarray
    std_errors: np.ndarray
    n_paths: int
    horizon_T: int
    seed: int
    floor: int | None     # paths at or below it retired as survivors
    floored: int          # paths so retired, not counting failed ones


class _StepSampler:
    """The inverse-cdf step map k -> lo + #{edges <= k} over 53-bit values
    k, fed four draws per 64-bit PCG64 word.

    `edges`, the one cdf array, holds ceil(2^53 c) as int64 for every cdf
    value c but the last, capped at 2^53. For an integer k,
    ceil(2^53 c) <= k exactly where c <= k 2^-53, and leaving the last
    value out clips the step at the top of the support.

    Each step of n paths reads ceil(n/4) words from `random_raw`, taken as
    little-endian 64-bit words and then as their 16-bit lanes, so draw
    4w+j is bits 16j..16j+15 of word w on every platform; when n is not a
    multiple of 4, the unused top lanes of the last word are dropped. A
    draw x stands for the 53-bit value k = x 2^37 + r, whose low 37 bits r
    are drawn only where the step depends on them.

    `step_of` has one entry per draw, in the walk's dtype `walk` (int16
    or int32, as `simulate` picks it from the reach). It holds the step of
    every k in the draw's interval [x 2^37, x 2^37 + 2^37 - 1], or the
    sentinel `hard`, the dtype's maximum, where an edge lies inside the
    interval past its start, so that the steps at its two ends differ; no
    step is that large, as the walk's reach stays below it. That happens
    with probability at most (number of cdf values) * 2^-16 per draw. A
    hard draw takes r as the top 37 bits of one extra word, drawn after
    the step's words in draw order, and its step from one binary search
    of `edges`. Either dtype gives the same steps on the same words. The
    buffers hold up to `size` draws and are reused from call to call.
    """

    def __init__(self, cum: np.ndarray, lo: int, size: int, walk):
        self.hard = int(np.iinfo(walk).max)
        self.lo = lo
        # scaling by a power of 2 is exact, and so is the ceil
        self.edges = np.minimum(np.ceil(cum[:-1] * 2.0 ** 53),
                                2.0 ** 53).astype(np.int64)
        # draws from ceil(edge / 2^37) on start at or past the edge, so
        # the count steps up there; each run of draws gets its step, and
        # the walk-dtype table is the only large array
        first = -(-self.edges >> _LOW_BITS)
        runs = np.diff(first, prepend=0, append=1 << _DRAW_BITS)
        step = np.arange(lo, lo + len(cum)).astype(walk)
        self.step_of = np.repeat(step, runs)
        # an edge that is not a multiple of 2^37 lies past the start of
        # its draw's interval, and splits it
        inside = (self.edges & (2 ** _LOW_BITS - 1)) != 0
        self.step_of[self.edges[inside] >> _LOW_BITS] = self.hard
        self._words = np.empty((size + 3) // 4, dtype="<u8")
        self._draw = np.empty(size, dtype=np.intp)
        self._flag = np.empty(size, dtype=bool)
        self._steps = np.empty(size, dtype=walk)

    def steps(self, bitgen, n: int) -> np.ndarray:
        """The next `n` steps drawn from the bit generator `bitgen`; a view
        of the sampler's buffer."""
        # copied into a reused little-endian buffer: the lanes then come
        # in the same order on every platform, and random_raw's array is
        # freed before the step's small allocations (held through them, it
        # fragmented the heap: about +1 MB peak RSS over 20 horizon ops)
        words = self._words[:(n + 3) // 4]
        words[...] = bitgen.random_raw(words.size)
        lanes = words.view("<u2")[:n]
        draw, flag, steps = self._draw[:n], self._flag[:n], self._steps[:n]
        # take wants intp indices; copying them into a reused buffer spares
        # it a fresh cast of every step's draws
        np.copyto(draw, lanes)
        # every 16-bit draw is an entry, so no index wraps; "wrap" is the
        # cheapest mode that writes into `out`
        np.take(self.step_of, draw, out=steps, mode="wrap")
        hard = np.flatnonzero(np.equal(steps, self.hard, out=flag))
        if hard.size:
            # k = x 2^37 + r; r fills the low bits, so | adds it
            k = lanes[hard].astype(np.int64) << _LOW_BITS
            k |= (bitgen.random_raw(hard.size)
                  >> 64 - _LOW_BITS).astype(np.int64)
            steps[hard] = self.lo + np.searchsorted(self.edges, k,
                                                    side="right")
        return steps

    def law(self) -> np.ndarray:
        """P(step = lo + i) for i = 0..len(cum) - 1 under a uniform 53-bit
        k: the k from edges[i-1] up to edges[i] - 1 take step lo + i, where
        edges[-1] reads 0 and edges[len(cum) - 1] reads 2^53. Each entry is
        an integer count of at most 2^53 over 2^53, so the law is exact in
        float64.
        """
        return np.diff(self.edges, prepend=0, append=1 << 53) / 2.0 ** 53


def _lundberg(p: np.ndarray, lo: int) -> float | None:
    """The largest gamma > 0 with sum_j p_j e^(gamma j) <= 1 - _MGF_SLACK
    for the step law p on lo, lo + 1, ..., found by bisection, or None.

    The mgf is convex and 1 at gamma = 0, so these gamma form an
    interval, empty where the drift is >= 0 or there is no up-step. A
    point below 1 - _MGF_SLACK or where the mgf falls lies at or left of
    the interval's right end. It starts from log(1/p_top)/top, where the
    top up-step alone gives the mgf 1, so no term exceeds 1/p_top <= 2^53.
    None comes back where the bisection ends outside the interval: at a
    drift >= 0, or where the interval is narrower than its last step.
    The sums are `math.fsum`s of terms each a few ulps off, so the mgf
    the returned gamma gives is below 1 in exact arithmetic. With
    e^(gamma S_n) then a supermartingale, a walk from x reaches u with
    probability at most e^(-gamma (u - x)) over any horizon (Ville).
    """
    # plain floats: a numpy exp here would map its vector code into the
    # process, about 0.25 MB of resident pages for some 30 terms
    law = [(lo + i, x) for i, x in enumerate(p.tolist()) if x > 0.0]
    if not law or law[-1][0] <= 0:
        return None
    top, p_top = law[-1]

    def terms(gamma):
        return [x * math.exp(gamma * j) for j, x in law]

    below, above = 0.0, math.log(1.0 / p_top) / top
    for _ in range(_BISECTIONS):
        mid = 0.5 * (below + above)
        at_mid = terms(mid)
        if (math.fsum(at_mid) <= 1.0 - _MGF_SLACK
                or math.fsum(j * t for (j, _), t in zip(law, at_mid)) < 0.0):
            below = mid
        else:
            above = mid
    if math.fsum(terms(below)) > 1.0 - _MGF_SLACK:
        return None                # never inside: empty, or too thin
    return below


def _retire(running: np.ndarray, maxes: np.ndarray, u_sorted: list,
            survived: np.ndarray, floor: int | None,
            flag: np.ndarray) -> tuple:
    """Drop the paths whose maximum has reached max(u), and those at or
    below `floor`, in place; return the two arrays and the number of
    paths retired at the floor whose maximum is below max(u).

    A path at or below the floor retires as a survivor of every u above
    its maximum: its maximum is tallied into `survived`, one count per u
    in `u_sorted` it lies below. A path past max(u) fails every u
    wherever it stands. With `keep` paths left, the survivors in slots
    `keep` on fill the retired slots below `keep`, both in slot order,
    and the two arrays come back as views of their first `keep` entries.
    The decision is on the maxima, not on the positions: a path that
    crossed max(u) since the last pass and fell back below it is dropped
    too. The retirement mask is built in `flag`, a bool buffer at least
    as long as the arrays, and the retired slots are read from it with
    `np.flatnonzero`: the floor's tally takes their maxima by index, and
    the survivors move by index from slots `keep` on into the holes below
    `keep`. Only O(retired) entries move, and neither array is copied.
    `floor`, where given, is at or above the walk dtype's minimum: a path
    past max(u) is set to that minimum to retire with the low paths. A
    floor past the dtype's maximum retires every path.
    """
    u_big = u_sorted[-1]
    out = flag[:maxes.size]
    floored = 0
    np.greater_equal(maxes, u_big, out=out)
    if floor is None:
        gone = np.flatnonzero(out)
    else:
        # a path past max(u) is moved below the floor, where it retires
        # with the low paths and, its maximum past every u, adds no count
        np.copyto(running, np.iinfo(running.dtype).min, where=out)
        gone = np.flatnonzero(np.less_equal(running, floor, out=out))
        low_max = maxes.take(gone)
        below = [np.count_nonzero(low_max < u) for u in u_sorted]
        survived += below
        floored = int(below[-1])
    keep = maxes.size - gone.size
    # where few paths reach max(u) or the floor, most passes retire none
    if keep == maxes.size:
        return running, maxes, floored
    # as many survivors sit in slots keep on as there are holes below it;
    # index arrays move them in slot order, several times faster than
    # boolean indexing on int16
    holes = gone[:np.searchsorted(gone, keep)]
    rest = out[keep:]
    src = np.flatnonzero(np.logical_not(rest, out=rest))
    src += keep
    running[holes] = running.take(src)
    maxes[holes] = maxes.take(src)
    return running[:keep], maxes[:keep], floored


def simulate(model: RiskModel, cfg: SimConfig) -> SimResult:
    """Sample the running maximum of the step walk over T steps.

    Steps are drawn by inverse-cdf lookup, four per PCG64 word: each
    16-bit draw indexes a table of 2^16 steps, and each maps to the step a
    binary search of the int64 cdf edges ceil(2^53 F) gives its 53-bit
    value (see `_StepSampler`). The walk's dtype comes from its reach
    T * max|step|: int16 below 2^15 - 1, else int32, and a reach of
    2^31 - 1 or more raises `ResourceError` before any draw. Either dtype
    gives the same counts. One pass serves every requested u: each path
    records its running maximum, and every `_RETIRE_EVERY` steps the
    paths whose maximum has reached max(u) are retired, as they fail
    every requested threshold; until then such a path walks on, and its
    maximum only grows.

    The same passes retire the paths at or below the floor
    min(u) - ceil(64 ln 2 / gamma), gamma from `_lundberg` on the law the
    sampler draws (`_StepSampler.law`), as survivors of every u above
    their maximum. From there a path reaches min(u), and so any u, with
    probability at most 2^-64 over any horizon, so the law of the
    estimates is within total variation floored * 2^-64 of the walk's
    without the floor (at most 1.1e-14 at 200 000 paths). There is no
    floor (`floor` None) without a gamma, that is at a drift >= 0 or with
    no up-step, nor where it lies below -T * max_drop, out of every
    path's reach; the counts are then the walk's own.

    Retirement is in place (`_retire`): the survivors past the live count
    fill the retired slots below it, both in slot order, and draw i of
    the next step goes to live slot i. Each step is a fresh draw whatever
    slot a path sits in, so the law of the estimates depends neither on
    the slot order nor on when paths retire, though the counts a seed
    gives do.
    """
    reach = cfg.horizon_T * max(model.max_drop, model.step.support_max)
    if reach >= np.iinfo(np.int32).max:
        raise ResourceError(f"walk reach {reach} must stay below 2^31 - 1")
    walk = np.int16 if reach < np.iinfo(np.int16).max else np.int32
    cum = model.F(np.arange(model.step.support_min,
                            model.step.support_max + 1))
    u_sorted = sorted(set(cfg.u_values))

    sampler = _StepSampler(cum, model.step.support_min,
                           min(_BLOCK, cfg.n_paths), walk)
    gamma = _lundberg(sampler.law(), sampler.lo)
    floor = None
    if gamma is not None:
        # ceil rounding can cost gamma * drop a few ulps of 64 ln 2; the
        # mgf slack leaves the true Lundberg exponent far more above gamma
        floor = u_sorted[0] - math.ceil(_EPS_BITS * math.log(2.0) / gamma)
        if floor < -cfg.horizon_T * model.max_drop:
            floor = None
    survived = np.zeros(len(u_sorted), dtype=np.int64)
    floored = 0
    n_blocks = (cfg.n_paths + _BLOCK - 1) // _BLOCK
    streams = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    done = 0
    for b in range(n_blocks):
        size = min(_BLOCK, cfg.n_paths - done)
        done += size
        bitgen = np.random.PCG64(streams[b])
        running = np.zeros(size, dtype=walk)
        maxes = np.full(size, np.iinfo(walk).min, dtype=walk)
        for t in range(1, cfg.horizon_T + 1):
            if running.size == 0:
                break
            running += sampler.steps(bitgen, running.size)
            np.maximum(maxes, running, out=maxes)
            if t % _RETIRE_EVERY == 0:
                running, maxes, at_floor = _retire(
                    running, maxes, u_sorted, survived, floor, sampler._flag)
                floored += at_floor
        survived += [np.count_nonzero(maxes < u) for u in u_sorted]

    est = survived / cfg.n_paths
    se = np.sqrt(est * (1.0 - est) / cfg.n_paths)
    order = {u: i for i, u in enumerate(u_sorted)}
    idx = [order[u] for u in cfg.u_values]
    return SimResult(u_values=cfg.u_values, estimates=est[idx],
                     std_errors=se[idx], n_paths=cfg.n_paths,
                     horizon_T=cfg.horizon_T, seed=cfg.seed, floor=floor,
                     floored=floored)


def enumerate_finite(model: RiskModel, u: int, T: int) -> float:
    """Exact phi(u, T) by enumerating partial-sum distributions.

    Tracks the mass of every partial-sum value reachable without having
    touched [u, inf), one explicit lattice sweep per step. Deliberately
    shares no convolution machinery with the analytic solver.
    """
    u, T = _integer("u", u), _integer("T", T)
    if T < 1:
        raise ModelError(f"horizon T={T} must be >= 1")
    m = model.max_drop
    # the sum of u + m t + 1 over t = 1..T
    cells = T * (u + 1) + m * T * (T + 1) // 2
    if cells > ENUM_CELL_BUDGET:
        raise ResourceError(
            f"enumeration needs {cells} lattice cells "
            f"(budget {ENUM_CELL_BUDGET})")

    fvals = {j: model.f(j)
             for j in range(model.step.support_min, model.step.support_max + 1)}
    # mass[x] = P(S_t = x, S_1 < u, ..., S_t < u), x indexed from -m*t
    mass = {}
    for j, fj in fvals.items():
        if j < u and fj > 0.0:
            mass[j] = mass.get(j, 0.0) + fj
    for _ in range(T - 1):
        nxt = {}
        for x, px in mass.items():
            for j, fj in fvals.items():
                y = x + j
                if y < u and fj > 0.0:
                    nxt[y] = nxt.get(y, 0.0) + px * fj
        mass = nxt
    return float(math.fsum(mass.values()))
