"""Independent verification of the analytic pipeline.

Two checks that share no code with the solver: Monte Carlo simulation of
the walk's running maximum (PCG64 streams, reproducible bit-for-bit from
the seed; an int16 walk, or int32 where its reach needs it, fed four
steps per 64-bit word, one from each 16-bit lane, each step one table
lookup and rarely 37 more bits; every 8 steps the paths whose maximum
reached max(u) are retired in place, the tail's survivors filling the
freed slots)
and exact small-instance enumeration of the survival probability by
dynamic programming over partial-sum distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, ResourceError
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

ENUM_CELL_BUDGET = 10 ** 7


def _integer(name: str, value) -> int:
    """`value` as a Python int, if it is an int or a numpy integer.

    A float is refused, integral or not: at u = 0.5 the integer walk's
    P(max < u) is phi(1), which int() would silently turn into phi(0).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        if len(self.u_values) == 0:
            raise ModelError("at least one u value is required")
        object.__setattr__(self, "u_values",
                           tuple(_integer("u", u) for u in self.u_values))


@dataclass(frozen=True)
class SimResult:
    """Estimates of P(sup_{1<=n<=T} S_n < u) with binomial standard errors."""

    u_values: tuple
    estimates: np.ndarray
    std_errors: np.ndarray
    n_paths: int
    horizon_T: int
    seed: int


class _StepSampler:
    """The inverse-cdf step map k -> clip(lo + #{cum <= k 2^-53}, lo, top)
    over 53-bit values k, fed four draws per 64-bit PCG64 word.

    Each step of n paths reads ceil(n/4) words from `random_raw`, taken as
    little-endian 64-bit words and then as their 16-bit lanes, so draw
    4w+j is bits 16j..16j+15 of word w on every platform; when n is not a
    multiple of 4, the unused top lanes of the last word are dropped. A
    draw x stands for the 53-bit value k = x 2^37 + r, whose low 37 bits r
    are drawn only where the step depends on them.

    `step_of` has one entry per draw, in the walk's dtype `walk` (int16
    or int32, as `simulate` picks it from the reach). It holds the step of
    every k in the draw's interval [x 2^37, x 2^37 + 2^37 - 1], or the
    sentinel `hard`, the dtype's maximum, where the clipped steps at the
    interval's two ends differ; no step is that large, as the walk's reach
    stays below it. There a cdf value splits the interval, which happens
    with probability at most (number of cdf values) * 2^-16 per draw. A
    hard draw takes r as the top 37 bits of one extra word, drawn after
    the step's words in draw order, and its step from one binary search.
    The cdf is held scaled by 2^53, which is exact, and k is formed in
    float64, where every k below 2^53 is exact, so the search compares the
    same pairs of values as on k 2^-53. Either dtype gives the same steps
    on the same words. The buffers hold up to `size` draws and are reused
    from call to call.
    """

    def __init__(self, cum: np.ndarray, lo: int, size: int, walk):
        self.hard = int(np.iinfo(walk).max)
        self.cum_k = cum * 2.0 ** 53
        self.lo = lo
        self.top = lo + len(cum) - 1
        # each cdf value in units of a draw's interval: exact, as the
        # scaling is by a power of 2
        at = self.cum_k / 2.0 ** _LOW_BITS
        # draws from ceil(at[i]) on start at or past cdf value i, so the
        # count #{cum <= x 2^37} steps up there; each run of draws gets
        # its clipped step, and the walk-dtype table is the only large array
        n_draws = 1 << _DRAW_BITS
        first = np.minimum(np.ceil(at), n_draws).astype(np.intp)
        runs = np.diff(first, prepend=0, append=n_draws)
        step = np.minimum(np.arange(lo, lo + len(cum) + 1), self.top)
        self.step_of = np.repeat(step.astype(walk), runs)
        # a cdf value inside a draw's interval, past its start, splits it;
        # the last cdf value only moves steps the clip already caps
        head = at[:-1]
        inside = head[(head != np.floor(head)) & (head < n_draws)]
        self.step_of[inside.astype(np.intp)] = self.hard
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
            # k = x 2^37 + r is below 2^53, so it is exact in float64; the
            # explicit cast keeps numpy 1.x's value-based casting from
            # taking uint16 * 2^37 to float32
            k = lanes[hard].astype(np.float64) * 2.0 ** _LOW_BITS
            k += bitgen.random_raw(hard.size) >> 64 - _LOW_BITS
            found = np.searchsorted(self.cum_k, k, side="right")
            steps[hard] = np.minimum(self.lo + found, self.top)
        return steps


def _retire(running: np.ndarray, maxes: np.ndarray, u_big: int):
    """Drop the paths whose maximum has reached `u_big`, in place.

    With `keep` paths left, the survivors in slots `keep` on fill the
    retired slots below `keep`, both in slot order, and the two arrays
    come back as views of their first `keep` entries. The decision is on
    the maxima, not on the positions: a path that crossed `u_big` since
    the last pass and fell back below it is dropped too. Only O(retired)
    entries move; neither array is copied.
    """
    gone = np.flatnonzero(maxes >= u_big)
    # where few paths reach max(u), most passes retire none: 80 of the 100
    # of Example 2 at 200 000 paths, T = 200, u <= 10
    if gone.size == 0:
        return running, maxes
    keep = maxes.size - gone.size
    holes = gone[:np.searchsorted(gone, keep)]
    # as many survivors sit in slots keep on as there are holes below it
    tail = keep + np.flatnonzero(maxes[keep:] < u_big)
    running[holes] = running[tail]
    maxes[holes] = maxes[tail]
    return running[:keep], maxes[:keep]


def simulate(model: RiskModel, cfg: SimConfig) -> SimResult:
    """Sample the running maximum of the step walk over T steps.

    Steps are drawn by inverse-cdf lookup, four per PCG64 word: each
    16-bit draw indexes a table of 2^16 steps, and each maps to the step a
    binary search of the cumulative step table would give its 53-bit value
    (see `_StepSampler`). The walk's dtype comes from its reach
    T * max|step|: int16 below 2^15 - 1, else int32, and a reach of
    2^31 - 1 or more raises `ResourceError` before any draw. Either dtype
    gives the same counts. One pass serves every requested u: each path
    records its running maximum, and every `_RETIRE_EVERY` steps the
    paths whose maximum has reached max(u) are retired, as they fail
    every requested threshold; until then such a path walks on, and its
    maximum only grows. Retirement is in place (`_retire`): the survivors
    past the live count fill the retired slots below it, both in slot
    order, and draw i of the next step goes to live slot i. Each step is
    a fresh draw whatever slot a path sits in, so the law of the
    estimates depends neither on the slot order nor on when paths retire,
    though the counts a seed gives do.
    """
    reach = cfg.horizon_T * max(model.max_drop, model.step.support_max)
    if reach >= np.iinfo(np.int32).max:
        raise ResourceError(f"walk reach {reach} must stay below 2^31 - 1")
    walk = np.int16 if reach < np.iinfo(np.int16).max else np.int32
    cum = model.F(np.arange(model.step.support_min,
                            model.step.support_max + 1))
    u_sorted = sorted(set(cfg.u_values))
    u_big = u_sorted[-1]

    sampler = _StepSampler(cum, model.step.support_min,
                           min(_BLOCK, cfg.n_paths), walk)
    survived = np.zeros(len(u_sorted), dtype=np.int64)
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
                running, maxes = _retire(running, maxes, u_big)
        survived += [np.count_nonzero(maxes < u) for u in u_sorted]

    est = survived / cfg.n_paths
    se = np.sqrt(est * (1.0 - est) / cfg.n_paths)
    order = {u: i for i, u in enumerate(u_sorted)}
    idx = [order[u] for u in cfg.u_values]
    return SimResult(u_values=cfg.u_values, estimates=est[idx],
                     std_errors=se[idx], n_paths=cfg.n_paths,
                     horizon_T=cfg.horizon_T, seed=cfg.seed)


def enumerate_finite(model: RiskModel, u: int, T: int) -> float:
    """Exact phi(u, T) by enumerating partial-sum distributions.

    Tracks the mass of every partial-sum value reachable without having
    touched [u, inf), one explicit lattice sweep per step. Deliberately
    shares no convolution machinery with the analytic solver.
    """
    if T < 1:
        raise ModelError(f"horizon T={T} must be >= 1")
    m = model.max_drop
    up = max(model.step.support_max, 0)
    cells = sum(u + m * t + 1 for t in range(1, T + 1))
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
