"""Discrete distributions and the risk model.

A risk model is driven by two independent non-negative integer random
variables: the claim amount X and the premium-scaled interarrival time
c*theta, the latter with finite support bound m. Everything downstream
(roots, initial values, survival tables) depends on them only through the
step distribution X - c*theta, represented here as a dense Pmf with an
integer offset. Every pmf value, tail, cut, cap and excess mean of a law
is read from one run of its weights, walked once and cached.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfeasibleRebalanceError, ModelError, NetProfitError

# Mass below this is treated as numerical dust when inferring the
# interarrival support bound.
SUPPORT_DUST = 1e-14

# Default bound on the tail an infinite-support family is cut at.
DEFAULT_TAIL_EPS = 1e-15

_MASS_TOL = 1e-12

# Longest walk of a named law: Poisson lambda <= 2.8e9, geometric p >= 1.8e-4, binomial n < 2^22.
_RUN_MAX = 2 ** 22


@dataclass(frozen=True)
class Pmf:
    """Finitely supported, proper integer-lattice pmf.

    weights[k] is the probability of the value offset + k, and the
    weights sum to 1. A law cut or capped at K keeps its whole tail from K
    up on the atom K (see `truncate`), so every route reads the same
    proper law. Weights are trimmed so the first and last entries are
    positive.
    """

    offset: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1 or w.size == 0:
            raise ModelError("pmf weights must be a non-empty 1-D array")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ModelError("pmf weights must be finite and non-negative")
        total = math.fsum(w)
        if abs(total - 1.0) > _MASS_TOL:
            raise ModelError(f"pmf mass {total!r} is not 1 within {_MASS_TOL}")
        if w.size > 1 and (w[0] == 0.0 or w[-1] == 0.0):
            raise ModelError("pmf weights must be trimmed (use Pmf.from_weights)")

    @classmethod
    def from_weights(cls, offset: int, weights) -> "Pmf":
        """Build a Pmf, trimming leading/trailing zero weights."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ModelError("pmf weights must be a non-empty 1-D array")
        nz = np.nonzero(w)[0]
        if nz.size == 0:
            raise ModelError("pmf has no mass")
        lo, hi = int(nz[0]), int(nz[-1])
        return cls(offset=int(offset) + lo, weights=w[lo : hi + 1].copy())

    @classmethod
    def point(cls, value: int) -> "Pmf":
        return cls(offset=int(value), weights=np.array([1.0]))

    @property
    def support_min(self) -> int:
        return self.offset

    @property
    def support_max(self) -> int:
        return self.offset + len(self.weights) - 1

    def __len__(self) -> int:
        return len(self.weights)

    def mass_at(self, j: int) -> float:
        k = j - self.offset
        if 0 <= k < len(self.weights):
            return float(self.weights[k])
        return 0.0

    def mean(self) -> float:
        idx = np.arange(len(self.weights)) + self.offset
        return float(math.fsum(idx * self.weights))

    def to_json_dict(self) -> dict:
        return {"offset": int(self.offset), "weights": [float(x) for x in self.weights]}


@dataclass(frozen=True)
class ParametricDist:
    """Named distribution family with exact parameters.

    Families: geometric(p) with P(V=k) = (1-p)^k p on k >= 0, poisson(lam),
    binomial(n, p), or explicit(pmf).

    Every query reads the cached `run`: `pmf_at` looks a weight up, `sf`
    sums the run past j, and `materialize`, `truncate`, `excess_mean` slice it.
    """

    family: str
    p: float | None = None
    lam: float | None = None
    n: int | None = None
    pmf: Pmf | None = None

    def __post_init__(self):
        fam = self.family
        if fam == "geometric":
            if self.p is None or not (0.0 < self.p <= 1.0):
                raise ModelError(f"geometric parameter p={self.p!r} outside (0, 1]")
        elif fam == "poisson":
            if self.lam is None or not (self.lam > 0.0) or not math.isfinite(self.lam):
                raise ModelError(f"poisson parameter lambda={self.lam!r} must be > 0")
        elif fam == "binomial":
            if self.n is None or self.n < 0:
                raise ModelError(f"binomial parameter n={self.n!r} must be >= 0")
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ModelError(f"binomial parameter p={self.p!r} outside [0, 1]")
        elif fam == "explicit":
            if self.pmf is None:
                raise ModelError("explicit family requires a pmf")
        else:
            raise ModelError(f"unknown distribution family {fam!r}")

    @classmethod
    def geometric(cls, p: float) -> "ParametricDist":
        return cls(family="geometric", p=float(p))

    @classmethod
    def poisson(cls, lam: float) -> "ParametricDist":
        return cls(family="poisson", lam=float(lam))

    @classmethod
    def binomial(cls, n: int, p: float) -> "ParametricDist":
        return cls(family="binomial", n=int(n), p=float(p))

    @classmethod
    def explicit(cls, pmf: Pmf) -> "ParametricDist":
        return cls(family="explicit", pmf=pmf)

    @property
    def has_finite_support(self) -> bool:
        return self.family in ("binomial", "explicit") or \
            (self.family == "geometric" and self.p == 1.0)

    @functools.cached_property
    def run(self) -> tuple:
        """(lo, w) with w[i] = P(V = lo + i): an explicit pmf's weights, or a
        named law's products of P(k+1)/P(k) from its mode, scaled to fsum(w) == 1."""
        fam, p, lam, n = self.family, self.p, self.lam, self.n
        if fam == "explicit":
            return self.pmf.offset, self.pmf.weights.tolist()
        lo, hi = 0, n + 1 if fam == "binomial" else 0
        if fam == "geometric":
            # (1-p)^k p < 2^-1075 once -k log(1-p) > 745.2
            rate = -math.log(1.0 - p) if p < 1.0 else math.inf
            hi = 746.0 / rate + 2.0 if rate > 0.0 else math.inf
        elif fam == "poisson":
            # log P(V = k) <= -lam h(k/lam), h(x) = x log x - x + 1: < -800 at
            # k <= lam - 40 sqrt(lam), < -746 at k >= hi - 2 by h(1+u) >= u^2/(2+2u/3)
            lo = max(0, math.floor(lam - 40.0 * math.sqrt(lam)))
            hi = lam + 250.7 + math.sqrt(248.7 ** 2 + 1492.0 * lam)
        if hi - lo > _RUN_MAX:
            raise ModelError(f"{fam} law spans more than {_RUN_MAX} weights; the limit admits"
                             " poisson lambda <= 2.8e9, geometric p >= 1.8e-4, binomial n < 2^22")
        if fam == "poisson":
            # Newton on lam h(k/lam) = 746, past the span check (hi is inf at lambda 1e308),
            # from k = hi - 2 above the root: lam h(k/lam) is convex in k, so k stays above
            k = hi - 2.0
            for _ in range(3):
                log_r = math.log(k) - math.log(lam)
                k -= (k * log_r - k + lam - 746.0) / log_r
            hi = k + 2.0
        k = np.arange(lo, int(hi) - 1, dtype=float)   # P(k+1)/P(k) = a/b
        if fam == "geometric":
            a, b = np.full_like(k, 1.0 - p), np.ones_like(k)
        elif fam == "poisson":
            a, b = np.full_like(k, lam), k + 1.0
        else:
            a, b = (n - k) * p, (k + 1.0) * (1.0 - p)
        i = int(np.count_nonzero(a >= b))   # a/b falls in k: the mode is lo + i
        # P(mode-1-j), then P(mode+j), over P(mode): largest first on each side keeps fsum fast
        down = np.cumprod((b[:i] / a[:i])[::-1])
        v = np.concatenate([down, np.cumprod(np.append(1.0, a[i:] / b[i:]))])
        v /= math.fsum(v.tolist())
        v[i] -= math.fsum([-1.0, *v.tolist()])   # the exact residual to mass 1, on the mode
        w = np.concatenate([v[:i][::-1], v[i:]])
        nz = np.flatnonzero(w)
        return lo + int(nz[0]), w[nz[0]:nz[-1] + 1].tolist()

    def sf(self, j: int) -> float:
        """P(V > j) for integer j."""
        lo, w = self.run
        return 1.0 if j < lo else math.fsum(w[j + 1 - lo:])

    def pmf_at(self, k: int) -> float:
        lo, w = self.run
        return w[k - lo] if lo <= k < lo + len(w) else 0.0


def materialize(dist: ParametricDist | Pmf, tail_eps: float = DEFAULT_TAIL_EPS) -> Pmf:
    """Realize a distribution as a finite, proper Pmf.

    Families with finite support come back exact. Infinite families are
    cut at the smallest K with P(V > K) <= tail_eps, and `truncate` lumps
    the tail P(V >= K) onto K (or the exact residual to 1, where the two
    differ in the last bit), the same rule as an interarrival cap. The
    tails are summed from the small end of the law's run up, and the run
    reaches the weights' underflow, so they are accurate far past tail_eps.
    """
    if isinstance(dist, Pmf):
        return dist
    if not (0.0 < tail_eps <= 1e-6):
        raise ModelError(f"tail_eps={tail_eps!r} outside (0, 1e-6]")
    if dist.family == "explicit":
        return dist.pmf
    lo, w = dist.run
    if dist.has_finite_support:
        return Pmf.from_weights(lo, w)
    # tails[i] = P(V >= lo + i)
    tails = np.append(np.cumsum(w[::-1])[::-1], 0.0)
    K = lo + int(np.argmax(tails[1:] <= tail_eps))
    return truncate(dist, K) if K else Pmf.point(0)


def truncate(dist: ParametricDist | Pmf, m: int) -> Pmf:
    """Cap a distribution at m, lumping all mass from [m, inf) onto m.

    This is the one rule for every cut and cap: the interarrival cap
    `truncate_m`, the cut of an infinite law in `materialize` and the
    SUPPORT_DUST trim in `build_model`. The result agrees with the input on
    {0..m-1} and carries P(V >= m) on m; for a named law whose capped
    weights would then miss mass 1 in `math.fsum` by the last bit, the atom
    is instead the exact residual to 1, so a written model file reads back
    unscaled. It is a slice of the law's run plus sf(m - 1), so its cost is
    bounded by the run, not by m: a cap at or past the run's end gives the
    run itself, and a pmf already supported within [0, m] is returned
    unchanged.
    """
    if m <= 0:
        raise ModelError(f"truncation bound m={m} must be >= 1")
    if isinstance(dist, Pmf):
        dist = ParametricDist.explicit(dist)
    if dist.family == "explicit" and dist.pmf.support_max <= m:
        return dist.pmf
    lo, w = dist.run
    lo = min(lo, m)
    w = np.append(w[:m - lo], dist.sf(m - 1))
    # a named law's run sums to 1, but sf(m - 1) is rounded on its own: where
    # the capped law then misses 1 in fsum, the atom takes the exact
    # residual, as the mode does in `run`
    if dist.family != "explicit" and math.fsum(w) != 1.0:
        w[-1] -= math.fsum([-1.0, *w])
    return Pmf.from_weights(lo, w)


def excess_mean(interarrival: ParametricDist, m: int) -> float:
    """sum_{i>=1} i * P(V = m + i), the mean mass beyond a cap at m."""
    lo, w = interarrival.run
    k0 = max(m + 1, lo)
    return math.fsum((k - m) * x for k, x in enumerate(w[k0 - lo:], k0))


def rebalance_claim(claim: ParametricDist | Pmf, interarrival: ParametricDist,
                    m: int, l: int) -> Pmf:
    """Move claim mass from value l to 0 so that capping the interarrival
    time at m leaves the mean step unchanged.

    The shift is delta = (1/l) * sum_{i>=1} i * P(c*theta = m+i); the
    adjusted weight at l must stay non-negative.
    """
    if l <= 0:
        raise ModelError(f"rebalance point l={l} must be a positive integer")
    pmf = materialize(claim) if isinstance(claim, ParametricDist) else claim
    excess = excess_mean(interarrival, m)
    if excess == 0.0:
        return pmf
    # l is divided into the excess only where the claim has mass: past its
    # support, l may lie beyond the double range
    w_l = pmf.mass_at(l)
    if w_l == 0.0 or w_l - excess / l < 0.0:
        hint = next((j for j in range(max(pmf.offset, 1), pmf.support_max + 1)
                     if pmf.mass_at(j) >= excess / j), None)
        msg = f"claim mass at l={l} is {w_l:.3e}, below the required shift {excess:.3e}/l"
        msg += f"; smallest feasible l is {hint}" if hint is not None \
            else "; no feasible l exists for this claim"
        raise InfeasibleRebalanceError(msg, min_feasible_l=hint)
    delta = excess / l
    lo = min(pmf.offset, 0)
    w = np.concatenate([np.zeros(pmf.offset - lo), pmf.weights])
    w[l - lo] -= delta
    w[0 - lo] += delta
    return Pmf.from_weights(lo, w)


def step_pmf(claim: Pmf, interarrival: Pmf) -> Pmf:
    """Pmf of X - c*theta for independent X, c*theta.

    Weight at j is sum_k P(X = j + k) P(c*theta = k); the support starts at
    claim.support_min - interarrival.support_max.
    """
    w = np.convolve(claim.weights, interarrival.weights[::-1])
    offset = claim.offset - interarrival.support_max
    return Pmf.from_weights(offset, w)


@dataclass(frozen=True)
class RiskModel:
    """Claim, interarrival, and derived step distribution of the walk.

    m is the interarrival support bound (P(c*theta <= m) = 1 with positive
    mass at m). The walk's maximal downward step is max_drop =
    -step.support_min, which equals m whenever the claim has mass at 0 and
    m - claim.offset when the claim support is shifted.

    Two fields record what the build cut, for the report: `claim_cut` is
    (K, P(X >= K)) where an infinite claim law was cut at K, and
    `dust_from` the interarrival support max the SUPPORT_DUST trim lowered
    to m; each is None where nothing was cut.
    """

    claim: Pmf
    interarrival: Pmf
    m: int
    step: Pmf
    drift: float
    _cdf: np.ndarray = field(repr=False, default=None)  # [0, cumsum(step)]
    claim_cut: tuple | None = None
    dust_from: int | None = None

    @property
    def max_drop(self) -> int:
        return -self.step.support_min

    @property
    def drift_pos(self) -> float:
        """E(c*theta - X), positive under the net profit condition."""
        return -self.drift

    def f(self, j: int) -> float:
        """Step pmf P(X - c*theta = j)."""
        return self.step.mass_at(j)

    def F(self, j):
        """Step cdf P(X - c*theta <= j) at an integer (as a float) or
        elementwise over an integer array."""
        v = self._cdf.take(j - (self.step.offset - 1), mode="clip")
        return v if isinstance(v, np.ndarray) else float(v)

    @property
    def net_profit_holds(self) -> bool:
        return self.drift < 0.0

    def require_net_profit(self) -> None:
        """Raise NetProfitError unless the mean step is negative."""
        if not self.net_profit_holds:
            raise NetProfitError(f"mean step is {self.drift:+.6g} >= 0; the "
                                 "net profit condition fails")


def build_model(claim: Pmf, interarrival: Pmf) -> RiskModel:
    """Assemble a RiskModel, inferring m from the interarrival support.

    Trailing interarrival weights at or below SUPPORT_DUST are trimmed by
    `truncate`, which lumps them onto the new top, so the step distribution
    has mass well above the dust at its lower bound. Where the trim lowers
    the support max, the model's `dust_from` keeps the old one.
    """
    if claim.offset < 0 or interarrival.offset < 0:
        raise ModelError("claim and interarrival supports must be non-negative")
    w = interarrival.weights
    top = len(w) - 1
    while top > 0 and w[top] <= SUPPORT_DUST:
        top -= 1
    m = interarrival.offset + top
    if m <= 0:
        raise ModelError("interarrival support bound m must be >= 1")
    dust_from = interarrival.support_max if m < interarrival.support_max \
        else None
    interarrival = truncate(interarrival, m)
    step = step_pmf(claim, interarrival)
    drift = claim.mean() - interarrival.mean()
    cdf = np.concatenate([[0.0], np.cumsum(step.weights)])
    return RiskModel(claim=claim, interarrival=interarrival, m=m, step=step,
                     drift=drift, _cdf=cdf, dust_from=dust_from)


# ---------------------------------------------------------------------------
# Model files

def _json_number(value, what: str, integer: bool = False):
    """`value` if it is a JSON number (an integer when `integer`, else as a
    float); no bool."""
    kind = "integer" if integer else "number"
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ModelError(f"{what}={value!r} must be a JSON {kind}")
    try:
        return value if integer else float(value)
    except OverflowError:
        raise ModelError(f"{what}={reprlib.repr(value)} overflows a double") from None


def _dist_from_spec(spec: dict, what: str) -> ParametricDist:
    if not isinstance(spec, dict):
        raise ModelError(f"{what} specification must be an object")
    if "pmf" in spec:
        p = spec["pmf"]
        try:
            w = np.array([_json_number(x, f"{what} pmf weight") for x in p["weights"]])
            # weights within _MASS_TOL of 1 are scaled to a proper law, so
            # every route reads the same one; any further off, Pmf refuses
            if np.all(np.isfinite(w)):
                total = math.fsum(w)
                if abs(total - 1.0) <= _MASS_TOL:
                    w = w / total
            return ParametricDist.explicit(Pmf.from_weights(_json_number(
                p.get("offset", 0), f"{what} pmf offset", integer=True), w))
        except (KeyError, TypeError) as exc:
            raise ModelError(f"bad explicit pmf for {what}: {exc}") from exc
    fam = spec.get("family")
    try:
        if fam == "poisson":
            return ParametricDist.poisson(_json_number(spec["lambda"], f"{what} lambda"))
        if fam == "geometric":
            return ParametricDist.geometric(_json_number(spec["p"], f"{what} p"))
        if fam == "binomial":
            return ParametricDist.binomial(_json_number(spec["n"], f"{what} n", True),
                                           _json_number(spec["p"], f"{what} p"))
    except KeyError as exc:
        raise ModelError(f"{what}: missing parameter {exc} for family {fam!r}") from exc
    raise ModelError(f"{what}: unknown family {fam!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Parsed model file: raw distributions plus assembly options."""

    claim_dist: ParametricDist
    interarrival_dist: ParametricDist
    truncate_m: int | None = None
    rebalance_l: int | None = None
    tail_eps: float = DEFAULT_TAIL_EPS

    def build(self) -> RiskModel:
        if self.truncate_m is not None:
            inter = truncate(self.interarrival_dist, self.truncate_m)
        else:
            if not self.interarrival_dist.has_finite_support:
                raise ModelError(
                    "interarrival family has infinite support; set truncate_m")
            inter = materialize(self.interarrival_dist, self.tail_eps)
        claim = materialize(self.claim_dist, self.tail_eps)
        # a cut law carries its tail P(X >= K) on its top atom K
        cut = None if self.claim_dist.has_finite_support \
            else (claim.support_max, float(claim.weights[-1]))
        if self.rebalance_l is not None:
            if self.truncate_m is None:
                raise ModelError("rebalance_l requires truncate_m")
            claim = rebalance_claim(claim, self.interarrival_dist,
                                    self.truncate_m, self.rebalance_l)
        return replace(build_model(claim, inter), claim_cut=cut)

    def step_tail_below_cap(self, m: int) -> float:
        """P(X - c*theta <= -(m+1)) for the untruncated interarrival time,
        with m the built model's bound, which SUPPORT_DUST trimming can
        leave below truncate_m; 0 when no truncation was applied."""
        if self.truncate_m is None:
            return 0.0
        claim = materialize(self.claim_dist, self.tail_eps)
        terms = [claim.weights[k] * self.interarrival_dist.sf(claim.offset + k + m)
                 for k in range(len(claim.weights))]
        return float(math.fsum(terms))


def parse_model_config(doc: dict) -> ModelConfig:
    if not isinstance(doc, dict):
        raise ModelError("model file must contain a JSON object")
    for key in ("claim", "interarrival"):
        if key not in doc:
            raise ModelError(f"model file is missing the {key!r} field")
    for key in ("truncate_m", "rebalance_l"):
        if doc.get(key) is not None and _json_number(doc[key], key, True) < 1:
            raise ModelError(f"{key}={doc[key]!r} must be a positive integer")
    return ModelConfig(
        claim_dist=_dist_from_spec(doc["claim"], "claim"),
        interarrival_dist=_dist_from_spec(doc["interarrival"], "interarrival"),
        truncate_m=doc.get("truncate_m"),
        rebalance_l=doc.get("rebalance_l"),
        tail_eps=_json_number(doc.get("tail_eps", DEFAULT_TAIL_EPS), "tail_eps"),
    )


def load_model_config(path: str) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    except ValueError as exc:   # bad JSON, or an int past the digit limit
        raise ModelError(f"model file {path} is not readable JSON: {exc}") from exc
    return parse_model_config(doc)
