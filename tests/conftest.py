"""Shared fixtures: the four golden models and randomized model generators."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

import ruinwalk as rw


# ---------------------------------------------------------------------------
# golden models

def make_example1() -> rw.RiskModel:
    """Claim uniform on {0,1}; interarrival times uniform on {0,2}."""
    return rw.build_model(rw.Pmf.from_weights(0, [0.5, 0.5]),
                          rw.Pmf.from_weights(0, [0.5, 0.0, 0.5]))


def make_example2() -> rw.RiskModel:
    """Geometric(1/2) claims against binomial(4, 1/2) interarrival times."""
    return rw.ModelConfig(claim_dist=rw.ParametricDist.geometric(0.5),
                          interarrival_dist=rw.ParametricDist.binomial(4, 0.5),
                          ).build()


def example3_claim_zero_mass(p: float) -> float:
    return (-1.0 + p + math.sqrt(1.0 - p)) / (2.0 * p)


def make_example3(p: float) -> rw.RiskModel:
    """Two-point claim tuned so the root equation has a double root;
    interarrival times on {1, 3}."""
    x0 = example3_claim_zero_mass(p)
    return rw.build_model(rw.Pmf.from_weights(0, [x0, 1.0 - x0]),
                          rw.Pmf.from_weights(1, [p, 0.0, 1.0 - p]))


def example3_double_root(p: float) -> float:
    return -(1.0 - p) / (1.0 - p + math.sqrt(1.0 - p))


def make_example4(m: int) -> rw.ModelConfig:
    """Poisson(1) claims, Poisson(1.01) interarrival times capped at m."""
    return rw.ModelConfig(claim_dist=rw.ParametricDist.poisson(1.0),
                          interarrival_dist=rw.ParametricDist.poisson(1.01),
                          truncate_m=m)


def poisson_geometric_model(lam: float, cap: int) -> rw.RiskModel:
    """Poisson(lam) claims against geometric(0.05) interarrival times
    capped at cap: m = cap with f(-m) far from tiny, so large systems
    stay solvable."""
    return rw.ModelConfig(claim_dist=rw.ParametricDist.poisson(lam),
                          interarrival_dist=rw.ParametricDist.geometric(0.05),
                          truncate_m=cap).build()


@dataclass(frozen=True)
class Solved:
    model: rw.RiskModel
    roots: rw.RootSet
    init: rw.InitialValues
    table: rw.SurvivalTable


def solve_pipeline(model: rw.RiskModel, u_max: int) -> Solved:
    roots = rw.unit_disk_roots(model)
    init = rw.solve_linear(rw.build_system(model, roots))
    table = rw.ultimate_survival(model, init, u_max, roots)
    return Solved(model=model, roots=roots, init=init, table=table)


@pytest.fixture(scope="session")
def ex1() -> Solved:
    return solve_pipeline(make_example1(), 50)


@pytest.fixture(scope="session")
def ex2() -> Solved:
    return solve_pipeline(make_example2(), 44)


@pytest.fixture(scope="session")
def ex3():
    return {p: solve_pipeline(make_example3(p), 20) for p in (0.1, 0.5, 0.9)}


@pytest.fixture(scope="session")
def ex4():
    return {m: solve_pipeline(make_example4(m).build(), 10) for m in (10, 15)}


ROUTE_CASES = {"goldens": 7, "example4_caps": 11, "poisson_geometric": 3,
               "random": 220}


@pytest.fixture(scope="session", params=list(ROUTE_CASES))
def route_cases(request, ex1, ex2, ex3, ex4):
    """(case, [(model, roots)]): the goldens, Example 4 at caps 10..20,
    Poisson(6) claims against geometric(0.05) interarrival times at caps
    30, 70 and 80, or 220 random models with m up to 12."""
    case = request.param
    if case == "goldens":
        return case, [(s.model, s.roots)
                      for s in (ex1, ex2, *ex3.values(), *ex4.values())]
    if case == "example4_caps":
        models = [make_example4(cap).build() for cap in range(10, 21)]
    elif case == "poisson_geometric":
        models = [poisson_geometric_model(6.0, m) for m in (30, 70, 80)]
    else:
        rng = np.random.default_rng(7)
        models = [random_admissible_model(rng, m_max=12) for _ in range(220)]
    return case, [(mo, rw.unit_disk_roots(mo)) for mo in models]


# ---------------------------------------------------------------------------
# independent series oracles (standard library only, no package code)

def poisson_pmf_series(lam: float, k: int) -> float:
    w = math.exp(-lam)
    for i in range(1, k + 1):
        w *= lam / i
    return w


def poisson_sf_series(lam: float, j: int) -> float:
    """P(V > j) by direct summation until terms vanish."""
    total, k = 0.0, j + 1
    w = poisson_pmf_series(lam, k)
    while w > 1e-22 or k < j + 60:
        total += w
        k += 1
        w *= lam / k
    return total


def capped_excess_series(lam: float, m: int) -> float:
    """sum_{i>=1} i P(V = m+i) by direct summation."""
    total = 0.0
    for i in range(1, 400):
        total += i * poisson_pmf_series(lam, m + i)
    return total


# ---------------------------------------------------------------------------
# randomized models

def random_admissible_model(rng: np.random.Generator, m_max: int = 8,
                            claim_max_len: int = 6) -> rw.RiskModel:
    """Random model with claim mass at 0, interarrival mass at m, and
    strictly negative drift."""
    while True:
        m = int(rng.integers(1, m_max + 1))
        cw = rng.dirichlet(np.ones(int(rng.integers(1, claim_max_len + 1))))
        cw[0] += 0.5
        cw /= cw.sum()
        iw = rng.dirichlet(np.ones(m + 1))
        iw[m] += 0.5
        iw /= iw.sum()
        claim = rw.Pmf.from_weights(0, cw)
        inter = rw.Pmf.from_weights(0, iw)
        if claim.mean() - inter.mean() <= -0.05:
            return rw.build_model(claim, inter)


def random_simple_root_model(rng: np.random.Generator, m_max: int = 6):
    """Random admissible model whose unit-disk roots are simple and well
    separated (for determinant-identity checks)."""
    while True:
        model = random_admissible_model(rng, m_max=m_max)
        roots = rw.unit_disk_roots(model)
        if not roots.all_simple:
            continue
        zs = roots.expanded()
        gaps = [abs(a - b) for i, a in enumerate(zs) for b in zs[i + 1 :]]
        if gaps and min(gaps) < 1e-2:
            continue
        return model, roots
