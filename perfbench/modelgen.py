"""Benchmark inputs: the committed golden model files and seeded random
admissible models.

Every model is a model-file document (the JSON form `ruinwalk solve`
reads), so the in-process workloads and the CLI workload feed the program
the same thing. Random models put claim mass at 0 and interarrival mass at
m, and keep the mean step at or below -0.05. Each is drawn from a fixed
seed of its own slot, not from the benchmark's --seed: the weights set the
drift and the roots, and so how long the survival extension and its
convolution fallback run, and a pass must cost the same on every seed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FILES = ("ex1.json", "ex2.json", "ex3_p05.json", "ex4_cap10.json",
                "ex4_cap15.json")

MAX_DRIFT = -0.05
MODEL_SEED = 20230629     # slot m draws from the seed [MODEL_SEED, m]


def golden_doc(name: str) -> dict:
    with open(GOLDEN_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def poisson_cap_doc(m: int) -> dict:
    """Example 4: Poisson(1) claims, Poisson(1.01) interarrival capped at m."""
    doc = golden_doc("ex4_cap10.json")
    doc["truncate_m"] = m
    return doc


def random_admissible_doc(rng: np.random.Generator, m: int,
                          claim_len: int) -> dict:
    """Random explicit-pmf model with interarrival support bound m."""
    while True:
        cw = rng.dirichlet(np.ones(claim_len))
        cw[0] += 0.5
        cw /= cw.sum()
        iw = rng.dirichlet(np.ones(m + 1))
        iw[m] += 0.5
        iw /= iw.sum()
        drift = float(np.dot(np.arange(claim_len), cw)
                      - np.dot(np.arange(m + 1), iw))
        if drift <= MAX_DRIFT and math.isfinite(drift):
            return {"claim": {"pmf": {"offset": 0,
                                      "weights": [float(x) for x in cw]}},
                    "interarrival": {"pmf": {"offset": 0,
                                             "weights": [float(x) for x in iw]}}}


CAP_LADDER = range(10, 21)
LONG_RANDOM_M = (4, 6)
CLAIM_LEN = 4


def random_slot(m: int) -> dict:
    return random_admissible_doc(np.random.default_rng([MODEL_SEED, m]), m,
                                 CLAIM_LEN)


def workload_docs(workload: str) -> list:
    """(key, model document) pairs for one workload; the same on every
    seed."""
    if workload == "cold_cli":
        return [(f.removesuffix(".json"), golden_doc(f)) for f in GOLDEN_FILES]
    if workload == "cap_ladder":
        return [(f"ex4_cap{m}", poisson_cap_doc(m)) for m in CAP_LADDER] + \
            [(f"rand_m{m}", random_slot(m)) for m in CAP_LADDER]
    if workload == "long_table":
        return [(f.removesuffix(".json"), golden_doc(f))
                for f in GOLDEN_FILES[:3]] + \
            [(f"rand_m{m}", random_slot(m)) for m in LONG_RANDOM_M]
    if workload == "horizon":
        return [("ex2", golden_doc("ex2.json")),
                ("ex4_cap10", golden_doc("ex4_cap10.json"))]
    raise ValueError(f"unknown workload {workload!r}")
