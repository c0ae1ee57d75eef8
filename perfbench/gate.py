"""Correctness gate: every op's output is checked before it counts.

Golden values and tolerances are those of the acceptance suite
(tests/test_acceptance.py), restated here so the benchmark imports
nothing from tests/. Cross-route agreement is gated only where criterion
7 of that suite gates it; on every other model the same two gaps are
measured and reported, never gated, so the known growth of the
generating-function gap on the capped Poisson ladder stays visible.
"""

from __future__ import annotations

import math

import numpy as np

SQ2 = math.sqrt(2.0)

# Poisson(1)/Poisson(1.01) capped at 10 and 15, u = 0..10. Three printed
# cap-15 entries are defective (u = 1, 9, 10); the corrected values used
# by the acceptance suite replace them.
TABLE_CAP10 = [0.0067795743, 0.0145425921, 0.0238700927, 0.0334952018,
               0.0430669381, 0.0525424876, 0.0619232839, 0.0712111444,
               0.0804070612, 0.0895119320, 0.0985266555]
TABLE_CAP15 = [0.0067795818, 0.0145426080, 0.0238701187, 0.0334952381,
               0.0430669845, 0.0525425439, 0.0619233499, 0.0712112199,
               0.0804071458, 0.0895120264, 0.0985267572]

# model key -> (golden phi values from u = 0, absolute tolerance)
GOLDEN = {
    "ex1": ([SQ2 / 4, 2 - SQ2, 2 * (SQ2 - 1), 8 - 5 * SQ2], 1e-12),
    "ex2": ([0.535194, 0.697233, 0.802783, 0.871536, 0.916321], 1e-6),
    "ex3_p05": ([(1 - 0.5 + math.sqrt(0.5)) / 2], 1e-10),
    "ex4_cap10": (TABLE_CAP10, 1e-8),
    "ex4_cap15": (TABLE_CAP15, 1e-8),
}

# Cross-route checks gated by criterion 7: closed form against the linear
# solve on the simple-root goldens, generating-function coefficients
# against the table over 20 terms on Examples 1-3.
CLOSED_GATED = {"ex1", "ex2", "ex4_cap10", "ex4_cap15"}
XI_GATED = {"ex1", "ex2", "ex3_p05"}
CLOSED_TOL = 1e-10
XI_TOL = 1e-9
XI_TERMS = 20

BOUND_TOL = 1e-9        # [0, 1] and monotonicity slack (criterion 9)
REPEAT_TOL = 1e-12      # the same call on the same model must agree


class Gate:
    """Collects per-op verdicts and the error figures the trace reports."""

    def __init__(self):
        self.golden_err_max = 0.0
        self.route_gap_max = 0.0
        self.reasons = []

    def fail(self, what: str) -> bool:
        if len(self.reasons) < 20:
            self.reasons.append(what)
        return False

    def ultimate_table(self, key: str, phis: np.ndarray, op: str) -> bool:
        """Bounds, monotonicity and goldens of one phi(0..u_max) table."""
        if not np.all(np.isfinite(phis)):
            return self.fail(f"{op} {key}: non-finite phi")
        if phis.min() < -BOUND_TOL or phis.max() > 1 + BOUND_TOL:
            return self.fail(f"{op} {key}: phi outside [0, 1]")
        if np.any(np.diff(phis) < -BOUND_TOL):
            return self.fail(f"{op} {key}: phi not nondecreasing")
        if key in GOLDEN:
            values, tol = GOLDEN[key]
            n = min(len(values), len(phis))
            err = float(np.max(np.abs(phis[:n] - values[:n])))
            self.golden_err_max = max(self.golden_err_max, err)
            if err > tol:
                return self.fail(f"{op} {key}: golden error {err:.2e} "
                                 f"> {tol:.0e}")
        return True

    def same(self, key: str, got: np.ndarray, ref: np.ndarray,
             op: str) -> bool:
        """A table from the CLI against the in-process solve."""
        if got.shape != ref.shape or \
                float(np.max(np.abs(got - ref))) > REPEAT_TOL:
            return self.fail(f"{op} {key}: differs from the in-process "
                             "solve of the same model")
        return True

    def routes(self, rw, tracer, key: str, model, roots, init,
               phis: np.ndarray) -> bool:
        """Closed form and generating-function coefficients against the
        production route; gated on the criterion-7 goldens only."""
        ok = True
        if roots.all_simple:
            with tracer.span("initial_values.closed_form"):
                closed = rw.solve_closed_form(model, roots)
            gap = float(np.max(np.abs(closed.pi - init.pi)))
            self.route_gap_max = max(self.route_gap_max, gap)
            if key in CLOSED_GATED and gap > CLOSED_TOL:
                ok = self.fail(f"{key}: closed form vs linear solve gap "
                               f"{gap:.2e} > {CLOSED_TOL:.0e}")
        k = min(XI_TERMS, len(phis) - 1)
        if k > 0:
            with tracer.span("survival.xi"):
                xs = rw.xi_coeffs(model, init, k, roots)
            gap = float(np.max(np.abs(xs - phis[1 : k + 1])))
            self.route_gap_max = max(self.route_gap_max, gap)
            if key in XI_GATED and (gap > XI_TOL or k < XI_TERMS):
                ok = self.fail(f"{key}: generating-function gap {gap:.2e} "
                               f"over {k} terms")
        return ok

    def horizon_pass(self, key: str, out: dict, ultimate: np.ndarray,
                     exact_small: dict, op: str) -> bool:
        """One model's finite-horizon outputs.

        The grids must agree with each other and with finite_survival,
        fall in t toward the ultimate phi and never below it, match exact
        enumeration at small horizons, and the simulation must sit within
        five binomial standard errors of phi(u, 200).
        """
        g100, g200, fin, sim = out["grid100"], out["grid200"], \
            out["finite"], out["sim"]
        if [t for t, _ in g100] != list(range(1, 101)) or \
                [t for t, _ in g200] != list(range(1, 201)):
            return self.fail(f"{op} {key}: grid levels missing")
        rows = np.array([r for _, r in g200])
        if not np.all(np.isfinite(rows)) or rows.min() < -BOUND_TOL or \
                rows.max() > 1 + BOUND_TOL:
            return self.fail(f"{op} {key}: grid value outside [0, 1]")
        if np.max(np.abs(np.array([r for _, r in g100]) - rows[:100])) \
                > REPEAT_TOL:
            return self.fail(f"{op} {key}: t_max 100 and 200 grids disagree")
        if np.any(np.diff(rows, axis=0) > BOUND_TOL) or \
                np.any(np.diff(rows, axis=1) < -BOUND_TOL):
            return self.fail(f"{op} {key}: grid not monotone in t and u")
        if np.max(np.abs(fin.phis - rows[-1])) > REPEAT_TOL:
            return self.fail(f"{op} {key}: finite_survival(T=200) differs "
                             "from the grid's last level")
        if np.any(rows[-1] < ultimate - BOUND_TOL):
            return self.fail(f"{op} {key}: phi(u, 200) below phi(u)")
        for (u, t), exact in exact_small.items():
            err = abs(rows[t - 1][u] - exact)
            self.golden_err_max = max(self.golden_err_max, err)
            if err > 1e-12:
                return self.fail(f"{op} {key}: phi({u}, {t}) off exact "
                                 f"enumeration by {err:.2e}")
        for u, est in zip(sim.u_values, sim.estimates):
            p = float(fin.phis[u])
            se = math.sqrt(max(p * (1 - p), 0.0) / sim.n_paths)
            if abs(est - p) > 5 * se + 1e-12:
                return self.fail(f"{op} {key}: simulated phi({u}, 200) = "
                                 f"{est:.5f}, exact {p:.5f}, se {se:.1e}")
        return True
