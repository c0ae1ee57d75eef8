"""Command-line front end.

Subcommands: solve (ultimate-time table), finite (finite-horizon grid),
roots (unit-disk roots as CSV and optional SVG), simulate (Monte Carlo
check), truncate (cap an interarrival law and report the induced bounds).
Exit codes: 0 success, 2 model or domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ModelError, NumericalBlowupError, NumericalError
from .initial_values import InitialValues, build_system, determinant_identity, \
    solve_closed_form, solve_linear
from .model import ModelConfig, Pmf, RiskModel, load_model_config
from .oracle import SimConfig, simulate
from .pgf import BOUNDARY_TOL, CLUSTER_TOL, ONE_EXCLUSION, RESIDUAL_TOL, \
    RootSet, unit_disk_roots
from .survival import SurvivalTable, finite_grid, truncation_bounds, \
    ultimate_survival, xi_coeffs

DEFAULT_SEED = 90125
EXIT_OK, EXIT_MODEL, EXIT_NUMERIC = 0, 2, 3


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; keeps artifacts byte-identical."""
    return repr(float(x))


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _pmf_echo(name: str, p: Pmf) -> str:
    head = ", ".join(f"{w:.6g}" for w in p.weights[:8])
    more = ", ..." if len(p.weights) > 8 else ""
    tail = f", tail {p.tail_mass:.3g}" if p.tail_mass else ""
    return (f"  {name}: support [{p.support_min}, {p.support_max}], "
            f"weights [{head}{more}]{tail}")


@dataclass(frozen=True)
class RunReport:
    """Everything a solve run produced, rendered for humans."""

    model: RiskModel
    roots: RootSet
    init: InitialValues
    table: SurvivalTable

    def render(self) -> str:
        lines = ["model (post-truncation):",
                 _pmf_echo("claim", self.model.claim),
                 _pmf_echo("interarrival", self.model.interarrival),
                 f"  m = {self.model.m}, max drop = {self.model.max_drop}, "
                 f"drift = {self.model.drift:.12g}"]
        if self.roots.roots:
            lines.append("unit-disk roots:")
            for z, r, res in zip(self.roots.roots, self.roots.multiplicities,
                                 self.roots.residuals):
                mult = f" (multiplicity {r})" if r > 1 else ""
                lines.append(f"  {z.real:+.9f}{z.imag:+.9f}i{mult}, "
                             f"residual {res:.2e}")
        else:
            lines.append("unit-disk roots: none (max drop 1)")
        lines.append("pi: " + ", ".join(f"{p:.9g}" for p in self.init.pi)
                     + f"  (solve residual {self.init.residual:.2e})")
        shown = self.table.phis[: min(len(self.table.phis), 12)]
        lines.append("phi: " + ", ".join(f"{x:.3f}" for x in shown)
                     + (", ..." if self.table.u_max + 1 > len(shown) else ""))
        lines.append(f"recurrence residual: {self.table.residual:.2e}")
        for w in self.table.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines)


def _root_kwargs(args) -> dict:
    return dict(cluster_tol=args.cluster_tol, one_exclusion=args.one_exclusion,
                boundary_tol=args.boundary_tol, residual_tol=args.residual_tol)


def _add_tolerance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cluster-tol", type=float, default=CLUSTER_TOL,
                   help="roots closer than this merge into one multiple root "
                        "(default %(default)g)")
    p.add_argument("--one-exclusion", type=float, default=ONE_EXCLUSION,
                   help="exclusion radius around s = 1 (default %(default)g)")
    p.add_argument("--boundary-tol", type=float, default=BOUNDARY_TOL,
                   help="tolerated overshoot of |s| = 1 (default %(default)g)")
    p.add_argument("--residual-tol", type=float, default=RESIDUAL_TOL,
                   help="largest |G(root) - 1| accepted (default %(default)g)")


def _out_path(args, suffix: str) -> str:
    if args.out:
        return args.out
    stem = os.path.splitext(os.path.basename(args.model))[0]
    return f"{stem}{suffix}"


def _solve_pipeline(cfg: ModelConfig, args):
    model = cfg.build()
    roots = unit_disk_roots(model, **_root_kwargs(args))
    system = build_system(model, roots)
    return model, roots, system, solve_linear(system)


def _cmd_solve(args) -> int:
    cfg = load_model_config(args.model)
    model, roots, sysm, init = _solve_pipeline(cfg, args)
    table = ultimate_survival(model, init, args.u_max, roots,
                              fallback_t_cap=args.t_max)
    path = _out_path(args, "_phi.csv")
    _write_csv(path, "u,phi",
               ((str(u), _fmt(table.phis[u])) for u in range(args.u_max + 1)))
    if args.dump_system:
        n = sysm.size
        header = "row_kind," + ",".join(
            f"a{i}_re,a{i}_im" for i in range(n)) + ",rhs_re,rhs_im"
        rows = []
        for r in range(n):
            cells = [str(sysm.row_kinds[r])]
            for i in range(n):
                cells += [_fmt(sysm.matrix[r, i].real),
                          _fmt(sysm.matrix[r, i].imag)]
            cells += [_fmt(sysm.rhs[r].real), _fmt(sysm.rhs[r].imag)]
            rows.append(cells)
        _write_csv(args.dump_system, header, rows)
    print(RunReport(model=model, roots=roots, init=init, table=table).render())
    if args.verify:
        print(_verification_block(model, roots, init, table))
    print(f"wrote {path}")
    return EXIT_OK


def _verification_block(model, roots, init, table) -> str:
    lines = ["verification:"]
    if roots.all_simple:
        closed = solve_closed_form(model, roots)
        gap = float(np.max(np.abs(closed.pi - init.pi))) if len(init.pi) else 0.0
        lines.append(f"  closed form vs linear solve: max |dpi| = {gap:.2e}")
        lhs, rhs = determinant_identity(model, roots)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        lines.append(f"  determinant identity: relative gap {rel:.2e}")
    else:
        lines.append("  closed form skipped (multiple roots)")
    k = min(20, table.u_max)
    if k > 0:
        xs = xi_coeffs(model, init, k, roots)
        gap = float(np.max(np.abs(xs - table.phis[1 : k + 1])))
        lines.append(f"  generating-function coefficients vs table: "
                     f"max gap {gap:.2e} over {k} terms")
    return "\n".join(lines)


def _cmd_finite(args) -> int:
    cfg = load_model_config(args.model)
    model = cfg.build()
    path = _out_path(args, "_finite.csv")
    rows = []
    for t, lvl in finite_grid(model, args.u_max, args.t_max):
        for u in range(args.u_max + 1):
            rows.append((str(u), str(t), _fmt(lvl[u])))
    _write_csv(path, "u,T,phi", rows)
    print(f"finite-horizon grid: u = 0..{args.u_max}, T = 1..{args.t_max}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_roots(args) -> int:
    cfg = load_model_config(args.model)
    model = cfg.build()
    roots = unit_disk_roots(model, **_root_kwargs(args))
    path = _out_path(args, "_roots.csv")
    _write_csv(path, "re,im,multiplicity,residual",
               ((_fmt(z.real), _fmt(z.imag), str(r), _fmt(res))
                for z, r, res in zip(roots.roots, roots.multiplicities,
                                     roots.residuals)))
    print(f"{len(roots.roots)} distinct roots, total multiplicity "
          f"{roots.total_multiplicity} (max drop {model.max_drop})")
    if args.svg:
        _write_root_svg(args.svg, roots)
        print(f"wrote {args.svg}")
    print(f"wrote {path}")
    return EXIT_OK


def _write_root_svg(path: str, roots: RootSet) -> None:
    size, rad = 520, 230
    cx = cy = size / 2

    def sx(re: float) -> float:
        return cx + re * rad

    def sy(im: float) -> float:
        return cy - im * rad

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{cx - rad - 15}" y1="{cy}" x2="{cx + rad + 15}" y2="{cy}" '
        'stroke="#999" stroke-width="1"/>',
        f'<line x1="{cx}" y1="{cy - rad - 15}" x2="{cx}" y2="{cy + rad + 15}" '
        'stroke="#999" stroke-width="1"/>',
        f'<circle cx="{cx}" cy="{cy}" r="{rad}" fill="none" stroke="black" '
        'stroke-width="1.5"/>',
    ]
    for z, r in zip(roots.roots, roots.multiplicities):
        parts.append(f'<circle cx="{sx(z.real):.2f}" cy="{sy(z.imag):.2f}" '
                     f'r="4" fill="red"/>')
        if r > 1:
            parts.append(f'<text x="{sx(z.real) + 6:.2f}" '
                         f'y="{sy(z.imag) - 6:.2f}" font-size="12">'
                         f'x{r}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _cmd_simulate(args) -> int:
    cfg = load_model_config(args.model)
    model = cfg.build()
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("RUINWALK_SEED", DEFAULT_SEED))
    u_values = tuple(int(x) for x in args.u.split(","))
    res = simulate(model, SimConfig(n_paths=args.paths, horizon_T=args.horizon,
                                    seed=seed, u_values=u_values))
    path = _out_path(args, "_sim.csv")
    _write_csv(path, "u,estimate,se",
               ((str(u), _fmt(e), _fmt(s))
                for u, e, s in zip(res.u_values, res.estimates,
                                   res.std_errors)))
    for u, e, s in zip(res.u_values, res.estimates, res.std_errors):
        print(f"u={u}: {e:.6f} +- {s:.6f}")
    print(f"seed {seed}, {res.n_paths} paths, horizon {res.horizon_T}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_truncate(args) -> int:
    cfg = load_model_config(args.model)
    m = args.m if args.m is not None else cfg.truncate_m
    if m is None:
        raise ModelError("no truncation bound: pass --m or set truncate_m "
                         "in the model file")
    l = args.l if args.l is not None else cfg.rebalance_l
    cfg = ModelConfig(claim_dist=cfg.claim_dist,
                      interarrival_dist=cfg.interarrival_dist,
                      truncate_m=m, rebalance_l=l, tail_eps=cfg.tail_eps)
    model = cfg.build()
    tail = cfg.step_tail_below_cap()
    print(f"interarrival capped at m = {m}; drift = {model.drift:.14g}")
    print(f"uncapped-step tail P(X - c*theta <= -{m + 1}) = {tail:.6e}")
    if model.net_profit_holds:
        roots = unit_disk_roots(model)
        init = solve_linear(build_system(model, roots))
        try:
            # the bounds multiply phi(m+1) by the (tiny) tail, so a relaxed
            # recurrence budget is ample
            table = ultimate_survival(model, init, model.m + 1, roots,
                                      error_budget=1e-6)
            lower, upper = truncation_bounds(model, tail, table)
        except NumericalBlowupError:
            # phi(m+1) is out of reach when f(-m) is tiny; phi(m) is exact
            # from the initial values and still underestimates the infimum
            table = ultimate_survival(model, init, model.m, roots)
            lower, upper = float(table.phis[model.m]) * tail, tail
            print("note: lower bound uses phi(m) <= phi(m+1); one "
                  "recurrence step past m is unreliable for this model")
        print(f"defect bounds on phi(0): [{lower:.6e}, {upper:.6e}]")
    else:
        print("net profit condition fails for the capped model; "
              "no defect bounds")
    out = _out_path(args, "_truncated.json")
    doc = {"claim": {"pmf": model.claim.to_json_dict()},
           "interarrival": {"pmf": model.interarrival.to_json_dict()}}
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ruinwalk",
        description="Exact survival probabilities for discrete-time renewal "
                    "risk models")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="ultimate-time survival table")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--u-max", type=int, default=10)
    p.add_argument("--t-max", type=int, default=1 << 16,
                   help="horizon cap for the convolution fallback beyond "
                        "the recurrence's stability range "
                        "(default %(default)s)")
    p.add_argument("--out", help="CSV output path (default <model>_phi.csv)")
    p.add_argument("--dump-system", metavar="CSV",
                   help="also write the assembled matrix/rhs")
    p.add_argument("--verify", action="store_true",
                   help="run the closed-form, determinant, and "
                        "generating-function cross-checks")
    _add_tolerance_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("finite", help="finite-horizon survival grid")
    p.add_argument("model")
    p.add_argument("--u-max", type=int, default=10)
    p.add_argument("--t-max", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_finite)

    p = sub.add_parser("roots", help="unit-disk roots as CSV (and SVG)")
    p.add_argument("model")
    p.add_argument("--out")
    p.add_argument("--svg", help="write an SVG plot of the unit disk")
    _add_tolerance_flags(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of phi(u, T)")
    p.add_argument("model")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: RUINWALK_SEED env var, "
                        f"then {DEFAULT_SEED})")
    p.add_argument("--u", default="0,1,2,3,4,5",
                   help="comma-separated initial capitals")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("truncate",
                       help="cap the interarrival law and report bounds")
    p.add_argument("model")
    p.add_argument("--m", type=int, default=None, help="truncation bound")
    p.add_argument("--l", type=int, default=None,
                   help="claim value whose mass absorbs the capped mean")
    p.add_argument("--out", help="JSON output path for the capped model")
    p.set_defaults(func=_cmd_truncate)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
