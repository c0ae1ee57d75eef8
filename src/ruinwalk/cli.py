"""Command-line front end.

Subcommands: solve (ultimate-time table), finite (finite-horizon grid),
roots (unit-disk roots as CSV and optional SVG), simulate (Monte Carlo
check), truncate (cap an interarrival law and write the capped model).
Exit codes: 0 success, 2 model or domain error (a table too large to
allocate or an unwritable output file included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import ModelError, NumericalError, ResourceError
from .model import ModelConfig, Pmf, RiskModel, load_model_config
from .pgf import RootSet, unit_disk_roots
from .survival import SurvivalTable, finite_grid, ultimate_survival

DEFAULT_SEED = 90125
EXIT_OK, EXIT_MODEL, EXIT_NUMERIC = 0, 2, 3


def _write_csv(path: str, header: str, lines) -> None:
    """Write the header and the lines, each already ending in a newline.
    Values are Python floats from `tolist()`, written by `repr`: the
    shortest decimal that reads back to the same double. The first line
    is made before the file is opened, so a producer that refuses its
    arguments before its first line leaves no file; one that fails later
    leaves the lines written so far."""
    lines = iter(lines)
    first = next(lines, "")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n" + first)
        fh.writelines(lines)


def _pmf_echo(name: str, p: Pmf) -> str:
    head = ", ".join(f"{w:.6g}" for w in p.weights[:8])
    more = ", ..." if len(p.weights) > 8 else ""
    return (f"  {name}: support [{p.support_min}, {p.support_max}], "
            f"weights [{head}{more}]")


def _model_lines(cfg: ModelConfig, model: RiskModel) -> list:
    """The report's lines on the model the routes run on, with a note on
    each cut its build made: the claim law's tail lumped at K and the
    SUPPORT_DUST trim of the interarrival support."""
    claim_note = dust_note = ""
    if model.claim_cut is not None:
        k, tail = model.claim_cut
        claim_note = f", P(X >= {k}) = {tail:.3g} lumped at {k}"
    if model.dust_from is not None:
        top = f"cap {cfg.truncate_m}" if cfg.truncate_m is not None \
            else f"support max {model.dust_from}"
        dust_note = f" ({top} cut by SUPPORT_DUST)"
    return ["model (post-truncation):",
            _pmf_echo("claim", model.claim) + claim_note,
            _pmf_echo("interarrival", model.interarrival),
            f"  m = {model.m}{dust_note}, "
            f"max drop = {model.max_drop}, drift = {model.drift:.12g}"]


def _report(cfg: ModelConfig, model: RiskModel, roots: RootSet,
            table: SurvivalTable) -> str:
    """Everything a solve run produced, rendered for humans."""
    lines = _model_lines(cfg, model)
    if roots.roots:
        lines.append("unit-disk roots:")
        for z, r, res, floor in zip(roots.roots, roots.multiplicities,
                                    roots.residuals, roots.floors,
                                    strict=True):
            mult = f" (multiplicity {r})" if r > 1 else ""
            lines.append(f"  {z.real:+.9f}{z.imag:+.9f}i{mult}, "
                         f"residual {res:.2e} (noise floor {floor:.2e})")
    else:
        lines.append("unit-disk roots: none (max drop 1)")
    lines.append("pi: " + ", ".join(f"{p:.9g}" for p in table.q))
    shown = table.phis[: min(len(table.phis), 12)]
    lines.append("phi: " + ", ".join(f"{x:.3f}" for x in shown)
                 + (", ..." if table.u_max + 1 > len(shown) else ""))
    lines.append(f"recurrence residual: {table.residual:.2e}")
    return "\n".join(lines)


def _out_path(args, suffix: str) -> str:
    if args.out:
        return args.out
    stem = os.path.splitext(os.path.basename(args.model))[0]
    return f"{stem}{suffix}"


def _complex_form(sysm) -> list:
    """The paper's complex matrix and rhs: row j of a twin pair (j, k) is
    A[j] + i A[k], row k A[j] - i A[k] with 0.0 - x, so a zero stays +0.0."""
    j, k = np.array(sysm.twins, dtype=int).reshape(-1, 2).T
    out = []
    for v in (sysm.A, sysm.b):
        z = v.astype(complex)
        z[k] = v[j]
        z.imag[j], z.imag[k] = v[k], 0.0 - v[k]
        out.append(z)
    return out


def _cmd_solve(args) -> int:
    cfg = load_model_config(args.model)
    model = cfg.build()
    roots = unit_disk_roots(model)
    table = ultimate_survival(model, u_max=args.u_max, roots=roots)
    path = _out_path(args, "_phi.csv")
    _write_csv(path, "u,phi",
               (f"{u},{p!r}\n" for u, p in enumerate(table.phis.tolist())))
    if args.dump_system or args.verify:
        from .initial_values import build_system
        sysm = build_system(model, roots)
    if args.dump_system:
        matrix, rhs = _complex_form(sysm)
        header = "row_kind," + ",".join(
            f"a{i}_re,a{i}_im" for i in range(sysm.size)) + ",rhs_re,rhs_im"
        _write_csv(args.dump_system, header, (
            ",".join([str(kind)] + [repr(v) for z in (*row, b)
                                    for v in (z.real, z.imag)]) + "\n"
            for kind, row, b in zip(sysm.row_kinds, matrix.tolist(),
                                    rhs.tolist())))
    print(_report(cfg, model, roots, table))
    if args.verify:
        print(_verification_block(model, roots, sysm, table))
    print(f"wrote {path}")
    return EXIT_OK


def _verification_block(model, roots, sysm, table) -> str:
    """The paper's routes against the ladder table. A route that fails is
    reported as a line, not by the exit code: the table has its own checks."""
    from .initial_values import determinant_identity, log10_abs_det, \
        solve_closed_form, solve_linear
    lines = ["verification:"]

    def attempt(route: str, fn, *args):
        """fn(*args), or None after a line saying why the route failed."""
        try:
            return fn(*args)
        except NumericalError as exc:
            lines.append(f"  {route} failed: {exc}")

    init = attempt("linear solve", solve_linear, sysm)
    closed = None
    if roots.all_simple:
        closed = attempt("closed form", solve_closed_form, model, roots, sysm)
        if closed is not None and init is not None:
            gap = float(np.max(np.abs(closed.pi - init.pi)))
            lines.append(f"  closed form vs linear solve: max |dpi| = "
                         f"{gap:.2e}")
        lhs, rhs = determinant_identity(model, roots, sysm)
        found = f"relative gap {abs(lhs - rhs) / max(abs(rhs), 1e-300):.2e}"
        if min(abs(lhs), abs(rhs)) < np.finfo(float).tiny:
            # underflowed sides compare as 0; slogdet still places det
            found = ("out of double range "
                     f"(log10|det| = {log10_abs_det(sysm):.1f})")
        lines.append(f"  determinant identity: {found}")
    else:
        lines.append("  closed form skipped (multiple roots)")
    # the paper's route to phi(1..m) against the ladder table, pi from the
    # linear solve, else from the closed form; its gap is the forward error
    # of the trailing pi, which the route's residual misses
    route, source = "linear solve", init
    if source is None:
        route, source = "closed form", closed
    if source is not None:
        gap = float(np.max(np.abs(np.cumsum(source.pi)
                                  - np.cumsum(table.q))))
        lines.append(f"  {route} vs ladder table: max |cumsum(pi) - "
                     f"phi(1..{model.max_drop})| = {gap:.2e} ({route} "
                     f"residual {source.residual:.1e})")
    return "\n".join(lines)


def _cmd_finite(args) -> int:
    model = load_model_config(args.model).build()
    path = _out_path(args, "_finite.csv")
    _write_csv(path, "u,T,phi", (
        f"{u},{t},{p!r}\n"
        for t, lvl in finite_grid(model, args.u_max, args.t_max)
        for u, p in enumerate(lvl.tolist())))
    print(f"finite-horizon grid: u = 0..{args.u_max}, T = 1..{args.t_max}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_roots(args) -> int:
    cfg = load_model_config(args.model)
    model = cfg.build()
    roots = unit_disk_roots(model)
    path = _out_path(args, "_roots.csv")
    _write_csv(path, "re,im,multiplicity,residual,floor",
               (f"{z.real!r},{z.imag!r},{r},{res!r},{floor!r}\n"
                for z, r, res, floor in zip(roots.roots, roots.multiplicities,
                                            roots.residuals, roots.floors,
                                            strict=True)))
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
    from .oracle import SimConfig, simulate
    model = load_model_config(args.model).build()
    res = simulate(model, SimConfig(n_paths=args.paths, horizon_T=args.horizon,
                                    seed=args.seed, u_values=args.u))
    path = _out_path(args, "_sim.csv")
    _write_csv(path, "u,estimate,se",
               (f"{u},{e!r},{s!r}\n"
                for u, e, s in zip(res.u_values, res.estimates.tolist(),
                                   res.std_errors.tolist())))
    for u, e, s in zip(res.u_values, res.estimates, res.std_errors):
        print(f"u={u}: {e:.6f} +- {s:.6f}")
    print(f"seed {args.seed}, {res.n_paths} paths, horizon {res.horizon_T}")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_truncate(args) -> int:
    cfg = load_model_config(args.model)
    m = args.m if args.m is not None else cfg.truncate_m
    if m is None:
        raise ModelError("no truncation bound: pass --m or set truncate_m "
                         "in the model file")
    l = args.l if args.l is not None else cfg.rebalance_l
    cfg = replace(cfg, truncate_m=m, rebalance_l=l)
    model = cfg.build()
    print("\n".join(_model_lines(cfg, model)))
    print(f"uncapped-step tail P(X - c*theta <= -{model.m + 1}) = "
          f"{cfg.step_tail_below_cap(model.m):.6e}")
    if not model.net_profit_holds:
        print("net profit condition fails for the capped model")
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
    p.add_argument("--out", help="CSV output path (default <model>_phi.csv)")
    p.add_argument("--dump-system", metavar="CSV",
                   help="also write the assembled matrix/rhs")
    p.add_argument("--verify", action="store_true",
                   help="run the closed-form, determinant and "
                        "paper-route-vs-ladder cross-checks")
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
    p.set_defaults(func=_cmd_roots)

    def int_list(text: str) -> tuple:
        return tuple(map(int, text.split(",")))

    p = sub.add_parser("simulate", help="Monte Carlo estimate of phi(u, T)")
    p.add_argument("model")
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--horizon", type=int, default=200)
    # argparse converts a string default: a bad RUINWALK_SEED exits 2
    p.add_argument("--seed", type=int,
                   default=os.environ.get("RUINWALK_SEED", DEFAULT_SEED),
                   help="RNG seed (default: RUINWALK_SEED env var, "
                        f"then {DEFAULT_SEED})")
    p.add_argument("--u", type=int_list, default="0,1,2,3,4,5",
                   help="comma-separated initial capitals")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("truncate",
                       help="cap the interarrival law and write the model")
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
    except (ModelError, ResourceError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
