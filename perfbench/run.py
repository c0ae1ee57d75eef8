#!/usr/bin/env python3
"""ruinwalk benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, each op starts when the previous one
ends; the seed drives the op order and the simulation seeds, while the
models are the same on every seed):

  cold_cli    a fresh interpreter runs the `ruinwalk` console entry point
              (`ruinwalk.cli.main`) as `solve MODEL --u-max 10`, over the
              five committed golden model files
  cap_ladder  in process, config -> roots -> system -> solve -> phi(0..10)
              on Poisson(1)/Poisson(1.01) capped at 10..20 and random
              models with m = 10..20
  long_table  in process, the same pipeline at u_max 2 000 and 20 000 on
              Examples 1-3 and random models with m <= 6; one op is a pass
              over all ten tables
  horizon     in process, one op is a pass over Example 2 and Example 4
              (cap 10): finite_grid to t_max 100 and 200, finite_survival
              at T = 200, simulate 2e5 paths over T = 200

The loop runs whole passes over the workload's ops (so every run has the
same mix) until S seconds have gone. A calibration kernel (calib.py) runs
between ops and between the public calls inside one, and the end-to-end
times are rescaled by it to a fixed machine speed. Every output is checked
by gate.py after the loop. With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it spends half its time in an untraced loop and
half in a traced one, and reports the per-layer metrics. The last line of
standard output is the result JSON; a fuller run record goes to
.bench_build/perfbench/.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # one thread, here and in every child

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import modelgen  # noqa: E402
from calib import Clock  # noqa: E402
from gate import XI_GATED, XI_TERMS, Gate  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

INTERP_RUNS = 5
SPAWN_REF_S = 0.15      # reference time of spawn_kernel_s, see calib.py
CLI_U_MAX = 10
LADDER_U_MAX = 10
LONG_U_MAX = (2000, 20000)
HORIZON_U_MAX = 10
HORIZON_T = (100, 200)
SIM_PATHS = 200_000
SIM_U = (0, 1, 2, 5, 10)
EXACT_SMALL = ((0, 5), (3, 5), (10, 5))     # (u, t) checked by enumeration
DEFECT_PROBE = ("ex4_cap10", 2000)          # fails before any fix
NULL = NullTracer()

END_TO_END_UNITS = {"setup_s": "s", "op_p50_cal_ms": "ms",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.interp_s": "s", "cli.import_numpy_s": "s",
    "cli.import_scipy_stats_s": "s", "cli.import_mpmath_s": "s",
    "cli.import_ruinwalk_s": "s", "cli.numerics_ms": "ms",
    "model.build_ms": "ms", "model.cap_trimmed": "count",
    "pgf.roots_ms": "ms", "pgf.root_mult_total": "count", "pgf.fail": "count",
    "initial_values.build_system_ms": "ms",
    "initial_values.solve_linear_ms": "ms", "initial_values.fail": "count",
    "initial_values.residual_max": "1",
    "survival.ultimate_ms": "ms", "survival.ultimate_u_ratio": "ratio",
    "survival.fallback_frac": "frac", "survival.blowup": "count",
    "survival.grid_ms": "ms", "survival.grid_t_ratio": "ratio",
    "survival.finite_ms": "ms",
    "oracle.simulate_ms": "ms", "oracle.paths_per_s": "1/s",
    "survival.xi_ms": "ms", "initial_values.closed_form_ms": "ms",
    "check.golden_err_max": "1", "check.route_gap_max": "1",
    "trace.overhead_frac": "frac",
}


def child_env() -> dict:
    """Environment of every child interpreter: the checkout's sources
    first on the path, and compiled bytecode cached under OUT whatever the
    caller's bytecode settings, so a cold start finds it as an installed
    package would (and nothing is written elsewhere)."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run a child to completion: (wall seconds, exit code, its rusage)."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=stdout,
                            stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def spawn_kernel_s() -> float:
    """Calibration kernel for ops that start an interpreter: a fresh
    interpreter that imports numpy, which nothing in the repository
    changes."""
    return spawn([sys.executable, "-c", "import numpy"])[0]


class SetupProbe:
    """Fresh interpreters that import ruinwalk and build the workload's
    models. Called at the start, middle and end of the timed loop; each
    time is rescaled by the spawn kernel run just before and after it."""

    def __init__(self, workload: str):
        self.argv = [sys.executable, str(HERE / "setup_child.py"), workload]
        self.walls, self.kernels, self.cal_walls, self.parts = [], [], [], []

    def __call__(self) -> None:
        with open(OUT / "setup.json", "w+", encoding="utf-8") as fh:
            k0 = spawn_kernel_s()
            wall, code, _ = spawn(self.argv, stdout=fh)
            k1 = spawn_kernel_s()
            fh.seek(0)
            text = fh.read()
        if code != 0:
            raise RuntimeError(f"setup child exited with {code}")
        self.walls.append(wall)
        self.kernels.append((k0, k1))
        self.cal_walls.append(wall * SPAWN_REF_S / (0.5 * (k0 + k1)))
        self.parts.append(json.loads(text))

    def breakdown(self) -> dict:
        return {k: statistics.median(p[k] for p in self.parts)
                for k in self.parts[0]}


def percentiles(values: list) -> dict:
    """Median and the highest of p90/p95/p99/p99.9 with at least ten
    samples beyond it, with the sample count."""
    out = {"n": len(values)}
    if values:
        out["p50"] = statistics.median(values)
    for q in (99.9, 99, 95, 90):
        if len(values) * (1 - q / 100) >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{q:g}"] = cuts[round(q * 10) - 1]
            break
    return out


# ---------------------------------------------------------------------------
# ops

def solve_table(rw, tr, key: str, cfg, u_max: int) -> tuple:
    """One ultimate-survival table through the public pipeline."""
    with tr.span("model.build"):
        model = cfg.build()
    with tr.span("pgf.roots"):
        roots = rw.unit_disk_roots(model)
    with tr.span("initial_values.build_system"):
        system = rw.build_system(model, roots)
    with tr.span("initial_values.solve_linear"):
        init = rw.solve_linear(system)
    with tr.span("survival.ultimate", tag=u_max):
        table = rw.ultimate_survival(model, init, u_max, roots)
    tr.table((key, u_max), {
        "root_mult": roots.total_multiplicity,
        "trimmed": cfg.truncate_m is not None and model.m < cfg.truncate_m,
        "fallback": any("finite-horizon convolution" in w
                        for w in table.warnings)})
    tr.peak("initial_values.residual_max", init.residual)
    return model, roots, init, table


def horizon_model(rw, tr, model, sim_seed: int, tick) -> dict:
    """The horizon calls on one model, `tick` between them; their outputs
    and wall times."""
    out, times = {}, {}

    def timed(label: str, span: str, call, tag=None):
        if out:
            tick()
        t0 = perf_counter()
        with tr.span(span, tag=tag):
            out[label] = call()
        times[label] = perf_counter() - t0

    for t_max in HORIZON_T:
        timed(f"grid{t_max}", "survival.grid",
              lambda: list(rw.finite_grid(model, HORIZON_U_MAX, t_max)),
              tag=t_max)
    timed("finite", "survival.finite",
          lambda: rw.finite_survival(model, HORIZON_U_MAX, HORIZON_T[-1]))
    cfg = rw.SimConfig(n_paths=SIM_PATHS, horizon_T=HORIZON_T[-1],
                       seed=sim_seed, u_values=SIM_U)
    timed("sim", "oracle.simulate", lambda: rw.simulate(model, cfg))
    out["times"] = times
    return out


def route_u_max(key: str, u_max: int) -> int:
    """Table length for a reference solve: the gated generating-function
    check needs 20 terms; elsewhere the op's own u_max (Example 4 cannot
    go past u = m before the ladder-route fix)."""
    return max(u_max, XI_TERMS) if key in XI_GATED else u_max


class Workload:
    """The models of one workload, the ops of one pass, how to run an op
    and how to check the outputs. `run` calls `clock.tick()` between the
    public calls of a multi-call op."""

    def clock(self) -> Clock:
        return Clock()

    def __init__(self, rw, name: str):
        self.rw, self.name = rw, name
        self.cfgs = {k: rw.parse_model_config(d)
                     for k, d in modelgen.workload_docs(name)}

    def warm_up(self, clock: Clock, seed: int) -> None:
        """One untimed pass."""
        timed_loop(self, np.random.default_rng([seed, 2]), 0.0, NULL, clock,
                   n0=-10 ** 6)

    def keep(self, out):
        return out

    def close(self) -> None:
        pass


class ColdCli(Workload):
    """One op is one fresh interpreter solving one golden file."""

    def clock(self) -> Clock:
        return Clock(spawn_kernel_s, SPAWN_REF_S)

    def __init__(self, rw, name: str):
        super().__init__(rw, name)
        (OUT / "cli").mkdir(exist_ok=True)
        self.errlog = open(OUT / "cli_stderr.txt", "w+", encoding="utf-8")

    def warm_up(self, clock: Clock, seed: int) -> None:
        """One untimed spawn, which also refreshes the bytecode cache."""
        self.run(next(iter(self.cfgs)), -1, NULL, clock)

    def pass_ops(self, rng) -> list:
        keys = list(self.cfgs)
        rng.shuffle(keys)
        return keys

    def key_of(self, op) -> str:
        return op

    def run(self, op, n: int, tr, clock):
        csv = OUT / "cli" / f"{n}_{op}.csv"
        self.errlog.seek(0)
        self.errlog.truncate()
        with tr.span("cli.spawn"):
            _, code, usage = spawn(
                [sys.executable, "-c",
                 "import sys; from ruinwalk.cli import main; sys.exit(main())",
                 "solve", str(modelgen.GOLDEN_DIR / f"{op}.json"), "--u-max",
                 str(CLI_U_MAX), "--out", str(csv)], stderr=self.errlog)
        if code != 0:
            self.errlog.seek(0)
            raise RuntimeError(f"exit {code}: {self.errlog.read()[-300:]}")
        return {"csv": csv, "rss_kb": usage.ru_maxrss,
                "cpu_s": usage.ru_utime + usage.ru_stime}

    def check(self, recs: list, gate, tr) -> list:
        """Every CLI table against the goldens and bit for bit against an
        in-process solve of the same model; a route check that misses
        fails every op of its model."""
        ref, routes_ok = {}, {}
        for key, cfg in self.cfgs.items():
            ref[key] = solve_table(self.rw, NULL, key, cfg, CLI_U_MAX)[3].phis
            model, roots, init, table = solve_table(
                self.rw, NULL, key, cfg, route_u_max(key, CLI_U_MAX))
            routes_ok[key] = gate.routes(self.rw, tr, key, model, roots, init,
                                         table.phis)
        verdicts = []
        for r in recs:
            ok = r["err"] is None
            if ok:
                phis = read_phi_csv(r["out"]["csv"])
                ok = gate.ultimate_table(r["key"], phis, f"op {r['n']}") \
                    and gate.same(r["key"], phis, ref[r["key"]],
                                  f"op {r['n']}")
            verdicts.append(ok and routes_ok[r["key"]])
        return verdicts

    def close(self) -> None:
        self.errlog.close()


class Tables(Workload):
    """In-process ultimate-survival tables. A cap_ladder op is one table;
    a long_table op is all its tables, because single tables at u_max
    2 000 and 20 000 differ tenfold in cost and their median would sit on
    the edge between the two sizes."""

    def __init__(self, rw, name: str):
        super().__init__(rw, name)
        self.u_maxes = (LADDER_U_MAX,) if name == "cap_ladder" else LONG_U_MAX
        self.firsts = {}    # (key, u_max) -> (output, digest) of its first run

    def pass_ops(self, rng) -> list:
        keys = list(self.cfgs)
        rng.shuffle(keys)
        tables = [(k, u) for k in keys for u in self.u_maxes]
        if self.name == "cap_ladder":
            return [[t] for t in tables]
        rng.shuffle(tables)
        return [tables]

    def key_of(self, op) -> str:
        """The model of a one-table op, or "pass"."""
        return op[0][0] if len(op) == 1 else "pass"

    def run(self, op, n: int, tr, clock):
        out = {}
        for key, u_max in op:
            if out:
                clock.tick()
            t0 = perf_counter()
            res = solve_table(self.rw, tr, key, self.cfgs[key], u_max)
            out[key, u_max] = (res, perf_counter() - t0)
        return out

    def keep(self, out):
        """Each table is kept whole the first time it is made, and as a
        digest (with its time) on every run; otherwise tables at u_max
        20 000 would pile up and show in peak_rss_mb."""
        if out is None:
            return None
        kept = {}
        for table_id, (res, seconds) in out.items():
            digest = hashlib.blake2b(res[3].phis.tobytes()).digest()
            self.firsts.setdefault(table_id, (res, digest))
            kept[table_id] = (digest, seconds)
        return kept

    def check(self, recs: list, gate, tr) -> list:
        """Every table must reproduce its first run bit for bit, and that
        first run must pass the table and route checks."""
        first_ok = {}
        for (key, u_max), ((model, roots, init, table), _) in \
                self.firsts.items():
            first_ok[key, u_max] = \
                gate.ultimate_table(key, table.phis, f"{key} first run") \
                and gate.routes(self.rw, tr, key, model, roots, init,
                                table.phis)
        verdicts = []
        for r in recs:
            ok = r["err"] is None
            for table_id, (digest, _) in (r["out"] or {}).items():
                if not first_ok[table_id]:
                    ok = False
                elif digest != self.firsts[table_id][1]:
                    ok = gate.fail(f"op {r['n']} {table_id}: table differs "
                                   "from its first run")
            verdicts.append(ok)
        return verdicts


class Horizon(Workload):
    """One op is a pass of the horizon calls over both models."""

    def __init__(self, rw, name: str):
        super().__init__(rw, name)
        self.models = {k: c.build() for k, c in self.cfgs.items()}

    def pass_ops(self, rng) -> list:
        keys = list(self.cfgs)
        rng.shuffle(keys)
        return [[(k, int(rng.integers(2 ** 62))) for k in keys]]

    def key_of(self, op) -> str:
        return "pass"

    def run(self, op, n: int, tr, clock):
        out = {}
        for key, sim_seed in op:
            if out:
                clock.tick()
            out[key] = horizon_model(self.rw, tr, self.models[key], sim_seed,
                                     clock.tick)
        return out

    def check(self, recs: list, gate, tr) -> list:
        rw = self.rw
        ultimate, exact = {}, {}
        for key, cfg in self.cfgs.items():
            model, roots, init, table = solve_table(
                rw, NULL, key, cfg, route_u_max(key, HORIZON_U_MAX))
            if not (gate.ultimate_table(key, table.phis, "reference") and
                    gate.routes(rw, tr, key, model, roots, init, table.phis)):
                return [False] * len(recs)
            ultimate[key] = table.phis[: HORIZON_U_MAX + 1]
            exact[key] = {(u, t): rw.enumerate_finite(model, u, t)
                          for u, t in EXACT_SMALL}
        return [r["err"] is None and all(
                    gate.horizon_pass(k, out, ultimate[k], exact[k],
                                      f"op {r['n']}")
                    for k, out in r["out"].items())
                for r in recs]


WORKLOADS = {"cold_cli": ColdCli, "cap_ladder": Tables,
             "long_table": Tables, "horizon": Horizon}


def read_phi_csv(path: Path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    if lines[0] != "u,phi":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


def timed_loop(wl: Workload, rng, seconds: float, tr, clock: Clock,
               n0: int = 0, between=None) -> tuple:
    """Whole passes until `seconds` of them (kernel runs included) have
    gone: (records, seconds spent in passes). Each record holds the op's
    wall time `s` and its calibrated time `cal_s`, kernel runs excluded.
    `between`, if given, runs before the first pass, after the pass that
    crosses half time and after the last pass, outside the measured
    time."""
    recs = []
    busy = 0.0
    halfway = between is None
    if between:
        between()
    while busy < seconds or not recs:
        t_pass = perf_counter()
        for op in wl.pass_ops(rng):
            n = n0 + len(recs)
            tr.op = n
            clock.start()
            try:
                with tr.span("bench.op"):
                    out, err = wl.run(op, n, tr, clock), None
            except Exception as exc:     # a failed op is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            clock.tick()
            recs.append({"n": n, "key": wl.key_of(op), "s": clock.raw,
                         "cal_s": clock.ref, "out": wl.keep(out),
                         "err": err})
        busy += perf_counter() - t_pass
        if not halfway and busy >= seconds / 2:
            between()
            halfway = True
    if between:
        between()
    return recs, busy


# ---------------------------------------------------------------------------
# traced-run extras

def layer_probe(rw, wl: Workload, tr) -> None:
    """Calls every layer the workload's own loop does not, so each
    per-layer metric is measured in every traced run: the warm in-process
    CLI solve on the golden files, Example 1 at u_max 2 000 and 20 000,
    and the horizon calls on Example 2."""
    tr.op = "probe"
    for name in modelgen.GOLDEN_FILES:
        with contextlib.redirect_stdout(io.StringIO()), \
                tr.span("cli.numerics"):
            code = rw.cli.main(["solve", str(modelgen.GOLDEN_DIR / name),
                                "--u-max", str(CLI_U_MAX),
                                "--out", str(OUT / "probe_phi.csv")])
        if code != 0:
            raise RuntimeError(f"in-process solve of {name} exited {code}")
    if wl.name != "long_table":
        cfg = rw.parse_model_config(modelgen.golden_doc("ex1.json"))
        for u_max in LONG_U_MAX:
            solve_table(rw, tr, "ex1", cfg, u_max)
    if wl.name != "horizon":
        model = rw.parse_model_config(modelgen.golden_doc("ex2.json")).build()
        horizon_model(rw, tr, model, 0, lambda: None)


def defect_probe(rw, tr) -> dict:
    """Example 4 (cap 10) past u = m: raises NumericalBlowupError before
    the ladder-route fix. Run once, outside the timed loop."""
    key, u_max = DEFECT_PROBE
    cfg = rw.parse_model_config(modelgen.golden_doc(f"{key}.json"))
    tr.op = "defect"
    t0 = perf_counter()
    try:
        table = solve_table(rw, tr, key, cfg, u_max)[3]
        outcome = f"ok, phi({u_max}) = {table.phis[-1]!r}"
    except rw.RuinwalkError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    return {"model": key, "u_max": u_max, "seconds": perf_counter() - t0,
            "outcome": outcome}


def per_layer(tr, setup_parts: dict, interp_s: float, gate,
              overhead: float) -> dict:
    """The per-layer metrics. Times are span self times in wall ms, not
    calibrated; the counts are over the distinct tables solved in the
    traced loop and the probes, never over the gate's reference solves."""
    ult = [tr.median_ms("survival.ultimate", u) for u in LONG_U_MAX]
    grid = [tr.median_ms("survival.grid", t) for t in HORIZON_T]
    sim_ms = tr.median_ms("oracle.simulate")
    tables = tr.tables.values()
    return {
        "cli.interp_s": interp_s,
        "cli.import_numpy_s": setup_parts["numpy"],
        "cli.import_scipy_stats_s": setup_parts["scipy_stats"],
        "cli.import_mpmath_s": setup_parts["mpmath"],
        "cli.import_ruinwalk_s": setup_parts["ruinwalk"],
        "cli.numerics_ms": tr.median_ms("cli.numerics"),
        "model.build_ms": tr.median_ms("model.build"),
        "model.cap_trimmed": sum(t["trimmed"] for t in tables),
        "pgf.roots_ms": tr.median_ms("pgf.roots"),
        "pgf.root_mult_total": sum(t["root_mult"] for t in tables),
        "pgf.fail": tr.errors("pgf.roots"),
        "initial_values.build_system_ms":
            tr.median_ms("initial_values.build_system"),
        "initial_values.solve_linear_ms":
            tr.median_ms("initial_values.solve_linear"),
        "initial_values.fail": tr.errors("initial_values.build_system")
        + tr.errors("initial_values.solve_linear"),
        "initial_values.residual_max":
            tr.peaks.get("initial_values.residual_max", 0.0),
        "survival.ultimate_ms": tr.median_ms("survival.ultimate"),
        "survival.ultimate_u_ratio": ult[1] / ult[0],
        "survival.fallback_frac":
            sum(t["fallback"] for t in tables) / max(len(tables), 1),
        "survival.blowup": tr.errors("survival.ultimate",
                                     "NumericalBlowupError"),
        "survival.grid_ms": grid[1],
        "survival.grid_t_ratio": grid[1] / grid[0],
        "survival.finite_ms": tr.median_ms("survival.finite"),
        "oracle.simulate_ms": sim_ms,
        "oracle.paths_per_s": SIM_PATHS / (sim_ms / 1e3),
        "survival.xi_ms": tr.median_ms("survival.xi"),
        "initial_values.closed_form_ms":
            tr.median_ms("initial_values.closed_form"),
        "check.golden_err_max": gate.golden_err_max,
        "check.route_gap_max": gate.route_gap_max,
        "trace.overhead_frac": overhead,
    }


# ---------------------------------------------------------------------------
# run record

def run_record(rw) -> dict:
    import mpmath
    import scipy
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "ruinwalk": rw.__version__,
            "git_commit": git_commit()}


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ruinwalk" / "__init__.py").is_file():
        print(f"error: no ruinwalk sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)

    import ruinwalk as rw
    import ruinwalk.cli  # noqa: F401  (the layer probe calls rw.cli.main)

    setup = SetupProbe(args.workload)
    spawn(setup.argv)       # fills or refreshes the bytecode cache; untimed
    wl = WORKLOADS[args.workload](rw, args.workload)
    clock = wl.clock()
    order = np.random.default_rng([args.seed, 1])
    # a traced run splits its time between an untraced and a traced loop,
    # so it takes as long as an untraced run
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        wl.warm_up(clock, args.seed)
        recs, wall = timed_loop(wl, order, seconds, NULL, clock,
                                between=setup)
        if args.trace:
            tr = Tracer()
            t_recs, t_wall = timed_loop(wl, order, seconds, tr, clock,
                                        n0=len(recs))
            overhead = statistics.median(r["cal_s"] for r in t_recs) / \
                statistics.median(r["cal_s"] for r in recs) - 1.0
            loops = {"untraced": [len(recs), wall],
                     "traced": [len(t_recs), t_wall]}
            recs += t_recs
        else:
            tr = NULL
        gate = Gate()
        tr.op = "gate"
        verdicts = wl.check(recs, gate, tr)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "env": run_record(rw),
                  "kernel_ref_s": clock.ref_s,
                  "kernel_s": percentiles(clock.cal),
                  "setup_kernel_s": setup.kernels,
                  "setup_wall_s": setup.walls,
                  "setup_cal_s": setup.cal_walls,
                  "setup_breakdown_s": setup.breakdown()}
        if args.trace:
            interp = statistics.median(
                spawn([sys.executable, "-c", "pass"])[0]
                for _ in range(INTERP_RUNS))
            layer_probe(rw, wl, tr)
            if args.workload == "long_table":
                record["known_defects"] = [defect_probe(rw, tr)]
            values = per_layer(tr, setup.breakdown(), interp, gate,
                               overhead)
            units = PER_LAYER_UNITS
            record["layer_self_s"] = tr.layer_totals()
            record["loops_ops_wall_s"] = loops
        else:
            values, units = end_to_end(args.workload, recs, setup)
            record["detail"] = detail(args.workload, recs, wall)
    finally:
        wl.close()

    failed = sum(1 for ok in verdicts if not ok)
    record["gate_failures"] = gate.reasons
    record["op_errors"] = [r["err"] for r in recs if r["err"]][:20]
    metrics = {k: {"value": float(values[k]), "unit": u}
               for k, u in units.items()}
    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise RuntimeError(f"metrics without a measurement: {bad}")
    record["metrics"] = metrics
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    for k, m in metrics.items():
        print(f"{k:34s} {m['value']:14.6g} {m['unit']}")
    for line in record["gate_failures"] + record["op_errors"]:
        print(f"failure: {line}")
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(recs),
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(workload: str, recs: list, setup: SetupProbe):
    if workload == "cold_cli":
        rss_kb = max((r["out"]["rss_kb"] for r in recs if r["out"]),
                     default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"setup_s": statistics.median(setup.cal_walls),
              "op_p50_cal_ms": 1e3 * statistics.median(r["cal_s"]
                                                       for r in recs),
              "peak_rss_mb": rss_kb / 1024}
    return values, END_TO_END_UNITS


def detail(workload: str, recs: list, wall: float) -> dict:
    """The run's figures under the names the workloads were specified
    with, in wall time (not calibrated), with the sample count behind
    each percentile."""
    ok = [r for r in recs if r["err"] is None]
    out = {"ops": len(recs), "wall_s": wall, "ops_per_s": len(ok) / wall,
           "fail_frac": 1 - len(ok) / len(recs),
           "op_ms": percentiles([1e3 * r["s"] for r in recs]),
           "op_cal_ms": percentiles([1e3 * r["cal_s"] for r in recs])}
    if workload == "cold_cli":
        out["cli_cpu_s"] = percentiles([r["out"]["cpu_s"] for r in ok])
    elif workload == "horizon":
        runs = [o for r in ok for o in r["out"].values()]
        out["grid_ms"] = percentiles([1e3 * o["times"]["grid200"]
                                      for o in runs])
        out["finite_ms"] = percentiles([1e3 * o["times"]["finite"]
                                        for o in runs])
        if runs:
            out["sim_paths_per_s"] = SIM_PATHS * len(runs) / sum(
                o["times"]["sim"] for o in runs)
    else:
        out["solve_ms"] = percentiles([1e3 * s for r in ok
                                       for _, s in r["out"].values()])
    return out


CHILD_ENV = child_env()

if __name__ == "__main__":
    sys.exit(main())
