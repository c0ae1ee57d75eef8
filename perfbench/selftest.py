#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. Every workload runs for one pass, untraced and traced; the result line
   must carry exactly the metrics BENCHMARK.json names, with its units,
   and every op must pass the correctness gate.
2. The gate is handed deliberately perturbed outputs (a golden entry moved
   past its tolerance, a broken monotone table, a repeat run that differs
   from the first, a CLI table off in the last digits, a simulation
   estimate far outside its standard error) and must fail exactly those
   ops.
3. In a directory holding only BENCHMARK.json and the benchmark, without
   the program's sources, the benchmark must exit non-zero and print no
   result.

Takes a few minutes; prints one line per check and exits non-zero on the
first failure.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMAND = [sys.executable, *SPEC["command"][1:]]


def bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        COMMAND + ["--workload", workload, "--seed", "7", "--seconds", "0",
                   "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result_lines() -> None:
    for w in SPEC["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr[-2000:]
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0, proc.stdout[-2000:]
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (w["name"], trace, got, want)
            assert all(math.isfinite(v["value"])
                       for v in res["metrics"].values())
            print(f"ok  {w['name']} trace {trace}: {len(got)} metrics, "
                  f"{res['attempted']} ops passed the gate")


def check_gate_rejects_perturbed_outputs() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np
    import ruinwalk as rw
    import run
    from gate import Gate
    from spans import NullTracer

    run.OUT.mkdir(parents=True, exist_ok=True)
    tr = NullTracer()

    def one_pass(name: str):
        wl = run.WORKLOADS[name](rw, name)
        recs, _ = run.timed_loop(wl, np.random.default_rng(7), 0, tr,
                                 wl.clock())
        return wl, recs

    # cap_ladder: a golden entry moved by 1e-7 (tolerance 1e-8), a random
    # model's table with a dip that breaks monotonicity, and a repeat run
    # whose table differs from the first run of the same op
    wl, recs = one_pass("cap_ladder")
    assert all(wl.check(recs, Gate(), tr))
    for key, edit in (("ex4_cap15", lambda p: p.__setitem__(5, p[5] + 1e-7)),
                      ("rand_m12", lambda p: p.__setitem__(3, p[2] - 1e-6))):
        table_id = (key, run.LADDER_U_MAX)
        (model, roots, init, table), digest = wl.firsts[table_id]
        phis = table.phis.copy()
        edit(phis)
        wl.firsts[table_id] = ((model, roots, init,
                                dataclasses.replace(table, phis=phis)), digest)
    changed = next(r for r in recs if r["key"] == "rand_m10")
    changed["out"] = {table_id: (bytes(64), s)
                      for table_id, (_, s) in changed["out"].items()}
    verdicts = wl.check(recs, Gate(), tr)
    bad = {"ex4_cap15", "rand_m12", "rand_m10"}
    assert all(ok == (r["key"] not in bad) for r, ok in zip(recs, verdicts))
    print("ok  gate fails a perturbed golden entry, a broken monotone table "
          "and a changed repeat on cap_ladder")

    # cold_cli: one CLI table off by 1e-11 at u = 1 (tolerance 1e-12)
    wl, recs = one_pass("cold_cli")
    rec = next(r for r in recs if r["key"] == "ex1")
    lines = rec["out"]["csv"].read_text().splitlines()
    u, phi = lines[2].split(",")
    lines[2] = f"{u},{float(phi) + 1e-11!r}"
    csv = run.OUT / "cli" / "perturbed_ex1.csv"
    csv.write_text("\n".join(lines) + "\n")
    verdicts = wl.check(recs + [dict(rec, n=len(recs),
                                     out=dict(rec["out"], csv=csv))],
                        Gate(), tr)
    wl.close()
    assert all(verdicts[:-1]) and not verdicts[-1]
    print("ok  gate fails a CLI table perturbed in the 11th digit")

    # horizon: Example 2's simulated phi(0, 200) moved by 0.01 (5 se is
    # about 0.005 at 2e5 paths)
    wl, recs = one_pass("horizon")
    out = dict(recs[0]["out"])
    sim = out["ex2"]["sim"]
    est = sim.estimates.copy()
    est[0] += 0.01
    out["ex2"] = dict(out["ex2"], sim=dataclasses.replace(sim, estimates=est))
    verdicts = wl.check(recs + [dict(recs[0], n=len(recs), out=out)],
                        Gate(), tr)
    assert all(verdicts[:-1]) and not verdicts[-1]
    print("ok  gate fails a simulation estimate outside its standard error")


def check_fails_without_sources() -> None:
    bare = ROOT / ".bench_build" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout.strip() == "", proc.stdout
    print(f"ok  exits {proc.returncode} without printing a result when the "
          "sources are missing")


if __name__ == "__main__":
    check_fails_without_sources()
    check_gate_rejects_perturbed_outputs()
    check_result_lines()
    print("selftest passed")
