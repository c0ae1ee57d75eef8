"""Command-line behavior: artifacts, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ruinwalk as rw
from ruinwalk.cli import main

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
EX1_DOC = {"claim": {"pmf": {"offset": 0, "weights": [0.5, 0.5]}},
           "interarrival": {"pmf": {"offset": 0, "weights": [0.5, 0, 0.5]}}}
EX4_10_DOC = {"claim": {"family": "poisson", "lambda": 1.0},
              "interarrival": {"family": "poisson", "lambda": 1.01},
              "truncate_m": 10}
EX4_15_DOC = dict(EX4_10_DOC, truncate_m=15)
EX4_20_DOC = dict(EX4_10_DOC, truncate_m=20)
# the paper's linear solve returns pi_19 = -4.8e-4 here; the table is fine
P2_20_DOC = {"claim": {"family": "poisson", "lambda": 1.0},
             "interarrival": {"family": "poisson", "lambda": 2.0},
             "truncate_m": 20}
DRIFTLESS_DOC = {"claim": {"pmf": {"offset": 1, "weights": [1.0]}},
                 "interarrival": {"pmf": {"offset": 1, "weights": [1.0]}}}


def write_model(tmp_path, doc, name="model.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestSolve:
    def test_example1_display_and_csv(self, tmp_path, capsys):
        model = write_model(tmp_path, EX1_DOC)
        out = tmp_path / "phi.csv"
        assert main(["solve", model, "--u-max", "3", "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        for txt in ("0.354", "0.586", "0.828", "0.929"):
            assert txt in shown
        header, rows = read_csv(out)
        assert header == ["u", "phi"]
        assert len(rows) == 4
        expect = [math.sqrt(2) / 4, 2 - math.sqrt(2),
                  2 * (math.sqrt(2) - 1), 8 - 5 * math.sqrt(2)]
        for (u, phi), e in zip(rows, expect):
            assert float(phi) == pytest.approx(e, abs=1e-12)

    def test_net_profit_violation_exits_2_without_artifacts(self, tmp_path,
                                                            capsys):
        model = write_model(tmp_path, DRIFTLESS_DOC)
        out = tmp_path / "phi.csv"
        code = main(["solve", model, "--u-max", "3", "--out", str(out)])
        assert code == 2
        assert "net profit condition" in capsys.readouterr().err
        assert not out.exists()

    def test_dump_system_and_verify(self, tmp_path, capsys):
        model = write_model(tmp_path, EX1_DOC)
        out = tmp_path / "phi.csv"
        dump = tmp_path / "system.csv"
        assert main(["solve", model, "--u-max", "3", "--out", str(out),
                     "--dump-system", str(dump), "--verify"]) == 0
        header, rows = read_csv(dump)
        assert header[0] == "row_kind"
        assert len(rows) == 2            # m = 2 system
        assert rows[-1][0] == "mean"
        shown = capsys.readouterr().out
        assert "closed form vs linear solve" in shown
        assert "determinant identity" in shown
        assert "linear solve vs ladder table" in shown

    def test_verify_reports_a_failed_paper_route(self, tmp_path, capsys):
        model = write_model(tmp_path, P2_20_DOC)
        out = tmp_path / "phi.csv"
        assert main(["solve", model, "--u-max", "40", "--out", str(out),
                     "--verify"]) == 0
        shown = capsys.readouterr().out
        assert "linear solve failed: negative initial probability" in shown
        assert "closed form failed: negative initial probability" in shown
        assert "generating-function coefficients skipped" in shown
        _, rows = read_csv(out)
        assert len(rows) == 41

    def test_determinant_identity_out_of_double_range(self, tmp_path,
                                                      capsys):
        # det is about 1e-382 at cap 20: both sides underflow to 0, and a
        # gap between them would read 0.00e+00
        model = write_model(tmp_path, P2_20_DOC)
        assert main(["solve", model, "--out", str(tmp_path / "phi.csv"),
                     "--verify"]) == 0
        shown = capsys.readouterr().out
        assert ("determinant identity: out of double range "
                "(log10|det| = -382.2)") in shown
        assert "0.00e+00" not in shown.split("verification:")[1]
        # at cap 15 det is about 6e-270, inside the normal range
        model = write_model(tmp_path, EX4_15_DOC, "cap15.json")
        assert main(["solve", model, "--out", str(tmp_path / "phi.csv"),
                     "--verify"]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if "determinant identity" in ln)
        assert float(line.split("relative gap ")[1]) < 1e-8

    def test_verify_takes_pi_from_closed_form(self, tmp_path, capsys,
                                              monkeypatch):
        def fail(system):
            raise rw.SystemSingularError("pivot below tolerance")
        monkeypatch.setattr("ruinwalk.initial_values.solve_linear", fail)
        model = write_model(tmp_path, EX1_DOC)
        assert main(["solve", model, "--out", str(tmp_path / "phi.csv"),
                     "--verify"]) == 0
        shown = capsys.readouterr().out
        assert "linear solve failed: pivot below tolerance" in shown
        assert "closed form vs linear solve" not in shown
        assert "generating-function coefficients vs table" in shown

    def test_poisson2_cap20_table(self, tmp_path):
        model = write_model(tmp_path, P2_20_DOC)
        out = tmp_path / "phi.csv"
        assert main(["solve", model, "--u-max", "40", "--out",
                     str(out)]) == 0
        _, rows = read_csv(out)
        ref = rw.finite_survival(rw.load_model_config(model).build(), 40,
                                 500).phis
        np.testing.assert_allclose([float(r[1]) for r in rows], ref,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3_p05", "ex4_cap10",
                                      "ex4_cap15"])
    def test_pi_line_is_the_ladder_pmf(self, name, tmp_path, capsys):
        # printed to 9 significant digits (<= 5e-10 off) against the
        # linear solve, within the 1e-10 partial-sum bound of the route
        # sweep; on cap 15 the trailing pi carry the linear solve's
        # 1/f(-15)-sized forward error that --verify reports, so there
        # only pi_0..pi_9 are held, to the golden tolerance of phi(1..10)
        model = str(GOLDEN_DIR / f"{name}.json")
        assert main(["solve", model, "--out", str(tmp_path / "phi.csv")]) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("pi: "))
        shown = np.array([float(x) for x in line[4:].split(", ")])
        built = rw.load_model_config(model).build()
        pi = rw.solve_linear(rw.build_system(
            built, rw.unit_disk_roots(built))).pi
        assert len(shown) == len(pi) == built.max_drop
        if name == "ex4_cap15":
            np.testing.assert_allclose(shown[:10], pi[:10], rtol=0, atol=1e-8)
        else:
            np.testing.assert_allclose(shown, pi, rtol=0, atol=1e-9)

    def test_example4_cap15_long_table(self, tmp_path):
        model = write_model(tmp_path, EX4_15_DOC)
        out = tmp_path / "phi.csv"
        assert main(["solve", model, "--u-max", "2000", "--out",
                     str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 2001

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        doc = {"claim": {"family": "geometric", "p": 0.5},
               "interarrival": {"family": "binomial", "n": 4, "p": 0.5}}
        model = write_model(tmp_path, doc)
        monkeypatch.setattr("ruinwalk.pgf.CLUSTER_TOL", 0.8)
        code = main(["solve", model, "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_byte_identical_artifacts(self, tmp_path):
        model = write_model(tmp_path, EX4_10_DOC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["solve", model, "--u-max", "10", "--out", str(a)]) == 0
        assert main(["solve", model, "--u-max", "10", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_model_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 2
        assert main(["solve", str(tmp_path / "missing.json")]) == 2
        noclaim = write_model(tmp_path, {"interarrival": EX1_DOC["claim"]},
                              "noclaim.json")
        assert main(["solve", noclaim]) == 2

    def test_binomial_past_double_range_exits_2(self, tmp_path, capsys):
        # comb(1100, 550) overflows a double inside the binomial pmf
        doc = {"claim": {"family": "binomial", "n": 1100, "p": 0.5},
               "interarrival": {"family": "binomial", "n": 4, "p": 0.5}}
        out = tmp_path / "phi.csv"
        assert main(["solve", write_model(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert "binomial parameter n=1100" in capsys.readouterr().err
        assert not out.exists()


class TestRoots:
    def test_example4_csv_and_svg(self, tmp_path, capsys):
        model = write_model(tmp_path, EX4_10_DOC)
        out = tmp_path / "roots.csv"
        svg = tmp_path / "roots.svg"
        assert main(["roots", model, "--out", str(out),
                     "--svg", str(svg)]) == 0
        header, rows = read_csv(out)
        assert header == ["re", "im", "multiplicity", "residual"]
        assert len(rows) == 9
        assert sum(int(r[2]) for r in rows) == 9
        for r in rows:
            z = complex(float(r[0]), float(r[1]))
            assert abs(z) <= 1 + 1e-9
            assert float(r[3]) <= 1e-8
        body = svg.read_text()
        assert body.startswith("<svg")
        assert body.count("<circle") == 1 + 9   # unit circle + markers

    def test_csv_matches_api(self, tmp_path):
        model = write_model(tmp_path, EX1_DOC)
        out = tmp_path / "r.csv"
        assert main(["roots", model, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        api = rw.unit_disk_roots(rw.load_model_config(model).build())
        assert float(rows[0][0]) == api.roots[0].real


class TestFinite:
    def test_grid_shape_and_values(self, tmp_path):
        model = write_model(tmp_path, EX1_DOC)
        out = tmp_path / "grid.csv"
        assert main(["finite", model, "--u-max", "4", "--t-max", "6",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["u", "T", "phi"]
        assert len(rows) == 5 * 6
        api = rw.finite_survival(rw.load_model_config(model).build(), 4, 6)
        last = [float(r[2]) for r in rows if r[1] == "6"]
        np.testing.assert_allclose(last, api.phis, atol=0)


class TestSimulate:
    def test_deterministic_with_seed_flag(self, tmp_path):
        model = write_model(tmp_path, EX1_DOC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", model, "--paths", "20000", "--horizon", "30",
                "--seed", "42", "--u", "0,1,2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        model = write_model(tmp_path, EX1_DOC)
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        args = ["simulate", model, "--paths", "20000", "--horizon", "30",
                "--u", "1"]
        monkeypatch.delenv("RUINWALK_SEED", raising=False)
        assert main(args + ["--out", str(a)]) == 0
        monkeypatch.setenv("RUINWALK_SEED", "31337")
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()
        # explicit flag beats the environment
        assert main(args + ["--seed", "42", "--out", str(c)]) == 0
        expected = rw.simulate(
            rw.load_model_config(model).build(),
            rw.SimConfig(n_paths=20000, horizon_T=30, seed=42, u_values=(1,)))
        _, rows = read_csv(c)
        assert float(rows[0][1]) == expected.estimates[0]

    def test_horizon_past_int32_reach_exits_2(self, tmp_path, capsys,
                                              monkeypatch):
        # Example 1 steps from -2 to 1: 2^30 steps could reach -2^31; the
        # refusal comes before the sampler is built, let alone drawn from
        monkeypatch.setattr("ruinwalk.oracle._StepSampler", None)
        model = write_model(tmp_path, EX1_DOC)
        out = tmp_path / "sim.csv"
        assert main(["simulate", model, "--paths", "1", "--horizon",
                     str(2 ** 30), "--u", "1", "--out", str(out)]) == 2
        assert "must stay below 2^31 - 1" in capsys.readouterr().err
        assert not out.exists()


class TestTruncate:
    def test_emits_capped_model_and_bounds(self, tmp_path, capsys):
        model = write_model(tmp_path, EX4_10_DOC)
        out = tmp_path / "capped.json"
        assert main(["truncate", model, "--m", "10", "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "defect bounds" in shown
        doc = json.loads(out.read_text())
        rebuilt = rw.parse_model_config(doc).build()
        original = rw.load_model_config(model).build()
        np.testing.assert_allclose(rebuilt.interarrival.weights,
                                   original.interarrival.weights, atol=0)
        assert rebuilt.m == 10

    def test_example4_cap15_bounds_without_note(self, tmp_path, capsys):
        model = write_model(tmp_path, EX4_15_DOC)
        out = tmp_path / "capped.json"
        assert main(["truncate", model, "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "defect bounds" in shown
        assert "note:" not in shown

    def test_support_dust_cut_is_reported(self, tmp_path, capsys):
        # interarrival mass above 16 is below SUPPORT_DUST, so cap 20 is
        # cut to m = 16; both commands say so, cap 15 is left alone
        cut = "m = 16 (cap 20 cut by SUPPORT_DUST)"
        model = write_model(tmp_path, EX4_20_DOC)
        assert main(["solve", model, "--out", str(tmp_path / "phi.csv")]) == 0
        assert cut in capsys.readouterr().out
        assert main(["truncate", model,
                     "--out", str(tmp_path / "capped.json")]) == 0
        assert cut in capsys.readouterr().out
        model = write_model(tmp_path, EX4_15_DOC, "cap15.json")
        assert main(["solve", model, "--out", str(tmp_path / "phi.csv")]) == 0
        assert main(["truncate", model,
                     "--out", str(tmp_path / "capped.json")]) == 0
        assert "cut by" not in capsys.readouterr().out

    def test_tail_and_bounds_at_the_solved_m(self, tmp_path, capsys):
        # cap 20 solves the m = 16 model, so it reports the cap-16 tail
        # P(X - c*theta <= -17) and bounds, not those of a cap at 20
        doc = {k: EX4_10_DOC[k] for k in ("claim", "interarrival")}
        model = write_model(tmp_path, doc)
        shown = {}
        for m in ("16", "20"):
            assert main(["truncate", model, "--m", m,
                         "--out", str(tmp_path / "capped.json")]) == 0
            shown[m] = [ln for ln in capsys.readouterr().out.splitlines()
                        if ln.startswith(("uncapped-step", "defect bounds"))]
        assert len(shown["16"]) == 2
        assert "P(X - c*theta <= -17)" in shown["16"][0]
        assert shown["20"] == shown["16"]

    def test_needs_a_bound(self, tmp_path):
        model = write_model(tmp_path, EX1_DOC)
        assert main(["truncate", model]) == 2


class TestDefaultOutputNames:
    def test_solve_default_artifact(self, tmp_path, monkeypatch):
        model = write_model(tmp_path, EX1_DOC, "ex1.json")
        monkeypatch.chdir(tmp_path)
        assert main(["solve", model, "--u-max", "2"]) == 0
        assert (tmp_path / "ex1_phi.csv").exists()

    def test_rootless_model_report(self, tmp_path, capsys):
        doc = {"claim": {"pmf": {"offset": 0, "weights": [0.5, 0.3, 0.2]}},
               "interarrival": {"pmf": {"offset": 1, "weights": [1.0]}}}
        model = write_model(tmp_path, doc, "unit.json")
        assert main(["solve", model, "--u-max", "5",
                     "--out", str(tmp_path / "u.csv")]) == 0
        assert "none (max drop 1)" in capsys.readouterr().out


def test_cli_import_loads_no_scipy(tmp_path):
    # fresh interpreters, so modules loaded by other tests do not count; a
    # plain solve runs without the paper's system, so without mpmath
    src = os.path.dirname(os.path.dirname(rw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    model = str(GOLDEN_DIR / "ex4_cap15.json")
    out = str(tmp_path / "phi.csv")
    loaded = "print(sorted({'scipy', 'mpmath'} & set(sys.modules)))"
    for run in ("import ruinwalk.cli",
                "from ruinwalk.cli import main; "
                "print(main(['solve', sys.argv[1], '--out', sys.argv[2]]))"):
        got = subprocess.run([sys.executable, "-c", f"import sys; {run}; "
                              f"{loaded}", model, out], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert got.splitlines()[-1] == "[]"
    assert got.splitlines()[-3:-1] == [f"wrote {out}", "0"]


def test_dump_system_loads_no_mpmath(tmp_path):
    # the system is assembled and refined in integers; only the closed form
    # of --verify needs mpmath. Example 3 has a double root, so the dump
    # holds a derivative row.
    src = os.path.dirname(os.path.dirname(rw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    dump = tmp_path / "system.csv"
    run = ("import sys; from ruinwalk.cli import main; "
           "print(main(['solve', sys.argv[1], '--out', sys.argv[2], "
           "'--dump-system', sys.argv[3]])); "
           "print('mpmath' in sys.modules)")
    got = subprocess.run([sys.executable, "-c", run,
                          str(GOLDEN_DIR / "ex3_p05.json"),
                          str(tmp_path / "phi.csv"), str(dump)], env=env,
                         check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert got[-2:] == ["0", "False"]
    _, rows = read_csv(dump)
    assert [r[0].split("(")[0] for r in rows] == ["root", "derivative", "mean"]

