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
from ruinwalk.pgf import RESIDUAL_TOL

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
POIS6_GEOM_30_DOC = {"claim": {"family": "poisson", "lambda": 6.0},
                     "interarrival": {"family": "geometric", "p": 0.05},
                     "truncate_m": 30}
# capped at 3, the interarrival tail P(V >= 3) = 0.686 rounded on its own
# leaves the law 2^-53 short of mass 1; the atom takes the residual instead
POIS1_POIS354_3_DOC = {"claim": {"family": "poisson", "lambda": 1.0},
                       "interarrival": {"family": "poisson", "lambda": 3.54},
                       "truncate_m": 3}
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

    def test_claim_cut_is_reported(self, tmp_path, capsys):
        # Example 2's geometric(1/2) claim is cut at 49 and carries
        # P(X >= 49) = 2^-49 there; an exactly finite claim has no cut
        assert main(["solve", str(GOLDEN_DIR / "ex2.json"),
                     "--out", str(tmp_path / "phi.csv")]) == 0
        claim = next(ln for ln in capsys.readouterr().out.splitlines()
                     if ln.startswith("  claim:"))
        assert claim.startswith("  claim: support [0, 49]")
        assert claim.endswith(", P(X >= 49) = 1.78e-15 lumped at 49")
        assert main(["solve", write_model(tmp_path, EX1_DOC),
                     "--out", str(tmp_path / "phi.csv")]) == 0
        assert "lumped" not in capsys.readouterr().out

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
        assert "vs ladder table" not in shown
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

    def test_verify_skips_closed_form_on_a_double_root(self, tmp_path,
                                                       capsys):
        model = str(GOLDEN_DIR / "ex3_p05.json")
        assert main(["solve", model, "--out", str(tmp_path / "phi.csv"),
                     "--verify"]) == 0
        shown = capsys.readouterr().out
        assert "closed form skipped (multiple roots)" in shown
        assert "determinant identity" not in shown
        assert "linear solve vs ladder table" in shown

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
        assert "closed form vs ladder table: max |cumsum(pi) - phi(1..2)|" \
            in shown
        assert "(closed form residual " in shown

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

    @pytest.mark.parametrize("field, doc", [
        ("truncate_m", dict(EX4_10_DOC, truncate_m=True)),
        ("rebalance_l", dict(EX4_10_DOC, rebalance_l=True)),
        ("n", {"claim": {"family": "geometric", "p": 0.5},
               "interarrival": {"family": "binomial", "n": 4.5, "p": 0.5}}),
        ("offset", dict(EX1_DOC, claim={"pmf": {"offset": 0.5,
                                                "weights": [0.5, 0.5]}})),
        ("tail_eps", dict(EX1_DOC, tail_eps="x")),
        ("tail_eps", dict(EX1_DOC, tail_eps=None)),
        ("weight", dict(EX1_DOC, claim={"pmf": {"weights": "ab"}})),
        ("lambda", dict(EX4_10_DOC, claim={"family": "poisson",
                                           "lambda": "1"})),
        ("p", dict(EX1_DOC, claim={"family": "geometric", "p": True})),
        ("lambda", dict(EX4_10_DOC, claim={"family": "poisson",
                                           "lambda": 10 ** 400})),
        ("p", dict(EX4_10_DOC, claim={"family": "geometric", "p": 10 ** 400})),
        ("p", dict(EX1_DOC, claim={"family": "binomial", "n": 3,
                                   "p": 10 ** 400})),
    ], ids=["truncate_m_true", "rebalance_l_true", "n_float", "offset_float",
            "tail_eps_string", "tail_eps_null", "weights_string",
            "lambda_string", "p_true", "lambda_past_double_range",
            "geometric_p_past_double_range", "binomial_p_past_double_range"])
    def test_field_of_wrong_json_type_exits_2(self, tmp_path, capsys, field,
                                              doc):
        # a bool is a Python int and a float cut by int() loses its part:
        # neither may slip through as a number of another kind; nor may an
        # integer beyond the double range end in an OverflowError
        out = tmp_path / "phi.csv"
        assert main(["solve", write_model(tmp_path, doc),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field}=" in err
        assert not out.exists()

    def test_binomial_past_the_span_limit_exits_2(self, tmp_path, capsys):
        # n + 1 weights: n = 2^22 is one past the walk's span limit
        doc = {"claim": {"family": "binomial", "n": 2 ** 22, "p": 0.5},
               "interarrival": {"family": "binomial", "n": 4, "p": 0.5}}
        out = tmp_path / "phi.csv"
        assert main(["solve", write_model(tmp_path, doc),
                     "--out", str(out)]) == 2
        assert "binomial law spans more than 4194304" in capsys.readouterr().err
        assert not out.exists()


def run_cli(tmp_path, doc, command, *args):
    """`ruinwalk COMMAND MODEL ARGS` in a fresh interpreter, cut after 20 s,
    so work linear in a model parameter fails rather than hangs."""
    src = os.path.dirname(os.path.dirname(rw.__file__))
    return subprocess.run(
        [sys.executable, "-m", "ruinwalk.cli", command,
         write_model(tmp_path, doc), *args],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=20)


class TestUnallocatableTable:
    # 10**15 doubles are 7.11 PiB: numpy refuses them at once, before any
    # CSV is opened; an unmapped MemoryError would raise out of main
    @pytest.mark.parametrize("cmd", ["solve", "finite"])
    def test_huge_u_max_exits_2(self, cmd, tmp_path, capsys):
        out = tmp_path / "phi.csv"
        assert main([cmd, str(GOLDEN_DIR / "ex4_cap10.json"), "--u-max",
                     str(10**15), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()


class TestUnwritableOutput:
    # an output file in a directory that does not exist: open() raises
    # FileNotFoundError, which main reports as an error line, exit 2
    @pytest.mark.parametrize("args", [
        ["solve", "ex1.json", "--out", "{bad}"],
        ["solve", "ex1.json", "--out", "{ok}", "--dump-system", "{bad}"],
        ["finite", "ex1.json", "--out", "{bad}"],
        ["roots", "ex4_cap10.json", "--out", "{ok}", "--svg", "{bad}"],
        ["simulate", "ex1.json", "--paths", "10", "--out", "{bad}"],
        ["truncate", "ex4_cap10.json", "--out", "{bad}"],
    ], ids=["solve_out", "solve_dump_system", "finite_out", "roots_svg",
            "simulate_out", "truncate_out"])
    def test_exits_2_without_a_traceback(self, tmp_path, capsys, args):
        bad = tmp_path / "missing" / "out"
        paths = {"{bad}": str(bad), "{ok}": str(tmp_path / "ok")}
        argv = [paths.get(a, a) for a in args]
        argv[1] = str(GOLDEN_DIR / argv[1])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(bad) in err
        assert "Traceback" not in err


class TestParameterRanges:
    def test_huge_lambda_exits_2(self, tmp_path):
        # 1e308 passes the parameter check; the span check refuses it
        # before any weight is walked
        doc = dict(EX4_10_DOC, claim={"family": "poisson", "lambda": 1e308})
        got = run_cli(tmp_path, doc, "solve", "--out", str(tmp_path / "x.csv"))
        assert got.returncode == 2
        assert "poisson law spans more than 4194304 weights" in got.stderr

    @pytest.mark.parametrize("l", [30, 10 ** 12, 10 ** 400],
                             ids=["30", "1e12", "1e400"])
    def test_rebalance_point_without_mass_exits_2(self, tmp_path, l):
        # refused before an array of length l is built or l is divided
        # into the excess mean
        got = run_cli(tmp_path, dict(EX4_10_DOC, rebalance_l=l), "solve",
                      "--out", str(tmp_path / "x.csv"))
        assert got.returncode == 2
        assert got.stderr.startswith(f"error: claim mass at l={l} is 0.000e+00")
        assert "smallest feasible l is 1" in got.stderr

    def test_cap_past_the_law_is_the_cap16_model(self, tmp_path):
        # cap 10^12 gives the whole interarrival run, which SUPPORT_DUST
        # trims to the cap-16 model, bit for bit
        out = tmp_path / "capped.json"
        got = run_cli(tmp_path, dict(EX4_10_DOC, truncate_m=10 ** 12),
                      "truncate", "--out", str(out))
        assert got.returncode == 0
        assert "m = 16 (cap 1000000000000 cut by SUPPORT_DUST)" in got.stdout
        capped = rw.parse_model_config(json.loads(out.read_text())).build()
        cap16 = rw.parse_model_config(dict(EX4_10_DOC, truncate_m=16)).build()
        for name in ("claim", "interarrival", "step"):
            a, b = getattr(capped, name), getattr(cap16, name)
            assert a.offset == b.offset
            assert a.weights.tolist() == b.weights.tolist()


class TestRoots:
    def test_example4_csv_and_svg(self, tmp_path, capsys):
        model = write_model(tmp_path, EX4_10_DOC)
        out = tmp_path / "roots.csv"
        svg = tmp_path / "roots.svg"
        assert main(["roots", model, "--out", str(out),
                     "--svg", str(svg)]) == 0
        header, rows = read_csv(out)
        assert header == ["re", "im", "multiplicity", "residual", "floor"]
        assert len(rows) == 9
        assert sum(int(r[2]) for r in rows) == 9
        for r in rows:
            z = complex(float(r[0]), float(r[1]))
            assert abs(z) <= 1 + 1e-9
            assert float(r[3]) <= 1e-8
        body = svg.read_text()
        assert body.startswith("<svg")
        assert body.count("<circle") == 1 + 9   # unit circle + markers

    def test_residual_beside_the_floor_that_admitted_it(self, tmp_path,
                                                         capsys):
        # Poisson(19) claims against uncapped binomial(48, 1/2) (m = 47):
        # the 1/s powers at |s| = 0.128 cancel, so a root whose
        # |G(s) - 1| reads 9.24e+06 passes on its noise floor
        doc = {"claim": {"family": "poisson", "lambda": 19.0},
               "interarrival": {"family": "binomial", "n": 48, "p": 0.5}}
        model = write_model(tmp_path, doc)
        api = rw.unit_disk_roots(rw.load_model_config(model).build())
        assert main(["solve", model, "--out", str(tmp_path / "phi.csv")]) == 0
        shown = [ln for ln in capsys.readouterr().out.splitlines()
                 if ", residual " in ln]
        assert len(shown) == len(api.roots) == len(api.floors)
        for line, res, floor in zip(shown, api.residuals, api.floors):
            assert line.endswith(f", residual {res:.2e} "
                                 f"(noise floor {floor:.2e})")
            assert res <= max(RESIDUAL_TOL, 4.0 * floor)
        assert sum("residual 9.24e+06 (noise floor 1.22e+10)" in line
                   for line in shown) == 2      # a conjugate pair
        out = tmp_path / "roots.csv"
        assert main(["roots", model, "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[3:] == ["residual", "floor"]
        assert [(float(r[3]), float(r[4])) for r in rows] == \
            list(zip(api.residuals, api.floors))

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

    @pytest.mark.parametrize("flag,value,message", [
        ("--t-max", "0", "horizon T=0 must be >= 1"),
        ("--u-max", "-1", "u_max=-1 must be >= 0")])
    def test_empty_grid_exits_2(self, tmp_path, capsys, flag, value, message):
        model = write_model(tmp_path, EX1_DOC)
        out = tmp_path / "grid.csv"
        assert main(["finite", model, flag, value, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("args,env", [
        (["--u", "1,x"], None), ([], "abc")])
    def test_unparsable_input_exits_2(self, tmp_path, capsys, monkeypatch,
                                      args, env):
        # --u and RUINWALK_SEED are parsed as arguments: a bad one is a
        # usage error, exit 2, before any path is drawn
        if env is None:
            monkeypatch.delenv("RUINWALK_SEED", raising=False)
        else:
            monkeypatch.setenv("RUINWALK_SEED", env)
        model = write_model(tmp_path, EX1_DOC)
        out = tmp_path / "sim.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", model, "--paths", "10", *args,
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "ruinwalk simulate: error: argument" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args,env", [
        (["--seed", "-1"], None), ([], "-1")], ids=["flag", "env"])
    def test_negative_seed_exits_2_without_a_traceback(self, tmp_path,
                                                       monkeypatch, args,
                                                       env):
        # a negative seed parses as an int, and SimConfig refuses it
        if env is None:
            monkeypatch.delenv("RUINWALK_SEED", raising=False)
        else:
            monkeypatch.setenv("RUINWALK_SEED", env)
        out = tmp_path / "sim.csv"
        got = run_cli(tmp_path, EX1_DOC, "simulate", "--paths", "10",
                      *args, "--out", str(out))
        assert got.returncode == 2
        assert got.stderr == "error: seed must be >= 0\n"
        assert not out.exists()


class TestTruncate:
    @pytest.mark.parametrize("doc", [EX4_10_DOC, POIS6_GEOM_30_DOC,
                                     POIS1_POIS354_3_DOC],
                             ids=["ex4_cap10", "pois6_geom_cap30",
                                  "pois1_pois354_cap3"])
    def test_emits_capped_model_and_tail(self, tmp_path, capsys, doc):
        # the written laws sum to exactly 1.0, so they read back bit for bit
        model = write_model(tmp_path, doc)
        out = tmp_path / "capped.json"
        assert main(["truncate", model, "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert (f"uncapped-step tail P(X - c*theta <= "
                f"-{doc['truncate_m'] + 1}) = ") in shown
        assert "defect bounds" not in shown
        rebuilt = rw.parse_model_config(json.loads(out.read_text())).build()
        original = rw.load_model_config(model).build()
        for part in ("claim", "interarrival", "step"):
            assert getattr(rebuilt, part).weights.tolist() == \
                getattr(original, part).weights.tolist()
        assert rebuilt.m == doc["truncate_m"]

    @pytest.mark.parametrize("doc", [POIS6_GEOM_30_DOC, POIS1_POIS354_3_DOC],
                             ids=["pois6_geom_cap30", "pois1_pois354_cap3"])
    def test_written_model_solves_to_the_same_table(self, tmp_path, doc):
        model = write_model(tmp_path, doc)
        capped = tmp_path / "capped.json"
        assert main(["truncate", model, "--out", str(capped)]) == 0
        data = json.loads(capped.read_text())
        for part in ("claim", "interarrival"):
            assert math.fsum(data[part]["pmf"]["weights"]) == 1.0
        tables = []
        for path in (model, str(capped)):
            out = tmp_path / f"phi{len(tables)}.csv"
            assert main(["solve", path, "--u-max", "200",
                         "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]

    def test_example4_cap15_tail_without_note(self, tmp_path, capsys):
        model = write_model(tmp_path, EX4_15_DOC)
        out = tmp_path / "capped.json"
        assert main(["truncate", model, "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "uncapped-step tail P(X - c*theta <= -16) = " in shown
        assert "defect bounds" not in shown
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

    def test_tail_at_the_solved_m(self, tmp_path, capsys):
        # cap 20 builds the m = 16 model, so it reports the cap-16 tail
        # P(X - c*theta <= -17), not that of a cap at 20
        doc = {k: EX4_10_DOC[k] for k in ("claim", "interarrival")}
        model = write_model(tmp_path, doc)
        shown = {}
        for m in ("16", "20"):
            assert main(["truncate", model, "--m", m,
                         "--out", str(tmp_path / "capped.json")]) == 0
            shown[m] = [ln for ln in capsys.readouterr().out.splitlines()
                        if ln.startswith("uncapped-step")]
        assert len(shown["16"]) == 1
        assert "P(X - c*theta <= -17)" in shown["16"][0]
        assert shown["20"] == shown["16"]

    def test_cap_that_breaks_net_profit_is_still_written(self, tmp_path,
                                                          capsys):
        # at m = 1 the capped walk drifts up (+0.364): the capped model is
        # still written
        out = tmp_path / "capped.json"
        assert main(["truncate", str(GOLDEN_DIR / "ex4_cap10.json"),
                     "--m", "1", "--out", str(out)]) == 0
        shown = capsys.readouterr().out
        assert "net profit condition fails for the capped model" in shown
        assert "defect bounds" not in shown
        doc = json.loads(out.read_text())
        assert rw.parse_model_config(doc).build().m == 1

    def test_printed_m_is_the_model_m(self, tmp_path, capsys):
        # a binomial(4, 1/2) interarrival time is already below cap 10
        doc = {"claim": EX4_10_DOC["claim"],
               "interarrival": {"family": "binomial", "n": 4, "p": 0.5}}
        model = write_model(tmp_path, doc)
        assert main(["truncate", model, "--m", "10",
                     "--out", str(tmp_path / "capped.json")]) == 0
        shown = capsys.readouterr().out
        assert "  m = 4, max drop = 4, drift = -1" in shown
        assert "uncapped-step tail P(X - c*theta <= -5) = 0.000000e+00" \
            in shown
        assert "m = 10" not in shown

    def test_writes_a_model_the_root_polish_refuses(self, tmp_path, capsys,
                                                     monkeypatch):
        # SUPPORT_DUST cuts cap 100 to m = 86, where the root polish fails;
        # truncate runs no root or survival routine, so it writes the model
        def refuse(*args, **kwargs):
            raise AssertionError("truncate ran a solve routine")

        monkeypatch.setattr("ruinwalk.cli.unit_disk_roots", refuse)
        monkeypatch.setattr("ruinwalk.cli.ultimate_survival", refuse)
        doc = {"claim": {"family": "poisson", "lambda": 45.0},
               "interarrival": {"family": "binomial", "n": 100, "p": 0.5}}
        model = write_model(tmp_path, doc)
        out = tmp_path / "capped.json"
        assert main(["truncate", model, "--m", "100", "--out", str(out)]) == 0
        assert "m = 86 (cap 100 cut by SUPPORT_DUST)" in \
            capsys.readouterr().out
        rebuilt = rw.parse_model_config(json.loads(out.read_text())).build()
        original = rw.parse_model_config(dict(doc, truncate_m=100)).build()
        assert rebuilt.m == 86
        for part in ("claim", "interarrival"):
            assert getattr(rebuilt, part).weights.tolist() == \
                getattr(original, part).weights.tolist()

    def test_uncapped_support_dust_trim_is_reported(self, tmp_path, capsys):
        # P(V = 48) = 2^-48 of a binomial(48, 1/2) interarrival time is
        # below SUPPORT_DUST, so the uncapped model is solved at m = 47;
        # truncate needs a bound, so its note names the cap
        doc = {"claim": {"family": "poisson", "lambda": 19.0},
               "interarrival": {"family": "binomial", "n": 48, "p": 0.5}}
        model = write_model(tmp_path, doc)
        assert main(["solve", model, "--out", str(tmp_path / "phi.csv")]) == 0
        assert "  m = 47 (support max 48 cut by SUPPORT_DUST), " \
            "max drop = 47, drift = -5" in capsys.readouterr().out
        out = tmp_path / "capped.json"
        assert main(["truncate", model, "--m", "48", "--out", str(out)]) == 0
        assert "m = 47 (cap 48 cut by SUPPORT_DUST)" in capsys.readouterr().out
        rebuilt = rw.parse_model_config(json.loads(out.read_text())).build()
        original = rw.load_model_config(model).build()
        assert (rebuilt.m, rebuilt.dust_from) == (47, None)
        for part in ("claim", "interarrival", "step"):
            a, b = getattr(rebuilt, part), getattr(original, part)
            assert a.offset == b.offset
            assert a.weights.tolist() == b.weights.tolist()

    def test_builds_the_model_once(self, tmp_path, capsys, monkeypatch):
        builds = []
        build = rw.ModelConfig.build

        def counted(cfg):
            builds.append(cfg)
            return build(cfg)

        monkeypatch.setattr(rw.ModelConfig, "build", counted)
        model = write_model(tmp_path, EX4_20_DOC)
        assert main(["truncate", model,
                     "--out", str(tmp_path / "capped.json")]) == 0
        assert len(builds) == 1

    def test_needs_a_bound(self, tmp_path):
        model = write_model(tmp_path, EX1_DOC)
        assert main(["truncate", model]) == 2


class TestDefaultOutputNames:
    def test_solve_default_artifact(self, tmp_path, monkeypatch):
        model = write_model(tmp_path, EX1_DOC, "ex1.json")
        monkeypatch.chdir(tmp_path)
        assert main(["solve", model, "--u-max", "2"]) == 0
        assert (tmp_path / "ex1_phi.csv").exists()

    def test_walk_that_never_steps_up_report(self, tmp_path, capsys):
        # steps -1 and -2 only: no ladder height, so psi = 0 above zero and
        # all of the maximum's mass sits at 0, with no negative zero
        doc = {"claim": {"pmf": {"offset": 0, "weights": [1.0]}},
               "interarrival": {"pmf": {"offset": 1, "weights": [0.5, 0.5]}}}
        model = write_model(tmp_path, doc, "down.json")
        assert main(["solve", model, "--out", str(tmp_path / "d.csv")]) == 0
        assert "pi: 1, 0" in capsys.readouterr().out.splitlines()
        table = rw.ultimate_survival(rw.load_model_config(model).build(),
                                     u_max=5)
        np.testing.assert_array_equal(table.q, [1.0, 0.0])
        assert not np.signbit(table.q).any()
        np.testing.assert_array_equal(table.phis[1:], 1.0)

    def test_rootless_model_report(self, tmp_path, capsys):
        doc = {"claim": {"pmf": {"offset": 0, "weights": [0.5, 0.3, 0.2]}},
               "interarrival": {"pmf": {"offset": 1, "weights": [1.0]}}}
        model = write_model(tmp_path, doc, "unit.json")
        assert main(["solve", model, "--u-max", "5",
                     "--out", str(tmp_path / "u.csv")]) == 0
        assert "none (max drop 1)" in capsys.readouterr().out


def test_cli_import_loads_no_scipy(tmp_path):
    # fresh interpreters, so modules loaded by other tests do not count;
    # the package depends on numpy alone, and plain solve neither runs
    # the paper's system nor loads the simulation oracle
    src = os.path.dirname(os.path.dirname(rw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    model = str(GOLDEN_DIR / "ex4_cap15.json")
    out = str(tmp_path / "phi.csv")
    loaded = ("print(sorted({'scipy', 'mpmath', 'ruinwalk.initial_values',"
              " 'ruinwalk.oracle'} & set(sys.modules)))")
    for run in ("import ruinwalk.cli",
                "from ruinwalk.cli import main; "
                "print(main(['solve', sys.argv[1], '--out', sys.argv[2]]))"):
        got = subprocess.run([sys.executable, "-c", f"import sys; {run}; "
                              f"{loaded}", model, out], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert got.splitlines()[-1] == "[]"
    assert got.splitlines()[-3:-1] == [f"wrote {out}", "0"]


def test_dump_system_loads_no_mpmath(tmp_path):
    # the system, its refined solve and the closed form all run in
    # integers. Example 3 has a double root, so the dump holds a
    # derivative row; Example 4 at cap 15 runs every route of --verify.
    src = os.path.dirname(os.path.dirname(rw.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    dump = tmp_path / "system.csv"
    run = ("import sys; from ruinwalk.cli import main; "
           "print(main(['solve', *sys.argv[1:]])); "
           "print('mpmath' in sys.modules)")
    got = {}
    for name, extra in (("ex3_p05", ["--dump-system", str(dump)]),
                        ("ex4_cap15", ["--verify"])):
        got[name] = subprocess.run(
            [sys.executable, "-c", run, str(GOLDEN_DIR / f"{name}.json"),
             "--out", str(tmp_path / "phi.csv"), *extra], env=env,
            check=True, capture_output=True, text=True).stdout.splitlines()
        assert got[name][-2:] == ["0", "False"]
    _, rows = read_csv(dump)
    assert [r[0].split("(")[0] for r in rows] == ["root", "derivative", "mean"]
    assert any(ln.startswith("  closed form vs linear solve: max |dpi| = ")
               for ln in got["ex4_cap15"])

