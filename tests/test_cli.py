import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import blflow
from blflow import (BellmanSpec, certificate, enumerate_bases, heatflow, polytope,
                    solve_s_system, verifier)
from blflow.cli import main
from blflow.io import parse_problem
from test_certificate import exact_functional

HOLDER = {
    "k": 1, "n": 2, "A": [[1.0, 1.0]], "inv_p": [0.5, 0.5],
    "B": {"variant": "young", "alpha": [0.5, 0.5]},
    "profiles": [{"type": "box", "lo": 0.0, "hi": 1.0, "height": 1.0},
                 {"type": "box", "lo": 0.0, "hi": 2.0, "height": 1.0}],
}

YOUNG3 = {
    "k": 2, "n": 3, "A": [[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]],
    "inv_p": [2 / 3, 2 / 3, 2 / 3],
    "B": {"variant": "young", "alpha": [2 / 3, 2 / 3, 2 / 3]},
}

OUTSIDE = {
    "k": 2, "n": 3, "A": [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
    "inv_p": [0.6, 0.6, 0.8],
}

# one exponent at 1: on the polytope's boundary, where the supremum is only
# reached in a limit and Newton meets res_tol far out along the ray
BOUNDARY = {
    "k": 2, "n": 3, "A": [[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]],
    "inv_p": [1.0, 0.5, 0.5],
}

# a repeated column whose exponents sum past 1: Q(b) turns near-singular
NEAR_SINGULAR = {
    "k": 2, "n": 4,
    "A": [[-0.88, 0.94, -0.45, -0.88], [-0.47, 0.33, 0.89, -0.47]],
    "inv_p": [0.8, 0.01, 0.39, 0.8],
}

# inside the polytope, but no solve meets a residual tolerance below round-off:
# these exponents sum to 2 - 2.2e-16 in floating point, and to 2 + 4.4e-16 once
# rescaled to degree k = 2, so sum(x - tau) = sum(x) - k keeps the residual near 1e-16
UNREACHABLE_TOL = {
    "k": 2, "n": 3, "A": [[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]],
    "inv_p": [0.7, 0.6, 0.7], "tolerances": {"res_tol": 1e-30},
}

# k = 1 exponents 1e-5 from the boundary: inside at the default boundary_tol,
# on the boundary at the file's own
WIDE_BOUNDARY_TOL = {
    "k": 1, "n": 2, "A": [[1.0, 1.0]], "inv_p": [1.0 - 1e-5, 1e-5],
    "tolerances": {"boundary_tol": 1e-3},
}

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

# inside (slack 0.063), but a_1 and a_3 are 5e-5 from parallel: s^2 spans nine
# decades and cond M(s) = 1.2e9, so a C read off a factor of M(s) would meet
# T = I only to eps cond M(s), a few times PDE_TOL
NEAR_PARALLEL = {
    "k": 2, "n": 3,
    "A": [[-1.23039551, -1.02126268, 1.13451221], [0.65083906, -0.94682061, -0.60019183]],
    "inv_p": [0.93721374, 0.79375315, 0.26903311],
    "B": {"variant": "young", "alpha": [0.93721374, 0.79375315, 0.26903311]},
}


# inside, with a_0 and a_1 2.2e-8 apart: the basis {a_0, a_1, a_3, a_5} falls
# below polytope.BASIS_TOL, yet holds 4.7 % of det M(s) at the solution, so a
# solve on the basis table alone misses both s^2 and D (by 2.5 %)
TABLE_MISSES = {
    "k": 4, "n": 6,
    "A": [[0.11721590527178676, 0.11721589767171113, -0.5424925083586664,
           -0.36882084383278296, 0.24523982285971332, 0.009181120546081726],
          [-0.9035488729501212, -0.9035488818901931, -0.11032504132771846,
           -0.08995004120346797, -0.4088653417696275, 0.8723155400108713],
          [-0.10243441210583241, -0.1024344121709774, -0.2116261950570454,
           -0.9083044403416725, -0.2000703828221725, 0.326240265065446],
          [-0.39920803719165493, -0.39920801917193877, -0.8054468431848478,
           0.1756793069703133, 0.8559546737419753, 0.3640722388909759]],
    "inv_p": [0.6283447342610494, 0.6321190165555957, 0.6418162043771541,
              0.7444496656655405, 0.7560589088913996, 0.5972114702492604],
}

# inside, with a_0 and a_1 2.5e-8 apart and cond M(s) near 1.4e16 at the
# solution: max_j |x_j - tau_j| on a factor in double precision stays near
# res_tol, so whether a solve meets it there is round-off
FACTOR_MISSES = {
    "k": 3, "n": 5,
    "A": [[-0.7703356306960871, -0.7703356149060281, -0.6233381581659965,
           -0.4196731285841403, -0.4697655639517035],
          [0.3510122844044148, 0.3510122899300132, -0.7817917731576983,
           0.8241379437234869, -0.467306561157617],
          [-0.5323282749180771, -0.5323282941244435, -0.01584815437724657,
           0.3803565627928909, 0.748962544339956]],
    "inv_p": [0.9452621714465934, 0.442828891013349, 0.514101795225846,
              0.6319998370528064, 0.46580730526140535],
}


# k = 4, n = 6: the moment curve (1, t, t^2, t^3) at six points, so every four
# columns are independent and 1/p = 2/3 is interior; off-centre Gaussians
_T = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
K4_GAUSSIANS = {
    "k": 4, "n": 6,
    "A": (np.vstack([_T**0, _T, _T**2, _T**3]) / np.sqrt(1 + _T**2 + _T**4 + _T**6)).tolist(),
    "inv_p": [2 / 3] * 6,
    "profiles": [{"type": "gaussian", "amplitude": 1.0, "center": 0.1 * j,
                  "variance": 1.0 + 0.2 * j} for j in range(6)],
}


def tmax_for(command):
    """A short time grid for flow, the one command that reads --tmax."""
    return ["--tmax", "1"] if command == "flow" else []


def scaled_columns(doc, c):
    """The file with a_j -> c_j a_j: the same datum, up to an exact symmetry."""
    return dict(doc, A=(np.asarray(doc["A"]) * c).tolist())

OFF_INTERIOR = pytest.mark.parametrize("doc", [BOUNDARY, NEAR_SINGULAR],
                                       ids=["boundary", "near_singular"])


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith(("{", "[")) else out


class TestFiniteness:
    def test_inside(self, tmp_path, capsys):
        code, doc = run_json(capsys, ["finiteness", write(tmp_path, YOUNG3)])
        assert code == 0
        assert doc["verdict"] == "inside"
        assert doc["basis_count"] == 3
        # a singleton has rank 1 and exponent 2/3
        assert doc["witness"] == [0]
        assert doc["slack"] == pytest.approx(1 / 3, abs=1e-12)

    def test_outside(self, tmp_path, capsys):
        code, doc = run_json(capsys, ["finiteness", write(tmp_path, OUTSIDE)])
        assert code == 0
        assert doc["verdict"] == "outside"
        # the parallel columns 0 and 1 have rank 1 and exponents summing to 1.2
        assert doc["witness"] == [0, 1]
        assert doc["slack"] == pytest.approx(-0.2)

    @pytest.mark.parametrize("doc, verdict", [
        (YOUNG3, "inside"), (BOUNDARY, "boundary"), (OUTSIDE, "outside"),
        ({"k": 2, "n": 2, "A": [[1.0, 0.0], [0.0, 1.0]], "inv_p": [1.0, 1.0]}, "inside"),
    ], ids=["inside", "boundary", "outside", "single_point"])
    def test_report_schema(self, tmp_path, capsys, doc, verdict):
        code, out = run_json(capsys, ["finiteness", write(tmp_path, doc)])
        assert code == 0
        assert set(out) == {"verdict", "witness", "slack", "basis_count"}
        assert out["verdict"] == verdict
        assert type(out["basis_count"]) is int and out["basis_count"] >= 1
        if verdict == "inside" and doc["n"] == doc["k"]:
            # K is the single point 1: no subset bounds the slack
            assert out["witness"] is None and out["slack"] is None
        else:
            assert isinstance(out["witness"], list)
            assert all(type(j) is int for j in out["witness"])
            assert out["witness"] == sorted(set(out["witness"]))
            assert type(out["slack"]) is float
            assert (out["slack"] > 0.0) == (verdict == "inside")


class TestConstant:
    def test_holder_is_one(self, tmp_path, capsys):
        code, doc = run_json(capsys, ["constant", write(tmp_path, HOLDER)])
        assert code == 0
        assert doc["status"] == "converged"
        assert abs(doc["D"] - 1.0) <= 1e-9

    def test_young_value(self, tmp_path, capsys):
        code, doc = run_json(capsys, ["constant", write(tmp_path, YOUNG3)])
        assert code == 0
        assert doc["D"] == pytest.approx(0.8660254037844388, rel=1e-9)
        # the start s^2 ∝ x / |a|^2 = (2, 1, 2) is four Newton steps from the
        # symmetric solution
        assert doc["iterations"] == 5 and doc["residual"] <= 1e-10
        # YOUNG3 is eps = -1 of A = [[1, 1, 0], [0, eps, 1]] at 1/p = 2/3, where
        # D = (sqrt(3)/2) |eps|^(-1/3); a_0 and a_1 come within eps of parallel
        for eps in (1e-2, 1e-4, 1e-5, 1e-6, 1e-8):
            path = write(tmp_path, dict(YOUNG3, A=[[1.0, 1.0, 0.0], [0.0, eps, 1.0]]),
                         f"eps_{eps:g}.json")
            code, doc = run_json(capsys, ["constant", path])
            assert code == 0 and doc["status"] == "converged", eps
            assert doc["D"] == pytest.approx(math.sqrt(3.0) / 2.0 * eps ** (-1.0 / 3.0),
                                             rel=1e-12), eps
            code, doc = run_json(capsys, ["solve-c", path])
            assert code == 0 and doc["converged"], eps

    def test_D_is_exact_at_its_weights(self, tmp_path, capsys):
        # D comes from the factor s^2 does, not from the basis table, which
        # lacks a basis that holds 4.7 % of det M(s) here
        mpmath = pytest.importorskip("mpmath")
        code, doc = run_json(capsys, ["constant", write(tmp_path, TABLE_MISSES)])
        assert code == 0 and doc["status"] == "converged"
        exact = exact_functional(mpmath, np.array(TABLE_MISSES["A"]),
                                 np.array(TABLE_MISSES["inv_p"]), np.array(doc["argmax_b"]))
        assert doc["D"] == pytest.approx(exact, rel=1e-8)

    def test_outside_reports_divergence(self, tmp_path, capsys):
        code, doc = run_json(capsys, ["constant", write(tmp_path, OUTSIDE)])
        assert code == 0
        assert doc["status"] == "sup not attained / infinite"
        assert doc["warnings"]

    @OFF_INTERIOR
    def test_off_interior_is_not_attained(self, tmp_path, capsys, doc):
        code, out = run_json(capsys, ["constant", write(tmp_path, doc)])
        assert code == 0
        assert out["status"] == "sup not attained / infinite"

    @pytest.mark.parametrize("doc, where", [(BOUNDARY, "on the boundary of"),
                                            (OUTSIDE, "outside")],
                             ids=["boundary", "outside"])
    def test_warning_is_a_sentence(self, tmp_path, capsys, doc, where):
        code, out = run_json(capsys, ["constant", write(tmp_path, doc)])
        assert code == 0
        assert out["warnings"] == [f"exponents are {where} the polytope; the supremum "
                                   "may be infinite or attained only in a limit"]


    def test_reports_the_solver_notes(self, tmp_path, capsys):
        # D is infinite outside, so nothing is solved: the note is the verdict's
        # witness and slack, and D, argmax_b and residual are null
        for name, doc, witness, miss in [
                ("off_degree.json", dict(YOUNG3, inv_p=[.5, .5, .5]), [0, 1, 2], "0.5"),
                ("parallel_pair.json", OUTSIDE, [0, 1], "0.2")]:
            path = write(tmp_path, doc, name)
            verdict = run_json(capsys, ["finiteness", path])[1]
            assert verdict["verdict"] == "outside" and verdict["witness"] == witness
            code, out = run_json(capsys, ["constant", path])
            assert code == 0 and out["status"] == "sup not attained / infinite"
            assert out["D"] is None and out["argmax_b"] is None and out["residual"] is None
            assert out["iterations"] == 0
            assert out["notes"] == [f"the exponents miss the polytope by {miss} at columns "
                                    f"S = {witness}: D is infinite"]

    def test_degree_within_tolerance_gets_one_verdict(self, tmp_path, capsys):
        # sum(1/p) = 2 + 1e-9 is within polytope.DEGREE_TOL of k = 2: the
        # polytope calls it inside, and the solver solves at degree exactly 2
        path = write(tmp_path, dict(YOUNG3, inv_p=[0.666666667] * 3))
        assert run_json(capsys, ["finiteness", path])[1]["verdict"] == "inside"
        code, doc = run_json(capsys, ["constant", path])
        assert code == 0 and doc["status"] == "converged" and not doc["notes"]
        exact = run_json(capsys, ["constant", write(tmp_path, YOUNG3, "exact.json")])[1]
        assert doc["D"] == pytest.approx(exact["D"], rel=1e-15)
        code, doc = run_json(capsys, ["solve-c", path])
        assert code == 0 and doc["converged"]

    def test_honours_res_tol(self, tmp_path, capsys):
        path = write(tmp_path, UNREACHABLE_TOL)
        code, doc = run_json(capsys, ["constant", path])
        assert code == 3 and doc["status"] == "non-convergence"
        assert doc["residual"] > 1e-30
        code, doc = run_json(capsys, ["solve-c", path])
        assert code == 3 and not doc["converged"]
        assert doc["system_residual"] > 1e-30
        # P = U U^T for the factor's own certificate, so the projection block
        # holds on a solve that stops short of res_tol
        assert doc["projection"]["ok"]

    def test_honours_boundary_tol(self, tmp_path, capsys):
        path = write(tmp_path, WIDE_BOUNDARY_TOL)
        assert run_json(capsys, ["finiteness", path])[1]["verdict"] == "boundary"
        code, doc = run_json(capsys, ["constant", path])
        assert code == 0 and doc["status"] == "sup not attained / infinite"
        assert main(["solve-c", path]) == 3


class TestSolveC:
    def test_young_certificate(self, tmp_path, capsys):
        code, doc = run_json(capsys, ["solve-c", write(tmp_path, YOUNG3)])
        assert code == 0
        assert doc["converged"]
        # C is proportional to (A A^T)^{-1} at the symmetric solution
        AAT_inv = np.linalg.inv(np.array(YOUNG3["A"]) @ np.array(YOUNG3["A"]).T)
        C = np.array(doc["C"])
        scale = C[0, 0] / AAT_inv[0, 0]
        assert np.allclose(C, scale * AAT_inv, rtol=1e-8)
        # tr M(s) = s^2 sum_j |a_j|^2 = 4 s^2 = 1
        assert np.allclose(doc["s_sq"], [1 / 4, 1 / 4, 1 / 4], atol=1e-9)
        assert doc["inverse_defect"] <= 1e-9
        assert doc["projection"]["ok"] and doc["projection"]["rank"] == 2

    def test_writes_out_file(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["solve-c", write(tmp_path, YOUNG3), "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["converged"]

    @OFF_INTERIOR
    def test_off_interior_has_no_certificate(self, tmp_path, capsys, doc):
        assert main(["solve-c", write(tmp_path, doc)]) == 3

    def test_boundary_note(self, tmp_path, capsys):
        # slack 1e-7: inside, but within 1e-6 of the boundary
        near = {"k": 1, "n": 2, "A": [[1.0, 1.0]], "inv_p": [1.0 - 1e-7, 1e-7]}
        code, doc = run_json(capsys, ["solve-c", write(tmp_path, near)])
        assert code == 0 and doc["polytope_verdict"] == "inside"
        assert any("boundary" in note for note in doc["notes"])
        code, doc = run_json(capsys, ["solve-c", write(tmp_path, YOUNG3)])
        assert code == 0 and doc["converged"] and doc["notes"] == []


    def test_finishes_on_the_certificates_factor(self, tmp_path, capsys):
        path = write(tmp_path, TABLE_MISSES)
        code, doc = run_json(capsys, ["solve-c", path])
        assert code == 0 and doc["converged"]
        assert doc["system_residual"] <= certificate.RES_TOL and doc["residual"] <= 1e-8
        code, doc = run_json(capsys, ["verify", path])
        assert code == 0 and doc["pde"]["defect"] <= 1e-8

    def test_a_near_singular_factor_gets_one_verdict(self, tmp_path, capsys):
        # cond M(s) is about 1.4e16 at the solution, so whether a factor meets
        # res_tol there is round-off; constant and solve-c read one solve, so
        # they give one verdict, and D is the exact value at the reported weights
        mpmath = pytest.importorskip("mpmath")
        path = write(tmp_path, FACTOR_MISSES)
        c_code, const = run_json(capsys, ["constant", path])
        s_code, solve = run_json(capsys, ["solve-c", path])
        assert c_code == s_code
        assert (const["status"] == "converged") == solve["converged"]
        assert const["residual"] == solve["system_residual"]
        assert const["iterations"] == solve["iterations"]
        assert (const["residual"] <= certificate.RES_TOL) == solve["converged"]
        exact = exact_functional(mpmath, np.array(FACTOR_MISSES["A"]),
                                 np.array(FACTOR_MISSES["inv_p"]), np.array(const["argmax_b"]))
        assert const["D"] == pytest.approx(exact, rel=1e-8)


class TestOneBasisTable:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Calls of enumerate_bases, through every blflow module that binds it."""
        calls = []
        original = polytope.enumerate_bases

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is not None and (name == "blflow" or name.startswith("blflow.")):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return calls

    @pytest.mark.parametrize("command", ["finiteness", "constant", "solve-c", "verify", "flow"])
    def test_solved_data_build_it_once(self, tmp_path, capsys, builds, command):
        assert main([command, write(tmp_path, HOLDER), *tmax_for(command)]) == 0
        assert len(builds) == 1

    @pytest.mark.parametrize("command", ["verify", "flow"])
    def test_explicit_C_builds_none(self, tmp_path, capsys, builds, command):
        assert main([command, write(tmp_path, dict(HOLDER, C=[[1.0]])), *tmax_for(command)]) == 0
        assert builds == []

    @staticmethod
    def counted(monkeypatch, name):
        """Calls of certificate.<name>, which the solve looks up in its module."""
        calls = []
        original = getattr(certificate, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(certificate, name, counting)
        return calls

    @pytest.fixture
    def factors(self, monkeypatch):
        """Every factor made, the number made when each solve returned, and
        every factor a certificate was read from."""
        log = {"made": [], "solves": [], "certs": []}
        factor, solve, cert = certificate._factor, certificate.solve_s_system, certificate.Factor.cert

        def factoring(*args):
            log["made"].append(factor(*args))
            return log["made"][-1]

        def solving(*args, **kwargs):
            result = solve(*args, **kwargs)
            log["solves"].append((result, len(log["made"])))
            return result

        def reading(self):
            log["certs"].append(self)
            return cert(self)

        monkeypatch.setattr(certificate, "_factor", factoring)
        monkeypatch.setattr(certificate, "solve_s_system", solving)
        monkeypatch.setattr(certificate.Factor, "cert", reading)
        return log

    @pytest.mark.parametrize("doc,command", [
        *((HOLDER, c) for c in ("finiteness", "constant", "solve-c", "verify", "flow")),
        *((YOUNG3, c) for c in ("finiteness", "constant", "solve-c", "verify")),
        (NEAR_PARALLEL, "verify")])
    def test_converged_interior_data_run_one_qr(self, tmp_path, capsys, factors, doc, command):
        # the one factorisation D and the certificate come from is the solve's
        # last, and nothing is factored after the solve returns
        assert main([command, write(tmp_path, doc), *tmax_for(command)]) == 0
        if command == "finiteness":
            assert factors == {"made": [], "solves": [], "certs": []}
            return
        [(result, made)] = factors["solves"]
        assert made == len(factors["made"]) and result.factor is factors["made"][-1]
        assert len(factors["certs"]) == (command != "constant")
        assert all(c is result.factor for c in factors["certs"])

    @pytest.mark.parametrize("command", ["constant", "solve-c", "verify", "flow"])
    def test_k1_data_build_no_null_projector(self, tmp_path, capsys, monkeypatch, command):
        doc = json.loads((PROBLEMS / "holder_boxes.json").read_text())
        del doc["C"]
        projectors = self.counted(monkeypatch, "_null_projector")
        assert main([command, write(tmp_path, doc), *tmax_for(command)]) == 0
        assert projectors == []


class TestVerify:
    def test_young_passes(self, tmp_path, capsys):
        code, doc = run_json(capsys, ["verify", write(tmp_path, YOUNG3)])
        assert code == 0
        assert doc["ok"] and doc["l3"]["ok"] and doc["pde"]["ok"]
        assert doc["rank"]["worst"] <= doc["rank"]["bound"]
        assert doc["l5"]["converged"]
        assert doc["l5"]["value"] == pytest.approx(2.72069904637063, rel=1e-9)

    def test_report_schema(self, tmp_path, capsys):
        # exact and y-free: no samples, seed, Euler probe or quadrature levels
        code, doc = run_json(capsys, ["verify", write(tmp_path, YOUNG3)])
        assert code == 0
        assert set(doc) == {"l3", "pde", "rank", "l5", "tolerances", "ok"}
        assert {k: type(v) for k, v in doc["l3"].items()} == {"ok": bool, "max_eig": float}
        assert {k: type(v) for k, v in doc["pde"].items()} == {"ok": bool, "defect": float}
        assert {k: type(v) for k, v in doc["rank"].items()} == {
            "ok": bool, "worst": int, "bound": int}
        assert {k: type(v) for k, v in doc["l5"].items()} == {"converged": bool, "value": float}
        assert {k: type(v) for k, v in doc["tolerances"].items()} == {
            "l3_tol": float, "pde_tol": float, "rank_tol": float}
        assert type(doc["ok"]) is bool

    def test_grid_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--grid", "10", write(tmp_path, YOUNG3)])
        assert exc.value.code == 2

    def test_section_triple_with_explicit_C(self, tmp_path, capsys):
        doc_in = {
            "k": 2, "n": 3,
            "A": [[0.0, 0.0, 1 / math.sqrt(2.0)], [1.0, 1.0, 0.0]],
            "B": {"variant": "lifted", "phi": "sqrt_uv", "alpha": [1.0],
                  "section_vars": [0, 1]},
            "C": [[2.0, 0.0], [0.0, 1.0]],
        }
        code, doc = run_json(capsys, ["verify", write(tmp_path, doc_in)])
        assert code == 0
        assert doc["ok"]
        assert doc["pde"]["defect"] <= 1e-10

    def test_unconverged_certificate_exits_three(self, tmp_path, capsys, monkeypatch):
        # capped before its first Newton step, the solve leaves no certificate to check
        monkeypatch.setattr(certificate, "MAX_ITER", 1)
        doc_in = dict(YOUNG3, inv_p=[0.6, 0.7, 0.7],
                      B={"variant": "young", "alpha": [0.6, 0.7, 0.7]})
        assert main(["verify", write(tmp_path, doc_in)]) == 3

    def test_near_parallel_agrees_with_solve_c(self, tmp_path, capsys):
        """verify and solve-c decide on the same k x k spectrum, read off the
        Gram matrix that one QR factor of A S gives: both pass, and the solved
        C is M(s)^{-1} to far better than eps cond M(s)."""
        mpmath = pytest.importorskip("mpmath")
        path = write(tmp_path, NEAR_PARALLEL)
        code, ver = run_json(capsys, ["verify", path])
        assert code == 0 and ver["ok"] and ver["pde"]["defect"] <= 1e-12
        code, sol = run_json(capsys, ["solve-c", path])
        assert code == 0 and sol["converged"] and sol["projection"]["ok"]
        top = np.sort(sol["projection"]["eigenvalues"])[-NEAR_PARALLEL["k"]:]
        assert float(np.max(np.abs(top - 1.0))) <= 1e-12
        # the reference: a 50-digit inverse of M(s) = A diag(s^2) A^T at the same s^2
        with mpmath.workdps(50):
            AS = mpmath.matrix(NEAR_PARALLEL["A"]) * mpmath.diag(
                [mpmath.sqrt(mpmath.mpf(v)) for v in sol["s_sq"]])
            exact = np.array(((AS * AS.T) ** -1).tolist(), dtype=float)
        assert np.linalg.norm(np.asarray(sol["C"]) - exact) <= 1e-11 * np.linalg.norm(exact)

    @pytest.mark.parametrize("scale", [1e-20, 1e-10, 1e10])
    def test_column_scaling_keeps_the_verdicts(self, tmp_path, capsys, scale):
        """A = [[1, 0, .6], [0, c, .8]]: the solve and the verdicts do not see c."""
        base = {"k": 2, "n": 3, "A": [[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]],
                "inv_p": [0.8, 0.5, 0.7]}
        docs = []
        for doc_in in (base, scaled_columns(base, [1.0, scale, 1.0])):
            path = write(tmp_path, doc_in)
            for command in ("finiteness", "constant", "solve-c"):
                code, doc = run_json(capsys, [command, path])
                assert code == 0, command
            assert doc["projection"]["ok"]
            code, doc = run_json(capsys, ["verify", path])
            docs.append(doc)
        for key in ("l3", "pde", "rank"):
            assert docs[1][key]["ok"] == docs[0][key]["ok"] is True
        assert docs[1]["ok"] == docs[0]["ok"] is True
        assert docs[1]["rank"]["worst"] == docs[0]["rank"]["worst"]

    def test_bad_certificate_exits_one(self, tmp_path, capsys):
        doc_in = dict(YOUNG3)
        doc_in["C"] = [[2.0, 0.0], [0.0, 2.0]]  # wrong off-diagonal
        code, doc = run_json(capsys, ["verify", write(tmp_path, doc_in)])
        assert code == 1
        assert not doc["ok"]


class TestFlow:
    def test_box_flow_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["flow", write(tmp_path, HOLDER), "--out", str(out),
                     "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,B_t,L,refinement"
        rows = [line.split(",") for line in lines[1:]]
        values = [float(r[1]) for r in rows]
        assert float(rows[0][0]) == 0.0 and values[0] == pytest.approx(1.0, abs=1e-8)
        assert math.sqrt(2.0) - 1e-3 <= values[-1] <= math.sqrt(2.0) + 1e-8
        assert all(b >= a - 1e-8 for a, b in zip(values, values[1:]))
        # stdout carries the same CSV
        assert capsys.readouterr().out.splitlines()[0] == "t,B_t,L,refinement"

    def test_json_report_with_tmax(self, tmp_path, capsys):
        code, doc = run_json(capsys, ["flow", write(tmp_path, HOLDER),
                                      "--tmax", "10"])
        assert code == 0
        assert doc["monotone"] and doc["label"] == "certified"
        assert max(doc["times"]) == 10.0
        assert doc["limit_value"] == pytest.approx(math.sqrt(2.0), rel=1e-8)

    @pytest.mark.parametrize("problem", ["holder_boxes", "lifted_section_triple"])
    def test_json_levels_match_csv_refinement(self, tmp_path, capsys, problem):
        path = str(PROBLEMS / f"{problem}.json")
        code, doc = run_json(capsys, ["flow", path])
        assert code == 0
        assert len(doc["levels"]) == len(doc["times"])
        assert all(type(level) is int for level in doc["levels"])
        main(["flow", path, "--format", "csv"])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert doc["levels"] == [int(row.split(",")[3]) for row in rows]
        # all-Gaussian data take the closed form at every time: 0 doublings
        assert (set(doc["levels"]) == {0}) == (problem == "lifted_section_triple")

    @pytest.mark.parametrize("problem", sorted(p.name for p in PROBLEMS.glob("*.json")))
    def test_flow_on_every_problem(self, capsys, problem):
        path = PROBLEMS / problem
        code = main(["flow", str(path), "--format", "csv"])
        err = capsys.readouterr().err
        if json.loads(path.read_text()).get("profiles"):
            assert code == 0, err
        else:
            assert code == 2
            assert "needs profiles" in err and "Traceback" not in err


def scaled_datum(doc, c):
    """a_j -> c_j a_j with u_j(y) -> u_j(y / c_j): box edges and Gaussian centres
    times c_j, Gaussian variances times c_j^2; heights and amplitudes stay."""
    out = scaled_columns(doc, c)
    if "profiles" in doc:
        def profile(p, cj):
            if p["type"] == "gaussian":
                return dict(p, center=p["center"] * cj, variance=p["variance"] * cj * cj)
            return dict(p, lo=p["lo"] * cj, hi=p["hi"] * cj)
        out["profiles"] = [profile(p, cj) for p, cj in zip(doc["profiles"], c)]
    return out


class TestColumnScaling:
    """Column scaling is an exact symmetry of all five commands (ROADMAP item 15)."""

    COMMANDS = ("finiteness", "constant", "solve-c", "verify", "flow")

    def reports(self, capsys, path):
        return {command: run_json(capsys, [command, path]) for command in self.COMMANDS}

    @pytest.mark.parametrize("name", sorted(p.name for p in PROBLEMS.glob("*.json")))
    def test_every_command_on_the_problem_files(self, tmp_path, capsys, name):
        doc = json.loads((PROBLEMS / name).read_text())
        ref = self.reports(capsys, str(PROBLEMS / name))
        rng = np.random.default_rng(15)
        for _ in range(6):
            c = 10.0 ** rng.uniform(-8.0, 8.0, size=doc["n"])
            got = self.reports(capsys, write(tmp_path, scaled_datum(doc, c)))
            assert {k: v[0] for k, v in got.items()} == {k: v[0] for k, v in ref.items()}
            if ref["finiteness"][0] == 0:
                (_, r), (_, g) = ref["finiteness"], got["finiteness"]
                assert (g["verdict"], g["witness"], g["basis_count"]) == \
                    (r["verdict"], r["witness"], r["basis_count"])
                # D is multiplied by prod_j c_j^(-1/p_j)
                factor = np.prod(c ** -np.asarray(doc["inv_p"]))
                assert got["constant"][1]["D"] == pytest.approx(
                    factor * ref["constant"][1]["D"], rel=1e-13)
                # the solved C is unchanged: tr M(s) = 1 fixes its scale
                C0, C1 = (np.asarray(out[1]["C"]) for out in (ref["solve-c"], got["solve-c"]))
                np.testing.assert_allclose(C1, C0, rtol=1e-12, atol=0.0)
            (_, r), (_, g) = ref["verify"], got["verify"]
            assert [g[key]["ok"] for key in ("l3", "pde", "rank")] == \
                [r[key]["ok"] for key in ("l3", "pde", "rank")]
            assert (g["rank"]["worst"], g["l5"]["converged"], g["ok"]) == \
                (r["rank"]["worst"], r["l5"]["converged"], r["ok"])
            if ref["flow"][0] == 0:
                (_, r), (_, g) = ref["flow"], got["flow"]
                np.testing.assert_allclose(g["values"], r["values"], rtol=1e-12, atol=0.0)
                assert (g["monotone"], g["label"]) == (r["monotone"], r["label"])


    def test_flow_with_a_solved_certificate(self, tmp_path, capsys):
        """Without an explicit C the flow runs on the solved one, and its
        diffusivities must not see the scaling either."""
        rng = np.random.default_rng(2026)
        for _ in range(10):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(k + 1, 7))
            A = rng.normal(size=(k, n))
            A /= np.linalg.norm(A, axis=0)
            V = polytope.enumerate_bases(blflow.VectorSystem(A)).vectors
            inv_p = rng.dirichlet(np.ones(len(V))) @ V
            doc = {"k": k, "n": n, "A": A.tolist(), "inv_p": inv_p.tolist(),
                   "profiles": [{"type": "gaussian", "amplitude": float(a),
                                 "center": float(m), "variance": float(v)}
                                for a, m, v in zip(rng.uniform(0.5, 2.0, n),
                                                   rng.normal(size=n),
                                                   rng.uniform(0.5, 2.0, n))]}
            c = 10.0 ** rng.uniform(-8.0, 8.0, size=n)
            code, ref = run_json(capsys, ["flow", write(tmp_path, doc), "--tmax", "10"])
            assert code == 0 and ref["label"] == "certified"
            code, got = run_json(capsys, ["flow", write(tmp_path, scaled_datum(doc, c)),
                                          "--tmax", "10"])
            assert code == 0 and got["times"] == ref["times"]
            np.testing.assert_allclose(got["values"], ref["values"], rtol=1e-12, atol=0.0)


THREAD_VARS = ("BLFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def thread_env(var):
    """The inherited environment with `var` as the only thread variable, set to 1."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env[var] = "1"
    return env


class TestParser:
    def test_repeated_calls_agree(self, tmp_path, capsys):
        # the parser is built once per process and must keep no state between calls
        path = write(tmp_path, YOUNG3)
        first = run_json(capsys, ["verify", path])
        code, doc = run_json(capsys, ["verify", path, "--tol", "1e-3"])
        assert code == 0 and doc["tolerances"]["pde_tol"] == 1e-3
        assert run_json(capsys, ["verify", path]) == first

    @pytest.mark.parametrize("argv", [["solve-c", "--tol", "1e-3"], ["finiteness", "--tmax", "1"],
                                      ["constant", "--format", "csv"], ["verify", "--tmax", "1"]],
                             ids=lambda argv: "_".join(argv[:2]))
    def test_option_the_command_does_not_read_is_input_error(self, capsys, argv):
        # each command registers only its own options, so none is silently ignored
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(PROBLEMS / "young_convolution.json"), *argv[1:]])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "Traceback" not in err
        assert err.endswith(f"blflow: error: unrecognized arguments: {' '.join(argv[1:])}\n")


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["finiteness", "/nonexistent/problem.json"]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["finiteness", str(path)]) == 2

    def test_rank_deficient_matrix(self, tmp_path, capsys):
        doc = {"k": 2, "n": 3, "A": [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]],
               "inv_p": [0.5, 0.5, 0.5]}
        assert main(["finiteness", write(tmp_path, doc)]) == 2

    def test_finiteness_beyond_supported_n_is_input_error(self, tmp_path, capsys):
        doc = {"k": 1, "n": 13, "A": [[1.0] * 13], "inv_p": [1.0 / 13] * 13}
        assert main(["finiteness", write(tmp_path, doc)]) == 2
        assert "n <= 12" in capsys.readouterr().err

    def test_flow_beyond_supported_k_is_input_error(self, tmp_path, capsys):
        # box data is integrated exactly at t = 0 for k = 1 only, and the grid holds t = 0
        doc = dict(K4_GAUSSIANS, profiles=[{"type": "box", "lo": 0.0, "hi": 1.0, "height": 1.0},
                                           *K4_GAUSSIANS["profiles"][1:]])
        assert main(["flow", write(tmp_path, doc)]) == 2
        assert "only integrated exactly for k = 1" in capsys.readouterr().err

    def test_flow_on_k4_gaussians_is_closed_form(self, tmp_path, capsys):
        code, doc = run_json(capsys, ["flow", write(tmp_path, K4_GAUSSIANS)])
        assert code == 0 and doc["monotone"] and doc["label"] == "certified"
        problem = parse_problem(json.dumps(K4_GAUSSIANS))
        sigma = solve_s_system(enumerate_bases(problem.system),
                               problem.exponents).factor.cert().sigma
        B = BellmanSpec.young(problem.exponents.inv_p)
        expect = heatflow.gaussian_energy(problem.system, B, problem.profiles,
                                          np.outer(doc["times"], 4.0 * sigma))
        assert np.allclose(doc["values"], expect, rtol=1e-12, atol=0.0)
        assert doc["levels"] == [0] * len(doc["times"])

    @pytest.mark.parametrize("problem, tmax", [("holder_boxes", "-1"),
                                               ("lifted_section_triple", "-0.1")])
    def test_negative_tmax_is_input_error(self, problem, tmax):
        proc = subprocess.run([sys.executable, "-m", "blflow.cli", "flow",
                               str(PROBLEMS / f"{problem}.json"), "--tmax", tmax],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("problem", ["holder_boxes", "lifted_section_triple"])
    @pytest.mark.parametrize("tmax", ["inf", "nan"])
    def test_non_finite_tmax_is_input_error(self, problem, tmax):
        proc = subprocess.run([sys.executable, "-m", "blflow.cli", "flow",
                               str(PROBLEMS / f"{problem}.json"), "--tmax", tmax],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == f"error: need finite t >= 0, got t = {tmax}\n"

    @pytest.mark.parametrize("problem", ["holder_boxes", "lifted_section_triple"])
    def test_overflowing_tmax_is_input_error(self, problem):
        # 4 sigma t overflows: the time is at fault, not the data
        proc = subprocess.run([sys.executable, "-m", "blflow.cli", "flow",
                               str(PROBLEMS / f"{problem}.json"), "--tmax", "1e308"],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "error: 4 sigma_j t overflows at t = 1e+308\n"

    def test_far_off_centre_gaussian_is_non_convergence(self, tmp_path, capsys):
        # 29 box widths off the box: at t = 0.01 the Gaussian factor underflows
        # to 0 where the box lives, and the trapezoid sums do not converge
        doc = json.loads((PROBLEMS / "holder_boxes.json").read_text())
        doc["profiles"][1] = {"type": "gaussian", "amplitude": 1, "center": 30, "variance": 1}
        assert main(["flow", write(tmp_path, doc)]) == 3
        assert capsys.readouterr().err.startswith("non-convergence: ")

    @pytest.mark.parametrize("tmax", ["1e20", "1e100"])
    def test_box_energy_reaches_its_limit_at_huge_t(self, tmax, capsys):
        # the heat kernel is 1e10 to 1e50 box widths wide; the energy at tmax
        # is the t -> infinity limit sqrt(2)
        code = main(["flow", str(PROBLEMS / "holder_boxes.json"), "--tmax", tmax,
                     "--format", "csv"])
        last = capsys.readouterr().out.splitlines()[-1].split(",")
        assert code == 0 and float(last[0]) == float(tmax)
        assert abs(float(last[1]) - math.sqrt(2.0)) <= heatflow.QUAD_TOL

    @pytest.mark.parametrize("field", [
        {"k": "x"}, {"seed": "x"}, {"inv_p": "abc"}, {"profiles": 5},
        {"B": {"variant": "young"}},
        {"profiles": [{"type": "box", "lo": 0.0, "height": 1.0}] * 3},
        {"B": 5},
    ], ids=["k", "seed", "inv_p", "profiles", "young_without_alpha", "box_without_hi",
            "B_not_an_object"])
    def test_malformed_field_is_input_error(self, tmp_path, field):
        path = write(tmp_path, dict(YOUNG3, **field))
        proc = subprocess.run([sys.executable, "-m", "blflow.cli", "finiteness", path],
                              capture_output=True, text=True)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: malformed field {next(iter(field))!r}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["inv_p", "alpha", "M", "C", "center", "hi", "seed"])
    def test_non_finite_number_is_input_error(self, tmp_path, capsys, field, value):
        # JSON's NaN and +-Infinity (and 1e999) parse as floats; each range
        # check fails on them, so no NaN reaches a report or a linear solve
        gaussian = {"type": "gaussian", "amplitude": 1.0, "center": 0.0, "variance": 1.0}
        doc = {
            "inv_p": dict(YOUNG3, inv_p=[value, 2 / 3, 2 / 3]),
            "alpha": dict(YOUNG3, B={"variant": "young", "alpha": [value, 2 / 3, 2 / 3]}),
            "M": dict(YOUNG3, B={"variant": "product", "M": value}),
            "C": dict(YOUNG3, C=[[1.0, 0.0], [0.0, value]]),
            "center": dict(HOLDER, profiles=[dict(gaussian, center=value), gaussian]),
            "hi": dict(HOLDER, profiles=[HOLDER["profiles"][0],
                                         dict(HOLDER["profiles"][1], hi=value)]),
            "seed": dict(YOUNG3, seed=value),  # int() of an infinity overflows
        }[field]
        # C is parsed as a matrix and checked when the certificate is built
        command = "verify" if field == "C" else "finiteness"
        assert main([command, write(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command, tol", [("verify", "0"), ("verify", "-0.001"),
                                              ("flow", "-1"), ("flow", "0"),
                                              ("flow", "nan"), ("flow", "inf"),
                                              ("verify", "-1e-3"), ("flow", "-1e-3")])
    def test_tol_must_be_finite_and_positive(self, capsys, command, tol):
        # rejected when parsed: 0 is not read as "use the default", and a
        # negative or NaN quadrature tolerance never reaches the rule
        with pytest.raises(SystemExit) as exc:
            main([command, str(PROBLEMS / "holder_boxes.json"), "--tol", tol, *tmax_for(command)])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "finite number > 0" in err and out == ""

    def test_tol_is_honoured(self, capsys):
        path = str(PROBLEMS / "holder_boxes.json")
        assert run_json(capsys, ["verify", path])[1]["tolerances"]["pde_tol"] == 1e-8
        code, doc = run_json(capsys, ["verify", path, "--tol", "1e-3"])
        assert code == 0 and doc["tolerances"]["pde_tol"] == 1e-3

    @pytest.mark.parametrize("tolerances", [
        [], "x", None, {"res_tol": "x"}, {"res_tol": 0}, {"res_tol": -1},
        {"res_tol": True}, {"res_tol": None}, {"res_tol": math.nan}, {"res_tol": math.inf},
        {"boundary_tol": "x"}, {"boundary_tol": -1}, {"boundary_tol": False},
        {"boundary_tol": math.inf}, {"res_tol": 1e-10, "mono_tol": 1e-3},
    ], ids=["list", "string", "null", "res_tol_string", "res_tol_zero", "res_tol_negative",
            "res_tol_bool", "res_tol_null", "res_tol_nan", "res_tol_inf", "boundary_tol_string",
            "boundary_tol_negative", "boundary_tol_bool", "boundary_tol_inf", "unknown_key"])
    def test_bad_tolerances_are_input_errors(self, tmp_path, capsys, tolerances):
        path = write(tmp_path, dict(YOUNG3, tolerances=tolerances))
        for command in ("finiteness", "constant", "solve-c", "verify"):
            assert main([command, path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "tolerance" in err

    def test_missing_exponents(self, tmp_path, capsys):
        doc = {"k": 1, "n": 2, "A": [[1.0, 1.0]]}
        assert main(["constant", write(tmp_path, doc)]) == 2

    def test_rejected_certificate(self, tmp_path, capsys):
        # C with <C a_3, a_3> < 0 must be rejected, not treated as input error
        doc = dict(YOUNG3)
        doc["C"] = [[1.0, 0.0], [0.0, -1.0]]
        assert main(["verify", write(tmp_path, doc)]) == 4

    @pytest.mark.parametrize("C, code", [([[1.0, 1e-3], [0.0, 1.0]], 2),
                                         ([[1.0, 0.5], [0.0, -1.0]], 4),
                                         ([[1e308, 0.0], [0.0, 1e308]], 4)],
                             ids=["asymmetric", "asymmetric_and_negative_sigma",
                                  "overflowing_sigma"])
    def test_explicit_C_rejection_order(self, tmp_path, capsys, C, code):
        # sigma_j <= 0 is decided before symmetry: an asymmetric C is an input
        # error only while every <C a_j, a_j> > 0 (here sigma_2 = -0.5); a
        # finite C whose sigma_2 = 2e308 overflows is rejected too
        assert main(["verify", write(tmp_path, dict(YOUNG3, C=C))]) == code

    def test_entry_point_installed(self, tmp_path):
        path = write(tmp_path, YOUNG3)
        proc = subprocess.run([sys.executable, "-m", "blflow.cli",
                               "finiteness", path],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "inside"

    def test_threads_env(self, tmp_path):
        path = write(tmp_path, YOUNG3)
        proc = subprocess.run([sys.executable, "-m", "blflow.cli",
                               "finiteness", path],
                              capture_output=True, text=True,
                              env=thread_env("BLFLOW_THREADS"))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "inside"

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="counting OS threads needs /proc/self/task")
    def test_threads_env_pins_blas_pool(self):
        # OpenBLAS starts its worker threads when it loads, so the thread
        # count after one BLAS call shows the pool size it was given
        probe = ("import os, blflow, numpy as np\n"
                 "np.linalg.svd(np.ones((64, 64)))\n"
                 "print(len(os.listdir('/proc/self/task')))")
        counts = {}
        for var in ("BLFLOW_THREADS", "OMP_NUM_THREADS"):
            proc = subprocess.run([sys.executable, "-c", probe],
                                  capture_output=True, text=True,
                                  env=thread_env(var))
            assert proc.returncode == 0, proc.stderr
            counts[var] = int(proc.stdout)
        assert counts["BLFLOW_THREADS"] == counts["OMP_NUM_THREADS"]


class TestImports:
    # the package runs on NumPy and the standard library; SciPy is a test oracle
    def test_cli_loads_no_scipy(self):
        probe = ("import sys, blflow.cli\n"
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_importtime_lists_no_scipy(self):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import blflow.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        modules = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                   if line.startswith("import time:")]
        assert "blflow.cli" in modules
        assert not [m for m in modules if m.split(".")[0] == "scipy"]

    def test_every_export_resolves(self):
        namespace = {}
        exec("from blflow import *", namespace)
        assert [name for name in blflow.__all__ if name not in namespace] == []

    #: the blflow submodules a cold process holds after one command
    LOADED = ("import contextlib, io, json, sys\n"
              "from blflow.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                                if m.startswith('blflow.'))]))")

    def loaded(self, argv):
        proc = subprocess.run([sys.executable, "-c", self.LOADED, *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout)
        assert code == 0
        return set(modules)

    @pytest.mark.parametrize("command", ["finiteness", "constant", "solve-c"])
    def test_certify_commands_load_no_verifier_or_heat_flow(self, tmp_path, command):
        modules = self.loaded([command, write(tmp_path, YOUNG3)])
        assert {"blflow.cli", "blflow.polytope", "blflow.certificate"} <= modules
        assert not modules & {"blflow.heatflow", "blflow.verifier", "blflow.gaussian",
                              "blflow.quadrature"}

    def test_verify_loads_no_heat_flow_or_quadrature(self, tmp_path):
        modules = self.loaded(["verify", write(tmp_path, YOUNG3)])
        assert {"blflow.verifier", "blflow.gaussian"} <= modules
        assert not modules & {"blflow.heatflow", "blflow.quadrature"}

    @pytest.mark.parametrize("command", ["finiteness", "constant", "solve-c"])
    def test_certify_commands_parse_profiles_without_the_energy_layer(self, command):
        modules = self.loaded([command, str(PROBLEMS / "holder_boxes.json")])
        assert {"blflow.cli", "blflow.profiles"} <= modules
        assert not modules & {"blflow.heatflow", "blflow.verifier", "blflow.gaussian",
                              "blflow.quadrature"}

    def test_verify_parses_profiles_without_the_energy_layer(self):
        modules = self.loaded(["verify", str(PROBLEMS / "holder_boxes.json")])
        assert {"blflow.verifier", "blflow.profiles"} <= modules
        assert not modules & {"blflow.heatflow", "blflow.quadrature"}

    @pytest.mark.parametrize("command", ["finiteness", "constant", "solve-c"])
    def test_a_file_without_profiles_loads_no_profiles(self, command):
        modules = self.loaded([command, str(PROBLEMS / "young_convolution.json")])
        assert modules == {"blflow.certificate", "blflow.cli", "blflow.errors", "blflow.io",
                           "blflow.model", "blflow.polytope"}

    def test_flow_on_box_data_loads_no_numpy_ma(self):
        # np.unique loads numpy.ma (three modules) on its first call in NumPy 2.x
        script = ("import contextlib, io, sys\n"
                  "from blflow.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = main(sys.argv[1:])\n"
                  "print(code, sorted(m for m in sys.modules\n"
                  "                   if m.split('.')[:2] == ['numpy', 'ma']))")
        proc = subprocess.run([sys.executable, "-c", script, "flow",
                               str(PROBLEMS / "holder_boxes.json")],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "[]"]

    def test_exports_are_the_defining_modules_objects(self):
        for name in blflow.__all__:
            obj = getattr(blflow, name)
            assert obj is getattr(sys.modules[obj.__module__], name), name
            assert obj.__module__.startswith("blflow."), name
            assert name in dir(blflow), name
            # resolved on each access, never stored in the package namespace
            assert name not in vars(blflow), name
        with pytest.raises(AttributeError):
            blflow.no_such_export
