"""Batch front end: parse a problem file, dispatch, emit a JSON/CSV report.

Every command takes --out; verify and flow take --tol, and flow alone takes
--tmax and --format.  Exit codes are a stable contract: 0 pass, 1
verdict-fail (e.g. the concavity check fails), 2 input error (unsupported
sizes, a malformed field, a NaN or an infinity in the problem file, an
option the command does not take, a --tmax not finite and >= 0 and a --tol
not finite and > 0 included), 3 non-convergence, 4 certificate rejection.

A certificate is the pair (C, G = A^T C A): the file's explicit C, or the one
solved from the exponents, read off the factor the solve finished on
(_solved_certificate).  solve-c reports what the solve gives with it: s^2,
the solver's residual on that factor and its notes, the consistency
residual max_j |1/p_j - s_j^2 sigma_j| p_j, and a note within 1e-6 of the
polytope boundary.  constant reports D, argmax_b = p s^2 and the residual
from the same solve, whose convergence is its status inside the polytope;
outside, D is infinite and nothing is solved, so those three are null and
the note gives the verdict's witness and slack.

The verifier and the heat-flow layer are imported by the one command that
runs each (verify, flow), so the other commands start without them; a
file's profiles need only blflow.profiles.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys as _sys

import numpy as np

from . import certificate, polytope
from .errors import (BLFlowError, CertificateRejection, DomainError, IterationError,
                     QuadratureAnomaly, StructuralError, UnsupportedScaleError)
from .io import Problem, parse_problem
from .model import BellmanSpec, make_cert

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_NOCONV = 3
EXIT_REJECT = 4

#: errors in the problem or the options, reported with EXIT_INPUT
INPUT_ERRORS = (StructuralError, DomainError, UnsupportedScaleError)


def positive_float(text: str) -> float:
    """argparse type of a tolerance: a finite number > 0, else exit 2."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"need a finite number > 0, got {text!r}")
    return value


def _load(path: str) -> Problem:
    with open(path, encoding="utf-8") as fh:
        return parse_problem(fh.read())


def _emit(doc, out=None) -> None:
    text = json.dumps(doc, indent=2, default=_jsonable) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _bellman_of(problem: Problem) -> BellmanSpec:
    if problem.B is not None:
        return problem.B
    if problem.exponents is not None and np.all(problem.exponents.inv_p < 1.0):
        return BellmanSpec.young(problem.exponents.inv_p)
    raise StructuralError("problem file has no usable B")


def _res_tol(problem: Problem) -> float:
    return problem.tolerances.get("res_tol", certificate.RES_TOL)


def _membership(problem: Problem) -> polytope.MembershipVerdict:
    """Polytope verdict for the file's exponents, at the file's boundary_tol."""
    return polytope.is_finite(problem.system, problem.exponents,
                              boundary_tol=problem.tolerances.get("boundary_tol",
                                                                  polytope.BOUNDARY_TOL))


def _solve(problem: Problem, verdict: polytope.MembershipVerdict):
    """s-system solve for the file's exponents, on the verdict's basis table."""
    return certificate.solve_s_system(verdict.bases, problem.exponents,
                                      res_tol=_res_tol(problem))


def _solved_certificate(problem: Problem):
    """Polytope verdict, solve result and solved certificate for the file's exponents.

    Off the interior of the polytope no certificate exists, however small the
    residual the solver reaches far out along a ray, so that raises
    IterationError (exit 3) before any solve.
    """
    verdict = _membership(problem)
    if verdict.verdict != "inside":
        raise IterationError(f"exponents not inside the polytope ({verdict.verdict}); "
                             "no certificate exists")
    result = _solve(problem, verdict)
    return verdict, result, result.factor.cert()


def _certificate_of(problem: Problem):
    """Explicit C from the file, or the solved one."""
    if problem.C is not None:
        return make_cert(problem.system, problem.C)
    if problem.exponents is None:
        raise StructuralError("need either an explicit C or exponents to solve for one")
    _, result, cert = _solved_certificate(problem)
    if not result.converged:
        raise IterationError("; ".join(result.notes))
    return cert


def cmd_finiteness(problem: Problem, args) -> int:
    if problem.exponents is None:
        raise StructuralError("finiteness needs inv_p")
    v = _membership(problem)
    _emit({"verdict": v.verdict,
           "witness": None if v.witness is None else list(v.witness),
           "slack": v.slack if math.isfinite(v.slack) else None,
           "basis_count": v.bases.count}, args.out)
    return EXIT_OK


def cmd_constant(problem: Problem, args) -> int:
    if problem.exponents is None:
        raise StructuralError("constant needs inv_p")
    verdict = _membership(problem)
    warnings = []
    if verdict.verdict != "inside":
        where = "on the boundary of" if verdict.verdict == "boundary" else "outside"
        warnings.append(f"exponents are {where} the polytope; "
                        "the supremum may be infinite or attained only in a limit")
    doc = {"D": None, "argmax_b": None, "iterations": 0, "residual": None,
           "status": "sup not attained / infinite", "warnings": warnings, "notes": []}
    if verdict.verdict == "outside":
        # D is infinite there, so there is nothing to solve for
        doc["notes"].append(f"the exponents miss the polytope by {-verdict.slack:.3g} at "
                            f"columns S = {list(verdict.witness)}: D is infinite")
    else:
        result = _solve(problem, verdict)
        doc.update(D=result.D, argmax_b=problem.exponents.p * result.s_sq,
                   iterations=result.iterations, residual=result.residual,
                   notes=list(result.notes))
        if verdict.verdict == "inside":
            doc["status"] = "converged" if result.converged else "non-convergence"
    _emit(doc, args.out)
    return EXIT_NOCONV if doc["status"] == "non-convergence" else EXIT_OK


def cmd_solve_c(problem: Problem, args) -> int:
    if problem.exponents is None:
        raise StructuralError("solve-c needs inv_p")
    verdict, result, cert = _solved_certificate(problem)
    e = problem.exponents
    defect = certificate.certificate_defect(problem.system, e, cert)
    proj = certificate.projection_check(problem.system, cert, result.s_sq)
    notes = list(result.notes)
    if verdict.slack < 1e-6:
        # s^2 spreads over about log10(1 / slack) decades there, so C rests on a
        # few columns and moves a lot with the exponents
        notes.append("exponents within 1e-6 of the polytope boundary; "
                     "the weights s^2 spread over many decades")
    _emit({"C": cert.C, "s_sq": result.s_sq, "sigma": cert.sigma,
           "residual": float((abs(e.inv_p - result.s_sq * cert.sigma) / e.inv_p).max()),
           "system_residual": result.residual,
           "iterations": result.iterations, "converged": result.converged,
           "inverse_defect": defect,
           "projection": {"ok": proj.ok, "eigenvalues": proj.eigenvalues,
                          "rank": proj.rank, "trace": proj.trace,
                          "idempotency_defect": proj.idempotency_defect},
           "polytope_verdict": verdict.verdict,
           "notes": notes}, args.out)
    if not result.converged:
        return EXIT_NOCONV
    return EXIT_OK


def cmd_verify(problem: Problem, args) -> int:
    from . import verifier

    B = _bellman_of(problem)
    cert = _certificate_of(problem)
    pde_tol = verifier.PDE_TOL if args.tol is None else args.tol
    report = verifier.verify(problem.system, cert, B, pde_tol=pde_tol)
    _emit({"l3": {"ok": report.l3_ok, "max_eig": report.l3_max_eig},
           "pde": {"ok": report.pde_ok, "defect": report.pde_defect},
           "rank": {"ok": report.rank_ok, "worst": report.rank,
                    "bound": problem.system.n - problem.system.k},
           "l5": {"converged": report.l5.converged, "value": report.l5.value},
           "tolerances": report.tolerances,
           "ok": report.ok}, args.out)
    return EXIT_OK if report.ok else EXIT_VERDICT


def _trace_csv(trace) -> str:
    """One CSV row per time of a heatflow.EnergyTrace."""
    lines = ["t,B_t,L,refinement"]
    for t, v, L, lev in zip(trace.times, trace.values, trace.halfwidths, trace.levels):
        lines.append(f"{t:.17g},{v:.17g},{L:.17g},{int(lev)}")
    return "\n".join(lines) + "\n"


def cmd_flow(problem: Problem, args) -> int:
    from . import heatflow

    if problem.profiles is None:
        raise StructuralError("flow needs profiles")
    B = _bellman_of(problem)
    cert = _certificate_of(problem)
    trace, verdict = heatflow.monotonicity_scan(
        problem.system, cert, B, problem.profiles, times=heatflow.time_grid(args.tmax),
        quad_tol=heatflow.QUAD_TOL if args.tol is None else args.tol)
    csv_text = _trace_csv(trace)
    doc = {"monotone": verdict.monotone, "label": verdict.label,
           "mono_tol": verdict.mono_tol, "initial_value": verdict.initial_value,
           "limit_value": verdict.limit_value, "final_gap": verdict.final_gap,
           "times": trace.times, "values": trace.values, "levels": trace.levels}
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    if args.format == "csv":
        _sys.stdout.write(csv_text)
    else:
        _emit(doc)
    return EXIT_OK if verdict.monotone else EXIT_VERDICT


_COMMANDS = {
    "finiteness": cmd_finiteness,
    "constant": cmd_constant,
    "solve-c": cmd_solve_c,
    "verify": cmd_verify,
    "flow": cmd_flow,
}


#: argparse's own test for a negative number takes only -<digits>[.<digits>],
#: so it reads "--tol -1e-3" as a missing value followed by an option; a
#: minus before a digit (or before .digit) is a number here, as no option
#: starts that way
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="blflow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("file")
        p.add_argument("--out", default=None)
        # each command registers only the options it reads, so any other is an input error
        if name in ("verify", "flow"):
            p.add_argument("--tol", type=positive_float, default=None)
        if name == "flow":
            p.add_argument("--tmax", type=float, default=None)
            p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        problem = _load(args.file)
    except (OSError, StructuralError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    try:
        return _COMMANDS[args.command](problem, args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
    except CertificateRejection as exc:
        print(f"certificate rejected: {exc}", file=_sys.stderr)
        return EXIT_REJECT
    except (IterationError, QuadratureAnomaly) as exc:
        print(f"non-convergence: {exc}", file=_sys.stderr)
        return EXIT_NOCONV
    except BLFlowError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_NOCONV


if __name__ == "__main__":
    raise SystemExit(main())
