"""Expected outcome of every op and the checks of its output.

An op is the list of CLI commands its workload sends for one problem.  Each
command has the exit codes that are right for its data class under the
0/1/2/3/4 contract, and its JSON report is checked against facts the
generator knows and against the generator's own NumPy reference.

An op that does not meet its expectation fails, and its failure gets one
kind: ``exit_1`` .. ``exit_4`` for a wrong non-zero exit code, ``exception``
for anything raised out of ``cli.main``, and ``wrong_output`` for an exit
code of 0 where another was due or for a report that disagrees with the
reference.  Every failure counts in ``op_fail_frac``.

``KNOWN_DEFECTS`` lists the failures the program had when the benchmark was
defined.  They count like any other failure; they only keep the run's
``correct`` flag true, which any other failure turns false.
"""

from __future__ import annotations

import json

import numpy as np

import bench_data

FAIL_KINDS = ("exit_1", "exit_2", "exit_3", "exit_4", "exception", "wrong_output")

_CERTIFY_INSIDE = {"finiteness": {0}, "constant": {0}, "solve-c": {0}}
# no certificate exists off the interior; a refusal (3 or 4) is the answer
_CERTIFY_OFF = {"finiteness": {0}, "constant": {0}, "solve-c": {3, 4}}

#: (workload, class) -> command -> exit codes that are right
EXPECTED_EXIT = {
    ("certify_sweep", "interior"): _CERTIFY_INSIDE,
    ("certify_sweep", "near_boundary"): _CERTIFY_INSIDE,
    ("certify_sweep", "boundary"): _CERTIFY_OFF,
    ("certify_sweep", "outside"): _CERTIFY_OFF,
    ("verify_battery", "interior"): {"verify": {0}},
    ("verify_battery", "symmetry"): {"verify": {0}},
    ("verify_battery", "negative_control"): {"verify": {1}},
    ("flow_scan", "interior"): {"flow": {0}},
    ("flow_scan", "extremizer"): {"flow": {0}},
}

D_REL_TOL = 1e-8          # maximize_D against the closed form at b = p s^2
FINAL_GAP_REL_TOL = 1e-2  # the trace at t = 1000 against its t -> inf limit
EXTREMIZER_REL_TOL = 1e-7  # equality case: every trace value equals the limit

#: (workload, classes or None for any, failure kind, detail, reason)
KNOWN_DEFECTS = (
    ("certify_sweep", ("near_boundary",), "exit_3", "solve-c",
     "the s-system stalls at 5 000 iterations near the boundary (ROADMAP item 2)"),
    ("certify_sweep", ("boundary", "outside"), "exit_3", "constant",
     "maximize_D stalls or fails off the interior instead of a verdict (ROADMAP item 2)"),
    ("certify_sweep", ("outside",), "exception", "constant",
     "LinAlgError escapes cmd_constant on a repeated column (ROADMAP item 2)"),
    ("verify_battery", None, "exit_1", "verify",
     "absolute L3_TOL fails exact certificates and scaled C (ROADMAP item 1)"),
    ("verify_battery", None, "exit_2", "verify",
     "psd_leq_zero's absolute asymmetry guard (ROADMAP item 1)"),
    ("flow_scan", None, "exit_3", "flow",
     "QuadratureAnomaly: k = 3 always, k <= 2 when the Romberg diagonal lags "
     "the midpoint sums (ROADMAP item 4)"),
    ("flow_scan", None, "wrong_output", "label",
     'label "no certificate" from the absolute L3_TOL (ROADMAP item 1)'),
)


def is_known(workload: str, cls: str, kind: str, detail: str) -> bool:
    return any(w == workload and (c is None or cls in c) and k == kind and d == detail
               for w, c, k, d, _ in KNOWN_DEFECTS)


def _check_doc(case, command: str, doc: dict, docs: dict) -> str | None:
    """Detail of the first JSON check that fails, or None."""
    if command == "finiteness":
        return None if doc["verdict"] == case.facts["verdict"] else "verdict"
    if command == "constant":
        inside = case.facts["verdict"] == "inside"
        want = {"converged"} if inside else (
            {"sup not attained / infinite"} if case.facts["verdict"] == "outside"
            else {"converged", "sup not attained / infinite"})
        return None if doc["status"] in want else "status"
    if command == "solve-c":
        if doc["polytope_verdict"] != case.facts["verdict"]:
            return "verdict"
        if not (doc["converged"] and doc["projection"]["ok"]):
            return "projection"
        problem = json.loads(case.text)
        ref = bench_data.closed_form_D(np.asarray(problem["A"]),
                                       np.asarray(problem["inv_p"]), doc["s_sq"])
        D = docs["constant"]["D"]
        return None if abs(D - ref) <= D_REL_TOL * abs(ref) else "D"
    if command == "verify":
        return None if doc["ok"] == (case.cls != "negative_control") else "ok"
    if command == "flow":
        if not doc["monotone"]:
            return "monotone"
        limit = doc["limit_value"]
        if case.cls == "extremizer":
            worst = max(abs(v - limit) for v in doc["values"])
            if worst > EXTREMIZER_REL_TOL * abs(limit):
                return "extremizer"
        elif doc["final_gap"] > FINAL_GAP_REL_TOL * abs(limit):
            return "final_gap"
        return None if doc["label"] == "certified" else "label"
    raise ValueError(f"unknown command {command!r}")


def classify(workload: str, case, results) -> tuple[str, str] | None:
    """Failure (kind, detail) of one op, or None when it met its expectation.

    ``results`` holds one (command, exit code or exception, stdout) per
    command, in the order they ran.
    """
    expected = EXPECTED_EXIT[(workload, case.cls)]
    docs: dict = {}
    for command, code, out in results:
        if isinstance(code, BaseException):
            return "exception", command
        if code not in expected[command]:
            return ("wrong_output", command) if code == 0 else (f"exit_{code}", command)
        if code != 0 and command != "verify":
            continue
        try:
            docs[command] = json.loads(out)
        except json.JSONDecodeError:
            return "wrong_output", command
        detail = _check_doc(case, command, docs[command], docs)
        if detail is not None:
            return "wrong_output", detail
    return None
