"""Tests of the benchmark itself: generator, output checks, tracer, metric names."""

import json
import re
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench_checks  # noqa: E402
import bench_data  # noqa: E402
import bench_speed  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

import blflow  # noqa: E402
import blflow.cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = bench_data.generate(workload, 7)
    again = bench_data.generate(workload, 7)
    other = bench_data.generate(workload, 8)
    assert [c.text for c in first] == [c.text for c in again]
    assert [c.text for c in first] != [c.text for c in other]
    assert len(first) == len(bench_data.SCHEDULES[workload])
    counts = bench_data.class_counts(first)
    assert sum(counts[c] for c in bench_data.CLASSES) == len(first)
    assert counts["k3"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_symmetries_preserve_the_datum(workload):
    # the run seed only flips column signs: |A|, 1/p and C stay put exactly
    for x, y in zip(*(bench_data.generate(workload, s) for s in (1, 2))):
        a, b = json.loads(x.text), json.loads(y.text)
        assert np.array_equal(np.abs(a["A"]), np.abs(b["A"]))
        assert a["inv_p"] == b["inv_p"] and a.get("C") == b.get("C")


def test_reference_solver_matches_closed_form():
    A = np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    inv_p = np.full(3, 2.0 / 3.0)
    s_sq = bench_data.solve_s(A, inv_p)
    quad = np.einsum("ij,ij->j", A, np.linalg.solve((A * s_sq) @ A.T, A))
    assert np.allclose(s_sq * quad, inv_p, atol=1e-13)
    # D is invariant under b -> lambda b because sum(1/p) = k
    assert bench_data.closed_form_D(A, inv_p, s_sq) == pytest.approx(
        bench_data.closed_form_D(A, inv_p, 5.0 * s_sq), rel=1e-12)


def test_expected_outcomes_cover_every_class():
    seen = set()
    for workload, schedule in bench_data.SCHEDULES.items():
        for cls, k, n, _ in schedule:
            expected = bench_data.COMMANDS[workload]
            assert set(bench_checks.EXPECTED_EXIT[(workload, cls)]) == set(expected)
            seen.add(cls)
    assert seen == set(bench_data.CLASSES)


def _case(workload, cls):
    return next(c for c in bench_data.generate(workload, 1) if c.cls == cls)


def test_classify_failure_kinds():
    neg = _case("verify_battery", "negative_control")
    assert bench_checks.classify("verify_battery", neg, [("verify", 0, '{"ok": true}')]) \
        == ("wrong_output", "verify")
    assert bench_checks.classify("verify_battery", neg, [("verify", 1, '{"ok": false}')]) is None
    assert bench_checks.classify("verify_battery", neg, [("verify", 2, "")]) \
        == ("exit_2", "verify")
    out = _case("certify_sweep", "outside")
    results = [("finiteness", 0, '{"verdict": "outside"}'),
               ("constant", RuntimeError("boom"), "")]
    assert bench_checks.classify("certify_sweep", out, results) == ("exception", "constant")
    assert bench_checks.is_known("certify_sweep", "outside", "exception", "constant")
    assert not bench_checks.is_known("certify_sweep", "interior", "exception", "constant")
    assert not bench_checks.is_known("certify_sweep", "interior", "wrong_output", "D")


def _bindings():
    mods = [m for name, m in sys.modules.items()
            if m is not None and (name == "blflow" or name.startswith("blflow."))]
    snap = {(m.__name__, a): v for m in mods for a, v in vars(m).items() if callable(v)}
    snap.update({("BellmanSpec", a): getattr(blflow.BellmanSpec, a)
                 for a in ("evaluate", "hessian")})
    return snap


def test_tracer_restores_every_name(tmp_path):
    before = _bindings()
    problem = tmp_path / "young3.json"
    problem.write_text(json.dumps({"k": 2, "n": 3, "A": [[1, 1, 0], [0, -1, 1]],
                                   "inv_p": [2 / 3] * 3}))
    with bench_trace.Tracer() as tracer:
        assert blflow.heatflow.check_L3 is blflow.verifier.check_L3 is not before[
            ("blflow.verifier", "check_L3")]
        assert blflow.cli.parse_problem is blflow.io.parse_problem
        tracer.op = 0
        assert blflow.cli.main(["finiteness", str(problem)]) == 0
    assert _bindings() == before
    names = {s[3] for s in tracer.spans}
    assert {"cli.main", "io.parse_problem", "polytope.is_finite"} <= names
    metrics = tracer.per_op(1)
    assert metrics["cli.main.calls"] == 1
    assert 0.0 < metrics["trace.coverage"] <= 1.0


def test_tracer_tolerates_absent_names(monkeypatch):
    before = _bindings()
    monkeypatch.setattr(bench_trace, "SPANS", bench_trace.SPANS + ("verifier.gone",))
    monkeypatch.delattr(blflow.verifier, "euler_defect_at")
    with bench_trace.Tracer() as tracer:
        pass
    monkeypatch.undo()
    assert _bindings() == before
    assert tracer.per_op(1)["verifier.euler_defect_at.calls"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    fails = dict.fromkeys(bench_checks.FAIL_KINDS, 0)
    imports = {f"setup.import.{k}_ms": 0.0 for k in run.IMPORTS}
    imports["setup.import_ms"] = 0.0
    traced = run.layer_metrics(bench_trace.Tracer(), 1, 0.0, imports, 0.0, fails)
    assert layer == {name: unit for name, (_, unit) in traced.items()}
    for name in [*e2e, *layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name) and len(name) <= 64
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.SPEED_EXPONENT) == set(run.WORKLOADS)


def test_speedometer_samples_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    with bench_speed.Speedometer() as speed:
        start = time.perf_counter()
        while len(speed.ticks) < 3 and time.perf_counter() - start < 10.0:
            sum(range(10_000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.ticks) >= 3
    assert 0.0 < speed.paused(start, end) <= sum(d for _, d, _ in speed.ticks)
    assert speed.slowdown(start, end) > 0.0
    # an op with no tick inside takes the ticks nearest to it
    last = [r for _, _, r in speed.ticks[-bench_speed.NEAREST:]]
    assert speed.slowdown(end + 10.0, end + 11.0) == pytest.approx(
        1e6 * bench_speed.trimmed_mean(last) / bench_speed.REF_US)
    with pytest.raises(RuntimeError):
        bench_speed.Speedometer().slowdown(start, end)
    assert bench_speed.slowdown_now(samples=3) > 0.0


def test_trimmed_mean_drops_both_tails():
    assert bench_speed.trimmed_mean([1.0] * 8 + [100.0, -100.0]) == 1.0
    assert bench_speed.trimmed_mean([2.0, 4.0]) == 3.0
