"""Benchmark of the blflow command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload is one client in one worker process, closed loop: the worker
calls ``blflow.cli.main(argv)`` in process on generated problem files and
waits for each answer before it sends the next op.  An op is run as whole
passes over a fixed batch (see ``bench_data``), so every run attempts the
same ops; passes repeat while another one fits in ``--seconds``.

Workloads, and why:

* ``certify_sweep``: ``finiteness``, ``constant`` and ``solve-c`` on one
  problem.  The polytope LP, the Gaussian ascent and the s-system solver do
  the work; boundary and near-boundary data run the solvers' stall paths.
* ``verify_battery``: ``verify`` on one problem.  The sampled L3 / PDE /
  rank loops dominate at k <= 2; a k = 3 op that gets past L3 spends
  seconds in the L5 tensor quadrature.
* ``flow_scan``: ``flow`` on one problem over the default time grid.  The
  energy quadrature dominates.

Latencies are rescaled to one fixed machine speed.  A reference kernel,
timed 50 times a second during the run (``bench_speed``), gives the speed
during each op, and the op's wall latency is divided by the kernel's slowdown
raised to the workload's ``SPEED_EXPONENT``.  The shared host's speed drifts
by more than the metrics' bounds over stretches as long as a run, and
``certify_sweep``'s 12 s boundary op cannot be repeated within a run to take
a best of.  The report keeps the wall latencies beside the rescaled ones.

Every op's output is checked (``bench_checks``).  ``op_fail_frac`` counts
every failure; ``correct`` turns false only on a failure that is not one of
the program's recorded defects.

With ``--trace 0`` the last line holds the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` a separate run wraps the package's public
functions (``bench_trace``) and the last line holds the per-layer metrics.
Set-up time is the median over cold interpreters, each timed from its start
until its untimed warm-up op has returned.  Spans and a full report are
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("certify_sweep", "verify_battery", "flow_scan")
#: how an op's latency follows the speed of ``bench_speed.kernel``: the slope
#: of log op latency on log kernel time, per op, across runs on the
#: calibration host.  It was 0.96 to 0.99 for certify_sweep and 0.91 to 1.01
#: for verify_battery, whose small NumPy calls in Python loops are the
#: kernel's kind of work, and 0.37 to 0.67 for flow_scan, whose large
#: vectorised arrays the host's drift slows less; 0.5 gave flow_scan's metrics
#: the smallest spread over 19 runs.
SPEED_EXPONENT = {"certify_sweep": 1.0, "verify_battery": 1.0, "flow_scan": 0.5}
#: the same slope for a cold start's set-up time, over 30 cold starts: 0.34
SETUP_EXPONENT = 0.4
COLD_STARTS = 7
#: end-to-end metrics and their units, reported with tracing off
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "op_fail_frac": "1", "peak_rss_mb": "MB"}
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it
IMPORTS = {"numpy": "numpy", "scipy_linalg": "scipy.linalg",
           "scipy_optimize": "scipy.optimize", "scipy_special": "scipy.special"}

# a cold interpreter: import the entry point, run the warm-up op, report;
# then, past the timed part, time the speed kernel
_COLD_START = r"""
import contextlib, io, json, sys, time
t0 = time.perf_counter()
import blflow.cli
t1 = time.perf_counter()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        blflow.cli.main(argv)
print(json.dumps({"import_s": t1 - t0, "warmup_s": time.perf_counter() - t1}), flush=True)
sys.path.insert(0, sys.argv[2])
import bench_speed
print(json.dumps({"slowdown": bench_speed.slowdown_now()}), flush=True)
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def cold_starts(argvs, count: int) -> list[dict]:
    """Time ``count`` fresh interpreters up to the return of their warm-up op;
    ``setup_s`` is that time rescaled like op latencies, by the kernel's
    slowdown in the same interpreter, and ``wall_s`` is the time itself."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _COLD_START, json.dumps(argvs),
                               str(Path(__file__).resolve().parent)],
                              stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT,
                              text=True) as proc:
            line = proc.stdout.readline()
            wall_s = time.perf_counter() - start
            speed = proc.stdout.read()
            if proc.wait(timeout=120) != 0 or not line or not speed:
                raise RuntimeError("cold-start interpreter failed")
        sample = dict(json.loads(line), **json.loads(speed), wall_s=wall_s)
        sample["setup_s"] = wall_s / sample["slowdown"] ** SETUP_EXPONENT
        samples.append(sample)
    return samples


def import_breakdown() -> dict[str, float]:
    """Cumulative import times (ms) from ``python -X importtime -c "import blflow"``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import blflow"],
                          capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                          timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if m:
            cumulative.setdefault(m.group(2), int(m.group(1)) / 1e3)
    out = {"setup.import_ms": cumulative.get("blflow", 0.0)}
    for key, module in IMPORTS.items():
        out[f"setup.import.{key}_ms"] = cumulative.get(module, 0.0)
    return out


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OMP_", "OPENBLAS_"))},
        "seed": seed,
    }


class Worker:
    """Runs the ops of one workload in this process and checks their outputs."""

    def __init__(self, workload: str, cases, workdir: Path):
        import bench_data
        import blflow.cli

        self.workload = workload
        self.cases = cases
        self.cli = blflow.cli  # main is looked up per call, so a tracer sees it
        self.untraced = 0.0
        self.span = (0.0, 0.0)  # perf_counter start and end of the last op
        workdir.mkdir(parents=True, exist_ok=True)
        self.argvs = []
        for case in cases:
            path = workdir / f"{case.name}.json"
            path.write_text(case.text, encoding="utf-8")
            self.argvs.append([[cmd, str(path)] for cmd in bench_data.COMMANDS[workload]])

    def run_op(self, i: int):
        """(latency in s, per-command results) of op ``i``."""
        results = []
        elapsed = 0.0
        first = None
        for argv in self.argvs[i]:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            first = start if first is None else first
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is an op outcome
                code = exc
            end = time.perf_counter()
            elapsed += end - start
            results.append((argv[0], code, out.getvalue()))
        self.span = (first, end)
        return elapsed, results

    def run_pass(self, outcomes: list, latencies: list, spans: list, tracer=None) -> float:
        """Every op once, recording its latency and (start, end); returns the
        summed op latency in s.

        With a tracer, each op also runs untraced, back to back with its
        traced run so that both see the same machine, and first on every
        other op so that warm-up favours neither; the traced run is the one
        recorded and the untraced latency is summed in ``self.untraced``."""
        import bench_checks

        total = 0.0
        for i, case in enumerate(self.cases):
            if tracer is None:
                elapsed, results = self.run_op(i)
            else:
                if i % 2 == 0:
                    self.untraced += self.run_op(i)[0]
                tracer.op = i
                with tracer:
                    elapsed, results = self.run_op(i)
                if i % 2 == 1:
                    self.untraced += self.run_op(i)[0]
            total += elapsed
            latencies[i].append(elapsed)
            spans[i].append(self.span)
            outcomes[i].append(bench_checks.classify(self.workload, case, results))
        return total


def summarize_outcomes(workload: str, cases, outcomes) -> dict:
    import bench_checks

    fails = dict.fromkeys(bench_checks.FAIL_KINDS, 0)
    attempted = failed = 0
    unexpected, flaky, per_case = [], [], {}
    for case, runs in zip(cases, outcomes):
        attempted += len(runs)
        if len(set(runs)) > 1:
            flaky.append(case.name)
        per_case[case.name] = [None if r is None else "/".join(r) for r in runs]
        for r in runs:
            if r is None:
                continue
            failed += 1
            fails[r[0]] += 1
            if not bench_checks.is_known(workload, case.cls, *r):
                unexpected.append(f"{case.name}:{'/'.join(r)}")
    return {"attempted": attempted, "failed": failed, "fails": fails,
            "unexpected": sorted(set(unexpected)), "flaky": flaky, "per_case": per_case}


def latency_metrics(latencies, ok_per_pass: float) -> dict:
    """Latency of an op is its median over the run's passes.  p50 and tail
    are Harrell-Davis estimates of those quantiles over the per-op latencies:
    a weighted mean of the order statistics near the quantile, so that no
    single op's sample decides them.  Throughput counts the ops that met
    their expected outcome against the time one pass of them takes."""
    from scipy.stats.mstats import hdquantiles

    per_op = sorted(1e3 * statistics.median(v) for v in latencies)
    n = len(per_op)
    rank = max(1, n - TAIL_BEYOND)
    p50, tail = hdquantiles(per_op, prob=[0.5, rank / n])
    return {"ops_per_s": 1e3 * ok_per_pass / sum(per_op),
            "op_p50_ms": float(p50),
            "op_tail_ms": float(tail),
            "op_tail_pct": 100.0 * rank / n,
            "op_tail_n": n}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import bench_data
    import bench_speed
    import bench_trace

    cases = bench_data.generate(workload, seed)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    worker = Worker(workload, cases, OUT / tag)
    report = {"workload": workload, "machine": machine_facts(seed),
              "classes": bench_data.class_counts(cases), "trace": trace}

    warm = worker.argvs[0]
    colds = cold_starts(warm, COLD_STARTS)
    report["setup_samples_s"] = [c["setup_s"] for c in colds]
    report["setup_wall_s"] = [c["wall_s"] for c in colds]

    n = len(cases)
    outcomes = [[] for _ in range(n)]
    latencies = [[] for _ in range(n)]
    spans = [[] for _ in range(n)]
    if not trace:
        with bench_speed.Speedometer() as speed:
            worker.run_op(0)  # this worker's own untimed warm-up
            start = time.perf_counter()
            last = worker.run_pass(outcomes, latencies, spans)
            while time.perf_counter() - start + last <= seconds:
                last = worker.run_pass(outcomes, latencies, spans)
        report["wall_latency_ms"] = {c.name: [1e3 * v for v in lat]
                                     for c, lat in zip(cases, latencies)}
        slow = [[speed.slowdown(*sp) for sp in op_spans] for op_spans in spans]
        exponent = SPEED_EXPONENT[workload]
        latencies = [[(v - speed.paused(*sp)) / f ** exponent
                      for v, sp, f in zip(lat, op_spans, fs)]
                     for lat, op_spans, fs in zip(latencies, spans, slow)]
        report["slowdown"] = statistics.median(f for fs in slow for f in fs)
        report["speed_exponent"] = exponent
        report["speed_ticks"] = speed.ticks
        report["spans"] = spans
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary = summarize_outcomes(workload, cases, outcomes)
        passes = len(latencies[0])
        lat = latency_metrics(latencies, (summary["attempted"] - summary["failed"]) / passes)
        report["passes"] = passes
        report["op_tail"] = {"percentile": lat["op_tail_pct"], "samples": lat["op_tail_n"]}
        values = {
            "setup_s": statistics.median(report["setup_samples_s"]),
            "ops_per_s": lat["ops_per_s"],
            "op_p50_ms": lat["op_p50_ms"],
            "op_tail_ms": lat["op_tail_ms"],
            "op_fail_frac": summary["failed"] / summary["attempted"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        worker.run_op(0)  # this worker's own untimed warm-up
        tracer = bench_trace.Tracer()
        traced = worker.run_pass(outcomes, latencies, spans, tracer)
        summary = summarize_outcomes(workload, cases, outcomes)
        tracer.dump(OUT / f"{tag}.spans.jsonl")
        metrics = layer_metrics(tracer, n, traced / worker.untraced - 1.0, import_breakdown(),
                                1e3 * statistics.median(c["warmup_s"] for c in colds),
                                summary["fails"])
    report.update(summary)
    report["latency_ms"] = {c.name: [1e3 * v for v in lat]
                            for c, lat in zip(cases, latencies)}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report["correct"] = not summary["unexpected"]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.report.json").write_text(json.dumps(report, indent=1, default=str),
                                            encoding="utf-8")
    return report


def layer_metrics(tracer, ops: int, overhead: float, imports: dict, warmup_ms: float,
                  fails: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, each with its unit."""
    layer = tracer.per_op(ops)
    layer["trace.overhead_frac"] = overhead
    layer.update(imports)
    layer["setup.warmup_ms"] = warmup_ms
    layer.update({f"fail.{kind}": count for kind, count in fails.items()})
    return {name: (value, _layer_unit(name)) for name, value in layer.items()}


def _layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("_frac", "_share", ".coverage")):
        return "1"
    return "count"


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"# {w} machine {json.dumps(report['machine'], sort_keys=True)}")
    print(f"# {w} classes {json.dumps(report['classes'])}")
    if "op_tail" in report:
        print(f"# {w} latencies rescaled by slowdown^{report['speed_exponent']:g};"
              f" median kernel slowdown {report['slowdown']:.3f}")
        print(f"# {w} passes {report['passes']} op_tail at p{report['op_tail']['percentile']:.1f}"
              f" of {report['op_tail']['samples']} per-op median latencies")
    print(f"# {w} attempted {report['attempted']} failed {report['failed']} "
          + " ".join(f"fail.{k} {v}" for k, v in report["fails"].items()))
    if report["unexpected"]:
        print(f"# {w} unexpected failures: {' '.join(report['unexpected'])}")
    if report["flaky"]:
        print(f"# {w} outcome changed between passes: {' '.join(report['flaky'])}")
    for name, m in report["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")


def final_line(report: dict) -> str:
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": report["metrics"]})


def _run_all(args) -> int:
    """Every workload, each in its own worker process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{w}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blflow" / "cli.py").is_file():
        print(f"error: no blflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(final_line(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
