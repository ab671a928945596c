"""In-memory spans and counters around the public functions of ``blflow``.

Every traced function is wrapped by object identity in each ``blflow.*``
namespace that binds it (``heatflow.check_L3`` and ``cli.parse_problem`` are
re-bound names), so calls through any binding are seen.  ``restore`` puts
every original back.  Names missing from the package are skipped.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

#: "<module>.<function>" of every span, as seen under ``blflow``
SPANS = (
    "cli.main", "io.parse_problem",
    "polytope.enumerate_bases", "polytope.is_finite",
    "gaussian.maximize_D", "gaussian.gaussian_objective",
    "certificate.solve_s_system", "certificate.build_C", "certificate.projection_check",
    "verifier.verify", "verifier.check_L3", "verifier.check_pde_identity",
    "verifier.check_rank_bound", "verifier.euler_defect_at", "verifier.check_L5",
    "heatflow.monotonicity_scan", "heatflow.rhs_limit", "heatflow.bellman_energy",
    "quadrature.tensor_quad", "quadrature.panel_quad_1d",
)
ROOT = "cli.main"
#: bellman_energy is reported per time regime
ENERGY_REGIMES = ("t0", "small_t", "large_t")

COUNTERS = (
    "gaussian.maximize_D.iterations", "gaussian.maximize_D.restarts",
    "gaussian.maximize_D.diverged",
    "certificate.solve_s_system.iterations", "certificate.solve_s_system.unconverged",
    "verifier.samples", "heatflow.bellman_energy.levels",
    "quadrature.tensor_quad.levels", "quadrature.tensor_quad.unconverged",
    "model.evaluate.points", "model.hessian.calls",
)


def span_names() -> list[str]:
    """Reported span names: bellman_energy split by time regime."""
    out = []
    for name in SPANS:
        if name == "heatflow.bellman_energy":
            out += [f"{name}.{r}" for r in ENERGY_REGIMES]
        else:
            out.append(name)
    return out


def _energy_regime(t) -> str:
    if t is None:
        return "unknown"
    return "t0" if t == 0.0 else "small_t" if t <= 1.0 else "large_t"


class Tracer:
    """Records spans (op, id, parent, name, start, end) and per-op counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.quad_points = [0, 0]  # points on accepted levels, all points
        self.span_points: dict[int, int] = defaultdict(int)  # B evaluations per span
        self.op = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import blflow.model

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "blflow" or name.startswith("blflow."))]
        for qual in SPANS:
            mod_name, fn_name = qual.split(".")
            home = sys.modules.get(f"blflow.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        spec = getattr(blflow.model, "BellmanSpec", None)
        for method, hook in (("evaluate", self._count_points), ("hessian", self._count_hessian)):
            original = getattr(spec, method, None) if spec is not None else None
            if original is not None:
                self._patched.append((spec, method, original))
                setattr(spec, method, hook(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, qual: str, fn):
        tracer = self
        signature = inspect.signature(fn)

        def argument(args, kwargs, key):
            try:
                return signature.bind(*args, **kwargs).arguments.get(key)
            except TypeError:
                return None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = qual
            if qual == "heatflow.bellman_energy":
                name = f"{qual}.{_energy_regime(argument(args, kwargs, 't'))}"
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            start = time.perf_counter()
            error = False
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = True
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer.op, sid, parent, name, start, end, error))
            if qual == "quadrature.tensor_quad":
                tracer._count_quadrature(argument(args, kwargs, "k"), result)
            else:
                tracer._count(qual, result)
            return result

        return wrapper

    def _count(self, qual, result) -> None:
        """Counters read from a return value; fields a later version drops count 0."""
        c = self.counts
        field = functools.partial(getattr, result)
        if qual == "gaussian.maximize_D":
            c["gaussian.maximize_D.iterations"] += field("iterations", 0)
            c["gaussian.maximize_D.restarts"] += field("restarts", 0)
            c["gaussian.maximize_D.diverged"] += bool(field("diverged", False))
        elif qual == "certificate.solve_s_system":
            c["certificate.solve_s_system.iterations"] += field("iterations", 0)
            c["certificate.solve_s_system.unconverged"] += not field("converged", True)
        elif qual == "verifier.check_L3":
            c["verifier.samples"] += field("samples", 0)
        elif qual == "heatflow.bellman_energy":
            c["heatflow.bellman_energy.levels"] += field("levels", 0)

    def _count_quadrature(self, k, result) -> None:
        levels = getattr(result, "levels", 0)
        self.counts["quadrature.tensor_quad.levels"] += levels
        self.counts["quadrature.tensor_quad.unconverged"] += not getattr(result, "converged", True)
        m = getattr(result, "nodes_per_axis", 0)
        if k is not None and m:
            # levels double the nodes per axis: the accepted grid has m**k points
            self.quad_points[0] += m**k
            self.quad_points[1] += sum((m >> i) ** k for i in range(levels))

    def _count_points(self, fn):
        tracer = self

        @functools.wraps(fn)
        def evaluate(spec, y):
            shape = getattr(y, "shape", ())
            points = math.prod(shape[:-1]) if len(shape) > 1 else 1
            tracer.counts["model.evaluate.points"] += points
            tracer.span_points[tracer._stack[-1] if tracer._stack else -1] += points
            return fn(spec, y)

        return evaluate

    def _count_hessian(self, fn):
        tracer = self

        @functools.wraps(fn)
        def hessian(spec, y):
            tracer.counts["model.hessian.calls"] += 1
            return fn(spec, y)

        return hessian

    # -- reports -------------------------------------------------------------

    def per_op(self, ops: int) -> dict[str, float]:
        """Mean per op of calls, inclusive ms, self ms and errors per span,
        the counters, the useful-work share of the quadrature and coverage."""
        child = defaultdict(float)
        for _, sid, parent, name, start, end, _ in self.spans:
            child[parent] += end - start
        calls, incl, self_time, errors = (defaultdict(float) for _ in range(4))
        for _, sid, parent, name, start, end, error in self.spans:
            calls[name] += 1
            incl[name] += end - start
            self_time[name] += end - start - child[sid]
            errors[name] += error
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.ms"] = 1e3 * incl[name] / ops
            out[f"{name}.self_ms"] = 1e3 * self_time[name] / ops
            out[f"{name}.errors"] = errors[name] / ops
        for name in COUNTERS:
            out[name] = self.counts[name] / ops
        accepted, total = self.quad_points
        out["quadrature.final_level_share"] = accepted / total if total else 0.0
        root = incl[ROOT]
        children = sum(v for k, v in self_time.items() if k != ROOT)
        out["trace.coverage"] = children / root if root else 0.0
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines; ``points`` counts B evaluations."""
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end, error in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "error": error,
                                     "points": self.span_points.get(sid, 0)}) + "\n")
