"""Problem files: a single JSON document describing one reproducible run.

Canonical formatting is fixed (key order, two-space indent, shortest
round-trip float repr) so that parse -> serialize is byte-stable.  The
profile classes live in blflow.profiles, which is imported only to parse or
serialize a file's ``profiles`` and does not import the energy layer
(blflow.heatflow).
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import StructuralError
from .model import BellmanSpec, Exponents, VectorSystem

if TYPE_CHECKING:
    from .profiles import Profile


class Problem(NamedTuple):
    system: VectorSystem
    exponents: Exponents | None
    B: BellmanSpec | None
    profiles: tuple[Profile, ...] | None
    C: np.ndarray | None
    seed: int = 0
    tolerances: Mapping = MappingProxyType({})  # empty and read-only: shared by every default


def _parse_B(doc, n: int) -> BellmanSpec:
    variant = doc.get("variant")
    if variant == "young":
        return BellmanSpec.young(doc["alpha"])
    if variant == "product":
        return BellmanSpec.product(doc.get("M", 1.0), doc.get("n", n))
    if variant == "lifted":
        sv = doc.get("section_vars")
        return BellmanSpec.lifted(doc["phi"], doc.get("alpha", ()),
                                  section_vars=tuple(sv) if sv else None,
                                  theta=doc.get("theta"))
    raise StructuralError(f"unknown B variant {variant!r}")


def _parse_profile(doc) -> Profile:
    from .profiles import Box, GaussianProfile, SumOfBoxes

    kind = doc.get("type")
    if kind == "box":
        return Box(doc["lo"], doc["hi"], doc["height"])
    if kind == "gaussian":
        return GaussianProfile(doc["amplitude"], doc["center"], doc["variance"])
    if kind == "sum_of_boxes":
        return SumOfBoxes(tuple(Box(b["lo"], b["hi"], b["height"])
                                for b in doc["boxes"]))
    raise StructuralError(f"unknown profile type {kind!r}")


def _parse_tolerances(doc) -> dict:
    """res_tol a finite number > 0 and boundary_tol one >= 0; no other keys."""
    if not isinstance(doc, dict):
        raise StructuralError("tolerances must be a JSON object")
    for key, value in doc.items():
        if key not in ("res_tol", "boundary_tol"):
            raise StructuralError(f"unknown tolerance {key!r}: only res_tol and boundary_tol")
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and (isinstance(value, int) or math.isfinite(value))
                and (value > 0 if key == "res_tol" else value >= 0)):
            bound = "> 0" if key == "res_tol" else ">= 0"
            raise StructuralError(f"tolerances.{key} must be a finite number {bound}, "
                                  f"got {value!r}")
    return dict(doc)


def _field(doc: dict, key: str, convert, default=None):
    """convert(doc[key]), or ``default`` when key is absent.

    A ValueError, KeyError, TypeError, AttributeError or OverflowError (int
    of an infinity) that convert raises on a malformed value is reported as
    a StructuralError that names the field.
    """
    if key not in doc:
        return default
    try:
        return convert(doc[key])
    except StructuralError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise StructuralError(f"malformed field {key!r}: {detail}") from exc


def parse_problem(text: str) -> Problem:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructuralError("problem file must be a JSON object")
    for key in ("k", "n", "A"):
        if key not in doc:
            raise StructuralError(f"missing required field {key!r}")
    k, n = _field(doc, "k", int), _field(doc, "n", int)
    A = _field(doc, "A", lambda a: np.asarray(a, dtype=float))
    if A.shape != (k, n):
        raise StructuralError(f"A must be a {k}x{n} row-major array, got shape {A.shape}")
    system = VectorSystem(A)
    e = _field(doc, "inv_p", Exponents)
    if e is not None and e.n != n:
        raise StructuralError("inv_p length differs from n")
    B = _field(doc, "B", lambda b: _parse_B(b, n))
    if B is not None and B.n != n:
        raise StructuralError("B has the wrong number of variables")
    profiles = _field(doc, "profiles", lambda ps: tuple(map(_parse_profile, ps)))
    if profiles is not None and len(profiles) != n:
        raise StructuralError("need one profile per column of A")
    C = _field(doc, "C", lambda c: np.asarray(c, dtype=float))
    if C is not None and C.shape != (k, k):
        raise StructuralError("C must be k x k")
    return Problem(system=system, exponents=e, B=B, profiles=profiles, C=C,
                   seed=_field(doc, "seed", int, 0),
                   tolerances=_parse_tolerances(doc.get("tolerances", {})))


def _B_doc(B: BellmanSpec):
    if B.variant == "young":
        return {"variant": "young", "alpha": B.weights.tolist()}
    if B.variant == "product":
        return {"variant": "product", "M": B.coeff, "n": B.n}
    alpha = [float(B.weights[j]) for j in range(B.n) if j not in B.section_vars]
    return {"variant": "lifted",
            "phi": "sqrt_uv" if B.theta == 0.5 else "geomean",
            "alpha": alpha,
            "section_vars": list(B.section_vars),
            "theta": B.theta}


def _profile_doc(p: Profile):
    from .profiles import Box, GaussianProfile

    if isinstance(p, Box):
        return {"type": "box", "lo": p.lo, "hi": p.hi, "height": p.height}
    if isinstance(p, GaussianProfile):
        return {"type": "gaussian", "amplitude": p.amplitude,
                "center": p.center, "variance": p.variance}
    return {"type": "sum_of_boxes",
            "boxes": [{"lo": b.lo, "hi": b.hi, "height": b.height} for b in p.boxes]}


def serialize_problem(problem: Problem) -> str:
    """Canonical byte-stable serialization of a problem."""
    doc: dict = {
        "k": problem.system.k,
        "n": problem.system.n,
        "A": problem.system.A.tolist(),
    }
    if problem.exponents is not None:
        doc["inv_p"] = problem.exponents.inv_p.tolist()
    if problem.B is not None:
        doc["B"] = _B_doc(problem.B)
    if problem.profiles is not None:
        doc["profiles"] = [_profile_doc(p) for p in problem.profiles]
    if problem.C is not None:
        doc["C"] = problem.C.tolist()
    doc["seed"] = problem.seed
    if problem.tolerances:
        doc["tolerances"] = dict(problem.tolerances)
    return json.dumps(doc, indent=2) + "\n"
