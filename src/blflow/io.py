"""Problem files: a single JSON document describing one reproducible run.

Canonical formatting is fixed (key order, two-space indent, shortest
round-trip float repr) so that parse -> serialize is byte-stable.  Every
number in a file is a JSON number: k, n, seed, a product B's n and
section_vars are integers, any other is an int or a float, and a boolean or
a string in its place is a malformed field.  The profile classes live in
blflow.profiles, which is imported only to parse or serialize a file's
``profiles`` and does not import the energy layer (blflow.heatflow).
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


def _integer(value) -> int:
    """``value`` if it is a JSON integer, not a boolean (TypeError otherwise)."""
    if type(value) is not int:
        raise TypeError(f"need an integer, got {value!r}")
    return value


def _numbers(value):
    """``value`` once every leaf of its nested lists is a JSON number, an int or
    a float, not a boolean or a string (TypeError otherwise)."""
    leaves = [value]
    for leaf in leaves:  # one pass: each list's items are appended behind it
        if type(leaf) is list:
            leaves.extend(leaf)
        elif type(leaf) is not float and type(leaf) is not int:
            raise TypeError(f"need numbers, got {leaf!r}")
    return value


def _parse_B(doc, n: int) -> BellmanSpec:
    variant = doc.get("variant")
    if variant == "young":
        return BellmanSpec.young(_numbers(doc["alpha"]))
    if variant == "product":
        if _integer(doc.get("n", n)) != n:  # before BellmanSpec allocates n weights
            raise StructuralError("B has the wrong number of variables")
        return BellmanSpec.product(_numbers(doc.get("M", 1.0)), n)
    if variant == "lifted":
        sv, theta = doc.get("section_vars"), doc.get("theta")
        if sv is not None and not (type(sv) is list and len(sv) == 2 and sv[0] != sv[1]
                                   and all(type(j) is int and 0 <= j < n for j in sv)):
            raise ValueError(f"section_vars must be two distinct integers in 0..{n - 1}, "
                             f"got {sv!r}")
        return BellmanSpec.lifted(doc["phi"], _numbers(doc.get("alpha", [])),
                                  section_vars=None if sv is None else tuple(sv),
                                  theta=None if theta is None else _numbers(theta))
    raise StructuralError(f"unknown B variant {variant!r}")


def _parse_profile(doc) -> Profile:
    from .profiles import Box, GaussianProfile, SumOfBoxes

    kind = doc.get("type")
    if kind == "box":
        return Box(*_numbers([doc["lo"], doc["hi"], doc["height"]]))
    if kind == "gaussian":
        return GaussianProfile(*_numbers([doc["amplitude"], doc["center"], doc["variance"]]))
    if kind == "sum_of_boxes":
        return SumOfBoxes(tuple(Box(*_numbers([b["lo"], b["hi"], b["height"]]))
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

    A ValueError, KeyError, TypeError, AttributeError or OverflowError that
    convert raises on a malformed value is reported as a StructuralError that
    names the field.
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
    k, n = _field(doc, "k", _integer), _field(doc, "n", _integer)
    A = _field(doc, "A", lambda a: np.asarray(_numbers(a), dtype=float))
    if A.shape != (k, n):
        raise StructuralError(f"A must be a {k}x{n} row-major array, got shape {A.shape}")
    system = VectorSystem(A)
    e = _field(doc, "inv_p", lambda x: Exponents(_numbers(x)))
    if e is not None and e.n != n:
        raise StructuralError("inv_p length differs from n")
    B = _field(doc, "B", lambda b: _parse_B(b, n))
    if B is not None and B.n != n:
        raise StructuralError("B has the wrong number of variables")
    profiles = _field(doc, "profiles", lambda ps: tuple(map(_parse_profile, ps)))
    if profiles is not None and len(profiles) != n:
        raise StructuralError("need one profile per column of A")
    C = _field(doc, "C", lambda c: np.asarray(_numbers(c), dtype=float))
    if C is not None and C.shape != (k, k):
        raise StructuralError("C must be k x k")
    return Problem(system=system, exponents=e, B=B, profiles=profiles, C=C,
                   seed=_field(doc, "seed", _integer, 0),
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
