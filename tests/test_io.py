import json

import numpy as np
import pytest

from blflow import Box, GaussianProfile, SumOfBoxes
from blflow.errors import StructuralError
from blflow.io import parse_problem, serialize_problem

FULL_DOC = {
    "k": 1,
    "n": 2,
    "A": [[1.0, 1.0]],
    "inv_p": [0.5, 0.5],
    "B": {"variant": "young", "alpha": [0.5, 0.5]},
    "profiles": [
        {"type": "box", "lo": 0.0, "hi": 1.0, "height": 1.0},
        {"type": "gaussian", "amplitude": 1.0, "center": 0.0, "variance": 2.0},
    ],
    "C": [[1.0]],
    "seed": 7,
}


class TestParse:
    def test_full_document(self):
        p = parse_problem(json.dumps(FULL_DOC))
        assert p.system.k == 1 and p.system.n == 2
        assert np.array_equal(p.exponents.inv_p, [0.5, 0.5])
        assert p.B.variant == "young"
        assert isinstance(p.profiles[0], Box)
        assert isinstance(p.profiles[1], GaussianProfile)
        assert np.array_equal(p.C, [[1.0]])
        assert p.seed == 7

    def test_minimal_document(self):
        p = parse_problem('{"k": 1, "n": 2, "A": [[1.0, 2.0]]}')
        assert p.exponents is None and p.B is None
        assert p.profiles is None and p.C is None and p.seed == 0

    def test_sum_of_boxes(self):
        doc = dict(FULL_DOC)
        doc["profiles"] = [
            {"type": "sum_of_boxes",
             "boxes": [{"lo": 0.0, "hi": 1.0, "height": 1.0},
                       {"lo": 2.0, "hi": 3.0, "height": 0.5}]},
            {"type": "box", "lo": 0.0, "hi": 1.0, "height": 1.0},
        ]
        p = parse_problem(json.dumps(doc))
        assert isinstance(p.profiles[0], SumOfBoxes)
        assert len(p.profiles[0].boxes) == 2

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("A"),
        lambda d: d.update(A=[[1.0, 1.0], [1.0, 1.0]]),   # wrong shape
        lambda d: d.update(inv_p=[0.5, 0.5, 0.5]),        # length mismatch
        lambda d: d.update(B={"variant": "rational"}),
        lambda d: d.update(profiles=[{"type": "spline"}]),
        lambda d: d.update(C=[[1.0, 0.0]]),               # not k x k
    ])
    def test_rejects_malformed(self, mutate):
        doc = json.loads(json.dumps(FULL_DOC))
        mutate(doc)
        with pytest.raises(StructuralError):
            parse_problem(json.dumps(doc))

    def test_rejects_invalid_json(self):
        with pytest.raises(StructuralError):
            parse_problem("{not json")
        with pytest.raises(StructuralError):
            parse_problem("[1, 2, 3]")


class TestRoundTrip:
    def test_serialize_parse_serialize_is_stable(self):
        text1 = serialize_problem(parse_problem(json.dumps(FULL_DOC)))
        text2 = serialize_problem(parse_problem(text1))
        assert text1 == text2
        assert text1.endswith("\n")

    def test_lifted_round_trip(self):
        doc = {"k": 2, "n": 3,
               "A": [[0.0, 0.0, 0.7071067811865476], [1.0, 1.0, 0.0]],
               "B": {"variant": "lifted", "phi": "sqrt_uv", "alpha": [1.0],
                     "section_vars": [0, 1]}}
        p = parse_problem(json.dumps(doc))
        p2 = parse_problem(serialize_problem(p))
        assert p2.B.variant == "lifted"
        assert p2.B.section_vars == (0, 1)
        assert np.array_equal(p2.B.weights, p.B.weights)

    def test_tolerances_preserved(self):
        doc = dict(FULL_DOC)
        doc["tolerances"] = {"res_tol": 1e-12}
        p = parse_problem(json.dumps(doc))
        assert p.tolerances == {"res_tol": 1e-12}
        assert parse_problem(serialize_problem(p)).tolerances == {"res_tol": 1e-12}

    @pytest.mark.parametrize("tolerances", [
        {}, {"res_tol": 1e-30}, {"res_tol": 1}, {"boundary_tol": 0},
        {"res_tol": 1e-8, "boundary_tol": 1e-3},
    ])
    def test_valid_tolerances_accepted(self, tolerances):
        doc = dict(FULL_DOC, tolerances=tolerances)
        assert parse_problem(json.dumps(doc)).tolerances == tolerances
