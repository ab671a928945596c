import math

import numpy as np
import pytest

from blflow import BellmanSpec, Box, Exponents, VectorSystem, make_cert
from oracles import solve_datum


@pytest.fixture(scope="session")
def holder():
    """k=1, n=2, A=(1,1), p=(2,2): the two-function mean inequality."""
    sysm = VectorSystem(np.array([[1.0, 1.0]]))
    e = Exponents([0.5, 0.5])
    B = BellmanSpec.young([0.5, 0.5])
    cert = make_cert(sysm, np.array([[1.0]]))
    return sysm, e, B, cert


@pytest.fixture(scope="session")
def young3():
    """The classical n=3, k=2 convolution system with p=(3/2, 3/2, 3/2)."""
    sysm = VectorSystem(np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]))
    e = Exponents([2 / 3, 2 / 3, 2 / 3])
    B = BellmanSpec.young([2 / 3, 2 / 3, 2 / 3])
    return sysm, e, B


@pytest.fixture(scope="session")
def young3_solve(young3):
    sysm, e, _ = young3
    result = solve_datum(sysm, e)
    assert result.converged
    return result


@pytest.fixture(scope="session")
def young3_cert(young3_solve):
    return young3_solve.factor.cert()


@pytest.fixture(scope="session")
def product2():
    """k=n=2, A=I, B = y1*y2, C = I."""
    sysm = VectorSystem(np.eye(2))
    B = BellmanSpec.product(1.0, 2)
    cert = make_cert(sysm, np.eye(2))
    return sysm, B, cert


@pytest.fixture(scope="session")
def section_triple():
    """The lifted-section triple: B = sqrt(y1 y2) * y3 with repeated columns.

    A non-monomial-exponent certificate family: the section part has a
    degenerate (Monge-Ampere) Hessian block, which is what makes the triple
    pass the concavity check despite B not being a Young function.
    """
    A = np.array([[0.0, 0.0, 1.0 / math.sqrt(2.0)], [1.0, 1.0, 0.0]])
    sysm = VectorSystem(A)
    B = BellmanSpec.lifted("sqrt_uv", alpha=[1.0], section_vars=(0, 1))
    cert = make_cert(sysm, np.diag([2.0, 1.0]))
    return sysm, B, cert


@pytest.fixture(scope="session")
def box_profiles():
    return (Box(0.0, 1.0, 1.0), Box(0.0, 2.0, 1.0))
