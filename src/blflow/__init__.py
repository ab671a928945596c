"""Rank-1 Brascamp-Lieb constants, concavity certificates, heat-flow checks."""

import os as _os

# BLFLOW_THREADS pins the BLAS thread pool. OpenBLAS reads its thread
# variables once, when NumPy loads it, so this runs before the first
# submodule import below pulls NumPy in. OpenBLAS prefers OPENBLAS_NUM_THREADS
# over OMP_NUM_THREADS, so both are overwritten.
if _os.environ.get("BLFLOW_THREADS"):
    _os.environ["OMP_NUM_THREADS"] = _os.environ["BLFLOW_THREADS"]
    _os.environ["OPENBLAS_NUM_THREADS"] = _os.environ["BLFLOW_THREADS"]

from .certificate import build_C, certificate_defect, projection_check, solve_s_system
from .gaussian import gaussian_objective, quadrature_objective
from .heatflow import (Box, GaussianProfile, SumOfBoxes, bellman_energies, gaussian_energy,
                       gaussian_extremizer, monotonicity_scan, rhs_limit)
from .model import (BellmanSpec, Exponents, GaussCert, VectorSystem, make_cert,
                    numerical_rank, psd_leq_zero)
from .polytope import enumerate_bases, is_finite
from .verifier import certificate_spectrum, check_L3, check_L5, verify

__all__ = [
    "BellmanSpec", "Box", "Exponents", "GaussCert", "GaussianProfile", "SumOfBoxes",
    "VectorSystem", "bellman_energies", "build_C", "certificate_defect",
    "certificate_spectrum", "check_L3", "check_L5", "enumerate_bases", "gaussian_energy",
    "gaussian_extremizer", "gaussian_objective", "is_finite", "make_cert",
    "monotonicity_scan", "numerical_rank", "projection_check", "psd_leq_zero",
    "quadrature_objective", "rhs_limit", "solve_s_system", "verify",
]

__version__ = "0.1.0"
