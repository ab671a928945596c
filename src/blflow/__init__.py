"""Rank-1 Brascamp-Lieb constants, concavity certificates, heat-flow checks."""

import os as _os
from importlib import import_module as _import_module

# BLFLOW_THREADS pins the BLAS thread pool. OpenBLAS reads its thread
# variables once, when NumPy loads it, so this runs before any submodule
# pulls NumPy in. OpenBLAS prefers OPENBLAS_NUM_THREADS over OMP_NUM_THREADS,
# so both are overwritten.
if _os.environ.get("BLFLOW_THREADS"):
    _os.environ["OMP_NUM_THREADS"] = _os.environ["BLFLOW_THREADS"]
    _os.environ["OPENBLAS_NUM_THREADS"] = _os.environ["BLFLOW_THREADS"]

#: each submodule and the names it exports.  An export is imported on first
#: access (PEP 562) and not stored here, so a command loads only the
#: submodules it runs, and every lookup sees the submodule's current binding.
_EXPORTS = {
    "certificate": ("certificate_defect", "projection_check", "solve_s_system"),
    "gaussian": ("gaussian_objective", "quadrature_objective"),
    "heatflow": ("bellman_energies", "gaussian_energy", "monotonicity_scan", "rhs_limit"),
    "model": ("BellmanSpec", "Exponents", "GaussCert", "VectorSystem", "make_cert",
              "numerical_rank"),
    "polytope": ("enumerate_bases", "is_finite"),
    "profiles": ("Box", "GaussianProfile", "SumOfBoxes", "gaussian_extremizer"),
    "verifier": ("check_L3", "check_L5", "verify"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{home}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
