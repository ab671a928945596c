#!/usr/bin/env python3
"""End-to-end walkthrough on the three-function convolution system.

Solves the auxiliary weight system once, on the basis table of the
finiteness verdict, and reads off both the certifying matrix C and the
sharp constant D; runs the full verifier battery on C, and compares D
against direct quadrature at the maximizer b = p s^2.
"""

import numpy as np

from blflow import (BellmanSpec, Exponents, VectorSystem, certificate_defect,
                    gaussian_objective, is_finite, projection_check,
                    quadrature_objective, solve_s_system, verify)


def main() -> None:
    sysm = VectorSystem(np.array([[1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]))
    e = Exponents([2 / 3, 2 / 3, 2 / 3])
    B = BellmanSpec.young(e.inv_p)

    verdict = is_finite(sysm, e)
    print(f"polytope verdict: {verdict.verdict} (slack r(S) - x(S) = {verdict.slack:.3e} "
          f"at columns S = {verdict.witness})")

    result = solve_s_system(verdict.bases, e)
    cert = result.factor.cert()
    print(f"s^2 = {result.s_sq}  ({result.iterations} iterations, "
          f"residual {result.residual:.3e})")
    print(f"C =\n{cert.C}")
    print(f"inverse defect: {certificate_defect(sysm, e, cert):.3e}")

    proj = projection_check(sysm, cert, result.s_sq)
    print(f"projection: rank {proj.rank}, trace {proj.trace:.12f}, "
          f"eigenvalues {np.round(proj.eigenvalues, 10)}")

    report = verify(sysm, cert, B)
    print(f"verifier: ok={report.ok}  L3 max eig {report.l3_max_eig:.3e}  "
          f"PDE defect {report.pde_defect:.3e}  rank {report.rank}")

    log_b = np.log(e.p * result.s_sq)
    v_closed = gaussian_objective(sysm, e, log_b)
    v_quad = quadrature_objective(sysm, e, log_b)
    print(f"D = {result.D:.15f}  (from the same solve)")
    print(f"quadrature cross-check at argmax: {v_quad:.15f} "
          f"(closed form {v_closed:.15f})")


if __name__ == "__main__":
    main()
