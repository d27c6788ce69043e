"""The gauge obstruction: different coefficients, identical measurements.

Take the baseline operator and push it forward under a radial shrink that
is the identity outside the ball of radius rho = 0.8 (so it fixes both
measurement windows and the boundary).  The transported coefficient field
differs from the original by more than 30 percent in sup norm, yet

* the stiffness and mass matrices agree entrywise to machine precision
  (change of variables is exact on piecewise-linear elements), and
* every window-to-window Cauchy pair agrees to solver accuracy for each
  tested exponent.

No exterior measurement can tell the two operators apart: coefficient
recovery is only ever possible up to this diffeomorphism gauge.

Run:  python3 demos/gauge_invariance.py
"""

import numpy as np

from fracred.dirichlet import ExteriorData
from fracred.gauge import Diffeo, gauge_invariance_check, pushforward_operator
from fracred.mesh import build_interval_mesh, build_rect_mesh, label_regions
from fracred.operators import CoefficientField, assemble


def scenarios():
    mesh1 = build_interval_mesh(-2.0, 2.0, 80)
    lab1 = label_regions(mesh1, (-1.0, 1.0), (1.05, 1.8), (-1.95, -1.05))
    mesh2 = build_rect_mesh(((-2.0, 2.0), (-2.0, 2.0)), 20, 20)
    lab2 = label_regions(
        mesh2,
        ((-1.0, 1.0), (-1.0, 1.0)),
        ((1.4, 1.75), (-0.6, 0.6)),
        ((-1.75, -1.4), (-0.6, 0.6)),
    )
    yield "interval", assemble(mesh1, CoefficientField.build(mesh1, lab1)), lab1
    yield "rectangle", assemble(mesh2, CoefficientField.build(mesh2, lab2)), lab2


def hat_probes(op, limit=None):
    w_nodes = op.labels.w_nodes
    free = w_nodes[op.node_to_dof[w_nodes] >= 0]
    if limit is not None:
        free = free[:limit]
    return [ExteriorData.hat(op, int(n)) for n in free]


def main():
    for name, op, labels in scenarios():
        F = Diffeo.radial_shrink(op.mesh, 0.8, 0.8)
        moved = pushforward_operator(op, F)
        coeff_gap = np.abs(moved.coeffs.A - op.coeffs.A).max()
        k_gap = np.abs(moved.K - op.K).max()
        m_gap = np.abs(moved.M - op.M).max()
        print(f"== {name} baseline, radial shrink by 0.8 inside rho = 0.8 ==")
        print(f"  coefficient contrast  max|A' - A| = {coeff_gap:.3f}")
        print(f"  matrix invariance     max|K' - K| = {k_gap:.2e}, "
              f"max|M' - M| = {m_gap:.2e}")
        probes = hat_probes(op, limit=6)
        for a in (0.25, 0.5, 0.75):
            gap = gauge_invariance_check(op, moved, a, labels, probes)
            print(f"  Cauchy-data gap at a = {a}:  {gap:.2e}")
        print()
    print("The coefficients moved; the measurements did not.")


if __name__ == "__main__":
    main()
