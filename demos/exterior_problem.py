"""Exterior-value problem and its local lift, end to end on the baseline.

A datum supported on the window W drives the fractional equation
(L**a u)|_Omega = 0 with u fixed off Omega.  The solve is a Schur
complement on the interior block of the fractional stiffness; the demo
verifies the two properties that make it trustworthy:

* the solution minimizes the fractional Dirichlet energy among all
  fields with the same exterior values (20 random interior perturbations
  all raise the energy);
* the lifted triple (Phi, psi, u) satisfies its three defining relations
  to solver accuracy, so the nonlocal solution embeds into a local
  boundary problem with computable Cauchy data.

The heat-quadrature route closes the loop: the increment of the heat
flow, integrated against t**(-1-a), recovers L**a u at the observation
nodes without ever forming L**a.

Run:  python3 demos/exterior_problem.py
"""

import numpy as np

from fracred.calculus import TimeQuadrature, apply_power, power_via_heat_quadrature
from fracred.dirichlet import (
    ExteriorData,
    dirichlet_energy,
    solve_exterior_value,
    stability_constant,
)
from fracred.mesh import build_interval_mesh, label_regions
from fracred.operators import CoefficientField, assemble
from fracred.reduction import lift


def main():
    mesh = build_interval_mesh(-2.0, 2.0, 80)
    labels = label_regions(mesh, (-1.0, 1.0), (1.05, 1.8), (-1.95, -1.05))
    op = assemble(mesh, CoefficientField.build(mesh, labels))
    a = 0.5

    w_nodes = labels.w_nodes
    datum = ExteriorData.hat(op, int(w_nodes[len(w_nodes) // 2]))
    sol = solve_exterior_value(op, a, datum)
    print(f"dofs = {op.n_dofs}, window W carries {datum.w_dofs.size} of them")
    print(f"solution sup-norm {np.abs(sol.u).max():.4f}, "
          f"stability constant {stability_constant(op, a):.4f}")

    base = dirichlet_energy(op, a, sol.u)
    interior = op.omega_interior_dofs(labels)
    rng = np.random.default_rng(7)
    increases = []
    for _ in range(20):
        p = np.zeros(op.n_dofs)
        p[interior] = 0.1 * rng.standard_normal(interior.size)
        increases.append(dirichlet_energy(op, a, sol.u + p) - base)
    print(f"\n== energy minimality ==")
    print(f"  E[u] = {base:.6f}; 20 perturbed energies exceed it by at least "
          f"{min(increases):.2e}")

    pair = lift(op, a, sol)
    print("\n== lifted triple residuals ==")
    for name, value in pair.residuals.items():
        print(f"  {name:<9} {value:.3e}")

    quad = TimeQuadrature(s_max=4.0, n=200)
    nodes = labels.wtilde_nodes[:4]
    dofs = op.dofs_of_nodes(nodes)
    got = power_via_heat_quadrature(op, a, sol.u, quad)[dofs]
    want = apply_power(op, a, sol.u)[dofs]
    print("\n== heat-quadrature route vs spectral L^a u ==")
    print(f"  max rel gap over {nodes.size} observation nodes: "
          f"{np.abs((got - want) / want).max():.3e}")


if __name__ == "__main__":
    main()
