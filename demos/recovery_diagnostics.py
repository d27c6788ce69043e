"""Diagnostics behind the recovery argument, printed as a scorecard.

Four quantities carry the identifiability story for the baseline interval
scenario, and each has a number a referee can check:

* runge_rank: singular values of the W-to-E solution map; full row rank
  means exterior data reaches every nodal pattern on the test window E.
* ucp_quotient: smallest restricted quotient over a growing chain of
  observation sets Sigma; positivity is discrete unique continuation,
  monotone growth is the sanity check that more observations never hurt.
* heat_bound_check: on-diagonal-normalized heat ratios at t inside the
  resolved window [4h**2, 1]; near 1 means the discrete kernel tracks the
  Gaussian two-sided bounds where the theory expects it.
* heatflow_rigidity_probe: a gap functional that vanishes iff two
  operators share window heat flow; zero against itself, visibly positive
  against a potential perturbation.

Run:  python3 demos/recovery_diagnostics.py
"""

import numpy as np

from fracred.calculus import TimeQuadrature
from fracred.diagnostics import (
    heat_bound_check,
    heatflow_rigidity_probe,
    heatflow_rows,
    runge_rank,
    ucp_quotient,
)
from fracred.dirichlet import ExteriorData
from fracred.mesh import build_interval_mesh, label_regions
from fracred.operators import CoefficientField, assemble


def main():
    mesh = build_interval_mesh(-2.0, 2.0, 80)
    labels = label_regions(mesh, (-1.0, 1.0), (1.05, 1.8), (-1.95, -1.05))
    op = assemble(mesh, CoefficientField.build(mesh, labels))

    print("== runge_rank: W-to-E solution map ==")
    for a in (0.25, 0.5, 0.75):
        rep = runge_rank(op, a, labels)
        print(f"  a = {a}   shape {rep.shape}, smin/smax = "
              f"{rep.smallest / rep.largest:.3e}, full row rank: {rep.full_row_rank}")

    print("\n== ucp_quotient: growing observation sets ==")
    wt = labels.wtilde_nodes
    free = wt[op.node_to_dof[wt] >= 0]
    chain = [free[: free.size // 3], free[: 2 * free.size // 3], free]
    for a in (0.25, 0.5, 0.75):
        vals = [ucp_quotient(op, a, sigma).smallest for sigma in chain]
        arrow = " <= ".join(f"{v:.3e}" for v in vals)
        print(f"  a = {a}   {arrow}")

    print("\n== heat_bound_check at t = 0.01 on a fine plain mesh ==")
    fine = build_interval_mesh(-2.0, 2.0, 800)
    fop = assemble(fine, CoefficientField.build(fine))
    xs = fine.nodes.ravel()
    pairs = []
    for cx in (-1.0, 0.0, 1.0):
        i = int(np.argmin(np.abs(xs - cx)))
        for r in (0.0, 0.1, 0.25):
            pairs.append((i, int(np.argmin(np.abs(xs - (cx + r))))))
    rep = heat_bound_check(fop, 0.01, pairs)
    print(f"  t in resolved window: {rep.t_in_window}")
    print(f"  ratio range over {len(pairs)} pairs: "
          f"[{rep.ratios.min():.4f}, {rep.ratios.max():.4f}]")

    print("\n== heatflow_rigidity_probe ==")
    pert = assemble(mesh, CoefficientField.build(mesh, labels, c=5.0))
    quad = TimeQuadrature(s_max=4.0, n=200)
    datum = ExteriorData.hat(op, int(labels.w_nodes[0]))
    sigma = free[:5]
    rows = heatflow_rows(op, 0.5, datum, quad, sigma)
    same = heatflow_rigidity_probe(rows, rows)
    diff = heatflow_rigidity_probe(rows, heatflow_rows(pert, 0.5, datum, quad, sigma))
    print(f"  op vs itself:              {same:.3e}")
    print(f"  op vs potential c = +5:    {diff:.3e}")


if __name__ == "__main__":
    main()
