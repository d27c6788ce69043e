"""Shared scenario fixtures.

The baseline scenarios are built from the bundled config files so the tests
exercise exactly what `fracred run baseline-1d` runs.  Expensive operators
(dense eigendecompositions) are session-scoped.
"""

from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from fracred.calculus import TimeQuadrature
from fracred.config import load_config
from fracred.mesh import build_interval_mesh, label_regions
from fracred.operators import CoefficientField, assemble


def bundled_config(name: str) -> str:
    return str(resources.files("fracred") / "configs" / name)


def build_scenario(config_name: str) -> SimpleNamespace:
    cfg = load_config(bundled_config(config_name))
    mesh = cfg.build_mesh()
    labels = cfg.build_labels(mesh)
    fields = cfg.build_fields(mesh, labels)
    return SimpleNamespace(
        cfg=cfg,
        mesh=mesh,
        labels=labels,
        fields=fields,
        op=assemble(mesh, fields[0]),
    )


@pytest.fixture(scope="session")
def quad() -> TimeQuadrature:
    return TimeQuadrature()


@pytest.fixture(scope="session")
def base1d() -> SimpleNamespace:
    return build_scenario("baseline-1d.json")


@pytest.fixture(scope="session")
def base2d() -> SimpleNamespace:
    return build_scenario("baseline-2d.json")


@pytest.fixture(scope="session")
def perturbed1d(base1d) -> SimpleNamespace:
    """The baseline operator next to a c = +5 zeroth-order perturbation."""
    field = CoefficientField.build(base1d.mesh, labels=base1d.labels, c=5.0)
    return SimpleNamespace(
        mesh=base1d.mesh,
        labels=base1d.labels,
        op1=base1d.op,
        op2=assemble(base1d.mesh, field),
    )


@pytest.fixture(scope="session")
def fine1d() -> SimpleNamespace:
    """h = 0.01 interval mesh on (-4, 4), used by the kernel-law checks."""
    mesh = build_interval_mesh(-4.0, 4.0, 800)
    labels = label_regions(mesh, (-1.0, 1.0), (1.05, 1.8), (-1.95, -1.05))
    field = CoefficientField.build(mesh, labels=labels)
    return SimpleNamespace(mesh=mesh, labels=labels, op=assemble(mesh, field))


@pytest.fixture(scope="session")
def heat1d() -> SimpleNamespace:
    """h = 0.005 plain Laplacian on (-2, 2) for heat-kernel ratio checks."""
    mesh = build_interval_mesh(-2.0, 2.0, 800)
    field = CoefficientField.build(mesh)
    return SimpleNamespace(mesh=mesh, op=assemble(mesh, field))


def hat_probes(scn, nodes=None):
    """Unit exterior data at each free W node (or the given subset)."""
    from fracred.dirichlet import ExteriorData

    pick = scn.labels.w_nodes if nodes is None else np.asarray(nodes)
    free = pick[scn.op.node_to_dof[pick] >= 0]
    return [ExteriorData.hat(scn.op, n) for n in free]
