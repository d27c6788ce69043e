"""Fractional powers of elliptic operators: assembly, nonlocal problems, reduction."""

from .mesh import (
    Mesh,
    MeshError,
    RegionError,
    RegionLabels,
    build_interval_mesh,
    build_rect_mesh,
    label_regions,
)
from .operators import (
    AssemblyError,
    CoefficientError,
    CoefficientField,
    DiscreteOperator,
    PositivityError,
    assemble,
)
from .calculus import (
    QuadratureError,
    TimeQuadrature,
    apply_inverse,
    apply_power,
    apply_spectral,
    fractional_stiffness,
    gamma_neg,
    heat_kernel_entry,
    kernel_Ka,
    kernel_gaussian_reference,
    power_matrix,
    power_via_heat_quadrature,
    spectral_power,
)
from .dirichlet import (
    CauchyPair,
    ExteriorData,
    ExteriorDataError,
    NonlocalSolution,
    cauchy_gap,
    cauchy_pair,
    dirichlet_energy,
    solve_exterior_value,
    stability_constant,
)
from .reduction import (
    BoundaryCauchyData,
    LiftedPair,
    boundary_cauchy,
    boundary_gap,
    lift,
    moment_functional,
    theorem1_probe,
)
from .gauge import (
    Diffeo,
    DiffeoError,
    gauge_invariance_check,
    map_mesh,
    pushforward_operator,
)
from .diagnostics import (
    HeatRatioReport,
    SingularValueReport,
    heat_bound_check,
    heatflow_rigidity_probe,
    runge_rank,
    ucp_quotient,
)
from .config import (
    SUITE_NAMES,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
)
from .runner import RunResult, list_suites, run_suites

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
