"""Fractional powers of elliptic operators: assembly, nonlocal problems, reduction."""

from .mesh import (
    Mesh,
    MeshError,
    RegionError,
    RegionLabels,
    build_interval_mesh,
    build_rect_mesh,
    label_regions,
    mesh_from_json,
    mesh_to_json,
)
from .operators import (
    AssemblyError,
    CoefficientError,
    CoefficientField,
    DiscreteOperator,
    PositivityError,
    assemble,
    ellipticity_check,
)
from .calculus import (
    CALIBRATION_TOL,
    PeriodicGrid1D,
    QuadratureError,
    SpectralFunction,
    TimeQuadrature,
    apply_inverse,
    apply_power,
    bilinear_form,
    fourier_crosscheck_neglap,
    fractional_stiffness,
    gamma_neg,
    heat_apply,
    heat_increment,
    heat_kernel_entry,
    kernel_Ka,
    kernel_gaussian_reference,
    power_matrix,
    power_via_heat_quadrature,
    sobolev_norm,
)
from .dirichlet import (
    CauchyPair,
    ExteriorData,
    ExteriorDataError,
    ExteriorDataMatrix,
    NonlocalSolution,
    cauchy_gap,
    cauchy_pair,
    dirichlet_energy,
    exterior_data_matrix,
    solution_stability,
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
    assemble_weighted,
    conductivity_from_metric,
    gauge_invariance_check,
    laplace_beltrami_assemble,
    map_mesh,
    metric_from_conductivity,
    pushforward_conductivity,
    pushforward_magnetic,
    pushforward_operator,
    pushforward_potential,
    pushforward_weight,
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
