"""Nonlinear sheaf-Laplacian dynamics and recovery of edge interaction laws.

The package covers the forward problem (diffusion dynamics driven by edge
potentials over a Euclidean sheaf on a directed graph) and the inverse one
(recovering the edge law from node trajectories), together with the
cohomological and spectral diagnostics that decide when recovery is possible.
"""

from .dynamics import (
    SimConfig,
    Trajectory,
    equilibrium_projection,
    integrate,
    load_trajectory_csv,
    observe,
    save_trajectory_csv,
    simulate_ensemble,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    ParameterError,
    SheafSysIdError,
    StructuralError,
    UsageError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentOutput,
    force_mse,
    make_cycle_sheaf,
    run_bounded_confidence,
    run_experiment,
    run_finite_basis,
    run_formation_transfer,
)
from .potentials import (
    Antagonistic,
    BasisForce,
    BoundedConfidence,
    ConstantEdgeForce,
    EdgePotential,
    LinearBasisPotential,
    Quadratic,
    RadialMonomialForce,
    ShiftedQuadratic,
    monomial_basis,
    monomial_potential,
)
from .sheaf import (
    RANK_TOL,
    CoboundaryOperator,
    DirectedGraph,
    Sheaf,
    apply_delta,
    apply_delta_star,
    build_coboundary,
    c0_inner,
    c1_inner,
    delta_pseudoinverse_apply,
    global_section_basis,
    harmonic_basis,
    hodge_project,
    load_sheaf,
    sheaf_from_dict,
)
from .sysid import (
    EstimationResult,
    IdentifiabilityReport,
    ResidualDataset,
    fit_linear,
    fit_threshold,
    information_scalar,
    merge_datasets,
    residual_dataset,
    residuals_exact,
    residuals_fd,
    threshold_objective,
    threshold_terms,
)

__version__ = "0.1.0"
