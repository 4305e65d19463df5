"""Nonlinear sheaf-Laplacian dynamics and recovery of edge interaction laws.

The package covers the forward problem (diffusion dynamics driven by edge
potentials over a Euclidean sheaf on a directed graph) and the inverse one
(recovering the edge law from node trajectories), together with the
cohomological and spectral diagnostics that decide when recovery is possible.

Only the names of the README's library tour, the base error and the study
entry point live here; every other name is imported from its module, e.g.
``from sheaf_sysid.experiments import run_bounded_confidence``.
"""

from .dynamics import SimConfig, integrate
from .errors import SheafSysIdError
from .experiments import ExperimentConfig, make_cycle_sheaf, run_experiment
from .potentials import monomial_basis, monomial_potential
from .sheaf import build_coboundary, harmonic_basis
from .sysid import fit_linear, residuals_exact

__version__ = "0.1.0"
