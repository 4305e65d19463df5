"""The inverse problem: residuals, identifiability matrices, estimators.

The node-level residual of the diffusion dynamics is

    r(x) = -x' - Psi(x) = delta*(Phi(delta x)),

which is computable from trajectories alone; edge states y = delta x are
always recomputed from node states through the coboundary, never measured
directly.  For a force family linear in its parameters the stacked design
matrix A has block i column m equal to delta* applied to the m-th basis force
at y_i.  All stacked inner products weight each node block by M1, so the Gram
matrix Gamma = A^T (I kron M1) A matches the C^0 norm of the estimation
objective

    (1/N) sum_k | r_k - delta* Phi_theta(delta x_k) |^2_{C0}  + ridge * |theta|^2.

Identifiability is decided by lambda_min(Gamma) against the relative rank
tolerance; the same cutoff drives the minimum-norm solve, so the identifiable
flag and the round-trip behaviour of the estimator agree by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Trajectory
from .errors import ConfigurationError, ParameterError, UsageError
from .potentials import BasisForce, BoundedConfidence, EdgePotential, NodeField
from .sheaf import RANK_TOL, CoboundaryOperator

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class ResidualDataset:
    """Sampled states, residuals, and recomputed edge states.

    ``source`` records how derivatives were obtained ("exact" or
    "finite_difference"); ``noise_std`` the observation noise that was present.
    """

    states: np.ndarray  # (N, d0)
    residuals: np.ndarray  # (N, d0)
    edge_states: np.ndarray  # (N, d1)
    source: str
    noise_std: float = 0.0

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class IdentifiabilityReport:
    """Gram/information matrix with its extreme eigenvalues and the verdict."""

    gram: np.ndarray
    lambda_min: float
    lambda_max: float
    identifiable: bool


@dataclass(frozen=True)
class EstimationResult:
    theta_hat: np.ndarray
    objective_value: float
    report: IdentifiabilityReport
    diagnostics: dict


def residuals_exact(
    op: CoboundaryOperator, traj: Trajectory, node_field: NodeField
) -> ResidualDataset:
    """Residuals from recorded exact derivatives: r_k = -x'_k - Psi(x_k)."""
    if traj.derivs is None:
        raise UsageError("trajectory has no recorded derivatives")
    residuals = -traj.derivs - node_field.grad(traj.states)
    return ResidualDataset(
        states=traj.states,
        residuals=residuals,
        edge_states=traj.states @ op.B.T,
        source="exact",
    )


def residuals_fd(
    op: CoboundaryOperator,
    traj: Trajectory,
    node_field: NodeField,
    noise_std: float = 0.0,
) -> ResidualDataset:
    """Residuals with derivatives estimated by finite differences.

    Central differences on interior samples, one-sided second-order stencils
    at the ends; requires at least three uniformly spaced samples.
    """
    x = traj.states
    if x.shape[0] < 3:
        raise UsageError("finite differences need at least three samples")
    dt = np.diff(traj.times)
    h = dt[0]
    if not np.allclose(dt, h, rtol=1e-8, atol=1e-12):
        raise UsageError("finite differences require uniform sampling")
    xdot = np.empty_like(x)
    xdot[1:-1] = (x[2:] - x[:-2]) / (2.0 * h)
    xdot[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * h)
    xdot[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * h)
    residuals = -xdot - node_field.grad(x)
    return ResidualDataset(
        states=x,
        residuals=residuals,
        edge_states=x @ op.B.T,
        source="finite_difference",
        noise_std=noise_std,
    )


def residual_dataset(
    op: CoboundaryOperator,
    trajectories: Sequence[Trajectory],
    node_field: NodeField,
    mode: str,
    noise_std: float = 0.0,
) -> ResidualDataset:
    """Merged residuals of every trajectory, from recorded derivatives
    (mode "observed") or finite differences (mode "finite_difference")."""
    if mode == "observed":
        parts = [residuals_exact(op, t, node_field) for t in trajectories]
    elif mode == "finite_difference":
        parts = [residuals_fd(op, t, node_field, noise_std=noise_std) for t in trajectories]
    else:
        raise ConfigurationError(f"unknown residual mode '{mode}'")
    return merge_datasets(parts)


def merge_datasets(datasets: Sequence[ResidualDataset]) -> ResidualDataset:
    if not datasets:
        raise UsageError("cannot merge zero datasets")
    sources = {d.source for d in datasets}
    if len(sources) != 1:
        raise UsageError(f"cannot merge datasets of mixed source {sorted(sources)}")
    return ResidualDataset(
        states=np.concatenate([d.states for d in datasets]),
        residuals=np.concatenate([d.residuals for d in datasets]),
        edge_states=np.concatenate([d.edge_states for d in datasets]),
        source=datasets[0].source,
        noise_std=max(d.noise_std for d in datasets),
    )


def _design_blocks(
    op: CoboundaryOperator, basis: Sequence[BasisForce], data: ResidualDataset
) -> np.ndarray:
    """Per-sample design blocks, shape (N, d0, p)."""
    ds_t = op.delta_star_matrix.T
    cols = [bf.force(data.edge_states) @ ds_t for bf in basis]
    return np.stack(cols, axis=-1)


def design_matrix(
    op: CoboundaryOperator, basis: Sequence[BasisForce], data: ResidualDataset
) -> np.ndarray:
    """Stacked design matrix, N*d0 rows and one column per basis force."""
    if not basis:
        raise UsageError("empty basis")
    blocks = _design_blocks(op, basis, data)
    return blocks.reshape(-1, len(basis))


def _weighted_gram(op: CoboundaryOperator, blocks: np.ndarray) -> np.ndarray:
    gram = np.einsum("nip,ij,njq->pq", blocks, op.M1, blocks)
    return 0.5 * (gram + gram.T)


def _report_from_gram(gram: np.ndarray, tol: float = RANK_TOL) -> IdentifiabilityReport:
    eigs = np.linalg.eigvalsh(gram)
    lam_max = float(eigs[-1]) if eigs.size else 0.0
    lam_min = float(max(eigs[0], 0.0)) if eigs.size else 0.0
    return IdentifiabilityReport(
        gram=gram,
        lambda_min=lam_min,
        lambda_max=lam_max,
        identifiable=bool(lam_min > tol * lam_max and lam_max > 0.0),
    )


def information_scalar(
    op: CoboundaryOperator, model: BoundedConfidence, data: ResidualDataset
) -> IdentifiabilityReport:
    """Scalar information number for the threshold parameter.

    Sums |delta*(d Phi_eps / d eps)(y_i)|^2 in the M1 metric over all samples;
    it vanishes exactly when no sample excites the below-threshold branch.
    """
    jac = model.param_jacobian(data.edge_states)[..., 0]
    sens = jac @ op.delta_star_matrix.T
    info = float(np.einsum("ni,ij,nj->", sens, op.M1, sens))
    return IdentifiabilityReport(
        gram=np.array([[info]]),
        lambda_min=info,
        lambda_max=info,
        identifiable=info > 0.0,
    )


def _objective(
    op: CoboundaryOperator, predicted: np.ndarray, residuals: np.ndarray
) -> float:
    diff = residuals - predicted
    return float(np.mean(np.einsum("ni,ij,nj->n", diff, op.M1, diff)))


def fit_linear(
    op: CoboundaryOperator,
    basis: Sequence[BasisForce],
    data: ResidualDataset,
    ridge: float = 0.0,
    tol: float = RANK_TOL,
) -> EstimationResult:
    """Least-squares fit of a linear-in-parameters force family.

    With ridge = 0 a singular Gram is handled by eigenvalue truncation at
    tol * lambda_max: the returned theta is the minimum-norm minimizer and the
    report's identifiable flag is lowered.
    """
    if data.n_samples == 0:
        raise UsageError("empty dataset")
    if ridge < 0:
        raise ParameterError("ridge weight must be nonnegative")
    blocks = _design_blocks(op, basis, data)
    gram = _weighted_gram(op, blocks)
    rhs = np.einsum("nip,ij,nj->p", blocks, op.M1, data.residuals)
    report = _report_from_gram(gram, tol)

    if ridge > 0.0:
        theta = np.linalg.solve(gram + ridge * np.eye(len(basis)), rhs)
        rank = len(basis)
    else:
        eigs, vecs = np.linalg.eigh(gram)
        cutoff = tol * max(eigs[-1], 0.0)
        keep = eigs > cutoff
        rank = int(np.count_nonzero(keep))
        theta = vecs[:, keep] @ ((vecs[:, keep].T @ rhs) / eigs[keep])

    predicted = blocks @ theta
    value = _objective(op, predicted, data.residuals) + ridge * float(theta @ theta)
    diagnostics = {
        "rank": rank,
        "dropped": len(basis) - rank,
        "gram_eigenvalues": np.linalg.eigvalsh(gram).tolist(),
        "ridge": ridge,
    }
    return EstimationResult(
        theta_hat=theta,
        objective_value=value,
        report=report,
        diagnostics=diagnostics,
    )


def threshold_objective(
    op: CoboundaryOperator, data: ResidualDataset, epsilon: float
) -> float:
    """Mean squared residual misfit of the bounded-confidence law at epsilon."""
    model = BoundedConfidence(op.sheaf, epsilon)
    predicted = model.force(data.edge_states) @ op.delta_star_matrix.T
    return _objective(op, predicted, data.residuals)


def fit_threshold(
    op: CoboundaryOperator,
    data: ResidualDataset,
    bracket: tuple[float, float],
    grid_points: int = 64,
    tol: float = 1e-10,
) -> EstimationResult:
    """Recover the bounded-confidence threshold from residual data.

    A 64-point log-spaced grid localizes the minimum (the loss has a seam
    wherever a sample crosses the cutoff, so no derivatives are used); golden
    section then refines to absolute tolerance.  Deterministic throughout.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise ParameterError(f"invalid bracket {bracket}")
    if data.n_samples == 0:
        raise UsageError("empty dataset")

    grid = np.geomspace(lo, hi, grid_points)
    losses = np.array([threshold_objective(op, data, e) for e in grid])
    best = int(np.argmin(losses))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid_points - 1)]

    # Golden-section refinement on [a, b].
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = threshold_objective(op, data, c)
    fd = threshold_objective(op, data, d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = threshold_objective(op, data, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = threshold_objective(op, data, d)
    eps_hat = 0.5 * (a + b)
    value = threshold_objective(op, data, eps_hat)
    report = information_scalar(op, BoundedConfidence(op.sheaf, eps_hat), data)
    diagnostics = {
        "grid": grid.tolist(),
        "grid_losses": losses.tolist(),
        "refined_bracket": (float(a), float(b)),
    }
    return EstimationResult(
        theta_hat=np.array([eps_hat]),
        objective_value=value,
        report=report,
        diagnostics=diagnostics,
    )


def integrated_residual_objective(
    op: CoboundaryOperator,
    model: EdgePotential,
    node_field: NodeField,
    traj: Trajectory,
) -> float:
    """Derivative-free misfit: state increments vs. trapezoid-rule integrals.

    Sums |x(t_{k+1}) - x(t_k) + integral of [delta* Phi(delta x) + Psi(x)]|^2
    in the M1 metric over consecutive sample pairs, with the integral
    approximated by the trapezoid rule on the recorded samples.
    """
    x = traj.states
    if x.shape[0] < 2:
        raise UsageError("need at least two samples")
    dt = np.diff(traj.times)
    h = dt[0]
    if not np.allclose(dt, h, rtol=1e-8, atol=1e-12):
        raise UsageError("uniform sampling required")
    g = model.force(x @ op.B.T) @ op.delta_star_matrix.T + node_field.grad(x)
    incr = x[1:] - x[:-1] + 0.5 * h * (g[1:] + g[:-1])
    return float(np.einsum("ni,ij,nj->", incr, op.M1, incr))
