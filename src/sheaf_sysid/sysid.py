"""The inverse problem: residuals, identifiability matrices, estimators.

The node-level residual of the diffusion dynamics is

    r(x) = -x' = delta*(Phi(delta x)),

which is computable from trajectories alone; edge states y = delta x are
always recomputed from node states through the coboundary, never measured
directly.  Every C^0 product is a plain sum of squares in whitened
coordinates: with M1 = L1 L1^T, a 0-cochain row v has |v|^2_{C0} = |v @ L1|^2.
A parameter's sensitivity column stacks L1^T delta* (d Phi / d theta_m)(y_k)
over the samples; one function forms the information matrix S^T S of these
columns and decomposes it once, for the threshold's scalar information
number (p = 1) and for the Gram of the linear-basis objective

    (1/N) sum_k | r_k - delta* Phi_theta(delta x_k) |^2_{C0}.

Identifiability is decided by lambda_min against the relative rank tolerance;
the same eigendecomposition drives the minimum-norm solve, so the
identifiable flag and the round-trip behaviour of the estimator agree by
construction.

The threshold has no linear structure, so its loss is searched over epsilon
(a grid, then golden section; about 110 evaluations per fit).  Everything in
that loss except the law's per-edge gain is independent of epsilon and is
computed once per fit (threshold_terms): the edge states y, their per-edge
squared norms u spread over each edge stalk, the whitened residuals r @ L1
and the whitened sensitivity map G = delta*^T L1.  One evaluation is then
the gain of u at epsilon, the misfit r @ L1 - (y * gain) @ G and its mean
sum of squares, in place after the gain.  The product stays (N, d1) @
(d1, d0), since BLAS rounds G^T @ (y * gain)^T differently on weighted
sheaves, so the loss is bit-equal to that plain form on every sheaf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import Trajectory
from .errors import ConfigurationError, ParameterError, UsageError
from .potentials import BoundedConfidence, EdgePotential, confidence_gain
from .sheaf import RANK_TOL, CoboundaryOperator

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GRID_POINTS = 64  # log-spaced threshold grid before golden section
_GOLDEN_TOL = 1e-10  # absolute width at which golden section stops


@dataclass(frozen=True)
class ResidualDataset:
    """Sampled states, residuals, and recomputed edge states.

    ``source`` records how derivatives were obtained ("exact" or
    "finite_difference").
    """

    states: np.ndarray  # (N, d0)
    residuals: np.ndarray  # (N, d0)
    edge_states: np.ndarray  # (N, d1)
    source: str

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


def residuals_exact(op: CoboundaryOperator, traj: Trajectory) -> ResidualDataset:
    """Residuals from recorded exact derivatives: r_k = -x'_k."""
    if traj.derivs is None:
        raise UsageError("trajectory has no recorded derivatives")
    return ResidualDataset(
        states=traj.states,
        residuals=-traj.derivs,
        edge_states=traj.states @ op.B.T,
        source="exact",
    )


def residuals_fd(op: CoboundaryOperator, traj: Trajectory) -> ResidualDataset:
    """Residuals with derivatives estimated by finite differences.

    Central differences on interior samples, one-sided second-order stencils
    at the ends; requires at least three uniformly spaced samples.
    """
    x = traj.states
    if x.shape[0] < 3:
        raise UsageError("finite differences need at least 3 samples")
    dt = np.diff(traj.times)
    if not np.allclose(dt, dt[0], rtol=1e-8, atol=1e-12):
        raise UsageError("finite differences require uniform sampling")
    h = dt[0]
    xdot = np.empty_like(x)
    xdot[1:-1] = (x[2:] - x[:-2]) / (2.0 * h)
    xdot[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * h)
    xdot[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * h)
    return ResidualDataset(
        states=x, residuals=-xdot, edge_states=x @ op.B.T, source="finite_difference"
    )


def residual_dataset(
    op: CoboundaryOperator, trajectories: Sequence[Trajectory], mode: str
) -> ResidualDataset:
    """Merged residuals of every trajectory, from recorded derivatives
    (mode "observed") or finite differences (mode "finite_difference")."""
    if mode == "observed":
        parts = [residuals_exact(op, t) for t in trajectories]
    elif mode == "finite_difference":
        parts = [residuals_fd(op, t) for t in trajectories]
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
    )


def _sensitivities(op: CoboundaryOperator, forces: np.ndarray) -> np.ndarray:
    """Edge forces or parameter-Jacobian columns (..., d1) sent through delta*
    and then L1^T, so their C0 inner products are plain dot products."""
    return forces @ op.delta_star_matrix.T @ op.L1


def _information(columns: np.ndarray) -> tuple[IdentifiabilityReport, np.ndarray, np.ndarray]:
    """Information matrix of whitened sensitivity columns, one per parameter.

    Returns the report, with the verdict lambda_min > RANK_TOL * lambda_max > 0,
    and the one eigendecomposition (ascending eigenvalues, eigenvectors)
    that the report, the estimator's solve and its diagnostics share.  One
    column is summed by numpy: BLAS threads split a dot product's sum.
    """
    gram = columns.T @ columns if columns.shape[1] > 1 else np.sum(columns**2, 0, keepdims=True)
    eigs, vecs = np.linalg.eigh(gram)
    lam_min = float(max(eigs[0], 0.0))
    lam_max = float(eigs[-1])
    identifiable = bool(lam_min > RANK_TOL * lam_max and lam_max > 0.0)
    return IdentifiabilityReport(gram, lam_min, lam_max, identifiable), eigs, vecs


def information_scalar(
    op: CoboundaryOperator, model: BoundedConfidence, data: ResidualDataset
) -> IdentifiabilityReport:
    """Information number of the threshold parameter: the 1 x 1 information
    matrix of its whitened sensitivity column.

    Sums |delta*(d Phi_eps / d eps)(y_i)|^2 in the M1 metric over all samples;
    it vanishes exactly when no sample excites the below-threshold branch.
    """
    jac = model.param_jacobian(data.edge_states)[..., 0]
    return _information(_sensitivities(op, jac).reshape(-1, 1))[0]


def fit_linear(
    op: CoboundaryOperator,
    basis: Sequence[EdgePotential],
    data: ResidualDataset,
) -> EstimationResult:
    """Minimum-norm least-squares fit of a linear-in-parameters force family.

    The Gram's eigenvalues at or below RANK_TOL * lambda_max are dropped, as
    the report's verdict drops them: a singular Gram lowers the identifiable
    flag and the returned theta is the minimum-norm minimizer.  The
    diagnostics give the rank, the dropped count and the Gram eigenvalues.
    """
    if data.n_samples == 0:
        raise UsageError("empty dataset")
    if not basis:
        raise UsageError("empty basis")
    cols = [_sensitivities(op, bf.force(data.edge_states)) for bf in basis]
    columns = np.stack(cols, axis=-1).reshape(-1, len(basis))
    target = (data.residuals @ op.L1).ravel()
    report, eigs, vecs = _information(columns)

    keep = eigs > RANK_TOL * max(eigs[-1], 0.0)
    rank = int(np.count_nonzero(keep))
    coeff = (vecs[:, keep].T @ (columns.T @ target)) / eigs[keep]
    theta = vecs[:, keep] @ coeff

    misfit = target - columns @ theta
    value = float(misfit @ misfit) / data.n_samples
    diagnostics = {
        "rank": rank,
        "dropped": len(basis) - rank,
        "gram_eigenvalues": eigs.tolist(),
    }
    return EstimationResult(theta, value, report, diagnostics)


class ThresholdTerms(NamedTuple):
    """The epsilon-free parts of the threshold loss, computed once per fit."""

    edge_states: np.ndarray  # y (N, d1)
    sq_norms: np.ndarray  # per-edge squared norms u of y over each stalk (N, d1)
    residuals: np.ndarray  # whitened residuals r @ L1 (N, d0)
    sensitivity: np.ndarray  # whitened sensitivity map G = delta*^T L1 (d1, d0)


def threshold_terms(op: CoboundaryOperator, data: ResidualDataset) -> ThresholdTerms:
    """Edge states, their per-edge squared norms spread over each stalk, the
    whitened residuals and the whitened map from edge forces to 0-cochains."""
    y = data.edge_states
    return ThresholdTerms(
        y,
        op.sheaf.spread(op.sheaf.edge_sq_norms(y)),
        data.residuals @ op.L1,
        op.delta_star_matrix.T @ op.L1,
    )


def _row_sums(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-1) of an (N, d) array, bit for bit: numpy adds fewer
    than 8 terms in order from 0.0, so those are summed column by column, over
    long strided rows instead of N short ones; 8 or more it sums pairwise."""
    if a.shape[1] >= 8:
        return a.sum(axis=-1)
    sums = np.zeros(a.shape[0])
    for column in a.T:
        sums += column
    return sums


def threshold_objective(terms: ThresholdTerms, epsilon: float) -> float:
    """Mean squared residual misfit of the bounded-confidence law at epsilon:
    the law's gain on the precomputed norms, one product and a sum of squares.
    The gain is the law's own (``confidence_gain`` at the Python float
    epsilon**2), with no model built per evaluation."""
    if not epsilon > 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    forces = confidence_gain(terms.sq_norms, float(epsilon) ** 2)
    forces *= terms.edge_states
    misfit = forces @ terms.sensitivity
    np.subtract(terms.residuals, misfit, out=misfit)
    misfit *= misfit
    return float(np.mean(_row_sums(misfit)))


def fit_threshold(
    op: CoboundaryOperator, data: ResidualDataset, bracket: tuple[float, float]
) -> EstimationResult:
    """Recover the bounded-confidence threshold from residual data.

    A 64-point log-spaced grid localizes the minimum (the loss has a seam
    wherever a sample crosses the cutoff, so no derivatives are used); golden
    section then refines to absolute tolerance, or until the points stop
    parting (an interval a few ulps wide above 1e6).  Deterministic throughout.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi <= BoundedConfidence.MAX_EPSILON):
        raise ParameterError(f"invalid bracket {bracket}: need 0 < lo < hi <= 1e100")
    if data.n_samples == 0:
        raise UsageError("empty dataset")

    terms = threshold_terms(op, data)
    grid = np.geomspace(lo, hi, _GRID_POINTS)
    losses = np.array([threshold_objective(terms, e) for e in grid])
    best = int(np.argmin(losses))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, _GRID_POINTS - 1)]

    # Golden-section refinement on [a, b].
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = threshold_objective(terms, c)
    fd = threshold_objective(terms, d)
    while (b - a) > _GOLDEN_TOL and a < c < d < b:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = threshold_objective(terms, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = threshold_objective(terms, d)
    eps_hat = 0.5 * (a + b)
    value = threshold_objective(terms, eps_hat)
    report = information_scalar(op, BoundedConfidence(op.sheaf, eps_hat), data)
    diagnostics = {
        "grid": grid.tolist(),
        "grid_losses": losses.tolist(),
        "refined_bracket": (float(a), float(b)),
    }
    return EstimationResult(np.array([eps_hat]), value, report, diagnostics)
