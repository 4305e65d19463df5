"""Residual extraction, identifiability matrices, and the two estimators."""

import numpy as np
import pytest
from conftest import random_sheaf

from sheaf_sysid import (
    BoundedConfidence,
    ConfigurationError,
    ConstantEdgeForce,
    LinearBasisPotential,
    Quadratic,
    ResidualDataset,
    ShiftedQuadratic,
    SimConfig,
    UsageError,
    ZeroField,
    build_coboundary,
    design_matrix,
    equilibrium_projection,
    fit_linear,
    fit_threshold,
    information_scalar,
    integrate,
    integrated_residual_objective,
    make_cycle_sheaf,
    merge_datasets,
    monomial_basis,
    monomial_potential,
    residual_dataset,
    residuals_exact,
    residuals_fd,
)
from sheaf_sysid.dynamics import Trajectory

ZERO = ZeroField()


def forward_dataset(op, model, states):
    """Noiseless dataset generated directly from the forward model."""
    states = np.atleast_2d(states)
    edge = states @ op.B.T
    residuals = model.force(edge) @ op.delta_star_matrix.T
    return ResidualDataset(
        states=states, residuals=residuals, edge_states=edge, source="exact"
    )


# --- residual extraction -----------------------------------------------------


def test_exact_residuals_negate_derivatives(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(0)
    traj = integrate(
        op, Quadratic(sheaf), ZERO, rng.standard_normal(op.d0), SimConfig(horizon=0.5)
    )
    data = residuals_exact(op, traj, ZERO)
    assert np.array_equal(data.residuals, -traj.derivs)
    assert data.source == "exact"


def test_exact_residuals_match_linear_laplacian(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(1)
    traj = integrate(
        op, Quadratic(sheaf), ZERO, rng.standard_normal(op.d0), SimConfig(horizon=0.5)
    )
    data = residuals_exact(op, traj, ZERO)
    L = op.delta_star_matrix @ op.B
    assert np.abs(data.residuals - traj.states @ L.T).max() <= 1e-12


def test_residuals_vanish_at_equilibrium(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(2)
    b = rng.standard_normal(op.d1)
    x_eq = equilibrium_projection(op, b, rng.standard_normal(op.d0))
    traj = integrate(op, ShiftedQuadratic(sheaf, b), ZERO, x_eq, SimConfig(horizon=0.2))
    data = residuals_exact(op, traj, ZERO)
    assert np.abs(data.residuals).max() <= 1e-9


def test_exact_residuals_require_derivatives(identity_cycle):
    _, op = identity_cycle
    traj = Trajectory(times=np.array([0.0, 0.1]), states=np.zeros((2, op.d0)))
    with pytest.raises(UsageError):
        residuals_exact(op, traj, ZERO)


def test_fd_residuals_exact_on_affine_trajectories(identity_cycle):
    _, op = identity_cycle
    times = 0.01 * np.arange(20)
    rng = np.random.default_rng(3)
    a, v = rng.standard_normal(op.d0), rng.standard_normal(op.d0)
    states = a[None, :] + times[:, None] * v[None, :]
    traj = Trajectory(times=times, states=states)
    data = residuals_fd(op, traj, ZERO)
    assert np.abs(data.residuals + v).max() <= 1e-12


def test_fd_derivative_error_is_second_order(rotated_cycle):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(4)
    x0 = 0.8 * rng.standard_normal(op.d0)
    traj = integrate(op, BoundedConfidence(sheaf, 1.0), ZERO, x0, SimConfig(horizon=2.0))
    data = residuals_fd(op, traj, ZERO)
    err = np.abs(data.residuals[1:-1] + traj.derivs[1:-1]).max()
    assert 1e-8 <= err <= 1e-3  # h^2-scale truncation for h = 0.01


def test_fd_noise_propagation_scale(rotated_cycle):
    # central differences turn state noise sigma into sigma/(sqrt(2) h) slope noise
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(5)
    x0 = 0.8 * rng.standard_normal(op.d0)
    sigma, h = 5e-3, 0.01
    clean = integrate(op, BoundedConfidence(sheaf, 1.0), ZERO, x0, SimConfig(horizon=5.0))
    noisy = Trajectory(
        times=clean.times,
        states=clean.states + rng.normal(0.0, sigma, clean.states.shape),
    )
    data = residuals_fd(op, noisy, ZERO, noise_std=sigma)
    err = data.residuals[1:-1] + clean.derivs[1:-1]
    expected = sigma / (np.sqrt(2.0) * h)
    assert 0.5 * expected <= np.std(err) <= 1.5 * expected


def test_fd_requires_uniform_times(identity_cycle):
    _, op = identity_cycle
    traj = Trajectory(
        times=np.array([0.0, 0.01, 0.05]), states=np.zeros((3, op.d0))
    )
    with pytest.raises(UsageError):
        residuals_fd(op, traj, ZERO)
    with pytest.raises(UsageError):
        residuals_fd(
            op, Trajectory(times=np.array([0.0, 0.01]), states=np.zeros((2, op.d0))), ZERO
        )


# --- design and identifiability matrices --------------------------------------


def test_design_matrix_zero_at_origin(identity_cycle):
    sheaf, op = identity_cycle
    data = forward_dataset(op, Quadratic(sheaf), np.zeros((1, op.d0)))
    A = design_matrix(op, monomial_basis(sheaf), data)
    assert A.shape == (op.d0, 3)
    assert np.array_equal(A, np.zeros_like(A))


def test_harmonic_design_column_is_identically_zero(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(6)
    data = forward_dataset(
        op, monomial_potential(sheaf, [1.0, 0.25, 0.03]), rng.standard_normal((9, op.d0))
    )
    c = np.tile([1.0, 0.0], 3)
    basis = monomial_basis(sheaf) + (ConstantEdgeForce(sheaf, c),)
    A = design_matrix(op, basis, data)
    assert np.array_equal(A[:, 3], np.zeros(A.shape[0]))


def test_design_matrix_forward_consistency(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(7)
    theta = np.array([1.0, 0.25, 0.03])
    data = forward_dataset(op, monomial_potential(sheaf, theta), rng.standard_normal((11, op.d0)))
    A = design_matrix(op, monomial_basis(sheaf), data)
    assert np.abs(A @ theta - data.residuals.ravel()).max() <= 1e-10


def test_gram_is_symmetric_psd(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(8)
    data = forward_dataset(op, Quadratic(sheaf), rng.standard_normal((6, op.d0)))
    report = fit_linear(op, monomial_basis(sheaf), data).report
    assert report.gram.shape == (3, 3)
    assert np.allclose(report.gram, report.gram.T, atol=1e-10)
    assert report.lambda_min >= 0.0
    assert report.lambda_max >= report.lambda_min
    assert report.identifiable


def test_information_zero_without_excitation(rotated_cycle):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(9)
    states = 5.0 * rng.standard_normal((8, op.d0))
    y = states @ op.B.T
    radii = np.sqrt((y.reshape(8, 3, 2) ** 2).sum(-1))
    assert radii.min() > 1.0  # every sample above the unit threshold
    data = forward_dataset(op, BoundedConfidence(sheaf, 1.0), states)
    report = information_scalar(op, BoundedConfidence(sheaf, 1.0), data)
    assert report.lambda_min == 0.0
    assert not report.identifiable


# --- estimators ----------------------------------------------------------------


def test_fit_linear_round_trips_exact_data(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(10)
    theta = np.array([0.7, -0.2, 0.05])
    data = forward_dataset(op, monomial_potential(sheaf, theta), rng.standard_normal((12, op.d0)))
    result = fit_linear(op, monomial_basis(sheaf), data)
    assert np.linalg.norm(result.theta_hat - theta) <= 1e-10 * np.linalg.norm(theta)
    assert result.report.identifiable
    assert result.objective_value <= 1e-20


def test_fit_linear_minimum_norm_on_singular_gram(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(11)
    c = np.tile([1.0, 0.0], 3)
    basis = monomial_basis(sheaf) + (ConstantEdgeForce(sheaf, c),)
    theta_aug = np.array([1.0, 0.25, 0.03, 0.5])
    truth = LinearBasisPotential(sheaf, basis, theta_aug)
    data = forward_dataset(op, truth, rng.standard_normal((10, op.d0)))
    result = fit_linear(op, basis, data)
    assert not result.report.identifiable
    assert result.theta_hat[3] == 0.0  # harmonic coefficient dropped
    assert np.abs(result.theta_hat[:3] - theta_aug[:3]).max() <= 1e-9
    assert result.diagnostics["dropped"] == 1


def test_fit_linear_ridge_shrinks(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(12)
    theta = np.array([1.0, 0.25, 0.03])
    data = forward_dataset(op, monomial_potential(sheaf, theta), rng.standard_normal((12, op.d0)))
    plain = fit_linear(op, monomial_basis(sheaf), data)
    ridged = fit_linear(op, monomial_basis(sheaf), data, ridge=10.0)
    assert np.linalg.norm(ridged.theta_hat) < np.linalg.norm(plain.theta_hat)


def test_fit_linear_rejects_empty_dataset(identity_cycle):
    sheaf, op = identity_cycle
    empty = ResidualDataset(
        states=np.zeros((0, op.d0)),
        residuals=np.zeros((0, op.d0)),
        edge_states=np.zeros((0, op.d1)),
        source="exact",
    )
    with pytest.raises(UsageError):
        fit_linear(op, monomial_basis(sheaf), empty)


@pytest.mark.parametrize("eps_true", [0.7, 1.6])
def test_fit_threshold_round_trips(eps_true, rotated_cycle):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(13)
    truth = BoundedConfidence(sheaf, eps_true)
    trajs = [
        integrate(
            op,
            truth,
            ZERO,
            scale * rng.standard_normal(op.d0) / np.sqrt(2.0),
            SimConfig(horizon=4.0),
        )
        for scale in (0.4 * eps_true, 0.8 * eps_true, 1.2 * eps_true)
    ]
    data = merge_datasets([residuals_exact(op, t, ZERO) for t in trajs])
    result = fit_threshold(op, data, (0.25, 4.0))
    assert abs(result.theta_hat[0] - eps_true) <= 1e-6
    assert result.report.identifiable


def test_fit_threshold_flags_missing_excitation(rotated_cycle):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(14)
    states = 20.0 * rng.standard_normal((10, op.d0))
    data = forward_dataset(op, BoundedConfidence(sheaf, 1.0), states)
    result = fit_threshold(op, data, (0.25, 2.0))  # radii all far above 2
    assert not result.report.identifiable


def test_fit_threshold_validates_bracket(rotated_cycle):
    sheaf, op = rotated_cycle
    data = forward_dataset(op, BoundedConfidence(sheaf, 1.0), np.zeros((1, op.d0)))
    from sheaf_sysid import ParameterError

    with pytest.raises(ParameterError):
        fit_threshold(op, data, (1.0, 0.5))


# --- integrated-residual objective ----------------------------------------------


def test_integrated_objective_small_at_truth(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(15)
    theta = np.array([1.0, 0.25, 0.03])
    truth = monomial_potential(sheaf, theta)
    traj = integrate(op, truth, ZERO, rng.standard_normal(op.d0), SimConfig(horizon=2.0))
    value = integrated_residual_objective(op, truth, ZERO, traj)
    assert value / (traj.n_samples - 1) <= 1e-6


def test_integrated_objective_larger_off_truth(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(16)
    truth = monomial_potential(sheaf, [1.0, 0.25, 0.03])
    traj = integrate(op, truth, ZERO, rng.standard_normal(op.d0), SimConfig(horizon=2.0))
    at_truth = integrated_residual_objective(op, truth, ZERO, traj)
    off = integrated_residual_objective(
        op, monomial_potential(sheaf, [2.0, 0.0, 0.0]), ZERO, traj
    )
    assert off > 100.0 * at_truth


def test_integrated_objective_zero_on_constant_trajectory(identity_cycle):
    sheaf, op = identity_cycle
    x0 = np.tile([0.4, -0.1], 3)  # global section, so the state never moves
    traj = integrate(op, Quadratic(sheaf), ZERO, x0, SimConfig(horizon=0.01))
    assert integrated_residual_objective(op, Quadratic(sheaf), ZERO, traj) <= 1e-28


def test_integrated_objective_needs_two_samples(identity_cycle):
    sheaf, op = identity_cycle
    traj = Trajectory(times=np.array([0.0]), states=np.zeros((1, op.d0)))
    with pytest.raises(UsageError):
        integrated_residual_objective(op, Quadratic(sheaf), ZERO, traj)


# --- structural invariants -------------------------------------------------------


def test_harmonic_augmentation_never_changes_predictions():
    rng = np.random.default_rng(17)
    sheaf = make_cycle_sheaf(3, "identity")
    op = build_coboundary(sheaf)
    theta = np.array([1.0, 0.25, 0.03])
    data = forward_dataset(op, monomial_potential(sheaf, theta), rng.standard_normal((10, op.d0)))
    base = fit_linear(op, monomial_basis(sheaf), data)
    c = np.tile([0.3, -0.8], 3)
    augmented_basis = monomial_basis(sheaf) + (ConstantEdgeForce(sheaf, c),)
    augmented = fit_linear(op, augmented_basis, data)
    A_base = design_matrix(op, monomial_basis(sheaf), data)
    A_aug = design_matrix(op, augmented_basis, data)
    pred_base = A_base @ base.theta_hat
    pred_aug = A_aug @ augmented.theta_hat
    assert np.abs(pred_base - pred_aug).max() <= 1e-10
    assert augmented.report.lambda_min <= 1e-10 * augmented.report.lambda_max
    assert base.report.identifiable and not augmented.report.identifiable


def test_identifiability_flag_matches_round_trip_behaviour():
    # the flag is true exactly when a random coefficient vector round-trips;
    # starved instances shrink all radii (the higher monomials lose excitation),
    # healthy ones spread sample radii so the Gram is well conditioned
    rng = np.random.default_rng(18)
    agreements = 0
    for trial in range(20):
        sheaf = random_sheaf(
            rng,
            n_vertices=int(rng.integers(2, 5)),
            n_edges=int(rng.integers(2, 6)),
            weighted=trial % 2 == 0,
        )
        op = build_coboundary(sheaf)
        starved = trial % 3 == 0
        if starved:
            n_samples = int(rng.integers(1, 7))
            states = 1e-3 * rng.standard_normal((n_samples, op.d0))
        else:
            n_samples = int(rng.integers(4, 8))
            rows = rng.standard_normal((n_samples, op.d0))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            states = np.linspace(0.6, 1.8, n_samples)[:, None] * rows
        theta = rng.uniform(0.5, 1.5, 3)
        model = LinearBasisPotential(sheaf, monomial_basis(sheaf), theta)
        data = forward_dataset(op, model, states)
        result = fit_linear(op, monomial_basis(sheaf), data)
        round_trip = np.linalg.norm(result.theta_hat - theta) <= 1e-8 * np.linalg.norm(theta)
        assert round_trip == result.report.identifiable, (trial, result.report)
        agreements += 1
    assert agreements == 20


def test_fd_fits_converge_to_exact_fits_as_step_shrinks(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(19)
    theta = np.array([1.0, 0.25, 0.03])
    truth = monomial_potential(sheaf, theta)
    x0 = rng.standard_normal(op.d0)
    errors = []
    for h in (0.01, 0.005, 0.0025):
        traj = integrate(op, truth, ZERO, x0, SimConfig(horizon=2.0, step=h))
        data = merge_datasets([residuals_fd(op, traj, ZERO)])
        fd_fit = fit_linear(op, monomial_basis(sheaf), data)
        errors.append(np.linalg.norm(fd_fit.theta_hat - theta))
    assert errors[0] > errors[1] > errors[2]


def test_merge_datasets_rejects_mixed_sources(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(20)
    traj = integrate(op, Quadratic(sheaf), ZERO, rng.standard_normal(op.d0), SimConfig(horizon=0.1))
    with pytest.raises(UsageError):
        merge_datasets([residuals_exact(op, traj, ZERO), residuals_fd(op, traj, ZERO)])


def test_residual_dataset_merges_per_trajectory_residuals(identity_cycle):
    sheaf, op = identity_cycle
    starts = np.random.default_rng(21).standard_normal((3, op.d0))
    trajs = integrate(op, Quadratic(sheaf), ZERO, starts, SimConfig(horizon=0.1))
    for mode, one in (("observed", residuals_exact), ("finite_difference", residuals_fd)):
        data = residual_dataset(op, trajs, ZERO, mode, 0.0)
        parts = [one(op, t, ZERO) for t in trajs]
        assert data.source == parts[0].source
        assert np.array_equal(data.residuals, np.concatenate([d.residuals for d in parts]))
    with pytest.raises(ConfigurationError, match="residual mode"):
        residual_dataset(op, trajs, ZERO, "smoothed")
