"""Residual extraction, identifiability matrices, and the two estimators."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import random_sheaf
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sheaf_sysid import sysid
from sheaf_sysid.dynamics import (
    SimConfig,
    Trajectory,
    _laplacian,
    equilibrium_projection,
    integrate,
)
from sheaf_sysid.errors import ConfigurationError, ParameterError, UsageError
from sheaf_sysid.experiments import make_cycle_sheaf
from sheaf_sysid.potentials import (
    BoundedConfidence,
    ConstantEdgeForce,
    LinearBasisPotential,
    Quadratic,
    ShiftedQuadratic,
    monomial_basis,
    monomial_potential,
)
from sheaf_sysid.sheaf import CoboundaryOperator, Sheaf, build_coboundary
from sheaf_sysid.sysid import (
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
        op, Quadratic(sheaf), rng.standard_normal(op.d0), SimConfig(horizon=0.5)
    )
    data = residuals_exact(op, traj)
    assert np.array_equal(data.residuals, -traj.derivs)
    assert data.source == "exact"


def test_exact_residuals_match_linear_laplacian(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(1)
    traj = integrate(
        op, Quadratic(sheaf), rng.standard_normal(op.d0), SimConfig(horizon=0.5)
    )
    data = residuals_exact(op, traj)
    L = op.delta_star_matrix @ op.B
    assert np.abs(data.residuals - traj.states @ L.T).max() <= 1e-12


def test_residuals_vanish_at_equilibrium(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(2)
    b = rng.standard_normal(op.d1)
    x_eq = equilibrium_projection(op, b, rng.standard_normal(op.d0))
    traj = integrate(op, ShiftedQuadratic(sheaf, b), x_eq, SimConfig(horizon=0.2))
    data = residuals_exact(op, traj)
    assert np.abs(data.residuals).max() <= 1e-9


def test_exact_residuals_require_derivatives(identity_cycle):
    _, op = identity_cycle
    traj = Trajectory(times=np.array([0.0, 0.1]), states=np.zeros((2, op.d0)))
    with pytest.raises(UsageError):
        residuals_exact(op, traj)


def test_fd_residuals_exact_on_affine_trajectories(identity_cycle):
    _, op = identity_cycle
    times = 0.01 * np.arange(20)
    rng = np.random.default_rng(3)
    a, v = rng.standard_normal(op.d0), rng.standard_normal(op.d0)
    states = a[None, :] + times[:, None] * v[None, :]
    traj = Trajectory(times=times, states=states)
    data = residuals_fd(op, traj)
    assert np.abs(data.residuals + v).max() <= 1e-12


def test_fd_derivative_error_is_second_order(rotated_cycle):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(4)
    x0 = 0.8 * rng.standard_normal(op.d0)
    traj = integrate(op, BoundedConfidence(sheaf, 1.0), x0, SimConfig(horizon=2.0))
    data = residuals_fd(op, traj)
    err = np.abs(data.residuals[1:-1] + traj.derivs[1:-1]).max()
    assert 1e-8 <= err <= 1e-3  # h^2-scale truncation for h = 0.01


def test_fd_noise_propagation_scale(rotated_cycle):
    # central differences turn state noise sigma into sigma/(sqrt(2) h) slope noise
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(5)
    x0 = 0.8 * rng.standard_normal(op.d0)
    sigma, h = 5e-3, 0.01
    clean = integrate(op, BoundedConfidence(sheaf, 1.0), x0, SimConfig(horizon=5.0))
    noisy = Trajectory(
        times=clean.times,
        states=clean.states + rng.normal(0.0, sigma, clean.states.shape),
    )
    data = residuals_fd(op, noisy)
    err = data.residuals[1:-1] + clean.derivs[1:-1]
    expected = sigma / (np.sqrt(2.0) * h)
    assert 0.5 * expected <= np.std(err) <= 1.5 * expected


def test_fd_requires_uniform_times(identity_cycle):
    _, op = identity_cycle
    traj = Trajectory(
        times=np.array([0.0, 0.01, 0.05]), states=np.zeros((3, op.d0))
    )
    with pytest.raises(UsageError):
        residuals_fd(op, traj)
    with pytest.raises(UsageError):
        residuals_fd(
            op, Trajectory(times=np.array([0.0, 0.01]), states=np.zeros((2, op.d0)))
        )


# --- design and identifiability matrices --------------------------------------


def design_columns(op, basis, data):
    """Stacked design matrix, N*d0 rows: column m holds the predicted residuals
    delta*(f_m(delta x)) of basis force m alone, from the integrator's vector field."""
    columns = [
        _laplacian(op, LinearBasisPotential(op.sheaf, basis, unit), data.states).ravel()
        for unit in np.eye(len(basis))
    ]
    return np.stack(columns, axis=-1)


def test_design_matrix_zero_at_origin(identity_cycle):
    sheaf, op = identity_cycle
    data = forward_dataset(op, Quadratic(sheaf), np.zeros((1, op.d0)))
    A = design_columns(op, monomial_basis(sheaf), data)
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
    A = design_columns(op, basis, data)
    assert np.array_equal(A[:, 3], np.zeros(A.shape[0]))


def test_design_matrix_forward_consistency(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(7)
    theta = np.array([1.0, 0.25, 0.03])
    data = forward_dataset(op, monomial_potential(sheaf, theta), rng.standard_normal((11, op.d0)))
    A = design_columns(op, monomial_basis(sheaf), data)
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


_INFORMATION_BITS = """
import numpy as np
from sheaf_sysid.experiments import make_cycle_sheaf
from sheaf_sysid.potentials import BoundedConfidence
from sheaf_sysid.sheaf import build_coboundary
from sheaf_sysid.sysid import ResidualDataset, information_scalar
sheaf = make_cycle_sheaf(3, "rotated")
op = build_coboundary(sheaf)
states = 0.8 * np.random.default_rng(0).standard_normal((20_000, op.d0))
data = ResidualDataset(states, np.zeros_like(states), states @ op.B.T, "exact")
print(information_scalar(op, BoundedConfidence(sheaf, 1.0), data).lambda_min.hex())
"""


def test_information_number_does_not_depend_on_the_blas_thread_count():
    # a BLAS dot product of the 120,000-entry sensitivity column is split
    # across threads, so its last bits would follow OPENBLAS_NUM_THREADS
    src = str(Path(sysid.__file__).resolve().parents[1])
    bits = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _INFORMATION_BITS], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        bits.append(run.stdout)
    assert bits[0] == bits[1]


_LINEAR_FIT_BITS = """
import numpy as np
from sheaf_sysid.dynamics import _laplacian
from sheaf_sysid.experiments import make_cycle_sheaf
from sheaf_sysid.potentials import monomial_basis, monomial_potential
from sheaf_sysid.sheaf import build_coboundary
from sheaf_sysid.sysid import ResidualDataset, fit_linear
sheaf = make_cycle_sheaf(3, "rotated")
op = build_coboundary(sheaf)
states = 0.8 * np.random.default_rng(0).standard_normal((100_000, op.d0))
residuals = _laplacian(op, monomial_potential(sheaf, [1.0, 0.25, 0.03]), states)
data = ResidualDataset(states, residuals, states @ op.B.T, "exact")
fit = fit_linear(op, monomial_basis(sheaf), data)
print(*[t.hex() for t in fit.theta_hat], fit.objective_value.hex())
print(fit.report.lambda_min.hex(), fit.report.lambda_max.hex())
"""


@pytest.mark.parametrize("case", ["fit_linear", "finite_basis"])
def test_linear_fits_do_not_depend_on_the_blas_thread_count(tmp_path, case):
    # BLAS products would split the fit's sums over 600,000 sensitivity
    # entries (or a study's pooled samples) across threads, so their last
    # bits would follow OPENBLAS_NUM_THREADS
    src = str(Path(sysid.__file__).resolve().parents[1])
    config = tmp_path / "experiment.json"
    config.write_text(
        '{"command": "experiment", "experiment": "finite_basis", "seeds": [0], "n_training": 64}'
    )
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        out = tmp_path / threads
        if case == "fit_linear":
            args = ["-c", _LINEAR_FIT_BITS]
        else:
            args = ["-m", "sheaf_sysid.cli", "experiment", "--config", str(config)]
            args += ["--out", str(out), "--quiet"]
        run = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        files = {path.name: path.read_bytes() for path in sorted(out.glob("*"))}
        outputs.append((run.stdout, files))
    assert outputs[0][0] or outputs[0][1]
    assert outputs[0] == outputs[1]


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
            scale * rng.standard_normal(op.d0) / np.sqrt(2.0),
            SimConfig(horizon=4.0),
        )
        for scale in (0.4 * eps_true, 0.8 * eps_true, 1.2 * eps_true)
    ]
    data = merge_datasets([residuals_exact(op, t) for t in trajs])
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
    with pytest.raises(ParameterError):
        fit_threshold(op, data, (1.0, 0.5))
    with pytest.raises(ParameterError, match="hi <= 1e100"):
        fit_threshold(op, data, (0.25, 1e200))  # its square overflows a float


def test_fit_threshold_takes_brackets_from_1e_minus_100(rotated_cycle):
    # below 1e-100 the square of a grid point may underflow to 0
    sheaf, op = rotated_cycle
    states = 0.8 * np.random.default_rng(0).standard_normal((20, op.d0))
    data = forward_dataset(op, BoundedConfidence(sheaf, 1.0), states)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bracket in ((1e-200, 1e-150), (1e-101, 1.0)):
            with pytest.raises(ParameterError, match="1e-100 <= lo"):
                fit_threshold(op, data, bracket)
        result = fit_threshold(op, data, (BoundedConfidence.MIN_EPSILON, 4.0))
    assert np.isfinite(result.theta_hat[0]) and np.isfinite(result.objective_value)


def test_golden_section_stops_when_its_points_stop_parting(rotated_cycle, monkeypatch):
    # above 1e6 the spacing of doubles exceeds the absolute tolerance 1e-10,
    # so the interval can stop shrinking while it is still wider than that
    sheaf, op = rotated_cycle
    states = 0.8 * np.random.default_rng(0).standard_normal((50, op.d0))
    data = forward_dataset(op, BoundedConfidence(sheaf, 1.0), states)
    calls = []
    objective = sysid.threshold_objective

    def counted(terms, epsilon):
        calls.append(epsilon)
        assert len(calls) < 10_000, "golden section does not stop"
        return objective(terms, epsilon)

    monkeypatch.setattr(sysid, "threshold_objective", counted)
    a, b = fit_threshold(op, data, (1e6, 1e7)).diagnostics["refined_bracket"]
    assert 1e6 <= a <= b <= 1e7 and b - a <= 4 * np.spacing(b)


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
    A_base = design_columns(op, monomial_basis(sheaf), data)
    A_aug = design_columns(op, augmented_basis, data)
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
        traj = integrate(op, truth, x0, SimConfig(horizon=2.0, step=h))
        data = merge_datasets([residuals_fd(op, traj)])
        fd_fit = fit_linear(op, monomial_basis(sheaf), data)
        errors.append(np.linalg.norm(fd_fit.theta_hat - theta))
    assert errors[0] > errors[1] > errors[2]


def test_merge_datasets_rejects_mixed_sources(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(20)
    traj = integrate(op, Quadratic(sheaf), rng.standard_normal(op.d0), SimConfig(horizon=0.1))
    with pytest.raises(UsageError):
        merge_datasets([residuals_exact(op, traj), residuals_fd(op, traj)])


def test_residual_dataset_merges_per_trajectory_residuals(identity_cycle):
    sheaf, op = identity_cycle
    starts = np.random.default_rng(21).standard_normal((3, op.d0))
    trajs = integrate(op, Quadratic(sheaf), starts, SimConfig(horizon=0.1))
    for mode, one in (("observed", residuals_exact), ("finite_difference", residuals_fd)):
        data = residual_dataset(op, trajs, mode)
        parts = [one(op, t) for t in trajs]
        assert data.source == parts[0].source
        assert np.array_equal(data.residuals, np.concatenate([d.residuals for d in parts]))
    with pytest.raises(ConfigurationError, match="residual mode"):
        residual_dataset(op, trajs, "smoothed")


# --- whitened C0 products on a weighted metric -------------------------------------


def c0(op, u, v):
    """Reference C0 inner products of 0-cochain rows, straight from M1."""
    return np.einsum("...i,ij,...j", u, op.M1, v)


def weighted_dataset(op, n=9, seed=22):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, op.d0))
    residuals = rng.standard_normal((n, op.d0))
    return ResidualDataset(states, residuals, states @ op.B.T, "exact")


def test_whitened_products_match_the_m1_formulas(mixed_sheaf):
    op = build_coboundary(mixed_sheaf)
    assert not np.allclose(op.L1, np.eye(op.d0))  # a weighted metric, L1 != I
    data = weighted_dataset(op)
    ds_t = op.delta_star_matrix.T

    model = BoundedConfidence(mixed_sheaf, 2.0)
    sens = model.param_jacobian(data.edge_states)[..., 0] @ ds_t
    info = c0(op, sens, sens).sum()
    assert info > 0.0
    assert information_scalar(op, model, data).lambda_min == pytest.approx(info, rel=1e-10)

    pred = model.force(data.edge_states) @ ds_t
    misfit = data.residuals - pred
    assert threshold_objective(threshold_terms(op, data), 2.0) == pytest.approx(
        c0(op, misfit, misfit).mean(), rel=1e-10
    )

    basis = monomial_basis(mixed_sheaf)
    cols = [bf.force(data.edge_states) @ ds_t for bf in basis]
    gram = np.array([[c0(op, a, b).sum() for b in cols] for a in cols])
    rhs = np.array([c0(op, a, data.residuals).sum() for a in cols])
    result = fit_linear(op, basis, data)
    assert np.allclose(result.report.gram, gram, rtol=1e-10, atol=0.0)
    theta = result.theta_hat
    assert np.allclose(gram @ theta, rhs, rtol=1e-10, atol=0.0)
    misfit = data.residuals - sum(t * col for t, col in zip(theta, cols))
    expected = c0(op, misfit, misfit).mean()
    assert result.objective_value == pytest.approx(expected, rel=1e-10)
    # equal up to the eigensolvers' backward error, eps * lambda_max
    eigs = np.linalg.eigvalsh(result.report.gram)
    spectrum = result.diagnostics["gram_eigenvalues"]
    assert np.allclose(spectrum, eigs, rtol=0.0, atol=1e-12 * eigs[-1])


def test_every_whitened_sensitivity_reads_the_operators_one_map(mixed_sheaf):
    op = build_coboundary(mixed_sheaf)
    data = weighted_dataset(op)
    white = op.whitened_adjoint
    assert threshold_terms(op, data).sensitivity is white
    model = BoundedConfidence(mixed_sheaf, 2.0)
    row = (model.param_jacobian(data.edge_states)[..., 0] @ white).reshape(-1)
    assert information_scalar(op, model, data).lambda_min == (row * row).sum()
    basis = monomial_basis(mixed_sheaf)
    rows = np.stack([bf.force(data.edge_states) @ white for bf in basis])
    rows = rows.reshape(len(basis), -1)
    gram = np.array([(r * rows).sum(-1) for r in rows])
    assert fit_linear(op, basis, data).report.gram.tobytes() == gram.tobytes()


def test_any_factor_of_m1_gives_the_same_fits(mixed_sheaf):
    # the eigenfactorization fallback of the SPD factor is as valid as Cholesky
    op = build_coboundary(mixed_sheaf)
    eigs, vecs = np.linalg.eigh(op.M1)
    alt = CoboundaryOperator(mixed_sheaf)
    alt.L1 = vecs * np.sqrt(eigs)
    assert np.allclose(alt.L1 @ alt.L1.T, op.M1)
    data = weighted_dataset(op)
    basis = monomial_basis(mixed_sheaf)
    a, b = fit_linear(op, basis, data), fit_linear(alt, basis, data)
    assert np.allclose(a.report.gram, b.report.gram, rtol=1e-10, atol=0.0)
    assert np.allclose(a.theta_hat, b.theta_hat, rtol=1e-10, atol=0.0)
    assert a.objective_value == pytest.approx(b.objective_value, rel=1e-10)
    model = BoundedConfidence(mixed_sheaf, 2.0)
    assert information_scalar(alt, model, data).lambda_min == pytest.approx(
        information_scalar(op, model, data).lambda_min, rel=1e-10
    )
    assert threshold_objective(threshold_terms(alt, data), 2.0) == pytest.approx(
        threshold_objective(threshold_terms(op, data), 2.0), rel=1e-10
    )


def test_each_fit_decomposes_its_information_matrix_once(mixed_sheaf, monkeypatch):
    op = build_coboundary(mixed_sheaf)
    data = weighted_dataset(op)
    # delta* and L1 are assembled (with per-block solves) on first read, and
    # that is not a decomposition of the Gram
    assert op.delta_star_matrix.shape == (op.d0, op.d1) and op.L1.shape == (op.d0, op.d0)
    calls = []
    eigh = np.linalg.eigh

    def counted(mat):
        calls.append(mat.shape)
        return eigh(mat)

    def forbidden(*args, **kwargs):
        raise AssertionError("a second decomposition or solve of the Gram")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    fit_linear(op, monomial_basis(mixed_sheaf), data)
    information_scalar(op, BoundedConfidence(mixed_sheaf, 2.0), data)
    assert calls == [(3, 3), (1, 1)]


# --- the threshold loss from terms precomputed once per fit ------------------------


def direct_threshold_loss(op, data, epsilon):
    """The threshold loss from its definition: force, delta*, then the M1 metric."""
    force = BoundedConfidence(op.sheaf, epsilon).force(data.edge_states)
    misfit = data.residuals - force @ op.delta_star_matrix.T
    return c0(op, misfit, misfit).mean()


@settings(derandomize=True, max_examples=50, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    epsilon=st.floats(0.25, 4.0),
    scale=st.floats(0.1, 3.0),
)
def test_threshold_loss_equals_the_direct_misfit_form(seed, epsilon, scale):
    rng = np.random.default_rng(seed)
    sheaf = random_sheaf(rng)  # weighted, stalks of dimension 1 to 3
    assume(len(set(sheaf.edge_stalk_dims)) > 1)
    op = build_coboundary(sheaf)
    states = scale * rng.standard_normal((12, op.d0))
    residuals = rng.standard_normal((12, op.d0))
    data = ResidualDataset(states, residuals, states @ op.B.T, "exact")
    got = threshold_objective(threshold_terms(op, data), epsilon)
    assert got == pytest.approx(direct_threshold_loss(op, data, epsilon), rel=1e-12)


def test_threshold_loss_is_bit_equal_to_the_direct_form_on_identity_grams(rotated_cycle):
    assert_threshold_losses_bit_equal_on_identity_grams(*rotated_cycle)


@pytest.mark.parametrize("n", [4, 5, 101])
def test_threshold_loss_is_bit_equal_on_wider_rotated_cycles(n):
    # d0 = 8, 10 and 202 take numpy's pairwise row sum; the 3-cycle above
    # (d0 = 6) takes the in-order column sums
    sheaf = make_cycle_sheaf(n, "rotated")
    assert_threshold_losses_bit_equal_on_identity_grams(sheaf, build_coboundary(sheaf))


def assert_threshold_losses_bit_equal_on_identity_grams(sheaf, op):
    assert np.array_equal(op.L1, np.eye(op.d0))
    rng = np.random.default_rng(31)
    states = 0.8 * rng.standard_normal((200, op.d0))
    clean = forward_dataset(op, BoundedConfidence(sheaf, 1.0), states)
    noisy = clean.residuals + 1e-3 * rng.standard_normal(states.shape)
    data = ResidualDataset(states, noisy, clean.edge_states, "exact")
    terms = threshold_terms(op, data)
    ds_t = op.delta_star_matrix.T
    for epsilon in np.geomspace(0.25, 4.0, 64):
        force = BoundedConfidence(sheaf, epsilon).force(data.edge_states)
        misfit = (data.residuals - force @ ds_t) @ op.L1
        direct = float(np.mean(np.sum(misfit * misfit, axis=-1)))
        assert threshold_objective(terms, epsilon) == direct


def row_major_threshold_loss(op, data, epsilon):
    """The threshold loss as one (N, d1) @ (d1, d0) product of the law's forces
    with G = delta*^T L1, and numpy's per-sample row sums of the squared misfit."""
    forces = BoundedConfidence(op.sheaf, epsilon).force(data.edge_states)
    misfit = data.residuals @ op.L1 - forces @ (op.delta_star_matrix.T @ op.L1)
    return float(np.mean(np.sum(misfit * misfit, axis=-1)))


def test_fit_threshold_grid_losses_are_bit_equal_to_the_row_major_loss():
    widths = set()
    # weighted sheaves with mixed stalks, d0 = 4, 3 and 20; on these BLAS
    # rounds G^T @ forces^T differently from forces @ G at some grid points
    for seed, n_vertices, n_edges in [(47, 3, 8), (49, 3, 8), (45, 8, 10)]:
        rng = np.random.default_rng(seed)
        sheaf = random_sheaf(rng, n_vertices, n_edges)
        op = build_coboundary(sheaf)
        states = 0.8 * rng.standard_normal((300, op.d0))
        clean = forward_dataset(op, BoundedConfidence(sheaf, 1.0), states)
        noisy = clean.residuals + 1e-3 * rng.standard_normal(states.shape)
        data = ResidualDataset(states, noisy, clean.edge_states, "exact")
        result = fit_threshold(op, data, (0.25, 4.0))
        grid = result.diagnostics["grid"]
        direct = [row_major_threshold_loss(op, data, e) for e in grid]
        assert result.diagnostics["grid_losses"] == direct
        eps_hat = result.theta_hat[0]
        assert result.objective_value == row_major_threshold_loss(op, data, eps_hat)
        widths.add(op.d0 >= 8)
    assert widths == {False, True}  # both ways of summing a sample's terms


def test_threshold_losses_build_no_model_and_keep_the_gain_of_the_law(monkeypatch):
    # weighted sheaf with mixed stalks; every grid loss equals, bit for bit, the
    # plain loss through the law's force
    rng = np.random.default_rng(47)
    sheaf = random_sheaf(rng, 3, 8)
    op = build_coboundary(sheaf)
    states = 0.8 * rng.standard_normal((300, op.d0))
    clean = forward_dataset(op, BoundedConfidence(sheaf, 1.0), states)
    noisy = clean.residuals + 1e-3 * rng.standard_normal(states.shape)
    data = ResidualDataset(states, noisy, clean.edge_states, "exact")
    grid = np.geomspace(0.25, 4.0, 64)
    expected = [row_major_threshold_loss(op, data, e) for e in grid]
    terms = threshold_terms(op, data)

    def no_model(*args, **kwargs):
        raise AssertionError("a loss evaluation builds no model")

    monkeypatch.setattr(BoundedConfidence, "__init__", no_model)
    assert [threshold_objective(terms, e) for e in grid] == expected


@pytest.mark.parametrize("d", range(1, 8))
def test_numpy_adds_fewer_than_8_terms_in_order(d):
    # sysid._row_sums relies on this rule to sum a sample's terms column by column
    rng = np.random.default_rng(d)
    a = rng.standard_normal((1000, d)) * 10.0 ** rng.uniform(-12, 12, (1000, d))
    in_order = np.zeros(1000)
    for column in a.T:
        in_order += column
    assert np.array_equal(np.sum(a, axis=-1), in_order)
    assert np.array_equal(np.sum(a, axis=-1), np.ascontiguousarray(a.T).sum(axis=0))
    assert np.array_equal(sysid._row_sums(a), np.sum(a, axis=-1))


def test_a_threshold_fit_norms_its_samples_once_and_runs_no_force(rotated_cycle, monkeypatch):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(32)
    data = forward_dataset(op, BoundedConfidence(sheaf, 1.0), rng.standard_normal((50, op.d0)))
    stage, norms, evaluations = ["fit"], [], []

    def in_stage(name, fn):
        def wrapper(*args):
            stage.append(name)
            try:
                return fn(*args)
            finally:
                stage.pop()

        return wrapper

    def counted_norms(self, y, _norms=Sheaf.edge_sq_norms):
        norms.append(stage[-1])
        return _norms(self, y)

    def counted_objective(terms, epsilon, _objective=sysid.threshold_objective):
        evaluations.append(epsilon)
        return _objective(terms, epsilon)

    def forbidden(self, y):
        raise AssertionError("a threshold fit evaluates no force")

    monkeypatch.setattr(Sheaf, "edge_sq_norms", counted_norms)
    monkeypatch.setattr(BoundedConfidence, "force", forbidden)
    monkeypatch.setattr(sysid, "threshold_terms", in_stage("terms", sysid.threshold_terms))
    monkeypatch.setattr(sysid, "threshold_objective", in_stage("loss", counted_objective))
    monkeypatch.setattr(sysid, "information_scalar", in_stage("info", sysid.information_scalar))
    result = fit_threshold(op, data, (0.25, 4.0))
    assert abs(result.theta_hat[0] - 1.0) <= 1e-6
    assert len(evaluations) > 64  # the grid, then golden section
    # the loss norms the samples once; the information number's Jacobian once more
    assert norms == ["terms", "info"]


@pytest.mark.parametrize("epsilon", [0.0, -0.5])
def test_threshold_objective_rejects_a_nonpositive_threshold(rotated_cycle, epsilon):
    sheaf, op = rotated_cycle
    data = forward_dataset(op, BoundedConfidence(sheaf, 1.0), np.ones((2, op.d0)))
    with pytest.raises(ParameterError, match="epsilon must be positive"):
        threshold_objective(threshold_terms(op, data), epsilon)
