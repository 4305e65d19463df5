"""Desk-scale studies of edge-law recovery and its failure modes.

Three experiments, each isolating one obstruction:

* formation_transfer -- a harmonic constant force added to a shifted-quadratic
  law is invisible in node rollouts exactly when the cycle sheaf has nonzero
  first cohomology, yet shifts the edge law by a fixed amount everywhere.
* bounded_confidence -- recovery of the scalar interaction threshold, swept
  over data coverage (broad vs. localized near the cutoff) and residual
  quality (exact vs. finite differences under node noise).
* finite_basis -- least-squares recovery of radial monomial coefficients,
  swept over basis choice (with/without an unidentifiable harmonic mode) and
  initial-condition coverage.

Summaries aggregate mean +/- std over a sorted seed list; force-law checks
report per-condition medians of the force MSE on three evaluation sets
(per-seed holdout edge states, the pool of every training edge state seen in
the experiment, and a fixed reference grid).  All randomness is derived from
(seed, stream) keys, so identical configs give identical tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dynamics import SimConfig, Trajectory, integrate
from .errors import ConfigurationError, UsageError
from .potentials import (
    BoundedConfidence,
    ConstantEdgeForce,
    EdgePotential,
    LinearBasisPotential,
    ShiftedQuadratic,
    ZeroField,
    monomial_basis,
)
from .sheaf import (
    DirectedGraph,
    Sheaf,
    build_coboundary,
    global_section_basis,
    harmonic_basis,
)
from .sysid import (
    ResidualDataset,
    fit_linear,
    fit_threshold,
    merge_datasets,
    residuals_exact,
    residuals_fd,
)

STEP = 0.01
FORMATION_HORIZON = 4.0
TRAINING_HORIZON = 10.0
# Localized coverage means the *observed samples* sit in the annulus: few
# trajectories, and the record stops before the states escape the annulus.
LOCALIZED_HORIZON = 0.5
LOCALIZED_N_TRAINING = 8
THRESHOLD_N_TRAINING = 24  # eight trajectories per broad scale
BASIS_N_TRAINING = 8
N_HOLDOUT = 4

TAIL_ROTATION_ANGLE = math.pi / 4.0  # any angle with n*angle off the full turn works

FORMATION_PERTURBATION = 0.6
EDGE_CONSTANT = (1.0, 0.0)

TRUE_THRESHOLD = 1.0
BROAD_SCALES = (0.4, 0.8, 1.2)
LOCALIZED_BAND = (0.95, 1.05)
THRESHOLD_BRACKET = (0.25, 4.0)
THRESHOLD_NOISE_STD = 5e-3

TRUE_MONOMIAL_THETA = (1.0, 0.25, 0.03)
HARMONIC_COEFFICIENT = 0.5
# Initial edge radii along the limited-coverage ray.  Kept small so the higher
# monomials stay unexcited and the Gram matrix is numerically singular.
LIMITED_RADII = (0.02, 0.05)
BASIS_NOISE_STD = 1e-4

GRID_EXTENT = 2.0
GRID_POINTS = 21

_COVERAGE_IDS = {"broad": 0, "localized": 1, "limited": 2}
_MODE_IDS = {"observed": 0, "finite_difference": 1}

_ZERO = ZeroField()


@dataclass(frozen=True)
class ExperimentConfig:
    """Which experiment to run and over which regimes.

    coverage / residual_mode / basis_variant restrict the swept conditions
    when set; None sweeps everything the experiment defines.
    """

    experiment_id: str
    cycle_length: int = 3
    seeds: tuple[int, ...] = tuple(range(8))
    coverage: str | None = None
    residual_mode: str | None = None
    basis_variant: str | None = None
    noise_std: float | None = None
    step: float = STEP
    training_horizon: float = TRAINING_HORIZON
    n_training: int | None = None  # per-experiment default when unset
    n_holdout: int = N_HOLDOUT

    def __post_init__(self):
        if self.experiment_id not in (
            "formation_transfer",
            "bounded_confidence",
            "finite_basis",
        ):
            raise ConfigurationError(f"unknown experiment '{self.experiment_id}'")
        if self.cycle_length < 3:
            raise ConfigurationError("cycle_length must be at least 3")
        if not self.seeds:
            raise ConfigurationError("at least one seed required")
        if self.coverage is not None and self.coverage not in _COVERAGE_IDS:
            raise ConfigurationError(f"unknown coverage '{self.coverage}'")
        if self.residual_mode is not None and self.residual_mode not in _MODE_IDS:
            raise ConfigurationError(f"unknown residual mode '{self.residual_mode}'")
        if self.basis_variant is not None:
            if self.experiment_id != "finite_basis":
                raise ConfigurationError(
                    "basis_variant applies to the finite_basis experiment only"
                )
            if self.basis_variant not in ("correct", "augmented"):
                raise ConfigurationError(f"unknown basis variant '{self.basis_variant}'")
        if self.coverage == "limited" and self.experiment_id == "bounded_confidence":
            raise ConfigurationError("bounded_confidence sweeps broad/localized only")
        if self.coverage == "localized" and self.experiment_id == "finite_basis":
            raise ConfigurationError("finite_basis sweeps broad/limited only")


@dataclass(frozen=True)
class EvaluationSets:
    """Edge-state sets on which recovered force laws are compared."""

    holdout: np.ndarray  # (-, d1) states from held-out trajectories
    pooled: np.ndarray  # (-, d1) every training edge state in the experiment
    grid: np.ndarray  # (-, d1) fixed, seed-independent reference grid


@dataclass
class ExperimentOutput:
    name: str
    summary: list[dict]
    force_checks: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def make_cycle_sheaf(n: int, variant: str) -> Sheaf:
    """Directed n-cycle with 2-D stalks and identity Grams.

    The "identity" variant uses identity tail maps and has a two-dimensional
    harmonic space; the "rotated" variant rotates every tail map by a quarter
    of pi, which kills both the global sections and the harmonic space.  The
    constructed dimensions are verified and a mismatch raises.
    """
    if n < 3:
        raise ConfigurationError("cycle length must be at least 3")
    if variant not in ("identity", "rotated"):
        raise ConfigurationError(f"unknown sheaf variant '{variant}'")
    graph = DirectedGraph(
        vertex_count=n, edges=tuple((i, (i + 1) % n) for i in range(n))
    )
    eye = np.eye(2)
    if variant == "identity":
        tail = eye
    else:
        a = TAIL_ROTATION_ANGLE
        tail = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    sheaf = Sheaf(
        graph=graph,
        vertex_stalk_dims=[2] * n,
        edge_stalk_dims=[2] * n,
        head_maps=[eye] * n,
        tail_maps=[tail] * n,
    )
    expected = 2 if variant == "identity" else 0
    got = harmonic_basis(build_coboundary(sheaf)).dim_h1
    if got != expected:
        raise ConfigurationError(
            f"{variant} {n}-cycle has harmonic dimension {got}, expected {expected}"
        )
    return sheaf


def constant_edge_cochain(sheaf: Sheaf, block: Sequence[float]) -> np.ndarray:
    """The 1-cochain carrying the same block on every edge."""
    out = np.zeros(sheaf.d1)
    block = np.asarray(block, dtype=float)
    for sl in sheaf.edge_slices:
        if block.shape != (sl.stop - sl.start,):
            raise UsageError("block does not match the edge stalk dimension")
        out[sl] = block
    return out


def reference_grid(
    sheaf: Sheaf, extent: float = GRID_EXTENT, points: int = GRID_POINTS
) -> np.ndarray:
    """Uniform per-edge grid over [-extent, extent]^2, tiled across edges."""
    if any(d != 2 for d in sheaf.edge_stalk_dims):
        raise UsageError("reference grid requires 2-D edge stalks")
    axis = np.linspace(-extent, extent, points)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return np.tile(pts, (1, sheaf.graph.edge_count))


def force_mse(
    model_true: EdgePotential,
    model_fitted: EdgePotential,
    sets: EvaluationSets,
) -> dict[str, float]:
    """Mean over evaluation states of the summed per-edge force discrepancy."""
    sheaf = model_true.sheaf
    out = {}
    for name in ("holdout", "pooled", "grid"):
        eval_states = getattr(sets, name)
        if eval_states.shape[0] == 0:
            raise UsageError(f"evaluation set '{name}' is empty")
        diff = model_fitted.force(eval_states) - model_true.force(eval_states)
        out[name] = float(np.mean(sheaf.edge_sq_norms(diff).sum(-1)))
    return out


# ---------------------------------------------------------------------------
# Initial-condition designs
# ---------------------------------------------------------------------------


def _broad_initial_conditions(rng, d0: int, count: int) -> list[np.ndarray]:
    # Per-coordinate std == scale on the edge states, so typical edge radii
    # sit below, near, and above the unit threshold for the three scales.
    return [
        BROAD_SCALES[i % len(BROAD_SCALES)] * rng.standard_normal(d0) / math.sqrt(2.0)
        for i in range(count)
    ]


def _localized_initial_conditions(op, rng, count: int) -> list[np.ndarray]:
    # Draw per-edge radii in a thin annulus around the cutoff and pull the
    # edge states back through the (invertible) coboundary.
    sheaf = op.sheaf
    if op.rank() != op.d0 or op.d0 != op.d1:
        raise ConfigurationError("localized coverage needs an invertible coboundary")
    ics = []
    for _ in range(count):
        y = np.zeros(op.d1)
        # Per edge on purpose: the draws interleave edge by edge, and this
        # scalar normalisation keeps the bits of the localized starts.
        for e, sl in enumerate(sheaf.edge_slices):
            direction = rng.standard_normal(sl.stop - sl.start)
            gram = sheaf.edge_grams[e]
            direction /= math.sqrt(float(direction @ gram @ direction))
            y[sl] = rng.uniform(*LOCALIZED_BAND) * direction
        ics.append(np.linalg.solve(op.B, y))
    return ics


def _limited_ray(op, rng) -> np.ndarray:
    """Unit ray direction: no global-section part, max initial edge radius 1."""
    v = rng.standard_normal(op.d0)
    sections = global_section_basis(op)
    v = v - sections.basis @ (sections.basis.T @ (op.M1 @ v))
    return v / np.sqrt(op.sheaf.edge_sq_norms(op.B @ v)).max()


def _limited_initial_conditions(ray: np.ndarray, count: int, offset: float = 0.0):
    lo, hi = LIMITED_RADII
    span = hi - lo
    multiples = np.linspace(lo + offset * span, hi - offset * span, count)
    return [t * ray for t in multiples]


# ---------------------------------------------------------------------------
# Experiment 1: formation transfer and the harmonic ambiguity
# ---------------------------------------------------------------------------


def run_formation_transfer(cfg: ExperimentConfig) -> ExperimentOutput:
    """Compare the true formation law against its harmonic perturbation.

    For each cycle length and sheaf variant: simulate the shifted-quadratic
    law from a seeded start (the terminal state is the target formation),
    reset, and roll out both the recovered law y - b and the perturbed law
    y - b + beta*c with c constant on every edge.  Reports the max rollout
    difference and the force MSE between the two laws.
    """
    if cfg.experiment_id != "formation_transfer":
        raise ConfigurationError("config is not for formation_transfer")
    seed = cfg.seeds[0]
    beta = FORMATION_PERTURBATION
    rows = []
    details = {}
    for n in (3, 5):
        for variant in ("identity", "rotated"):
            sheaf = make_cycle_sheaf(n, variant)
            op = build_coboundary(sheaf)
            harm = harmonic_basis(op)
            rng = np.random.default_rng([seed, n, 0 if variant == "identity" else 1])

            x0 = rng.standard_normal(op.d0)
            b = rng.standard_normal(op.d1)
            b = b - harm.basis @ (harm.basis.T @ (op.M2 @ b))  # keep b reachable

            c = constant_edge_cochain(sheaf, EDGE_CONSTANT)
            true_law = ShiftedQuadratic(sheaf, b)
            perturbed_law = ShiftedQuadratic(sheaf, b - beta * c)

            sim = SimConfig(horizon=FORMATION_HORIZON, step=cfg.step)
            rollout_true = integrate(op, true_law, _ZERO, x0, sim)
            rollout_pert = integrate(op, perturbed_law, _ZERO, x0, sim)
            max_diff = float(np.max(np.abs(rollout_true.states - rollout_pert.states)))

            eval_states = rollout_true.states @ op.B.T
            diff = perturbed_law.force(eval_states) - true_law.force(eval_states)
            mse = float(np.mean(sheaf.edge_sq_norms(diff).sum(-1)))

            label = f"{n}-cycle, Sheaf {'A' if variant == 'identity' else 'B'}"
            rows.append(
                {
                    "sheaf": label,
                    "cycle_length": n,
                    "variant": variant,
                    "dim_h1": harm.dim_h1,
                    "max_rollout_diff": max_diff,
                    "force_mse": mse,
                }
            )
            details[label] = {
                "target": rollout_true.states[-1].copy(),
                "perturbed_terminal": rollout_pert.states[-1].copy(),
            }
    return ExperimentOutput(name="formation_transfer", summary=rows, details=details)


# ---------------------------------------------------------------------------
# Experiments 2 and 3 share the sweep scaffolding below.
# ---------------------------------------------------------------------------


@dataclass
class _SeedRun:
    metrics: dict
    fitted: EdgePotential
    truth: EdgePotential
    train_edge_states: np.ndarray
    holdout_edge_states: np.ndarray


def _rollouts(op, model, ics, step, horizon) -> list[Trajectory]:
    """Noiseless rollouts of every start in one batch; a divergence raises."""
    trajs = integrate(op, model, _ZERO, np.asarray(ics), SimConfig(horizon=horizon, step=step))
    bad = [t for t in trajs if not isinstance(t, Trajectory)]
    if bad:
        raise bad[0]
    return trajs


def _truth_rollouts(op, truth, train_ics, hold_ics, step, horizon):
    """Training rollouts, holdout starts and holdout rollouts, in one batch."""
    trajs = _rollouts(op, truth, train_ics + hold_ics, step, horizon)
    return trajs[: len(train_ics)], hold_ics, trajs[len(train_ics) :]


def _with_observation_noise(trajs, sigma, seed_key):
    """Noisy copies of clean trajectories, one derived noise seed each.

    Derivatives are dropped: a noisy record only supports finite differences.
    """
    noisy = []
    for i, t in enumerate(trajs):
        rng = np.random.default_rng(seed_key + (i,))
        noisy.append(
            Trajectory(
                times=t.times,
                states=t.states + rng.normal(0.0, sigma, size=t.states.shape),
                derivs=None,
            )
        )
    return noisy


def _training_dataset(op, clean_trajs, mode, noise_std, seed_key) -> ResidualDataset:
    if mode == "observed":
        parts = [residuals_exact(op, t, _ZERO) for t in clean_trajs]
    else:
        observed = _with_observation_noise(clean_trajs, noise_std, seed_key)
        parts = [residuals_fd(op, t, _ZERO, noise_std=noise_std) for t in observed]
    return merge_datasets(parts)


def _rollout_rmse(reference: list[Trajectory], candidate: list[Trajectory]) -> float:
    diffs = [r.states - c.states for r, c in zip(reference, candidate)]
    stacked = np.concatenate([d.ravel() for d in diffs])
    return float(np.sqrt(np.mean(stacked**2)))


def _force_check_row(experiment, label, cond_runs, pooled, grid) -> dict:
    """Medians over seeds of the force MSE on each evaluation set."""
    mses = [
        force_mse(r.truth, r.fitted, EvaluationSets(r.holdout_edge_states, pooled, grid))
        for r in cond_runs
    ]
    row = {"experiment": experiment, "setting": label}
    for name in ("holdout", "pooled", "grid"):
        row[f"{name}_mse_median"] = float(np.median([m[name] for m in mses]))
    return row


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def run_bounded_confidence(cfg: ExperimentConfig) -> ExperimentOutput:
    """Threshold recovery across coverage and residual-quality regimes.

    Per seed and condition: simulate the true threshold law from eight
    training starts, build residuals (finite-difference mode adds node noise
    first), fit the threshold by grid + golden section, and score the fitted
    law on held-out rollouts.  The information number reported is the one at
    the fitted threshold on the training edge states.
    """
    if cfg.experiment_id != "bounded_confidence":
        raise ConfigurationError("config is not for bounded_confidence")
    sheaf = make_cycle_sheaf(cfg.cycle_length, "rotated")
    op = build_coboundary(sheaf)
    truth = BoundedConfidence(sheaf, TRUE_THRESHOLD)
    noise_std = THRESHOLD_NOISE_STD if cfg.noise_std is None else cfg.noise_std

    conditions = [
        ("broad", "observed"),
        ("localized", "observed"),
        ("broad", "finite_difference"),
        ("localized", "finite_difference"),
    ]
    conditions = [
        (cov, mode)
        for cov, mode in conditions
        if (cfg.coverage is None or cov == cfg.coverage)
        and (cfg.residual_mode is None or mode == cfg.residual_mode)
    ]
    seeds = sorted(cfg.seeds)

    n_training = THRESHOLD_N_TRAINING if cfg.n_training is None else cfg.n_training
    truth_cache: dict = {}  # key -> (training rollouts, holdout starts, holdout rollouts)
    runs: dict[tuple[str, str], list[_SeedRun]] = {c: [] for c in conditions}
    for coverage, mode in conditions:
        cov_id = _COVERAGE_IDS[coverage]
        mode_id = _MODE_IDS[mode]
        horizon = cfg.training_horizon if coverage == "broad" else LOCALIZED_HORIZON
        n_loc = LOCALIZED_N_TRAINING if cfg.n_training is None else cfg.n_training
        for seed in seeds:
            key = (seed, coverage)
            if key not in truth_cache:
                rng_train = np.random.default_rng([seed, cov_id, 1])
                rng_hold = np.random.default_rng([seed, cov_id, 2])
                if coverage == "broad":
                    train_ics = _broad_initial_conditions(rng_train, op.d0, n_training)
                    hold_ics = _broad_initial_conditions(rng_hold, op.d0, cfg.n_holdout)
                else:
                    train_ics = _localized_initial_conditions(op, rng_train, n_loc)
                    hold_ics = _localized_initial_conditions(op, rng_hold, cfg.n_holdout)
                truth_cache[key] = _truth_rollouts(
                    op, truth, train_ics, hold_ics, cfg.step, horizon
                )
            train, hold_ics, reference = truth_cache[key]
            sigma = noise_std if mode == "finite_difference" else 0.0
            data = _training_dataset(op, train, mode, sigma, (seed, cov_id, mode_id))
            fit = fit_threshold(op, data, THRESHOLD_BRACKET)
            eps_hat = float(fit.theta_hat[0])

            fitted = BoundedConfidence(sheaf, eps_hat)
            candidate = _rollouts(op, fitted, hold_ics, cfg.step, horizon)

            runs[(coverage, mode)].append(
                _SeedRun(
                    metrics={
                        "threshold_error": abs(eps_hat - TRUE_THRESHOLD),
                        "rollout_rmse": _rollout_rmse(reference, candidate),
                        "information": fit.report.lambda_min,
                        "identifiable": fit.report.identifiable,
                        "epsilon_hat": eps_hat,
                    },
                    fitted=fitted,
                    truth=truth,
                    train_edge_states=data.edge_states,
                    holdout_edge_states=np.concatenate(
                        [t.states @ op.B.T for t in reference]
                    ),
                )
            )

    pooled = np.concatenate(
        [run.train_edge_states for cond in conditions for run in runs[cond]]
    )
    grid = reference_grid(sheaf)

    summary, force_rows = [], []
    for coverage, mode in conditions:
        cond_runs = runs[(coverage, mode)]
        err_m, err_s = _mean_std([r.metrics["threshold_error"] for r in cond_runs])
        rmse_m, rmse_s = _mean_std([r.metrics["rollout_rmse"] for r in cond_runs])
        info_m, info_s = _mean_std([r.metrics["information"] for r in cond_runs])
        label = _condition_label(coverage, mode)
        summary.append(
            {
                "setting": label,
                "coverage": coverage,
                "residual_mode": mode,
                "threshold_error_mean": err_m,
                "threshold_error_std": err_s,
                "rollout_rmse_mean": rmse_m,
                "rollout_rmse_std": rmse_s,
                "information_mean": info_m,
                "information_std": info_s,
                "n_seeds": len(cond_runs),
            }
        )
        force_rows.append(
            _force_check_row("bounded_confidence", label, cond_runs, pooled, grid)
        )
    details = {
        cond: [r.metrics for r in cond_runs]
        for cond, cond_runs in runs.items()
    }
    return ExperimentOutput(
        name="bounded_confidence",
        summary=summary,
        force_checks=force_rows,
        details=details,
    )


def run_finite_basis(cfg: ExperimentConfig) -> ExperimentOutput:
    """Monomial-coefficient recovery across basis and coverage regimes.

    The augmented condition adds a constant harmonic force to both the true
    law (with a fixed nonzero coefficient) and the fitting basis; since that
    force is annihilated by delta*, its design column is identically zero, the
    Gram matrix is singular, and the minimum-norm fit deterministically drops
    the harmonic coefficient.  That row therefore runs on a single seed.
    """
    if cfg.experiment_id != "finite_basis":
        raise ConfigurationError("config is not for finite_basis")
    sheaf = make_cycle_sheaf(cfg.cycle_length, "identity")
    op = build_coboundary(sheaf)
    noise_std = BASIS_NOISE_STD if cfg.noise_std is None else cfg.noise_std

    basis = monomial_basis(sheaf)
    theta_true = np.asarray(TRUE_MONOMIAL_THETA)
    harmonic_mode = constant_edge_cochain(sheaf, EDGE_CONSTANT)
    aug_basis = basis + (ConstantEdgeForce(sheaf, harmonic_mode),)
    theta_true_aug = np.concatenate([theta_true, [HARMONIC_COEFFICIENT]])

    seeds = sorted(cfg.seeds)
    conditions = [
        ("correct", "broad", "observed", seeds),
        ("augmented", "broad", "observed", seeds[:1]),
        ("correct", "limited", "observed", seeds),
        ("correct", "broad", "finite_difference", seeds),
        ("correct", "limited", "finite_difference", seeds),
    ]
    conditions = [
        (bv, cov, mode, ss)
        for bv, cov, mode, ss in conditions
        if (cfg.basis_variant is None or bv == cfg.basis_variant)
        and (cfg.coverage is None or cov == cfg.coverage)
        and (cfg.residual_mode is None or mode == cfg.residual_mode)
    ]

    n_training = BASIS_N_TRAINING if cfg.n_training is None else cfg.n_training
    truth_cache: dict = {}  # key -> (training rollouts, holdout starts, holdout rollouts)
    runs: dict[tuple, list[_SeedRun]] = {c[:3]: [] for c in conditions}
    for basis_variant, coverage, mode, cond_seeds in conditions:
        cov_id = _COVERAGE_IDS[coverage]
        mode_id = _MODE_IDS[mode]
        if basis_variant == "augmented":
            truth = LinearBasisPotential(sheaf, aug_basis, theta_true_aug)
            fit_basis, fit_target = aug_basis, theta_true_aug
        else:
            truth = LinearBasisPotential(sheaf, basis, theta_true)
            fit_basis, fit_target = basis, theta_true
        for seed in cond_seeds:
            key = (seed, coverage, basis_variant)
            if key not in truth_cache:
                rng_train = np.random.default_rng([seed, cov_id, 1])
                rng_hold = np.random.default_rng([seed, cov_id, 2])
                if coverage == "broad":
                    train_ics = _broad_initial_conditions(rng_train, op.d0, n_training)
                    hold_ics = _broad_initial_conditions(rng_hold, op.d0, cfg.n_holdout)
                else:
                    ray = _limited_ray(op, np.random.default_rng([seed, cov_id, 0]))
                    train_ics = _limited_initial_conditions(ray, n_training)
                    hold_ics = _limited_initial_conditions(ray, cfg.n_holdout, offset=0.1)
                truth_cache[key] = _truth_rollouts(
                    op, truth, train_ics, hold_ics, cfg.step, cfg.training_horizon
                )
            train, hold_ics, reference = truth_cache[key]
            sigma = noise_std if mode == "finite_difference" else 0.0
            data = _training_dataset(op, train, mode, sigma, (seed, cov_id, mode_id, 9))
            fit = fit_linear(op, fit_basis, data)
            theta_hat = fit.theta_hat
            rel_err = float(
                np.linalg.norm(theta_hat - fit_target) / np.linalg.norm(fit_target)
            )

            fitted = LinearBasisPotential(sheaf, fit_basis, theta_hat)
            candidate = _rollouts(op, fitted, hold_ics, cfg.step, cfg.training_horizon)

            runs[(basis_variant, coverage, mode)].append(
                _SeedRun(
                    metrics={
                        "param_error": rel_err,
                        "rollout_rmse": _rollout_rmse(reference, candidate),
                        "lambda_min": fit.report.lambda_min,
                        "lambda_max": fit.report.lambda_max,
                        "identifiable": fit.report.identifiable,
                        "theta_hat": theta_hat.tolist(),
                    },
                    fitted=fitted,
                    truth=truth,
                    train_edge_states=data.edge_states,
                    holdout_edge_states=np.concatenate(
                        [t.states @ op.B.T for t in reference]
                    ),
                )
            )

    pooled = np.concatenate(
        [run.train_edge_states for c in conditions for run in runs[c[:3]]]
    )
    grid = reference_grid(sheaf)

    summary, force_rows = [], []
    for basis_variant, coverage, mode, _ in conditions:
        cond_runs = runs[(basis_variant, coverage, mode)]
        err_m, err_s = _mean_std([r.metrics["param_error"] for r in cond_runs])
        rmse_m, rmse_s = _mean_std([r.metrics["rollout_rmse"] for r in cond_runs])
        lam_m, lam_s = _mean_std([r.metrics["lambda_min"] for r in cond_runs])
        lmax_m, _ = _mean_std([r.metrics["lambda_max"] for r in cond_runs])
        label = _basis_label(basis_variant, coverage, mode)
        summary.append(
            {
                "setting": label,
                "basis": basis_variant,
                "coverage": coverage,
                "residual_mode": mode,
                "param_error_mean": err_m,
                "param_error_std": err_s,
                "rollout_rmse_mean": rmse_m,
                "rollout_rmse_std": rmse_s,
                "lambda_min_mean": lam_m,
                "lambda_min_std": lam_s,
                "lambda_max_mean": lmax_m,
                "n_seeds": len(cond_runs),
            }
        )
        force_rows.append(_force_check_row("finite_basis", label, cond_runs, pooled, grid))
    details = {
        cond: [r.metrics for r in cond_runs] for cond, cond_runs in runs.items()
    }
    return ExperimentOutput(
        name="finite_basis",
        summary=summary,
        force_checks=force_rows,
        details=details,
    )


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutput:
    if cfg.experiment_id == "formation_transfer":
        return run_formation_transfer(cfg)
    if cfg.experiment_id == "bounded_confidence":
        return run_bounded_confidence(cfg)
    return run_finite_basis(cfg)


def _condition_label(coverage: str, mode: str) -> str:
    cov = {"broad": "Broad", "localized": "Localized", "limited": "Limited"}[coverage]
    res = {"observed": "Obs.", "finite_difference": "FD"}[mode]
    return f"{cov} / {res}"


def _basis_label(basis_variant: str, coverage: str, mode: str) -> str:
    if basis_variant == "augmented":
        return "Augmented / Obs."
    return f"Correct / {_condition_label(coverage, mode)}"


# ---------------------------------------------------------------------------
# Table rendering (CSV plus aligned text); shared by the CLI.
# ---------------------------------------------------------------------------


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def rows_to_text(rows: list[dict]) -> str:
    if not rows:
        return "(empty table)\n"
    cols = list(rows[0].keys())
    rendered = [[_text_cell(row[c]) for c in cols] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _text_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.3e}"
    return str(value)
