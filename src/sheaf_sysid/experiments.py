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

The two recovery studies are one experiment, run by one sweep driver over
each study's table of conditions (_SWEEPS): per condition and seed, simulate
the true law, build residuals, fit, and compare the fitted law with the truth
on held-out rollouts and on force.  A study supplies only its table, its true
parameters, its fit (a scalar threshold or a linear basis, returning
parameters) and one law family: family(p) is the law with parameters p, and
family of stacked parameters is one model holding each law as a row.  The
sweep runs each study's rollouts in two RK4 batches, one for every truth
start set and one for every fitted law, each row stopping at its own record
length.  Rows keep their solo bits, so batching changes no output.  Summaries
aggregate mean +/- std over a sorted seed list; force-law checks report
per-condition medians of the force MSE on three evaluation sets (per-seed
holdout edge states, the pool of every training edge state seen in the
experiment, and a fixed reference grid).  All randomness is derived from
(seed, stream) keys, so identical configs give identical tables.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .dynamics import SimConfig, Trajectory, integrate, observe, whole_steps
from .errors import ConfigurationError, DivergenceError, SheafSysIdError, UsageError, allocate
from .potentials import (
    BoundedConfidence,
    ConstantEdgeForce,
    EdgePotential,
    LinearBasisPotential,
    ShiftedQuadratic,
    monomial_basis,
)
from .sheaf import (
    DirectedGraph,
    Sheaf,
    build_coboundary,
    harmonic_basis,
    hodge_project,
    section_part,
)
from .sysid import fit_linear, fit_threshold, residual_dataset

STEP = 0.01  # every study's RK4 step
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

FORMATION_SEED = 0
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

# Each sweep study's conditions in sweep order, as (setting label, basis
# variant, coverage, residual mode); the threshold study fits no basis.
_SWEEPS = {
    "bounded_confidence": (
        ("Broad / Obs.", None, "broad", "observed"),
        ("Localized / Obs.", None, "localized", "observed"),
        ("Broad / FD", None, "broad", "finite_difference"),
        ("Localized / FD", None, "localized", "finite_difference"),
    ),
    "finite_basis": (
        ("Correct / Broad / Obs.", "correct", "broad", "observed"),
        ("Augmented / Obs.", "augmented", "broad", "observed"),
        ("Correct / Limited / Obs.", "correct", "limited", "observed"),
        ("Correct / Broad / FD", "correct", "broad", "finite_difference"),
        ("Correct / Limited / FD", "correct", "limited", "finite_difference"),
    ),
}


def config_number(value, key: str, low: float = -math.inf, integer: bool = False):
    """value as a finite float, or an int if ``integer``, that is at least low.

    Anything else (a string, a bool, inf, nan, a fraction where an integer is
    due) raises ConfigurationError naming ``key``.
    """
    kind = numbers.Integral if integer else numbers.Real
    # the bound also refuses nan, and an int that no float can hold
    finite = isinstance(value, kind) and (integer or abs(value) <= sys.float_info.max)
    if isinstance(value, bool) or not finite or not value >= low:
        bound = f" >= {low:g}" if low > -math.inf else ""
        what = "an integer" if integer else "a finite number"
        raise ConfigurationError(f"{key} must be {what}{bound}, got {value!r}")
    return int(value) if integer else float(value)


# Fields formation_transfer does not read (its cycles, horizon and seed are
# fixed); a value other than the default is rejected rather than ignored.
_FORMATION_FIXED = ("cycle_length", "seeds", "n_training", "n_holdout", "training_horizon")


@dataclass(frozen=True)
class ExperimentConfig:
    """Which experiment to run, on which cycle and seeds, at which size.

    A sweep study runs every condition of its _SWEEPS table, with its own
    noise level (THRESHOLD_NOISE_STD or BASIS_NOISE_STD).  Every study steps
    at STEP, so training_horizon must be a whole number (at least one) of
    steps.  bounded_confidence runs on the rotated cycle, so its cycle_length
    may not be a multiple of 8.  formation_transfer reads none of these
    fields (it runs at FORMATION_SEED), so they must keep their defaults.
    Seeds may not repeat.
    """

    experiment_id: str
    cycle_length: int = 3
    seeds: tuple[int, ...] = tuple(range(8))
    training_horizon: float = TRAINING_HORIZON
    n_training: int | None = None  # per-experiment default when unset
    n_holdout: int = N_HOLDOUT

    def __post_init__(self):
        if self.experiment_id not in ("formation_transfer", *_SWEEPS):
            raise ConfigurationError(f"unknown experiment '{self.experiment_id}'")
        config_number(self.cycle_length, "cycle_length", 3, integer=True)
        # the threshold study's quarter-pi rotated cycle has H^1 != 0 when 8 | n
        if self.experiment_id == "bounded_confidence" and self.cycle_length % 8 == 0:
            raise ConfigurationError(
                f"bounded_confidence cycle_length {self.cycle_length} is a multiple of 8,"
                " where the rotated cycle has a nonzero harmonic space"
            )
        config_number(self.n_holdout, "n_holdout", 1, integer=True)
        if self.n_training is not None:
            config_number(self.n_training, "n_training", 1, integer=True)
        config_number(self.training_horizon, "training_horizon")
        if not self.seeds:
            raise ConfigurationError("at least one seed required")
        for seed in self.seeds:
            config_number(seed, "seeds", 0, integer=True)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must not repeat a seed, got {list(self.seeds)}")
        if self.experiment_id == "formation_transfer":
            for f in fields(self):
                if f.name in _FORMATION_FIXED and getattr(self, f.name) != f.default:
                    raise ConfigurationError(f"formation_transfer takes no {f.name}")
        horizon = self.training_horizon
        if not (horizon >= STEP and whole_steps(horizon, STEP)):
            raise ConfigurationError(
                f"training_horizon must be a whole number (at least 1) of steps of {STEP:g},"
                f" got {horizon!r}"
            )


@dataclass
class ExperimentOutput:
    name: str
    summary: list[dict]
    force_checks: list[dict] = field(default_factory=list)


def make_cycle_sheaf(n: int, variant: str) -> Sheaf:
    """Directed n-cycle with 2-D stalks and identity Grams.

    The "identity" variant uses identity tail maps and has a two-dimensional
    harmonic space; the "rotated" variant rotates every tail map by a quarter
    of pi, which kills both the global sections and the harmonic space unless
    n is a multiple of eight, where both are two-dimensional again (the n
    rotations make a full turn).  Every length of at least 3 is built;
    bounded_confidence, which needs H^1 = 0, refuses those lengths itself.
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


def reference_grid(sheaf: Sheaf) -> np.ndarray:
    """Uniform per-edge grid of GRID_POINTS^2 points over [-GRID_EXTENT,
    GRID_EXTENT]^2, tiled across edges."""
    if any(d != 2 for d in sheaf.edge_stalk_dims):
        raise UsageError("reference grid requires 2-D edge stalks")
    axis = np.linspace(-GRID_EXTENT, GRID_EXTENT, GRID_POINTS)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return np.tile(pts, (1, sheaf.graph.edge_count))


def force_mse(model: EdgePotential, states: np.ndarray, forces: np.ndarray) -> float:
    """Mean over edge states (N, d1) of the summed per-edge squared norm of
    model's force minus the reference forces on them; an empty set raises."""
    if states.shape[0] == 0:
        raise UsageError("evaluation set is empty")
    diff = model.force(states) - forces
    return float(np.mean(model.sheaf.edge_sq_norms(diff).sum(-1)))


# ---------------------------------------------------------------------------
# Initial-condition designs
# ---------------------------------------------------------------------------


def _broad_initial_conditions(rng, d0: int, count: int) -> np.ndarray:
    # Per-coordinate std == scale on the edge states, so typical edge radii
    # sit below, near, and above the unit threshold for the three scales.
    # One draw of every row: the bits of count draws of d0, each row scaled
    # by its scale and then divided, as one row at a time would be.
    ics = rng.standard_normal((count, d0))
    for i, scale in enumerate(BROAD_SCALES):
        ics[i :: len(BROAD_SCALES)] *= scale
    ics /= math.sqrt(2.0)
    return ics


def _localized_initial_conditions(op, rng, count: int) -> np.ndarray:
    # Draw per-edge radii in a thin annulus around the cutoff and pull the
    # edge states back through the (invertible) coboundary.
    sheaf = op.sheaf
    if op.rank() != op.d0 or op.d0 != op.d1:
        raise ConfigurationError("localized coverage needs an invertible coboundary")
    ics = np.empty((count, op.d0))
    for ic in ics:
        y = np.zeros(op.d1)
        # Per edge on purpose: the draws interleave edge by edge, and this
        # scalar normalisation keeps the bits of the localized starts.
        for e, sl in enumerate(sheaf.edge_slices):
            direction = rng.standard_normal(sl.stop - sl.start)
            gram = sheaf.edge_grams[e]
            direction /= math.sqrt(float(direction @ gram @ direction))
            y[sl] = rng.uniform(*LOCALIZED_BAND) * direction
        ic[:] = np.linalg.solve(op.B, y)
    return ics


def _limited_ray(op, rng) -> np.ndarray:
    """Unit ray direction: no global-section part, max initial edge radius 1."""
    v = rng.standard_normal(op.d0)
    v = v - section_part(op, v)
    return v / np.sqrt(op.sheaf.edge_sq_norms(op.B @ v)).max()


def _limited_initial_conditions(ray: np.ndarray, count: int, offset: float = 0.0):
    lo, hi = LIMITED_RADII
    span = hi - lo
    multiples = np.linspace(lo + offset * span, hi - offset * span, count)
    return multiples[:, None] * ray


# ---------------------------------------------------------------------------
# Experiment 1: formation transfer and the harmonic ambiguity
# ---------------------------------------------------------------------------


def run_formation_transfer(cfg: ExperimentConfig) -> ExperimentOutput:
    """Compare the true formation law against its harmonic perturbation.

    For each cycle length and sheaf variant: simulate the shifted-quadratic
    law from a start seeded by FORMATION_SEED (the terminal state is the
    target formation), reset, and roll out both the recovered law y - b and
    the perturbed law y - b + beta*c with c constant on every edge.  Reports
    the max rollout difference and the force MSE between the two laws.
    """
    if cfg.experiment_id != "formation_transfer":
        raise ConfigurationError("config is not for formation_transfer")
    beta = FORMATION_PERTURBATION
    rows = []
    for n in (3, 5):
        for variant in ("identity", "rotated"):
            sheaf = make_cycle_sheaf(n, variant)
            op = build_coboundary(sheaf)
            harm = harmonic_basis(op)
            rng = np.random.default_rng([FORMATION_SEED, n, 0 if variant == "identity" else 1])

            x0 = rng.standard_normal(op.d0)
            b = hodge_project(op, harm, rng.standard_normal(op.d1))[0]  # keep b reachable

            c = constant_edge_cochain(sheaf, EDGE_CONSTANT)
            true_law = ShiftedQuadratic(sheaf, b)
            perturbed_law = ShiftedQuadratic(sheaf, b - beta * c)

            sim = SimConfig(horizon=FORMATION_HORIZON, step=STEP)
            rollout_true = integrate(op, true_law, x0=x0, cfg=sim)
            rollout_pert = integrate(op, perturbed_law, x0=x0, cfg=sim)
            max_diff = float(np.max(np.abs(rollout_true.states - rollout_pert.states)))

            eval_states = rollout_true.states @ op.B.T
            mse = force_mse(perturbed_law, eval_states, true_law.force(eval_states))

            label = f"{n}-cycle, Sheaf {'A' if variant == 'identity' else 'B'}"
            rows.append(
                {
                    "sheaf": label,
                    "cycle_length": n,
                    "variant": variant,
                    "dim_h1": harm.shape[1],
                    "max_rollout_diff": max_diff,
                    "force_mse": mse,
                }
            )
    return ExperimentOutput(name="formation_transfer", summary=rows)


# ---------------------------------------------------------------------------
# Experiments 2 and 3: one sweep driver over each study's condition table.
# ---------------------------------------------------------------------------


class _Condition(NamedTuple):
    """One row of a study's table, with the true parameters, seeds and
    training-set size to run it on."""

    label: str
    basis: str | None  # the fitted basis variant; None for a threshold fit
    coverage: str
    mode: str
    truth: float | tuple  # the true law's parameters
    seeds: Sequence[int]
    n_training: int


def _horizon(cfg: ExperimentConfig, coverage: str) -> float:
    """Record length of a sweep condition: localized records stop early."""
    return LOCALIZED_HORIZON if coverage == "localized" else cfg.training_horizon


def _initial_conditions(op, coverage, seed, counts):
    """Training and holdout starts of one seed under one coverage design, each
    set one array (count, d0); a set too large to allocate raises
    ParameterError naming its key."""
    cov_id = _COVERAGE_IDS[coverage]
    if coverage == "limited":
        ray = _limited_ray(op, np.random.default_rng([seed, cov_id, 0]))
        make = [functools.partial(_limited_initial_conditions, ray, offset=o) for o in (0.0, 0.1)]
    else:
        rngs = [np.random.default_rng([seed, cov_id, stream]) for stream in (1, 2)]
        if coverage == "broad":
            make = [functools.partial(_broad_initial_conditions, rng, op.d0) for rng in rngs]
        else:
            make = [functools.partial(_localized_initial_conditions, op, rng) for rng in rngs]
    return [
        allocate(lambda: m(n), f"{key} {n} is too many starts to allocate")
        for m, n, key in zip(make, counts, ("n_training", "n_holdout"))
    ]


def _rollouts(op, family, jobs) -> list[list]:
    """Noiseless rollouts of many start sets in one integrate call.

    ``jobs`` lists (parameters, horizon, starts).  Every start is one row of
    the row-parameter model family(stacked parameters of every start), and
    stops at its job's horizon.  Returns per job its results, a Trajectory or
    a DivergenceError per start, each with the bits of that start run alone.
    """
    if not jobs:
        return []
    params = [p for p, _, starts in jobs for _ in starts]
    ends = [horizon for _, horizon, starts in jobs for _ in starts]
    x0 = np.concatenate([starts for _, _, starts in jobs])
    sim = SimConfig(horizon=max(ends), step=STEP)
    results = integrate(op, family(np.array(params)), x0=x0, cfg=sim, ends=ends)
    bounds = np.cumsum([0] + [len(starts) for _, _, starts in jobs]).tolist()
    return [results[a:b] for a, b in zip(bounds, bounds[1:])]


def _raise_divergence(results) -> None:
    """Raise the first DivergenceError among rollout results, if any."""
    for r in results:
        if isinstance(r, DivergenceError):
            raise r


def _rollout_rmse(reference: list[Trajectory], candidate: list) -> float:
    """RMSE of candidate rollouts against the reference; a divergence raises."""
    _raise_divergence(candidate)
    diffs = [r.states - c.states for r, c in zip(reference, candidate)]
    stacked = np.concatenate([d.ravel() for d in diffs])
    return float(np.sqrt(np.mean(stacked**2)))


def _sweep(cfg, sheaf, conditions, fit, family, stats, noise_std, noise_tag) -> ExperimentOutput:
    """Run every condition on each of its seeds, then aggregate over seeds.

    ``family`` is the study's one law family: family(p) is the law with
    parameters p (a condition's truth, or what fit returns), and family of
    stacked parameters (N, ...) is one model whose row i is the law of row i,
    bit for bit.  Per condition and seed: roll out the true law from the
    training and holdout starts (shared by the conditions with the same seed,
    coverage and truth), build residuals (finite differences first observe
    training record i under noise of std noise_std, seeded by (seed, coverage
    id, mode id, *noise_tag, i)), fit them with
    fit(condition, op, data) -> (parameters, metrics), and roll the fitted law
    out from the holdout starts.  A summary row holds the condition's columns,
    each "<metric>_mean" or "<metric>_std" column of ``stats`` over seeds, and
    n_seeds; a force-check row holds the medians over seeds of force_mse on
    the holdout states, on every training edge state of the sweep (pooled) and
    on the reference grid.  A true law's forces on the pooled set and the grid
    are evaluated once.

    The rollouts run in two integrate calls, as rows are independent of their
    batch and each row stops at its own record length: one for every truth
    start set, then the fits in (condition, seed) order up to the first that
    fails, then one scoring step that rolls out every fitted law and scores
    it against its truth.  A sweep raises the error the condition-by-condition
    order meets first: per (condition, seed) its truth rollout, its fit, then
    its fitted rollout.  So the scoring step raises the first fitted
    divergence, then the failure that stopped the fits.  The fitted rollouts
    live only in the scoring comprehension, so neither they nor the batch
    buffer their samples share outlive their scores into the force checks.
    """
    op = build_coboundary(sheaf)
    pairs = [(cond, seed) for cond in conditions for seed in cond.seeds]
    starts: dict = {}  # (seed, coverage, truth) -> (training, holdout starts)
    for cond, seed in pairs:
        key = (seed, cond.coverage, cond.truth)
        if key not in starts:
            counts = (cond.n_training, cfg.n_holdout)
            starts[key] = _initial_conditions(op, cond.coverage, seed, counts)
    jobs = [(k[2], _horizon(cfg, k[1]), np.concatenate(s)) for k, s in starts.items()]
    truth = dict(zip(starts, _rollouts(op, family, jobs)))  # the holdout records come last

    fits, pooled, failure = [], [], None  # per pair, in order: (key, fitted parameters, metrics)
    for cond, seed in pairs:
        key = (seed, cond.coverage, cond.truth)
        try:
            _raise_divergence(truth[key])
            train = truth[key][: -cfg.n_holdout]
            if cond.mode == "finite_difference":
                tag = (seed, _COVERAGE_IDS[cond.coverage], _MODE_IDS[cond.mode], *noise_tag)
                train = [observe(t, noise_std, (*tag, i)) for i, t in enumerate(train)]
            data = residual_dataset(op, train, cond.mode)
            fits.append((key, *fit(cond, op, data)))
        except SheafSysIdError as exc:
            failure = exc
            break
        pooled.append(data.edge_states)

    jobs = [(params, _horizon(cfg, key[1]), starts[key][1]) for key, params, _ in fits]
    scores = [
        _rollout_rmse(truth[key][-cfg.n_holdout :], fitted)
        for (key, _, _), fitted in zip(fits, _rollouts(op, family, jobs))
    ]
    if failure is not None:
        raise failure
    for (_, _, metrics), score in zip(fits, scores):
        metrics["rollout_rmse"] = score

    pooled, grid = np.concatenate(pooled), reference_grid(sheaf)
    true_laws: dict = {}  # truth -> (its law, {set: (states, its forces)})
    summary, force_rows, runs = [], [], iter(fits)
    for cond in conditions:
        cond_runs = [next(runs) for _ in cond.seeds]
        row = {"setting": cond.label}
        if cond.basis is not None:
            row["basis"] = cond.basis
        row.update(coverage=cond.coverage, residual_mode=cond.mode)
        for column in stats:
            metric, stat = column.rsplit("_", 1)
            values = np.asarray([m[metric] for _, _, m in cond_runs], dtype=float)
            row[column] = float(values.mean() if stat == "mean" else values.std())
        summary.append({**row, "n_seeds": len(cond_runs)})
        if cond.truth not in true_laws:
            law = family(cond.truth)
            true_laws[cond.truth] = law, {
                "pooled": (pooled, law.force(pooled)), "grid": (grid, law.force(grid))
            }
        law, known = true_laws[cond.truth]
        mses = []
        for key, params, _ in cond_runs:
            holdout = np.concatenate([t.states @ op.B.T for t in truth[key][-cfg.n_holdout :]])
            sets = {"holdout": (holdout, law.force(holdout)), **known}
            mses.append({name: force_mse(family(params), *s) for name, s in sets.items()})
        force_rows.append({"experiment": cfg.experiment_id, "setting": cond.label})
        for name in ("holdout", "pooled", "grid"):
            force_rows[-1][f"{name}_mse_median"] = _median([m[name] for m in mses])
    return ExperimentOutput(cfg.experiment_id, summary, force_rows)


def _median(values: list[float]) -> float:
    """np.median of a few floats, bit for bit, without the numpy.ma import
    behind its NaN check: NaN if any value is, else the middle sorted value
    or the mean of the middle two, summed from +0.0 as numpy's mean sums."""
    if any(math.isnan(v) for v in values):
        return math.nan
    values, half = sorted(values), len(values) // 2
    if len(values) % 2:
        return 0.0 + values[half]
    return (0.0 + values[half - 1] + values[half]) / 2


def run_bounded_confidence(cfg: ExperimentConfig) -> ExperimentOutput:
    """Threshold recovery across coverage and residual-quality regimes.

    Broad coverage starts at three scales and runs the training horizon;
    localized coverage starts every edge in a thin annulus around the cutoff
    and stops the record before the states leave it.  The threshold is fitted
    by grid + golden section; the information number reported is the one at
    the fitted threshold on the training edge states.
    """
    if cfg.experiment_id != "bounded_confidence":
        raise ConfigurationError("config is not for bounded_confidence")
    sheaf = make_cycle_sheaf(cfg.cycle_length, "rotated")

    def fit(cond, op, data):
        result = fit_threshold(op, data, THRESHOLD_BRACKET)
        eps_hat = float(result.theta_hat[0])
        return eps_hat, {
            "threshold_error": abs(eps_hat - TRUE_THRESHOLD),
            "information": result.report.lambda_min,
        }

    conditions = []
    for row in _SWEEPS["bounded_confidence"]:
        broad = row[2] == "broad"
        default_n = THRESHOLD_N_TRAINING if broad else LOCALIZED_N_TRAINING
        conditions.append(
            _Condition(
                *row,
                truth=TRUE_THRESHOLD,
                seeds=sorted(cfg.seeds),
                n_training=default_n if cfg.n_training is None else cfg.n_training,
            )
        )
    stats = ("threshold_error_mean", "threshold_error_std", "rollout_rmse_mean")
    stats += ("rollout_rmse_std", "information_mean", "information_std")
    family = functools.partial(BoundedConfidence, sheaf)
    return _sweep(cfg, sheaf, conditions, fit, family, stats, THRESHOLD_NOISE_STD, noise_tag=())


def run_finite_basis(cfg: ExperimentConfig) -> ExperimentOutput:
    """Monomial-coefficient recovery across basis and coverage regimes.

    Limited coverage starts every trajectory on one small ray, so the higher
    monomials stay unexcited.  The augmented condition adds a constant
    harmonic force to both the true law (with a fixed nonzero coefficient) and
    the fitting basis; since that force is annihilated by delta*, its design
    column is identically zero, the Gram matrix is singular, and the
    minimum-norm fit deterministically drops the harmonic coefficient.  That
    row therefore runs on a single seed.  Every law is written in the
    augmented basis: a correct-basis law has harmonic coefficient 0.0, which
    leaves its force bits as they are.
    """
    if cfg.experiment_id != "finite_basis":
        raise ConfigurationError("config is not for finite_basis")
    sheaf = make_cycle_sheaf(cfg.cycle_length, "identity")
    basis = monomial_basis(sheaf)
    harmonic = ConstantEdgeForce(sheaf, constant_edge_cochain(sheaf, EDGE_CONSTANT))
    augmented = basis + (harmonic,)
    truths = {
        "correct": (*TRUE_MONOMIAL_THETA, 0.0),
        "augmented": (*TRUE_MONOMIAL_THETA, HARMONIC_COEFFICIENT),
    }

    def fit(cond, op, data):
        fit_basis = augmented if cond.basis == "augmented" else basis
        result = fit_linear(op, fit_basis, data)
        theta_hat = result.theta_hat
        target = np.asarray(truths[cond.basis][: len(fit_basis)])
        return np.pad(theta_hat, (0, len(augmented) - theta_hat.size)), {
            "param_error": float(np.linalg.norm(theta_hat - target) / np.linalg.norm(target)),
            "lambda_min": result.report.lambda_min,
            "lambda_max": result.report.lambda_max,
        }

    seeds = sorted(cfg.seeds)
    conditions = [
        _Condition(
            *row,
            truth=truths[row[1]],
            seeds=seeds[:1] if row[1] == "augmented" else seeds,
            n_training=BASIS_N_TRAINING if cfg.n_training is None else cfg.n_training,
        )
        for row in _SWEEPS["finite_basis"]
    ]
    stats = ("param_error_mean", "param_error_std", "rollout_rmse_mean", "rollout_rmse_std")
    stats += ("lambda_min_mean", "lambda_min_std", "lambda_max_mean")
    family = functools.partial(LinearBasisPotential, sheaf, augmented)
    return _sweep(cfg, sheaf, conditions, fit, family, stats, BASIS_NOISE_STD, noise_tag=(9,))


def run_experiment(cfg: ExperimentConfig) -> ExperimentOutput:
    if cfg.experiment_id == "formation_transfer":
        return run_formation_transfer(cfg)
    if cfg.experiment_id == "bounded_confidence":
        return run_bounded_confidence(cfg)
    return run_finite_basis(cfg)


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
