"""Cycle-sheaf builders, coverage designs, force metrics, and reduced sweeps."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sheaf_sysid import experiments
from sheaf_sysid.dynamics import SimConfig, integrate, observe
from sheaf_sysid.errors import ConfigurationError, DivergenceError, UsageError
from sheaf_sysid.experiments import (
    BASIS_NOISE_STD,
    LOCALIZED_BAND,
    STEP,
    TRUE_MONOMIAL_THETA,
    ExperimentConfig,
    _broad_initial_conditions,
    _Condition,
    _initial_conditions,
    _limited_initial_conditions,
    _limited_ray,
    _localized_initial_conditions,
    _median,
    _sweep,
    constant_edge_cochain,
    force_mse,
    make_cycle_sheaf,
    reference_grid,
    rows_to_csv,
    rows_to_text,
    run_bounded_confidence,
    run_experiment,
    run_finite_basis,
    run_formation_transfer,
)
from sheaf_sysid.potentials import (
    LinearBasisPotential,
    ShiftedQuadratic,
    monomial_basis,
    monomial_potential,
)
from sheaf_sysid.sheaf import build_coboundary, harmonic_basis


@pytest.mark.parametrize("n", [3, 5])
def test_cycle_sheaf_harmonic_dimensions(n):
    for variant, expected in (("identity", 2), ("rotated", 0)):
        sheaf = make_cycle_sheaf(n, variant)
        assert harmonic_basis(build_coboundary(sheaf)).shape[1] == expected


@pytest.mark.parametrize("variant", ["identity", "rotated"])
@pytest.mark.parametrize("n", range(3, 41))
def test_cycle_sheaf_closed_form_check_agrees_with_the_svd(n, variant):
    # The closed form: eight quarter-pi rotations close up, so the rotated
    # cycle has harmonic directions on n = 8, 16, 24, ... and only there, as
    # many as the identity cycle has at every length.
    degenerate = variant == "rotated" and n % 8 == 0
    dim_h1 = harmonic_basis(build_coboundary(make_cycle_sheaf(n, variant))).shape[1]
    assert dim_h1 == (2 if variant == "identity" or degenerate else 0)


def test_cycle_sheaf_rejects_bad_args():
    with pytest.raises(ConfigurationError):
        make_cycle_sheaf(2, "identity")
    with pytest.raises(ConfigurationError):
        make_cycle_sheaf(3, "twisted")


def test_constant_cochain_layout():
    sheaf = make_cycle_sheaf(4, "identity")
    c = constant_edge_cochain(sheaf, (2.0, -1.0))
    assert np.array_equal(c, np.tile([2.0, -1.0], 4))
    with pytest.raises(UsageError):
        constant_edge_cochain(sheaf, (1.0, 2.0, 3.0))


def test_reference_grid_is_deterministic_and_covers_extent():
    sheaf = make_cycle_sheaf(3, "identity")
    grid = reference_grid(sheaf)
    assert grid.shape == (21 * 21, sheaf.d1)
    assert np.array_equal(grid, reference_grid(sheaf))
    assert grid.min() == -2.0 and grid.max() == 2.0
    # every edge block carries the same point
    assert np.array_equal(grid[:, 0:2], grid[:, 2:4])


def test_force_mse_zero_for_identical_models():
    sheaf = make_cycle_sheaf(3, "identity")
    model = monomial_potential(sheaf, [1.0, 0.25, 0.03])
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((5, sheaf.d1))
    for states in (pts, reference_grid(sheaf)):
        assert force_mse(model, states, model.force(states)) == 0.0


def test_force_mse_rejects_empty_set():
    sheaf = make_cycle_sheaf(3, "identity")
    model = monomial_potential(sheaf, [1.0, 0.25, 0.03])
    empty = np.zeros((0, sheaf.d1))
    with pytest.raises(UsageError):
        force_mse(model, empty, model.force(empty))


def test_constant_force_gap_gives_exact_mse():
    # two formation laws differing by a constant per-edge force beta*c have
    # force MSE exactly edges * beta^2 * |c|^2 on any evaluation set
    sheaf = make_cycle_sheaf(3, "identity")
    rng = np.random.default_rng(1)
    b = rng.standard_normal(sheaf.d1)
    beta_c = 0.6 * constant_edge_cochain(sheaf, (1.0, 0.0))
    true_law = ShiftedQuadratic(sheaf, b)
    perturbed = ShiftedQuadratic(sheaf, b - beta_c)
    pts = rng.standard_normal((17, sheaf.d1))
    mse = force_mse(perturbed, pts, true_law.force(pts))
    assert abs(mse - 3 * 0.36) <= 1e-12


def test_broad_initial_conditions_span_the_threshold():
    sheaf = make_cycle_sheaf(3, "rotated")
    op = build_coboundary(sheaf)
    rng = np.random.default_rng(2)
    ics = _broad_initial_conditions(rng, op.d0, 24)
    radii = []
    for x0 in ics:
        y = (op.B @ x0).reshape(3, 2)
        radii.extend(np.sqrt((y**2).sum(1)))
    radii = np.asarray(radii)
    assert radii.min() < 0.7 and radii.max() > 1.3
    assert ((radii > 0.85) & (radii < 1.15)).any()


def test_localized_initial_conditions_sit_in_annulus():
    sheaf = make_cycle_sheaf(3, "rotated")
    op = build_coboundary(sheaf)
    rng = np.random.default_rng(3)
    for x0 in _localized_initial_conditions(op, rng, 6):
        y = (op.B @ x0).reshape(3, 2)
        radii = np.sqrt((y**2).sum(1))
        assert np.all(radii >= LOCALIZED_BAND[0]) and np.all(radii <= LOCALIZED_BAND[1])


def test_limited_initial_conditions_are_collinear_and_small():
    sheaf = make_cycle_sheaf(3, "identity")
    op = build_coboundary(sheaf)
    ray = _limited_ray(op, np.random.default_rng(4))
    ics = _limited_initial_conditions(ray, 6)
    directions = np.array([x / np.linalg.norm(x) for x in ics])
    assert np.abs(directions - directions[0]).max() <= 1e-12
    for x0 in ics:
        y = (op.B @ x0).reshape(3, 2)
        assert np.sqrt((y**2).sum(1)).max() <= 0.05 + 1e-12


def test_formation_transfer_table():
    cfg = ExperimentConfig(experiment_id="formation_transfer")
    out = run_formation_transfer(cfg)
    assert [r["sheaf"] for r in out.summary] == [
        "3-cycle, Sheaf A",
        "3-cycle, Sheaf B",
        "5-cycle, Sheaf A",
        "5-cycle, Sheaf B",
    ]
    by_name = {r["sheaf"]: r for r in out.summary}
    assert by_name["3-cycle, Sheaf A"]["max_rollout_diff"] <= 1e-12
    assert by_name["5-cycle, Sheaf A"]["max_rollout_diff"] <= 1e-12
    assert by_name["3-cycle, Sheaf B"]["max_rollout_diff"] >= 0.1
    assert by_name["5-cycle, Sheaf B"]["max_rollout_diff"] >= 0.1
    # the constant-force gap makes the MSE analytic: edges * beta^2
    assert abs(by_name["3-cycle, Sheaf A"]["force_mse"] - 1.08) <= 1e-12
    assert abs(by_name["3-cycle, Sheaf B"]["force_mse"] - 1.08) <= 1e-12
    assert abs(by_name["5-cycle, Sheaf A"]["force_mse"] - 1.80) <= 1e-12
    assert abs(by_name["5-cycle, Sheaf B"]["force_mse"] - 1.80) <= 1e-12
    # indistinguishable rollouts never mean equal laws
    for row in out.summary:
        assert row["force_mse"] > 1.0


def test_formation_transfer_is_deterministic():
    cfg = ExperimentConfig(experiment_id="formation_transfer")
    a = run_formation_transfer(cfg)
    b = run_formation_transfer(cfg)
    assert a.summary == b.summary


REDUCED = dict(seeds=(0, 1), n_training=6, training_horizon=4.0, n_holdout=2)


def test_bounded_confidence_reduced_sweep():
    cfg = ExperimentConfig(experiment_id="bounded_confidence", **REDUCED)
    out = run_bounded_confidence(cfg)
    rows = {r["setting"]: r for r in out.summary}
    assert set(rows) == {"Broad / Obs.", "Localized / Obs.", "Broad / FD", "Localized / FD"}
    assert rows["Broad / Obs."]["threshold_error_mean"] <= 1e-8
    assert rows["Localized / Obs."]["threshold_error_mean"] <= 1e-6
    assert rows["Broad / FD"]["threshold_error_mean"] >= 1e-5
    assert rows["Broad / Obs."]["information_mean"] > rows["Localized / Obs."]["information_mean"]
    force = {r["setting"]: r for r in out.force_checks}
    assert force["Broad / Obs."]["grid_mse_median"] <= 1e-12


def test_bounded_confidence_determinism():
    cfg = ExperimentConfig(experiment_id="bounded_confidence", **REDUCED)
    a = run_bounded_confidence(cfg)
    b = run_bounded_confidence(cfg)
    assert a.summary == b.summary and a.force_checks == b.force_checks
    # every condition of the study's table runs, in table order
    table = experiments._SWEEPS["bounded_confidence"]
    assert [r["setting"] for r in a.summary] == [row[0] for row in table]


def test_bounded_confidence_five_cycle_broad_recovery():
    cfg = ExperimentConfig(
        experiment_id="bounded_confidence",
        cycle_length=5,
        seeds=(0,),
        n_training=6,
        training_horizon=4.0,
        n_holdout=2,
    )
    rows = {r["setting"]: r for r in run_bounded_confidence(cfg).summary}
    assert rows["Broad / Obs."]["threshold_error_mean"] <= 1e-6


def test_finite_basis_reduced_sweep():
    cfg = ExperimentConfig(experiment_id="finite_basis", **REDUCED)
    out = run_finite_basis(cfg)
    rows = {r["setting"]: r for r in out.summary}
    assert rows["Correct / Broad / Obs."]["param_error_mean"] <= 1e-10
    assert rows["Correct / Broad / Obs."]["lambda_min_mean"] > 1.0
    aug = rows["Augmented / Obs."]
    assert aug["n_seeds"] == 1
    assert abs(aug["param_error_mean"] - 0.4363) <= 1e-3
    assert aug["lambda_min_mean"] <= 1e-10 * aug["lambda_max_mean"]
    assert aug["rollout_rmse_mean"] <= 1e-10
    assert rows["Correct / Limited / Obs."]["lambda_min_mean"] <= 1e-12


@pytest.mark.parametrize("study", ["bounded_confidence", "finite_basis"])
@pytest.mark.parametrize("seeds", [(0,), (1, 0)])
def test_a_sweep_makes_four_integrate_calls_for_any_seed_count(monkeypatch, study, seeds):
    # two calls, whatever the laws and record lengths: one for every truth
    # start set, one for every fitted law
    rows = []

    def counting(op, model, x0, cfg, ends=None):
        rows.append(len(x0))
        return integrate(op, model, x0, cfg, ends)

    monkeypatch.setattr(experiments, "integrate", counting)
    short = dict(n_training=3, training_horizon=0.2, n_holdout=2)
    run_experiment(ExperimentConfig(experiment_id=study, seeds=seeds, **short))
    n = len(seeds)
    if study == "bounded_confidence":  # broad and localized records, two fits each
        expected = [10 * n, 8 * n]
    else:  # the correct law on two coverages, the augmented law on one seed
        expected = [10 * n + 5, 8 * n + 2]
    assert rows == expected


@pytest.mark.parametrize("coverage, cov_id", [("broad", 0), ("limited", 2)])
def test_finite_difference_records_are_observed_under_their_seed_path(
    monkeypatch, coverage, cov_id
):
    records, real = [], experiments.residual_dataset

    def spy(op, trajectories, mode):
        records.append(trajectories)
        return real(op, trajectories, mode)

    monkeypatch.setattr(experiments, "residual_dataset", spy)
    cfg = ExperimentConfig(
        experiment_id="finite_basis", seeds=(2,), training_horizon=0.2, n_training=3, n_holdout=1
    )
    run_experiment(cfg)
    # one residual build per condition, in sweep order, on the single seed
    conditions = [row[2:] for row in experiments._SWEEPS["finite_basis"]]
    observed = records[conditions.index((coverage, "finite_difference"))]
    sheaf = make_cycle_sheaf(3, "identity")
    op = build_coboundary(sheaf)
    train, _ = _initial_conditions(op, coverage, 2, (3, 1))
    truth = monomial_potential(sheaf, np.asarray(TRUE_MONOMIAL_THETA))
    clean = integrate(op, truth, np.asarray(train), SimConfig(horizon=0.2))
    # (seed, coverage id, finite-difference mode id, the study's tag 9, record index)
    for i, (got, t) in enumerate(zip(observed, clean)):
        assert np.array_equal(got.states, observe(t, BASIS_NOISE_STD, (2, cov_id, 1, 9, i)).states)


def _diverging_sweep(plan):
    """The config, sheaf, conditions, fit and law family of a two-condition,
    two-seed monomial sweep whose fit returns, pair by pair in sweep order, the
    coefficients in ``plan``; an exception in the plan is raised by that
    pair's fit instead."""
    sheaf = make_cycle_sheaf(3, "identity")
    cfg = ExperimentConfig(
        experiment_id="finite_basis", seeds=(0, 1), n_training=3, training_horizon=2.0, n_holdout=2
    )
    conditions = [
        _Condition(label, "correct", coverage, "observed", TRUE_MONOMIAL_THETA, [0, 1], 2.0, 3)
        for label, coverage in (("A", "broad"), ("B", "limited"))
    ]
    steps = iter(plan)

    def fit(cond, op, data):
        theta = next(steps)
        if isinstance(theta, Exception):
            raise theta
        return np.asarray(theta), {}

    def family(theta):
        return LinearBasisPotential(sheaf, monomial_basis(sheaf), theta)

    return cfg, sheaf, conditions, fit, family


def _first_error_of_the_pair_loop(plan):
    """The error a loop that rolls out each pair's fitted law alone meets first."""
    _, sheaf, conditions, _, family = _diverging_sweep(plan)
    op = build_coboundary(sheaf)
    pairs = [(cond, seed) for cond in conditions for seed in cond.seeds]
    for (cond, seed), theta in zip(pairs, plan):
        if isinstance(theta, Exception):
            return theta
        hold = _initial_conditions(op, cond.coverage, seed, (3, 2))[1]
        sim = SimConfig(horizon=2.0, step=STEP)
        for result in integrate(op, family(theta), np.asarray(hold), sim):
            if isinstance(result, DivergenceError):
                return result
    raise AssertionError("the plan never fails")


# Anti-diffusion blows up, and faster for the larger coefficient, so the later
# pair in sweep order (B, seed 0) diverges at an earlier time than (A, seed 1).
_STABLE = TRUE_MONOMIAL_THETA
_SLOW, _FAST = (-300.0, 0.0, 0.0), (-3000.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "plan",
    [
        [_STABLE, _SLOW, _FAST, _STABLE],
        [_STABLE, _SLOW, UsageError("fit failed"), _STABLE],
        [_STABLE, UsageError("fit failed"), _FAST, _STABLE],
    ],
    ids=["two-diverging-fits", "divergence-before-a-fit-error", "fit-error-first"],
)
def test_a_batched_sweep_raises_the_error_the_pair_loop_meets_first(plan):
    expected = _first_error_of_the_pair_loop(plan)
    cfg, sheaf, conditions, fit, family = _diverging_sweep(plan)
    with pytest.raises(type(expected)) as raised:
        _sweep(cfg, sheaf, conditions, fit, family, ("rollout_rmse_mean",), 1e-4, (9,))
    assert str(raised.value) == str(expected)
    if isinstance(expected, DivergenceError):
        assert raised.value.time == expected.time > 0


def test_a_sweep_whose_first_fit_fails_raises_that_error():
    # no fitted law precedes it, so there is no fitted rollout to run first
    plan = [UsageError("first fit failed"), _STABLE, _STABLE, _STABLE]
    cfg, sheaf, conditions, fit, family = _diverging_sweep(plan)
    with pytest.raises(UsageError, match="first fit failed"):
        _sweep(cfg, sheaf, conditions, fit, family, ("rollout_rmse_mean",), 1e-4, (9,))


def test_the_two_diverging_fits_blow_up_in_the_opposite_order_of_time():
    slow = _first_error_of_the_pair_loop([_STABLE, _SLOW, _STABLE, _STABLE])
    fast = _first_error_of_the_pair_loop([_STABLE, _STABLE, _FAST, _STABLE])
    assert 0 < fast.time < slow.time


@pytest.mark.parametrize(
    "key, value",
    [
        ("cycle_length", 5),
        ("n_training", 4),
        ("n_holdout", 2),
        ("training_horizon", 5.0),
        ("seeds", (3,)),
        ("seeds", (1, 2, 3)),
    ],
)
def test_formation_transfer_rejects_fields_it_does_not_read(key, value):
    with pytest.raises(ConfigurationError, match=f"formation_transfer takes no {key}"):
        ExperimentConfig(experiment_id="formation_transfer", **{key: value})


def test_formation_transfer_accepts_the_fields_it_reads():
    # it reads only its id and runs at FORMATION_SEED; a field at its default
    # is not an ignored input
    cfg = ExperimentConfig(experiment_id="formation_transfer", seeds=tuple(range(8)))
    assert experiments.FORMATION_SEED == 0 and cfg.seeds == tuple(range(8))
    ExperimentConfig(experiment_id="formation_transfer", cycle_length=3, n_holdout=4)


def test_training_horizon_of_whole_steps_up_to_rounding_is_accepted():
    # 0.29 / 0.01 is 28.999999999999996 steps, 0.07 / 0.01 is 7.000000000000001
    ExperimentConfig(experiment_id="finite_basis", training_horizon=0.29)
    ExperimentConfig(experiment_id="bounded_confidence", training_horizon=0.07)
    ExperimentConfig(experiment_id="finite_basis", training_horizon=STEP)


@pytest.mark.parametrize("n", [8, 16, 64])
def test_threshold_study_rejects_a_rotated_cycle_with_harmonic_space(n):
    with pytest.raises(ConfigurationError, match=f"cycle_length {n} is a multiple of 8"):
        ExperimentConfig(experiment_id="bounded_confidence", cycle_length=n)
    # the basis study runs the identity cycle, which exists at every length
    ExperimentConfig(experiment_id="finite_basis", cycle_length=n)


def test_rotated_cycle_check_agrees_with_the_sheaf_it_builds():
    # bounded_confidence refuses exactly the lengths whose rotated cycle has H^1 != 0
    refused = []
    for n in range(3, 26):
        if harmonic_basis(build_coboundary(make_cycle_sheaf(n, "rotated"))).shape[1]:
            refused.append(n)
            with pytest.raises(ConfigurationError, match="cycle_length"):
                ExperimentConfig(experiment_id="bounded_confidence", cycle_length=n)
        else:
            ExperimentConfig(experiment_id="bounded_confidence", cycle_length=n)
    assert refused == [8, 16, 24]


@pytest.mark.parametrize(
    "key, value",
    [
        ("cycle_length", 2),
        ("cycle_length", "x"),
        ("cycle_length", 3.0),
        ("cycle_length", True),
        ("n_holdout", 0),
        ("n_holdout", 1.5),
        ("n_training", 0),
        ("n_training", "4"),
        ("training_horizon", 0.005),
        ("training_horizon", math.inf),
        ("training_horizon", "10"),
        ("training_horizon", 0.015),  # not a whole number of steps
        ("training_horizon", 1.005),
        ("seeds", (0, 0)),
        ("n_training", 2.5),
        ("n_holdout", -1),
        ("training_horizon", math.nan),
        ("seeds", (0, "1")),
        ("seeds", (1.5,)),
        ("seeds", (-1,)),
        ("seeds", (True,)),
        ("training_horizon", 0.0),  # zero steps
        pytest.param("training_horizon", 10**400, id="training_horizon-400_digits"),
    ],
)
def test_experiment_config_rejects_bad_numbers(key, value):
    with pytest.raises(ConfigurationError, match=key):
        ExperimentConfig(experiment_id="finite_basis", **{key: value})


def test_experiment_config_accepts_edge_numbers():
    cfg = ExperimentConfig(
        experiment_id="finite_basis",
        cycle_length=np.int64(5),
        seeds=(np.int64(0), 3),
        n_training=1,
        n_holdout=1,
        training_horizon=STEP,
    )
    assert cfg.training_horizon == STEP


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment_id="mystery")
    with pytest.raises(ConfigurationError):
        ExperimentConfig(experiment_id="finite_basis", seeds=())


def test_table_rendering_roundtrip():
    rows = [{"setting": "a", "value": 1.5}, {"setting": "b", "value": 2.0}]
    csv = rows_to_csv(rows)
    assert csv.splitlines()[0] == "setting,value"
    assert csv.splitlines()[1] == "a,1.5"
    text = rows_to_text(rows)
    assert "setting" in text and "1.500e+00" in text


@pytest.mark.parametrize(
    "values",
    [
        [2.0],
        [3.0, 1.0, 2.0],
        [4.0, 1.0, 3.0, 2.0],
        [1.0, 1.0, 2.0, 2.0],  # ties
        [0.1 + 0.2, 1 / 3, 1 / 3, 5e-324, 1e16, -0.0, 0.0, 7.0],
        [-0.0],
        [-0.0, -0.0],
        [1e308, 1e308],  # the middle two overflow when summed
        [math.inf, 1.0, -math.inf],
        [math.inf, -math.inf],
        [math.inf, 2.0, math.inf, 1.0],
        [1.0, math.nan, 2.0],
        [math.nan, math.inf],
    ],
)
def test_median_equals_numpy_median_bit_for_bit(values):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.median(values)
    got = _median(list(values))
    assert isinstance(got, float)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


_STUDY_IMPORTS = """
import sys
from sheaf_sysid import ExperimentConfig, run_experiment
short = dict(seeds=(0, 1), n_training=2, training_horizon=0.05, n_holdout=1)
for study in ("formation_transfer", "bounded_confidence", "finite_basis"):
    kwargs = short if study != "formation_transfer" else {}
    run_experiment(ExperimentConfig(experiment_id=study, **kwargs))
    print(study, "numpy.ma" in sys.modules)
"""


def test_no_study_imports_numpy_ma():
    # np.median's NaN check imports numpy.ma: 14 ms and 1.3 MB of a fresh process
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-c", _STUDY_IMPORTS], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [
        "formation_transfer", "False", "bounded_confidence", "False", "finite_basis", "False"
    ]
