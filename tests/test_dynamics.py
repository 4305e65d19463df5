"""Integration, equilibria, ensembles, and trajectory files."""

import re
import warnings

import numpy as np
import pytest
from conftest import random_sheaf
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sheaf_sysid.dynamics import (
    SimConfig,
    Trajectory,
    _laplacian,
    equilibrium_projection,
    integrate,
    load_trajectory_csv,
    observe,
    save_trajectory_csv,
    simulate_ensemble,
)
from sheaf_sysid.errors import DivergenceError, ParameterError, StructuralError, UsageError
from sheaf_sysid.experiments import make_cycle_sheaf
from sheaf_sysid.potentials import (
    Antagonistic,
    BoundedConfidence,
    ConstantEdgeForce,
    LinearBasisPotential,
    Quadratic,
    ShiftedQuadratic,
    monomial_basis,
    monomial_potential,
)
from sheaf_sysid.sheaf import (
    apply_delta,
    build_coboundary,
    global_section_basis,
    sheaf_from_dict,
)
from sheaf_sysid.sysid import residuals_exact


def test_quadratic_laplacian_is_linear(identity_cycle):
    sheaf, op = identity_cycle
    L = op.delta_star_matrix @ op.B
    rng = np.random.default_rng(0)
    model = Quadratic(sheaf)
    for _ in range(5):
        x = rng.standard_normal(op.d0)
        assert np.abs(_laplacian(op, model, x) - L @ x).max() <= 1e-12


def test_laplacian_vanishes_on_global_sections(identity_cycle):
    sheaf, op = identity_cycle
    x = np.tile([1.0, 2.0], 3)
    for model in (Quadratic(sheaf), BoundedConfidence(sheaf, 1.0)):
        assert np.allclose(_laplacian(op, model, x), 0.0)


def test_harmonic_shift_does_not_change_laplacian(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(1)
    z = np.tile([0.4, -0.9], 3)  # harmonic on the identity cycle
    b = rng.standard_normal(op.d1)
    plain = ShiftedQuadratic(sheaf, b)
    shifted = ShiftedQuadratic(sheaf, b + z)
    for _ in range(5):
        x = rng.standard_normal(op.d0)
        a = _laplacian(op, plain, x)
        c = _laplacian(op, shifted, x)
        assert np.abs(a - c).max() <= 1e-12


@pytest.mark.parametrize("variant", ["identity", "rotated"])
def test_vector_field_is_the_negated_laplacian_bit_for_bit(variant):
    # x' = -1.0 * delta*(Phi(delta x)) and r = -x', signed zeros included
    sheaf = make_cycle_sheaf(5, variant)
    op = build_coboundary(sheaf)
    starts = np.vstack([np.zeros(op.d0), np.random.default_rng(6).standard_normal((3, op.d0))])
    laws = (
        BoundedConfidence(sheaf, 1.0),
        monomial_potential(sheaf, [1.0, 0.25, 0.03]),
        Antagonistic(sheaf, [0, 2]),
    )
    for model in laws:
        for traj in integrate(op, model, starts, SimConfig(horizon=0.2)):
            field = -1.0 * _laplacian(op, model, traj.states)
            assert traj.derivs.tobytes() == field.tobytes()
            assert residuals_exact(op, traj).residuals.tobytes() == (-traj.derivs).tobytes()


def test_constant_trajectory_from_global_section(identity_cycle):
    sheaf, op = identity_cycle
    x0 = np.tile([0.5, -1.0], 3)
    traj = integrate(op, Quadratic(sheaf), x0, SimConfig(horizon=1.0))
    assert np.abs(traj.states - x0).max() <= 1e-14
    assert np.abs(traj.derivs).max() <= 1e-14


def test_linear_dynamics_match_eigen_solution(identity_cycle):
    # independent oracle: closed-form solution of x' = -Lx via eigendecomposition
    sheaf, op = identity_cycle
    L = op.delta_star_matrix @ op.B
    eigvals, eigvecs = np.linalg.eigh(L)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(op.d0)
    traj = integrate(op, Quadratic(sheaf), x0, SimConfig(horizon=2.0))
    for k in (50, 120, 200):
        t = traj.times[k]
        expected = eigvecs @ (np.exp(-eigvals * t) * (eigvecs.T @ x0))
        assert np.abs(traj.states[k] - expected).max() <= 1e-8


def test_linear_dynamics_converge_to_section_projection(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(op.d0)
    traj = integrate(op, Quadratic(sheaf), x0, SimConfig(horizon=12.0))
    sections = global_section_basis(op)
    proj = sections @ (sections.T @ (op.M1 @ x0))
    assert np.abs(traj.states[-1] - proj).max() <= 1e-9
    # residual decays exponentially: check a factor drop every unit of time
    gaps = [np.linalg.norm(traj.states[k] - proj) for k in (0, 100, 200, 300)]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= 0.2 * a


def test_rk4_step_halving_on_threshold_dynamics(rotated_cycle):
    sheaf, op = rotated_cycle
    model = BoundedConfidence(sheaf, 1.0)
    rng = np.random.default_rng(4)
    x0 = 0.8 * rng.standard_normal(op.d0)
    coarse = integrate(op, model, x0, SimConfig(horizon=5.0, step=0.01))
    fine = integrate(op, model, x0, SimConfig(horizon=5.0, step=0.005))
    assert np.abs(coarse.states[-1] - fine.states[-1]).max() <= 1e-8


def test_rk4_is_fourth_order(identity_cycle):
    sheaf, op = identity_cycle
    model = monomial_potential(sheaf, [1.0, 0.25, 0.03])
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal(op.d0)

    def terminal(step):
        return integrate(op, model, x0, SimConfig(horizon=1.0, step=step)).states[-1]

    reference = terminal(0.01 / 16)
    err_coarse = np.linalg.norm(terminal(0.01) - reference)
    err_fine = np.linalg.norm(terminal(0.005) - reference)
    assert err_coarse / err_fine >= 12.0


def test_equilibrium_projection_with_zero_target(identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(6)
    x0 = rng.standard_normal(op.d0)
    sections = global_section_basis(op)
    proj = sections @ (sections.T @ (op.M1 @ x0))
    assert np.allclose(equilibrium_projection(op, np.zeros(op.d1), x0), proj)


def test_equilibrium_independent_of_start_without_sections(rotated_cycle):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(7)
    b = rng.standard_normal(op.d1)
    eq1 = equilibrium_projection(op, b, rng.standard_normal(op.d0))
    eq2 = equilibrium_projection(op, b, rng.standard_normal(op.d0))
    assert np.allclose(eq1, eq2, atol=1e-12)


@pytest.mark.parametrize("variant,horizon", [("identity", 20.0), ("rotated", 30.0)])
def test_shifted_quadratic_converges_to_predicted_equilibrium(variant, horizon):
    # the rotated cycle's slowest mode decays at rate ~0.59, hence the longer run
    sheaf = make_cycle_sheaf(3, variant)
    op = build_coboundary(sheaf)
    rng = np.random.default_rng(8)
    b = rng.standard_normal(op.d1)
    x0 = rng.standard_normal(op.d0)
    traj = integrate(
        op, ShiftedQuadratic(sheaf, b), x0, SimConfig(horizon=horizon)
    )
    predicted = equilibrium_projection(op, b, x0)
    assert np.abs(traj.states[-1] - predicted).max() <= 1e-6


def test_energy_dissipates_along_noiseless_trajectories():
    # moderate amplitudes keep random stiff instances inside RK4 stability
    rng = np.random.default_rng(9)
    for trial in range(10):
        sheaf = random_sheaf(rng, n_vertices=3, n_edges=4)
        op = build_coboundary(sheaf)
        model = [
            Quadratic(sheaf),
            ShiftedQuadratic(sheaf, rng.standard_normal(op.d1)),
            BoundedConfidence(sheaf, 1.0),
            monomial_potential(sheaf, [1.0, 0.25, 0.03]),
        ][trial % 4]
        x0 = 0.3 * rng.standard_normal(op.d0)
        traj = integrate(op, model, x0, SimConfig(horizon=2.0, step=0.005))
        energies = model.value(apply_delta(op, traj.states))
        assert np.all(np.diff(energies) <= 1e-9)


def test_divergence_raises_with_time(identity_cycle):
    sheaf, op = identity_cycle
    model = Antagonistic(sheaf, [0, 1, 2])
    x0 = np.array([1.0, 0.0, -1.0, 0.5, 0.3, -0.2])
    with pytest.raises(DivergenceError) as info:
        integrate(op, model, x0, SimConfig(horizon=300.0))
    assert info.value.time is not None and info.value.time > 0.0


def test_ensemble_empty_and_deterministic(rotated_cycle):
    sheaf, op = rotated_cycle
    model = BoundedConfidence(sheaf, 1.0)
    cfg = SimConfig(horizon=0.5)
    assert simulate_ensemble(op, model, [], cfg) == []
    rng = np.random.default_rng(10)
    ics = [rng.standard_normal(op.d0) for _ in range(3)]
    first = simulate_ensemble(op, model, ics, cfg)
    second = simulate_ensemble(op, model, ics, cfg)
    for a, b in zip(first, second):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivs, b.derivs)


def test_ensemble_contains_divergence_without_aborting(identity_cycle):
    sheaf, op = identity_cycle
    model = Antagonistic(sheaf, [0, 1, 2])
    benign = np.tile([0.1, 0.1], 3)  # a global section: stays put
    hot = np.array([1.0, 0.0, -1.0, 0.5, 0.3, -0.2])
    results = simulate_ensemble(
        op, model, [hot, benign], SimConfig(horizon=300.0)
    )
    assert isinstance(results[0], DivergenceError)
    assert isinstance(results[1], Trajectory)


@pytest.fixture(params=["rotated_3", "mixed", "rotated_101"])
def batch_case(request, rotated_cycle, mixed_sheaf):
    """Identity-Gram cycles, narrow and wide, and a weighted mixed-dimension sheaf."""
    if request.param == "rotated_3":
        sheaf, op = rotated_cycle
    elif request.param == "mixed":
        sheaf, op = mixed_sheaf, build_coboundary(mixed_sheaf)
    else:
        sheaf = make_cycle_sheaf(101, "rotated")
        op = build_coboundary(sheaf)
    return op, BoundedConfidence(sheaf, 1.0)


def test_batched_rows_are_bit_identical_to_solo_runs(batch_case):
    op, model = batch_case
    rng = np.random.default_rng(21)
    starts = 0.8 * rng.standard_normal((37, op.d0))
    cfg = SimConfig(horizon=0.1)
    solo = [integrate(op, model, x0, cfg) for x0 in starts]
    for size in (1, 7, 37):
        for first in range(0, 37, size):
            batch = integrate(op, model, starts[first : first + size], cfg)
            assert len(batch) == min(size, 37 - first)
            for i, traj in enumerate(batch, start=first):
                assert np.array_equal(traj.states, solo[i].states)
                assert np.array_equal(traj.derivs, solo[i].derivs)


def test_diverging_rows_keep_their_solo_times_and_spare_their_neighbours(rotated_cycle):
    # Large monomial starts overshoot RK4's stability limit within a few steps.
    sheaf, op = rotated_cycle
    model = monomial_potential(sheaf, [1.0, 0.25, 0.03])
    rng = np.random.default_rng(40)
    d = rng.standard_normal(op.d0)
    starts = np.stack([d, 6.0 * d, 0.5 * rng.standard_normal(op.d0), 3.0 * d])
    cfg = SimConfig(horizon=1.0)
    batch = integrate(op, model, starts, cfg)
    times = []
    for i in (1, 3):
        with pytest.raises(DivergenceError) as solo:
            integrate(op, model, starts[i], cfg)
        assert isinstance(batch[i], DivergenceError)
        assert batch[i].time == solo.value.time
        times.append(batch[i].time)
    assert times[0] < times[1]  # the rows blow up at different steps
    for i in (0, 2):
        alone = integrate(op, model, starts[i], cfg)
        assert np.array_equal(batch[i].states, alone.states)
        assert np.array_equal(batch[i].derivs, alone.derivs)
        assert np.abs(alone.states[-1] - alone.states[0]).max() > 0.1


def _solo(op, model, x0, cfg):
    try:
        return integrate(op, model, x0, cfg)
    except DivergenceError as exc:
        return exc


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["threshold", "basis"]),
    n_rows=st.integers(2, 6),
    hot=st.integers(0, 5),
)
def test_row_parameter_batches_keep_every_row_on_its_solo_bits(seed, family, n_rows, hot):
    rng = np.random.default_rng(seed)
    sheaf = random_sheaf(rng)  # weighted, stalks of dimension 1 to 3
    assume(len(set(sheaf.edge_stalk_dims)) > 1)
    op = build_coboundary(sheaf)
    hot %= n_rows
    starts = 0.5 * rng.standard_normal((n_rows, op.d0))
    if family == "threshold":
        params = rng.uniform(0.25, 4.0, n_rows)

        def law(p):
            return BoundedConfidence(sheaf, p)

        # The bounded law cannot blow up (its force vanishes above the
        # threshold), so its diverging row starts non-finite.
        starts[hot, 0] = np.inf
    else:
        basis = monomial_basis(sheaf) + (ConstantEdgeForce(sheaf, rng.standard_normal(sheaf.d1)),)
        params = np.column_stack(
            [
                rng.uniform(-0.5, 1.0, n_rows),
                rng.uniform(0.0, 0.5, n_rows),
                rng.uniform(0.1, 0.5, n_rows),
                # some rows without the constant force, whose +0.0 would flip -0.0
                rng.choice([0.0, 1.0], n_rows) * rng.standard_normal(n_rows),
            ]
        )

        def law(p):
            return LinearBasisPotential(sheaf, basis, p)

        starts[hot] *= 50.0  # the cubic term overshoots RK4's stability limit
    cfg = SimConfig(horizon=0.3)
    batch = integrate(op, law(params), starts, cfg)
    assert isinstance(batch[hot], DivergenceError)
    if family == "basis":
        assert batch[hot].time > 0  # mid-run, with the other rows still stepping
    for i, got in enumerate(batch):
        alone = _solo(op, law(params[i]), starts[i], cfg)
        assert type(got) is type(alone)
        if isinstance(alone, DivergenceError):
            assert (str(got), got.time) == (str(alone), alone.time)
        else:
            assert np.array_equal(got.states, alone.states)
            assert np.array_equal(got.derivs, alone.derivs)
            assert np.array_equal(np.signbit(got.derivs), np.signbit(alone.derivs))


def _count_force_rows(monkeypatch, cls) -> list[int]:
    """The row count of every batch cls.force evaluates from now on."""
    rows, force = [], cls.force

    def counted(self, y):
        rows.append(len(y))
        return force(self, y)

    monkeypatch.setattr(cls, "force", counted)
    return rows


# Anti-diffusion: a row at theta[0] = -300 overflows within the first steps.
_HOT = (-300.0, 0.0, 0.0)


def _solo_blowup_step(op, sheaf, theta, x0, cfg) -> int:
    with pytest.raises(DivergenceError) as blowup:
        integrate(op, monomial_potential(sheaf, theta), x0, cfg)
    return round(blowup.value.time / cfg.step)


def test_a_row_parameter_model_sees_every_row_on_every_evaluation(rotated_cycle, monkeypatch):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(41)
    starts = 0.5 * rng.standard_normal((4, op.d0))
    theta = np.array([(1.0, 0.25, 0.03), _HOT, (0.5, 0.1, 0.2), (1.0, 0.0, 0.1)])
    ends = [0.3, 0.3, 0.02, 0.3]  # row 2 ends early, row 1 diverges
    rows = _count_force_rows(monkeypatch, LinearBasisPotential)
    batch = integrate(op, monomial_potential(sheaf, theta), starts, SimConfig(horizon=0.3), ends)
    assert isinstance(batch[1], DivergenceError) and batch[2].n_samples == 3
    assert len(rows) == 4 * 30 + 1 and set(rows) == {4}  # stepped to the last step


def test_rows_that_end_before_their_blowup_keep_their_solo_bits(rotated_cycle):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(42)
    starts = rng.standard_normal((3, op.d0))
    theta = np.array([_HOT, _HOT, (1.0, 0.25, 0.03)])
    cfg = SimConfig(horizon=0.5)
    k = _solo_blowup_step(op, sheaf, theta[0], starts[0], cfg)
    assert k > 1
    # row 0 ends one step before its blow-up and is stepped on past it
    ends = [0.01 * (k - 1), 0.5, 0.5]
    batch = integrate(op, monomial_potential(sheaf, theta), starts, cfg, ends=ends)
    assert isinstance(batch[0], Trajectory) and isinstance(batch[1], DivergenceError)
    for i, (got, end) in enumerate(zip(batch, ends)):
        alone = _solo(op, monomial_potential(sheaf, theta[i]), starts[i], SimConfig(horizon=end))
        _assert_same_record(got, alone)


def test_the_loop_stops_once_every_row_has_blown_up(rotated_cycle, monkeypatch):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(43)
    starts = rng.standard_normal((3, op.d0))
    theta = np.array([_HOT, (-100.0, 0.0, 0.0), _HOT])
    cfg = SimConfig(horizon=10.0)
    k = max(_solo_blowup_step(op, sheaf, p, x0, cfg) for p, x0 in zip(theta, starts))
    rows = _count_force_rows(monkeypatch, LinearBasisPotential)
    batch = integrate(op, monomial_potential(sheaf, theta), starts, cfg)
    assert all(isinstance(r, DivergenceError) for r in batch)
    assert max(round(r.time / cfg.step) for r in batch) == k < 1000
    assert len(rows) <= 4 * k + 4


def _assert_same_record(got, alone):
    """got and alone are the same DivergenceError, or the same trajectory with
    every time, state and derivative bit for bit (signs of zero included)."""
    assert type(got) is type(alone)
    if isinstance(alone, DivergenceError):
        assert (str(got), got.time) == (str(alone), alone.time)
        return
    for a, b in ((got.times, alone.times), (got.states, alone.states), (got.derivs, alone.derivs)):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_rows_with_their_own_ends_keep_the_bits_of_a_solo_run_at_that_horizon(batch_case):
    op, model = batch_case
    starts = 0.8 * np.random.default_rng(22).standard_normal((9, op.d0))
    ends = [0.01, 0.2, 0.05, 0.2, 0.13, 0.01, 0.07, 0.2, 0.05]
    batch = integrate(op, model, x0=starts, cfg=SimConfig(horizon=0.2), ends=ends)
    for got, x0, end in zip(batch, starts, ends):
        assert got.n_samples == round(end / 0.01) + 1
        _assert_same_record(got, integrate(op, model, x0, SimConfig(horizon=end)))


def test_a_divergence_after_a_rows_end_is_never_seen(rotated_cycle):
    sheaf, op = rotated_cycle
    model = monomial_potential(sheaf, [-300.0, 0.0, 0.0])  # anti-diffusion overflows
    x0 = np.random.default_rng(40).standard_normal(op.d0)
    with pytest.raises(DivergenceError) as blowup:
        integrate(op, model, x0, SimConfig(horizon=0.5))
    k = round(blowup.value.time / 0.01)
    assert k > 1
    ends = [0.01 * (k - 1), 0.01 * k, 0.5]
    batch = integrate(op, model, np.stack([x0] * 3), SimConfig(horizon=0.5), ends=ends)
    assert isinstance(batch[0], Trajectory) and batch[0].n_samples == k
    assert batch[1].time == batch[2].time == blowup.value.time
    for got, end in zip(batch, ends):
        _assert_same_record(got, _solo(op, model, x0, SimConfig(horizon=end)))


@pytest.mark.parametrize(
    "ends",
    [
        [0.05, 0.105],  # not a whole number of steps
        [0.1, 0.0],
        [0.1, 0.005],  # below one step
        [0.1, -0.1],
        [0.1, 0.3],  # beyond the horizon
        [0.1, np.nan],
        [0.1, np.inf],
        [0.1],  # not one per row
        [0.1, 0.1, 0.1],
        [[0.1, 0.1]],
    ],
)
def test_ends_must_be_whole_steps_up_to_the_horizon_one_per_row(rotated_cycle, ends):
    sheaf, op = rotated_cycle
    with pytest.raises(ParameterError, match="ends must be 2 whole numbers of steps"):
        integrate(op, Quadratic(sheaf), np.ones((2, op.d0)), SimConfig(horizon=0.2), ends=ends)


@pytest.mark.parametrize("family", ["threshold", "basis"])
def test_row_parameter_models_follow_rows_that_end_and_rows_that_diverge(mixed_sheaf, family):
    # Rows end before and after another row's divergence; each row must keep
    # its own parameters in the fixed batch before and after both.
    sheaf = mixed_sheaf
    op = build_coboundary(sheaf)
    rng = np.random.default_rng(23)
    starts = 0.5 * rng.standard_normal((6, op.d0))
    if family == "threshold":
        params = rng.uniform(0.25, 4.0, 6)

        def law(p):
            return BoundedConfidence(sheaf, p)

        starts[3, 0] = np.inf  # the bounded law cannot blow up, so this row starts non-finite
    else:
        basis = monomial_basis(sheaf) + (ConstantEdgeForce(sheaf, rng.standard_normal(sheaf.d1)),)
        params = np.column_stack(
            [
                rng.uniform(0.5, 1.0, 6),
                rng.uniform(0.0, 0.5, 6),
                rng.uniform(0.1, 0.5, 6),
                [0.0, 1.0, 0.0, 1.0, 1.0, -0.0],  # zero-constant rows among constant ones
            ]
        )
        params[3, :3] = (-300.0, 0.0, 0.0)  # anti-diffusion: row 3 blows up mid-run

        def law(p):
            return LinearBasisPotential(sheaf, basis, p)

    ends = [0.05, 0.3, 0.1, 0.3, 0.01, 0.2]
    batch = integrate(op, law(params), starts, SimConfig(horizon=0.3), ends=ends)
    assert isinstance(batch[3], DivergenceError)
    if family == "basis":
        assert 0.05 < batch[3].time < 0.2  # between the ends of other rows
    for i, got in enumerate(batch):
        _assert_same_record(got, _solo(op, law(params[i]), starts[i], SimConfig(horizon=ends[i])))


def test_integrate_rejects_misshapen_starts(identity_cycle):
    sheaf, op = identity_cycle
    cfg = SimConfig(horizon=0.1)
    for bad in (np.zeros(op.d0 + 1), np.zeros((2, op.d0 - 1)), np.zeros((1, 1, op.d0))):
        with pytest.raises(StructuralError):
            integrate(op, Quadratic(sheaf), bad, cfg)
    with pytest.raises(StructuralError):
        simulate_ensemble(op, Quadratic(sheaf), [np.zeros(op.d0), np.zeros(2)], cfg)
    assert integrate(op, Quadratic(sheaf), np.zeros((0, op.d0)), cfg) == []


@pytest.mark.parametrize("horizon, step", [(1e12, 0.01), (1e300, 0.01), (10.0, 1e-300)])
def test_a_record_too_long_to_allocate_raises_parameter_error(identity_cycle, horizon, step):
    # past the memory, or past numpy's largest array; with per-row ends, no
    # end is cast to an int before the refusal (a cast past int64 would warn)
    sheaf, op = identity_cycle
    cfg = SimConfig(horizon=horizon, step=step)
    message = re.escape(f"horizon {horizon:g} at step {step:g} is too long to allocate")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x0, ends in ((np.zeros(op.d0), None), (np.zeros((2, op.d0)), [horizon] * 2)):
            with pytest.raises(ParameterError, match=message):
                integrate(op, Quadratic(sheaf), x0, cfg, ends=ends)


def test_sample_buffers_too_large_raise_parameter_error(identity_cycle, monkeypatch):
    sheaf, op = identity_cycle

    def refuse(shape, *args, **kwargs):
        raise MemoryError(f"cannot allocate {shape}")

    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(ParameterError, match="horizon 0.1 at step 0.01 is too long"):
        integrate(op, Quadratic(sheaf), np.zeros((3, op.d0)), SimConfig(horizon=0.1))


def test_a_sheaf_without_vertices_integrates_to_time_only_records():
    sheaf = sheaf_from_dict({"vertex_count": 0, "vertex_stalk_dims": [], "edges": []})
    op = build_coboundary(sheaf)
    cfg = SimConfig(horizon=0.05)
    traj = integrate(op, Quadratic(sheaf), np.zeros(0), cfg)
    assert traj.times.shape == (6,) and traj.states.shape == traj.derivs.shape == (6, 0)
    batch = simulate_ensemble(op, Quadratic(sheaf), [np.zeros(0)] * 2, cfg)
    assert [t.states.shape for t in batch] == [(6, 0)] * 2


def test_simulating_never_computes_an_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD computed")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    sheaf = make_cycle_sheaf(5, "rotated")  # builds the sheaf alone, no operator
    op = build_coboundary(sheaf)
    model = BoundedConfidence(sheaf, 1.0)
    x0 = np.random.default_rng(22).standard_normal(op.d0)
    integrate(op, model, x0, SimConfig(horizon=0.1))
    simulate_ensemble(op, model, [x0, -x0], SimConfig(horizon=0.1))
    _laplacian(op, model, x0)
    monkeypatch.undo()
    assert op.rank() == op.d0  # the first rank query computes it


def test_noise_is_observation_only(rotated_cycle):
    sheaf, op = rotated_cycle
    model = BoundedConfidence(sheaf, 1.0)
    rng = np.random.default_rng(11)
    x0 = 0.6 * rng.standard_normal(op.d0)
    clean = integrate(op, model, x0, SimConfig(horizon=1.0))
    noisy = observe(clean, 0.01, 5)
    # derivatives stay the exact ones of the clean dynamics
    assert noisy.derivs is clean.derivs and noisy.times is clean.times
    jitter = noisy.states - clean.states
    assert 0.005 <= np.std(jitter) <= 0.02
    # the noise is the seed's normal draw
    expected = np.random.default_rng(5).normal(0.0, 0.01, clean.states.shape)
    assert np.array_equal(noisy.states, clean.states + expected)
    # seeded: the same seed reproduces the same noise
    assert np.array_equal(observe(clean, 0.01, 5).states, noisy.states)
    # sigma 0 observes nothing
    assert observe(clean, 0.0, 5) is clean


def test_observe_gives_distinct_indices_distinct_draws(rotated_cycle):
    sheaf, op = rotated_cycle
    rng = np.random.default_rng(10)
    batch = simulate_ensemble(
        op, BoundedConfidence(sheaf, 1.0), rng.standard_normal((3, op.d0)), SimConfig(horizon=0.5)
    )
    noise = [observe(t, 1e-3, (3, i)).states - t.states for i, t in enumerate(batch)]
    assert not np.array_equal(noise[0], noise[1])
    assert not np.array_equal(noise[1], noise[2])


def test_trajectory_csv_roundtrip(tmp_path, identity_cycle):
    sheaf, op = identity_cycle
    rng = np.random.default_rng(12)
    traj = integrate(
        op, Quadratic(sheaf), rng.standard_normal(op.d0), SimConfig(horizon=0.2)
    )
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    loaded = load_trajectory_csv(path)
    assert np.array_equal(loaded.times, traj.times)
    assert np.array_equal(loaded.states, traj.states)
    assert np.array_equal(loaded.derivs, traj.derivs)


def test_trajectory_csv_writes_each_float_as_its_shortest_repr(tmp_path):
    states = np.array([[-0.0, 5e-324, 1e-05], [1e16, 0.1 + 0.2, 1 / 3]])
    traj = Trajectory(times=np.array([0.0, 0.01]), states=states, derivs=-states)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    assert path.read_text() == (
        "time,x0,x1,x2,dx0,dx1,dx2\n"
        "0.0,-0.0,5e-324,1e-05,0.0,-5e-324,-1e-05\n"
        "0.01,1e+16,0.30000000000000004,0.3333333333333333,"
        "-1e+16,-0.30000000000000004,-0.3333333333333333\n"
    )


def test_trajectory_csv_without_derivs(tmp_path):
    traj = Trajectory(times=np.array([0.0, 0.1]), states=np.zeros((2, 4)))
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path)
    loaded = load_trajectory_csv(path)
    assert loaded.derivs is None
    assert loaded.states.shape == (2, 4)


@pytest.mark.parametrize(
    "body, complaint",
    [
        ("time,x0,x1\n0.0,1.0,2.0\n0.1,1.0\n", "line 3 has 2 cells"),
        ("time,x0,x1\n0.0,1.0,2.0\n0.1,1.0,2.0,3.0\n", "line 3 has 4 cells"),
        ("time,x0,x1\n0.0,1.0,abc\n", "non-numeric"),
        ("time,x0,x1\n0.0,1.0,nan\n", "non-finite"),
        ("time,x0,x1\n0.0,inf,1.0\n", "non-finite"),
        ("time,x0,x1\n0.0,1.0,2.0\n0.0,1.0,2.0\n", "do not increase"),
        ("time,x0,x1\n0.1,1.0,2.0\n0.0,1.0,2.0\n", "do not increase"),
        ("time,x0,x1\n", "no samples"),
        ("time,x0,x2\n0.0,1.0,2.0\n", "not a trajectory file"),
        ("time,x0,x1,dx0\n0.0,1.0,2.0,3.0\n", "not a trajectory file"),
        ("step,x0\n0,1.0\n", "not a trajectory file"),
    ],
)
def test_malformed_trajectory_files_raise_usage_errors(tmp_path, body, complaint):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(UsageError) as info:
        load_trajectory_csv(path)
    assert str(path) in str(info.value)
    assert complaint in str(info.value)


@pytest.mark.parametrize("family", ["threshold", "basis"])
def test_row_parameters_must_match_the_batch(rotated_cycle, family):
    sheaf, op = rotated_cycle
    if family == "threshold":
        model = BoundedConfidence(sheaf, [1.0, 2.0])
    else:
        basis = monomial_basis(sheaf)
        model = LinearBasisPotential(sheaf, basis, np.full((2, len(basis)), 0.5))
    cfg = SimConfig(horizon=0.1)
    for starts, n in ((np.zeros((3, op.d0)), 3), (np.zeros(op.d0), 1)):
        with pytest.raises(StructuralError, match=f"2 parameter rows for a batch of {n} "):
            integrate(op, model, starts, cfg)
    assert len(integrate(op, model, np.zeros((2, op.d0)), cfg)) == 2


@pytest.mark.parametrize(
    "horizon, step",
    [(0.105, 0.01), (1.0, 0.3), (0.5, 0.2), (2.0, 0.3), (1e12, 1e-300)],  # the last: inf steps
)
def test_horizon_must_be_a_whole_number_of_steps(horizon, step):
    with pytest.raises(ParameterError, match="not a whole number of steps"):
        SimConfig(horizon=horizon, step=step)


@pytest.mark.parametrize(
    "horizon, step, steps", [(0.3, 0.1, 3), (0.105, 0.005, 21), (10.0, 0.01, 1000), (1.0, 1 / 3, 3)]
)
def test_horizon_of_whole_steps_up_to_rounding_is_accepted(rotated_cycle, horizon, step, steps):
    sheaf, op = rotated_cycle
    traj = integrate(op, Quadratic(sheaf), np.ones(op.d0), SimConfig(horizon, step))
    assert traj.times.size == steps + 1
