"""Potential families: values, forces, parameter Jacobians, conservativity."""

import numpy as np
import pytest
from conftest import random_sheaf

from sheaf_sysid.errors import ParameterError, StructuralError
from sheaf_sysid.potentials import (
    Antagonistic,
    BoundedConfidence,
    ConstantEdgeForce,
    EdgePotential,
    LinearBasisPotential,
    Quadratic,
    RadialMonomialForce,
    ShiftedQuadratic,
    confidence_gain,
    monomial_basis,
    monomial_potential,
)
from sheaf_sysid.sheaf import build_coboundary


def all_families(sheaf, rng):
    b = rng.standard_normal(sheaf.d1)
    return [
        Quadratic(sheaf),
        ShiftedQuadratic(sheaf, b),
        Antagonistic(sheaf, [0]),
        BoundedConfidence(sheaf, 1.0),
        monomial_potential(sheaf, [1.0, 0.25, 0.03]),
        LinearBasisPotential(
            sheaf,
            monomial_basis(sheaf) + (ConstantEdgeForce(sheaf, b),),
            [1.0, 0.25, 0.03, 0.5],
        ),
    ]


def fd_gradient(value_fn, y, h=1e-6):
    grad = np.zeros_like(y)
    for i in range(y.size):
        up, dn = y.copy(), y.copy()
        up[i] += h
        dn[i] -= h
        grad[i] = (value_fn(up) - value_fn(dn)) / (2 * h)
    return grad


def test_force_matches_fd_gradient_for_all_families():
    # The force is the gradient in the M2 inner product, so the Euclidean
    # finite-difference gradient must equal M2 @ force.  Random Grams pin the
    # convention; points are kept away from the bounded-confidence seam.
    rng = np.random.default_rng(42)
    sheaf = random_sheaf(rng, n_vertices=3, n_edges=4)
    op = build_coboundary(sheaf)
    for model in all_families(sheaf, rng):
        for _ in range(3):
            y = 0.5 * rng.standard_normal(sheaf.d1)
            expected = fd_gradient(model.value, y)
            got = op.M2 @ model.force(y)
            scale = 1.0 + np.abs(expected).max()
            assert np.abs(got - expected).max() <= 1e-6 * scale, type(model).__name__


def test_quadratic_value_at_zero(identity_cycle):
    sheaf, _ = identity_cycle
    assert Quadratic(sheaf).value(np.zeros(sheaf.d1)) == 0.0


def test_bounded_confidence_saturates_above_threshold(identity_cycle):
    sheaf, _ = identity_cycle
    model = BoundedConfidence(sheaf, 1.0)
    y = np.tile([1.5, 0.9], 3)  # every edge radius > 1
    assert np.isclose(model.value(y), 3 * (1.0 / 6.0))
    # saturation: moving an above-threshold edge does not change the value
    y2 = y.copy()
    y2[0] = 5.0
    assert np.isclose(model.value(y2), model.value(y))


def test_shifted_quadratic_minimizer(identity_cycle):
    sheaf, _ = identity_cycle
    rng = np.random.default_rng(5)
    b = rng.standard_normal(sheaf.d1)
    model = ShiftedQuadratic(sheaf, b)
    assert model.value(b) == 0.0
    assert np.allclose(model.force(b), 0.0)


def test_bounded_confidence_force_vanishes_at_seam(identity_cycle):
    sheaf, _ = identity_cycle
    model = BoundedConfidence(sheaf, 1.0)
    y = np.zeros(sheaf.d1)
    y[0:2] = [0.6, 0.8]  # radius exactly 1
    assert np.allclose(model.force(y), 0.0)


def test_bounded_confidence_gain_is_the_cutoff_law_bit_for_bit():
    rng = np.random.default_rng(49)
    for eps in (0.3, 1.0, 1.1, 3.7):
        e2 = eps**2
        edge = [e2, np.nextafter(e2, 0.0), np.nextafter(e2, 9.0), 0.0, -0.0, np.nan, np.inf]
        u = np.concatenate([2.0 * e2 * rng.random(200), edge])
        expected = np.where(u <= e2, (1.0 - u / e2) ** 2, 0.0)
        got = confidence_gain(u, eps**2)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


def test_bounded_confidence_value_continuous_at_seam(identity_cycle):
    sheaf, _ = identity_cycle
    model = BoundedConfidence(sheaf, 1.0)
    below, above = np.zeros(sheaf.d1), np.zeros(sheaf.d1)
    below[0] = 1.0 - 1e-9
    above[0] = 1.0 + 1e-9
    assert abs(model.value(below) - model.value(above)) <= 1e-8


def test_bounded_confidence_slope_positive_below_threshold(identity_cycle):
    sheaf, _ = identity_cycle
    model = BoundedConfidence(sheaf, 1.0)
    for r in np.linspace(0.05, 0.95, 19):
        y = np.zeros(sheaf.d1)
        y[0] = r
        force = model.force(y)
        assert force[0] > 0.0  # psi'(r) = r (1 - r^2)^2 > 0 on (0, 1)


def test_bounded_confidence_rejects_bad_epsilon(identity_cycle):
    sheaf, _ = identity_cycle
    with pytest.raises(ParameterError):
        BoundedConfidence(sheaf, 0.0)
    with pytest.raises(ParameterError):
        BoundedConfidence(sheaf, -1.0)


def test_monomial_force_values(identity_cycle):
    sheaf, _ = identity_cycle
    model = monomial_potential(sheaf, [1.0, 0.25, 0.03])
    assert np.allclose(model.force(np.zeros(sheaf.d1)), 0.0)
    y = np.zeros(sheaf.d1)
    y[0:2] = [0.6, 0.8]  # unit radius on edge 0
    force = model.force(y)
    assert np.allclose(force[0:2], 1.28 * y[0:2])
    assert np.allclose(force[2:], 0.0)


def test_antagonistic_force_signs(identity_cycle):
    sheaf, _ = identity_cycle
    model = Antagonistic(sheaf, [1])
    y = np.arange(1.0, 7.0)
    force = model.force(y)
    assert np.allclose(force[0:2], y[0:2])
    assert np.allclose(force[2:4], -2.0 * y[2:4])
    assert np.allclose(force[4:6], y[4:6])


def test_threshold_jacobian_zero_above_threshold(identity_cycle):
    sheaf, _ = identity_cycle
    model = BoundedConfidence(sheaf, 1.0)
    y = np.tile([1.2, 0.5], 3)  # all radii = 1.3
    assert np.allclose(model.param_jacobian(y), 0.0)


def test_param_jacobian_matches_fd_for_parametric_families():
    rng = np.random.default_rng(43)
    sheaf = random_sheaf(rng, n_vertices=3, n_edges=4)
    y = 0.4 * rng.standard_normal(sheaf.d1)
    h = 1e-6
    bc = BoundedConfidence(sheaf, 0.8)
    jac = bc.param_jacobian(y)[:, 0]
    fd = (
        BoundedConfidence(sheaf, 0.8 + h).force(y)
        - BoundedConfidence(sheaf, 0.8 - h).force(y)
    ) / (2 * h)
    assert np.abs(jac - fd).max() <= 1e-6 * (1 + np.abs(fd).max())


def test_nonparametric_family_rejects_jacobian(identity_cycle):
    # information_scalar reads the threshold's; no other family defines one
    sheaf, _ = identity_cycle
    models = (Quadratic(sheaf), Antagonistic(sheaf, [0]), monomial_potential(sheaf, [1.0] * 3))
    assert not any(hasattr(model, "param_jacobian") for model in models)
    assert hasattr(BoundedConfidence(sheaf, 1.0), "param_jacobian")


def loop_integral(model, waypoints, subdivisions=200):
    """Line integral of the force along a closed polygon, Simpson per segment."""
    op_m2 = model.sheaf  # inner product applied manually below
    total = 0.0
    for a, b in zip(waypoints, waypoints[1:] + [waypoints[0]]):
        ts = np.linspace(0.0, 1.0, 2 * subdivisions + 1)
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        forces = model.force(pts)
        integrand = np.zeros(len(ts))
        for e, sl in enumerate(op_m2.edge_slices):
            integrand += forces[:, sl] @ (op_m2.edge_grams[e] @ (b - a)[sl])
        weights = np.ones(len(ts))
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        total += (integrand * weights).sum() / (3 * 2 * subdivisions)
    return total


def test_forces_are_conservative_on_closed_loops():
    rng = np.random.default_rng(44)
    sheaf = random_sheaf(rng, n_vertices=3, n_edges=4)
    for model in all_families(sheaf, rng):
        if isinstance(model, BoundedConfidence):
            # keep radii inside the smooth region below the seam
            waypoints = [0.2 * rng.standard_normal(sheaf.d1) for _ in range(4)]
        else:
            waypoints = [rng.standard_normal(sheaf.d1) for _ in range(4)]
        assert abs(loop_integral(model, waypoints)) <= 1e-8, type(model).__name__


def test_forces_are_edge_separable():
    rng = np.random.default_rng(45)
    sheaf = random_sheaf(rng, n_vertices=3, n_edges=4)
    for model in all_families(sheaf, rng):
        y = 0.5 * rng.standard_normal(sheaf.d1)
        base = model.force(y)
        for e, sl in enumerate(sheaf.edge_slices):
            bumped = y.copy()
            bumped[sl] += 0.3 * rng.standard_normal(sl.stop - sl.start)
            delta = model.force(bumped) - base
            mask = np.ones(sheaf.d1, dtype=bool)
            mask[sl] = False
            assert np.allclose(delta[mask], 0.0), type(model).__name__


def test_batched_evaluation_matches_loop(identity_cycle):
    sheaf, _ = identity_cycle
    rng = np.random.default_rng(46)
    batch = rng.standard_normal((7, sheaf.d1))
    for model in all_families(sheaf, rng):
        forces = model.force(batch)
        values = model.value(batch)
        for i in range(7):
            assert np.allclose(forces[i], model.force(batch[i]))
            assert np.isclose(values[i], model.value(batch[i]))


def test_linear_basis_theta_length_mismatch(identity_cycle):
    sheaf, _ = identity_cycle
    with pytest.raises(ParameterError):
        LinearBasisPotential(sheaf, monomial_basis(sheaf), [1.0, 2.0])


def test_linear_force_is_theta_weighted_basis_sum(mixed_sheaf):
    # Weighted Grams and mixed edge-stalk dimensions: the radial pass must
    # agree with the basis forces summed one by one on any layout.
    sheaf = mixed_sheaf
    rng = np.random.default_rng(47)
    basis = monomial_basis(sheaf) + (
        ConstantEdgeForce(sheaf, rng.standard_normal(sheaf.d1)),
    )
    model = LinearBasisPotential(sheaf, basis, [1.0, 0.25, 0.03, 0.5])
    for shape in ((sheaf.d1,), (5, sheaf.d1)):
        y = rng.standard_normal(shape)
        expected = sum(c * bf.force(y) for c, bf in zip(model.theta, model.basis))
        assert np.allclose(model.force(y), expected, rtol=1e-12, atol=1e-12)


def zero_start_force(model, y):
    """The radial pass summed from an array of zeros, term by term."""
    u = model.sheaf.edge_sq_norms(y)
    gain = np.zeros_like(u)
    constant = np.zeros(model.sheaf.d1)
    for coef, bf in zip(model.theta, model.basis):
        if isinstance(bf, ConstantEdgeForce):
            constant = constant + coef * bf.cochain
        else:
            gain = gain + coef * u**bf.degree
    out = y * model.sheaf.spread(gain)
    return out + constant if constant.any() else out


@pytest.mark.parametrize(
    "degrees, theta, harmonic",
    [
        ((0, 1, 2), (1.0, 0.25, 0.03), 0.5),
        ((0, 1, 2), (-0.0, -1.0, 0.0), 0.0),
        ((0, 1, 2), (0.0, -0.5, -0.0), -0.0),
        ((2, 0), (-1.0, 0.5), None),
        ((0,), (-0.0,), None),
        ((), (), 0.7),
    ],
)
def test_linear_force_keeps_the_bits_of_a_zero_start(identity_cycle, degrees, theta, harmonic):
    # signed zeros included: a -0.0 gain or an all-zero constant must not
    # change the sign of a zero force component
    sheaf, _ = identity_cycle
    basis = tuple(RadialMonomialForce(sheaf, m) for m in degrees)
    if harmonic is not None:
        basis += (ConstantEdgeForce(sheaf, np.tile([1.0, 0.0], 3)),)
        theta += (harmonic,)
    model = LinearBasisPotential(sheaf, basis, theta)
    rng = np.random.default_rng(48)
    y = np.concatenate([rng.standard_normal((3, sheaf.d1)), np.zeros((1, sheaf.d1))])
    y[2, :2] = 0.0
    y[1, 2:4] = -0.0
    got, expected = model.force(y), zero_start_force(model, y)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize(
    "degrees, thetas",
    [
        (
            (0, 1, 2, None),
            [(1.0, 0.25, 0.03, 0.5), (-0.0, -1.0, 0.0, 0.0), (0.0, -0.5, -0.0, -0.0),
             (0.0, 0.0, 0.0, 0.7), (-0.0, 0.0, 0.0, 0.0)],
        ),
        ((2, 0), [(-1.0, 0.5), (0.0, -0.0), (0.3, 0.0), (0.0, 1.0), (2.0, 2.0)]),
        ((0,), [(-0.0,), (1.0,), (0.0,), (-2.5,), (0.5,)]),
        ((None,), [(0.7,), (0.0,), (-0.0,), (1.0,), (-1.0,)]),
    ],
)
def test_row_theta_gives_each_row_its_scalar_bits(identity_cycle, degrees, thetas):
    # None is the constant force; zero rows among nonzero ones keep signed zeros
    sheaf, _ = identity_cycle
    constant = ConstantEdgeForce(sheaf, np.tile([1.0, 0.0], 3))
    basis = tuple(constant if m is None else RadialMonomialForce(sheaf, m) for m in degrees)
    rng = np.random.default_rng(48)
    y = np.concatenate([rng.standard_normal((3, sheaf.d1)), np.zeros((2, sheaf.d1))])
    y[2, :2] = 0.0
    y[1, 2:4] = -0.0
    y[4] = -0.0
    rows = LinearBasisPotential(sheaf, basis, thetas)
    for name in ("force", "value"):
        got = getattr(rows, name)(y)
        for i, theta in enumerate(thetas):
            alone = getattr(LinearBasisPotential(sheaf, basis, theta), name)(y[i])
            assert np.array_equal(got[i], alone)
            assert np.array_equal(np.signbit(got[i]), np.signbit(alone))


@pytest.mark.parametrize("harmonic_row", [False, True], ids=["zero-rows-only", "beside-a-harmonic-row"])
def test_augmented_rows_with_zero_harmonic_coefficient_are_the_correct_law(identity_cycle, harmonic_row):
    # The finite_basis sweep rolls a correct-basis law out as an augmented-basis
    # row whose harmonic coefficient is 0.0: the row model then adds no constant,
    # or -0.0 beside a row that carries the harmonic force, and no bit changes.
    sheaf, _ = identity_cycle
    basis = monomial_basis(sheaf)
    augmented = basis + (ConstantEdgeForce(sheaf, np.tile([1.0, 0.0], 3)),)
    rng = np.random.default_rng(50)
    thetas = rng.uniform(-1.0, 1.0, (6, 3))
    thetas[1] = (-0.0, 0.0, -0.0)
    thetas[2, 0] = -0.0
    thetas[3, 1:] = (-0.0, 0.0)
    y = rng.standard_normal((7, sheaf.d1))
    y[1] = -0.0
    y[2, :2] = 0.0
    y[3, 2:4] = -0.0
    rows = np.column_stack([thetas, np.zeros(6)])
    rows = np.vstack([rows, (1.0, 0.25, 0.03, 0.5) if harmonic_row else (0.5, -0.0, 0.1, 0.0)])
    got = LinearBasisPotential(sheaf, augmented, rows).force(y)
    for i, theta in enumerate(rows):
        fit_basis = augmented if theta[3] else basis
        alone = LinearBasisPotential(sheaf, fit_basis, theta[: len(fit_basis)]).force(y[i])
        assert np.array_equal(got[i], alone)
        assert np.array_equal(np.signbit(got[i]), np.signbit(alone))
    # the scalar law in the augmented basis, as the force checks evaluate a
    # fitted correct-basis law, on the same signed-zero batch
    for theta in thetas:
        got = LinearBasisPotential(sheaf, augmented, (*theta, 0.0)).force(y)
        alone = LinearBasisPotential(sheaf, basis, theta).force(y)
        assert np.array_equal(got, alone)
        assert np.array_equal(np.signbit(got), np.signbit(alone))


def test_row_epsilon_gives_each_row_its_scalar_bits(mixed_sheaf):
    rng = np.random.default_rng(49)
    # The array power of 2.759 squared and of 3.3 and 0.356 cubed can round
    # otherwise than the Python-float power the scalar model takes.
    eps = np.array([2.759, 3.3, 0.356, 1.0 / 3.0, 1.1, 1.0 + 2**-52])
    y = rng.standard_normal((eps.size, mixed_sheaf.d1))
    rows = BoundedConfidence(mixed_sheaf, eps)
    for name in ("force", "value", "param_jacobian"):
        got = getattr(rows, name)(y)
        for i, e in enumerate(eps):
            alone = getattr(BoundedConfidence(mixed_sheaf, float(e)), name)(y[i])
            assert np.array_equal(got[i], alone)


@pytest.mark.parametrize("epsilon", [[1.0, 0.0], [[1.0]], [1.0, np.nan]])
def test_row_epsilon_must_be_positive_per_row(identity_cycle, epsilon):
    sheaf, _ = identity_cycle
    with pytest.raises(ParameterError, match="epsilon must be positive"):
        BoundedConfidence(sheaf, epsilon)


@pytest.mark.parametrize("theta", [1.0, [[[1.0, 0.0, 0.0]]], [[1.0, 0.0]]])
def test_linear_basis_rejects_theta_of_the_wrong_shape(identity_cycle, theta):
    sheaf, _ = identity_cycle
    with pytest.raises(ParameterError, match="theta has shape"):
        LinearBasisPotential(sheaf, monomial_basis(sheaf), theta)


def test_linear_basis_rejects_unsupported_family(identity_cycle):
    sheaf, _ = identity_cycle

    class CubicForce(EdgePotential):
        def force(self, y):
            return np.asarray(y, dtype=float) ** 3

    with pytest.raises(ParameterError):
        LinearBasisPotential(sheaf, (CubicForce(sheaf),), [1.0])


# --- radial forces on the block view against the repeat form ------------------


def probe_states(sheaf, rows: int = 8) -> np.ndarray:
    """Random edge states with rows of +0.0, -0.0, mixed signed zeros, a
    constant cochain and an edge-wise constant cochain."""
    rng = np.random.default_rng(sheaf.d1)
    y = rng.standard_normal((rows, sheaf.d1))
    y[0] = 0.0
    y[1] = -0.0
    y[2] = rng.choice([0.0, -0.0], sheaf.d1)
    y[3] = 0.7
    for sl in sheaf.edge_slices:
        y[4, sl] = rng.standard_normal()
    return y


def repeat_form(sheaf, y, gain):
    """y * spread(gain) with the per-edge gain repeated by np.repeat."""
    return y * np.repeat(gain, sheaf.edge_stalk_dims, axis=-1)


def repeat_linear_force(model, y):
    """LinearBasisPotential's force as a scalar-zero-start radial pass whose
    per-edge gain is repeated over the stalks, plus the constant cochains."""
    sheaf = model.sheaf
    u = sheaf.edge_sq_norms(y)
    coefs = model.theta.T[..., None] if model.theta.ndim == 2 else model.theta
    gain, constant = 0.0, np.zeros(sheaf.d1)
    for coef, bf in zip(coefs, model.basis):
        if isinstance(bf, ConstantEdgeForce):
            constant = constant + coef * bf.cochain
        else:
            gain = gain + (coef * u**bf.degree if bf.degree else coef)
    radial = any(isinstance(bf, RadialMonomialForce) and bf.degree for bf in model.basis)
    out = repeat_form(sheaf, y, gain) if radial else y * gain
    nonzero = constant.any(-1)
    if constant.ndim == 2:
        constant[~nonzero] = -0.0
    return out + constant if nonzero.any() else out


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


CYCLES_AND_MIXED = ["identity_cycle", "rotated_cycle", "mixed_sheaf"]


def fixture_sheaf(request, name):
    value = request.getfixturevalue(name)
    return value[0] if isinstance(value, tuple) else value


@pytest.mark.parametrize("name", CYCLES_AND_MIXED)
@pytest.mark.parametrize("rows", [False, True], ids=["scalar-epsilon", "row-epsilon"])
def test_confidence_force_equals_the_repeat_form(request, name, rows):
    sheaf = fixture_sheaf(request, name)
    y = probe_states(sheaf)
    eps = np.linspace(0.3, 2.5, len(y)) if rows else 0.9
    model = BoundedConfidence(sheaf, eps)
    u = sheaf.edge_sq_norms(y)
    # each row's power a Python-float power, as the scalar model takes it
    e2, e3 = (np.array([e**k for e in eps.tolist()])[:, None] if rows else eps**k for k in (2, 3))
    assert_same_bits(model.force(y), repeat_form(sheaf, y, confidence_gain(u, e2)))
    factor = np.where(u <= e2, 4.0 * (1.0 - u / e2) * u / e3, 0.0)
    assert_same_bits(model.param_jacobian(y), repeat_form(sheaf, y, factor)[..., None])


@pytest.mark.parametrize("name", CYCLES_AND_MIXED)
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_monomial_force_equals_the_repeat_form(request, name, degree):
    sheaf = fixture_sheaf(request, name)
    y = probe_states(sheaf)
    u = sheaf.edge_sq_norms(y)
    want = y.copy() if degree == 0 else repeat_form(sheaf, y, u**degree)
    for batch in (y, y[5]):
        got = RadialMonomialForce(sheaf, degree).force(batch)
        assert_same_bits(got, want if batch.ndim == 2 else want[5])


@pytest.mark.parametrize("name", CYCLES_AND_MIXED)
@pytest.mark.parametrize(
    "degrees, theta",
    [
        ((0, 1, 2), (1.0, 0.25, 0.03)),
        ((0, 1, 2), (-0.0, -1.0, 0.0)),
        ((0, 0, 1), (-0.0, -0.0, 0.5)),
        ((2, 0), (-1.0, 0.5)),
        ((1,), (-0.0,)),
        ((0,), (-0.0,)),
        ((0, 0), (0.5, -0.25)),
        ((0, None), (-0.0, 0.7)),
        ((None, 1), (0.7, 2.0)),
    ],
)
@pytest.mark.parametrize("rows", [False, True], ids=["scalar-theta", "row-theta"])
def test_linear_force_equals_the_repeat_form(request, name, degrees, theta, rows):
    # None is a constant force; a degree-0-only basis leaves a scalar (or a
    # row column) gain, and a -0.0 degree-0 lead must become 0.0 + -0.0 = +0.0
    sheaf = fixture_sheaf(request, name)
    y = probe_states(sheaf)
    cochain = np.random.default_rng(3).standard_normal(sheaf.d1)
    basis = tuple(
        ConstantEdgeForce(sheaf, cochain) if m is None else RadialMonomialForce(sheaf, m)
        for m in degrees
    )
    thetas = np.array(theta)
    if rows:
        thetas = thetas * np.linspace(-1.0, 2.0, len(y))[:, None]
        thetas[0] = theta
        thetas[1] = -0.0
    model = LinearBasisPotential(sheaf, basis, thetas)
    assert_same_bits(model.force(y), repeat_linear_force(model, y))


@pytest.mark.parametrize("family", ["threshold", "basis"])
def test_a_row_parameter_model_takes_only_its_own_batch(rotated_cycle, family):
    sheaf, _ = rotated_cycle
    if family == "threshold":
        model = BoundedConfidence(sheaf, [1.0, 2.0])
    else:
        basis = monomial_basis(sheaf)
        model = LinearBasisPotential(sheaf, basis, np.full((2, len(basis)), 0.5))
    wrong = [np.ones(sheaf.d1), np.ones((1, sheaf.d1)), np.ones((3, sheaf.d1)),
             np.ones((2, 2, sheaf.d1)), np.ones((0, sheaf.d1))]
    names = ("force", "value", "param_jacobian") if family == "threshold" else ("force", "value")
    for name in names:
        for y in wrong:
            with pytest.raises(StructuralError, match="2 parameter rows for a batch of "):
                getattr(model, name)(y)
        assert len(getattr(model, name)(np.ones((2, sheaf.d1)))) == 2
