"""Edge potentials and their forces.

Every potential here is edge-separable: U(y) = sum_e U_e(y_e), with the force
defined as the gradient of U with respect to the *edge inner products*.  Under
that convention the quadratic potential has force identically y, whatever the
Gram weights.  Radial laws are written in u = |y_e|^2 (edge-Gram squared norm)
so their forces take the form y_e * g(u).

All evaluators accept batches: a trailing axis of length d1, arbitrary leading
axes.  Per-edge norms come from ``Sheaf.edge_sq_norms`` and a radial force
scales each edge block by its gain with ``Sheaf.edge_scale``, one code path on
the sheaf's block views for every stalk layout.  Models are immutable, and
every force works row by row with elementwise arithmetic, so a row's force
does not depend on its batch.

The parametric laws also take a leading row axis on their parameters: a
``BoundedConfidence`` epsilon of shape (N,) or a ``LinearBasisPotential`` theta
of shape (N, p) evaluates a batch (N, d1) with row i's own parameters, bit for
bit as the scalar model with those parameters, and rejects any other batch.
The integrator steps one fixed batch of all its starts, so one such model
serves a whole rollout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ParameterError, StructuralError
from .sheaf import Sheaf


class EdgePotential:
    """Base class: value U(y), force Phi(y) = grad U(y)."""

    row_count: int | None = None  # parameter rows; None without row parameters

    def __init__(self, sheaf: Sheaf):
        self.sheaf = sheaf

    def value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def force(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _batch(self, y) -> np.ndarray:
        """y as a float array; with row parameters, a batch (row_count, d1)."""
        y = np.asarray(y, dtype=float)
        if self.row_count is not None and (y.ndim != 2 or len(y) != self.row_count):
            batch = f"{len(y)} rows" if y.ndim == 2 else f"shape {y.shape}"
            raise StructuralError(
                f"model has {self.row_count} parameter rows for a batch of {batch}"
            )
        return y


class Quadratic(EdgePotential):
    """U_e = |y_e|^2 / 2, force y (the linear-Laplacian law)."""

    def value(self, y):
        return 0.5 * self.sheaf.edge_sq_norms(y).sum(-1)

    def force(self, y):
        return np.array(y, dtype=float, copy=True)


class ShiftedQuadratic(EdgePotential):
    """U_e = |y_e - b_e|^2 / 2 with a target 1-cochain b (formation law)."""

    def __init__(self, sheaf: Sheaf, target: np.ndarray):
        super().__init__(sheaf)
        self.target = np.asarray(target, dtype=float)
        if self.target.shape != (sheaf.d1,):
            raise ParameterError("target must be a 1-cochain")

    def value(self, y):
        return 0.5 * self.sheaf.edge_sq_norms(y - self.target).sum(-1)

    def force(self, y):
        return y - self.target


class Antagonistic(EdgePotential):
    """U_e = -|y_e|^2 on a set of adversarial edges, |y_e|^2 / 2 elsewhere.

    The forces are -2 y_e on the adversarial set and y_e otherwise, i.e. a
    signed interaction that can destabilize the dynamics when the adversarial
    edges disconnect the graph.
    """

    def __init__(self, sheaf: Sheaf, negative_edges: Sequence[int]):
        super().__init__(sheaf)
        self.negative_edges = frozenset(int(e) for e in negative_edges)
        for e in self.negative_edges:
            if not 0 <= e < sheaf.graph.edge_count:
                raise ParameterError(f"no edge with index {e}")
        negative = np.zeros(sheaf.graph.edge_count, dtype=bool)
        negative[list(self.negative_edges)] = True
        self._value_weights = np.where(negative, -1.0, 0.5)
        self._force_factor = sheaf.spread(np.where(negative, -2.0, 1.0))

    def value(self, y):
        return (self.sheaf.edge_sq_norms(y) * self._value_weights).sum(-1)

    def force(self, y):
        return np.asarray(y, dtype=float) * self._force_factor


class BoundedConfidence(EdgePotential):
    """Smooth bounded-confidence law with scalar threshold epsilon.

    In u = |y_e|^2 the edge potential is

        psi(u) = u/2 - u^2/(2 eps^2) + u^3/(6 eps^4)   for u <= eps^2,
        psi(u) = eps^2 / 6                             otherwise,

    so the force is y_e (1 - u/eps^2)^2 below the threshold and exactly zero
    above it, continuous (with continuous slope) at the seam.  The threshold
    is the model's single parameter; param_jacobian returns d force / d eps.
    An epsilon of shape (N,) holds one threshold per row of a batch (N, d1),
    and each row is bit for bit the scalar model at its threshold.
    """

    # The threshold range, where epsilon**2 and epsilon**3 (param_jacobian)
    # stay finite, normal floats: none overflows or underflows to 0.
    MIN_EPSILON, MAX_EPSILON = 1e-100, 1e100

    def __init__(self, sheaf: Sheaf, epsilon):
        super().__init__(sheaf)
        eps = np.asarray(epsilon, dtype=float)
        if eps.ndim > 1 or not np.all((eps >= self.MIN_EPSILON) & (eps <= self.MAX_EPSILON)):
            raise ParameterError(
                f"epsilon must be positive, at least 1e-100 and at most 1e100, got {epsilon}"
            )
        self.epsilon = eps if eps.ndim else float(eps)
        self.row_count = eps.size if eps.ndim else None
        self._e2 = self._power(2)

    def _power(self, k: int):
        """epsilon**k, a scalar or a column (N, 1) against the rows (N, E).

        Each row's power is a Python-float ``**``, as the scalar model takes
        it: an array power rounds x**2 through x*x and may differ from it.
        """
        if np.ndim(self.epsilon) == 0:
            return self.epsilon**k
        return np.array([e**k for e in self.epsilon.tolist()])[:, None]

    def value(self, y):
        u = self.sheaf.edge_sq_norms(self._batch(y))
        e2 = self._e2
        # psi in t = u/eps^2, which lies in [0, 1] below the threshold, so no
        # power of eps underflows; where drops the entries above it, whose
        # powers of t may overflow (nested, so that none turns inf - inf)
        with np.errstate(over="ignore"):
            t = u / e2
            psi = np.where(u <= e2, e2 * (t * (0.5 + t * (t / 6.0 - 0.5))), e2 / 6.0)
        return psi.sum(-1)

    def force(self, y):
        y = self._batch(y)
        return self.sheaf.edge_scale(y, confidence_gain(self.sheaf.edge_sq_norms(y), self._e2))

    def param_jacobian(self, y):
        y = self._batch(y)
        u = self.sheaf.edge_sq_norms(y)
        e2 = self._e2
        # where drops the entries above the threshold, whose products may
        # overflow; a kept one has u <= eps^2, so it is at most 4/eps
        with np.errstate(over="ignore"):
            factor = np.where(u <= e2, 4.0 * (1.0 - u / e2) * u / self._power(3), 0.0)
        return self.sheaf.edge_scale(y, factor)[..., None]


def confidence_gain(u: np.ndarray, e2) -> np.ndarray:
    """The bounded-confidence gain (1 - u/eps^2)^2 of squared norms u, zero
    above the threshold, at e2 = eps^2: a Python float, or a row column (N, 1).

    The one gain path of the law and of the threshold loss.
    """
    # u > eps^2 gives u/eps^2 >= 1, so the clamp is exactly the cutoff;
    # fmax, unlike maximum, also sends a NaN norm to 0 as a cutoff test would
    gain = np.divide(u, e2)
    np.subtract(1.0, gain, out=gain)
    np.fmax(gain, 0.0, out=gain)
    return np.square(gain, out=gain)


class RadialMonomialForce(EdgePotential):
    """Force y_e u^m with potential u^{m+1} / (2 m + 2), u = |y_e|^2."""

    def __init__(self, sheaf: Sheaf, degree: int):
        super().__init__(sheaf)
        if degree < 0:
            raise ParameterError("degree must be nonnegative")
        self.degree = int(degree)

    def value(self, y):
        m = self.degree
        return (self.sheaf.edge_sq_norms(y) ** (m + 1)).sum(-1) / (2 * m + 2)

    def force(self, y):
        y = np.asarray(y, dtype=float)
        return self.sheaf.edge_scale(y, self.sheaf.edge_sq_norms(y) ** self.degree)


class ConstantEdgeForce(EdgePotential):
    """Constant force c (a fixed 1-cochain), potential <c, y> in C^1."""

    def __init__(self, sheaf: Sheaf, cochain: np.ndarray):
        super().__init__(sheaf)
        self.cochain = np.asarray(cochain, dtype=float)
        if self.cochain.shape != (sheaf.d1,):
            raise ParameterError("constant force must be a 1-cochain")

    def value(self, y):
        return np.asarray(y, dtype=float) @ (self.sheaf.M2 @ self.cochain)

    def force(self, y):
        y = np.asarray(y, dtype=float)
        return np.broadcast_to(self.cochain, y.shape).copy()


class LinearBasisPotential(EdgePotential):
    """theta-weighted combination of radial monomial and constant forces.

    Linear in theta.  The force is one radial pass: the gain sum_i theta_i u^m_i
    on every edge, plus the theta-weighted sum of the constant cochains.  A
    theta of shape (N, p) holds one coefficient vector per row of a batch.
    """

    def __init__(self, sheaf: Sheaf, basis: Sequence[EdgePotential], theta: Sequence[float]):
        super().__init__(sheaf)
        self.basis = tuple(basis)
        self.theta = np.asarray(theta, dtype=float)
        if self.theta.ndim not in (1, 2) or self.theta.shape[-1] != len(self.basis):
            raise ParameterError(
                f"theta has shape {self.theta.shape}, basis has {len(self.basis)} forces"
            )
        self.row_count = len(self.theta) if self.theta.ndim == 2 else None
        # one coefficient per basis force: a scalar, or a column (N, 1) of rows
        coefs = self.theta.T[..., None] if self.theta.ndim == 2 else self.theta
        # The gain sums its terms from 0.0 (which turns a -0.0 first term into
        # +0.0); the leading degree-0 terms (u**0 is 1) are summed once here.
        self._lead, self._degrees = 0.0, []
        constant = np.zeros(sheaf.d1)
        for coef, bf in zip(coefs, self.basis):
            if isinstance(bf, RadialMonomialForce) and (bf.degree or self._degrees):
                self._degrees.append((coef, bf.degree))
            elif isinstance(bf, RadialMonomialForce):
                self._lead = self._lead + coef
            elif isinstance(bf, ConstantEdgeForce):
                constant = constant + coef * bf.cochain
            else:
                raise ParameterError(
                    f"unsupported basis force {type(bf).__name__}: expected "
                    "RadialMonomialForce or ConstantEdgeForce"
                )
        # None when every entry is zero: adding +0.0 would flip a -0.0 force.
        # A zero row among nonzero rows adds -0.0 instead, which changes no bit.
        nonzero = constant.any(-1)
        if constant.ndim == 2:
            constant[~nonzero] = -0.0
        self._constant = constant if nonzero.any() else None

    def value(self, y):
        y = self._batch(y)
        total = 0.0
        for coef, bf in zip(self.theta.T, self.basis):
            total = total + coef * bf.value(y)
        return total

    def force(self, y):
        y = self._batch(y)
        u = self.sheaf.edge_sq_norms(y)
        gain = self._lead
        for coef, degree in self._degrees:
            gain = gain + (coef * (u if degree == 1 else u**degree) if degree else coef)
        # per-edge gains scale each edge block; degree-0 terms alone leave a
        # scalar (or a row column) that multiplies y as it is
        out = self.sheaf.edge_scale(y, gain) if self._degrees else y * gain
        if self._constant is not None:
            out += self._constant
        return out


def monomial_basis(sheaf: Sheaf) -> tuple[RadialMonomialForce, ...]:
    """Forces y, y u, y u^2 -- the degree-(1,3,5) radial monomial family."""
    return tuple(RadialMonomialForce(sheaf, m) for m in range(3))


def monomial_potential(sheaf: Sheaf, theta: Sequence[float]) -> LinearBasisPotential:
    return LinearBasisPotential(sheaf, monomial_basis(sheaf), theta)
