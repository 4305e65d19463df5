"""Sheaf diffusion dynamics: x' = -delta*(Phi(delta x)).

Integration is classical fixed-step RK4 over a batch of starts in one loop.
The integrator records the exact vector field value at every sample.  Every
product in the vector field is elementwise or an einsum, never BLAS, so a
row's bits do not depend on its batch.  Observation noise is a separate step,
``observe``, applied to a finished trajectory's states from its own seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DivergenceError, UsageError, allocate
from .potentials import EdgePotential
from .sheaf import CoboundaryOperator, delta_pseudoinverse_apply, section_part


def whole_steps(horizon: float, step: float) -> bool:
    """Whether horizon is a whole number of steps, to a relative 1e-9; a count
    past the largest float is none."""
    steps = horizon / step
    return math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * steps


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration settings: record length and RK4 step."""

    horizon: float
    step: float = 0.01

    def __post_init__(self):
        if not self.step > 0:
            raise UsageError("step must be positive")
        if not self.horizon >= self.step:
            raise UsageError("horizon must cover at least one step")
        if not whole_steps(self.horizon, self.step):
            raise UsageError(
                f"horizon {self.horizon!r} is not a whole number of steps of {self.step!r}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled node states with matching exact derivatives when available."""

    times: np.ndarray  # (K+1,)
    states: np.ndarray  # (K+1, d0)
    derivs: np.ndarray | None = None  # (K+1, d0)

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]


def _laplacian(op, model, x):
    y = np.einsum("...i,ji->...j", x, op.B)
    return np.einsum("...i,ji->...j", model.force(y), op.delta_star_matrix)


def integrate(
    op: CoboundaryOperator,
    model: EdgePotential,
    x0: np.ndarray,
    cfg: SimConfig,
    ends: Sequence[float] | None = None,
) -> Trajectory | list[Trajectory | DivergenceError]:
    """Integrate the diffusion ODE with classical RK4 at fixed step cfg.step.

    ``x0`` is one start (d0,) or a batch of starts (N, d0), all stepped in one
    loop.  A single start returns its Trajectory, or raises DivergenceError
    (with the offending time) as soon as the state or its derivative stops
    being finite.  A batch returns one Trajectory or DivergenceError per row,
    in input order: a diverging row stops at its own blow-up time and the
    others carry on.  ``ends`` gives each row its own horizon, a whole number
    of steps up to cfg.horizon (the default for every row): a row stops at its
    end as at a blow-up, and its record and any divergence are those of a run
    at that horizon.  Each row's bits are those of the row integrated alone.
    The batch is fixed: a row past its end, or one that blew up (restarted
    from zero, so that one finiteness check covers the batch), is stepped on
    into a scratch sample until every row has ended or blown up.  So a model
    with row parameters (see ``potentials``) has one row per start, or its
    first evaluation raises UsageError.
    """
    x = np.array(x0, dtype=float)
    single = x.ndim == 1
    if x.ndim not in (1, 2) or x.shape[-1] != op.d0:
        raise UsageError(
            f"initial states have shape {x.shape}, expected ({op.d0},) or (N, {op.d0})"
        )
    x = x.reshape(1 if single else len(x), op.d0)  # not -1, which fails at d0 = 0
    n = x.shape[0]
    h = cfg.step
    steps = int(round(cfg.horizon / h))
    too_long = f"a record of horizon {cfg.horizon:g} at step {h:g} is too long to allocate"
    # the longest record, allocated before any row's end is cast to an int
    times = allocate(lambda: h * np.arange(steps + 1), too_long)
    # the last step each row records; -1 once it blew up
    stops = allocate(lambda: np.full(n, steps), f"batch size {n} is too many starts to allocate")
    if ends is not None:
        ends = np.asarray(ends, dtype=float)
        if ends.shape != (n,) or not all(
            h <= e <= cfg.horizon and whole_steps(e, h) for e in ends.tolist()
        ):
            raise UsageError(
                f"ends must be {n} whole numbers of steps of {h!r} up to {cfg.horizon!r}"
            )
        stops = np.rint(ends / h).astype(int)

    # The unchecked product: the shape was checked once for the whole batch.
    # -1.0 * rather than a negation, which would flip a NaN's sign bit.
    def f(state):
        return -1.0 * _laplacian(op, model, state)

    # Each row's own samples as one contiguous block, the rows one after
    # another, then the scratch sample of the rows that record no more.
    size = stops + 1
    first = np.cumsum(size) - size  # each row's first sample
    scratch = int(size.sum())
    shape = (scratch + 1, op.d0)
    states, derivs = allocate(lambda: (np.empty(shape), np.empty(shape)), too_long)
    failures: dict[int, DivergenceError] = {}
    # Blow-ups are detected and reported; silence the transient inf/nan noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            fx = f(x)
            if not (np.isfinite(x).all() and np.isfinite(fx).all()):
                bad = ~(np.isfinite(x).all(axis=1) & np.isfinite(fx).all(axis=1))
                for i in np.flatnonzero(bad & (stops >= k)).tolist():
                    failures[i] = DivergenceError(
                        f"state diverged at t = {times[k]:.6g}", time=float(times[k])
                    )
                x[bad], fx[bad], stops[bad] = 0.0, 0.0, -1
            at = np.where(stops >= k, first + k, scratch)
            states[at] = x
            derivs[at] = fx
            if k >= stops.max(initial=-1):
                break  # every row has ended or blown up
            # x + h/2 fx, x + h/2 k2, x + h k3 and x + h/6 (fx + 2 k2 + 2 k3
            # + k4), each product and sum in place with its operands in order
            t = np.multiply(0.5 * h, fx)
            k2 = f(np.add(x, t, out=t))
            k3 = f(np.add(x, np.multiply(0.5 * h, k2, out=t), out=t))
            k4 = f(np.add(x, np.multiply(h, k3, out=t), out=t))
            acc = np.add(fx, np.multiply(2.0, k2, out=k2), out=k2)
            np.add(np.add(acc, np.multiply(2.0, k3, out=k3), out=acc), k4, out=acc)
            np.add(x, np.multiply(h / 6.0, acc, out=acc), out=x)

    results = [
        failures[i] if i in failures
        else Trajectory(times[:m], states[a : a + m], derivs[a : a + m])
        for i, (a, m) in enumerate(zip(first.tolist(), size.tolist()))
    ]
    if single and isinstance(results[0], DivergenceError):
        raise results[0]
    return results[0] if single else results


def simulate_ensemble(
    op: CoboundaryOperator,
    model: EdgePotential,
    initial_conditions: Sequence[np.ndarray],
    cfg: SimConfig,
) -> list[Trajectory | DivergenceError]:
    """Integrate one trajectory per initial condition, as one batch.

    A diverging trajectory contributes its DivergenceError in place without
    aborting the rest; results are ordered by input index.  An array of
    starts (N, d0) is passed through as it is.
    """
    try:
        starts = np.asarray(initial_conditions, dtype=float)
        fits = starts.shape[1:] == (op.d0,) or starts.shape == (0,)  # (0,): no starts
    except ValueError:  # ragged starts
        fits = False
    if not fits:
        raise UsageError(f"every initial state must have shape ({op.d0},)")
    return integrate(op, model, x0=starts.reshape(len(starts), op.d0), cfg=cfg)


def observe(traj: Trajectory, sigma: float, seed: int | tuple[int, ...]) -> Trajectory:
    """traj with Gaussian observation noise of std sigma added to its states.

    The noise is drawn from ``default_rng(seed)``; the derivatives stay the
    exact ones.  At sigma 0 traj itself is returned.
    """
    if sigma == 0:
        return traj
    noise = np.random.default_rng(seed).normal(0.0, sigma, traj.states.shape)
    return Trajectory(times=traj.times, states=traj.states + noise, derivs=traj.derivs)


def equilibrium_projection(
    op: CoboundaryOperator, b: np.ndarray, x0: np.ndarray
) -> np.ndarray:
    """Predicted limit of the shifted-quadratic flow started at x0.

    Returns delta^+ b plus the M1-orthogonal projection of (x0 - delta^+ b)
    onto the global sections.
    """
    xb = delta_pseudoinverse_apply(op, b)
    return xb + section_part(op, np.asarray(x0, dtype=float) - xb)


# ---------------------------------------------------------------------------
# Trajectory files: CSV with a header row, columns time, x0..x{d-1} and, when
# exact derivatives were recorded, dx0..dx{d-1}.  Floats are written with
# shortest round-trip repr so identical runs produce identical bytes.
# ---------------------------------------------------------------------------


def save_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    d = traj.states.shape[1]
    cols = ["time"] + [f"x{i}" for i in range(d)]
    blocks = [traj.times[:, None], traj.states]
    if traj.derivs is not None:
        cols += [f"dx{i}" for i in range(d)]
        blocks.append(traj.derivs)
    table = np.hstack(blocks)
    lines = [",".join(cols)]
    # row by row, so that no Python float copy of the whole table is held
    lines += [",".join(map(repr, row.tolist())) for row in table]
    Path(path).write_text("\n".join(lines) + "\n")


def load_trajectory_csv(path: str | Path) -> Trajectory:
    """Read a trajectory file; malformed contents raise UsageError naming it."""
    try:
        text = Path(path).read_text().strip().splitlines()
    except UnicodeDecodeError:
        raise UsageError(f"{path} is not a text file") from None
    if not text:
        raise UsageError(f"empty trajectory file {path}")
    header = text[0].split(",")
    n_state = sum(1 for name in header if name.startswith("x"))
    columns = ["time"] + [f"x{i}" for i in range(n_state)]
    if header not in (columns, columns + [f"d{name}" for name in columns[1:]]):
        raise UsageError(f"{path} is not a trajectory file (header {header[:3]}...)")
    data = np.empty((len(text) - 1, len(header)))
    for line_no, line in enumerate(text[1:], start=2):
        row = line.split(",")
        if len(row) != len(header):
            raise UsageError(f"{path} line {line_no} has {len(row)} cells, not {len(header)}")
        try:
            data[line_no - 2] = row
        except ValueError as exc:
            raise UsageError(f"{path} has a non-numeric cell: {exc}") from None
    if not data.size:
        raise UsageError(f"{path} has no samples")
    if not np.isfinite(data).all():
        raise UsageError(f"{path} has a non-finite cell")
    if not (np.diff(data[:, 0]) > 0).all():
        raise UsageError(f"{path} has times that do not increase")
    derivs = data[:, 1 + n_state :] if len(header) > len(columns) else None
    return Trajectory(times=data[:, 0], states=data[:, 1 : 1 + n_state], derivs=derivs)
