"""Sheaf diffusion dynamics: x' = -alpha * delta*(Phi(delta x)) - Psi(x).

Integration is classical fixed-step RK4.  The integrator records the exact
vector field value at every sample; observation noise, when requested, is
added to the recorded states only -- the dynamics themselves are integrated
noiselessly.  Ensembles derive one child seed per trajectory from the config
seed, so results are reproducible and independent of execution order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DivergenceError, ParameterError, StructuralError, UsageError
from .potentials import EdgePotential, NodeField
from .sheaf import CoboundaryOperator, delta_pseudoinverse_apply, global_section_basis

THREADS_ENV_VAR = "SHEAF_SYSID_THREADS"


@dataclass(frozen=True)
class SimConfig:
    """Fixed-step integration settings.

    ``seed`` may be an int or a tuple of ints (a derived seed path); it feeds
    the observation-noise generator only.
    """

    horizon: float
    step: float = 0.01
    alpha: float = 1.0
    seed: int | tuple[int, ...] = 0
    noise_std: float = 0.0

    def __post_init__(self):
        if not self.step > 0:
            raise ParameterError("step must be positive")
        if not self.horizon >= self.step:
            raise ParameterError("horizon must cover at least one step")
        if self.noise_std < 0:
            raise ParameterError("noise_std must be nonnegative")


@dataclass(frozen=True)
class Trajectory:
    """Sampled node states with matching exact derivatives when available."""

    times: np.ndarray  # (K+1,)
    states: np.ndarray  # (K+1, d0)
    derivs: np.ndarray | None = None  # (K+1, d0)

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]


def laplacian_apply(
    op: CoboundaryOperator, model: EdgePotential, x: np.ndarray
) -> np.ndarray:
    """Evaluate the nonlinear sheaf Laplacian delta*(Phi(delta x))."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != op.d0:
        raise StructuralError(f"state has length {x.shape[-1]}, expected {op.d0}")
    return model.force(x @ op.B.T) @ op.delta_star_matrix.T


def integrate(
    op: CoboundaryOperator,
    model: EdgePotential,
    node_field: NodeField,
    x0: np.ndarray,
    cfg: SimConfig,
) -> Trajectory:
    """Integrate the diffusion ODE with classical RK4 at fixed step cfg.step.

    Raises DivergenceError (with the offending time) as soon as the state or
    its derivative stops being finite.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (op.d0,):
        raise StructuralError(f"initial state has shape {x.shape}, expected ({op.d0},)")
    h = cfg.step
    steps = int(round(cfg.horizon / h))
    times = h * np.arange(steps + 1)

    B_T = op.B.T
    Ds_T = op.delta_star_matrix.T
    alpha = cfg.alpha

    def f(state):
        return -alpha * (model.force(state @ B_T) @ Ds_T) - node_field.grad(state)

    states = np.empty((steps + 1, op.d0))
    derivs = np.empty((steps + 1, op.d0))
    # Blow-ups are detected and reported; silence the transient inf/nan noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            fx = f(x)
            if not (np.isfinite(x).all() and np.isfinite(fx).all()):
                raise DivergenceError(
                    f"state diverged at t = {times[k]:.6g}", time=float(times[k])
                )
            states[k] = x
            derivs[k] = fx
            if k < steps:
                k2 = f(x + 0.5 * h * fx)
                k3 = f(x + 0.5 * h * k2)
                k4 = f(x + h * k3)
                x = x + (h / 6.0) * (fx + 2.0 * k2 + 2.0 * k3 + k4)

    if cfg.noise_std > 0:
        rng = np.random.default_rng(cfg.seed)
        states = states + rng.normal(0.0, cfg.noise_std, size=states.shape)
    return Trajectory(times=times, states=states, derivs=derivs)


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV_VAR, "1")))
    except ValueError:
        return 1


def simulate_ensemble(
    op: CoboundaryOperator,
    model: EdgePotential,
    node_field: NodeField,
    initial_conditions: Sequence[np.ndarray],
    cfg: SimConfig,
) -> list[Trajectory | DivergenceError]:
    """Integrate one trajectory per initial condition.

    Trajectory i uses the derived seed (cfg.seed..., i), so an ensemble is
    reproducible from cfg.seed alone.  A diverging trajectory contributes its
    DivergenceError in place without aborting the rest; results are ordered by
    input index.  The SHEAF_SYSID_THREADS environment variable caps the worker
    threads (default 1).
    """
    base = cfg.seed if isinstance(cfg.seed, tuple) else (cfg.seed,)

    def run(i_x0):
        i, x0 = i_x0
        try:
            return integrate(op, model, node_field, x0, replace(cfg, seed=base + (i,)))
        except DivergenceError as exc:
            return exc

    items = list(enumerate(initial_conditions))
    workers = _thread_count()
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, items))
    return [run(item) for item in items]


def equilibrium_projection(
    op: CoboundaryOperator, b: np.ndarray, x0: np.ndarray
) -> np.ndarray:
    """Predicted limit of the shifted-quadratic flow started at x0.

    Returns delta^+ b plus the M1-orthogonal projection of (x0 - delta^+ b)
    onto the global sections.
    """
    xb = delta_pseudoinverse_apply(op, b)
    sections = global_section_basis(op)
    residue = np.asarray(x0, dtype=float) - xb
    proj = sections.basis @ (sections.basis.T @ (op.M1 @ residue))
    return xb + proj


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
    for row in table:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_trajectory_csv(path: str | Path) -> Trajectory:
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise UsageError(f"empty trajectory file {path}")
    header = text[0].split(",")
    if header[0] != "time":
        raise UsageError(f"{path} is not a trajectory file (header {header[:3]}...)")
    n_state = sum(1 for name in header if name.startswith("x"))
    has_derivs = any(name.startswith("dx") for name in header)
    data = np.array([[float(v) for v in line.split(",")] for line in text[1:]])
    times = data[:, 0]
    states = data[:, 1 : 1 + n_state]
    derivs = data[:, 1 + n_state : 1 + 2 * n_state] if has_derivs else None
    return Trajectory(times=times, states=states, derivs=derivs)
