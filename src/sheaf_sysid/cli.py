"""Command-line front end.

Four subcommands -- cohomology, simulate, identify, experiment -- each
driven by one JSON config file, the run's whole input: every seed is a config
key, and the flags only name the config, the output directory and quiet mode.
Every output embeds the config hash and the seeds used, and reruns with an
identical config produce byte-identical files.

Exit codes: 0 success (a non-identifiable diagnosis is a success), 1 usage or
configuration error (bad arguments, or a size too large to allocate), 2
numerical divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .dynamics import (
    SimConfig,
    Trajectory,
    load_trajectory_csv,
    observe,
    save_trajectory_csv,
    simulate_ensemble,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    SheafSysIdError,
    UsageError,
    allocate,
)
from .potentials import (
    Antagonistic,
    BoundedConfidence,
    ConstantEdgeForce,
    LinearBasisPotential,
    Quadratic,
    ShiftedQuadratic,
    monomial_basis,
)
from .sheaf import (
    Sheaf,
    build_coboundary,
    harmonic_basis,
    load_sheaf,
)
from .sysid import fit_linear, fit_threshold, residual_dataset


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def _require_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {sorted(unknown)}")


def _load_config(path: str) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except ValueError as exc:  # not UTF-8, not JSON, or an int past the digit limit
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigurationError("config must be a JSON object")
    nulls = sorted(key for key, value in config.items() if value is None)
    if nulls:
        raise ConfigurationError(f"config keys may not be null: {nulls}")
    return config


def _build_sheaf(spec) -> Sheaf:
    if not isinstance(spec, dict):
        raise ConfigurationError(f"sheaf spec must be an object, got {spec!r}")
    if "path" in spec:
        _require_keys(spec, {"path"}, "sheaf")
        return load_sheaf(_path(spec["path"], "path"))
    _require_keys(spec, {"builtin", "cycle_length", "variant"}, "sheaf")
    if spec.get("builtin") != "cycle":
        raise ConfigurationError("only the 'cycle' builtin sheaf is available")
    return experiments.make_cycle_sheaf(
        _number(spec, "cycle_length", 3, integer=True), spec.get("variant", "identity")
    )


def _number(spec: dict, key: str, default, low: float = -math.inf, integer: bool = False):
    """spec[key] (default when absent) as a checked float or int."""
    return experiments.config_number(spec.get(key, default), key, low, integer)


def _path(value, key: str) -> str:
    """value, a file or directory path; anything but a string without NUL
    characters that the file system can encode (a lone surrogate it cannot)
    raises ConfigurationError naming ``key``."""
    if not isinstance(value, str) or "\0" in value:
        raise ConfigurationError(f"{key} must be a path string, got {value!r}")
    try:
        os.fsencode(value)
    except UnicodeEncodeError:
        raise ConfigurationError(
            f"{key} must be a path string the file system can encode, got {value!r}"
        ) from None
    return value


def _numbers(value, key: str, integer: bool = False) -> list:
    """value, a list of numbers, as finite floats or (``integer``) whole ints;
    anything else raises ConfigurationError naming ``key``."""
    if not isinstance(value, list):
        what = "integers" if integer else "numbers"
        raise ConfigurationError(f"{key} must be a list of {what}, got {value!r}")
    return [experiments.config_number(v, key, integer=integer) for v in value]


def _linear_basis(sheaf: Sheaf, spec: dict, where: str, *keys: str) -> tuple:
    """The monomial basis of a "monomial" spec, plus the constant harmonic
    force of a "harmonic_augmented" one; the spec may also hold ``keys``."""
    basis = monomial_basis(sheaf)
    if spec["kind"] == "monomial":
        _require_keys(spec, {"kind", *keys}, where)
        return basis
    _require_keys(spec, {"kind", "harmonic_force", *keys}, where)
    if "harmonic_force" not in spec:
        raise ConfigurationError(f"{where} needs a 'harmonic_force'")
    force = np.array(_numbers(spec["harmonic_force"], "harmonic_force"))
    return basis + (ConstantEdgeForce(sheaf, force),)


def _build_potential(sheaf: Sheaf, spec: dict):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError("potential spec must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "quadratic":
        _require_keys(spec, {"kind"}, "potential")
        return Quadratic(sheaf)
    if kind == "shifted_quadratic":
        _require_keys(spec, {"kind", "target"}, "potential")
        return ShiftedQuadratic(sheaf, np.array(_numbers(spec.get("target"), "target")))
    if kind == "bounded_confidence":
        _require_keys(spec, {"kind", "epsilon"}, "potential")
        return BoundedConfidence(sheaf, _number(spec, "epsilon", None))
    if kind == "antagonistic":
        _require_keys(spec, {"kind", "negative_edges"}, "potential")
        edges = _numbers(spec.get("negative_edges"), "negative_edges", integer=True)
        return Antagonistic(sheaf, edges)
    if kind in ("monomial", "harmonic_augmented"):
        basis = _linear_basis(sheaf, spec, "potential", "theta")
        return LinearBasisPotential(sheaf, basis, _numbers(spec.get("theta"), "theta"))
    raise ConfigurationError(f"unknown potential kind '{kind}'")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def cmd_cohomology(config: dict, out_dir: Path, quiet: bool) -> int:
    _require_keys(config, {"command", "sheaf"}, "config")
    sheaf = _build_sheaf(config.get("sheaf", {}))
    op = build_coboundary(sheaf)
    harm = harmonic_basis(op)
    dim_h0 = op.d0 - op.rank()
    eigs = np.zeros(op.d0)
    s = op.singular_values()
    eigs[: s.size] = s**2
    lam_min = float(eigs.min()) if op.d0 else 0.0
    lam_max = float(eigs.max()) if op.d0 else 0.0

    lines = [
        f"dim H0 = {dim_h0}",
        f"dim H1 = {harm.shape[1]}",
        f"lambda range of delta*delta = [{lam_min!r}, {lam_max!r}]",
    ]
    if not quiet:
        print("\n".join(lines))
    tag = config_hash(config)
    report = {
        "config_hash": tag,
        "dim_h0": dim_h0,
        "dim_h1": harm.shape[1],
        "laplacian_lambda_min": lam_min,
        "laplacian_lambda_max": lam_max,
    }
    _write_json(out_dir / f"cohomology_{tag}.json", report)
    basis_rows = [",".join(map(repr, col.tolist())) for col in harm.T]
    (out_dir / f"harmonic_basis_{tag}.csv").write_text(
        "\n".join(basis_rows) + ("\n" if basis_rows else "")
    )
    return 0


def _initial_states(config: dict, d0: int, seed: int) -> list[np.ndarray] | np.ndarray:
    spec = config.get("initial_states")
    if spec is not None:
        if not isinstance(spec, list) or not spec:
            raise ConfigurationError(f"initial_states must be a non-empty list, got {spec!r}")
        states = [np.array(_numbers(x, "initial_states")) for x in spec]
        for x in states:
            if x.shape != (d0,):
                raise ConfigurationError("initial state has the wrong length")
        return states
    rand = config.get("random_initial_states")
    if rand is None:
        raise ConfigurationError("simulate needs initial_states or random_initial_states")
    if not isinstance(rand, dict):
        raise ConfigurationError("random_initial_states must be an object")
    _require_keys(rand, {"count", "scale"}, "random_initial_states")
    rng = np.random.default_rng([seed, 17])
    count = _number(rand, "count", 1, low=1, integer=True)
    scale = _number(rand, "scale", 1.0)
    states = allocate(
        lambda: rng.standard_normal((count, d0)),
        f"random_initial_states count {count} is too many starts to allocate",
    )
    states *= scale
    return states


_SIMULATE_KEYS = {
    "command",
    "sheaf",
    "potential",
    "initial_states",
    "random_initial_states",
    "horizon",
    "step",
    "seed",
    "noise_std",
}


def cmd_simulate(config: dict, out_dir: Path, quiet: bool) -> int:
    _require_keys(config, _SIMULATE_KEYS, "config")
    sheaf = _build_sheaf(config.get("sheaf", {}))
    op = build_coboundary(sheaf)
    model = _build_potential(sheaf, config.get("potential", {"kind": "quadratic"}))
    cfg = SimConfig(
        horizon=_number(config, "horizon", 10.0),
        step=_number(config, "step", 0.01),
    )
    seed = _number(config, "seed", 0, low=0, integer=True)
    noise_std = _number(config, "noise_std", 0.0, low=0.0)
    ics = _initial_states(config, op.d0, seed)
    results = simulate_ensemble(op, model, ics, cfg)

    tag = config_hash(config)
    files, failures = [], []
    for i, result in enumerate(results):
        if isinstance(result, Trajectory):
            name = f"trajectory_{tag}_{i:03d}.csv"
            save_trajectory_csv(observe(result, noise_std, (seed, i)), out_dir / name)
            files.append(name)
        else:
            failures.append({"index": i, "time": result.time, "error": str(result)})
    manifest = {
        "config_hash": tag,
        "seed": seed,
        "step": cfg.step,
        "horizon": cfg.horizon,
        "noise_std": noise_std,
        "trajectories": files,
        "diverged": failures,
    }
    _write_json(out_dir / f"manifest_{tag}.json", manifest)
    if not quiet:
        print(f"wrote {len(files)} trajectories to {out_dir}")
    if failures:
        raise DivergenceError(f"{len(failures)}/{len(ics)} starts diverged (manifest_{tag}.json)")
    return 0


_IDENTIFY_KEYS = {
    "command",
    "sheaf",
    "trajectories",
    "family",
    "residuals",
}


def _read_manifest(path: Path) -> tuple[Path, list[str]]:
    """The simulate manifest at path, or the one in the directory path, and
    the trajectory file names it lists."""
    found = sorted(path.glob("manifest_*.json")) if path.is_dir() else [path]
    if len(found) != 1:
        raise ConfigurationError(f"{path} holds {[p.name for p in found]}, not one manifest")
    try:
        manifest = json.loads(found[0].read_text())
    except ValueError:  # not UTF-8 or not JSON
        manifest = None
    names = manifest.get("trajectories") if isinstance(manifest, dict) else None
    if not isinstance(names, list) or not names or not all(
        isinstance(name, str) and name.isprintable() and Path(name).name == name for name in names
    ):
        raise UsageError(f"{found[0]} is not a simulate manifest that lists trajectory files")
    return found[0], names


def cmd_identify(config: dict, out_dir: Path, quiet: bool) -> int:
    _require_keys(config, _IDENTIFY_KEYS, "config")
    sheaf = _build_sheaf(config.get("sheaf", {}))
    op = build_coboundary(sheaf)
    manifest, names = _read_manifest(Path(_path(config.get("trajectories", "."), "trajectories")))
    paths = [manifest.parent / name for name in names]
    trajectories = [load_trajectory_csv(p) for p in paths]
    for path, traj in zip(paths, trajectories):
        if traj.states.shape[1] != op.d0:
            raise UsageError(f"{path}: state width {traj.states.shape[1]} is not d0 = {op.d0}")

    mode = config.get("residuals", "observed")
    data = residual_dataset(op, trajectories, mode)

    family = config.get("family")
    if not isinstance(family, dict) or "kind" not in family:
        raise ConfigurationError("identify needs a 'family' object with a 'kind'")
    if family["kind"] == "threshold":
        _require_keys(family, {"kind", "bracket"}, "family")
        bracket = family.get("bracket", list(experiments.THRESHOLD_BRACKET))
        if not isinstance(bracket, list) or len(bracket) != 2:
            raise ConfigurationError("bracket must be a list [lo, hi]")
        lo, hi = (experiments.config_number(v, "bracket") for v in bracket)
        result = fit_threshold(op, data, (lo, hi))
        estimate = {"epsilon_hat": float(result.theta_hat[0])}
        criterion = {"information": result.report.lambda_min}
    elif family["kind"] in ("monomial", "harmonic_augmented"):
        basis = _linear_basis(sheaf, family, "family")
        result = fit_linear(op, basis, data)
        estimate = {"theta_hat": result.theta_hat.tolist()}
        criterion = {
            "lambda_min": result.report.lambda_min,
            "lambda_max": result.report.lambda_max,
        }
    else:
        raise ConfigurationError(f"unknown family kind '{family['kind']}'")

    tag = config_hash(config)
    report = {
        "config_hash": tag,
        "manifest": manifest.name,
        "trajectory_files": names,
        "n_samples": data.n_samples,
        "residual_mode": mode,
        "identifiable": bool(result.report.identifiable),
        "objective_value": result.objective_value,
        "diagnostics": result.diagnostics,
        **estimate,
        **criterion,
    }
    _write_json(out_dir / f"identify_{tag}.json", report)
    if not quiet:
        print(json.dumps(report, indent=1, sort_keys=True))
    return 0


# Every ExperimentConfig field is a config key of the same name, except
# experiment_id, which the config calls "experiment".
_EXPERIMENT_FIELDS = [
    f.name for f in dataclasses.fields(experiments.ExperimentConfig) if f.name != "experiment_id"
]


def cmd_experiment(config: dict, out_dir: Path, quiet: bool) -> int:
    _require_keys(config, {"command", "experiment", *_EXPERIMENT_FIELDS}, "config")
    kwargs = {key: config[key] for key in _EXPERIMENT_FIELDS if key in config}
    if "seeds" in kwargs:
        if not isinstance(kwargs["seeds"], list):
            raise ConfigurationError("seeds must be a list of integers")
        kwargs["seeds"] = tuple(kwargs["seeds"])
    cfg = experiments.ExperimentConfig(experiment_id=str(config.get("experiment")), **kwargs)
    output = experiments.run_experiment(cfg)

    tag = config_hash(config)
    wrote = []
    for label, rows in (("summary", output.summary), ("force_checks", output.force_checks)):
        if not rows:
            continue
        stem = f"{output.name}_{label}_{tag}"
        for row in rows:
            row.setdefault("config_hash", tag)
        (out_dir / f"{stem}.csv").write_text(experiments.rows_to_csv(rows))
        (out_dir / f"{stem}.txt").write_text(experiments.rows_to_text(rows))
        wrote += [f"{stem}.csv", f"{stem}.txt"]
    if not quiet:
        print(experiments.rows_to_text(output.summary))
        print(f"wrote {', '.join(wrote)} to {out_dir}")
    return 0


_COMMANDS = {
    "cohomology": cmd_cohomology,
    "simulate": cmd_simulate,
    "identify": cmd_identify,
    "experiment": cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sheaf-sysid",
        description="Sheaf diffusion dynamics and edge-law recovery",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--quiet", action="store_true")

    def refuse(message):
        raise UsageError(message)

    parser.error = refuse  # a bad argument list exits 1 with one error line, not 2
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        if config.get("command", args.command) != args.command:
            raise ConfigurationError(
                f"config declares command '{config['command']}', invoked as '{args.command}'"
            )
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out_dir, args.quiet)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SheafSysIdError, OSError) as exc:  # OSError: an unreadable input, an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
