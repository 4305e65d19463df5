"""The benchmark's four workloads: inputs from a seed, one timed unit, checks.

A workload's ``setup`` turns the benchmark seed into the inputs the package
receives (experiment configs or CLI config files) and validates them; a
``unit`` is the repeatable piece of work that is timed; ``check`` compares a
unit's output with reference values recorded from the seed commit
(``reference.json``) or with closed-form values, at stated tolerances, and
returns the list of problems found (empty when the unit is correct).

Tolerances are not bitwise: a legitimate reordering of floating-point sums
(batched RK4, a different Gram path) moves results by ~1e-16 relative, and
the checks must not count that as a failure.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

# Experiment seeds whose sweep outputs are recorded in reference.json; a
# benchmark seed picks one of them.
REFERENCE_SEEDS = tuple(range(8))

TRUE_THRESHOLD = 1.0
TRUE_MONOMIAL_THETA = (1.0, 0.25, 0.03)
TAIL_ROTATION = math.pi / 4.0


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text())


# -- comparison helpers -----------------------------------------------------


def close(problems: list, what: str, got, want, rtol: float, atol: float = 0.0):
    """Record a problem unless |got - want| <= atol + rtol * |want|."""
    if not isinstance(got, (int, float)) or not math.isfinite(got):
        problems.append(f"{what}: got {got!r}, want {want!r}")
    elif abs(got - want) > atol + rtol * abs(want):
        problems.append(f"{what}: got {got!r}, want {want!r} (rtol {rtol}, atol {atol})")


def require(problems: list, what: str, ok: bool, detail) -> None:
    if not ok:
        problems.append(f"{what}: {detail}")


def _by_setting(rows: list[dict]) -> dict[str, dict]:
    return {row["setting"]: row for row in rows}


def _compare_rows(problems, label, got_rows, want_rows, tolerances_for):
    got = _by_setting(got_rows)
    want = _by_setting(want_rows)
    if sorted(got) != sorted(want):
        problems.append(f"{label}: settings {sorted(got)} != {sorted(want)}")
        return
    for setting, ref in want.items():
        row = got[setting]
        for field, tol in tolerances_for(setting).items():
            if field in ref:
                rtol, atol = tol(ref) if callable(tol) else tol
                close(problems, f"{label}[{setting}].{field}", row.get(field), ref[field], rtol, atol)


# -- study sweeps -------------------------------------------------------------


@dataclass
class SweepInputs:
    config: object
    seed: int
    reference: dict


class _Sweep:
    experiment = ""
    variant = ""
    # The study at a fifth of its 10.0 training horizon and half its holdout
    # count, so that one unit takes ~1 s and a run holds enough units for a
    # steady median; every condition and code path still runs.  reference.json
    # holds the outputs for exactly these settings.
    training_horizon = 2.0
    n_holdout = 2
    exact_tolerances: dict = {}  # field -> (rtol, atol) or ref_row -> (rtol, atol)

    def tolerances(self, setting: str) -> dict:
        return self.exact_tolerances

    def config(self, pkg, exp_seed: int):
        return pkg.ss.ExperimentConfig(
            experiment_id=self.experiment,
            seeds=(exp_seed,),
            training_horizon=self.training_horizon,
            n_holdout=self.n_holdout,
        )

    def setup(self, pkg, seed: int, work_dir: Path) -> SweepInputs:
        exp_seed = REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]
        config = self.config(pkg, exp_seed)
        # Validate the study's sheaf before timing (cheap at n = 3).
        pkg.ss.make_cycle_sheaf(config.cycle_length, self.variant)
        reference = load_reference()[self.experiment][str(exp_seed)]
        return SweepInputs(config=config, seed=exp_seed, reference=reference)

    def unit(self, pkg, inputs: SweepInputs, index: int):
        return pkg.ss.run_experiment(inputs.config)

    def check(self, inputs: SweepInputs, output) -> list[str]:
        problems: list[str] = []
        ref = inputs.reference
        for label in ("summary", "force_checks"):
            _compare_rows(problems, label, getattr(output, label), ref[label], self.tolerances)
        if not problems:
            self.predicates(problems, _by_setting(output.summary), _by_setting(output.force_checks))
        return problems

    def predicates(self, problems, rows, force) -> None:
        raise NotImplementedError

    def cleanup(self, inputs, output) -> None:
        pass


class ThresholdSweep(_Sweep):
    name = "threshold_sweep"
    experiment = "bounded_confidence"
    variant = "rotated"
    exact_tolerances = {
        "threshold_error_mean": (1e-6, 1e-9),
        "rollout_rmse_mean": (1e-6, 1e-9),
        "information_mean": (1e-9, 0.0),
        "n_seeds": (0.0, 0.0),
        "holdout_mse_median": (1e-6, 1e-12),
        "pooled_mse_median": (1e-6, 1e-12),
        "grid_mse_median": (1e-6, 1e-12),
    }
    # Finite-difference residuals make the threshold loss non-unimodal, so a
    # reordering at the 1e-16 level can move golden section to a neighbouring
    # seam.  Measured under a reordered RK4 update, the shifts reach 3e-5
    # relative (threshold error, rollout and force errors) and 7e-7
    # (information); these bounds leave a margin of 40x or more.
    noisy_tolerances = {
        "threshold_error_mean": (2e-3, 1e-9),
        "rollout_rmse_mean": (2e-3, 1e-9),
        "information_mean": (3e-5, 1e-9),
        "n_seeds": (0.0, 0.0),
        "holdout_mse_median": (2e-3, 1e-12),
        "pooled_mse_median": (2e-3, 1e-12),
        "grid_mse_median": (2e-3, 1e-12),
    }

    def tolerances(self, setting: str) -> dict:
        return self.noisy_tolerances if setting.endswith("FD") else self.exact_tolerances

    def predicates(self, problems, rows, force) -> None:
        # The acceptance criteria that hold seed by seed.
        err = rows["Broad / Obs."]["threshold_error_mean"]
        require(problems, "Broad / Obs. threshold error", err <= 1e-6, err)
        for mode in ("Obs.", "FD"):
            broad = rows[f"Broad / {mode}"]["information_mean"]
            local = rows[f"Localized / {mode}"]["information_mean"]
            require(problems, f"{mode} information ratio", broad >= 3.0 * local, (broad, local))


class BasisSweep(_Sweep):
    name = "basis_sweep"
    experiment = "finite_basis"
    variant = "identity"
    exact_tolerances = {
        "param_error_mean": (1e-6, 1e-9),
        "rollout_rmse_mean": (1e-6, 1e-9),
        # Limited coverage leaves lambda_min at rounding level; compare it
        # against the spectrum's scale rather than its own value.
        "lambda_min_mean": lambda ref: (1e-6, 1e-9 * ref["lambda_max_mean"]),
        "lambda_max_mean": (1e-9, 0.0),
        "n_seeds": (0.0, 0.0),
        "holdout_mse_median": (1e-6, 1e-12),
        "pooled_mse_median": (1e-6, 1e-12),
        "grid_mse_median": (1e-6, 1e-12),
    }

    def predicates(self, problems, rows, force) -> None:
        broad = rows["Correct / Broad / Obs."]
        require(problems, "Broad / Obs. param error", broad["param_error_mean"] <= 1e-8, broad)
        require(problems, "Broad / Obs. lambda_min", broad["lambda_min_mean"] > 1.0, broad)
        aug = rows["Augmented / Obs."]
        require(
            problems,
            "Augmented singular Gram",
            aug["lambda_min_mean"] <= 1e-10 * aug["lambda_max_mean"],
            aug,
        )
        require(problems, "Augmented rollout agreement", aug["rollout_rmse_mean"] <= 1e-10, aug)
        close(problems, "Augmented param error", aug["param_error_mean"], 0.4363, 1e-3)
        for mode in ("Obs.", "FD"):
            limited = rows[f"Correct / Limited / {mode}"]
            require(problems, f"Limited / {mode} lambda_min", limited["lambda_min_mean"] <= 1e-12, limited)
            row = force[f"Correct / Limited / {mode}"]
            hold = row["holdout_mse_median"]
            require(problems, f"Limited / {mode} pooled mse", row["pooled_mse_median"] >= 1e3 * hold, row)
            require(problems, f"Limited / {mode} grid mse", row["grid_mse_median"] >= 1e3 * hold, row)


# -- CLI workloads ------------------------------------------------------------


def _write_config(path: Path, config: dict) -> str:
    path.write_text(json.dumps(config, sort_keys=True))
    return str(path)


@dataclass
class PipelineInputs:
    root: Path
    steps: list  # [(family, sim_config_path, traj_dir, identify_config_path, out_dir)]
    samples: int


class WidePipeline:
    name = "wide_pipeline"

    def __init__(self, cycle_length: int = 101, count: int = 1, horizon: float = 1.0):
        self.cycle_length = cycle_length  # odd: n = 0 (mod 8) has H1 != 0
        self.count = count
        self.horizon = horizon
        self.step = 0.01

    def setup(self, pkg, seed: int, work_dir: Path) -> PipelineInputs:
        sheaf_spec = {"builtin": "cycle", "cycle_length": self.cycle_length, "variant": "rotated"}
        pkg.ss.make_cycle_sheaf(self.cycle_length, "rotated")
        root = work_dir / "wide_pipeline"
        root.mkdir(parents=True, exist_ok=True)
        potentials = {
            "threshold": {"kind": "bounded_confidence", "epsilon": TRUE_THRESHOLD},
            "monomial": {"kind": "monomial", "theta": list(TRUE_MONOMIAL_THETA)},
        }
        steps = []
        for family, potential in potentials.items():
            traj_dir = root / f"trajectories_{family}"
            out_dir = root / f"report_{family}"
            sim = {
                "command": "simulate",
                "sheaf": sheaf_spec,
                "potential": potential,
                "random_initial_states": {"count": self.count, "scale": 0.8},
                "horizon": self.horizon,
                "step": self.step,
                "seed": seed,
                "noise_std": 0.0,
            }
            ident = {
                "command": "identify",
                "sheaf": sheaf_spec,
                "trajectories": str(traj_dir),
                "family": {"kind": family},
                "residuals": "observed",
            }
            steps.append(
                (
                    family,
                    _write_config(root / f"simulate_{family}.json", sim),
                    str(traj_dir),
                    _write_config(root / f"identify_{family}.json", ident),
                    str(out_dir),
                )
            )
        samples = self.count * (int(round(self.horizon / self.step)) + 1)
        return PipelineInputs(root=root, steps=steps, samples=samples)

    def unit(self, pkg, inputs: PipelineInputs, index: int):
        codes = {}
        for family, sim_path, traj_dir, id_path, out_dir in inputs.steps:
            codes[f"simulate_{family}"] = pkg.cli.main(
                ["simulate", "--config", sim_path, "--out", traj_dir, "--quiet"]
            )
            if codes[f"simulate_{family}"] != 0:
                continue
            codes[f"identify_{family}"] = pkg.cli.main(
                ["identify", "--config", id_path, "--out", out_dir, "--quiet"]
            )
        return codes

    def check(self, inputs: PipelineInputs, codes: dict) -> list[str]:
        problems: list[str] = []
        for family, _, traj_dir, _, out_dir in inputs.steps:
            for stage in ("simulate", "identify"):
                code = codes.get(f"{stage}_{family}")
                require(problems, f"{stage} {family} exit code", code == 0, code)
            if problems:
                continue
            manifests = list(Path(traj_dir).glob("manifest_*.json"))
            reports = list(Path(out_dir).glob("identify_*.json"))
            require(problems, f"{family} output files", len(manifests) == len(reports) == 1,
                    (manifests, reports))
            if problems:
                continue
            manifest = json.loads(manifests[0].read_text())
            report = json.loads(reports[0].read_text())
            require(problems, f"{family} trajectories", len(manifest["trajectories"]) == self.count,
                    manifest["trajectories"])
            require(problems, f"{family} divergences", manifest["diverged"] == [], manifest["diverged"])
            require(problems, f"{family} samples", report["n_samples"] == inputs.samples,
                    report["n_samples"])
            require(problems, f"{family} identifiable", report["identifiable"] is True, report)
            if family == "threshold":
                close(problems, "epsilon_hat", report["epsilon_hat"], TRUE_THRESHOLD, 0.0, 1e-8)
                require(problems, "threshold information", report["information"] > 0.0, report)
            else:
                theta = report["theta_hat"]
                err = math.dist(theta, TRUE_MONOMIAL_THETA) / math.hypot(*TRUE_MONOMIAL_THETA)
                require(problems, "theta_hat relative error", err <= 1e-8, theta)
                require(problems, "monomial lambda_min", report["lambda_min"] > 0.0, report)
        return problems

    def cleanup(self, inputs: PipelineInputs, codes) -> None:
        for _, _, traj_dir, _, out_dir in inputs.steps:
            shutil.rmtree(traj_dir, ignore_errors=True)
            shutil.rmtree(out_dir, ignore_errors=True)


@dataclass
class ScanInputs:
    root: Path
    configs: list  # [(n, config_path, out_dir)]


def rotated_cycle_spectrum(n: int) -> tuple[float, float]:
    """Closed-form extreme eigenvalues of delta* delta on the rotated n-cycle.

    The coboundary is block circulant with symbol w I - R(a), so the
    Laplacian's eigenvalues are 2 - 2 cos(2 pi k / n +- a), k = 0..n-1.
    """
    values = [
        2.0 - 2.0 * math.cos(2.0 * math.pi * k / n + sign * TAIL_ROTATION)
        for k in range(n)
        for sign in (1.0, -1.0)
    ]
    return min(values), max(values)


class OperatorScan:
    name = "operator_scan"

    def __init__(self, sizes: tuple[int, ...] = (301, 401)):
        self.sizes = sizes

    def setup(self, pkg, seed: int, work_dir: Path) -> ScanInputs:
        # The scan sizes are fixed; the seed does not change the inputs.
        root = work_dir / "operator_scan"
        root.mkdir(parents=True, exist_ok=True)
        configs = []
        for n in self.sizes:
            if n % 8 == 0:
                raise ValueError(f"rotated {n}-cycle has nonzero H1")
            config = {
                "command": "cohomology",
                "sheaf": {"builtin": "cycle", "cycle_length": n, "variant": "rotated"},
            }
            path = _write_config(root / f"cohomology_{n}.json", config)
            configs.append((n, path, str(root / f"out_{n}")))
        return ScanInputs(root=root, configs=configs)

    def unit(self, pkg, inputs: ScanInputs, index: int):
        return {
            n: pkg.cli.main(["cohomology", "--config", path, "--out", out_dir, "--quiet"])
            for n, path, out_dir in inputs.configs
        }

    def check(self, inputs: ScanInputs, codes: dict) -> list[str]:
        problems: list[str] = []
        for n, _, out_dir in inputs.configs:
            require(problems, f"cohomology {n} exit code", codes.get(n) == 0, codes.get(n))
            reports = list(Path(out_dir).glob("cohomology_*.json"))
            bases = list(Path(out_dir).glob("harmonic_basis_*.csv"))
            if codes.get(n) != 0 or len(reports) != 1 or len(bases) != 1:
                require(problems, f"cohomology {n} outputs", False, (reports, bases))
                continue
            report = json.loads(reports[0].read_text())
            require(problems, f"n={n} dim H0", report["dim_h0"] == 0, report["dim_h0"])
            require(problems, f"n={n} dim H1", report["dim_h1"] == 0, report["dim_h1"])
            require(problems, f"n={n} harmonic basis file", bases[0].read_text() == "", "not empty")
            lam_min, lam_max = rotated_cycle_spectrum(n)
            close(problems, f"n={n} lambda_min", report["laplacian_lambda_min"], lam_min, 1e-7, 1e-14)
            close(problems, f"n={n} lambda_max", report["laplacian_lambda_max"], lam_max, 1e-12)
        return problems

    def cleanup(self, inputs: ScanInputs, codes) -> None:
        for _, _, out_dir in inputs.configs:
            shutil.rmtree(out_dir, ignore_errors=True)


WORKLOADS = {
    w.name: w for w in (ThresholdSweep(), BasisSweep(), WidePipeline(), OperatorScan())
}
