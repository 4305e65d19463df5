"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criteria 3 and 4 run the full eight-seed sweeps; criterion 5 reuses the
finite-basis output, so running this module end to end costs roughly the two
sweeps plus the property suite.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
from conftest import random_sheaf

from sheaf_sysid.cli import main as cli_main
from sheaf_sysid.dynamics import SimConfig, equilibrium_projection, integrate
from sheaf_sysid.experiments import (
    ExperimentConfig,
    make_cycle_sheaf,
    run_bounded_confidence,
    run_finite_basis,
    run_formation_transfer,
)
from sheaf_sysid.potentials import (
    Antagonistic,
    BoundedConfidence,
    LinearBasisPotential,
    Quadratic,
    ShiftedQuadratic,
    monomial_basis,
    monomial_potential,
)
from sheaf_sysid.sheaf import (
    apply_delta,
    apply_delta_star,
    build_coboundary,
    c0_inner,
    c1_inner,
    global_section_basis,
    harmonic_basis,
    hodge_project,
)
from sheaf_sysid.sysid import ResidualDataset, fit_linear


class criterion:
    """Times a criterion body and prints one pass/fail line."""

    def __init__(self, number, name, budget_seconds):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"criterion {self.number} ({self.name}): {verdict} "
            f"[{elapsed:.1f}s, budget {self.budget:.0f}s]"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


@functools.lru_cache(maxsize=1)
def bounded_confidence_output():
    return run_bounded_confidence(ExperimentConfig(experiment_id="bounded_confidence"))


@functools.lru_cache(maxsize=1)
def finite_basis_output():
    return run_finite_basis(ExperimentConfig(experiment_id="finite_basis"))


def test_criterion_1_cohomology_dimensions():
    with criterion(1, "cohomology dimensions", 1.0):
        for n in (3, 5):
            identity = build_coboundary(make_cycle_sheaf(n, "identity"))
            rotated = build_coboundary(make_cycle_sheaf(n, "rotated"))
            assert harmonic_basis(identity).shape[1] == 2
            assert harmonic_basis(rotated).shape[1] == 0


def test_criterion_2_formation_transfer_table():
    with criterion(2, "formation transfer table", 10.0):
        out = run_formation_transfer(ExperimentConfig(experiment_id="formation_transfer"))
        rows = {r["sheaf"]: r for r in out.summary}
        assert rows["3-cycle, Sheaf A"]["max_rollout_diff"] <= 1e-12
        assert rows["5-cycle, Sheaf A"]["max_rollout_diff"] <= 1e-12
        assert rows["3-cycle, Sheaf B"]["max_rollout_diff"] >= 0.1
        assert rows["5-cycle, Sheaf B"]["max_rollout_diff"] >= 0.1
        assert abs(rows["3-cycle, Sheaf A"]["force_mse"] - 1.08) <= 1e-9
        assert abs(rows["3-cycle, Sheaf B"]["force_mse"] - 1.08) <= 1e-9
        assert abs(rows["5-cycle, Sheaf A"]["force_mse"] - 1.80) <= 1e-9
        assert abs(rows["5-cycle, Sheaf B"]["force_mse"] - 1.80) <= 1e-9


def test_criterion_3_threshold_recovery_regimes():
    with criterion(3, "threshold recovery regimes", 120.0):
        out = bounded_confidence_output()
        rows = {r["setting"]: r for r in out.summary}
        assert all(r["n_seeds"] == 8 for r in rows.values())
        assert rows["Broad / Obs."]["threshold_error_mean"] <= 1e-6
        assert 1e-4 <= rows["Broad / FD"]["threshold_error_mean"] <= 1e-2
        assert rows["Localized / FD"]["threshold_error_mean"] >= 1e-2
        for mode in ("Obs.", "FD"):
            broad = rows[f"Broad / {mode}"]["information_mean"]
            localized = rows[f"Localized / {mode}"]["information_mean"]
            assert broad / localized >= 3.0


def test_criterion_4_finite_basis_regimes():
    with criterion(4, "finite basis regimes", 120.0):
        out = finite_basis_output()
        rows = {r["setting"]: r for r in out.summary}
        broad = rows["Correct / Broad / Obs."]
        assert broad["n_seeds"] == 8
        assert broad["param_error_mean"] <= 1e-8
        assert broad["lambda_min_mean"] > 1.0
        aug = rows["Augmented / Obs."]
        assert aug["lambda_min_mean"] <= 1e-10 * aug["lambda_max_mean"]
        assert aug["rollout_rmse_mean"] <= 1e-10
        assert aug["param_error_mean"] >= 0.1
        for mode in ("Obs.", "FD"):
            assert rows[f"Correct / Limited / {mode}"]["lambda_min_mean"] <= 1e-12


def test_criterion_5_force_checks_expose_hidden_errors():
    with criterion(5, "force checks expose hidden errors", 120.0):
        out = finite_basis_output()
        force = {r["setting"]: r for r in out.force_checks}
        for mode in ("Obs.", "FD"):
            row = force[f"Correct / Limited / {mode}"]
            assert row["pooled_mse_median"] >= 1e3 * row["holdout_mse_median"]
            assert row["grid_mse_median"] >= 1e3 * row["holdout_mse_median"]


def test_criterion_6_property_suite():
    with criterion(6, "property suite", 60.0):
        rng = np.random.default_rng(2024)

        # adjoint identity, Hodge completeness/orthogonality, harmonic invisibility
        for trial in range(20):
            op = build_coboundary(random_sheaf(rng, allow_self_loops=trial % 5 == 0))
            for _ in range(5):
                x = rng.standard_normal(op.d0)
                y = rng.standard_normal(op.d1)
                lhs = c1_inner(op, apply_delta(op, x), y)
                rhs = c0_inner(op, x, apply_delta_star(op, y))
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
            harm = harmonic_basis(op)
            sections = global_section_basis(op)
            assert op.rank() + harm.shape[1] == op.d1
            assert sections.shape[1] + op.rank() == op.d0
            for col in harm.T:
                assert np.linalg.norm(apply_delta_star(op, col)) <= 1e-10
            y = rng.standard_normal(op.d1)
            im_part, harm_part = hodge_project(op, harm, y)
            assert abs(c1_inner(op, im_part, harm_part)) <= 1e-10 * (
                1.0 + c1_inner(op, y, y)
            )

        # finite-difference gradient check for every potential family
        sheaf = random_sheaf(rng, n_vertices=3, n_edges=4)
        op = build_coboundary(sheaf)
        models = [
            Quadratic(sheaf),
            ShiftedQuadratic(sheaf, rng.standard_normal(op.d1)),
            Antagonistic(sheaf, [0]),
            BoundedConfidence(sheaf, 1.0),
            monomial_potential(sheaf, [1.0, 0.25, 0.03]),
        ]
        h = 1e-6
        for model in models:
            point = 0.5 * rng.standard_normal(op.d1)
            force = op.M2 @ model.force(point)
            for i in range(op.d1):
                up, dn = point.copy(), point.copy()
                up[i] += h
                dn[i] -= h
                fd = (model.value(up) - model.value(dn)) / (2 * h)
                assert abs(force[i] - fd) <= 1e-6 * (1.0 + abs(fd))

        # energy dissipation along 50 random noiseless trajectories; moderate
        # amplitudes and a smaller step keep the random stiff cases stable
        for trial in range(50):
            sheaf = random_sheaf(rng, n_vertices=3, n_edges=4)
            op = build_coboundary(sheaf)
            model = [
                Quadratic(sheaf),
                ShiftedQuadratic(sheaf, rng.standard_normal(op.d1)),
                BoundedConfidence(sheaf, 1.0),
                monomial_potential(sheaf, [1.0, 0.25, 0.03]),
            ][trial % 4]
            traj = integrate(
                op,
                model,
                0.3 * rng.standard_normal(op.d0),
                SimConfig(horizon=1.0, step=0.005),
            )
            energies = model.value(apply_delta(op, traj.states))
            assert np.all(np.diff(energies) <= 1e-9)

        # predicted equilibrium of the formation law
        for variant, horizon in (("identity", 20.0), ("rotated", 30.0)):
            sheaf = make_cycle_sheaf(3, variant)
            op = build_coboundary(sheaf)
            b = rng.standard_normal(op.d1)
            x0 = rng.standard_normal(op.d0)
            traj = integrate(
                op, ShiftedQuadratic(sheaf, b), x0, SimConfig(horizon=horizon)
            )
            assert np.abs(
                traj.states[-1] - equilibrium_projection(op, b, x0)
            ).max() <= 1e-6

        # integrator order: halving the step cuts the error by >= 12
        sheaf = make_cycle_sheaf(3, "identity")
        op = build_coboundary(sheaf)
        model = monomial_potential(sheaf, [1.0, 0.25, 0.03])
        x0 = rng.standard_normal(op.d0)

        def terminal(step):
            return integrate(
                op, model, x0, SimConfig(horizon=1.0, step=step)
            ).states[-1]

        reference = terminal(0.01 / 16)
        ratio = np.linalg.norm(terminal(0.01) - reference) / np.linalg.norm(
            terminal(0.005) - reference
        )
        assert ratio >= 12.0

        # identifiability flag == round-trip success, 20 random instances
        for trial in range(20):
            sheaf = random_sheaf(
                rng,
                n_vertices=int(rng.integers(2, 5)),
                n_edges=int(rng.integers(2, 6)),
                weighted=trial % 2 == 0,
            )
            op = build_coboundary(sheaf)
            if trial % 3 == 0:
                n = int(rng.integers(1, 7))
                states = 1e-3 * rng.standard_normal((n, op.d0))
            else:
                n = int(rng.integers(4, 8))
                rows = rng.standard_normal((n, op.d0))
                rows /= np.linalg.norm(rows, axis=1, keepdims=True)
                states = np.linspace(0.6, 1.8, n)[:, None] * rows
            theta = rng.uniform(0.5, 1.5, 3)
            model = LinearBasisPotential(sheaf, monomial_basis(sheaf), theta)
            edge = states @ op.B.T
            data = ResidualDataset(
                states=states,
                residuals=model.force(edge) @ op.delta_star_matrix.T,
                edge_states=edge,
                source="exact",
            )
            result = fit_linear(op, monomial_basis(sheaf), data)
            round_trip = (
                np.linalg.norm(result.theta_hat - theta)
                <= 1e-8 * np.linalg.norm(theta)
            )
            assert round_trip == result.report.identifiable


def test_criterion_7_rerun_determinism(tmp_path):
    with criterion(7, "rerun determinism", 120.0):
        sim_config = {
            "command": "simulate",
            "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "rotated"},
            "potential": {"kind": "bounded_confidence", "epsilon": 1.0},
            "random_initial_states": {"count": 4, "scale": 0.8},
            "horizon": 2.0,
            "noise_std": 0.005,
            "seed": 1,
        }
        sim_dir = tmp_path / "sim_data"
        sim_path = tmp_path / "sim.json"
        sim_path.write_text(json.dumps(sim_config))
        assert cli_main(
            ["simulate", "--config", str(sim_path), "--out", str(sim_dir), "--quiet"]
        ) == 0

        configs = {
            "simulate": sim_config,
            "cohomology": {
                "command": "cohomology",
                "sheaf": {"builtin": "cycle", "cycle_length": 5, "variant": "identity"},
            },
            "identify": {
                "command": "identify",
                "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "rotated"},
                "trajectories": str(sim_dir),
                "family": {"kind": "threshold", "bracket": [0.25, 4.0]},
                "residuals": "finite_difference",
            },
            "experiment": {
                "command": "experiment",
                "experiment": "formation_transfer",
            },
        }
        for command, config in configs.items():
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(config))
            outs = []
            for run in ("a", "b"):
                out_dir = tmp_path / f"{command}_{run}"
                code = cli_main(
                    [command, "--config", str(cfg_path), "--out", str(out_dir), "--quiet"]
                )
                assert code == 0
                outs.append(
                    {
                        p.name: p.read_bytes()
                        for p in sorted(Path(out_dir).rglob("*"))
                        if p.is_file()
                    }
                )
            assert outs[0] == outs[1], f"{command} rerun differed"
