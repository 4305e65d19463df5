"""End-to-end CLI: commands, exit codes, file outputs, determinism."""

import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from sheaf_sysid import cli
from sheaf_sysid.cli import main
from sheaf_sysid.dynamics import SimConfig, integrate, load_trajectory_csv, observe
from sheaf_sysid.experiments import make_cycle_sheaf
from sheaf_sysid.potentials import BoundedConfidence, monomial_basis
from sheaf_sysid.sheaf import build_coboundary, global_section_basis
from sheaf_sysid.sysid import fit_linear, residual_dataset


def write_config(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=1))
    return path


def run_cli(command, config_path, out_dir, extra=()):
    return main(
        [command, "--config", str(config_path), "--out", str(out_dir), "--quiet", *extra]
    )


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# --- cohomology ----------------------------------------------------------------


def test_cohomology_builtin_cycles(tmp_path, capsys):
    for variant, expected in (("identity", 2), ("rotated", 0)):
        cfg = write_config(
            tmp_path,
            f"c_{variant}.json",
            {
                "command": "cohomology",
                "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": variant},
            },
        )
        out = tmp_path / f"out_{variant}"
        code = main(["cohomology", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert f"dim H1 = {expected}" in printed
        report = json.loads(next(out.glob("cohomology_*.json")).read_text())
        assert report["dim_h1"] == expected
        basis_lines = next(out.glob("harmonic_basis_*.csv")).read_text().splitlines()
        assert len(basis_lines) == expected  # one row per harmonic basis vector


@pytest.mark.parametrize("n", [8, 16])
def test_cohomology_of_a_rotated_cycle_with_harmonic_space(tmp_path, capsys, n):
    # n quarter-pi rotations make whole turns: H0 and H1 are two-dimensional
    sheaf = {"builtin": "cycle", "cycle_length": n, "variant": "rotated"}
    cfg = write_config(tmp_path, "c.json", {"command": "cohomology", "sheaf": sheaf})
    assert run_cli("cohomology", cfg, tmp_path / "out") == 0
    report = json.loads(next((tmp_path / "out").glob("cohomology_*.json")).read_text())
    assert report["dim_h0"] == report["dim_h1"] == 2
    # the threshold study, which needs H1 = 0, still refuses the length
    payload = {"command": "experiment", "experiment": "bounded_confidence", "cycle_length": n}
    _assert_config_error(tmp_path, capsys, "experiment", payload, "cycle_length")


def test_cohomology_of_a_vanishing_cohomology_asks_for_singular_values_only(
    tmp_path, monkeypatch
):
    calls = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    sheaf = {"builtin": "cycle", "cycle_length": 9, "variant": "rotated"}
    cfg = write_config(tmp_path, "c.json", {"command": "cohomology", "sheaf": sheaf})
    assert run_cli("cohomology", cfg, tmp_path / "out") == 0
    assert calls == [False]


def test_cohomology_holds_no_dense_factor_or_adjoint(tmp_path, monkeypatch):
    # the spectrum is read off the whitened matrix, which is assembled from
    # per-block stacks: B, M1, M2, L1, L2 and delta* are never built, so the
    # traced peak is the whitened matrix and small arrays, where the dense
    # operator build alone would add three more d0 x d0
    ops = []

    def spy(sheaf):
        ops.append(build_coboundary(sheaf))
        return ops[-1]

    monkeypatch.setattr(cli, "build_coboundary", spy)
    sheaf = {"builtin": "cycle", "cycle_length": 101, "variant": "rotated"}
    cfg = write_config(tmp_path, "c.json", {"command": "cohomology", "sheaf": sheaf})
    tracemalloc.start()
    try:
        assert run_cli("cohomology", cfg, tmp_path / "out") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (op,) = ops
    assert op.rank() == op.d0 == 202
    assert not {"B", "M1", "L1", "L2", "delta_star_matrix"} & set(op.__dict__)
    assert "M2" not in op.sheaf.__dict__
    assert peak <= 1.5 * op.d0 * op.d0 * 8


def test_cohomology_two_vertex_path(tmp_path, capsys):
    sheaf_file = tmp_path / "path.json"
    data = {
        "vertex_count": 2,
        "vertex_stalk_dims": [2, 2],
        "edges": [
            {
                "tail": 0,
                "head": 1,
                "stalk_dim": 2,
                "head_map": [[1.0, 0.0], [0.0, 1.0]],
                "tail_map": [[1.0, 0.0], [0.0, 1.0]],
            }
        ],
    }
    sheaf_file.write_text(json.dumps(data))
    cfg = write_config(
        tmp_path, "c_path.json", {"command": "cohomology", "sheaf": {"path": str(sheaf_file)}}
    )
    assert main(["cohomology", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "dim H1 = 0" in capsys.readouterr().out


def test_cohomology_rejects_rank_tol_key(tmp_path, capsys):
    sheaf = {"builtin": "cycle", "cycle_length": 3, "variant": "rotated"}
    payload = {"command": "cohomology", "sheaf": sheaf, "rank_tol": 1.0}
    cfg = write_config(tmp_path, "c.json", payload)
    assert run_cli("cohomology", cfg, tmp_path / "out") == 1
    assert "rank_tol" in capsys.readouterr().err


def test_cohomology_refuses_the_seed_flag(tmp_path, capsys):
    sheaf = {"builtin": "cycle", "cycle_length": 3, "variant": "rotated"}
    cfg = write_config(tmp_path, "c.json", {"command": "cohomology", "sheaf": sheaf})
    assert run_cli("cohomology", cfg, tmp_path / "out", ("--seed", "1")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --seed does not apply to cohomology")
    assert run_cli("cohomology", cfg, tmp_path / "out") == 0


def test_cohomology_malformed_sheaf_file_exits_nonzero(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    cfg = write_config(
        tmp_path, "c_bad.json", {"command": "cohomology", "sheaf": {"path": str(bad)}}
    )
    assert run_cli("cohomology", cfg, tmp_path / "o") == 1


def test_unknown_config_keys_rejected(tmp_path):
    cfg = write_config(
        tmp_path,
        "c_extra.json",
        {"command": "cohomology", "sheaf": {"builtin": "cycle"}, "mystery": 1},
    )
    assert run_cli("cohomology", cfg, tmp_path / "o") == 1


# --- simulate --------------------------------------------------------------------


def test_simulate_quadratic_converges_to_section_projection(tmp_path):
    cfg = write_config(
        tmp_path,
        "sim.json",
        {
            "command": "simulate",
            "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "identity"},
            "potential": {"kind": "quadratic"},
            "random_initial_states": {"count": 2, "scale": 1.0},
            "horizon": 12.0,
            "seed": 7,
        },
    )
    out = tmp_path / "sim_out"
    assert run_cli("simulate", cfg, out) == 0
    manifest = json.loads(next(out.glob("manifest_*.json")).read_text())
    assert len(manifest["trajectories"]) == 2 and not manifest["diverged"]

    sheaf = make_cycle_sheaf(3, "identity")
    op = build_coboundary(sheaf)
    sections = global_section_basis(op)
    for name in manifest["trajectories"]:
        traj = load_trajectory_csv(out / name)
        x0, terminal = traj.states[0], traj.states[-1]
        proj = sections @ (sections.T @ (op.M1 @ x0))
        assert np.abs(terminal - proj).max() <= 1e-6


def test_simulate_zero_start_stays_zero(tmp_path):
    cfg = write_config(
        tmp_path,
        "sim0.json",
        {
            "command": "simulate",
            "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "identity"},
            "potential": {"kind": "quadratic"},
            "initial_states": [[0.0] * 6],
            "horizon": 1.0,
        },
    )
    out = tmp_path / "zero_out"
    assert run_cli("simulate", cfg, out) == 0
    traj = load_trajectory_csv(next(out.glob("trajectory_*.csv")))
    assert np.array_equal(traj.states, np.zeros_like(traj.states))


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        "sim_det.json",
        {
            "command": "simulate",
            "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "rotated"},
            "potential": {"kind": "bounded_confidence", "epsilon": 1.0},
            "random_initial_states": {"count": 3, "scale": 0.8},
            "horizon": 1.0,
            "noise_std": 0.005,
            "seed": 3,
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", cfg, out1) == 0
    assert run_cli("simulate", cfg, out2) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_simulate_writes_trajectory_i_observed_under_seed_path_seed_i(tmp_path):
    sigma, seed, scale = 0.005, 3, 0.8
    payload = _simulate_config(
        sheaf={"builtin": "cycle", "cycle_length": 3, "variant": "rotated"},
        potential={"kind": "bounded_confidence", "epsilon": 1.0},
        random_initial_states={"count": 3, "scale": scale},
        horizon=0.5,
        noise_std=sigma,
        seed=seed,
    )
    out = tmp_path / "noisy"
    assert run_cli("simulate", write_config(tmp_path, "noisy.json", payload), out) == 0
    sheaf = make_cycle_sheaf(3, "rotated")
    op = build_coboundary(sheaf)
    rng = np.random.default_rng([seed, 17])  # the CLI's start stream
    starts = np.array([scale * rng.standard_normal(op.d0) for _ in range(3)])
    clean = integrate(op, BoundedConfidence(sheaf, 1.0), starts, SimConfig(horizon=0.5))
    files = sorted(out.glob("trajectory_*.csv"))
    assert len(files) == 3
    for i, path in enumerate(files):
        written, expected = load_trajectory_csv(path), observe(clean[i], sigma, (seed, i))
        assert np.array_equal(written.times, expected.times)
        assert np.array_equal(written.states, expected.states)
        assert np.array_equal(written.derivs, clean[i].derivs)
        assert not np.array_equal(written.states, clean[i].states)


def test_simulate_divergence_returns_2_with_partial_outputs(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "sim_div.json",
        {
            "command": "simulate",
            "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "identity"},
            "potential": {"kind": "antagonistic", "negative_edges": [0, 1, 2]},
            "initial_states": [[0.1, 0.1, 0.1, 0.1, 0.1, 0.1], [1.0, 0.0, -1.0, 0.5, 0.3, -0.2]],
            "horizon": 300.0,
        },
    )
    out = tmp_path / "div_out"
    assert run_cli("simulate", cfg, out) == 2
    manifest_path = next(out.glob("manifest_*.json"))
    # an error line even under --quiet, as on every other failing path
    assert capsys.readouterr().err == f"error: 1/2 starts diverged ({manifest_path.name})\n"
    manifest = json.loads(manifest_path.read_text())
    assert len(manifest["trajectories"]) == 1  # the global section survived
    assert manifest["diverged"][0]["index"] == 1
    assert manifest["diverged"][0]["time"] > 0


# --- identify ---------------------------------------------------------------------


def _make_training_data(tmp_path, potential, variant="identity", count=6, scale=1.0):
    cfg = write_config(
        tmp_path,
        "gen.json",
        {
            "command": "simulate",
            "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": variant},
            "potential": potential,
            "random_initial_states": {"count": count, "scale": scale},
            "horizon": 4.0,
            "seed": 11,
        },
    )
    data_dir = tmp_path / "data"
    assert run_cli("simulate", cfg, data_dir) == 0
    return data_dir


def test_identify_recovers_monomial_coefficients(tmp_path):
    data_dir = _make_training_data(
        tmp_path, {"kind": "monomial", "theta": [1.0, 0.25, 0.03]}
    )
    cfg = write_config(
        tmp_path,
        "id.json",
        {
            "command": "identify",
            "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "identity"},
            "trajectories": str(data_dir),
            "family": {"kind": "monomial"},
            "residuals": "observed",
        },
    )
    out = tmp_path / "id_out"
    assert run_cli("identify", cfg, out) == 0
    report = json.loads(next(out.glob("identify_*.json")).read_text())
    assert report["identifiable"] is True
    assert np.abs(np.array(report["theta_hat"]) - [1.0, 0.25, 0.03]).max() <= 1e-6


def test_identify_flags_augmented_basis_but_exits_zero(tmp_path):
    data_dir = _make_training_data(
        tmp_path, {"kind": "monomial", "theta": [1.0, 0.25, 0.03]}
    )
    cfg = write_config(
        tmp_path,
        "id_aug.json",
        {
            "command": "identify",
            "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "identity"},
            "trajectories": str(data_dir),
            "family": {"kind": "harmonic_augmented", "harmonic_force": [1.0, 0.0] * 3},
            "residuals": "observed",
        },
    )
    out = tmp_path / "id_aug_out"
    assert run_cli("identify", cfg, out) == 0
    report = json.loads(next(out.glob("identify_*.json")).read_text())
    assert report["identifiable"] is False
    assert report["lambda_min"] <= 1e-10 * report["lambda_max"]


def test_identify_recovers_threshold(tmp_path):
    data_dir = _make_training_data(
        tmp_path,
        {"kind": "bounded_confidence", "epsilon": 1.0},
        variant="rotated",
        scale=0.7,
    )
    cfg = write_config(
        tmp_path,
        "id_eps.json",
        {
            "command": "identify",
            "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "rotated"},
            "trajectories": str(data_dir),
            "family": {"kind": "threshold", "bracket": [0.25, 4.0]},
            "residuals": "observed",
        },
    )
    out = tmp_path / "id_eps_out"
    assert run_cli("identify", cfg, out) == 0
    report = json.loads(next(out.glob("identify_*.json")).read_text())
    assert abs(report["epsilon_hat"] - 1.0) <= 1e-6


def test_identify_empty_directory_exits_nonzero(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    cfg = write_config(
        tmp_path,
        "id_empty.json",
        {
            "command": "identify",
            "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "identity"},
            "trajectories": str(empty),
            "family": {"kind": "monomial"},
        },
    )
    assert run_cli("identify", cfg, tmp_path / "o") == 1


def _identify_config(tmp_path, data_dir, cycle_length=3):
    sheaf = {"builtin": "cycle", "cycle_length": cycle_length, "variant": "identity"}
    payload = {
        "command": "identify",
        "sheaf": sheaf,
        "trajectories": str(data_dir),
        "family": {"kind": "monomial"},
    }
    return write_config(tmp_path, "id_check.json", payload)


def test_identify_rejects_trajectories_of_the_wrong_width(tmp_path, capsys):
    data_dir = _make_training_data(
        tmp_path, {"kind": "monomial", "theta": [1.0, 0.25, 0.03]}, count=2
    )
    cfg = _identify_config(tmp_path, data_dir, cycle_length=4)
    assert run_cli("identify", cfg, tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert "state width 6 is not d0 = 8" in err


def test_identify_refuses_the_seed_flag_and_key(tmp_path, capsys):
    data_dir = _make_training_data(
        tmp_path, {"kind": "monomial", "theta": [1.0, 0.25, 0.03]}, count=2
    )
    cfg = _identify_config(tmp_path, data_dir)
    assert run_cli("identify", cfg, tmp_path / "o", ("--seed", "1")) == 1
    assert capsys.readouterr().err.startswith("error: --seed does not apply to identify")
    payload = json.loads(cfg.read_text())
    for key, value in (("seed", 0), ("noise_std", 0.005)):
        keyed = write_config(tmp_path, f"id_{key}.json", {**payload, key: value})
        assert run_cli("identify", keyed, tmp_path / "o") == 1
        assert f"unknown keys in config: ['{key}']" in capsys.readouterr().err
    assert run_cli("identify", cfg, tmp_path / "o") == 0


def test_identify_rejects_malformed_trajectory_files(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    bad = data_dir / "ragged.csv"
    bad.write_text("time,x0,x1\n0.0,1.0,2.0\n0.1,1.0\n")
    (data_dir / "manifest_0.json").write_text(json.dumps({"trajectories": ["ragged.csv"]}))
    cfg = _identify_config(tmp_path, data_dir)
    assert run_cli("identify", cfg, tmp_path / "o") == 1
    assert "ragged.csv" in capsys.readouterr().err


def test_identify_reads_the_manifest_not_every_csv(tmp_path):
    # the parent read every *.csv under trajectories, so a cohomology basis
    # written beside the simulate output ended the run in exit 1
    data_dir = _make_training_data(
        tmp_path, {"kind": "monomial", "theta": [1.0, 0.25, 0.03]}, count=2
    )
    cohomology = write_config(tmp_path, "coh.json", {"command": "cohomology", "sheaf": _CYCLE})
    assert run_cli("cohomology", cohomology, data_dir) == 0
    assert any(data_dir.glob("harmonic_basis_*.csv"))
    assert run_cli("identify", _identify_config(tmp_path, data_dir), tmp_path / "o") == 0
    report = json.loads(next((tmp_path / "o").glob("identify_*.json")).read_text())
    manifest = next(data_dir.glob("manifest_*.json"))
    assert report["manifest"] == manifest.name
    assert report["trajectory_files"] == json.loads(manifest.read_text())["trajectories"]


def test_identify_refuses_to_pool_two_simulate_runs(tmp_path, capsys):
    # two laws simulated into one directory: the parent fit all four files as
    # one dataset and reported a confident theta that matches neither law
    data_dir = tmp_path / "data"
    laws = [({"kind": "quadratic"}, [1.0, 0.0, 0.0]),
            ({"kind": "monomial", "theta": [1.0, 0.25, 0.03]}, [1.0, 0.25, 0.03])]
    hashes = []
    for potential, _ in laws:
        sim = _simulate_config(potential=potential, horizon=2.0)
        sim["random_initial_states"]["count"] = 2
        assert run_cli("simulate", write_config(tmp_path, "sim.json", sim), data_dir) == 0
        hashes.append(cli.config_hash(sim))
    capsys.readouterr()
    assert run_cli("identify", _identify_config(tmp_path, data_dir), tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(tag in err for tag in hashes)
    # naming one manifest fits that run alone
    for tag, (_, theta) in zip(hashes, laws):
        payload = {**_IDENTIFY, "trajectories": str(data_dir / f"manifest_{tag}.json")}
        out = tmp_path / tag
        assert run_cli("identify", write_config(tmp_path, "id.json", payload), out) == 0
        report = json.loads(next(out.glob("identify_*.json")).read_text())
        assert report["manifest"] == f"manifest_{tag}.json"
        assert np.allclose(report["theta_hat"], theta, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize(
    "manifest",
    [None, "{not json", b"\xff\xfe", "[]", '{"trajectories": "a.csv"}', '{"trajectories": [5]}',
     '{"trajectories": ["../a.csv"]}', '{"trajectories": ["a\\u0000.csv"]}', '{"trajectories": []}'],
    ids=["none", "not_json", "not_utf8", "list", "string", "number", "parent_path", "nul", "empty"],
)
def test_identify_without_a_usable_manifest_exits_1(tmp_path, capsys, manifest):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "a.csv").write_text("time,x0\n0.0,1.0\n")
    if isinstance(manifest, bytes):
        (data_dir / "manifest_0.json").write_bytes(manifest)
    elif manifest is not None:
        (data_dir / "manifest_0.json").write_text(manifest)
    assert run_cli("identify", _identify_config(tmp_path, data_dir), tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "manifest" in err and "Traceback" not in err


# --- experiment ---------------------------------------------------------------------


def test_experiment_formation_transfer_outputs(tmp_path):
    cfg = write_config(
        tmp_path, "exp.json", {"command": "experiment", "experiment": "formation_transfer"}
    )
    out = tmp_path / "exp_out"
    assert run_cli("experiment", cfg, out) == 0
    csv_path = next(out.glob("formation_transfer_summary_*.csv"))
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 5  # header + four rows
    assert "config_hash" in lines[0]
    assert (out / csv_path.name.replace(".csv", ".txt")).exists()


def test_experiment_reruns_are_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path, "exp_det.json", {"command": "experiment", "experiment": "formation_transfer"}
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli("experiment", cfg, out1) == 0
    assert run_cli("experiment", cfg, out2) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_experiment_invalid_combination_exits_nonzero(tmp_path):
    cfg = write_config(
        tmp_path,
        "exp_bad.json",
        {"command": "experiment", "experiment": "bounded_confidence", "cycle_length": 8},
    )
    assert run_cli("experiment", cfg, tmp_path / "o") == 1


def test_command_mismatch_rejected(tmp_path):
    cfg = write_config(
        tmp_path, "mismatch.json", {"command": "simulate", "sheaf": {"builtin": "cycle"}}
    )
    assert run_cli("cohomology", cfg, tmp_path / "o") == 1


def test_seed_override_changes_experiment_seeds(tmp_path):
    cfg = write_config(
        tmp_path,
        "exp_seed.json",
        {
            "command": "experiment",
            "experiment": "finite_basis",
            "n_training": 4,
            "training_horizon": 2.0,
        },
    )
    out1, out2 = tmp_path / "s0", tmp_path / "s9"
    assert run_cli("experiment", cfg, out1) == 0
    assert run_cli("experiment", cfg, out2, extra=["--seed", "9"]) == 0
    # different seeds, different file tags; the deterministic augmented row
    # still reports the same parameter error, the seeded rows do not
    errors = []
    for out in (out1, out2):
        header, *rows = next(out.glob("*summary*.csv")).read_text().splitlines()
        col = header.split(",").index("param_error_mean")
        errors.append({row.split(",")[0]: float(row.split(",")[col]) for row in rows})
    assert abs(errors[0]["Augmented / Obs."] - errors[1]["Augmented / Obs."]) <= 1e-9
    assert errors[0]["Correct / Broad / FD"] != errors[1]["Correct / Broad / FD"]


def test_experiment_rejects_seeds_together_with_base_seed(tmp_path, capsys):
    payload = {"command": "experiment", "experiment": "finite_basis", "seeds": [1]}
    payload.update(training_horizon=0.05, n_training=2, n_holdout=1)  # a tiny sweep
    both = write_config(tmp_path, "both.json", {**payload, "base_seed": 5})
    assert run_cli("experiment", both, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seeds" in err and "base_seed" in err
    assert not list((tmp_path / "out").iterdir())
    # the --seed flag replaces seeds with base_seed, so it still applies
    seeds = write_config(tmp_path, "seeds.json", payload)
    assert run_cli("experiment", seeds, tmp_path / "flag", extra=["--seed", "5"]) == 0


# --- malformed numbers and files fail with a library error, not a traceback ---------


def _simulate_config(**overrides):
    payload = {
        "command": "simulate",
        "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "identity"},
        "potential": {"kind": "quadratic"},
        "random_initial_states": {"count": 2, "scale": 0.5},
        "horizon": 0.1,
    }
    payload.update(overrides)
    return payload


def _assert_config_error(tmp_path, capsys, command, payload, key, text=None):
    path = tmp_path / "bad.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text if text is not None else json.dumps(payload))
    out = tmp_path / "o"
    assert run_cli(command, path, out) == 1  # an uncaught exception would propagate
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err
    assert not any(out.glob("*.csv"))


def test_simulate_rejects_a_non_numeric_horizon(tmp_path, capsys):
    _assert_config_error(tmp_path, capsys, "simulate", _simulate_config(horizon="abc"), "horizon")


def test_simulate_rejects_an_infinite_horizon(tmp_path, capsys):
    text = json.dumps(_simulate_config()).replace('"horizon": 0.1', '"horizon": 1e400')
    _assert_config_error(tmp_path, capsys, "simulate", None, "horizon", text=text)


def test_simulate_rejects_a_nonpositive_count(tmp_path, capsys):
    for count in (0, -2):
        payload = _simulate_config(random_initial_states={"count": count})
        _assert_config_error(tmp_path, capsys, "simulate", payload, "count")


def test_simulate_rejects_a_non_integer_cycle_length(tmp_path, capsys):
    sheaf = {"builtin": "cycle", "cycle_length": "x", "variant": "identity"}
    payload = _simulate_config(sheaf=sheaf)
    _assert_config_error(tmp_path, capsys, "simulate", payload, "cycle_length")


def test_sheaf_file_with_non_object_edges_exits_1(tmp_path, capsys):
    sheaf_file = tmp_path / "edges.json"
    data = {"vertex_count": 2, "vertex_stalk_dims": [2, 2], "edges": [1]}
    sheaf_file.write_text(json.dumps(data))
    payload = {"command": "cohomology", "sheaf": {"path": str(sheaf_file)}}
    _assert_config_error(tmp_path, capsys, "cohomology", payload, "edges")


def test_experiment_rejects_bad_numbers(tmp_path, capsys):
    cases = (
        ("cycle_length", "x"),
        ("n_holdout", 0),
        ("seeds", [0, "1"]),
        ("seeds", [0, 0]),
        ("training_horizon", 1e307),  # 1e309 steps of 0.01 overflow a float
    )
    for key, value in cases + (("step", 0.01),):  # every study steps at 0.01
        payload = {"command": "experiment", "experiment": "finite_basis", key: value}
        _assert_config_error(tmp_path, capsys, "experiment", payload, key)


def test_simulate_rejects_a_negative_noise_std(tmp_path, capsys):
    payload = _simulate_config(noise_std=-0.1)
    _assert_config_error(tmp_path, capsys, "simulate", payload, "noise_std must be")


def test_a_threshold_whose_powers_overflow_exits_1(tmp_path, capsys):
    # epsilon**2 and epsilon**3 are Python-float powers, which raise
    # OverflowError rather than return inf
    potential = {"kind": "bounded_confidence", "epsilon": 1e300}
    payload = _simulate_config(potential=potential)
    _assert_config_error(tmp_path, capsys, "simulate", payload, "at most 1e100")
    data_dir = _make_training_data(tmp_path, {"kind": "bounded_confidence", "epsilon": 1.0})
    family = {"kind": "threshold", "bracket": [0.25, 1e200]}
    payload = {
        "command": "identify",
        "sheaf": {"builtin": "cycle", "cycle_length": 3, "variant": "identity"},
        "trajectories": str(data_dir),
        "family": family,
    }
    _assert_config_error(tmp_path, capsys, "identify", payload, "hi <= 1e100")


def test_the_threshold_law_warns_on_no_accepted_input(tmp_path, capsys):
    # a start far above the threshold, whose Jacobian products overflow where
    # they are dropped, and thresholds whose square underflows to 0
    rotated = {"builtin": "cycle", "cycle_length": 3, "variant": "rotated"}
    starts = [[1e80, 0, 0, 0, 0, 0], [0.3, -0.2, 0.1, 0.5, -0.4, 0.2]]
    potential = {"kind": "bounded_confidence", "epsilon": 1.0}
    simulate = _simulate_config(sheaf=rotated, potential=potential, horizon=1.0)
    del simulate["random_initial_states"]
    identify = {
        "command": "identify",
        "sheaf": rotated,
        "trajectories": str(tmp_path / "data"),
        "family": {"kind": "threshold", "bracket": [0.25, 4.0]},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim = write_config(tmp_path, "sim.json", {**simulate, "initial_states": starts})
        assert run_cli("simulate", sim, tmp_path / "data") == 0
        assert run_cli("identify", write_config(tmp_path, "id.json", identify), tmp_path) == 0
        report = json.loads(next(tmp_path.glob("identify_*.json")).read_text())
        assert report["identifiable"] and report["information"] > 0
        # at the grid's low end u / eps^2 passes the float range; the clamp
        # sends that gain to 0
        wide = {**identify, "family": {"kind": "threshold", "bracket": [1e-100, 4.0]}}
        assert run_cli("identify", write_config(tmp_path, "wide.json", wide), tmp_path / "w") == 0
        report = json.loads(next((tmp_path / "w").glob("identify_*.json")).read_text())
        assert report["identifiable"] and report["information"] > 0
        potential = {**potential, "epsilon": 1e-200}
        payload = _simulate_config(sheaf=rotated, potential=potential)
        _assert_config_error(tmp_path, capsys, "simulate", payload, "epsilon")
        payload = {**identify, "family": {"kind": "threshold", "bracket": [1e-200, 1e-150]}}
        _assert_config_error(tmp_path, capsys, "identify", payload, "bracket")


@pytest.mark.parametrize(
    "command, fields",
    [
        ("simulate", {"horizon": 1e12}),
        ("simulate", {"horizon": 10.0, "step": 1e-300}),
        ("bounded_confidence", {"training_horizon": 1e12}),
        ("bounded_confidence", {"training_horizon": 1e300}),
        ("finite_basis", {"training_horizon": 1e12}),
        ("finite_basis", {"training_horizon": 1e300}),
    ],
)
def test_a_record_too_long_to_allocate_exits_1(tmp_path, capsys, command, fields):
    if command == "simulate":
        payload = _simulate_config(**fields)
    else:
        payload = {"command": "experiment", "experiment": command, "seeds": [0], **fields}
        command = "experiment"
    cfg = write_config(tmp_path, "long.json", payload)
    assert run_cli(command, cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a record of horizon ") and err.count("\n") == 1
    assert err.endswith("is too long to allocate\n")


@pytest.mark.parametrize(
    "command, key",
    [
        ("simulate", "random_initial_states count"),
        ("bounded_confidence", "n_training"),
        ("bounded_confidence", "n_holdout"),
        ("finite_basis", "n_training"),
        ("finite_basis", "n_holdout"),
    ],
)
def test_a_start_set_too_large_to_allocate_exits_1(tmp_path, capsys, command, key):
    # 1e15 starts: the one array of a set is refused before anything is drawn
    count = 10**15
    if command == "simulate":
        payload = _simulate_config(random_initial_states={"count": count, "scale": 0.5})
    else:
        payload = {"command": "experiment", "experiment": command, "seeds": [0], key: count}
        command = "experiment"
    cfg = write_config(tmp_path, "many.json", payload)
    assert run_cli(command, cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == f"error: {key} {count} is too many starts to allocate\n"


def test_a_sheaf_without_vertices_simulates_and_identify_refuses_it(tmp_path, capsys):
    empty = {"vertex_count": 0, "vertex_stalk_dims": [], "edges": []}
    (tmp_path / "empty.json").write_text(json.dumps(empty))
    sheaf = {"path": str(tmp_path / "empty.json")}
    cfg = write_config(tmp_path, "s.json", _simulate_config(sheaf=sheaf))
    assert run_cli("simulate", cfg, tmp_path / "traj") == 0
    files = sorted((tmp_path / "traj").glob("trajectory_*.csv"))
    assert len(files) == 2 and all(p.read_text().splitlines()[0] == "time" for p in files)
    payload = {
        "command": "identify",
        "sheaf": sheaf,
        "trajectories": str(tmp_path / "traj"),
        "family": {"kind": "monomial"},
    }
    assert run_cli("identify", write_config(tmp_path, "i.json", payload), tmp_path / "o") == 1
    assert capsys.readouterr().err == "error: trajectory has no recorded derivatives\n"


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_an_output_path_through_a_file_exits_1(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("kept\n")
    payload = {"command": "cohomology", "sheaf": {"builtin": "cycle", "cycle_length": 3}}
    cfg = write_config(tmp_path, "c.json", payload)
    assert run_cli("cohomology", cfg, tmp_path / out) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"potential": {"kind": "monomial"}}, "theta"),
        ({"potential": {"kind": "monomial", "theta": "abc"}}, "theta"),
        ({"potential": {"kind": "shifted_quadratic", "target": "x"}}, "target"),
        ({"potential": {"kind": "antagonistic", "negative_edges": ["a"]}}, "negative_edges"),
        ({"potential": {"kind": "antagonistic", "negative_edges": 1.5}}, "negative_edges"),
        ({"potential": {"kind": "antagonistic", "negative_edges": [1.5]}}, "negative_edges"),
        (
            {"potential": {"kind": "harmonic_augmented", "theta": [1, 0, 0, 1],
                           "harmonic_force": "q"}},
            "harmonic_force",
        ),
        ({"initial_states": 5}, "initial_states"),
        ({"initial_states": []}, "initial_states"),
        ({"initial_states": [["a", 0, 0, 0, 0, 0]]}, "initial_states"),
        ({"random_initial_states": 5}, "random_initial_states"),
        ({"potential": {"kind": "bounded_confidence", "epsilon": 10**400}}, "epsilon"),
    ],
    ids=[
        "monomial_without_theta",
        "theta_string",
        "target_string",
        "negative_edges_string_entry",
        "negative_edges_scalar",
        "negative_edges_fraction",
        "harmonic_force_string",
        "initial_states_scalar",
        "initial_states_empty",
        "initial_states_string_entry",
        "random_initial_states_scalar",
        "epsilon_400_digits",  # math.isfinite overflows on it
    ],
)
def test_simulate_rejects_malformed_potential_and_start_fields(
    tmp_path, capsys, overrides, key
):
    payload = _simulate_config(**overrides)
    _assert_config_error(tmp_path, capsys, "simulate", payload, key)


@pytest.mark.parametrize(
    "top, edge_fields, key",
    [
        ({"vertex_count": "a"}, {}, "vertex_count"),
        ({}, {"head_map": "x"}, "edge 0 head_map"),
        ({}, {"head_map": [[1.0, 0.0], [0.0]]}, "edge 0 head_map"),
        ({}, {"tail": 0.5}, "edge 0 tail"),
        ({}, {"tail_map": [[10**400, 0.0], [0.0, 1.0]]}, "edge 0 tail_map"),
    ],
    ids=["vertex_count_string", "head_map_string", "head_map_ragged", "tail_fraction",
         "tail_map_400_digits"],
)
def test_malformed_sheaf_file_fields_exit_1(tmp_path, capsys, top, edge_fields, key):
    identity = [[1.0, 0.0], [0.0, 1.0]]
    edge = {"tail": 0, "head": 1, "stalk_dim": 2, "head_map": identity, "tail_map": identity}
    data = {"vertex_count": 2, "vertex_stalk_dims": [2, 2], **top}
    data["edges"] = [{**edge, **edge_fields}]
    sheaf_file = tmp_path / "sheaf.json"
    sheaf_file.write_text(json.dumps(data))
    payload = {"command": "cohomology", "sheaf": {"path": str(sheaf_file)}}
    _assert_config_error(tmp_path, capsys, "cohomology", payload, key)


def test_formation_transfer_rejects_ignored_fields(tmp_path, capsys):
    payload = {"command": "experiment", "experiment": "formation_transfer", "n_holdout": 2}
    _assert_config_error(tmp_path, capsys, "experiment", payload, "n_holdout")


@pytest.mark.parametrize(
    "given, default",
    [
        ({"seeds": [1, 2, 3]}, {"seeds": list(range(8))}),
        ({"base_seed": 3}, {"base_seed": 0}),
        ({"--seed": 3}, {"--seed": 0}),
    ],
    ids=["seeds", "base_seed", "seed_flag"],
)
def test_formation_transfer_refuses_a_seed_it_would_not_run(tmp_path, capsys, given, default):
    # the study runs at one fixed seed, so any other would be ignored; the
    # default seeds, in any form, are that run
    for name, fields, code in (("given", given, 1), ("default", default, 0)):
        fields = dict(fields)
        flag = ["--seed", str(fields.pop("--seed"))] if "--seed" in fields else []
        payload = {"command": "experiment", "experiment": "formation_transfer", **fields}
        cfg = write_config(tmp_path, f"{name}.json", payload)
        assert run_cli("experiment", cfg, tmp_path / name, extra=flag) == code
    assert capsys.readouterr().err == "error: formation_transfer takes no seeds\n"


@pytest.mark.parametrize(
    "spec",
    ["sheaf.json", "a\u0000b", "\ud800", 5],
    ids=["path", "nul", "surrogate", "int"],
)
def test_a_sheaf_spec_that_is_not_an_object_exits_1(tmp_path, capsys, spec):
    # a sheaf file is named by {"path": ...}; a bare string was read unchecked
    payload = {"command": "cohomology", "sheaf": spec}
    _assert_config_error(tmp_path, capsys, "cohomology", payload, "sheaf spec must be an object")


@pytest.mark.parametrize("where", ["config", "sheaf"])
def test_an_integer_past_the_digit_limit_exits_1(tmp_path, capsys, where):
    # json.loads refuses an int of more than 4,300 digits with a ValueError
    huge = "1" + "0" * 5000
    if where == "config":
        text = json.dumps(_simulate_config(horizon="HUGE")).replace('"HUGE"', huge)
        _assert_config_error(tmp_path, capsys, "simulate", None, "config is not valid", text)
    else:
        sheaf_file = tmp_path / "sheaf.json"
        sheaf_file.write_text('{"vertex_count": %s}' % huge)
        payload = {"command": "cohomology", "sheaf": {"path": str(sheaf_file)}}
        _assert_config_error(tmp_path, capsys, "cohomology", payload, "malformed sheaf file")


_CYCLE = {"builtin": "cycle", "cycle_length": 3, "variant": "identity"}
_IDENTIFY = {"command": "identify", "sheaf": _CYCLE, "family": {"kind": "monomial"}}
_MINIMAL = {
    "cohomology": {"command": "cohomology", "sheaf": _CYCLE},
    "simulate": _simulate_config(),
    "identify": {**_IDENTIFY, "trajectories": "data"},
    "experiment": {"command": "experiment", "experiment": "finite_basis"},
}


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("simulate", "alpha", 1.0),
        ("identify", "ridge", 0.0),
        ("experiment", "noise_std", 5e-3),
        ("experiment", "coverage", "broad"),
        ("experiment", "residual_mode", "observed"),
        ("experiment", "basis_variant", "correct"),
    ],
)
def test_a_removed_key_exits_1_naming_it(tmp_path, capsys, command, key, value):
    # settings no caller varied are constants now: the unit rate, the
    # minimum-norm solve, each study's noise level and its whole table
    payload = {**_MINIMAL[command], key: value}
    _assert_config_error(tmp_path, capsys, command, payload, f"unknown keys in config: ['{key}']")


@pytest.mark.parametrize(
    "command, fields, key",
    [
        ("identify", {"trajectories": 5}, "trajectories"),
        ("identify", {"trajectories": ["a"]}, "trajectories"),
        ("cohomology", {"sheaf": {"path": 5}}, "path"),
        ("cohomology", {"sheaf": {"path": "a\u0000b"}}, "path"),
        ("simulate", {"sheaf": {"path": [1]}}, "path"),
        ("identify", {"sheaf": {"path": None}}, "path"),
        ("cohomology", {"sheaf": {"path": "\ud800"}}, "path"),
        ("identify", {"trajectories": "runs/\udfff"}, "trajectories"),
    ],
    ids=["trajectories_int", "trajectories_list", "cohomology_path_int", "cohomology_path_nul",
         "simulate_path_list", "identify_path_null", "cohomology_path_surrogate",
         "trajectories_surrogate"],
)
def test_a_path_that_is_not_a_string_exits_1_naming_its_key(
    tmp_path, capsys, command, fields, key
):
    # a lone surrogate has no file system encoding, so opening such a path
    # raises UnicodeEncodeError rather than an OSError
    payload = {**_MINIMAL[command], **fields}
    _assert_config_error(tmp_path, capsys, command, payload, f"{key} must be a path string")


@pytest.mark.parametrize(
    "command, fields",
    [
        ("experiment", {"seeds": None}),
        ("experiment", {"n_training": None, "seeds": [0]}),
        ("simulate", {"command": None}),
        ("simulate", {"initial_states": None}),
    ],
    ids=["seeds", "n_training", "command", "initial_states"],
)
def test_a_null_top_level_key_exits_1_naming_it(tmp_path, capsys, command, fields):
    # the parent read a null as an absent key: a full-size run, or the other
    # source of starts
    payload = {**_MINIMAL[command], **fields}
    keys = sorted(key for key, value in fields.items() if value is None)
    _assert_config_error(tmp_path, capsys, command, payload, f"config keys may not be null: {keys}")


@pytest.mark.parametrize("where", ["config", "sheaf"])
def test_a_file_that_is_not_utf8_exits_1(tmp_path, capsys, where):
    text = b"\xff\xfe\x00{}"
    if where == "config":
        _assert_config_error(tmp_path, capsys, "cohomology", None, "config is not valid", text)
    else:
        sheaf_file = tmp_path / "sheaf.json"
        sheaf_file.write_bytes(text)
        payload = {"command": "cohomology", "sheaf": {"path": str(sheaf_file)}}
        _assert_config_error(tmp_path, capsys, "cohomology", payload, "malformed sheaf file")


def test_identify_report_carries_the_fit_diagnostics(tmp_path):
    monomial = {"kind": "monomial", "theta": [1.0, 0.25, 0.03]}
    data_dir = _make_training_data(tmp_path, monomial, count=4)
    assert run_cli("identify", _identify_config(tmp_path, data_dir), tmp_path / "lin") == 0
    report = json.loads(next((tmp_path / "lin").glob("identify_*.json")).read_text())
    sheaf = make_cycle_sheaf(3, "identity")
    op = build_coboundary(sheaf)
    trajectories = [load_trajectory_csv(p) for p in sorted(data_dir.glob("*.csv"))]
    fit = fit_linear(op, monomial_basis(sheaf), residual_dataset(op, trajectories, "observed"))
    diagnostics = report["diagnostics"]
    assert diagnostics == {**fit.diagnostics, "rank": 3, "dropped": 0}
    eigs = np.linalg.eigvalsh(fit.report.gram)
    assert np.allclose(diagnostics["gram_eigenvalues"], eigs, rtol=0.0, atol=1e-12 * eigs[-1])

    threshold = {"kind": "bounded_confidence", "epsilon": 1.0}
    (tmp_path / "eps").mkdir()
    data_dir = _make_training_data(tmp_path / "eps", threshold, variant="rotated", count=2)
    payload = {**_IDENTIFY, "trajectories": str(data_dir), "family": {"kind": "threshold"}}
    payload["sheaf"] = {**_CYCLE, "variant": "rotated"}
    cfg = write_config(tmp_path, "id_eps.json", payload)
    assert run_cli("identify", cfg, tmp_path / "eps_out") == 0
    report = json.loads(next((tmp_path / "eps_out").glob("identify_*.json")).read_text())
    diagnostics = report["diagnostics"]
    assert set(diagnostics) == {"grid", "grid_losses", "refined_bracket"}
    assert len(diagnostics["grid"]) == len(diagnostics["grid_losses"]) == 64
    lo, hi = diagnostics["refined_bracket"]
    assert lo <= report["epsilon_hat"] <= hi
