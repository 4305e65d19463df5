"""Self-tests of the benchmark at smoke sizes.

    python3 -m pytest -q -p no:cacheprovider bench/test_bench.py

They run in a few tens of seconds and never touch the full-size workloads.
"""

from __future__ import annotations

import copy
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DECLARATION = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE = {
    "wide_pipeline": workloads.WidePipeline(cycle_length=5, count=1, horizon=0.5),
    "operator_scan": workloads.OperatorScan(sizes=(5, 7)),
}


@pytest.fixture
def smoke(monkeypatch):
    run.pin_threads()
    for name, workload in SMOKE.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)


def _tmpdir() -> Path:
    parent = run.ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=parent))


def _run(name, trace, seconds=0.01):
    return run.run(name, seed=1, seconds=seconds, trace=trace, inherited={})


def test_declared_names_are_well_formed():
    names = [w["name"] for w in DECLARATION["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in DECLARATION[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert sorted(w["name"] for w in DECLARATION["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_emitted_names_are_declared_and_traced_runs_match(smoke, name):
    plain = _run(name, trace=False)
    traced = _run(name, trace=True)
    for record, group in ((plain, "end_to_end"), (traced, "per_layer")):
        assert record["correct"] and record["failed"] == 0
        assert list(record["metrics"]) == [m["name"] for m in DECLARATION[group]]
        assert all(NAME.match(n) for n in record["metrics"])
    assert sorted(plain["end_to_end"]) == sorted(traced["end_to_end"])
    assert sorted(plain["end_to_end"]) == sorted(m["name"] for m in DECLARATION["end_to_end"])
    assert all(value > 0 for value in plain["end_to_end"].values())


def test_every_layer_metric_is_measured_somewhere(smoke):
    """No declared per-layer name is a typo that silently reads zero."""
    measured = set()
    for name in SMOKE:
        measured |= {k for k, v in _run(name, trace=True)["per_layer"].items() if v}
    # The studies' own spans, from a tiny sweep under the tracer.
    pkg = run.load_package()
    probe = tracer.Tracer()
    probe.install(pkg.modules)
    root = probe.open("unit")
    try:
        config = pkg.ss.ExperimentConfig(
            experiment_id="finite_basis", seeds=(0,), training_horizon=0.2, n_training=3,
            n_holdout=1,
        )
        pkg.ss.run_experiment(config)
    finally:
        probe.close(root)
        probe.uninstall()
    measured |= {k for k, v in tracer.totals(probe.spans).items() if v}
    # Divergences are zero on every workload by design.
    expected = {m["name"] for m in DECLARATION["per_layer"]} - {"dynamics.divergences"}
    assert expected - measured == set()


def test_tracer_restores_every_binding():
    pkg = run.load_package()
    before = {m.__name__: dict(vars(m)) for m in pkg.modules}
    commands = dict(pkg.cli._COMMANDS)
    probe = tracer.Tracer()
    probe.install(pkg.modules)
    assert pkg.ss.sysid.fit_linear is not before["sheaf_sysid.sysid"]["fit_linear"]
    assert pkg.cli._COMMANDS["identify"] is not commands["identify"]
    probe.uninstall()
    assert {m.__name__: dict(vars(m)) for m in pkg.modules} == before
    assert pkg.cli._COMMANDS == commands


def test_setup_compiles_from_source_whatever_pycache_holds():
    """A populated __pycache__ is never read, so it cannot move setup_s."""
    import compileall

    package_dir = run.ROOT / "src" / "sheaf_sysid"
    cache = package_dir / "__pycache__"
    had_cache = cache.exists()
    assert compileall.compile_dir(package_dir, quiet=1, force=True)
    opened = []
    sys.addaudithook(
        lambda event, args: opened.append(str(args[0]))
        if event == "open" and str(args[0]).endswith(".pyc") else None
    )
    try:
        pkg = run.load_package()
        assert [p for p in opened if p.startswith(str(package_dir))] == []
        assert not Path(pkg.ss.__cached__).exists()
    finally:
        if not had_cache:
            shutil.rmtree(cache)


def test_failed_checks_and_raising_units_are_counted(smoke, monkeypatch):
    workload = SMOKE["operator_scan"]
    monkeypatch.setattr(workload, "check", lambda inputs, output: ["wrong answer"])
    record = _run("operator_scan", trace=False, seconds=0.5)
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"] and not record["correct"]
    assert record["end_to_end"]["ok_frac"] == 0.0

    def boom(pkg, inputs, index):
        raise pkg.ss.SheafSysIdError("unit raised")

    monkeypatch.setattr(workload, "unit", boom)
    record = _run("operator_scan", trace=True)
    assert record["failed"] == record["attempted"] >= 2


def test_nonzero_cli_exit_fails_the_check(smoke):
    workload = SMOKE["operator_scan"]
    inputs = workload.setup(run.load_package(), 0, _tmpdir())
    try:
        assert workload.check(inputs, {5: 1, 7: 0})
    finally:
        shutil.rmtree(inputs.root.parent)


def test_sweep_checks_accept_reference_and_reject_a_perturbation():
    reference = workloads.load_reference()
    for workload in (workloads.ThresholdSweep(), workloads.BasisSweep()):
        for seed in map(str, workloads.REFERENCE_SEEDS):
            ref = reference[workload.experiment][seed]
            inputs = workloads.SweepInputs(config=None, seed=int(seed), reference=ref)
            output = type("Output", (), copy.deepcopy(ref))
            assert workload.check(inputs, output) == [], (workload.name, seed)
        bad = copy.deepcopy(ref)
        row = bad["summary"][0]
        field = next(k for k in row if k.endswith("_mean") and row[k] > 1e-3)
        row[field] *= 1.001
        assert workload.check(inputs, type("Output", (), bad))


def test_closed_form_spectrum_matches_a_dense_eigensolve():
    import numpy as np

    pkg = run.load_package()
    for n in (3, 5, 9, 11):
        op = pkg.ss.build_coboundary(pkg.ss.make_cycle_sheaf(n, "rotated"))
        eigs = np.linalg.eigvalsh(op.B.T @ op.B)
        lo, hi = workloads.rotated_cycle_spectrum(n)
        assert math.isclose(eigs[0], lo, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(eigs[-1], hi, rel_tol=1e-12)


def test_last_line_is_the_result_object(smoke, capsys):
    assert run.main(["--workload", "operator_scan", "--seed", "0", "--seconds", "0.01"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1


def test_exits_nonzero_without_the_package():
    bare = _tmpdir()
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "operator_scan", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)
