"""The README's library tour and CLI configs run as written and show what its
text says."""

import inspect
import json
import re
from pathlib import Path

import numpy as np

import sheaf_sysid
from sheaf_sysid.cli import main
from sheaf_sysid.sheaf import harmonic_basis

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert harmonic_basis(namespace["op"]).shape[1] == 2
    assert np.array_equal(namespace["data"].residuals, -namespace["traj"].derivs)
    fit = namespace["fit"]
    assert fit.report.identifiable
    assert np.allclose(fit.theta_hat, [1.0, 0.25, 0.03], rtol=1e-8, atol=0.0)


# The package-level names: the library tour's, plus what the benchmark reads.
FACADE = {
    "SimConfig", "integrate",
    "SheafSysIdError",
    "ExperimentConfig", "make_cycle_sheaf", "run_experiment",
    "monomial_basis", "monomial_potential",
    "build_coboundary", "harmonic_basis",
    "fit_linear", "residuals_exact",
}


def test_the_package_exports_only_the_facade_names():
    # every other name is imported from its module, so the facade cannot grow back
    public = {
        name for name, value in vars(sheaf_sysid).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == FACADE
    tour = re.search(r"```python\n(.*?)```", README.read_text(), flags=re.S).group(1)
    assert set(re.findall(r"\bss\.(\w+)", tour)) <= FACADE


def test_readme_configs_run_in_order(tmp_path, monkeypatch):
    # each config with the --out its command has in the README's usage block,
    # so a key the CLI rejects, or an output layout that breaks the next
    # command, fails here
    text = README.read_text()
    outs = dict(re.findall(r"^sheaf-sysid (\w+) +--config \S+ +--out (\S+)", text, flags=re.M))
    configs = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, flags=re.S)]
    commands = [config["command"] for config in configs]
    assert commands == ["cohomology", "simulate", "identify", "experiment"] == list(outs)
    monkeypatch.chdir(tmp_path)
    for command, config in zip(commands, configs):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", outs[command], "--quiet"]) == 0
