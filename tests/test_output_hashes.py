"""Every file of the by-hand output list pinned by its sha256.

The list runs, in order: the README's configs (each with the --out of its
usage line), the three default-config experiments, cohomology on the rotated
301- and 401-cycles and the identity 9-cycle, and a rotated 101-cycle
simulate (four starts, horizon 5) read by identify for the threshold,
monomial and harmonic_augmented families.  The commands run in one
subprocess at one BLAS thread.  Cohomology's spectrum comes from LAPACK,
whose last digits follow the thread count on a numpy build that the
one-thread pin in ``sheaf`` does not cover (the README names the builds it
covers); running at one thread keeps the hashes valid on those builds too.
Every path in a config is relative to the run directory, so the config
hashes in the file names do not depend on where it is.  Regenerate
``tests/data/output_hashes.json`` with

    PYTHONPATH=src python tests/test_output_hashes.py

only when a change is meant to alter what a command writes.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import sheaf_sysid

ROOT = Path(__file__).resolve().parents[1]
HASHES = ROOT / "tests" / "data" / "output_hashes.json"

_RUN = """
import json, sys
from sheaf_sysid.cli import main
for argv in json.load(sys.stdin):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
"""


def _runs() -> list[tuple[str, dict, str]]:
    """(command, config, --out) of every run of the list, in order."""
    text = (ROOT / "README.md").read_text()
    outs = dict(re.findall(r"^sheaf-sysid (\w+) +--config \S+ +--out (\S+)", text, flags=re.M))
    readme = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, flags=re.S)]
    runs = [(config["command"], config, outs[config["command"]]) for config in readme]
    for study in ("bounded_confidence", "finite_basis", "formation_transfer"):
        runs.append(("experiment", {"command": "experiment", "experiment": study}, "studies"))
    for length, variant in ((301, "rotated"), (401, "rotated"), (9, "identity")):
        sheaf = {"builtin": "cycle", "cycle_length": length, "variant": variant}
        runs.append(("cohomology", {"command": "cohomology", "sheaf": sheaf}, "cohomology"))
    wide = {"builtin": "cycle", "cycle_length": 101, "variant": "rotated"}
    simulate = {
        "command": "simulate",
        "sheaf": wide,
        "potential": {"kind": "bounded_confidence", "epsilon": 1.0},
        "random_initial_states": {"count": 4, "scale": 0.8},
        "horizon": 5.0,
        "step": 0.01,
        "seed": 0,
        "noise_std": 0.0,
    }
    runs.append(("simulate", simulate, "wide/trajectories"))
    for family in (
        {"kind": "threshold", "bracket": [0.25, 4.0]},
        {"kind": "monomial"},
        {"kind": "harmonic_augmented", "harmonic_force": [1.0, 0.0] * 101},
    ):
        identify = {
            "command": "identify",
            "sheaf": wide,
            "trajectories": "wide/trajectories",
            "family": family,
            "residuals": "observed",
        }
        runs.append(("identify", identify, "wide/reports"))
    return runs


def output_hashes(work: Path) -> dict[str, str]:
    """Run the list in one subprocess in ``work/run`` (configs in
    ``work/configs``) and return the sha256 of every file it wrote, keyed by
    its path relative to the run directory."""
    configs, run_dir = work / "configs", work / "run"
    configs.mkdir()
    run_dir.mkdir()
    argvs = []
    for i, (command, config, out) in enumerate(_runs()):
        path = configs / f"{i:02d}_{command}.json"
        path.write_text(json.dumps(config))
        argvs.append([command, "--config", str(path), "--out", out, "--quiet"])
    src = str(Path(sheaf_sysid.__file__).resolve().parents[1])
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
    run = subprocess.run(
        [sys.executable, "-c", _RUN],
        input=json.dumps(argvs),
        cwd=run_dir,
        env={**os.environ, **threads, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    return {
        path.relative_to(run_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(run_dir.rglob("*"))
        if path.is_file()
    }


def test_every_listed_output_matches_its_recorded_hash(tmp_path):
    assert output_hashes(tmp_path) == json.loads(HASHES.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        hashes = output_hashes(Path(work))
    HASHES.write_text(json.dumps(hashes, indent=1) + "\n")
