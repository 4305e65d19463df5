"""Study tables pinned bit for bit to a recorded run.

``tests/data/golden_studies.json`` holds the summary and force-check rows of
the two sweeps for each seed 0-7 (at a short training horizon and two holdout
starts) and of the default formation_transfer run.  JSON writes floats in
shortest repr, so a load gives back the recorded bits and ``==`` compares
them exactly.  Regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

only when a change is meant to alter what the studies compute.
"""

import json
from pathlib import Path

import pytest

from sheaf_sysid.experiments import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_studies.json"
SWEEP_SEEDS = range(8)


def _config(key: str) -> ExperimentConfig:
    study, _, seed = key.partition("/")
    if not seed:
        return ExperimentConfig(study)
    return ExperimentConfig(study, seeds=(int(seed),), training_horizon=2.0, n_holdout=2)


KEYS = [
    f"{study}/{seed}" for study in ("bounded_confidence", "finite_basis") for seed in SWEEP_SEEDS
] + ["formation_transfer"]


def _record(key: str) -> dict:
    out = run_experiment(_config(key))
    return json.loads(json.dumps({"summary": out.summary, "force_checks": out.force_checks}))


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_study_tables_match_the_recorded_run(golden, key):
    assert _record(key) == golden[key]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({key: _record(key) for key in KEYS}, indent=1) + "\n")
