"""Record the study outputs that the sweep workloads are checked against.

    python3 bench/make_reference.py

Runs bounded_confidence and finite_basis once per seed in
``workloads.REFERENCE_SEEDS``, with the configs the sweep workloads use, and
writes their summary and force-check rows to ``bench/reference.json``.
Re-record only when a change is meant to alter what the studies compute.
"""

from __future__ import annotations

import json

from run import BENCH_DIR, load_package, pin_threads
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> None:
    pin_threads()
    pkg = load_package()
    reference = {}
    for workload in (WORKLOADS["threshold_sweep"], WORKLOADS["basis_sweep"]):
        experiment = workload.experiment
        reference[experiment] = {}
        for seed in REFERENCE_SEEDS:
            output = pkg.ss.run_experiment(workload.config(pkg, seed))
            reference[experiment][str(seed)] = {
                "summary": output.summary,
                "force_checks": output.force_checks,
            }
            print(f"{experiment} seed {seed} recorded", flush=True)
    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
