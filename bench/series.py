"""Run the benchmark over several workloads and seeds, then summarise.

    python3 bench/series.py --out results.jsonl                 # every workload, one seed
    python3 bench/series.py --seeds 10 --out results.jsonl      # ten seeds each
    python3 bench/series.py --workloads basis_sweep --seeds 5 --out r.jsonl

Each run is a separate ``bench/run.py`` process, started only after the
previous one has exited, with the run length from BENCHMARK.json unless
``--seconds`` is given.  Records are appended to ``--out``; at the end every
end-to-end metric of every workload is printed by name and unit with its
median, quartiles and spread over the runs (see compare.py).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import report

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180


def main(argv: list[str] | None = None) -> int:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=1, help="runs per workload")
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON-lines file the records go to")
    args = parser.parse_args(argv)

    failures = 0
    for workload in args.workloads:
        for seed in range(args.seeds):
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", args.out,
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
            )
            last = done.stdout.strip().splitlines()[-1:] or [""]
            print(f"{workload} seed {seed}: exit {done.returncode} {last[0][:160]}", flush=True)
            if done.returncode != 0 or '"correct": true' not in last[0]:
                failures += 1
                sys.stderr.write(done.stderr)
    print(report(args.out, None, layers=bool(args.trace)))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
