"""Summarise or compare benchmark records (JSON lines written by run.py --out).

    python3 bench/compare.py BASE.jsonl            # steadiness of one set of runs
    python3 bench/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

For every workload and end-to-end metric it prints each side's median and
quartiles over its runs, the spread (quartile distance over the median) and,
with two files, the ratio NEW/BASE.  A comparison is "unresolved" when either
side's spread is wider than the metric's bound in BENCHMARK.json, unless every
NEW run is better than every BASE run; otherwise it is "worse" when the median
moved the wrong way by more than the bound and "within bound" when not.
Per-layer metrics of traced runs (``--layers``) are listed the same way,
without a verdict, since they have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def by_workload(records: list[dict], traced: bool) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, one value per run."""
    table: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for record in records:
        if bool(record["trace"]) != traced:
            continue
        for name, metric in record["metrics"].items():
            table[record["workload"]][name].append(metric["value"])
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(metric: dict, base: list[float], new: list[float]) -> str:
    bound = metric["bound"]
    lower_better = metric["better"] == "lower"
    if lower_better:
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if max(spread(base), spread(new)) > bound:
        return "better in every run" if all_better else "unresolved"
    ratio = statistics.median(new) / statistics.median(base)
    worse = ratio - 1.0 if lower_better else 1.0 - ratio
    return "worse" if worse > bound else "within bound"


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def report(base_path: str, new_path: str | None, layers: bool) -> str:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = declaration["per_layer"] if layers else declaration["end_to_end"]
    base = by_workload(load_records(base_path), traced=layers)
    new = by_workload(load_records(new_path), traced=layers) if new_path else None
    lines = []
    for workload in [w["name"] for w in declaration["workloads"]]:
        if workload not in base:
            continue
        lines.append(f"{workload}:")
        for metric in metrics:
            name = metric["name"]
            values = base[workload].get(name)
            if not values:
                continue
            row = f"  {name:<36} {metric['unit']:<6} base {_fmt(values)} spread {spread(values):.3f}"
            if not layers:
                row += f" (bound {metric['bound']})"
            if new is not None and new.get(workload, {}).get(name):
                other = new[workload][name]
                base_med = statistics.median(values)
                ratio = statistics.median(other) / base_med if base_med else float("nan")
                row += (
                    f"\n  {'':<36} {'':<6} new  {_fmt(other)} spread {spread(other):.3f}"
                    f"  ratio {ratio:.4f} of base {base_med:.5g}"
                )
                if not layers:
                    row += f"  {verdict(metric, values, other)}"
            lines.append(row)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--layers", action="store_true", help="per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    print(report(args.base, args.new, args.layers))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
