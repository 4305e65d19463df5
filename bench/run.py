"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload threshold_sweep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload operator_scan --seed 3 --seconds 25 --trace 1 --out r.jsonl

The package is imported from ``src/`` of the checkout this file sits in; no
install step is needed.  A run

1. runs units of the workload back to back, and starts no set-up and unit
   that are predicted to end after ``--seconds``, always running at least one (two with
   tracing: an untraced one and a traced one);
2. sets up afresh before every unit (a fresh import of ``sheaf_sysid``,
   compiled from source, plus the workload's inputs made from ``--seed``) and
   reports the median set-up time as setup_s, so that set-ups sample the
   machine over the whole run, as units do;
3. checks every unit's output; a unit that raises, exits non-zero or fails its
   check counts as failed, never as dropped;
4. prints a human summary, the machine record, and, as the last line of
   standard output, ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, taken from traced units
(odd-numbered units run traced, even-numbered ones untraced, so the same run
reports the tracing overhead).  ``--out FILE`` appends the full record (unit
samples, both metric sets, environment) as one JSON line.

BLAS and OpenMP pools are pinned to one thread before numpy loads, so the run
uses one process and one thread; unit_cpu_mean_s above unit_mean_s would
expose work moved onto extra threads.  Every reported time is the program's
own wall or CPU time, unscaled; a fixed speed probe (speed_probe.py) runs
before and after the units and is recorded for information only.

Unit times are gated as the mean over the run's untraced units, that is the
measured time over the units completed in it: the cost of the work at the
throughput the machine gave.  On a shared machine the host's load switches
this package's speed between two levels ~1.7x apart, for seconds to minutes
at a time, and the mean moves least from run to run (NOTES.md).  The fastest
unit, the median and the tail percentile are printed and recorded beside it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

LOADED_AT = perf_counter()  # stands in for process start in info.first_unit_after_s

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LIBRARY_THREADS_VAR = "SHEAF_SYSID_THREADS"
MODULES = ("sheaf", "potentials", "dynamics", "sysid", "experiments", "cli")


class BenchError(Exception):
    """The benchmark cannot run here (missing package, declaration or input)."""


@dataclass
class Package:
    ss: object  # the sheaf_sysid package
    cli: object  # sheaf_sysid.cli
    modules: list


@dataclass
class Unit:
    wall: float
    cpu: float
    traced: bool
    problems: list
    core: int


def pin_threads() -> dict:
    """Pin thread pools to one thread and unset the library's own knob.

    Returns the values inherited from the caller's environment.
    """
    inherited = {k: os.environ.get(k) for k in THREAD_VARS + (LIBRARY_THREADS_VAR,)}
    for key in THREAD_VARS:
        os.environ[key] = "1"
    os.environ.pop(LIBRARY_THREADS_VAR, None)
    return inherited


def load_declaration() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def load_package() -> Package:
    """Import sheaf_sysid afresh from the checkout's src/ directory.

    Bytecode is looked up under an empty directory and never written, so the
    package is compiled from source on every call, whatever ``__pycache__``
    holds.
    """
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "sheaf_sysid" or m.startswith("sheaf_sysid.")]:
        del sys.modules[name]
    saved = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix = str(ROOT / ".bench_work" / "no-bytecode")
    sys.dont_write_bytecode = True
    try:
        ss = importlib.import_module("sheaf_sysid")
        cli = importlib.import_module("sheaf_sysid.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import sheaf_sysid from {src}: {exc}") from None
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = saved
    if Path(ss.__file__).resolve().parent != ROOT / "src" / "sheaf_sysid":
        raise BenchError(f"sheaf_sysid was imported from {ss.__file__}, not {src}")
    modules = [ss] + [sys.modules[f"sheaf_sysid.{m}"] for m in MODULES + ("errors",)]
    return Package(ss=ss, cli=cli, modules=modules)


# -- environment record ---------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas(np) -> dict | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_line_count() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src" / "sheaf_sysid").glob("*.py")
    )


def environment(inherited: dict) -> dict:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "inherited_env": inherited,
        "sheaf_sysid_threads_unset": LIBRARY_THREADS_VAR not in os.environ,
        "git_commit": _git_commit(),
        "src_lines": src_line_count(),
    }


# -- measuring ----------------------------------------------------------------


def run_units(workload, seed: int, work_dir: Path, seconds: float, trace: bool):
    """Set up and run units until the next set-up and unit would end after
    ``seconds``.

    Returns the units, the set-up times, the spans of each traced unit and
    the time the first unit started.
    """
    from tracer import Tracer

    cores = sorted(os.sched_getaffinity(0))
    units: list[Unit] = []
    setups: list[float] = []
    spans_per_unit: list[list] = []
    start = first_unit_at = perf_counter()
    while True:
        if units:
            typical = statistics.median(u.wall for u in units) + statistics.median(setups)
            have_traced = not trace or any(u.traced for u in units)
            if have_traced and perf_counter() - start + typical > seconds:
                break
        # Each pair of units (one traced, one not, with --trace 1) runs pinned
        # to the next core in turn.  A busy process otherwise stays on one
        # core for the whole run and takes on that core's share of the host's
        # load (NOTES.md).
        core = cores[len(units) // 2 % len(cores)]
        os.sched_setaffinity(0, {core})
        t0 = perf_counter()
        pkg = load_package()
        inputs = workload.setup(pkg, seed, work_dir)
        setups.append(perf_counter() - t0)
        traced = trace and len(units) % 2 == 1
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install(pkg.modules)
            root = tracer.open("unit")
        output, problems = None, []
        cpu0, wall0 = process_time(), perf_counter()
        if not units:
            first_unit_at = wall0
        try:
            output = workload.unit(pkg, inputs, len(units))
        except Exception:  # a failed unit is counted, and the run goes on
            problems.append(traceback.format_exc())
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
            spans_per_unit.append(tracer.spans)
        unit = Unit(wall, cpu, traced, problems, core)
        if not problems:
            try:
                unit.problems = workload.check(inputs, output)
            except Exception:
                unit.problems = [traceback.format_exc()]
        workload.cleanup(inputs, output)
        for problem in unit.problems:
            print(f"unit {len(units)} failed: {problem}", file=sys.stderr)
        units.append(unit)
    os.sched_setaffinity(0, cores)
    return units, setups, spans_per_unit, first_unit_at


def timed_units(units: list[Unit]) -> list[Unit]:
    """Untraced units that passed, so a unit that failed early cannot read
    fast; all units when none qualifies (ok_frac then shows the failure)."""
    return [u for u in units if not u.traced and not u.problems] or units


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    p = 1.0 - 10.0 / n
    ordered = sorted(values)
    return p, ordered[min(n - 1, int(p * n))]


def end_to_end(units: list[Unit], setups: list[float]) -> dict:
    timed = timed_units(units)
    ok = sum(1 for u in units if not u.problems)
    return {
        "unit_mean_s": statistics.fmean(u.wall for u in timed),
        "unit_cpu_mean_s": statistics.fmean(u.cpu for u in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
        "ok_frac": ok / len(units),
    }


def per_layer(units: list[Unit], spans_per_unit: list[list]) -> dict:
    from tracer import totals

    traced = [u for u in units if u.traced]
    untraced = [u for u in units if not u.traced]
    n = len(spans_per_unit)
    summed: dict[str, float] = {}
    shares = {m: 0.0 for m in MODULES + ("other",)}
    root_time = 0.0

    def attribute(name: str, seconds: float) -> None:
        module = name.split(".", 1)[0]
        shares[module if module in shares else "other"] += seconds

    rk4_force = [0, 0, 0.0]  # force calls, rows and seconds inside integrate()
    for spans in spans_per_unit:
        for key, value in totals(spans).items():
            summed[key] = summed.get(key, 0.0) + value
        for span in spans:
            attribute(span.name, span.self_s)
            for leaf, (_, _, seconds) in span.leaves.items():
                attribute(leaf, seconds)
            if span.parent is None:
                root_time += span.end - span.start
            if span.name == "dynamics.integrate" and "potentials.force" in span.leaves:
                calls, rows, seconds = span.leaves["potentials.force"]
                rk4_force[0] += calls
                rk4_force[1] += rows
                rk4_force[2] += seconds
    out = {key: value / n for key, value in summed.items()}
    out["dynamics.integrate.force_s"] = rk4_force[2] / n
    out["potentials.force.rk4_rows_per_call"] = rk4_force[1] / rk4_force[0] if rk4_force[0] else 0.0
    for module, seconds in shares.items():
        out[f"share.{module}"] = seconds / root_time
    for leaf in ("potentials.force", "potentials.model_init"):
        for suffix in ("calls", "rows", "self_s"):
            out.setdefault(f"{leaf}.{suffix}", 0.0)
    calls = out["potentials.force.calls"]
    out["potentials.force.rows_per_call"] = out["potentials.force.rows"] / calls if calls else 0.0
    traced_s = statistics.fmean(u.wall for u in traced)
    untraced_s = statistics.fmean(u.wall for u in untraced)
    out["trace.unit_mean_s"] = traced_s
    out["trace.untraced_unit_mean_s"] = untraced_s
    out["trace.overhead"] = traced_s / untraced_s
    return out


def select(declared: list[dict], computed: dict) -> dict:
    """The declared metrics, in declaration order; absent layer work reads 0."""
    return {
        m["name"]: {"value": computed.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
    }


def format_summary(workload: str, metrics: dict, units: list[Unit], info: dict) -> str:
    lines = [f"workload {workload}: {len(units)} units, {info['failed']} failed"]
    for name, metric in metrics.items():
        lines.append(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    tail = info["unit_tail"]
    lines.append(
        f"  unit time over {info['unit_count']} timed units: fastest {info['unit_min_s']:.6g} s, "
        f"median {info['unit_median_s']:.6g} s, "
        + (f"p{100 * tail[0]:.0f} {tail[1]:.6g} s" if tail else "no tail percentile (n < 11)")
    )
    return "\n".join(lines)


def run(workload_name: str, seed: int, seconds: float, trace: bool, inherited: dict) -> dict:
    from speed_probe import speed_probe  # loads numpy, so only after pin_threads()
    from workloads import WORKLOADS

    declaration = load_declaration()
    workload = WORKLOADS[workload_name]
    work_dir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        probe_before = speed_probe()
        units, setups, spans, first_unit_at = run_units(workload, seed, work_dir, seconds, trace)
        probe_after = speed_probe()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    e2e = end_to_end(units, setups)
    layers = per_layer(units, spans) if trace else {}
    declared = declaration["per_layer"] if trace else declaration["end_to_end"]
    failed = sum(1 for u in units if u.problems)
    return {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": select(declared, layers if trace else e2e),
        "end_to_end": e2e,
        "per_layer": layers,
        "units": [vars(u) for u in units],
        "setup_samples": setups,
        "info": {
            "failed": failed,
            "unit_count": len(timed_units(units)),
            "unit_min_s": min(u.wall for u in timed_units(units)),
            "unit_median_s": statistics.median(u.wall for u in timed_units(units)),
            "unit_cpu_median_s": statistics.median(u.cpu for u in timed_units(units)),
            "unit_tail": tail_percentile([u.wall for u in timed_units(units)]),
            "first_unit_after_s": first_unit_at - LOADED_AT,
            "speed_probe_s": [probe_before, probe_after],
        },
        "env": environment(inherited),
    }


def main(argv: list[str] | None = None) -> int:
    sys.dont_write_bytecode = True  # leave no bytecode files in the checkout
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)

    inherited = pin_threads()
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), inherited)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(format_summary(args.workload, record["metrics"], [Unit(**u) for u in record["units"]],
                         record["info"]))
    print("env: " + json.dumps(record["env"], sort_keys=True))
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
