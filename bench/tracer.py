"""In-memory span tracer that wraps the package's public functions from outside.

Nothing in ``src/`` is edited: ``Tracer.install`` replaces every binding of a
public function (the defining module's attribute, every other module that
imported the name, and module-level dicts such as the CLI's command table)
with a wrapper that records a span, and ``Tracer.uninstall`` puts the
originals back.

Two kinds of wrapper exist:

* span wrappers record (name, start, end, parent) for calls that are few per
  unit -- studies, fits, the integrator, operator builds;
* leaf wrappers are for calls made ~10^5 times per unit (the edge-law
  ``force`` inside RK4, model construction).  They record no span; their
  count, rows and time are summed into the enclosing span, so the overhead
  stays a perf_counter pair and a few additions per call.

A span's self time is its duration minus the time covered by its child spans
and by the leaf calls made under it.
"""

from __future__ import annotations

import functools
import inspect
import os
from time import perf_counter

# Span-name overrides: several public functions form one reported layer.
_RENAME = {
    "experiments.run_bounded_confidence": "experiments.run",
    "experiments.run_finite_basis": "experiments.run",
    "experiments.run_formation_transfer": "experiments.run",
    "experiments.run_experiment": "experiments.run",
    "sysid.residuals_exact": "sysid.residuals",
    "sysid.residuals_fd": "sysid.residuals",
    "cli.cmd_cohomology": "cli.cohomology",
    "cli.cmd_simulate": "cli.simulate",
    "cli.cmd_identify": "cli.identify",
    "cli.cmd_experiment": "cli.experiment",
}

# Methods of the potentials classes traced as leaves, and their reported name.
_LEAF_METHODS = {
    "force": "potentials.force",
    "value": "potentials.value",
    "param_jacobian": "potentials.param_jacobian",
}
# Every model object runs exactly one of these base initialisers (the stalk
# layout scan), so wrapping them counts each construction once.
_MODEL_BASES = ("EdgePotential", "BasisForce")


class Span:
    __slots__ = ("name", "start", "end", "parent", "covered", "leaves", "counts")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.covered = 0.0  # time spent in child spans and leaf calls
        self.leaves: dict[str, list] = {}  # name -> [calls, rows, seconds]
        self.counts: dict[str, float] = {}

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.covered


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _rows(y) -> int:
    shape = getattr(y, "shape", None)
    if not shape:
        return 1
    rows = 1
    for n in shape[:-1]:
        rows *= n
    return rows


class Tracer:
    """Collects the spans of one traced unit while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object, bool]] = []
        self._divergence_type: type = ()  # set on install

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, perf_counter(), self._stack[-1] if self._stack else None)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.covered += span.end - span.start
        self.spans.append(span)

    def count(self, key: str, amount: float) -> None:
        span = self._stack[-1]
        span.counts[key] = span.counts.get(key, 0.0) + amount

    def _span_wrapper(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf or not tracer._stack:
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if counter is not None:
                    counter(tracer, args, kwargs, None, exc)
                raise
            finally:
                tracer.close(span)
            if counter is not None:
                counter(tracer, args, kwargs, result, None)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn, rows_arg):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_leaf or not tracer._stack:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._in_leaf = False
                parent = tracer._stack[-1]
                parent.covered += elapsed
                entry = parent.leaves.get(name)
                if entry is None:
                    entry = parent.leaves[name] = [0, 0, 0.0]
                entry[0] += 1
                entry[1] += _rows(args[rows_arg]) if rows_arg is not None else 1
                entry[2] += elapsed

        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self, modules: list) -> None:
        """Wrap the public functions and model methods of ``modules``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = {m.__name__: m for m in modules}
        errors = package.get("sheaf_sysid.errors")
        self._divergence_type = errors.DivergenceError if errors else ()

        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__ or id(obj) in wrappers:
                    continue
                full = f"{_short(module.__name__)}.{attr}"
                name = _RENAME.get(full, full)
                wrappers[id(obj)] = self._span_wrapper(name, obj, _COUNTERS.get(full))

        # Replace every binding of a wrapped function: module attributes and
        # values of module-level dicts (the CLI dispatch table).
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(module, attr, wrappers[id(obj)], is_dict=False)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in wrappers:
                            self._patch(obj, key, wrappers[id(value)], is_dict=True)

        potentials = package.get("sheaf_sysid.potentials")
        if potentials is not None:
            for cls in vars(potentials).values():
                if not (inspect.isclass(cls) and cls.__module__ == potentials.__name__):
                    continue
                for method, name in _LEAF_METHODS.items():
                    fn = cls.__dict__.get(method)
                    if inspect.isfunction(fn):
                        self._patch(cls, method, self._leaf_wrapper(name, fn, 1), False)
                if cls.__name__ in _MODEL_BASES:
                    init = cls.__dict__["__init__"]
                    leaf = self._leaf_wrapper("potentials.model_init", init, None)
                    self._patch(cls, "__init__", leaf, False)

    def _patch(self, owner, key, new, is_dict: bool) -> None:
        old = owner[key] if is_dict else getattr(owner, key)
        self._patches.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()


def totals(spans: list[Span]) -> dict[str, float]:
    """Per-name calls/self_s, leaf calls/rows/self_s and counters, summed."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for span in spans:
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.self_s", span.self_s)
        for leaf, (calls, rows, seconds) in span.leaves.items():
            add(f"{leaf}.calls", calls)
            add(f"{leaf}.rows", rows)
            add(f"{leaf}.self_s", seconds)
        for key, value in span.counts.items():
            add(key, value)
    return out


# -- counters computed from a wrapped call's arguments and result ------------


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_integrate(tracer, args, kwargs, result, exc):
    # Rows, not calls: the counts keep their meaning once integrate() steps a
    # batch of states and returns one result per row.
    diverged = tracer._divergence_type
    if exc is not None and not isinstance(exc, diverged):
        return
    shape = getattr(_arg(args, kwargs, 3, "x0"), "shape", ())
    rows = shape[0] if len(shape) == 2 else 1
    step = _arg(args, kwargs, 4, "cfg").step
    if exc is not None:
        outcomes = [exc] * rows
    else:
        outcomes = result if isinstance(result, list) else [result]
    steps = sum(
        round((o.time or 0.0) / step) if isinstance(o, diverged) else o.n_samples - 1
        for o in outcomes
    )
    tracer.count("dynamics.trajectories", rows)
    tracer.count("dynamics.divergences", sum(isinstance(o, diverged) for o in outcomes))
    tracer.count("dynamics.rk4_steps", steps)


def _count_samples(data_index: int):
    def counter(tracer, args, kwargs, result, exc):
        if exc is None:
            tracer.count("sysid.samples", _arg(args, kwargs, data_index, "data").n_samples)

    return counter


def _count_save(tracer, args, kwargs, result, exc):
    if exc is None:
        size = os.path.getsize(_arg(args, kwargs, 1, "path"))
        tracer.count("dynamics.save_trajectory_csv.bytes", size)


_COUNTERS = {
    "dynamics.integrate": _count_integrate,
    "sysid.fit_linear": _count_samples(2),
    "sysid.fit_threshold": _count_samples(1),
    "dynamics.save_trajectory_csv": _count_save,
}
