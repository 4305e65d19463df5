"""The CLI's error contract under mutated README configs, sheaf files,
trajectory files and simulate manifests: every run exits 0, 1 or 2, and a
failing run prints an ``error:`` line and no traceback.

Every size an example can draw is bounded, so no example allocates or steps
without limit: cycles of at most 9 vertices (a sheaf file may have none) and
stalks of at most 9 dimensions, at most 10 RK4 steps per drawn record length,
at most 3 of anything counted (starts, seeds, training and holdout sets), and
input files of at most 4 KB.  A key that sets a size is therefore replaced,
never deleted (its default is full size), and only by a value within its
bound or by one the CLI must reject.  Among the latter are a horizon or
training horizon of 1e12 and a step of 1e-300, records of at least 5e12
samples that must be refused before anything is stepped; a long record that
could be allocated is never drawn.  Drawn record lengths are rounded to 1e-6,
so a step of 1e-300 never meets a horizon that makes such a record.  The
studies' own fixed record lengths are not drawn.
About half the examples edit no file and draw no huge number, and a sheaf file
more often has no vertices than not, so that the paths behind an otherwise
valid config come up in the 50 examples: a sheaf without vertices simulated to
the end, and records refused as too long to allocate.
Any other number may be drawn as a 400-digit integer, too large for a float,
and so may an entry of a sheaf file's map.
"""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sheaf_sysid.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
MAX_FILE = 4096

# The README's configs in usage order, with their sizes cut to the bounds.
CONFIGS = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.S)]
SIZED = {
    "simulate": {"horizon": 0.05, "random_initial_states": {"count": 2, "scale": 0.8}},
    "experiment": {"seeds": [0], "training_horizon": 0.05, "n_training": 2, "n_holdout": 1},
}
for config in CONFIGS:
    config.update(copy.deepcopy(SIZED.get(config["command"], {})))
# The simulate config with a law whose force overflows at its huge starts, so
# that examples reach the divergence exit (2) as well.
CONFIGS.append({
    **copy.deepcopy(CONFIGS[1]),
    "potential": {"kind": "monomial", "theta": [1.0, 0.25, 0.03]},
    "random_initial_states": {"count": 2, "scale": 1e200},
})

# A file form of the rotated 3-cycle, for "sheaf": {"path": ...}.
_ROTATION = [[0.7071067811865476, -0.7071067811865475], [0.7071067811865475, 0.7071067811865476]]
SHEAF = {
    "vertex_count": 3,
    "vertex_stalk_dims": [2, 2, 2],
    "edges": [
        {"tail": i, "head": (i + 1) % 3, "stalk_dim": 2,
         "head_map": [[1.0, 0.0], [0.0, 1.0]], "tail_map": _ROTATION}
        for i in range(3)
    ],
}

# A sheaf file with no vertices, whose cochains have no coordinates.
EMPTY_SHEAF = {"vertex_count": 0, "vertex_stalk_dims": [], "edges": []}

HUGE = 10**400  # math.isfinite overflows on it
# Record keys, each with a value that makes a record of at least 5e12 samples
# at any drawn step or horizon: too long to allocate.
TOO_LONG = {"horizon": 1e12, "training_horizon": 1e12, "step": 1e-300}

NOT_A_NUMBER = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.lists(st.integers(-2, 3), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-2, 3), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
ANY_VALUE = st.one_of(
    NOT_A_NUMBER,
    st.integers(-3, 9),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1e-300, 1e300, -1e300, HUGE]),
)

# Names the CLI reads as choices, drawn from among the valid ones as well.
NAMED = {
    key: st.one_of(st.sampled_from(choices), ANY_VALUE)
    for key, choices in {
        "command": ["cohomology", "simulate", "identify", "experiment"],
        "experiment": ["bounded_confidence", "finite_basis", "formation_transfer"],
        "variant": ["identity", "rotated"],
        "builtin": ["cycle"],
        "residuals": ["observed", "finite_difference"],
        "kind": [
            "quadratic", "shifted_quadratic", "bounded_confidence", "antagonistic",
            "monomial", "harmonic_augmented", "threshold",
        ],
    }.items()
}


def bounded(low, high, integer=False):
    """A size within [low, high], or one the CLI must reject."""
    if integer:
        return st.one_of(st.integers(low, high), st.sampled_from([low - 1, 0.5]), NOT_A_NUMBER)
    within = st.floats(low, high).map(lambda v: round(v, 6))
    return st.one_of(within, st.just(low - 1), NOT_A_NUMBER)


# A record length within 10 steps of 0.01, or one the CLI must reject.
RECORD_LENGTH = st.one_of(bounded(-0.05, 0.1), st.just(TOO_LONG["horizon"]))


# Size keys and what may replace them.  A step of at least 0.01 and a horizon
# of at most 0.1 keep every simulate record within 10 steps; the studies step
# at 0.01, so a training horizon of at most 0.1 does the same.  A step of
# 1e-300 makes any drawn horizon of at least 1e-6 too long to allocate.
SIZE_KEYS = {
    "cycle_length": bounded(-1, 9, integer=True),
    "horizon": RECORD_LENGTH,
    "step": st.one_of(
        st.floats(0.01, 0.2), st.sampled_from([0.0, -0.01, TOO_LONG["step"]]), NOT_A_NUMBER
    ),
    "count": bounded(-1, 3, integer=True),
    "training_horizon": RECORD_LENGTH,
    "n_training": bounded(-1, 3, integer=True),
    "n_holdout": bounded(-1, 3, integer=True),
    "seeds": st.one_of(st.lists(st.integers(-1, 5), max_size=3), NOT_A_NUMBER),
    "vertex_count": bounded(-1, 9, integer=True),
    "vertex_stalk_dims": st.one_of(st.lists(st.integers(-1, 9), max_size=4), NOT_A_NUMBER),
    "stalk_dim": bounded(-1, 9, integer=True),
    "initial_states": st.one_of(
        st.lists(st.lists(st.floats(-2.0, 2.0), max_size=7), max_size=3), NOT_A_NUMBER
    ),
    "base_seed": bounded(-1, 3, integer=True),  # a removed key: it must be refused
}


def _dicts(node):
    """Every dict in a JSON tree, outermost first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    for child in node if isinstance(node, list) else ():
        yield from _dicts(child)


def mutate(data, tree, label, max_edits=3):
    """Up to max_edits edits of the dicts in tree: replace a value, delete a
    key that sets no size, or add a key of any name."""
    for _ in range(data.draw(st.integers(0, max_edits), label=f"{label} edits")):
        node = data.draw(st.sampled_from(list(_dicts(tree))), label=f"{label} dict")
        keys = sorted(node)
        action = data.draw(st.sampled_from(["replace", "delete", "add"]), label="action")
        if action == "add" or not keys:
            key = data.draw(st.sampled_from([*SIZE_KEYS, "kind", "path", "zzz"]), label="new key")
        else:
            key = data.draw(st.sampled_from(keys), label="key")
        if action == "delete" and key not in SIZE_KEYS:
            node.pop(key, None)
        else:
            node[key] = data.draw(SIZE_KEYS.get(key, NAMED.get(key, ANY_VALUE)), label=key)


def mutate_bytes(data, raw: bytes, label) -> bytes:
    """raw as it is (half the time), or cut short, with a byte replaced, or
    with a line appended."""
    how = data.draw(st.sampled_from(["keep"] * 3 + ["cut", "byte", "line"]), label=label)
    at = data.draw(st.integers(0, max(len(raw) - 1, 0)), label=f"{label} at")
    if how == "cut":
        return raw[:at]
    if how == "byte" and raw:
        return raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1 :]
    if how == "line":
        return raw + data.draw(st.binary(max_size=40), label=f"{label} line") + b"\n"
    return raw


def run(command, config_path, out):
    """main() in-process; its exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config_path), "--out", out, "--quiet"])
    return code, err.getvalue()


@settings(
    derandomize=True,
    max_examples=50,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_mutated_run_exits_0_1_or_2_with_an_error_line(tmp_path, monkeypatch, data):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(work)
    configs = copy.deepcopy(CONFIGS)
    config = data.draw(st.sampled_from(configs), label="config")
    command = config["command"]
    # About half the examples edit no file and draw no huge number, so that
    # the paths behind an otherwise valid config come up often: a sheaf file
    # with no vertices simulated to the end, a record too long to allocate.
    intact = data.draw(st.booleans(), label="intact")
    if command == "identify":
        # the trajectories the README's simulate config writes, one of them and
        # the manifest maybe mutated
        (work / "simulate.json").write_text(json.dumps(configs[1]))
        assert run("simulate", work / "simulate.json", "trajectories/") == (0, "")
        manifest = next((work / "trajectories").glob("manifest_*.json"))
        csv = sorted((work / "trajectories").glob("*.csv"))[0]
        for path, label in ((csv, "trajectory file"), (manifest, "manifest")):
            assert len(path.read_bytes()) <= MAX_FILE
            if not intact:
                path.write_bytes(mutate_bytes(data, path.read_bytes(), label))
    if "sheaf" in config and data.draw(st.sampled_from([True] * 3 + [False]), label="sheaf file"):
        empty = data.draw(st.sampled_from([True, True, False]), label="no vertices")
        sheaf = copy.deepcopy(EMPTY_SHEAF if empty else SHEAF)
        raw = json.dumps(sheaf).encode()
        if not intact:
            if not empty and data.draw(st.booleans(), label="huge map entry"):
                sheaf["edges"][0]["tail_map"][0][0] = HUGE
            mutate(data, sheaf, "sheaf")
            raw = mutate_bytes(data, json.dumps(sheaf).encode(), "sheaf bytes")
        assert len(raw) <= MAX_FILE
        (work / "sheaf.json").write_bytes(raw)
        # a bare string is not a sheaf spec, however it reads as a path
        spec = st.sampled_from(["object"] * 3 + ["sheaf.json", "a\u0000b", "\ud800"])
        spec = "object" if intact else data.draw(spec, label="sheaf spec")
        config["sheaf"] = {"path": "sheaf.json"} if spec == "object" else spec
    numbers = [(node, key) for node in _dicts(config) for key, value in node.items()
               if isinstance(value, float) and key not in SIZE_KEYS]
    if numbers and not intact and data.draw(st.booleans(), label="huge number"):
        node, key = data.draw(st.sampled_from(numbers), label="huge number at")
        node[key] = HUGE
    records = sorted(TOO_LONG.keys() & config.keys())
    if records and data.draw(st.booleans(), label="too long"):
        key = data.draw(st.sampled_from(records), label="too long at")
        config[key] = TOO_LONG[key]
    raw = json.dumps(config).encode()
    if not intact:
        mutate(data, config, "config")
        raw = mutate_bytes(data, json.dumps(config).encode(), "config bytes")
    assert len(raw) <= MAX_FILE
    (work / "config.json").write_bytes(raw)

    code, err = run(command, work / "config.json", "out")
    assert code in (0, 1, 2), (code, err)
    try:
        top = json.loads(raw)
    except ValueError:
        top = None
    if isinstance(top, dict) and "base_seed" in top:
        assert code == 1, err
    assert "Traceback" not in err
    if code:
        assert any(line.startswith("error: ") for line in err.splitlines()), err
