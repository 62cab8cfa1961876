"""The CLI error contract, fuzzed over the config trees of every subcommand.

Each case is one subcommand's config, built from a small valid tree and
changed in up to three places: a value set to another type, a null, a
boundary, extreme or arbitrary number, a key deleted or an unknown key
added; one case in 50 is not a JSON object at all.  Every case must exit
0, 2 or 3; on a nonzero exit stdout stays empty and stderr holds exactly
one JSON object, whose ``exit_code`` is the exit, and no warning is raised.

Each case is small by construction or refused by a bound: a valid horizon
is at most 30 switching periods and a valid ``steps_per_cycle`` at most
400, a sweep axis has at most 4 points and a descent at most 3 steps; the
other draws of those keys, and of ``f_sw``, which sets the period, are
refused by the CLI or by the library's size bounds.  So 2,000 cases take a
few seconds, most of it hypothesis's own drawing: each draw is a strategy
built once, and each example runs ``BATCH`` cases.
"""

import contextlib
import copy
import functools
import io
import json
import math
import sys
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from boostdyn import cli

PERIOD = 1e-5
CONVERTER = {"v_i": 3.0, "l": 1e-4, "r_l": 0.5, "c": 1e-5, "r_c": 0.2, "r_m": 0.4,
             "v_d": 0.3, "r_0": 20.0, "d": 0.5, "f_sw": 1.0 / PERIOD}
EVENTS = (
    {"kind": "input_voltage", "value_before": 0.0, "value_after": 3.0, "t_event": 0.0},
    {"kind": "load_resistance", "value_before": 20.0, "value_after": 40.0, "t_event": 5 * PERIOD},
)
SOLVER = {"t_end": 20 * PERIOD, "steps_per_cycle": 50}
SWEEP = {"axis1": {"name": "l", "lo": 5e-5, "hi": 2e-4, "n": 3},
         "axis2": {"name": "c", "lo": 5e-6, "hi": 2e-5, "n": 2, "log": True},
         "model": "tfm", "metric": "v_max"}
DESCENT = {"free": ["l", "c"], "constraint": "constant-steady-output", "max_steps": 2,
           "model": "tfm", "r_l_budget": 0.5}
AUDIT = {"t0": 2 * PERIOD, "t1": 18 * PERIOD}

#: (argv before --config, the blocks of its valid config)
COMMANDS = [
    *((["predict", "--model", model], ("event",)) for model in ("tfm", "ebm", "fr")),
    (["predict", "--waveform"], ("event", "solver")),
    (["simulate", "--engine", "averaged"], ("event", "solver")),
    (["simulate", "--engine", "averaged", "--parasitics", "off"], ("event", "solver")),
    (["simulate", "--engine", "switched"], ("event", "solver")),
    *((["compare", "--reference", ref], ("event", "solver")) for ref in ("switched", "tfm", "aer")),
    (["sweep"], ("sweep",)),
    (["descend"], ("descent",)),
    (["audit"], ("event", "solver", "audit")),
]

NUMBERS = [0, -0.0, 1, -1, 0.5, 2, 1e-3, 1e6, 5e-324, 1e-300, -1e-300, 1e300, -1e300,
           sys.float_info.max, -sys.float_info.max, 10**400, -10**400, 2**63,
           math.nan, math.inf, -math.inf]
OTHER_TYPES = [True, False, "1.0", "", [], [1.0], {}, {"x": 1.0}]
#: strings each key may name, right or wrong
NAMES = {
    "kind": ["input_voltage", "load_resistance", "step"],
    "name": ["l", "c", "d", "r_0", "v_i", "f_sw", "x"],
    "model": ["tfm", "ebm", "fr", "avg+par", "x"],
    "metric": ["v_max", "v_steady", "t_p", "x"],
    "constraint": ["constant-steady-output", "constant-omega0", "parasitic-loss-bound", "x"],
    "free": [["l"], ["l", "l"], ["l", "c", "r_l"], ["l", "c", "r_l", "d"], ["x", "c"], [1, "c"]],
}
#: the keys that size a run: their small values, and values each refused by a bound
SIZES = {
    "t_end": [20 * PERIOD, 25 * PERIOD, 30 * PERIOD, 10 * PERIOD, 0, -PERIOD, 5e6, 1e300,
              sys.float_info.max],
    "steps_per_cycle": [50, 64, 100, 400, 49, 0, -1, 1.5, 2**24, 10**12, 1e300],
    "n": [1, 2, 4, 0, -1, 513, 1.5, 1e300],
    "max_steps": [0, 1, 3, -1, 1.5],
    "f_sw": [1.0 / PERIOD, 0.5 / PERIOD, 0, -1, 5e-324, 1e-300, 1e300, sys.float_info.max],
}
#: the cases of one hypothesis example
BATCH = 4
#: where a null or a deleted key would fall back to a long default run
KEPT = {("solver",), ("solver", "t_end"), ("descent", "max_steps")}


def key_paths(tree: dict, prefix: tuple = ()):
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


@functools.lru_cache(maxsize=None)
def values_for(path: tuple):
    key = path[-1]
    if key in SIZES:
        return st.sampled_from(SIZES[key] + [v for v in OTHER_TYPES if v != {}])
    odd = NUMBERS + OTHER_TYPES + NAMES.get(key, []) + [None] * (path not in KEPT)
    if path == ("solver",):
        odd = [v for v in odd if v != {}]
    return st.sampled_from(odd) | st.floats()


#: (argv, blocks, event): each command with each event, drawn as one choice
SETUPS = st.sampled_from([(*command, event) for command in COMMANDS for event in EVENTS])
ACTIONS = ("set", "set", "delete", "unknown")
BROKEN = ["", "{", "[]", "1", "null"]


@st.composite
def cases(draw):
    """(argv before --config, the config as JSON text)."""
    argv, blocks, event = draw(SETUPS)
    config = {"converter": dict(CONVERTER), "event": dict(event), "solver": dict(SOLVER),
              "sweep": copy.deepcopy(SWEEP), "descent": dict(DESCENT), "audit": dict(AUDIT)}
    config = {name: config[name] for name in ("converter", *blocks)}
    for _ in range(draw(st.integers(0, 3))):
        paths = list(key_paths(config))
        if not paths:
            break
        pick = draw(st.integers(0, len(ACTIONS) * len(paths) - 1))  # one draw for both
        path, action = paths[pick // len(ACTIONS)], ACTIONS[pick % len(ACTIONS)]
        *parents, key = path
        node = config
        for name in parents:
            node = node[name]
        if action == "set":
            node[key] = copy.deepcopy(draw(values_for(path)))
        elif action == "delete" and path not in KEPT:
            del node[key]
        elif action == "unknown":
            node[key + "_x"] = copy.deepcopy(draw(values_for(path)))
    text = json.dumps(config)
    broken = draw(st.integers(0, 299))  # one case in 50 is not a JSON object
    return argv, (BROKEN + [text[:-1]])[broken] if broken <= len(BROKEN) else text


def test_every_config_exits_by_the_contract(tmp_path):
    config, wave = tmp_path / "config.json", str(tmp_path / "wave.csv")
    exits = []

    def check(argv, text):
        argv = [*argv, *[wave] * (argv[-1] == "--waveform"), "--config", str(config)]
        config.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in (0, 2, 3), (argv, text, err.getvalue())
        exits.append(code)
        if code:
            lines = err.getvalue().splitlines()
            assert out.getvalue() == "" and len(lines) == 1, (argv, text, out.getvalue(), lines)
            payload = json.loads(lines[0])
            assert isinstance(payload, dict) and payload["exit_code"] == code, (argv, text, lines)
            assert not caught, (argv, text, [str(w.message) for w in caught])

    # hypothesis seeds and books each example: BATCH cases share that cost
    @settings(max_examples=2000 // BATCH, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(cases(), min_size=BATCH, max_size=BATCH))
    def run(batch):
        for argv, text in batch:
            check(argv, text)

    run()
    assert len(exits) >= 2000
    assert {0, 2, 3} <= set(exits)
