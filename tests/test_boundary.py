"""Every numeric input at the command-line boundary, read from the code.

The cases are derived, not listed: every float option of every `structmc`
command (from the click parameters), and every float field that the spec,
alphabet, noise, observation and bench-config loaders read (the key sets they
hand `core._known`, kept when the dataclass field of that name holds floats).
Each gets NaN, +inf and -inf on an otherwise valid invocation. Every case must
exit 0 or 2: exit 2 prints one `error:` line, and exit 0 writes no non-finite
number. A new flag or loader field is covered without editing this file.
"""

import contextlib
import json
import re
import sys
import warnings
from dataclasses import fields
from unittest import mock

import click
import pytest

from structmc import core
from structmc.bench import BenchConfig, bench_config_from_obj
from structmc.cli import cli, main
from structmc.core import Alphabet, Observation, StructureSpec, observation_from_obj, spec_from_obj
from structmc.estimators import SolverConfig
from structmc.simulate import NOISE_KINDS, NoiseKind

BAD = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}

SPEC = {"n": 6, "m": 5, "k_n": 3, "k_m": 3, "s_n": 1, "s_m": 2,
        "alphabet_n": {"kind": "interval", "lo": -0.5, "hi": 1.0},
        "alphabet_m": {"kind": "finite", "values": [-1.0, 0.5, 1.0]},
        "b_max": 2.0, "theta_mx": 3.0, "bounded": True}
OBSERVATION = {"rows": 2, "cols": 2, "data": [0.5, 0.0, -0.25, 1.0], "mask": [1, 0, 1, 1],
               "p": 0.8, "sigma": 0.3, "b": 0.5}


def _bench_config(noise_kind):
    noise = {"kind": noise_kind, **{key: 0.5 for key in NOISE_KINDS[noise_kind][1]}}
    bounded = NoiseKind.from_obj(noise).bound is not None
    return {"family": "sbm", "grid": [[4, 2]], "p": [1.0, 0.5], "noise": noise,
            "method": "svt" if bounded else "bcd", "constant": 0.5,
            "solver": {"restarts": 1, "tol": 1e-9}, "replicas": 1, "seed": 0, "budget": 1e9}


# valid invocations of each command with a float option; {spec}, {theta} and
# {obs} name files written by the fixture
INVOCATIONS = {
    "observe": [["--theta", "{theta}", "--p", "0.8", "--noise", "truncated_gaussian",
                 "--sigma", "0.3", "--b", "0.5"],
                ["--theta", "{theta}", "--p", "0.8", "--noise", "rademacher", "--scale", "0.2"],
                ["--theta", "{theta}", "--p", "0.8", "--noise", "uniform", "--b", "0.4"]],
    "estimate": [["--method", method, "--obs", "{obs}", "--spec", "{spec}", "--lambda", "1.0"]
                 for method in ("svt", "adaptive")],
    "rates": [["--spec", "{spec}", "--sigma", "1.0", "--p", "0.5", "--epsilon0", "--u", "0.5"]],
    "packing": [["--kind", kind, "--spec", "{spec}", "--sigma", "1.0", "--p", "0.7",
                 "--c0", "0.5", "--cap", "4"] for kind in ("tz", "tb")],
}
# (loader, the command that consumes its file, valid objects)
LOADERS = {
    # unbounded, so that gen draws from the interval as given
    "spec": (spec_from_obj, ["gen", "--family", "generic", "--spec", "{file}"],
             [dict(SPEC, bounded=False)]),
    "observation": (observation_from_obj, ["estimate", "--method", "svt", "--lambda", "1.0",
                                           "--obs", "{file}", "--spec", "{spec}"],
                    [OBSERVATION]),
    "bench config": (bench_config_from_obj, ["bench", "--config", "{file}"],
                     [_bench_config(kind) for kind in NOISE_KINDS]),
}
FLOAT_FIELDS = {f.name for cls in (StructureSpec, Alphabet, NoiseKind, Observation,
                                   BenchConfig, SolverConfig)
                for f in fields(cls) if "float" in str(f.type)}


def _cli_cases():
    for name, command in cli.commands.items():
        for param in command.params:
            if isinstance(param.type, click.types.FloatParamType):
                for i in range(len(INVOCATIONS[name])):
                    for value in BAD:
                        yield pytest.param(name, i, param.opts[0], value,
                                           id=f"{name}{i}{param.opts[0]}={value}")


def _loaded_keys(load, obj):
    """{id(o): (what, keys)} for every object o of obj that load hands to
    core._known, with the key set of its last such call."""
    seen, known = {}, core._known

    def spy(o, keys, what):
        seen[id(o)] = (what, tuple(keys))
        return known(o, keys, what)

    binders = [m for name, m in sys.modules.items()
               if name.startswith("structmc") and getattr(m, "_known", None) is known]
    with contextlib.ExitStack() as stack:
        for module in binders:
            stack.enter_context(mock.patch.object(module, "_known", spy))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load(obj)
    return seen


def _loader_cases():
    for kind, (load, _, objects) in LOADERS.items():
        covered = set()
        for i, obj in enumerate(objects):
            seen = _loaded_keys(load, obj)

            def walk(node, path):
                what, keys = seen.get(id(node), (None, ()))
                for key in keys:
                    if key in FLOAT_FIELDS and (what, key) not in covered:
                        covered.add((what, key))
                        yield path + (key,)
                for key, child in node.items():
                    if isinstance(child, dict):
                        yield from walk(child, path + (key,))

            for path in walk(obj, ()):
                for value in BAD:
                    yield pytest.param(kind, i, path, value, id=f"{kind}{i}:{'.'.join(path)}={value}")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    paths = {name: root / f"{name}.json" for name in ("spec", "theta", "obs")}
    paths["spec"].write_text(json.dumps(SPEC))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["gen", "--family", "generic", "--spec", str(paths["spec"]),
                     "--out-theta", str(paths["theta"])]) == 0
        assert main(["observe", "--theta", str(paths["theta"]), "--p", "0.8", "--noise",
                     "gaussian", "--sigma", "0.3", "--out", str(paths["obs"])]) == 0
    return {name: str(path) for name, path in paths.items()}


def _reject_constant(name):
    raise AssertionError(f"non-finite {name} in the output")


def _run(capsys, argv):
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    elif out.startswith("{"):
        json.loads(out, parse_constant=_reject_constant)
    else:
        # the bench CSV: no cell reads nan or inf
        assert not re.search(r"(?i)(^|,)-?(nan|inf)(,|$)", out, re.M), (argv, out)


def test_every_invocation_is_valid(files, capsys, tmp_path):
    # the cases below vary one value of these; each must run as given
    cases = [([name, *args], None) for name, invocations in INVOCATIONS.items()
             for args in invocations]
    cases += [(command, obj) for _, command, objects in LOADERS.values() for obj in objects]
    file = tmp_path / "input.json"
    for argv, obj in cases:
        file.write_text(json.dumps(obj))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([a.format(file=file, **files) for a in argv]) == 0, argv
    capsys.readouterr()


@pytest.mark.parametrize("command, i, flag, value", list(_cli_cases()))
def test_float_option_at_the_boundary(files, capsys, command, i, flag, value):
    args = [a.format(**files) for a in INVOCATIONS[command][i]]
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    _run(capsys, [command, *args])


@pytest.mark.parametrize("kind, i, path, value", list(_loader_cases()))
def test_loader_field_at_the_boundary(files, capsys, tmp_path, kind, i, path, value):
    _, command, objects = LOADERS[kind]
    obj = json.loads(json.dumps(objects[i]))
    node = obj
    for key in path[:-1]:
        node = node[key]
    old = node.get(path[-1])
    if isinstance(old, list):
        node[path[-1]] = [BAD[value], *old[1:]]
    else:
        node[path[-1]] = BAD[value]
    file = tmp_path / "input.json"
    file.write_text(json.dumps(obj))
    _run(capsys, [a.format(file=file, **files) for a in command])
