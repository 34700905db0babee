"""Rules with one home in the package: the bounded class's entry range
(StructureSpec.entry_alphabets), read by the generator, both searches and
their cost rules; the numeric-parameter rule (core._check_range) and the
sampling-rate rule 0 < p <= 1 it holds; and the family list of the command
line.
"""

import json
import math
import re

import numpy as np
import pytest

from structmc import (Alphabet, BenchConfig, ModelFamily, NoiseKind, Observation, ParameterError,
                      StructureSpec, assemble, build_t_b, covering_min_bound, critical_radius,
                      generate, kl_divergence, lower_values, observe, sample_mask,
                      validate_membership)
from structmc import estimators as est
from structmc.cli import cli, main
from structmc.core import _check_range, spec_to_obj
from structmc.simulate import _GENERATORS

WIDE = Alphabet.finite(range(-3, 4))
TERNARY = Alphabet.finite((-1.0, 0.0, 1.0))


def bounded(alphabet, n=3, m=3, k=2, s_n=1, s_m=1, alphabet_m=None):
    return StructureSpec(n=n, m=m, k_n=k, k_m=k, s_n=s_n, s_m=s_m, alphabet_n=alphabet,
                         alphabet_m=alphabet if alphabet_m is None else alphabet_m,
                         b_max=2.0, theta_mx=4.0, bounded=True)


# ---- the entry range ------------------------------------------------------ #

def test_entry_alphabets_keep_the_part_within_one():
    assert bounded(WIDE).entry_alphabets == (TERNARY, TERNARY)
    spec = bounded(Alphabet.interval(-2.0, 0.5), alphabet_m=Alphabet.interval(0.25, 3.0))
    assert spec.entry_alphabets == (Alphabet.interval(-1.0, 0.5), Alphabet.interval(0.25, 1.0))
    free = spec.unbounded()
    assert free.entry_alphabets[0] is free.alphabet_n
    assert free.entry_alphabets[1] is free.alphabet_m


@pytest.mark.parametrize("alphabet", [Alphabet.finite((2.0, 3.0)), Alphabet.interval(2.0, 3.0)])
@pytest.mark.parametrize("side", ["X", "Z"])
def test_bounded_side_with_no_allowed_entry_is_refused(alphabet, side, tmp_path):
    kw = {"alphabet_n": alphabet} if side == "X" else {"alphabet_m": alphabet}
    kw = {"alphabet_n": TERNARY, "alphabet_m": TERNARY, **kw}
    with pytest.raises(ParameterError, match=f"leaves {side} no entry: its alphabet has none in"):
        bounded(kw["alphabet_n"], alphabet_m=kw["alphabet_m"])
    # the same class unbounded is fine; as a spec file, bounded, gen refuses it
    obj = spec_to_obj(StructureSpec(n=3, m=3, k_n=2, k_m=2, s_n=1, s_m=1, **kw))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**obj, "bounded": True}))
    assert main(["gen", "--family", "generic", "--spec", str(path)]) == 2


def test_identity_side_needs_no_allowed_entry():
    spec = StructureSpec(n=3, m=2, k_n=2, k_m=2, s_n=1, s_m=0, alphabet_n=TERNARY,
                         alphabet_m=Alphabet.finite((2.0, 3.0)), bounded=True)
    assert spec.entry_alphabets[1] is spec.alphabet_m


def test_generate_stays_in_the_bounded_class():
    # the draw over {-3, ..., 3} is the draw over {-1, 0, 1}: the same rows, the same B
    for seed in range(4):
        wide_fact, wide_spec = generate(ModelFamily.generic(bounded(WIDE, n=6, m=5, k=3,
                                                                    s_m=2)), seed)
        fact, _ = generate(ModelFamily.generic(bounded(TERNARY, n=6, m=5, k=3, s_m=2)), seed)
        assert validate_membership(wide_fact, wide_spec).accepted
        for a, b in ((wide_fact.x, fact.x), (wide_fact.b, fact.b), (wide_fact.z, fact.z)):
            assert a.tobytes() == b.tobytes()
    spec = StructureSpec(n=6, m=5, k_n=3, k_m=3, s_n=1, s_m=2, alphabet_n=Alphabet.finite(
        (-2.0, 1.0, 2.0)), alphabet_m=Alphabet.finite((-2.0, 1.0, 2.0)), bounded=True)
    fact, spec = generate(ModelFamily.generic(spec), 0)
    assert validate_membership(fact, spec).accepted


def _observation():
    fact, _ = generate(ModelFamily.generic(bounded(TERNARY)), 3)
    theta = assemble(fact)
    noise = np.random.default_rng(3).normal(0.0, 0.2, size=theta.shape)
    return observe(theta, np.ones(theta.shape), noise, 1.0, sigma=0.2)


def _fields(res):
    return (res.theta_hat.tobytes(), res.objective, res.selected_s, res.iterations,
            res.restarts_used, res.converged)


CFG = est.SolverConfig(restarts=2)
ENTRY_POINTS = {
    "enumeration_size": lambda spec: est.enumeration_size(spec),
    "projected_work": lambda spec: tuple(est.projected_work(m, spec, CFG)
                                         for m in ("exact", "bcd", "adaptive")),
    "exact": lambda spec: _fields(est.exact_least_squares(_observation(), spec, CFG)),
    "bcd": lambda spec: _fields(est.block_coordinate_ls(_observation(), spec, CFG, seed=7)),
    "adaptive": lambda spec: _fields(est.adaptive_penalized(_observation(), spec, 0.1, CFG,
                                                            seed=7)),
}


@pytest.mark.filterwarnings("ignore:problem size is below")
def test_wide_bounded_class_runs_as_its_entry_range():
    # a bounded class over {-3, ..., 3} is searched and costed as the one over {-1, 0, 1}
    wide, ternary = bounded(WIDE), bounded(TERNARY)
    assert [name for name, run in ENTRY_POINTS.items() if run(wide) != run(ternary)] == []


# ---- the sampling rate ---------------------------------------------------- #

SPEC = StructureSpec(n=8, m=8, k_n=4, k_m=4, s_n=1, s_m=1, alphabet_n=TERNARY,
                     alphabet_m=TERNARY, bounded=True)
P_ENTRY_POINTS = {
    "Observation": lambda p: Observation(y=np.zeros((2, 2)), mask=np.ones((2, 2)), p=p),
    "sample_mask": lambda p: sample_mask(2, 2, p, seed=0),
    "spectral_threshold": lambda p: est.spectral_threshold(1.0, 1.0, 4, 4, p, 1.0),
    "lower_values": lambda p: lower_values(SPEC, 1.0, p),
    "kl_divergence": lambda p: kl_divergence(np.zeros((2, 2)), np.ones((2, 2)), p, 1.0),
    "build_t_b": lambda p: build_t_b(SPEC, 1.0, p, 0.5),
}


@pytest.mark.parametrize("p", [0.0, -0.5, 1.5, math.nan, math.inf])
@pytest.mark.parametrize("name", list(P_ENTRY_POINTS))
def test_sampling_rate_rule_is_one_rule(name, p):
    with pytest.raises(ParameterError, match=f"^{re.escape(f'p must lie in (0, 1], got {p}')}$"):
        P_ENTRY_POINTS[name](p)


# ---- the numeric-parameter rule ------------------------------------------- #

@pytest.mark.parametrize("bounds, value, message", [
    ({}, math.nan, "x must be finite, got nan"),
    ({}, "1", "x must be finite, got 1"),
    ({"lo": 0}, -1, "x must be >= 0 and finite, got -1"),
    ({"lo": 0}, math.inf, "x must be >= 0 and finite, got inf"),
    ({"lo": 0}, None, "x must be >= 0 and finite, got None"),
    ({"lo": 2}, 1, "x must be >= 2 and finite, got 1"),
    ({"lo": 0, "open_lo": True}, 0.0, "x must be positive and finite, got 0.0"),
    ({"lo": 1, "open_lo": True}, 1, "x must be > 1 and finite, got 1"),
    ({"lo": 0, "hi": 1, "open_lo": True}, 0, "x must lie in (0, 1], got 0"),
    ({"lo": 1, "hi": 3}, 4, "x must lie in [1, 3], got 4"),
    ({"lo": 1, "hi": 3}, math.nan, "x must lie in [1, 3], got nan"),
])
def test_range_check_is_worded_from_its_bounds(bounds, value, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        _check_range("x", value, **bounds)


@pytest.mark.parametrize("bounds, value", [({}, 1e308), ({"lo": 0}, 0), ({"lo": 1, "hi": 3}, 3),
                                           ({"lo": 0, "hi": 1, "open_lo": True}, 1.0),
                                           ({"lo": 0, "open_lo": True}, 5e-324)])
def test_range_check_accepts_finite_values_in_range(bounds, value):
    _check_range("x", value, **bounds)


OBS = Observation(y=np.zeros((2, 2)), mask=np.ones((2, 2)), p=1.0)
FACT, FACT_SPEC = generate(ModelFamily.sbm(4, 2), seed=0)


def bench_config(**kw):
    return BenchConfig(**{"family": "sbm", "grid": ((8, 2),), "p_values": (1.0,),
                          "noise": NoiseKind.uniform_bounded(0.5), "method": "svt",
                          "solver": est.SolverConfig(), "replicas": 1, "seed": 0,
                          "constant": 1.0, **kw})


# (the parameter the message names, a call with that parameter set to v)
NUMBER_ENTRY_POINTS = [
    ("alphabet value", lambda v: Alphabet.finite((0.0, v))),
    ("alphabet lo", lambda v: Alphabet.interval(v, 1.0)),
    ("alphabet hi", lambda v: Alphabet.interval(0.0, v)),
    ("b_max", lambda v: StructureSpec(4, 4, 2, 2, 1, 1, TERNARY, TERNARY, b_max=v)),
    ("theta_mx", lambda v: StructureSpec(4, 4, 2, 2, 1, 1, TERNARY, TERNARY, theta_mx=v)),
    ("sigma", lambda v: Observation(y=np.zeros((2, 2)), mask=np.ones((2, 2)), p=1.0, sigma=v)),
    ("b", lambda v: Observation(y=np.zeros((2, 2)), mask=np.ones((2, 2)), p=1.0, b=v)),
    ("tol", lambda v: validate_membership(FACT, FACT_SPEC, tol=v)),
    ("tol", lambda v: est.SolverConfig(tol=v)),
    ("lambda", lambda v: est.hard_threshold(OBS, v)),
    ("lambda", lambda v: est.adaptive_penalized(OBS, SPEC, v, est.SolverConfig(), 0)),
    ("b", lambda v: est.spectral_threshold(v, 1.0, 4, 4, 1.0, 1.0)),
    ("theta_mx", lambda v: est.spectral_threshold(1.0, v, 4, 4, 1.0, 1.0)),
    ("c", lambda v: est.spectral_threshold(1.0, 1.0, 4, 4, 1.0, v)),
    ("sigma", lambda v: lower_values(SPEC, v, 1.0)),
    ("c_frob", lambda v: lower_values(SPEC, 1.0, 1.0, c_frob=v)),
    ("u", lambda v: covering_min_bound(SPEC, v)),
    ("total_entries", lambda v: critical_radius(v, lambda e: 1.0)),
    ("sigma", lambda v: kl_divergence(np.zeros((2, 2)), np.ones((2, 2)), 1.0, v)),
    ("sigma", lambda v: NoiseKind.gaussian(v)),
    ("scale", lambda v: NoiseKind.rademacher(v)),
    ("b", lambda v: NoiseKind.uniform_bounded(v)),
    ("sigma", lambda v: build_t_b(SPEC, v, 1.0, 0.5)),
    ("c0", lambda v: build_t_b(SPEC, 1.0, 1.0, v)),
    ("budget", lambda v: bench_config(budget=v)),
    ("constant", lambda v: bench_config(constant=v)),
]


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, call", NUMBER_ENTRY_POINTS,
                         ids=[f"{i}-{name}" for i, (name, _) in enumerate(NUMBER_ENTRY_POINTS)])
def test_numeric_parameter_rule_rejects_non_finite_values_by_name(name, call, v):
    with pytest.raises(ParameterError, match=f"^{name} must "):
        call(v)


# ---- the family list ------------------------------------------------------ #

def test_cli_families_are_the_generators():
    gen = next(o for o in cli.commands["gen"].params if o.name == "family")
    rates = next(o for o in cli.commands["rates"].params if o.name == "family_name")
    assert tuple(gen.type.choices) == tuple(_GENERATORS)
    assert tuple(rates.type.choices) == tuple(f for f in _GENERATORS if f != "generic")
    assert set(_GENERATORS) == {"mixture", "dictionary", "sbm", "mixed_membership",
                                "biclustering", "generic"}
