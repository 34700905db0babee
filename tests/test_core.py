"""Class descriptions, factorizations, assembly, and membership checks."""

import copy
import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import structmc
from structmc import (
    Alphabet,
    Factorization,
    Observation,
    ParameterError,
    ShapeError,
    StructureSpec,
    assemble,
    norms,
    spectral_norm,
    validate_membership,
)
from structmc.core import (
    factorization_from_obj,
    factorization_to_obj,
    matrix_from_obj,
    matrix_to_obj,
    observation_from_obj,
    observation_to_obj,
    spec_from_obj,
    spec_to_obj,
)

from conftest import BINARY, SYMMETRIC, member_of, small_specs


def binary_spec(n=4, m=4, k=2, s=1, **kw):
    return StructureSpec(n=n, m=m, k_n=k, k_m=k, s_n=s, s_m=s,
                         alphabet_n=BINARY, alphabet_m=BINARY, **kw)


# ---- alphabets ---------------------------------------------------------- #

def test_finite_alphabet_holds_values():
    a = Alphabet.finite((0.0, 1.0, -1.0))
    assert a.kind == "finite"
    assert set(a.values) == {0.0, 1.0, -1.0}


def test_interval_alphabet_orders_endpoints():
    a = Alphabet.interval(-2.0, 3.0)
    assert a.kind == "interval"
    assert (a.lo, a.hi) == (-2.0, 3.0)


def test_interval_alphabet_rejects_empty_interval():
    with pytest.raises(ParameterError):
        Alphabet.interval(1.0, -1.0)


def test_finite_alphabet_rejects_empty():
    with pytest.raises(ParameterError):
        Alphabet.finite(())


# ---- spec validation ---------------------------------------------------- #

def test_spec_dimensions_and_effective_ranks():
    spec = StructureSpec(n=10, m=8, k_n=3, k_m=12, s_n=2, s_m=3,
                         alphabet_n=BINARY, alphabet_m=BINARY)
    assert spec.d == 18
    assert spec.r_n == 3          # min(n, k_n)
    assert spec.r_m == 8          # k_m exceeds m
    assert not spec.bounded


def test_spec_rejects_sparsity_above_width():
    with pytest.raises(ParameterError):
        binary_spec(k=2, s=3)


def test_spec_rejects_nonpositive_dims():
    with pytest.raises(ParameterError):
        binary_spec(n=0)


def test_zero_sparsity_pins_factor_to_identity_width():
    # s = 0 means the factor is the identity, so its width must equal its height
    spec = StructureSpec(n=4, m=5, k_n=4, k_m=2, s_n=0, s_m=1,
                         alphabet_n=BINARY, alphabet_m=BINARY)
    assert spec.s_n == 0
    with pytest.raises(ParameterError):
        StructureSpec(n=4, m=5, k_n=3, k_m=2, s_n=0, s_m=1,
                      alphabet_n=BINARY, alphabet_m=BINARY)


def test_unbounded_view_drops_caps():
    spec = binary_spec(bounded=True)
    assert spec.unbounded().bounded is False
    assert spec.bounded is True   # original untouched


# ---- assembly ----------------------------------------------------------- #

def test_assemble_matches_triple_product():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    b = rng.normal(size=(3, 2))
    z = rng.normal(size=(4, 2))
    np.testing.assert_allclose(assemble(Factorization(x, b, z)), x @ b @ z.T)


def test_assemble_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        assemble(Factorization(np.ones((3, 2)), np.ones((2, 2)), np.ones((4, 3))))


@given(st.integers(0, 10_000))
def test_assemble_linear_in_middle_factor(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(4, 3))
    z = rng.uniform(-1, 1, size=(5, 2))
    b1 = rng.uniform(-1, 1, size=(3, 2))
    b2 = rng.uniform(-1, 1, size=(3, 2))
    lhs = assemble(Factorization(x, b1 + b2, z))
    rhs = assemble(Factorization(x, b1, z)) + assemble(Factorization(x, b2, z))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@given(small_specs(), st.integers(0, 10_000))
def test_assembled_spectral_norm_bound(spec, seed):
    # per entry: |sum_b (XB)_ib Z_jb| <= s_m * max|XB| * max|Z|
    rng = np.random.default_rng(seed)
    x, b, z = member_of(spec, rng)
    theta = assemble(Factorization(x, b, z))
    xb = x @ b
    cap = spec.s_m * np.sqrt(spec.n * spec.m)
    cap *= max(np.abs(xb).max(), 1e-300) * max(np.abs(z).max(), 1e-300)
    assert spectral_norm(theta) <= cap * (1 + 1e-12)


def test_norms_cross_checks():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 4))
    got = norms(a)
    assert got.frobenius == pytest.approx(np.linalg.norm(a), rel=1e-12)
    assert got.spectral == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
    assert got.sup == pytest.approx(np.abs(a).max(), rel=1e-12)
    assert got.spectral <= got.frobenius + 1e-12


# ---- membership --------------------------------------------------------- #

@given(small_specs(), st.integers(0, 10_000))
def test_random_members_validate(spec, seed):
    x, b, z = member_of(spec, np.random.default_rng(seed))
    report = validate_membership(Factorization(x, b, z), spec)
    assert report.accepted, report.violations


def test_membership_rejects_dense_rows():
    spec = binary_spec(k=2, s=1)
    x = np.ones((4, 2))           # every row has 2 nonzeros, s_n = 1
    z = np.zeros((4, 2)); z[:, 0] = 1.0
    b = np.zeros((2, 2))
    report = validate_membership(Factorization(x, b, z), spec)
    assert not report.accepted
    assert report.violations


def test_membership_rejects_foreign_alphabet_values():
    spec = binary_spec()
    x = np.zeros((4, 2)); x[:, 0] = 0.5      # not in {0, 1}
    z = np.zeros((4, 2)); z[:, 0] = 1.0
    report = validate_membership(Factorization(x, np.eye(2), z), spec)
    assert not report.accepted


def test_membership_enforces_caps_only_when_bounded():
    x = np.zeros((4, 2)); x[:, 0] = 1.0
    z = x.copy()
    b = np.full((2, 2), 7.0)                 # above b_max = 1
    f = Factorization(x, b, z)
    assert validate_membership(f, binary_spec()).accepted
    report = validate_membership(f, binary_spec(bounded=True))
    assert not report.accepted


def test_membership_enforces_sup_norm_cap():
    spec = binary_spec(bounded=True, theta_mx=0.5)
    x = np.zeros((4, 2)); x[:, 0] = 1.0
    z = x.copy()
    b = np.eye(2)                            # assembled entries hit 1 > 0.5
    report = validate_membership(Factorization(x, b, z), spec)
    assert not report.accepted
    assert any("sup" in v or "theta" in v for v in report.violations)


def test_membership_tolerance_forgives_roundoff():
    spec = binary_spec()
    x = np.zeros((4, 2)); x[:, 0] = 1.0 + 1e-12
    z = np.zeros((4, 2)); z[:, 0] = 1.0
    f = Factorization(x, np.eye(2), z)
    assert not validate_membership(f, spec).accepted
    assert validate_membership(f, spec, tol=1e-9).accepted


# ---- observations --------------------------------------------------------- #

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_observation_rejects_non_finite_observed_entries(bad):
    y = np.ones((3, 4))
    y[1, 2] = bad
    with pytest.raises(ParameterError, match="finite"):
        Observation(y=y, mask=np.ones((3, 4)), p=1.0)


# ---- JSON loaders --------------------------------------------------------- #

def _drop(obj, path):
    """A deep copy of obj without the key at the end of path."""
    out = copy.deepcopy(obj)
    inner = out
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return out


@pytest.mark.parametrize("loader, path", [
    ("matrix", ("cols",)),
    ("observation", ("mask",)),
    ("observation", ("p",)),
    ("factorization", ("z",)),
    ("factorization", ("b", "data")),
    ("spec", ("k_n",)),
    ("spec", ("alphabet_m",)),
    ("spec", ("alphabet_n", "values")),
    ("spec", ("alphabet_m", "kind")),
])
def test_loaders_name_a_missing_key(loader, path):
    mat = np.arange(6.0).reshape(2, 3)
    objs = {
        "matrix": (matrix_to_obj(mat), matrix_from_obj),
        "observation": (observation_to_obj(Observation(y=mat, mask=np.ones((2, 3)), p=1.0)),
                        observation_from_obj),
        "factorization": (factorization_to_obj(Factorization(x=np.eye(2), b=mat, z=np.eye(3))),
                          factorization_from_obj),
        "spec": (spec_to_obj(binary_spec()), spec_from_obj),
    }
    obj, load = objs[loader]
    load(obj)  # the complete object loads
    with pytest.raises(ParameterError, match=repr(path[-1])):
        load(_drop(obj, path))


@pytest.mark.parametrize("module", ["structmc"] + [
    f"structmc.{info.name}" for info in pkgutil.iter_modules(structmc.__path__)])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
