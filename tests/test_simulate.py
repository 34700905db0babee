"""Seeded streams, masks, noise draws, and the family generators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import structmc.simulate as sim
from structmc import (
    ModelFamily,
    NoiseKind,
    ParameterError,
    ShapeError,
    assemble,
    derive_seed,
    generate,
    observe,
    sample_mask,
    sample_noise,
    stream,
    validate_membership,
)

from conftest import BINARY


# ---- streams ------------------------------------------------------------ #

def test_stream_is_deterministic():
    a = stream(42, sim.PURPOSE_MASK).random(8)
    b = stream(42, sim.PURPOSE_MASK).random(8)
    np.testing.assert_array_equal(a, b)


def test_stream_regression_pin():
    # frozen draw: guards against silent RNG layout changes
    got = stream(42, sim.PURPOSE_MASK).random(3)
    np.testing.assert_allclose(
        got, [0.52269312578085, 0.61211360915896, 0.090009091565698], atol=1e-14)


def test_streams_separate_by_purpose_and_path():
    base = stream(7, sim.PURPOSE_MASK).random(4)
    assert not np.allclose(base, stream(7, sim.PURPOSE_NOISE).random(4))
    assert not np.allclose(base, stream(7, sim.PURPOSE_MASK, 1).random(4))
    assert not np.allclose(stream(7, sim.PURPOSE_MASK, 1).random(4),
                           stream(7, sim.PURPOSE_MASK, 2).random(4))


def test_derive_seed_pins_and_path_sensitivity():
    assert derive_seed(0) == 16294208416658607535
    assert derive_seed(0, 1) == 15204172177749531820
    assert derive_seed(0, 1, 2) == 11994755310158905061
    assert derive_seed(0, 1) != derive_seed(0, 2)
    assert derive_seed(1, 1) != derive_seed(0, 1)


# ---- masks and noise ----------------------------------------------------- #

def test_mask_values_and_determinism():
    m1 = sample_mask(20, 30, 0.4, seed=5)
    m2 = sample_mask(20, 30, 0.4, seed=5)
    np.testing.assert_array_equal(m1, m2)
    assert set(np.unique(m1)) <= {0.0, 1.0}
    assert m1.shape == (20, 30)


def test_full_mask_at_p_one():
    np.testing.assert_array_equal(sample_mask(6, 6, 1.0, seed=0), np.ones((6, 6)))


def test_mask_rate_tracks_p():
    m = sample_mask(200, 200, 0.3, seed=1)
    assert abs(m.mean() - 0.3) < 0.02


def test_mask_rejects_bad_p():
    with pytest.raises(ParameterError):
        sample_mask(4, 4, 0.0, seed=0)
    with pytest.raises(ParameterError):
        sample_mask(4, 4, 1.5, seed=0)


def test_noise_kinds_shapes_and_ranges():
    n, m = 50, 40
    assert np.all(sample_noise(NoiseKind.none(), n, m, 0) == 0)
    g = sample_noise(NoiseKind.gaussian(2.0), n, m, 0)
    assert g.shape == (n, m) and g.std() == pytest.approx(2.0, rel=0.2)
    r = sample_noise(NoiseKind.rademacher(0.5), n, m, 0)
    assert set(np.unique(r)) <= {-0.5, 0.5}
    u = sample_noise(NoiseKind.uniform_bounded(1.5), n, m, 0)
    assert np.all(np.abs(u) <= 1.5)
    t = sample_noise(NoiseKind.truncated_gaussian(1.0, 2.5), n, m, 0)
    assert np.all(np.abs(t) <= 2.5)


def test_noise_proxy_and_bound_fields():
    assert NoiseKind.gaussian(2.0).proxy_sigma == 2.0
    assert NoiseKind.gaussian(2.0).bound is None
    assert NoiseKind.none().bound == 0.0
    assert NoiseKind.truncated_gaussian(1.0, 3.0).bound == 3.0
    assert NoiseKind.rademacher(0.5).bound == 0.5
    assert NoiseKind.uniform_bounded(1.5).bound == 1.5


def test_noise_validation():
    with pytest.raises(ParameterError):
        NoiseKind.gaussian(-1.0)
    with pytest.raises(ParameterError):
        NoiseKind.truncated_gaussian(1.0, 0.0)


# ---- observation --------------------------------------------------------- #

def test_observe_masks_signal_plus_noise():
    rng = np.random.default_rng(2)
    theta = rng.normal(size=(5, 4))
    noise = rng.normal(size=(5, 4))
    mask = sample_mask(5, 4, 0.5, seed=9)
    obs = observe(theta, mask, noise, p=0.5, sigma=1.0, b=2.0)
    np.testing.assert_allclose(obs.y, mask * (theta + noise))
    assert obs.p == 0.5 and obs.sigma == 1.0 and obs.b == 2.0
    assert np.all(obs.y[mask == 0] == 0)


@pytest.mark.parametrize("which", ["theta_star", "noise"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_observe_names_a_non_finite_input(which, bad):
    # at an unobserved entry 0 * NaN is NaN, which Observation blamed on the mask
    mask = np.ones((3, 3))
    mask[0, 0] = 0.0
    args = {"theta_star": np.ones((3, 3)), "noise": np.zeros((3, 3))}
    args[which][0, 0] = bad
    with pytest.raises(ParameterError, match=f"^{which} must be finite"):
        observe(args["theta_star"], mask, args["noise"], p=0.5)


def test_observe_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        observe(np.zeros((3, 3)), np.ones((3, 2)), np.zeros((3, 3)), p=1.0)


# ---- family constructors -------------------------------------------------- #

def test_family_constructor_validation():
    with pytest.raises(ParameterError):
        ModelFamily.mixture(n=0, m=4, k=2)
    with pytest.raises(ParameterError):
        ModelFamily.dictionary(d=4, n=6, k=3, s=5)    # s > k
    with pytest.raises(ParameterError):
        ModelFamily.sbm(n=4, k=0)
    with pytest.raises(ParameterError):
        ModelFamily.generic(None)


FAMILIES = [
    ModelFamily.mixture(n=5, m=4, k=3),
    ModelFamily.dictionary(d=4, n=6, k=3, s=2),
    ModelFamily.sbm(n=6, k=3),
    ModelFamily.mixed_membership(n=5, k=3, s=2),
    ModelFamily.biclustering(n=5, m=4, k_n=2, k_m=3),
]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.variant)
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_generated_members_validate(family, seed):
    fact, spec = generate(family, seed)
    report = validate_membership(fact, spec)
    assert report.accepted, report.violations
    assert spec.d == spec.n + spec.m


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.variant)
def test_generate_is_deterministic(family):
    f1, _ = generate(family, 99)
    f2, _ = generate(family, 99)
    np.testing.assert_array_equal(f1.x, f2.x)
    np.testing.assert_array_equal(f1.b, f2.b)
    np.testing.assert_array_equal(f1.z, f2.z)
    f3, _ = generate(family, 100)
    assert not np.allclose(f1.b, f3.b)


def test_mixture_structure():
    fact, spec = generate(ModelFamily.mixture(n=5, m=4, k=3), 7)
    assert np.all(np.sum(fact.x != 0, axis=1) == 1)          # hard assignment
    assert np.all((fact.x == 0) | (fact.x == 1))
    np.testing.assert_array_equal(fact.z, np.eye(4))          # free columns
    assert (spec.s_n, spec.s_m) == (1, 0)


def test_dictionary_structure():
    fact, spec = generate(ModelFamily.dictionary(d=4, n=6, k=3, s=2), 7)
    np.testing.assert_array_equal(fact.x, np.eye(4))
    assert np.max(np.sum(fact.z != 0, axis=1)) <= 2
    assert np.abs(fact.z).max() <= 1.0
    assert (spec.n, spec.m) == (4, 6)


def test_sbm_structure():
    fact, spec = generate(ModelFamily.sbm(n=6, k=3), 7)
    np.testing.assert_array_equal(fact.x, fact.z)             # one community map
    np.testing.assert_allclose(fact.b, fact.b.T)
    assert fact.b.min() >= 0 and fact.b.max() <= 1
    assert np.all(np.sum(fact.x != 0, axis=1) == 1)


def test_mixed_membership_structure():
    fact, spec = generate(ModelFamily.mixed_membership(n=5, k=3, s=2), 7)
    for factor in (fact.x, fact.z):
        assert np.all(factor >= 0)
        np.testing.assert_allclose(factor.sum(axis=1), 1.0)
        assert np.max(np.sum(factor != 0, axis=1)) <= 2
    assert not np.allclose(fact.b, fact.b.T)                  # directed weights


def test_biclustering_structure():
    fact, spec = generate(ModelFamily.biclustering(n=5, m=4, k_n=2, k_m=3), 7)
    for factor in (fact.x, fact.z):
        assert np.all((factor == 0) | (factor == 1))
        assert np.all(np.sum(factor != 0, axis=1) == 1)
    theta = assemble(fact)
    # checkerboard: every entry equals its block value
    rows = np.argmax(fact.x, axis=1)
    cols = np.argmax(fact.z, axis=1)
    np.testing.assert_allclose(theta, fact.b[np.ix_(rows, cols)])


def test_generic_family_round_trip():
    from structmc import StructureSpec
    spec = StructureSpec(n=4, m=4, k_n=2, k_m=2, s_n=1, s_m=1,
                         alphabet_n=BINARY, alphabet_m=BINARY, bounded=True)
    fact, got = generate(ModelFamily.generic(spec), 11)
    assert got == spec
    assert validate_membership(fact, spec).accepted


@given(st.integers(0, 2**32))
def test_generate_never_leaves_class(seed):
    fact, spec = generate(ModelFamily.mixed_membership(n=4, k=3, s=2), seed)
    assert validate_membership(fact, spec).accepted
