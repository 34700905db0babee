"""Risk-rate components, covering bounds, the critical radius, KL, penalty."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from structmc import (
    Alphabet,
    ContractViolationError,
    ModelFamily,
    NoCrossingError,
    ParameterError,
    StructureSpec,
    UnsupportedFamilyError,
    covering_bounds,
    covering_min_bound,
    critical_radius,
    family_rate,
    kl_divergence,
    lower_values,
    penalty,
    rate_components,
)

from conftest import BINARY, SYMMETRIC, small_specs


def bounded_spec(n, m, k_n, k_m, s_n, s_m, b_max=1.0, theta_mx=1.0):
    return StructureSpec(n=n, m=m, k_n=k_n, k_m=k_m, s_n=s_n, s_m=s_m,
                         alphabet_n=SYMMETRIC, alphabet_m=SYMMETRIC,
                         b_max=b_max, theta_mx=theta_mx, bounded=True)


# ---- components ---------------------------------------------------------- #

def test_rate_components_hand_oracle():
    spec = StructureSpec(n=10, m=8, k_n=3, k_m=4, s_n=2, s_m=1,
                         alphabet_n=BINARY, alphabet_m=BINARY)
    got = rate_components(spec)
    assert got.r_x == pytest.approx(20 * math.log(3 * math.e / 2), rel=1e-12)
    assert got.r_b == 12.0
    assert got.r_z == pytest.approx(8 * math.log(4 * math.e), rel=1e-12)
    assert got.total == pytest.approx(59.199657051122415, rel=1e-12)


def test_rate_components_saturate_at_dense_term():
    # s_n = k_n makes the sparse term n*k_n, so the min can bind either way
    spec = StructureSpec(n=4, m=4, k_n=3, k_m=3, s_n=3, s_m=1,
                         alphabet_n=BINARY, alphabet_m=BINARY)
    assert rate_components(spec).r_x == pytest.approx(min(4 * 3, 4 * 3 * 1.0))


def test_rate_components_are_floats_when_the_dense_term_binds():
    # min(n*r_m, ...) picks the int n*r_m here; RateReport declares floats
    spec = StructureSpec(n=6, m=4, k_n=4, k_m=2, s_n=2, s_m=2, alphabet_n=BINARY, alphabet_m=BINARY)
    report = rate_components(spec)
    assert (report.r_x, report.r_z) == (12.0, 8.0)
    assert type(report.r_x) is float and type(report.r_z) is float


def test_zero_sparsity_drops_component():
    spec = StructureSpec(n=4, m=5, k_n=4, k_m=2, s_n=0, s_m=1,
                         alphabet_n=BINARY, alphabet_m=BINARY)
    got = rate_components(spec)
    assert got.r_x == 0.0
    assert got.total == got.r_b + got.r_z


@given(small_specs())
def test_rate_monotone_in_sparsity(spec):
    from dataclasses import replace
    base = rate_components(spec).total
    if spec.s_n < spec.k_n:
        assert rate_components(replace(spec, s_n=spec.s_n + 1)).total >= base - 1e-12
    if spec.s_m < spec.k_m:
        assert rate_components(replace(spec, s_m=spec.s_m + 1)).total >= base - 1e-12


# ---- closed-form family rates -------------------------------------------- #

def test_family_rate_hand_oracles():
    assert family_rate(ModelFamily.sbm(n=100, k=5)) == pytest.approx(
        285.94379124341003, rel=1e-12)
    assert family_rate(ModelFamily.mixture(n=7, m=5, k=3)) == pytest.approx(
        29.690286020676766, rel=1e-12)
    assert family_rate(ModelFamily.dictionary(d=6, n=8, k=4, s=2)) == pytest.approx(
        48.0, rel=1e-12)
    assert family_rate(ModelFamily.biclustering(n=6, m=7, k_n=2, k_m=3)) == pytest.approx(
        24.15888308335967, rel=1e-12)


def test_family_rate_min_saturation():
    # huge k: the nm branch wins
    fam = ModelFamily.mixture(n=4, m=4, k=4)
    assert family_rate(fam) == pytest.approx(
        min(4 * math.log(4 * math.e) + 16, 16.0))


def test_family_rate_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        family_rate(ModelFamily.mixed_membership(n=5, k=3, s=2))


def test_sbm_rate_counts_shared_factor_once():
    # the closed form carries one factor term; the generic class total carries
    # both sides, so they differ by exactly n*ln(e*k)
    for n, k in [(20, 3), (50, 5), (100, 4)]:
        fam = ModelFamily.sbm(n=n, k=k)
        _, spec = __import__("structmc").generate(fam, 0)
        total = rate_components(spec).total
        assert total - family_rate(fam) == pytest.approx(
            n * math.log(math.e * k), rel=1e-9)


# ---- lower-bound values --------------------------------------------------- #

def test_lower_values_hand_case():
    spec = bounded_spec(100, 40, 3, 3, 1, 1)
    _, spectral = lower_values(spec, sigma=1.0, p=0.5, c_spec=1.0)
    assert spectral == pytest.approx(200.0, rel=1e-12)


def test_lower_values_scale_inversely_with_p():
    spec = bounded_spec(10, 10, 2, 2, 1, 1)
    f1, s1 = lower_values(spec, sigma=1.0, p=1.0)
    f2, s2 = lower_values(spec, sigma=1.0, p=0.5)
    assert f2 == pytest.approx(2 * f1) and s2 == pytest.approx(2 * s1)
    assert lower_values(spec, sigma=0.0, p=1.0) == (0.0, 0.0)


def test_lower_values_validation():
    spec = bounded_spec(4, 4, 2, 2, 1, 1)
    with pytest.raises(ParameterError):
        lower_values(spec, sigma=1.0, p=0.0)
    with pytest.raises(ParameterError):
        lower_values(spec, sigma=-1.0, p=0.5)
    with pytest.raises(ParameterError):
        lower_values(spec, sigma=1.0, p=0.5, c_frob=0.0)


# ---- covering bounds ------------------------------------------------------ #

def test_covering_hand_oracle():
    spec = bounded_spec(2, 2, 2, 2, 1, 1)
    got = covering_bounds(spec, u=1.0, epsilon=0.5)
    ent = 2 * math.log(2 * math.e)
    assert got.r1 == pytest.approx(2 * ent + 4 * math.log(24) + 4 * math.log(18),
                                   rel=1e-12)
    assert got.r2 == pytest.approx(4 * math.log(12) + ent + 2 * math.log(8),
                                   rel=1e-12)
    assert got.r3 == got.r2                    # square symmetric spec
    assert got.r4 == pytest.approx(4 * math.log(6), rel=1e-12)
    assert got.min_bound == got.r4


def test_covering_at_unit_scale():
    spec = bounded_spec(2, 2, 2, 2, 1, 1)
    assert covering_bounds(spec, u=1.0, epsilon=1.0).r4 == pytest.approx(
        4.394449154672439, rel=1e-12)


def test_covering_floors_negative_terms():
    # 3u/eps < 1 makes the dense log negative; it must clamp to 0
    spec = bounded_spec(2, 2, 2, 2, 1, 1)
    assert covering_bounds(spec, u=0.2, epsilon=0.9).r4 == 0.0


def test_covering_domain_checks():
    spec = bounded_spec(2, 2, 2, 2, 1, 1)
    for bad_eps in (0.0, 1.1, -0.5):
        with pytest.raises(ParameterError):
            covering_bounds(spec, u=1.0, epsilon=bad_eps)
    for bad_u in (0.0, 1.2):
        with pytest.raises(ParameterError):
            covering_bounds(spec, u=bad_u, epsilon=0.5)


def test_covering_requires_bounded_spec():
    spec = StructureSpec(n=2, m=2, k_n=2, k_m=2, s_n=1, s_m=1,
                         alphabet_n=BINARY, alphabet_m=BINARY)
    with pytest.raises(ParameterError):
        covering_bounds(spec, u=0.5, epsilon=0.5)


@given(st.integers(0, 400))
def test_covering_monotone_in_epsilon_and_u(i):
    rng = np.random.default_rng(i)
    spec = bounded_spec(int(rng.integers(2, 12)), int(rng.integers(2, 12)),
                        2, 2, 1, 1)
    fn = covering_min_bound(spec, 0.6)
    eps = np.linspace(0.05, 1.0, 25)
    vals = [fn(float(e)) for e in eps]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    lo = covering_bounds(spec, u=0.3, epsilon=0.4).min_bound
    hi = covering_bounds(spec, u=0.9, epsilon=0.4).min_bound
    assert hi >= lo - 1e-9


EXACTNESS_SPECS = [
    (bounded_spec(2, 2, 2, 2, 1, 1), 0.2),                 # dense log floored above eps 0.6
    (bounded_spec(40, 40, 5, 5, 2, 3, b_max=1e-3), 1.0),   # cross logs floored above eps 0.48
    (bounded_spec(32, 24, 3, 3, 1, 1), 0.7),
    (StructureSpec(n=20, m=30, k_n=20, k_m=5, s_n=0, s_m=2,       # identity X side
                   alphabet_n=BINARY, alphabet_m=SYMMETRIC,
                   b_max=1.0, theta_mx=1.0, bounded=True), 1.0),
    (StructureSpec(n=6, m=12, k_n=6, k_m=12, s_n=3, s_m=0,        # identity Z side
                   alphabet_n=SYMMETRIC, alphabet_m=BINARY,
                   b_max=3.0, theta_mx=9.0, bounded=True), 0.3),
]


def transcribed_covering(spec, u, eps):
    """R1..R4 as displayed, every part recomputed at each eps."""
    n, m, s_n, s_m = spec.n, spec.m, spec.s_n, spec.s_m
    r_n, r_m, b_max = spec.r_n, spec.r_m, spec.b_max
    root = math.sqrt(m * n)

    def term(coef, arg):
        return 0.0 if coef == 0 or arg <= 0 else max(0.0, coef * math.log(arg))

    def ent(rows, s, k):
        return 0.0 if s == 0 else max(0.0, rows * s * math.log(math.e * k / s))

    ent_n, ent_m = ent(n, s_n, spec.k_n), ent(m, s_m, spec.k_m)
    r1 = (ent_n + ent_m + term(n * s_n + m * s_m, 6 * b_max * root * s_m * s_n / eps)
          + term(r_n * r_m, 9 * u / eps))
    r2 = term(n * r_m, 6 * u / eps) + ent_m + term(m * s_m, 2 * b_max * root * s_m * s_n / eps)
    r3 = term(m * r_n, 6 * u / eps) + ent_n + term(n * s_n, 2 * b_max * root * s_m * s_n / eps)
    r4 = term(m * n, 3 * u / eps)
    return r1, r2, r3, r4


@pytest.mark.parametrize("spec, u", EXACTNESS_SPECS)
def test_covering_min_bound_equals_report_exactly(spec, u):
    fn = covering_min_bound(spec, u)
    for eps in np.logspace(-8.0, 0.0, 200):
        eps = float(eps)
        report = covering_bounds(spec, u, eps)
        assert fn(eps) == report.min_bound
        assert (report.r1, report.r2, report.r3, report.r4) == transcribed_covering(spec, u, eps)


@pytest.mark.parametrize("spec, u, want", [
    (bounded_spec(32, 24, 3, 3, 1, 1), 0.7, 0.6598468163529279),
    (EXACTNESS_SPECS[3][0], 1.0, 0.735792246713241),
    (bounded_spec(40, 40, 5, 5, 2, 3, b_max=0.1), 1.0, 0.7506856652438638),
])
def test_critical_radius_recorded_values(spec, u, want):
    # recorded with repr() before the covering terms were hoisted
    assert critical_radius(spec.n * spec.m, covering_min_bound(spec, u)) == want


def test_covering_min_bound_checks_epsilon_domain():
    fn = covering_min_bound(bounded_spec(2, 2, 2, 2, 1, 1), 1.0)
    for bad_eps in (0.0, 1.0 + 1e-12, 1.1, -0.5):
        with pytest.raises(ParameterError, match="epsilon"):
            fn(bad_eps)
    with pytest.raises(ParameterError):
        covering_min_bound(bounded_spec(2, 2, 2, 2, 1, 1), 0.0)


# ---- critical radius ------------------------------------------------------ #

def test_critical_radius_constant_cover_closed_form():
    # N eps^2 = L  =>  eps0 = sqrt(L/N)
    eps0 = critical_radius(100.0, lambda e: 25.0)
    assert eps0 == pytest.approx(0.5, abs=1e-9)


def test_critical_radius_sandwich_and_pin():
    spec = bounded_spec(12, 9, 3, 3, 1, 1)
    fn = covering_min_bound(spec, 0.7)
    eps0 = critical_radius(12 * 9, fn)
    assert eps0 == pytest.approx(0.9127904095775046, abs=1e-9)
    lhs = 108 * eps0 * eps0
    assert 0.5 * fn(eps0) <= lhs * (1 + 1e-3)
    assert lhs <= fn(eps0) * (1 + 1e-3)


def test_critical_radius_floor_scaling():
    # eps0 >= 0.5 * sqrt((n+m)/(nm)) at u = 1 for assorted small specs
    for n, m in [(12, 12), (16, 16), (9, 25), (32, 8)]:
        spec = bounded_spec(n, m, 2, 2, 1, 1)
        eps0 = critical_radius(n * m, covering_min_bound(spec, 1.0))
        assert eps0 >= 0.5 * math.sqrt((n + m) / (n * m)) - 1e-12


def test_critical_radius_rejects_increasing_cover():
    with pytest.raises(ContractViolationError):
        critical_radius(10.0, lambda e: e)


def test_critical_radius_no_crossing():
    with pytest.raises(NoCrossingError):
        critical_radius(1.0, lambda e: 50.0)


def test_critical_radius_degenerate_cover():
    # cover identically 0: already dominated at the left edge
    assert critical_radius(10.0, lambda e: 0.0) == pytest.approx(1e-8)
    with pytest.raises(ParameterError):
        critical_radius(0.0, lambda e: 1.0)


def test_probe_is_one_call_on_the_grid_and_a_constant_broadcasts():
    shapes = []

    def constant(e):
        shapes.append(np.shape(e))
        return 25.0
    assert critical_radius(100.0, constant) == critical_radius(100.0, lambda e: 25.0)
    # one probe call on the 10,000-point grid, then the bisection's float calls
    assert shapes[0] == (10_000,)
    assert len(shapes) > 200 and all(shape == () for shape in shapes[1:])


def test_critical_radius_rejects_nan():
    with pytest.raises(ContractViolationError, match="NaN"):
        critical_radius(10.0, lambda e: float("nan"))
    # NaN on part of the grid only
    with pytest.raises(ContractViolationError, match="NaN"):
        critical_radius(100.0, lambda e: np.where(np.asarray(e) > 0.9, np.nan, 25.0))


def test_critical_radius_allows_inf_at_small_eps():
    def cover(e):
        return np.where(np.asarray(e) < 1e-6, np.inf, 25.0)
    assert critical_radius(100.0, cover) == critical_radius(100.0, lambda e: 25.0)


def test_critical_radius_averages_the_grid_neighbours_of_a_jump():
    # N eps^2 = 25 at eps = 0.5, between the cover's 100 below and 10 from there on,
    # so the bisection's point fails the sandwich and the fallback returns the mean
    # of the probe-grid points on either side of the jump
    def cover(e):
        return np.where(np.asarray(e) < 0.5, 100.0, 10.0)
    grid = np.logspace(-8, 0, 10000)
    expected = 0.5 * (float(grid[grid >= 0.5].min()) + float(grid[grid < 0.5].max()))
    assert expected == 0.49976985997453477
    assert critical_radius(100, cover) == expected


def test_lower_values_need_sigma_and_p_together():
    # either one alone used to leave both lower-bound values at 0.0
    spec = bounded_spec(4, 4, 2, 2, 1, 1)
    with pytest.raises(ParameterError, match="^p must"):
        rate_components(spec, sigma=1.0)
    with pytest.raises(ParameterError, match="^sigma must"):
        rate_components(spec, p=0.5)


def test_critical_radius_rejects_a_result_of_the_wrong_shape():
    with pytest.raises(ContractViolationError, match="shape"):
        critical_radius(100.0, lambda e: np.full(3, 25.0))


@pytest.mark.parametrize("spec, u", EXACTNESS_SPECS)
def test_covering_min_bound_on_an_array_matches_the_float_calls(spec, u):
    fn = covering_min_bound(spec, u)
    grid = np.logspace(-8.0, 0.0, 2000)
    got = fn(grid)
    assert got.shape == grid.shape and got.dtype == np.float64
    np.testing.assert_array_max_ulp(got, [fn(float(e)) for e in grid], maxulp=2)


def test_covering_min_bound_rejects_an_array_with_eps_outside_the_domain():
    fn = covering_min_bound(bounded_spec(2, 2, 2, 2, 1, 1), 1.0)
    for bad_eps in (0.0, 1.0 + 1e-12, 1.1, -0.5, np.nan):
        grid = np.linspace(0.1, 1.0, 7)
        grid[3] = bad_eps
        with pytest.raises(ParameterError, match="epsilon"):
            fn(grid)


# ---- KL ------------------------------------------------------------------- #

def test_kl_hand_values():
    z = np.zeros((1, 1))
    o = np.ones((1, 1))
    assert kl_divergence(o, o, p=0.7, sigma=1.0) == 0.0
    assert kl_divergence(o, z, p=0.5, sigma=2.0) == pytest.approx(0.0625, rel=1e-12)
    two = np.array([[1.0, 1.0]])          # ||diff||^2 = 2
    assert kl_divergence(two, np.zeros((1, 2)), p=1.0, sigma=1.0) == pytest.approx(1.0)


@given(st.integers(0, 10_000), st.floats(0.05, 1.0), st.floats(0.1, 5.0))
def test_kl_symmetry_and_p_linearity(seed, p, sigma):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    kl = kl_divergence(a, b, p, sigma)
    assert kl == pytest.approx(kl_divergence(b, a, p, sigma), rel=1e-12)
    assert kl == pytest.approx(p * kl_divergence(a, b, 1.0, sigma), rel=1e-12)
    assert kl >= 0.0


def test_kl_validation():
    z = np.zeros((2, 2))
    with pytest.raises(ParameterError):
        kl_divergence(z, z, p=0.5, sigma=0.0)
    with pytest.raises(ParameterError):
        kl_divergence(z, z, p=0.0, sigma=1.0)


# ---- selection penalty ----------------------------------------------------- #

def test_penalty_hand_oracles():
    small = bounded_spec(2, 2, 2, 2, 1, 1)
    expect = (2 * min(4 * math.log(6 * math.sqrt(2)), 2 * math.log(4))
              + 4 * math.log(9 * math.sqrt(2)))
    assert penalty(1, 1, small) == pytest.approx(expect, rel=1e-12)
    assert penalty(1, 1, small) == pytest.approx(15.720370114944329, rel=1e-10)

    tall = bounded_spec(3, 3, 2, 2, 1, 1)
    assert penalty(1, 1, tall) == pytest.approx(21.73667970204943, rel=1e-10)


def test_penalty_uses_row_width_in_both_logs():
    # asymmetric widths expose the transcription: the column-side bracket
    # must still read k_n (not k_m) inside its log
    spec = bounded_spec(5, 7, 2, 6, 1, 2)
    low = 5
    wide = math.log(6 * math.sqrt(low))
    narrow = math.log(spec.k_n * 2 * low)              # k_n = 2 in both
    expect = (min(5 * spec.r_m * wide, 5 * 1 * narrow)
              + min(7 * spec.r_n * wide, 7 * 2 * narrow)
              + spec.r_n * spec.r_m * math.log(9 * math.sqrt(low)))
    assert penalty(1, 2, spec) == pytest.approx(expect, rel=1e-12)
    wrong = math.log(spec.k_m * 2 * low)               # the symmetrized variant
    assert not math.isclose(narrow, wrong)


def test_penalty_monotone_on_grid():
    spec = bounded_spec(6, 5, 3, 3, 1, 1)
    vals = {(a, b): penalty(a, b, spec) for a in (1, 2, 3) for b in (1, 2, 3)}
    for a in (1, 2):
        for b in (1, 2, 3):
            assert vals[(a + 1, b)] >= vals[(a, b)] - 1e-12
            assert vals[(b, a + 1)] >= vals[(b, a)] - 1e-12


def test_penalty_domain():
    spec = bounded_spec(4, 4, 2, 2, 1, 1)
    with pytest.raises(ParameterError):
        penalty(0, 1, spec)
    with pytest.raises(ParameterError):
        penalty(1, 3, spec)
