"""validate_membership's violation messages pinned on crafted factors, the
non-finite check, and Alphabet.contains on arrays.

The pinned tuples were recorded from the per-entry membership loop; the
array membership test must give the same strings in the same order.
"""

import numpy as np
import pytest

from structmc import Alphabet, Factorization, StructureSpec, validate_membership

BINARY = Alphabet.finite((0.0, 1.0))
SIGNED = Alphabet.finite((-1.0, 0.5, 1.0))
SYMMETRIC = Alphabet.interval(-1.0, 1.0)
WIDE = Alphabet.interval(-2.0, 2.0)


def spec(n=4, m=3, k_n=3, k_m=2, s_n=1, s_m=1, alph_n=BINARY, alph_m=BINARY, **kw):
    return StructureSpec(n=n, m=m, k_n=k_n, k_m=k_m, s_n=s_n, s_m=s_m,
                         alphabet_n=alph_n, alphabet_m=alph_m, **kw)


def one_hot(rows, k):
    out = np.zeros((rows, k))
    out[np.arange(rows), np.arange(rows) % k] = 1.0
    return out


def case_finite_several():
    # X: a dense row, a value off the alphabet, two foreign values in one row
    x = one_hot(4, 3)
    x[0] = [1.0, 1.0, 0.0]
    x[1, 1] = 0.5
    x[3] = [0.0, 2.0, -3.0]
    z = one_hot(3, 2)
    z[2] = [0.25, 0.75]
    return Factorization(x, np.ones((3, 2)), z), spec(), 0.0


def case_signed_finite():
    x = one_hot(4, 3) * 0.5
    x[0, 0], x[2, 2], x[3, 0] = -1.0, -0.5, 0.4999
    z = -one_hot(3, 2)
    z[1, 1] = 0.75
    return Factorization(x, np.ones((3, 2)), z), spec(alph_n=SIGNED, alph_m=SIGNED), 0.0


def case_interval():
    # s = 2 rows with three nonzeros, values past both ends of [-1, 1]
    x = np.array([[0.5, -1.0, 0.0], [1.5, 0.2, 0.3], [0.0, 0.0, -2.0], [-1.0, 1.0, 0.0]])
    z = np.array([[0.3, 0.0], [1.0000001, -0.9], [0.0, 0.0]])
    s = spec(s_n=2, s_m=2, alph_n=SYMMETRIC, alph_m=SYMMETRIC)
    return Factorization(x, np.ones((3, 2)), z), s, 0.0


def case_tolerance():
    # within 1e-9 of an allowed value, or below it in magnitude (a zero), passes
    x = one_hot(4, 3)
    x[0, 0] = 1.0 + 1e-12
    x[1, 2] = 1e-12
    x[2, 0] = 1.0 + 1e-6
    x[3, 1] = -1e-10
    z = one_hot(3, 2)
    z[0, 1] = 5e-10
    z[2] = [0.0, 1.0 - 2e-9]
    return Factorization(x, np.ones((3, 2)), z), spec(), 1e-9


def case_interval_tolerance():
    x = np.array([[1.0 + 5e-10, 0.0, 0.0], [0.0, -1.0 - 2e-9, 0.0],
                  [0.0, 0.0, 0.5], [0.3, 0.0, 0.0]])
    z = np.array([[1.0, 0.0], [0.0, -1.0 - 1e-10], [2.0, 0.0]])
    s = spec(alph_n=SYMMETRIC, alph_m=SYMMETRIC)
    return Factorization(x, np.ones((3, 2)), z), s, 1e-9


def case_bounded_factors():
    # |X|, |Z| <= 1 on a wide interval alphabet, |B| <= b_max and |theta| <= theta_mx
    x = np.array([[1.5, 0.0, 0.0], [0.0, -1.8, 0.0], [0.0, 0.0, 1.0], [0.5, 0.0, 0.0]])
    z = np.array([[-1.2, 0.0], [0.0, 1.0], [0.0, 0.4]])
    b = np.array([[2.5, -1.0], [0.5, -3.0], [1.0, 1.0]])
    s = spec(alph_n=WIDE, alph_m=WIDE, b_max=2.0, theta_mx=2.0, bounded=True)
    return Factorization(x, b, z), s, 0.0


def case_bounded_b_and_theta():
    s = spec(b_max=1.0, theta_mx=0.5, bounded=True)
    b = np.array([[1.0, -1.5], [0.25, 0.5], [0.75, 1.0]])
    return Factorization(one_hot(4, 3), b, one_hot(3, 2)), s, 0.0


def case_bounded_tolerance():
    s = spec(b_max=1.0, theta_mx=1.0, bounded=True)
    b = np.array([[1.0 + 5e-10, 0.0], [0.0, -1.0 - 2e-9], [0.5, 0.5]])
    return Factorization(one_hot(4, 3), b, one_hot(3, 2)), s, 1e-9


def case_identity_side():
    # s_m = 0 pins Z to the identity; X is checked as usual
    x = one_hot(4, 3)
    x[1] = [0.0, 1.0, 1.0]
    z = np.eye(3)
    z[1, 2] = 0.5
    s = spec(k_m=3, s_m=0)
    return Factorization(x, np.ones((3, 3)), z), s, 0.0


def case_identity_within_tol():
    z = np.eye(3) + 1e-12
    s = spec(k_m=3, s_m=0)
    return Factorization(one_hot(4, 3), np.ones((3, 3)), z), s, 1e-9


def case_identity_not_square():
    s = spec(n=3, k_n=3, s_n=0)
    x = np.eye(3, 3)[:, :3]
    x = np.vstack([x, np.zeros((1, 3))])      # 4 rows: X must be 3 x 3
    return Factorization(x, np.ones((3, 2)), one_hot(3, 2)), s, 0.0


def case_shapes():
    # wrong column count of X and Z, wrong row count of Z, wrong B
    x = one_hot(4, 2)
    z = one_hot(5, 3)
    b = np.ones((2, 2))
    return Factorization(x, b, z), spec(bounded=True), 0.0


def case_shape_b_only():
    # B's shape alone is wrong: the factor checks run, the bounded ones do not
    x = one_hot(4, 3)
    x[0, 0] = 0.5
    return Factorization(x, np.ones((2, 2)), one_hot(3, 2)), spec(bounded=True), 0.0


def case_shape_rows():
    x = one_hot(5, 3)
    x[4, 1] = 3.0
    return Factorization(x, np.ones((3, 2)), one_hot(2, 2)), spec(), 0.0


def case_nan_keeps_bound_violations():
    # a NaN of X must not hide the bound violations of the finite entries
    x = np.array([[2.0, 0.0], [0.0, np.nan], [1.0, 0.0]])
    s = spec(n=3, m=3, k_n=2, k_m=2, alph_n=WIDE, alph_m=WIDE, theta_mx=1.5, bounded=True)
    return Factorization(x, np.ones((2, 2)), one_hot(3, 2)), s, 0.0


def case_member():
    return Factorization(one_hot(4, 3), np.ones((3, 2)), one_hot(3, 2)), spec(bounded=True), 0.0


CASES = {f.__name__[5:]: f for f in (
    case_finite_several, case_signed_finite, case_interval, case_tolerance,
    case_interval_tolerance, case_bounded_factors, case_bounded_b_and_theta,
    case_bounded_tolerance, case_identity_side, case_identity_within_tol,
    case_identity_not_square, case_shapes, case_shape_b_only, case_shape_rows, case_member,
    case_nan_keeps_bound_violations)}

PINNED = {
    "finite_several": (
        "row-sparsity X, row 0: 2 non-zeros > s = 1",
        "row-sparsity X, row 3: 2 non-zeros > s = 1",
        "alphabet X, entry (1,1): value 0.5 not in alphabet",
        "alphabet X, entry (3,1): value 2.0 not in alphabet",
        "alphabet X, entry (3,2): value -3.0 not in alphabet",
        "row-sparsity Z, row 2: 2 non-zeros > s = 1",
        "alphabet Z, entry (2,0): value 0.25 not in alphabet",
        "alphabet Z, entry (2,1): value 0.75 not in alphabet",
    ),
    "signed_finite": (
        "alphabet X, entry (2,2): value -0.5 not in alphabet",
        "alphabet X, entry (3,0): value 0.4999 not in alphabet",
        "alphabet Z, entry (1,1): value 0.75 not in alphabet",
    ),
    "interval": (
        "row-sparsity X, row 1: 3 non-zeros > s = 2",
        "alphabet X, entry (1,0): value 1.5 not in alphabet",
        "alphabet X, entry (2,2): value -2.0 not in alphabet",
        "alphabet Z, entry (1,0): value 1.0000001 not in alphabet",
    ),
    "tolerance": (
        "row-sparsity X, row 2: 2 non-zeros > s = 1",
        "alphabet X, entry (2,0): value 1.000001 not in alphabet",
        "alphabet Z, entry (2,1): value 0.999999998 not in alphabet",
    ),
    "interval_tolerance": (
        "alphabet X, entry (1,1): value -1.000000002 not in alphabet",
        "alphabet Z, entry (2,0): value 2.0 not in alphabet",
    ),
    "bounded_factors": (
        "‖X‖_∞ ≤ 1 violated at (1,1): -1.8",
        "‖Z‖_∞ ≤ 1 violated at (0,0): -1.2",
        "‖B‖_∞ ≤ b_max violated: 3.0 > 2.0",
        "‖θ‖_∞ ≤ theta_mx violated: 5.4 > 2.0",
    ),
    "bounded_b_and_theta": (
        "‖B‖_∞ ≤ b_max violated: 1.5 > 1.0",
        "‖θ‖_∞ ≤ theta_mx violated: 1.5 > 0.5",
    ),
    "bounded_tolerance": (
        "‖B‖_∞ ≤ b_max violated: 1.000000002 > 1.0",
        "‖θ‖_∞ ≤ theta_mx violated: 1.000000002 > 1.0",
    ),
    "identity_side": (
        "row-sparsity X, row 1: 2 non-zeros > s = 1",
        "Z must equal the identity when s = 0",
    ),
    "identity_within_tol": (),
    "identity_not_square": (
        "shape X: expected 3 rows, got 4",
        "X must equal the identity when s = 0",
    ),
    "shapes": (
        "shape Z: expected 3 rows, got 5",
        "shape B: expected (3, 2), got (2, 2)",
        "shape X: expected 3 columns, got 2",
        "shape Z: expected 2 columns, got 3",
    ),
    "shape_b_only": (
        "shape B: expected (3, 2), got (2, 2)",
        "alphabet X, entry (0,0): value 0.5 not in alphabet",
    ),
    "shape_rows": (
        "shape X: expected 4 rows, got 5",
        "shape Z: expected 3 rows, got 2",
        "alphabet X, entry (4,1): value 3.0 not in alphabet",
    ),
    "member": (),
    "nan_keeps_bound_violations": (
        "non-finite X, entry (1,1): value nan",
        "‖X‖_∞ ≤ 1 violated at (0,0): 2.0",
        "‖θ‖_∞ ≤ theta_mx violated: 2.0 > 1.5",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_violation_messages_are_pinned(name):
    fact, s, tol = CASES[name]()
    report = validate_membership(fact, s, tol=tol)
    assert report.violations == PINNED[name]
    assert report.accepted == (not PINNED[name])


@pytest.mark.parametrize("factor, at, value, s", [
    ("x", (2, 0), np.nan, spec(bounded=True)),
    ("x", (1, 1), -np.nan, spec(alph_n=SYMMETRIC, alph_m=SYMMETRIC)),
    ("b", (0, 1), np.nan, spec(bounded=True)),
    ("b", (2, 0), np.inf, spec()),
    ("z", (1, 1), np.nan, spec(k_m=3, s_m=0)),
])
def test_a_non_finite_entry_is_a_named_violation(factor, at, value, s):
    # a NaN fails every comparison, so it used to pass as a zero of X or Z, as
    # a bounded entry of B and as an identity entry
    parts = {"x": one_hot(4, 3), "b": np.ones((3, s.k_m)), "z": np.eye(3) if s.s_m == 0 else one_hot(3, 2)}
    parts[factor][at] = value
    report = validate_membership(Factorization(**parts), s)
    name = factor.upper()
    want = f"non-finite {name}, entry ({at[0]},{at[1]}): value {float(value)}"
    assert not report.accepted
    assert want in report.violations
    if np.isnan(value):
        assert report.violations == (want,)


def test_infinite_factor_entries_keep_their_other_violations():
    x = one_hot(4, 3)
    x[1, 1] = np.inf
    x[3, 2] = -np.inf
    report = validate_membership(Factorization(x, np.ones((3, 2)), one_hot(3, 2)), spec())
    assert report.violations[:4] == (
        "non-finite X, entry (1,1): value inf",
        "non-finite X, entry (3,2): value -inf",
        "row-sparsity X, row 3: 2 non-zeros > s = 1",
        "alphabet X, entry (1,1): value inf not in alphabet",
    )


@pytest.mark.parametrize("alphabet", [BINARY, SIGNED, SYMMETRIC, WIDE])
@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_contains_on_an_array_is_the_scalar_test_per_entry(alphabet, tol):
    values = np.array([[0.0, 1.0, 1.0 + 1e-12, 0.5, -0.5],
                       [-1.0, -1.0 - 2e-9, 2.0, 2.0 + 5e-10, 0.4999],
                       [np.nan, np.inf, -np.inf, 1e300, -3.0]])
    got = alphabet.contains(values, tol)
    assert got.dtype == bool and got.shape == values.shape
    want = [[alphabet.contains(float(v), tol) for v in row] for row in values]
    assert got.tolist() == want
    assert all(type(alphabet.contains(float(v), tol)) is bool for v in values.ravel())
    assert not got[2, 0]
