"""The certificate path's shortcuts against their references: the packing
greedy's skipped screen against the sequential greedy, and the hypothesis
sets' stacked membership check against one validate_membership per member."""

import math

import numpy as np
import pytest

from structmc import (
    Alphabet,
    ConstructionError,
    Factorization,
    StructureSpec,
    sparse_binary_packing,
    validate_membership,
)
import structmc.packing as packing_mod
from structmc.packing import _greedy_select, _min_separation, _weight_s_candidates
from structmc.simulate import PURPOSE_PACKING, stream

from conftest import BINARY
from test_packing import rows_of, same_bytes, sequential_greedy


def oracle(k, s, c3, seed):
    cands = list(rows_of(_weight_s_candidates(k, s, stream(seed, PURPOSE_PACKING, 0))))
    return cands, sequential_greedy(cands, threshold=c3 * s)


# ---- the packing screen, skipped where it cannot reject --------------------------- #

@pytest.mark.parametrize("seed", [0, 1, 5, 12])
@pytest.mark.parametrize("k, s, c3", [
    (12, 3, 0.5),    # c3 s = 1.5 < 2
    (10, 4, 0.5),    # c3 s = 2, the default constants' last unscreened s
    (9, 2, 1.0),     # c3 s = 2 with a custom c3
    (7, 1, 0.5),     # s = 1: every pair at distance exactly 2
])
def test_unscreened_packing_is_the_sequential_greedy(k, s, c3, seed):
    cands, want = oracle(k, s, c3, seed)
    assert len(want) == len(cands) == math.comb(k, s)    # the greedy rejects nothing
    got = sparse_binary_packing(k, s, target_c=(0.01, 0.5, c3), seed=seed).codewords
    same_bytes(got, want)
    assert got.dtype == np.float64 and got.shape == (len(want), k)


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("k, s, c3", [
    (10, 4, 0.51),   # c3 s = 2.04, just above 2
    (10, 5, 0.5),    # c3 s = 2.5: the default constants screen from s = 5
    (9, 2, float(np.nextafter(1.0, np.inf))),
])
def test_threshold_above_two_still_screens_and_rejects(k, s, c3, seed):
    cands, want = oracle(k, s, c3, seed)
    assert len(want) < len(cands)
    got = sparse_binary_packing(k, s, target_c=(0.01, 0.5, c3), seed=seed).codewords
    same_bytes(got, want)
    assert _min_separation(got, got.sum(axis=1)) >= c3 * s


@pytest.mark.parametrize("i, j", [(0, 1), (3, 100), (3, 300), (2022, 2023)])
def test_duplicated_table_row_fails_the_certificate(monkeypatch, i, j):
    # the unscreened packing is the permuted table itself, so a duplicated
    # row must be caught by the separation certificate
    table = packing_mod._weight_s_table(24, 3).copy()
    table[j] = table[i]
    monkeypatch.setattr(packing_mod, "_weight_s_table", lambda k, s: table)
    with pytest.raises(ConstructionError, match=r"pairwise separation 0\.0 < 1\.5"):
        sparse_binary_packing(24, 3, seed=1)


def test_greedy_skip_takes_the_candidates_as_given():
    # separated is the caller's promise: the candidates come back unscreened,
    # a duplicate included, up to stop_at; without it the duplicate goes
    rows = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 1]], np.uint8)
    blocks = lambda: (rows[lo:lo + 2] for lo in (0, 2))
    np.testing.assert_array_equal(_greedy_select(blocks(), 2.0, separated=2.0), rows)
    np.testing.assert_array_equal(_greedy_select(blocks(), 2.0, stop_at=3, separated=2.0), rows[:3])
    same_bytes(_greedy_select(blocks(), 2.0), sequential_greedy(rows, 2.0))
    assert len(_greedy_select(blocks(), 2.0)) == 3
    assert _greedy_select(iter(()), 2.0, separated=2.0).shape == (0, 0)


# ---- membership: shared factors once, the varying ones stacked ----------------- #

def t_z_facts(count=6, n=5, m=4, k_n=5, k_m=6):
    """Members that share X and B and vary in Z, as build_t_z's do."""
    spec = StructureSpec(n=n, m=m, k_n=k_n, k_m=k_m, s_n=1, s_m=2,
                         alphabet_n=BINARY, alphabet_m=BINARY)
    rng = np.random.default_rng(0)
    x, b = np.eye(n, k_n), rng.standard_normal((k_n, k_m))
    facts = []
    for u in range(count):
        z = np.zeros((m, k_m))
        z[np.arange(m), u % k_m] = 1.0
        z[np.arange(m), (u + 1) % k_m] = 1.0
        facts.append(Factorization(x=x, b=b, z=z))
    return facts, spec


def t_b_facts(count=5, n=4, m=3):
    """Members that share X and Z and vary in B, as build_t_b's do."""
    spec = StructureSpec(n=n, m=m, k_n=n, k_m=m, s_n=1, s_m=1,
                         alphabet_n=BINARY, alphabet_m=BINARY)
    rng = np.random.default_rng(1)
    return [Factorization(x=np.eye(n), b=rng.standard_normal((n, m)), z=np.eye(m))
            for _ in range(count)], spec


def with_factor(fact, name, edit):
    arrays = {key: np.array(getattr(fact, key)) for key in ("x", "b", "z")}
    edit(arrays[name])
    return Factorization(**arrays)


def certify(facts, spec):
    return packing_mod._certified(facts, spec, p=1.0, sigma=1.0, sep_bound=0.0,
                                  kl_bound=math.inf, delta=1.0, kind="t_z")


def every_member_accepted(facts, spec):
    return all(validate_membership(f, spec).accepted for f in facts)


def set_entry(i, j, value):
    def edit(a):
        a[i, j] = value
    return edit


def test_built_members_pass():
    for facts, spec in (t_z_facts(), t_b_facts()):
        assert every_member_accepted(facts, spec)
        assert len(certify(facts, spec).thetas) == len(facts)


@pytest.mark.parametrize("name, value", [("x", 2.0), ("x", math.nan), ("b", math.nan),
                                         ("b", math.inf), ("z", 0.5), ("z", math.nan)])
def test_shared_factor_violation_is_caught(name, value):
    facts, spec = t_z_facts()
    facts = [with_factor(f, name, set_entry(1, 1, value)) for f in facts]
    assert not every_member_accepted(facts, spec)
    with pytest.raises(ConstructionError, match="leaves the class"):
        certify(facts, spec)


@pytest.mark.parametrize("member", [0, 2, 5])
@pytest.mark.parametrize("value, message", [
    (0.5, r"alphabet Z, entry \(\d+,3\): value 0\.5 not in alphabet"),
    (-1.0, r"alphabet Z, entry \(\d+,3\): value -1\.0 not in alphabet"),
    (math.nan, r"non-finite Z, entry \(\d+,3\): value nan"),
])
def test_varying_z_violation_in_any_member_is_caught(member, value, message):
    facts, spec = t_z_facts()
    facts[member] = with_factor(facts[member], "z", set_entry(2, 3, value))
    with pytest.raises(ConstructionError, match=message):
        certify(facts, spec)


@pytest.mark.parametrize("member", [0, 2, 4])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_varying_b_violation_in_any_member_is_caught(member, value):
    facts, spec = t_b_facts()
    facts[member] = with_factor(facts[member], "b", set_entry(1, 2, value))
    with pytest.raises(ConstructionError, match=r"non-finite B, entry \(\d+,2\)"):
        certify(facts, spec)


def test_third_member_with_a_different_x_is_checked():
    facts, spec = t_z_facts()
    # a foreign value, and a row of two nonzeros past s_n = 1
    for edit in (set_entry(0, 0, 2.0), set_entry(0, 1, 1.0)):
        bad = list(facts)
        bad[2] = with_factor(bad[2], "x", edit)
        with pytest.raises(ConstructionError, match=" X"):
            certify(bad, spec)
    # a different X inside the class is a member like any other
    moved = list(facts)
    moved[2] = with_factor(moved[2], "x", lambda x: x.__setitem__(slice(None), x[::-1]))
    assert every_member_accepted(moved, spec)
    assert len(certify(moved, spec).thetas) == len(facts)


def test_member_of_another_shape_is_refused():
    facts, spec = t_z_facts()
    facts[3] = Factorization(x=facts[3].x, b=facts[3].b, z=np.ones((spec.m + 1, spec.k_m)))
    with pytest.raises(ConstructionError, match="shape Z"):
        certify(facts, spec)


def test_differing_identity_factor_is_refused():
    # s_m = 0 pins Z to the identity: a member whose Z differs is outside the class
    facts, spec = t_b_facts()
    spec = StructureSpec(n=spec.n, m=spec.m, k_n=spec.k_n, k_m=spec.m, s_n=1, s_m=0,
                         alphabet_n=BINARY, alphabet_m=BINARY)
    assert len(certify(facts, spec).thetas) == len(facts)
    for members in ((1,), (4,), (1, 4)):
        bad = [with_factor(f, "z", set_entry(0, 1, 1.0)) if u in members else f
               for u, f in enumerate(facts)]
        with pytest.raises(ConstructionError, match="Z must equal the identity"):
            certify(bad, spec)


@pytest.mark.parametrize("seed", range(4))
def test_stacked_check_decides_as_one_validation_per_member(seed):
    # random single-entry edits to one member's factor, or to every member's:
    # the set is refused exactly when some member's own validation fails
    rng = np.random.default_rng(seed)
    signed = Alphabet.finite((-1.0, 1.0))
    for builder in (t_z_facts, t_b_facts):
        base, spec = builder()
        spec = StructureSpec(n=spec.n, m=spec.m, k_n=spec.k_n, k_m=spec.k_m, s_n=spec.s_n,
                             s_m=spec.s_m, alphabet_n=signed, alphabet_m=BINARY)
        for _ in range(40):
            name = rng.choice(["x", "b", "z"])
            shape = getattr(base[0], name).shape
            edit = set_entry(rng.integers(shape[0]), rng.integers(shape[1]),
                             rng.choice([0.0, 1.0, -1.0, 0.5, math.nan]))
            members = range(len(base)) if rng.random() < 0.3 else [rng.integers(len(base))]
            facts = [with_factor(f, name, edit) if u in members else f
                     for u, f in enumerate(base)]
            if every_member_accepted(facts, spec):
                assert len(certify(facts, spec).thetas) == len(facts)
            else:
                with pytest.raises(ConstructionError, match="leaves the class"):
                    certify(facts, spec)
