"""The blocked greedy packing against the sequential greedy, and the
candidate table against a table built one support at a time.

_greedy_select takes row blocks of any size, screens them in slices of at
most _CERTIFY_BLOCK rows and decides one at a time only those near an
earlier passing candidate of their slice; sequential_greedy
(tests/test_packing.py) recomputes the L1 distance to every accepted vector
for each candidate in turn. as_blocks cuts the candidates into blocks of
varying size, so slices also end at block boundaries.
"""

import itertools
import math

import numpy as np
import pytest

import structmc.estimators as est
import structmc.packing as packing_mod
from structmc import sparse_binary_packing
from structmc.packing import _greedy_select, _weight_s_candidates
from structmc.simulate import PURPOSE_PACKING, stream

from conftest import BINARY
from test_packing import as_blocks, rows_of, same_bytes, sequential_greedy


def clustered(seed, count, k, centers=6, flip=0.1):
    """0/1 vectors near a few centers, so many pairs are close."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2, size=(centers, k))
    flips = rng.random((count, k)) < flip
    return (base[rng.integers(0, centers, size=count)] ^ flips).astype(float)


def chain(k, at, rows):
    """rows with a, b, c written at at, at + 1, at + 2, where b is near a and c
    near b but not a (threshold 2): the greedy keeps a and c, since b is out."""
    rows = rows.copy()
    rows[at:at + 3] = 0.0
    rows[at + 1, 0] = 1.0
    rows[at + 2, :2] = 1.0
    return rows


@pytest.mark.parametrize("seed, count, k, threshold", [
    (0, 200, 8, 2.0), (1, 700, 10, 3.0), (2, 900, 16, 4.0), (3, 600, 12, 1.0), (4, 530, 6, 2.0)])
def test_blocked_greedy_matches_sequential_with_conflicts(seed, count, k, threshold):
    cands = clustered(seed, count, k)
    want = sequential_greedy(cands, threshold)
    for blocks in ([cands], as_blocks(cands)):
        same_bytes(_greedy_select(blocks, threshold), want)
    # the candidates conflict inside the first block (nothing accepted before it)
    # and in later blocks
    assert 0 < len(want) < count
    block = packing_mod._CERTIFY_BLOCK
    assert len(sequential_greedy(cands[:block], threshold)) < min(block, count)


@pytest.mark.parametrize("at", [0, 100, 254, 255])
def test_blocked_greedy_resolves_chains_in_order(at):
    # a chain inside the first block or across its boundary with the second
    rng = np.random.default_rng(at)
    rows = chain(12, at, (rng.random((600, 12)) < 0.5).astype(float))
    want = sequential_greedy(rows, 2.0)
    for blocks in ([rows], as_blocks(rows)):
        same_bytes(_greedy_select(blocks, 2.0), want)
    if at == 0:
        same_bytes(want[:2], [rows[0], rows[2]])


def test_blocked_greedy_stop_at_mid_block():
    cands = clustered(5, 900, 14, centers=100, flip=0.25)
    unstopped = len(sequential_greedy(cands, 2.0))
    assert 2 * packing_mod._CERTIFY_BLOCK < unstopped < len(cands)
    for stop_at in (0, 1, 2, 100, 255, 256, 257, 300, 511, unstopped - 1, unstopped):
        for blocks in ([cands], as_blocks(cands)):
            got = _greedy_select(blocks, 2.0, stop_at=stop_at)
            same_bytes(got, sequential_greedy(cands, 2.0, stop_at=stop_at))
            assert len(got) == min(max(stop_at, 1), unstopped)


@pytest.mark.parametrize("cap", [1, 5, 255, 256, 257, 600])
def test_blocked_greedy_honours_the_candidate_cap(monkeypatch, cap):
    cands = clustered(6, 800, 12, centers=60, flip=0.2)
    monkeypatch.setattr(packing_mod, "_CANDIDATE_CAP", cap)
    for blocks in (lambda: [cands], lambda: as_blocks(cands)):
        same_bytes(_greedy_select(blocks(), 2.0), sequential_greedy(cands, 2.0, cap=cap))
        same_bytes(_greedy_select(blocks(), 2.0, stop_at=40),
                   sequential_greedy(cands, 2.0, stop_at=40, cap=cap))


@pytest.mark.parametrize("cap", [100, 300])
def test_packing_with_a_small_candidate_cap(monkeypatch, cap):
    # C(12, 3) = 220 candidates: sampled past a cap of 100, enumerated under 300
    monkeypatch.setattr(packing_mod, "_CANDIDATE_CAP", cap)
    want = sequential_greedy(rows_of(_weight_s_candidates(12, 3, stream(2, PURPOSE_PACKING, 0))),
                             1.5, cap=cap)
    same_bytes(sparse_binary_packing(12, 3, seed=2).codewords, want)


@pytest.mark.parametrize("k, s, seed", [(24, 3, 1), (10, 1, 0), (9, 9, 2), (13, 5, 3)])
def test_candidate_table_matches_the_support_loop(k, s, seed):
    rows = np.zeros((math.comb(k, s), k))
    for i, support in enumerate(itertools.combinations(range(k), s)):
        rows[i, list(support)] = 1.0
    ref_rng = stream(seed, PURPOSE_PACKING, 0)
    want = [rows[i] for i in ref_rng.permutation(len(rows))]
    rng = stream(seed, PURPOSE_PACKING, 0)
    blocks = list(_weight_s_candidates(k, s, rng))
    assert all(len(b) <= packing_mod._CERTIFY_BLOCK for b in blocks)
    same_bytes(np.concatenate(blocks).astype(float), want)
    # one permutation draw, as before: the streams continue alike
    assert rng.integers(0, 1 << 62, size=4).tolist() == ref_rng.integers(0, 1 << 62, size=4).tolist()


def test_candidate_tables_are_built_once_and_read_only():
    table = packing_mod._weight_s_table(12, 3)
    assert table is packing_mod._weight_s_table(12, 3)
    rows = est._candidate_rows(4, 2, BINARY, True)
    assert rows is est._candidate_rows(4, 2, BINARY, True)
    for t in (table, rows):
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[0, 0] = 2.0
    # blocks handed out are copies of the table's rows, free to change
    block = next(_weight_s_candidates(12, 3, stream(0, PURPOSE_PACKING, 0)))
    block[0] = 0
    assert table.sum() == math.comb(12, 3) * 3
