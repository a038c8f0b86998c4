import numpy as np
import pytest
from scipy.stats import chisquare

from dspn.data import SequenceDataset
from dspn.partitions import (INTERFACE_ELEMENT, CursorStore,
                             IndependenceOracle, InsufficientData, Partition,
                             RgsCursor, bell_number, decode_rgs, encode_rgs,
                             get_partition, independent_components,
                             random_partition, unrank_partition)
from helpers import bell_triangle

BELLS_1_TO_8 = [1, 2, 5, 15, 52, 203, 877, 4140]


def enumerate_all(ground):
    cursor = RgsCursor(ground)
    out = []
    while (p := cursor.next_partition()) is not None:
        out.append(p)
    return out


def test_three_element_lexicographic_order():
    parts = enumerate_all(("a", "b", "c"))
    as_sets = [tuple(p.blocks) for p in parts]
    assert as_sets == [
        (("a", "b", "c"),),
        (("a", "b"), ("c",)),
        (("a", "c"), ("b",)),
        (("a",), ("b", "c")),
        (("a",), ("b",), ("c",)),
    ]
    assert len(parts) == 5


def test_singleton_ground_set():
    cursor = RgsCursor([7])
    assert cursor.next_partition().blocks == ((7,),)
    assert cursor.next_partition() is None


def test_counts_match_bell_numbers():
    for m in range(1, 9):
        parts = enumerate_all(range(m))
        assert len(parts) == BELLS_1_TO_8[m - 1]
        assert len(set(parts)) == len(parts)  # no duplicates
        assert bell_number(m) == BELLS_1_TO_8[m - 1]
    assert bell_triangle(8) == BELLS_1_TO_8  # independent recurrence agrees


def test_decode_encode_identity_up_to_size_8():
    for m in range(1, 9):
        ground = tuple(range(m))
        for p in enumerate_all(ground):
            assert decode_rgs(encode_rgs(p), ground) == p


def test_partitions_cover_their_ground_set():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        ground = tuple(sorted(rng.choice(50, size=m, replace=False).tolist()))
        p = random_partition(ground, rng)
        assert p.ground_set() == ground


def test_unrank_is_lexicographic():
    ground = tuple(range(5))
    listed = enumerate_all(ground)
    for idx, p in enumerate(listed):
        assert unrank_partition(idx, ground) == p
    with pytest.raises(IndexError):
        unrank_partition(len(listed), ground)


def test_uniform_sampler_block_count_distribution():
    # block-count histogram of uniform partitions follows Stirling counts
    rng = np.random.default_rng(1)
    m, draws = 10, 1000
    counts = np.zeros(m + 1)
    for _ in range(draws):
        counts[len(random_partition(range(m), rng))] += 1
    # Stirling numbers of the second kind, by the standard recurrence
    stirling = np.zeros((m + 1, m + 1))
    stirling[0, 0] = 1
    for n in range(1, m + 1):
        for k in range(1, n + 1):
            stirling[n, k] = k * stirling[n - 1, k] + stirling[n - 1, k - 1]
    expected = stirling[m] / stirling[m].sum() * draws
    keep = expected >= 5
    obs = np.append(counts[keep], counts[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    _, p = chisquare(obs, exp)
    assert p > 0.01


def _dataset(columns, n=2):
    rows = np.stack(columns, axis=1)
    return SequenceDataset([rows], tuple([2] * rows.shape[1]))


def test_independent_coins_split():
    successes = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 2, 10_000)
        b = rng.integers(0, 2, 10_000)
        oracle = IndependenceOracle.from_dataset(_dataset([a, b]))
        if len(independent_components([0, 1], oracle)) == 2:
            successes += 1
    assert successes >= 17  # per-run success probability is 1 - significance


def test_copied_column_stays_together():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 2, 5000)
    oracle = IndependenceOracle.from_dataset(_dataset([a, a.copy()]))
    assert independent_components([0, 1], oracle).blocks == ((0, 1),)


def test_two_correlated_pairs_split_apart():
    rng = np.random.default_rng(3)
    n = 20_000
    a = rng.integers(0, 2, n)
    b = np.where(rng.random(n) < 0.9, a, 1 - a)
    c = rng.integers(0, 2, n)
    d = np.where(rng.random(n) < 0.9, c, 1 - c)
    ds = SequenceDataset([np.stack([a, b, c, d], axis=1)], (2, 2, 2, 2))
    oracle = IndependenceOracle.from_dataset(ds)
    got = independent_components([0, 1, 2, 3], oracle)
    assert got.blocks == ((0, 1), (2, 3))
    # exhaustive pairwise mutual information confirms the structure
    pooled = ds.sequences[0]
    for i in range(4):
        for j in range(i + 1, 4):
            joint = np.zeros((2, 2))
            for x, y in zip(pooled[:, i], pooled[:, j]):
                joint[x, y] += 1
            joint /= joint.sum()
            pi, pj = joint.sum(1), joint.sum(0)
            mask = joint > 0
            mi = (joint[mask] * np.log(joint[mask] /
                                       np.outer(pi, pj)[mask])).sum()
            same_block = any(i in blk and j in blk for blk in got.blocks)
            assert same_block == (mi > 0.01)


def test_insufficient_data_raises():
    oracle = IndependenceOracle.from_dataset(
        _dataset([np.array([0, 1]), np.array([1, 0])]))
    with pytest.raises(InsufficientData):
        independent_components([0, 1], oracle)


def test_get_partition_lexicographic_path():
    rng = np.random.default_rng(4)
    store = CursorStore()
    first = get_partition((0, 1, 2), store, None, threshold=6, rng=rng)
    assert first.blocks == ((0, 1, 2),)  # one-block start
    second = get_partition((0, 1, 2), store, None, threshold=6, rng=rng)
    assert second.blocks == ((0, 1), (2,))


def test_get_partition_cycles_after_exhaustion():
    rng = np.random.default_rng(5)
    store = CursorStore()
    seen = [get_partition((0, 1), store, None, 6, rng) for _ in range(5)]
    assert seen[0].blocks == ((0, 1),)
    assert seen[1].blocks == ((0,), (1,))
    assert seen[2].blocks == ((0, 1),)  # wrapped around


def test_get_partition_random_above_threshold():
    # mutually dependent variables: no independence split, so random draws
    rng = np.random.default_rng(6)
    n = 5000
    base = rng.integers(0, 2, n)
    cols = [np.where(rng.random(n) < 0.95, base, 1 - base) for _ in range(10)]
    ds = SequenceDataset([np.stack(cols, axis=1)], tuple([2] * 10))
    oracle = IndependenceOracle.from_dataset(ds)
    store = CursorStore()
    counts = {}
    draws = 300
    for _ in range(draws):
        p = get_partition(tuple(range(10)), store, oracle, 6, rng)
        counts[len(p)] = counts.get(len(p), 0) + 1
    # block counts should spread like uniform partitions, not collapse
    assert len(counts) >= 3
    assert max(counts.values()) < draws


def test_get_partition_recurses_on_independent_groups():
    rng = np.random.default_rng(7)
    n = 30_000
    cols = []
    for _ in range(4):
        base = rng.integers(0, 2, n)
        cols.append(base)
        cols.append(np.where(rng.random(n) < 0.92, base, 1 - base))
    ds = SequenceDataset([np.stack(cols, axis=1)], tuple([2] * 8))
    oracle = IndependenceOracle.from_dataset(ds)
    store = CursorStore()
    p = get_partition(tuple(range(8)), store, oracle, threshold=6, rng=rng)
    # every block stays within one correlated pair
    for blk in p.blocks:
        assert len(blk) <= 2
        if len(blk) == 2:
            assert blk[1] == blk[0] + 1 and blk[0] % 2 == 0
    assert p.ground_set() == tuple(range(8))


def test_interface_element_history_dependence():
    rng = np.random.default_rng(8)
    sticky = []
    for _ in range(50):
        seq = np.zeros((60, 1), dtype=np.int64)
        state = rng.integers(0, 2)
        for t in range(60):
            if rng.random() < 0.1:
                state = 1 - state
            seq[t, 0] = state
        sticky.append(seq)
    oracle = IndependenceOracle.from_dataset(SequenceDataset(sticky, (2,)))
    assert oracle.dependent(INTERFACE_ELEMENT, 0)

    iid = [rng.integers(0, 2, (60, 1)) for _ in range(50)]
    oracle2 = IndependenceOracle.from_dataset(SequenceDataset(iid, (2,)))
    assert not oracle2.dependent(INTERFACE_ELEMENT, 0)
