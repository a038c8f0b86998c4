import numpy as np
import pytest

from dspn.data import (ArityViolation, ParseError, SequenceDataset,
                       fold_indices, load_dataset, save_dataset, split)


def random_dataset(rng, n_vars=None, count=None):
    n_vars = n_vars or int(rng.integers(1, 5))
    arities = tuple(int(rng.integers(2, 5)) for _ in range(n_vars))
    count = count or int(rng.integers(1, 8))
    seqs = []
    for _ in range(count):
        T = int(rng.integers(1, 10))
        seq = np.stack([[int(rng.integers(-1, a)) for a in arities]
                        for _ in range(T)])
        seqs.append(seq)
    return SequenceDataset(seqs, arities, name=f"rand{rng.integers(1e6)}")


def test_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(1000):
        ds = random_dataset(rng)
        path = tmp_path / f"ds{i % 4}.seqs"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.arities == ds.arities
        assert back.name == ds.name
        assert len(back) == len(ds)
        for a, b in zip(ds.sequences, back.sequences):
            np.testing.assert_array_equal(a, b)


def test_empty_sequence_line_rejected(tmp_path):
    path = tmp_path / "bad.seqs"
    path.write_text('{"n": 1, "arities": [2], "name": "x"}\n[[0]]\n[]\n')
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line == 3


def test_wrong_width_slice_rejected(tmp_path):
    path = tmp_path / "bad.seqs"
    path.write_text('{"n": 2, "arities": [2, 2], "name": "x"}\n[[0, 1], [1]]\n')
    with pytest.raises(ParseError) as err:
        load_dataset(path)
    assert err.value.line == 2


def test_arity_violation_reports_location(tmp_path):
    path = tmp_path / "bad.seqs"
    path.write_text('{"n": 2, "arities": [2, 3], "name": "x"}\n'
                    '[[0, 2]]\n[[1, 0], [0, 5]]\n')
    with pytest.raises(ArityViolation) as err:
        load_dataset(path)
    assert err.value.location == (1, 1, 1)


def test_pendigits_like_shape_loads(tmp_path):
    rng = np.random.default_rng(1)
    arities = tuple([2] * 7)
    seqs = [np.stack([[int(rng.integers(2)) for _ in range(7)]
                      for _ in range(16)]) for _ in range(25)]
    path = tmp_path / "pen.seqs"
    save_dataset(SequenceDataset(seqs, arities, "pen"), path)
    back = load_dataset(path)
    assert back.n_vars == 7
    assert set(back.lengths()) == {16}


def test_split_even():
    ds = random_dataset(np.random.default_rng(2), count=10)
    train, val = split(ds, 0.5)
    assert len(train) == 5 and len(val) == 5


def test_split_disjoint_and_covering():
    ds = random_dataset(np.random.default_rng(3), count=9)
    train, val = split(ds, 0.25)
    assert len(train) + len(val) == len(ds)
    joined = train.sequences + val.sequences
    for a, b in zip(joined, ds.sequences):
        np.testing.assert_array_equal(a, b)


def test_split_is_stable_across_runs():
    ds = random_dataset(np.random.default_rng(4), count=12)
    snapshots = []
    for _ in range(3):
        train, val = split(ds, 0.3)
        snapshots.append((tuple(map(len, train.sequences)),
                          tuple(map(len, val.sequences))))
    assert len(set(snapshots)) == 1


def test_fold_indices_partition_everything():
    blocks = fold_indices(11, 3)
    joined = np.concatenate(blocks)
    np.testing.assert_array_equal(np.sort(joined), np.arange(11))


def test_missing_values_round_trip(tmp_path):
    ds = SequenceDataset([np.array([[0, -1], [1, 1]])], (2, 2), "m")
    path = tmp_path / "m.seqs"
    save_dataset(ds, path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.sequences[0], ds.sequences[0])
