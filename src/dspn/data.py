"""Sequence-dataset ingestion, splits, and on-disk formats.

Dataset files (``.seqs``) are line-delimited UTF-8 text: a one-line JSON
header ``{"n": ..., "arities": [...], "name": ...}`` followed by one JSON
nested array per sequence, ``[[v, ...], ...]`` with one inner list per
slice.  Missing values are encoded as -1 and map to marginalized evidence.
Model files (``.spn``, ``.dspn``, ``.hmm``) are single JSON documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dynamic import DspnModel
from .graph import SpnGraph
from .hmm import DiscreteHmm

MISSING = -1


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ArityViolation(ValueError):
    def __init__(self, sequence: int, slice_idx: int, var: int, value: int):
        super().__init__(f"sequence {sequence}, slice {slice_idx}, var {var}: "
                         f"value {value} out of range")
        self.location = (sequence, slice_idx, var)


@dataclass
class SequenceDataset:
    """Variable-length sequences of discrete slices over a fixed signature."""

    sequences: list[np.ndarray]  # each (T_i, n_vars), int64, -1 = missing
    arities: tuple[int, ...]
    name: str = ""

    @property
    def n_vars(self) -> int:
        return len(self.arities)

    def __len__(self) -> int:
        return len(self.sequences)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.sequences[i]

    def lengths(self) -> list[int]:
        return [len(s) for s in self.sequences]

    def subset(self, indices) -> "SequenceDataset":
        return SequenceDataset([self.sequences[i] for i in indices],
                               self.arities, self.name)

    def validate(self) -> None:
        for i, seq in enumerate(self.sequences):
            if seq.ndim != 2 or seq.shape[1] != self.n_vars:
                raise ValueError(f"sequence {i} does not have {self.n_vars} columns")
            for t, v in zip(*np.nonzero((seq >= np.asarray(self.arities)) |
                                        (seq < MISSING))):
                raise ArityViolation(i, int(t), int(v), int(seq[t, v]))


def save_dataset(ds: SequenceDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"n": ds.n_vars, "arities": list(ds.arities),
                             "name": ds.name}) + "\n")
        for seq in ds.sequences:
            fh.write(json.dumps(np.asarray(seq).tolist()) + "\n")


def load_dataset(path) -> SequenceDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file, header expected", 1)
    try:
        header = json.loads(lines[0])
        n = int(header["n"])
        arities = tuple(int(a) for a in header["arities"])
        name = header.get("name", "")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"bad header: {e}", 1) from None
    if len(arities) != n:
        raise ParseError("header arities do not match n", 1)
    sequences = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad sequence: {e}", lineno) from None
        if not isinstance(raw, list) or not raw:
            raise ParseError("sequence must be a non-empty list of slices", lineno)
        try:
            seq = np.asarray(raw, dtype=np.int64)
        except ValueError:
            raise ParseError("ragged slices within a sequence", lineno) from None
        if seq.ndim != 2 or seq.shape[1] != n:
            raise ParseError(f"each slice must have exactly {n} values", lineno)
        sequences.append(seq)
    ds = SequenceDataset(sequences, arities, name)
    ds.validate()
    return ds


def split(ds: SequenceDataset, validation_fraction: float) \
        -> tuple[SequenceDataset, SequenceDataset]:
    """Deterministic suffix split: the last fraction of sequences (by index)
    becomes the validation set."""
    if not 0 < validation_fraction < 1:
        raise ValueError("validation fraction must be in (0, 1)")
    n_val = max(1, int(len(ds) * validation_fraction))
    cut = len(ds) - n_val
    if cut < 1:
        raise ValueError("split leaves no training sequences")
    return ds.subset(range(cut)), ds.subset(range(cut, len(ds)))


def fold_indices(n: int, folds: int) -> list[np.ndarray]:
    """Contiguous, deterministic k-fold index blocks."""
    if folds < 2 or folds > n:
        raise ValueError("fold count must be in [2, number of sequences]")
    return [idx for idx in np.array_split(np.arange(n), folds)]


# -- model documents ---------------------------------------------------------

def save_graph(g: SpnGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(g.to_dict(), fh)


def load_graph(path) -> SpnGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return SpnGraph.from_dict(json.load(fh))


def save_model(m: DspnModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(m.to_dict(), fh)


def load_model(path, strict: bool = True) -> DspnModel:
    with open(path, "r", encoding="utf-8") as fh:
        return DspnModel.from_dict(json.load(fh), strict=strict)


def save_hmm(h: DiscreteHmm, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(h.to_dict(), fh)


def load_hmm(path) -> DiscreteHmm:
    with open(path, "r", encoding="utf-8") as fh:
        return DiscreteHmm.from_dict(json.load(fh))
