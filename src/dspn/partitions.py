"""Set-partition enumeration and independence-based scope splitting.

Partitions of a product node's scope are the search space for structure
moves.  They are enumerated lexicographically through their restricted
growth string (RGS) encoding: an integer string ``a`` with ``a[0] = 0`` and
``a[i] <= 1 + max(a[:i])``, where ``a[i]`` names the block of element ``i``.
Uniform sampling goes through RGS unranking so every partition is equally
likely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import chi2

INTERFACE_ELEMENT = -1  # pseudo-element standing for reachable interface inputs


class InsufficientData(ValueError):
    """Too few samples to run an independence test."""


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks covering a ground set, in canonical order
    (blocks sorted by smallest element, elements sorted within blocks)."""

    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, blocks) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return cls(canon)

    def ground_set(self) -> tuple[int, ...]:
        return tuple(sorted(e for b in self.blocks for e in b))

    def __len__(self) -> int:
        return len(self.blocks)


def decode_rgs(rgs, ground_set) -> Partition:
    blocks: dict[int, list[int]] = {}
    for element, label in zip(ground_set, rgs):
        blocks.setdefault(int(label), []).append(element)
    return Partition.of(blocks.values())


def encode_rgs(p: Partition) -> tuple[int, ...]:
    # First-occurrence labelling: the block of the smallest unseen element
    # gets the next label, which is what makes the string restricted-growth.
    ground = p.ground_set()
    label_of: dict[int, int] = {}
    next_label = 0
    for e in ground:
        if e in label_of:
            continue
        block = next(b for b in p.blocks if e in b)
        for x in block:
            label_of[x] = next_label
        next_label += 1
    return tuple(label_of[e] for e in ground)


class RgsCursor:
    """Stateful lexicographic enumerator of the partitions of one ground set:
    a rank stepped through :func:`unrank_partition`.

    The first call to :meth:`next_partition` yields the all-in-one-block
    partition (RGS 00...0); after the all-singletons partition it returns
    None.
    """

    def __init__(self, ground_set):
        self.ground_set = tuple(sorted(ground_set))
        if not self.ground_set:
            raise ValueError("ground set must be non-empty")
        self.total = bell_number(len(self.ground_set))
        self.rank = 0  # of the next partition to yield

    def next_partition(self) -> Partition | None:
        if self.rank == self.total:
            return None
        self.rank += 1
        return unrank_partition(self.rank - 1, self.ground_set)

    def reset(self) -> None:
        self.rank = 0


def _rgs_completion_counts(m: int) -> np.ndarray:
    """counts[i, j] = number of RGS suffixes from position i with running max j."""
    counts = np.zeros((m + 1, m + 2), dtype=object)
    counts[m, :] = 1
    for i in range(m - 1, -1, -1):
        for j in range(m + 1):
            counts[i, j] = (j + 1) * counts[i + 1, j] + counts[i + 1, j + 1]
    return counts

def bell_number(m: int) -> int:
    """Partition count of an m-element set (RGS completion recursion)."""
    if m == 0:
        return 1
    return int(_rgs_completion_counts(m - 1)[0, 0])


def unrank_partition(index: int, ground_set) -> Partition:
    """index-th partition (0-based) in RGS lexicographic order."""
    ground = tuple(sorted(ground_set))
    m = len(ground)
    if m == 0:
        raise ValueError("ground set must be non-empty")
    counts = _rgs_completion_counts(m - 1)
    rgs = [0]
    run_max, rem = 0, int(index)
    for i in range(1, m):
        for digit in range(run_max + 2):
            nxt = max(run_max, digit)
            block = counts[i, nxt]
            if rem < block:
                rgs.append(digit)
                run_max = nxt
                break
            rem -= block
        else:
            raise IndexError("partition index out of range")
    if rem:
        raise IndexError("partition index out of range")
    return decode_rgs(rgs, ground)


def random_partition(ground_set, rng: np.random.Generator) -> Partition:
    """Uniform draw over all partitions of the ground set."""
    total = bell_number(len(tuple(ground_set)))
    idx = int(rng.integers(total))
    return unrank_partition(idx, ground_set)


def g_test(table: np.ndarray) -> tuple[float, float]:
    """Likelihood-ratio statistic and p-value for independence in a
    contingency table."""
    table = np.asarray(table, dtype=float)
    n = table.sum()
    if n <= 0:
        raise InsufficientData("empty contingency table")
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
    mask = table > 0
    g = 2.0 * (table[mask] * np.log(table[mask] / expected[mask])).sum()
    df = (table.shape[0] - 1) * (table.shape[1] - 1)
    if df <= 0:
        return 0.0, 1.0
    return float(g), float(chi2.sf(g, df))


@dataclass
class IndependenceOracle:
    """Pairwise G-tests over the pooled slice columns of a sequence dataset.

    ``same``: (rows, n_vars) matrix pooling every slice of every sequence.
    ``lag_now``/``lag_prev``: aligned matrices of consecutive-slice pairs,
    used to decide whether a variable depends on the previous slice (the
    interface pseudo-element).  Missing values are -1 and are dropped
    pairwise.
    """

    same: np.ndarray
    lag_now: np.ndarray
    lag_prev: np.ndarray
    arities: tuple[int, ...]
    significance: float = 0.05
    min_samples: int = 20
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_dataset(cls, dataset, significance: float = 0.05,
                     min_samples: int = 20) -> "IndependenceOracle":
        same = np.concatenate([np.asarray(s) for s in dataset.sequences], axis=0) \
            if len(dataset) else np.zeros((0, dataset.n_vars), dtype=np.int64)
        nows, prevs = [], []
        for s in dataset.sequences:
            s = np.asarray(s)
            if s.shape[0] >= 2:
                nows.append(s[1:])
                prevs.append(s[:-1])
        lag_now = np.concatenate(nows, axis=0) if nows \
            else np.zeros((0, dataset.n_vars), dtype=np.int64)
        lag_prev = np.concatenate(prevs, axis=0) if prevs \
            else np.zeros((0, dataset.n_vars), dtype=np.int64)
        return cls(same, lag_now, lag_prev, tuple(dataset.arities),
                   significance, min_samples)

    def _table(self, col_a: np.ndarray, col_b: np.ndarray,
               arity_a: int, arity_b: int) -> np.ndarray:
        keep = (col_a >= 0) & (col_b >= 0)
        a, b = col_a[keep], col_b[keep]
        if a.size < self.min_samples:
            raise InsufficientData(f"only {a.size} paired samples, need {self.min_samples}")
        flat = np.bincount(a * arity_b + b, minlength=arity_a * arity_b)
        return flat.reshape(arity_a, arity_b)

    def dependent(self, a: int, b: int) -> bool:
        """True when the pairwise test rejects independence of a and b.
        Either argument may be the interface pseudo-element."""
        key = (min(a, b), max(a, b))
        if key not in self._cache:
            self._cache[key] = self._dependent(*key)
        return self._cache[key]

    def _dependent(self, a: int, b: int) -> bool:
        if a == INTERFACE_ELEMENT and b == INTERFACE_ELEMENT:
            return False
        if a == INTERFACE_ELEMENT or b == INTERFACE_ELEMENT:
            return self._history_dependent(b if a == INTERFACE_ELEMENT else a)
        table = self._table(self.same[:, a], self.same[:, b],
                            self.arities[a], self.arities[b])
        _, p = g_test(table)
        return p < self.significance

    def _history_dependent(self, v: int) -> bool:
        """Lag-1 tests of v against every previous-slice variable."""
        for w in range(self.lag_prev.shape[1]):
            table = self._table(self.lag_now[:, v], self.lag_prev[:, w],
                                self.arities[v], self.arities[w])
            _, p = g_test(table)
            if p < self.significance:
                return True
        return False


def independent_components(variables, oracle: IndependenceOracle) -> Partition:
    """Connected components of the pairwise-dependence graph; a single block
    means no independent split was found."""
    variables = sorted(variables)
    if len(variables) < 2:
        raise ValueError("need at least two variables to split")
    parent = {v: v for v in variables}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, a in enumerate(variables):
        for b in variables[i + 1:]:
            if oracle.dependent(a, b):
                parent[find(a)] = find(b)
    blocks: dict[int, list[int]] = {}
    for v in variables:
        blocks.setdefault(find(v), []).append(v)
    return Partition.of(blocks.values())


class CursorStore:
    """Per-key persistent enumeration cursors (key = site identity + scope)."""

    def __init__(self):
        self._cursors: dict = {}

    def next_partition(self, key, ground_set) -> Partition:
        cursor = self._cursors.get(key)
        if cursor is None or cursor.ground_set != tuple(sorted(ground_set)):
            cursor = RgsCursor(ground_set)
            self._cursors[key] = cursor
        p = cursor.next_partition()
        if p is None:
            # Enumeration wrapped; restart so the search can keep proposing.
            cursor.reset()
            p = cursor.next_partition()
        return p


def get_partition(scope, cursors: CursorStore, oracle: IndependenceOracle | None,
                  threshold: int, rng: np.random.Generator,
                  key=None) -> Partition:
    """Next partition of ``scope``: big scopes are split by independence
    tests and recursed per split; unsplittable big scopes get a uniform
    random partition; small scopes step their lexicographic cursor."""
    scope = tuple(sorted(scope))
    if key is None:
        key = scope
    if len(scope) > threshold:
        if oracle is None:
            return random_partition(scope, rng)
        split = independent_components(scope, oracle)
        if len(split) > 1:
            blocks: list[tuple[int, ...]] = []
            for sub in split.blocks:
                if len(sub) == 1:
                    blocks.append(sub)
                else:
                    blocks.extend(
                        get_partition(sub, cursors, oracle, threshold, rng,
                                      key=(key, sub)).blocks)
            return Partition.of(blocks)
        return random_partition(scope, rng)
    return cursors.next_partition((key, scope), scope)
