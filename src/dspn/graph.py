"""Sum-product graph representation, scope analysis, and validity checking.

A graph is a rooted DAG stored as a flat node table.  Leaves are either
indicators (one per variable/value pair) or interface inputs (placeholders
whose log-values are injected at evaluation time, used to compose per-slice
circuits into sequence models).  Internal nodes are weighted sums and
products.  All evaluation happens in log space; weights are stored in the
linear domain on the nodes, and in the log domain in the graph's compiled
layers (see :class:`CompiledGraph`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

WEIGHT_TOL = 1e-9


class GraphError(ValueError):
    """Malformed graph structure."""


class MissingInputScope(GraphError):
    """An interface-input slot has no assigned scope."""


class InvalidGraph(GraphError):
    """Graph failed the completeness/decomposability check in strict mode."""


class NodeKind(IntEnum):
    SUM = 0
    PRODUCT = 1
    INDICATOR = 2
    INPUT = 3


@dataclass
class Node:
    kind: NodeKind
    children: tuple[int, ...] = ()
    weights: np.ndarray | None = None  # sums only, parallel to children
    var: int = -1    # indicators
    value: int = -1  # indicators
    slot: int = -1   # interface inputs

    def is_leaf(self) -> bool:
        return self.kind in (NodeKind.INDICATOR, NodeKind.INPUT)


@dataclass(frozen=True)
class Scope:
    """Set of concrete variables plus abstract interface atoms, as bitsets.

    Atoms stand for the (unknown, slice-external) scopes of interface
    inputs; two inputs get the same atom iff their scopes are postulated
    identical, distinct atoms iff disjoint.
    """

    vars_mask: int = 0
    atoms_mask: int = 0

    @classmethod
    def of_vars(cls, vs: Iterable[int]) -> "Scope":
        m = 0
        for v in vs:
            m |= 1 << v
        return cls(vars_mask=m)

    @classmethod
    def of_atom(cls, atom: int) -> "Scope":
        return cls(atoms_mask=1 << atom)

    def __or__(self, other: "Scope") -> "Scope":
        return Scope(self.vars_mask | other.vars_mask,
                     self.atoms_mask | other.atoms_mask)

    def __and__(self, other: "Scope") -> "Scope":
        return Scope(self.vars_mask & other.vars_mask,
                     self.atoms_mask & other.atoms_mask)

    def is_empty(self) -> bool:
        return self.vars_mask == 0 and self.atoms_mask == 0

    def disjoint(self, other: "Scope") -> bool:
        return (self & other).is_empty()

    def vars(self) -> list[int]:
        out, m, v = [], self.vars_mask, 0
        while m:
            if m & 1:
                out.append(v)
            m >>= 1
            v += 1
        return out


@dataclass
class ValidityReport:
    """Structural violations found by the completeness/decomposability check.

    Each entry is (node_id, child_a, child_b): a pair of children whose
    scopes are unequal (sums) or overlapping (products).
    """

    incomplete_sums: list[tuple[int, int, int]] = field(default_factory=list)
    overlapping_products: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.incomplete_sums and not self.overlapping_products

    def flagged_nodes(self) -> set[int]:
        return {e[0] for e in self.incomplete_sums} | \
               {e[0] for e in self.overlapping_products}

    def summary(self) -> str:
        if self.ok:
            return "valid: every sum complete, every product decomposable"
        lines = []
        for n, a, b in self.incomplete_sums:
            lines.append(f"incomplete sum {n}: children {a}, {b} differ in scope")
        for n, a, b in self.overlapping_products:
            lines.append(f"non-decomposable product {n}: children {a}, {b} overlap")
        return "\n".join(lines)


class SpnGraph:
    """Immutable-topology sum-product DAG over discrete variables.

    Node indices are dense and a topological order is computed once at
    construction.  Sum weights are the only mutable state (training
    updates them through :meth:`set_weights`).
    """

    def __init__(self, nodes: Sequence[Node], roots: Sequence[int],
                 n_vars: int, arities: Sequence[int],
                 n_interface_inputs: int = 0, validate: bool = True):
        self.nodes = list(nodes)
        self.roots = list(roots)
        self.n_vars = int(n_vars)
        self.arities = tuple(int(a) for a in arities)
        self.n_interface_inputs = int(n_interface_inputs)
        if validate:
            self._check_structure()
        self.topo_order = self._toposort()
        self._compiled: CompiledGraph | None = None

    # -- construction checks ------------------------------------------------

    def _check_structure(self) -> None:
        n = len(self.nodes)
        if len(self.arities) != self.n_vars:
            raise GraphError("arities length does not match n_vars")
        for r in self.roots:
            if not 0 <= r < n:
                raise GraphError(f"root {r} out of range")
        for i, nd in enumerate(self.nodes):
            for c in nd.children:
                if not 0 <= c < n:
                    raise GraphError(f"node {i}: child {c} out of range")
            if nd.kind == NodeKind.SUM:
                if not nd.children:
                    raise GraphError(f"sum {i} has no children")
                if nd.weights is None or len(nd.weights) != len(nd.children):
                    raise GraphError(f"sum {i}: weights do not match children")
                w = np.asarray(nd.weights, dtype=float)
                if not np.isfinite(w).all():
                    raise GraphError(f"sum {i}: non-finite weight")
                if (w < 0).any():
                    raise GraphError(f"sum {i}: negative weight")
                if abs(w.sum() - 1.0) > WEIGHT_TOL:
                    raise GraphError(f"sum {i}: weights sum to {w.sum()!r}, not 1")
            elif nd.kind == NodeKind.PRODUCT:
                # A derived first-slice network may legitimately leave a
                # product with a single surviving child, so >= 1 only.
                if not nd.children:
                    raise GraphError(f"product {i} has no children")
            elif nd.kind == NodeKind.INDICATOR:
                if not 0 <= nd.var < self.n_vars:
                    raise GraphError(f"indicator {i}: var {nd.var} out of range")
                if not 0 <= nd.value < self.arities[nd.var]:
                    raise GraphError(f"indicator {i}: value {nd.value} out of range")
                if nd.children:
                    raise GraphError(f"indicator {i} must be a leaf")
            elif nd.kind == NodeKind.INPUT:
                if not 0 <= nd.slot < self.n_interface_inputs:
                    raise GraphError(f"input {i}: slot {nd.slot} out of range")
                if nd.children:
                    raise GraphError(f"interface input {i} must be a leaf")

    def _toposort(self) -> list[int]:
        n = len(self.nodes)
        # Builders emit children before parents; verify and reuse that order.
        if all(c < i for i, nd in enumerate(self.nodes) for c in nd.children):
            return list(range(n))
        indeg = [0] * n
        for nd in self.nodes:
            for c in nd.children:
                indeg[c] += 1
        # Parents first in reverse pass: do children-last Kahn, then reverse.
        order: list[int] = []
        stack = [i for i in range(n) if indeg[i] == 0]
        while stack:
            i = stack.pop()
            order.append(i)
            for c in self.nodes[i].children:
                indeg[c] -= 1
                if indeg[c] == 0:
                    stack.append(c)
        if len(order) != n:
            raise GraphError("graph contains a cycle")
        order.reverse()
        return order

    # -- weights ------------------------------------------------------------

    def set_weights(self, i: int, weights: np.ndarray) -> None:
        nd = self.nodes[i]
        if nd.kind != NodeKind.SUM:
            raise GraphError(f"node {i} is not a sum")
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(nd.children),):
            raise GraphError(f"node {i}: weight vector has wrong length")
        nd.weights = w
        if self._compiled is not None:
            self._compiled.refresh_weights(i, w)

    def compiled(self) -> CompiledGraph:
        """The layered index arrays the kernels run on, built on first use
        and kept for the graph's lifetime (its topology never changes)."""
        if self._compiled is None:
            self._compiled = CompiledGraph(self)
        return self._compiled

    def weights_normalized(self, tol: float = WEIGHT_TOL) -> bool:
        return all(abs(float(np.sum(nd.weights)) - 1.0) <= tol
                   for nd in self.nodes if nd.kind == NodeKind.SUM)

    def copy(self) -> "SpnGraph":
        nodes = [Node(nd.kind, nd.children,
                      None if nd.weights is None else nd.weights.copy(),
                      nd.var, nd.value, nd.slot) for nd in self.nodes]
        return SpnGraph(nodes, self.roots, self.n_vars, self.arities,
                        self.n_interface_inputs, validate=False)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def sum_ids(self) -> list[int]:
        return [i for i, nd in enumerate(self.nodes) if nd.kind == NodeKind.SUM]

    def product_ids(self) -> list[int]:
        return [i for i, nd in enumerate(self.nodes) if nd.kind == NodeKind.PRODUCT]

    def indicator_ids(self) -> list[int]:
        return [i for i, nd in enumerate(self.nodes) if nd.kind == NodeKind.INDICATOR]

    def input_ids(self) -> list[int]:
        return [i for i, nd in enumerate(self.nodes) if nd.kind == NodeKind.INPUT]

    # -- serialization --------------------------------------------------------

    _KIND_NAMES = {NodeKind.SUM: "sum", NodeKind.PRODUCT: "product",
                   NodeKind.INDICATOR: "indicator", NodeKind.INPUT: "input"}
    _KIND_BY_NAME = {v: k for k, v in _KIND_NAMES.items()}

    def to_dict(self) -> dict:
        pos = {old: new for new, old in enumerate(self.topo_order)}
        nodes = []
        for old in self.topo_order:
            nd = self.nodes[old]
            rec: dict = {"kind": self._KIND_NAMES[nd.kind]}
            if nd.kind == NodeKind.SUM:
                rec["children"] = [pos[c] for c in nd.children]
                rec["weights"] = [float(w) for w in nd.weights]
            elif nd.kind == NodeKind.PRODUCT:
                rec["children"] = [pos[c] for c in nd.children]
            elif nd.kind == NodeKind.INDICATOR:
                rec["var"] = nd.var
                rec["value"] = nd.value
            else:
                rec["slot"] = nd.slot
            nodes.append(rec)
        return {
            "n_vars": self.n_vars,
            "arities": list(self.arities),
            "n_interface_inputs": self.n_interface_inputs,
            "roots": [pos[r] for r in self.roots],
            "nodes": nodes,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "SpnGraph":
        nodes = []
        for rec in doc["nodes"]:
            kind = cls._KIND_BY_NAME[rec["kind"]]
            if kind == NodeKind.SUM:
                nodes.append(Node(kind, tuple(rec["children"]),
                                  np.asarray(rec["weights"], dtype=float)))
            elif kind == NodeKind.PRODUCT:
                nodes.append(Node(kind, tuple(rec["children"])))
            elif kind == NodeKind.INDICATOR:
                nodes.append(Node(kind, var=rec["var"], value=rec["value"]))
            else:
                nodes.append(Node(kind, slot=rec["slot"]))
        return cls(nodes, doc["roots"], doc["n_vars"], doc["arities"],
                   doc.get("n_interface_inputs", 0))


@dataclass(frozen=True)
class Layer:
    """Internal nodes of one kind, depth and child count, as index arrays.

    ``children`` lists each node's ``width`` children in turn, so a gather
    of their rows reshapes to (nodes, width, batch).  A sum layer's
    log-weights are the ``weights`` slice of the flat vector, parallel to
    ``children``.
    """

    kind: NodeKind
    ids: np.ndarray
    children: np.ndarray
    width: int
    weights: slice


@dataclass(frozen=True)
class ParentGroup:
    """Every edge into the nodes of one depth and in-degree, sorted by
    child: the unit of the backward scatter.  ``edges`` is this group's
    slice of the edge order the backward pass works in; each node has
    ``width`` consecutive edges there."""

    nodes: np.ndarray
    parents: np.ndarray
    edges: slice
    width: int
    has_root: bool  # some node is also a root and carries a seed


def _runs(keys: np.ndarray):
    """(start, stop) of every run of equal values in ``keys``, as ints."""
    bounds = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True]).tolist() \
        if len(keys) else [0]
    return zip(bounds[:-1], bounds[1:])


class CompiledGraph:
    """A graph flattened into int arrays for the layered kernels.

    Internal nodes are grouped into layers by depth (the longest path down
    to a leaf), kind and child count, so every layer reads only rows
    written by leaves or earlier layers and reduces a rectangular block.
    Sum weights live in one flat log-weight vector, parallel to the sum
    edges in layer order, which :meth:`SpnGraph.set_weights` refreshes.
    ``inputs_linear`` says whether every root is linear in the interface
    inputs.  Built by :meth:`SpnGraph.compiled` in O((n + e) log n).
    """

    def __init__(self, g: SpnGraph):
        nodes = g.nodes
        n = len(nodes)
        kind = np.fromiter((nd.kind for nd in nodes), np.int64, n)
        n_children = np.fromiter((len(nd.children) for nd in nodes), np.int64, n)
        depth_list = [0] * n
        for i in g.topo_order:
            ch = nodes[i].children
            if ch:
                depth_list[i] = 1 + max(depth_list[c] for c in ch)
        depth = np.asarray(depth_list, dtype=np.int64)

        self.indicator_ids = np.flatnonzero(kind == NodeKind.INDICATOR)
        self.indicator_var = np.array([nodes[i].var for i in self.indicator_ids],
                                      dtype=np.int64)
        self.indicator_value = np.array(
            [nodes[i].value for i in self.indicator_ids], dtype=np.int64)[:, None]
        self.input_ids = np.flatnonzero(kind == NodeKind.INPUT)
        self.input_slot = np.array([nodes[i].slot for i in self.input_ids],
                                   dtype=np.int64)

        # -- forward layers: internal nodes sorted by (depth, kind, width) --
        internal = np.flatnonzero((kind == NodeKind.SUM) | (kind == NodeKind.PRODUCT))
        if (n_children[internal] == 0).any():
            raise GraphError("internal node without children")
        order = internal[np.lexsort((n_children[internal], kind[internal],
                                     depth[internal]))]
        counts = n_children[order]
        children = np.fromiter(
            chain.from_iterable(nodes[i].children for i in order.tolist()),
            np.int64, int(counts.sum()))
        parents = np.repeat(order, counts)
        edge_start = np.r_[0, np.cumsum(counts)].tolist()
        is_sum = kind[order] == NodeKind.SUM
        sum_edge = np.repeat(is_sum, counts)
        # sum edges before each node: where its weights start
        weight_start = np.r_[0, np.cumsum(np.where(is_sum, counts, 0))]
        self.layers: list[Layer] = []
        layer_key = (depth[order] * 2 + kind[order]) * (int(counts.max(initial=0)) + 1) \
            + counts
        for a, b in _runs(layer_key):
            ea, eb = edge_start[a], edge_start[b]
            w0 = int(weight_start[a])
            self.layers.append(Layer(
                NodeKind(kind[order[a]]), order[a:b], children[ea:eb],
                int(counts[a]), slice(w0, w0 + eb - ea) if is_sum[a] else slice(0, 0)))

        # -- linearity in the interface inputs: every root reaches an input,
        # no product has two children that do, and no sum mixes children
        # that do with children that do not.  Then each root is a linear
        # function of the inputs' linear-domain values.
        reach = kind == NodeKind.INPUT
        linear = True
        for layer in self.layers:
            hits = reach[layer.children].reshape(len(layer.ids), layer.width).sum(axis=1)
            if layer.kind == NodeKind.PRODUCT:
                linear &= bool((hits <= 1).all())
            else:
                linear &= bool(((hits == 0) | (hits == layer.width)).all())
            reach[layer.ids] = hits > 0
        self.inputs_linear = linear and bool(reach[g.roots].all())

        self.sum_ids = order[is_sum].tolist()
        self.sum_parents = parents[sum_edge]
        self.sum_children = children[sum_edge]
        self.sum_bounds = weight_start[1:][is_sum][:-1]
        self._weight_start = dict(zip(self.sum_ids, weight_start[:-1][is_sum].tolist()))
        weights = [np.asarray(nodes[i].weights, dtype=float) for i in self.sum_ids]
        with np.errstate(divide="ignore"):
            self.log_weights = np.log(np.concatenate(weights)) if weights \
                else np.empty(0)
        prod_counts = counts[~is_sum]
        self.product_parents = parents[~sum_edge]
        self.product_children = children[~sum_edge]
        self.product_offsets = np.cumsum(prod_counts) - prod_counts
        self.product_seg = np.repeat(np.arange(len(prod_counts)), prod_counts)

        # -- backward groups: edges sorted by child depth (deepest first),
        # in-degree and child.  The unsorted order is every sum edge, then
        # every product edge.
        e_child = np.r_[self.sum_children, self.product_children]
        e_parent = np.r_[self.sum_parents, self.product_parents]
        in_degree = np.bincount(e_child, minlength=n)
        by_child = np.lexsort((e_child, in_degree[e_child], -depth[e_child]))
        where = np.empty(len(by_child), np.int64)
        where[by_child] = np.arange(len(by_child))
        self.n_edges = len(by_child)
        self.sum_edge_pos = where[:len(self.sum_children)]
        self.product_edge_pos = where[len(self.sum_children):]
        e_child, e_parent = e_child[by_child], e_parent[by_child]
        roots = np.asarray(g.roots, dtype=np.int64)
        self.roots_unique = len(np.unique(roots)) == len(roots)
        is_root = np.isin(e_child, roots)
        group_key = depth[e_child] * (int(in_degree.max(initial=0)) + 1) \
            + in_degree[e_child]
        self.groups: list[ParentGroup] = []
        for a, b in _runs(group_key):
            width = int(in_degree[e_child[a]])
            self.groups.append(ParentGroup(
                e_child[a:b:width], e_parent[a:b], slice(a, b), width,
                bool(is_root[a:b].any())))

    def refresh_weights(self, i: int, weights: np.ndarray) -> None:
        start = self._weight_start[i]
        with np.errstate(divide="ignore"):
            self.log_weights[start:start + len(weights)] = np.log(weights)


def compute_scopes(g: SpnGraph,
                   input_scopes: Mapping[int, Scope] | None = None) -> list[Scope]:
    """Scope of every node: indicators contribute their variable, interface
    inputs their assigned scope, internal nodes the union over children."""
    input_scopes = input_scopes or {}
    scopes: list[Scope | None] = [None] * len(g.nodes)
    for i in g.topo_order:
        nd = g.nodes[i]
        if nd.kind == NodeKind.INDICATOR:
            scopes[i] = Scope.of_vars((nd.var,))
        elif nd.kind == NodeKind.INPUT:
            if nd.slot not in input_scopes:
                raise MissingInputScope(f"no scope assigned to input slot {nd.slot}")
            scopes[i] = input_scopes[nd.slot]
        else:
            s = Scope()
            for c in nd.children:
                s = s | scopes[c]
            scopes[i] = s
    return scopes  # type: ignore[return-value]


def check_validity(g: SpnGraph,
                   input_scopes: Mapping[int, Scope] | None = None) -> ValidityReport:
    """Flag incomplete sums and non-decomposable products.

    For each offending node one witness pair of children is reported; the
    report is empty iff the graph is complete and decomposable.
    """
    scopes = compute_scopes(g, input_scopes)
    report = ValidityReport()
    for i, nd in enumerate(g.nodes):
        if nd.kind == NodeKind.SUM:
            first = nd.children[0]
            for c in nd.children[1:]:
                if scopes[c] != scopes[first]:
                    report.incomplete_sums.append((i, first, c))
                    break
        elif nd.kind == NodeKind.PRODUCT:
            acc = Scope()
            seen: list[int] = []
            for c in nd.children:
                if not acc.disjoint(scopes[c]):
                    other = next(p for p in seen if not scopes[p].disjoint(scopes[c]))
                    report.overlapping_products.append((i, other, c))
                    break
                acc = acc | scopes[c]
                seen.append(c)
    return report


class GraphBuilder:
    """Incremental children-first construction of an :class:`SpnGraph`.

    Indicator and interface-input leaves are deduplicated so repeated
    requests share one node.
    """

    def __init__(self, n_vars: int, arities: Sequence[int], n_interface_inputs: int = 0):
        self.n_vars = n_vars
        self.arities = tuple(arities)
        self.n_interface_inputs = n_interface_inputs
        self.nodes: list[Node] = []
        self._indicators: dict[tuple[int, int], int] = {}
        self._inputs: dict[int, int] = {}

    def _add(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def indicator(self, var: int, value: int) -> int:
        key = (var, value)
        if key not in self._indicators:
            self._indicators[key] = self._add(Node(NodeKind.INDICATOR, var=var, value=value))
        return self._indicators[key]

    def interface_input(self, slot: int) -> int:
        if slot not in self._inputs:
            self._inputs[slot] = self._add(Node(NodeKind.INPUT, slot=slot))
        return self._inputs[slot]

    def sum(self, children: Sequence[int], weights: Sequence[float]) -> int:
        w = np.asarray(weights, dtype=float)
        return self._add(Node(NodeKind.SUM, tuple(children), w / w.sum()))

    def product(self, children: Sequence[int]) -> int:
        return self._add(Node(NodeKind.PRODUCT, tuple(children)))

    def build(self, roots: Sequence[int]) -> SpnGraph:
        return SpnGraph(self.nodes, roots, self.n_vars, self.arities,
                        self.n_interface_inputs)
