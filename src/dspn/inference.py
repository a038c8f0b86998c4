"""Exact log-space evaluation and differentiation of sum-product graphs.

The kernels run on the graph's compiled layers (:class:`CompiledGraph`):
internal nodes grouped by depth, kind and child count into int index
arrays, plus one flat log-weight vector.  Each pass costs a few numpy calls
per layer, not per node, and touches every node and edge once, so cost
stays linear in nodes + edges while Python dispatch grows with depth only.
Evidence is vectorized: every pass handles a batch of evidence rows at once.

* ``forward``: indicators are one gather from the evidence.  A layer
  gathers its children's rows, which reshape to (nodes, width, batch); a
  product layer sums over the width, a sum layer adds its log-weights and
  takes a max-shifted log-sum-exp over the width.
* ``backward``: the transposed scatter.  Edge factors (the log-weight, or
  the product of the other children) are computed for all edges at once;
  the contributions into the nodes of one depth and in-degree are sorted
  by child and combined by the same log-sum-exp.
* ``sum_edge_statistics``: all sum edges in one expression over any
  number of stacked rows; divided by the weights, these are the
  log-likelihood gradients.

These three are the only way into a circuit; ``log_likelihood`` and
``conditional_query`` are one ``forward`` call each.

Equal-width layers stand in for ``np.add.reduceat`` segments: with numpy
2.4 on an x86-64 guest, ``reduceat`` along the row axis cost 5-9 ns per
element against under 1 ns for the reshaped reduction.

Log 0 is represented by ``-inf``, which is absorbing under addition and
ignored by log-sum-exp; the log-sum-exp and the product-node backward rule
are written to keep that representation NaN-free.
"""

from __future__ import annotations

import numpy as np

from .graph import CompiledGraph, NodeKind, SpnGraph

LOG_ZERO = -np.inf
MARGINALIZED = -1
# Replaces the -inf maximum of an all-zero log-sum-exp, which would give NaN.
_SHIFT_FLOOR = -np.finfo(float).max
# Elements per block of rows in the edge-statistics pass (256 KiB).
_EDGE_BLOCK = 1 << 15


class ZeroEvidence(ValueError):
    """Conditioning event has probability zero under the model."""


class DisjointnessError(ValueError):
    """Query and conditioning evidence assign the same variable."""


class Evidence:
    """Per-variable assignment: an observed value or marginalized (-1)."""

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.int64)

    @classmethod
    def marginalized(cls, n_vars: int) -> "Evidence":
        return cls(np.full(n_vars, MARGINALIZED))

    @classmethod
    def observing(cls, n_vars: int, assignments: dict[int, int]) -> "Evidence":
        vals = np.full(n_vars, MARGINALIZED)
        for v, x in assignments.items():
            vals[v] = x
        return cls(vals)

    def merge(self, other: "Evidence") -> "Evidence":
        both = (self.values != MARGINALIZED) & (other.values != MARGINALIZED)
        if both.any():
            raise DisjointnessError(
                f"variables {np.nonzero(both)[0].tolist()} assigned by both evidence sets")
        return Evidence(np.where(self.values != MARGINALIZED, self.values, other.values))


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """Log-sum-exp over axis 1, consuming ``x``: a (nodes, width, batch)
    block over its width, or a (rows, terms) matrix over its terms.  The
    package's only log-sum-exp.  A node whose terms are all ``-inf`` gets a
    finite shift, so it yields ``-inf`` rather than NaN.  Callers silence
    the divide warning of log(0)."""
    shift = np.maximum.reduce(x, axis=1)
    np.maximum(shift, _SHIFT_FLOOR, out=shift)
    x -= shift[:, None]
    np.exp(x, out=x)
    out = np.add.reduce(x, axis=1)
    np.log(out, out=out)
    out += shift
    return out


def forward(g: SpnGraph, ev: np.ndarray,
            input_logs: np.ndarray | None = None) -> np.ndarray:
    """Bottom-up pass. ``ev`` is (batch, n_vars) with -1 for marginalized;
    ``input_logs`` is (n_slots, batch).  Returns (n_nodes, batch) log-values."""
    ev = np.atleast_2d(np.asarray(ev, dtype=np.int64))
    if g.n_interface_inputs and input_logs is None:
        raise ValueError("graph has interface inputs but no input values were given")
    c = g.compiled()
    batch = ev.shape[0]
    values = np.empty((len(g.nodes), batch))
    cols = ev.T[c.indicator_var]
    values[c.indicator_ids] = np.where(
        (cols == c.indicator_value) | (cols == MARGINALIZED), 0.0, LOG_ZERO)
    if len(c.input_ids):
        values[c.input_ids] = np.asarray(input_logs, dtype=float)[c.input_slot]
    with np.errstate(divide="ignore"):
        for layer in c.layers:
            x = values[layer.children]
            if layer.kind == NodeKind.SUM:
                x += c.log_weights[layer.weights, None]
                if layer.width > 1:
                    x = _logsumexp_rows(x.reshape(len(layer.ids), layer.width, batch))
            elif layer.width > 1:
                x = np.add.reduce(x.reshape(len(layer.ids), layer.width, batch), axis=1)
            values[layer.ids] = x
    return values


def log_likelihood(g: SpnGraph, evidence: Evidence) -> float:
    """Root log-value of a single-root, self-contained graph."""
    if len(g.roots) != 1:
        raise ValueError("log_likelihood requires a single-root graph")
    return float(forward(g, evidence.values)[g.roots[0], 0])


def conditional_query(g: SpnGraph, query: Evidence, given: Evidence) -> float:
    """Pr(query | given) as the ratio of the root values of one bottom-up
    pass over the stacked (given, joint) rows."""
    if g.n_interface_inputs:
        raise ValueError("conditional queries require a self-contained graph")
    if len(g.roots) != 1:
        raise ValueError("conditional queries require a single-root graph")
    joint = query.merge(given)  # raises DisjointnessError on overlap
    log_den, log_num = forward(g, np.stack([given.values, joint.values]))[g.roots[0]]
    if log_den == LOG_ZERO:
        raise ZeroEvidence("conditioning evidence has probability zero")
    return float(np.exp(log_num - log_den))


def _product_cofactors(c: CompiledGraph, values: np.ndarray) -> np.ndarray:
    """For every product edge, the log-product of the parent's *other*
    children: the parent's value minus the child's, unless ``-inf``
    children force a recount.  Then a child sees a finite cofactor only if
    every ``-inf`` sibling is itself."""
    own = values[c.product_children]
    total = values[c.product_parents]
    if not np.isneginf(total).any():
        total -= own
        return total
    neg = np.isneginf(own)
    n_neg = np.add.reduceat(neg, c.product_offsets, axis=0, dtype=np.intp)
    finite = np.where(neg, 0.0, own)
    total = np.add.reduceat(finite, c.product_offsets, axis=0)
    alone = n_neg[c.product_seg] == neg
    return np.where(alone, total[c.product_seg] - finite, LOG_ZERO)


def backward(g: SpnGraph, values: np.ndarray,
             root_log_grads: np.ndarray | None = None) -> np.ndarray:
    """Top-down pass computing log d(root value)/d(node value).

    ``values`` are the forward pass's log-values.  ``root_log_grads`` seeds
    the roots (shape (n_roots, batch)); by default a single root is seeded
    with log 1 = 0.  Every edge contributes the parent's derivative times a
    factor: the weight on a sum edge, the product of the other children's
    values on a product edge.  The contributions into the nodes of one
    depth and in-degree are sorted by child and combined by one
    log-sum-exp, deepest nodes first, so each node is written once, after
    all of its parents.
    """
    batch = values.shape[1]
    if root_log_grads is None:
        if len(g.roots) != 1:
            raise ValueError("multi-root graphs need explicit root gradients")
        root_log_grads = np.zeros((1, batch))
    c = g.compiled()
    derivs = np.full((len(g.nodes), batch), LOG_ZERO)
    if c.roots_unique:
        derivs[g.roots] = root_log_grads
    else:
        np.logaddexp.at(derivs, g.roots, root_log_grads)
    factor = np.empty((c.n_edges, batch))
    factor[c.sum_edge_pos] = c.log_weights[:, None]
    factor[c.product_edge_pos] = _product_cofactors(c, values)
    with np.errstate(divide="ignore"):
        for grp in c.groups:
            x = derivs[grp.parents]
            x += factor[grp.edges]
            if grp.width > 1:
                x = _logsumexp_rows(x.reshape(len(grp.nodes), grp.width, batch))
            if grp.has_root:
                x = np.logaddexp(derivs[grp.nodes], x)
            derivs[grp.nodes] = x
    return derivs


def sum_edge_statistics(g: SpnGraph, values: np.ndarray, derivs: np.ndarray,
                        log_norm: np.ndarray) -> dict[int, np.ndarray]:
    """Expected edge counts w_ij * d_i * v_j / S summed over the batch.

    These are both the EM sufficient statistics and (divided by w_ij) the
    log-likelihood gradients of the sum weights.  All sum edges are
    computed in one expression, so stacking many slices' rows into one
    call costs one pass.
    """
    # Zero-probability batch elements carry no counts; +inf normalizer makes
    # their contributions vanish instead of producing -inf minus -inf.
    safe_norm = np.where(np.isneginf(log_norm), np.inf, log_norm)
    c = g.compiled()
    # Rows go in blocks, so the temporaries stay small and in cache however
    # many slices were stacked.
    totals = np.zeros(len(c.sum_parents))
    step = max(1, _EDGE_BLOCK // max(1, len(totals)))
    for lo in range(0, len(safe_norm), step):
        rows = slice(lo, lo + step)
        x = derivs[c.sum_parents, rows]
        x += values[c.sum_children, rows]
        x += c.log_weights[:, None]
        x -= safe_norm[rows]
        np.exp(x, out=x)
        totals += x.sum(axis=1)
    return dict(zip(c.sum_ids, np.split(totals, c.sum_bounds)))
