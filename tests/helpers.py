"""Shared test generators and independent oracles.

Oracles here deliberately avoid the library's fast paths: scopes come from
leaf reachability, likelihoods from explicit joint enumeration over the
per-node reference recursion, and partition counts from the triangle
recurrence.
"""

import itertools
from collections import defaultdict

import numpy as np
from scipy.special import logsumexp

from dspn.dynamic import (BottomNetwork, DspnModel, TemplateNetwork,
                          TopNetwork, derive_bottom, unroll_with_provenance)
from dspn.graph import GraphBuilder, NodeKind, SpnGraph
from dspn.inference import Evidence


# ---------------------------------------------------------------------------
# random structures
# ---------------------------------------------------------------------------

def _random_block_partition(elements, rng, max_blocks=3):
    """Random partition with at least 2 blocks (for product children)."""
    elements = list(elements)
    while True:
        n_blocks = int(rng.integers(2, min(len(elements), max_blocks) + 1))
        labels = rng.integers(0, n_blocks, len(elements))
        blocks = [[e for e, l in zip(elements, labels) if l == b]
                  for b in range(n_blocks)]
        blocks = [b for b in blocks if b]
        if len(blocks) >= 2:
            return blocks


def _grow_spn(b, scope, rng, depth):
    """Random complete/decomposable sub-circuit over ``scope``."""
    if len(scope) == 1:
        v = scope[0]
        a = b.arities[v]
        inds = [b.indicator(v, c) for c in range(a)]
        return b.sum(inds, rng.dirichlet(np.full(a, 2.0)))
    if depth <= 0 or rng.random() < 0.25:
        blocks = _random_block_partition(scope, rng)
        return b.product([_grow_spn(b, blk, rng, 0) for blk in blocks])
    n_comp = int(rng.integers(2, 4))
    comps = []
    for _ in range(n_comp):
        blocks = _random_block_partition(scope, rng)
        comps.append(b.product([_grow_spn(b, blk, rng, depth - 1)
                                for blk in blocks]))
    return b.sum(comps, rng.dirichlet(np.full(n_comp, 2.0)))


def random_valid_spn(n_vars, rng, arities=None, depth=3):
    arities = arities or tuple([2] * n_vars)
    b = GraphBuilder(n_vars, arities, 0)
    root = _grow_spn(b, list(range(n_vars)), rng, depth)
    return b.build([root])


def random_invariant_model(n_vars, k, rng, depth=2):
    """Random model passing the stacking-validity check by construction.

    Interface slots are grouped into classes; each class owns a non-empty
    subset of the variables, its roots span exactly those variables plus a
    mixture over the class's inputs.
    """
    arities = tuple([int(rng.integers(2, 4)) for _ in range(n_vars)])
    n_classes = int(rng.integers(1, min(n_vars, k) + 1))
    class_of_slot = np.zeros(k, dtype=int)
    class_of_slot[:n_classes] = np.arange(n_classes)
    if k > n_classes:
        class_of_slot[n_classes:] = rng.integers(0, n_classes, k - n_classes)
    var_class = np.zeros(n_vars, dtype=int)
    var_class[:n_classes] = np.arange(n_classes)
    if n_vars > n_classes:
        var_class[n_classes:] = rng.integers(0, n_classes, n_vars - n_classes)
    class_vars = [[v for v in range(n_vars) if var_class[v] == c]
                  for c in range(n_classes)]
    class_slots = [[s for s in range(k) if class_of_slot[s] == c]
                   for c in range(n_classes)]

    b = GraphBuilder(n_vars, arities, k)
    roots = []
    for s in range(k):
        c = int(class_of_slot[s])
        slots = class_slots[c]
        mix = b.sum([b.interface_input(t) for t in slots],
                    rng.dirichlet(np.full(len(slots), 2.0)))
        if len(class_vars[c]) == 1:
            factors = [_grow_spn(b, class_vars[c], rng, depth)]
        else:
            blocks = _random_block_partition(class_vars[c], rng)
            factors = [_grow_spn(b, blk, rng, depth) for blk in blocks]
        roots.append(b.product(factors + [mix]))
    template = TemplateNetwork(b.build(roots))

    tb = GraphBuilder(n_vars, arities, k)
    per_class = []
    for c in range(n_classes):
        slots = class_slots[c]
        per_class.append(tb.sum([tb.interface_input(t) for t in slots],
                                rng.dirichlet(np.full(len(slots), 2.0))))
    top_root = per_class[0] if n_classes == 1 else tb.product(per_class)
    top = TopNetwork(tb.build([top_root]))
    return DspnModel(derive_bottom(template), template, top)


def random_evidence(n_vars, arities, rng, p_observed=0.6):
    vals = np.full(n_vars, -1, dtype=np.int64)
    for v in range(n_vars):
        if rng.random() < p_observed:
            vals[v] = int(rng.integers(arities[v]))
    return Evidence(vals)


# ---------------------------------------------------------------------------
# reference kernels: the per-node recursion over the topological order
# ---------------------------------------------------------------------------

def _log_weights(nd) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(nd.weights, dtype=float))


def reference_forward(g: SpnGraph, ev, input_logs=None) -> np.ndarray:
    """(n_nodes, batch) log-values, one node at a time."""
    ev = np.atleast_2d(np.asarray(ev, dtype=np.int64))
    values = np.empty((len(g.nodes), ev.shape[0]))
    for i in g.topo_order:
        nd = g.nodes[i]
        if nd.kind == NodeKind.INDICATOR:
            col = ev[:, nd.var]
            values[i] = np.where((col == -1) | (col == nd.value), 0.0, -np.inf)
        elif nd.kind == NodeKind.INPUT:
            values[i] = input_logs[nd.slot]
        elif nd.kind == NodeKind.PRODUCT:
            acc = values[nd.children[0]].copy()
            for c in nd.children[1:]:
                acc += values[c]
            values[i] = acc
        else:
            shifted = values[list(nd.children)] + _log_weights(nd)[:, None]
            values[i] = logsumexp(shifted, axis=0)
    return values


def reference_backward(g: SpnGraph, values, root_log_grads=None) -> np.ndarray:
    """log d(root)/d(node), pushing each node's derivative to its children
    in reverse topological order; products recount ``-inf`` siblings."""
    batch = values.shape[1]
    if root_log_grads is None:
        root_log_grads = np.zeros((1, batch))
    derivs = np.full((len(g.nodes), batch), -np.inf)
    for r, seed in zip(g.roots, root_log_grads):
        derivs[r] = np.logaddexp(derivs[r], seed)
    for i in reversed(g.topo_order):
        nd = g.nodes[i]
        if nd.is_leaf():
            continue
        d_i = derivs[i]
        if nd.kind == NodeKind.SUM:
            lw = _log_weights(nd)
            for idx, c in enumerate(nd.children):
                derivs[c] = np.logaddexp(derivs[c], lw[idx] + d_i)
        else:
            child_vals = values[list(nd.children)]
            neg = np.isneginf(child_vals)
            n_neg = neg.sum(axis=0)
            finite_total = np.where(neg, 0.0, child_vals).sum(axis=0)
            for idx, c in enumerate(nd.children):
                others_neg = n_neg - neg[idx]
                own = np.where(neg[idx], 0.0, child_vals[idx])
                others = np.where(others_neg == 0, finite_total - own, -np.inf)
                derivs[c] = np.logaddexp(derivs[c], d_i + others)
    return derivs


def reference_edge_statistics(g: SpnGraph, values, derivs, log_norm) -> dict:
    """Expected edge counts w_ij * d_i * v_j / S per sum node."""
    safe_norm = np.where(np.isneginf(log_norm), np.inf, log_norm)
    stats = {}
    for i in g.sum_ids():
        nd = g.nodes[i]
        contrib = (_log_weights(nd)[:, None] + derivs[i][None, :]
                   + values[list(nd.children)] - safe_norm[None, :])
        stats[i] = np.exp(contrib).sum(axis=1)
    return stats


def unrolled_reference_statistics(m: DspnModel, sequences) -> dict:
    """Tied statistics of equal-length sequences from the reference kernels
    on the unrolled circuit, summed per (part, source node)."""
    g, prov = unroll_with_provenance(m, len(sequences[0]))
    vals = reference_forward(g, np.stack([s.reshape(-1) for s in sequences]))
    ders = reference_backward(g, vals)
    ref = reference_edge_statistics(g, vals, ders, vals[g.roots[0]])
    agg = {"bottom": defaultdict(float), "template": defaultdict(float),
           "top": defaultdict(float)}
    for new_id, (part, _, src) in enumerate(prov):
        if new_id in ref:
            agg[part][src] = agg[part][src] + ref[new_id]
    return agg


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def reachable_leaf_scope(g: SpnGraph, node, input_scopes=None):
    """Scope by explicit leaf reachability (independent of the union pass)."""
    input_scopes = input_scopes or {}
    vars_seen = set()
    atoms = set()
    stack = [node]
    seen = set()
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        nd = g.nodes[i]
        if nd.kind == NodeKind.INDICATOR:
            vars_seen.add(nd.var)
        elif nd.kind == NodeKind.INPUT:
            sc = input_scopes[nd.slot]
            vars_seen.update(sc.vars())
            m, a = sc.atoms_mask, 0
            while m:
                if m & 1:
                    atoms.add(a)
                m >>= 1
                a += 1
        else:
            stack.extend(nd.children)
    return frozenset(vars_seen), frozenset(atoms)


def enumeration_loglik(g: SpnGraph, evidence: Evidence) -> float:
    """Brute-force: sum the fully observed joint over all completions."""
    free = [v for v in range(g.n_vars) if evidence.values[v] == -1]
    if not free:
        rows = evidence.values[None, :]
    else:
        combos = list(itertools.product(*[range(g.arities[v]) for v in free]))
        rows = np.tile(evidence.values, (len(combos), 1))
        for r, combo in enumerate(combos):
            for v, val in zip(free, combo):
                rows[r, v] = val
    logs = reference_forward(g, rows)[g.roots[0]]
    mx = logs.max()
    if mx == -np.inf:
        return -np.inf
    return float(mx + np.log(np.exp(logs - mx).sum()))


def pairwise_validity_oracle(g: SpnGraph, input_scopes=None):
    """Flagged-node set from exhaustive pairwise scope comparisons on
    reachability scopes."""
    flagged = set()
    for i, nd in enumerate(g.nodes):
        scopes = [reachable_leaf_scope(g, c, input_scopes) for c in nd.children]
        if nd.kind == NodeKind.SUM:
            for a in range(len(scopes)):
                for b_ in range(a + 1, len(scopes)):
                    if scopes[a] != scopes[b_]:
                        flagged.add(i)
        elif nd.kind == NodeKind.PRODUCT:
            for a in range(len(scopes)):
                for b_ in range(a + 1, len(scopes)):
                    va, aa = scopes[a]
                    vb, ab = scopes[b_]
                    if (va & vb) or (aa & ab):
                        flagged.add(i)
    return flagged


def bell_triangle(n: int) -> list[int]:
    """Bell numbers B(1)..B(n) via the triangle recurrence."""
    bells = [1]
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
        bells.append(row[-1])
    return bells[:n]


def mutate_one_edge(g: SpnGraph, rng) -> SpnGraph:
    """Redirect one child edge to a random earlier node (keeps the DAG)."""
    internal = [i for i, nd in enumerate(g.nodes) if nd.children and i > 0]
    for _ in range(100):
        i = int(rng.choice(internal))
        nd = g.nodes[i]
        pos = int(rng.integers(len(nd.children)))
        j = int(rng.integers(i))
        if j != nd.children[pos]:
            break
    else:
        raise RuntimeError("could not find a mutation")
    nodes = [n for n in g.nodes]
    from dspn.graph import Node
    children = list(nd.children)
    children[pos] = j
    nodes[i] = Node(nd.kind, tuple(children),
                    None if nd.weights is None else nd.weights.copy(),
                    nd.var, nd.value, nd.slot)
    return SpnGraph(nodes, g.roots, g.n_vars, g.arities, g.n_interface_inputs)
