import itertools

import numpy as np
import pytest

from dspn.data import SequenceDataset, split
from dspn.dynamic import (check_invariance, compute_scopes, dataset_logliks,
                          verify_model_validity)
from dspn.graph import NodeKind, Scope
from dspn.hmm import hmm_dataset, random_hmm
from dspn.partitions import INTERFACE_ELEMENT, CursorStore, Partition
from dspn.structure import (SearchConfig, SearchState, effective_scope,
                            generate_neighbour, initial_structure,
                            replace_product, search)
from helpers import random_invariant_model, reachable_leaf_scope


def hmm_sets(seed=0, count=120, length=20, n_vars=1, states=2):
    rng = np.random.default_rng(seed)
    h = random_hmm(states, tuple([2] * n_vars), rng, concentration=0.8)
    ds = SequenceDataset(hmm_dataset(h, count, length, rng), tuple([2] * n_vars))
    return split(ds, 0.2) + (h,)


def small_cfg(**kw):
    base = dict(seed=0, max_iters=6, patience=3, em_iters=4, max_k=3)
    base.update(kw)
    return SearchConfig(**base)


def make_state(train, validation, cfg):
    from dspn.partitions import IndependenceOracle
    rng = np.random.default_rng(cfg.seed)
    model = initial_structure(train, validation, train.n_vars, train.arities,
                              cfg, rng)
    return SearchState(
        best=model,
        best_score=float(dataset_logliks(model, validation.sequences).sum()),
        cursors=CursorStore(), rng=rng,
        oracle=IndependenceOracle.from_dataset(train),
        uids=list(range(len(model.template.graph))),
        fresh_uids=itertools.count(len(model.template.graph)))


def test_initial_structure_shape():
    rng = np.random.default_rng(1)
    h = random_hmm(2, (2, 2, 2), rng)
    ds = SequenceDataset(hmm_dataset(h, 60, 8, rng), (2, 2, 2))
    train, val = split(ds, 0.2)
    cfg = small_cfg(max_k=2)
    model = initial_structure(train, val, 3, (2, 2, 2), cfg)
    g = model.template.graph
    # every output product: one mixture per variable plus the interface mixture
    for r in g.roots:
        kids = g.nodes[r].children
        assert len(kids) == 4
        assert all(g.nodes[c].kind == NodeKind.SUM for c in kids)
    assert check_invariance(model.template).ok
    assert verify_model_validity(model).ok


def test_k1_interface_mixture_is_single_child():
    train, val, _ = hmm_sets(seed=2, count=40, length=6)
    cfg = small_cfg(max_k=1)
    model = initial_structure(train, val, 1, (2,), cfg)
    assert model.k == 1
    g = model.template.graph
    mix = g.nodes[g.roots[0]].children[-1]
    assert len(g.nodes[mix].children) == 1
    assert check_invariance(model.template).ok


def test_effective_scope_includes_interface_element():
    train, val, _ = hmm_sets(seed=3, count=40, length=6)
    model = initial_structure(train, val, 1, (2,), small_cfg(max_k=2))
    g = model.template.graph
    root_scope = effective_scope(model.template, g.roots[0])
    assert root_scope == (INTERFACE_ELEMENT, 0)


def test_effective_scope_matches_leaf_reachability():
    rng = np.random.default_rng(25)
    for _ in range(20):
        m = random_invariant_model(int(rng.integers(1, 5)),
                                   int(rng.integers(1, 5)), rng)
        t = m.template
        inputs = {s: Scope.of_atom(s) for s in range(t.k)}
        for i in range(len(t.graph)):
            variables, atoms = reachable_leaf_scope(t.graph, i, inputs)
            head = (INTERFACE_ELEMENT,) if atoms else ()
            assert effective_scope(t, i) == head + tuple(sorted(variables))


def test_replacement_preserves_scopes_above():
    train, val, _ = hmm_sets(seed=4, count=60, length=10, n_vars=2)
    cfg = small_cfg(max_k=2)
    state = make_state(train, val, cfg)
    template = state.best.template
    old_scopes = compute_scopes(
        template.graph,
        {s: Scope.of_atom(0) for s in range(template.k)})
    for _ in range(8):
        candidate, uids = generate_neighbour(state, cfg)
        new_t = candidate.template
        new_scopes = compute_scopes(
            new_t.graph, {s: Scope.of_atom(0) for s in range(new_t.k)})
        # the roots survive every move and keep their scopes
        for r_old, r_new in zip(template.graph.roots, new_t.graph.roots):
            assert old_scopes[r_old] == new_scopes[r_new]
        assert check_invariance(new_t).ok
        assert verify_model_validity(candidate).ok


def test_replacement_structure_matches_blocks():
    # partition {x y | z H}: one two-variable block, one block pairing a
    # variable with the interface element
    train, val, _ = hmm_sets(seed=5, count=60, length=10, n_vars=3)
    cfg = small_cfg(max_k=2)
    state = make_state(train, val, cfg)
    template = state.best.template
    target = template.graph.roots[0]
    partition = Partition.of([(0, 1), (2, INTERFACE_ELEMENT)])
    new_t, uids = replace_product(template, state.uids, target, partition,
                                  state.rng, cfg, state.fresh_uids)
    g = new_t.graph
    new_root = g.roots[0]
    kids = g.nodes[new_root].children
    assert len(kids) == 2
    scopes = compute_scopes(g, {s: Scope.of_atom(0) for s in range(new_t.k)})
    # canonical block order lists the interface block first (-1 sorts lowest)
    assert scopes[kids[0]] == Scope.of_vars([2]) | Scope.of_atom(0)
    assert scopes[kids[1]] == Scope.of_vars([0, 1])
    # both blocks are two-component mixtures of factored models
    for kid in kids:
        assert g.nodes[kid].kind == NodeKind.SUM
        assert len(g.nodes[kid].children) == 2
        for comp in g.nodes[kid].children:
            assert g.nodes[comp].kind == NodeKind.PRODUCT


def test_singleton_blocks_collapse_to_univariate():
    train, val, _ = hmm_sets(seed=6, count=60, length=10, n_vars=2)
    cfg = small_cfg(max_k=1)
    state = make_state(train, val, cfg)
    template = state.best.template
    target = template.graph.roots[0]
    partition = Partition.of([(0,), (1,), (INTERFACE_ELEMENT,)])
    new_t, _ = replace_product(template, state.uids, target, partition,
                               state.rng, cfg, state.fresh_uids)
    g = new_t.graph
    kids = g.nodes[g.roots[0]].children
    assert len(kids) == 3
    for kid in kids:
        assert g.nodes[kid].kind == NodeKind.SUM
        child_kinds = {g.nodes[c].kind for c in g.nodes[kid].children}
        assert child_kinds <= {NodeKind.INDICATOR, NodeKind.INPUT}


def test_replaced_site_keeps_identity():
    train, val, _ = hmm_sets(seed=7, count=60, length=10)
    cfg = small_cfg(max_k=1)
    state = make_state(train, val, cfg)
    template = state.best.template
    target = template.graph.roots[0]
    uid_before = state.uids[target]
    partition = Partition.of([(0,), (INTERFACE_ELEMENT,)])
    new_t, uids = replace_product(template, state.uids, target, partition,
                                  state.rng, cfg, state.fresh_uids)
    assert uids[new_t.graph.roots[0]] == uid_before


def test_search_trace_and_acceptance():
    train, val, h = hmm_sets(seed=8, count=150, length=25)
    cfg = small_cfg(max_iters=12, patience=4, seed=8)
    model, trace = search(train, val, cfg)
    assert trace[0].iteration == 0
    accepted = [r.validation_ll for r in trace if r.accepted]
    assert all(b >= a for a, b in zip(accepted, accepted[1:]))
    assert max(r.validation_ll for r in trace) == pytest.approx(
        float(dataset_logliks(model, val.sequences).sum()))
    assert verify_model_validity(model).ok


def test_patience_one_stops_at_first_failure():
    train, val, _ = hmm_sets(seed=9, count=80, length=10)
    cfg = small_cfg(max_iters=30, patience=1, seed=9)
    _, trace = search(train, val, cfg)
    # the run ends exactly at its first non-improving candidate
    rejected = [r for r in trace if not r.accepted]
    assert len(rejected) == 1
    assert trace[-1] is rejected[0]


def test_search_is_reproducible():
    train, val, _ = hmm_sets(seed=10, count=80, length=10)
    runs = []
    for _ in range(2):
        model, trace = search(train, val, small_cfg(seed=10))
        runs.append((model.to_dict(),
                     [(r.accepted, r.validation_ll) for r in trace]))
    assert runs[0] == runs[1]


def test_accepted_models_verify_along_run():
    train, val, _ = hmm_sets(seed=11, count=80, length=10)
    seen = []

    def capture(it, model, accepted, score):
        if accepted:
            seen.append(model)

    search(train, val, small_cfg(max_iters=8, seed=11), callback=capture)
    assert seen
    for m in seen:
        assert check_invariance(m.template).ok
        assert verify_model_validity(m).ok


# One seeded search whose moves come from all three partition sources: the
# lexicographic cursor (small scopes), the independence split (the four noise
# variables separate from the four hidden-state ones) and uniform random
# draws (big scopes with no split).  Recorded before the search plumbing was
# simplified; (iteration, accepted, template_node_count, k, validation_ll).
GOLDEN_SEARCH = [
    (0, True, 38, 2, -656.372804385778),
    (1, True, 48, 2, -656.1666171961169),
    (2, True, 53, 2, -654.4773745499306),
    (3, True, 58, 2, -647.1043335728945),
    (4, True, 63, 2, -634.5545295225941),
    (5, False, 69, 2, -634.9404493088424),
    (6, True, 68, 2, -631.6880147744297),
    (7, False, 73, 2, -631.7137218158593),
    (8, False, 73, 2, -631.7141240781725),
    (9, False, 63, 2, -631.7159420240573),
    (10, False, 63, 2, -631.7158540033851),
    (11, False, 68, 2, -631.7150033386747),
    (12, False, 79, 2, -634.3140569117681),
    (13, False, 44, 2, -635.6602208122911),
    (14, False, 68, 2, -631.7147334301328),
    (15, False, 79, 2, -634.1745121507387),
    (16, True, 73, 2, -631.6761038959335),
    (17, False, 78, 2, -631.7280429467238),
    (18, False, 53, 2, -631.727838202813),
    (19, False, 73, 2, -631.7244031560314),
    (20, False, 58, 2, -631.7290983302935),
]


def test_seeded_search_matches_golden_trace():
    rng = np.random.default_rng(2)
    h = random_hmm(2, (2, 2, 2, 2), rng, concentration=0.8)
    seqs = [np.concatenate([s, rng.integers(0, 2, size=(10, 4))], axis=1)
            for s in hmm_dataset(h, 60, 10, rng)]
    train, val = split(SequenceDataset(seqs, tuple([2] * 8)), 0.2)
    cfg = SearchConfig(seed=2, threshold=3, max_iters=20, patience=20,
                       em_iters=3, max_k=2)
    _, trace = search(train, val, cfg)
    got = [(r.iteration, r.accepted, r.template_node_count, r.k)
           for r in trace]
    assert got == [g[:4] for g in GOLDEN_SEARCH]
    for r, g in zip(trace, GOLDEN_SEARCH):
        assert r.validation_ll == pytest.approx(g[4], rel=1e-9)
