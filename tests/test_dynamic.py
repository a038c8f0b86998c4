import json

import numpy as np
import pytest

from dspn.dynamic import (BottomNetwork, DegenerateTemplate, DspnModel,
                          EmptySequence, ScopeAssignment, TemplateNetwork,
                          TopNetwork, check_invariance, dataset_logliks,
                          derive_bottom, sample,
                          sequence_loglik, unroll, unroll_with_provenance,
                          verify_model_validity)
from dspn.graph import (GraphBuilder, GraphError, NodeKind, Scope,
                        check_validity, compute_scopes)
from dspn.hmm import (hmm_dataset_loglik, hmm_loglik, hmm_sample,
                      hmm_to_model, random_hmm)
from dspn.inference import Evidence, conditional_query, log_likelihood
from dspn.structure import build_initial_template, build_top
from dspn.training import collect_statistics
from helpers import random_invariant_model, reachable_leaf_scope


def initial_model(n=3, k=2, seed=0):
    rng = np.random.default_rng(seed)
    univ = [[rng.dirichlet(np.full(2, 2.0)) for _ in range(n)] for _ in range(k)]
    mix = [rng.dirichlet(np.full(k, 2.0)) for _ in range(k)]
    t = build_initial_template(n, tuple([2] * n), k, univ, mix)
    top = build_top(n, tuple([2] * n), k, rng.dirichlet(np.full(k, 2.0)))
    return DspnModel(derive_bottom(t), t, top)


# -- invariance ---------------------------------------------------------------

def test_initial_template_is_invariant():
    for k in (1, 2, 4):
        m = initial_model(n=3, k=k, seed=k)
        assert check_invariance(m.template).ok


def test_initial_template_leaf_counts():
    # k interface leaves plus one indicator per variable/value pair
    n, k = 3, 2
    m = initial_model(n=n, k=k)
    g = m.template.graph
    assert len(g.input_ids()) == k
    assert len(g.indicator_ids()) == 2 * n
    assert len(g.roots) == k
    # each output product: n univariate mixtures plus one interface mixture
    for r in g.roots:
        assert len(g.nodes[r].children) == n + 1


def test_scope_mismatch_across_outputs_is_flagged():
    # root 0 omits variable 1 while root 1 covers everything
    b = GraphBuilder(2, (2, 2), 2)
    inputs = [b.interface_input(0), b.interface_input(1)]
    mix0 = b.sum(inputs, [0.5, 0.5])
    u0 = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.5, 0.5])
    root0 = b.product([u0, mix0])
    mix1 = b.sum(inputs, [0.3, 0.7])
    u1 = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.4, 0.6])
    u2 = b.sum([b.indicator(1, 0), b.indicator(1, 1)], [0.4, 0.6])
    root1 = b.product([u1, u2, mix1])
    t = TemplateNetwork(b.build([root0, root1]))
    report = check_invariance(t)  # single-class assignment
    assert not report.ok
    assert {v.condition for v in report.violations} & {2, 3}
    # direct scope enumeration confirms the mismatch
    scopes = compute_scopes(t.graph, ScopeAssignment.single_class(2).input_scopes())
    assert scopes[t.graph.roots[0]] != scopes[t.graph.roots[1]]


def test_k1_invariance_depends_only_on_validity():
    m = initial_model(n=2, k=1)
    report = check_invariance(m.template)
    assert report.ok
    # conditions 1-3 are vacuous for a single slot: no pair entries possible
    assert all(v.condition in (4, 5) for v in report.violations)


def test_relabeling_atoms_preserves_validity_sets():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = random_invariant_model(int(rng.integers(2, 5)),
                                   int(rng.integers(1, 5)), rng)
        base, _ = _assignment_of(m)
        atoms = sorted(set(base.atom_of_slot))
        perm = dict(zip(atoms, rng.permutation(atoms).tolist()))
        relabeled = base.relabeled(perm)
        r1 = check_invariance(m.template, base)
        r2 = check_invariance(m.template, relabeled)
        assert r1.ok == r2.ok
        v1 = check_validity(m.template.graph, base.input_scopes())
        v2 = check_validity(m.template.graph, relabeled.input_scopes())
        assert v1.flagged_nodes() == v2.flagged_nodes()


def _assignment_of(m):
    from dspn.dynamic import induced_assignment
    return induced_assignment(m)


# -- model verification ---------------------------------------------------------

def test_initial_model_verifies():
    report = verify_model_validity(initial_model())
    assert report.ok


def test_overlapping_bottom_roots_flagged():
    # two bottom roots with partially overlapping scopes violate the
    # identical-or-disjoint premise
    b = GraphBuilder(3, (2, 2, 2), 0)

    def univ(v):
        return b.sum([b.indicator(v, 0), b.indicator(v, 1)], [0.5, 0.5])

    r0 = b.product([univ(0), univ(1)])
    r1 = b.product([univ(1), univ(2)])
    bottom = BottomNetwork(b.build([r0, r1]))

    m = initial_model(n=3, k=2)
    model = DspnModel(bottom, m.template, m.top, strict=False)
    report = verify_model_validity(model)
    assert report.interface_pairs == [(0, 1)]
    assert not report.ok


def test_random_models_unroll_validly():
    rng = np.random.default_rng(10)
    for _ in range(15):
        m = random_invariant_model(int(rng.integers(1, 5)),
                                   int(rng.integers(1, 5)), rng)
        assert verify_model_validity(m).ok
        for T in (1, 2, 3, 7):
            assert check_validity(unroll(m, T)).ok


# -- bottom derivation ------------------------------------------------------------

def test_derive_bottom_removes_interface_mixture():
    m = initial_model(n=2, k=1)
    g = m.bottom.graph
    # bottom root is a product over the univariate mixtures only
    root = g.nodes[g.roots[0]]
    assert root.kind == NodeKind.PRODUCT
    assert len(root.children) == 2
    assert not g.input_ids()


def test_derive_bottom_keeps_interface_free_roots():
    # a root with no reachable interface input survives unchanged
    b = GraphBuilder(2, (2, 2), 2)

    def univ(v, w=0.5):
        return b.sum([b.indicator(v, 0), b.indicator(v, 1)], [w, 1 - w])

    mix = b.sum([b.interface_input(0), b.interface_input(1)], [0.5, 0.5])
    root0 = b.product([univ(0), univ(1), mix])
    root1 = b.product([univ(0, 0.3), univ(1, 0.7)])
    t = TemplateNetwork(b.build([root0, root1]))
    bottom = derive_bottom(t)
    old_root1 = t.graph.nodes[t.graph.roots[1]]
    new_root1 = bottom.graph.nodes[bottom.graph.roots[1]]
    assert len(new_root1.children) == len(old_root1.children)
    for old_c, new_c in zip(old_root1.children, new_root1.children):
        np.testing.assert_array_equal(t.graph.nodes[old_c].weights,
                                      bottom.graph.nodes[new_c].weights)
    assert check_validity(bottom.graph).ok


def test_derive_bottom_node_count_matches_reachability():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = random_invariant_model(int(rng.integers(1, 5)),
                                   int(rng.integers(1, 5)), rng)
        g = m.template.graph
        inputs = {s: Scope.of_atom(s) for s in range(m.k)}
        no_ind = sum(not reachable_leaf_scope(g, i, inputs)[0]
                     for i in range(len(g)))
        assert len(m.bottom.graph) == len(g) - no_ind


def test_derive_bottom_degenerate_root():
    # a root that is only an interface pass-through cannot survive
    bad = GraphBuilder(1, (2,), 1)
    mix = bad.sum([bad.interface_input(0)], [1.0])
    root = bad.product([mix])
    with pytest.raises(DegenerateTemplate):
        derive_bottom(TemplateNetwork(bad.build([root])))


def test_derive_bottom_renormalizes_weights():
    b = GraphBuilder(1, (2,), 1)
    u = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.5, 0.5])
    mixed = b.sum([u, b.interface_input(0)], [0.25, 0.75])
    root = b.product([mixed])
    t = TemplateNetwork(b.build([root]))
    bottom = derive_bottom(t)
    for i in bottom.graph.sum_ids():
        assert bottom.graph.nodes[i].weights.sum() == pytest.approx(1.0)


# -- unrolling -----------------------------------------------------------------------

def test_unroll_T1_is_bottom_plus_top():
    m = initial_model(n=2, k=2)
    g, prov = unroll_with_provenance(m, 1)
    parts = {p[0] for p in prov}
    assert parts == {"bottom", "top"}
    assert g.n_vars == 2


def test_unroll_three_slices_two_vars():
    m = initial_model(n=2, k=2)
    g = unroll(m, 3)
    assert g.n_vars == 6
    assert len(g.roots) == 1
    assert not g.input_ids()
    assert check_validity(g).ok


def test_unroll_node_count_formula():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = random_invariant_model(int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)), rng)
        for T in (1, 2, 5):
            g = unroll(m, T)
            expected = len(m.bottom.graph) \
                + (T - 1) * (len(m.template.graph) - m.k) \
                + (len(m.top.graph) - m.k)
            assert len(g) == expected


# -- rolling evaluation -----------------------------------------------------------

def test_rolling_T1_equals_bottom_top():
    m = initial_model(n=2, k=2)
    seq = np.array([[1, 0]])
    got = sequence_loglik(m, seq)
    want = log_likelihood(unroll(m, 1), Evidence(seq.reshape(-1)))
    assert got == pytest.approx(want, abs=1e-12)


def test_rolling_matches_unrolled():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m = random_invariant_model(int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)), rng)
        for T in (2, 5, 9):
            seq = np.stack([[int(rng.integers(a)) for a in m.arities]
                            for _ in range(T)])
            got = sequence_loglik(m, seq)
            want = log_likelihood(unroll(m, T), Evidence(seq.reshape(-1)))
            assert got == pytest.approx(want, abs=1e-12)


def test_rolling_handles_missing_values():
    rng = np.random.default_rng(15)
    m = random_invariant_model(3, 2, rng)
    seq = np.array([[0, -1, 1], [-1, -1, -1], [1, 0, -1]])
    got = sequence_loglik(m, seq)
    want = log_likelihood(unroll(m, 3), Evidence(seq.reshape(-1)))
    assert got == pytest.approx(want, abs=1e-12)


def test_empty_sequence_rejected():
    m = initial_model()
    empty = np.zeros((0, 3), dtype=np.int64)
    with pytest.raises(EmptySequence):
        sequence_loglik(m, empty)
    # a zero-length member of a batch is rejected too
    batch = [np.zeros((4, 3), dtype=np.int64), empty, np.ones((2, 3), dtype=np.int64)]
    with pytest.raises(EmptySequence):
        dataset_logliks(m, batch)
    with pytest.raises(EmptySequence):
        collect_statistics(m, batch)
    h = random_hmm(2, (2, 2, 2), np.random.default_rng(19))
    with pytest.raises(EmptySequence):
        hmm_dataset_loglik(h, batch)


def test_hand_built_hmm_matches_forward_oracle():
    rng = np.random.default_rng(16)
    h = random_hmm(2, (2,), rng)
    m = hmm_to_model(h)
    for _ in range(100):
        seq = hmm_sample(h, 100, rng)
        assert sequence_loglik(m, seq) == pytest.approx(
            hmm_loglik(h, seq), abs=1e-9)


def _permuted_document(m, perm):
    """``m``'s document with the bottom and template roots listed in the
    order ``perm``, and the slot-to-root map saying where each slot's root
    went."""
    doc = json.loads(json.dumps(m.to_dict()))
    for part in ("bottom", "template"):
        roots = doc[part]["roots"]
        doc[part]["roots"] = [roots[p] for p in perm]
    doc["f_map"] = [perm.index(s) for s in range(len(perm))]
    return doc


def test_permuted_interface_bijection_round_trips():
    # a document with a non-identity slot-to-root map loads into slot
    # order: it scores like the forward recursion and is written back as
    # the original document, with the identity map
    rng = np.random.default_rng(17)
    h = random_hmm(3, (2,), rng)
    m = hmm_to_model(h)
    doc = _permuted_document(m, [2, 0, 1])
    assert doc["f_map"] == [1, 2, 0]
    m2 = DspnModel.from_dict(doc)
    ignored = DspnModel.from_dict(dict(doc, f_map=[0, 1, 2]))
    seqs = [hmm_sample(h, int(rng.integers(1, 12)), rng) for _ in range(20)]
    for seq in seqs:
        assert sequence_loglik(m2, seq) == pytest.approx(
            hmm_loglik(h, seq), abs=1e-9)
    # the map matters: read as the identity, the same roots score otherwise
    assert max(abs(sequence_loglik(ignored, s) - hmm_loglik(h, s))
               for s in seqs) > 1e-6
    assert m2.to_dict() == m.to_dict()
    assert m2.to_dict()["f_map"] == [0, 1, 2]


@pytest.mark.parametrize("breakage", ["repeated slot", "short map",
                                      "out of range", "not integers",
                                      "short bottom"])
def test_model_document_interface_mismatch_raises(breakage):
    doc = _permuted_document(initial_model(n=2, k=3, seed=24), [1, 2, 0])
    if breakage == "repeated slot":
        doc["f_map"] = [0, 0, 1]
    elif breakage == "short map":
        doc["f_map"] = [1, 0]
    elif breakage == "out of range":
        doc["f_map"] = [1, 2, 3]
    elif breakage == "not integers":
        doc["f_map"] = [1.0, 2, 0]
    else:
        doc["bottom"]["roots"] = doc["bottom"]["roots"][:2]
    with pytest.raises(GraphError):
        DspnModel.from_dict(doc)


def test_dataset_logliks_groups_by_length():
    # one packed batch gives each sequence its own score, in input order:
    # mixed lengths, all of length 1, one long among many short, and none
    rng = np.random.default_rng(18)
    m = random_invariant_model(2, 2, rng)
    for lengths in ((3, 5, 3, 2, 5), (1, 1, 1, 1), (2, 1, 1, 40, 1, 3, 1), ()):
        seqs = [np.stack([[int(rng.integers(a)) for a in m.arities]
                          for _ in range(T)]) for T in lengths]
        got = dataset_logliks(m, seqs)
        want = [sequence_loglik(m, s) for s in seqs]
        assert got.shape == (len(seqs),)
        np.testing.assert_allclose(got, want, atol=1e-12)


# -- sampling ---------------------------------------------------------------------

def _deterministic_model():
    b = GraphBuilder(1, (2,), 1)
    u = b.sum([b.indicator(0, 1), b.indicator(0, 0)], [1.0, 0.0])
    mix = b.sum([b.interface_input(0)], [1.0])
    t = TemplateNetwork(b.build([b.product([u, mix])]))
    return DspnModel(derive_bottom(t), t,
                     build_top(1, (2,), 1, [1.0]))


def test_deterministic_model_samples_unique_sequence():
    m = _deterministic_model()
    rng = np.random.default_rng(19)
    for _ in range(10):
        s = sample(m, 4, rng)
        np.testing.assert_array_equal(s, np.ones((4, 1)))


def test_sample_marginal_matches_exact():
    m = initial_model(n=1, k=2, seed=20)
    rng = np.random.default_rng(21)
    draws = np.stack([sample(m, 2, rng) for _ in range(20_000)])
    emp = draws[:, 0, 0].mean()
    exact = conditional_query(unroll(m, 2),
                              Evidence.observing(2, {0: 1}),
                              Evidence.marginalized(2))
    assert abs(emp - exact) < 0.01


def test_samples_score_higher_than_uniform_noise():
    rng = np.random.default_rng(22)
    m = random_invariant_model(2, 2, rng)
    own = [sample(m, 6, rng) for _ in range(300)]
    noise = [np.stack([[int(rng.integers(a)) for a in m.arities]
                       for _ in range(6)]) for _ in range(300)]
    assert dataset_logliks(m, own).mean() >= dataset_logliks(m, noise).mean()


# -- serialization -------------------------------------------------------------------

def test_model_document_round_trip():
    m = initial_model(n=2, k=3, seed=23)
    doc = json.loads(json.dumps(m.to_dict()))
    m2 = DspnModel.from_dict(doc)
    seq = np.array([[0, 1], [1, 1], [0, 0]])
    assert sequence_loglik(m2, seq) == pytest.approx(
        sequence_loglik(m, seq), abs=1e-15)
