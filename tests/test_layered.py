"""The layered kernels against the per-node reference recursion and joint
enumeration, plus the compiled layers' weight cache.

Like every test in the suite (``filterwarnings`` in ``pyproject.toml``),
these fail on any RuntimeWarning, so a pass that produces NaN
(``-inf - -inf``) or an unguarded log(0) is caught even where it would
not change the result.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dspn import dynamic
from dspn.dynamic import (dataset_logliks, induced_assignment, pack_sequences,
                          rolling_forward, sequence_loglik, unroll)
from dspn.graph import GraphBuilder
from dspn.hmm import hmm_sample, hmm_to_model, random_hmm
from dspn.inference import Evidence, backward, forward, sum_edge_statistics
from dspn.training import (NumericalUnderflow, TrainConfig,
                           collect_statistics, em_step)
from helpers import (enumeration_loglik, random_invariant_model,
                     random_valid_spn, reference_backward,
                     reference_edge_statistics, reference_forward,
                     unrolled_reference_statistics)

REL = 1e-9
# Above this many completions the enumeration oracle is skipped.
MAX_COMPLETIONS = 4096

seeds = st.integers(0, 2**32 - 1)
# Share of observed values per evidence row: all missing, some, all.
row_rates = st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=4)


def assert_close(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert not np.isnan(got).any()
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(want))
    finite = np.isfinite(want)
    err = np.abs(got[finite] - want[finite]) / np.maximum(np.abs(want[finite]), 1.0)
    assert err.max(initial=0.0) <= REL


def evidence_rows(rng, arities, rates):
    """One row per rate; each value is observed with that probability."""
    rows = np.full((len(rates), len(arities)), -1, dtype=np.int64)
    for r, rate in enumerate(rates):
        for v, a in enumerate(arities):
            if rng.random() < rate:
                rows[r, v] = int(rng.integers(a))
    return rows


def completions(row, arities):
    return int(np.prod([a for v, a in zip(row, arities) if v == -1]))


def zero_one_weight(g, rng):
    """Set one sum edge's weight to zero so ``-inf`` log-weights and
    zero-probability rows reach the kernels."""
    i = int(rng.choice(g.sum_ids()))
    w = g.nodes[i].weights.copy()
    if len(w) > 1:
        w[int(rng.integers(len(w)))] = 0.0
        g.set_weights(i, w / w.sum())


@given(seed=seeds, n_vars=st.integers(1, 6), rates=row_rates,
       zero_weight=st.booleans())
def test_static_kernels_match_reference(seed, n_vars, rates, zero_weight):
    rng = np.random.default_rng(seed)
    arities = tuple(int(a) for a in rng.integers(2, 4, n_vars))
    g = random_valid_spn(n_vars, rng, arities)
    if zero_weight:
        zero_one_weight(g, rng)
    ev = evidence_rows(rng, arities, rates)

    values = forward(g, ev)
    ref_values = reference_forward(g, ev)
    assert_close(values, ref_values)
    derivs = backward(g, values)
    ref_derivs = reference_backward(g, ref_values)
    assert_close(derivs, ref_derivs)
    root = values[g.roots[0]]
    stats = sum_edge_statistics(g, values, derivs, root)
    want = reference_edge_statistics(g, ref_values, ref_derivs,
                                     ref_values[g.roots[0]])
    assert stats.keys() == want.keys()
    for i in stats:
        assert_close(stats[i], want[i])
    for r, row in enumerate(ev):
        if completions(row, arities) <= MAX_COMPLETIONS:
            assert_close(root[r], enumeration_loglik(g, Evidence(row)))


@given(seed=seeds, n_vars=st.integers(1, 3), k=st.integers(1, 3),
       lengths=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       rate=st.sampled_from([0.0, 0.7, 1.0]))
def test_rolling_kernels_match_unrolled_reference(seed, n_vars, k, lengths, rate):
    # mixed lengths, T=1 and k=1 included; equal lengths share a batch
    rng = np.random.default_rng(seed)
    m = random_invariant_model(n_vars, k, rng)
    seqs = [evidence_rows(rng, m.arities, [rate] * T) for T in lengths]

    got = dataset_logliks(m, seqs)
    for seq, ll in zip(seqs, got):
        g = unroll(m, len(seq))
        flat = seq.reshape(-1)
        assert_close(ll, reference_forward(g, flat)[g.roots[0], 0])
        if completions(flat, g.arities) <= MAX_COMPLETIONS:
            assert_close(ll, enumeration_loglik(g, Evidence(flat)))

    assert_tied_statistics_exact(m, seqs)


def assert_tied_statistics_exact(m, seqs):
    tied = collect_statistics(m, seqs)
    want = {"bottom": {}, "template": {}, "top": {}}
    for T in sorted({len(s) for s in seqs}):
        group = [s for s in seqs if len(s) == T]
        for part, agg in unrolled_reference_statistics(m, group).items():
            for node, counts in agg.items():
                want[part][node] = want[part].get(node, 0.0) + counts
    for part, acc in (("bottom", tied.bottom), ("template", tied.template),
                      ("top", tied.top)):
        for node, counts in acc.items():
            assert_close(counts, want[part].get(node, np.zeros_like(counts)))


@pytest.mark.parametrize("span", [1, 2, 4, 5])
def test_template_statistics_in_blocks_of_slices(monkeypatch, span):
    # T=6 gives 5 template slices: one call per slice, uneven blocks, and
    # exactly one block.  A block holds up to span * (longest batch) rows,
    # so ragged batches put a varying number of slices in a block; rows
    # that end below the top take their seeds from the top.
    rng = np.random.default_rng(26)
    m = random_invariant_model(2, 2, rng)
    for lengths in ((6, 6, 6), (9, 2, 6, 1, 6), (1, 1, 1), (12, 1, 2, 1, 1, 3), ()):
        seqs = [evidence_rows(rng, m.arities, [0.7] * T) for T in lengths]
        monkeypatch.setattr(dynamic, "_STACKED_NODE_ROWS",
                            span * len(m.template.graph) * max(1, len(seqs)))
        assert_tied_statistics_exact(m, seqs)
    tied = collect_statistics(m, [])
    assert tied.total_loglik == 0.0
    for acc in (tied.bottom, tied.template, tied.top):
        assert all((counts == 0).all() for counts in acc.values())


@pytest.mark.parametrize("roots", [(2, 0), (2, 2), (0, 2, 0)])
def test_backward_seeds_roots_that_have_parents(roots):
    # node 0 is both a root and a child; a root may also repeat
    b = GraphBuilder(2, (2, 2), 0)
    u0 = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.3, 0.7])
    u1 = b.sum([b.indicator(1, 0), b.indicator(1, 1)], [0.6, 0.4])
    p = b.product([u0, u1])
    ids = {0: u0, 2: p}
    g = b.build([ids[r] for r in roots])
    ev = np.array([[0, -1], [1, 1], [-1, -1]])
    seeds = np.random.default_rng(25).normal(size=(len(roots), len(ev)))
    values = forward(g, ev)
    assert_close(backward(g, values, seeds), reference_backward(g, values, seeds))


# ---------------------------------------------------------------------------
# one sequence: the transfer-matrix chain
# ---------------------------------------------------------------------------

def rolled(m, seq):
    return rolling_forward(m, pack_sequences([seq], m.n_vars))[0][0]


def unrolled(m, seq):
    g = unroll(m, len(seq))
    return reference_forward(g, seq.reshape(-1))[g.roots[0], 0]


@given(seed=seeds, n_vars=st.integers(1, 3), k=st.integers(1, 3),
       T=st.integers(1, 6), zero_weight=st.booleans())
def test_one_row_path_matches_rolling_and_unrolled(seed, n_vars, k, T,
                                                   zero_weight):
    # each slice all missing, partly observed or fully observed; T=1, k=1
    # and zeroed weights included
    rng = np.random.default_rng(seed)
    m = random_invariant_model(n_vars, k, rng)
    if zero_weight:
        zero_one_weight(m.template.graph, rng)
    seq = evidence_rows(rng, m.arities, rng.choice([0.0, 0.5, 1.0], T))
    got = dataset_logliks(m, [seq])
    assert got.shape == (1,)
    assert_close(got[0], unrolled(m, seq))
    assert_close(got[0], rolled(m, seq))
    assert sequence_loglik(m, seq) == got[0]
    # every root mixes one class's inputs; only the top multiplies classes
    classes = len(set(induced_assignment(m)[0].atom_of_slot))
    assert m.template.graph.compiled().inputs_linear
    assert m.top.graph.compiled().inputs_linear == (classes == 1)
    if classes > 1:  # products of inputs: the rolling pass, bit for bit
        assert got[0] == rolled(m, seq)


@given(seed=seeds, states=st.integers(1, 4), T=st.integers(1, 40),
       rate=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_one_row_path_matches_hmm_encoding(seed, states, T, rate):
    rng = np.random.default_rng(seed)
    m = hmm_to_model(random_hmm(states, (2, 3), rng))
    assert m.template.graph.compiled().inputs_linear
    assert m.top.graph.compiled().inputs_linear
    seq = hmm_sample(random_hmm(states, (2, 3), rng), T, rng)
    seq[rng.random(seq.shape) < rate] = -1
    got = sequence_loglik(m, seq)
    assert_close(got, rolled(m, seq))
    assert_close(got, unrolled(m, seq))


@pytest.mark.parametrize("span", [1, 2, 3, 7])
def test_one_row_path_in_blocks_of_slices(monkeypatch, span):
    # the basis forward runs span slices at a time; T=7 gives 6 template
    # slices: one per call, uneven blocks, exactly one block
    rng = np.random.default_rng(27)
    m = hmm_to_model(random_hmm(3, (2, 2), rng))
    seq = evidence_rows(rng, m.arities, [0.8] * 7)
    want = rolled(m, seq)
    monkeypatch.setattr(dynamic, "_STACKED_NODE_ROWS",
                        span * len(m.template.graph) * m.k)
    assert_close(sequence_loglik(m, seq), want)


def test_one_row_path_scores_impossible_evidence_minus_inf():
    # EM without smoothing zeroes the weight of a value never seen
    rng = np.random.default_rng(28)
    for m in (random_invariant_model(1, 2, rng), random_invariant_model(1, 1, rng)):
        unseen = [np.zeros((T, 1), dtype=np.int64) for T in (2, 3)]
        for _ in range(2):
            em_step(m, unseen, TrainConfig(iterations=1, laplace_alpha=0.0))
        for seq in ([[1]], [[0], [1]], [[0], [1], [0]], [[0], [-1], [0]]):
            seq = np.array(seq)
            got = sequence_loglik(m, seq)
            assert not np.isnan(got)
            assert np.isneginf(got) == (seq == 1).any()
            assert_close(got, rolled(m, seq))
            assert_close(got, unrolled(m, seq))


def test_one_row_path_sees_set_weights():
    rng = np.random.default_rng(29)
    m = hmm_to_model(random_hmm(3, (2, 2), rng))
    seq = evidence_rows(rng, m.arities, [0.7] * 9)
    before = sequence_loglik(m, seq)  # compiles all three parts
    for part in (m.bottom.graph, m.template.graph, m.top.graph):
        for i in part.sum_ids():
            part.set_weights(i, rng.dirichlet(np.ones(len(part.nodes[i].children))))
    after = sequence_loglik(m, seq)
    assert after != before
    assert_close(after, unrolled(m, seq))
    assert_close(after, rolled(m, seq))


@pytest.mark.parametrize("roots, linear", [
    (lambda b, x, leaf, mix: [b.product([leaf, mix])], True),
    (lambda b, x, leaf, mix: [x[0], b.product([x[1], leaf])], True),
    (lambda b, x, leaf, mix: [b.product(x)], False),  # product of inputs
    (lambda b, x, leaf, mix: [b.sum([x[0], leaf], [0.5, 0.5]), mix],
     False),  # a sum mixing an input with a constant
    (lambda b, x, leaf, mix: [mix, leaf], False),  # a root without inputs
])
def test_linearity_in_inputs(roots, linear):
    b = GraphBuilder(1, (2,), 2)
    x = [b.interface_input(0), b.interface_input(1)]
    leaf = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.4, 0.6])
    mix = b.sum(x, [0.5, 0.5])
    assert b.build(roots(b, x, leaf, mix)).compiled().inputs_linear == linear


@pytest.mark.parametrize("seed", range(20))
def test_one_row_scores_after_unsmoothed_em_are_finite(seed):
    # four states over three binary variables, EM without smoothing, and
    # ten held-out sequences of lengths 20-120 with 5% missing: each
    # scored alone is finite and equals its row of the ten-row batch
    rng = np.random.default_rng(seed)
    gen = random_hmm(4, (2, 2, 2), rng)
    m = hmm_to_model(gen)
    lengths = np.rint(np.linspace(20, 120, 10)).astype(int)

    def draw():
        seqs = [hmm_sample(gen, int(T), rng) for T in rng.permutation(lengths)]
        for s in seqs:
            s[rng.random(s.shape) < 0.05] = -1
        return seqs

    train, heldout = draw(), draw()
    for _ in range(4):
        em_step(m, train, TrainConfig(iterations=1, laplace_alpha=0.0))
    batch = dataset_logliks(m, heldout)
    alone = np.array([dataset_logliks(m, [s])[0] for s in heldout])
    assert np.isfinite(alone).all()
    np.testing.assert_allclose(alone, batch, rtol=1e-9, atol=0)


# ---------------------------------------------------------------------------
# the compiled log-weight vector
# ---------------------------------------------------------------------------

def test_forward_sees_set_weights():
    rng = np.random.default_rng(20)
    g = random_valid_spn(5, rng)
    ev = evidence_rows(rng, g.arities, [0.5, 1.0, 0.0])
    forward(g, ev)  # compiles
    for i in g.sum_ids():
        g.set_weights(i, rng.dirichlet(np.ones(len(g.nodes[i].children))))
    assert_close(forward(g, ev), reference_forward(g, ev))


def test_forward_sees_em_step():
    rng = np.random.default_rng(21)
    m = random_invariant_model(2, 2, rng)
    seqs = [evidence_rows(rng, m.arities, [1.0] * T) for T in (3, 3, 5)]
    before = dataset_logliks(m, seqs)  # compiles all three parts
    em_step(m, seqs, TrainConfig(iterations=1, laplace_alpha=0.0))
    after = dataset_logliks(m, seqs)
    assert after.sum() > before.sum()
    for seq, ll in zip(seqs, after):
        g = unroll(m, len(seq))
        assert_close(ll, reference_forward(g, seq.reshape(-1))[g.roots[0], 0])


def test_graph_copy_owns_its_weights():
    rng = np.random.default_rng(22)
    g = random_valid_spn(4, rng)
    ev = evidence_rows(rng, g.arities, [1.0, 0.5])
    original = forward(g, ev)
    h = g.copy()
    forward(h, ev)
    assert not np.shares_memory(h.compiled().log_weights, g.compiled().log_weights)
    i = g.sum_ids()[0]
    h.set_weights(i, rng.dirichlet(np.ones(len(h.nodes[i].children))))
    np.testing.assert_array_equal(forward(g, ev), original)
    assert_close(forward(h, ev), reference_forward(h, ev))


def test_model_copies_do_not_corrupt_each_other():
    # search trains candidates that are copies of the accepted model
    rng = np.random.default_rng(23)
    m = random_invariant_model(2, 2, rng)
    seqs = [evidence_rows(rng, m.arities, [1.0] * 4) for _ in range(3)]
    original = dataset_logliks(m, seqs)
    candidate = m.copy()
    for part in ("bottom", "template", "top"):
        a = getattr(m, part).graph.compiled().log_weights
        b = getattr(candidate, part).graph.compiled().log_weights
        assert not np.shares_memory(a, b)
    em_step(candidate, seqs, TrainConfig(iterations=1, laplace_alpha=0.0))
    np.testing.assert_array_equal(dataset_logliks(m, seqs), original)
    assert dataset_logliks(candidate, seqs).sum() > original.sum()


def test_zeroed_edge_raises_underflow_without_nan():
    # EM without smoothing zeroes the weight of a value never seen; data
    # that then shows the value has probability zero
    rng = np.random.default_rng(24)
    m = random_invariant_model(1, 2, rng)
    unseen = [np.zeros((T, 1), dtype=np.int64) for T in (2, 3)]
    cfg = TrainConfig(iterations=1, laplace_alpha=0.0)
    for _ in range(2):
        em_step(m, unseen, cfg)
    hits = unseen + [np.array([[0], [1], [0]])]
    lls, kept = rolling_forward(m, pack_sequences(hits[2:], 1), keep_values=True)
    assert np.isneginf(lls).all()
    for part in (kept[0], kept[1], kept[2]):
        assert not np.isnan(part).any()
    with pytest.raises(NumericalUnderflow):
        collect_statistics(m, hits)
