import numpy as np
import pytest

from dspn.graph import GraphBuilder, check_validity
from dspn.inference import (DisjointnessError, Evidence, ZeroEvidence,
                            backward, conditional_query, forward,
                            sum_edge_statistics)
from helpers import enumeration_loglik, random_evidence, random_valid_spn


def single_sum(w=0.3):
    b = GraphBuilder(1, (2,), 0)
    root = b.sum([b.indicator(0, 1), b.indicator(0, 0)], [w, 1 - w])
    return b.build([root]), root


def root_log(g, ev):
    return forward(g, ev.values)[g.roots[0], 0]


def edge_pass(g, ev):
    """Forward log-values, log-derivatives and edge statistics of one
    evidence row."""
    values = forward(g, ev.values)
    derivs = backward(g, values)
    stats = sum_edge_statistics(g, values, derivs, values[g.roots[0]])
    return values[:, 0], derivs[:, 0], stats


def test_sum_selects_matching_weight():
    g, _ = single_sum(0.3)
    assert root_log(g, Evidence.observing(1, {0: 1})) == pytest.approx(np.log(0.3))
    assert root_log(g, Evidence.observing(1, {0: 0})) == pytest.approx(np.log(0.7))


def test_full_marginalization_gives_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_valid_spn(int(rng.integers(2, 7)), rng)
        lz = root_log(g, Evidence.marginalized(g.n_vars))
        assert abs(lz) < 1e-9


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    for _ in range(40):
        g = random_valid_spn(8, rng)
        ev = random_evidence(8, g.arities, rng)
        got = root_log(g, ev)
        want = enumeration_loglik(g, ev)
        assert got == pytest.approx(want, rel=1e-9)


def test_completion_sweep_sums_to_evidence_value():
    rng = np.random.default_rng(2)
    g = random_valid_spn(6, rng)
    ev = random_evidence(6, g.arities, rng, p_observed=0.4)
    assert enumeration_loglik(g, ev) == pytest.approx(
        root_log(g, ev), rel=1e-9)


def test_each_node_visited_once():
    # the compiled layers (plus the two leaf gathers) write every node
    # exactly once per forward pass
    rng = np.random.default_rng(3)
    g = random_valid_spn(5, rng)
    c = g.compiled()
    written = np.concatenate([c.indicator_ids, c.input_ids]
                             + [layer.ids for layer in c.layers])
    np.testing.assert_array_equal(np.sort(written), np.arange(len(g)))


def test_conditional_of_empty_given_is_marginal():
    rng = np.random.default_rng(4)
    g = random_valid_spn(4, rng)
    q = Evidence.observing(4, {1: 1})
    p = conditional_query(g, q, Evidence.marginalized(4))
    assert p == pytest.approx(np.exp(root_log(g, q)), rel=1e-12)


def test_conditional_rejects_overlap():
    rng = np.random.default_rng(5)
    g = random_valid_spn(3, rng)
    with pytest.raises(DisjointnessError):
        conditional_query(g, Evidence.observing(3, {0: 1}),
                          Evidence.observing(3, {0: 1}))


def test_conditional_matches_enumeration():
    rng = np.random.default_rng(6)
    for _ in range(15):
        g = random_valid_spn(5, rng)
        q = Evidence.observing(5, {0: int(rng.integers(2))})
        gv = Evidence.observing(5, {3: int(rng.integers(2))})
        got = conditional_query(g, q, gv)
        num = enumeration_loglik(g, q.merge(gv))
        den = enumeration_loglik(g, gv)
        assert got == pytest.approx(np.exp(num - den), rel=1e-9)
        assert -1e-9 <= got <= 1 + 1e-9


def test_zero_evidence_raises():
    b = GraphBuilder(1, (2,), 0)
    root = b.sum([b.indicator(0, 1), b.indicator(0, 0)], [1.0, 0.0])
    g = b.build([root])
    with pytest.raises(ZeroEvidence):
        conditional_query(g, Evidence.marginalized(1), Evidence.observing(1, {0: 0}))


def test_backprop_trivial_sum():
    # d log S / d w = stats / w: 1 / 0.3 on the matching edge, 0 elsewhere
    g, root = single_sum(0.3)
    _, _, stats = edge_pass(g, Evidence.observing(1, {0: 1}))
    grads = stats[root] / g.nodes[root].weights
    np.testing.assert_allclose(grads, [1.0 / 0.3, 0.0], atol=1e-12)


def test_gradients_match_finite_differences():
    # edge statistics divided by the weights are the log-likelihood
    # gradients
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = random_valid_spn(int(rng.integers(2, 6)), rng)
        ev = random_evidence(g.n_vars, g.arities, rng)
        _, _, stats = edge_pass(g, ev)
        grads = {i: stats[i] / g.nodes[i].weights for i in g.sum_ids()}
        h = 1e-5
        for i in g.sum_ids():
            w0 = g.nodes[i].weights.copy()
            for j in range(len(w0)):
                w = w0.copy()
                w[j] = w0[j] + h
                g.set_weights(i, w)
                hi = root_log(g, ev)
                w[j] = w0[j] - h
                g.set_weights(i, w)
                lo = root_log(g, ev)
                g.set_weights(i, w0)
                fd = (hi - lo) / (2 * h)
                scale = max(abs(fd), abs(grads[i][j]), 1e-8)
                assert abs(fd - grads[i][j]) / scale < 1e-4


def test_edge_statistics_are_posteriors():
    # live sum node: per-node statistics sum to its posterior responsibility,
    # and root-children responsibilities sum to one
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_valid_spn(4, rng)
        ev = random_evidence(4, g.arities, rng, p_observed=0.5)
        values, derivs, edge_stats = edge_pass(g, ev)
        root = g.roots[0]
        if g.nodes[root].kind.name == "SUM":
            assert edge_stats[root].sum() == pytest.approx(1.0, rel=1e-9)
        for i, stats in edge_stats.items():
            # responsibility of node i = w-weighted children mass over S
            d_i = derivs[i]
            v_i = values[i]
            S = values[root]
            expected = np.exp(d_i + v_i - S)
            assert stats.sum() == pytest.approx(expected, rel=1e-8, abs=1e-12)


def test_log_zero_paths_produce_no_nan():
    b = GraphBuilder(2, (2, 2), 0)
    u0 = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [1.0, 0.0])
    u1 = b.sum([b.indicator(1, 0), b.indicator(1, 1)], [0.5, 0.5])
    p = b.product([u0, u1])
    g = b.build([p])
    ev = Evidence.observing(2, {0: 1})  # forces the zero-weight branch
    vals = forward(g, ev.values[None, :])
    ders = backward(g, vals)
    assert not np.isnan(vals).any()
    assert not np.isnan(ders).any()
    stats = sum_edge_statistics(g, vals, ders, vals[g.roots[0]])
    for s in stats.values():
        assert not np.isnan(s).any()


def test_multi_root_backward_needs_seeds():
    b = GraphBuilder(1, (2,), 0)
    s0 = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.5, 0.5])
    s1 = b.sum([b.indicator(0, 0), b.indicator(0, 1)], [0.2, 0.8])
    g = b.build([s0, s1])
    vals = forward(g, Evidence.marginalized(1).values[None, :])
    with pytest.raises(ValueError):
        backward(g, vals)
