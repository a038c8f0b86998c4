"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criteria 6, 7 and 10 share one structure-learning benchmark (the module
fixture below); its first fold runs the full 200 iterations so the
invariance-preservation check covers a complete run.
"""

import itertools
import time
from collections import defaultdict

import numpy as np
import pytest

from dspn.data import SequenceDataset, fold_indices, split
from dspn.dynamic import (DspnModel, check_invariance, dataset_logliks,
                          derive_bottom, sequence_loglik, unroll,
                          unroll_with_provenance, verify_model_validity)
from dspn.graph import check_validity
from dspn.hmm import (baum_welch, hmm_dataset, hmm_dataset_loglik, hmm_loglik,
                      hmm_sample, hmm_to_model, random_hmm)
from dspn.inference import (Evidence, backward, conditional_query, forward,
                            sum_edge_statistics)
from dspn.partitions import RgsCursor, decode_rgs, encode_rgs
from dspn.structure import SearchConfig, build_initial_template, build_top, \
    search
from dspn.training import TrainConfig, collect_statistics, em_step, \
    tied_weight_gradients, train
from helpers import (enumeration_loglik, random_evidence,
                     random_invariant_model, random_valid_spn)


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    return ok


# ---------------------------------------------------------------------------
# criterion 1: invariant templates unroll to valid circuits
# ---------------------------------------------------------------------------

def test_c1_unrolled_validity():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        m = random_invariant_model(n, k, rng)
        assert verify_model_validity(m).ok
        for T in range(1, 21):
            assert check_validity(unroll(m, T)).ok, (n, k, T)
            checked += 1
    assert report("C1 unrolled validity on 100 models x T=1..20",
                  checked == 2000, f"{checked} unrollings clean")


# ---------------------------------------------------------------------------
# criterion 2: inference matches joint enumeration
# ---------------------------------------------------------------------------

def test_c2_inference_exactness():
    rng = np.random.default_rng(102)
    worst_eval, worst_cond = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        g = random_valid_spn(n, rng)
        ev = random_evidence(n, g.arities, rng)
        got = float(forward(g, ev.values)[g.roots[0], 0])
        want = enumeration_loglik(g, ev)
        if want != -np.inf:
            # absolute comparison when the log value sits at 0 (probability 1)
            worst_eval = max(worst_eval, abs(got - want) / max(abs(want), 1.0))
        # conditional on two distinct variables
        q_var, g_var = rng.choice(n, size=2, replace=False)
        q = Evidence.observing(n, {int(q_var): int(rng.integers(2))})
        gv = Evidence.observing(n, {int(g_var): int(rng.integers(2))})
        got_p = conditional_query(g, q, gv)
        want_p = np.exp(enumeration_loglik(g, q.merge(gv))
                        - enumeration_loglik(g, gv))
        worst_cond = max(worst_cond, abs(got_p - want_p) / max(want_p, 1e-12))
    ok = worst_eval < 1e-9 and worst_cond < 1e-9
    assert report("C2 inference matches enumeration on 200 circuits", ok,
                  f"worst rel err eval={worst_eval:.2e} cond={worst_cond:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: hand-built encoding of a 2-state generator is exact
# ---------------------------------------------------------------------------

def test_c3_hmm_equivalence():
    rng = np.random.default_rng(103)
    h = random_hmm(2, (2,), rng)
    m = hmm_to_model(h)
    worst = 0.0
    for _ in range(100):
        seq = hmm_sample(h, 100, rng)
        worst = max(worst, abs(sequence_loglik(m, seq) - hmm_loglik(h, seq)))
    assert report("C3 sequence model equals forward recursion", worst < 1e-9,
                  f"worst abs err {worst:.2e} over 100 length-100 sequences")


# ---------------------------------------------------------------------------
# criterion 4: EM is monotone and tied statistics are exact
# ---------------------------------------------------------------------------

def test_c4_em_correctness():
    rng = np.random.default_rng(104)
    cfg = TrainConfig(iterations=1, laplace_alpha=0.0)
    worst_drop = 0.0
    for _ in range(20):
        m = random_invariant_model(int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)), rng)
        data = [np.stack([[int(rng.integers(a)) for a in m.arities]
                          for _ in range(int(rng.integers(2, 6)))])
                for _ in range(20)]
        lls = []
        for _ in range(50):
            m, ll = em_step(m, data, cfg)
            lls.append(ll)
        worst_drop = max(worst_drop, float(-np.diff(lls).min()))
    monotone = worst_drop <= 1e-8

    worst_rel = 0.0
    for _ in range(6):
        m = random_invariant_model(int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)), rng)
        T = int(rng.integers(2, 9))
        data = [np.stack([[int(rng.integers(a)) for a in m.arities]
                          for _ in range(T)]) for _ in range(10)]
        tied = collect_statistics(m, data)
        g, prov = unroll_with_provenance(m, T)
        vals = forward(g, np.stack([s.reshape(-1) for s in data]))
        ders = backward(g, vals)
        ref = sum_edge_statistics(g, vals, ders, vals[g.roots[0]])
        agg = {"bottom": defaultdict(float), "template": defaultdict(float),
               "top": defaultdict(float)}
        for new_id, (part, copy, src) in enumerate(prov):
            if new_id in ref:
                agg[part][src] = agg[part][src] + ref[new_id]
        for part, acc in (("bottom", tied.bottom), ("template", tied.template),
                          ("top", tied.top)):
            for node, counts in acc.items():
                want = agg[part][node]
                rel = np.abs(counts - want) / np.maximum(np.abs(want), 1e-12)
                worst_rel = max(worst_rel, float(rel.max()))
    tying = worst_rel < 1e-9
    assert report("C4 EM monotone + tied statistics exact",
                  monotone and tying,
                  f"worst LL drop {worst_drop:.2e}, worst stat rel {worst_rel:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: tied gradients match central finite differences
# ---------------------------------------------------------------------------

def test_c5_gradient_correctness():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(10):
        m = random_invariant_model(int(rng.integers(1, 4)),
                                   int(rng.integers(1, 4)), rng)
        T = 5
        data = [np.stack([[int(rng.integers(a)) for a in m.arities]
                          for _ in range(T)]) for _ in range(4)]
        grads = tied_weight_gradients(m, data)
        h = 1e-5
        for graph, acc in ((m.bottom.graph, grads.bottom),
                           (m.template.graph, grads.template),
                           (m.top.graph, grads.top)):
            for node, got in acc.items():
                w0 = graph.nodes[node].weights.copy()
                for j in range(len(w0)):
                    w = w0.copy()
                    w[j] = w0[j] + h
                    graph.set_weights(node, w)
                    hi = sum(sequence_loglik(m, s) for s in data)
                    w[j] = w0[j] - h
                    graph.set_weights(node, w)
                    lo = sum(sequence_loglik(m, s) for s in data)
                    graph.set_weights(node, w0)
                    fd = (hi - lo) / (2 * h)
                    scale = max(abs(fd), abs(got[j]), 1e-8)
                    worst = max(worst, abs(fd - got[j]) / scale)
    assert report("C5 gradients match finite differences on 10 models at T=5",
                  worst < 1e-4, f"worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# criteria 6, 7, 10: the structure-learning benchmark
# ---------------------------------------------------------------------------

BENCH_SEED = 7


@pytest.fixture(scope="module")
def structure_benchmark():
    rng = np.random.default_rng(BENCH_SEED)
    generator = random_hmm(2, (2,), rng, concentration=0.8)
    ds = SequenceDataset(hmm_dataset(generator, 500, 50, rng), (2,),
                         name="bench")
    folds = fold_indices(len(ds), 5)
    verification = []          # (fold, iteration, invariant, verified)
    iteration_counts = []
    dspn_nll, hmm_nll, true_nll = [], [], []
    for fold_no, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(len(ds)), test_idx)
        test = ds.subset(test_idx)
        pool = ds.subset(train_idx)
        train_set, val_set = split(pool, 0.15)
        # the first fold runs the full 200 iterations so that every accepted
        # candidate along a 200-iteration run is verified
        patience = 200 if fold_no == 0 else 10
        cfg = SearchConfig(seed=BENCH_SEED + fold_no, max_iters=200,
                           patience=patience, em_iters=8, max_k=8)

        def on_candidate(it, model, accepted, score, fold=fold_no):
            if accepted:
                verification.append(
                    (fold, it, check_invariance(model.template).ok,
                     verify_model_validity(model).ok))

        model, trace = search(train_set, val_set, cfg, callback=on_candidate)
        iteration_counts.append(len(trace) - 1)
        model = train(model, pool.sequences,
                      TrainConfig(iterations=200, laplace_alpha=0.1))
        dspn_nll.append(-float(dataset_logliks(model, test.sequences).mean()))
        fitted, _ = baum_welch(pool.sequences, 2, (2,), iterations=100,
                               alpha=0.05, seed=BENCH_SEED + fold_no)
        hmm_nll.append(-float(hmm_dataset_loglik(fitted, test.sequences).mean()))
        true_nll.append(-float(hmm_dataset_loglik(generator,
                                                  test.sequences).mean()))
    return {
        "dspn": np.array(dspn_nll),
        "hmm": np.array(hmm_nll),
        "true": np.array(true_nll),
        "verification": verification,
        "iterations": iteration_counts,
    }


def test_c6_structure_learning_matches_generator(structure_benchmark):
    b = structure_benchmark
    dspn, true = b["dspn"].mean(), b["true"].mean()
    gap = (dspn - true) / true
    assert report("C6 learned model within 5% of the generating process",
                  gap < 0.05,
                  f"true {true:.3f} vs learned {dspn:.3f}, gap {gap * 100:.2f}%")


def test_c7_baseline_ordering(structure_benchmark):
    b = structure_benchmark
    dspn, hmm = b["dspn"].mean(), b["hmm"].mean()
    ok = dspn <= hmm * 1.02
    assert report("C7 learned model not worse than Baum-Welch + 2%", ok,
                  f"learned {dspn:.3f} vs baum-welch {hmm:.3f}")


def test_c10_invariance_preserved_along_search(structure_benchmark):
    b = structure_benchmark
    full_run = b["iterations"][0]
    accepted = [v for v in b["verification"]]
    all_ok = all(inv and ver for _, _, inv, ver in accepted)
    assert report("C10 every accepted candidate stays invariant",
                  all_ok and full_run == 200 and len(accepted) > 0,
                  f"{len(accepted)} accepted candidates verified; "
                  f"first run length {full_run}")


# ---------------------------------------------------------------------------
# criterion 8: inference time is linear in sequence length
# ---------------------------------------------------------------------------

def test_c8_linear_time_inference():
    rng = np.random.default_rng(108)
    n, k = 2, 2
    arities = (2, 2)
    univ = [[rng.dirichlet(np.full(2, 2.0)) for _ in range(n)] for _ in range(k)]
    mix = [rng.dirichlet(np.full(k, 2.0)) for _ in range(k)]
    t = build_initial_template(n, arities, k, univ, mix)
    m = DspnModel(derive_bottom(t), t,
                  build_top(n, arities, k, rng.dirichlet(np.full(k, 2.0))))

    short_seq = rng.integers(0, 2, (200, n))
    long_seq = rng.integers(0, 2, (2000, n))

    def seconds(seq):
        t0 = time.perf_counter()
        sequence_loglik(m, seq)
        return time.perf_counter() - t0

    seconds(short_seq)  # warm up
    seconds(long_seq)
    # Each ratio divides a T=2000 call by a T=200 call made right after it:
    # on a shared host the CPU speed drifts by up to 1.5x within seconds,
    # so timings taken far apart would compare different machines.  The
    # median over pairs discards the pairs that a drift or a stall split.
    ratios = [seconds(long_seq) / seconds(short_seq) for _ in range(21)]
    ratio = float(np.median(ratios))
    assert report("C8 wall-clock scales linearly in length",
                  8.0 <= ratio <= 12.0,
                  f"time(T=2000)/time(T=200) = {ratio:.2f}")


# ---------------------------------------------------------------------------
# criterion 9: partition enumeration counts and round trip
# ---------------------------------------------------------------------------

def test_c9_partition_enumeration():
    bells = [1, 2, 5, 15, 52, 203, 877, 4140]
    ok = True
    for m, want in zip(range(1, 9), bells):
        cursor = RgsCursor(range(m))
        seen = []
        while (p := cursor.next_partition()) is not None:
            seen.append(p)
            assert decode_rgs(encode_rgs(p), tuple(range(m))) == p
        ok = ok and len(seen) == want and len(set(seen)) == want
    assert report("C9 enumeration counts equal partition numbers 1..8 "
                  "and decode/encode round-trips", ok)
