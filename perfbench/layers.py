"""Where the traced run puts its spans, and the per-layer metrics it
derives from them.

Each wrap names the binding a caller looks up at call time: ``forward`` in
``dspn.dynamic`` is what ``rolling_forward`` calls, ``train_weights`` in
``dspn.structure`` is what ``search`` calls.  The benchmark's own calls go
through module attributes, so wrapping ``dspn.dynamic.dataset_logliks``
also covers them.
"""

from __future__ import annotations

from collections import Counter, defaultdict

# Calls that score or collect statistics over a whole dataset; each does one
# rolling pass per distinct sequence length.
DATASET_CALLS = {"dynamic.dataset_logliks", "structure.score_val",
                 "structure.score_train", "structure.score_other",
                 "training.estep"}


def install(tracer, st: dict) -> None:
    """Wrap the dspn layer boundaries.  ``st`` receives the loaded inputs
    once the repetition has loaded them; the structure layer's scoring
    calls are told apart by whether their argument is the training or the
    validation list."""

    def structure_score(args):
        if "train" in st and args[1] is st["train"].sequences:
            return "structure.score_train"
        if "validation" in st and args[1] is st["validation"].sequences:
            return "structure.score_val"
        return "structure.score_other"

    node_rows = lambda a, k, r: r.shape       # (n_nodes, batch)
    w = tracer.wrap
    w("dspn.dynamic", "forward", "inference.forward", node_rows)
    w("dspn.inference", "forward", "inference.forward", node_rows)
    w("dspn.training", "backward", "inference.backward")
    w("dspn.training", "sum_edge_statistics", "inference.edge_stats")
    w("dspn.dynamic", "rolling_forward", "dynamic.rolling_forward")
    w("dspn.training", "rolling_forward", "dynamic.rolling_forward")
    w("dspn.dynamic", "dataset_logliks", "dynamic.dataset_logliks")
    w("dspn.dynamic", "sequence_loglik", "dynamic.sequence_loglik")
    w("dspn.dynamic", "verify_model_validity", "dynamic.verify")
    w("dspn.structure", "derive_bottom", "dynamic.derive_bottom")
    w("dspn.cli", "unroll", "dynamic.unroll", lambda a, k, r: len(r))
    w("dspn.training", "collect_statistics", "training.estep")
    w("dspn.training", "em_step", "training.em_step")
    train_cap = lambda a, k, r: a[2].iterations
    w("dspn.training", "train", "training.train", train_cap)
    w("dspn.structure", "train_weights", "training.train", train_cap)
    w("dspn.structure", "search", "structure.search")
    w("dspn.structure", "initial_structure", "structure.initial")
    w("dspn.structure", "generate_neighbour", "structure.propose")
    w("dspn.structure", "dataset_logliks", structure_score)
    w("dspn.structure", "get_partition", "partitions.get_partition")
    w("dspn.partitions", "g_test", "partitions.g_test")
    w("dspn.hmm", "baum_welch", "hmm.baum_welch", lambda a, k, r: len(r[1]))
    w("dspn.hmm", "hmm_dataset_loglik", "hmm.dataset_loglik")
    w("dspn.hmm", "hmm_loglik", "hmm.loglik")
    w("dspn.data", "load_dataset", "data.load_dataset",
      lambda a, k, r: sum(r.lengths()))
    w("dspn.data", "load_model", "data.load_model")
    w("dspn.data", "load_hmm", "data.load_hmm")
    w("dspn.cli", "main", "cli.main")
    w("dspn.cli", "cmd_infer", "cli.infer")


def layer_metrics(tracer, reps: int, candidates: list[tuple[bool, int]]) -> dict:
    """Per-layer metrics per repetition of the timed phase.  Counts repeat
    exactly; ratios are per call.  ``candidates``: (accepted, template
    nodes) for each search candidate of the traced repetitions."""
    spans, meta = tracer.spans, tracer.meta
    selfs = tracer.self_times()
    name = [tracer.names[s[0]] for s in spans]
    by: dict[str, list[int]] = defaultdict(list)
    for i, n in enumerate(name):
        by[n].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def parent(i):
        p = spans[i][3]
        return name[p] if p >= 0 else None

    def total(n, where=lambda i: True):
        return sum(dur(i) for i in by[n] if where(i))

    def self_s(n):
        return sum(selfs[i] for i in by[n])

    def ratio(a, b):
        return a / b if b else 0.0

    fw = by["inference.forward"]
    fw_rows = sum(meta[i][1] for i in fw)
    fw_node_rows = sum(meta[i][0] * meta[i][1] for i in fw)
    fw_s = total("inference.forward")

    dataset_calls = sum(len(by[n]) for n in DATASET_CALLS)
    passes = sum(1 for i in by["dynamic.rolling_forward"] if parent(i) in DATASET_CALLS)

    trains = by["training.train"]
    em_children = Counter(spans[i][3] for i in by["training.em_step"]
                          if parent(i) == "training.train")
    early = sum(1 for i in trains if em_children[i] < meta[i])

    in_load = lambda i: parent(i) == "load"
    accepted = sum(1 for a, _ in candidates if a)

    per_rep = {
        "inference.forward_calls": len(fw),
        "inference.forward_s": fw_s,
        "inference.node_rows": fw_node_rows,
        "inference.backward_calls": len(by["inference.backward"]),
        "inference.backward_s": total("inference.backward"),
        "inference.edge_stats_calls": len(by["inference.edge_stats"]),
        "inference.edge_stats_s": total("inference.edge_stats"),
        "dynamic.rolling_forward_calls": len(by["dynamic.rolling_forward"]),
        "dynamic.rolling_forward_self_s": self_s("dynamic.rolling_forward"),
        "dynamic.verify_calls": len(by["dynamic.verify"]),
        "dynamic.verify_s": total("dynamic.verify"),
        "dynamic.derive_bottom_s": total("dynamic.derive_bottom"),
        "dynamic.unroll_s": total("dynamic.unroll"),
        "dynamic.unrolled_nodes": sum(meta[i] for i in by["dynamic.unroll"]),
        "training.estep_calls": len(by["training.estep"]),
        "training.estep_self_s": self_s("training.estep"),
        "training.mstep_s": self_s("training.em_step"),
        "structure.initial_s": total("structure.initial"),
        "structure.propose_s": total("structure.propose"),
        "structure.candidate_train_s": total(
            "training.train", lambda i: parent(i) == "structure.search"),
        "structure.score_val_s": total("structure.score_val"),
        "structure.score_train_s": total("structure.score_train"),
        "structure.candidates": len(candidates),
        "partitions.get_partition_calls": len(by["partitions.get_partition"]),
        "partitions.get_partition_s": total("partitions.get_partition"),
        "partitions.gtest_calls": len(by["partitions.g_test"]),
        "hmm.baum_welch_s": total("hmm.baum_welch"),
        "hmm.bw_iters": sum(meta[i] for i in by["hmm.baum_welch"]),
        "hmm.dataset_loglik_s": total("hmm.dataset_loglik"),
        "hmm.loglik_calls": len(by["hmm.loglik"]),
        "data.load_dataset_s": total("data.load_dataset", in_load),
        "data.load_model_s": total("data.load_model", in_load),
        "data.slices_parsed": sum(meta[i] for i in by["data.load_dataset"] if in_load(i)),
        "cli.infer_self_s": self_s("cli.infer"),
    }
    out = {k: v / reps for k, v in per_rep.items()}
    out.update({
        "inference.forward_rows_per_call": ratio(fw_rows, len(fw)),
        "inference.ns_per_node_row": ratio(fw_s * 1e9, fw_node_rows),
        "dynamic.rolling_passes_per_dataset_call": ratio(passes, dataset_calls),
        "training.em_iters_per_train": ratio(sum(em_children.values()), len(trains)),
        "training.early_stop_ratio": ratio(early, len(trains)),
        "structure.accept_ratio": ratio(accepted, len(candidates)),
        "structure.template_nodes_mean": ratio(sum(n for _, n in candidates),
                                               len(candidates)),
    })
    return out
