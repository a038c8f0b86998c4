"""Command-line surface: validation, unrolling, inference, learning, and a
cross-validated benchmark harness.

Machine-readable output (CSV, model documents) goes to standard output or
to files named by flags; diagnostics go to standard error.  Every
subcommand is deterministic given ``--seed``.  Every subcommand but
``validate`` verifies the model it loads and refuses one that fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import data as dio
from .dynamic import dataset_logliks, unroll, verify_model_validity
from .graph import InvalidGraph, SpnGraph, check_validity
from .hmm import baum_welch, hmm_dataset, hmm_dataset_loglik, random_hmm
from .inference import Evidence, ZeroEvidence, forward
from .structure import IterationRecord, SearchConfig, search
from .training import TrainConfig, train


class CliError(ValueError):
    pass


def _fail(message: str):
    raise CliError(message)


def _load_any_model(path: str, verify: bool = True):
    """Load a ``.spn`` circuit or a ``.dspn`` sequence model; unless
    ``verify`` is off, raise InvalidGraph/InvalidModel with the report if it
    fails verification."""
    if path.endswith(".spn"):
        graph = dio.load_graph(path)
        if verify:
            report = check_validity(graph)
            if not report.ok:
                raise InvalidGraph(report.summary())
        return graph
    if path.endswith(".dspn"):
        return dio.load_model(path, strict=verify)
    _fail(f"cannot tell model type from extension: {path}")


# -- validate -----------------------------------------------------------------

def cmd_validate(args) -> int:
    model = _load_any_model(args.model, verify=False)
    report = check_validity(model) if isinstance(model, SpnGraph) \
        else verify_model_validity(model)
    print(report.summary())
    return 0 if report.ok else 1


# -- unroll ---------------------------------------------------------------------

def cmd_unroll(args) -> int:
    model = dio.load_model(args.model)
    graph = unroll(model, args.slices)
    dio.save_graph(graph, args.output)
    print(f"wrote {args.output}: {len(graph)} nodes, {graph.n_vars} variables",
          file=sys.stderr)
    return 0


# -- infer ----------------------------------------------------------------------

def _parse_assignments(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for part in text.split(","):
        if not part:
            continue
        var, _, val = part.partition("=")
        out[int(var)] = int(val)
    return out


def _scorer(model):
    """Log-likelihoods of a list of sequences: one rolling pass for a
    sequence model, one forward pass over the flattened rows for a circuit."""
    if not isinstance(model, SpnGraph):
        return lambda seqs: dataset_logliks(model, seqs)
    if len(model.roots) != 1:
        _fail("a circuit to score needs a single root")

    def score(seqs):
        rows = [np.asarray(s).reshape(-1) for s in seqs]
        for i, row in enumerate(rows):
            if row.size != model.n_vars:
                _fail(f"sequence {i}: {row.size} values, model expects "
                      f"{model.n_vars}")
        ev = np.array(rows, dtype=np.int64).reshape(-1, model.n_vars)
        return forward(model, ev)[model.roots[0]]
    return score


def cmd_infer(args) -> int:
    model = _load_any_model(args.model)
    ds = dio.load_dataset(args.dataset)
    score = _scorer(model)
    if not args.query:
        lls = score(ds.sequences)
        print("sequence,length,log_likelihood")
        for i, seq in enumerate(ds.sequences):
            print(f"{i},{len(seq)},{lls[i]:.12g}")
        return 0
    # conditional mode: flat variable indices (slice * n_vars + var);
    # queried/conditioned variables must be unobserved in the dataset rows
    query = _parse_assignments(args.query)
    given = _parse_assignments(args.given) if args.given else {}
    given_seqs, joint_seqs = [], []
    for i, seq in enumerate(ds.sequences):
        flat = np.asarray(seq).reshape(-1)
        for v in list(query) + list(given):
            if not 0 <= v < flat.size:
                _fail(f"flat variable index {v} out of range for sequence {i}")
            if flat[v] != -1:
                _fail(f"sequence {i}: variable {v} is observed in the data; "
                      "conditional variables must be missing (-1)")
        given_ev = Evidence(flat).merge(Evidence.observing(flat.size, given))
        joint_ev = given_ev.merge(Evidence.observing(flat.size, query))
        given_seqs.append(given_ev.values.reshape(np.shape(seq)))
        joint_seqs.append(joint_ev.values.reshape(np.shape(seq)))
    log_den = score(given_seqs)
    if np.isneginf(log_den).any():
        raise ZeroEvidence(f"sequence {int(np.argmax(np.isneginf(log_den)))}: "
                           "conditioning evidence has probability zero")
    log_num = score(joint_seqs)
    print("sequence,length,log_numerator,log_denominator,probability")
    for i, seq in enumerate(ds.sequences):
        print(f"{i},{len(seq)},{log_num[i]:.12g},{log_den[i]:.12g},"
              f"{np.exp(log_num[i] - log_den[i]):.12g}")
    return 0


# -- learn-params -----------------------------------------------------------------

def cmd_learn_params(args) -> int:
    model = dio.load_model(args.model)
    ds = dio.load_dataset(args.train)
    cfg = TrainConfig(method=args.method, iterations=args.iters,
                      learning_rate=args.lr, laplace_alpha=args.alpha)
    model = train(model, ds.sequences, cfg)
    if args.output:
        dio.save_model(model, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        json.dump(model.to_dict(), sys.stdout)
        print()
    return 0


# -- learn-struct ------------------------------------------------------------------

def cmd_learn_struct(args) -> int:
    ds = dio.load_dataset(args.train)
    train_set, validation_set = dio.split(ds, args.validation_fraction)
    cfg = SearchConfig(threshold=args.threshold, patience=args.patience,
                       max_iters=args.max_iters, max_k=args.max_k,
                       em_iters=args.em_iters, seed=args.seed,
                       validation_fraction=args.validation_fraction)
    model, trace = search(train_set, validation_set, cfg)
    dio.save_model(model, args.output)
    print(f"# seed={args.seed}")
    print(IterationRecord.CSV_HEADER)
    for rec in trace:
        print(rec.csv_row())
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


# -- gen-hmm -------------------------------------------------------------------------

def cmd_gen_hmm(args) -> int:
    rng = np.random.default_rng(args.seed)
    arities = tuple([2] * args.vars)
    h = random_hmm(args.states, arities, rng)
    seqs = hmm_dataset(h, args.count, args.length, rng)
    ds = dio.SequenceDataset(seqs, arities, name=f"hmm-s{args.seed}")
    dio.save_dataset(ds, args.output)
    if args.model_out:
        dio.save_hmm(h, args.model_out)
    print(f"wrote {args.output} ({args.count} sequences of length "
          f"{args.length}, {args.vars} binary vars)", file=sys.stderr)
    return 0


# -- bench ----------------------------------------------------------------------------

def _bench_fold(test_idx, ds, true_hmm, config, seed):
    test = ds.subset(test_idx)
    pool = ds.subset(np.setdiff1d(np.arange(len(ds)), test_idx))
    scfg_args = dict(config.get("search", {}))
    scfg_args["seed"] = seed
    scfg = SearchConfig(**scfg_args)
    train_set, validation_set = dio.split(pool, scfg.validation_fraction)
    row = {}

    t0 = time.perf_counter()
    model, trace = search(train_set, validation_set, scfg)
    tcfg_args = dict(config.get("train", {}))
    tcfg = TrainConfig(**tcfg_args)
    model = train(model, pool.sequences, tcfg)
    dspn_learn = (time.perf_counter() - t0) / max(1, len(trace))
    t0 = time.perf_counter()
    lls = dataset_logliks(model, test.sequences)
    dspn_infer = time.perf_counter() - t0
    row["dspn"] = (-float(np.mean(lls)), dspn_learn, dspn_infer)

    hcfg = config.get("hmm", {})
    t0 = time.perf_counter()
    fitted, bw_trace = baum_welch(pool.sequences, hcfg.get("states", 2),
                                  ds.arities,
                                  iterations=hcfg.get("iterations", 100),
                                  alpha=hcfg.get("alpha", 0.05), seed=seed)
    hmm_learn = (time.perf_counter() - t0) / max(1, len(bw_trace))
    t0 = time.perf_counter()
    hlls = hmm_dataset_loglik(fitted, test.sequences)
    hmm_infer = time.perf_counter() - t0
    row["hmm"] = (-float(np.mean(hlls)), hmm_learn, hmm_infer)

    if true_hmm is not None:
        t0 = time.perf_counter()
        tlls = hmm_dataset_loglik(true_hmm, test.sequences)
        row["true"] = (-float(np.mean(tlls)), 0.0, time.perf_counter() - t0)
    return row


def cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    folds = args.folds if args.folds is not None else config.get("folds", 10)
    rng = np.random.default_rng(seed)
    true_hmm = None
    if "dataset" in config:
        ds = dio.load_dataset(config["dataset"])
        if config.get("true_model"):
            true_hmm = dio.load_hmm(config["true_model"])
    elif "generator" in config:
        gen = config["generator"]
        arities = tuple([2] * gen.get("vars", 1))
        true_hmm = random_hmm(gen.get("states", 2), arities, rng)
        seqs = hmm_dataset(true_hmm, gen.get("count", 100), gen.get("length", 100), rng)
        ds = dio.SequenceDataset(seqs, arities, name="generated")
    else:
        _fail("bench config needs a 'dataset' path or a 'generator' block")
    rows = [_bench_fold(test_idx, ds, true_hmm, config, seed + i)
            for i, test_idx in enumerate(dio.fold_indices(len(ds), folds))]
    print(f"# seed={seed} folds={folds}")
    print("model,mean_test_nll,std_error,learn_seconds_per_iter,inference_seconds")
    for name in ("true", "dspn", "hmm"):
        vals = [r[name] for r in rows if name in r]
        if not vals:
            continue
        nlls = np.array([v[0] for v in vals])
        se = float(nlls.std(ddof=1) / np.sqrt(len(nlls))) if len(nlls) > 1 else 0.0
        learn = float(np.mean([v[1] for v in vals]))
        infer = float(np.mean([v[2] for v in vals]))
        print(f"{name},{nlls.mean():.6f},{se:.6f},{learn:.4f},{infer:.4f}")
    return 0


# -- entry point --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dspn",
                                description="Sequence models with exact "
                                            "linear-time inference")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a model's structural validity")
    v.add_argument("model")
    v.set_defaults(func=cmd_validate)

    u = sub.add_parser("unroll", help="materialize a sequence model at fixed length")
    u.add_argument("model")
    u.add_argument("-T", "--slices", type=int, required=True)
    u.add_argument("-o", "--output", required=True)
    u.set_defaults(func=cmd_unroll)

    i = sub.add_parser("infer", help="per-sequence log-likelihoods or conditionals")
    i.add_argument("model")
    i.add_argument("dataset")
    i.add_argument("--query", help="flat var=value list, e.g. 0=1,3=0")
    i.add_argument("--given", help="flat var=value list")
    i.set_defaults(func=cmd_infer)

    lp = sub.add_parser("learn-params", help="train weights of a fixed structure")
    lp.add_argument("model")
    lp.add_argument("train")
    lp.add_argument("--method", choices=("em", "gradient"), default="em")
    lp.add_argument("--iters", type=int, default=100)
    lp.add_argument("--alpha", type=float, default=0.1)
    lp.add_argument("--lr", type=float, default=0.5)
    lp.add_argument("-o", "--output")
    lp.set_defaults(func=cmd_learn_params)

    ls = sub.add_parser("learn-struct", help="search for a template structure")
    ls.add_argument("train")
    ls.add_argument("--threshold", type=int, default=6)
    ls.add_argument("--patience", type=int, default=10)
    ls.add_argument("--max-iters", type=int, default=200)
    ls.add_argument("--max-k", type=int, default=16)
    ls.add_argument("--em-iters", type=int, default=10)
    ls.add_argument("--validation-fraction", type=float, default=0.15)
    ls.add_argument("--seed", type=int, default=0)
    ls.add_argument("-o", "--output", required=True)
    ls.set_defaults(func=cmd_learn_struct)

    gh = sub.add_parser("gen-hmm", help="sample a synthetic dataset from a "
                                        "random hidden-state generator")
    gh.add_argument("--states", type=int, default=2)
    gh.add_argument("--vars", type=int, default=1)
    gh.add_argument("--len", dest="length", type=int, default=100)
    gh.add_argument("--count", type=int, default=100)
    gh.add_argument("--seed", type=int, default=0)
    gh.add_argument("-o", "--output", required=True)
    gh.add_argument("--model-out")
    gh.set_defaults(func=cmd_gen_hmm)

    b = sub.add_parser("bench", help="cross-validated model comparison")
    b.add_argument("config")
    b.add_argument("--folds", type=int)
    b.add_argument("--seed", type=int)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
