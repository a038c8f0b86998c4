"""The three benchmark workloads.

Each workload writes its inputs as ``.seqs``/``.dspn``/``.hmm`` files from
a seed, and then repeats one *repetition*: load the files through
``dspn.data``, run the timed phases, and check the outputs.  Every call into
dspn goes through a module attribute (``dspn.dynamic.sequence_loglik``), so
the tracer's wrappers see the benchmark's own calls too.  Each timed piece
of work is a lap of the workload's ``Speed`` (speed.py), so its time is CPU
time scaled by the reference kernel run on either side of it.

Checks run outside the timed phases and count toward ``attempted`` and
``failed``.  Log-likelihoods and conditionals are compared with a reference
computed another way: the HMM forward recursion for models built by
``hmm_to_model``, and the materialised circuit from ``unroll`` (or the
rolling pass, for CLI output) for learned models.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import dspn.cli
import dspn.data
import dspn.dynamic
import dspn.hmm
import dspn.inference
import dspn.structure
import dspn.training

from speed import Speed

# |got - want| <= TOL * max(1, |want|): absolute for probabilities and small
# log-likelihoods, relative for long sequences.
TOL = 1e-9


class Ledger:
    """Attempted and failed operations, plus the largest |delta| seen
    between an output and its reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.max_delta = 0.0

    def ops(self, n: int) -> None:
        self.attempted += n

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(message)

    def close(self, got: float, want: float, what: str) -> None:
        delta = abs(float(got) - float(want))
        if np.isfinite(delta):
            self.max_delta = max(self.max_delta, delta)
        self.check(bool(delta <= TOL * max(1.0, abs(float(want)))),
                   f"{what}: got {got!r}, reference {want!r}")


def masked(h, T: int, rng: np.random.Generator, rate: float) -> np.ndarray:
    seq = dspn.hmm.hmm_sample(h, T, rng)
    seq[rng.random(seq.shape) < rate] = -1
    return seq


class Query:
    """A ``dspn infer --query q=qv --given g=gv`` request over flat indices
    (slice * n + var); both positions are blanked in the query file."""

    def __init__(self, q: int, qv: int, g: int, gv: int):
        self.q, self.qv, self.g, self.gv = q, qv, g, gv

    def blank(self, seq: np.ndarray) -> np.ndarray:
        flat = seq.reshape(-1).copy()
        flat[[self.q, self.g]] = -1
        return flat.reshape(seq.shape)

    def evidence(self, seq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(given, joint) evidence for one query-file sequence."""
        flat = seq.reshape(-1).copy()
        flat[self.g] = self.gv
        given = flat.reshape(seq.shape).copy()
        flat[self.q] = self.qv
        return given, flat.reshape(seq.shape)

    def run_cli(self, model_path, data_path) -> tuple[int, list[tuple[float, ...]]]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = dspn.cli.main(["infer", str(model_path), str(data_path),
                                "--query", f"{self.q}={self.qv}",
                                "--given", f"{self.g}={self.gv}"])
        rows = [tuple(float(x) for x in line.split(",")[2:])
                for line in buf.getvalue().splitlines()[1:] if line]
        return rc, rows

    def check_rows(self, rc, rows, refs, ledger: Ledger, what: str) -> None:
        """``refs``: one (log_numerator, log_denominator) per sequence."""
        ledger.check(rc == 0 and len(rows) == len(refs),
                     f"{what}: exit code {rc}, {len(rows)} rows for {len(refs)} sequences")
        for i, ((num, den, prob), (rnum, rden)) in enumerate(zip(rows, refs)):
            ledger.close(num, rnum, f"{what} sequence {i} log numerator")
            ledger.close(den, rden, f"{what} sequence {i} log denominator")
            ledger.close(prob, np.exp(rnum - rden), f"{what} sequence {i} probability")


class Workload:
    name = ""
    op = ""            # what one latency sample times
    aliases: dict[str, str] = {}   # design name -> metric it is printed from
    files: dict[str, str] = {}
    query: Query

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.first_nll: float | None = None
        self.speed = Speed()    # run.py gives each loop its own

    def path(self, key: str) -> Path:
        return self.dir / self.files[key]

    # Scoring, the baseline and the CLI query are short next to a
    # repetition, so each repetition runs them this many times, one lap
    # each: a run then has enough samples of them for a steady median.
    REPEATS = 5

    def repeat(self, label: str, tracer, fn) -> tuple[list[float], list]:
        """Run the phase ``fn`` REPEATS times; return its laps and outputs."""
        laps, outs = [], []
        for _ in range(self.REPEATS):
            with tracer.span(f"phase.{label}"):
                outs.append(fn())
            laps.append(self.speed.lap(label))
        return laps, outs

    def input_paths(self) -> list[str]:
        return [str(self.path(k)) for k in self.files]

    def load(self, tracer, st: dict) -> None:
        """Parse every input file into ``st``; the model file is verified
        on load."""
        with tracer.span("load"):
            for key, fname in self.files.items():
                p = self.dir / fname
                if fname.endswith(".seqs"):
                    st[key] = dspn.data.load_dataset(p)
                elif fname.endswith(".hmm"):
                    st[key] = dspn.data.load_hmm(p)
                else:
                    st[key] = dspn.data.load_model(p, strict=True)

    def check_nll(self, nll: float, ledger: Ledger) -> None:
        """The same inputs give the same test NLL in every repetition."""
        if self.first_nll is None:
            self.first_nll = nll
        else:
            ledger.close(nll, self.first_nll, "test NLL differs between repetitions")

    def check_baselines(self, baselines, ledger: Ledger) -> None:
        for bw_trace, hmm_lls in baselines:
            ledger.check(bool(np.isfinite(hmm_lls).all())
                         and len(bw_trace) == self.BW_ITERS,
                         "Baum-Welch baseline did not run its iterations to finite scores")

    def check_scores(self, model, seqs, scores, ledger: Ledger, what: str) -> None:
        """Repeated scoring gives the same scores, and they match the
        unrolled circuit."""
        ledger.check(all(np.array_equal(s, scores[0]) for s in scores[1:]),
                     f"{what} scores differ between repeats")
        self.check_unrolled(model, seqs, scores[0], ledger, what)

    def check_unrolled(self, model, seqs, scores, ledger: Ledger, what: str) -> None:
        for i in range(min(3, len(seqs))):
            seq = np.asarray(seqs[i])
            ref = dspn.inference.log_likelihood(
                dspn.dynamic.unroll(model, len(seq)),
                dspn.inference.Evidence(seq.reshape(-1)))
            ledger.close(scores[i], ref, f"{what} sequence {i} vs unrolled circuit")

    def hmm_refs(self, h, seqs) -> list[float]:
        return [dspn.hmm.hmm_loglik(h, s) for s in seqs]

    def query_refs(self, score, seqs) -> list[tuple[float, float]]:
        refs = []
        for seq in seqs:
            given, joint = self.query.evidence(np.asarray(seq))
            refs.append((score(joint), score(given)))
        return refs


# ---------------------------------------------------------------------------

FIXTURE_SEED = 7   # data and search seed of fold 0 in the C6/C7/C10 fixture


class Search(Workload):
    """Structure search on fold 0 of the acceptance fixture, then the final
    ``train`` on the pool, test scoring and the Baum-Welch baseline."""

    name = "search"
    op = "search candidate"
    aliases = {"learn_s": "learn_s", "search_iter_ms_p50": "op_ms_p50",
               "search_iter_ms_tail": "op_ms_tail", "test_nll": "test_nll",
               "baseline_s": "baseline_s"}
    MAX_ITERS = 20
    BW_ITERS = 10
    files = {"train": "train.seqs", "validation": "validation.seqs",
             "test": "test.seqs", "query": "query.seqs",
             "generator": "generator.hmm"}
    query = Query(25, 1, 24, 0)   # variable 0 at slice 25 given slice 24

    def make_inputs(self, seed: int) -> None:
        # The search trajectory, and with it the work done, is a chaotic
        # function of the data: on a 2-core x86-64 machine, five draws from
        # the fixture's generator took 1.2 s to 22.6 s for 20 candidates.
        # So the data is the fixture's, and the seed shuffles the order of
        # the sequences inside each split, which the work does not depend on.
        rng = np.random.default_rng(FIXTURE_SEED)
        gen = dspn.hmm.random_hmm(2, (2,), rng, concentration=0.8)
        ds = dspn.data.SequenceDataset(dspn.hmm.hmm_dataset(gen, 500, 50, rng),
                                       (2,), name="fixture")
        test_idx = dspn.data.fold_indices(len(ds), 5)[0]
        pool = ds.subset(np.setdiff1d(np.arange(len(ds)), test_idx))
        train, validation = dspn.data.split(pool, 0.15)
        order = np.random.default_rng(seed)
        parts = {"train": train, "validation": validation,
                 "test": ds.subset(test_idx)}
        for key, part in parts.items():
            parts[key] = part.subset(order.permutation(len(part)))
            dspn.data.save_dataset(parts[key], self.path(key))
        query = dspn.data.SequenceDataset(
            [self.query.blank(s) for s in parts["test"].sequences[:2]], (2,))
        dspn.data.save_dataset(query, self.path("query"))
        dspn.data.save_hmm(gen, self.path("generator"))

    def prepare(self, st: dict, ledger: Ledger) -> None:
        h = st["generator"]
        seqs = st["test"].sequences[:8]
        got = dspn.dynamic.dataset_logliks(dspn.hmm.hmm_to_model(h), seqs)
        for i, ref in enumerate(self.hmm_refs(h, seqs)):
            ledger.close(got[i], ref, f"generator encoding, test sequence {i}")

    def run(self, st: dict, tracer) -> dict:
        train, validation, test = st["train"], st["validation"], st["test"]
        pool = train.sequences + validation.sequences
        cfg = dspn.structure.SearchConfig(
            seed=FIXTURE_SEED, max_iters=self.MAX_ITERS,
            patience=self.MAX_ITERS, em_iters=8, max_k=8)
        sp = self.speed
        # The first callback reports the initial model; each later one ends
        # a candidate.  Each lap is the work since the previous callback.
        laps, candidates = [], []

        def on_candidate(it, model, accepted, score):
            laps.append(sp.lap("op" if it else "initial"))
            candidates.append((accepted, len(model.template.graph),
                               model if accepted else None))

        sp.start()
        with tracer.span("phase.learn"):
            model, _ = dspn.structure.search(train, validation, cfg,
                                             callback=on_candidate)
            model = dspn.training.train(
                model, pool, dspn.training.TrainConfig(iterations=200,
                                                       laplace_alpha=0.1))
        learn = sum(laps) + sp.lap("learn")
        score_laps, scores = self.repeat(
            "score", tracer, lambda: dspn.dynamic.dataset_logliks(model, test.sequences))

        def baseline():
            fitted, bw_trace = dspn.hmm.baum_welch(
                pool, 2, train.arities, iterations=self.BW_ITERS, alpha=0.05,
                tol=0.0, seed=FIXTURE_SEED)
            return bw_trace, dspn.hmm.hmm_dataset_loglik(fitted, test.sequences)

        baseline_laps, baselines = self.repeat("baseline", tracer, baseline)
        learned = self.dir / "learned.dspn"
        dspn.data.save_model(model, learned)
        sp.start()
        query_laps, queries = self.repeat(
            "query", tracer, lambda: self.query.run_cli(learned, self.path("query")))
        return {
            "phases": {"learn": learn, "score": float(np.mean(score_laps)),
                       "baseline": float(np.mean(baseline_laps)),
                       "query": float(np.mean(query_laps))},
            "laps": {"score": score_laps, "baseline": baseline_laps,
                     "query": query_laps},
            "ops_ms": [x * 1e3 for x in laps[1:]],
            "slices": sum(test.lengths()),
            "test_nll": -float(np.mean(scores[0])),
            "candidates": [(a, n) for a, n, _ in candidates[1:]],
            "model": model, "scores": scores, "baselines": baselines,
            "cli": queries,
            "accepted": [m for a, _, m in candidates if a],
        }

    def check(self, st: dict, out: dict, ledger: Ledger) -> None:
        ledger.ops(len(out["candidates"]) + 2 + 3 * self.REPEATS)
        for i, m in enumerate(out["accepted"]):
            ok = (dspn.dynamic.check_invariance(m.template).ok
                  and dspn.dynamic.verify_model_validity(m).ok)
            ledger.check(ok, f"accepted model {i} is not invariant and valid")
        model, test = out["model"], st["test"]
        self.check_scores(model, test.sequences, out["scores"], ledger, "test")
        self.check_baselines(out["baselines"], ledger)
        refs = self.query_refs(lambda s: dspn.dynamic.sequence_loglik(model, s),
                               st["query"].sequences)
        for rc, rows in out["cli"]:
            self.query.check_rows(rc, rows, refs, ledger, "CLI conditional")
        self.check_nll(out["test_nll"], ledger)


# ---------------------------------------------------------------------------

EM_MODEL_SEED = 11


class EmMixed(Workload):
    """EM steps on variable-length sequences with missing values, then
    held-out scoring, the Baum-Welch baseline and one CLI conditional."""

    name = "em-mixed"
    op = "em_step"
    aliases = {"em_iter_ms_p50": "op_ms_p50", "em_iter_ms_tail": "op_ms_tail",
               "score_slices_per_s": "score_slices_per_s",
               "baseline_s": "baseline_s"}
    N_SEQ = 10
    EM_STEPS = 4
    BW_ITERS = 5
    ARITIES = (2, 2, 2)
    files = {"train": "train.seqs", "heldout": "heldout.seqs",
             "query": "query.seqs", "model": "model.dspn",
             "generator": "generator.hmm"}
    query = Query(91, 1, 88, 0)   # variable 1 at slice 30 given slice 29

    def make_inputs(self, seed: int) -> None:
        # The generator, which is also the starting model, and the held-out
        # set are fixed, so test_nll compares trained models rather than
        # samples; the seed draws the training and query sequences.  Lengths
        # are an evenly spaced set in [20, 120], all distinct, so every seed
        # does the same number of rolling passes over the same slice count.
        fixed = np.random.default_rng(EM_MODEL_SEED)
        gen = dspn.hmm.random_hmm(4, self.ARITIES, fixed)
        lengths = np.rint(np.linspace(20, 120, self.N_SEQ)).astype(int)
        rng = np.random.default_rng(seed)
        for key, r in (("train", rng), ("heldout", fixed)):
            seqs = [masked(gen, int(T), r, 0.05) for T in r.permutation(lengths)]
            dspn.data.save_dataset(dspn.data.SequenceDataset(seqs, self.ARITIES),
                                   self.path(key))
        dspn.data.save_dataset(dspn.data.SequenceDataset(
            [self.query.blank(masked(gen, T, rng, 0.05)) for T in (50, 70, 90)],
            self.ARITIES), self.path("query"))
        dspn.data.save_model(dspn.hmm.hmm_to_model(gen), self.path("model"))
        dspn.data.save_hmm(gen, self.path("generator"))

    def prepare(self, st: dict, ledger: Ledger) -> None:
        h, seqs = st["generator"], st["heldout"].sequences
        got = dspn.dynamic.dataset_logliks(st["model"], seqs)
        for i, ref in enumerate(self.hmm_refs(h, seqs)):
            ledger.close(got[i], ref, f"generator encoding, held-out sequence {i}")
        self.cli_refs = self.query_refs(lambda s: dspn.hmm.hmm_loglik(h, s),
                                        st["query"].sequences)

    def run(self, st: dict, tracer) -> dict:
        model, train, heldout = st["model"], st["train"], st["heldout"]
        cfg = dspn.training.TrainConfig(iterations=1, laplace_alpha=0.0)
        sp = self.speed
        ops, em_lls = [], []
        sp.start()
        with tracer.span("phase.learn"):
            for _ in range(self.EM_STEPS):
                model, ll = dspn.training.em_step(model, train.sequences, cfg)
                ops.append(sp.lap("op") * 1e3)
                em_lls.append(ll)
        score_laps, scores = self.repeat(
            "score", tracer,
            lambda: dspn.dynamic.dataset_logliks(model, heldout.sequences))

        def baseline():
            fitted, bw_trace = dspn.hmm.baum_welch(
                train.sequences, 4, self.ARITIES, iterations=self.BW_ITERS,
                alpha=0.05, tol=0.0, seed=EM_MODEL_SEED)
            return bw_trace, dspn.hmm.hmm_dataset_loglik(fitted, heldout.sequences)

        baseline_laps, baselines = self.repeat("baseline", tracer, baseline)
        query_laps, queries = self.repeat(
            "query", tracer,
            lambda: self.query.run_cli(self.path("model"), self.path("query")))
        return {
            "phases": {"learn": sum(ops) / 1e3,
                       "score": float(np.mean(score_laps)),
                       "baseline": float(np.mean(baseline_laps)),
                       "query": float(np.mean(query_laps))},
            "laps": {"score": score_laps, "baseline": baseline_laps,
                     "query": query_laps},
            "ops_ms": ops,
            "slices": sum(heldout.lengths()),
            "test_nll": -float(np.mean(scores[0])),
            "model": model, "scores": scores, "em_lls": em_lls,
            "baselines": baselines, "cli": queries,
        }

    def check(self, st: dict, out: dict, ledger: Ledger) -> None:
        ledger.ops(self.EM_STEPS + 1 + 3 * self.REPEATS)
        em = out["em_lls"]
        for i in range(1, len(em)):
            ledger.check(em[i] >= em[i - 1] - TOL * abs(em[i - 1]),
                         f"EM train log-likelihood fell at step {i}: "
                         f"{em[i - 1]!r} -> {em[i]!r}")
        self.check_scores(out["model"], st["heldout"].sequences, out["scores"],
                          ledger, "held-out")
        self.check_baselines(out["baselines"], ledger)
        for rc, rows in out["cli"]:
            self.query.check_rows(rc, rows, self.cli_refs, ledger, "CLI conditional")
        self.check_nll(out["test_nll"], ledger)


# ---------------------------------------------------------------------------

LONG_MODEL_SEED = 13


class InferLong(Workload):
    """Batch-one scoring of long sequences with ``sequence_loglik``, the
    HMM forward recursion on the same sequences, and one CLI conditional
    over a long sequence."""

    name = "infer-long"
    op = "sequence_loglik, T=2000"
    aliases = {"seq_ms_p50": "op_ms_p50", "seq_ms_tail": "op_ms_tail",
               "query_s": "query_s"}
    N_SEQ = 3
    T = 2000
    QUERY_T = 500
    ARITIES = (2, 2)
    files = {"seqs": "seqs.seqs", "query": "query.seqs",
             "model": "model.dspn", "generator": "generator.hmm"}
    query = Query(500, 1, 498, 0)   # variable 0 at slice 250 given slice 249

    def make_inputs(self, seed: int) -> None:
        gen = dspn.hmm.random_hmm(4, self.ARITIES,
                                  np.random.default_rng(LONG_MODEL_SEED))
        rng = np.random.default_rng(seed)
        seqs = [masked(gen, self.T, rng, 0.05) for _ in range(self.N_SEQ)]
        dspn.data.save_dataset(dspn.data.SequenceDataset(seqs, self.ARITIES),
                               self.path("seqs"))
        dspn.data.save_dataset(dspn.data.SequenceDataset(
            [self.query.blank(masked(gen, self.QUERY_T, rng, 0.05))],
            self.ARITIES), self.path("query"))
        dspn.data.save_model(dspn.hmm.hmm_to_model(gen), self.path("model"))
        dspn.data.save_hmm(gen, self.path("generator"))

    def prepare(self, st: dict, ledger: Ledger) -> None:
        h = st["generator"]
        self.refs = self.hmm_refs(h, st["seqs"].sequences)
        self.cli_refs = self.query_refs(lambda s: dspn.hmm.hmm_loglik(h, s),
                                        st["query"].sequences)

    def run(self, st: dict, tracer) -> dict:
        model, seqs = st["model"], st["seqs"].sequences
        sp = self.speed
        ops, lls = [], []
        sp.start()
        with tracer.span("phase.score"):
            for seq in seqs:
                lls.append(dspn.dynamic.sequence_loglik(model, seq))
                ops.append(sp.lap("op") * 1e3)
        baseline_laps, baselines = self.repeat(
            "baseline", tracer,
            lambda: dspn.hmm.hmm_dataset_loglik(st["generator"], seqs))
        query_laps, queries = self.repeat(
            "query", tracer,
            lambda: self.query.run_cli(self.path("model"), self.path("query")))
        return {
            "phases": {"score": sum(ops) / 1e3,
                       "baseline": float(np.mean(baseline_laps)),
                       "query": float(np.mean(query_laps))},
            "laps": {"score": [x / 1e3 for x in ops], "baseline": baseline_laps,
                     "query": query_laps},
            "ops_ms": ops,
            "slices": self.T,       # per score lap: one sequence
            "test_nll": -float(np.mean(lls)),
            "lls": lls, "baselines": baselines, "cli": queries,
        }

    def check(self, st: dict, out: dict, ledger: Ledger) -> None:
        ledger.ops(self.N_SEQ + 2 * self.REPEATS)
        for i, ref in enumerate(self.refs):
            ledger.close(out["lls"][i], ref, f"sequence {i} vs forward recursion")
            for hmm_lls in out["baselines"]:
                ledger.close(hmm_lls[i], ref, f"HMM baseline sequence {i}")
        for rc, rows in out["cli"]:
            self.query.check_rows(rc, rows, self.cli_refs, ledger, "CLI conditional")
        self.check_nll(out["test_nll"], ledger)


WORKLOADS = {w.name: w for w in (Search, EmMixed, InferLong)}
