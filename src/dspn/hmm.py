"""Discrete hidden Markov baseline: sampling, exact likelihood, Baum-Welch.

Serves as the synthetic data generator and as an exactness oracle for the
sequence models.  States emit each observed variable independently
(per-state product of categoricals).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamic import (BottomNetwork, DspnModel, SequenceBatch, TemplateNetwork,
                      TopNetwork, pack_sequences)
from .graph import GraphBuilder
from .inference import _logsumexp_rows

PROB_TOL = 1e-12


@dataclass
class DiscreteHmm:
    initial: np.ndarray      # (n_states,)
    transition: np.ndarray   # (n_states, n_states), rows sum to 1
    emissions: np.ndarray    # (n_states, n_vars, max_arity); rows sum to 1
    arities: tuple[int, ...]

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=float)
        self.transition = np.asarray(self.transition, dtype=float)
        self.emissions = np.asarray(self.emissions, dtype=float)
        self.arities = tuple(int(a) for a in self.arities)
        s = self.n_states
        if self.transition.shape != (s, s):
            raise ValueError("transition matrix shape mismatch")
        if self.emissions.shape[:2] != (s, len(self.arities)):
            raise ValueError("emission tensor shape mismatch")
        self._check_stochastic()

    def _check_stochastic(self):
        if (self.initial < 0).any() or abs(self.initial.sum() - 1) > PROB_TOL:
            raise ValueError("initial distribution is not stochastic")
        if (self.transition < 0).any() or \
                np.abs(self.transition.sum(axis=1) - 1).max() > PROB_TOL:
            raise ValueError("transition matrix is not row-stochastic")
        for v, a in enumerate(self.arities):
            em = self.emissions[:, v, :a]
            if (em < 0).any() or np.abs(em.sum(axis=1) - 1).max() > PROB_TOL:
                raise ValueError(f"emission rows for variable {v} are not stochastic")

    @property
    def n_states(self) -> int:
        return len(self.initial)

    @property
    def n_vars(self) -> int:
        return len(self.arities)

    def stationary_distribution(self) -> np.ndarray:
        """The left eigenvector for eigenvalue 1, which must be simple: a
        repeated eigenvalue 1 means several closed classes, each with its
        own stationary distribution."""
        vals, vecs = np.linalg.eig(self.transition.T)
        ones = np.flatnonzero(np.abs(vals - 1.0) < 1e-9)
        if len(ones) != 1:
            raise ValueError(f"eigenvalue 1 has multiplicity {len(ones)}; "
                             "the stationary distribution is not unique")
        pi = np.real(vecs[:, ones[0]])
        pi = np.abs(pi)
        return pi / pi.sum()

    def to_dict(self) -> dict:
        return {"initial": self.initial.tolist(),
                "transition": self.transition.tolist(),
                "emissions": self.emissions.tolist(),
                "arities": list(self.arities)}

    @classmethod
    def from_dict(cls, doc: dict) -> "DiscreteHmm":
        return cls(np.asarray(doc["initial"]), np.asarray(doc["transition"]),
                   np.asarray(doc["emissions"]), tuple(doc["arities"]))


def random_hmm(n_states: int, arities, rng: np.random.Generator,
               concentration: float = 1.0,
               stationary_initial: bool = True) -> DiscreteHmm:
    """Dirichlet-row generator.  By default the initial distribution is the
    transition matrix's stationary distribution, which makes the generated
    process time-homogeneous from the first slice on."""
    arities = tuple(arities)
    trans = rng.dirichlet(np.full(n_states, concentration), size=n_states)
    max_a = max(arities)
    emis = np.zeros((n_states, len(arities), max_a))
    for v, a in enumerate(arities):
        emis[:, v, :a] = rng.dirichlet(np.full(a, concentration), size=n_states)
    placeholder = np.full(n_states, 1.0 / n_states)
    h = DiscreteHmm(placeholder, trans, emis, arities)
    if stationary_initial:
        h = DiscreteHmm(h.stationary_distribution(), trans, emis, arities)
    return h


def hmm_sample(h: DiscreteHmm, T: int, rng: np.random.Generator) -> np.ndarray:
    """Ancestral draw of a (T, n_vars) observation sequence."""
    out = np.empty((T, h.n_vars), dtype=np.int64)
    state = int(rng.choice(h.n_states, p=h.initial))
    for t in range(T):
        if t > 0:
            state = int(rng.choice(h.n_states, p=h.transition[state]))
        for v, a in enumerate(h.arities):
            out[t, v] = int(rng.choice(a, p=h.emissions[state, v, :a]))
    return out


def hmm_dataset(h: DiscreteHmm, count: int, length: int,
                rng: np.random.Generator) -> list[np.ndarray]:
    return [hmm_sample(h, length, rng) for _ in range(count)]


def _emission_logs(h: DiscreteHmm, slices: np.ndarray) -> np.ndarray:
    """(rows, n_states) log-probabilities of (rows, n_vars) slices,
    marginalizing -1 entries."""
    with np.errstate(divide="ignore"):
        log_emit = np.log(h.emissions)  # (S, n_vars, max_a)
    out = np.zeros((len(slices), h.n_states))
    for v in range(h.n_vars):
        obs = slices[:, v]
        vals = log_emit[:, v, np.where(obs >= 0, obs, 0)]  # (S, rows)
        out += np.where(obs >= 0, vals, 0.0).T
    return out


def _forward(h: DiscreteHmm, batch: SequenceBatch):
    """The forward recursion in log space over a packed batch.  Returns the
    log transition matrix and, in packed order, the slice emission logs,
    the forward messages and each row's log-likelihood."""
    starts = batch.starts.tolist()
    log_e = _emission_logs(h, batch.slices)
    fwd = np.empty_like(log_e)
    with np.errstate(divide="ignore"):
        log_trans = np.log(h.transition)
        fwd[:starts[1]] = np.log(h.initial)[None, :] + log_e[:starts[1]]
        for t in range(1, len(starts) - 1):
            lo, hi = starts[t], starts[t + 1]
            prev = fwd[starts[t - 1]:starts[t - 1] + hi - lo]
            fwd[lo:hi] = _logsumexp_rows(prev[:, :, None] + log_trans[None, :, :])
            fwd[lo:hi] += log_e[lo:hi]
        last = batch.starts[batch.lengths - 1] + np.arange(len(batch.order))
        return log_trans, log_e, fwd, _logsumexp_rows(fwd[last])


def hmm_dataset_loglik(h: DiscreteHmm, sequences) -> np.ndarray:
    """Per-sequence log-likelihoods in input order, from one forward
    recursion over all sequences packed into one batch."""
    batch = pack_sequences(sequences, h.n_vars)
    out = np.empty(len(batch.order))
    out[batch.order] = _forward(h, batch)[3]
    return out


def hmm_loglik(h: DiscreteHmm, seq) -> float:
    """Exact sequence log-likelihood by the forward recursion in log space."""
    return float(hmm_dataset_loglik(h, [seq])[0])


def baum_welch(sequences, n_states: int, arities, iterations: int = 100,
               alpha: float = 0.0, tol: float = 1e-7,
               seed: int = 0) -> tuple[DiscreteHmm, list[float]]:
    """EM for the discrete HMM with additive smoothing.  Returns the fitted
    model and the per-iteration train log-likelihood trace (each value is
    computed before the corresponding update).

    All sequences run as one packed batch (:func:`pack_sequences`); a row's
    backward message starts at its own last slice.
    """
    arities = tuple(arities)
    rng = np.random.default_rng(seed)
    max_a = max(arities)
    h = random_hmm(n_states, arities, rng, stationary_initial=False)
    batch = pack_sequences(sequences, len(arities))
    starts = batch.starts.tolist()
    row_of = batch.row_index()
    trace: list[float] = []
    previous = None
    for _ in range(iterations):
        log_trans, log_e, fwd, ll = _forward(h, batch)
        total_ll = float(ll.sum())
        # rows running on at slice t + 1 are the first hi - lo rows of slice t
        # operand (rows, next state, state), reduced over the next state
        bwd = np.zeros_like(fwd)
        with np.errstate(divide="ignore"):
            for t in range(len(starts) - 3, -1, -1):
                lo, hi = starts[t + 1], starts[t + 2]
                bwd[starts[t]:starts[t] + hi - lo] = _logsumexp_rows(
                    (log_e[lo:hi] + bwd[lo:hi])[:, :, None] + log_trans.T[None, :, :])
        gamma = np.exp(fwd + bwd - ll[row_of, None])  # (slices, S)
        init_acc = gamma[:starts[1]].sum(axis=0)
        trans_acc = np.zeros((n_states, n_states))
        for t in range(len(starts) - 2):
            lo, hi = starts[t + 1], starts[t + 2]
            xi = np.exp(fwd[starts[t]:starts[t] + hi - lo][:, :, None]
                        + log_trans[None, :, :]
                        + (log_e[lo:hi] + bwd[lo:hi])[:, None, :]
                        - ll[:hi - lo, None, None])
            trans_acc += xi.sum(axis=0)
        emit_acc = np.zeros((n_states, len(arities), max_a))
        for v, a in enumerate(arities):
            obs = batch.slices[:, v]
            for c in range(a):
                emit_acc[:, v, c] += gamma[obs == c].sum(axis=0)
        trace.append(total_ll)
        init = init_acc + alpha
        trans = trans_acc + alpha
        emit = emit_acc.copy()
        init /= init.sum()
        trans /= trans.sum(axis=1, keepdims=True)
        for v, a in enumerate(arities):
            emit[:, v, :a] += alpha
            emit[:, v, :a] /= emit[:, v, :a].sum(axis=1, keepdims=True)
        h = DiscreteHmm(init, trans, emit, arities)
        if previous is not None and abs(total_ll - previous) <= tol * abs(previous):
            break
        previous = total_ll
    return h, trace


def hmm_to_model(h: DiscreteHmm, tol: float = 1e-9) -> DspnModel:
    """Exact sequence-model encoding of a stationary-initial HMM with one
    interface slot per state.

    The template root for state s is a product of per-variable emission
    mixtures and a transition mixture over the input slots whose weights are
    the time-reversed kernel; the capping sum carries the stationary
    distribution.  The per-path weights then telescope to initial *
    transitions exactly.  A non-stationary initial distribution cannot be
    folded into weight-normalized tied slices, so it is rejected.
    """
    pi = h.stationary_distribution()
    if np.abs(pi - h.initial).max() > max(tol, 1e-6):
        raise ValueError("exact encoding requires the initial distribution "
                         "to equal the stationary distribution")
    k = h.n_states
    n = h.n_vars

    def emission_sums(b: GraphBuilder, state: int) -> list[int]:
        out = []
        for v, a in enumerate(h.arities):
            inds = [b.indicator(v, c) for c in range(a)]
            out.append(b.sum(inds, h.emissions[state, v, :a]))
        return out

    # reversed kernel: weight of lower-state s_prev inside the mixture of
    # upper-state s is P(s | s_prev) pi(s_prev) / pi(s)
    reversed_kernel = (h.transition * pi[:, None]) / pi[None, :]

    tb = GraphBuilder(n, h.arities, k)
    inputs = [tb.interface_input(s) for s in range(k)]
    troots = []
    for s in range(k):
        mix = tb.sum(inputs, reversed_kernel[:, s])
        troots.append(tb.product(emission_sums(tb, s) + [mix]))
    template = TemplateNetwork(tb.build(troots))

    bb = GraphBuilder(n, h.arities, 0)
    broots = [bb.product(emission_sums(bb, s)) for s in range(k)]
    bottom = BottomNetwork(bb.build(broots))

    ob = GraphBuilder(n, h.arities, k)
    root = ob.sum([ob.interface_input(s) for s in range(k)], pi)
    top = TopNetwork(ob.build([root]))
    return DspnModel(bottom, template, top)
