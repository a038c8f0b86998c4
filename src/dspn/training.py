"""Weight estimation for a fixed model structure.

Both methods run the same rolling E-pass: one forward sweep per slice and
one backward sweep per slice, chained through the interface so that
derivatives with respect to every template copy are available without
materializing the unrolled circuit.  Template edge statistics are summed
over all slice occurrences (parameter tying); the first-slice and capping
networks keep their own accumulators.

EM sets each sum node's weights proportional to its smoothed expected edge
counts; gradient ascent follows the tied log-likelihood gradient through a
softmax reparameterization so weights stay normalized by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamic import DspnModel, _stacked_span, pack_sequences, rolling_forward
from .graph import SpnGraph
from .inference import backward, sum_edge_statistics


class NumericalUnderflow(ArithmeticError):
    """A training sequence has probability zero under the current weights."""


@dataclass
class TrainConfig:
    method: str = "em"             # "em" or "gradient"
    iterations: int = 100
    learning_rate: float = 0.5    # gradient only
    laplace_alpha: float = 0.1    # additive pseudo-count at the M-step
    convergence_tol: float = 1e-6  # relative train-LL change

    def __post_init__(self):
        if self.method not in ("em", "gradient"):
            raise ValueError(f"unknown training method {self.method!r}")
        if self.laplace_alpha < 0:
            raise ValueError("laplace_alpha must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class TiedStatistics:
    """Expected edge counts per sum node, one accumulator per model part."""

    bottom: dict[int, np.ndarray] = field(default_factory=dict)
    template: dict[int, np.ndarray] = field(default_factory=dict)
    top: dict[int, np.ndarray] = field(default_factory=dict)
    total_loglik: float = 0.0


def _accumulate(acc: dict[int, np.ndarray], stats: dict[int, np.ndarray]) -> None:
    for node, counts in stats.items():
        if node in acc:
            acc[node] += counts
        else:
            acc[node] = counts.copy()


def _seed_rows(graph_above: SpnGraph, f_map) -> np.ndarray:
    """Rows of the layer above's derivatives that seed the roots below: the
    derivative at slot s above is the derivative of the merged root
    f_map[s] below."""
    c = graph_above.compiled()
    rows = np.empty(len(f_map), dtype=np.int64)
    rows[np.asarray(f_map)[c.input_slot]] = c.input_ids
    return rows


def collect_statistics(m: DspnModel, sequences) -> TiedStatistics:
    """One full E-pass over the dataset: tied expected edge counts plus the
    train log-likelihood under the current weights.

    All sequences run as one packed batch: one rolling forward pass, then
    backward slice by slice over the rows still running.  A row whose
    sequence ends right below the top network takes its backward seed from
    the top, the others from the template slice above.  Edge statistics are
    counted once per model part, the template's over the rows of many
    slices stacked together, in blocks of at most ``_STACKED_NODE_ROWS``
    node-rows at full batch width: bounded memory (2 MiB) however long the
    data."""
    acc = TiedStatistics()
    top_g, tmpl_g, bot_g = m.top.graph, m.template.graph, m.bottom.graph
    from_top, from_tmpl = _seed_rows(top_g, m.f_map), _seed_rows(tmpl_g, m.f_map)
    batch = pack_sequences(sequences, m.n_vars)
    loglik, kept = rolling_forward(m, batch, keep_values=True)
    if np.isneginf(loglik).any():
        bad = batch.order[int(np.argmax(np.isneginf(loglik)))]
        raise NumericalUnderflow(
            f"sequence {bad} has probability zero under the current weights")
    bottom_vals, template_vals, top_vals = kept
    rows = len(batch.order)
    derivs = backward(top_g, top_vals, np.zeros((1, rows)))
    _accumulate(acc.top, sum_edge_statistics(top_g, top_vals, derivs, loglik))
    seeds = derivs[from_top]
    # slice t's template values and derivatives are columns starts[t]:starts[t + 1];
    # a block of ``span`` slices is counted once its lowest slice is done
    starts = (batch.starts - rows).tolist()
    log_norm = loglik[batch.row_index()[rows:]]
    span = _stacked_span(len(tmpl_g), rows)
    stacked = np.empty((len(tmpl_g), min(span * rows, starts[-1])))
    for t in range(len(starts) - 2, 0, -1):
        lo, hi = starts[t], starts[t + 1]
        derivs = backward(tmpl_g, template_vals[:, lo:hi], seeds[:, :hi - lo])
        seeds[:, :hi - lo] = derivs[from_tmpl]
        first = (t - 1) // span * span + 1
        base = starts[first]
        stacked[:, lo - base:hi - base] = derivs
        if t == first:
            end = starts[min(first + span, len(starts) - 1)]
            _accumulate(acc.template, sum_edge_statistics(
                tmpl_g, template_vals[:, base:end], stacked[:, :end - base],
                log_norm[base:end]))
    derivs = backward(bot_g, bottom_vals, seeds)
    _accumulate(acc.bottom, sum_edge_statistics(bot_g, bottom_vals, derivs, loglik))
    acc.total_loglik = float(loglik.sum())
    return acc


def _em_update(graph: SpnGraph, stats: dict[int, np.ndarray], alpha: float) -> None:
    for node in graph.sum_ids():
        counts = stats.get(node)
        if counts is None:
            continue
        w = counts + alpha
        total = w.sum()
        if total > 0:
            graph.set_weights(node, w / total)
        # A node with zero mass saw no data; its weights are left alone.


def _gradient_update(graph: SpnGraph, stats: dict[int, np.ndarray], lr: float,
                     scale: float) -> None:
    # scale normalizes the summed statistics to a per-sequence mean so the
    # step size is insensitive to dataset size
    for node in graph.sum_ids():
        counts = stats.get(node)
        if counts is None:
            continue
        counts = counts * scale
        w = np.asarray(graph.nodes[node].weights, dtype=float)
        logits_grad = counts - w * counts.sum()
        with np.errstate(divide="ignore"):
            logits = np.log(w) + lr * logits_grad
        logits -= logits.max()
        new_w = np.exp(logits)
        graph.set_weights(node, new_w / new_w.sum())


def em_step(m: DspnModel, sequences, cfg: TrainConfig) -> tuple[DspnModel, float]:
    """One EM iteration in place; returns the model and the train
    log-likelihood computed *before* the update."""
    stats = collect_statistics(m, sequences)
    _em_update(m.template.graph, stats.template, cfg.laplace_alpha)
    _em_update(m.bottom.graph, stats.bottom, cfg.laplace_alpha)
    _em_update(m.top.graph, stats.top, cfg.laplace_alpha)
    return m, stats.total_loglik


def gradient_step(m: DspnModel, sequences, cfg: TrainConfig) -> tuple[DspnModel, float]:
    """One softmax-reparameterized ascent step on the mean tied
    log-likelihood; returns the model and the pre-update train
    log-likelihood."""
    stats = collect_statistics(m, sequences)
    scale = 1.0 / max(1, len(sequences))
    _gradient_update(m.template.graph, stats.template, cfg.learning_rate, scale)
    _gradient_update(m.bottom.graph, stats.bottom, cfg.learning_rate, scale)
    _gradient_update(m.top.graph, stats.top, cfg.learning_rate, scale)
    return m, stats.total_loglik


def train(m: DspnModel, sequences, cfg: TrainConfig) -> DspnModel:
    """Iterate the configured update until the relative train-LL change
    drops below ``convergence_tol`` or the iteration cap is reached."""
    step = em_step if cfg.method == "em" else gradient_step
    previous = None
    for _ in range(cfg.iterations):
        m, loglik = step(m, sequences, cfg)
        if previous is not None and \
                abs(loglik - previous) <= cfg.convergence_tol * abs(previous):
            break
        previous = loglik
    return m


def tied_weight_gradients(m: DspnModel, sequences) -> TiedStatistics:
    """d(total log-likelihood)/d(w_ij) for every sum edge, as unconstrained
    partials (statistics divided by the current weights)."""
    stats = collect_statistics(m, sequences)
    for graph, acc in ((m.bottom.graph, stats.bottom),
                       (m.template.graph, stats.template),
                       (m.top.graph, stats.top)):
        for node, counts in acc.items():
            w = np.asarray(graph.nodes[node].weights, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                grad = np.where(w > 0, counts / w, 0.0)
            acc[node] = grad
    return stats
