"""Anytime search-and-score learning of the template structure.

The initial model is a bank of factored distributions: each output root is
a product of per-variable mixtures plus one mixture over the interface
inputs, and the interface width grows while the validation score improves.
Local moves then resample a product node's scope partition and replace its
sub-circuit with a product of two-component naive Bayes blocks.  Every move
preserves the replaced node's scope, so all visited templates stay
invariant and every model stacks validly at any length.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .dynamic import (DspnModel, ScopeAssignment, TemplateNetwork, TopNetwork,
                      dataset_logliks, derive_bottom)
from .graph import GraphBuilder, NodeKind, compute_scopes
from .partitions import (INTERFACE_ELEMENT, CursorStore, IndependenceOracle,
                         Partition, get_partition)
from .training import TrainConfig, train as train_weights

NB_COMPONENTS = 2  # mixture components per multi-variable block


class DegenerateData(ValueError):
    """A training variable is constant and no smoothing is configured."""


@dataclass
class SearchConfig:
    threshold: int = 6           # scope size above which independence splitting kicks in
    patience: int = 10           # consecutive non-improving candidates before stopping
    max_iters: int = 200
    max_k: int = 16              # cap on interface width growth
    em_iters: int = 10           # parameter-training iterations per candidate
    validation_fraction: float = 0.15
    seed: int = 0
    laplace_alpha: float = 0.1
    init_jitter: float = 0.1     # relative weight perturbation for new components

    def __post_init__(self):
        if self.threshold < 1:
            raise ValueError("threshold must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")

    def train_config(self) -> TrainConfig:
        return TrainConfig(iterations=self.em_iters,
                           laplace_alpha=self.laplace_alpha)


@dataclass
class IterationRecord:
    iteration: int
    accepted: bool
    template_node_count: int
    k: int
    train_ll: float
    validation_ll: float
    seconds: float

    CSV_HEADER = "iteration,accepted,template_node_count,k,train_ll,validation_ll,seconds"

    def csv_row(self) -> str:
        return (f"{self.iteration},{int(self.accepted)},{self.template_node_count},"
                f"{self.k},{self.train_ll:.6f},{self.validation_ll:.6f},"
                f"{self.seconds:.4f}")


@dataclass
class SearchState:
    best: DspnModel              # the model every move starts from
    best_score: float
    cursors: CursorStore
    rng: np.random.Generator
    oracle: IndependenceOracle | None
    uids: list[int]              # persistent product-site identities, per node
    fresh_uids: Iterator[int]    # identities no site has had yet


def _jittered(base: np.ndarray, rng: np.random.Generator, jitter: float) -> np.ndarray:
    """Positive perturbation of a weight vector; identical mixture components
    are an EM fixed point, so symmetry must be broken at initialization."""
    w = np.asarray(base, dtype=float) * (1.0 + jitter * rng.random(len(base)))
    return w / w.sum()


def _data_marginals(train, arities, alpha: float) -> list[np.ndarray]:
    pooled = np.concatenate([np.asarray(s) for s in train.sequences], axis=0)
    out = []
    for v, a in enumerate(arities):
        col = pooled[:, v]
        counts = np.bincount(col[col >= 0], minlength=a).astype(float) + alpha
        if alpha == 0 and (counts == 0).any():
            raise DegenerateData(f"variable {v} never takes some values and "
                                 "laplace_alpha is 0")
        out.append(counts / counts.sum())
    return out


def build_initial_template(n_vars: int, arities, k: int,
                           univar_weights, mix_weights) -> TemplateNetwork:
    """Bank of k factored-distribution roots: each root is a product of n
    per-variable mixtures plus one mixture over the k interface inputs."""
    b = GraphBuilder(n_vars, arities, k)
    inputs = [b.interface_input(s) for s in range(k)]
    roots = []
    for j in range(k):
        children = [b.sum([b.indicator(v, c) for c in range(arities[v])],
                          univar_weights[j][v]) for v in range(n_vars)]
        children.append(b.sum(inputs, mix_weights[j]))
        roots.append(b.product(children))
    return TemplateNetwork(b.build(roots))


def build_top(n_vars: int, arities, k: int, weights) -> TopNetwork:
    b = GraphBuilder(n_vars, arities, k)
    root = b.sum([b.interface_input(s) for s in range(k)], weights)
    return TopNetwork(b.build([root]))


def _assemble(template: TemplateNetwork, top: TopNetwork) -> DspnModel:
    return DspnModel(derive_bottom(template), template, top)


def initial_structure(train, validation, n_vars: int, arities,
                      cfg: SearchConfig,
                      rng: np.random.Generator | None = None) -> DspnModel:
    """Grow the factored-distribution bank one root at a time, retraining
    after each addition, until the validation score stops improving (or the
    width cap is hit).  Existing roots keep their trained weights when a
    root is added; the new root starts at jittered data marginals."""
    rng = rng or np.random.default_rng(cfg.seed)
    arities = tuple(arities)
    marginals = _data_marginals(train, arities, cfg.laplace_alpha)
    tcfg = cfg.train_config()

    def grown(prev_template: TemplateNetwork | None, k: int) -> DspnModel:
        univar, mix = [], []
        if prev_template is not None:
            g = prev_template.graph
            for j, r in enumerate(g.roots):
                sums = list(g.nodes[r].children)
                per_var = [np.asarray(g.nodes[s].weights, dtype=float)
                           for s in sums[:-1]]
                old_mix = np.asarray(g.nodes[sums[-1]].weights, dtype=float)
                univar.append(per_var)
                mix.append(np.append(old_mix * (k - 1) / k, 1.0 / k))
        for j in range(len(univar), k):
            univar.append([_jittered(marginals[v], rng, cfg.init_jitter)
                           for v in range(n_vars)])
            mix.append(_jittered(np.full(k, 1.0 / k), rng, cfg.init_jitter))
        template = build_initial_template(n_vars, arities, k, univar, mix)
        top = build_top(n_vars, arities, k,
                        _jittered(np.full(k, 1.0 / k), rng, cfg.init_jitter))
        return _assemble(template, top)

    model = train_weights(grown(None, 1), train.sequences, tcfg)
    score = float(dataset_logliks(model, validation.sequences).sum())
    k = 1
    while k < cfg.max_k:
        candidate = train_weights(grown(model.template, k + 1),
                                  train.sequences, tcfg)
        cand_score = float(dataset_logliks(candidate, validation.sequences).sum())
        if cand_score < score:
            break
        model, score, k = candidate, cand_score, k + 1
    return model


# ---------------------------------------------------------------------------
# neighbour moves
# ---------------------------------------------------------------------------

def effective_scope(template: TemplateNetwork, node: int) -> tuple[int, ...]:
    """Variables in the scope of ``node``, led by one pseudo-element standing
    in for any interface input below it."""
    inputs = ScopeAssignment.single_class(template.k).input_scopes()
    scope = compute_scopes(template.graph, inputs)[node]
    head = (INTERFACE_ELEMENT,) if scope.atoms_mask else ()
    return head + tuple(scope.vars())


def _block_model(b: GraphBuilder, block, arities, k: int,
                 rng: np.random.Generator, cfg: SearchConfig) -> int:
    """Sub-circuit for one partition block: a univariate mixture for a
    singleton, otherwise a small naive Bayes mixture of factored
    distributions; the interface pseudo-element contributes a mixture over
    all interface inputs as its factor."""

    def factor(e: int) -> int:
        if e == INTERFACE_ELEMENT:
            inputs = [b.interface_input(s) for s in range(k)]
            return b.sum(inputs, _jittered(np.full(k, 1.0 / k), rng, cfg.init_jitter))
        inds = [b.indicator(e, c) for c in range(arities[e])]
        return b.sum(inds, _jittered(np.full(len(inds), 1.0 / len(inds)),
                                     rng, cfg.init_jitter))

    if len(block) == 1:
        return factor(block[0])
    components = [b.product([factor(e) for e in block])
                  for _ in range(NB_COMPONENTS)]
    return b.sum(components, _jittered(np.full(len(components),
                                               1.0 / len(components)),
                                       rng, cfg.init_jitter))


def replace_product(template: TemplateNetwork, uids: list[int], target: int,
                    partition: Partition, rng: np.random.Generator,
                    cfg: SearchConfig, fresh_uids: Iterator[int]) \
        -> tuple[TemplateNetwork, list[int]]:
    """Rebuild the template with the sub-circuit at ``target`` replaced by a
    product of per-block models; nodes that become unreachable disappear.
    Surviving nodes keep their persistent identities; the new ones draw
    theirs from ``fresh_uids``."""
    g = template.graph
    arities = g.arities
    b = GraphBuilder(g.n_vars, arities, template.k)
    new_uids: dict[int, int] = {}

    def claim(new_id: int, uid: int) -> int:
        new_uids[new_id] = uid
        return new_id

    memo: dict[int, int] = {}

    def emit(i: int) -> int:
        if i in memo:
            return memo[i]
        nd = g.nodes[i]
        if i == target:
            before = len(b.nodes)
            blocks = [_block_model(b, blk, arities, template.k, rng, cfg)
                      for blk in partition.blocks]
            # The site keeps its identity across replacements so that its
            # partition cursor is not reset; internals are fresh sites.
            new = claim(b.product(blocks), uids[i])
            for fresh in range(before, len(b.nodes)):
                if fresh not in new_uids:
                    new_uids[fresh] = next(fresh_uids)
        elif nd.kind == NodeKind.INDICATOR:
            new = claim(b.indicator(nd.var, nd.value), uids[i])
        elif nd.kind == NodeKind.INPUT:
            new = claim(b.interface_input(nd.slot), uids[i])
        elif nd.kind == NodeKind.SUM:
            new = claim(b.sum([emit(c) for c in nd.children], nd.weights.copy()),
                        uids[i])
        else:
            new = claim(b.product([emit(c) for c in nd.children]), uids[i])
        memo[i] = new
        return new

    roots = [emit(r) for r in g.roots]
    new_template = TemplateNetwork(b.build(roots))
    return new_template, [new_uids[i] for i in range(len(b.nodes))]


def generate_neighbour(state: SearchState, cfg: SearchConfig) \
        -> tuple[DspnModel, list[int]]:
    """Sample a product node uniformly, draw the next partition of its
    effective scope, and swap in the corresponding product of naive Bayes
    blocks."""
    template = state.best.template
    products = template.graph.product_ids()
    target = products[int(state.rng.integers(len(products)))]
    scope = effective_scope(template, target)
    partition = get_partition(scope, state.cursors, state.oracle, cfg.threshold,
                              state.rng, key=(state.uids[target], scope))
    new_template, uids = replace_product(
        template, state.uids, target, partition, state.rng, cfg, state.fresh_uids)
    return _assemble(new_template, TopNetwork(state.best.top.graph.copy())), uids


# ---------------------------------------------------------------------------
# the outer search loop
# ---------------------------------------------------------------------------

def search(train_set, validation_set, cfg: SearchConfig,
           callback=None) -> tuple[DspnModel, list[IterationRecord]]:
    """First-improvement hill climbing over template structures, scored by
    validation log-likelihood.  Stops after ``patience`` consecutive
    non-improving candidates or ``max_iters`` iterations and returns the
    best model seen (anytime contract) plus the per-iteration trace."""
    rng = np.random.default_rng(cfg.seed)
    oracle = IndependenceOracle.from_dataset(train_set)
    tcfg = cfg.train_config()
    t0 = time.perf_counter()
    model = initial_structure(train_set, validation_set,
                              train_set.n_vars, train_set.arities, cfg, rng)
    best_score = float(dataset_logliks(model, validation_set.sequences).sum())
    state = SearchState(
        best=model, best_score=best_score, cursors=CursorStore(), rng=rng,
        oracle=oracle, uids=list(range(len(model.template.graph))),
        fresh_uids=itertools.count(len(model.template.graph)))
    train_ll = float(dataset_logliks(model, train_set.sequences).sum())
    trace = [IterationRecord(0, True, len(model.template.graph), model.k,
                             train_ll, best_score, time.perf_counter() - t0)]
    if callback:
        callback(0, model, True, best_score)
    stale = 0  # consecutive non-improving candidates
    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        candidate, uids = generate_neighbour(state, cfg)
        candidate = train_weights(candidate, train_set.sequences, tcfg)
        score = float(dataset_logliks(candidate, validation_set.sequences).sum())
        accepted = score > state.best_score
        if accepted:
            state.best, state.best_score, state.uids = candidate, score, uids
            stale = 0
        else:
            stale += 1
        cand_train_ll = float(dataset_logliks(candidate, train_set.sequences).sum())
        trace.append(IterationRecord(
            it, accepted, len(candidate.template.graph), candidate.k,
            cand_train_ll, score, time.perf_counter() - t0))
        if callback:
            callback(it, candidate, accepted, score)
        if stale >= cfg.patience:
            break
    return state.best, trace
