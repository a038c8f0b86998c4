"""Sequence models built from a repeated per-slice template.

A model has three parts sharing one variable signature (n variables with
fixed arities, interface width k):

* a bottom network covering the first slice, with k roots;
* a template network with k interface-input leaves and k roots, applied
  once per additional slice;
* a top network with k interface-input leaves and a single root.

Stacking merges input slot s of the upper part with root s of the part
below it; a model document's slot-to-root bijection ``f_map`` is applied
once, when it is loaded, by putting the roots in slot order.  The
invariance conditions checked here guarantee that every such stack, for
every sequence length, is a complete and decomposable circuit, so the
rolling evaluation is exact and linear in sequence length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import (GraphBuilder, GraphError, Node, NodeKind, Scope, SpnGraph,
                    ValidityReport, check_validity, compute_scopes)
from .inference import LOG_ZERO, _logsumexp_rows, forward


class DegenerateTemplate(GraphError):
    """Deriving the first-slice network removed all children of a root."""


class EmptySequence(ValueError):
    """Sequence evaluation needs at least one slice."""


class InvalidModel(GraphError):
    """Model failed invariance/validity verification in strict mode."""


# ---------------------------------------------------------------------------
# network wrappers
# ---------------------------------------------------------------------------

@dataclass
class ScopeAssignment:
    """Partition of interface slots into scope-equivalence classes.

    ``atom_of_slot[s]`` names the abstract scope atom assigned to slot s:
    equal atoms mean postulated-identical scopes, distinct atoms mean
    postulated-disjoint scopes.  Atoms deliberately exclude the concrete
    slice variables.
    """

    atom_of_slot: tuple[int, ...]

    @classmethod
    def single_class(cls, k: int) -> "ScopeAssignment":
        return cls(tuple(0 for _ in range(k)))

    @property
    def k(self) -> int:
        return len(self.atom_of_slot)

    def input_scopes(self) -> dict[int, Scope]:
        return {s: Scope.of_atom(a) for s, a in enumerate(self.atom_of_slot)}

    def relabeled(self, atom_bijection: dict[int, int]) -> "ScopeAssignment":
        return ScopeAssignment(tuple(atom_bijection[a] for a in self.atom_of_slot))


class TemplateNetwork:
    """Per-slice circuit with k interface-input leaves and k roots; root s
    continues input slot s's role."""

    def __init__(self, graph: SpnGraph):
        self.graph = graph
        k = graph.n_interface_inputs
        if len(graph.roots) != k:
            raise GraphError(f"template must have {k} roots, found {len(graph.roots)}")
        slots = sorted(graph.nodes[i].slot for i in graph.input_ids())
        if slots != list(range(k)):
            raise GraphError("template must carry each input slot exactly once")

    @property
    def k(self) -> int:
        return self.graph.n_interface_inputs

    @property
    def n_vars(self) -> int:
        return self.graph.n_vars


class BottomNetwork:
    """First-slice circuit: k roots, no interface inputs."""

    def __init__(self, graph: SpnGraph):
        if graph.n_interface_inputs != 0 or graph.input_ids():
            raise GraphError("bottom network must not contain interface inputs")
        self.graph = graph

    @property
    def k(self) -> int:
        return len(self.graph.roots)


class TopNetwork:
    """Capping circuit: single root, k interface-input leaves, no indicators."""

    def __init__(self, graph: SpnGraph):
        if len(graph.roots) != 1:
            raise GraphError("top network must have a single root")
        if graph.indicator_ids():
            raise GraphError("top network must not contain indicator leaves")
        slots = sorted(graph.nodes[i].slot for i in graph.input_ids())
        if slots != list(range(graph.n_interface_inputs)):
            raise GraphError("top network must carry each input slot exactly once")
        self.graph = graph

    @property
    def k(self) -> int:
        return self.graph.n_interface_inputs


# ---------------------------------------------------------------------------
# invariance and model verification
# ---------------------------------------------------------------------------

@dataclass
class InvarianceViolation:
    condition: int
    detail: str


@dataclass
class InvarianceReport:
    violations: list[InvarianceViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "invariant"
        return "\n".join(f"condition {v.condition}: {v.detail}" for v in self.violations)


def check_invariance(template: TemplateNetwork,
                     assignment: ScopeAssignment | None = None) -> InvarianceReport:
    """Check the five template-invariance conditions under an abstract scope
    assignment of the input slots:

    1. input scopes are pairwise identical or disjoint;
    2. equal input scopes exactly at equal corresponding-output scopes;
    3. disjoint input scopes exactly at disjoint corresponding-output scopes;
    4. every interior/output sum node is complete;
    5. every interior/output product node is decomposable.
    """
    g = template.graph
    k = template.k
    if assignment is None:
        assignment = ScopeAssignment.single_class(k)
    if assignment.k != k:
        raise GraphError("scope assignment width differs from template width")
    report = InvarianceReport()
    input_scopes = assignment.input_scopes()
    scopes = compute_scopes(g, input_scopes)
    out_scope = [scopes[r] for r in g.roots]
    in_scope = [input_scopes[s] for s in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if in_scope[i] != in_scope[j] and not in_scope[i].disjoint(in_scope[j]):
                report.violations.append(InvarianceViolation(
                    1, f"input slots {i}, {j} neither identical nor disjoint"))
            if (in_scope[i] == in_scope[j]) != (out_scope[i] == out_scope[j]):
                report.violations.append(InvarianceViolation(
                    2, f"slots {i}, {j}: scope equality not mirrored by outputs"))
            if in_scope[i].disjoint(in_scope[j]) != out_scope[i].disjoint(out_scope[j]):
                report.violations.append(InvarianceViolation(
                    3, f"slots {i}, {j}: scope disjointness not mirrored by outputs"))
    validity = check_validity(g, input_scopes)
    for n, a, b in validity.incomplete_sums:
        report.violations.append(InvarianceViolation(
            4, f"sum {n} incomplete (children {a}, {b})"))
    for n, a, b in validity.overlapping_products:
        report.violations.append(InvarianceViolation(
            5, f"product {n} not decomposable (children {a}, {b})"))
    return report


@dataclass
class ModelValidityReport:
    bottom: ValidityReport
    interface_pairs: list[tuple[int, int]]  # bottom-root pairs neither identical nor disjoint
    template: InvarianceReport
    top: ValidityReport

    @property
    def ok(self) -> bool:
        return (self.bottom.ok and not self.interface_pairs
                and self.template.ok and self.top.ok)

    def summary(self) -> str:
        if self.ok:
            return "model verified: every unrolling is complete and decomposable"
        parts = []
        if not self.bottom.ok:
            parts.append("bottom network:\n" + self.bottom.summary())
        for i, j in self.interface_pairs:
            parts.append(f"bottom roots for slots {i}, {j}: scopes neither "
                         "identical nor disjoint")
        if not self.template.ok:
            parts.append("template network:\n" + self.template.summary())
        if not self.top.ok:
            parts.append("top network:\n" + self.top.summary())
        return "\n".join(parts)


class DspnModel:
    """Bottom + template + top over a shared (n, arities, k) signature."""

    def __init__(self, bottom: BottomNetwork, template: TemplateNetwork,
                 top: TopNetwork, strict: bool = True):
        self.bottom = bottom
        self.template = template
        self.top = top
        if not (bottom.k == template.k == top.k):
            raise GraphError("bottom, template and top disagree on interface width")
        if bottom.graph.n_vars != template.graph.n_vars or \
                bottom.graph.arities != template.graph.arities:
            raise GraphError("bottom and template disagree on the slice signature")
        if strict:
            report = verify_model_validity(self)
            if not report.ok:
                raise InvalidModel(report.summary())

    @property
    def n_vars(self) -> int:
        return self.template.graph.n_vars

    @property
    def arities(self) -> tuple[int, ...]:
        return self.template.graph.arities

    @property
    def k(self) -> int:
        return self.template.k

    def copy(self) -> "DspnModel":
        return DspnModel(BottomNetwork(self.bottom.graph.copy()),
                         TemplateNetwork(self.template.graph.copy()),
                         TopNetwork(self.top.graph.copy()), strict=False)

    def to_dict(self) -> dict:
        return {
            "signature": {"n_vars": self.n_vars, "arities": list(self.arities),
                          "k": self.k},
            "f_map": list(range(self.k)),
            "bottom": self.bottom.graph.to_dict(),
            "template": self.template.graph.to_dict(),
            "top": self.top.graph.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict, strict: bool = True) -> "DspnModel":
        """Load a model document, putting the bottom and template roots in
        slot order: slot s continues the role of root ``f_map[s]``."""
        bottom = SpnGraph.from_dict(doc["bottom"])
        template = SpnGraph.from_dict(doc["template"])
        k = len(template.roots)
        if len(bottom.roots) != k:
            raise GraphError(f"bottom has {len(bottom.roots)} roots, template {k}")
        f_map = list(doc.get("f_map", range(k)))
        if any(type(f) is not int for f in f_map) or sorted(f_map) != list(range(k)):
            raise GraphError("f_map must be a bijection onto root indices")
        for g in (bottom, template):
            g.roots = [g.roots[f] for f in f_map]
        return cls(BottomNetwork(bottom), TemplateNetwork(template),
                   TopNetwork(SpnGraph.from_dict(doc["top"])), strict=strict)


def induced_assignment(m: DspnModel) -> tuple[ScopeAssignment, list[tuple[int, int]]]:
    """Group interface slots by equality of their bottom-root scopes; also
    return the slot pairs whose scopes are neither identical nor disjoint."""
    scopes = compute_scopes(m.bottom.graph)
    slot_scope = [scopes[r] for r in m.bottom.graph.roots]
    atoms: list[int] = []
    classes: list[Scope] = []
    bad_pairs: list[tuple[int, int]] = []
    for s, sc in enumerate(slot_scope):
        for t in range(s):
            if slot_scope[t] != sc and not slot_scope[t].disjoint(sc):
                bad_pairs.append((t, s))
        for a, ref in enumerate(classes):
            if ref == sc:
                atoms.append(a)
                break
        else:
            classes.append(sc)
            atoms.append(len(classes) - 1)
    return ScopeAssignment(tuple(atoms)), bad_pairs


def verify_model_validity(m: DspnModel) -> ModelValidityReport:
    """Verify the stacking-safety premises: the bottom network is complete
    and decomposable, its root scopes are pairwise identical or disjoint,
    and the scope assignment they induce makes the template invariant and
    the top network complete and decomposable.  Together these guarantee
    the unrolled circuit is valid for every sequence length."""
    bottom_report = check_validity(m.bottom.graph)
    assignment, bad_pairs = induced_assignment(m)
    template_report = check_invariance(m.template, assignment)
    top_report = check_validity(m.top.graph, assignment.input_scopes())
    return ModelValidityReport(bottom_report, bad_pairs, template_report, top_report)


# ---------------------------------------------------------------------------
# bottom derivation
# ---------------------------------------------------------------------------

def derive_bottom(template: TemplateNetwork) -> BottomNetwork:
    """First-slice network: the template minus every node that has no
    indicator descendant, with sum weights renormalized over the survivors."""
    g = template.graph
    has_ind = [False] * len(g.nodes)
    for i in g.topo_order:
        nd = g.nodes[i]
        if nd.kind == NodeKind.INDICATOR:
            has_ind[i] = True
        else:
            has_ind[i] = any(has_ind[c] for c in nd.children)
    for r in g.roots:
        if not has_ind[r]:
            raise DegenerateTemplate(f"output root {r} has no indicator descendant")
    new_id: dict[int, int] = {}
    nodes: list[Node] = []
    for i in g.topo_order:
        if not has_ind[i]:
            continue
        nd = g.nodes[i]
        kept = [c for c in nd.children if has_ind[c]]
        if nd.kind == NodeKind.SUM:
            w = np.asarray([nd.weights[j] for j, c in enumerate(nd.children)
                            if has_ind[c]], dtype=float)
            total = w.sum()
            w = w / total if total > 0 else np.full(len(kept), 1.0 / len(kept))
            nodes.append(Node(NodeKind.SUM, tuple(new_id[c] for c in kept), w))
        elif nd.kind == NodeKind.PRODUCT:
            nodes.append(Node(NodeKind.PRODUCT, tuple(new_id[c] for c in kept)))
        else:
            nodes.append(Node(NodeKind.INDICATOR, var=nd.var, value=nd.value))
        new_id[i] = len(nodes) - 1
    graph = SpnGraph(nodes, [new_id[r] for r in g.roots], g.n_vars, g.arities, 0)
    return BottomNetwork(graph)


# ---------------------------------------------------------------------------
# unrolling
# ---------------------------------------------------------------------------

def _copy_into(builder: GraphBuilder, src: SpnGraph, var_offset: int,
               inputs: list[int], provenance: list,
               tag: tuple) -> dict[int, int]:
    """Emit a copy of ``src`` into ``builder``, shifting indicator variables
    and splicing interface input slot s onto node ``inputs[s]``."""
    local: dict[int, int] = {}
    for i in src.topo_order:
        nd = src.nodes[i]
        if nd.kind == NodeKind.INPUT:
            local[i] = inputs[nd.slot]
            continue  # merged node, owned by the layer below
        if nd.kind == NodeKind.INDICATOR:
            local[i] = builder.indicator(nd.var + var_offset, nd.value)
        elif nd.kind == NodeKind.SUM:
            local[i] = builder.sum([local[c] for c in nd.children], nd.weights.copy())
        else:
            local[i] = builder.product([local[c] for c in nd.children])
        provenance.append(tag + (i,))
    return local


def unroll_with_provenance(m: DspnModel, T: int) -> tuple[SpnGraph, list[tuple]]:
    """Materialize the T-slice circuit.  Provenance records, per created
    node, (part, copy_index, source_node_id); merged interface nodes belong
    to the layer below and appear once."""
    if T < 1:
        raise ValueError("sequence length must be at least 1")
    n = m.n_vars
    builder = GraphBuilder(n * T, m.arities * T, 0)
    prov: list[tuple] = []
    local = _copy_into(builder, m.bottom.graph, 0, [], prov, ("bottom", 0))
    lower_roots = [local[r] for r in m.bottom.graph.roots]
    for t in range(1, T):
        local = _copy_into(builder, m.template.graph, t * n, lower_roots,
                           prov, ("template", t))
        lower_roots = [local[r] for r in m.template.graph.roots]
    local = _copy_into(builder, m.top.graph, 0, lower_roots, prov, ("top", T))
    graph = builder.build([local[m.top.graph.roots[0]]])
    return graph, prov


def unroll(m: DspnModel, T: int) -> SpnGraph:
    return unroll_with_provenance(m, T)[0]


# ---------------------------------------------------------------------------
# rolling evaluation
# ---------------------------------------------------------------------------

# Template node-rows (nodes x slices x rows) per stacked template call: the
# edge statistics of ``collect_statistics`` and the basis forward of
# ``_transfer_loglik``.
_STACKED_NODE_ROWS = 1 << 18


def _stacked_span(nodes: int, rows: int) -> int:
    """Slices per stacked template call for a template of ``nodes`` nodes
    at ``rows`` rows per slice: at least one, within ``_STACKED_NODE_ROWS``."""
    return max(1, _STACKED_NODE_ROWS // (nodes * max(1, rows)))


@dataclass
class SequenceBatch:
    """Sequences of any lengths in one batch, longest first (stable among
    equal lengths); row r is input sequence ``order[r]``.  Slice t is stored
    at ``slices[starts[t]:starts[t + 1]]``: one value row per sequence still
    running, which are the batch's first rows, so no slice carries padding."""

    slices: np.ndarray   # (total slices, n_vars)
    starts: np.ndarray   # (longest length + 1,) offsets into ``slices``
    lengths: np.ndarray  # (rows,) non-increasing
    order: np.ndarray    # (rows,)

    def row_index(self) -> np.ndarray:
        """Each packed slice's row in the batch."""
        return np.arange(len(self.slices)) - np.repeat(self.starts[:-1],
                                                       np.diff(self.starts))


def _as_slices(seq, n_vars: int) -> np.ndarray:
    """One sequence as a (T, n_vars) int64 array with T >= 1."""
    s = np.asarray(seq, dtype=np.int64)
    if len(s) < 1:
        raise EmptySequence("sequence has no slices")
    if s.ndim != 2 or s.shape[1] != n_vars:
        raise ValueError(f"every slice must carry {n_vars} variables")
    return s


def pack_sequences(sequences, n_vars: int) -> SequenceBatch:
    """Pack (T_i, n_vars) sequences, values or -1 for marginalized, into
    one :class:`SequenceBatch`."""
    seqs = [_as_slices(s, n_vars) for s in sequences]
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    lengths = lengths[order]
    running = lengths > np.arange(lengths.max(initial=1))[:, None]  # (T, rows)
    starts = np.concatenate(([0], np.cumsum(running.sum(axis=1))))
    flat = np.concatenate([np.empty((0, n_vars), dtype=np.int64)]
                          + [seqs[i] for i in order])
    first = np.cumsum(lengths) - lengths  # each row's first slice in ``flat``
    time_major = (first + np.arange(len(running))[:, None])[running]
    return SequenceBatch(flat[time_major], starts, lengths, order)


def rolling_forward(m: DspnModel, batch: SequenceBatch,
                    keep_values: bool = False):
    """Evaluate a packed batch slice by slice.  Returns (root
    log-likelihoods in batch row order, per-layer forward values or None).
    Kept values are (bottom, template, top); the template's are the rows of
    slices 1, 2, ... side by side, so all slices can be read as one block.

    The interface state after each layer is the vector of that layer's root
    values, in slot order.  A row's final state is stored once, when its
    sequence ends, for the top network to read."""
    rows = len(batch.order)
    starts = batch.starts.tolist()
    bottom_vals = forward(m.bottom.graph, batch.slices[:rows])
    state = bottom_vals[m.bottom.graph.roots]
    final = np.empty_like(state)
    template_vals = np.empty((len(m.template.graph), starts[-1] - rows)) \
        if keep_values else None
    for lo, hi in zip(starts[1:-1], starts[2:]):
        if hi - lo < state.shape[1]:
            final[:, hi - lo:state.shape[1]] = state[:, hi - lo:]
            state = state[:, :hi - lo]
        vals = forward(m.template.graph, batch.slices[lo:hi], state)
        state = vals[m.template.graph.roots]
        if keep_values:
            template_vals[:, lo - rows:hi - rows] = vals
    final[:, :state.shape[1]] = state
    top_vals = forward(m.top.graph, np.full((rows, m.top.graph.n_vars), -1), final)
    loglik = top_vals[m.top.graph.roots[0]]
    if keep_values:
        return loglik, (bottom_vals, template_vals, top_vals)
    return loglik, None


def _transfer_loglik(m: DspnModel, slices: np.ndarray) -> float:
    """Log-likelihood of one sequence as a chain of k x k transfer matrices,
    for a template linear in its interface inputs.

    Slice t maps the interface state by a log-matrix M_t: M_t[i, j] is the
    value of root i under the log-basis input that is 0 on slot j and -inf
    elsewhere, and the next state is logsumexp_j(M_t[i, j] + state[j]).
    One template forward over a block of slices, each repeated k times
    against the basis, gives every M_t of the block; blocks hold at most
    ``_STACKED_NODE_ROWS`` node-rows, so memory does not grow with the
    length.  The chain then runs one log-sum-exp step per slice, in order,
    and the top network's forward on the final state closes it."""
    k = m.k
    tmpl = m.template.graph
    basis = np.where(np.eye(k, dtype=bool), 0.0, LOG_ZERO)
    state = forward(m.bottom.graph, slices[:1])[m.bottom.graph.roots, 0]
    span = _stacked_span(len(tmpl), k)
    with np.errstate(divide="ignore"):
        for lo in range(1, len(slices), span):
            block = slices[lo:lo + span]
            vals = forward(tmpl, np.repeat(block, k, axis=0), np.tile(basis, len(block)))
            for mat in vals[tmpl.roots].reshape(k, len(block), k).transpose(1, 0, 2):
                state = _logsumexp_rows(mat + state)
    top = forward(m.top.graph, np.full((1, m.top.graph.n_vars), -1), state[:, None])
    return float(top[m.top.graph.roots[0], 0])


def sequence_loglik(m: DspnModel, seq) -> float:
    """Exact log-likelihood of one sequence of slices (values or -1 for
    marginalized), computed without materializing the unrolled circuit."""
    return float(dataset_logliks(m, [seq])[0])


def dataset_logliks(m: DspnModel, sequences) -> np.ndarray:
    """Per-sequence log-likelihoods in input order.  One sequence under a
    template linear in its inputs is a chain of transfer matrices
    (:func:`_transfer_loglik`); any other batch is one rolling pass over
    all sequences packed into one batch."""
    sequences = list(sequences)
    if len(sequences) == 1 and m.template.graph.compiled().inputs_linear:
        return np.array([_transfer_loglik(m, _as_slices(sequences[0], m.n_vars))])
    batch = pack_sequences(sequences, m.n_vars)
    loglik, _ = rolling_forward(m, batch)
    out = np.empty_like(loglik)
    out[batch.order] = loglik
    return out


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _draw_from(graph: SpnGraph, root: int, rng: np.random.Generator,
               assignment: np.ndarray, demanded: set[int]) -> None:
    stack = [root]
    while stack:
        i = stack.pop()
        nd = graph.nodes[i]
        if nd.kind == NodeKind.SUM:
            stack.append(nd.children[int(rng.choice(len(nd.children), p=nd.weights))])
        elif nd.kind == NodeKind.PRODUCT:
            stack.extend(nd.children)
        elif nd.kind == NodeKind.INDICATOR:
            if assignment[nd.var] not in (-1, nd.value):
                raise GraphError("sampling reached conflicting indicators; "
                                 "the model is not decomposable")
            assignment[nd.var] = nd.value
        else:
            demanded.add(nd.slot)


def sample(m: DspnModel, T: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Ancestral sample of a fully observed (T, n) sequence, drawn layer by
    layer from the top down."""
    if T < 1:
        raise ValueError("sequence length must be at least 1")
    rng = rng or np.random.default_rng()
    if not (m.bottom.graph.weights_normalized() and
            m.template.graph.weights_normalized() and
            m.top.graph.weights_normalized()):
        raise GraphError("sampling requires normalized sum weights")
    out = np.full((T, m.n_vars), -1, dtype=np.int64)
    demanded: set[int] = set()
    scratch = np.full(m.top.graph.n_vars, -1, dtype=np.int64)  # top has no indicators
    _draw_from(m.top.graph, m.top.graph.roots[0], rng, scratch, demanded)
    for t in range(T - 1, 0, -1):
        below: set[int] = set()
        for s in sorted(demanded):
            _draw_from(m.template.graph, m.template.graph.roots[s], rng,
                       out[t], below)
        demanded = below
    for s in sorted(demanded):
        _draw_from(m.bottom.graph, m.bottom.graph.roots[s], rng, out[0], set())
    if (out == -1).any():
        raise GraphError("sampling left variables unassigned; "
                         "the model is not complete")
    return out
