"""Sequence models built from a repeated per-slice template.

A model has three parts sharing one variable signature (n variables with
fixed arities, interface width k):

* a bottom network covering the first slice, with k roots;
* a template network with k interface-input leaves and k roots, applied
  once per additional slice;
* a top network with k interface-input leaves and a single root.

Stacking merges the input leaves of the upper part with the roots of the
part below it, through the template's slot-to-root bijection.  The
invariance conditions checked here guarantee that every such stack, for
every sequence length, is a complete and decomposable circuit, so the
rolling evaluation is exact and linear in sequence length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .graph import (GraphBuilder, GraphError, Node, NodeKind, Scope, SpnGraph,
                    ValidityReport, check_validity, compute_scopes)
from .inference import LOG_ZERO, forward


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
    """Per-slice circuit with k interface-input leaves and k roots, plus the
    bijection saying which root continues which input slot's role."""

    def __init__(self, graph: SpnGraph, f_map: Sequence[int] | None = None):
        self.graph = graph
        k = graph.n_interface_inputs
        self.f_map = tuple(f_map) if f_map is not None else tuple(range(k))
        if len(graph.roots) != k:
            raise GraphError(f"template must have {k} roots, found {len(graph.roots)}")
        slots = sorted(graph.nodes[i].slot for i in graph.input_ids())
        if slots != list(range(k)):
            raise GraphError("template must carry each input slot exactly once")
        if sorted(self.f_map) != list(range(k)):
            raise GraphError("f_map must be a bijection onto root indices")

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
    out_scope = [scopes[g.roots[template.f_map[s]]] for s in range(k)]
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

    @property
    def f_map(self) -> tuple[int, ...]:
        return self.template.f_map

    @property
    def signature(self) -> tuple[int, tuple[int, ...], int]:
        return (self.n_vars, self.arities, self.k)

    def node_count(self) -> int:
        return len(self.bottom.graph) + len(self.template.graph) + len(self.top.graph)

    def copy(self) -> "DspnModel":
        return DspnModel(BottomNetwork(self.bottom.graph.copy()),
                         TemplateNetwork(self.template.graph.copy(), self.f_map),
                         TopNetwork(self.top.graph.copy()), strict=False)

    def to_dict(self) -> dict:
        return {
            "signature": {"n_vars": self.n_vars, "arities": list(self.arities),
                          "k": self.k},
            "f_map": list(self.f_map),
            "bottom": self.bottom.graph.to_dict(),
            "template": self.template.graph.to_dict(),
            "top": self.top.graph.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict, strict: bool = True) -> "DspnModel":
        return cls(BottomNetwork(SpnGraph.from_dict(doc["bottom"])),
                   TemplateNetwork(SpnGraph.from_dict(doc["template"]),
                                   doc.get("f_map")),
                   TopNetwork(SpnGraph.from_dict(doc["top"])),
                   strict=strict)


def induced_assignment(m: DspnModel) -> tuple[ScopeAssignment, list[tuple[int, int]]]:
    """Group interface slots by equality of their bottom-root scopes; also
    return the slot pairs whose scopes are neither identical nor disjoint."""
    scopes = compute_scopes(m.bottom.graph)
    slot_scope = [scopes[m.bottom.graph.roots[m.f_map[s]]] for s in range(m.k)]
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
# unrolling and composition
# ---------------------------------------------------------------------------

def _copy_into(builder: GraphBuilder, src: SpnGraph, var_offset: int,
               input_map: dict[int, int] | None,
               provenance: list | None, tag: tuple) -> dict[int, int]:
    """Emit a copy of ``src`` into ``builder``, shifting indicator variables
    and splicing interface inputs onto ``input_map`` targets."""
    local: dict[int, int] = {}
    for i in src.topo_order:
        nd = src.nodes[i]
        if nd.kind == NodeKind.INPUT:
            if input_map is None:
                local[i] = builder.interface_input(nd.slot)
            else:
                local[i] = input_map[nd.slot]
                continue  # merged node, owned by the layer below
        elif nd.kind == NodeKind.INDICATOR:
            local[i] = builder.indicator(nd.var + var_offset, nd.value)
        elif nd.kind == NodeKind.SUM:
            local[i] = builder.sum([local[c] for c in nd.children], nd.weights.copy())
        else:
            local[i] = builder.product([local[c] for c in nd.children])
        if provenance is not None:
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
    local = _copy_into(builder, m.bottom.graph, 0, None, prov, ("bottom", 0))
    lower_roots = [local[r] for r in m.bottom.graph.roots]
    for t in range(1, T):
        input_map = {s: lower_roots[m.f_map[s]] for s in range(m.k)}
        local = _copy_into(builder, m.template.graph, t * n, input_map,
                           prov, ("template", t))
        lower_roots = [local[r] for r in m.template.graph.roots]
    input_map = {s: lower_roots[m.f_map[s]] for s in range(m.k)}
    local = _copy_into(builder, m.top.graph, 0, input_map, prov, ("top", T))
    graph = builder.build([local[m.top.graph.roots[0]]])
    return graph, prov


def unroll(m: DspnModel, T: int) -> SpnGraph:
    return unroll_with_provenance(m, T)[0]


def compose_templates(template: TemplateNetwork, copies: int) -> TemplateNetwork:
    """Stack ``copies`` template copies into one wider-slice template whose
    inputs are copy 1's inputs and whose roots are the last copy's roots."""
    if copies < 1:
        raise ValueError("need at least one copy")
    n = template.n_vars
    g = template.graph
    builder = GraphBuilder(n * copies, g.arities * copies, template.k)
    local = _copy_into(builder, g, 0, None, None, ("template", 0))
    roots = [local[r] for r in g.roots]
    for t in range(1, copies):
        input_map = {s: roots[template.f_map[s]] for s in range(template.k)}
        local = _copy_into(builder, g, t * n, input_map, None, ("template", t))
        roots = [local[r] for r in g.roots]
    return TemplateNetwork(builder.build(roots), template.f_map)


# ---------------------------------------------------------------------------
# rolling evaluation
# ---------------------------------------------------------------------------

def _as_slice_batch(seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=np.int64)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    return arr


def rolling_forward(m: DspnModel, slices: np.ndarray,
                    keep_values: bool = False):
    """Evaluate a (batch, T, n) block of equal-length sequences slice by
    slice.  Returns (root log-likelihoods, per-layer forward values or None).
    Kept values are (bottom, template, top); the template's are stacked as
    (n_nodes, T - 1, batch) so that all slices can be read as one block.

    The interface state after each layer is the vector of that layer's root
    values, read through the slot-to-root bijection.
    """
    slices = _as_slice_batch(slices)
    batch, T, n = slices.shape
    if T < 1:
        raise EmptySequence("sequence has no slices")
    if n != m.n_vars:
        raise ValueError(f"slices carry {n} variables, model expects {m.n_vars}")
    f = list(m.f_map)
    bottom_vals = forward(m.bottom.graph, slices[:, 0, :])
    state = bottom_vals[[m.bottom.graph.roots[f[s]] for s in range(m.k)]]
    template_vals = np.empty((len(m.template.graph), T - 1, batch)) \
        if keep_values else None
    t_root_rows = [m.template.graph.roots[f[s]] for s in range(m.k)]
    for t in range(1, T):
        vals = forward(m.template.graph, slices[:, t, :], state)
        state = vals[t_root_rows]
        if keep_values:
            template_vals[:, t - 1] = vals
    top_vals = forward(m.top.graph, np.full((batch, m.top.graph.n_vars), -1), state)
    loglik = top_vals[m.top.graph.roots[0]]
    if keep_values:
        return loglik, (bottom_vals, template_vals, top_vals)
    return loglik, None


def sequence_loglik(m: DspnModel, seq) -> float:
    """Exact log-likelihood of one sequence of slices (values or -1 for
    marginalized), computed without materializing the unrolled circuit."""
    loglik, _ = rolling_forward(m, np.asarray(seq, dtype=np.int64)[None, :, :])
    return float(loglik[0])


def dataset_logliks(m: DspnModel, sequences) -> np.ndarray:
    """Per-sequence log-likelihoods; equal-length sequences share a pass."""
    out = np.empty(len(sequences))
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(sequences):
        groups.setdefault(len(s), []).append(i)
    for T, idxs in groups.items():
        block = np.stack([np.asarray(sequences[i], dtype=np.int64) for i in idxs])
        lls, _ = rolling_forward(m, block)
        out[idxs] = lls
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
            _draw_from(m.template.graph, m.template.graph.roots[m.f_map[s]],
                       rng, out[t], below)
        demanded = below
    for s in sorted(demanded):
        _draw_from(m.bottom.graph, m.bottom.graph.roots[m.f_map[s]], rng,
                   out[0], set())
    if (out == -1).any():
        raise GraphError("sampling left variables unassigned; "
                         "the model is not complete")
    return out
