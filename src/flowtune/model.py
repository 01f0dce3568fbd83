"""Typed directed-graph model of a game economy.

Nodes are functional components (sources, random gates, pools, fixed
pools, converters, drains); directed edges carry weights that say how
many resources move between two components per step, or, for edges
leaving a random gate, with which probability share the gate routes an
incoming batch along them.

Each node kind has a connection rule: bounds on in/out degree plus the
kinds it may be wired to. A graph is valid when every node satisfies
its rule and the graph is weakly connected.

This module owns a graph's adjacency: EconomyGraph indexes, once, each
edge's end positions and each node's edge positions out and in, and the
validity checks, gate normalization and step kernels all read that index.
"""

import json
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence, Union

from .util import dump_json, float_sum, is_finite_number

GATE_WEIGHT_TOLERANCE = 1e-9


class EconomyError(Exception):
    """Base class for economy model errors."""

    #: Which input of a call taking several economies (balance) the error is about.
    economy_index = None


class EconomySchemaError(EconomyError):
    """Malformed economy document or graph structure."""


class UnknownNodeKindError(EconomySchemaError):
    pass


class DanglingEdgeError(EconomySchemaError):
    pass


class NonPositiveWeightError(EconomySchemaError):
    pass


class GateNormalizationError(EconomyError):
    """A random gate's outgoing weights cannot be normalized."""


class InvalidEconomyError(EconomyError):
    """Operation requires a valid economy graph."""


class NodeKind(str, Enum):
    SOURCE = "source"
    RANDOM_GATE = "random_gate"
    POOL = "pool"
    FIXED_POOL = "fixed_pool"
    CONVERTER = "converter"
    DRAIN = "drain"

    @property
    def is_pool_like(self) -> bool:
        return self in (NodeKind.POOL, NodeKind.FIXED_POOL)

    @property
    def constraint_kind(self) -> "NodeKind":
        # fixed pools follow the plain pool connection rule
        return NodeKind.POOL if self is NodeKind.FIXED_POOL else self


class NodeConstraint(NamedTuple):
    """Degree bounds and permitted neighbor kinds for one node kind."""

    min_in: int
    max_in: int
    min_out: int
    max_out: int
    allowed_inputs: frozenset
    allowed_outputs: frozenset


_S = NodeKind.SOURCE
_G = NodeKind.RANDOM_GATE
_P = NodeKind.POOL
_C = NodeKind.CONVERTER
_D = NodeKind.DRAIN

#: Connection rules per node kind. Fixed pools share the pool row via
#: NodeKind.constraint_kind; neighbor checks also compare constraint kinds,
#: so a fixed pool counts as a pool on either end of an edge.
CONSTRAINTS: dict = {
    _S: NodeConstraint(0, 0, 1, 3, frozenset(), frozenset({_P, _G})),
    _G: NodeConstraint(1, 1, 2, 3, frozenset({_S, _C}), frozenset({_P, _C})),
    _P: NodeConstraint(1, 2, 0, 3, frozenset({_S, _G, _C}), frozenset({_C, _D})),
    _C: NodeConstraint(1, 3, 1, 1, frozenset({_P, _G}), frozenset({_P, _G})),
    _D: NodeConstraint(1, 2, 0, 0, frozenset({_P}), frozenset()),
}


def constraint_for(kind: NodeKind) -> NodeConstraint:
    """Connection rule for a node kind (fixed pools use the pool rule)."""
    return CONSTRAINTS[kind.constraint_kind]


class Node(NamedTuple):
    id: str
    kind: NodeKind
    label: str | None = None
    initial_amount: int = 0


class Edge(NamedTuple):
    src: str
    dst: str
    weight: float
    static: bool = False


@dataclass(frozen=True)
class EconomyGraph:
    """An economy: nodes plus an ordered edge list.

    Edge order is meaningful: the position of an edge in ``edges`` is the
    gene index used when its weight is tuned. Instances are immutable;
    derive changed graphs via :meth:`with_weights` or the module helpers.
    """

    nodes: tuple = ()
    edges: tuple = ()

    def __post_init__(self):
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        index = {}  # node id -> position
        for k, node in enumerate(nodes):
            if not isinstance(node.id, str) or not node.id:
                raise EconomySchemaError(f"node id must be a nonempty string, got {node.id!r}")
            if node.id in index:
                raise EconomySchemaError(f"duplicate node id {node.id!r}")
            if not isinstance(node.kind, NodeKind):
                raise UnknownNodeKindError(f"node {node.id!r} has unknown kind {node.kind!r}")
            amount = node.initial_amount
            if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
                raise EconomySchemaError(
                    f"node {node.id!r}: initial amount must be a nonnegative integer, got {amount!r}"
                )
            if amount != 0 and not node.kind.is_pool_like:
                raise EconomySchemaError(
                    f"node {node.id!r}: only pools may declare an initial amount"
                )
            index[node.id] = k

        edges = []
        ends = []  # per edge, the positions of its source and destination
        outgoing = [[] for _ in nodes]  # per node, the positions of its edges, in edge order
        incoming = [[] for _ in nodes]
        seen = set()
        for edge in self.edges:
            src, dst = index.get(edge.src), index.get(edge.dst)
            if src is None:
                raise DanglingEdgeError(f"edge {edge.src!r}->{edge.dst!r}: unknown node {edge.src!r}")
            if dst is None:
                raise DanglingEdgeError(f"edge {edge.src!r}->{edge.dst!r}: unknown node {edge.dst!r}")
            if src == dst:
                raise EconomySchemaError(f"self loop on node {edge.src!r}")
            if (src, dst) in seen:
                raise EconomySchemaError(f"duplicate edge {edge.src!r}->{edge.dst!r}")
            seen.add((src, dst))
            outgoing[src].append(len(edges))
            incoming[dst].append(len(edges))
            ends.append((src, dst))
            edges.append(_coerce_weight(edge, nodes[src].kind))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_ends", tuple(ends))
        object.__setattr__(self, "_out", tuple(map(tuple, outgoing)))
        object.__setattr__(self, "_in", tuple(map(tuple, incoming)))

    def _position(self, node_id: str) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise ValueError(f"no node {node_id!r} in graph") from None

    def has_node(self, node_id: str) -> bool:
        return node_id in self._index

    def node(self, node_id: str) -> Node:
        return self.nodes[self._position(node_id)]

    def with_weights(self, weights: Sequence) -> "EconomyGraph":
        """New graph with edge weights replaced positionally."""
        if len(weights) != len(self.edges):
            raise ValueError(
                f"expected {len(self.edges)} weights, got {len(weights)}"
            )
        new_edges = tuple(
            Edge(e.src, e.dst, w, e.static) for e, w in zip(self.edges, weights)
        )
        return EconomyGraph(self.nodes, new_edges)


def _coerce_weight(edge: Edge, src_kind: NodeKind) -> Edge:
    w = edge.weight
    if not is_finite_number(w):
        raise EconomySchemaError(f"edge {edge.src!r}->{edge.dst!r}: weight must be a finite number")
    if not (w > 0):
        raise NonPositiveWeightError(
            f"edge {edge.src!r}->{edge.dst!r}: weight must be positive, got {w!r}"
        )
    if src_kind is not NodeKind.RANDOM_GATE and isinstance(w, float):
        # amounts are whole resource counts; only gate edges carry real shares
        if not w.is_integer():
            raise EconomySchemaError(
                f"edge {edge.src!r}->{edge.dst!r}: non-gate weights must be whole numbers, got {w!r}"
            )
        return Edge(edge.src, edge.dst, int(w), edge.static)
    return edge


def validate_node(node: Union[Node, str], graph: EconomyGraph) -> int:
    """Count the dissatisfied connection constraints of one node.

    Each unmet degree bound counts one, plus one per incident edge whose
    opposite endpoint has a disallowed kind. Zero means fully satisfied.
    """
    return sum(1 for _ in _violations(node.id if isinstance(node, Node) else node, graph))


def _violations(node_id: str, graph: EconomyGraph):
    """One line per dissatisfied connection constraint of one node."""
    k = graph._position(node_id)
    nodes, ends, into, out = graph.nodes, graph._ends, graph._in[k], graph._out[k]
    rule = constraint_for(nodes[k].kind)
    name = f"{nodes[k].kind.value} {node_id!r}"
    for direction, degree, low, high in (
        ("in", len(into), rule.min_in, rule.max_in),
        ("out", len(out), rule.min_out, rule.max_out),
    ):
        if degree < low:
            yield f"{name} has {direction}-degree {degree}, needs at least {low}"
        if degree > high:
            yield f"{name} has {direction}-degree {degree}, allows at most {high}"
    for e in into:
        src = nodes[ends[e][0]]
        if src.kind.constraint_kind not in rule.allowed_inputs:
            yield f"{name} cannot take an edge from {src.kind.value} {src.id!r}"
    for e in out:
        dst = nodes[ends[e][1]]
        if dst.kind.constraint_kind not in rule.allowed_outputs:
            yield f"{name} cannot have an edge to {dst.kind.value} {dst.id!r}"


def broken_rule(graph: EconomyGraph) -> str | None:
    """The first connection rule an invalid graph breaks (nodes in order, then
    "not weakly connected"), for its error message; None for a valid graph."""
    for node in graph.nodes:
        for violation in _violations(node.id, graph):
            return violation
    return None if is_weakly_connected(graph) else "not weakly connected"


def graph_fitness(graph: EconomyGraph) -> int:
    """Total dissatisfied constraints over all nodes; 0 is best."""
    return sum(validate_node(node, graph) for node in graph.nodes)


def is_weakly_connected(graph: EconomyGraph) -> bool:
    """True when the graph forms one component ignoring edge direction."""
    return indices_connected(len(graph.nodes), graph._ends)


def indices_connected(count: int, pairs) -> bool:
    """True when nodes 0..count-1 form one component under the undirected pairs."""
    if count <= 1:
        return True
    neighbors = [[] for _ in range(count)]
    for a, b in pairs:
        neighbors[a].append(b)
        neighbors[b].append(a)
    seen = [False] * count
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for other in neighbors[stack.pop()]:
            if not seen[other]:
                seen[other] = True
                reached += 1
                stack.append(other)
    return reached == count


def is_valid(graph: EconomyGraph) -> bool:
    """All connection constraints satisfied and weakly connected: no broken rule."""
    return broken_rule(graph) is None


def monitored_node_ids(graph: EconomyGraph) -> list:
    """Ids of all pools, fixed pools and drains, ascending: a run's columns,
    in every kernel form (flowtune.kernel's Topology.monitored), trace and
    trace table."""
    kinds = (NodeKind.POOL, NodeKind.FIXED_POOL, NodeKind.DRAIN)
    return sorted(n.id for n in graph.nodes if n.kind in kinds)


def gate_shares(graph: EconomyGraph, weights: Sequence) -> list:
    """The weights (in edge order) with each random gate's outgoing weights
    scaled as scaled_shares scales them; non-gate weights are unchanged."""
    shares = list(weights)
    for gate, indices in zip(graph.nodes, graph._out):
        if gate.kind is NodeKind.RANDOM_GATE:
            for i, share in zip(indices, scaled_shares(gate.id, [weights[i] for i in indices])):
                shares[i] = share
    return shares


def scaled_shares(gate_id: str, weights: Sequence) -> Sequence:
    """One gate's outgoing weights, each divided by their left-to-right sum,
    or the sequence itself when that sum is already one (within
    GATE_WEIGHT_TOLERANCE): the one gate rule, by which gate_shares writes a
    graph's shares and the observe kernel scales a genome's. A sum that is
    not a finite positive number (a gate without outgoing edges sums to 0)
    raises GateNormalizationError."""
    total = float_sum(weights)
    if not (is_finite_number(total) and total > 0):
        raise GateNormalizationError(f"gate {gate_id!r}: outgoing weights do not sum to a finite positive number")
    if abs(total - 1.0) > GATE_WEIGHT_TOLERANCE:
        return [w / total for w in weights]
    return weights


def normalize_gate_weights(graph: EconomyGraph) -> EconomyGraph:
    """Scale each random gate's outgoing weights so they sum to one.

    Idempotent (see gate_shares): a graph with nothing to scale is
    returned as is. Non-gate edges are never altered.
    """
    weights = [e.weight for e in graph.edges]
    shares = gate_shares(graph, weights)
    return graph if shares == weights else graph.with_weights(shares)


_NODE_KEYS = {"id", "kind", "label", "initial"}
_EDGE_KEYS = {"from", "to", "weight", "static"}


def load_economy(data: Union[bytes, str]) -> EconomyGraph:
    """Parse an economy document (see README for the schema).

    Checks here cover only the document's shape; the EconomyGraph
    constructor checks ids, initial amounts and weights.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EconomySchemaError(f"not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # also too deep, or an integer too long to convert
        raise EconomySchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise EconomySchemaError("top level must be an object")
    extra = set(doc) - {"nodes", "edges", "comment"}
    if extra:
        raise EconomySchemaError(f"unknown top-level keys: {sorted(extra)}")
    if "comment" in doc and not isinstance(doc["comment"], str):
        raise EconomySchemaError("comment must be a string")
    for key in ("nodes", "edges"):
        if key not in doc or not isinstance(doc[key], list):
            raise EconomySchemaError(f"missing or non-array {key!r}")

    nodes = []
    for i, raw in enumerate(doc["nodes"]):
        if not isinstance(raw, dict):
            raise EconomySchemaError(f"nodes[{i}] must be an object")
        extra = set(raw) - _NODE_KEYS
        if extra:
            raise EconomySchemaError(f"nodes[{i}]: unknown keys {sorted(extra)}")
        node_id = raw.get("id")
        kind_name = raw.get("kind")
        try:
            kind = NodeKind(kind_name)
        except ValueError:
            raise UnknownNodeKindError(
                f"node {node_id!r}: unknown kind {kind_name!r}"
            ) from None
        label = raw.get("label")
        if label is not None and not isinstance(label, str):
            raise EconomySchemaError(f"node {node_id!r}: label must be a string")
        nodes.append(Node(node_id, kind, label, raw.get("initial", 0)))

    edges = []
    for i, raw in enumerate(doc["edges"]):
        if not isinstance(raw, dict):
            raise EconomySchemaError(f"edges[{i}] must be an object")
        extra = set(raw) - _EDGE_KEYS
        if extra:
            raise EconomySchemaError(f"edges[{i}]: unknown keys {sorted(extra)}")
        src, dst = raw.get("from"), raw.get("to")
        if not isinstance(src, str) or not isinstance(dst, str):
            raise EconomySchemaError(f"edges[{i}]: from/to must be strings")
        static = raw.get("static", False)
        if not isinstance(static, bool):
            raise EconomySchemaError(f"edge {src!r}->{dst!r}: static must be a boolean")
        edges.append(Edge(src, dst, raw.get("weight"), static))

    return EconomyGraph(tuple(nodes), tuple(edges))


def save_economy(graph: EconomyGraph) -> bytes:
    """Serialize a graph to the economy document format (UTF-8 JSON)."""
    doc = {
        "nodes": [_node_to_dict(n) for n in graph.nodes],
        "edges": [_edge_to_dict(e) for e in graph.edges],
    }
    return dump_json(doc)


def _node_to_dict(node: Node) -> dict:
    out = {"id": node.id, "kind": node.kind.value}
    if node.label is not None:
        out["label"] = node.label
    if node.initial_amount:
        out["initial"] = node.initial_amount
    return out


def _edge_to_dict(edge: Edge) -> dict:
    weight = edge.weight
    if isinstance(weight, float) and weight.is_integer():
        weight = int(weight)
    out = {"from": edge.src, "to": edge.dst, "weight": weight}
    if edge.static:
        out["static"] = True
    return out
