import copy
import json
import random

import pytest

from flowtune.fixtures import FIXTURE_NAMES, fixture_text
from flowtune.model import (
    DanglingEdgeError,
    EconomyError,
    EconomyGraph,
    EconomySchemaError,
    Edge,
    GateNormalizationError,
    Node,
    NodeKind,
    NonPositiveWeightError,
    UnknownNodeKindError,
    broken_rule,
    constraint_for,
    graph_fitness,
    is_valid,
    is_weakly_connected,
    load_economy,
    normalize_gate_weights,
    save_economy,
    validate_node,
)
from flowtune.sim import simulate, topology_of

from conftest import chain_graph, gate_graph, random_wellformed_graph
import oracle


def test_constraint_table_values():
    src = constraint_for(NodeKind.SOURCE)
    assert (src.min_in, src.max_in, src.min_out, src.max_out) == (0, 0, 1, 3)
    assert src.allowed_inputs == frozenset()
    assert src.allowed_outputs == {NodeKind.POOL, NodeKind.RANDOM_GATE}

    gate = constraint_for(NodeKind.RANDOM_GATE)
    assert (gate.min_in, gate.max_in, gate.min_out, gate.max_out) == (1, 1, 2, 3)
    assert gate.allowed_inputs == {NodeKind.SOURCE, NodeKind.CONVERTER}
    assert gate.allowed_outputs == {NodeKind.POOL, NodeKind.CONVERTER}

    pool = constraint_for(NodeKind.POOL)
    assert (pool.min_in, pool.max_in, pool.min_out, pool.max_out) == (1, 2, 0, 3)
    assert pool.allowed_inputs == {NodeKind.SOURCE, NodeKind.RANDOM_GATE, NodeKind.CONVERTER}
    assert pool.allowed_outputs == {NodeKind.CONVERTER, NodeKind.DRAIN}

    conv = constraint_for(NodeKind.CONVERTER)
    assert (conv.min_in, conv.max_in, conv.min_out, conv.max_out) == (1, 3, 1, 1)
    assert conv.allowed_inputs == {NodeKind.POOL, NodeKind.RANDOM_GATE}
    assert conv.allowed_outputs == {NodeKind.POOL, NodeKind.RANDOM_GATE}

    drain = constraint_for(NodeKind.DRAIN)
    assert (drain.min_in, drain.max_in, drain.min_out, drain.max_out) == (1, 2, 0, 0)
    assert drain.allowed_inputs == {NodeKind.POOL}
    assert drain.allowed_outputs == frozenset()

    # fixed pools share the pool rule on both ends of an edge
    assert constraint_for(NodeKind.FIXED_POOL) is constraint_for(NodeKind.POOL)
    for rule in map(constraint_for, NodeKind):
        assert rule.min_in <= rule.max_in and rule.min_out <= rule.max_out


def test_validate_node_source_without_output():
    g = EconomyGraph((Node("s", NodeKind.SOURCE),), ())
    assert validate_node("s", g) == 1


def test_validate_node_satisfied_pool():
    assert validate_node("p", chain_graph()) == 0


def test_validate_node_gate_missing_second_output():
    g = EconomyGraph(
        (
            Node("s", NodeKind.SOURCE),
            Node("g", NodeKind.RANDOM_GATE),
            Node("p", NodeKind.POOL),
        ),
        (Edge("s", "g", 1), Edge("g", "p", 1)),
    )
    assert validate_node("g", g) == 1  # out-degree 1 < required 2


def test_validate_node_counts_bad_neighbors_per_edge():
    g = EconomyGraph(
        (Node("s", NodeKind.SOURCE), Node("d", NodeKind.DRAIN)),
        (Edge("s", "d", 1),),
    )
    # source: drain is not an allowed output (+1); drain: source not an
    # allowed input (+1); both degree ranges are satisfied otherwise.
    assert validate_node("s", g) == 1
    assert validate_node("d", g) == 1


def test_validate_node_unknown_id():
    with pytest.raises(ValueError):
        validate_node("ghost", chain_graph())


def test_graph_fitness_minecraft_zero(minecraft):
    assert graph_fitness(minecraft) == 0


def test_graph_fitness_two_isolated_nodes():
    g = EconomyGraph((Node("s", NodeKind.SOURCE), Node("p", NodeKind.POOL)), ())
    assert graph_fitness(g) == 2


def test_graph_fitness_empty_graph():
    assert graph_fitness(EconomyGraph((), ())) == 0


def test_is_valid_minecraft(minecraft):
    assert is_valid(minecraft)


def test_is_valid_chain():
    assert is_valid(chain_graph())


def test_is_valid_rejects_disconnected_union():
    one = chain_graph()
    nodes = one.nodes + tuple(Node(f"{n.id}2", n.kind) for n in one.nodes)
    edges = one.edges + tuple(Edge(f"{e.src}2", f"{e.dst}2", e.weight) for e in one.edges)
    g = EconomyGraph(nodes, edges)
    assert graph_fitness(g) == 0
    assert not is_weakly_connected(g)
    assert not is_valid(g)


def test_broken_rule_names_the_first_violation(minecraft):
    gate = EconomyGraph(
        (Node("s", NodeKind.SOURCE), Node("g", NodeKind.RANDOM_GATE), Node("p", NodeKind.POOL)),
        (Edge("s", "g", 1), Edge("g", "p", 1)),
    )
    assert broken_rule(gate) == "random_gate 'g' has out-degree 1, needs at least 2"
    wrong = EconomyGraph((Node("s", NodeKind.SOURCE), Node("d", NodeKind.DRAIN)), (Edge("s", "d", 1),))
    assert broken_rule(wrong) == "source 's' cannot have an edge to drain 'd'"
    assert broken_rule(EconomyGraph(wrong.nodes[::-1], wrong.edges)) == "drain 'd' cannot take an edge from source 's'"
    crowded = EconomyGraph(
        (*(Node(f"s{i}", NodeKind.SOURCE) for i in range(3)), Node("p", NodeKind.FIXED_POOL)),
        tuple(Edge(f"s{i}", "p", 1) for i in range(3)),
    )
    assert broken_rule(crowded) == "fixed_pool 'p' has in-degree 3, allows at most 2"
    one = chain_graph()
    union = EconomyGraph(one.nodes + tuple(Node(f"{n.id}2", n.kind) for n in one.nodes),
                         one.edges + tuple(Edge(f"{e.src}2", f"{e.dst}2", e.weight) for e in one.edges))
    assert broken_rule(union) == "not weakly connected"
    assert broken_rule(minecraft) is None
    rng = random.Random(11)
    graphs = [gate, wrong, crowded, union, minecraft] + [random_wellformed_graph(rng) for _ in range(300)]
    for g in graphs:  # union breaks no node's rule, yet is invalid
        assert is_valid(g) == (oracle.count_violations(g) == 0 and oracle.weakly_connected(g))
    assert sum(map(is_valid, graphs)) >= 3


def test_normalize_even_weights():
    g = normalize_gate_weights(gate_graph(2, 2))
    assert [e.weight for e in g.edges[1:]] == [0.5, 0.5]


def test_normalize_leaves_normalized_untouched():
    g = gate_graph(0.88, 0.12)
    assert normalize_gate_weights(g) is g


def test_normalize_three_to_one():
    g = normalize_gate_weights(gate_graph(3, 1))
    assert [e.weight for e in g.edges[1:]] == [0.75, 0.25]


def test_normalize_idempotent_and_ratio_preserving():
    rng = random.Random(7)
    for _ in range(50):
        a, b = rng.uniform(0.1, 9), rng.uniform(0.1, 9)
        once = normalize_gate_weights(gate_graph(a, b))
        twice = normalize_gate_weights(once)
        assert [e.weight for e in twice.edges] == [e.weight for e in once.edges]
        w1, w2 = (e.weight for e in once.edges[1:])
        assert w1 / w2 == pytest.approx(a / b, rel=1e-9)
        assert w1 + w2 == pytest.approx(1.0, abs=1e-9)


def test_normalize_gate_without_outputs_fails():
    g = EconomyGraph(
        (Node("s", NodeKind.SOURCE), Node("g", NodeKind.RANDOM_GATE)),
        (Edge("s", "g", 1),),
    )
    with pytest.raises(GateNormalizationError):
        normalize_gate_weights(g)


def test_gate_weights_summing_to_infinity_cannot_be_normalized():
    g = gate_graph(1e308, 1e308)
    with pytest.raises(GateNormalizationError):
        normalize_gate_weights(g)
    with pytest.raises(GateNormalizationError):
        topology_of(g)


def test_roundtrip_preserves_semantics(minecraft, mage, archer):
    for g in (minecraft, mage, archer):
        again = load_economy(save_economy(g))
        assert again.nodes == g.nodes
        assert again.edges == g.edges
        assert is_valid(again)


@pytest.mark.parametrize("weight", [2**53 + 1, 10**20, 10**20 + 1, 3.0, 1e20])
def test_whole_weights_of_any_size_round_trip(weight):
    """An int weight is whole however large; a float one is whole when it is_integer()."""
    graph = load_economy(SOURCE_TO_POOL % json.dumps(weight))
    assert graph.edges[0].weight == int(weight) and type(graph.edges[0].weight) is int
    again = load_economy(save_economy(graph))
    assert again.edges == graph.edges
    assert save_economy(again) == save_economy(graph)
    assert simulate(again, 2, seed=0).observe("p", 2) == 2 * int(weight)


@pytest.mark.parametrize(
    "weight, message",
    [("2.5", "non-gate weights must be whole numbers, got 2.5"), (str(10**400), "weight must be a finite number")],
)
def test_weights_that_are_not_whole_finite_numbers_are_refused(weight, message):
    with pytest.raises(EconomySchemaError, match=f"^edge 's'->'p': {message}$"):
        load_economy(SOURCE_TO_POOL % weight)


def test_load_rejects_dangling_endpoint():
    doc = {"nodes": [{"id": "a", "kind": "source"}], "edges": [{"from": "a", "to": "b", "weight": 1}]}
    with pytest.raises(DanglingEdgeError, match="'b'"):
        load_economy(json.dumps(doc))


def test_load_rejects_zero_weight():
    doc = {
        "nodes": [{"id": "a", "kind": "source"}, {"id": "b", "kind": "pool"}],
        "edges": [{"from": "a", "to": "b", "weight": 0}],
    }
    with pytest.raises(NonPositiveWeightError, match="'a'"):
        load_economy(json.dumps(doc))


def test_load_rejects_unknown_kind():
    doc = {"nodes": [{"id": "a", "kind": "blackhole"}], "edges": []}
    with pytest.raises(UnknownNodeKindError, match="blackhole"):
        load_economy(json.dumps(doc))
    with pytest.raises(UnknownNodeKindError, match="^node 'a' has unknown kind 'pool'$"):
        EconomyGraph((Node("a", "pool"),), ())  # a kind's value, not the kind


SOURCE_TO_POOL = (
    '{"nodes": [{"id": "s", "kind": "source"}, {"id": "p", "kind": "pool"}],'
    ' "edges": [{"from": "s", "to": "p", "weight": %s}]}'
)


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        '{"nodes": {}}',
        '{"nodes": [], "edges": [], "bogus": 1}',
        '{"nodes": [{"id": "a", "kind": "pool", "wieght": 1}], "edges": []}',
        '{"nodes": [{"id": "a", "kind": "pool"}], "edges": [{"from": "a", "to": "a"}]}',
        "not json at all",
        '{"nodes": [{"kind": "pool"}], "edges": []}',
        '{"nodes": [{"id": "", "kind": "pool"}], "edges": []}',
        '{"nodes": [{"id": "a", "kind": "pool", "initial": "3"}], "edges": []}',
        '{"nodes": [{"id": "a", "kind": "pool", "initial": true}], "edges": []}',
        SOURCE_TO_POOL % '"1"',
        SOURCE_TO_POOL % "true",
        SOURCE_TO_POOL % "Infinity",
        SOURCE_TO_POOL % 10**400,
        b"\xff\xfe",
    ],
)
def test_load_rejects_malformed_documents(doc):
    with pytest.raises(EconomySchemaError):
        load_economy(doc)


JUNK = [
    None, True, False, 0, -1, 2.5, "", "x", "pool", "random_gate", [], {}, [1], {"a": 1},
    float("nan"), float("inf"), float("-inf"), 10**400, -(10**400),
]


def _containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child)


def _mutate(doc, rng, ids):
    """One random edit: drop a key or an element, put junk (or a node id) in,
    or duplicate an element."""
    target = rng.choice(list(_containers(doc)))
    junk = copy.deepcopy(rng.choice(JUNK + ids))
    if isinstance(target, dict):
        if not target or rng.random() < 0.1:
            target[rng.choice(["id", "kind", "weight", "static", "initial", "junk"])] = junk
            return
        key = rng.choice(sorted(target))
        if rng.random() < 0.4:
            del target[key]
        else:
            target[key] = junk
    elif target:
        index = rng.randrange(len(target))
        roll = rng.random()
        if roll < 0.4:
            del target[index]
        elif roll < 0.8:
            target[index] = junk
        else:
            target.append(copy.deepcopy(target[index]))
    else:
        target.append(junk)


def test_load_raises_only_economy_errors_on_mutated_fixtures():
    rng = random.Random(5)
    originals = [json.loads(fixture_text(name)) for name in FIXTURE_NAMES]
    rejected = 0
    for i in range(1200):
        original = rng.choice(originals)
        doc = copy.deepcopy(original)
        for _ in range(rng.randint(1, 3)):
            _mutate(doc, rng, [node["id"] for node in original["nodes"]])
        text = json.dumps(doc)
        try:
            load_economy(text.encode("utf-8") if i % 2 else text)
        except EconomyError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 - any other error is the failure
            pytest.fail(f"{type(exc).__name__}: {exc} for document {text[:400]}")
    assert rejected >= 600


def test_duplicate_ids_self_loops_and_parallel_edges_rejected():
    with pytest.raises(EconomySchemaError, match="duplicate node"):
        EconomyGraph((Node("a", NodeKind.POOL), Node("a", NodeKind.POOL)), ())
    nodes = (Node("a", NodeKind.POOL), Node("b", NodeKind.CONVERTER))
    with pytest.raises(EconomySchemaError, match="self loop"):
        EconomyGraph(nodes, (Edge("a", "a", 1),))
    with pytest.raises(EconomySchemaError, match="duplicate edge"):
        EconomyGraph(nodes, (Edge("a", "b", 1), Edge("a", "b", 2)))


def test_initial_amount_only_on_pools():
    with pytest.raises(EconomySchemaError, match="initial"):
        EconomyGraph((Node("c", NodeKind.CONVERTER, None, 3),), ())
    g = EconomyGraph((Node("p", NodeKind.FIXED_POOL, None, 3),), ())
    assert g.node("p").initial_amount == 3


def test_non_gate_weights_must_be_whole():
    nodes = (Node("s", NodeKind.SOURCE), Node("p", NodeKind.POOL))
    with pytest.raises(EconomySchemaError, match="whole"):
        EconomyGraph(nodes, (Edge("s", "p", 1.5),))
    g = EconomyGraph(nodes, (Edge("s", "p", 4.0),))
    assert g.edges[0].weight == 4 and isinstance(g.edges[0].weight, int)


def test_is_valid_invariant_under_reordering(minecraft):
    doc = json.loads(save_economy(minecraft))
    rng = random.Random(3)
    for _ in range(5):
        rng.shuffle(doc["nodes"])
        rng.shuffle(doc["edges"])
        assert is_valid(load_economy(json.dumps(doc)))


def test_fitness_agrees_with_oracle_on_random_graphs():
    rng = random.Random(11)
    for _ in range(200):
        g = random_wellformed_graph(rng)
        assert graph_fitness(g) == oracle.count_violations(g)
        for node in g.nodes:
            assert validate_node(node.id, g) == oracle.count_node_violations(g, node.id)


def test_max_violations_never_increase_when_removing_edges():
    rng = random.Random(13)
    for _ in range(100):
        g = random_wellformed_graph(rng)
        if not g.edges:
            continue
        before = {n.id: oracle.max_degree_violations(g, n.id) for n in g.nodes}
        drop = rng.randrange(len(g.edges))
        smaller = EconomyGraph(g.nodes, g.edges[:drop] + g.edges[drop + 1 :])
        for n in g.nodes:
            assert oracle.max_degree_violations(smaller, n.id) <= before[n.id]


def test_with_weights_replaces_positionally(minecraft):
    weights = [e.weight for e in minecraft.edges]
    weights[5] = 2
    g = minecraft.with_weights(weights)
    assert g.edges[5].weight == 2
    assert [e.weight for e in g.edges[:5]] == weights[:5]
    with pytest.raises(ValueError):
        minecraft.with_weights(weights[:-1])
