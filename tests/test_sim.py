import math
import random

import pytest

import flowtune.sim
from flowtune.fixtures import load_fixture
from flowtune.model import EconomyGraph, Edge, InvalidEconomyError, Node, NodeKind
from flowtune.sim import (
    compile_plan,
    ensemble_to_csv,
    monitored_node_ids,
    observe_runs,
    simulate,
    simulate_ensemble,
)
from flowtune.generator import GeneratorConfig, generate, random_node_counts

import oracle
from conftest import chain_graph, gate_graph


def with_coal_cost(minecraft, x):
    weights = [e.weight for e in minecraft.edges]
    weights[5] = x  # coal_pool -> torch_crafter
    return minecraft.with_weights(weights)


def test_torch_pool_grows_linearly(minecraft):
    trace = simulate(minecraft, 16, seed=0)
    expected = [0, 0] + [4 * (t - 1) for t in range(2, 17)]
    assert [trace.observe("torch_pool", t) for t in range(17)] == expected
    assert trace.observe("torch_pool", 16) == 60


def test_torch_pool_steps_when_coal_cost_doubles(minecraft):
    trace = simulate(with_coal_cost(minecraft, 2), 16, seed=0)
    assert [trace.observe("torch_pool", t) for t in range(17)] == [4 * (t // 2) for t in range(17)]


def test_single_source_delivery():
    g = EconomyGraph(
        (Node("s", NodeKind.SOURCE), Node("p", NodeKind.POOL)),
        (Edge("s", "p", 3),),
    )
    trace = simulate(g, 1, seed=0)
    assert trace.observe("p", 1) == 3


def test_simulate_is_deterministic():
    g = gate_graph(0.7, 0.3)
    a = simulate(g, 50, seed=123)
    b = simulate(g, 50, seed=123)
    assert a == b


def test_seed_irrelevant_without_gates(minecraft):
    baseline = simulate(minecraft, 10, seed=0).snapshots
    for seed in (1, 7, 99):
        assert simulate(minecraft, 10, seed=seed).snapshots == baseline


def test_trace_has_initial_snapshot_plus_one_per_step(minecraft):
    trace = simulate(minecraft, 7, seed=1)
    assert trace.length == 7
    assert len(trace.snapshots) == 8
    # snapshot t is the last snapshot of a run of t steps
    for t in range(1, 8):
        assert trace.snapshots[t] == simulate(minecraft, t, seed=1).snapshots[-1]
    assert trace.snapshots[0] == {node_id: 0 for node_id in monitored_node_ids(minecraft)}


def test_initial_amounts_respected():
    g = EconomyGraph(
        (Node("s", NodeKind.SOURCE), Node("p", NodeKind.POOL, None, 9)),
        (Edge("s", "p", 1),),
    )
    trace = simulate(g, 2, seed=0)
    assert trace.observe("p", 0) == 9
    assert trace.observe("p", 2) == 11


def test_ensemble_of_one_matches_simulate():
    g = gate_graph()
    assert simulate_ensemble(g, 20, 1, 42).traces[0] == simulate(g, 20, 42)


def test_ensemble_on_deterministic_graph_is_constant(minecraft):
    ensemble = simulate_ensemble(minecraft, 12, 10, 0)
    assert len(set(ensemble.observe("torch_pool", 12))) == 1


def test_gate_routes_by_weight_binomially():
    g = gate_graph(0.5, 0.5)
    trace = simulate(g, 1000, seed=7)
    left = trace.observe("left", 1000)
    right = trace.observe("right", 1000)
    assert left + right == 1000
    assert abs(left - 500) <= 3 * math.sqrt(1000 * 0.25)


def test_gate_normalizes_raw_weights_before_routing():
    # weight shares 3:1 behave like 0.75/0.25
    trace = simulate(gate_graph(3, 1), 2000, seed=11)
    left = trace.observe("left", 2000)
    assert abs(left - 1500) <= 3 * math.sqrt(2000 * 0.75 * 0.25)


def test_invalid_graph_refused(monkeypatch):
    steps = []
    real = flowtune.sim._execute
    monkeypatch.setattr(flowtune.sim, "_execute", lambda *args: steps.append(1) or real(*args))
    g = EconomyGraph((Node("s", NodeKind.SOURCE), Node("p", NodeKind.POOL)), ())
    for _ in range(2):  # a refusal is not cached as a plan
        with pytest.raises(InvalidEconomyError):
            simulate(g, 1, seed=0)
        with pytest.raises(InvalidEconomyError):
            simulate(g, 5, seed=0, on_transfer=lambda *event: None)
        with pytest.raises(InvalidEconomyError):
            simulate_ensemble(g, 5, 3, 0)
    assert steps == []  # refused before a single step ran
    with pytest.raises(ValueError):
        simulate(chain_graph(), 0, seed=0)


def test_validity_checked_once_per_graph(monkeypatch):
    calls = []
    real = flowtune.sim.is_valid
    monkeypatch.setattr(flowtune.sim, "is_valid", lambda graph: calls.append(graph) or real(graph))
    graph = chain_graph()
    simulate_ensemble(graph, 10, 10, 0)
    assert calls == [graph]


@pytest.mark.parametrize("graph", [load_fixture("minecraft_torch"), gate_graph(0.7, 0.3)], ids=["torch", "gate"])
def test_shorter_runs_are_prefixes_of_longer_ones(graph):
    longer = simulate(graph, 5, seed=0)
    for t in range(1, 6):
        assert simulate(graph, t, seed=0).snapshots == longer.snapshots[: t + 1]


def test_fixed_pool_clamps_to_largest_outgoing_weight():
    g = EconomyGraph(
        (
            Node("s", NodeKind.SOURCE),
            Node("fp", NodeKind.FIXED_POOL),
            Node("d", NodeKind.DRAIN),
        ),
        (Edge("s", "fp", 5), Edge("fp", "d", 2)),
    )
    trace = simulate(g, 4, seed=0)
    assert [trace.observe("fp", t) for t in range(5)] == [0, 2, 2, 2, 2]
    assert [trace.observe("d", t) for t in range(5)] == [0, 2, 4, 6, 8]


def test_fixed_pool_initial_amount_clamped():
    g = EconomyGraph(
        (
            Node("s", NodeKind.SOURCE),
            Node("fp", NodeKind.FIXED_POOL, None, 50),
            Node("d", NodeKind.DRAIN),
        ),
        (Edge("s", "fp", 1), Edge("fp", "d", 2)),
    )
    trace = simulate(g, 1, seed=0)
    assert trace.snapshots[0] == {"fp": 2, "d": 0}
    assert trace.observe("fp", 0) == 2


def test_converter_cycle_fires_once_per_step():
    g = EconomyGraph(
        (
            Node("a_pool", NodeKind.POOL),
            Node("conv", NodeKind.CONVERTER),
            Node("src", NodeKind.SOURCE),
        ),
        (Edge("src", "a_pool", 1), Edge("a_pool", "conv", 1), Edge("conv", "a_pool", 2)),
    )
    trace = simulate(g, 6, seed=0)
    assert [trace.observe("a_pool", t) for t in range(7)] == [0, 2, 4, 6, 8, 10, 12]


def test_converter_chain_fires_within_one_step(minecraft):
    # sticks crafted in a step feed the torch craft of the same step
    trace = simulate(minecraft, 2, seed=0)
    assert trace.observe("torch_pool", 2) == 4
    assert trace.observe("stick_pool", 2) == 3


def test_gate_staged_amounts_expire_each_step():
    g = EconomyGraph(
        (
            Node("feed", NodeKind.SOURCE),
            Node("gate", NodeKind.RANDOM_GATE),
            Node("buffer", NodeKind.POOL),
            Node("mix", NodeKind.CONVERTER),
            Node("hoard", NodeKind.POOL),
            Node("other", NodeKind.SOURCE),
            Node("out", NodeKind.POOL),
        ),
        (
            Edge("feed", "gate", 1),
            Edge("gate", "buffer", 0.5),
            Edge("gate", "mix", 0.5),
            Edge("other", "hoard", 1),
            Edge("hoard", "mix", 50),  # never satisfied within the horizon
            Edge("mix", "out", 1),
        ),
    )
    consumed = []
    trace = simulate(
        g, 20, seed=3, on_transfer=lambda phase, s, d, a: consumed.append((phase, s, d, a))
    )
    # the converter never fires, so nothing reaches its output pool and
    # staged batches never pile up across steps
    assert all(trace.observe("out", t) == 0 for t in range(21))
    assert not [e for e in consumed if e[0] == "consume"]
    routed = [e for e in consumed if e[0] == "gate" and e[2] == "mix"]
    assert routed, "expected some batches to be routed into the converter"


def test_converter_fed_by_two_gates_needs_both_staged():
    g = EconomyGraph(
        (
            Node("s1", NodeKind.SOURCE),
            Node("s2", NodeKind.SOURCE),
            Node("g1", NodeKind.RANDOM_GATE),
            Node("g2", NodeKind.RANDOM_GATE),
            Node("pa", NodeKind.POOL),
            Node("pb", NodeKind.POOL),
            Node("mix", NodeKind.CONVERTER),
            Node("out", NodeKind.POOL),
        ),
        (
            Edge("s1", "g1", 1),
            Edge("s2", "g2", 1),
            Edge("g1", "pa", 0.5),
            Edge("g1", "mix", 0.5),
            Edge("g2", "pb", 0.5),
            Edge("g2", "mix", 0.5),
            Edge("mix", "out", 3),
        ),
    )
    events = []
    trace = simulate(g, 200, seed=9, on_transfer=lambda *e: events.append(e))
    fires = [e for e in events if e[0] == "produce"]
    consumes = [e for e in events if e[0] == "consume" and e[2] == "mix"]
    # each firing consumes one staged batch from each gate edge, within the
    # step the batches arrived; batches never pile up across steps
    assert len(consumes) == 2 * len(fires)
    assert all(amount == 1 for _, _, _, amount in consumes)
    assert trace.observe("out", 200) == 3 * len(fires) == 117


def test_gate_into_fixed_pool_still_clamps():
    g = EconomyGraph(
        (
            Node("s", NodeKind.SOURCE),
            Node("gate", NodeKind.RANDOM_GATE),
            Node("fp", NodeKind.FIXED_POOL),
            Node("p", NodeKind.POOL),
            Node("use", NodeKind.CONVERTER),
            Node("sink", NodeKind.POOL),
        ),
        (
            Edge("s", "gate", 4),
            Edge("gate", "fp", 0.5),
            Edge("gate", "p", 0.5),
            Edge("fp", "use", 2),
            Edge("use", "sink", 1),
        ),
    )
    trace = simulate(g, 50, seed=1)
    assert all(trace.observe("fp", t) <= 2 for t in range(51))
    assert trace.observe("sink", 50) > 0


@pytest.mark.parametrize(
    "graph", [load_fixture("minecraft_torch"), load_fixture("archer"), chain_graph()], ids=["torch", "archer", "chain"]
)
def test_pool_accounting_ledger(graph):
    flows = []
    trace = simulate(graph, 12, seed=0, on_transfer=lambda phase, s, d, a: flows.append((phase, s, d, a)))
    # replay the ledger and compare with the recorded snapshots
    drains = {node.id for node in graph.nodes_of_kind(NodeKind.DRAIN)}
    balances = {k: v for k, v in trace.snapshots[0].items() if k not in drains}
    totals = {k: v for k, v in trace.snapshots[0].items() if k in drains}
    for phase, src, dst, amount in flows:
        if dst in balances:
            balances[dst] += amount
        if src in balances and phase in ("consume", "drain"):
            balances[src] -= amount
        if phase == "clamp":
            balances[src] -= amount
        if dst in totals and phase == "drain":
            totals[dst] += amount
    assert {**balances, **totals} == trace.snapshots[-1]
    assert sorted(trace.snapshots[-1]) == monitored_node_ids(graph)


def test_drain_totals_never_decrease_and_balances_stay_nonnegative():
    rng = random.Random(5)
    produced = 0
    for i in range(8):
        counts = random_node_counts(rng, 5, 12)
        result = generate(GeneratorConfig(counts, max_steps=20000, seed=400 + i))
        if not result.valid:
            continue
        produced += 1
        trace = simulate(result.graph, 25, seed=i)
        drains = [node.id for node in result.graph.nodes_of_kind(NodeKind.DRAIN)]
        previous = None
        for snap in trace.snapshots:
            assert all(v >= 0 for v in snap.values())
            if previous is not None:
                for drain in drains:
                    assert snap[drain] >= previous[drain]
            previous = snap
    assert produced >= 5


def test_monitored_nodes_and_csv_layout(minecraft):
    ensemble = simulate_ensemble(minecraft, 3, 2, 9)
    monitored = monitored_node_ids(minecraft)
    assert monitored == sorted(monitored)
    assert set(monitored) == {"wood_pool", "coal_pool", "stick_pool", "torch_pool"}
    csv = ensemble_to_csv(ensemble)
    lines = csv.strip().split("\n")
    assert lines[0] == "run,step,node_id,amount"
    assert len(lines) == 1 + 2 * 4 * 4  # runs * (n+1 steps) * monitored nodes
    assert lines[1] == "0,0,coal_pool,0"
    assert "1,3,torch_pool,8" in lines


def test_csv_matches_a_table_read_through_observe():
    rng = random.Random(13)
    seen = {"gated": 0, "gate_free": 0}
    seed = 0
    while min(seen.values()) < 4:
        seed += 1
        result = generate(GeneratorConfig(random_node_counts(rng, 5, 14), max_steps=3000, seed=seed))
        if not result.valid:
            continue
        gated = any(node.kind is NodeKind.RANDOM_GATE for node in result.graph.nodes)
        seen["gated" if gated else "gate_free"] += 1
        ensemble = simulate_ensemble(result.graph, 15, 4, seed)
        assert ensemble_to_csv(ensemble) == oracle.trace_csv(ensemble), f"seed {seed}"
    for name in ("minecraft_torch", "mage", "archer"):
        ensemble = simulate_ensemble(load_fixture(name), 12, 3, 5)
        assert ensemble_to_csv(ensemble) == oracle.trace_csv(ensemble), name


def test_observe_errors(minecraft):
    trace = simulate(minecraft, 3, seed=0)
    with pytest.raises(ValueError):
        trace.observe("torch_pool", 4)
    with pytest.raises(ValueError):
        trace.observe("wood_source", 1)


def oracle_economies(count: int, rng: random.Random) -> list:
    """count valid economies: generated topologies, each taken three times
    with random amounts, gate shares, initial amounts and fixed pools."""
    economies = []
    seed = 0
    while len(economies) < count:
        seed += 1
        result = generate(GeneratorConfig(random_node_counts(rng, 4, 12), max_steps=3000, seed=seed))
        if not result.valid:
            continue
        graph = result.graph
        for _ in range(3):
            nodes = []
            for node in graph.nodes:
                kind, initial = node.kind, 0
                if kind.is_pool_like:
                    kind = NodeKind.FIXED_POOL if rng.random() < 0.3 else NodeKind.POOL
                    initial = rng.randrange(6)
                nodes.append(Node(node.id, kind, None, initial))
            edges = []
            for edge in graph.edges:
                if graph.node(edge.src).kind is NodeKind.RANDOM_GATE:
                    weight = rng.uniform(0.05, 2.0)
                else:
                    weight = rng.randint(1, 4)
                edges.append(Edge(edge.src, edge.dst, weight))
            economies.append(EconomyGraph(tuple(nodes), tuple(edges)))
    return economies[:count]


def test_step_oracle_agrees_with_simulate_and_observe_runs():
    n, m = 10, 3
    rng = random.Random(77)
    economies = oracle_economies(300, rng)
    seen = {"gate": 0, "gate_into_converter": 0, "converter_chain": 0, "fixed_pool": 0, "seed_matters": 0}
    for index, graph in enumerate(economies):
        kinds = {node.id: node.kind for node in graph.nodes}
        seen["gate"] += NodeKind.RANDOM_GATE in kinds.values()
        seen["fixed_pool"] += NodeKind.FIXED_POOL in kinds.values()
        seen["gate_into_converter"] += any(
            kinds[e.src] is NodeKind.RANDOM_GATE and kinds[e.dst] is NodeKind.CONVERTER for e in graph.edges
        )
        fed_by_converter = {e.dst for e in graph.edges if kinds[e.src] is NodeKind.CONVERTER}
        seen["converter_chain"] += any(
            e.src in fed_by_converter and kinds[e.dst] is NodeKind.CONVERTER for e in graph.edges
        )

        base_seed = 1000 * index
        expected = [oracle.simulate_amounts(graph, n, base_seed + r) for r in range(m)]
        seen["seed_matters"] += any(runs != expected[0] for runs in expected)
        for r in range(m):
            trace = simulate(graph, n, base_seed + r)
            assert list(trace.snapshots) == expected[r], f"economy {index}, run {r}"
        plan = compile_plan(graph, [e.weight for e in graph.edges])
        for t in range(1, n + 1):
            got = observe_runs(plan, t, m, base_seed)
            assert got == [expected[r][t] for r in range(m)], f"economy {index}, step {t}"
    # the sample reaches every documented mechanism, and random routing matters
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("name, gated", [("minecraft_torch", False), ("mage", False), ("archer", True)])
def test_each_distinct_run_is_simulated_once(monkeypatch, name, gated):
    graph = load_fixture(name)
    plan = compile_plan(graph, [e.weight for e in graph.edges])
    assert bool(plan.gates) is gated
    t, n, m, base_seed = 7, 9, 4, 21
    calls = []
    real = flowtune.sim._execute
    monkeypatch.setattr(flowtune.sim, "_execute", lambda *args: calls.append(1) or real(*args))
    observed = observe_runs(plan, t, m, base_seed)
    assert len(calls) == (m * t if gated else t)
    del calls[:]
    ensemble = simulate_ensemble(graph, n, m, base_seed)
    assert len(calls) == (m * n if gated else n)

    singles = [simulate(graph, n, base_seed + r) for r in range(m)]
    assert ensemble.traces == tuple(singles)  # run_seed included
    assert observed == [s.snapshots[t] for s in singles]
