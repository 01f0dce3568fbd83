import _random
import hashlib
import math
import pickle
import random
import re
import time
from pathlib import Path

import pytest

import flowtune.kernel
import flowtune.sim
from flowtune.fixtures import load_fixture
from flowtune.model import (
    EconomyGraph, Edge, GateNormalizationError, InvalidEconomyError, Node, NodeKind, gate_shares, is_valid,
)
from flowtune.sim import (
    compile_plan,
    ensemble_to_csv,
    monitored_node_ids,
    observe_stream,
    simulate,
    simulate_ensemble,
)
from flowtune.generator import GeneratorConfig, generate, random_node_counts
from flowtune.util import derive_seed

import oracle
from conftest import chain_graph, count_kernel_calls, gate_graph, observed_runs


def with_coal_cost(minecraft, x):
    weights = [e.weight for e in minecraft.edges]
    weights[5] = x  # coal_pool -> torch_crafter
    return minecraft.with_weights(weights)


def test_torch_pool_grows_linearly(minecraft):
    trace = simulate(minecraft, 16, seed=0)
    expected = [0, 0] + [4 * (t - 1) for t in range(2, 17)]
    assert [trace.observe("torch_pool", t) for t in range(17)] == expected
    assert trace.observe("torch_pool", 16) == 60


def test_readme_quick_example_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = next(block for block in readme.split("```python\n") if "simulate(graph, 16, seed=0)" in block)
    example = example.split("```")[0]
    said = [line.split("  # ", 1)[1] for line in example.splitlines() if line.startswith("print(")]
    exec(example, {})
    assert capsys.readouterr().out.splitlines() == said
    assert said[0] == "60" and said[1].startswith("{'wood_pool': 0, ")


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


@pytest.mark.parametrize(
    "n, m, seed",
    [(2.0, 1, 0), (True, 1, 0), (0, 1, 0), ("5", 1, 0), (5, 2.0, 0), (5, True, 0), (5, 0, 0),
     (5, 1, "abc"), (5, 1, 1.0), (5, 1, True), (5, 1, None)],
)
def test_counts_and_seeds_must_be_integers(archer, n, m, seed):
    with pytest.raises(ValueError):
        simulate_ensemble(archer, n, m, seed)
    if (n, seed) != (5, 0):  # the step count or the seed is bad
        with pytest.raises(ValueError):
            simulate(archer, n, seed)


def test_invalid_graph_refused(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    g = EconomyGraph((Node("s", NodeKind.SOURCE), Node("p", NodeKind.POOL)), ())
    for _ in range(2):  # a refusal is not cached as a plan
        with pytest.raises(InvalidEconomyError):
            compile_plan(g)
        with pytest.raises(InvalidEconomyError):
            simulate(g, 1, seed=0)
        with pytest.raises(InvalidEconomyError):
            simulate_ensemble(g, 5, 3, 0)
    assert calls == []  # refused before a single step ran
    with pytest.raises(ValueError):
        simulate(chain_graph(), 0, seed=0)


def test_validity_checked_once_per_graph(monkeypatch):
    calls = []
    real = flowtune.sim.is_valid
    monkeypatch.setattr(flowtune.sim, "is_valid", lambda graph: calls.append(graph) or real(graph))
    graph = chain_graph()
    simulate_ensemble(graph, 10, 10, 0)
    assert compile_plan(graph) is compile_plan(graph)
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
    trace = simulate(g, 20, seed=3)
    assert list(trace.snapshots) == oracle.simulate_amounts(g, 20, 3)
    # the converter never fires, so nothing reaches its output pool, nothing
    # leaves the hoard, and staged batches never pile up across steps
    assert all(trace.observe("out", t) == 0 for t in range(21))
    assert all(trace.observe("hoard", t) == t for t in range(21))
    assert trace.observe("buffer", 20) < 20, "expected some batches to be routed into the converter"


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
    trace = simulate(g, 200, seed=9)
    assert list(trace.snapshots) == oracle.simulate_amounts(g, 200, 9)
    # mix fires in exactly the steps both gates route their batch into it,
    # neither into its pool: batches staged in other steps never pile up
    fires = 0
    for before, after in zip(trace.snapshots, trace.snapshots[1:]):
        both_staged = after["pa"] == before["pa"] and after["pb"] == before["pb"]
        assert after["out"] - before["out"] == (3 if both_staged else 0)
        fires += both_staged
    assert trace.observe("out", 200) == 3 * fires == 117


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


def gated_economies() -> list:
    """The three fixtures and 30 generated economies with random gates."""
    economies = [load_fixture(name) for name in ("minecraft_torch", "mage", "archer")]
    rng = random.Random(31)
    seed = 0
    while len(economies) < 33:
        seed += 1
        counts = random_node_counts(rng, 5, 14)
        if NodeKind.RANDOM_GATE not in counts:
            continue
        result = generate(GeneratorConfig(counts, max_steps=3000, seed=seed))
        if result.valid:
            economies.append(result.graph)
    return economies


#: Node ids that would break, or run, kernel source that spliced them in.
HOSTILE_IDS = ['say "hi"', "it's", "back\\slash", "line\nbreak", '__import__("os").system("x")', "lambda", "ñandú 火"]


def test_hostile_node_ids_enter_kernels_as_data():
    for graph in gated_economies()[:12]:
        count = len(graph.nodes)
        hostile = HOSTILE_IDS + [f"{HOSTILE_IDS[i % 7]} {i}" for i in range(7, count)]
        # the same id order as the plain ids, so sources and converters run in the same order
        names = dict(zip(sorted(node.id for node in graph.nodes), sorted(hostile[:count])))
        twin = EconomyGraph(
            tuple(Node(names[n.id], n.kind, n.label, n.initial_amount) for n in graph.nodes),
            tuple(Edge(names[e.src], names[e.dst], e.weight, e.static) for e in graph.edges),
        )
        for seed in range(3):
            plain = simulate(graph, 15, seed)
            got = simulate(twin, 15, seed)
            assert list(got.snapshots) == [{names[k]: v for k, v in s.items()} for s in plain.snapshots]
        ensemble = simulate_ensemble(twin, 15, 3, 5)
        assert ensemble_to_csv(ensemble) == oracle.trace_csv(ensemble)
        plain_plan = compile_plan(graph)
        twin_plan = compile_plan(twin)
        plain = observed_runs(plain_plan, 9, 3, 5)
        got = observed_runs(twin_plan, 9, 3, 5)
        assert got == [{names[k]: v for k, v in run.items()} for run in plain]
        topology = twin_plan.topology
        for source in (topology.source(False), topology.source(True), topology.params_source()):
            assert not set("'\"\\") & set(source)
            assert not any(node.id in source for node in twin.nodes)
        # nor does any id reach a form's namespace
        for form, allowed in ((topology.kernel(False), {"range", "reseed"}), (topology.kernel(True), {"range", "reseed"}),
                              (topology.params_form(), {"int", "max", "gate_total", "a"})):
            namespace = form.__globals__
            assert set(namespace) == {"__builtins__", *allowed} and namespace["__builtins__"] == {}
        weights = [e.weight for e in twin.edges]
        assert topology.params_form()(weights) == compile_plan(twin.with_weights(gate_shares(twin, weights)))[1:3]
        # an id is data there too: it only names a gate whose weights are refused
        for gate in topology.gates[:1]:
            for e in topology.out[gate]:
                weights[e] = 1e308
            with pytest.raises(GateNormalizationError, match=re.escape(repr(topology.ids[gate]))):
                topology.params_form()(weights)


#: SHA-256 of the trace sources, Topology(graph).source(True), over
#: gated_economies() and oracle_economies(30, random.Random(5)).
PINNED_KERNEL_SOURCE = "bc6fe30a493a51c79a71ebfdac95be4a1b5e9370fdc2e057676888f9fc191135"
#: SHA-256 of the observe source, Topology(graph).source(False), over the same economies.
PINNED_MANY_SEED_SOURCE = "7e7cd25e3880b0bf069c0b80c822ff0d219424076e61d1589d188a0f6d4cbfa3"
#: SHA-256 of the params form's source, Topology(graph).params_source(), over the same economies.
PINNED_PARAMS_SOURCE = "f2982ebb33da3e442834b20fa7ce768632ca641afd89a1652a0836da95dba88a"


def test_emitted_kernel_source_matches_pinned_digest():
    digest, many_seed, params = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for graph in gated_economies() + oracle_economies(30, random.Random(5)):
        topology = flowtune.kernel.Topology(graph)
        digest.update(topology.source(True).encode())
        many_seed.update(topology.source(False).encode())
        params.update(topology.params_source().encode())
    assert digest.hexdigest() == PINNED_KERNEL_SOURCE
    assert many_seed.hexdigest() == PINNED_MANY_SEED_SOURCE
    assert params.hexdigest() == PINNED_PARAMS_SOURCE


def test_reseeding_in_c_draws_what_a_new_generator_draws():
    """observe_stream reseeds one generator with _random.Random.seed before each
    run; that must give the stream random.Random(seed) gives."""
    seeds = [derive_seed(7, "run", i) for i in range(1000)]
    seeds += [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 9, -1, -(2**32), -(2**64 + 9), -derive_seed(8)]
    rng = random.Random(0)
    for seed in seeds:
        _random.Random.seed(rng, seed)  # after the previous seed's draws
        fresh = random.Random(seed)
        assert [rng.random() for _ in range(50)] == [fresh.random() for _ in range(50)], seed


def gate_ladder(gates: int) -> EconomyGraph:
    """A valid economy of `gates` units s_i->g_i, g_i->a_i, g_i->b_i,
    a_i->c_i, c_i->p_i, each converter c_i also fed by the pool b_(i-1)."""
    kinds = {"s": NodeKind.SOURCE, "g": NodeKind.RANDOM_GATE, "a": NodeKind.POOL,
             "b": NodeKind.POOL, "c": NodeKind.CONVERTER, "p": NodeKind.POOL}
    nodes = [Node(f"{name}{i}", kind) for i in range(gates) for name, kind in kinds.items()]
    edges = []
    for i in range(gates):
        edges += [Edge(f"s{i}", f"g{i}", 1), Edge(f"g{i}", f"a{i}", 1.0), Edge(f"g{i}", f"b{i}", 2.0)]
        edges += [Edge(f"a{i}", f"c{i}", 1), Edge(f"c{i}", f"p{i}", 1)]
        if i:
            edges.append(Edge(f"b{i - 1}", f"c{i}", 1))
    return EconomyGraph(tuple(nodes), tuple(edges))


def test_emitting_and_normalizing_grow_linearly():
    def best_of_3(call):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return min(times)

    growth = {}
    small, large = gate_ladder(300), gate_ladder(1200)
    assert is_valid(small) and is_valid(large)
    for name, call in (
        ("emit", lambda graph: flowtune.kernel.Topology(graph).source(True)),
        ("gate_shares", lambda graph: gate_shares(graph, [e.weight for e in graph.edges])),
    ):
        growth[name] = best_of_3(lambda: call(large)) / best_of_3(lambda: call(small))
    # 4 times the nodes: linear work grows about 4 times, quadratic about 16
    assert max(growth.values()) < 8, growth


def test_simulated_graph_pickles():
    graph = load_fixture("archer")
    expected = simulate(graph, 12, seed=4)  # caches the compiled kernel on the graph
    again = pickle.loads(pickle.dumps(graph))
    assert again == graph
    assert simulate(again, 12, seed=4) == expected


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
        drains = [node.id for node in result.graph.nodes if node.kind is NodeKind.DRAIN]
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


def _economy(nodes, edges) -> EconomyGraph:
    return EconomyGraph(tuple(Node(i, NodeKind(k)) for i, k in nodes), tuple(Edge(*e) for e in edges))


#: Economies whose monitored ids, ascending, are not in node order, or that
#: monitor one node or none.
CSV_EDGE_CASES = {
    "gated, drain id first": _economy(
        [("s", "source"), ("g", "random_gate"), ("p", "pool"), ("q", "pool"), ("a", "drain")],
        [("s", "g", 3), ("g", "p", 1), ("g", "q", 1), ("p", "a", 1)],
    ),
    "gate-free, drain id first": _economy(
        [("s", "source"), ("z", "pool"), ("m", "pool"), ("c", "converter"), ("b", "drain")],
        [("s", "z", 2), ("z", "c", 1), ("c", "m", 2), ("m", "b", 1)],
    ),
    "one monitored node": _economy([("s", "source"), ("p", "pool")], [("s", "p", 3)]),
    # gates feed converters and converters feed gates: valid, yet nothing is monitored
    "no pool or drain": _economy(
        [("s", "source"), ("g1", "random_gate"), ("g2", "random_gate"), ("g3", "random_gate"),
         ("c1", "converter"), ("c2", "converter")],
        [("s", "g1", 1), *((g, c, 1) for g in ("g1", "g2", "g3") for c in ("c1", "c2")),
         ("c1", "g2", 1), ("c2", "g3", 1)],
    ),
}


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
    for name, graph in CSV_EDGE_CASES.items():
        ensemble = simulate_ensemble(graph, 6, 3, 2)
        assert ensemble_to_csv(ensemble) == oracle.trace_csv(ensemble), name
        if not any(node.kind is NodeKind.RANDOM_GATE for node in graph.nodes):  # its traces share one rows tuple
            assert all(trace.rows is ensemble.traces[0].rows for trace in ensemble.traces), name
    assert ensemble_to_csv(simulate_ensemble(CSV_EDGE_CASES["no pool or drain"], 6, 3, 2)) == "run,step,node_id,amount\n"


def test_snapshots_are_step_dicts_built_on_first_read():
    economies = [load_fixture(name) for name in ("minecraft_torch", "mage", "archer")]
    economies += [*CSV_EDGE_CASES.values(), *oracle_economies(30, random.Random(5))]
    for index, graph in enumerate(economies):
        ensemble = simulate_ensemble(graph, 10, 2, 3)
        trace = ensemble.traces[1]
        ensemble_to_csv(ensemble)
        for node_id in trace.monitored:
            ensemble.observe(node_id, 4)
        assert "snapshots" not in vars(trace)  # observe and the table read the rows
        # the old form: one dict per step, pools then drains in node order
        keys = [n.id for n in graph.nodes if n.kind.is_pool_like] + [n.id for n in graph.nodes if n.kind is NodeKind.DRAIN]
        assert [list(snapshot) for snapshot in trace.snapshots] == [keys] * 11, index
        assert list(trace.snapshots) == oracle.simulate_amounts(graph, 10, 4), index
        assert trace.snapshots is trace.snapshots


def test_observe_errors(minecraft):
    ensemble = simulate_ensemble(minecraft, 3, 2, 0)
    for observe in (ensemble.traces[0].observe, ensemble.observe):
        for t in (4, -1):
            with pytest.raises(ValueError, match=f"^step {t} outside trace of length 3$"):
                observe("torch_pool", t)
        with pytest.raises(ValueError, match=r"^node 'wood_source' is not monitored \(not a pool or drain\)$"):
            observe("wood_source", 1)
        for t in (True, 2.0, "1", None):  # not steps, though True indexes row 1
            with pytest.raises(ValueError, match=f"^step must be an integer, got {re.escape(repr(t))}$"):
                observe("torch_pool", t)


def test_ensemble_observe_checks_the_step_once(minecraft, monkeypatch):
    ensemble = simulate_ensemble(minecraft, 3, 5, 0)
    checks = []
    real = flowtune.sim.check_number

    def counting(name, *args, **kwargs):
        checks.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(flowtune.sim, "check_number", counting)
    assert ensemble.observe("torch_pool", 3) == [8] * 5
    assert checks == ["step"]


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
        plan = compile_plan(graph)
        for t in range(1, n + 1):
            got = observed_runs(plan, t, m, base_seed)
            assert got == [expected[r][t] for r in range(m)], f"economy {index}, step {t}"
    # the sample reaches every documented mechanism, and random routing matters
    assert min(seen.values()) >= 20, seen


#: Hand-built economies for the converter pass rule: name -> (economy, whether
#: it has a back feeder: a converter that feeds one before it in id order).
PASS_RULE_ECONOMIES = {
    # c2 produces into the pool c1 consumes from
    "pool feed against id order": (_economy(
        [("s", "source"), ("p1", "pool"), ("p2", "pool"), ("p3", "pool"), ("c1", "converter"), ("c2", "converter")],
        [("s", "p1", 2), ("p1", "c2", 1), ("c2", "p2", 1), ("p2", "c1", 1), ("c1", "p3", 1)],
    ), True),
    # c2's gate stages a batch at c1 or fills p3
    "gate-staged feed against id order": (_economy(
        [("s", "source"), ("p1", "pool"), ("p3", "pool"), ("p4", "pool"), ("g", "random_gate"),
         ("c1", "converter"), ("c2", "converter")],
        [("s", "p1", 1), ("p1", "c2", 1), ("c2", "g", 2), ("g", "c1", 1.0), ("g", "p3", 1.0), ("c1", "p4", 1)],
    ), True),
    # c2's gate routes into the pool c1 consumes from, or into p3
    "gate-to-pool feed against id order": (_economy(
        [("s", "source"), ("p1", "pool"), ("p2", "pool"), ("p3", "pool"), ("p4", "pool"), ("g", "random_gate"),
         ("c1", "converter"), ("c2", "converter")],
        [("s", "p1", 1), ("p1", "c2", 1), ("c2", "g", 2), ("g", "p2", 1.0), ("g", "p3", 1.0),
         ("p2", "c1", 1), ("c1", "p4", 1)],
    ), True),
    "forward chain": (_economy(
        [("s", "source"), ("p1", "pool"), ("p2", "pool"), ("p3", "pool"), ("g", "random_gate"), ("p4", "pool"),
         ("c1", "converter"), ("c2", "converter"), ("c3", "converter")],
        [("s", "p1", 2), ("p1", "c1", 1), ("c1", "p2", 1), ("p2", "c2", 1), ("c2", "g", 1),
         ("g", "p3", 1.0), ("g", "c3", 2.0), ("p3", "c3", 1), ("c3", "p4", 1)],
    ), False),
    # c1 produces into the pool it consumes from, which c2 also draws on
    "converter feeding itself through a pool": (_economy(
        [("s", "source"), ("p1", "pool"), ("p2", "pool"), ("c1", "converter"), ("c2", "converter")],
        [("s", "p1", 1), ("p1", "c1", 2), ("c1", "p1", 3), ("p1", "c2", 2), ("c2", "p2", 1)],
    ), False),
    "two converters drawing on one pool": (_economy(
        [("s", "source"), ("p1", "pool"), ("p2", "pool"), ("p3", "pool"), ("c1", "converter"), ("c2", "converter")],
        [("s", "p1", 3), ("p1", "c1", 2), ("p1", "c2", 1), ("c1", "p2", 1), ("c2", "p3", 1)],
    ), False),
}


@pytest.mark.parametrize("name", sorted(PASS_RULE_ECONOMIES))
def test_converter_passes_repeat_only_after_a_back_feeder(name):
    graph, looping = PASS_RULE_ECONOMIES[name]
    back_feeders = oracle.back_feeders(graph)
    assert is_valid(graph) and bool(back_feeders) is looping
    plan = compile_plan(graph)
    for trace in (False, True):
        source = plan.topology.source(trace)
        assert ("while" in source) is looping
        # a converter that feeds none before it asks for no further pass
        assert source.count("fired = 0, 1") == len(back_feeders)
    n, m = 12, 4
    for base_seed in (0, 7, 1000):
        expected = [oracle.simulate_amounts(graph, n, base_seed + r) for r in range(m)]
        for r in range(m):
            assert list(simulate(graph, n, base_seed + r).snapshots) == expected[r], (base_seed, r)
        for t in range(1, n + 1):
            got = observed_runs(plan, t, m, base_seed)
            assert got == [expected[r][t] for r in range(m)], (base_seed, t)


def test_kernels_loop_exactly_when_a_back_feeder_exists():
    economies = gated_economies() + oracle_economies(150, random.Random(19))
    looping = 0
    for index, graph in enumerate(economies):
        source = flowtune.kernel.Topology(graph).source(False)
        assert ("while" in source) is bool(oracle.back_feeders(graph)), index
        looping += "while" in source
    assert 20 <= looping <= len(economies) - 20  # both kinds of kernel are reached
    for name in ("minecraft_torch", "mage", "archer"):  # the fixtures run one pass
        topology = flowtune.kernel.Topology(load_fixture(name))
        assert not any("while" in topology.source(trace) for trace in (False, True))


@pytest.mark.parametrize("name, gated", [("minecraft_torch", False), ("mage", False), ("archer", True)])
def test_each_distinct_run_is_simulated_once(monkeypatch, name, gated):
    graph = load_fixture(name)
    plan = compile_plan(graph)
    assert bool(plan.topology.gates) is gated
    t, n, m, base_seed = 7, 9, 4, 21
    calls = count_kernel_calls(monkeypatch)
    observed = list(observe_stream(plan, t, m, base_seed, random.Random(0)))
    runs = m if gated else 1
    assert calls == [[runs, runs, t]]
    del calls[:]
    ensemble = simulate_ensemble(graph, n, m, base_seed)
    assert calls == [[runs, runs, n]]  # one kernel call

    singles = [simulate(graph, n, base_seed + r) for r in range(m)]
    assert ensemble.traces == tuple(singles)  # run_seed included
    assert [dict(zip(plan.topology.monitored, run)) for run in observed] == [s.snapshots[t] for s in singles]
    # a gate-free observe kernel runs once and never reseeds its generator
    assert ("reseed" in plan.topology.source(False)) is gated
