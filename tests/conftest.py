import random

import pytest

import flowtune.kernel
from flowtune.model import EconomyGraph, Edge, Node, NodeKind
from flowtune.fixtures import load_fixture

ALL_KINDS = list(NodeKind)


def random_wellformed_graph(rng: random.Random, max_nodes: int = 8) -> EconomyGraph:
    """Structurally sound random graph that may freely violate connection rules.

    Unique ids, existing endpoints, no self loops, no duplicate edges,
    positive weights; degree bounds and neighbor kinds are NOT enforced.
    """
    n = rng.randint(2, max_nodes)
    nodes = []
    for i in range(n):
        kind = ALL_KINDS[rng.randrange(len(ALL_KINDS))]
        initial = rng.randrange(4) if kind.is_pool_like else 0
        nodes.append(Node(f"n{i}", kind, None, initial))
    edges = []
    density = rng.uniform(0.1, 0.5)
    for a in range(n):
        for b in range(n):
            if a == b or rng.random() >= density:
                continue
            if nodes[a].kind is NodeKind.RANDOM_GATE:
                weight = rng.uniform(0.05, 2.0)
            else:
                weight = rng.randint(1, 5)
            edges.append(Edge(nodes[a].id, nodes[b].id, weight))
    return EconomyGraph(tuple(nodes), tuple(edges))


def chain_graph() -> EconomyGraph:
    """Source -> pool -> drain, the smallest useful valid economy."""
    return EconomyGraph(
        (Node("s", NodeKind.SOURCE), Node("p", NodeKind.POOL), Node("d", NodeKind.DRAIN)),
        (Edge("s", "p", 1), Edge("p", "d", 1)),
    )


def gate_graph(w_left: float = 0.5, w_right: float = 0.5, feed: int = 1) -> EconomyGraph:
    """Source -> gate -> two pools, for routing statistics."""
    return EconomyGraph(
        (
            Node("src", NodeKind.SOURCE),
            Node("gate", NodeKind.RANDOM_GATE),
            Node("left", NodeKind.POOL),
            Node("right", NodeKind.POOL),
        ),
        (
            Edge("src", "gate", feed),
            Edge("gate", "left", w_left),
            Edge("gate", "right", w_right),
        ),
    )


def observed_runs(topology, weights: tuple, t: int, m: int, base_seed: int) -> list:
    """The observe kernel's m runs of weights on topology to step t, seeds
    base_seed ... base_seed+m-1, on a generator of their own, each as a dict
    from monitored id to amount."""
    runs = topology.kernel(False)(weights, random.Random(0), range(base_seed, base_seed + m), t)
    return [dict(zip(topology.monitored, run)) for run in runs]


def edge_weights(graph: EconomyGraph) -> tuple:
    """The graph's own weights, in edge order, as trace_runs passes them to
    the trace form."""
    return tuple(e.weight for e in graph.edges)


def plan_data(topology, weights: tuple, trace: bool = False) -> tuple:
    """(params, initial) as a kernel form of topology computes them from
    weights before its first step, in the order of oracle.plan_params: the
    documented locals of one run to step 0, suspended at its yield, read from
    its frame. Without trace, through the observe form, which reads a
    genome's weights; with trace, through the trace form, whose prologue is a
    graph's own (topology_of). params holds each amount edge's we, in edge
    order, each gate's bk_j, in node order, and each capped fixed pool's ck,
    node ids ascending; initial is the run's step-0 amounts, in monitored
    order (node ids ascending), the one column order of both forms. A gate
    total the observe form refuses raises."""
    run = topology.kernel(trace)(weights, random.Random(0), (0,), 0)
    initial = next(run)
    gate = NodeKind.RANDOM_GATE
    names = [f"w{e}" for e, (src, _) in enumerate(topology.ends) if topology.kinds[src] is not gate]
    names += [f"b{k}_{j}" for k in topology.gates for j in range(len(topology.out[k]) - 1)]
    names += [f"c{k}" for k in topology.caps]
    local = run.gi_frame.f_locals
    return tuple(local[name] for name in names), initial


def count_kernel_calls(monkeypatch) -> list:
    """Make every step kernel log each call as [runs asked for, runs it
    yielded, steps per run, distinct runs]: [len(seeds), runs read, t, runs
    read that are not the object read before]; returns the log. A kernel runs
    a seed only when its run is read, so a reader that stops early leaves
    fewer runs yielded than asked for. A run yielded is not always a run
    simulated: a stream whose first run draws nothing, as every gate-free
    one, yields that one tuple for every seed (count_namespace_calls of range
    counts the runs simulated)."""
    calls = []
    real = flowtune.kernel.Topology.kernel

    def counting(topology, trace):
        kernel = real(topology, trace)

        def counted(w, rng, seeds, t):
            call = [len(seeds), 0, t, 0]
            calls.append(call)
            last = None
            for run in kernel(w, rng, seeds, t):
                call[1] += 1
                call[3] += run is not last
                last = run
                yield run

        return counted

    monkeypatch.setattr(flowtune.kernel.Topology, "kernel", counting)
    return calls


def count_namespace_calls(monkeypatch, kernel, name: str) -> list:
    """Make a compiled kernel log the arguments of each call it makes to name
    in its namespace; returns the log. Either form calls reseed once per
    reseed and range once per simulated run, with its steps."""
    calls = []
    real = kernel.__globals__[name]

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setitem(kernel.__globals__, name, counting)
    return calls


@pytest.fixture
def minecraft():
    return load_fixture("minecraft_torch")


@pytest.fixture
def mage():
    return load_fixture("mage")


@pytest.fixture
def archer():
    return load_fixture("archer")
