import random

import pytest

import flowtune.kernel
from flowtune.model import EconomyGraph, Edge, Node, NodeKind
from flowtune.fixtures import load_fixture
from flowtune.sim import observe_stream

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


def observed_runs(plan, t: int, m: int, base_seed: int) -> list:
    """observe_stream's m runs of plan to step t on a generator of their own,
    each as a dict from monitored id to amount."""
    runs = observe_stream(plan, t, m, base_seed, random.Random(0))
    return [dict(zip(plan.topology.monitored, run)) for run in runs]


def count_kernel_calls(monkeypatch) -> list:
    """Make every step kernel log each call as [runs asked for, runs it
    yielded, steps per run]: [len(seeds), runs read, t]; returns the log. An
    observe kernel runs a seed only when its run is read, so a reader that
    stops early leaves fewer runs yielded than asked for."""
    calls = []
    real = flowtune.kernel.Topology.kernel

    def counting(topology, trace):
        kernel = real(topology, trace)

        def counted(p, a, rng, seeds, t):
            call = [len(seeds), 0, t]
            calls.append(call)
            for run in kernel(p, a, rng, seeds, t):
                call[1] += 1
                yield run

        return counted

    monkeypatch.setattr(flowtune.kernel.Topology, "kernel", counting)
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
