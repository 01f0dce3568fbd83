"""Discrete-step execution of economy graphs.

One step runs five phases in a fixed order so that runs are exactly
reproducible from a seed:

1. Sources, in ascending node-id order, deliver their edge weight along
   every outgoing edge. Deliveries into a random gate are routed
   immediately: the gate samples exactly one outgoing edge by its
   normalized weight share and forwards the whole batch. Gate deliveries
   into a converter are staged at that converter for this step only.
2. Converters are scanned repeatedly in ascending node-id order until a
   full pass fires none; each converter fires at most once per step. A
   converter fires only when every incoming edge is satisfied: a
   pool-origin edge needs (and consumes) its weight from the pool, a
   gate-origin edge needs (and consumes) whatever was staged on it. On
   firing it delivers its single outgoing edge's weight, routing through
   gates as above.
3. Each pool->drain edge, in edge-list order, moves its weight into the
   drain's cumulative total if the pool holds enough, else nothing.
4. Every fixed pool is clamped down to the largest weight among its
   outgoing edges; the excess is discarded.
5. The state snapshot is recorded; staged amounts that no converter
   consumed are discarded.

All flows are whole resource counts; balances can never go negative.

A graph's connection rules are checked once, when it is first simulated
(or stepped): the compiled step plan is cached on the graph, so later
runs of the same graph skip the check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .model import (
    EconomyGraph,
    InvalidEconomyError,
    NodeKind,
    is_valid,
)

#: Optional flow observer: called as fn(phase, src, dst, amount) for every
#: executed transfer. Phases: "source", "gate", "consume", "produce",
#: "drain", "clamp" (clamp has dst None; the amount is discarded).
TransferObserver = Callable[[str, str, "str | None", int], None]


@dataclass(frozen=True)
class SimulationState:
    """Balances after a step: pool contents and cumulative drain totals."""

    pool_balances: dict
    drain_totals: dict
    step_index: int

    def amount(self, node_id: str) -> int:
        if node_id in self.pool_balances:
            return self.pool_balances[node_id]
        if node_id in self.drain_totals:
            return self.drain_totals[node_id]
        raise ValueError(f"node {node_id!r} is not monitored (not a pool or drain)")


@dataclass(frozen=True)
class SimulationTrace:
    """Snapshots of one run: index t holds the state after step t."""

    run_seed: int
    snapshots: tuple

    @property
    def length(self) -> int:
        return len(self.snapshots) - 1

    def observe(self, node_id: str, t: int) -> int:
        if not 0 <= t <= self.length:
            raise ValueError(f"step {t} outside trace of length {self.length}")
        return self.snapshots[t].amount(node_id)


@dataclass(frozen=True)
class RunEnsemble:
    """Repeated runs of one graph with seeds base, base+1, ..., base+m-1."""

    graph: EconomyGraph
    base_seed: int
    traces: tuple

    @property
    def runs(self) -> int:
        return len(self.traces)

    @property
    def length(self) -> int:
        return self.traces[0].length

    def observe(self, node_id: str, t: int) -> list:
        """The monitored amount at step t in every run, in seed order."""
        return [trace.observe(node_id, t) for trace in self.traces]


def monitored_node_ids(graph: EconomyGraph) -> list:
    """Ids of all pools, fixed pools and drains, ascending."""
    kinds = (NodeKind.POOL, NodeKind.FIXED_POOL, NodeKind.DRAIN)
    return sorted(n.id for n in graph.nodes if n.kind in kinds)


def initial_state(graph: EconomyGraph) -> SimulationState:
    """Declared initial amounts (fixed pools clamped to their cap), drains at 0."""
    plan = _plan_for(graph)
    return SimulationState(dict(plan.initial_pools), dict(plan.initial_drains), 0)


def step(
    graph: EconomyGraph,
    state: SimulationState,
    rng: random.Random,
    on_transfer: TransferObserver = None,
) -> SimulationState:
    """Advance one time step; returns the next state, inputs untouched."""
    plan = _plan_for(graph)
    pools = dict(state.pool_balances)
    drains = dict(state.drain_totals)
    _execute(plan, pools, drains, rng, on_transfer)
    return SimulationState(pools, drains, state.step_index + 1)


def simulate(
    graph: EconomyGraph,
    n: int,
    seed: int,
    on_transfer: TransferObserver = None,
) -> SimulationTrace:
    """Run n steps from the declared initial amounts.

    A pure function of (graph, n, seed): identical arguments produce an
    identical trace.
    """
    if n < 1:
        raise ValueError(f"simulation length must be >= 1, got {n}")
    plan = _plan_for(graph)
    rng = random.Random(seed)
    pools = dict(plan.initial_pools)
    drains = dict(plan.initial_drains)
    snapshots = [SimulationState(dict(pools), dict(drains), 0)]
    for t in range(1, n + 1):
        _execute(plan, pools, drains, rng, on_transfer)
        snapshots.append(SimulationState(dict(pools), dict(drains), t))
    return SimulationTrace(seed, tuple(snapshots))


def simulate_ensemble(graph: EconomyGraph, n: int, m: int, base_seed: int) -> RunEnsemble:
    """m independent runs with seeds base_seed+0 ... base_seed+m-1."""
    if m < 1:
        raise ValueError(f"run count must be >= 1, got {m}")
    traces = tuple(simulate(graph, n, base_seed + i) for i in range(m))
    return RunEnsemble(graph, base_seed, traces)


def ensemble_to_csv(ensemble: RunEnsemble) -> str:
    """Trace table: run,step,node_id,amount; runs by seed offset, steps ascending."""
    monitored = monitored_node_ids(ensemble.graph)
    lines = ["run,step,node_id,amount"]
    for run, trace in enumerate(ensemble.traces):
        for t, snapshot in enumerate(trace.snapshots):
            for node_id in monitored:
                lines.append(f"{run},{t},{node_id},{snapshot.amount(node_id)}")
    return "\n".join(lines) + "\n"


# --- step execution plan -----------------------------------------------------

_POOL = 0
_GATE = 1
_CONVERTER = 2


class _GatePlan:
    __slots__ = ("gate_id", "cumulative", "targets")

    def __init__(self, gate_id, cumulative, targets):
        self.gate_id = gate_id
        self.cumulative = cumulative  # running probability bounds, last is 1.0
        self.targets = targets  # [(dst_id, _POOL | _CONVERTER)]


class _ConverterPlan:
    __slots__ = ("conv_id", "pool_needs", "gate_inputs", "out_dst", "out_tag", "out_amount")

    def __init__(self, conv_id, pool_needs, gate_inputs, out_dst, out_tag, out_amount):
        self.conv_id = conv_id
        self.pool_needs = pool_needs  # [(pool_id, amount)]
        self.gate_inputs = gate_inputs  # [gate_id]; staged units keyed (gate, conv)
        self.out_dst = out_dst
        self.out_tag = out_tag  # _POOL or _GATE
        self.out_amount = out_amount


class _Plan:
    __slots__ = (
        "sources", "gates", "converters", "drain_moves", "caps", "initial_pools", "initial_drains"
    )


def _plan_for(graph: EconomyGraph) -> _Plan:
    """The graph's cached step plan; compiling it is the one validity check."""
    cached = getattr(graph, "_sim_plan", None)
    if cached is not None:
        return cached
    if not is_valid(graph):
        raise InvalidEconomyError("refusing to simulate an invalid economy graph")

    kind = {n.id: n.kind for n in graph.nodes}
    gates = {}
    for node in graph.nodes:
        if node.kind is not NodeKind.RANDOM_GATE:
            continue
        out = graph.out_edges(node.id)
        total = float(sum(e.weight for e in out))
        cumulative = []
        running = 0.0
        targets = []
        for e in out:
            running += e.weight / total
            cumulative.append(running)
            targets.append((e.dst, _POOL if kind[e.dst].is_pool_like else _CONVERTER))
        cumulative[-1] = 1.0
        gates[node.id] = _GatePlan(node.id, cumulative, targets)

    plan = _Plan()
    plan.gates = gates
    plan.sources = []
    for node in sorted(graph.nodes_of_kind(NodeKind.SOURCE), key=lambda n: n.id):
        deliveries = []
        for e in graph.out_edges(node.id):
            tag = _GATE if kind[e.dst] is NodeKind.RANDOM_GATE else _POOL
            deliveries.append((e.dst, tag, int(e.weight)))
        plan.sources.append((node.id, deliveries))

    plan.converters = []
    for node in sorted(graph.nodes_of_kind(NodeKind.CONVERTER), key=lambda n: n.id):
        pool_needs = []
        gate_inputs = []
        for e in graph.in_edges(node.id):
            if kind[e.src] is NodeKind.RANDOM_GATE:
                gate_inputs.append(e.src)
            else:
                pool_needs.append((e.src, int(e.weight)))
        out = graph.out_edges(node.id)[0]
        out_tag = _GATE if kind[out.dst] is NodeKind.RANDOM_GATE else _POOL
        plan.converters.append(
            _ConverterPlan(node.id, pool_needs, gate_inputs, out.dst, out_tag, int(out.weight))
        )

    plan.drain_moves = [
        (e.src, e.dst, int(e.weight))
        for e in graph.edges
        if kind[e.src].is_pool_like and kind[e.dst] is NodeKind.DRAIN
    ]
    plan.caps = {}
    for node in graph.nodes_of_kind(NodeKind.FIXED_POOL):
        out = graph.out_edges(node.id)
        if out:  # uncapped when nothing flows out
            plan.caps[node.id] = max(int(e.weight) for e in out)
    plan.initial_pools = {
        n.id: min(n.initial_amount, plan.caps.get(n.id, n.initial_amount))
        for n in graph.nodes
        if n.kind.is_pool_like
    }
    plan.initial_drains = {n.id: 0 for n in graph.nodes_of_kind(NodeKind.DRAIN)}

    object.__setattr__(graph, "_sim_plan", plan)
    return plan


def _execute(plan: _Plan, pools, drains, rng, on_transfer) -> None:
    staged = {}  # (gate_id, converter_id) -> units staged this step

    def route_gate(gate_id, amount):
        pick = rng.random()
        gate = plan.gates[gate_id]
        index = 0
        for index, bound in enumerate(gate.cumulative):
            if pick < bound:
                break
        dst, tag = gate.targets[index]
        if on_transfer is not None:
            on_transfer("gate", gate_id, dst, amount)
        if tag == _POOL:
            pools[dst] += amount
        else:
            key = (gate_id, dst)
            staged[key] = staged.get(key, 0) + amount

    for source_id, deliveries in plan.sources:
        for dst, tag, amount in deliveries:
            if on_transfer is not None:
                on_transfer("source", source_id, dst, amount)
            if tag == _POOL:
                pools[dst] += amount
            else:
                route_gate(dst, amount)

    fired = set()
    while True:
        progressed = False
        for conv in plan.converters:
            if conv.conv_id in fired:
                continue
            if any(pools[pool_id] < need for pool_id, need in conv.pool_needs):
                continue
            if any(staged.get((g, conv.conv_id), 0) <= 0 for g in conv.gate_inputs):
                continue
            for pool_id, need in conv.pool_needs:
                pools[pool_id] -= need
                if on_transfer is not None:
                    on_transfer("consume", pool_id, conv.conv_id, need)
            for gate_id in conv.gate_inputs:
                taken = staged.pop((gate_id, conv.conv_id))
                if on_transfer is not None:
                    on_transfer("consume", gate_id, conv.conv_id, taken)
            fired.add(conv.conv_id)
            progressed = True
            if on_transfer is not None:
                on_transfer("produce", conv.conv_id, conv.out_dst, conv.out_amount)
            if conv.out_tag == _POOL:
                pools[conv.out_dst] += conv.out_amount
            else:
                route_gate(conv.out_dst, conv.out_amount)
        if not progressed:
            break

    for pool_id, drain_id, amount in plan.drain_moves:
        if pools[pool_id] >= amount:
            pools[pool_id] -= amount
            drains[drain_id] += amount
            if on_transfer is not None:
                on_transfer("drain", pool_id, drain_id, amount)

    for pool_id, cap in plan.caps.items():
        excess = pools[pool_id] - cap
        if excess > 0:
            pools[pool_id] = cap
            if on_transfer is not None:
                on_transfer("clamp", pool_id, None, excess)
