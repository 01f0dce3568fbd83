"""Discrete-step execution of economy graphs.

One step runs five phases in a fixed order so that runs are exactly
reproducible from a seed:

1. Sources, in ascending node-id order, deliver their edge weight along
   every outgoing edge, in edge-list order. Deliveries into a random
   gate are routed immediately: the gate samples exactly one outgoing
   edge by its normalized weight share and forwards the whole batch.
   Gate deliveries into a converter are staged at that converter for
   this step only.
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
   outgoing edges (one without outgoing edges is not clamped); the
   excess is discarded.
5. The snapshot is recorded; staged amounts that no converter consumed
   are discarded.

A run starts from the declared initial amounts, fixed pools clamped as
in phase 4, with every drain at 0. All flows are whole resource counts;
balances can never go negative.

A run with seed s draws from random.Random(s), once per batch a gate
routes, in the order the batches arrive. The gate's shares are its
outgoing weights in edge-list order, each divided by their left-to-right
sum; it takes the draw u = rng.random() and picks the first edge whose
running (left-to-right) share sum exceeds u, the last edge's sum
counting as 1.0. No other step draws, so an economy without gates draws
nothing and every seed gives the same run: simulate_ensemble and
observe_runs simulate such an economy once and repeat that run for each
seed (its traces share one snapshot tuple).

A snapshot is one dict, node id -> amount, of every pool, fixed pool
and drain (a drain's amount is its cumulative total); the kernel updates
one such dict in place and a trace keeps a copy of it per step.

simulate and simulate_ensemble check a graph's connection rules once,
when it is first simulated, and cache its compiled step plan on it;
later runs of the same graph skip both. ensemble_to_csv writes their
traces as a table. The balancer instead compiles a plan per candidate
weight vector from its genome layout (compile_plan) and runs it only to
the observed step (observe_runs), building no graph.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

from .model import EconomyGraph, InvalidEconomyError, NodeKind, check_gate_total, is_valid
from .util import float_sum

#: Optional flow observer: called as fn(phase, src, dst, amount) for every
#: executed transfer. Phases: "source", "gate", "consume", "produce",
#: "drain", "clamp" (clamp has dst None; the amount is discarded).
TransferObserver = Callable[[str, str, "str | None", int], None]


@dataclass(frozen=True)
class SimulationTrace:
    """Snapshots of one run: index t holds every monitored amount after step t."""

    run_seed: int
    snapshots: tuple

    @property
    def length(self) -> int:
        return len(self.snapshots) - 1

    def observe(self, node_id: str, t: int) -> int:
        if not 0 <= t <= self.length:
            raise ValueError(f"step {t} outside trace of length {self.length}")
        snapshot = self.snapshots[t]
        if node_id not in snapshot:
            raise ValueError(f"node {node_id!r} is not monitored (not a pool or drain)")
        return snapshot[node_id]


@dataclass(frozen=True)
class RunEnsemble:
    """Repeated runs of one graph with seeds base, base+1, ..., base+m-1."""

    graph: EconomyGraph
    base_seed: int
    traces: tuple

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
    amounts = plan.initial.copy()
    snapshots = [plan.initial.copy()]
    for _ in range(n):
        _execute(plan, amounts, rng, on_transfer)
        snapshots.append(amounts.copy())
    return SimulationTrace(seed, tuple(snapshots))


def simulate_ensemble(graph: EconomyGraph, n: int, m: int, base_seed: int) -> RunEnsemble:
    """m independent runs with seeds base_seed+0 ... base_seed+m-1.

    A graph without random gates draws no random numbers, so its runs
    are identical: it is simulated once, and its m traces (each with its
    own run_seed) share one snapshot tuple.
    """
    if m < 1:
        raise ValueError(f"run count must be >= 1, got {m}")
    first = simulate(graph, n, base_seed)
    if _plan_for(graph).gates:
        rest = (simulate(graph, n, base_seed + i) for i in range(1, m))
    else:
        rest = (SimulationTrace(base_seed + i, first.snapshots) for i in range(1, m))
    return RunEnsemble(graph, base_seed, (first, *rest))


def ensemble_to_csv(ensemble: RunEnsemble) -> str:
    """Trace table: run,step,node_id,amount; runs by seed offset, steps ascending.

    The step,node_id,amount rows of each distinct snapshot tuple are
    formatted once; every run then prefixes them with its own run index.
    """
    monitored = monitored_node_ids(ensemble.graph)
    rows_of = {}  # id of a snapshot tuple -> its rows, each ending in a newline
    parts = ["run,step,node_id,amount\n"]
    for run, trace in enumerate(ensemble.traces):
        rows = rows_of.get(id(trace.snapshots))
        if rows is None:
            rows = [
                f"{t},{node_id},{snapshot[node_id]}\n"
                for t, snapshot in enumerate(trace.snapshots)
                for node_id in monitored
            ]
            rows_of[id(trace.snapshots)] = rows
        prefix = f"{run},"
        parts.append(prefix + prefix.join(rows))
    return "".join(parts)


# --- step execution plan -----------------------------------------------------

_POOL = 0
_GATE = 1
_CONVERTER = 2


class _Plan:
    __slots__ = ("sources", "gates", "converters", "drain_moves", "caps", "initial")


def _plan_for(graph: EconomyGraph) -> _Plan:
    """The graph's cached step plan; compiling it is the one validity check."""
    cached = getattr(graph, "_sim_plan", None)
    if cached is None:
        if not is_valid(graph):
            raise InvalidEconomyError("refusing to simulate an invalid economy graph")
        cached = compile_plan(graph, [e.weight for e in graph.edges])
        object.__setattr__(graph, "_sim_plan", cached)
    return cached


def compile_plan(graph: EconomyGraph, weights) -> _Plan:
    """Step plan of the graph with edge i carrying weights[i].

    Amount weights are whole counts; gate weights are routing shares,
    normally normalized per gate (see model.gate_shares), and must sum to a
    finite positive number per gate. The graph's own weights are ignored,
    and its validity is not checked.
    """
    kind = {n.id: n.kind for n in graph.nodes}
    out = {n.id: [] for n in graph.nodes}
    into = {n.id: [] for n in graph.nodes}
    for e, w in zip(graph.edges, weights):
        out[e.src].append((e.dst, w))
        into[e.dst].append((e.src, w))

    def tag(dst):
        return _GATE if kind[dst] is NodeKind.RANDOM_GATE else _POOL

    plan = _Plan()
    plan.gates = {}  # gate -> (running probability bounds, last 1.0; [(dst, _POOL | _CONVERTER)])
    for node in graph.nodes_of_kind(NodeKind.RANDOM_GATE):
        total = float(check_gate_total(node.id, float_sum(w for _, w in out[node.id])))
        cumulative = list(accumulate(w / total for _, w in out[node.id]))
        cumulative[-1] = 1.0
        targets = [(dst, _POOL if kind[dst].is_pool_like else _CONVERTER) for dst, _ in out[node.id]]
        plan.gates[node.id] = (cumulative, targets)
    plan.sources = [
        (node.id, [(dst, tag(dst), int(w)) for dst, w in out[node.id]])
        for node in sorted(graph.nodes_of_kind(NodeKind.SOURCE), key=lambda n: n.id)
    ]
    plan.converters = []  # (id, [(pool, need)], [gate], out_dst, out_tag, out_amount)
    for node in sorted(graph.nodes_of_kind(NodeKind.CONVERTER), key=lambda n: n.id):
        pool_needs = [(src, int(w)) for src, w in into[node.id] if tag(src) == _POOL]
        gate_inputs = [src for src, _ in into[node.id] if tag(src) == _GATE]
        out_dst, out_weight = out[node.id][0]
        plan.converters.append((node.id, pool_needs, gate_inputs, out_dst, tag(out_dst), int(out_weight)))
    plan.drain_moves = [
        (e.src, e.dst, int(w))
        for e, w in zip(graph.edges, weights)
        if kind[e.src].is_pool_like and kind[e.dst] is NodeKind.DRAIN
    ]
    plan.caps = {  # uncapped when nothing flows out
        n.id: max(int(w) for _, w in out[n.id])
        for n in graph.nodes_of_kind(NodeKind.FIXED_POOL)
        if out[n.id]
    }
    plan.initial = {  # the step-0 snapshot
        n.id: min(n.initial_amount, plan.caps.get(n.id, n.initial_amount))
        for n in graph.nodes
        if n.kind.is_pool_like
    }
    plan.initial.update((n.id, 0) for n in graph.nodes_of_kind(NodeKind.DRAIN))
    return plan


def observe_runs(plan: _Plan, t: int, m: int, base_seed: int) -> list:
    """Run seeds base_seed ... base_seed+m-1 to step t, keeping no snapshots.

    Returns one snapshot dict per run: every pool's and drain's amount at step t.
    Steps after t cannot change it, so this equals the step-t snapshot
    of a longer run with the same seed. A plan without gates draws no
    random numbers, so it runs once and the list holds that one dict m
    times; callers only read the dicts.
    """
    observed = []
    for seed in range(base_seed, base_seed + (m if plan.gates else 1)):
        rng = random.Random(seed)
        amounts = plan.initial.copy()
        for _ in range(t):
            _execute(plan, amounts, rng, None)
        observed.append(amounts)
    return observed if plan.gates else observed * m


def _route_gate(gates, gate_id, amount, amounts, staged, rng, on_transfer) -> None:
    """Send a batch into a gate along the edge picked by one rng draw."""
    cumulative, targets = gates[gate_id]
    # the first bound above the draw; the last bound is 1.0, above every draw
    dst, tag = targets[bisect_right(cumulative, rng.random())]
    if on_transfer is not None:
        on_transfer("gate", gate_id, dst, amount)
    if tag == _POOL:
        amounts[dst] += amount
    else:
        key = (gate_id, dst)
        staged[key] = staged.get(key, 0) + amount


def _execute(plan: _Plan, amounts, rng, on_transfer) -> None:
    """One step: updates the snapshot dict of pool and drain amounts in place."""
    gates = plan.gates
    staged = {}  # (gate_id, converter_id) -> units staged this step

    for source_id, deliveries in plan.sources:
        for dst, tag, amount in deliveries:
            if on_transfer is not None:
                on_transfer("source", source_id, dst, amount)
            if tag == _POOL:
                amounts[dst] += amount
            else:
                _route_gate(gates, dst, amount, amounts, staged, rng, on_transfer)

    # passes in id order over the converters that have not fired this step
    waiting = plan.converters
    while waiting:
        unfired = []
        for converter in waiting:
            conv_id, pool_needs, gate_inputs, out_dst, out_tag, out_amount = converter
            ready = True
            for pool_id, need in pool_needs:
                if amounts[pool_id] < need:
                    ready = False
                    break
            if ready:
                for gate_id in gate_inputs:
                    if staged.get((gate_id, conv_id), 0) <= 0:
                        ready = False
                        break
            if not ready:
                unfired.append(converter)
                continue
            for pool_id, need in pool_needs:
                amounts[pool_id] -= need
                if on_transfer is not None:
                    on_transfer("consume", pool_id, conv_id, need)
            for gate_id in gate_inputs:
                taken = staged.pop((gate_id, conv_id))
                if on_transfer is not None:
                    on_transfer("consume", gate_id, conv_id, taken)
            if on_transfer is not None:
                on_transfer("produce", conv_id, out_dst, out_amount)
            if out_tag == _POOL:
                amounts[out_dst] += out_amount
            else:
                _route_gate(gates, out_dst, out_amount, amounts, staged, rng, on_transfer)
        if len(unfired) == len(waiting):
            break
        waiting = unfired

    for pool_id, drain_id, amount in plan.drain_moves:
        if amounts[pool_id] >= amount:
            amounts[pool_id] -= amount
            amounts[drain_id] += amount
            if on_transfer is not None:
                on_transfer("drain", pool_id, drain_id, amount)

    for pool_id, cap in plan.caps.items():
        excess = amounts[pool_id] - cap
        if excess > 0:
            amounts[pool_id] = cap
            if on_transfer is not None:
                on_transfer("clamp", pool_id, None, excess)
