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

A run with seed s draws the stream random.Random(s) gives, once per
batch a gate routes, in the order the batches arrive. The gate's shares
are its outgoing weights in edge-list order, each divided by their
left-to-right sum; it takes the draw u = rng.random() and picks the
first edge whose running (left-to-right) share sum exceeds u, the last
edge's sum counting as 1.0. No other step draws, so an economy without
gates draws nothing and every seed gives the same run: it is simulated
once, and that run is repeated for each seed (its traces share one rows
tuple).

Steps run in kernels generated per topology (flowtune.kernel), compiled
once per graph object, on first use, and cached there; weights enter them
as data, and node ids not at all. Each simulate, simulate_ensemble,
trace_runs or observe_stream call is one kernel call, a generator that
yields each run as it ends, after its own reseed in C of one generator,
so a reader holds and simulates only the runs it reads. The call that
starts the runs owns the generator they reseed: trace_runs makes one per
call, and observe_stream takes its caller's (balance makes one per call).
Streams on one generator may interleave whole runs, and calls in
concurrent threads do not disturb each other's draws.

A trace keeps one row per step: the tuple of amounts of every pool, fixed
pool and drain (a drain's cumulative total), in its monitored order; the
dicts of its snapshots are built when read. csv_writer formats the rows.

A graph's connection rules are checked once, when its step plan
(compile_plan) is first built, and the plan is cached on it. The balancer
instead makes a plan per candidate weight vector and economy with the
topology's emitted params form (weights_plan), and runs it only to the
observed step (observe_stream), keeping each run's amounts at that step only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import NamedTuple

from .model import EconomyError, EconomyGraph, InvalidEconomyError, NodeKind, broken_rule, check_gate_total, is_valid
from .util import check_number, float_sum


@dataclass(frozen=True)
class SimulationTrace:
    """One run: rows[t] holds the amounts of monitored after step t."""

    run_seed: int
    monitored: tuple  # ids of the pools, then of the drains, in node order
    rows: tuple

    @cached_property
    def snapshots(self) -> tuple:
        """One dict per step, monitored id -> amount; built on first read."""
        return tuple(dict(zip(self.monitored, row)) for row in self.rows)

    @property
    def length(self) -> int:
        return len(self.rows) - 1

    def observe(self, node_id: str, t: int) -> int:
        column = self._column(node_id, t)
        return self.rows[t][column]

    def _column(self, node_id: str, t: int) -> int:
        """node_id's place in a row, once t is checked to be a step of the trace."""
        check_number("step", t, integer=True)
        if not 0 <= t <= self.length:
            raise ValueError(f"step {t} outside trace of length {self.length}")
        if node_id not in self.monitored:
            raise ValueError(f"node {node_id!r} is not monitored (not a pool or drain)")
        return self.monitored.index(node_id)


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
        column = self.traces[0]._column(node_id, t)  # every trace has the same monitored ids and length
        return [trace.rows[t][column] for trace in self.traces]


def monitored_node_ids(graph: EconomyGraph) -> list:
    """Ids of all pools, fixed pools and drains, ascending."""
    kinds = (NodeKind.POOL, NodeKind.FIXED_POOL, NodeKind.DRAIN)
    return sorted(n.id for n in graph.nodes if n.kind in kinds)


def simulate(graph: EconomyGraph, n: int, seed: int) -> SimulationTrace:
    """Run n steps from the declared initial amounts.

    A pure function of (graph, n, seed): identical arguments produce an
    identical trace.
    """
    return simulate_ensemble(graph, n, 1, seed).traces[0]


def simulate_ensemble(graph: EconomyGraph, n: int, m: int, base_seed: int) -> RunEnsemble:
    """m independent runs with seeds base_seed+0 ... base_seed+m-1.

    A graph without random gates draws no random numbers, so its runs
    are identical: it is simulated once, and its m traces (each with its
    own run_seed) share one rows tuple.
    """
    runs, monitored = trace_runs(graph, n, m, base_seed), topology_of(graph).monitored
    traces = tuple(SimulationTrace(base_seed + i, monitored, rows) for i, rows in enumerate(runs))
    return RunEnsemble(graph, base_seed, traces)


def trace_runs(graph: EconomyGraph, n: int, m: int, base_seed: int):
    """The rows tuples of n steps with seeds base_seed ... base_seed+m-1, an
    iterator over one trace kernel call on a generator of its own; arguments
    and graph are checked at the call, each gated run simulated when read."""
    check_number("simulation length", n, integer=True, minimum=1)
    check_number("run count", m, integer=True, minimum=1)
    check_number("seed", base_seed, integer=True)
    plan = compile_plan(graph)
    return _runs(plan, plan.topology.kernel(True), random.Random(0), n, m, base_seed)


def csv_writer(monitored: tuple, length: int):
    """chunks(runs) -> the trace table in UTF-8 chunks: the header, then one
    chunk per rows tuple of runs (amounts in monitored order), its lines for
    steps 0 ... length and ids ascending, ids quoted as the csv module quotes
    them. A chunk is one bytes % over templates built here; a run with the
    previous run's rows tuple (a gate-free economy's runs share one) reuses
    its flattened amounts. An id UTF-8 cannot encode raises EconomyError here.
    """
    order = sorted(range(len(monitored)), key=monitored.__getitem__)  # node ids ascending
    try:
        fields = [monitored[k].encode("utf-8") for k in order]
    except UnicodeEncodeError as exc:
        raise EconomyError(f"node id {exc.object!r} cannot be written to a UTF-8 trace") from None
    fields = [b'"%s"' % f.replace(b'"', b'""') if any(c in f for c in b',"\r\n') else f for f in fields]
    # b"" first, so that a run's prefix starts every line; each % of an id doubled, as it is a template's
    templates = [b""] + [b"%d,%s,%%d\n" % (t, f.replace(b"%", b"%%")) for t in range(length + 1) for f in fields]
    # itemgetter of one index returns the amount itself, not a tuple
    pick = itemgetter(*order) if len(order) > 1 else lambda row: [row[k] for k in order]

    def chunks(runs):
        yield b"run,step,node_id,amount\n"
        last = None
        for run, rows in enumerate(runs):
            if rows is not last:
                last, amounts = rows, tuple(chain.from_iterable(map(pick, rows)))
            yield (b"%d," % run).join(templates) % amounts

    return chunks


def ensemble_to_csv(ensemble: RunEnsemble) -> str:
    """Trace table run,step,node_id,amount (csv_writer), runs by seed offset. An
    economy without pools and drains gives the header alone."""
    chunks = csv_writer(ensemble.traces[0].monitored, ensemble.length)
    return b"".join(chunks(trace.rows for trace in ensemble.traces)).decode()


# --- step kernels ----------------------------------------------------------------


class _Plan(NamedTuple):
    """A weight vector on a compiled topology: the per-genome data only."""

    topology: "Topology"
    params: tuple  # whole amounts, gate share bounds and fixed-pool caps, in kernel order
    initial: tuple  # the step-0 amounts of topology.monitored


def topology_of(graph: EconomyGraph) -> "Topology":
    """The graph's compiled topology, built on first use and cached on it;
    its validity is not checked."""
    topology = getattr(graph, "_sim_topology", None)
    if topology is None:
        from .kernel import Topology  # the emitter loads with the first topology, not with flowtune

        topology = Topology(graph)
        object.__setattr__(graph, "_sim_topology", topology)
    return topology


def compile_plan(graph: EconomyGraph) -> _Plan:
    """The graph's step plan, built on first use and cached on it; building it
    is the one validity check, and a refused graph caches nothing.

    Amount weights are whole counts >= 0: the kernel's rule for when to
    repeat a converter pass is exact only then (see flowtune.kernel), and a
    graph's are positive. Gate weights are routing shares: each gate's must
    sum to a finite positive number, and are divided by that sum. A balancer
    genome's plan is weights_plan's.
    """
    cached = getattr(graph, "_sim_plan", None)
    if cached is not None:
        return cached
    if not is_valid(graph):
        raise InvalidEconomyError(f"refusing to simulate an invalid economy graph: {broken_rule(graph)}")
    topology = topology_of(graph)
    weights = [e.weight for e in graph.edges]
    params = [int(weights[e]) for e in topology.amount_edges]
    for k in topology.gates:
        shares = [weights[e] for e in topology.out[k]]
        total = float(check_gate_total(topology.ids[k], float_sum(shares)))
        # running share sums; the last edge takes every draw above them (its sum counts as 1.0)
        params += list(accumulate(w / total for w in shares))[:-1]
    caps = [max([int(weights[e]) for e in topology.out[k]]) for k in topology.caps]
    initial = list(topology.initial)
    for slot, cap in zip(topology.cap_slots, caps):  # each fixed pool starts clamped to its cap
        initial[slot] = min(initial[slot], cap)
    plan = _Plan(topology, (*params, *caps), tuple(initial))
    object.__setattr__(graph, "_sim_plan", plan)
    return plan


def weights_plan(topology: "Topology", weights) -> _Plan:
    """Step plan of topology's edge e carrying weights[e], gate weights first
    scaled as a written economy holds them (kernel.Topology.params_form)."""
    return _Plan(topology, *topology.params_form()(weights))


def observe_stream(plan: _Plan, t: int, m: int, base_seed: int, rng):
    """An iterator over the runs of seeds base_seed ... base_seed+m-1 to step
    t on the caller's generator rng: per run, the amounts of
    plan.topology.monitored at step t, which equal row t of a longer run with
    the same seed. A gated plan's run is simulated when it is read, so runs a
    reader does not read are never simulated."""
    return _runs(plan, plan.topology.kernel(False), rng, t, m, base_seed)


def _runs(plan: _Plan, kernel, rng, t: int, m: int, base_seed: int):
    """An iterator over kernel's runs of plan to step t with seeds base_seed ...
    base_seed+m-1, each reseeding rng first. A plan without gates draws no
    random numbers: it runs base_seed only, at once, and that run is repeated
    m times."""
    if plan.topology.gates:
        return kernel(plan.params, plan.initial, rng, range(base_seed, base_seed + m), t)
    (run,) = kernel(plan.params, plan.initial, rng, (base_seed,), t)
    return repeat(run, m)
