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
edge's sum counting as 1.0. No other step draws, and every run starts
from the same amounts, so runs agree up to their first draw, and
flowtune.kernel states which runs its kernels therefore simulate once
and yield as one tuple. simulate_ensemble's traces of one tuple share it
as their amounts, and csv_writer writes such a run as the chunk before,
renumbered.

Steps run in kernels generated per topology (flowtune.kernel), compiled
once per graph object, on first use, and cached there; weights enter them
as data, and node ids not at all. Each simulate, simulate_ensemble or
trace_runs call is one kernel call, a generator that yields each run as
it ends, after its own reseed in C of one generator, so a reader holds
and simulates only the runs it reads. The call that starts the runs owns
the generator they reseed: trace_runs makes one per call, and balance
makes one per call for its observe kernel calls. Streams on one
generator may interleave whole runs, and calls in concurrent threads do
not disturb each other's draws.

The monitored nodes are every pool, fixed pool and drain (a drain's
amount is its cumulative total), node ids ascending, as
model.monitored_node_ids lists them: the one column order of both kernel
forms, of a trace and of the trace table. trace_runs yields each run as
the trace kernel leaves it, one flat tuple of those amounts, step by step;
csv_writer formats the tuple as it is, and simulate_ensemble keeps it as a
trace's amounts, whose rows and snapshots are views built when read.

trace_runs runs a graph's topology (topology_of) in the trace form on the
graph's own weights, which it reads as they are: topology_of checks the
graph's connection rules and gate totals once, when the topology is first
built and cached on the graph (checked_topology, which balance calls on
every call, checks a cached graph again but builds nothing). The balancer runs its genomes' weights on
their economies' topologies in the observe form, which first scales
their gate weights by model.scaled_shares, the rule gate_shares writes a
balanced graph's shares by, and runs only to the observed step, keeping
each run's amounts at that step only.
"""

import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .model import EconomyError, EconomyGraph, InvalidEconomyError, broken_rule, gate_shares, is_valid
from .model import monitored_node_ids  # re-exported: a run's columns, as trace_runs yields them
from .util import check_number


@dataclass(frozen=True)
class SimulationTrace:
    """One run of length steps: amounts holds the amounts of monitored after
    steps 0 ... length, flat and step-major, as trace_runs yields them."""

    run_seed: int
    monitored: tuple  # ids of the pools, fixed pools and drains, ascending
    amounts: tuple
    length: int

    @cached_property
    def rows(self) -> tuple:
        """rows[t] holds the amounts of monitored after step t; built on first read."""
        w = len(self.monitored)
        return tuple(self.amounts[t * w:t * w + w] for t in range(self.length + 1))

    @cached_property
    def snapshots(self) -> tuple:
        """One dict per step, monitored id -> amount; built on first read."""
        return tuple(dict(zip(self.monitored, row)) for row in self.rows)

    def observe(self, node_id: str, t: int) -> int:
        return self.amounts[self._index(node_id, t)]

    def _index(self, node_id: str, t: int) -> int:
        """The place in amounts of node_id at step t, once both are checked."""
        check_number("step", t, integer=True)
        if not 0 <= t <= self.length:
            raise ValueError(f"step {t} outside trace of length {self.length}")
        if node_id not in self.monitored:
            raise ValueError(f"node {node_id!r} is not monitored (not a pool or drain)")
        return t * len(self.monitored) + self.monitored.index(node_id)


class RunEnsemble(NamedTuple):
    """Repeated runs of one graph with seeds base, base+1, ..., base+m-1."""

    graph: EconomyGraph
    base_seed: int
    traces: tuple

    @property
    def length(self) -> int:
        return self.traces[0].length

    def observe(self, node_id: str, t: int) -> list:
        """The monitored amount at step t in every run, in seed order."""
        index = self.traces[0]._index(node_id, t)  # every trace has the same monitored ids and length
        return [trace.amounts[index] for trace in self.traces]


def simulate(graph: EconomyGraph, n: int, seed: int) -> SimulationTrace:
    """Run n steps from the declared initial amounts.

    A pure function of (graph, n, seed): identical arguments produce an
    identical trace.
    """
    return simulate_ensemble(graph, n, 1, seed).traces[0]


def simulate_ensemble(graph: EconomyGraph, n: int, m: int, base_seed: int) -> RunEnsemble:
    """m independent runs with seeds base_seed+0 ... base_seed+m-1.

    base_seed must be >= 0: random.Random(-s) draws what random.Random(s)
    draws, so a range of seeds across 0 would repeat runs. Each trace keeps
    its run's amounts as trace_runs yields them: a run that draws nothing,
    as every run of a graph without random gates does, is simulated once,
    and all m traces share its tuple (each keeps its own run_seed); every
    other run is a tuple of its own.
    """
    runs, monitored = trace_runs(graph, n, m, base_seed), topology_of(graph).monitored
    traces = tuple(SimulationTrace(base_seed + i, monitored, run, n) for i, run in enumerate(runs))
    return RunEnsemble(graph, base_seed, traces)


def trace_runs(graph: EconomyGraph, n: int, m: int, base_seed: int):
    """The runs of n steps with seeds base_seed ... base_seed+m-1, an iterator
    over one trace kernel call on a generator of its own. Each run is one flat
    tuple of (n+1)*w amounts, step-major, the w amounts of a step in the order
    of monitored_node_ids(graph), as csv_writer reads them. A run that draws
    nothing, as every run of a gate-free economy does, is simulated once and
    is all m runs, one tuple (see flowtune.kernel); the only repeats are such
    a stream's. Arguments and graph are checked at the call, each run
    simulated when read."""
    check_number("simulation length", n, integer=True, minimum=1)
    check_number("run count", m, integer=True, minimum=1)
    check_number("seed", base_seed, integer=True, minimum=0)  # see simulate_ensemble
    kernel = topology_of(graph).kernel(True)
    return kernel(tuple(e.weight for e in graph.edges), random.Random(0), range(base_seed, base_seed + m), n)


def csv_writer(ids, length: int):
    """chunks(runs) -> the trace table in UTF-8 chunks: the header, then one
    chunk per run of runs, a flat tuple as trace_runs yields it, its lines
    for steps 0 ... length and, within a step, the node ids in ids, the
    table's column order (monitored_node_ids), quoted as the csv module
    quotes them. A chunk is one bytes % of the run's tuple as it is over
    templates built here; a run that is the tuple before it, as each run of
    a stream that draws nothing is, is the chunk before, each line's run
    number one higher, unless an id holds an LF, which could put one of
    those numbers in a field. An id UTF-8 cannot encode raises EconomyError
    here.
    """
    check_number("simulation length", length, integer=True, minimum=1)  # as trace_runs checks n
    try:
        fields = [node_id.encode("utf-8") for node_id in ids]
    except UnicodeEncodeError as exc:
        raise EconomyError(f"node id {exc.object!r} cannot be written to a UTF-8 trace") from None
    fields = [b'"%s"' % f.replace(b'"', b'""') if any(c in f for c in b',"\r\n') else f for f in fields]
    # each % of an id doubled, as it is a template's
    suffixes = [b",%s,%%d\n" % f.replace(b"%", b"%%") for f in fields]
    # b"" first, so that a run's prefix starts every line
    templates = [b""] + [prefix + suffix for prefix in [b"%d" % t for t in range(length + 1)] for suffix in suffixes]

    renumber = not any(b"\n" in f for f in fields)  # an LF in a field could precede "<run>,"

    def chunks(runs):
        yield b"run,step,node_id,amount\n"
        last = chunk = None
        for run, amounts in enumerate(runs):
            if amounts is last and renumber:  # the chunk before, each line's run number one higher
                chunk = (b"\n" + chunk).replace(b"\n%d," % (run - 1), b"\n%d," % run)[1:]
            else:
                chunk = (b"%d," % run).join(templates) % amounts
            last = amounts
            yield chunk

    return chunks


def ensemble_to_csv(ensemble: RunEnsemble) -> str:
    """Trace table run,step,node_id,amount (csv_writer), runs by seed offset;
    traces that share amounts, the runs of a stream that draws nothing, are
    one run, which csv_writer renumbers. An economy without pools and drains
    gives the header alone."""
    chunks = csv_writer(ensemble.traces[0].monitored, ensemble.length)
    return b"".join(chunks(trace.amounts for trace in ensemble.traces)).decode()


# --- step kernels ----------------------------------------------------------------


def topology_of(graph: EconomyGraph) -> "Topology":
    """The graph's compiled topology, checked and built by checked_topology
    on first use and cached on it.

    From the weights, each kernel's prologue (flowtune.kernel) computes the
    amount of each edge that does not leave a gate, in edge order, its weight
    as it is (an int: EconomyGraph turns a whole float into one); per gate, in
    node order, the running sums of its shares but the last, each share a
    weight divided by float() of the gate's left-to-right total, which must
    be a finite positive number; the cap of each fixed pool with outgoing
    edges (phase 4), node ids ascending; and the initial amounts of the
    monitored nodes, node ids ascending, fixed pools clamped. Amount weights
    are whole counts >= 0: the kernel's rule for when to repeat a converter
    pass is exact only then (see flowtune.kernel), and a graph's are
    positive.
    """
    topology = getattr(graph, "_sim_topology", None)
    return checked_topology(graph) if topology is None else topology


def checked_topology(graph: EconomyGraph) -> "Topology":
    """topology_of(graph), after checking the graph even if its topology is
    cached: its connection rules, then each gate's total, as gate_shares
    checks it. A refused graph caches nothing. balance checks its economies
    here on every call, so that a call does the same work whatever earlier
    calls did with its graphs.
    """
    if not is_valid(graph):
        raise InvalidEconomyError(f"refusing to simulate an invalid economy graph: {broken_rule(graph)}")
    gate_shares(graph, [e.weight for e in graph.edges])  # raises if a gate's total is not a finite positive number
    topology = getattr(graph, "_sim_topology", None)
    if topology is None:
        from .kernel import Topology  # the emitter loads with the first topology, not with flowtune

        topology = Topology(graph)
        object.__setattr__(graph, "_sim_topology", topology)
    return topology
