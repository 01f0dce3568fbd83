"""Step kernels generated per economy topology.

A kernel is Python source, generated from a graph's node kinds and edges,
that runs t steps, straight-line, on local variables, with the phases and
draws the sim docstring states, once per seed of a list, reseeding one
generator in C before each run. The emitter writes two forms of it, both
generators with the one signature kernel(w, rng, seeds, t) that yield one
tuple per run once the run ends; w holds one weight per edge, in edge
order. Both keep the amounts of Topology.monitored, the pools, fixed pools
and drains with node ids ascending as model.monitored_node_ids lists them:
the trace CSV's column order, so no caller reorders them. The observe form
reads a balancer genome's slice, each gate's weights first scaled by
model.scaled_shares, the function model.gate_shares writes a balanced
graph's shares with, and yields the run's amounts at step t. The trace
form reads a graph's own weights, gate totals checked by sim.topology_of,
and yields the run's amounts at steps 0 ... t as one flat tuple,
step-major.

A run that no seed changes is simulated once. Every run starts from the
same amounts, and no step before a run's first draw reads a random
number, so runs agree up to their first draw, and a run that draws
nothing is every seed's run. Both forms end a run by one rule: a gated
kernel sets u = 2.0 after each reseed, which any draw overwrites, and
once a run ends without a draw (only the first run can), it yields that
tuple for every seed and returns, with no further reseed or step. A
gate-free topology's runs never draw, so its kernel never reseeds,
simulates its one run when the first is read, and yields that tuple for
every seed. Every other run is simulated and yielded as a tuple of its
own, so a reader tells a stream of one tuple by identity (sim.csv_writer
renumbers the chunk it wrote for it; balance counts it as one run).

The source names node k's amount nk, edge e's weight we, the batch staged
on gate edge e se, gate k's share bounds bk_j and fixed pool k's cap ck. A
prologue, run once per call before the first run, is the form's rule that
turns the weights into these locals, with the arithmetic sim.topology_of
states: per gate, in the observe form only, one statement that replaces
its weights with shares(gate_ids[j], its weights), shares being
scaled_shares; then the bounds, each share divided by float() of the
total; the caps, each the largest amount weight out of its fixed pool; and
a, the step-0 amounts of Topology.monitored with fixed pools clamped.
Amount weights are read as they are: whole counts, as EconomyGraph coerces
a graph's and the balancer draws a genome's. The observe form raises
GateNormalizationError naming a gate whose total is not a finite positive
number when the first run is read. Weights and gate ids enter only as
data, so no id a document holds can change what runs.
The adjacency the emitter walks is the graph's own (see model); this
module builds none. sim imports this module with the first topology it
compiles, not with the package.

Phase 2 repeats converter passes only where a repeat can fire something.
A converter k feeds the converters that read an amount its one output
edge raises (Topology.feeds): the converters consuming from the pool it
produces into, or, through a gate, from each pool the gate can route to,
and each converter the gate stages a batch for. A back feeder feeds a
converter that comes before it in id order. With no back feeder the
kernel runs one pass; otherwise it loops, and only a back feeder's firing
asks for another pass. This is exact. A converter's test is monotone in
its inputs (n >= w, s > 0), and a firing only lowers its own inputs and
raises the inputs of the converters it feeds, as every edge amount is
>= 0 (topology_of's precondition). So a converter c that did not fire
when a pass examined it can fire in the next pass only if a converter
that feeds c fired in between. The first firing of a next pass has no
firing before it in that pass, so what fed it fired after it in the
previous pass, and was a back feeder. A pass that fires no back feeder
therefore leaves a next pass nothing to fire.
"""

import _random

from .model import EconomyGraph, NodeKind, monitored_node_ids, scaled_shares


class Topology:
    """A graph's structure as its step kernels read it, and the kernels."""

    def __init__(self, graph: EconomyGraph):
        self.ids = tuple(node.id for node in graph.nodes)
        self.kinds = kinds = [node.kind for node in graph.nodes]
        # the graph's adjacency, by position: each edge's ends, each node's edges out and in
        self.ends, self.out, self.into = graph._ends, graph._out, graph._in
        # every form's column order, and the columns' node positions
        self.monitored = tuple(monitored_node_ids(graph))
        self.held = [graph._index[node_id] for node_id in self.monitored]
        self.initial = tuple(graph.nodes[k].initial_amount for k in self.held)
        # what a kernel's prologue reads besides the weights: the gates and the capped fixed pools
        self.gates = [k for k, kind in enumerate(kinds) if kind is NodeKind.RANDOM_GATE]
        # with outgoing edges (one without is not clamped); cap_slots are their places in held
        self.cap_slots = [i for i, k in enumerate(self.held) if kinds[k] is NodeKind.FIXED_POOL and self.out[k]]
        self.caps = [self.held[i] for i in self.cap_slots]
        self._kernels = {}

    def __getstate__(self):  # a compiled function does not pickle; it is compiled again on use
        return {**self.__dict__, "_kernels": {}}

    def feeds(self, k: int) -> list:
        """The converters whose test converter k's firing can newly pass, by
        position: those that read an amount its one output edge raises."""
        kinds, ends, out = self.kinds, self.ends, self.out

        def readers(node):  # the converters that consume from a node's amount
            return [ends[e][1] for e in out[node] if kinds[ends[e][1]] is NodeKind.CONVERTER]

        dst = ends[out[k][0]][1]
        if kinds[dst] is not NodeKind.RANDOM_GATE:
            return readers(dst)
        fed = []
        for e in out[dst]:  # a pool's readers; a converter reads its staged edge
            to = ends[e][1]
            if kinds[to].is_pool_like:
                fed += readers(to)
            elif kinds[to] is NodeKind.CONVERTER:
                fed.append(to)
        return fed

    def kernel(self, trace: bool):
        """The step kernel of one form, compiled on first use.

        kernel(w, rng, seeds, t) is a generator that turns the weights w
        into its locals by its form's rule (see the module docstring), then
        runs t steps from the initial amounts once per seed, reseeding rng
        with the seed first, and yields one tuple per run as soon as the run
        ends, so a caller that stops reading runs no further seed. The tuple
        holds the amounts of self.monitored: with trace, at steps 0 ... t,
        flat and step-major; without, at step t. A run that drew nothing, as
        every run of a topology without gates does, is yielded for every seed
        (see the module docstring). Its namespace binds shares to
        model.scaled_shares and gate_ids to the gate ids.
        """
        kernel = self._kernels.get(trace)
        if kernel is None:
            namespace = {"__builtins__": {}, "range": range, "reseed": _random.Random.seed, "float": float,
                         "max": max, "shares": scaled_shares, "gate_ids": tuple(self.ids[k] for k in self.gates),
                         "a": self.initial}
            exec(compile(self.source(trace), "<flowtune kernel form>", "exec"), namespace)
            kernel = self._kernels[trace] = namespace.pop("kernel")  # no cycle through its globals
        return kernel

    def source(self, trace: bool) -> str:
        """The kernel's Python source; with trace, it keeps every step's amounts."""
        kinds, ends, out, into = self.kinds, self.ends, self.out, self.into
        gate, converter = NodeKind.RANDOM_GATE, NodeKind.CONVERTER
        lines = []

        def put(depth, text):
            lines.append("    " * depth + text)

        def deliver(depth, e, amount):
            """Move amount along edge e; a gate forwards it along one edge, by one draw."""
            dst = ends[e][1]
            if kinds[dst] is not gate:
                put(depth, f"n{dst} += {amount}")
                return
            put(depth, "u = draw()")
            last = len(out[dst]) - 1
            for j, target in enumerate(out[dst]):
                if j < last:
                    put(depth, f"{'elif' if j else 'if'} u < b{dst}_{j}:")
                elif j:
                    put(depth, "else:")
                to = ends[target][1]
                put(depth + (last > 0), f"n{to} += {amount}" if kinds[to].is_pool_like else f"s{target} += {amount}")

        def by_id(kind):
            return sorted((k for k, node_kind in enumerate(kinds) if node_kind is kind), key=self.ids.__getitem__)

        put(0, "def kernel(w, rng, seeds, t):")
        # the prologue: the weights as the locals the steps read, by the form's rule (see the module docstring)
        put(1, f"({''.join(f'w{e}, ' for e in range(len(ends)))}) = w")
        for j, k in enumerate(self.gates):
            if not trace:  # a genome's gate weights, checked and scaled; topology_of checked a graph's
                weights = "".join(f"w{e}, " for e in out[k])
                put(1, f"({weights}) = shares(gate_ids[{j}], ({weights}))")
            total = " + ".join(f"w{e}" for e in out[k]) or "0"
            put(1, f"total = {total}")
            put(1, "total = float(total)")
            bound = ""
            for i, e in enumerate(out[k][:-1]):
                put(1, f"b{k}_{i} = {bound}w{e} / total")
                bound = f"b{k}_{i} + "
        for k in self.caps:
            amounts = ", ".join(f"w{e}" for e in out[k])
            put(1, f"c{k} = {f'max({amounts})' if len(out[k]) > 1 else amounts}")
        if self.caps:  # else a is the namespace's initial amounts
            amounts = [repr(amount) for amount in self.initial]
            for slot, k in zip(self.cap_slots, self.caps):
                amounts[slot] = f"c{k} if {amounts[slot]} > c{k} else {amounts[slot]}"
            put(1, f"a = ({''.join(f'{amount}, ' for amount in amounts)})")
        held = "".join(f"n{k}, " for k in self.held)
        staged = [e for e, (src, dst) in enumerate(ends) if kinds[src] is gate and not kinds[dst].is_pool_like]
        # one run per seed on the one generator; a gate-free run draws nothing
        if self.gates:
            put(1, "draw = rng.random")
        put(1, "for seed in seeds:")
        if self.gates:
            put(2, "reseed(rng, seed)")
            put(2, "u = 2.0")  # a draw overwrites it
        put(2, f"({held}) = a")
        if trace:  # the run's amounts, flat, step-major
            put(2, f"run = [{held}]")
        step = 3  # the depth of one step's body
        put(step - 1, "for _ in range(t):")
        if staged:  # staged batches last one step
            put(step, " = ".join(f"s{e}" for e in staged) + " = 0")
        for k in by_id(NodeKind.SOURCE):
            for e in out[k]:
                deliver(step, e, f"w{e}")
        # converters: passes in id order over those not fired this step, until
        # a pass fires no back feeder; with none, one pass (see the docstring)
        converters = by_id(converter)
        rank = {k: i for i, k in enumerate(converters)}
        back = {k for k in converters if any(rank[c] < rank[k] for c in self.feeds(k))}
        passes = bool(back)
        if passes:
            put(step, " = ".join(f"f{k}" for k in converters) + " = 1")
            put(step, "while True:")
            put(step + 1, "fired = 0")
        depth = step + passes
        for k in converters:
            needs = [e for e in into[k] if kinds[ends[e][0]] is not gate]
            batches = [e for e in into[k] if kinds[ends[e][0]] is gate]
            tests = [f"f{k}"] if passes else []
            tests += [f"n{ends[e][0]} >= w{e}" for e in needs] + [f"s{e} > 0" for e in batches]
            put(depth, f"if {' and '.join(tests) or 'True'}:")
            if passes:
                put(depth + 1, f"f{k}, fired = 0, 1" if k in back else f"f{k} = 0")
            for e in needs:
                put(depth + 1, f"n{ends[e][0]} -= w{e}")
            for e in batches:
                put(depth + 1, f"s{e} = 0")
            e = out[k][0]
            deliver(depth + 1, e, f"w{e}")
        if passes:
            put(step + 1, "if not fired:")
            put(step + 2, "break")
        for e, (src, dst) in enumerate(ends):
            if kinds[src].is_pool_like and kinds[dst] is NodeKind.DRAIN:
                put(step, f"if n{src} >= w{e}:")
                put(step + 1, f"n{src} -= w{e}")
                put(step + 1, f"n{dst} += w{e}")
        for k in self.caps:
            put(step, f"if n{k} > c{k}:")
            put(step + 1, f"n{k} = c{k}")
        # a run is read as soon as it ends, and the next one is only run if it is asked for
        gated = bool(self.gates)
        if trace:
            put(step, f"run += ({held})")
            put(2, "run = (*run,)")
        else:
            put(2, f"run = ({held})")
        if gated:  # a run that drew nothing is every seed's run (see the module docstring)
            put(2, "if u == 2.0:")
        put(2 + gated, "for _ in seeds:")
        put(3 + gated, "yield run")
        put(2 + gated, "return")
        if gated:
            put(2, "yield run")
        return "\n".join(lines) + "\n"
