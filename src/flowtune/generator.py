"""Evolutionary construction of valid economy graphs.

Individuals are edge lists over a fixed, user-chosen multiset of typed
nodes. Every generation each individual tries to add one random edge
(insertion is guarded: an edge that would break a degree bound or a
neighbor-kind rule is simply not added), and with some probability one
random individual loses one random edge. A run stops at the first
individual whose graph satisfies every connection constraint and is
weakly connected, or when the step budget runs out.

Because insertions are guarded, an individual can only ever violate
minimum-degree requirements, so its constraint-violation total is
maintained incrementally in O(1) per mutation.

generate draws the two endpoints of each edge to add inline, exactly as
random.sample(range(n), 2) does on Python 3.10-3.13 and from the same
random numbers, so a seed gives the same economy. It screens each draw
inline, with the same rules as try_add, and adds only an edge that
passes: one lookup in a kind-pair table (_KIND_PAIRS), one in each of the
genome's room arrays (a node's entry is how many more edges its kind
allows in that direction, so nonzero admits one), and one in its edge
set. Most draws fail the screen once the genomes saturate.

A generation that adds and removes no edge leaves every genome as it
was, so generate appends the previous minimum to the fitness history and
skips the rest: the minimum and the best individual cannot move, and
every genome at fitness 0 already failed the connectivity test the
generation before (the empty genome's fitness is positive, since every
kind has a minimum degree).
"""

import random
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .model import (
    CONSTRAINTS,
    EconomyGraph,
    Edge,
    Node,
    NodeKind,
    indices_connected,
    normalize_gate_weights,
)
from .util import check_number

#: Kinds drawn when sampling random node multisets; fixed pools are a
#: designer refinement and are not generated.
SAMPLED_KINDS = (
    NodeKind.SOURCE,
    NodeKind.RANDOM_GATE,
    NodeKind.POOL,
    NodeKind.CONVERTER,
    NodeKind.DRAIN,
)


#: The largest node total a config may ask for, and the largest product of
#: population_size and node total; a count above them is refused before
#: anything is allocated. By tracemalloc, generate holds about 370 bytes per
#: node, and 2 more per node per genome, while the genomes have few edges
#: (4,000-16,000 nodes, population 1-10; 40 MB at both caps after 3 steps),
#: and about 170 more per node per genome once their edges fill in (1,000
#: nodes, 4,000 steps).
MAX_NODES = 100_000
MAX_GENOME_NODES = 1_000_000


@dataclass(frozen=True)
class GeneratorConfig:
    """What generate searches for: an economy of node_counts nodes per kind,
    evolved by population_size genomes for at most max_steps steps from seed;
    remove_probability is each step's chance of deleting one random genome's
    random edge."""

    node_counts: Mapping
    population_size: int = 10
    max_steps: int = 50000
    remove_probability: float = 0.1
    seed: int = 0

    def __post_init__(self):
        counts = dict(self.node_counts)
        for kind, count in counts.items():
            if not isinstance(kind, NodeKind):
                raise ValueError(f"unknown node kind {kind!r}")
            check_number(f"count for {kind.value}", count, integer=True, minimum=0)
        object.__setattr__(self, "node_counts", counts)
        total = sum(counts.values())
        if total < 2:
            raise ValueError("need at least two nodes to build an economy")
        if total > MAX_NODES:
            raise ValueError(f"{total} nodes exceed the cap of {MAX_NODES}")
        check_number("population_size", self.population_size, integer=True, minimum=1)
        if self.population_size * total > MAX_GENOME_NODES:
            raise ValueError(f"population_size x nodes exceeds the cap of {MAX_GENOME_NODES}")
        check_number("max_steps", self.max_steps, integer=True, minimum=1)
        check_number("seed", self.seed, integer=True, minimum=0)  # Random(-s) draws what Random(s) draws
        check_number("remove_probability", self.remove_probability)
        if not 0.0 <= self.remove_probability <= 1.0:
            raise ValueError("remove_probability must be in [0, 1]")


#: _KIND_PAIRS[5 * i + j] is 1 when an edge from the i-th to the j-th
#: constraint kind (CONSTRAINTS order) passes both neighbor-kind rules: the
#: source's allowed outputs and the destination's allowed inputs.
_TABLE_KINDS = tuple(CONSTRAINTS)
_KIND_PAIRS = bytes(
    dst in CONSTRAINTS[src].allowed_outputs and src in CONSTRAINTS[dst].allowed_inputs
    for src in _TABLE_KINDS
    for dst in _TABLE_KINDS
)


class EdgeListGenome:
    """One individual: a growing edge list over a shared node tuple.

    try_add enforces the no-duplicate, no-self-loop, neighbor-kind and
    maximum-degree rules, so the only constraint violations a genome can
    carry are unmet minimum degrees (tracked in ``fitness``). The degrees
    live only in two room arrays, ``_out_room`` and ``_in_room``: entry v
    is how many more edges v's kind allows out of (into) v, so a nonzero
    entry admits one more. v's minimum in that direction is met exactly
    while its room is at most ``_out_met[v]`` (``_in_met[v]``), its kind's
    maximum less its minimum. A minimum of 0 puts that threshold at full
    room, which an add never falls to and a removal never rises from, so
    it is never counted.
    """

    __slots__ = ("nodes", "edges", "_row", "_col", "_out_met", "_in_met", "_edge_set",
                 "_out_room", "_in_room", "_missing")

    def __init__(self, nodes: tuple):
        self.nodes = nodes
        self.edges = []
        kinds = [n.kind.constraint_kind for n in nodes]
        rules = [CONSTRAINTS[kind] for kind in kinds]
        # a->b passes the neighbor-kind rules when _KIND_PAIRS[_row[a] + _col[b]]
        self._col = [_TABLE_KINDS.index(kind) for kind in kinds]
        self._row = [len(_TABLE_KINDS) * i for i in self._col]
        self._out_met = bytes(r.max_out - r.min_out for r in rules)
        self._in_met = bytes(r.max_in - r.min_in for r in rules)
        self._edge_set = set()
        self._out_room = bytearray(r.max_out for r in rules)
        self._in_room = bytearray(r.max_in for r in rules)
        self._missing = sum((r.min_in > 0) + (r.min_out > 0) for r in rules)

    @property
    def fitness(self) -> int:
        """Unmet minimum-degree count; equals the ordinary graph fitness."""
        return self._missing

    def try_add(self, a: int, b: int) -> bool:
        """Add the directed edge a->b if every rule allows it."""
        if a == b or (a, b) in self._edge_set or not self._out_room[a] or not self._in_room[b]:
            return False
        if not _KIND_PAIRS[self._row[a] + self._col[b]]:
            return False
        self._add(a, b)
        return True

    def _add(self, a: int, b: int) -> None:
        """Add a->b, which passes try_add's rules; update rooms and fitness."""
        out_room, in_room = self._out_room, self._in_room
        out_room[a] -= 1
        in_room[b] -= 1
        # a minimum is newly met when the room falls to its threshold
        self._missing -= (out_room[a] == self._out_met[a]) + (in_room[b] == self._in_met[b])
        self._edge_set.add((a, b))
        self.edges.append((a, b))

    def remove_index(self, index: int) -> None:
        a, b = self.edges.pop(index)
        self._edge_set.discard((a, b))
        out_room, in_room = self._out_room, self._in_room
        # a minimum met with no edge to spare stops being met
        self._missing += (out_room[a] == self._out_met[a]) + (in_room[b] == self._in_met[b])
        out_room[a] += 1
        in_room[b] += 1

    def is_connected(self) -> bool:
        return indices_connected(len(self.nodes), self.edges)

    def copy(self) -> "EdgeListGenome":
        clone = EdgeListGenome.__new__(EdgeListGenome)
        clone.nodes = self.nodes
        clone.edges = list(self.edges)
        clone._row = self._row
        clone._col = self._col
        clone._out_met = self._out_met
        clone._in_met = self._in_met
        clone._edge_set = set(self._edge_set)
        clone._out_room = bytearray(self._out_room)
        clone._in_room = bytearray(self._in_room)
        clone._missing = self._missing
        return clone

    def to_graph(self, normalize: bool = True) -> EconomyGraph:
        """Materialize as a graph with unit weights.

        Gate weights become uniform probability shares when ``normalize``
        is set (requires every gate to have at least one outgoing edge).
        """
        edges = tuple(Edge(self.nodes[a].id, self.nodes[b].id, 1) for a, b in self.edges)
        graph = EconomyGraph(self.nodes, edges)
        return normalize_gate_weights(graph) if normalize else graph


def mutate_remove_edge(population, rng: random.Random, remove_probability: float) -> bool:
    """With the given probability, delete one random edge of one random individual.

    Returns whether an edge was deleted: a drawn individual may have none.
    """
    if rng.random() < remove_probability:
        genome = population[rng.randrange(len(population))]
        if genome.edges:
            genome.remove_index(rng.randrange(len(genome.edges)))
            return True
    return False


class GenerationResult(NamedTuple):
    graph: EconomyGraph
    valid: bool
    generations: int
    fitness: int
    fitness_history: tuple

    def report_dict(self) -> dict:
        return {
            "valid": self.valid,
            "generations": self.generations,
            "final_fitness": self.fitness,
        }


def build_nodes(node_counts: Mapping) -> tuple:
    """Node tuple for a multiset of kinds; ids are kind_0, kind_1, ..."""
    nodes = []
    for kind in NodeKind:
        for i in range(node_counts.get(kind, 0)):
            nodes.append(Node(f"{kind.value}_{i}", kind))
    return tuple(nodes)


def generate(config: GeneratorConfig) -> GenerationResult:
    """Evolve a valid economy over the configured node multiset.

    Returns the first valid individual found (unit weights, gate shares
    uniform) or, after max_steps generations, the best individual seen
    with its remaining constraint-violation count.
    """
    rng = random.Random(config.seed)
    nodes = build_nodes(config.node_counts)
    first = EdgeListGenome(nodes)  # the others are copies, sharing its per-index lists
    population = [first] + [first.copy() for _ in range(config.population_size - 1)]

    best = population[0].copy()
    history = [best.fitness]
    # each pair is rng.sample(range(n), 2), drawn through getrandbits as
    # randrange draws: for n <= 21 sample's pool-list branch (b = randrange(n-1),
    # index n-1 fills a's slot), above it the selected-set branch (b =
    # randrange(n), redrawn while it repeats a)
    n = len(nodes)
    last = n - 1
    bits = rng.getrandbits
    k = n.bit_length()
    k_last = last.bit_length()
    pool_branch = n <= 21
    table = _KIND_PAIRS
    row, col = first._row, first._col
    screens = [(genome, genome._out_room, genome._in_room, genome._edge_set) for genome in population]
    for generation in range(1, config.max_steps + 1):
        changed = False
        for genome, out_room, in_room, edge_set in screens:
            a = bits(k)
            while a >= n:
                a = bits(k)
            if pool_branch:
                b = bits(k_last)
                while b >= last:
                    b = bits(k_last)
                if b == a:
                    b = last
            else:
                b = bits(k)
                while b >= n or b == a:
                    b = bits(k)
            if table[row[a] + col[b]] and out_room[a] and in_room[b] and (a, b) not in edge_set:
                genome._add(a, b)  # try_add's rules, screened inline
                changed = True
        if not (mutate_remove_edge(population, rng, config.remove_probability) or changed):
            history.append(history[-1])  # no genome changed: nothing below can either
            continue

        missing = [genome._missing for genome in population]
        generation_best = min(missing)
        history.append(generation_best)
        if generation_best < best.fitness:
            best = population[missing.index(generation_best)].copy()
        if generation_best == 0:
            for genome in population:
                if genome.fitness == 0 and genome.is_connected():
                    return GenerationResult(
                        genome.to_graph(normalize=True),
                        True,
                        generation,
                        0,
                        tuple(history),
                    )

    return GenerationResult(
        best.to_graph(normalize=False),
        False,
        config.max_steps,
        best.fitness,
        tuple(history),
    )


def plausible_node_counts(counts: Mapping) -> bool:
    """Cheap necessary conditions for a kind multiset to admit a valid graph.

    Counts required inputs/outputs per kind against the input slots and
    output capacity the other kinds can offer. Necessary, not sufficient:
    a passing multiset may still be unwirable, but a failing one never is.
    """
    s = counts.get(NodeKind.SOURCE, 0)
    g = counts.get(NodeKind.RANDOM_GATE, 0)
    p = counts.get(NodeKind.POOL, 0) + counts.get(NodeKind.FIXED_POOL, 0)
    c = counts.get(NodeKind.CONVERTER, 0)
    d = counts.get(NodeKind.DRAIN, 0)
    return (
        s >= 1
        and p >= 1
        and g <= 3 * s + c  # every gate needs one feed from a source or converter
        and s + c <= 2 * p + g  # source and converter outputs need pool/gate input slots
        and 2 * g <= 2 * p + 3 * c  # gate outputs need pool/converter input slots
        and d <= 3 * p  # drains are fed by pools only
        and p <= 3 * s + 3 * g + c  # every pool needs a feed
        and c + d <= 3 * p + 3 * g  # converters and drains share pool/gate output capacity
        and s + 2 * g + c <= 2 * p + g + 3 * c  # all required outputs vs all input slots
    )


def random_node_counts(rng: random.Random, lo: int = 5, hi: int = 20) -> dict:
    """Random kind multiset with lo..hi nodes that passes the feasibility screen.

    Kinds are drawn uniformly per node; multisets lacking a source or a
    pool, or failing plausible_node_counts, are redrawn.
    """
    check_number("lo", lo, integer=True)
    check_number("hi", hi, integer=True)
    if not 2 <= lo <= hi <= MAX_NODES:  # before any draw: a huge hi would build a list of hi kinds
        raise ValueError(f"need 2 <= lo <= hi <= {MAX_NODES}")
    while True:
        n = rng.randint(lo, hi)
        kinds = [SAMPLED_KINDS[rng.randrange(len(SAMPLED_KINDS))] for _ in range(n)]
        if NodeKind.SOURCE not in kinds:
            kinds[rng.randrange(n)] = NodeKind.SOURCE
        if NodeKind.POOL not in kinds:
            candidates = [i for i, k in enumerate(kinds) if k is not NodeKind.SOURCE]
            if not candidates:
                candidates = list(range(n))
            kinds[candidates[rng.randrange(len(candidates))]] = NodeKind.POOL
        counts = {}
        for kind in kinds:
            counts[kind] = counts.get(kind, 0) + 1
        if plausible_node_counts(counts):
            return counts
