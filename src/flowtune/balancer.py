"""Evolutionary tuning of economy edge weights against a play objective.

A genome is a plain tuple of weights: one per edge of one economy, or of
two economies in turn. Fitness comes from simulating the economy m times
with the candidate weights and comparing the observed amount in a chosen
pool at a chosen step against either a fixed target value or the
observation of a second pool. The proportion of the two quantities is
averaged over the runs, and genomes are ranked by that mean alone, cached
per distinct tuple; a genome keeps no other state. A vector counts as
balanced once its fitness, a slack term alpha plus the mean proportion,
reaches 1.0; alpha only decides when the search stops, so a run at a
larger alpha is a prefix of the same search (BalanceReport.at_alpha).

Weights flagged static in the graph are never altered. Weights on edges
leaving a random gate evolve as raw positive reals ("probability genes")
and are normalized per gate when compiled into a step plan or written
into a graph; all other genes are positive integers ("amount genes").

balance checks each input economy once, then measures a genome on one
step plan per economy run to the observed step, building no graph: each
economy's topology turns the genome's slice of weights into the plan's
params (kernel.Topology.params_form), and its observe kernel yields the
runs one by one, each reseeding a generator the balance call makes for
itself, so calls in concurrent threads do not disturb each other. The
report's observations are that measurement of the best genome under seeds
of their own; the balanced graphs carry the measured weights, so
simulating them reproduces it. sim_length only bounds observe_step.

Each generation races its candidates. A candidate's proportions are
summed left to right as its runs are read; after run k of m, with sum S,
it is abandoned, and its remaining runs are never simulated, once
S + (m - k) < (c - RACE_MARGIN) * m, where c is the worst parent's mean.
Every proportion is at most 1, so its mean would be below c. The cut is
exact: all population_size parents are among the candidates, with means
of at least c, and ahead of every new candidate, and the sort is stable,
so even a candidate whose mean equals c could not survive truncation.
An abandoned genome's mean is cached as ABANDONED, below every real
mean, so it never becomes a parent and is never reported. Parents are
kept, so c never falls from one generation to the next: a genome
abandoned once would be cut again whenever it reappears.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import Sequence, Union

from .model import EconomyError, EconomyGraph, InvalidEconomyError, NodeKind, broken_rule, gate_shares, is_valid
from .sim import monitored_node_ids, observe_stream, topology_of, weights_plan
from .util import check_number, derive_seed

#: A genome reaching this fitness is balanced and stops the search.
BALANCED_FITNESS = 1.0

#: The mean cached for a genome abandoned by the race: below every real mean
#: (a mean proportion is >= 0), so such a genome never becomes a parent.
ABANDONED = -1.0

#: How far below the worst parent's mean a candidate's best possible mean
#: must fall to be abandoned; float rounding in the sum is far smaller.
RACE_MARGIN = 1e-9

#: Largest step of one mutation: a whole count for an amount gene, a real
#: for a probability gene.
AMOUNT_DELTA_MAX = 3
PROBABILITY_DELTA_MAX = 0.25


class ObjectiveKind(str, Enum):
    ABSOLUTE = "absolute"
    INTRA_PAIR = "intra_pair"
    INTER_PAIR = "inter_pair"


class TerminationReason(str, Enum):
    FITNESS_REACHED = "fitness_reached"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class BalanceObjective:
    """What to balance: a pool against a value, or two pools against each other."""

    kind: ObjectiveKind
    pool: str
    observe_step: int
    sim_length: int
    runs: int = 10
    alpha: float = 0.0
    second_pool: str | None = None
    target_value: float | None = None

    def __post_init__(self):
        if not isinstance(self.kind, ObjectiveKind):
            object.__setattr__(self, "kind", ObjectiveKind(self.kind))
        if not isinstance(self.pool, str) or not isinstance(self.second_pool, (str, type(None))):
            raise ValueError("pool names must be strings")
        check_number("sim_length", self.sim_length, integer=True, minimum=1)
        check_number("observe_step", self.observe_step, integer=True)
        if not 1 <= self.observe_step <= self.sim_length:
            raise ValueError(
                f"observe_step must lie in [1, sim_length], got {self.observe_step}"
            )
        check_number("runs", self.runs, integer=True, minimum=1)
        check_number("alpha", self.alpha, minimum=0)
        if self.target_value is not None:
            check_number("target_value", self.target_value)
        if self.kind is ObjectiveKind.ABSOLUTE:
            if self.target_value is None or not self.target_value > 0:
                raise ValueError("absolute objective needs a positive target_value")
            if self.second_pool is not None:
                raise ValueError("absolute objective takes no second pool")
        else:
            if self.second_pool is None:
                raise ValueError(f"{self.kind.value} objective needs a second pool")
            if self.target_value is not None:
                raise ValueError(f"{self.kind.value} objective takes no target_value")


@dataclass(frozen=True)
class BalanceParams:
    population_size: int = 10
    max_generations: int = 100
    seed: int = 0
    mutations_per_generation = 1  # mutants added each generation: a class constant, not a field

    def __post_init__(self):
        check_number("population_size", self.population_size, integer=True)
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2 (crossover needs pairs)")
        check_number("max_generations", self.max_generations, integer=True, minimum=0)
        check_number("seed", self.seed, integer=True)


def prop(s: float, x: float) -> float:
    """Proportion of the smaller of two nonnegative quantities to the larger.

    Lies in [0, 1], is symmetric, and equals 1 exactly when the
    quantities agree (including the degenerate prop(0, 0) = 1).
    """
    if s < 0 or x < 0:
        raise ValueError("proportions are defined for nonnegative amounts only")
    if x > s:
        return s / x
    if s > 0:
        return x / s
    return 1.0


def fitness(observed: Sequence, reference: Sequence, alpha: float) -> float:
    """alpha + mean proportion between observed[i] and reference[i] over runs i.

    For an absolute objective the reference is the target once per run;
    for a pair it is the second pool's amount in the run with the same seed.
    """
    if len(observed) != len(reference):
        raise ValueError("observations and references must pair up run by run")
    total = 0
    for total in prop_sums(zip(observed, reference)):
        pass
    return alpha + total / len(observed)


def prop_sums(pairs):
    """The running left-to-right sums of prop over the (x, y) pairs: the one
    summation of fitness, read after each run by balance's racing."""
    total = 0
    for x, y in pairs:
        total += prop(x, y)
        yield total


# --- genomes ------------------------------------------------------------------


@dataclass(frozen=True)
class _Gene:
    probability: bool
    static: bool
    declared: float


class GenomeLayout:
    """Maps the positions of a genome, a tuple of weights, to graph edges and fixes each gene's kind."""

    def __init__(self, graphs: Sequence):
        self.graphs = tuple(graphs)
        genes = []
        spans = []
        for graph in self.graphs:
            start = len(genes)
            for edge in graph.edges:
                probability = graph.node(edge.src).kind is NodeKind.RANDOM_GATE
                genes.append(_Gene(probability, edge.static, edge.weight))
            spans.append((start, len(genes)))
        self.genes = tuple(genes)
        self.spans = tuple(spans)
        self.topologies = tuple(map(topology_of, self.graphs))
        self.mutable = tuple(i for i, g in enumerate(genes) if not g.static)

    def declared_genome(self) -> tuple:
        return tuple(g.declared for g in self.genes)

    def random_genome(self, rng: random.Random) -> tuple:
        values = []
        for gene in self.genes:
            if gene.static:
                values.append(gene.declared)
            elif gene.probability:
                values.append(1.0 - rng.random())  # (0, 1]
            else:
                values.append(rng.randint(1, 5))
        return tuple(values)

    def apply(self, genome: tuple) -> tuple:
        """Write the genome into fresh graphs, gate shares normalized."""
        return tuple(
            graph.with_weights(gate_shares(graph, genome[start:end]))
            for (start, end), graph in zip(self.spans, self.graphs)
        )

    def plans(self, genome: tuple) -> tuple:
        """One step plan per graph for the genome's weights, from each topology's
        params form; no graph is built."""
        return tuple(
            weights_plan(topology, genome[start:end]) for (start, end), topology in zip(self.spans, self.topologies)
        )


def clamp_positive(value: float, probability: bool) -> float:
    """Gene floor: results <= 0 become 1 (amounts) or 0.01 (probabilities)."""
    if value > 0:
        return value
    return 0.01 if probability else 1


def crossover(layout: GenomeLayout, parent_k: tuple, parent_l: tuple, rng: random.Random) -> tuple:
    """Child from two parents: per gene keep either value, their sum, or difference.
    Parents whose length differs from the layout's raise ValueError."""
    values = []
    bits = rng.getrandbits
    for gene, wk, wl in zip(layout.genes, parent_k, parent_l, strict=True):
        if gene.static:
            values.append(gene.declared)
            continue
        op = bits(3)  # rng.randrange(4), drawn as randrange draws it
        while op >= 4:
            op = bits(3)
        if op == 0:
            v = wk
        elif op == 1:
            v = wl
        elif op == 2:
            v = wk + wl
        else:
            v = wk - wl
        values.append(clamp_positive(v, gene.probability))
    return tuple(values)


def mutate(layout: GenomeLayout, population: list, rng: random.Random) -> None:
    """Nudge one random non-static gene of one random individual.

    The mutated vector is appended as a new individual; the original is
    kept so selection can always fall back on it (this keeps the best
    fitness of a population monotone under truncation selection). An
    empty population raises ValueError.
    """
    target = population[rng.randrange(len(population))]
    if not layout.mutable:
        return
    index = layout.mutable[rng.randrange(len(layout.mutable))]
    gene = layout.genes[index]
    if gene.probability:
        delta = PROBABILITY_DELTA_MAX * (1.0 - rng.random())  # (0, max]
    else:
        delta = rng.randint(1, AMOUNT_DELTA_MAX)
    if rng.random() < 0.5:
        value = target[index] + delta
    else:
        value = target[index] - delta
    population.append((*target[:index], clamp_positive(value, gene.probability), *target[index + 1:]))


# --- the balancing loop --------------------------------------------------------


@dataclass(frozen=True)
class ObservationStats:
    economy_index: int
    pool: str
    mean: float
    stddev: float
    runs: int

    def to_dict(self) -> dict:
        return {
            "economy": self.economy_index,
            "pool": self.pool,
            "mean": self.mean,
            "stddev": self.stddev,
            "runs": self.runs,
        }


@dataclass(frozen=True)
class BalanceReport:
    """One search: ``means[g]`` is the best mean proportion after generation g
    (``means[0]`` that of the initial population); fitness is alpha + mean.

    The work counters describe the whole search, the report's observation
    included, and are neither compared nor written out: evaluations are the
    distinct weight vectors measured for fitness, cache_hits the fitness
    lookups answered without a measurement, runs the kernel runs simulated
    (a gate-free economy is run once per measurement), steps their steps,
    and pruned_runs the runs of gated economies that the race skipped.
    """

    best_weights: tuple
    alpha: float
    means: tuple
    observations: tuple
    balanced_graphs: tuple
    evaluations: int = field(compare=False)
    cache_hits: int = field(compare=False)
    runs: int = field(compare=False)
    steps: int = field(compare=False)
    pruned_runs: int = field(compare=False)

    @property
    def history(self) -> tuple:
        """Best fitness of the initial population and after each generation."""
        return tuple(self.alpha + mean for mean in self.means)

    @property
    def best_fitness(self) -> float:
        return self.alpha + self.means[-1]

    @property
    def generations(self) -> int:
        return len(self.means) - 1

    @property
    def terminated_by(self) -> TerminationReason:
        return TerminationReason.FITNESS_REACHED if self.balanced else TerminationReason.TIMEOUT

    def at_alpha(self, alpha: float) -> "BalanceReport":
        """This search as a run at ``alpha`` would have reported it.

        Ranking ignores alpha, so a run with the same inputs at any alpha
        not below this report's own follows the same means and stops at
        the first generation where alpha + mean reaches BALANCED_FITNESS.
        The returned report's alpha, means and every field derived from
        them describe that run; best_weights, observations and
        balanced_graphs still describe this, the full, search.
        """
        if alpha < self.alpha:
            raise ValueError(f"alpha {alpha} is below the search's own alpha {self.alpha}")
        crossed = [g for g, mean in enumerate(self.means) if alpha + mean >= BALANCED_FITNESS]
        end = crossed[0] + 1 if crossed else len(self.means)
        return replace(self, alpha=alpha, means=self.means[:end])

    @property
    def balanced(self) -> bool:
        """Met the objective: best fitness reached the balanced threshold."""
        return self.best_fitness >= BALANCED_FITNESS

    @property
    def improved(self) -> bool:
        """Final best fitness strictly above the initial population's best."""
        return self.history[-1] > self.history[0]

    @property
    def initially_balanced(self) -> bool:
        """The initial population already contained a balanced vector."""
        return self.history[0] >= BALANCED_FITNESS

    def to_dict(self) -> dict:
        return {
            "best_weights": list(self.best_weights),
            "best_fitness": self.best_fitness,
            "generations": self.generations,
            "terminated_by": self.terminated_by.value,
            "balanced": self.balanced,
            "improved": self.improved,
            "initially_balanced": self.initially_balanced,
            "history": list(self.history),
            "observations": [o.to_dict() for o in self.observations],
        }


def _observed_pools(objective: BalanceObjective) -> list:
    """(economy index, pool) per observed pool: the target, then any second pool."""
    if objective.kind is ObjectiveKind.ABSOLUTE:
        return [(0, objective.pool)]
    if objective.kind is ObjectiveKind.INTRA_PAIR:
        return [(0, objective.pool), (0, objective.second_pool)]
    return [(0, objective.pool), (1, objective.second_pool)]


def _check_pool(graph: EconomyGraph, pool: str, role: str) -> None:
    if not graph.has_node(pool):
        raise ValueError(f"{role} {pool!r} does not exist in the economy")
    if pool not in monitored_node_ids(graph):
        raise ValueError(f"{role} {pool!r} is not a pool or drain")


def balance(
    graphs: Union[EconomyGraph, Sequence],
    objective: BalanceObjective,
    params: BalanceParams = BalanceParams(),
) -> BalanceReport:
    """Evolve the non-static weights of one or two economies to the objective.

    Deterministic for fixed (graphs, objective, params). The initial
    population holds the declared weight vector plus random vectors;
    each generation produces one child per random parent pair and one
    mutant, then truncates back to population size by mean proportion.
    The search stops once alpha + the best mean reaches BALANCED_FITNESS.
    """
    if isinstance(graphs, EconomyGraph):
        graphs = (graphs,)
    graphs = tuple(graphs)
    observed = _observed_pools(objective)
    expected = 1 + max(economy_index for economy_index, _ in observed)
    if len(graphs) != expected:
        raise ValueError(
            f"{objective.kind.value} objective needs {expected} economy graph(s), got {len(graphs)}"
        )
    for index, graph in enumerate(graphs):
        try:
            if not is_valid(graph):
                raise InvalidEconomyError(f"cannot balance an invalid economy graph: {broken_rule(graph)}")
            gate_shares(graph, [e.weight for e in graph.edges])  # raises if a gate cannot be normalized
        except EconomyError as exc:
            exc.economy_index = index
            raise
    for (economy_index, pool), role in zip(observed, ("target pool", "second pool")):
        _check_pool(graphs[economy_index], pool, role)

    layout = GenomeLayout(graphs)
    # each observed pool's position in its economy's run tuples
    positions = [(index, layout.topologies[index].monitored.index(pool)) for index, pool in observed]
    m = objective.runs
    rng = random.Random(params.seed)
    run_rng = random.Random(0)  # every run reseeds it first; this call's own, so threads share none
    means = {}
    cache_hits = runs_simulated = pruned_runs = 0
    floor = -m  # abandon nothing before the first population is ranked: no sum is below it

    # a run read from a gated economy is simulated then; a gate-free one is run once per measurement
    gated = sum(bool(topology.gates) for topology in layout.topologies)
    gate_free = len(graphs) - gated

    def streams(genome: tuple, *tag) -> list:
        """Per economy i, an iterator over its m runs to observe_step, with
        seeds from derive_seed(params.seed, *tag, i, genome) if it has gates
        (a gate-free economy reads no seed, so none is derived)."""
        step = objective.observe_step
        return [
            observe_stream(
                plan, step, m, derive_seed(params.seed, *tag, i, genome) if plan.topology.gates else 0, run_rng
            )
            for i, plan in enumerate(layout.plans(genome))
        ]

    def pairs(runs: list):
        """The (observed, reference) amounts of each run, read run by run."""
        (first, x), *second = positions
        if objective.kind is ObjectiveKind.ABSOLUTE:
            return zip(map(itemgetter(x), runs[first]), repeat(objective.target_value))
        ((other, y),) = second
        if other == first:  # intra_pair: both pools from the one stream's run
            return map(itemgetter(x, y), runs[first])
        return zip(map(itemgetter(x), runs[first]), map(itemgetter(y), runs[other]))

    def mean(genome: tuple) -> float:
        """The genome's mean proportion; equal tuples share the first one's.
        A genome abandoned by the race gets ABANDONED (see the module docstring)."""
        nonlocal cache_hits, runs_simulated, pruned_runs
        if genome in means:
            cache_hits += 1
            return means[genome]
        read = total = 0
        for read, total in enumerate(prop_sums(pairs(streams(genome))), 1):
            if total + (m - read) < floor:
                means[genome] = ABANDONED
                break
        else:
            means[genome] = total / m
        runs_simulated += gated * read + gate_free
        pruned_runs += gated * (m - read)
        return means[genome]

    population = [layout.declared_genome()]
    population.extend(layout.random_genome(rng) for _ in range(params.population_size - 1))
    population.sort(key=mean, reverse=True)  # keys are computed in list order

    best_means = [mean(population[0])]
    for _ in range(params.max_generations):
        if objective.alpha + best_means[-1] >= BALANCED_FITNESS:
            break
        # a candidate whose mean cannot exceed the worst parent's cannot survive
        floor = (means[population[-1]] - RACE_MARGIN) * m
        order = list(range(len(population)))
        rng.shuffle(order)
        candidates = list(population)
        for i in range(0, len(order) - 1, 2):
            candidates.append(crossover(layout, population[order[i]], population[order[i + 1]], rng))
        for _ in range(params.mutations_per_generation):
            mutate(layout, candidates, rng)
        candidates.sort(key=mean, reverse=True)
        population = candidates[: params.population_size]
        best_means.append(mean(population[0]))

    best = population[0]
    runs = [list(economy_runs) for economy_runs in streams(best, "report")]
    runs_simulated += gated * m + gate_free
    observations = []
    for (index, pool), (_, k) in zip(observed, positions):
        values = [run[k] for run in runs[index]]
        observations.append(ObservationStats(index, pool, statistics.fmean(values), statistics.pstdev(values), m))
    return BalanceReport(
        best_weights=best,
        alpha=objective.alpha,
        means=tuple(best_means),
        observations=tuple(observations),
        balanced_graphs=layout.apply(best),
        evaluations=len(means),
        cache_hits=cache_hits,
        runs=runs_simulated,
        steps=runs_simulated * objective.observe_step,
        pruned_runs=pruned_runs,
    )
