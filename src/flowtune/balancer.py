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
and are normalized per gate when a step kernel reads them or when they
are written into a graph; all other genes are positive integers ("amount
genes"). The genetic operators draw straight through getrandbits, as
random.Random's randrange, randint and shuffle draw on Python 3.10-3.13.

balance checks each input economy once per call, through its topology
(sim.checked_topology), then measures a genome by running, per economy, its
slice of the genome on that topology to the observed step, building no
graph: the observe kernel scales the slice and turns it into its own data
(flowtune.kernel) before it yields the runs one by one, each reseeding a
generator the balance call makes for itself, so calls in concurrent
threads do not disturb each other. The report's observations are that
measurement of the best genome under seeds of their own; the balanced
graphs carry the measured weights, so simulating them reproduces it.
sim_length only bounds observe_step. A gate-free economy draws nothing, so
its one run, simulated and read once per measurement, is every seed's run;
a search of gate-free economies adds its one proportion m times.

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

After each truncation the cut candidates' means are dropped, so the cache
does not grow with the generations. A genome met again after its mean was
dropped is measured again, on the same seeds: it gets its old mean or is
abandoned. Either way it cannot survive: it was cut once, so its mean is
at most c, and the stable sort keeps it behind every parent. Equal genomes
get the same seeds only with the same repr (derive_seed), and a real gene
holding a whole number may be held as an int in one and as a float in the
other, so such a genome's mean is kept to the end of the search: an equal
genome met later gets it, as it would have without the drop.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Sequence, Union

from .model import EconomyError, EconomyGraph, NodeKind, gate_shares
from .sim import checked_topology, observe_stream, topology_of
from .util import check_number, derive_seed, pstdev

#: A genome reaching this fitness is balanced and stops the search.
BALANCED_FITNESS = 1.0

#: The mean cached for a genome abandoned by the race: below every real mean
#: (a mean proportion is >= 0), so such a genome never becomes a parent.
ABANDONED = -1.0

#: How far below the worst parent's mean a candidate's best possible mean
#: must fall to be abandoned; float rounding in the sum is far smaller.
RACE_MARGIN = 1e-9

#: The largest product of population_size and genes (edges, over all
#: economies) a balance call accepts; a larger one is refused before any
#: genome is drawn. By tracemalloc, a drawn population holds about 16 bytes
#: per gene per genome on gate ladders (100-300 gates, population 42; a third
#: of their genes are reals) and 32 where every gene is a real (32 MB at the
#: cap). The means it caches are those of the parents and of one
#: generation's candidates (see the module docstring), so they do not grow
#: with the generations.
MAX_POPULATION_GENES = 1_000_000

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

    Lies in [0, 1], is symmetric bit for bit (balance may pass its two
    amounts in either order), and equals 1 exactly when the
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
    The proportions are added left to right, as balance's race adds them.
    """
    if len(observed) != len(reference):
        raise ValueError("observations and references must pair up run by run")
    total = 0
    for x, y in zip(observed, reference):
        total += prop(x, y)
    return alpha + total / len(observed)


def _below(bits, n: int) -> int:
    """random.Random's randrange(n), n > 0, as it draws from bits, its getrandbits."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


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
        # (index, probability) per non-static gene: the genes the operators draw for
        self.mutable = tuple((i, g.probability) for i, g in enumerate(genes) if not g.static)
        self._declared = tuple(g.declared for g in genes)

    def declared_genome(self) -> tuple:
        return self._declared

    def random_genome(self, rng: random.Random) -> tuple:
        values = list(self._declared)
        for i, probability in self.mutable:
            # 1.0 - random() lies in (0, 1]; 1 + _below(5) is what randint(1, 5) draws
            values[i] = 1.0 - rng.random() if probability else 1 + _below(rng.getrandbits, 5)
        return tuple(values)

    def apply(self, genome: tuple) -> tuple:
        """Write the genome into fresh graphs, gate shares normalized."""
        return tuple(
            graph.with_weights(gate_shares(graph, genome[start:end]))
            for (start, end), graph in zip(self.spans, self.graphs)
        )


def clamp_positive(value: float, probability: bool) -> float:
    """Gene floor: results <= 0 become 1 (amounts) or 0.01 (probabilities)."""
    if value > 0:
        return value
    return 0.01 if probability else 1


def crossover(layout: GenomeLayout, parent_k: tuple, parent_l: tuple, rng: random.Random) -> tuple:
    """Child from two parents: per gene keep either value, their sum, or difference.
    Parents whose length differs from the layout's raise ValueError."""
    if not len(parent_k) == len(parent_l) == len(layout.genes):
        raise ValueError("parents must hold one weight per gene of the layout")
    values = list(layout.declared_genome())
    bits = rng.getrandbits
    for i, probability in layout.mutable:
        op = bits(3)  # rng.randrange(4), drawn as randrange draws it
        while op >= 4:
            op = bits(3)
        wk, wl = parent_k[i], parent_l[i]
        if op == 0:
            v = wk
        elif op == 1:
            v = wl
        elif op == 2:
            v = wk + wl
        else:
            v = wk - wl
        values[i] = v if v > 0 else clamp_positive(v, probability)
    return tuple(values)


def mutate(layout: GenomeLayout, population: list, rng: random.Random) -> None:
    """Nudge one random non-static gene of one random individual.

    The mutated vector is appended as a new individual; the original is
    kept so selection can always fall back on it (this keeps the best
    fitness of a population monotone under truncation selection). An
    empty population raises ValueError.
    """
    if not population:  # randrange(0) raises; _below(0) would draw forever
        raise ValueError("mutate needs a population to draw from")
    target = population[_below(rng.getrandbits, len(population))]  # rng.randrange(len(population))
    if not layout.mutable:
        return
    index, probability = layout.mutable[_below(rng.getrandbits, len(layout.mutable))]
    if probability:
        delta = PROBABILITY_DELTA_MAX * (1.0 - rng.random())  # (0, max]
    else:
        delta = 1 + _below(rng.getrandbits, AMOUNT_DELTA_MAX)  # rng.randint(1, AMOUNT_DELTA_MAX)
    if rng.random() < 0.5:
        value = target[index] + delta
    else:
        value = target[index] - delta
    population.append((*target[:index], clamp_positive(value, probability), *target[index + 1:]))


# --- the balancing loop --------------------------------------------------------


class ObservationStats(NamedTuple):
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
    fitness measurements (a genome met again after its mean was dropped is
    measured again), cache_hits the fitness lookups answered without one,
    runs the kernel runs simulated (a gate-free economy is run once per
    measurement), steps their steps, and pruned_runs the runs of gated
    economies that the race skipped.
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
    if pool not in topology_of(graph).monitored:
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
            checked_topology(graph)
        except EconomyError as exc:
            exc.economy_index = index
            raise
    for (economy_index, pool), role in zip(observed, ("target pool", "second pool")):
        _check_pool(graphs[economy_index], pool, role)

    layout = GenomeLayout(graphs)
    if params.population_size * len(layout.genes) > MAX_POPULATION_GENES:
        raise ValueError(f"population_size x genes exceeds the cap of {MAX_POPULATION_GENES}")
    # each observed pool's position in its economy's run tuples
    positions = [(index, layout.topologies[index].monitored.index(pool)) for index, pool in observed]
    reals = [i for i, probability in layout.mutable if probability]  # may hold a whole number as int or float
    m = objective.runs
    rng = random.Random(params.seed)
    run_rng = random.Random(0)  # every run reseeds it first; this call's own, so threads share none
    means = {}
    evaluations = cache_hits = runs_simulated = pruned_runs = 0
    floor = -m  # abandon nothing before the first population is ranked: no sum is below it

    # a run read from a gated economy is simulated then; a gate-free one is run once per measurement
    gated = sum(bool(topology.gates) for topology in layout.topologies)
    gate_free = len(graphs) - gated
    (first, x), *second = positions
    other, y = second[0] if second else (None, None)
    target = objective.target_value
    # a gated search reads once an amount no run changes (a target, or a gate-free economy's),
    # and walks the gated economy's runs for the other (prop is symmetric)
    sides = ((first, x), (other, y))
    (walked, wx), (fixed, fx) = sides if layout.topologies[first].gates else sides[::-1]

    def streams(genome: tuple, *tag) -> list:
        """Per economy i, an iterator over its m runs to observe_step, with
        seeds from derive_seed(params.seed, *tag, i, genome) if it has gates
        (a gate-free economy reads no seed, so none is derived)."""
        step = objective.observe_step
        return [
            observe_stream(
                topology, genome[start:end], step, m,
                derive_seed(params.seed, *tag, i, genome) if topology.gates else 0, run_rng,
            )
            for i, ((start, end), topology) in enumerate(zip(layout.spans, layout.topologies))
        ]

    def mean(genome: tuple) -> float:
        """The genome's mean proportion; equal tuples share the first one's while
        it is kept. A genome abandoned by the race gets ABANDONED (see the module
        docstring)."""
        nonlocal evaluations, cache_hits, runs_simulated, pruned_runs
        if genome in means:
            cache_hits += 1
            return means[genome]
        evaluations += 1
        runs = streams(genome)
        total = 0
        if not gated:  # one run per economy, so one proportion: added m times, as fitness adds it
            run = next(runs[first])
            p = prop(run[x], target if other is None else (run if other == first else next(runs[other]))[y])
            for read in range(1, m + 1):
                total += p
                if total + (m - read) < floor:
                    break
        elif other is None or gate_free:  # the runs of one economy against an amount read once
            held = target if other is None else next(runs[fixed])[fx]
            for read, run in enumerate(runs[walked], 1):
                total += prop(run[wx], held)
                if total + (m - read) < floor:
                    break
        else:  # per run, both amounts: from one economy's run or from each one's run with that seed
            for read, both in enumerate(zip(*runs), 1):
                total += prop(both[0][x], both[-1][y])
                if total + (m - read) < floor:
                    break
        means[genome] = ABANDONED if total + (m - read) < floor else total / m  # true where the loop broke off
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
        for i in reversed(range(1, len(order))):  # rng.shuffle(order), drawn as shuffle draws
            j = _below(rng.getrandbits, i + 1)
            order[i], order[j] = order[j], order[i]
        candidates = list(population)
        for i in range(0, len(order) - 1, 2):
            candidates.append(crossover(layout, population[order[i]], population[order[i + 1]], rng))
        for _ in range(params.mutations_per_generation):
            mutate(layout, candidates, rng)
        candidates.sort(key=mean, reverse=True)
        population = candidates[: params.population_size]
        parents = set(population)
        for genome in candidates[params.population_size:]:  # drop the cut ones' means (see the module docstring)
            if genome not in parents and not any(genome[i] % 1 == 0 for i in reals):
                means.pop(genome, None)
        best_means.append(mean(population[0]))

    best = population[0]
    runs = [list(economy_runs) for economy_runs in streams(best, "report")]
    runs_simulated += gated * m + gate_free
    observations = []
    for (index, pool), (_, k) in zip(observed, positions):
        values = [run[k] for run in runs[index]]
        observations.append(ObservationStats(index, pool, statistics.fmean(values), pstdev(values), m))
    return BalanceReport(
        best_weights=best,
        alpha=objective.alpha,
        means=tuple(best_means),
        observations=tuple(observations),
        balanced_graphs=layout.apply(best),
        evaluations=evaluations,
        cache_hits=cache_hits,
        runs=runs_simulated,
        steps=runs_simulated * objective.observe_step,
        pruned_runs=pruned_runs,
    )
