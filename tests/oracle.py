"""Independent brute-force test oracles: a constraint checker, a simulator,
a step plan's data and a balancing loop without the race.

The checker and the simulator are deliberately written from scratch
against the documented connection rules and step phases, sharing no code
with flowtune.model or flowtune.sim: kinds are plain strings, degrees and
neighbors are found by scanning the raw edge list for every node.
"""

import csv
import decimal
import io
import math
import random
import statistics

# kind -> (min_in, max_in, min_out, max_out, allowed inputs, allowed outputs)
RULES = {
    "source": (0, 0, 1, 3, set(), {"pool", "random_gate"}),
    "random_gate": (1, 1, 2, 3, {"source", "converter"}, {"pool", "converter"}),
    "pool": (1, 2, 0, 3, {"source", "random_gate", "converter"}, {"converter", "drain"}),
    "converter": (1, 3, 1, 1, {"pool", "random_gate"}, {"pool", "random_gate"}),
    "drain": (1, 2, 0, 0, {"pool"}, set()),
}


def _kind_name(kind) -> str:
    name = kind.value if hasattr(kind, "value") else str(kind)
    return "pool" if name == "fixed_pool" else name


def count_node_violations(graph, node_id: str) -> int:
    kinds = {n.id: _kind_name(n.kind) for n in graph.nodes}
    rule = RULES[kinds[node_id]]
    min_in, max_in, min_out, max_out, allowed_in, allowed_out = rule

    violations = 0
    in_degree = sum(1 for e in graph.edges if e.dst == node_id)
    out_degree = sum(1 for e in graph.edges if e.src == node_id)
    if in_degree < min_in:
        violations += 1
    if in_degree > max_in:
        violations += 1
    if out_degree < min_out:
        violations += 1
    if out_degree > max_out:
        violations += 1
    for e in graph.edges:
        if e.dst == node_id and kinds[e.src] not in allowed_in:
            violations += 1
        if e.src == node_id and kinds[e.dst] not in allowed_out:
            violations += 1
    return violations


def count_violations(graph) -> int:
    return sum(count_node_violations(graph, n.id) for n in graph.nodes)


def weakly_connected(graph) -> bool:
    index = {node.id: i for i, node in enumerate(graph.nodes)}
    return _weakly_connected(len(graph.nodes), [(index[e.src], index[e.dst]) for e in graph.edges])


def max_degree_violations(graph, node_id: str) -> int:
    """Only the max_in/max_out part of the violation count."""
    kinds = {n.id: _kind_name(n.kind) for n in graph.nodes}
    _, max_in, _, max_out, _, _ = RULES[kinds[node_id]]
    violations = 0
    if sum(1 for e in graph.edges if e.dst == node_id) > max_in:
        violations += 1
    if sum(1 for e in graph.edges if e.src == node_id) > max_out:
        violations += 1
    return violations


# --- topology search ----------------------------------------------------------
#
# The generator's evolutionary loop, written from the flowtune.generator
# module docstring alone: each pair is drawn by rng.sample itself, every
# rule is read from RULES, and fitness and connectivity are recounted from
# the raw edge list.

#: Node id order of a generated economy: kind by kind, numbered within each.
_KIND_ORDER = ("source", "random_gate", "pool", "fixed_pool", "converter", "drain")


def _unmet_minimums(kinds, edges) -> int:
    in_degree = [0] * len(kinds)
    out_degree = [0] * len(kinds)
    for a, b in edges:
        out_degree[a] += 1
        in_degree[b] += 1
    unmet = 0
    for kind, d_in, d_out in zip(kinds, in_degree, out_degree):
        min_in, _, min_out, _, _, _ = RULES[kind]
        unmet += (d_in < min_in) + (d_out < min_out)
    return unmet


def _weakly_connected(count: int, edges) -> bool:
    reached = {0}
    grew = True
    while grew:
        grew = False
        for a, b in edges:
            if (a in reached) != (b in reached):
                reached.update((a, b))
                grew = True
    return len(reached) == count


def try_add(kinds, edges, a, b) -> bool:
    """Append the edge a->b to ``edges`` if every rule allows it, and say whether
    it did; ``kinds`` are kind names by node index. No kind may feed its own kind,
    so a self-loop is refused with the rest."""
    _, max_in, _, _, allowed_in, _ = RULES[kinds[b]]
    _, _, _, max_out, _, allowed_out = RULES[kinds[a]]
    if (a, b) in edges or kinds[b] not in allowed_out or kinds[a] not in allowed_in:
        return False
    if sum(1 for e in edges if e[0] == a) >= max_out or sum(1 for e in edges if e[1] == b) >= max_in:
        return False
    edges.append((a, b))
    return True


def reference_generate(counts, population: int, max_steps: int, remove_probability: float, seed: int):
    """(valid, generations, fitness, fitness_history, edges) of one search.

    ``counts`` maps node kinds (or their names) to counts; ``edges`` are
    (src id, dst id) pairs in insertion order, of the first valid
    individual or else of the best one seen.
    """
    counts = {getattr(kind, "value", kind): count for kind, count in counts.items()}
    ids, kinds = [], []
    for kind in _KIND_ORDER:
        for i in range(counts.get(kind, 0)):
            ids.append(f"{kind}_{i}")
            kinds.append("pool" if kind == "fixed_pool" else kind)
    n = len(ids)
    rng = random.Random(seed)
    individuals = [[] for _ in range(population)]
    best, best_unmet = [], _unmet_minimums(kinds, [])
    history = [best_unmet]
    for generation in range(1, max_steps + 1):
        for edges in individuals:
            try_add(kinds, edges, *rng.sample(range(n), 2))
        if rng.random() < remove_probability:
            edges = individuals[rng.randrange(population)]
            if edges:
                del edges[rng.randrange(len(edges))]
        unmet = [_unmet_minimums(kinds, edges) for edges in individuals]
        history.append(min(unmet))
        if min(unmet) < best_unmet:
            best, best_unmet = list(individuals[unmet.index(min(unmet))]), min(unmet)
        if min(unmet) == 0:
            for edges, missing in zip(individuals, unmet):
                if missing == 0 and _weakly_connected(n, edges):
                    return True, generation, 0, tuple(history), [(ids[a], ids[b]) for a, b in edges]
    return False, max_steps, best_unmet, tuple(history), [(ids[a], ids[b]) for a, b in best]


# --- step phases --------------------------------------------------------------
#
# A second simulator, written from the flowtune.sim module docstring alone:
# plain dicts of amounts, kinds as strings, and every neighbor found by
# scanning the raw edge list. It assumes a valid economy.

_POOL_KINDS = ("pool", "fixed_pool")


def simulate_amounts(graph, n: int, seed: int) -> list:
    """Amounts of every pool, fixed pool and drain after steps 0..n of run ``seed``."""
    kinds = {node.id: getattr(node.kind, "value", node.kind) for node in graph.nodes}
    edges = [(e.src, e.dst, e.weight) for e in graph.edges]
    rng = random.Random(seed)

    def outgoing(node_id):
        return [(dst, w) for src, dst, w in edges if src == node_id]

    caps = {}
    for node_id, kind in kinds.items():
        if kind == "fixed_pool" and outgoing(node_id):
            caps[node_id] = max(w for _, w in outgoing(node_id))

    amounts = {}
    for node in graph.nodes:
        if kinds[node.id] in _POOL_KINDS:
            amounts[node.id] = min(node.initial_amount, caps.get(node.id, node.initial_amount))
        elif kinds[node.id] == "drain":
            amounts[node.id] = 0
    history = [dict(amounts)]

    for _ in range(n):
        staged = {}

        def deliver(src, dst, amount):
            if kinds[dst] == "random_gate":
                choices = outgoing(dst)
                total = 0
                for _, w in choices:
                    total += w
                u = rng.random()
                running = 0.0
                for i, (target, w) in enumerate(choices):
                    running += w / total
                    if u < (1.0 if i == len(choices) - 1 else running):
                        break
                deliver(dst, target, amount)
            elif kinds[dst] == "converter":
                staged[(src, dst)] = staged.get((src, dst), 0) + amount
            else:
                amounts[dst] += amount

        for source in sorted(i for i, k in kinds.items() if k == "source"):
            for dst, w in outgoing(source):
                deliver(source, dst, w)

        converters = sorted(i for i, k in kinds.items() if k == "converter")
        fired = set()
        progress = True
        while progress:
            progress = False
            for conv in converters:
                if conv in fired:
                    continue
                inputs = [(src, w) for src, dst, w in edges if dst == conv]
                satisfied = True
                for src, w in inputs:
                    if kinds[src] in _POOL_KINDS:
                        satisfied = satisfied and amounts[src] >= w
                    else:
                        satisfied = satisfied and staged.get((src, conv), 0) > 0
                if not satisfied:
                    continue
                for src, w in inputs:
                    if kinds[src] in _POOL_KINDS:
                        amounts[src] -= w
                    else:
                        del staged[(src, conv)]
                fired.add(conv)
                progress = True
                (dst, w), = outgoing(conv)
                deliver(conv, dst, w)

        for src, dst, w in edges:
            if kinds[src] in _POOL_KINDS and kinds[dst] == "drain" and amounts[src] >= w:
                amounts[src] -= w
                amounts[dst] += w

        for pool, cap in caps.items():
            amounts[pool] = min(amounts[pool], cap)

        history.append(dict(amounts))
    return history


def pstdev(amounts) -> float:
    """The population standard deviation of whole amounts, written from the
    flowtune.util.pstdev docstring alone: the root of their variance, taken
    in decimal at 80 digits from the exact sums, then rounded to a float."""
    n = len(amounts)
    with decimal.localcontext(decimal.Context(prec=80)):
        squares = decimal.Decimal(n * sum(a * a for a in amounts) - sum(amounts) ** 2)
        return float((squares / (n * n)).sqrt())


def plan_params(graph) -> tuple:
    """(params, initial) of the graph's step plan, written from the
    flowtune.sim.topology_of docstring alone: the whole amount of each edge
    not leaving a gate, in edge order; per gate, in node order, the running
    share sums but the last, each share a weight divided by float() of the
    gate's left-to-right total; the cap of each fixed pool with outgoing
    edges, in node order. initial holds the pools' amounts (fixed pools
    clamped to their caps), then the drains' zeros, each in node order. A
    total that is not a finite positive number raises ValueError with the
    message of flowtune.model.GateNormalizationError."""
    kinds = {node.id: getattr(node.kind, "value", node.kind) for node in graph.nodes}
    params = [int(e.weight) for e in graph.edges if kinds[e.src] != "random_gate"]
    caps = {}
    for node in graph.nodes:
        weights = [e.weight for e in graph.edges if e.src == node.id]
        if kinds[node.id] == "fixed_pool" and weights:
            caps[node.id] = max(int(w) for w in weights)
        if kinds[node.id] != "random_gate":
            continue
        total = 0
        for w in weights:
            total += w
        try:
            finite = math.isfinite(total)
        except OverflowError:  # an int too large for a float
            finite = False
        if not (finite and total > 0):
            raise ValueError(f"gate {node.id!r}: outgoing weights do not sum to a finite positive number")
        running = 0.0
        for w in weights[:-1]:
            running += w / float(total)
            params.append(running)
    initial = [min(node.initial_amount, caps.get(node.id, node.initial_amount))
               for node in graph.nodes if kinds[node.id] in _POOL_KINDS]
    initial += [0 for node in graph.nodes if kinds[node.id] == "drain"]
    return tuple(params) + tuple(caps.values()), tuple(initial)


def back_feeders(graph) -> set:
    """Ids of the converters whose firing can newly satisfy a converter that
    comes before them in id order: what they deliver, routed as the simulator
    routes it, lands in a pool that converter consumes from or is staged at it."""
    kinds = {node.id: _kind_name(node.kind) for node in graph.nodes}

    def satisfied_by(dst):
        """The converters a delivery into dst can newly satisfy."""
        if kinds[dst] == "random_gate":
            return {c for e in graph.edges if e.src == dst for c in satisfied_by(e.dst)}
        if kinds[dst] == "converter":
            return {dst}
        return {e.dst for e in graph.edges if e.src == dst and kinds[e.dst] == "converter"}

    return {
        e.src for e in graph.edges
        if kinds[e.src] == "converter" and any(c < e.src for c in satisfied_by(e.dst))
    }


# --- trace table --------------------------------------------------------------


def trace_csv(ensemble) -> str:
    """The run,step,node_id,amount table of an ensemble, written from the
    README's layout alone: every row's amount is read through
    RunEnsemble.observe, for every pool, fixed pool and drain by id, and
    every row is written by the csv module's default (QUOTE_MINIMAL) writer,
    its CR LF line end replaced by LF."""
    node_ids = sorted(
        node.id for node in ensemble.graph.nodes if getattr(node.kind, "value", node.kind) in _POOL_KINDS + ("drain",)
    )
    steps = range(len(ensemble.traces[0].snapshots))
    column = {(t, node_id): ensemble.observe(node_id, t) for t in steps for node_id in node_ids}
    lines = ["run,step,node_id,amount"]
    for run in range(len(ensemble.traces)):
        for t in steps:
            for node_id in node_ids:
                row = io.StringIO()
                csv.writer(row).writerow([run, t, node_id, column[t, node_id][run]])
                lines.append(row.getvalue().removesuffix("\r\n"))
    return "\n".join(lines) + "\n"


# --- balancing ----------------------------------------------------------------
#
# The balancing loop, written from the flowtune.balancer docstrings without
# the race: every candidate's runs are all simulated, on the graphs its
# weights write (flowtune.sim.simulate_ensemble of GenomeLayout.apply), and
# ranked by the plain mean proportion. Its genome operators are its own,
# drawn with random.Random's randint, random, randrange and shuffle; it
# shares the seed derivation with flowtune.balancer.


def _clamp(value, probability):
    """A gene's floor: a value <= 0 becomes 0.01 (probability) or 1 (amount)."""
    return value if value > 0 else 0.01 if probability else 1


def random_genome(layout, rng):
    """A random genome: each amount gene in 1..5, each probability gene in (0, 1]."""
    return tuple(
        gene.declared if gene.static else 1.0 - rng.random() if gene.probability else rng.randint(1, 5)
        for gene in layout.genes
    )


def crossover(layout, parent_k, parent_l, rng):
    """Per non-static gene, rng.randrange(4) picks either parent's value, their sum or their difference."""
    values = []
    for gene, wk, wl in zip(layout.genes, parent_k, parent_l, strict=True):
        if gene.static:
            values.append(gene.declared)
        else:
            values.append(_clamp((wk, wl, wk + wl, wk - wl)[rng.randrange(4)], gene.probability))
    return tuple(values)


def mutate(layout, population, rng):
    """Append a copy of a random individual with one random non-static gene
    moved up or down by a random step (a step of 1..3, or one in (0, 0.25])."""
    target = population[rng.randrange(len(population))]
    mutable = [i for i, gene in enumerate(layout.genes) if not gene.static]
    if not mutable:
        return
    index = mutable[rng.randrange(len(mutable))]
    probability = layout.genes[index].probability
    delta = 0.25 * (1.0 - rng.random()) if probability else rng.randint(1, 3)
    value = target[index] + delta if rng.random() < 0.5 else target[index] - delta
    population.append(target[:index] + (_clamp(value, probability),) + target[index + 1:])


def reference_balance(graphs, objective, params):
    """The BalanceReport balance gives for these arguments, with its work
    counters at 0 (they are not compared)."""
    from flowtune.balancer import BalanceReport, GenomeLayout, ObservationStats, prop
    from flowtune.sim import simulate_ensemble
    from flowtune.util import derive_seed

    layout = GenomeLayout(graphs)
    kind = getattr(objective.kind, "value", objective.kind)
    observed = [(0, objective.pool)]
    if kind != "absolute":
        observed.append((1 if kind == "inter_pair" else 0, objective.second_pool))
    step, m = objective.observe_step, objective.runs

    def values(genome, *tag):
        """Per observed pool, its amount at step in each run."""
        ensembles = {}
        for index, graph in enumerate(layout.apply(genome)):
            gated = any(getattr(node.kind, "value", node.kind) == "random_gate" for node in graph.nodes)
            seed = derive_seed(params.seed, *tag, index, genome) if gated else 0
            ensembles[index] = simulate_ensemble(graph, step, m, seed)
        return [ensembles[index].observe(pool, step) for index, pool in observed]

    means = {}

    def mean(genome):
        if genome not in means:
            amounts = values(genome)
            references = amounts[1] if kind != "absolute" else [objective.target_value] * m
            total = 0
            for x, y in zip(amounts[0], references):
                total += prop(x, y)  # left to right, as the module docstring requires
            means[genome] = total / m
        return means[genome]

    rng = random.Random(params.seed)
    population = [layout.declared_genome()]
    population += [random_genome(layout, rng) for _ in range(params.population_size - 1)]
    population.sort(key=mean, reverse=True)
    best = [mean(population[0])]
    for _ in range(params.max_generations):
        if objective.alpha + best[-1] >= 1.0:
            break
        order = list(range(len(population)))
        rng.shuffle(order)
        candidates = list(population)
        for i in range(0, len(order) - 1, 2):
            candidates.append(crossover(layout, population[order[i]], population[order[i + 1]], rng))
        for _ in range(params.mutations_per_generation):
            mutate(layout, candidates, rng)
        candidates.sort(key=mean, reverse=True)
        population = candidates[:params.population_size]
        best.append(mean(population[0]))

    observations = tuple(
        ObservationStats(index, pool, statistics.fmean(amounts), pstdev(amounts), len(amounts))
        for (index, pool), amounts in zip(observed, values(population[0], "report"))
    )
    return BalanceReport(
        best_weights=population[0], alpha=objective.alpha, means=tuple(best), observations=observations,
        balanced_graphs=layout.apply(population[0]), evaluations=0, cache_hits=0, runs=0, steps=0, pruned_runs=0,
    )
