import dataclasses
import hashlib
import random
import statistics
import sys
import threading
import tracemalloc
from collections import Counter

import pytest

import flowtune.balancer
import flowtune.kernel
import flowtune.model
import flowtune.sim
from flowtune.generator import GeneratorConfig, generate
from flowtune.model import EconomyGraph, Edge, InvalidEconomyError, Node, NodeKind, save_economy
from flowtune.sim import monitored_node_ids, simulate_ensemble, topology_of
from flowtune.util import derive_seed, dump_json
from flowtune.balancer import (
    BALANCED_FITNESS,
    BalanceObjective,
    BalanceParams,
    GenomeLayout,
    ObjectiveKind,
    TerminationReason,
    balance,
    clamp_positive,
    crossover,
    fitness,
    mutate,
    prop,
)

import oracle
from conftest import chain_graph, count_kernel_calls, count_namespace_calls, edge_weights, observed_runs, plan_data
from test_sim import gate_ladder, oracle_economies


# --- prop ---------------------------------------------------------------------

def test_prop_tagged_examples():
    assert prop(50, 100) == pytest.approx(0.5, abs=1e-12)
    assert prop(100, 100) == pytest.approx(1.0, abs=1e-12)
    assert prop(0, 7) == pytest.approx(0.0, abs=1e-12)
    assert prop(0, 0) == pytest.approx(1.0, abs=1e-12)


def test_prop_symmetry_and_identity():
    rng = random.Random(1)
    for _ in range(300):
        a = rng.choice([0, rng.uniform(0, 200), rng.randint(0, 100)])
        b = rng.choice([0, rng.uniform(0, 200), rng.randint(0, 100)])
        assert prop(a, b) == prop(b, a)
        assert 0.0 <= prop(a, b) <= 1.0
        assert (prop(a, b) == 1.0) == (a == b)


def test_prop_rejects_negative_amounts():
    with pytest.raises(ValueError):
        prop(-1, 5)
    with pytest.raises(ValueError):
        prop(5, -0.1)


# --- fitness ------------------------------------------------------------------

def test_absolute_fitness_two_run_example():
    assert fitness([90, 110], [100, 100], alpha=0.05) == pytest.approx(21 / 22, abs=1e-12)


def test_absolute_fitness_maximum_when_on_target():
    assert fitness([100] * 3, [100] * 3, alpha=0.01) == pytest.approx(1.01, abs=1e-12)


def test_absolute_fitness_zero_when_nothing_arrives():
    assert fitness([0] * 4, [50] * 4, alpha=0.0) == pytest.approx(0.0, abs=1e-12)


def test_absolute_fitness_bounds():
    rng = random.Random(2)
    for _ in range(100):
        values = [rng.randint(0, 150) for _ in range(rng.randint(1, 8))]
        alpha = rng.choice([0.0, 0.01, 0.05, 0.3])
        value = fitness(values, [rng.randint(1, 120)] * len(values), alpha)
        assert alpha <= value <= 1 + alpha + 1e-12


def test_pairwise_fitness_equal_totals():
    assert fitness([60, 60], [60, 60], alpha=0.05) == pytest.approx(1.05, abs=1e-12)


def test_pairwise_fitness_hits_point_nine_five():
    assert fitness([55, 55], [52.25, 52.25], alpha=0.05) == pytest.approx(1.0, abs=1e-12)


def test_pairwise_fitness_floor_when_one_side_is_empty():
    assert fitness([0, 0, 0], [17, 4, 9], alpha=0.05) == pytest.approx(0.05, abs=1e-12)


def test_pairwise_fitness_rejects_mismatched_runs():
    with pytest.raises(ValueError):
        fitness([1, 2], [1], 0.0)


def test_pairwise_fitness_intra_uses_one_ensemble():
    graph = EconomyGraph(
        (Node("feed", NodeKind.SOURCE), Node("a", NodeKind.POOL), Node("b", NodeKind.POOL)),
        (Edge("feed", "a", 1), Edge("feed", "b", 1)),
    )
    graph = graph.with_weights([15, 30])
    topology = topology_of(graph)
    assert topology.monitored == ("a", "b")
    (run,) = topology.kernel(False)(edge_weights(graph), random.Random(0), range(1), 2)
    assert run == (30, 60)
    assert fitness([run[0]], [run[1]], alpha=0.0) == pytest.approx(0.5, abs=1e-12)


# --- genome operators -----------------------------------------------------------

def test_clamp_positive_examples():
    assert clamp_positive(2 - 3, probability=False) == 1
    assert clamp_positive(0, probability=False) == 1
    assert clamp_positive(-0.2, probability=True) == 0.01
    assert clamp_positive(4, probability=False) == 4


def test_crossover_gene_arithmetic():
    layout = GenomeLayout([chain_graph()])
    seen = set()
    for seed in range(200):
        child = crossover(layout, (3, 3), (2, 2), random.Random(seed))
        for value in child:
            assert value in {3, 2, 5, 1}  # keep k, keep l, sum, difference
            seen.add(value)
    assert seen == {3, 2, 5, 1}


def test_crossover_identical_parents_subtraction_clamps_to_one():
    layout = GenomeLayout([chain_graph()])
    seen = set()
    for seed in range(100):
        child = crossover(layout, (4, 4), (4, 4), random.Random(seed))
        seen.update(child)
    assert seen == {4, 8, 1}


def test_crossover_keeps_static_genes(archer):
    layout = GenomeLayout([archer])
    rng = random.Random(0)
    a = layout.random_genome(rng)
    b = layout.random_genome(rng)
    for seed in range(50):
        child = crossover(layout, a, b, random.Random(seed))
        for i, gene in enumerate(layout.genes):
            if gene.static:
                assert child[i] == gene.declared == 1


def test_crossover_rejects_misaligned_parents(archer, mage):
    layout = GenomeLayout([archer])
    a = layout.declared_genome()
    b = GenomeLayout([mage]).declared_genome()
    assert len(a) != len(b)
    with pytest.raises(ValueError):
        crossover(layout, a, b, random.Random(0))


def operator_layouts(minecraft, mage, archer) -> list:
    """Layouts of one and two economies, static genes included."""
    layouts = [GenomeLayout([g]) for g in (chain_graph(), minecraft, mage, archer, *generated_economies(4))]
    layouts.append(GenomeLayout([mage, archer]))
    assert any(gene.static for layout in layouts for gene in layout.genes)
    return layouts


def test_crossover_draws_what_randrange_drew(minecraft, mage, archer):
    for index, layout in enumerate(operator_layouts(minecraft, mage, archer)):
        for seed in range(150):
            rng, reference = random.Random(seed), random.Random(seed)
            k, l = layout.random_genome(rng), layout.random_genome(reference)
            for _ in range(4):  # children of children reach sums, differences and clamped genes
                child = crossover(layout, k, l, rng)
                assert child == oracle.crossover(layout, k, l, reference), (index, seed)
                k, l = l, child
            assert rng.getstate() == reference.getstate()  # the same draws, no more


def test_random_genome_and_mutate_draw_what_randint_random_and_randrange_drew(minecraft, mage, archer):
    static = EconomyGraph((Node("s", NodeKind.SOURCE), Node("p", NodeKind.POOL)), (Edge("s", "p", 1, static=True),))
    for index, layout in enumerate([*operator_layouts(minecraft, mage, archer), GenomeLayout([static])]):
        for seed in range(150):
            rng, reference = random.Random(seed), random.Random(seed)
            genome = layout.random_genome(rng)
            assert repr(genome) == repr(oracle.random_genome(layout, reference)), (index, seed)  # seeds read reprs
            population = [layout.declared_genome(), genome]
            expected = list(population)
            for _ in range(6):  # populations of 2 to 7: sizes that are and are not powers of two
                mutate(layout, population, rng)
                oracle.mutate(layout, expected, reference)
                assert repr(population) == repr(expected), (index, seed)
            assert rng.getstate() == reference.getstate()  # the same draws, no more


def test_mutate_appends_single_gene_variant():
    layout = GenomeLayout([chain_graph()])
    base = layout.declared_genome()
    for seed in range(80):
        population = [base]
        assert mutate(layout, population, random.Random(seed)) is None
        assert len(population) == 2
        changed = [i for i in range(2) if population[1][i] != base[i]]
        assert len(changed) <= 1
        new = population[1][changed[0]] if changed else None
        if new is not None:
            # declared weight 1 with delta in 1..3: grows to 2..4 or clamps to 1
            assert new in {1, 2, 3, 4}


def test_mutate_subtraction_clamps_to_one():
    layout = GenomeLayout([chain_graph()])
    clamped = False
    for seed in range(200):
        result = [(2, 2)]
        mutate(layout, result, random.Random(seed))
        if len(result) == 2 and 1 in result[1]:
            clamped = True  # 2 - 3 would be negative, lands on 1
    assert clamped


def test_mutate_all_static_population_is_noop():
    graph = EconomyGraph(
        (Node("s", NodeKind.SOURCE), Node("p", NodeKind.POOL)),
        (Edge("s", "p", 1, static=True),),
    )
    layout = GenomeLayout([graph])
    population = [layout.declared_genome()]
    rng = random.Random(0)
    mutate(layout, population, rng)
    assert len(population) == 1
    # the target is still drawn, so the random stream does not depend on the layout
    expected = random.Random(0)
    expected.randrange(1)
    assert rng.getstate() == expected.getstate()


def test_mutate_empty_population_raises():
    with pytest.raises(ValueError):
        mutate(GenomeLayout([chain_graph()]), [], random.Random(0))


def test_mutate_probability_genes_stay_positive(archer):
    layout = GenomeLayout([archer])
    population = [layout.declared_genome()]
    rng = random.Random(5)
    for _ in range(300):
        mutate(layout, population, rng)
        del population[:-1]  # keep mutating the newest variant
    for i, gene in enumerate(layout.genes):
        if gene.probability:
            assert population[0][i] > 0


# --- step plans per genome ------------------------------------------------------

def generated_economies(count):
    """Valid generated economies with random gates, converters and a fixed pool."""
    graphs = []
    for seed in range(count):
        counts = {
            NodeKind.SOURCE: 2, NodeKind.RANDOM_GATE: 1 + seed % 2, NodeKind.POOL: 3,
            NodeKind.FIXED_POOL: 1, NodeKind.CONVERTER: 1 + seed % 3, NodeKind.DRAIN: 1,
        }
        result = generate(GeneratorConfig(counts, max_steps=5000, seed=seed))
        assert result.valid
        graphs.append(result.graph)
    return graphs


def test_plans_observe_what_the_applied_graphs_simulate(minecraft, mage, archer):
    rng = random.Random(7)
    layouts = [GenomeLayout([g]) for g in [minecraft, mage, archer, *generated_economies(6)]]
    layouts.append(GenomeLayout([mage, archer]))
    n, m = 12, 3
    for layout in layouts:
        for _ in range(8):
            genome = layout.random_genome(rng)
            base_seed = rng.randrange(10**6)
            for (start, end), topology, graph in zip(layout.spans, layout.topologies, layout.apply(genome)):
                weights = genome[start:end]
                # the same kernel data bit for bit, gate share bounds included
                assert repr(plan_data(topology, weights)) == repr(
                    plan_data(topology_of(graph), edge_weights(graph), trace=True)
                )
                ensemble = simulate_ensemble(graph, n, m, base_seed)
                for t in range(1, n + 1):
                    observed = observed_runs(topology, weights, t, m, base_seed)
                    for node_id in monitored_node_ids(graph):
                        assert [run[node_id] for run in observed] == ensemble.observe(node_id, t)


def test_balance_checks_and_rebuilds_graphs_independently_of_generations(minecraft, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    checked = counted("is_valid", flowtune.model.is_valid)
    for module in (flowtune.model, flowtune.sim):
        monkeypatch.setattr(module, "is_valid", checked)
    monkeypatch.setattr(EconomyGraph, "with_weights", counted("with_weights", EconomyGraph.with_weights))
    unreachable = objective_for_torch(alpha=0.0, value=5000, runs=2)
    counts = []
    for generations in (1, 12):
        calls.clear()
        report = balance(
            minecraft, unreachable, BalanceParams(population_size=6, max_generations=generations, seed=1)
        )
        assert report.generations == generations
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["is_valid"] == 1 and counts[0]["with_weights"] >= 1


def test_seeds_are_derived_only_for_gated_economies(minecraft, archer, monkeypatch):
    derived = []
    real = flowtune.balancer.derive_seed
    monkeypatch.setattr(flowtune.balancer, "derive_seed", lambda *parts: derived.append(parts) or real(*parts))
    params = BalanceParams(population_size=6, max_generations=5, seed=2)
    balance(minecraft, objective_for_torch(alpha=0.0, value=50), params)
    assert derived == []  # a gate-free run reads no seed
    objective = BalanceObjective(
        ObjectiveKind.ABSOLUTE, "damage_pool", observe_step=10, sim_length=10, runs=4, target_value=30
    )
    balance(archer, objective, params)
    assert len(derived) > 0


@pytest.mark.parametrize("case", ["absolute-torch", "intra-mage", "inter-mage-archer", "absolute-gated"])
def test_report_observations_are_what_the_balanced_graphs_simulate(case, minecraft, mage, archer):
    if case == "absolute-torch":
        graphs = [minecraft]
        objective = BalanceObjective(
            ObjectiveKind.ABSOLUTE, "torch_pool", observe_step=10, sim_length=14, runs=4, target_value=50
        )
    elif case == "intra-mage":
        graphs = [mage]
        objective = BalanceObjective(
            ObjectiveKind.INTRA_PAIR, "damage_pool", observe_step=12, sim_length=20, runs=4,
            second_pool="mana_pool",
        )
    elif case == "inter-mage-archer":
        graphs = [mage, archer]
        objective = BalanceObjective(
            ObjectiveKind.INTER_PAIR, "damage_pool", observe_step=15, sim_length=15, runs=5,
            second_pool="damage_pool",
        )
    else:
        graphs = generated_economies(1)
        objective = BalanceObjective(
            ObjectiveKind.ABSOLUTE, monitored_node_ids(graphs[0])[0], observe_step=9, sim_length=12,
            runs=6, target_value=30,
        )
    seed = 4
    report = balance(graphs, objective, BalanceParams(population_size=6, max_generations=5, seed=seed))
    assert len(report.observations) == (1 if objective.kind is ObjectiveKind.ABSOLUTE else 2)
    for observation in report.observations:
        i = observation.economy_index
        ensemble = simulate_ensemble(
            report.balanced_graphs[i], objective.sim_length, objective.runs,
            derive_seed(seed, "report", i, report.best_weights),
        )
        values = ensemble.observe(observation.pool, objective.observe_step)
        assert (observation.mean, observation.stddev, observation.runs) == (
            statistics.fmean(values), oracle.pstdev(values), len(values)
        )


@pytest.mark.parametrize("case", [
    "gate-free", "gated", "gate-free-and-gated", "gated-draws-nothing",
    "gated-intra-pair", "gated-and-gate-free", "gated-and-gated",
])
def test_work_counters_match_a_count_taken_at_the_kernel(case, minecraft, mage, archer, monkeypatch):
    if case == "gate-free":
        graphs, objective = [minecraft], objective_for_torch(alpha=0.0, value=5000, runs=4)
    elif case == "gated":
        graphs = [archer]
        objective = BalanceObjective(
            ObjectiveKind.ABSOLUTE, "damage_pool", observe_step=10, sim_length=10, runs=4, target_value=300
        )
    elif case in ("gate-free-and-gated", "gated-and-gate-free", "gated-and-gated"):
        # the second archer is an equal graph of its own, so each economy's kernel is counted on its own
        graphs = {"gate-free-and-gated": [mage, archer], "gated-and-gate-free": [archer, mage],
                  "gated-and-gated": [archer, EconomyGraph(archer.nodes, archer.edges)]}[case]
        objective = BalanceObjective(
            ObjectiveKind.INTER_PAIR, "damage_pool", observe_step=15, sim_length=15, runs=5,
            second_pool="damage_pool",
        )
    elif case == "gated-intra-pair":
        graphs = [archer]
        objective = BalanceObjective(
            ObjectiveKind.INTRA_PAIR, "damage_pool", observe_step=15, sim_length=15, runs=5,
            second_pool="attack_cd_pool",
        )
    else:  # the attack converter first fires at step 20, so no genome's gate gets a batch by step 10
        slow = {("attack_cd_pool", "attack"): Edge("attack_cd_pool", "attack", 20, static=True)}
        graphs = [EconomyGraph(archer.nodes, tuple(slow.get((e.src, e.dst), e) for e in archer.edges))]
        objective = BalanceObjective(
            ObjectiveKind.ABSOLUTE, "attack_cd_pool", observe_step=10, sim_length=10, runs=4, target_value=40
        )
    params = BalanceParams(population_size=7, max_generations=9, seed=3)
    # per economy, the runs its observe kernel simulates: one range call, of the steps, each
    kernels = [topology_of(graph).kernel(False) for graph in graphs]
    simulated = [count_namespace_calls(monkeypatch, kernel, "range") for kernel in kernels]
    reseeds = [count_namespace_calls(monkeypatch, kernel, "reseed") for kernel in kernels]
    calls = count_kernel_calls(monkeypatch)
    report = balance(graphs, objective, params)
    assert report.runs == sum(map(len, simulated))
    assert report.steps == sum(t for runs in simulated for (t,) in runs)
    # one kernel call per economy for each evaluation and for the report's observation, economies in order
    assert len(calls) == len(graphs) * (report.evaluations + 1)
    pruned = 0
    for graph, runs, economy_calls in zip(graphs, simulated, (calls[i::len(graphs)] for i in range(len(graphs)))):
        # each distinct run read is simulated once: a gate-free stream, and a gated one whose first run
        # drew nothing, yields one tuple for every seed however many runs are read
        assert len(runs) == sum(distinct for *_, distinct in economy_calls)
        if topology_of(graph).gates:  # the runs asked for and not read are pruned, but from a stream of one tuple
            pruned += sum(asked - yielded for asked, yielded, _, distinct in economy_calls if distinct == yielded)
    assert report.pruned_runs == pruned
    if case == "gated-draws-nothing":  # one reseed and one run per measurement
        assert len(reseeds[0]) == len(simulated[0]) == report.runs == report.evaluations + 1
        assert report.pruned_runs == 0 and all(call[1] == objective.runs for call in calls)
    # a fitness lookup per initial vector and per candidate of each generation, plus each generation's best
    pop = params.population_size
    lookups = pop + 1 + report.generations * (pop + pop // 2 + params.mutations_per_generation + 1)
    assert report.evaluations + report.cache_hits == lookups
    assert report.cache_hits > report.generations  # not only the best's lookups
    unmeasured = dataclasses.replace(report, evaluations=0, cache_hits=0, runs=0, steps=0, pruned_runs=0)
    assert unmeasured == report and unmeasured.to_dict() == report.to_dict()
    assert not {"evaluations", "cache_hits", "runs", "steps", "pruned_runs"} & set(report.to_dict())


# --- balance ----------------------------------------------------------------

def objective_for_torch(alpha=0.01, value=60, runs=3):
    return BalanceObjective(
        ObjectiveKind.ABSOLUTE,
        "torch_pool",
        observe_step=16,
        sim_length=16,
        runs=runs,
        alpha=alpha,
        target_value=value,
    )


def test_balance_already_balanced_terminates_at_generation_zero(minecraft):
    report = balance(minecraft, objective_for_torch(), BalanceParams(seed=3))
    assert report.terminated_by is TerminationReason.FITNESS_REACHED
    assert report.generations == 0
    assert report.balanced and report.initially_balanced
    assert report.best_fitness >= BALANCED_FITNESS
    assert report.history[0] == report.best_fitness


def test_balance_reaches_moved_target(minecraft):
    objective = objective_for_torch(alpha=0.05, value=28)
    report = balance(minecraft, objective, BalanceParams(population_size=10, max_generations=200, seed=5))
    assert report.terminated_by is TerminationReason.FITNESS_REACHED
    assert report.best_fitness >= BALANCED_FITNESS
    torch = report.balanced_graphs[0]
    from flowtune.sim import simulate

    observed = simulate(torch, 16, seed=999).observe("torch_pool", 16)
    assert prop(observed, 28) >= 0.9


def test_balance_is_deterministic(minecraft):
    objective = objective_for_torch(alpha=0.05, value=40)
    params = BalanceParams(population_size=6, max_generations=30, seed=11)
    a = balance(minecraft, objective, params)
    b = balance(minecraft, objective, params)
    assert a.to_dict() == b.to_dict()


def test_balance_in_concurrent_threads_reports_what_it_reports_alone(archer):
    """Each balance call reseeds a generator of its own, so six calls started
    together in six threads, switching as often as the interpreter allows,
    equal the same calls made one after another. On one generator shared by
    the calls, a switch inside a run hands it another call's draws."""
    objective = BalanceObjective(
        ObjectiveKind.ABSOLUTE, "damage_pool", observe_step=1000, sim_length=1000, runs=10, target_value=1500
    )
    cases = [BalanceParams(population_size=6, max_generations=3, seed=seed) for seed in range(6)]
    sequential = [balance(archer, objective, params) for params in cases]
    threaded = [None] * len(cases)
    start = threading.Barrier(len(cases))

    def run(i):
        start.wait()
        threaded[i] = balance(archer, objective, cases[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential


def test_balance_history_nondecreasing_across_seeds(minecraft):
    for seed in range(6):
        objective = objective_for_torch(alpha=0.0, value=37, runs=2)
        report = balance(
            minecraft, objective, BalanceParams(population_size=6, max_generations=25, seed=seed)
        )
        assert all(b >= a for a, b in zip(report.history, report.history[1:]))


def test_balance_alpha_relaxation_only_helps(archer, mage):
    objective = BalanceObjective(
        ObjectiveKind.INTER_PAIR,
        "damage_pool",
        observe_step=30,
        sim_length=30,
        runs=10,
        alpha=0.01,
        second_pool="damage_pool",
    )
    params = BalanceParams(population_size=8, max_generations=40, seed=19)
    strict = balance([mage, archer], objective, params)
    relaxed_objective = BalanceObjective(
        ObjectiveKind.INTER_PAIR,
        "damage_pool",
        observe_step=30,
        sim_length=30,
        runs=10,
        alpha=0.05,
        second_pool="damage_pool",
    )
    relaxed = balance([mage, archer], relaxed_objective, params)
    if strict.balanced:
        assert relaxed.balanced
        assert relaxed.generations <= strict.generations
    # identical evolution up to the earlier stop: alpha only decides when to stop
    shared = min(len(strict.means), len(relaxed.means))
    assert strict.means[:shared] == relaxed.means[:shared]


def graph_27_search(alpha):
    """Graph 27 of the desk-scale sweep (graphs 30, seed 0), on a 10-generation budget."""
    counts = {
        NodeKind.SOURCE: 2,
        NodeKind.RANDOM_GATE: 5,
        NodeKind.POOL: 3,
        NodeKind.CONVERTER: 7,
        NodeKind.DRAIN: 2,
    }
    graph = generate(GeneratorConfig(counts, seed=derive_seed(0, "generate", 27))).graph
    objective = BalanceObjective(
        ObjectiveKind.ABSOLUTE,
        "drain_1",
        observe_step=10,
        sim_length=10,
        runs=10,
        alpha=alpha,
        target_value=79,
    )
    params = BalanceParams(population_size=20, max_generations=10, seed=derive_seed(0, "balance", 27))
    return balance(graph, objective, params)


def test_balance_alpha_does_not_reorder_rounding_ties():
    # Two genomes whose means differ can tie once alpha is added; ranking by
    # alpha + mean once made this search stop at generation 4 (1.0375).
    relaxed = graph_27_search(0.05)
    strict = graph_27_search(0.0)
    assert relaxed.generations == 5
    assert relaxed.best_fitness == 1.0146677215189874
    assert relaxed.means == strict.means[:6]
    assert strict.generations == 10 and not strict.balanced


def test_report_at_alpha_cuts_the_search_where_that_alpha_stops():
    strict = graph_27_search(0.0)
    relaxed = graph_27_search(0.05)
    cut = strict.at_alpha(0.05)
    for name in ("alpha", "means", "history", "best_fitness", "generations", "terminated_by"):
        assert getattr(cut, name) == getattr(relaxed, name)
    assert (cut.balanced, cut.improved, cut.initially_balanced) == (True, True, False)
    # the genome and its graphs still come from the full search
    assert cut.best_weights == strict.best_weights
    assert strict.at_alpha(0.0) == strict
    with pytest.raises(ValueError):
        relaxed.at_alpha(0.01)


def test_report_at_alpha_refuses_alphas_that_are_not_finite_numbers(minecraft):
    objective = BalanceObjective(
        ObjectiveKind.ABSOLUTE, "torch_pool", observe_step=16, sim_length=16, runs=5, target_value=60
    )
    report = balance(minecraft, objective, BalanceParams(population_size=6, max_generations=3, seed=1))
    for alpha in (float("nan"), float("inf"), True, "0.5"):
        with pytest.raises(ValueError, match="^alpha must be a finite number"):
            report.at_alpha(alpha)
    with pytest.raises(ValueError, match="^alpha -0.5 is below the search's own alpha 0.0$"):
        report.at_alpha(-0.5)


def test_balance_static_weights_survive(mage, archer):
    objective = BalanceObjective(
        ObjectiveKind.INTER_PAIR,
        "damage_pool",
        observe_step=30,
        sim_length=30,
        runs=5,
        alpha=0.05,
        second_pool="damage_pool",
    )
    report = balance([mage, archer], objective, BalanceParams(population_size=6, max_generations=30, seed=2))
    genes = list(mage.edges) + list(archer.edges)
    for value, edge in zip(report.best_weights, genes):
        if edge.static:
            assert value == edge.weight == 1
    for graph, original in zip(report.balanced_graphs, (mage, archer)):
        for new_edge, old_edge in zip(graph.edges, original.edges):
            if old_edge.static:
                assert new_edge.weight == old_edge.weight


def test_balance_objective_may_target_a_drain():
    graph = EconomyGraph(
        (
            Node("s", NodeKind.SOURCE),
            Node("p", NodeKind.POOL),
            Node("d", NodeKind.DRAIN),
        ),
        (Edge("s", "p", 2), Edge("p", "d", 2)),
    )
    objective = BalanceObjective(
        ObjectiveKind.ABSOLUTE,
        "d",
        observe_step=10,
        sim_length=10,
        runs=1,
        alpha=0.05,
        target_value=30,
    )
    report = balance(graph, objective, BalanceParams(population_size=6, max_generations=60, seed=8))
    assert report.terminated_by is TerminationReason.FITNESS_REACHED
    assert report.observations[0].pool == "d"
    # deterministic economy: the reported drain total sits within the slack
    assert prop(report.observations[0].mean, 30) >= 0.95


def test_balance_intra_pair_best_fitness_is_pinned(mage):
    # a left-to-right sum of the run proportions: the built-in sum() of
    # Python 3.12 and later rounds this mean to ...048 instead
    objective = BalanceObjective(
        ObjectiveKind.INTRA_PAIR,
        "damage_pool",
        observe_step=20,
        sim_length=20,
        runs=10,
        second_pool="mana_pool",
    )
    report = balance(mage, objective, BalanceParams(population_size=10, max_generations=10, seed=3))
    assert report.best_fitness == 0.9047619047619049


def test_balance_intra_pair_on_one_economy(mage):
    objective = BalanceObjective(
        ObjectiveKind.INTRA_PAIR,
        "damage_pool",
        observe_step=20,
        sim_length=20,
        runs=2,
        alpha=0.05,
        second_pool="mana_pool",
    )
    report = balance(mage, objective, BalanceParams(population_size=6, max_generations=20, seed=4))
    assert len(report.observations) == 2
    assert {o.pool for o in report.observations} == {"damage_pool", "mana_pool"}


def test_balance_argument_errors(minecraft, mage, archer):
    objective = objective_for_torch()
    with pytest.raises(ValueError):
        balance([minecraft, mage], objective, BalanceParams())  # absolute wants one graph
    inter = BalanceObjective(
        ObjectiveKind.INTER_PAIR, "damage_pool", observe_step=5, sim_length=5,
        second_pool="damage_pool",
    )
    with pytest.raises(ValueError):
        balance([mage], inter, BalanceParams())
    with pytest.raises(ValueError):
        balance(
            minecraft,
            BalanceObjective(
                ObjectiveKind.ABSOLUTE, "no_such_pool", observe_step=5, sim_length=5, target_value=10
            ),
            BalanceParams(),
        )
    with pytest.raises(ValueError):
        balance(
            minecraft,
            BalanceObjective(
                ObjectiveKind.ABSOLUTE, "wood_source", observe_step=5, sim_length=5, target_value=10
            ),
            BalanceParams(),
        )
    with pytest.raises(InvalidEconomyError):
        broken = EconomyGraph(
            (Node("s", NodeKind.SOURCE), Node("p", NodeKind.POOL)), ()
        )
        balance(broken, objective_for_torch(), BalanceParams())


def test_objective_validation():
    with pytest.raises(ValueError):
        BalanceObjective(ObjectiveKind.ABSOLUTE, "p", observe_step=6, sim_length=5, target_value=10)
    with pytest.raises(ValueError):
        BalanceObjective(ObjectiveKind.ABSOLUTE, "p", observe_step=1, sim_length=5)  # no value
    with pytest.raises(ValueError):
        BalanceObjective(ObjectiveKind.ABSOLUTE, "p", observe_step=1, sim_length=5, target_value=10, second_pool="q")
    with pytest.raises(ValueError):
        BalanceObjective(ObjectiveKind.INTER_PAIR, "p", observe_step=1, sim_length=5)  # no second pool
    with pytest.raises(ValueError):
        BalanceObjective(ObjectiveKind.ABSOLUTE, "p", observe_step=1, sim_length=5, target_value=10, runs=0)
    with pytest.raises(ValueError):
        BalanceObjective(ObjectiveKind.ABSOLUTE, "p", observe_step=1, sim_length=5, target_value=10, alpha=-0.1)
    with pytest.raises(ValueError):
        BalanceObjective(ObjectiveKind.ABSOLUTE, ["p"], observe_step=1, sim_length=5, target_value=10)


def test_params_validation():
    with pytest.raises(ValueError):
        BalanceParams(population_size=1)
    with pytest.raises(ValueError):
        BalanceParams(max_generations=-1)
    # random.Random(-s) draws what random.Random(s) draws: seed -3 would search as seed 3 does
    for seed in (-1, -3):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            BalanceParams(seed=seed)


# --- pinned reports -----------------------------------------------------------

def whole_gate_economy(left=1, right=3):
    """A gate whose weights are declared as whole numbers. Crossover mixes
    them with random real genes, so a search can meet an int and a float
    gene that are equal as cache keys but whose reprs seed runs differently."""
    return EconomyGraph(
        (
            Node("src", NodeKind.SOURCE),
            Node("gate", NodeKind.RANDOM_GATE),
            Node("left", NodeKind.POOL),
            Node("right", NodeKind.POOL),
        ),
        (Edge("src", "gate", 2, static=True), Edge("gate", "left", left), Edge("gate", "right", right)),
    )


def absolute_case(graph, pool, value):
    return [graph], BalanceObjective(
        ObjectiveKind.ABSOLUTE, pool, observe_step=10, sim_length=12, runs=4, target_value=value
    )


def pair_case(kind, graphs, pool, second):
    return graphs, BalanceObjective(kind, pool, observe_step=12, sim_length=12, runs=4, second_pool=second)


def pinned_balance_cases(minecraft, mage, archer):
    """(graphs, objective, seed): every objective kind on the fixtures, a
    whole-number gate and generated gated economies, at seeds 1 and 2."""
    cases = [
        absolute_case(minecraft, "torch_pool", 45),
        absolute_case(whole_gate_economy(), "left", 9),
        pair_case(ObjectiveKind.INTRA_PAIR, [mage], "damage_pool", "mana_pool"),
        pair_case(ObjectiveKind.INTRA_PAIR, [whole_gate_economy()], "left", "right"),
        pair_case(ObjectiveKind.INTER_PAIR, [mage, archer], "damage_pool", "damage_pool"),
        pair_case(ObjectiveKind.INTER_PAIR, [archer, whole_gate_economy()], "damage_pool", "right"),
    ]
    for i, graph in enumerate(generated_economies(6)):
        pools = monitored_node_ids(graph)
        if i % 2:
            cases.append(pair_case(ObjectiveKind.INTRA_PAIR, [graph], pools[0], pools[-1]))
        else:
            cases.append(absolute_case(graph, pools[i % len(pools)], 20 + i))
    seeded = [(*case, seed) for seed in (1, 2) for case in cases]
    # these searches each evaluate a genome equal to an earlier one but
    # holding a float where it held an int; the earlier one's mean stands
    seeded.append((*absolute_case(whole_gate_economy(2, 3), "left", 9), 8))
    seeded.append((*pair_case(ObjectiveKind.INTRA_PAIR, [whole_gate_economy(1, 1)], "left", "right"), 14))
    return seeded


#: SHA-256 over the report JSON and the balanced economies of every case
#: above. A change to how genomes are drawn, seeded, cached or ranked
#: must fail here.
PINNED_BALANCE_REPORTS = "2a081929e16966b715f33126cdabe406f0e65fe4e6f62ed8ca5b007b6fd366e7"


def test_balance_reports_match_pinned_digest(minecraft, mage, archer):
    digest = hashlib.sha256()
    for graphs, objective, seed in pinned_balance_cases(minecraft, mage, archer):
        report = balance(graphs, objective, BalanceParams(population_size=6, max_generations=15, seed=seed))
        digest.update(dump_json(report.to_dict()))
        for graph in report.balanced_graphs:
            digest.update(save_economy(graph))
    assert digest.hexdigest() == PINNED_BALANCE_REPORTS


def race_cases(minecraft, mage, archer):
    """(graphs, objective, seed): pinned_balance_cases, the gated archer alone
    and paired with itself, and every objective kind on gated oracle_economies."""
    cases = pinned_balance_cases(minecraft, mage, archer)
    cases.append((*absolute_case(archer, "damage_pool", 30), 3))
    cases.append((*pair_case(ObjectiveKind.INTRA_PAIR, [archer], "damage_pool", "attack_cd_pool"), 3))
    cases.append((*pair_case(ObjectiveKind.INTER_PAIR, [archer, archer], "damage_pool", "damage_pool"), 3))
    gated = [
        graph for graph in oracle_economies(45, random.Random(23))
        if any(node.kind is NodeKind.RANDOM_GATE for node in graph.nodes) and len(monitored_node_ids(graph)) > 1
    ]
    for i, graph in enumerate(gated[:8]):
        pools, others = monitored_node_ids(graph), monitored_node_ids(gated[i - 1])
        cases.append((*absolute_case(graph, pools[i % len(pools)], 12 + i), i))
        cases.append((*pair_case(ObjectiveKind.INTRA_PAIR, [graph], pools[0], pools[-1]), i))
        cases.append((*pair_case(ObjectiveKind.INTER_PAIR, [graph, gated[i - 1]], pools[-1], others[0]), i))
    return cases


def test_racing_reports_what_a_search_without_it_reports(minecraft, mage, archer):
    pruned = 0
    for graphs, objective, seed in race_cases(minecraft, mage, archer):
        params = BalanceParams(population_size=6, max_generations=15, seed=seed)
        report = balance(graphs, objective, params)
        expected = oracle.reference_balance(graphs, objective, params)
        assert report == expected and report.to_dict() == expected.to_dict(), (objective, seed)
        pruned += report.pruned_runs
    assert pruned > 0


class Abandoned(float):
    """balancer.ABANDONED's value, counting the comparisons made with it: a
    candidate the race abandons has it as its sort key."""

    compared = 0

    def __lt__(self, other):
        Abandoned.compared += 1
        return float(self) < other

    def __gt__(self, other):
        Abandoned.compared += 1
        return float(self) > other


def test_a_gate_free_mean_is_its_one_proportion_summed_run_by_run(minecraft, monkeypatch):
    # at target 70, every best torch amount of this search gives a proportion p whose 10-fold
    # left-to-right sum, over 10, is not p (as 0.1 + ... + 0.1 is 0.9999999999999999)
    monkeypatch.setattr(flowtune.balancer, "ABANDONED", Abandoned(flowtune.balancer.ABANDONED))
    monkeypatch.setattr(Abandoned, "compared", 0)
    target, m = 70, 10
    objective = BalanceObjective(
        ObjectiveKind.ABSOLUTE, "torch_pool", observe_step=16, sim_length=16, runs=m, target_value=target
    )
    topology = topology_of(minecraft)
    assert not topology.gates
    report = balance(minecraft, objective, BalanceParams(population_size=6, max_generations=12, seed=0))
    assert report.generations == 12 and Abandoned.compared > 0  # the race abandoned a candidate
    for generation, mean in enumerate(report.means):
        # the same search stopped after this generation has this generation's best genome
        prefix = balance(minecraft, objective, BalanceParams(population_size=6, max_generations=generation, seed=0))
        (run,) = observed_runs(topology, prefix.best_weights, 16, 1, 0)
        x = run["torch_pool"]
        assert mean == prefix.means[-1] == fitness([x] * m, [target] * m, 0.0), generation
        assert mean != prop(x, target), generation


def test_a_genome_equal_to_a_dropped_one_keeps_the_first_ones_mean():
    # this search meets a gate gene held as an int and, after the first was cut, as an equal float
    graphs, objective = absolute_case(whole_gate_economy(2, 3), "left", 9)
    params = BalanceParams(population_size=6, max_generations=40, seed=16)
    report = balance(graphs, objective, params)
    expected = oracle.reference_balance(graphs, objective, params)
    assert report == expected and report.to_dict() == expected.to_dict()


def test_balance_memory_does_not_grow_with_the_generations():
    graph = gate_ladder(20)
    objective = BalanceObjective(
        ObjectiveKind.ABSOLUTE, "p0", observe_step=3, sim_length=3, runs=2, target_value=10**6
    )
    balance(graph, objective, BalanceParams(population_size=6, max_generations=0, seed=1))  # compiles the kernel
    peaks = {}
    for generations in (10, 40):
        tracemalloc.start()
        try:
            report = balance(graph, objective, BalanceParams(population_size=6, max_generations=generations, seed=1))
            peaks[generations] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.generations == generations
    assert peaks[40] < 1.5 * peaks[10], peaks


def test_params_form_gives_each_evaluated_genome_the_plan_of_its_graph(minecraft, mage, archer, monkeypatch):
    streams = []  # (graphs, topology, weights): one per observe kernel call, one per economy of each genome
    real = flowtune.kernel.Topology.kernel
    graphs, genomes = (), 0

    def recording(topology, trace):
        kernel = real(topology, trace)
        return lambda weights, *args: streams.append((graphs, topology, weights)) or kernel(weights, *args)

    with monkeypatch.context() as patch:
        patch.setattr(flowtune.kernel.Topology, "kernel", recording)
        for graphs, objective, seed in race_cases(minecraft, mage, archer):
            before = len(streams)
            balance(graphs, objective, BalanceParams(population_size=6, max_generations=15, seed=seed))
            genomes += (len(streams) - before) // len(graphs)  # one kernel call per economy of each genome
    assert genomes > 1000
    for economies, topology, weights in streams:
        graph = next(graph for graph in economies if topology_of(graph) is topology)
        (applied,) = GenomeLayout([graph]).apply(weights)  # the economy's graph as balance writes it
        # repr tells every float apart, and an int from an equal float
        assert repr(plan_data(topology, weights)) == repr(
            plan_data(topology_of(applied), edge_weights(applied), trace=True)
        ), weights


@pytest.mark.parametrize("shares", [(1e308, 1e308), (10**400, 1)])
def test_params_form_refuses_gate_totals_that_are_not_finite(archer, shares):
    layout = GenomeLayout([archer])
    genome = list(layout.declared_genome())
    genome[3:5] = shares  # the crit_gate weights
    with pytest.raises(flowtune.model.GateNormalizationError) as expected:
        flowtune.model.gate_shares(archer, genome)
    (topology,) = layout.topologies
    with pytest.raises(flowtune.model.GateNormalizationError) as raised:
        next(topology.kernel(False)(tuple(genome), random.Random(0), range(1), 1))
    assert str(raised.value) == str(expected.value)
    assert str(raised.value) == "gate 'crit_gate': outgoing weights do not sum to a finite positive number"
