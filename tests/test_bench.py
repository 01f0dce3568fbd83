import pytest

import flowtune.bench
from flowtune.balancer import BalanceObjective, BalanceParams, ObjectiveKind, balance
from flowtune.bench import BenchmarkSpec, run_benchmark
from flowtune.util import derive_seed


@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_runs_equal_independent_balance_calls_per_alpha(seed):
    spec = BenchmarkSpec(
        graphs=3,
        node_range=(5, 8),
        alphas=(0.05, 0.01, 0.0),
        population=10,
        max_generations=30,
        runs=5,
        generator_max_steps=5000,
        seed=seed,
    )
    result = run_benchmark(spec)
    tasks = {task.graph_index: task for task in result.tasks}
    assert len(result.runs) == len(tasks) * len(spec.alphas)
    for run in result.runs:
        task = tasks[run.graph_index]
        objective = spec.objective(task.pool, task.target_value, task.sim_length, run.alpha)
        params = spec.balance_params(derive_seed(spec.seed, "balance", task.graph_index))
        alone = balance(task.graph, objective, params)
        assert (run.balanced, run.improved, run.initially_balanced, run.generations, run.best_fitness) == (
            alone.balanced,
            alone.improved,
            alone.initially_balanced,
            alone.generations,
            alone.best_fitness,
        )
    # the cut must matter: some task stops earlier at a larger alpha
    by_task = {}
    for run in result.runs:
        by_task.setdefault(run.graph_index, set()).add(run.generations)
    assert any(len(generations) > 1 for generations in by_task.values())


#: The work of test_work_counters_match_the_pinned_sums: each BalanceReport
#: counter summed over its searches, and the generator's generations.
PINNED_WORK = {
    "evaluations": 1022, "cache_hits": 1858, "runs": 2392, "steps": 63008, "pruned_runs": 1515, "generations": 793,
}


def test_work_counters_match_the_pinned_sums(minecraft, mage, archer, monkeypatch):
    """The work a small sweep and four balance calls on the bundled fixtures
    do, pinned beside the output pins: their bytes can stay the same while
    the work changes. A change that changes the work updates PINNED_WORK and
    gives the old and new numbers in its CHANGES.md entry."""
    generations = []
    real = flowtune.bench.generate
    monkeypatch.setattr(flowtune.bench, "generate", lambda config: generations.append(real(config)) or generations[-1])
    spec = BenchmarkSpec(
        graphs=4, node_range=(5, 10), population=10, max_generations=40, runs=5, generator_max_steps=5000, seed=2,
    )
    reports = [task.report for task in run_benchmark(spec).tasks]
    kind = ObjectiveKind
    for graphs, objective in [
        ([minecraft], BalanceObjective(kind.ABSOLUTE, "torch_pool", 16, 16, runs=5, target_value=60)),
        ([mage, archer], BalanceObjective(kind.INTER_PAIR, "damage_pool", 20, 20, runs=5, second_pool="damage_pool")),
        ([mage], BalanceObjective(kind.INTRA_PAIR, "damage_pool", 20, 20, runs=5, second_pool="mana_pool")),
        ([archer], BalanceObjective(kind.ABSOLUTE, "damage_pool", 30, 30, runs=5, target_value=40)),
    ]:
        reports.append(balance(graphs, objective, BalanceParams(population_size=8, max_generations=30, seed=1)))
    work = {name: sum(getattr(report, name) for report in reports) for name in PINNED_WORK if name != "generations"}
    work["generations"] = sum(result.generations for result in generations)
    assert work == PINNED_WORK


@pytest.mark.parametrize("make, message", [
    (lambda: BenchmarkSpec(node_range=(9, 5)), r"^node_range is empty: \[9, 5\]$"),
    (lambda: BenchmarkSpec.from_dict([]), "^benchmark spec must be an object$"),
], ids=["empty-node-range", "spec-not-an-object"])
def test_malformed_specs_are_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_a_negative_seed_is_refused():
    # random.Random(-s) draws what random.Random(s) draws: seed -5 would sweep as seed 5 does
    for seed in (-1, -5):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            BenchmarkSpec(seed=seed)
