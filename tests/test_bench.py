import pytest

from flowtune.balancer import balance
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
