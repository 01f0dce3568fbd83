"""The plain result and model records: built by keyword, compared and hashed
by value, immutable, and shown as their fields."""

import pytest

from flowtune.balancer import ObservationStats
from flowtune.bench import BenchmarkResult, BenchmarkRow, BenchmarkRun, BenchmarkTask
from flowtune.generator import GenerationResult
from flowtune.model import Edge, Node, NodeConstraint, NodeKind
from flowtune.sim import RunEnsemble

#: (record type, keywords, one keyword changed, repr of the record built from the keywords)
RECORDS = [
    (
        NodeConstraint,
        dict(min_in=0, max_in=1, min_out=1, max_out=3, allowed_inputs=frozenset(),
             allowed_outputs=frozenset({NodeKind.POOL})),
        dict(max_out=2),
        "NodeConstraint(min_in=0, max_in=1, min_out=1, max_out=3, allowed_inputs=frozenset(), "
        "allowed_outputs=frozenset({<NodeKind.POOL: 'pool'>}))",
    ),
    (
        Node,
        dict(id="a", kind=NodeKind.POOL),
        dict(initial_amount=2),
        "Node(id='a', kind=<NodeKind.POOL: 'pool'>, label=None, initial_amount=0)",
    ),
    (
        Edge,
        dict(src="a", dst="b", weight=1.5),
        dict(static=True),
        "Edge(src='a', dst='b', weight=1.5, static=False)",
    ),
    (
        RunEnsemble,
        dict(graph=None, base_seed=3, traces=()),
        dict(base_seed=4),
        "RunEnsemble(graph=None, base_seed=3, traces=())",
    ),
    (
        GenerationResult,
        dict(graph=None, valid=True, generations=4, fitness=0, fitness_history=(2, 0)),
        dict(valid=False),
        "GenerationResult(graph=None, valid=True, generations=4, fitness=0, fitness_history=(2, 0))",
    ),
    (
        ObservationStats,
        dict(economy_index=0, pool="p", mean=1.5, stddev=0.5, runs=4),
        dict(stddev=0.25),
        "ObservationStats(economy_index=0, pool='p', mean=1.5, stddev=0.5, runs=4)",
    ),
    (
        BenchmarkTask,
        dict(graph_index=1, graph=None, pool="p", target_value=40, sim_length=12, report=None),
        dict(target_value=41),
        "BenchmarkTask(graph_index=1, graph=None, pool='p', target_value=40, sim_length=12, report=None)",
    ),
    (
        BenchmarkRun,
        dict(graph_index=1, alpha=0.05, balanced=True, improved=False, initially_balanced=False,
             generations=3, best_fitness=1.0),
        dict(improved=True),
        "BenchmarkRun(graph_index=1, alpha=0.05, balanced=True, improved=False, "
        "initially_balanced=False, generations=3, best_fitness=1.0)",
    ),
    (
        BenchmarkRow,
        dict(alpha=0.05, attempted=2, balanced_pct=50.0, improved_pct=100.0, initial_balanced_pct=0.0,
             median_generations=3.0),
        dict(attempted=3),
        "BenchmarkRow(alpha=0.05, attempted=2, balanced_pct=50.0, improved_pct=100.0, "
        "initial_balanced_pct=0.0, median_generations=3.0)",
    ),
    (
        BenchmarkResult,
        dict(spec=None, rows=(), runs=(), tasks=(), failures=()),
        dict(failures=({"graph": 0},)),
        "BenchmarkResult(spec=None, rows=(), runs=(), tasks=(), failures=())",
    ),
]


@pytest.mark.parametrize("cls, keywords, changed, shown", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_records_are_immutable_values(cls, keywords, changed, shown):
    record = cls(**keywords)
    assert repr(record) == shown
    assert record == cls(**keywords) and hash(record) == hash(cls(**keywords))
    other = cls(**{**keywords, **changed})
    assert other != record
    for name, value in changed.items():
        assert getattr(other, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert record == cls(**keywords)


def test_benchmark_records_write_their_fields_in_order():
    run = BenchmarkRun(1, 0.05, True, False, False, 3, 1.0)
    assert list(run.to_dict().items()) == [
        ("graph", 1), ("alpha", 0.05), ("balanced", True), ("improved", False),
        ("initially_balanced", False), ("generations", 3), ("best_fitness", 1.0),
    ]
    row = BenchmarkRow(0.05, 2, 50.0, 100.0, 0.0, 3.0)
    assert list(row.to_dict().items()) == [
        ("alpha", 0.05), ("attempted", 2), ("balanced_pct", 50.0), ("improved_pct", 100.0),
        ("initial_balanced_pct", 0.0), ("median_generations", 3.0),
    ]
