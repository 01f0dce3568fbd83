"""Benchmark sweep: generate economies, balance each, report per alpha.

Every generated economy gets one task (random observable node, random
target value, random simulation length) and is balanced once, at the
smallest alpha. Alpha only decides when a search stops, so each alpha's
run is a prefix of that one search (BalanceReport.at_alpha), and the
per-alpha aggregate rows are directly comparable.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

from .balancer import BalanceObjective, BalanceParams, BalanceReport, ObjectiveKind, balance
from .generator import GeneratorConfig, generate, random_node_counts
from .model import EconomyGraph, NodeKind
from .sim import monitored_node_ids
from .util import check_number, derive_seed


@dataclass(frozen=True)
class BenchmarkSpec:
    graphs: int = 30
    node_range: tuple = (5, 20)
    target_range: tuple = (20, 100)
    sim_length_range: tuple = (10, 30)
    alphas: tuple = (0.05, 0.01, 0.0)
    population: int = 20
    max_generations: int = 200
    runs: int = 10
    generator_population: int = 10
    generator_max_steps: int = 50000
    remove_probability: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("node_range", "target_range", "sim_length_range"):
            try:
                lo, hi = getattr(self, name)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a [low, high] pair") from None
            check_number(f"{name} low", lo, integer=True)
            check_number(f"{name} high", hi, integer=True)
            if lo > hi:
                raise ValueError(f"{name} is empty: [{lo}, {hi}]")
            object.__setattr__(self, name, (lo, hi))
        if self.node_range[0] < 2:
            raise ValueError("node_range low must be >= 2: an economy needs two nodes")
        check_number("graphs", self.graphs, integer=True, minimum=0)
        check_number("seed", self.seed, integer=True)
        if not isinstance(self.alphas, (list, tuple)) or not self.alphas:
            raise ValueError("alphas must be a nonempty list")
        # The configs built per task check the remaining fields; build one
        # of each now so that a bad spec fails before any generation.
        self.generator_config({NodeKind.SOURCE: 1, NodeKind.POOL: 1}, 0)
        self.balance_params(0)
        for alpha in self.alphas:
            self.objective("pool", self.target_range[0], self.sim_length_range[0], alpha)
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))

    def generator_config(self, counts: dict, seed: int) -> GeneratorConfig:
        return GeneratorConfig(
            counts,
            population_size=self.generator_population,
            max_steps=self.generator_max_steps,
            remove_probability=self.remove_probability,
            seed=seed,
        )

    def balance_params(self, seed: int) -> BalanceParams:
        return BalanceParams(
            population_size=self.population, max_generations=self.max_generations, seed=seed
        )

    def objective(self, pool: str, target_value: int, sim_length: int, alpha) -> BalanceObjective:
        return BalanceObjective(
            ObjectiveKind.ABSOLUTE,
            pool,
            observe_step=sim_length,
            sim_length=sim_length,
            runs=self.runs,
            alpha=alpha,
            target_value=target_value,
        )

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchmarkSpec":
        if not isinstance(doc, dict):
            raise ValueError("benchmark spec must be an object")
        extra = set(doc) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown benchmark spec keys: {sorted(extra)}")
        return cls(**doc)


@dataclass(frozen=True)
class BenchmarkTask:
    graph_index: int
    graph: EconomyGraph
    pool: str
    target_value: int
    sim_length: int
    report: BalanceReport  # the search at the spec's smallest alpha


@dataclass(frozen=True)
class BenchmarkRun:
    graph_index: int
    alpha: float
    balanced: bool
    improved: bool
    initially_balanced: bool
    generations: int
    best_fitness: float

    def to_dict(self) -> dict:
        doc = asdict(self)
        return {"graph": doc.pop("graph_index"), **doc}


@dataclass(frozen=True)
class BenchmarkRow:
    alpha: float
    attempted: int
    balanced_pct: float
    improved_pct: float
    initial_balanced_pct: float
    median_generations: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BenchmarkResult:
    spec: BenchmarkSpec
    rows: tuple
    runs: tuple
    tasks: tuple
    failures: tuple

    def to_dict(self) -> dict:
        return {
            "graphs_requested": self.spec.graphs,
            "graphs_generated": len(self.tasks),
            "rows": [row.to_dict() for row in self.rows],
            "tasks": [
                {
                    "graph": task.graph_index,
                    "pool": task.pool,
                    "target_value": task.target_value,
                    "sim_length": task.sim_length,
                }
                for task in self.tasks
            ],
            "runs": [run.to_dict() for run in self.runs],
            "failures": list(self.failures),
        }

    def to_csv(self) -> str:
        lines = ["alpha,balanced_pct,improved_pct,initial_balanced_pct,median_generations"]
        for row in self.rows:
            lines.append(
                f"{row.alpha:g},{row.balanced_pct:.1f},{row.improved_pct:.1f},"
                f"{row.initial_balanced_pct:.1f},{row.median_generations:g}"
            )
        return "\n".join(lines) + "\n"


def run_benchmark(spec: BenchmarkSpec, progress: Callable[[str], None] = None) -> BenchmarkResult:
    """Generate spec.graphs economies, balance each once, and report each alpha.

    Failures (a node multiset the generator cannot wire within budget)
    are recorded and skipped; they never abort the sweep.
    """
    note = progress if progress is not None else lambda message: None
    rng = random.Random(spec.seed)
    tasks = []
    failures = []
    for graph_index in range(spec.graphs):
        counts = random_node_counts(rng, *spec.node_range)
        target_value = rng.randint(*spec.target_range)
        sim_length = rng.randint(*spec.sim_length_range)
        result = generate(
            spec.generator_config(counts, derive_seed(spec.seed, "generate", graph_index))
        )
        if not result.valid:
            failures.append(
                {"graph": graph_index, "stage": "generate", "final_fitness": result.fitness}
            )
            note(f"graph {graph_index}: generation failed (fitness {result.fitness})")
            continue
        pool = _pick_pool(result.graph, rng)
        objective = spec.objective(pool, target_value, sim_length, min(spec.alphas))
        params = spec.balance_params(derive_seed(spec.seed, "balance", graph_index))
        report = balance(result.graph, objective, params)
        if any(b < a for a, b in zip(report.history, report.history[1:])):
            raise RuntimeError(f"best-fitness history decreased while balancing graph {graph_index}")
        tasks.append(BenchmarkTask(graph_index, result.graph, pool, target_value, sim_length, report))

    runs = []
    rows = []
    for alpha in spec.alphas if tasks else ():  # nothing attempted: leave the table empty
        alpha_runs = []
        for task in tasks:
            cut = task.report.at_alpha(alpha)
            alpha_runs.append(
                BenchmarkRun(
                    task.graph_index,
                    alpha,
                    cut.balanced,
                    cut.improved,
                    cut.initially_balanced,
                    cut.generations,
                    cut.best_fitness,
                )
            )
        runs.extend(alpha_runs)
        rows.append(_aggregate(alpha, alpha_runs))
        note(
            f"alpha={alpha:g}: balanced {rows[-1].balanced_pct:.1f}% "
            f"improved {rows[-1].improved_pct:.1f}% "
            f"initial {rows[-1].initial_balanced_pct:.1f}% "
            f"median generations {rows[-1].median_generations:g}"
        )

    return BenchmarkResult(spec, tuple(rows), tuple(runs), tuple(tasks), tuple(failures))


def _pick_pool(graph: EconomyGraph, rng: random.Random) -> str:
    observable = monitored_node_ids(graph)
    return observable[rng.randrange(len(observable))]


def _aggregate(alpha: float, alpha_runs: Sequence) -> BenchmarkRow:
    attempted = len(alpha_runs)
    pct = lambda flags: 100.0 * sum(flags) / attempted
    return BenchmarkRow(
        alpha,
        attempted,
        pct([r.balanced for r in alpha_runs]),
        pct([r.improved for r in alpha_runs]),
        pct([r.initially_balanced for r in alpha_runs]),
        float(statistics.median(r.generations for r in alpha_runs)),
    )
