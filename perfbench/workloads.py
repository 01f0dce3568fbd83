"""The three workloads: sweep, tune and explore.

Each workload turns a seed into a fixed batch of inputs (``setup``) and
runs that batch once per round (``run_round``). The program receives only
the generated inputs. A round returns one timing per user-visible
operation, the failures its output checks found, and a digest of its
deterministic outputs, so a changed result shows even when every check
passes.

Each operation's time is kept as measured and, once the run is over,
normalised by the host's speed around it (see ``hostspeed``):
``Round.begin()`` runs the reference kernel before each operation.

``scale`` shrinks a batch: the self-test uses a tiny one, and the traced
run a share of it (``trace_share``). Each batch is sized to take about
20 s on a 2-core machine, so a 30 s run holds one round: the cost of one
generated economy, of one balance call that may stop early and of one gen
command varies so much from seed to seed that only a large batch has a
total that barely moves with the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import HostClock

#: sweep: BenchmarkSpecs of two graphs each, two per pair of node band and
#: simulation-length band, so that every seed sweeps economies of every
#: size and length: the two properties that set a task's cost. Each spec
#: is one operation of about a second, short enough for the host clock to
#: follow the host's speed.
SWEEP_NODE_BANDS = ((5, 8), (9, 12), (13, 16), (17, 20))
SWEEP_LENGTH_BANDS = ((10, 16), (17, 23), (24, 30))
SWEEP_SPECS_PER_BAND = 2
SWEEP_GRAPHS_PER_SPEC = 2
SWEEP_GENERATIONS = 3
#: Generator budget per sweep graph. About one multiset in five is not
#: wired within it; at the spec's default budget of 50000 steps each of those
#: costs 2-3 s and generation, not balancing, would dominate the sweep.
SWEEP_GENERATOR_STEPS = 5000

#: tune: cases per round; each case is one balance call of each kind.
TUNE_CASES = 40
TUNE_GENERATIONS = 10
TUNE_POPULATION = 10
TUNE_RUNS = 10

#: explore: generated node multisets per round, and the gen step budget.
#: Capped for the same reason as the sweep's; at this budget about one
#: multiset in four needs more generations or cannot be wired at all.
EXPLORE_CONFIGS = 150
EXPLORE_GEN_STEPS = 2000
EXPLORE_STEPS = (200, 400)
EXPLORE_RUNS = (10, 30)

TRACE_HEADER = b"run,step,node_id,amount"


@dataclass
class Round:
    """What one pass over a workload's batch produced."""

    clock: HostClock
    ops: list = field(default_factory=list)  # seconds per user-visible operation
    ticks: list = field(default_factory=list)  # the clock's tick before each operation
    _tick: int = 0  # the tick of the operation under way
    failed: int = 0  # operations with at least one failed check
    failures: list = field(default_factory=list)  # one message per failed check
    samples: dict = field(default_factory=dict)  # named lists of (seconds, tick), e.g. "gen"
    counts: dict = field(default_factory=dict)  # named deterministic counts
    bytes_written: int = 0
    wall_s: float = 0.0  # sum of ops as measured
    wall_norm_s: float = 0.0  # sum of ops at the reference host speed
    digest: str = ""

    def begin(self) -> None:
        """Call before timing each operation: runs the reference kernel."""
        self._tick = self.clock.tick()

    def finish_op(self, seconds: float, problems=()) -> None:
        self.ops.append(seconds)
        self.ticks.append(self._tick)
        self.failures.extend(problems)
        self.failed += bool(problems)

    def sample(self, name: str, seconds: float) -> None:
        """A named timing inside the current operation, e.g. its gen command."""
        self.samples.setdefault(name, []).append((seconds, self._tick))

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def normalised_ops(self) -> list:
        """Operation times at the reference host speed; needs the clock to
        have ticked after the last operation."""
        return [self.clock.normalise(s, t) for s, t in zip(self.ops, self.ticks)]

    def normalised_samples(self, name: str) -> list:
        return [self.clock.normalise(s, t) for s, t in self.samples.get(name, [])]


def _sized(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> list:
    """n integers spread evenly over [lo, hi], in an order drawn from rng.

    Every seed draws the same sizes, and only which size meets which
    economy or balancer seed changes, so a batch's total work varies less
    from seed to seed than with independent draws.
    """
    values = [lo + (hi - lo) * i // max(n - 1, 1) for i in range(n)]
    rng.shuffle(values)
    return values


def _static_weights(graph) -> list:
    return [(i, e.weight) for i, e in enumerate(graph.edges) if e.static]


# --- sweep ---------------------------------------------------------------------


class Sweep:
    """The paper's evaluation sweep: run_benchmark over generated graphs."""

    name = "sweep"
    trace_share = 1 / 3

    def setup(self, ft, seed: int, scale: float, workdir: Path):
        rng = random.Random(seed)
        bands = [(nodes, length) for nodes in SWEEP_NODE_BANDS for length in SWEEP_LENGTH_BANDS
                 for _ in range(SWEEP_SPECS_PER_BAND)]
        rng.shuffle(bands)
        return [
            ft.BenchmarkSpec(
                graphs=SWEEP_GRAPHS_PER_SPEC,
                node_range=nodes,
                sim_length_range=length,
                max_generations=SWEEP_GENERATIONS,
                generator_max_steps=SWEEP_GENERATOR_STEPS,
                seed=rng.randrange(2**31),
            )
            for nodes, length in bands[:_sized(len(bands), scale)]
        ]

    def run_round(self, ft, specs, out: Round) -> None:
        results = []
        for spec in specs:
            out.begin()
            started = perf_counter()
            try:
                result = ft.run_benchmark(spec)
            except Exception as exc:  # a raising sweep is a failed operation
                out.finish_op(perf_counter() - started, [f"run_benchmark raised {exc!r}"])
                continue
            elapsed = perf_counter() - started
            problems = []
            if len(result.tasks) + len(result.failures) != spec.graphs:
                problems.append("tasks and generation failures do not add up to graphs")
            for task in result.tasks:
                if not _plain(ft.is_valid)(task.graph):
                    problems.append(f"task graph {task.graph_index} of seed {spec.seed} is invalid")
            if len(result.runs) != len(result.tasks) * len(spec.alphas):
                problems.append("not one balance run per task and alpha")
            out.finish_op(elapsed, problems)
            out.count("balance_runs", len(result.runs))
            out.count("balanced", sum(run.balanced for run in result.runs))
            results += [result.to_csv(), json.dumps(result.to_dict(), sort_keys=True)]
        out.digest = _digest(results)


# --- tune ----------------------------------------------------------------------


class Tune:
    """Direct balance() calls on the bundled fixtures at alpha 0."""

    name = "tune"
    trace_share = 1 / 3

    def setup(self, ft, seed: int, scale: float, workdir: Path):
        torch = ft.load_fixture("minecraft_torch")
        mage = ft.load_fixture("mage")
        archer = ft.load_fixture("archer")
        rng = random.Random(seed)
        kinds = ft.ObjectiveKind
        n = _sized(TUNE_CASES, scale)
        torch_steps, torch_extra, targets, inter_steps, intra_steps = (
            _stratified(rng, lo, hi, n) for lo, hi in ((8, 20), (4, 16), (20, 120), (20, 40), (10, 30))
        )
        calls = []
        for case in range(n):
            calls.append(((torch,), ft.BalanceObjective(
                kinds.ABSOLUTE, "torch_pool", observe_step=torch_steps[case],
                sim_length=torch_steps[case] + torch_extra[case], runs=TUNE_RUNS, alpha=0.0,
                target_value=targets[case],
            )))
            calls.append(((mage, archer), ft.BalanceObjective(
                kinds.INTER_PAIR, "damage_pool", observe_step=inter_steps[case],
                sim_length=inter_steps[case], runs=TUNE_RUNS, alpha=0.0, second_pool="damage_pool",
            )))
            calls.append(((mage,), ft.BalanceObjective(
                kinds.INTRA_PAIR, "damage_pool", observe_step=intra_steps[case],
                sim_length=intra_steps[case], runs=TUNE_RUNS, alpha=0.0, second_pool="mana_pool",
            )))
        return [
            (graphs, objective, ft.BalanceParams(
                population_size=TUNE_POPULATION, max_generations=TUNE_GENERATIONS,
                seed=rng.randrange(2**31),
            ))
            for graphs, objective in calls
        ]

    def run_round(self, ft, calls, out: Round) -> None:
        reports = []
        for graphs, objective, params in calls:
            out.begin()
            started = perf_counter()
            try:
                report = ft.balance(list(graphs), objective, params)
            except Exception as exc:
                out.finish_op(perf_counter() - started, [f"balance raised {exc!r}"])
                continue
            elapsed = perf_counter() - started
            out.finish_op(elapsed, self._check(ft, graphs, report))
            out.sample("balance", elapsed)
            out.count("balance_runs")
            out.count("balanced", int(report.balanced))
            out.count("full_budget", int(report.terminated_by is ft.TerminationReason.TIMEOUT))
            reports.append(json.dumps(report.to_dict(), sort_keys=True))
        out.digest = _digest(reports)

    @staticmethod
    def _check(ft, graphs, report) -> list:
        problems = []
        if len(report.balanced_graphs) != len(graphs):
            problems.append("one balanced graph per input graph expected")
        for before, after in zip(graphs, report.balanced_graphs):
            if not _plain(ft.is_valid)(after):
                problems.append("balanced graph is invalid")
            if _static_weights(before) != _static_weights(after):
                problems.append("static weights changed")
        reached = report.terminated_by is ft.TerminationReason.FITNESS_REACHED
        if (report.best_fitness >= 1.0) != reached:
            problems.append("best_fitness >= 1 disagrees with terminated_by")
        if any(b < a for a, b in zip(report.history, report.history[1:])):
            problems.append("best-fitness history decreased")
        return problems


# --- explore -------------------------------------------------------------------


@dataclass(frozen=True)
class _SimJob:
    economy: Path
    steps: int
    runs: int
    seed: int


class Explore:
    """The designer loop through cli.main: gen, then sim --trace."""

    name = "explore"
    trace_share = 1.0

    def setup(self, ft, seed: int, scale: float, workdir: Path):
        rng = random.Random(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        n = _sized(EXPLORE_CONFIGS, scale)
        sizes = list(zip(_stratified(rng, *EXPLORE_STEPS, n + len(ft.FIXTURE_NAMES)),
                         _stratified(rng, *EXPLORE_RUNS, n + len(ft.FIXTURE_NAMES))))

        def sim_job(economy: Path) -> _SimJob:
            steps, runs = sizes.pop()
            return _SimJob(economy, steps, runs, rng.randrange(2**31))

        configs = []
        for i in range(n):
            counts = ft.random_node_counts(rng, 5, 20)
            doc = {
                "nodes": {kind.value: count for kind, count in counts.items()},
                "max_steps": EXPLORE_GEN_STEPS,
                "seed": rng.randrange(2**31),
            }
            path = workdir / f"config_{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            configs.append((path, sim_job(workdir / f"economy_{i}.json")))
        fixtures = []
        for name in ft.FIXTURE_NAMES:
            path = workdir / f"{name}.json"
            path.write_text(ft.fixture_text(name), encoding="utf-8")
            fixtures.append(sim_job(path))
        return configs, fixtures

    def run_round(self, ft, inputs, out: Round) -> None:
        configs, fixtures = inputs
        main = ft.cli.main
        hasher = hashlib.sha256()
        for config, job in configs:
            report = job.economy.with_name(job.economy.name + ".report.json")
            # gen also exits 2 when it fails before writing anything, so the
            # previous round's files must not be there to be read back.
            for stale in (job.economy, report):
                stale.unlink(missing_ok=True)
            out.begin()
            started = perf_counter()
            code = main(["gen", str(config), "--out", str(job.economy), "--quiet"])
            gen_s = perf_counter() - started
            out.sample("gen", gen_s)
            if code not in (0, 2):
                out.finish_op(gen_s, [f"gen exited {code} on {config.name}"])
                continue
            out.count("valid", int(code == 0))
            try:
                written = [path.read_bytes() for path in (job.economy, report)]
                graph = _plain(ft.load_economy)(written[0])
            except (OSError, ft.EconomyError) as exc:
                out.finish_op(gen_s, [f"{job.economy.name} does not reload: {exc}"])
                continue
            for data in written:
                hasher.update(data)
                out.bytes_written += len(data)
            problems = []
            if _plain(ft.is_valid)(graph) != (code == 0):
                problems.append(f"{job.economy.name}: gen exited {code} but validity disagrees")
            sim_s = self._sim(ft, main, job, graph, out, hasher, problems) if code == 0 else 0.0
            out.finish_op(gen_s + sim_s, problems)
        for job in fixtures:
            graph = _plain(ft.load_economy)(job.economy.read_bytes())
            problems = []
            out.begin()
            out.finish_op(self._sim(ft, main, job, graph, out, hasher, problems), problems)
        out.digest = hasher.hexdigest()

    @staticmethod
    def _sim(ft, main, job: _SimJob, graph, out: Round, hasher, problems: list) -> float:
        trace = job.economy.with_suffix(".csv")
        argv = ["sim", str(job.economy), "--steps", str(job.steps), "--runs", str(job.runs),
                "--seed", str(job.seed), "--trace", str(trace), "--quiet"]
        started = perf_counter()
        code = main(argv)
        elapsed = perf_counter() - started
        out.sample("sim", elapsed)
        out.count("sim_run_steps", job.steps * job.runs)
        if code != 0:
            problems.append(f"sim exited {code} on {job.economy.name}")
            return elapsed
        data = trace.read_bytes()
        trace.unlink()
        hasher.update(data)
        out.bytes_written += len(data)
        monitored = ft.monitored_node_ids(graph)
        header, _, body = data.partition(b"\n")
        if header != TRACE_HEADER:
            problems.append(f"{trace.name}: header {header!r}")
        if body.count(b"\n") != (job.steps + 1) * job.runs * len(monitored):
            problems.append(f"{trace.name}: wrong row count")
        if job.economy.stem == "minecraft_torch":
            at_16 = [row for row in body.split(b"\n") if row.split(b",")[1:3] == [b"16", b"torch_pool"]]
            if len(at_16) != job.runs or any(not row.endswith(b",60") for row in at_16):
                problems.append("torch_pool does not read 60 at step 16")
        return elapsed


def _plain(fn):
    """The untraced function behind a tracing wrapper, so checks are not counted."""
    return getattr(fn, "__wrapped__", fn)


def _digest(parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()


WORKLOADS = {w.name: w for w in (Sweep(), Tune(), Explore())}


def percentile_tail(values) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). With ten samples or fewer
    no such percentile exists and the maximum is returned as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def median(values) -> float:
    return statistics.median(values) if values else 0.0
