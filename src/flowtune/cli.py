"""Command line front end: gen, sim, balance, bench.

Exit codes: 0 success (balance: objective reached), 1 usage error,
2 domain failure (invalid economy, generation failure, balance timeout).

All file outputs are deterministic for fixed inputs and seeds; wall-time
figures are printed to the console only and never written to files.
"""

import argparse
import functools
import json
import math
import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from .balancer import (
    BalanceObjective,
    BalanceParams,
    ObjectiveKind,
    TerminationReason,
    balance,
)
from .bench import BenchmarkSpec, run_benchmark
from .generator import GeneratorConfig, generate
from .model import (
    EconomyError,
    NodeKind,
    load_economy,
    save_economy,
)
from .sim import csv_writer, monitored_node_ids, trace_runs
from .util import dump_json, pstdev

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls;
    each parse_args call fills a new namespace."""
    parser = _Parser(prog="flowtune", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--quiet", action="store_true", help="suppress console summaries")

    p = sub.add_parser("gen", help="evolve a valid economy from a node-count config")
    p.add_argument("config", help="generator config JSON")
    p.add_argument("--out", required=True, help="economy file to write")
    p.add_argument("--report", default=None, help="run report JSON (default: <out>.report.json)")
    common(p)

    p = sub.add_parser("sim", help="simulate an economy and export traces")
    p.add_argument("economy", help="economy file")
    p.add_argument("--steps", type=int, required=True, help="number of steps (>= 1)")
    p.add_argument("--runs", type=int, default=1, help="independent runs (default 1)")
    p.add_argument("--trace", default=None, help="write a run,step,node_id,amount CSV here")
    common(p)

    p = sub.add_parser("balance", help="tune non-static weights toward an objective")
    p.add_argument("economy", help="economy file")
    p.add_argument("--second", default=None, help="second economy file (inter_pair only)")
    p.add_argument("--objective", required=True, help="objective JSON")
    p.add_argument("--out", required=True, help="balanced economy file to write")
    p.add_argument("--out2", default=None, help="balanced second economy (inter_pair only)")
    p.add_argument("--report", default=None, help="balance report JSON (default: <out>.report.json)")
    common(p)

    p = sub.add_parser("bench", help="generate economies, balance each once, and report per alpha")
    p.add_argument("spec", help="benchmark spec JSON")
    p.add_argument("--out", required=True, help="aggregate CSV to write")
    p.add_argument("--json", dest="json_out", default=None, help="detailed JSON (default: <out>.json)")
    common(p)

    return parser


def _read_json(path: str) -> dict:
    try:
        text = Path(path).read_text("utf-8")
    except OSError as exc:
        raise EconomyError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise EconomyError(f"{path} is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep, or an integer too long to convert
        raise EconomyError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise EconomyError(f"{path}: top level must be an object")
    return doc


def _read_economy(path: str):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise EconomyError(f"cannot read {path}: {exc}") from exc
    try:
        return load_economy(data)
    except EconomyError as exc:
        raise EconomyError(f"{path}: {exc}") from exc


def _write(*outputs) -> None:
    """Write each output, a (path, byte chunks) pair, to a new file beside its
    path, and rename the new files onto their paths only once all are written,
    so a failure leaves every path as it was (but for a rename failing between
    two renames); a device, pipe or symlink is written in place. A new file's
    name has a fixed length, so it fits wherever its path's name does."""
    written = []  # (new file, path) of each output not yet renamed
    try:
        for path, chunks in outputs:
            if os.path.lexists(path) and (os.path.islink(path) or not os.path.isfile(path)):
                out = open(path, "wb")
            else:  # "x" makes the file as Path.write_bytes does, with mode 0o666 less the umask
                out = open(os.path.join(os.path.dirname(path), f".flowtune-{os.urandom(6).hex()}.tmp"), "xb")
                written.append((out.name, path))
            with out:
                out.writelines(chunks)
        while written:
            temp, path = written[0]
            os.replace(temp, path)
            del written[0]
    except OSError as exc:
        raise EconomyError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for temp, _ in written:
            os.unlink(temp)


def _distinct_outputs(*outputs) -> None:
    """Refuse two (option, path) outputs that name one file, before any work or write."""
    seen = {}
    for option, path in outputs:
        if path is not None:
            real = os.path.realpath(path)
            if real in seen:
                raise _UsageError(f"{seen[real]} and {option} name the same file {path}")
            seen[real] = option


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


#: Document keys passed on as keywords, so an absent key takes the dataclass's default.
_GEN_OPTIONS = {"population": "population_size", "max_steps": "max_steps",
                "remove_probability": "remove_probability", "seed": "seed"}
_OBJECTIVE_OPTIONS = {"pool2": "second_pool", "value": "target_value", "runs": "runs", "alpha": "alpha"}
_PARAMS_OPTIONS = {"population": "population_size", "max_generations": "max_generations", "seed": "seed"}


def _options(doc: dict, keywords: dict, seed_override=None) -> dict:
    """doc's entries named in ``keywords``, under their keyword names; a seed override wins."""
    options = {keyword: doc[key] for key, keyword in keywords.items() if key in doc}
    if seed_override is not None:
        options["seed"] = seed_override
    return options


def _cmd_gen(args) -> int:
    report_path = args.report or f"{args.out}.report.json"
    _distinct_outputs(("--out", args.out), ("--report", report_path))
    doc = _read_json(args.config)
    extra = set(doc) - {"nodes", *_GEN_OPTIONS}
    if extra:
        raise EconomyError(f"{args.config}: unknown config keys {sorted(extra)}")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, dict) or not raw_nodes:
        raise EconomyError(f"{args.config}: 'nodes' must map kind names to counts")
    counts = {}
    for kind_name, count in raw_nodes.items():
        try:
            kind = NodeKind(kind_name)
        except ValueError:
            raise EconomyError(f"{args.config}: unknown node kind {kind_name!r}") from None
        counts[kind] = count
    try:
        config = GeneratorConfig(counts, **_options(doc, _GEN_OPTIONS, args.seed))
    except ValueError as exc:
        raise EconomyError(f"{args.config}: {exc}") from exc

    started = time.perf_counter()
    result = generate(config)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    _write((args.out, [save_economy(result.graph)]), (report_path, [dump_json(result.report_dict())]))
    if result.valid:
        _say(args, f"valid economy after {result.generations} generations ({elapsed_ms:.1f} ms)")
        return EXIT_OK
    _say(
        args,
        f"no valid economy within {result.generations} generations; "
        f"best fitness {result.fitness} ({elapsed_ms:.1f} ms)",
    )
    return EXIT_DOMAIN


def _cmd_sim(args) -> int:
    if args.steps < 1:
        raise _UsageError("--steps must be >= 1")
    if args.runs < 1:
        raise _UsageError("--runs must be >= 1")
    seed = args.seed if args.seed is not None else 0
    graph = _read_economy(args.economy)
    ids = monitored_node_ids(graph)  # a run's columns, as trace_runs yields it
    try:
        chunks = csv_writer(ids, args.steps) if args.trace else None  # checks the ids before any run
        runs = trace_runs(graph, args.steps, args.runs, seed)
    except EconomyError as exc:
        raise EconomyError(f"{args.economy}: {exc}") from exc
    w = len(ids)
    finals = []  # each run's amounts at --steps, by id: all a run leaves behind

    def kept():
        last = None
        for run in runs:
            # a repeat is a draw-free stream's one tuple (trace_runs), so it shares that run's final amounts;
            # not run[-w:]: with w = 0 that is the whole run
            finals.append(finals[-1] if run is last else run[len(run) - w:])
            last = run
            yield run

    if args.trace:
        _write((args.trace, chunks(kept())))
    else:
        for _ in kept():
            pass
    if not args.quiet:
        for node_id, final in zip(ids, zip(*finals)):
            print(f"{node_id}: {_summary_text(final)}")
    return EXIT_OK


def _summary_text(amounts) -> str:
    """The mean and the population standard deviation of whole amounts, to 3
    decimals each, exact even where a float cannot hold an amount (above 2**53)."""
    if max(amounts) <= 2**53:
        return f"{statistics.fmean(amounts):.3f} ± {pstdev(amounts):.3f}"
    n = len(amounts)
    mean = round(Fraction(1000 * sum(amounts), n))  # in thousandths, ties to even, as float formatting
    # 10**6 times the variance; its square root is the deviation in thousandths
    scaled = Fraction(10**6 * (n * sum(a * a for a in amounts) - sum(amounts) ** 2), n * n)
    deviation = math.isqrt(scaled.numerator // scaled.denominator)  # the root, rounded down
    twice = 2 * deviation + 1  # the root is above deviation + 1/2 iff 4 * scaled > twice**2
    if 4 * scaled > twice * twice or (4 * scaled == twice * twice and deviation % 2):
        deviation += 1  # ties to even, as float formatting
    return f"{mean // 1000}.{mean % 1000:03d} ± {deviation // 1000}.{deviation % 1000:03d}"


def _parse_objective(doc: dict, path: str, seed_override):
    extra = set(doc) - {"kind", "pool", "step", "sim_length", *_OBJECTIVE_OPTIONS, *_PARAMS_OPTIONS}
    if extra:
        raise EconomyError(f"{path}: unknown objective keys {sorted(extra)}")
    try:
        kind = ObjectiveKind(doc.get("kind"))
    except ValueError:
        raise EconomyError(f"{path}: kind must be absolute, intra_pair or inter_pair") from None
    try:
        objective = BalanceObjective(
            kind,
            doc.get("pool"),
            observe_step=doc.get("step", doc.get("sim_length", 0)),
            sim_length=doc.get("sim_length", 0),
            **_options(doc, _OBJECTIVE_OPTIONS),
        )
        params = BalanceParams(**_options(doc, _PARAMS_OPTIONS, seed_override))
    except (TypeError, ValueError) as exc:
        raise EconomyError(f"{path}: {exc}") from exc
    return objective, params


def _cmd_balance(args) -> int:
    report_path = args.report or f"{args.out}.report.json"
    _distinct_outputs(("--out", args.out), ("--out2", args.out2), ("--report", report_path))
    doc = _read_json(args.objective)
    objective, params = _parse_objective(doc, args.objective, args.seed)
    if objective.kind is ObjectiveKind.INTER_PAIR:
        if args.second is None:
            raise _UsageError("inter_pair objective requires --second")
        if args.out2 is None:
            raise _UsageError("inter_pair objective requires --out2")
    else:
        if args.second is not None:
            raise _UsageError("--second is only valid with an inter_pair objective")
        if args.out2 is not None:
            raise _UsageError("--out2 is only valid with an inter_pair objective")

    paths = [args.economy] if args.second is None else [args.economy, args.second]
    graphs = [_read_economy(path) for path in paths]
    try:
        report = balance(graphs, objective, params)
    except EconomyError as exc:
        if exc.economy_index is None:
            raise
        raise EconomyError(f"{paths[exc.economy_index]}: {exc}") from exc
    outputs = [(path, [save_economy(graph)]) for path, graph in zip((args.out, args.out2), report.balanced_graphs)]
    _write(*outputs, (report_path, [dump_json(report.to_dict())]))

    stats = ", ".join(
        f"{o.pool}[{o.economy_index}] {o.mean:.2f} ± {o.stddev:.2f}" for o in report.observations
    )
    _say(
        args,
        f"{report.terminated_by.value} at generation {report.generations}, "
        f"fitness {report.best_fitness:.4f} ({stats})",
    )
    return EXIT_OK if report.terminated_by is TerminationReason.FITNESS_REACHED else EXIT_DOMAIN


def _cmd_bench(args) -> int:
    json_path = args.json_out or f"{args.out}.json"
    _distinct_outputs(("--out", args.out), ("--json", json_path))
    doc = _read_json(args.spec)
    if args.seed is not None:
        doc = {**doc, "seed": args.seed}
    try:
        spec = BenchmarkSpec.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise EconomyError(f"{args.spec}: {exc}") from exc
    progress = None if args.quiet else lambda message: print(message)
    result = run_benchmark(spec, progress)
    _write((args.out, [result.to_csv().encode("utf-8")]), (json_path, [dump_json(result.to_dict())]))
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "sim": _cmd_sim,
    "balance": _cmd_balance,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.seed is not None and args.seed < 0:  # Random(-s) draws what Random(s) draws
            raise _UsageError("--seed must be >= 0")
    except _UsageError as exc:
        print(f"flowtune: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"flowtune: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EconomyError, ValueError) as exc:
        print(f"flowtune: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OverflowError, MemoryError) as exc:  # e.g. a run count too large to hold
        print(f"flowtune: input too large: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
