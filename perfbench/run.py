"""Run one flowtune benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,tune,explore} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy. The
workload's batch is built from ``--seed`` and run in rounds, in this one
process, until ``--seconds`` would be exceeded (at least one round).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. Their times
are normalised to the reference host speed (see hostspeed.py); the raw
times are printed beside them. ``--trace 1``
runs the batch (sweep and tune: a third of it) twice traced and once
untraced, reports the per-layer metrics of BENCHMARK.json from the traced
rounds and the tracing overhead, fails if the deterministic counters of
the two traced rounds differ, and writes the spans of the first traced
round to ``perfbench/out/``. Metric names and units are read from
BENCHMARK.json, the one list of them.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from hostspeed import HostClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Round, median, percentile_tail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Units of per-layer metrics that depend only on the inputs and the code,
#: never on timing: two traced rounds of the same batch must agree on them.
DETERMINISTIC_UNITS = ("count", "ratio", "bytes", "%")

#: Set-up (import, fixture load, input generation) is timed this often
#: before every round and again after the last; setup_s is the median
#: of all of them, each normalised to the reference host speed.
SETUP_REPEATS = 10


class MissingSources(Exception):
    pass


def import_flowtune():
    """A fresh import of the package and its CLI from the checkout's src/."""
    for name in [m for m in sys.modules if m == "flowtune" or m.startswith("flowtune.")]:
        del sys.modules[name]
    ft = importlib.import_module("flowtune")
    importlib.import_module("flowtune.cli")
    if Path(ft.__file__).resolve().parent != (SRC / "flowtune").resolve():
        raise MissingSources(f"flowtune was imported from {ft.__file__}, not from {SRC}")
    return ft


def set_up(workload, seed: int, scale: float, workdir: Path, clock: HostClock, times: list):
    """The package and the workload's inputs; appends (seconds, clock tick)
    of each set-up to ``times``."""
    for _ in range(SETUP_REPEATS):
        tick = clock.tick()
        started = perf_counter()
        ft = import_flowtune()
        inputs = workload.setup(ft, seed, scale, workdir)
        times.append((perf_counter() - started, tick))
    return ft, inputs


def one_round(workload, ft, inputs, clock: HostClock) -> Round:
    out = Round(clock=clock)
    workload.run_round(ft, inputs, out)
    clock.tick()  # the kernel after the last operation
    out.wall_s = sum(out.ops)  # time inside the program, without the checks
    out.wall_norm_s = sum(out.normalised_ops())
    return out


def run_rounds(workload, seed: int, scale: float, workdir: Path, seconds: float) -> tuple:
    """Rounds until another would exceed ``seconds`` (at least one), the
    set-up times and the clock that normalises them."""
    rounds, setup_times, clock = [], [], HostClock()
    started = perf_counter()
    last = 0.0
    while True:
        ft, inputs = set_up(workload, seed, scale, workdir, clock, setup_times)
        if rounds and perf_counter() - started + last > seconds:
            clock.tick()  # the kernel after the last set-up
            return rounds, setup_times, clock
        round_started = perf_counter()
        rounds.append(one_round(workload, ft, inputs, clock))
        last = perf_counter() - round_started


def workload_metrics(name: str, rounds: list) -> list:
    """The workload's own figures, as (name, value, unit, note), medians over
    rounds; times are at the reference host speed."""
    def over_rounds(fn):
        return median([fn(r) for r in rounds])

    def tail(values):
        return percentile_tail(values) if values else (0.0, 0.0, 0)

    rows = []
    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(r.failed for r in rounds)
    rows.append(("fail_pct", 100.0 * failed / max(attempted, 1), "%", f"of {attempted} operations"))
    if name in ("sweep", "tune"):
        rows.append(("balanced_pct", over_rounds(
            lambda r: 100.0 * r.counts.get("balanced", 0) / max(r.counts.get("balance_runs", 0), 1)
        ), "%", "of (task, alpha) balance runs"))
    if name == "tune":
        rows.append(("full_budget_pct", over_rounds(
            lambda r: 100.0 * r.counts.get("full_budget", 0) / max(r.counts.get("balance_runs", 0), 1)
        ), "%", "of balance() calls that ran every generation (terminated_by timeout)"))
    for sample in ("balance", "gen", "sim"):
        if sample not in rounds[0].samples:
            continue
        n = len(rounds[0].samples[sample])
        rows.append((f"{sample}_p50_s", over_rounds(lambda r: median(r.normalised_samples(sample))),
                     "s", f"n={n} per round"))
        if sample != "sim":
            _, pct, _ = tail(rounds[0].normalised_samples(sample))
            rows.append((f"{sample}_tail_s",
                         over_rounds(lambda r: tail(r.normalised_samples(sample))[0]),
                         "s", f"p{pct:.1f} of n={n} per round"))
    if name == "explore":
        rows.append(("valid_pct", over_rounds(
            lambda r: 100.0 * r.counts.get("valid", 0) / max(len(r.samples.get("gen", [])), 1)
        ), "%", "of gen calls"))
        rows.append(("sim_steps_per_s", over_rounds(
            lambda r: r.counts.get("sim_run_steps", 0) / max(sum(r.normalised_samples("sim")), 1e-12)
        ), "steps/s", "run-steps over sim command time"))
    return rows


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    if not (SRC / "flowtune" / "__init__.py").is_file():
        raise MissingSources(f"no flowtune sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workload = WORKLOADS[workload_name]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if trace:
            return _traced(workload, seed, scale * workload.trace_share, workdir)
        return _untraced(workload, seed, seconds, scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(workload, seed, seconds, scale, workdir) -> dict:
    rounds, setup_times, clock = run_rounds(workload, seed, scale, workdir, seconds)
    values = {
        "setup_s": median([clock.normalise(s, tick) for s, tick in setup_times]),
        "wall_s": median([r.wall_norm_s for r in rounds]),
    }
    raw = {
        "setup_s": median([s for s, _ in setup_times]),
        "wall_s": median([r.wall_s for r in rounds]),
    }
    print(f"# {workload.name}: {len(rounds)} round(s) of {len(rounds[0].ops)} operations, "
          f"raw wall_s per round {[round(r.wall_s, 3) for r in rounds]}, "
          f"reference kernel median {median(clock.kernels):.5f} s over {len(clock.kernels)} runs")
    for name, unit in END_TO_END.items():
        print(f"metric {name} {values[name]!r} {unit}  # raw {raw[name]!r} {unit}")
    for name, value, unit, note in workload_metrics(workload.name, rounds):
        print(f"metric {name} {value!r} {unit}  # {note}")
    failures = [message for r in rounds for message in r.failures]
    failed = sum(r.failed for r in rounds)
    if len({r.digest for r in rounds}) > 1:
        failures.append("deterministic outputs differ between rounds")
        failed += 1
    _report(workload.name, rounds[0].digest, failures)
    return _result(sum(len(r.ops) for r in rounds), failed,
                   {name: (values[name], unit) for name, unit in END_TO_END.items()})


def _traced(workload, seed, scale, workdir) -> dict:
    clock = HostClock()
    ft, inputs = set_up(workload, seed, scale, workdir, clock, [])

    def traced_round():
        tracer = Tracer()
        tracer.install()
        try:
            result = one_round(workload, ft, inputs, clock)
        finally:
            tracer.uninstall()
        return tracer, result, tracer.metrics(result.bytes_written)

    # The untraced round runs between the traced ones, so that it is as warm
    # as the second and runs with the first one's spans alive, as that does.
    traced = [traced_round()]
    plain = one_round(workload, ft, inputs, clock)
    traced.append(traced_round())
    first, second = traced[0][2], traced[1][2]
    deterministic = [name for name, unit in PER_LAYER.items()
                     if unit in DETERMINISTIC_UNITS and name in first]
    layers = {
        name: first[name] if name in deterministic else statistics.fmean((first[name], second[name]))
        for name in PER_LAYER
        if name != "trace_overhead_pct"
    }
    layers["trace_overhead_pct"] = 100.0 * (traced[1][1].wall_norm_s / plain.wall_norm_s - 1.0)

    failures = list(plain.failures)
    failed = plain.failed
    for tracer, result, _ in traced:
        failures += result.failures + tracer.failures
        failed += result.failed + len(tracer.failures)
    drift = [name for name in deterministic if first[name] != second[name]]
    if drift:
        failures.append(f"traced counters differ between two runs: {', '.join(drift)}")
        failed += 1
    if len({plain.digest, traced[0][1].digest, traced[1][1].digest}) > 1:
        failures.append("deterministic outputs differ between rounds")
        failed += 1

    spans = OUT / f"spans-{workload.name}-seed{seed}.csv"
    traced[0][0].write_spans(spans)
    print(f"# {workload.name}: traced rounds of {len(plain.ops)} operations; "
          f"{len(traced[0][0].spans)} spans written to {spans.relative_to(ROOT)}")
    for name, value in layers.items():
        print(f"layer {name} {value!r} {PER_LAYER[name]}")
    _report(workload.name, plain.digest, failures)
    attempted = len(plain.ops) + sum(len(r.ops) for _, r, _ in traced)
    return _result(attempted, failed, {name: (layers[name], unit) for name, unit in PER_LAYER.items()})


def _report(workload_name: str, digest: str, failures: list) -> None:
    print(f"# environment: python {platform.python_version()}, nproc {os.cpu_count()}")
    print(f"digest {workload_name} {digest}")
    for message in failures[:20]:
        print(f"FAILED {message}")


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
