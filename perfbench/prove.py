"""Run the benchmark over several seeds and check that it is steady.

    python3 perfbench/prove.py [--workloads sweep,tune,explore] [--seeds 1-10]
                               [--record LABEL]

Runs ``run.py`` once per (workload, seed), one run at a time, from the
root of the checkout, with BENCHMARK.json's ``run_seconds``. For every
end-to-end metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
and marks a spread above a third of the metric's bound as unsteady. With
``--record LABEL`` the summary is appended to ``perfbench/trajectory.jsonl``
as one point of the bench trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--record", default=None, help="append the summary to trajectory.jsonl")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {
        "label": args.record,
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                        "run_seconds": spec["run_seconds"], "seeds": seeds},
        "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"])
            results.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
        summary = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            stats = summarize(values) if len(values) >= 2 else {"median": values[0]}
            summary["metrics"][name] = stats
            if len(values) >= 2:
                limit = bounds[name] / 3
                ok = stats["spread"] <= limit
                steady &= ok
                print(f"  {workload} {name}: median {stats['median']:.5g} "
                      f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} spread {stats['spread']:.3f} "
                      f"(bound/3 {limit:.3f}){'' if ok else '  UNSTEADY'}", flush=True)
        steady &= summary["correct"]
        point["workloads"][workload] = summary
    if args.record:
        with open(HERE / "trajectory.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(point, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
