"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that every workload
emits exactly the named end-to-end metrics untraced and exactly the
named per-layer metrics traced, with their units, correct outputs and
non-zero end-to-end values, that manifest.json names only known metrics
and workloads, and that the benchmark refuses to run without the
package sources. Exits 0 when everything holds. Takes well under a
minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TINY = 0.05
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def check_spec(spec: dict) -> list:
    problems = []
    if set(spec) != SPEC_KEYS:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    if not 1 <= spec["run_seconds"] <= 60 or not isinstance(spec["run_seconds"], int):
        problems.append("run_seconds must be a whole number from 1 to 60")
    for path in spec["paths"]:
        if not (ROOT / path).is_dir() or path.startswith("/") or ".." in path:
            problems.append(f"bad path {path!r}")
    names = set()
    for section, keys in (("workloads", {"name", "why"}),
                          ("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for entry in spec[section]:
            if set(entry) != keys:
                problems.append(f"{section} entry {entry} has keys {sorted(entry)}")
            if not NAME.fullmatch(entry["name"]) or entry["name"] in names:
                problems.append(f"bad or repeated name {entry['name']!r}")
            names.add(entry["name"])
            if "unit" in entry and not UNIT.fullmatch(entry["unit"]):
                problems.append(f"bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("lower", "higher"):
                problems.append(f"bad direction for {entry['name']}")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"bound of {entry['name']} outside (0, 0.25]")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                problems.append(f"why of {entry['name']} is not one line of at most 200 characters")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    return problems


def check_result(result: dict, expected: dict, label: str, nonzero: bool) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
    if set(result["metrics"]) != set(expected):
        missing = set(expected) - set(result["metrics"])
        extra = set(result["metrics"]) - set(expected)
        problems.append(f"{label}: missing {sorted(missing)}, unexpected {sorted(extra)}")
    for name, metric in result["metrics"].items():
        if name in expected and metric["unit"] != expected[name]:
            problems.append(f"{label}: {name} in {metric['unit']}, expected {expected[name]}")
        if not isinstance(metric["value"], (int, float)) or (nonzero and not metric["value"] > 0):
            problems.append(f"{label}: {name} = {metric['value']!r}")
    return problems


def check_manifest(spec: dict) -> list:
    manifest = json.loads((HERE / "manifest.json").read_text())
    known = {m["name"] for m in spec["per_layer"]} | {m["name"] for m in spec["end_to_end"]}
    known |= set(manifest["printed_metrics"])
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    if set(manifest["workloads"]) != workloads:
        problems.append("manifest workloads differ from BENCHMARK.json")
    for entry in manifest["layer_map"]:
        for name in entry["layer_metrics"] + [entry["moves"]]:
            if name not in known:
                problems.append(f"manifest names unknown metric {name!r}")
        if entry["on"] not in workloads:
            problems.append(f"manifest names unknown workload {entry['on']!r}")
    return problems


def check_refuses_without_sources() -> list:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "tune", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["run.py ran without the package sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec) + check_manifest(spec) + check_refuses_without_sources()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            with contextlib.redirect_stdout(io.StringIO()):
                result = run.run(workload, seed=0, seconds=0.1, trace=trace, scale=TINY)
            label = f"{workload} trace={int(trace)}"
            problems += check_result(result, expected, label, nonzero=not trace)
            print(f"{label}: {len(result['metrics'])} metrics, attempted {result['attempted']}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
