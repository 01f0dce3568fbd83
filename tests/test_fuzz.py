"""A seeded mutation fuzzer over every CLI entry (gen, sim, balance, bench).

Each case starts from a valid document: a bundled economy, an objective, a
generator config or a bench spec. It deletes keys or list entries, swaps a
value (the top-level one too) for one of SWAPS, duplicates list entries, at
any depth, and runs the command through cli.main in-process. No exception
may escape, the exit code is 0, 1 or 2, and a non-zero exit prints exactly
one stderr line. The exceptions are the domain failures the README lets
--quiet silence: a gen that finds no valid economy and a balance that times
out print their summary on stdout instead, and nothing under --quiet.

Keys that bound only running time (max_steps, max_generations, step and
sim_length, runs, graphs) are budgeted: a case whose effective value of one
exceeds BUDGET is skipped, so a case runs in milliseconds.

Tier-1 runs edge_cases, every top-level parameter deleted or set to each
of EDGES, and CASES random cases at seed 0. For a longer run:
    PYTHONPATH=src python tests/test_fuzz.py --seeds 1 40
"""

import argparse
import contextlib
import copy
import io
import json
import os
import random
import sys
import tempfile

from flowtune.cli import main
from flowtune.fixtures import FIXTURE_NAMES, fixture_text

CASES = 300

#: The values every top-level parameter is set to, besides being deleted.
EDGES = (None, True, 0, -1, 1.5, 2**63)
DELETE = object()
SWAPS = (None, True, False, 0, -1, 1.5, 1e308, "", "x", "absolute", "pool", [], [1, 2], {}, {"x": 1}, 2**63, 10**400)

CONFIG = {"nodes": {"source": 1, "pool": 2, "converter": 1, "drain": 1},
          "population": 6, "max_steps": 2000, "remove_probability": 0.1, "seed": 3}
TORCH_OBJECTIVE = {"kind": "absolute", "pool": "torch_pool", "value": 60, "step": 16, "sim_length": 16,
                   "runs": 5, "alpha": 0.01, "population": 6, "max_generations": 4, "seed": 0}
ARCHER_OBJECTIVE = {"kind": "absolute", "pool": "damage_pool", "value": 40, "step": 12, "sim_length": 12,
                    "runs": 4, "alpha": 0.02, "population": 4, "max_generations": 3, "seed": 1}
INTER_OBJECTIVE = {"kind": "inter_pair", "pool": "damage_pool", "pool2": "damage_pool", "step": 10,
                   "sim_length": 10, "runs": 3, "alpha": 0.05, "population": 4, "max_generations": 3, "seed": 0}
SPEC = {"graphs": 2, "node_range": [4, 6], "target_range": [20, 60], "sim_length_range": [5, 12],
        "alphas": [0.05, 0.0], "population": 6, "max_generations": 3, "runs": 3,
        "generator_population": 6, "generator_max_steps": 2000, "remove_probability": 0.1, "seed": 1}

#: Per command, the time-only keys of the document its search reads: key ->
#: (largest effective value a case may give it, its default when absent, the
#: value above which it is refused at once, or None).
BUDGET = {
    "gen": {"max_steps": (3000, 50000, None)},
    "balance": {"max_generations": (6, 100, None), "runs": (12, 10, sys.maxsize), "step": (40, None, None)},
    "bench": {"graphs": (2, 30, None), "max_generations": (6, 200, None), "runs": (12, 10, sys.maxsize),
              "generator_max_steps": (3000, 50000, None), "sim_length_range": (40, [10, 30], None),
              "node_range": (8, [5, 20], 100_000)},  # the generator refuses more nodes than its cap
}


def economy(name: str) -> dict:
    return json.loads(fixture_text(name))


def entries() -> list:
    """(command, documents, argv) per entry; argv names document i as {in<i>}."""
    sim = ["--steps", "12", "--runs", "3", "--trace", "{out}.csv"]
    balance = ["--objective", "{in1}", "--out", "{out}"]
    return [
        ("gen", [CONFIG], ["{in0}", "--out", "{out}"]),
        *[("sim", [economy(name)], ["{in0}", *sim]) for name in FIXTURE_NAMES],
        ("balance", [economy("minecraft_torch"), TORCH_OBJECTIVE], ["{in0}", *balance]),
        ("balance", [economy("archer"), ARCHER_OBJECTIVE], ["{in0}", *balance]),
        ("balance", [economy("mage"), INTER_OBJECTIVE, economy("archer")],
         ["{in0}", "--second", "{in2}", "--out2", "{out}2", *balance]),
        ("bench", [SPEC], ["{in0}", "--out", "{out}"]),
    ]


def mutate(doc, rng: random.Random):
    """doc with one deletion, swap or duplication at a random depth."""
    root = [doc]
    parent, key = root, 0
    descend = 0.9  # a swap of the top-level value is one case in ten; deeper, one level in two
    while isinstance(parent[key], (dict, list)) and parent[key] and rng.random() < descend:
        parent, descend = parent[key], 0.5
        key = rng.choice(list(parent)) if isinstance(parent, dict) else rng.randrange(len(parent))
    op = rng.randrange(3)
    if op == 0 and parent is not root:
        del parent[key]
    elif op == 1 and isinstance(parent, list) and parent is not root:
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = copy.deepcopy(rng.choice(SWAPS))
    return root[0]


def over_budget(command: str, docs: list) -> bool:
    """True if a time-only key of the case's config, objective or spec is
    effectively larger than its BUDGET, but not so large as to be refused."""
    doc = docs[1] if command == "balance" else docs[0]
    if command == "sim" or not isinstance(doc, dict):
        return False
    for key, (budget, default, refused) in BUDGET[command].items():
        value = doc.get("sim_length", default) if key == "step" else default
        value = doc.get(key, value)
        if isinstance(value, list):  # a [low, high] range: its high end
            value = max((v for v in value if type(v) is int), default=None)
        if type(value) is int and value > budget and (refused is None or value <= refused):
            return True
    return False


def run_case(command: str, docs: list, argv: list, directory: str, quiet: bool) -> tuple:
    """(exit code, stdout, stderr) of the case through cli.main."""
    names = {"out": os.path.join(directory, "out.json")}
    for i, doc in enumerate(docs):
        names[f"in{i}"] = path = os.path.join(directory, f"in{i}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
    args = [command] + [arg.format(**names) for arg in argv] + ["--quiet"] * quiet
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def check(command: str, docs: list, argv: list, directory: str, quiet: bool) -> None:
    """Run one case and assert the CLI's rules for it; an escaped exception propagates."""
    code, out, err = run_case(command, docs, argv, directory, quiet)
    where = (command, docs)
    assert code in (0, 1, 2), where
    assert err == "" or (code and err.count("\n") == 1 and err.endswith("\n")), (err, where)
    assert not (quiet and out), (out, where)
    if code and not err:  # a failed search, as the README lets it report
        summary = {"gen": "no valid economy", "balance": "timeout at generation"}[command]
        assert code == 2 and (quiet or out.startswith(summary)), (out, where)
    assert not [name for name in os.listdir(directory) if name.endswith(".tmp")], where
    for name in os.listdir(directory):
        os.unlink(os.path.join(directory, name))


def random_cases(seed: int, count: int):
    """count cases (command, documents, argv, quiet), each with one or two
    mutations of one document, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    targets = entries()
    for _ in range(count):
        command, docs, argv = rng.choice(targets)
        docs = copy.deepcopy(docs)
        i = rng.randrange(len(docs))
        for _ in range(1 + (rng.random() < 0.3)):
            docs[i] = mutate(docs[i], rng)
        yield command, docs, argv, rng.random() < 0.5


def edge_cases():
    """Cases with each top-level key of each config, objective and spec
    deleted, and set to each of EDGES in turn."""
    for command, docs, argv in entries():
        if command == "sim":
            continue
        i = 1 if command == "balance" else 0
        for n, key in enumerate(docs[i]):
            for value in (DELETE, *EDGES):
                mutated = copy.deepcopy(docs)
                if value is DELETE:
                    del mutated[i][key]
                else:
                    mutated[i][key] = value
                yield command, mutated, argv, n % 2 == 0


def run(cases) -> int:
    """Check each case within the budget; returns how many were run."""
    ran = 0
    with tempfile.TemporaryDirectory() as directory:
        for command, docs, argv, quiet in cases:
            if not over_budget(command, docs):
                check(command, docs, argv, directory, quiet)
                ran += 1
    return ran


def test_every_cli_entry_survives_mutated_documents():
    assert run(edge_cases()) > 200
    assert run(random_cases(0, CASES)) > CASES // 2


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Fuzz every flowtune command with mutated documents.")
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 20), metavar=("FIRST", "LAST"))
    parser.add_argument("--cases", type=int, default=CASES, help="cases per seed")
    args = parser.parse_args()
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        print(f"seed {seed}: {run(random_cases(seed, args.cases))} cases run", flush=True)
