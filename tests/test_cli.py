import hashlib
import json
import sys

import pytest

import flowtune.cli
from flowtune.cli import main
from flowtune.fixtures import FIXTURE_NAMES, fixture_text
from flowtune.model import NodeKind, is_valid, load_economy
from flowtune.sim import monitored_node_ids


def write(path, payload):
    if isinstance(payload, (dict, list)):
        path.write_text(json.dumps(payload))
    else:
        path.write_text(payload)
    return str(path)


@pytest.fixture
def torch_file(tmp_path):
    return write(tmp_path / "torch.json", fixture_text("minecraft_torch"))


def test_gen_writes_valid_economy_and_report(tmp_path):
    config = write(tmp_path / "cfg.json", {"nodes": {"source": 1, "pool": 1, "drain": 1}, "seed": 2})
    out = tmp_path / "econ.json"
    assert main(["gen", config, "--out", str(out), "--quiet"]) == 0
    graph = load_economy(out.read_bytes())
    assert is_valid(graph)
    report = json.loads((tmp_path / "econ.json.report.json").read_text())
    assert report == {"valid": True, "generations": report["generations"], "final_fitness": 0}


def test_gen_infeasible_config_exits_nonzero(tmp_path):
    config = write(
        tmp_path / "cfg.json",
        {"nodes": {"random_gate": 1, "pool": 2}, "max_steps": 300, "seed": 1},
    )
    out = tmp_path / "econ.json"
    code = main(["gen", config, "--out", str(out), "--quiet"])
    assert code == 2
    report = json.loads((tmp_path / "econ.json.report.json").read_text())
    assert report["valid"] is False
    assert report["final_fitness"] > 0


def test_gen_missing_config_file(tmp_path):
    assert main(["gen", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x"), "--quiet"]) == 2


def test_gen_unknown_kind(tmp_path):
    config = write(tmp_path / "cfg.json", {"nodes": {"sorcerer": 2}})
    assert main(["gen", config, "--out", str(tmp_path / "x"), "--quiet"]) == 2


def test_sim_prints_final_means_and_writes_trace(tmp_path, capsys, torch_file):
    trace_path = tmp_path / "trace.csv"
    code = main(["sim", torch_file, "--steps", "16", "--trace", str(trace_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "torch_pool: 60.000 ± 0.000" in out
    lines = trace_path.read_text().strip().split("\n")
    assert lines[0] == "run,step,node_id,amount"
    assert "0,16,torch_pool,60" in lines


def test_sim_multiple_runs_of_deterministic_economy_are_identical(tmp_path, torch_file):
    trace_path = tmp_path / "trace.csv"
    assert main(["sim", torch_file, "--steps", "5", "--runs", "3", "--trace", str(trace_path), "--quiet"]) == 0
    lines = trace_path.read_text().strip().split("\n")[1:]
    by_run = {}
    for line in lines:
        run, rest = line.split(",", 1)
        by_run.setdefault(run, []).append(rest)
    assert by_run["0"] == by_run["1"] == by_run["2"]


def test_sim_rejects_zero_steps(tmp_path, torch_file):
    assert main(["sim", torch_file, "--steps", "0", "--quiet"]) == 1


def test_sim_rejects_invalid_economy(tmp_path, capsys):
    bad = write(
        tmp_path / "bad.json",
        {"nodes": [{"id": "s", "kind": "source"}, {"id": "p", "kind": "pool"}], "edges": []},
    )
    assert main(["sim", bad, "--steps", "3", "--quiet"]) == 2
    # unreadable documents: the one-line message names the file
    (tmp_path / "not_utf8.json").write_bytes(b"\xff\xfe")
    (tmp_path / "truncated.json").write_text('{"nodes": [{"id": "s", ')
    for name in ("not_utf8.json", "truncated.json"):
        path = str(tmp_path / name)
        capsys.readouterr()
        assert main(["sim", path, "--steps", "3", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"flowtune: {path}: ") and err.count("\n") == 1


def test_balance_absolute_objective(tmp_path, torch_file):
    objective = write(
        tmp_path / "obj.json",
        {
            "kind": "absolute",
            "pool": "torch_pool",
            "value": 60,
            "step": 16,
            "sim_length": 16,
            "runs": 2,
            "alpha": 0.01,
            "population": 6,
            "max_generations": 30,
            "seed": 3,
        },
    )
    out = tmp_path / "balanced.json"
    report_path = tmp_path / "report.json"
    code = main(["balance", torch_file, "--objective", objective, "--out", str(out), "--report", str(report_path), "--quiet"])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["balanced"] is True
    assert report["best_fitness"] >= 1.0
    assert is_valid(load_economy(out.read_bytes()))


def test_balance_inter_pair_mage_archer(tmp_path):
    mage_file = write(tmp_path / "mage.json", fixture_text("mage"))
    archer_file = write(tmp_path / "archer.json", fixture_text("archer"))
    objective = write(
        tmp_path / "obj.json",
        {
            "kind": "inter_pair",
            "pool": "damage_pool",
            "pool2": "damage_pool",
            "step": 30,
            "sim_length": 30,
            "runs": 10,
            "alpha": 0.05,
            "population": 10,
            "max_generations": 100,
            "seed": 7,
        },
    )
    out1, out2 = tmp_path / "mage_b.json", tmp_path / "archer_b.json"
    code = main([
        "balance", mage_file, "--second", archer_file, "--objective", objective,
        "--out", str(out1), "--out2", str(out2), "--quiet",
    ])
    assert code == 0
    report = json.loads((tmp_path / "mage_b.json.report.json").read_text())
    assert report["best_fitness"] >= 1.0
    assert is_valid(load_economy(out1.read_bytes()))
    assert is_valid(load_economy(out2.read_bytes()))


def test_balance_second_with_absolute_is_usage_error(tmp_path, torch_file):
    objective = write(
        tmp_path / "obj.json",
        {"kind": "absolute", "pool": "torch_pool", "value": 60, "step": 4, "sim_length": 4},
    )
    code = main([
        "balance", torch_file, "--second", torch_file,
        "--objective", objective, "--out", str(tmp_path / "o.json"), "--quiet",
    ])
    assert code == 1


def test_balance_unknown_pool_is_domain_error(tmp_path, torch_file):
    objective = write(
        tmp_path / "obj.json",
        {"kind": "absolute", "pool": "gold_pool", "value": 60, "step": 4, "sim_length": 4},
    )
    assert main(["balance", torch_file, "--objective", objective, "--out", str(tmp_path / "o.json"), "--quiet"]) == 2


def test_balance_timeout_exits_two(tmp_path, torch_file):
    objective = write(
        tmp_path / "obj.json",
        {
            "kind": "absolute", "pool": "torch_pool", "value": 59, "step": 16,
            "sim_length": 16, "runs": 1, "alpha": 0.0, "population": 4,
            "max_generations": 2, "seed": 1,
        },
    )
    # 59 torches is unreachable exactly (production is a multiple of the
    # craft output), so alpha=0 cannot be satisfied
    assert main(["balance", torch_file, "--objective", objective, "--out", str(tmp_path / "o.json"), "--quiet"]) == 2


def test_balance_run_count_too_large_to_index_exits_two(tmp_path, torch_file, capsys):
    # a gate-free economy repeats its one run "runs" times, which no list can
    # hold: the repetition raises OverflowError before anything is allocated
    objective = write(
        tmp_path / "obj.json",
        {"kind": "absolute", "pool": "torch_pool", "value": 60, "step": 16, "sim_length": 16, "runs": 10**20},
    )
    out = tmp_path / "o.json"
    assert main(["balance", torch_file, "--objective", objective, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("flowtune: input too large: ") and err.count("\n") == 1
    assert not out.exists()


def test_out_of_memory_is_one_line(tmp_path, torch_file, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError  # stands in for a run count too large to hold, allocating nothing

    monkeypatch.setattr(flowtune.cli, "balance", exhausted)
    objective = write(
        tmp_path / "obj.json",
        {"kind": "absolute", "pool": "torch_pool", "value": 60, "step": 16, "sim_length": 16},
    )
    assert main(["balance", torch_file, "--objective", objective, "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == "flowtune: input too large: out of memory\n"


def test_bench_zero_graphs_writes_empty_table(tmp_path):
    spec = write(tmp_path / "spec.json", {"graphs": 0})
    out = tmp_path / "bench.csv"
    assert main(["bench", spec, "--out", str(out), "--quiet"]) == 0
    assert out.read_text() == "alpha,balanced_pct,improved_pct,initial_balanced_pct,median_generations\n"
    detail = json.loads((tmp_path / "bench.csv.json").read_text())
    assert detail["rows"] == [] and detail["graphs_generated"] == 0


def test_bench_small_sweep(tmp_path):
    spec = write(
        tmp_path / "spec.json",
        {
            "graphs": 2,
            "node_range": [5, 8],
            "alphas": [0.05, 0.0],
            "population": 6,
            "max_generations": 8,
            "runs": 3,
            "generator_max_steps": 20000,
            "seed": 12,
        },
    )
    out = tmp_path / "bench.csv"
    assert main(["bench", spec, "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    detail = json.loads((tmp_path / "bench.csv.json").read_text())
    assert detail["graphs_generated"] + len(detail["failures"]) == 2
    assert {row["alpha"] for row in detail["rows"]} == {0.05, 0.0}


def test_bench_rejects_unknown_keys(tmp_path):
    spec = write(tmp_path / "spec.json", {"graphs": 1, "bogus": True})
    assert main(["bench", spec, "--out", str(tmp_path / "b.csv"), "--quiet"]) == 2


@pytest.mark.parametrize("seed_flag", [[], ["--seed", "3"]], ids=["spec-seed", "seed-override"])
def test_bench_rejects_node_range_below_two_before_sweeping(tmp_path, capsys, monkeypatch, seed_flag):
    def refuse(*args, **kwargs):
        raise AssertionError("the spec was not checked before the sweep started")

    monkeypatch.setattr("flowtune.cli.run_benchmark", refuse)
    spec = write(tmp_path / "spec.json", {"graphs": 1, "node_range": [1, 5]})
    assert main(["bench", spec, "--out", str(tmp_path / "b.csv"), "--quiet", *seed_flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"flowtune: {spec}: ") and "node_range" in err and err.count("\n") == 1
    assert not (tmp_path / "b.csv").exists()


#: A gate whose two outgoing weights are finite but sum to infinity.
OVERFLOWING_GATE = {
    "nodes": [
        {"id": "s", "kind": "source"}, {"id": "g", "kind": "random_gate"},
        {"id": "a", "kind": "pool"}, {"id": "b", "kind": "pool"},
    ],
    "edges": [
        {"from": "s", "to": "g", "weight": 1},
        {"from": "g", "to": "a", "weight": 1e308},
        {"from": "g", "to": "b", "weight": 1e308},
    ],
}


@pytest.mark.parametrize("command", ["sim", "balance"])
def test_gate_weights_summing_to_infinity_exit_two(tmp_path, capsys, command):
    economy = write(tmp_path / "gate.json", OVERFLOWING_GATE)
    out = tmp_path / "out.json"
    argv = {
        "sim": ["sim", economy, "--steps", "3", "--trace", str(out)],
        "balance": [
            "balance", economy, "--out", str(out), "--objective",
            write(tmp_path / "o.json", {"kind": "absolute", "pool": "a", "value": 5, "step": 3, "sim_length": 3}),
        ],
    }[command]
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"flowtune: {economy}: gate 'g': ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["sim", "balance-first", "balance-second"])
def test_invalid_economy_message_names_its_file(tmp_path, capsys, command):
    # well formed, but a source and a pool without an edge are not a valid economy
    bad = write(tmp_path / "bad.json", {"nodes": [{"id": "s", "kind": "source"}, {"id": "p", "kind": "pool"}], "edges": []})
    mage = write(tmp_path / "mage.json", fixture_text("mage"))
    out = tmp_path / "out.json"
    objective = write(tmp_path / "o.json", {
        "kind": "inter_pair", "pool": "damage_pool", "pool2": "damage_pool", "step": 3, "sim_length": 3,
    })
    balance = ["balance", "--objective", objective, "--out", str(out), "--out2", str(tmp_path / "out2.json")]
    argv, message = {
        "sim": (["sim", bad, "--steps", "3", "--trace", str(out)], "refusing to simulate an invalid economy graph"),
        "balance-first": (balance + [bad, "--second", mage], "cannot balance an invalid economy graph"),
        "balance-second": (balance + [mage, "--second", bad], "cannot balance an invalid economy graph"),
    }[command]
    rule = "source 's' has out-degree 0, needs at least 1"
    assert main(argv + ["--quiet"]) == 2
    assert capsys.readouterr().err == f"flowtune: {bad}: {message}: {rule}\n"
    assert not out.exists()


BASE_DOCS = {
    "balance": {"kind": "absolute", "pool": "torch_pool", "value": 60, "step": 16, "sim_length": 16},
    "gen": {"nodes": {"source": 1, "pool": 1, "drain": 1}},
    "bench": {"graphs": 1},
}


@pytest.mark.parametrize(
    "command, change",
    [
        ("balance", {"step": 3.5}),
        ("balance", {"runs": 2.5}),
        ("balance", {"population": 2.5}),
        ("balance", {"alpha": float("inf")}),
        ("balance", {"step": True}),
        ("gen", {"nodes": {"source": True, "pool": 2}}),
        ("gen", {"max_steps": 2.5}),
        ("bench", {"runs": 2.5}),
        ("balance", {"alpha": 10**400}),
        ("balance", {"value": 10**400}),
        ("gen", {"remove_probability": 10**400}),
    ],
    ids=[
        "balance-step-float", "balance-runs-float", "balance-population-float",
        "balance-alpha-inf", "balance-step-bool", "gen-count-bool", "gen-max_steps-float",
        "bench-runs-float", "balance-alpha-huge-int", "balance-value-huge-int",
        "gen-remove_probability-huge-int",
    ],
)
def test_non_integer_and_non_finite_parameters_exit_two(
    tmp_path, torch_file, capsys, monkeypatch, request, command, change
):
    def refuse(*args, **kwargs):
        raise AssertionError("input was not validated before the work started")

    for target in ("flowtune.cli.generate", "flowtune.cli.balance", "flowtune.bench.generate"):
        monkeypatch.setattr(target, refuse)
    doc = write(tmp_path / "doc.json", {**BASE_DOCS[command], **change})
    out = str(tmp_path / "out")
    argv = {
        "balance": ["balance", torch_file, "--objective", doc, "--out", out],
        "gen": ["gen", doc, "--out", out],
        "bench": ["bench", doc, "--out", out],
    }[command]
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("flowtune: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    if "huge-int" in request.node.callspec.id:
        # the rejected value is echoed shortened; only the file's path may be long
        assert len(err.replace(doc, "").encode()) < 120


@pytest.mark.parametrize("command", ["gen", "balance", "bench"])
def test_config_that_is_not_utf8_names_its_path(tmp_path, torch_file, capsys, command):
    doc = tmp_path / "bad.json"
    doc.write_bytes(b"\xff\xfe{}")
    out = str(tmp_path / "out")
    argv = {
        "gen": ["gen", str(doc), "--out", out],
        "balance": ["balance", torch_file, "--objective", str(doc), "--out", out],
        "bench": ["bench", str(doc), "--out", out],
    }[command]
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"flowtune: {doc} ") and err.count("\n") == 1


@pytest.mark.parametrize("reader", ["economy", "config"])
@pytest.mark.parametrize("kind", ["deep", "long-int"])
def test_json_the_parser_cannot_hold_names_its_path(tmp_path, capsys, reader, kind):
    if kind == "long-int" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    text = "[" * 200_000 + "]" * 200_000 if kind == "deep" else '{"initial": ' + "1" * 5000 + "}"
    doc = write(tmp_path / "doc.json", text)
    argv = ["sim", doc, "--steps", "1"] if reader == "economy" else ["gen", doc, "--out", str(tmp_path / "out")]
    assert main(argv + ["--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"flowtune: {doc}") and err.count("\n") == 1
    assert "not valid JSON" in err


def test_usage_error_on_unknown_flag():
    assert main(["sim", "--nonsense"]) == 1


def test_consecutive_calls_share_one_parser_and_leak_no_options(tmp_path):
    config = write(tmp_path / "cfg.json", {"nodes": {"source": 2, "pool": 3, "converter": 1, "drain": 2}, "seed": 2})
    other_report = tmp_path / "other.report.json"
    first = tmp_path / "first.json"
    assert main(["gen", config, "--out", str(first), "--report", str(other_report), "--seed", "3", "--quiet"]) == 0
    assert other_report.exists() and not (tmp_path / "first.json.report.json").exists()
    plain = tmp_path / "plain.json"
    assert main(["gen", config, "--out", str(plain), "--quiet"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "first.json", "other.report.json", "plain.json", "plain.json.report.json"
    ]
    # the plain call used the config's seed, not the earlier --seed 3
    seeded = tmp_path / "seeded.json"
    assert main(["gen", config, "--out", str(seeded), "--seed", "2", "--quiet"]) == 0
    assert plain.read_bytes() == seeded.read_bytes() != first.read_bytes()
    assert flowtune.cli._parser() is flowtune.cli._parser()


@pytest.mark.parametrize(
    "argv_builder",
    [
        lambda tmp, torch: ["gen", write(tmp / "c.json", {"nodes": {"source": 2, "pool": 2, "drain": 1}, "seed": 4}), "--out", str(tmp / "g.json"), "--quiet"],
        lambda tmp, torch: ["sim", torch, "--steps", "12", "--runs", "2", "--trace", str(tmp / "t.csv"), "--quiet"],
        lambda tmp, torch: [
            "balance", torch,
            "--objective", write(tmp / "o.json", {"kind": "absolute", "pool": "torch_pool", "value": 44, "step": 10, "sim_length": 10, "runs": 2, "alpha": 0.05, "population": 5, "max_generations": 10, "seed": 6}),
            "--out", str(tmp / "b.json"), "--quiet",
        ],
        lambda tmp, torch: [
            "bench", write(tmp / "s.json", {"graphs": 1, "node_range": [5, 6], "alphas": [0.05], "population": 4, "max_generations": 4, "runs": 2, "seed": 5}),
            "--out", str(tmp / "bench.csv"), "--quiet",
        ],
    ],
    ids=["gen", "sim", "balance", "bench"],
)
def test_outputs_are_byte_identical_across_reruns(tmp_path, torch_file, argv_builder):
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    outputs = {}
    for directory in (first_dir, second_dir):
        directory.mkdir()
        argv = argv_builder(directory, torch_file)
        main(argv)
        outputs[directory] = {
            p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.suffix in (".json", ".csv")
        }
    assert outputs[first_dir] == outputs[second_dir]


#: SHA-256 of known-good outputs for fixed inputs and seeds. Reruns of one
#: version agreeing is not enough: a kernel change that alters an output,
#: or the order in which random numbers are drawn, must fail here.
PINNED_TRACES = {
    "minecraft_torch": "326c04382205823403cc6d5851048544b897e252dc1e7f910df5982c7e963ef1",
    "mage": "ea529bf442faf27d2d934a3d3105a0d68e2c82136e180d1c7661451eb74647fb",
    "archer": "89b471e070e6dbdd22dd83647ad270385c98bf41195fd97a8e283ed68a36483d",
}
PINNED_INTER_PAIR_REPORT = "614a9f8bb20d7e790f53b349ab67bdbada6a0351cf4a41d194ab97fa11517604"


#: A generated economy with random gates and 11 monitored nodes, and the
#: SHA-256 of its trace; the fixture digests above cover only small graphs.
GATED_CONFIG = {"nodes": {"source": 4, "random_gate": 3, "pool": 7, "converter": 3, "drain": 4},
                "max_steps": 20000, "seed": 5}
PINNED_GATED_ECONOMY = "33b58fbac1007512efc49dc73019ce58f513b020afca310cd7e243cf9cdc812c"
PINNED_GATED_TRACE = "ee003ca3a99a3c76aabb61392da350da5007856639dc2441fb9b00b378bad9d8"


def test_generated_gated_trace_matches_pinned_digest(tmp_path):
    economy = tmp_path / "economy.json"
    assert main(["gen", write(tmp_path / "cfg.json", GATED_CONFIG), "--out", str(economy), "--quiet"]) == 0
    assert hashlib.sha256(economy.read_bytes()).hexdigest() == PINNED_GATED_ECONOMY
    graph = load_economy(economy.read_bytes())
    assert len(monitored_node_ids(graph)) >= 8
    assert any(node.kind is NodeKind.RANDOM_GATE for node in graph.nodes)
    trace = tmp_path / "trace.csv"
    argv = ["sim", str(economy), "--steps", "60", "--runs", "4", "--seed", "2", "--trace", str(trace), "--quiet"]
    assert main(argv) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == PINNED_GATED_TRACE


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_sim_trace_matches_pinned_digest(tmp_path, name):
    economy = write(tmp_path / f"{name}.json", fixture_text(name))
    trace = tmp_path / "trace.csv"
    argv = ["sim", economy, "--steps", "40", "--runs", "5", "--seed", "3", "--trace", str(trace)]
    assert main(argv + ["--quiet"]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == PINNED_TRACES[name]


def test_inter_pair_balance_report_matches_pinned_digest(tmp_path):
    archer_file = write(tmp_path / "archer.json", fixture_text("archer"))
    mage_file = write(tmp_path / "mage.json", fixture_text("mage"))
    objective = write(
        tmp_path / "obj.json",
        {
            "kind": "inter_pair", "pool": "damage_pool", "pool2": "damage_pool",
            "step": 20, "sim_length": 25, "runs": 6, "alpha": 0,
            "population": 8, "max_generations": 12, "seed": 11,
        },
    )
    report = tmp_path / "report.json"
    code = main([
        "balance", archer_file, "--second", mage_file, "--objective", objective,
        "--out", str(tmp_path / "a.json"), "--out2", str(tmp_path / "m.json"),
        "--report", str(report), "--quiet",
    ])
    assert code == 2  # not balanced within 12 generations
    assert hashlib.sha256(report.read_bytes()).hexdigest() == PINNED_INTER_PAIR_REPORT
