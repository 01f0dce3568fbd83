import csv
import decimal
import errno
import hashlib
import io
import json
import os
import stat
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import flowtune.cli
from flowtune.cli import main
from flowtune.fixtures import FIXTURE_NAMES, fixture_text
from flowtune.model import NodeKind, is_valid, load_economy
from flowtune.sim import ensemble_to_csv, monitored_node_ids, simulate_ensemble

import oracle
from conftest import count_kernel_calls


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


def test_sim_prints_means_of_amounts_above_2_53_exactly(tmp_path, capsys):
    big = 2**53 + 1  # a float holds neither it nor its multiples
    single = write(tmp_path / "single.json", {
        "nodes": [{"id": "s", "kind": "source"}, {"id": "p", "kind": "pool"}],
        "edges": [{"from": "s", "to": "p", "weight": big}],
    })
    assert main(["sim", single, "--steps", "3"]) == 0
    assert capsys.readouterr().out == "p: 27021597764222979.000 ± 0.000\n"
    # a gate splits the batches, so the means over 3 runs can have thirds
    finals, out = _sim_big_gated_economy(tmp_path, capsys)
    means = {}
    with decimal.localcontext(decimal.Context(prec=40)):
        for node_id, amounts in finals.items():
            means[node_id] = (decimal.Decimal(sum(amounts)) / len(amounts)).quantize(decimal.Decimal("0.001"))
    assert [line.split(" ± ")[0] for line in out] == [f"{node_id}: {means[node_id]}" for node_id in ("left", "right")]
    assert any(not str(mean).endswith(".000") for mean in means.values())


def test_sim_prints_stddevs_of_amounts_above_2_53_exactly(tmp_path, capsys):
    finals, out = _sim_big_gated_economy(tmp_path, capsys)
    stddevs = {}
    with decimal.localcontext(decimal.Context(prec=60)):
        for node_id, amounts in finals.items():
            mean = decimal.Decimal(sum(amounts)) / len(amounts)
            variance = sum((amount - mean) ** 2 for amount in amounts) / len(amounts)
            stddevs[node_id] = variance.sqrt().quantize(decimal.Decimal("0.001"))
    assert [line.split(" ± ")[1] for line in out] == [str(stddevs[node_id]) for node_id in ("left", "right")]
    assert all(not str(stddev).endswith(".000") for stddev in stddevs.values())  # a float gave .000


def _sim_big_gated_economy(tmp_path, capsys) -> tuple:
    """Final amounts per pool, from the trace, and the printed summary lines of
    `sim --steps 4 --runs 3 --seed 2` on a gate fed batches of 2**53 + 5."""
    gated = write(tmp_path / "gated.json", {
        "nodes": [{"id": "s", "kind": "source"}, {"id": "g", "kind": "random_gate"},
                  {"id": "left", "kind": "pool"}, {"id": "right", "kind": "pool"}],
        "edges": [{"from": "s", "to": "g", "weight": 2**53 + 5}, {"from": "g", "to": "left", "weight": 1},
                  {"from": "g", "to": "right", "weight": 1}],
    })
    trace = tmp_path / "trace.csv"
    assert main(["sim", gated, "--steps", "4", "--runs", "3", "--seed", "2", "--trace", str(trace)]) == 0
    finals = {}
    for line in trace.read_text().splitlines()[1:]:
        run, step, node_id, amount = line.split(",")
        if step == "4":
            finals.setdefault(node_id, []).append(int(amount))
    return finals, capsys.readouterr().out.splitlines()


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


#: Pool ids a CSV field must quote (a comma, a quote, CR, LF), and a %,
#: which a bytes template must not read as a conversion.
QUOTED_IDS = ["d,x", 'say "hi"', "cr\rid", "lf\nid", "crlf\r\nid", "100% %d %s"]


def quoted_id_economy(tmp_path) -> str:
    """A gated economy whose pools hold QUOTED_IDS, with one plain drain: each
    of two sources feeds a gate that routes to three of the pools, the first
    of which feeds the drain."""
    nodes = [{"id": "z", "kind": "drain"}] + [{"id": pool, "kind": "pool"} for pool in QUOTED_IDS]
    edges = []
    for i in range(2):
        nodes += [{"id": f"s{i}", "kind": "source"}, {"id": f"g{i}", "kind": "random_gate"}]
        edges += [{"from": f"s{i}", "to": f"g{i}", "weight": 3 + i}, {"from": QUOTED_IDS[3 * i], "to": "z", "weight": 1}]
        edges += [{"from": f"g{i}", "to": pool, "weight": 1.0} for pool in QUOTED_IDS[3 * i:3 * i + 3]]
    return write(tmp_path / "quoted.json", {"nodes": nodes, "edges": edges})


def test_trace_quotes_ids_as_the_csv_module_does(tmp_path):
    economy = quoted_id_economy(tmp_path)
    trace = tmp_path / "trace.csv"
    assert main(["sim", economy, "--steps", "4", "--runs", "3", "--seed", "1", "--trace", str(trace), "--quiet"]) == 0
    text = trace.read_bytes().decode("utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["run", "step", "node_id", "amount"]
    ids = sorted(QUOTED_IDS + ["z"])
    lines = [[str(run), str(t), node_id] for run in range(3) for t in range(5) for node_id in ids]
    assert [row[:3] for row in rows[1:]] == lines and {len(row) for row in rows[1:]} == {4}
    ensemble = simulate_ensemble(load_economy(Path(economy).read_bytes()), 4, 3, 1)
    assert text == ensemble_to_csv(ensemble) == oracle.trace_csv(ensemble)


def test_unencodable_id_fails_before_any_run(tmp_path, capsys, monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    economy = write(tmp_path / "surrogate.json", {
        "nodes": [{"id": "s", "kind": "source"}, {"id": "p\ud800", "kind": "pool"}],
        "edges": [{"from": "s", "to": "p\ud800", "weight": 2}],
    })
    trace = tmp_path / "trace.csv"
    assert main(["sim", economy, "--steps", "3", "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"flowtune: {economy}: ") and repr("p\ud800") in captured.err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["surrogate.json"]


def fail_after_first_run(monkeypatch):
    """Make every trace written from now on fail, as a full disk would, once
    the header and the first run's chunk are written."""
    real = flowtune.cli.csv_writer

    def failing(monitored, length):
        chunks = real(monitored, length)

        def fail(runs):
            for i, chunk in enumerate(chunks(runs)):
                if i == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                yield chunk

        return fail

    monkeypatch.setattr(flowtune.cli, "csv_writer", failing)


@pytest.mark.parametrize("existing", [None, b"an older trace\n"], ids=["new", "existing"])
def test_failed_trace_write_leaves_nothing_behind(tmp_path, capsys, monkeypatch, existing):
    economy = write(tmp_path / "archer.json", fixture_text("archer"))
    trace = tmp_path / "trace.csv"
    if existing is not None:
        trace.write_bytes(existing)
    before = sorted(tmp_path.iterdir())
    fail_after_first_run(monkeypatch)
    assert main(["sim", economy, "--steps", "30", "--runs", "10", "--trace", str(trace), "--quiet"]) == 2
    assert capsys.readouterr().err == f"flowtune: cannot write {trace}: No space left on device\n"
    assert sorted(tmp_path.iterdir()) == before
    assert (trace.read_bytes() if trace.exists() else None) == existing
    # a directory that is not there: one line, and nothing made
    missing = tmp_path / "missing_dir" / "t.csv"
    assert main(["sim", economy, "--steps", "30", "--trace", str(missing), "--quiet"]) == 2
    assert capsys.readouterr().err == f"flowtune: cannot write {missing}: No such file or directory\n"
    assert sorted(tmp_path.iterdir()) == before


def test_trace_gets_a_new_file_mode_and_writes_through_a_symlink(tmp_path):
    economy = write(tmp_path / "archer.json", fixture_text("archer"))
    umask = os.umask(0o22)
    os.umask(umask)
    argv = ["sim", economy, "--steps", "5", "--runs", "2", "--quiet", "--trace"]
    assert main(argv + [str(tmp_path / "trace.csv")]) == 0
    assert stat.S_IMODE((tmp_path / "trace.csv").stat().st_mode) == 0o666 & ~umask
    # a symlink is written through, as a plain write would, and stays a symlink
    (tmp_path / "link.csv").symlink_to(tmp_path / "target.csv")
    assert main(argv + [str(tmp_path / "link.csv")]) == 0
    assert (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "target.csv").read_bytes() == (tmp_path / "trace.csv").read_bytes()


def test_trace_name_near_the_length_limit_is_written(tmp_path):
    """The temporary file's name has a fixed length, so a 244-byte trace name,
    which fits where a name grown by the target's own would not, is written
    as a short one is, and leaves only the trace behind."""
    economy = write(tmp_path / "archer.json", fixture_text("archer"))
    argv = ["sim", economy, "--steps", "5", "--runs", "2", "--quiet", "--trace"]
    assert main(argv + [str(tmp_path / "t.csv")]) == 0
    out = tmp_path / "out"
    out.mkdir()
    name = "t" * 240 + ".csv"
    assert len(name.encode()) == 244
    assert main(argv + [str(out / name)]) == 0
    assert (out / name).read_bytes() == (tmp_path / "t.csv").read_bytes()
    assert [p.name for p in out.iterdir()] == [name]


def test_trace_is_written_into_a_fifo_in_place(tmp_path):
    economy = write(tmp_path / "archer.json", fixture_text("archer"))
    argv = ["sim", economy, "--steps", "5", "--runs", "2", "--quiet", "--trace"]
    assert main(argv + [str(tmp_path / "trace.csv")]) == 0
    out = tmp_path / "out"
    out.mkdir()
    fifo = out / "trace.csv"
    os.mkfifo(fifo)
    read = []

    def reader():
        with open(fifo, "rb") as pipe:
            read.append(pipe.read())

    # a daemon, joined with a timeout: a write that misses the FIFO fails the test instead of hanging it
    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    code = main(argv + [str(fifo)])
    thread.join(timeout=10)
    assert code == 0 and not thread.is_alive()
    assert read == [(tmp_path / "trace.csv").read_bytes()]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert [p.name for p in out.iterdir()] == ["trace.csv"]


def test_trace_memory_does_not_grow_with_runs(tmp_path):
    """sim --trace holds one run at a time and each run's amounts at --steps:
    its peak at 400 runs stays below twice its peak at 50 (with the whole
    table in memory it was about 8 times it)."""
    economy = write(tmp_path / "archer.json", fixture_text("archer"))
    trace = str(tmp_path / "trace.csv")
    main(["sim", economy, "--steps", "3", "--trace", trace, "--quiet"])  # imports and first-use caches
    peaks = {}
    for runs in (50, 400):
        tracemalloc.start()
        try:
            assert main(["sim", economy, "--steps", "100", "--runs", str(runs), "--trace", trace, "--quiet"]) == 0
            peaks[runs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[400] < 2 * peaks[50], peaks


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


@pytest.mark.parametrize(
    "command, outputs, options",
    [
        ("gen", ["--out", "e.json", "--report", "e.json"], ("--out", "--report")),
        ("gen", ["--out", "e.json", "--report", "sub/../e.json"], ("--out", "--report")),
        ("balance", ["--out", "b.json", "--report", "link.json"], ("--out", "--report")),
        ("inter", ["--out", "b.json", "--out2", "b.json"], ("--out", "--out2")),
        ("inter", ["--out", "b.json", "--out2", "b.json.report.json"], ("--out2", "--report")),  # the default report
        ("bench", ["--out", "b.csv", "--json", "b.csv"], ("--out", "--json")),
    ],
    ids=["gen", "gen-dotdot", "balance-symlink", "inter-out2", "inter-default-report", "bench"],
)
def test_two_outputs_naming_one_file_are_refused(tmp_path, capsys, monkeypatch, command, outputs, options):
    def refuse(*args, **kwargs):
        raise AssertionError("the outputs were not checked before the work started")

    for name in ("generate", "balance", "run_benchmark"):
        monkeypatch.setattr(flowtune.cli, name, refuse)
    inputs = tmp_path / "in"
    inputs.mkdir()
    objective = {"pool": "damage_pool", "step": 3, "sim_length": 3}
    argv = {
        "gen": ["gen", write(inputs / "c.json", {"nodes": {"source": 1, "pool": 1, "drain": 1}})],
        "balance": ["balance", write(inputs / "a.json", fixture_text("archer")), "--objective",
                    write(inputs / "o.json", {"kind": "absolute", "value": 5, **objective})],
        "inter": ["balance", write(inputs / "m.json", fixture_text("mage")), "--second",
                  write(inputs / "a.json", fixture_text("archer")), "--objective",
                  write(inputs / "o.json", {"kind": "inter_pair", "pool2": "damage_pool", **objective})],
        "bench": ["bench", write(inputs / "s.json", {"graphs": 1})],
    }[command]
    work = tmp_path / "work"
    work.mkdir()
    (work / "link.json").symlink_to("b.json")
    monkeypatch.chdir(work)
    assert main(argv + outputs + ["--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"flowtune: error: {options[0]} and {options[1]} ") and err.count("\n") == 1
    assert os.listdir(work) == ["link.json"]


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


#: A search that fails: the 30-node multiset of test_generator's pinned
#: digests with a 200-step budget, so gen writes the best individual seen
#: (41 edges, 4 unmet minimum degrees) and exits 2.
FAILING_CONFIG = {"nodes": {"source": 6, "random_gate": 4, "pool": 10, "converter": 5, "drain": 5},
                  "max_steps": 200, "seed": 8}
PINNED_FAILED_ECONOMY = "7d8e81ccbe2cd2ea0c438771db61723e6ac6d7a3e56c4d01d2ba5447ef767fa5"
PINNED_FAILED_REPORT = "6f8e55a63ed977c7623d9977ed6e811131255dbb95a3255fbb771223ea8cf989"


def test_failed_search_matches_pinned_digest(tmp_path):
    economy, report = tmp_path / "economy.json", tmp_path / "report.json"
    argv = ["gen", write(tmp_path / "cfg.json", FAILING_CONFIG), "--out", str(economy), "--report", str(report), "--quiet"]
    assert main(argv) == 2
    assert json.loads(report.read_bytes()) == {"valid": False, "generations": 200, "final_fitness": 4}
    assert len(load_economy(economy.read_bytes()).edges) == 41
    assert hashlib.sha256(economy.read_bytes()).hexdigest() == PINNED_FAILED_ECONOMY
    assert hashlib.sha256(report.read_bytes()).hexdigest() == PINNED_FAILED_REPORT


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
