import hashlib
import random
import tracemalloc

import pytest

from flowtune import generator
from flowtune.model import Node, NodeKind, graph_fitness, is_valid, save_economy
from flowtune.util import dump_json
from flowtune.generator import (
    EdgeListGenome,
    GeneratorConfig,
    build_nodes,
    generate,
    mutate_remove_edge,
    plausible_node_counts,
    random_node_counts,
)

import oracle

K = NodeKind


def genome_over(counts):
    return EdgeListGenome(build_nodes(counts))


def index_of(genome, node_id):
    return [n.id for n in genome.nodes].index(node_id)


def test_try_add_source_to_pool():
    g = genome_over({K.SOURCE: 1, K.POOL: 1})
    assert g.try_add(index_of(g, "source_0"), index_of(g, "pool_0"))
    assert len(g.edges) == 1


def test_try_add_rejects_drain_output():
    g = genome_over({K.DRAIN: 1, K.POOL: 1})
    assert not g.try_add(index_of(g, "drain_0"), index_of(g, "pool_0"))
    assert g.edges == []


def test_try_add_rejects_source_into_converter():
    g = genome_over({K.SOURCE: 1, K.CONVERTER: 1})
    assert not g.try_add(index_of(g, "source_0"), index_of(g, "converter_0"))
    assert g.edges == []


def test_try_add_rejects_duplicates_and_degree_overflow():
    g = genome_over({K.SOURCE: 1, K.POOL: 4})
    s = index_of(g, "source_0")
    assert g.try_add(s, index_of(g, "pool_0"))
    assert not g.try_add(s, index_of(g, "pool_0"))  # duplicate
    assert g.try_add(s, index_of(g, "pool_1"))
    assert g.try_add(s, index_of(g, "pool_2"))
    assert not g.try_add(s, index_of(g, "pool_3"))  # source max out = 3


def test_removing_an_edge_frees_a_full_source():
    g = genome_over({K.SOURCE: 1, K.POOL: 4})
    s = index_of(g, "source_0")
    pools = [index_of(g, f"pool_{i}") for i in range(4)]
    assert all(g.try_add(s, p) for p in pools[:3])
    assert not g.try_add(s, pools[3])  # source max out = 3
    full = g.copy()
    g.remove_index(g.edges.index((s, pools[1])))
    assert g.try_add(s, pools[3])
    assert not g.try_add(s, pools[1])  # full again
    assert not full.try_add(s, pools[3])  # the copy kept its own flags


def test_removing_an_edge_frees_a_full_pool():
    g = genome_over({K.SOURCE: 3, K.POOL: 1})
    sources = [index_of(g, f"source_{i}") for i in range(3)]
    p = index_of(g, "pool_0")
    assert g.try_add(sources[0], p) and g.try_add(sources[1], p)
    assert not g.try_add(sources[2], p)  # pool max in = 2
    g.remove_index(g.edges.index((sources[0], p)))
    assert g.try_add(sources[2], p)
    assert not g.try_add(sources[0], p)  # full again


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_try_add_verdicts_match_oracle_through_removals(seed):
    rng = random.Random(seed)
    for _ in range(15):
        g = EdgeListGenome(build_nodes(any_kinds(rng, rng.randint(5, 30))))
        kinds = [oracle._kind_name(node.kind) for node in g.nodes]
        n, edges = len(kinds), []
        for _ in range(400):
            if edges and rng.random() < 0.2:
                index = rng.randrange(len(edges))
                g.remove_index(index)
                del edges[index]
            else:
                a, b = rng.randrange(n), rng.randrange(n)
                assert g.try_add(a, b) == oracle.try_add(kinds, edges, a, b), (kinds[a], kinds[b], edges)
        assert g.edges == edges
        assert g.fitness == graph_fitness(g.to_graph(normalize=False))


def test_mutate_add_edge_only_ever_adds_allowed_edges():
    rng = random.Random(0)
    g = genome_over({K.SOURCE: 2, K.RANDOM_GATE: 1, K.POOL: 2, K.CONVERTER: 1, K.DRAIN: 1})
    for _ in range(500):
        g.try_add(*rng.sample(range(len(g.nodes)), 2))
    materialized = g.to_graph(normalize=False)
    for node in materialized.nodes:
        assert oracle.max_degree_violations(materialized, node.id) == 0
    # no disallowed neighbor shows up either: violations are only unmet minimums
    assert graph_fitness(materialized) == g.fitness


def test_mutate_remove_edge_probability_zero_is_noop():
    g = genome_over({K.SOURCE: 1, K.POOL: 2})
    g.try_add(0, 1)
    g.try_add(0, 2)
    for seed in range(20):
        before = list(g.edges)
        assert not mutate_remove_edge([g], random.Random(seed), 0.0)
        assert g.edges == before


def test_mutate_remove_edge_removes_exactly_one():
    g = genome_over({K.SOURCE: 1, K.POOL: 3})
    for b in (1, 2, 3):
        g.try_add(0, b)
    assert mutate_remove_edge([g], random.Random(1), 1.0)
    assert len(g.edges) == 2


def test_mutate_remove_edge_on_single_edge_individual():
    g = genome_over({K.SOURCE: 1, K.POOL: 1})
    g.try_add(0, 1)
    assert mutate_remove_edge([g], random.Random(1), 1.0)
    assert g.edges == []
    assert not mutate_remove_edge([g], random.Random(1), 1.0)  # drawn, but no edge to delete


def test_incremental_fitness_matches_graph_fitness_through_mutations():
    rng = random.Random(21)
    for trial in range(10):
        g = genome_over({K.SOURCE: 2, K.RANDOM_GATE: 1, K.POOL: 3, K.CONVERTER: 2, K.DRAIN: 1})
        for _ in range(200):
            g.try_add(*rng.sample(range(len(g.nodes)), 2))
            mutate_remove_edge([g], rng, 0.3)
        assert g.fitness == graph_fitness(g.to_graph(normalize=False))


def test_generate_unique_minimal_topology():
    result = generate(GeneratorConfig({K.SOURCE: 1, K.POOL: 1, K.DRAIN: 1}, seed=2))
    assert result.valid
    assert is_valid(result.graph)
    assert {(e.src, e.dst) for e in result.graph.edges} == {
        ("source_0", "pool_0"),
        ("pool_0", "drain_0"),
    }


def test_generate_reports_failure_for_unwirable_multiset():
    config = GeneratorConfig({K.RANDOM_GATE: 1, K.POOL: 2}, max_steps=400, seed=2)
    result = generate(config)
    assert result == generate(config)
    assert not result.valid
    assert result.fitness >= 1
    assert result.generations == 400
    assert result.report_dict() == {"valid": False, "generations": 400, "final_fitness": result.fitness}


def test_generate_is_deterministic():
    config = GeneratorConfig({K.SOURCE: 2, K.POOL: 3, K.CONVERTER: 1, K.DRAIN: 1}, seed=77)
    a = generate(config)
    b = generate(config)
    assert a.valid
    assert a == b
    assert save_economy(a.graph) == save_economy(b.graph)


def test_generated_graphs_satisfy_oracle():
    rng = random.Random(31)
    for i in range(10):
        counts = random_node_counts(rng, 5, 14)
        result = generate(GeneratorConfig(counts, seed=600 + i))
        if result.valid:
            assert is_valid(result.graph)
            assert oracle.count_violations(result.graph) == 0
            produced = {k.value: 0 for k in counts}
            for node in result.graph.nodes:
                produced[node.kind.value] = produced.get(node.kind.value, 0) + 1
            assert produced == {k.value: v for k, v in counts.items()}


def test_best_fitness_nonincreasing_without_removals():
    for seed in range(5):
        config = GeneratorConfig(
            {K.SOURCE: 2, K.RANDOM_GATE: 1, K.POOL: 3, K.CONVERTER: 2, K.DRAIN: 1},
            remove_probability=0.0,
            max_steps=3000,
            seed=seed,
        )
        history = generate(config).fitness_history
        assert all(b <= a for a, b in zip(history, history[1:]))


def test_random_node_counts_bounds_and_required_kinds():
    rng = random.Random(4)
    for _ in range(100):
        counts = random_node_counts(rng, 5, 20)
        total = sum(counts.values())
        assert 5 <= total <= 20
        assert counts.get(K.SOURCE, 0) >= 1
        assert counts.get(K.POOL, 0) >= 1
        assert plausible_node_counts(counts)


def test_random_node_counts_refuses_bounds_before_drawing():
    bounds = [(2, 5.0), (2.5, 5), (True, 5), (2, True), ("2", 5), (None, 5), (1, 5), (6, 5)]
    bounds += [(2, generator.MAX_NODES + 1), (2, 10**18)]  # refused before a list of hi kinds is built
    for lo, hi in bounds:
        rng = random.Random(3)
        with pytest.raises(ValueError):
            random_node_counts(rng, lo, hi)
        assert rng.getstate() == random.Random(3).getstate(), (lo, hi)


def test_random_node_counts_deterministic():
    a = [random_node_counts(random.Random(9)) for _ in range(5)]
    b = [random_node_counts(random.Random(9)) for _ in range(5)]
    assert a == b


def test_plausible_node_counts_rejects_known_impossible_multisets():
    # proven unwirable by exhaustive search
    assert not plausible_node_counts({K.SOURCE: 3, K.RANDOM_GATE: 3, K.POOL: 1, K.DRAIN: 1})
    assert not plausible_node_counts({K.RANDOM_GATE: 1, K.POOL: 2})
    assert plausible_node_counts({K.SOURCE: 1, K.POOL: 1, K.DRAIN: 1})


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig({K.SOURCE: 1})  # fewer than two nodes
    with pytest.raises(ValueError):
        GeneratorConfig({K.SOURCE: 1, K.POOL: 1}, population_size=0)
    with pytest.raises(ValueError):
        GeneratorConfig({K.SOURCE: 1, K.POOL: 1}, remove_probability=1.5)
    with pytest.raises(ValueError):
        GeneratorConfig({K.SOURCE: -1, K.POOL: 3})
    with pytest.raises(ValueError, match="^unknown node kind 'pool'$"):
        GeneratorConfig({"pool": 3})  # a kind's value, not the kind


def test_build_nodes_ids_are_stable():
    nodes = build_nodes({K.SOURCE: 2, K.POOL: 1})
    assert [n.id for n in nodes] == ["source_0", "source_1", "pool_0"]


def any_kinds(rng: random.Random, n: int) -> dict:
    """n nodes of uniformly drawn kinds, fixed pools included; often unwirable."""
    counts = {}
    for _ in range(n):
        kind = rng.choice(list(K))
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def reference_configs(seed: int, count: int = 38) -> list:
    """Search configs for the reference comparison: 2-40 nodes (both of
    sample's branches), fixed pools, unwirable multisets, population 1-12,
    removal probability 0, 0.1 or 1, and at most 300 steps."""
    rng = random.Random(seed)
    configs = []
    for i in range(count):
        if i % 3 == 0:  # a plausible multiset, some of its pools fixed
            counts = random_node_counts(rng, 3, 40)
            fixed = rng.randint(0, counts[K.POOL] - 1)
            counts[K.POOL] -= fixed
            counts[K.FIXED_POOL] = fixed
        else:  # every third one tiny
            counts = any_kinds(rng, rng.randint(2, 6) if i % 3 == 1 else rng.randint(2, 40))
        configs.append(
            GeneratorConfig(
                counts,
                population_size=rng.randint(1, 12),
                max_steps=rng.randint(1, 300),
                remove_probability=rng.choice((0.0, 0.1, 1.0)),
                seed=rng.randrange(10**6),
            )
        )
    return configs


def search_outcome(config) -> tuple:
    result = generate(config)
    edges = [(e.src, e.dst) for e in result.graph.edges]
    return result.valid, result.generations, result.fitness, result.fitness_history, edges


def reference_outcome(config) -> tuple:
    return oracle.reference_generate(
        config.node_counts, config.population_size, config.max_steps, config.remove_probability, config.seed
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_generate_matches_reference_search(seed):
    # the reference draws each pair with rng.sample(range(n), 2) itself, so this
    # also holds generate's inline draw to sample's pairs and random stream
    configs = reference_configs(seed)
    sizes = [sum(c.node_counts.values()) for c in configs]
    assert min(sizes) <= 21 < max(sizes)
    assert any(c.node_counts.get(K.FIXED_POOL) for c in configs)
    outcomes = []
    for config in configs:
        outcome = search_outcome(config)
        assert outcome == reference_outcome(config), config
        outcomes.append(outcome[0])
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_generate_draws_like_random_sample(seed):
    # every size on both sides of sample's switch at n = 21
    for n in range(2, 60):
        counts = any_kinds(random.Random(seed * 1000 + n), n)
        config = GeneratorConfig(counts, population_size=1 + n % 4, max_steps=25, seed=seed * 1000 + n)
        assert search_outcome(config) == reference_outcome(config), n


def test_reference_search_catches_a_dropped_kind_pair(monkeypatch):
    kinds = generator._TABLE_KINDS
    table = bytearray(generator._KIND_PAIRS)
    dropped = kinds.index(K.POOL) * len(kinds) + kinds.index(K.DRAIN)
    assert table[dropped]
    table[dropped] = 0
    monkeypatch.setattr(generator, "_KIND_PAIRS", bytes(table))
    assert any(search_outcome(c) != reference_outcome(c) for c in reference_configs(0))


@pytest.mark.parametrize("src", list(K))
def test_kind_pair_table_matches_oracle_rules(src):
    name = oracle._kind_name
    for dst in K:
        _, _, _, _, _, allowed_out = oracle.RULES[name(src)]
        _, _, _, _, allowed_in, _ = oracle.RULES[name(dst)]
        expected = name(dst) in allowed_out and name(src) in allowed_in
        genome = EdgeListGenome((Node("a", src), Node("b", dst)))
        assert generator._KIND_PAIRS[genome._row[0] + genome._col[1]] == expected, (src, dst)
        # no degree bound binds on an empty genome, so only the kinds decide
        assert genome.try_add(0, 1) == expected, (src, dst)


def test_generate_memory_is_linear_in_node_count():
    config = GeneratorConfig({K.SOURCE: 2000, K.POOL: 2000}, max_steps=3)
    tracemalloc.start()
    try:
        generate(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


#: SHA-256 of the economy and report bytes that `flowtune gen` writes for
#: two multisets, on either side of the node count (21) where the pair draw
#: changes method. No perfbench workload generates more than 20 nodes.
PINNED_GENERATIONS = {
    21: (
        {K.SOURCE: 4, K.RANDOM_GATE: 3, K.POOL: 7, K.CONVERTER: 3, K.DRAIN: 4}, 5,
        "33b58fbac1007512efc49dc73019ce58f513b020afca310cd7e243cf9cdc812c",
        "159c729fd4165e0e0b60be14dafb3a333b06e41a30ffa882b6104e82582180a8",
    ),
    30: (
        {K.SOURCE: 6, K.RANDOM_GATE: 4, K.POOL: 10, K.CONVERTER: 5, K.DRAIN: 5}, 8,
        "b343bc632cf0b681abfc9670309838b8278568aa4fc61fbb470117583853ffaf",
        "7562132b01ea90e1f7859a19702ca2a5aa129400c4e6481fcd810213880b1c9a",
    ),
}


@pytest.mark.parametrize("size", sorted(PINNED_GENERATIONS))
def test_generate_matches_pinned_digest(size):
    counts, seed, economy_digest, report_digest = PINNED_GENERATIONS[size]
    assert sum(counts.values()) == size
    result = generate(GeneratorConfig(counts, max_steps=20000, seed=seed))
    assert hashlib.sha256(save_economy(result.graph)).hexdigest() == economy_digest
    assert hashlib.sha256(dump_json(result.report_dict())).hexdigest() == report_digest
