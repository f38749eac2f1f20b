"""Graph construction, generators, graph6 codec, and the exact solver."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indsets import graphs
from indsets.graphs import (
    Graph,
    GraphError,
    build_graph,
    component_masks,
    disjoint_union,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_petersen,
    gen_random_regular,
    graph_stats,
    is_independent,
    is_union_of_equal_cliques,
    mask_of,
    mask_vertices,
    max_independent_set,
    parse_graph6,
    write_graph6,
)
from indsets.polynomial import brute_force_polynomial


def brute_alpha(g):
    """Independent oracle: largest independent set by subset enumeration."""
    best = 0
    for s in range(1 << g.n):
        if is_independent(g, s):
            best = max(best, s.bit_count())
    return best


def edge_list(g):
    """Each edge (u, v) of g once, with u < v."""
    return [(u, v) for v in range(g.n) for u in mask_vertices(g.adj[v] & ((1 << v) - 1))]


def nx_graph(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(edge_list(g))
    return nxg


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return build_graph(n, edges)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_build_graph_k2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.edge_count() == 1
    assert g.adj == (0b10, 0b01)


def test_build_graph_c5():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g.edge_count() == 5
    assert all(g.adj[v].bit_count() == 2 for v in range(5))


def test_build_graph_k1():
    g = build_graph(1, [])
    assert g.n == 1 and g.edge_count() == 0


def test_build_graph_collapses_duplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_build_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        build_graph(200, [])


def test_graph_invariants_enforced():
    with pytest.raises(GraphError):
        Graph(2, (0b10, 0b00))  # asymmetric
    with pytest.raises(GraphError):
        Graph(2, (0b01, 0b10))  # loops
    with pytest.raises(GraphError):
        Graph(2, (0b110, 0b01))  # bits beyond range
    edge = Graph(2, (0b10, 0b01))
    with pytest.raises(GraphError):
        edge._replace(adj=(0b10, 0b00))  # a copy is checked as a new graph
    with pytest.raises(AttributeError):
        edge.n = 3  # immutable


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_complete_bipartite_small():
    assert gen_complete_bipartite(1).edge_count() == 1
    g2 = gen_complete_bipartite(2)
    assert g2.n == 4 and g2.edge_count() == 4
    assert all(g2.adj[v].bit_count() == 2 for v in range(4))
    g3 = gen_complete_bipartite(3)
    assert g3.n == 6 and g3.edge_count() == 9
    assert g3.regular_degree() == 3
    with pytest.raises(GraphError):
        gen_complete_bipartite(0)


def test_cycle_and_complete():
    assert gen_cycle(5).edge_count() == 5
    assert gen_complete(3) == gen_cycle(3)
    with pytest.raises(GraphError):
        gen_cycle(2)
    with pytest.raises(GraphError):
        gen_complete(0)


def shortest_cycle(g):
    # BFS from each vertex over explicit edges; good enough for 10 vertices.
    best = None
    edges = edge_list(g)
    for start in range(g.n):
        for u, v in edges:
            # length of shortest u-v path avoiding the edge itself, plus 1
            if start != u:
                continue
            dist = {u: 0}
            frontier = [u]
            banned = {(u, v), (v, u)}
            while frontier:
                nxt = []
                for a in frontier:
                    for b in mask_vertices(g.adj[a]):
                        if (a, b) in banned or b in dist:
                            continue
                        dist[b] = dist[a] + 1
                        nxt.append(b)
                frontier = nxt
            if v in dist:
                cyc = dist[v] + 1
                best = cyc if best is None else min(best, cyc)
    return best


def test_petersen():
    g = gen_petersen()
    assert g.n == 10 and g.edge_count() == 15
    assert g.regular_degree() == 3
    assert shortest_cycle(g) == 5


def test_random_regular_k4():
    for seed in range(5):
        g = gen_random_regular(4, 3, seed)
        assert g == gen_complete(4)


def test_random_regular_two_regular_is_cycle_union():
    g = gen_random_regular(6, 2, 11)
    assert g.regular_degree() == 2
    comps = component_masks(g.adj, g.full_mask)
    assert sum(c.bit_count() for c in comps) == 6
    assert all(c.bit_count() >= 3 for c in comps)


def test_random_regular_cubic_degrees():
    g = gen_random_regular(10, 3, 5)
    assert g.regular_degree() == 3


def test_random_regular_deterministic():
    assert gen_random_regular(12, 3, 42) == gen_random_regular(12, 3, 42)
    assert gen_random_regular(12, 3, 42) != gen_random_regular(12, 3, 43)


def test_random_regular_rejects_bad_params():
    with pytest.raises(GraphError):
        gen_random_regular(5, 3, 0)  # odd n*d
    with pytest.raises(GraphError):
        gen_random_regular(3, 3, 0)  # d >= n


def _sequential_pairing_reference(n, d, seed, cap=graphs.RANDOM_REGULAR_RETRY_CAP):
    """Reference copy of the generator built on rng.randrange and edge sets.

    Returns (graph, attempts), or raises GraphError with the generator's message.
    """
    k = min(d, n - 1 - d)
    rng = random.Random(seed)
    for attempt in range(1, cap + 1):
        stubs = [v for v in range(n) for _ in range(k)]
        edges = set()
        while stubs:
            u = stubs.pop()
            j = rng.randrange(len(stubs))
            v = stubs[j]
            stubs[j] = stubs[-1]
            stubs.pop()
            if u == v or frozenset((u, v)) in edges:
                break
            edges.add(frozenset((u, v)))
        else:
            if k != d:
                edges = {frozenset(e) for e in itertools.combinations(range(n), 2)} - edges
            return build_graph(n, [tuple(e) for e in edges]), attempt
    raise GraphError(
        f"no simple {d}-regular graph on {n} vertices found in {cap} pairing attempts"
    )


def test_random_regular_matches_sequential_pairing_reference():
    triples = [
        (n, d, seed)
        for d, sizes, seeds in (
            (3, range(4, 31, 2), range(15)),
            (4, range(5, 25), range(15)),
            (5, range(6, 15, 2), range(4)),
        )
        for n in sizes
        for seed in seeds
    ]
    assert len(triples) >= 500
    restarts = []
    for n, d, seed in triples:
        expected, attempts = _sequential_pairing_reference(n, d, seed)
        assert gen_random_regular(n, d, seed) == expected, (n, d, seed)
        restarts.append(attempts - 1)
    # The comparison covers seeds whose first pairings are rejected, not only
    # first-attempt successes.
    assert sum(r >= 10 for r in restarts) >= 50


def test_random_regular_retry_cap_message(monkeypatch):
    monkeypatch.setattr(graphs, "RANDOM_REGULAR_RETRY_CAP", 3)
    with pytest.raises(GraphError) as err:
        gen_random_regular(20, 7, 1)
    assert str(err.value) == (
        "no simple 7-regular graph on 20 vertices found in 3 pairing attempts"
    )
    with pytest.raises(GraphError) as ref:
        _sequential_pairing_reference(20, 7, 1, cap=3)
    assert str(ref.value) == str(err.value)


def _labelled_regular_graphs(n, d):
    """Every d-regular graph on vertices 0..n-1, by enumerating edge sets."""
    found = []
    for edges in itertools.combinations(itertools.combinations(range(n), 2), n * d // 2):
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
        if all(x == d for x in degrees):
            found.append(build_graph(n, edges))
    return found


@pytest.mark.parametrize(
    "d, count, samples, critical",
    [
        # critical: the 0.999 quantile of chi-square with count - 1 degrees of freedom
        (3, 70, 7000, 111.06),
        (4, 15, 1500, 36.12),  # 2d > n - 1: drawn as the complement of a matching
    ],
)
def test_random_regular_is_uniform_on_six_vertices(d, count, samples, critical):
    labelled = _labelled_regular_graphs(6, d)
    assert len(labelled) == count
    freq = dict.fromkeys(labelled, 0)
    for seed in range(samples):
        freq[gen_random_regular(6, d, seed)] += 1
    expected = samples / count
    chi_square = sum((f - expected) ** 2 / expected for f in freq.values())
    assert min(freq.values()) > 0
    assert chi_square < critical, chi_square


def test_random_regular_complement_delivers_dense_degrees():
    for seed in range(20):
        g = gen_random_regular(20, 15, seed)
        assert g.regular_degree() == 15
    assert gen_random_regular(7, 4, 3).regular_degree() == 4
    assert gen_random_regular(9, 8, 0) == gen_complete(9)


def test_random_regular_rejects_size_beyond_capacity():
    assert gen_random_regular(64, 3, 1).n == 64
    with pytest.raises(GraphError, match="exceeds capacity"):
        gen_random_regular(100, 3, 1)


def test_complete_rejects_size_beyond_capacity():
    assert gen_complete(64).n == 64
    with pytest.raises(GraphError, match="exceeds capacity"):
        gen_complete(70)


def test_complete_bipartite_rejects_size_beyond_capacity():
    assert gen_complete_bipartite(32).n == 64
    with pytest.raises(GraphError, match="exceeds capacity"):
        gen_complete_bipartite(40)


def test_disjoint_union():
    g = disjoint_union(build_graph(2, [(0, 1)]), build_graph(2, [(0, 1)]))
    assert g.n == 4 and g.edge_count() == 2
    comps = component_masks(g.adj, g.full_mask)
    assert comps == [0b0011, 0b1100]
    k22 = gen_complete_bipartite(2)
    u = disjoint_union(k22, k22)
    assert u.n == 8 and u.regular_degree() == 2
    assert disjoint_union(build_graph(1, []), build_graph(0, [])) == build_graph(1, [])
    with pytest.raises(GraphError):
        disjoint_union(gen_complete(40), gen_complete(40))


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def test_graph6_known_strings():
    assert parse_graph6("@") == build_graph(1, [])
    assert parse_graph6("A_") == build_graph(2, [(0, 1)])
    assert write_graph6(build_graph(1, [])) == "@"
    assert write_graph6(build_graph(2, [(0, 1)])) == "A_"
    assert parse_graph6("A?") == build_graph(2, [])


def test_graph6_accepts_prefix_and_newline():
    assert parse_graph6(">>graph6<<A_\n") == build_graph(2, [(0, 1)])


def test_graph6_rejects_malformed():
    bad_inputs = [
        "",  # no header
        "A",  # missing body
        "A_x",  # trailing garbage
        "A\x1f",  # byte below printable range
        "~??",  # truncated long-form size
        "B~",  # nonzero padding bits
        "~??A" + "?" * 100,  # non-canonical long-form size (n = 2)
    ]
    for bad in bad_inputs:
        with pytest.raises(GraphError):
            parse_graph6(bad)


def test_graph6_matches_reference_encoder():
    for g, nxg in [
        (gen_cycle(5), nx.cycle_graph(5)),
        (gen_complete(7), nx.complete_graph(7)),
        (gen_petersen(), nx.petersen_graph()),
        (gen_complete_bipartite(3), nx.complete_bipartite_graph(3, 3)),
    ]:
        ref = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert write_graph6(g) == ref
        assert parse_graph6(ref) == g


@given(st.integers(0, 20), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_graph6_round_trip(n, seed):
    g = random_graph(n, 0.4, seed)
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_round_trip_at_capacity():
    # 63 and 64 vertices exercise the multi-character size header.
    for n in (63, 64):
        g = random_graph(n, 0.3, seed=n)
        line = write_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g
        assert line == nx.to_graph6_bytes(nx_graph(g), header=False).decode().strip()


def test_graph6_rejects_size_beyond_capacity():
    # Header encodes n = 100; the parser must refuse before reading the body.
    header_100 = "~" + "".join(chr(63 + ((100 >> s) & 63)) for s in (12, 6, 0))
    with pytest.raises(GraphError):
        parse_graph6(header_100 + "?" * 825)


@given(st.integers(2, 14), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_graph6_cross_reference_random(n, seed):
    g = random_graph(n, 0.5, seed)
    ref = nx.to_graph6_bytes(nx_graph(g), header=False).decode().strip()
    assert write_graph6(g) == ref


# ---------------------------------------------------------------------------
# Exact independence number
# ---------------------------------------------------------------------------


def test_mis_examples():
    assert max_independent_set(gen_cycle(5)).bit_count() == 2
    for d in (1, 2, 3, 4):
        assert max_independent_set(gen_complete_bipartite(d)).bit_count() == d
    for n in (1, 2, 5):
        assert max_independent_set(gen_complete(n)).bit_count() == 1


def test_mis_returns_independent_witness():
    g = gen_petersen()
    witness = max_independent_set(g)
    assert is_independent(g, witness)
    assert witness.bit_count() == 4


def test_mis_deterministic_witness():
    g = gen_random_regular(14, 3, 3)
    assert max_independent_set(g) == max_independent_set(g)


@given(st.integers(0, 12), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_mis_matches_brute_force(n, p, seed):
    g = random_graph(n, p, seed)
    assert max_independent_set(g).bit_count() == brute_alpha(g)


def networkx_alpha(g):
    """Independent oracle: maximum clique of the complement, by networkx."""
    return nx.max_weight_clique(nx.complement(nx_graph(g)), weight=None)[1]


@given(st.integers(0, 20), st.sampled_from([0.1, 0.2, 0.35, 0.6]), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_mis_size_is_the_polynomial_degree(n, p, seed):
    g = random_graph(n, p, seed)
    witness = max_independent_set(g)
    assert is_independent(g, witness)
    assert max_independent_set(g) == witness
    assert witness.bit_count() == brute_force_polynomial(g).degree


@given(st.integers(25, 48), st.sampled_from([0.05, 0.1, 0.2, 0.4]), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_mis_matches_networkx_clique_search(n, p, seed):
    g = random_graph(n, p, seed)
    witness = max_independent_set(g)
    assert is_independent(g, witness)
    assert witness.bit_count() == networkx_alpha(g)


def test_mis_matches_networkx_clique_search_on_regular_graphs():
    for n, d, seed in [(26, 3, 1), (32, 4, 2), (40, 5, 3), (48, 3, 4), (48, 5, 5)]:
        g = gen_random_regular(n, d, seed)
        witness = max_independent_set(g)
        assert is_independent(g, witness)
        assert max_independent_set(g) == witness
        assert witness.bit_count() == networkx_alpha(g)


def test_graph_stats_examples():
    s = graph_stats(gen_cycle(5))
    assert (s.n, s.d, s.alpha, s.edge_count) == (5, 2, 2, 5)
    s = graph_stats(gen_petersen())
    assert (s.n, s.d, s.alpha, s.edge_count) == (10, 3, 4, 15)
    s = graph_stats(build_graph(1, []))
    assert (s.n, s.d, s.alpha, s.edge_count) == (1, 0, 1, 0)


def test_alpha_at_most_half_for_regular_generators():
    graphs = [gen_cycle(7), gen_petersen(), gen_complete_bipartite(3), gen_complete(5)]
    graphs += [gen_random_regular(12, 3, s) for s in range(5)]
    for g in graphs:
        d = g.regular_degree()
        assert d is not None and d >= 1
        assert 2 * max_independent_set(g).bit_count() <= g.n


# ---------------------------------------------------------------------------
# Misc helpers
# ---------------------------------------------------------------------------


def test_mask_helpers():
    assert mask_of([0, 3]) == 0b1001
    assert mask_vertices(0b1001) == [0, 3]
    assert mask_vertices(0) == []


def test_union_of_equal_cliques_predicate():
    assert is_union_of_equal_cliques(gen_complete(4))
    two_k3 = disjoint_union(gen_complete(3), gen_complete(3))
    assert is_union_of_equal_cliques(two_k3)
    assert is_union_of_equal_cliques(build_graph(3, []))  # three copies of K_1
    assert not is_union_of_equal_cliques(disjoint_union(gen_complete(3), gen_complete(2)))
    assert not is_union_of_equal_cliques(gen_cycle(5))
    assert not is_union_of_equal_cliques(build_graph(0, []))
