"""Forest enumeration and the coefficient formulas."""

import random

import pytest

from compident.families import (
    labeled_trees,
    bidirectional_tree_model,
    catenary,
    random_strongly_connected_model,
    reference_models,
)
from compident.forests import (
    _iter_forests,
    forest_sums_by_size,
    lhs_coefficients,
    nonconstant_counts,
    rhs_coefficients,
)
from compident.graphs import AuxGraph, flip_into_leak, leak_augmented, strip_outgoing
from compident.model import distance
from compident.poly import Poly

from conftest import (Forest, ForestQuery, brute_force_forests,
                      enumerate_forests, mk, productivity,
                      rhs_coefficients_multigraph, undirected_components)

FIG1 = reference_models()["k3_leak"]


def random_aux_graph(rng, max_nodes=5) -> AuxGraph:
    # arbitrary labelled digraph including node 0 (no out-edges there);
    # labels are unique (serial, source) pairs so productivities separate
    k = rng.randrange(2, max_nodes + 1)
    nodes = tuple(range(0, k + 1))
    edges = []
    for src in nodes[1:]:
        for dst in nodes:
            if src != dst and rng.random() < 0.5:
                edges.append((src, dst, (len(edges), src)))
    return AuxGraph(nodes, tuple(edges), allows_multi_edges=True)


# -- enumeration vs subset oracle ------------------------------------------

def test_enumeration_matches_brute_force_random():
    rng = random.Random(31)
    for _ in range(12):
        g = random_aux_graph(rng)
        for j in range(0, len(g.nodes)):
            got = {f.edge_indices for f in enumerate_forests(ForestQuery(g, j))}
            want = {tuple(sorted(s)) for s in brute_force_forests(g, j)}
            assert got == want


def test_enumeration_pair_variant_matches_brute_force():
    rng = random.Random(32)
    for _ in range(12):
        g = random_aux_graph(rng)
        k = rng.choice(g.nodes)
        l = rng.choice(g.nodes)
        for j in range(0, len(g.nodes)):
            got = {f.edge_indices for f in
                   enumerate_forests(ForestQuery(g, j, same_component=(k, l)))}
            want = {tuple(sorted(s)) for s in brute_force_forests(g, j, pair=(k, l))}
            assert got == want


def test_forest_zero_edges_is_single_empty_forest():
    g = leak_augmented(FIG1)
    fs = enumerate_forests(ForestQuery(g, 0))
    assert len(fs) == 1 and fs[0].edge_indices == ()


def test_triangle_forest_counts():
    g = leak_augmented(FIG1)
    assert len(enumerate_forests(ForestQuery(g, 2))) == 13
    assert len(enumerate_forests(ForestQuery(g, 3))) == 3


def test_each_component_has_exactly_one_sink():
    rng = random.Random(33)
    for _ in range(8):
        g = random_aux_graph(rng)
        for j in range(len(g.nodes)):
            for f in enumerate_forests(ForestQuery(g, j)):
                sources = {g.edges[k][0] for k in f.edge_indices}
                for comp in undirected_components(g, f.edge_indices):
                    sinks = [v for v in comp if v not in sources]
                    assert len(sinks) == 1


def test_live_union_find_has_one_component_per_missing_edge():
    # at every leaf of the enumeration the union-find holds nodes - edges
    # components: one per sink, as every node keeps at most one out-edge
    rng = random.Random(37)
    hosts = [random_aux_graph(rng) for _ in range(8)]
    for _ in range(4):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5))
        hosts.append(flip_into_leak(m, rng.randrange(1, m.n + 1)))
    for g in hosts:
        leaves = 0
        for chosen, dsu in _iter_forests(g):
            roots = {dsu.find(v) for v in g.nodes}
            assert len(roots) == len(g.nodes) - len(chosen)
            leaves += 1
        assert leaves == sum(sum(p.terms.values())
                             for p in forest_sums_by_size(g))


def test_pair_forests_contain_directed_path():
    rng = random.Random(34)
    for _ in range(10):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5))
        out = sorted(m.outputs)[0]
        g = strip_outgoing(m, out)
        for k in m.compartments():
            if k == out:
                continue
            for j in range(1, len(g.nodes)):
                for f in enumerate_forests(ForestQuery(g, j, same_component=(k, out))):
                    succ = {g.edges[e][0]: g.edges[e][1] for e in f.edge_indices}
                    node, seen = k, set()
                    while node in succ and node not in seen:
                        seen.add(node)
                        node = succ[node]
                    assert node == out


def test_union_recursion_for_pair_forests():
    # forests with a k->l connection decompose over k's outgoing edges
    rng = random.Random(35)
    for _ in range(10):
        g = random_aux_graph(rng, max_nodes=5)
        nodes = [v for v in g.nodes if v != 0]
        if len(nodes) < 2:
            continue
        k, l = rng.sample(nodes, 2)
        host = AuxGraph(g.nodes, tuple(e for e in g.edges if e[0] != l),
                        allows_multi_edges=True)
        stripped = AuxGraph(host.nodes,
                            tuple(e for e in host.edges if e[0] != k),
                            allows_multi_edges=True)
        for j in range(1, len(host.nodes)):
            direct = {frozenset(f.edge_indices) for f in
                      enumerate_forests(ForestQuery(host, j, same_component=(k, l)))}
            # build the union over k -> i edges; edge indices must be
            # re-expressed relative to the host graph
            stripped_to_host = [host.edges.index(e) for e in stripped.edges]
            union = set()
            for ei, (src, dst, _lab) in enumerate(host.edges):
                if src != k:
                    continue
                for f in enumerate_forests(
                        ForestQuery(stripped, j - 1, same_component=(dst, l))):
                    union.add(frozenset(
                        [stripped_to_host[x] for x in f.edge_indices] + [ei]))
            assert direct == union


# -- productivities ----------------------------------------------------------

def test_productivity_empty_forest_is_one():
    g = leak_augmented(FIG1)
    empty = enumerate_forests(ForestQuery(g, 0))[0]
    assert productivity(empty) == Poly.one()


def test_productivity_two_edges():
    g = leak_augmented(FIG1)
    idx = {lab: k for k, (_s, _d, lab) in enumerate(g.edges)}
    f = Forest(g, (idx[(0, 2)], idx[(1, 3)]))
    assert productivity(f).text() == "a02*a13"


def test_parallel_edges_have_distinct_monomials():
    g = flip_into_leak(FIG1, 1)
    monos = set()
    for k, (src, dst, _lab) in enumerate(g.edges):
        if src == 2 and dst == 0:
            monos.add(productivity(Forest(g, (k,))).text())
    assert monos == {"a02", "a12"}


# -- coefficient formulas -----------------------------------------------------

def test_lhs_triangle_golden():
    cs = lhs_coefficients(FIG1)
    assert cs[2].text() == "a02 + a12 + a13 + a21 + a23 + a31 + a32"
    assert len(cs[1].terms) == 13
    assert cs[0].text() == "a02*a13*a21 + a02*a21*a23 + a02*a23*a31"


def test_lhs_leakless_strongly_connected_has_zero_constant():
    rng = random.Random(36)
    for _ in range(10):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6), leak_prob=0.0)
        assert not lhs_coefficients(m)[0]


def test_lhs_edgeless_leakless_all_zero():
    m = mk(3, [], [1], [1])
    assert all(not c for c in lhs_coefficients(m))


def test_rhs_triangle_golden():
    sign, ds = rhs_coefficients(FIG1, 1, 1)
    assert sign == 1
    assert ds[1].text() == "a02 + a12 + a13 + a23 + a32"
    assert ds[0].text() == "a02*a13 + a02*a23 + a12*a13 + a12*a23 + a13*a32"
    assert ds[2] == Poly.one()


def test_rhs_same_in_out_top_coefficient_is_one():
    rng = random.Random(37)
    for _ in range(10):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6), same_io=True)
        (i,) = m.inputs
        _sign, ds = rhs_coefficients(m, i, i)
        assert ds[m.n - 1] == Poly.one()


def test_rhs_distance_forces_leading_zeros():
    rng = random.Random(38)
    checked = 0
    for _ in range(30):
        m = random_strongly_connected_model(rng, rng.randrange(3, 6), same_io=False)
        (inp,) = m.inputs
        (out,) = m.outputs
        if inp == out:
            continue
        dist = int(distance(m, inp, out))
        _sign, ds = rhs_coefficients(m, out, inp)
        for k in range(m.n - dist, m.n):
            assert not ds[k]
        assert ds[m.n - dist - 1]
        checked += 1
    assert checked > 5


def test_multigraph_route_matches_direct_route():
    direct = rhs_coefficients(FIG1, 1, 1)[1]
    alt = rhs_coefficients_multigraph(FIG1, 1)
    assert alt == direct[: len(alt)]


def test_multigraph_route_single_compartment():
    assert rhs_coefficients_multigraph(mk(1, [], [1], [1], [1]), 1) == []


def test_multigraph_route_random_trees():
    rng = random.Random(39)
    for n in (2, 3, 4):
        for und in labeled_trees(n):
            i = rng.randrange(1, n + 1)
            leaks = [v for v in range(1, n + 1) if rng.random() < 0.4]
            m = bidirectional_tree_model(n, und, [i], [i], leaks)
            direct = rhs_coefficients(m, i, i)[1]
            alt = rhs_coefficients_multigraph(m, i)
            assert alt == direct[: len(alt)]


def test_multigraph_route_requires_matching_io():
    with pytest.raises(ValueError):
        rhs_coefficients_multigraph(mk(2, [(1, 2), (2, 1)], [1], [2]), 1)


def test_all_forest_coefficients_are_plus_one():
    rng = random.Random(40)
    for _ in range(10):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        polys = list(lhs_coefficients(m))
        (out,) = m.outputs
        (inp,) = m.inputs
        polys += rhs_coefficients(m, out, inp)[1]
        for i in m.compartments():
            polys += forest_sums_by_size(flip_into_leak(m, i))
        for poly in polys:
            assert all(c == 1 for c in poly.terms.values())


# -- counting law ------------------------------------------------------------

def test_counts_triangle():
    assert nonconstant_counts(FIG1) == (3, 2)


def test_counts_catenary_split_io():
    assert nonconstant_counts(catenary(3, [1], [2])) == (2, 2)
    assert nonconstant_counts(catenary(3, [1], [3], [2])) == (3, 1)


def test_counts_preconditions():
    with pytest.raises(ValueError):
        nonconstant_counts(mk(2, [(1, 2), (2, 1)], [1, 2], [1]))
    with pytest.raises(ValueError):
        nonconstant_counts(mk(2, [(1, 2)], [1], [2]))


def test_counts_match_symbolic_detection():
    rng = random.Random(41)
    for _ in range(25):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        lhs_n, rhs_n = nonconstant_counts(m)
        cs = lhs_coefficients(m)
        (out,) = m.outputs
        (inp,) = m.inputs
        _sign, ds = rhs_coefficients(m, out, inp)
        assert sum(not c.is_constant() for c in cs) == lhs_n
        assert sum(not d.is_constant() for d in ds) == rhs_n


def test_query_validation():
    g = leak_augmented(FIG1)
    with pytest.raises(ValueError):
        ForestQuery(g, -1)
    with pytest.raises(ValueError):
        ForestQuery(g, 1, same_component=(0, 9))
