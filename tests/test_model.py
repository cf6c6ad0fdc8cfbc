"""Model parsing, validation, serialization and graph predicates."""

import itertools
import json
import math
import random

import pytest

from compident.families import (
    catenary,
    is_bidirectional_tree,
    mammillary,
    random_strongly_connected_model,
)
from compident.model import (
    Model,
    ModelValidationError,
    distance,
    inductively_strong_order,
    is_strongly_connected,
    param_vector,
    parse_model,
    relabel,
    serialize_model,
)

from conftest import all_digraphs, closure_strongly_connected, mk

FIG1_JSON = json.dumps({
    "compartments": 3,
    "edges": [{"from": f, "to": t} for (f, t) in
              [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]],
    "in": [1], "out": [1], "leak": [2],
})


def test_parse_triangle_model():
    m = parse_model(FIG1_JSON)
    assert m.n == 3
    assert len(m.edges) == 6
    assert m.param_count() == 7
    assert param_vector(m) == (
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (0, 2))


def test_parse_single_compartment_no_params():
    m = parse_model('{"compartments": 1, "edges": [], "in": [1], "out": [1], "leak": []}')
    assert m.param_count() == 0
    assert param_vector(m) == ()


@pytest.mark.parametrize("doc,needle", [
    ({"compartments": 2, "edges": [], "in": [], "out": [], "leak": []}, "out"),
    ({"compartments": 2, "edges": [{"from": 1, "to": 1}], "in": [], "out": [1], "leak": []}, "self-edge"),
    ({"compartments": 2, "edges": [{"from": 1, "to": 2}, {"from": 1, "to": 2}],
      "in": [], "out": [1], "leak": []}, "duplicate edge"),
    ({"compartments": 2, "edges": [{"from": 1, "to": 3}], "in": [], "out": [1], "leak": []}, "edges[0].to"),
    ({"compartments": 2, "edges": [], "in": [5], "out": [1], "leak": []}, "in"),
    ({"compartments": 2, "edges": [], "in": [], "out": [1], "leak": [], "extra": 1}, "unknown key"),
    ({"compartments": 2, "edges": [], "in": [], "out": [1]}, "missing key"),
    ({"compartments": "2", "edges": [], "in": [], "out": [1], "leak": []}, "integer"),
    ({"compartments": 2, "edges": [], "in": [1, 1], "out": [1], "leak": []}, "duplicate"),
    ({"compartments": 0, "edges": [], "in": [], "out": [1], "leak": []},
     "compartments: must be a positive integer"),
])
def test_parse_rejections(doc, needle):
    with pytest.raises(ModelValidationError) as err:
        parse_model(json.dumps(doc))
    assert needle in str(err.value)


def test_parse_rejects_bool_as_int():
    doc = {"compartments": True, "edges": [], "in": [], "out": [1], "leak": []}
    with pytest.raises(ModelValidationError):
        parse_model(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(ModelValidationError):
        parse_model("{not json")


def test_roundtrip_identity():
    rng = random.Random(11)
    models = [parse_model(FIG1_JSON), catenary(4, [2], [3], [1, 4])]
    models += [random_strongly_connected_model(rng, rng.randrange(2, 6))
               for _ in range(10)]
    for m in models:
        assert parse_model(serialize_model(m)) == m


# -- strong connectivity ---------------------------------------------------

def test_strongly_connected_examples():
    assert is_strongly_connected(parse_model(FIG1_JSON))
    assert not is_strongly_connected(mk(3, [(1, 2), (2, 3)], [1], [1]))
    assert is_strongly_connected(catenary(3))


def test_strongly_connected_matches_closure_oracle_exhaustive():
    for n, edges in all_digraphs(4):
        m = mk(n, edges, [], [1])
        assert is_strongly_connected(m) == closure_strongly_connected(n, edges)


# -- distances -------------------------------------------------------------

def test_distance_examples():
    assert distance(catenary(3), 1, 3) == 2
    assert distance(mammillary(4), 2, 3) == 2
    assert distance(mammillary(4), 2, 2) == 0
    assert distance(mk(2, [(1, 2)], [1], [2]), 2, 1) == math.inf


def test_distance_triangle_inequality_random():
    rng = random.Random(12)
    for _ in range(10):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        for a, b, c in itertools.permutations(m.compartments(), 3):
            assert distance(m, a, c) <= distance(m, a, b) + distance(m, b, c)
        for a in m.compartments():
            for b in m.compartments():
                assert (distance(m, a, b) == 0) == (a == b)


def floyd_warshall(n, edges):
    d = [[0 if i == j else math.inf for j in range(n + 1)] for i in range(n + 1)]
    for (f, t) in edges:
        d[f][t] = 1
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def test_distance_matches_floyd_warshall_exhaustive():
    for n, edges in all_digraphs(4):
        m = mk(n, edges, [], [1])
        d = floyd_warshall(n, edges)
        for a in m.compartments():
            for b in m.compartments():
                assert distance(m, a, b) == d[a][b]


# -- bidirectional trees ------------------------------------------------------

def union_find_tree(n, edges) -> bool:
    """Paired edges whose n - 1 undirected edges never close a cycle."""
    if any((t, f) not in edges for (f, t) in edges):
        return False
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    und = {(min(f, t), max(f, t)) for (f, t) in edges}
    for (a, b) in und:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return len(und) == n - 1


def test_bidirectional_tree_matches_union_find_exhaustive():
    trees = 0
    for n, edges in all_digraphs(4):
        expected = union_find_tree(n, set(edges))
        assert is_bidirectional_tree(mk(n, edges, [], [1])) == expected
        trees += expected
    assert trees == 1 + 1 + 3 + 16     # n^(n-2) labeled trees for n = 1..4


# -- inductive strong connectivity ------------------------------------------

def brute_isc_order(m, root):
    """The lexicographically first witness ordering, or None."""
    others = [v for v in m.compartments() if v != root]
    for perm in itertools.permutations(others):
        order = (root,) + perm
        if all(closure_strongly_connected_induced(m, order[:k + 1])
               for k in range(len(order))):
            return order
    return None


def brute_isc(m, root) -> bool:
    return brute_isc_order(m, root) is not None


def closure_strongly_connected_induced(m, nodes) -> bool:
    keep = set(nodes)
    remap = {v: i + 1 for i, v in enumerate(sorted(keep))}
    edges = [(remap[f], remap[t]) for (f, t) in m.edges if f in keep and t in keep]
    return closure_strongly_connected(len(keep), edges)


def test_isc_complete_digraph():
    k3 = mk(3, [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b], [1], [1])
    assert inductively_strong_order(k3, 1) == (1, 2, 3)


def test_isc_catenary_any_n():
    for n in range(1, 6):
        assert inductively_strong_order(catenary(n), 1) is not None


def test_isc_one_way_cycle_false():
    cyc = mk(3, [(1, 2), (2, 3), (3, 1)], [1], [1])
    assert inductively_strong_order(cyc, 1) is None
    assert not brute_isc(cyc, 1)


def test_isc_matches_brute_force_random():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(2, 6)
        pairs = [(f, t) for f in range(1, n + 1) for t in range(1, n + 1) if f != t]
        edges = [e for e in pairs if rng.random() < 0.4]
        m = mk(n, edges, [1], [1])
        root = rng.randrange(1, n + 1)
        assert (inductively_strong_order(m, root) is not None) \
            == brute_isc(m, root)


def test_isc_order_is_first_brute_force_witness_exhaustive():
    for n, edges in all_digraphs(4):
        m = mk(n, edges, [], [1])
        for root in m.compartments():
            assert inductively_strong_order(m, root) == brute_isc_order(m, root)


def test_isc_witness_prefixes_are_strongly_connected():
    rng = random.Random(14)
    for _ in range(20):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        order = inductively_strong_order(m, 1)
        if order is None:
            continue
        assert order[0] == 1
        for k in range(1, m.n + 1):
            assert closure_strongly_connected_induced(m, order[:k])


def test_isc_implies_strongly_connected():
    rng = random.Random(15)
    for _ in range(30):
        n = rng.randrange(2, 6)
        pairs = [(f, t) for f in range(1, n + 1) for t in range(1, n + 1) if f != t]
        edges = [e for e in pairs if rng.random() < 0.35]
        m = mk(n, edges, [1], [1])
        if inductively_strong_order(m, 1) is not None:
            assert is_strongly_connected(m)


# -- parameter vector / relabeling -------------------------------------------

def test_param_vector_catenary_with_leak():
    m = catenary(3, [1], [1], [1])
    assert len(param_vector(m)) == 5
    assert param_vector(m)[-1] == (0, 1)


def test_param_vector_deterministic_order():
    m = parse_model(FIG1_JSON)
    assert param_vector(m) == param_vector(parse_model(serialize_model(m)))


def test_relabel_swap_preserves_structure():
    m = catenary(3, [1], [3], [2])
    swapped = relabel(m, {1: 3, 3: 1})
    assert swapped.inputs == frozenset({3})
    assert swapped.outputs == frozenset({1})
    assert swapped.leaks == frozenset({2})
    assert is_strongly_connected(swapped)
    with pytest.raises(ValueError):
        relabel(m, {1: 2})
