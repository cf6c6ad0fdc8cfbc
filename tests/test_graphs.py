"""Auxiliary graph constructions and symbolic matrices."""

import random

import pytest

from compident.families import random_strongly_connected_model, reference_models
from compident.graphs import (
    AuxGraph,
    _without_out_edges,
    compartmental_matrix,
    flip_into_leak,
    leak_augmented,
    star_matrix,
    strip_outgoing,
)
from compident.poly import Poly

from conftest import mk, to_dot

FIG1 = reference_models()["k3_leak"]


def test_leak_augmented_triangle():
    g = leak_augmented(FIG1)
    assert g.nodes == (0, 1, 2, 3)
    assert len(g.edges) == 7
    assert (2, 0, (0, 2)) in g.edges
    assert not g.allows_multi_edges


def test_leak_augmented_leakless_adds_isolated_node():
    m = mk(2, [(1, 2), (2, 1)], [1], [1])
    g = leak_augmented(m)
    assert 0 in g.nodes
    assert all(src != 0 and dst != 0 for (src, dst, _l) in g.edges)


def test_leak_augmented_single_compartment_leak():
    g = leak_augmented(mk(1, [], [1], [1], [1]))
    assert g.nodes == (0, 1)
    assert g.edges == ((1, 0, (0, 1)),)


def test_strip_outgoing_triangle_at_1():
    g = strip_outgoing(FIG1, 1)
    labels = sorted(lab for (_s, _d, lab) in g.edges)
    assert labels == [(0, 2), (1, 2), (1, 3), (2, 3), (3, 2)]


def test_strip_is_identity_when_no_out_edges():
    m = mk(2, [(2, 1)], [2], [1])
    assert strip_outgoing(m, 1).edges == leak_augmented(m).edges


def test_strip_twice_is_strip_once():
    g = leak_augmented(FIG1)
    once = _without_out_edges(g, 1)
    assert _without_out_edges(once, 1).edges == once.edges


def test_flip_triangle_has_parallel_leak_edges():
    g = flip_into_leak(FIG1, 1)
    assert g.allows_multi_edges
    assert 1 not in g.nodes
    into_zero = sorted(lab for (src, dst, lab) in g.edges if dst == 0 and src == 2)
    assert into_zero == [(0, 2), (1, 2)]  # leak label a02 next to flipped a12


def test_flip_two_compartments():
    m = mk(2, [(1, 2), (2, 1)], [1], [1])
    g = flip_into_leak(m, 1)
    assert g.nodes == (0, 2)
    assert g.edges == ((2, 0, (1, 2)),)


def test_flip_when_nothing_enters_i():
    m = mk(2, [(1, 2)], [1], [2], [2])
    g = flip_into_leak(m, 1)
    assert g.edges == ((2, 0, (0, 2)),)


def test_edge_count_relations():
    rng = random.Random(21)
    for _ in range(15):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        gt = leak_augmented(m)
        assert len(gt.edges) == m.param_count()
        for i in m.compartments():
            stripped = strip_outgoing(m, i)
            out_deg = len(gt.out_edges(i))
            assert len(stripped.edges) == len(gt.edges) - out_deg
            flipped = flip_into_leak(m, i)
            assert len(flipped.edges) == len(stripped.edges)
            assert sorted(flipped.labels()) == sorted(stripped.labels())


def test_aux_graph_invariants_enforced():
    with pytest.raises(ValueError):
        AuxGraph((0, 1), ((0, 1, (1, 0)),))  # node 0 with an outgoing edge
    with pytest.raises(ValueError):
        AuxGraph((1, 2), ((1, 2, (2, 1)), (1, 2, (2, 1))))  # parallel, flag off
    AuxGraph((1, 2), ((1, 2, (2, 1)), (1, 2, (0, 1))), allows_multi_edges=True)


def test_aux_graph_rejects_a_repeated_label():
    # two edges labelled a_99 would make a forest's productivity a_99^2,
    # which forest sums cannot represent with one bit per label
    edges = ((1, 0, (9, 9)), (2, 0, (9, 9)), (3, 1, (5, 5)))
    with pytest.raises(ValueError, match=r"label \(9, 9\) on two edges"):
        AuxGraph((0, 1, 2, 3), edges, allows_multi_edges=True)
    with pytest.raises(ValueError, match=r"label \(2, 1\)"):
        AuxGraph((1, 2, 3), ((1, 2, (2, 1)), (1, 3, (2, 1))))


# -- matrices ---------------------------------------------------------------

def v(i, j):
    return Poly.var((i, j))


def test_compartmental_matrix_triangle():
    A = compartmental_matrix(FIG1)
    assert A.entry(1, 1) == -(v(2, 1) + v(3, 1))
    assert A.entry(2, 2) == -(v(0, 2) + v(1, 2) + v(3, 2))
    assert A.entry(3, 3) == -(v(1, 3) + v(2, 3))
    assert A.entry(1, 2) == v(1, 2)
    assert A.entry(1, 3) == v(1, 3)
    assert A.entry(2, 1) == v(2, 1)
    assert A.entry(2, 3) == v(2, 3)
    assert A.entry(3, 1) == v(3, 1)
    assert A.entry(3, 2) == v(3, 2)


def test_compartmental_matrix_edgeless_is_zero():
    A = compartmental_matrix(mk(2, [], [1], [1]))
    assert all(not A.entry(i, j) for i in (1, 2) for j in (1, 2))


def test_compartmental_matrix_leak_only_is_diagonal():
    A = compartmental_matrix(mk(2, [], [1], [1], [1, 2]))
    assert A.entry(1, 1) == -v(0, 1)
    assert A.entry(2, 2) == -v(0, 2)
    assert not A.entry(1, 2) and not A.entry(2, 1)


def test_star_matrix_zeroes_column():
    S = star_matrix(FIG1, 1)
    for r in (1, 2, 3):
        assert not S.entry(r, 1)
    assert S.entry(2, 2) == compartmental_matrix(FIG1).entry(2, 2)
    assert S.entry(1, 2) == v(1, 2)


def test_star_matrix_equals_matrix_of_stripped_model():
    # when i has no leak and no outgoing edges, zeroing column i changes nothing
    m = mk(3, [(2, 1), (2, 3), (3, 2)], [2], [1])
    assert star_matrix(m, 1).entries == compartmental_matrix(m).entries


def test_column_sums():
    rng = random.Random(22)
    for _ in range(10):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        A = compartmental_matrix(m)
        for j in m.compartments():
            col_sum = Poly.zero()
            for i in m.compartments():
                col_sum = col_sum + A.entry(i, j)
            expected = -v(0, j) if j in m.leaks else Poly.zero()
            assert col_sum == expected


def test_to_dot_mentions_labels():
    dot = to_dot(leak_augmented(FIG1))
    assert "digraph" in dot and "a02" in dot and "n0" in dot
