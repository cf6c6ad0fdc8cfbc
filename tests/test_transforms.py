"""Model rewrites, guarantee attachment, and verdict propagation."""

import random

import pytest

from compident.families import (
    catenary,
    is_bidirectional_tree,
    labeled_trees,
    bidirectional_tree_model,
    random_strongly_connected_model,
    reference_models,
)
from compident.identify import (
    IDENTIFIABLE,
    decide_identifiability,
    expected_dimension,
)
from compident.model import is_strongly_connected
from compident.transforms import (
    GUARANTEE_BOTH,
    GUARANTEE_IDENT,
    GUARANTEE_IFF,
    KIND_ADD_LEAF,
    KIND_ADD_LEAF_MOVE_IN,
    KIND_ADD_LEAF_MOVE_OUT,
    RankRelationError,
    Transform,
    add_leaf_edge,
    add_leaf_move_input,
    add_leaf_move_output,
    add_leak,
    apply_transform,
    remove_leak,
    verify_rank_relation,
)

from conftest import mk

REF = reference_models()


def test_add_leaf_edge_chorded_cycle():
    result = add_leaf_edge(REF["chorded_cycle3"], 1)
    assert result.model == REF["chorded_cycle3_leaf"]
    assert result.guarantee == GUARANTEE_BOTH
    assert result.details["new_compartment"] == 4


def test_add_leaf_edge_trivial_model():
    result = add_leaf_edge(mk(1, [], [1], [1]), 1)
    assert result.model == mk(2, [(1, 2), (2, 1)], [1], [1])


def test_add_leaf_twice_composes():
    once = add_leaf_edge(REF["chorded_cycle3"], 1).model
    twice = add_leaf_edge(once, 1).model
    assert twice.n == 5
    assert (1, 5) in twice.edges and (5, 1) in twice.edges
    assert (1, 4) in twice.edges


def test_add_leaf_edge_guarantee_needs_hypotheses():
    # two outputs: rewrite runs, no guarantee
    m = mk(3, [(1, 2), (2, 1), (2, 3), (3, 1)], [1], [1, 2])
    result = add_leaf_edge(m, 2)
    assert result.guarantee is None
    assert result.model.n == 4
    # leaky model: no guarantee either
    assert add_leaf_edge(REF["cat3_leak1"], 1).guarantee is None


def test_add_leaf_move_output_matches_reference():
    result = add_leaf_move_output(REF["chorded_cycle3"])
    assert result.model == REF["chorded_cycle3_leaf_out4"]
    assert result.guarantee == GUARANTEE_IFF


def test_add_leaf_move_input_catenary():
    result = add_leaf_move_input(catenary(3))
    m = result.model
    assert result.guarantee == GUARANTEE_IFF
    assert m.inputs == frozenset({4}) and m.outputs == frozenset({1})
    assert decide_identifiability(m).status == IDENTIFIABLE


def test_add_leaf_move_guarantee_gate():
    split = catenary(3, [1], [2])
    result = add_leaf_move_output(split, at=1)
    assert result.guarantee is None
    assert result.model.outputs == frozenset({4})


def test_add_leaf_move_requires_at_when_ambiguous():
    with pytest.raises(ValueError):
        add_leaf_move_output(catenary(3, [1], [2]))


def test_add_and_remove_leak():
    result = add_leak(catenary(3), 2)
    assert result.guarantee == GUARANTEE_IDENT
    assert result.model.leaks == frozenset({2})

    back = remove_leak(REF["cat3_leak1"], 1)
    assert back.guarantee == GUARANTEE_IDENT
    assert not back.model.leaks
    assert decide_identifiability(back.model).status == IDENTIFIABLE


def test_add_leak_no_guarantee_when_already_leaky():
    result = add_leak(REF["cat3_leak1"], 2)
    assert result.guarantee is None
    assert result.model.leaks == frozenset({1, 2})


def test_remove_leak_errors():
    with pytest.raises(ValueError):
        remove_leak(catenary(3), 2)
    with pytest.raises(ValueError):
        add_leak(REF["cat3_leak1"], 1)


def test_transform_kind_validation():
    with pytest.raises(ValueError):
        Transform("shrink", 1)


def test_leaf_preserves_tree_shape():
    rng = random.Random(71)
    for n in (2, 3, 4):
        for und in labeled_trees(n):
            m = bidirectional_tree_model(n, und, [1], [1])
            at = rng.randrange(1, n + 1)
            bigger = add_leaf_edge(m, at).model
            assert is_bidirectional_tree(bigger)
            assert is_strongly_connected(bigger)


def test_guarantee_implies_preserved_verdict():
    rng = random.Random(72)
    for _ in range(12):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5),
                                            leak_prob=0.0)
        if decide_identifiability(m, force_rank=True).status != IDENTIFIABLE:
            continue
        at = rng.randrange(1, m.n + 1)
        result = add_leaf_edge(m, at)
        assert result.guarantee == GUARANTEE_BOTH
        after = decide_identifiability(result.model, force_rank=True)
        assert after.status == IDENTIFIABLE
        # expected dimension also preserved
        assert expected_dimension(result.model).has_expected_dimension \
            == expected_dimension(m).has_expected_dimension


def test_iff_guarantee_both_directions():
    rng = random.Random(73)
    for _ in range(12):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5),
                                            leak_prob=0.0, same_io=True)
        before = decide_identifiability(m, force_rank=True).status
        for op in (add_leaf_move_output, add_leaf_move_input):
            result = op(m)
            assert result.guarantee == GUARANTEE_IFF
            after = decide_identifiability(result.model, force_rank=True).status
            states = {IDENTIFIABLE, "no_parameters"}
            assert (before in states) == (after in states)


def test_add_leak_preserves_expected_dimension():
    rng = random.Random(74)
    for _ in range(12):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5),
                                            leak_prob=0.0)
        if not expected_dimension(m).has_expected_dimension:
            continue
        at = rng.randrange(1, m.n + 1)
        result = add_leak(m, at)
        assert result.guarantee == GUARANTEE_IDENT
        assert expected_dimension(result.model).has_expected_dimension


def test_rank_relation_chorded_cycle():
    report = verify_rank_relation(REF["chorded_cycle3"],
                                  Transform(KIND_ADD_LEAF_MOVE_OUT, 1))
    assert report["rank_before"] == 4 and report["rank_after"] == 6


def test_rank_relation_catenary_move_input():
    report = verify_rank_relation(catenary(3),
                                  Transform(KIND_ADD_LEAF_MOVE_IN, 1))
    assert report["rank_after"] == report["rank_before"] + 2


def test_rank_relation_nontrivial_attachment_point():
    m = catenary(3, [2], [2])
    report = verify_rank_relation(m, Transform(KIND_ADD_LEAF_MOVE_OUT, 2))
    assert report["rank_after"] == report["rank_before"] + 2


def test_rank_relation_random_corpus():
    rng = random.Random(75)
    for _ in range(8):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5),
                                            leak_prob=0.0, same_io=True)
        (at,) = m.inputs
        for kind in (KIND_ADD_LEAF_MOVE_OUT, KIND_ADD_LEAF_MOVE_IN):
            report = verify_rank_relation(m, Transform(kind, at), trials=2)
            assert report["rank_after"] == report["rank_before"] + 2
            assert "char_recurrence" in report["relations"]


def test_rank_relation_catches_a_nonzero_c0(monkeypatch):
    # c*_0 is read off the packed det(lI - B) that the leaf-edge check
    # returns; a constant term there must be reported
    from compident import determinant

    original = determinant.check_leaf_edge_identities
    monkeypatch.setattr(determinant, "check_leaf_edge_identities",
                        lambda m: [{0: 1}] + original(m)[1:])
    with pytest.raises(RankRelationError, match=r"c\*_0"):
        verify_rank_relation(REF["chorded_cycle3"],
                             Transform(KIND_ADD_LEAF_MOVE_OUT, 1))


def test_rank_relation_preconditions():
    with pytest.raises(ValueError):
        verify_rank_relation(REF["cat3_leak1"], Transform(KIND_ADD_LEAF_MOVE_OUT, 1))
    with pytest.raises(ValueError):
        verify_rank_relation(REF["chorded_cycle3"], Transform(KIND_ADD_LEAF, 1))


def test_apply_transform_dispatch():
    result = apply_transform(catenary(3), Transform(KIND_ADD_LEAF, 2))
    assert result.model.n == 4 and (2, 4) in result.model.edges
