"""Coefficient maps, generic rank, and the verdict pipeline."""

import gc
import itertools
import operator
import random

import pytest

from compident.families import (
    bidirectional_cycle,
    bidirectional_tree_model,
    catenary,
    labeled_trees,
    mammillary,
    random_strongly_connected_edges,
    random_strongly_connected_model,
    reference_models,
)
from compident.identify import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    IDENTIFIABLE,
    METHOD_COUNT,
    METHOD_CONVENTION,
    METHOD_ISC,
    METHOD_RANK,
    METHOD_TREE,
    NO_PARAMETERS,
    UNIDENTIFIABLE,
    NoInputError,
    NotStronglyConnectedError,
    _Lanes,
    _Point,
    _pack,
    _powers,
    _echelon,
    _kernel,
    classify_tree,
    coefficient_map,
    coefficient_maps,
    count_criterion,
    decide_identifiability,
    expected_dimension,
    generic_rank,
    generic_ranks,
    isc_sufficiency,
    verdict_to_dict,
)
from compident import identify
from compident import model as model_module
from compident.forests import lhs_coefficients, rhs_coefficients
from compident.model import Model, distance, model_to_dict, param_vector
from compident.poly import PRIMES, FieldPoint

from conftest import (Poly, adjugate_at, all_digraphs,
                      closure_strongly_connected, count_calls, eval_mod,
                      jacobian_at, matrix_powers, mk, partial_derivative,
                      point_rows, rank_mod, rational_generic_rank,
                      reference_generic_rank, symbolic_jacobian_mod_point,
                      symbolic_map)

REF = reference_models()
FIG1 = REF["k3_leak"]


def test_coefficient_map_triangle():
    cm = coefficient_map(FIG1)
    assert (cm.m, cm.p) == (5, 7)
    assert cm.coeffs == ((1, None, 2), (1, None, 1), (1, None, 0),
                         (1, 1, 1), (1, 1, 0))


def test_coefficient_map_catenary_leak():
    cm = coefficient_map(catenary(3, [1], [1], [1]))
    assert (cm.m, cm.p) == (5, 5)


def test_coefficient_map_trivial():
    cm = coefficient_map(mk(1, [], [1], [1]))
    assert (cm.m, cm.p) == (0, 0)


def test_coefficient_map_requires_inputs():
    with pytest.raises(NoInputError):
        coefficient_map(mk(2, [(1, 2), (2, 1)], [], [1]))


def _tree_groups(max_n):
    """Every (tree, leak set) with n <= max_n and at most two leaks, as the
    n^2 single-input, single-output models on it."""
    for n in range(1, max_n + 1):
        for und in labeled_trees(n):
            for size in (0, 1, 2):
                for leaks in itertools.combinations(range(1, n + 1), size):
                    yield [bidirectional_tree_model(n, und, [i], [o], leaks)
                           for i in range(1, n + 1) for o in range(1, n + 1)]


def test_coefficient_maps_equal_one_map_at_a_time():
    groups = 0
    trees = {}
    for models in _tree_groups(4):
        assert coefficient_maps(models) == [coefficient_map(m) for m in models]
        groups += 1
        trees.setdefault(models[0].edges, []).extend(models)
    assert groups == 203
    # every leak set of a tree in one group, as the tree sweep lays them out
    for models in trees.values():
        assert coefficient_maps(models) == [coefficient_map(m) for m in models]
    assert len(trees) == 21
    # graphs that are not trees, some not strongly connected, with several
    # inputs and outputs and placements that cannot reach an output
    rng = random.Random(73)
    connected = 0
    for _ in range(40):
        n = rng.randrange(1, 7)
        edges = [e for e in itertools.permutations(range(1, n + 1), 2)
                 if rng.random() < 0.35]
        leaks = rng.sample(range(1, n + 1), rng.randrange(0, min(n, 3) + 1))
        places = [(rng.sample(range(1, n + 1), rng.randrange(1, n + 1)),
                   rng.sample(range(1, n + 1), rng.randrange(1, n + 1)))
                  for _ in range(rng.randrange(1, 6))]
        models = [mk(n, edges, ins, outs, leaks) for ins, outs in places]
        if closure_strongly_connected(n, edges):
            assert coefficient_maps(models) == \
                [coefficient_map(m) for m in models]
            connected += 1
            continue
        # the count law holds for strongly connected models only
        with pytest.raises(NotStronglyConnectedError):
            coefficient_maps(models)
        for m in models:
            with pytest.raises(NotStronglyConnectedError):
                coefficient_map(m)
    assert connected == 13      # of 40 groups
    assert coefficient_maps([]) == []


def test_coefficient_maps_rejects_mixed_groups_and_missing_inputs():
    base = mk(3, [(1, 2), (2, 3), (3, 1)], [1], [2], [1])
    for other in (mk(3, [(1, 2), (2, 3), (3, 1), (1, 3)], [1], [2], [1]),
                  mk(4, [(1, 2), (2, 3), (3, 1)], [1], [2], [1])):
        with pytest.raises(ValueError, match="must share"):
            coefficient_maps([base, other])
    # leaks may differ within a group: each map keeps its own parameters
    models = [base, mk(3, [(1, 2), (2, 3), (3, 1)], [1], [2], [2]),
              mk(3, [(1, 2), (2, 3), (3, 1)], [1], [2])]
    cms = coefficient_maps(models)
    assert cms == [coefficient_map(m) for m in models]
    assert [cm.p for cm in cms] == [4, 4, 3]
    with pytest.raises(NoInputError):
        coefficient_maps([base, mk(3, [(1, 2), (2, 3), (3, 1)], [], [2], [1])])


def test_coefficient_map_length_matches_count_law():
    from compident.forests import nonconstant_counts
    rng = random.Random(60)
    for _ in range(20):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        lhs_n, rhs_n = nonconstant_counts(m)
        assert coefficient_map(m).m == lhs_n + rhs_n


def test_jacobian_fast_path_equals_formal_derivatives():
    rng = random.Random(61)
    for _ in range(10):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        cm = coefficient_map(m)
        prime = PRIMES[rng.randrange(len(PRIMES))]
        point = FieldPoint.random(cm.params, prime, rng)
        fast = symbolic_jacobian_mod_point(cm.entries, cm.params, point)
        for i, entry in enumerate(cm.entries):
            for j, par in enumerate(cm.params):
                assert fast[i][j] == eval_mod(partial_derivative(entry, par),
                                              point)


def test_jacobian_fast_path_with_higher_exponents():
    x, y = (1, 2), (2, 1)
    f = Poly.var(x) * Poly.var(x) * Poly.var(y) + Poly.var(y).scale(3)
    rng = random.Random(0)
    point = FieldPoint.random((x, y), PRIMES[0], rng)
    fast = symbolic_jacobian_mod_point((f,), (x, y), point)
    assert fast[0][0] == eval_mod(partial_derivative(f, x), point)
    assert fast[0][1] == eval_mod(partial_derivative(f, y), point)


# -- adjugate route against the symbolic oracle ---------------------------------

def _unpack(lanes, x):
    """The entries of the row x packed on lanes, slot by slot."""
    return [x >> lanes.s * i & lanes.mask for i in range(lanes.width)]


def _assert_matches_oracle(m, seed=DEFAULT_SEED):
    """The oracle's map, laid out from the expanded coefficients: equal to
    coefficient_map(m) for a strongly connected model, and refused by
    coefficient_map for any other.  At each trial's point and prime, the
    full Jacobian equal to the oracle's; the point's left rank equal to
    the rank of the oracle's left-side rows, and for each (output, input)
    pair its Markov rows times the kernel basis adding what the pair's
    oracle rows add to them: rank(left) + rank(rows) = rank(left +
    oracle), and likewise for all pairs at once; and generic_rank's
    per-trial ranks equal to the oracle's."""
    cm = symbolic_map(m)
    if closure_strongly_connected(m.n, m.edges):
        assert coefficient_map(m) == cm, model_to_dict(m)
    else:
        with pytest.raises(NotStronglyConnectedError):
            coefficient_map(m)
    oracle_ranks = []
    for t, prime in enumerate(PRIMES):
        point = FieldPoint.random(cm.params, prime, random.Random(seed + t))
        oracle = symbolic_jacobian_mod_point(cm.entries, cm.params, point)
        assert jacobian_at(cm, point) == oracle, (model_to_dict(m), t)
        left = [row for co, row in zip(cm.coeffs, oracle) if co[1] is None]
        pairs: dict = {}
        for co, row in zip(cm.coeffs, oracle):
            if co[1] is not None:
                pairs.setdefault(co[:2], []).append(row)
        at = _Point(m.n, cm.params, point, m.outputs, m.inputs)
        assert at.rank == rank_mod(left, prime), (model_to_dict(m), t)
        for out, inp in itertools.product(m.outputs, m.inputs):
            got = [_unpack(at.lanes, row) for row in at.rows(out, inp)]
            assert len(got) == len(at.kernel)
            assert at.markov_rank([out], [inp]) == rank_mod(got, prime)
            assert at.rank + rank_mod(got, prime) == rank_mod(
                left + pairs.get((out, inp), []), prime), \
                (model_to_dict(m), t, out, inp)
        assert at.rank + at.markov_rank(m.outputs, m.inputs) == rank_mod(
            left + [row for rows in pairs.values() for row in rows], prime)
        oracle_ranks.append(rank_mod(oracle, prime))
    trials = generic_rank(cm, trials=len(PRIMES), seed=seed).trials
    assert [t.rank for t in trials] == oracle_ranks[:len(trials)]


def test_adjugate_route_matches_oracle_exhaustive():
    # every digraph on n <= 3 compartments, strongly connected or not,
    # with every single input/output placement and leak set of size <= 2
    checked = 0
    for n in (1, 2, 3):
        pairs = list(itertools.permutations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            edges = [e for k, e in enumerate(pairs) if mask >> k & 1]
            for inp, out in itertools.product(range(1, n + 1), repeat=2):
                for size in (0, 1, 2):
                    for leaks in itertools.combinations(range(1, n + 1), size):
                        _assert_matches_oracle(mk(n, edges, [inp], [out], leaks))
                        checked += 1
    assert checked == 4098


def test_generic_ranks_match_oracle_multi_io_exhaustive():
    # every strongly connected digraph with n <= 3, every set of one or
    # two inputs and of one or two outputs, and every leak set of size
    # <= 2; the placements of one graph and leak set ranked as one group
    checked = 0
    for n, edges in all_digraphs(3):
        if not closure_strongly_connected(n, edges):
            continue
        sets = [s for k in (1, 2)
                for s in itertools.combinations(range(1, n + 1), k)]
        for size in (0, 1, 2):
            for leaks in itertools.combinations(range(1, n + 1), size):
                cms = _placements(n, edges, leaks,
                                  itertools.product(sets, sets))
                assert generic_ranks(cms) == [
                    reference_generic_rank(cm, DEFAULT_TRIALS, DEFAULT_SEED)
                    for cm in cms]
                checked += len(cms)
    assert checked == 4574


def test_adjugate_route_matches_oracle_random():
    rng = random.Random(69)
    for n in (4, 5, 6, 7):
        for _ in range(3):
            _assert_matches_oracle(random_strongly_connected_model(rng, n),
                                   seed=rng.randrange(10 ** 6))
    # several inputs and outputs, not necessarily strongly connected
    for _ in range(20):
        n = rng.randrange(2, 6)
        edges = [e for e in itertools.permutations(range(1, n + 1), 2)
                 if rng.random() < 0.4]
        ins = rng.sample(range(1, n + 1), rng.randrange(1, 3))
        outs = rng.sample(range(1, n + 1), rng.randrange(1, 3))
        leaks = rng.sample(range(1, n + 1), rng.randrange(0, 3))
        _assert_matches_oracle(mk(n, edges, ins, outs, leaks))


def _point_with_its_powers(n, params, point, places):
    """The point of the (input, output) places, with the start matrix and
    the lanes of its recurrence, and every A^r M_0 it formed, unpacked."""
    formed = []

    def spy(a_rows, start, lanes):
        formed.append((start, lanes))
        for power in _powers(a_rows, start, lanes):
            formed.append([_unpack(lanes, row) for row in power])
            yield power

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identify, "_powers", spy)
        at = _Point(n, params, point, {out for _inp, out in places},
                    {inp for inp, _out in places})
    (start, lanes), *powers = formed
    return at, start, lanes, powers


def _start_matrix(n, params, ins, p):
    """M_0 = [E | e_in ...] as dense lists: the column of a_ij is e_j - e_i
    mod p (e_j for a leak), then one column e_in per input, ascending."""
    cols = [[0] * n for _ in range(len(params) + len(ins))]
    for col, (i, j) in zip(cols, params):
        col[j - 1] = 1
        if i:
            col[i - 1] = p - 1
    for col, inp in zip(cols[len(params):], sorted(ins)):
        col[inp - 1] = 1
    return [list(row) for row in zip(*cols)]


def _assert_point_reads_the_oracle(n, params, point, places):
    """The rows _Point forms, A^r M_0 for r = 0..n-1 and no more, equal
    the list-based powers times the list-based start matrix M_0 mod p,
    and each slot is semi-reduced, below 2^(bits(p) + 1); the slots are
    wide enough to sum a row's products of a residue and such a value.
    Its left rank equals the rank of the partials of c from the
    list-based adjugate, and every kernel vector annuls those rows.  For
    each (input, output) place, its Markov rows times the kernel basis,
    transposed, equal those formed from the list-based powers: the
    partial of h_(t+1) by a_ij is ``-sum_(r+q=t) (u_r[j] - u_r[i])
    v_q[j]``, with the sign dropped."""
    p = point.prime
    at, start, lanes, formed = _point_with_its_powers(n, params, point, places)
    rows = point_rows(n, params, point)
    powers = matrix_powers(rows, p, n)
    m0 = _start_matrix(n, params, {inp for inp, _out in places}, p)
    assert [_unpack(lanes, row) for row in start] == m0
    assert len(formed) == n
    for power, got in zip(powers, formed):
        assert [[x % p for x in row] for row in got] == [
            [sum(a * b for a, b in zip(row, col)) % p for col in zip(*m0)]
            for row in power]
        assert max(map(max, got)) < 1 << (p.bit_length() + 1)
    assert lanes.s >= 2 * p.bit_length() + max(map(len, rows)).bit_length() + 1
    adj, _c = adjugate_at(n, params, point)
    cols = [(i - 1 if i else None, j - 1) for (i, j) in params]
    lhs = [[adj[j][j][k] if i is None else (adj[j][j][k] - adj[j][i][k]) % p
            for (i, j) in cols] for k in range(n)]
    assert at.rank == rank_mod(lhs, p)
    kernel = [[vec.get(c, 0) for c in range(len(cols))] for vec in at.kernel]
    assert len(kernel) == len(cols) - at.rank
    assert all(sum(map(operator.mul, row, vec)) % p == 0
               for row in lhs for vec in kernel)
    for inp, out in places:
        u = [power[out - 1] for power in powers]
        v = [[row[inp - 1] for row in power] for power in powers]
        markov = [[sum((u[r][j] - (0 if i is None else u[r][i])) * v[t - r][j]
                       for r in range(t + 1)) for (i, j) in cols]
                  for t in range(n - 1)]
        assert [_unpack(at.lanes, row) for row in at.rows(out, inp)] == [
            [sum(map(operator.mul, h, vec)) % p for h in markov]
            for vec in kernel], (inp, out)
    return lanes


def test_point_reads_the_oracle_powers_exhaustive():
    # every digraph with n <= 3 and leak set of size <= 2, at a point over
    # each prime; every single input/output placement reads its row and
    # column
    models = 0
    for n, edges in all_digraphs(3):
        places = list(itertools.product(range(1, n + 1), repeat=2))
        for size in range(min(n, 2) + 1):
            for leaks in itertools.combinations(range(1, n + 1), size):
                params = param_vector(mk(n, edges, [1], [1], leaks))
                for t, prime in enumerate(PRIMES):
                    point = FieldPoint.random(params, prime, random.Random(t))
                    _assert_point_reads_the_oracle(n, params, point, places)
                models += len(places)
    assert models == 4098


def test_point_reads_the_oracle_powers_random():
    # seeded random models with n = 4..12, several inputs and outputs,
    # then two whose row 1 has more than 15 nonzeros, so the slots of the
    # packed powers reach 128 bits
    rng = random.Random(73)
    models = []
    for n in range(4, 13):
        edges = [e for e in itertools.permutations(range(1, n + 1), 2)
                 if rng.random() < 0.4]
        models.append((n, edges, rng.sample(range(1, n + 1), 2),
                       rng.sample(range(1, n + 1), 3),
                       rng.sample(range(1, n + 1), rng.randrange(0, 3))))
    for n in (17, 20):
        edges = set(random_strongly_connected_edges(rng, n, 0.2))
        edges |= {(j, 1) for j in range(2, n + 1)}
        models.append((n, sorted(edges), [1], [n], [2]))
    widths = []
    for n, edges, ins, outs, leaks in models:
        params = param_vector(mk(n, edges, ins, outs, leaks))
        for prime in PRIMES:
            point = FieldPoint.random(params, prime,
                                      random.Random(rng.randrange(10 ** 6)))
            lanes = _assert_point_reads_the_oracle(
                n, params, point, list(itertools.product(ins, outs)))
            widths.append(lanes.s)
    assert max(widths) == 128


def _hk_ranks(at, places):
    """Per (output, input) place, the rank of its Markov rows times the
    point's kernel basis."""
    return [at.markov_rank([out], [inp]) for out, inp in places]


def test_point_rank_is_invariant_under_relabelling():
    # every digraph with n <= 3, leak sets of size <= 1 and every single
    # placement: at a point whose values follow a permutation of the
    # compartments, the relabelled model has the same left rank and, for
    # the relabelled (output, input), the same H K rank.  The tree sweep
    # rests on this when it ranks one model per automorphism orbit
    rng = random.Random(79)
    checked = 0
    for n, edges in all_digraphs(3):
        every = range(1, n + 1)
        places = list(itertools.product(every, repeat=2))
        for size in (0, 1):
            for leaks in itertools.combinations(every, size):
                params = param_vector(mk(n, edges, [1], [1], leaks))
                point = FieldPoint.random(params, rng.choice(PRIMES), rng)
                at = _Point(n, params, point, every, every)
                expected = (at.rank, _hk_ranks(at, places))
                for perm in itertools.permutations(every):
                    to = dict(zip((0, *every), (0, *perm)))
                    moved = param_vector(mk(
                        n, [(to[f], to[t]) for f, t in edges], [1], [1],
                        [to[j] for j in leaks]))
                    values = {(to[i], to[j]): v
                              for (i, j), v in point.values.items()}
                    at = _Point(n, moved, FieldPoint(point.prime, values),
                                every, every)
                    assert (at.rank, _hk_ranks(at, [
                        (to[out], to[inp]) for out, inp in places])) \
                        == expected, (n, edges, leaks, perm)
                    checked += len(places)
    assert checked == 2 + 4 * 3 * 2 * 4 + 64 * 4 * 6 * 9


@pytest.mark.parametrize("p", PRIMES)
def test_power_steps_stay_semi_reduced(p):
    # one step of the recurrence from the largest semi-reduced slots and
    # from random ones, with the largest residues and random ones in A:
    # every slot ends below 2^(bits(p) + 1), congruent to its entry
    rng = random.Random(p)
    k = p.bit_length()
    top = (1 << k + 1) - 1
    for nnz in (1, 2, 3, 15, 16, 100):
        lanes = _Lanes(p, 2 * k + nnz.bit_length() + 1, 3)
        for a_rows in ([[(j, p - 1) for j in range(nnz)]] * nnz,
                       [[(j, rng.randrange(p)) for j in range(nnz)]
                        for _ in range(nnz)]):
            for start in ([[top] * 3] * nnz,
                          [[rng.randrange(top + 1) for _ in range(3)]
                           for _ in range(nnz)]):
                steps = _powers(a_rows, [_pack(row, lanes.s) for row in start],
                                lanes)
                next(steps)
                got = [_unpack(lanes, row) for row in next(steps)]
                assert max(map(max, got)) <= top
                assert [[x % p for x in row] for row in got] == [
                    [sum(a * start[j][c] for j, a in row) % p
                     for c in range(3)] for row in a_rows]


def test_point_leaves_no_cyclic_garbage():
    # a point and its lanes hold no reference back to themselves, so they
    # are freed on return, not left for the cyclic collector
    m = mk(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 4), (4, 1)],
           [1], [3], [2])
    cm = coefficient_map(m)
    gc.collect()
    gc.disable()
    try:
        report = generic_rank(cm)
        at = _Point(m.n, cm.params,
                    FieldPoint.random(cm.params, PRIMES[0], random.Random(1)),
                    m.outputs, m.inputs)
        assert at.kernel and at.rows(3, 1)
        del at
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert report.rank == min(cm.p, cm.m)


def test_coefficient_map_unreachable_output():
    # the input cannot reach the output: no right-side coefficients, and
    # no layout, since the count law holds for strongly connected models
    for m in (mk(3, [(2, 1), (3, 2)], [1], [3], [1]),
              mk(4, [(1, 2), (2, 1), (3, 4), (4, 3)], [1], [3], [2, 4]),
              mk(3, [(1, 2), (2, 3)], [3], [1])):
        with pytest.raises(NotStronglyConnectedError):
            coefficient_map(m)
        assert all(inp is None for (_out, inp, _k) in symbolic_map(m).coeffs)
        _assert_matches_oracle(m)


def test_layout_lists_the_nonconstant_forest_coefficients_exhaustive():
    # every strongly connected digraph with n <= 3, every nonempty input
    # and output set and every leak set: the count law lays out exactly
    # the forest-route coefficients that are not constant
    checked = 0
    for n, edges in all_digraphs(3):
        if not closure_strongly_connected(n, edges):
            continue
        sets = [s for k in range(n + 1)
                for s in itertools.combinations(range(1, n + 1), k)]
        for ins, outs, leaks in itertools.product(sets[1:], sets[1:], sets):
            m = mk(n, edges, ins, outs, leaks)
            assert coefficient_map(m) == symbolic_map(m), model_to_dict(m)
            checked += 1
    assert checked == 7094


def test_generic_rank_triangle_frozen():
    report = generic_rank(coefficient_map(FIG1))
    assert report.rank == 5
    assert len(report.trials) == 1     # rank min(p, m) = 5 stops the trials


def test_generic_rank_matches_rational_oracle():
    rng = random.Random(62)
    for _ in range(10):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5))
        cm = coefficient_map(m)
        got = generic_rank(cm).rank
        want = rational_generic_rank(cm.entries, cm.params, rng)
        assert got == want


def test_generic_rank_bounds_and_monotonicity():
    rng = random.Random(63)
    for _ in range(8):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        cm = coefficient_map(m)
        one = generic_rank(cm, trials=1)
        three = generic_rank(cm, trials=3)
        assert one.rank <= three.rank <= min(cm.p, cm.m)


def test_generic_rank_trial_metadata():
    report = generic_rank(coefficient_map(REF["four_edge_sc"]), trials=3, seed=99)
    assert [t.seed for t in report.trials] == [99, 100, 101]
    assert len({t.prime for t in report.trials}) == len(report.trials)
    assert report.rank == max(t.rank for t in report.trials)


def test_generic_rank_rejects_zero_trials():
    with pytest.raises(ValueError):
        generic_rank(coefficient_map(FIG1), trials=0)


# -- ranking the maps of one graph and leak set together -----------------------

def _assert_group_matches(cms):
    """generic_ranks of the group equals generic_rank of each map alone and
    the plain per-map trial loop, report for report, at two seeds and with
    one and three trials."""
    for seed in (DEFAULT_SEED, 7):
        for trials in (1, 3):
            group = generic_ranks(cms, trials=trials, seed=seed)
            assert group == [generic_rank(cm, trials=trials, seed=seed)
                             for cm in cms]
            assert group == [reference_generic_rank(cm, trials, seed)
                             for cm in cms]


def _placements(n, edges, leaks, io_sets):
    return [coefficient_map(Model.create(n, edges, ins, outs, leaks))
            for ins, outs in io_sets]


def test_generic_ranks_every_tree_placement():
    groups = 0
    for models in _tree_groups(4):
        _assert_group_matches([coefficient_map(m) for m in models])
        groups += 1
    assert groups == 203


def test_generic_ranks_random_graphs_with_multi_io():
    rng = random.Random(71)
    for n in (4, 5, 6):
        for _ in range(2):
            edges = random_strongly_connected_edges(rng, n, 0.5)
            leaks = [v for v in range(1, n + 1) if rng.random() < 0.3]
            io_sets = [([i], [o]) for i in range(1, n + 1) for o in range(1, n + 1)]
            io_sets += [([1, n], [n]), ([2], [1, n]), (range(1, n + 1), [1, 2]),
                        ([n], range(1, n + 1))]
            _assert_group_matches(_placements(n, edges, leaks, io_sets))


def test_generic_ranks_maps_stop_at_their_own_trial():
    # four_edge_sc: some placements reach min(p, m) at trial 0, others
    # fall short and run every trial
    m = REF["four_edge_sc"]
    single = [([i], [o]) for i in range(1, m.n + 1) for o in range(1, m.n + 1)]
    cms = _placements(m.n, m.edges, m.leaks, single)
    assert {len(r.trials) for r in generic_ranks(cms)} == {1, 3}
    _assert_group_matches(cms)


def test_generic_ranks_rejects_mixed_groups():
    assert generic_ranks([]) == []
    base = mk(3, [(1, 2), (2, 3), (3, 1)], [1], [2], [1])
    others = (mk(3, [(1, 2), (2, 3), (3, 1), (1, 3)], [1], [2], [1]),
              mk(3, [(1, 2), (2, 3), (3, 1)], [1], [2], [2]),
              mk(4, [(1, 2), (2, 3), (3, 1)], [1], [2], [1]))
    for other in others:
        with pytest.raises(ValueError):
            generic_ranks([coefficient_map(base), coefficient_map(other)])
    with pytest.raises(ValueError):
        generic_ranks([coefficient_map(base)], trials=0)


# -- the latest report, kept for the model being ranked -------------------------

def _chorded_cycle():
    # a one-way 4-cycle with a chord and two leaks, input and output 1:
    # rank 6 of 7 parameters, so every trial runs
    return mk(4, [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)], [1], [1], [1, 3])


def test_generic_rank_reads_the_slot_for_the_same_model(monkeypatch):
    calls = count_calls(monkeypatch, identify, "generic_ranks")
    m = _chorded_cycle()
    first = generic_rank(coefficient_map(m))
    cm = coefficient_map(m)
    again = generic_rank(cm)
    assert len(calls) == 1 and again is first
    assert len(again.trials) == DEFAULT_TRIALS and again.rank < cm.p
    assert again == generic_ranks([cm], DEFAULT_TRIALS, DEFAULT_SEED)[0] == \
        reference_generic_rank(cm, DEFAULT_TRIALS, DEFAULT_SEED)


def test_generic_rank_ranks_an_equal_model_afresh(monkeypatch):
    calls = count_calls(monkeypatch, identify, "generic_ranks")
    m, twin = _chorded_cycle(), _chorded_cycle()
    assert m == twin and m is not twin
    first = generic_rank(coefficient_map(m))
    second = generic_rank(coefficient_map(twin))
    assert len(calls) == 2 and second is not first and second == first


def test_generic_rank_ranks_another_budget_afresh(monkeypatch):
    calls = count_calls(monkeypatch, identify, "generic_ranks")
    cm = coefficient_map(_chorded_cycle())
    budgets = [(3, 5), (2, 5), (2, 6), (2, 6), (3, 5)]
    reports = [generic_rank(cm, trials, seed) for trials, seed in budgets]
    assert len(calls) == 4 and reports[3] is reports[2]
    assert reports == [reference_generic_rank(cm, trials, seed)
                       for trials, seed in budgets]


def test_echelon_rank_equals_gaussian_elimination():
    # small primes, so random rows are often dependent and semi-reduced
    # slots often hold a residue plus a multiple of p; the rows come in
    # semi-reduced, each entry below 2^(bits(p) + 1), at the least slot
    # width 2 bits(p) + 2
    rng = random.Random(72)
    for p in itertools.islice(itertools.cycle((5, 7, 11)), 600):
        cols = rng.randrange(1, 7)
        rows = [[rng.randrange(p) if rng.random() < 0.7 else 0
                 for _ in range(cols)] for _ in range(rng.randrange(0, 10))]
        rows += [[0] * cols] * rng.randrange(2)
        if rows:
            rows += [list(rng.choice(rows))] * rng.randrange(2)
        rng.shuffle(rows)
        rank = rank_mod(rows, p)
        k = p.bit_length()
        lanes = _Lanes(p, 2 * k + 2, cols)
        packed = [_pack([x + p * rng.randrange(((1 << k + 1) - x - 1) // p + 1)
                         for x in row], lanes.s) for row in rows]
        basis = _echelon(packed, lanes)
        assert len(basis) == rank
        # the kernel basis: cols - rank independent vectors, each
        # orthogonal to every row, in normal form: the vector of the free
        # column f is 1 at f and 0 at every other free column
        got, kernel = _kernel(packed, lanes)
        assert got == rank and len(kernel) == cols - rank
        pivots = {c for c, _pv, _b in basis}
        free = [f for f in range(cols) if f not in pivots]
        assert [vec.get(f) for vec, f in zip(kernel, free)] == [1] * len(free)
        assert all(set(vec) <= pivots | {f} for vec, f in zip(kernel, free))
        vectors = [[vec.get(c, 0) for c in range(cols)] for vec in kernel]
        assert all(sum(a * b for a, b in zip(row, vec)) % p == 0
                   for row in rows for vec in vectors)
        assert rank_mod(vectors, p) == len(vectors)
        assert all(0 < x < p for vec in kernel for x in vec.values())


@pytest.mark.parametrize("p", PRIMES + (3, 5, 7, 11, 13))
def test_lane_reduction_equals_mod_p_slot_by_slot(p):
    # slot widths of a row step (2 bits(p) + 1) and of a matrix product
    # with 16 to 31 row nonzeros; each special value in every slot
    rng = random.Random(p)
    k = p.bit_length()
    n = 7
    for s in (2 * k + 1, 2 * k + 6):
        special = [0, p - 1, p, 2 * p * p - 1, (1 << s) - 1]
        for width in (0, 1, n):
            lanes = _Lanes(p, s, width)
            cases = [[special[(i + r) % len(special)] for i in range(width)]
                     for r in range(len(special))]
            cases += [[rng.randrange(1 << s) for _ in range(width)]
                      for _ in range(20)]
            for values in cases:
                packed = _pack(values, s)
                assert _unpack(lanes, packed) == values
                assert _unpack(lanes, lanes.reduce(packed)) == \
                    [v % p for v in values]


# -- frozen rank values for the reference corpus ------------------------------

@pytest.mark.parametrize("name,rank", [
    ("k3_leak", 5),
    ("four_edge_sc", 3),
    ("cycle3_out3", 3),
    ("cycle3_two_leaks", 5),
    ("chorded_cycle3", 4),
    ("chorded_cycle3_leaf", 6),
    ("chorded_cycle3_leaf_out4", 6),
    ("cat3_leak1", 5),
    ("cat4_in4_leak1", 7),
])
def test_reference_ranks(name, rank):
    cm = coefficient_map(REF[name])
    assert generic_rank(cm).rank == rank
    rng = random.Random(7)
    assert rational_generic_rank(cm.entries, cm.params, rng) == rank


# -- counting criterion ---------------------------------------------------------

def test_count_criterion_triangle_fires():
    fired = count_criterion(FIG1)
    assert fired is not None
    assert fired["case"] == 1 and fired["params"] == 7 and fired["bound"] == 5


def test_count_criterion_boundary_does_not_fire():
    assert count_criterion(REF["four_edge_sc"]) is None
    assert count_criterion(catenary(3)) is None


def test_count_criterion_split_io_cases():
    # leakless, split input/output at distance 1: bound 2n-L-1
    m = bidirectional_cycle(4, [1], [2])
    fired = count_criterion(m)
    assert fired is not None and fired["case"] == 4
    m2 = bidirectional_cycle(4, [1], [2], [3])
    fired2 = count_criterion(m2)
    assert fired2 is not None and fired2["case"] == 2


def test_count_criterion_preconditions():
    with pytest.raises(ValueError):
        count_criterion(mk(2, [(1, 2), (2, 1)], [1, 2], [1]))
    with pytest.raises(ValueError):
        count_criterion(mk(2, [(1, 2)], [1], [2]))


def _count_law_models():
    """Every strongly connected one-input/one-output model with n <= 3 and
    at most two leaks, then seeded random ones with n = 4..6."""
    for n, edges in all_digraphs(3):
        if not closure_strongly_connected(n, edges):
            continue
        for inp, out in itertools.product(range(1, n + 1), repeat=2):
            for k in range(3):
                for leaks in itertools.combinations(range(1, n + 1), k):
                    yield mk(n, edges, [inp], [out], leaks)
    rng = random.Random(65)
    for _ in range(30):
        yield random_strongly_connected_model(rng, rng.randrange(4, 7))


def test_count_criterion_bound_is_the_coefficient_count():
    from compident.forests import nonconstant_counts
    for m in _count_law_models():
        cm = coefficient_map(m)
        assert sum(nonconstant_counts(m)) == cm.m
        fired = count_criterion(m)
        assert (fired is not None) == (m.param_count() > cm.m)
        if fired is None:
            continue
        (inp,), (out,), n = m.inputs, m.outputs, m.n
        length = int(distance(m, inp, out))
        if m.leaks:
            case, bound = (1, 2 * n - 1) if inp == out else (2, 2 * n - length)
        else:
            case, bound = (3, 2 * n - 2) if inp == out else (4, 2 * n - length - 1)
        assert fired == {"case": case, "params": m.param_count(), "bound": bound,
                         "distance": length, "leaks": len(m.leaks)}
        assert bound == cm.m


def test_firing_count_criterion_searches_at_most_once(monkeypatch):
    # input = output needs no distance; a split one is read off the count
    # law's own search
    for m in (FIG1, bidirectional_cycle(4, [1], [2]),
              bidirectional_cycle(5, [1], [3], [2])):
        calls = count_calls(monkeypatch, model_module, "distance")
        fired = count_criterion(m)
        assert fired is not None and len(calls) <= 1
        (inp,), (out,) = m.inputs, m.outputs
        monkeypatch.undo()
        assert fired["distance"] == distance(m, inp, out)


def test_count_criterion_fire_implies_rank_unidentifiable():
    rng = random.Random(64)
    for _ in range(20):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5))
        if count_criterion(m) is None:
            continue
        v = decide_identifiability(m, force_rank=True)
        assert v.status == UNIDENTIFIABLE


# -- tree classification ----------------------------------------------------------

def test_classify_tree_examples():
    assert classify_tree(REF["cat4_in4_leak1"]).status == IDENTIFIABLE
    assert classify_tree(catenary(3, [1], [3])).status == UNIDENTIFIABLE
    assert classify_tree(catenary(3, [1], [3], [2])).status == UNIDENTIFIABLE
    assert classify_tree(mammillary(4, [1], [3], [2])).status == IDENTIFIABLE


def test_classify_tree_rejects_non_trees():
    with pytest.raises(ValueError):
        classify_tree(FIG1)
    with pytest.raises(ValueError):
        classify_tree(catenary(3, [1, 2], [1]))


# -- inductively strongly connected sufficiency -------------------------------------

def test_isc_fires_on_chorded_cycle():
    witness = isc_sufficiency(REF["chorded_cycle3"])
    assert witness is not None and witness[0] == 1


def test_isc_fires_on_catenary_with_remote_leak():
    assert isc_sufficiency(catenary(5, [1], [1], [3])) is not None


def test_isc_does_not_fire_outside_preconditions():
    assert isc_sufficiency(catenary(3, [1], [2])) is None
    assert isc_sufficiency(catenary(3, [1], [1], [1, 2])) is None
    assert isc_sufficiency(mk(3, [(1, 2), (2, 3), (3, 1)], [1], [1])) is None


def test_isc_does_not_fire_on_overparameterized_graphs():
    # inductively strongly connected, input = output, leakless, but with
    # more than 2n-2 edges there are more parameters than coefficients
    k3 = mk(3, [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b],
            [1], [1])
    assert isc_sufficiency(k3) is None
    assert decide_identifiability(k3, force_rank=True).status == UNIDENTIFIABLE


def test_isc_fire_implies_rank_identifiable():
    rng = random.Random(65)
    for _ in range(20):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5),
                                            leak_prob=0.2, same_io=True)
        if len(m.leaks) > 1 or isc_sufficiency(m) is None:
            continue
        assert decide_identifiability(m, force_rank=True).status == IDENTIFIABLE


# -- verdict pipeline ------------------------------------------------------------

def test_pipeline_bidirectional_cycles_use_count():
    for n in range(3, 7):
        v = decide_identifiability(bidirectional_cycle(n, [1], [1]))
        assert v.status == UNIDENTIFIABLE and v.method == METHOD_COUNT
        v2 = decide_identifiability(bidirectional_cycle(n, [1], [2]))
        assert v2.status == UNIDENTIFIABLE and v2.method == METHOD_COUNT


def test_pipeline_rank_fallback_examples():
    v = decide_identifiability(REF["cycle3_out3"])
    assert v.status == IDENTIFIABLE and v.method == METHOD_RANK
    v = decide_identifiability(REF["cycle3_two_leaks"])
    assert v.status == IDENTIFIABLE and v.method == METHOD_RANK
    v = decide_identifiability(REF["four_edge_sc"])
    assert v.status == UNIDENTIFIABLE and v.method == METHOD_RANK


def test_pipeline_shortcut_methods():
    assert decide_identifiability(FIG1).method == METHOD_COUNT
    assert decide_identifiability(REF["cat3_leak1"]).method == METHOD_TREE
    assert decide_identifiability(REF["chorded_cycle3"]).method == METHOD_ISC


def test_pipeline_no_parameters():
    v = decide_identifiability(mk(1, [], [1], [1]))
    assert v.status == NO_PARAMETERS and v.method == METHOD_CONVENTION


def test_pipeline_refuses_non_strongly_connected():
    with pytest.raises(NotStronglyConnectedError):
        decide_identifiability(mk(2, [(1, 2)], [1], [2]))


def test_pipeline_refuses_inputless_models_with_params():
    with pytest.raises(NoInputError):
        decide_identifiability(mk(2, [(1, 2), (2, 1)], [], [1]))


def test_force_rank_agrees_with_shortcuts():
    rng = random.Random(66)
    for _ in range(15):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5))
        v = decide_identifiability(m)
        vr = decide_identifiability(m, force_rank=True)
        assert (v.status == NO_PARAMETERS) or v.status == vr.status


def test_many_leaks_are_unidentifiable():
    # single input and output, more leaks than distinct input/output
    # compartments: never identifiable
    rng = random.Random(67)
    checked = 0
    for _ in range(30):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5),
                                            leak_prob=0.8)
        bound = len(m.inputs | m.outputs)
        if len(m.leaks) <= bound:
            continue
        assert decide_identifiability(m, force_rank=True).status == UNIDENTIFIABLE
        checked += 1
    assert checked >= 5


# -- expected dimension ------------------------------------------------------------

def test_expected_dimension_triangle():
    dim = expected_dimension(FIG1)
    assert dim.image_dim == 5 and dim.expected == 5
    assert dim.has_expected_dimension


def test_expected_dimension_trivial_model():
    dim = expected_dimension(mk(1, [], [1], [1]))
    assert dim.image_dim == 0 and dim.expected == 0
    assert dim.has_expected_dimension


def test_left_side_counts_once_with_several_outputs():
    # every equation has the left side c_k of det(lambda*I - A), so a
    # two-output map lists it once and m counts the distinct non-constant
    # coefficients; counted once per output, m was 9 and min(p, m) = 7
    # made this model read "dimension deficient" at rank 6
    m = mk(3, [(1, 2), (2, 1), (2, 3), (3, 1), (3, 2)], [1], [1, 3], [1, 3])
    cm = coefficient_map(m)
    polys = set(lhs_coefficients(m))
    for out in m.outputs:
        for inp in m.inputs:
            polys.update(rhs_coefficients(m, out, inp)[1])
    distinct = {p for p in polys if not p.is_constant()}
    assert cm.m == len(distinct) == 6
    assert set(cm.entries) == distinct
    assert [c for c in cm.coeffs if c[1] is None] == \
        [(1, None, 2), (1, None, 1), (1, None, 0)]
    dim = expected_dimension(m)
    assert dim.image_dim == dim.expected == cm.m < cm.p == 7
    assert dim.has_expected_dimension


def test_expected_dimension_trees_close_io():
    rng = random.Random(68)
    for n in (2, 3, 4):
        for und in labeled_trees(n):
            inp = rng.randrange(1, n + 1)
            adj = [v for (a, b) in und for v in (a, b)
                   if (a == inp or b == inp) and v != inp]
            out = rng.choice([inp] + adj)
            leaks = [v for v in range(1, n + 1) if rng.random() < 0.5]
            m = bidirectional_tree_model(n, und, [inp], [out], leaks)
            assert expected_dimension(m).has_expected_dimension


def test_verdict_to_dict_stable_keys():
    for m in (FIG1, REF["cycle3_out3"], mk(1, [], [1], [1])):
        report = verdict_to_dict(decide_identifiability(m), m)
        assert sorted(report) == ["coeffs", "criteria", "method", "params",
                                  "rank", "trials", "verdict"]
