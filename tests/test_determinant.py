"""Symbolic determinant route: golden equations, cross-checks, identities."""

import gc
import itertools
import random

import pytest

from compident import determinant, poly
from compident.cli import run_selftest
from compident.determinant import (
    IdentityCheckError,
    check_leaf_edge_identities,
    check_minor_forest_signs,
    check_minor_identities,
    check_stripped_minor_identity,
    det_sides,
    io_equation,
)
from compident.families import (random_strongly_connected_edges,
                                random_strongly_connected_model, reference_models)
from compident.forests import lhs_coefficients, rhs_coefficients
from compident.model import param_vector
from compident.poly import _Codec
from compident.transforms import add_leaf_edge

from conftest import LambdaPoly, Poly, SymMatrix, all_digraphs, \
    char_lambda_poly, closure_strongly_connected, det_bareiss, det_laplace, \
    dropping_a_term, lambda_shifted, minor_lambda_poly, mk, poly_matrix

REF = reference_models()
FIG1 = REF["k3_leak"]


def test_char_poly_triangle_golden():
    char = char_lambda_poly(poly_matrix(FIG1))
    assert char.degree() == 3
    assert char.coeff(3) == Poly.one()
    cs = lhs_coefficients(FIG1)
    for k in range(3):
        assert char.coeff(k) == cs[k]


def test_char_poly_zero_matrix():
    for n in (1, 2, 4):
        zero = SymMatrix(tuple(tuple(Poly.zero() for _ in range(n))
                               for _ in range(n)))
        char = char_lambda_poly(zero)
        assert char.degree() == n
        assert char.coeff(n) == Poly.one()
        assert all(not char.coeff(k) for k in range(n))


def test_char_poly_single_leak_compartment():
    m = mk(1, [], [1], [1], [1])
    char = char_lambda_poly(poly_matrix(m))
    assert char.coeff(1) == Poly.one()
    assert char.coeff(0) == Poly.var((0, 1))


def test_minor_triangle_golden():
    minor = minor_lambda_poly(poly_matrix(FIG1), 1, 1)
    _sign, ds = rhs_coefficients(FIG1, 1, 1)
    assert minor.degree() == 2
    for k in range(3):
        assert minor.coeff(k) == ds[k]


def test_minor_two_compartment_exchange():
    m = mk(2, [(1, 2), (2, 1)], [1], [1])
    minor = minor_lambda_poly(poly_matrix(m), 1, 1)
    assert minor.coeff(1) == Poly.one()
    assert minor.coeff(0) == Poly.var((1, 2))


def test_minor_of_diagonal_matrix():
    m = mk(3, [], [1], [1], [1, 2, 3])
    minor = minor_lambda_poly(poly_matrix(m), 2, 2)
    want = (LambdaPoly([Poly.var((0, 1)), Poly.one()])
            * LambdaPoly([Poly.var((0, 3)), Poly.one()]))
    assert minor == want


def test_minor_index_validation():
    with pytest.raises(ValueError):
        minor_lambda_poly(poly_matrix(FIG1), 0, 1)


def test_laplace_equals_bareiss_on_models():
    rng = random.Random(51)
    for _ in range(12):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        rows = lambda_shifted(poly_matrix(m))
        assert det_laplace(rows) == det_bareiss(rows)


def test_bareiss_zero_pivot_paths():
    zero = LambdaPoly.zero()
    one = LambdaPoly.from_poly(Poly.one())
    a = LambdaPoly.from_poly(Poly.var((1, 2)))
    b = LambdaPoly.from_poly(Poly.var((2, 1)))
    lam = LambdaPoly.lam()
    swap = [[zero, a], [b, zero]]
    assert det_bareiss(swap) == det_laplace(swap)
    zero_col = [[zero, a], [zero, b]]
    assert not det_bareiss(zero_col)
    tricky = [[zero, a, one], [b, zero, lam], [one, lam, zero]]
    assert det_bareiss(tricky) == det_laplace(tricky)
    singular = [[a, b, one], [a, b, one], [lam, one, a]]
    assert not det_bareiss(singular) and not det_laplace(singular)


def test_laplace_equals_bareiss_on_random_poly_matrices():
    rng = random.Random(52)
    params = [(1, 2), (2, 1), (1, 3)]
    for _ in range(10):
        n = rng.randrange(1, 5)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                p = Poly.zero()
                for par in params:
                    if rng.random() < 0.4:
                        p = p + Poly.var(par).scale(rng.randrange(-3, 4) or 1)
                row.append(LambdaPoly([p, Poly.one()]) if i == j
                           else LambdaPoly.from_poly(p))
            rows.append(row)
        assert det_laplace(rows) == det_bareiss(rows)


def test_laplace_equals_bareiss_with_wide_exponent_fields():
    # cubes and big coefficients: the packed fields are wider than one
    # bit, and products must add exponents without carrying between them
    rng = random.Random(53)
    params = [(1, 2), (2, 1), (3, 1)]

    def rand_poly():
        p = Poly.zero()
        for _ in range(rng.randrange(0, 3)):
            mono = [par for par in params for _ in range(rng.randrange(0, 4))]
            p = p + Poly.monomial(mono, rng.choice([-1, 1])
                                  * rng.randrange(1, 2 ** 70))
        return p

    for n in range(0, 5):
        for _ in range(4):
            rows = [[LambdaPoly([rand_poly(), Poly.const(rng.randrange(1, 3))])
                     if i == j else LambdaPoly.from_poly(rand_poly())
                     for j in range(n)] for i in range(n)]
            assert det_laplace(rows) == det_bareiss(rows)
    assert det_laplace([]) == LambdaPoly([Poly.one()])
    cube = LambdaPoly.from_poly(Poly.monomial([(1, 2)] * 3, 2 ** 65))
    assert det_laplace([[cube]]) == cube


def test_laplace_reaches_the_exponent_bound():
    # column 1 holds x^3 and column 2 holds x: the determinant's x^4 fills
    # a 3-bit field, and x^3 * y^4 two fields side by side
    x, y = (1, 2), (2, 1)
    x3 = LambdaPoly.from_poly(Poly.monomial([x] * 3))
    zero = LambdaPoly.zero()
    rows = [[x3, zero], [zero, LambdaPoly.from_poly(Poly.var(x))]]
    assert det_laplace(rows).text() == "a12^4"
    y4 = LambdaPoly.from_poly(Poly.monomial([y] * 4, -5))
    rows = [[x3, y4], [y4, x3]]
    assert det_laplace(rows) == det_bareiss(rows)
    assert det_laplace(rows).text() == "-25*a21^8 + a12^6"


RING_OPERATORS = ("__add__", "__radd__", "__sub__", "__mul__", "__neg__")


def _assert_package_poly_has_no_ring_arithmetic():
    # the package's Poly compares and renders; the ring operators live only
    # on the tests' oracle subclass, so no package route can multiply or
    # add unpacked polynomials
    for op in RING_OPERATORS:
        assert not hasattr(poly.Poly, op), op
        assert hasattr(Poly, op), op


def test_io_equation_multiplies_no_poly():
    rng = random.Random(54)
    m = random_strongly_connected_model(rng, 7, extra=0.35, leak_prob=0.3)
    _assert_package_poly_has_no_ring_arithmetic()
    eq = io_equation(m, min(m.outputs))
    assert len(m.edges) > 14
    assert eq.lhs[m.n] == Poly.one()


# -- full equations ------------------------------------------------------------

def test_io_equation_triangle():
    eq = io_equation(FIG1, 1)
    cs = lhs_coefficients(FIG1)
    assert eq.lhs == tuple(cs) + (Poly.one(),)
    sign, ds = rhs_coefficients(FIG1, 1, 1)
    assert eq.rhs[1] == (sign, tuple(ds))


def test_io_equation_trivial_compartment():
    eq = io_equation(mk(1, [], [1], [1]), 1)
    assert eq.lhs == (Poly.zero(), Poly.one())
    assert eq.rhs[1] == (1, (Poly.one(),))


def test_io_equation_two_compartment_cross():
    m = REF["cat2_in1_out2"]
    eq = io_equation(m, 2)
    assert eq.lhs == (Poly.zero(), Poly.var((1, 2)) + Poly.var((2, 1)), Poly.one())
    sign, ds = eq.rhs[1]
    assert sign == -1
    # raw minor determinant is -a21; the stored coefficient is the
    # unsigned forest sum, so the net u-coefficient is +a21
    assert ds == (Poly.var((2, 1)), Poly.zero())
    raw_minor = minor_lambda_poly(poly_matrix(m), 1, 2)
    assert raw_minor.coeff(0) == -Poly.var((2, 1))


def test_io_equation_requires_output_and_input():
    with pytest.raises(ValueError):
        io_equation(FIG1, 2)
    with pytest.raises(ValueError):
        io_equation(mk(2, [(1, 2), (2, 1)], [], [1]), 1)


def test_forest_equals_determinant_on_random_corpus():
    rng = random.Random(53)
    for _ in range(30):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        (out,) = m.outputs
        eq = io_equation(m, out)
        cs = lhs_coefficients(m)
        assert eq.lhs == tuple(cs) + (Poly.one(),)
        for inp in sorted(m.inputs):
            sign, ds = rhs_coefficients(m, out, inp)
            assert eq.rhs[inp] == (sign, tuple(ds))


# -- identities ------------------------------------------------------------------

def test_leaf_identities_on_chorded_cycle_pair():
    m = REF["chorded_cycle3"]
    assert check_minor_identities(m) is None    # it raises on a failure
    assert check_stripped_minor_identity(m) == (m.n - 1) ** 2


def test_leaf_identities_random_corpus():
    rng = random.Random(54)
    for _ in range(10):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5),
                                            leak_prob=0.0)
        check_minor_identities(m)


def test_leaf_identities_require_leakless():
    with pytest.raises(ValueError):
        check_minor_identities(REF["cat3_leak1"])


def test_stripped_minor_identity_with_leaks():
    rng = random.Random(55)
    for _ in range(10):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        pairs = check_stripped_minor_identity(m)
        assert pairs == (m.n - 1) ** 2


def test_minor_forest_signs_all_pairs():
    rng = random.Random(56)
    for _ in range(8):
        m = random_strongly_connected_model(rng, rng.randrange(2, 5))
        assert check_minor_forest_signs(m) == m.n ** 2


def test_minor_forest_signs_not_strongly_connected_still_holds():
    # the sign relation is a matrix identity; connectivity is irrelevant
    m = mk(3, [(1, 2), (2, 3)], [1], [3], [2])
    assert check_minor_forest_signs(m) == 9


def test_char_poly_leaves_no_cyclic_garbage():
    # the expansion's memo of minors is freed on return, not left in a
    # reference cycle for the cyclic collector
    edges = random_strongly_connected_edges(random.Random(9), 6, 0.6)
    A = poly_matrix(mk(6, edges, [1], [1], [2]))
    gc.collect()
    gc.disable()
    try:
        char = char_lambda_poly(A)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert char.coeff(6) == Poly.one()


# -- the packed routes against the unpacked oracles ----------------------------

def test_packed_determinants_match_the_oracles_exhaustively():
    # every digraph with n <= 3, each single input/output placement and
    # each leak set of size <= 2; the oracles depend on the graph and the
    # leaks only, so they are expanded once per pair of those
    models = leaf_checks = 0
    for n, edges in all_digraphs(3):
        strongly = closure_strongly_connected(n, edges)
        for size in range(min(n, 2) + 1):
            for leaks in itertools.combinations(range(1, n + 1), size):
                A = poly_matrix(mk(n, edges, [1], [1], leaks))
                char = list(char_lambda_poly(A).coeffs)
                signed = {(r, q): [minor_lambda_poly(A, r, q).coeff(k)
                                   .scale(-1 if (q + r) % 2 else 1)
                                   for k in range(n)]
                          for r in range(1, n + 1) for q in range(1, n + 1)}
                leaf = None
                if strongly and not leaks:
                    leaf = list(char_lambda_poly(poly_matrix(
                        add_leaf_edge(mk(n, edges, [1], [1]), 1).model)).coeffs)
                for inp in range(1, n + 1):
                    for out in range(1, n + 1):
                        m = mk(n, edges, [inp], [out], leaks)
                        codec = _Codec(param_vector(m))
                        unpack = codec.unpack
                        # each input alone, with its row on top of the
                        # expansion of c, and all of them on one call
                        every = range(1, n + 1)
                        for ins in [[r] for r in every] + [every]:
                            cs, ds = det_sides(m, codec, every, ins)
                            assert [unpack(c) for c in cs] == char
                            for (q, r), d in ds.items():
                                assert [unpack(e) for e in d] \
                                    == signed[r, q], (m, r, q)
                        models += 1
                        if leaf is None:
                            continue
                        ext = _Codec(param_vector(add_leaf_edge(m, 1).model))
                        assert [ext.unpack(c) for c in
                                check_leaf_edge_identities(m)] == leaf, m
                        leaf_checks += 1
    assert (models, leaf_checks) == (2 + 4 * 4 * 4 + 64 * 7 * 9, 1 + 4 + 18 * 9)


# -- each identity check can fail ------------------------------------------------

def test_minor_forest_signs_catches_a_dropped_forest(monkeypatch):
    monkeypatch.setattr(determinant, "forest_rhs", dropping_a_term(
        determinant.forest_rhs,
        lambda ds, m, out, inputs, codec: [ds[3]] if out == 2 else []))
    with pytest.raises(IdentityCheckError, match="minor-forest-sign r=3 q=2"):
        check_minor_forest_signs(FIG1)


def _flipping_sign(original, when):
    def patched(*args):
        det = original(*args)
        if when(*args):
            det = [{code: -v for code, v in d.items()} for d in det]
        return det
    return patched


def test_stripped_minor_identity_catches_a_flipped_minor(monkeypatch):
    monkeypatch.setattr(determinant, "_minor", _flipping_sign(
        determinant._minor,
        lambda rows, drop_rows=(), drop_cols=(): drop_cols == (1, 3)))
    with pytest.raises(IdentityCheckError, match="stripped-minor i=2 j=3"):
        check_stripped_minor_identity(FIG1)


def test_stripped_minor_identity_catches_a_dropped_term(monkeypatch):
    monkeypatch.setattr(determinant, "_minor", dropping_a_term(
        determinant._minor, lambda det, rows, drop_rows=(), drop_cols=():
        [det] if drop_rows == (3,) else []))
    with pytest.raises(IdentityCheckError, match="stripped-minor i=3 j=2"):
        check_stripped_minor_identity(FIG1)


@pytest.mark.parametrize("drops,name", [
    (lambda n: ((), ()), "leaf-edge-char"),
    (lambda n: ((1,), (n,)), "leaf-edge-minor-1n"),
    (lambda n: ((n,), (1,)), "leaf-edge-minor-n1"),
])
def test_leaf_edge_identities_catch_a_flipped_minor(monkeypatch, drops, name):
    m = REF["chorded_cycle3"]
    n = m.n + 1

    def on_b(rows, drop_rows=(), drop_cols=()):
        return len(rows) == n and (drop_rows, drop_cols) == drops(n)

    monkeypatch.setattr(determinant, "_minor", _flipping_sign(
        determinant._minor, on_b))
    with pytest.raises(IdentityCheckError, match=name):
        check_leaf_edge_identities(m)


def test_selftest_fails_on_a_flipped_leaf_edge_minor(monkeypatch):
    # the sign of det((lI - B)^{1,n}) flipped: selftest reports the
    # leaf-edge identity by name
    monkeypatch.setattr(determinant, "_minor", _flipping_sign(
        determinant._minor, lambda rows, drop_rows=(), drop_cols=():
        (drop_rows, drop_cols) == ((1,), (len(rows),))))
    summary = run_selftest(7, 1)
    assert not summary["ok"]
    assert any("identity 'leaf-edge-minor-1n' failed" in f
               for f in summary["failures"])


def test_identity_checks_make_no_poly_arithmetic():
    _assert_package_poly_has_no_ring_arithmetic()
    m = random_strongly_connected_model(random.Random(57), 5, leak_prob=0.0)
    assert len(m.edges) > 5
    check_minor_identities(m)
    assert check_minor_forest_signs(m) == 25
