"""Symbolic determinant route: golden equations, cross-checks, identities."""

import gc
import random

import pytest

from compident.determinant import (
    _det_laplace,
    _lambda_shifted,
    char_lambda_poly,
    check_minor_forest_signs,
    check_minor_identities,
    check_stripped_minor_identity,
    io_equation,
    minor_lambda_poly,
)
from compident.families import (random_strongly_connected_edges,
                                random_strongly_connected_model, reference_models)
from compident.forests import lhs_coefficients, rhs_coefficients
from compident.graphs import SymMatrix, compartmental_matrix
from compident.poly import LambdaPoly, Poly

from conftest import det_bareiss, mk

REF = reference_models()
FIG1 = REF["k3_leak"]


def test_char_poly_triangle_golden():
    char = char_lambda_poly(compartmental_matrix(FIG1))
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
    char = char_lambda_poly(compartmental_matrix(m))
    assert char.coeff(1) == Poly.one()
    assert char.coeff(0) == Poly.var((0, 1))


def test_minor_triangle_golden():
    minor = minor_lambda_poly(compartmental_matrix(FIG1), 1, 1)
    _sign, ds = rhs_coefficients(FIG1, 1, 1)
    assert minor.degree() == 2
    for k in range(3):
        assert minor.coeff(k) == ds[k]


def test_minor_two_compartment_exchange():
    m = mk(2, [(1, 2), (2, 1)], [1], [1])
    minor = minor_lambda_poly(compartmental_matrix(m), 1, 1)
    assert minor.coeff(1) == Poly.one()
    assert minor.coeff(0) == Poly.var((1, 2))


def test_minor_of_diagonal_matrix():
    m = mk(3, [], [1], [1], [1, 2, 3])
    minor = minor_lambda_poly(compartmental_matrix(m), 2, 2)
    want = (LambdaPoly([Poly.var((0, 1)), Poly.one()])
            * LambdaPoly([Poly.var((0, 3)), Poly.one()]))
    assert minor == want


def test_minor_index_validation():
    with pytest.raises(ValueError):
        minor_lambda_poly(compartmental_matrix(FIG1), 0, 1)


def test_laplace_equals_bareiss_on_models():
    rng = random.Random(51)
    for _ in range(12):
        m = random_strongly_connected_model(rng, rng.randrange(2, 6))
        rows = _lambda_shifted(compartmental_matrix(m))
        assert _det_laplace(rows) == det_bareiss(rows)


def test_bareiss_zero_pivot_paths():
    zero = LambdaPoly.zero()
    one = LambdaPoly.from_poly(Poly.one())
    a = LambdaPoly.from_poly(Poly.var((1, 2)))
    b = LambdaPoly.from_poly(Poly.var((2, 1)))
    lam = LambdaPoly.lam()
    swap = [[zero, a], [b, zero]]
    assert det_bareiss(swap) == _det_laplace(swap)
    zero_col = [[zero, a], [zero, b]]
    assert not det_bareiss(zero_col)
    tricky = [[zero, a, one], [b, zero, lam], [one, lam, zero]]
    assert det_bareiss(tricky) == _det_laplace(tricky)
    singular = [[a, b, one], [a, b, one], [lam, one, a]]
    assert not det_bareiss(singular) and not _det_laplace(singular)


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
        assert _det_laplace(rows) == det_bareiss(rows)


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
    raw_minor = minor_lambda_poly(compartmental_matrix(m), 1, 2)
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
    report = check_minor_identities(REF["chorded_cycle3"])
    assert "leaf-edge-char" in report.checks


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
    A = compartmental_matrix(mk(6, edges, [1], [1], [2]))
    gc.collect()
    gc.disable()
    try:
        char = char_lambda_poly(A)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert char.coeff(6) == Poly.one()
