"""Exact polynomial arithmetic: ring laws, calculus, evaluation, rendering."""

import random

import pytest

from compident.determinant import io_equation
from compident.families import reference_models
from compident.poly import PRIMES, FieldPoint, _Codec

from conftest import InexactDivision, LambdaPoly, Poly, eval_mod, \
    lambda_exact_div, partial_derivative, poly_exact_div, reference_text

A02, A12, A13, A21, A23, A31, A32 = \
    (0, 2), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)


def random_poly(rng, max_terms=20, params=None, max_exp=2, max_coeff=9):
    params = params or [A02, A12, A13, A21, A23, A31, A32]
    out = Poly.zero()
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = Poly.one()
        for p in params:
            e = rng.randrange(0, max_exp + 1)
            for _ in range(e):
                mono = mono * Poly.var(p)
        out = out + mono.scale(rng.randrange(-max_coeff, max_coeff + 1))
    return out


def test_var_plus_var():
    assert (Poly.var(A12) + Poly.var(A13)).text() == "a12 + a13"


def test_monomial_product():
    prod = Poly.var(A02) * Poly.monomial([A13, A21])
    assert prod.text() == "a02*a13*a21"


def test_additive_inverse_random():
    rng = random.Random(1)
    for _ in range(25):
        p = random_poly(rng)
        assert not (p + (-p))


def test_ring_axioms_random():
    rng = random.Random(2)
    for _ in range(15):
        a, b, c = (random_poly(rng, 8) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_canonical_form_no_zero_terms():
    p = Poly.var(A12) - Poly.var(A12)
    assert p.terms == {}
    assert p.text() == "0"


def test_degree_and_constant_queries():
    assert Poly.zero().degree() == 0
    assert Poly.const(5).is_constant()
    assert not Poly.var(A12).is_constant()
    assert (Poly.var(A12) * Poly.var(A12)).degree() == 2


# -- partial derivatives ------------------------------------------------

FIG1_C0 = (Poly.monomial([A02, A13, A21]) + Poly.monomial([A02, A21, A23])
           + Poly.monomial([A02, A23, A31]))


def test_derivative_of_triangle_constant_coefficient():
    got = partial_derivative(FIG1_C0, A21)
    assert got == Poly.monomial([A02, A13]) + Poly.monomial([A02, A23])


def test_derivative_of_constant_is_zero():
    assert not partial_derivative(Poly.const(7), A12)


def test_derivative_of_square():
    x = Poly.var(A12)
    assert partial_derivative(x * x, A12) == x.scale(2)


def test_product_rule_random():
    rng = random.Random(3)
    for _ in range(15):
        f = random_poly(rng, 6)
        g = random_poly(rng, 6)
        x = rng.choice([A02, A12, A21])
        lhs = partial_derivative(f * g, x)
        rhs = partial_derivative(f, x) * g + f * partial_derivative(g, x)
        assert lhs == rhs


# -- evaluation ---------------------------------------------------------

def test_eval_constant():
    pt = FieldPoint(7, {})
    assert eval_mod(Poly.const(5), pt) == 5


def test_eval_single_var():
    pt = FieldPoint(7, {A12: 3})
    assert eval_mod(Poly.var(A12), pt) == 3


def test_eval_triangle_at_all_ones():
    for prime in PRIMES:
        pt = FieldPoint(prime, {p: 1 for p in [A02, A13, A21, A23, A31]})
        assert eval_mod(FIG1_C0, pt) == 3


def test_eval_missing_param_raises():
    pt = FieldPoint(7, {A12: 3})
    with pytest.raises(KeyError):
        eval_mod(Poly.var(A13), pt)


def test_eval_is_ring_homomorphism():
    rng = random.Random(4)
    params = [A02, A12, A13, A21]
    for _ in range(15):
        f = random_poly(rng, 6, params)
        g = random_poly(rng, 6, params)
        prime = PRIMES[rng.randrange(len(PRIMES))]
        pt = FieldPoint(prime, {p: rng.randrange(1, prime) for p in params})
        assert eval_mod(f * g, pt) == eval_mod(f, pt) * eval_mod(g, pt) % prime
        assert eval_mod(f + g, pt) == (eval_mod(f, pt) + eval_mod(g, pt)) % prime


def test_field_point_rejects_zero_coordinate():
    with pytest.raises(ValueError):
        FieldPoint(7, {A12: 0})


def test_primes_are_61_bit_and_distinct():
    assert len(set(PRIMES)) == len(PRIMES) >= 3
    for p in PRIMES:
        assert 2 ** 60 < p < 2 ** 62
        assert pow(2, p - 1, p) == 1  # Fermat sanity


# -- canonical text ------------------------------------------------------

def test_text_term_order_graded_then_lex():
    p = Poly.var(A12) + Poly.monomial([A02, A13]) + Poly.const(4)
    assert p.text() == "a02*a13 + a12 + 4"


def test_text_coefficients_and_signs():
    p = Poly.var(A12).scale(-2) + Poly.monomial([A12, A12])
    assert p.text() == "a12^2 - 2*a12"
    assert (-Poly.var(A12)).text() == "-a12"


def test_text_matches_reference_renderer_random():
    # non-homogeneous polynomials with exponents up to 4 (fields of 3
    # bits), coefficients of either sign beyond 2**64, and the constant
    # and zero polynomials
    rng = random.Random(8)
    params = [A02, A12, A13, A21, (10, 2), (0, 11), (2, 10), (12, 13)]
    polys = [Poly.zero(), Poly.const(-7), Poly.const(2 ** 70)]
    for max_exp in (1, 2, 3, 4):
        for _ in range(30):
            p = random_poly(rng, 12, rng.sample(params, 5), max_exp=max_exp,
                            max_coeff=rng.choice([9, 2 ** 70]))
            polys.append(p + Poly.const(rng.randrange(-5, 6)))
    assert any(max(e for m in p.terms for _q, e in m) == 4
               for p in polys if not p.is_constant())
    assert any(abs(c) > 2 ** 64 for p in polys for c in p.terms.values())
    for p in polys:
        assert p.text() == reference_text(p)


def test_codec_text_renders_a_packed_dict():
    # a one-bit codec over parameters the polynomial does not all use
    codec = _Codec([A32, A02, A13, A21, A23, A31, (10, 2)])
    assert codec.width == 1
    packed = {codec.code(((A02, 1), (A13, 1))): 1,
              codec.code(((A21, 1), (A32, 1))): -3,
              codec.code(((A13, 1), (A23, 1))): 2 ** 65,
              codec.code(((A31, 1),)): 1,
              codec.code(((A02, 1), (A23, 1), (A32, 1))): -1,
              0: 4}
    want = ("-a02*a23*a32 + a02*a13 + 36893488147419103232*a13*a23 "
            "- 3*a21*a32 + a31 + 4")
    assert codec.text(packed) == want == reference_text(codec.unpack(packed))
    assert codec.text({}) == "0" and codec.text({0: 1}) == "1"


def test_codec_text_reuses_chunk_names_across_polynomials():
    # 33 parameters with two-digit indices fill five chunks of fields;
    # many polynomials on one codec per width name their chunks from one
    # memo, in sparse and dense terms, constants, zero and coefficients
    # of either sign beyond 2**64
    rng = random.Random(24)
    params = sorted({(i, j) for i in range(0, 13) for j in range(1, 13)
                     if i != j and (i >= 10 or j >= 10)})[:33]
    assert len(params) == 33 and (1, 12) in params
    for bound in (1, 3, 7):
        codec = _Codec(params, bound)
        assert codec.width == bound.bit_length()
        texts = []
        for _ in range(40):
            packed = {}
            for _ in range(rng.randrange(0, 25)):
                used = rng.sample(params, rng.choice([1, 2, 5, 12, 33]))
                mono = tuple(sorted((p, rng.randrange(1, bound + 1))
                                    for p in used))
                packed[codec.code(mono)] = rng.choice(
                    [1, -1, 2, -3, 2 ** 65 + 3, -(2 ** 70)])
            packed[0] = rng.choice([0, 5, -1, 2 ** 66])
            packed = {code: v for code, v in packed.items() if v}
            want = reference_text(codec.unpack(packed))
            assert codec.text(packed) == want
            texts.append((packed, want))
        for packed, want in texts:      # every chunk value named already
            assert codec.text(packed) == want
        assert codec.text({}) == "0" and codec.text({0: -4}) == "-4"
        assert "a1_12" in "".join(want for _p, want in texts)


def test_text_matches_reference_renderer_on_fixture_equations():
    for m in reference_models().values():
        for out in sorted(m.outputs):
            eq = io_equation(m, out)
            coeffs = list(eq.lhs) + [d for _sign, ds in eq.rhs.values()
                                     for d in ds]
            for c in coeffs:
                assert c.text() == reference_text(c)


def test_mul_repeated_parameters():
    a12, a13 = Poly.var(A12), Poly.var(A13)
    square = a12 * a12
    assert square.terms == {((A12, 2),): 1}
    cube = square * a13 * a12
    assert cube.terms == {((A12, 3), (A13, 1)): 1}
    assert cube.text() == "a12^3*a13"


def test_codec_round_trip_and_products():
    # the first sorted parameter owns the top field; a product's code is
    # the sum of the factors' codes while no exponent outgrows the bound;
    # one-bit fields need factors with no common parameter
    rng = random.Random(27)
    params = [A02, A12, A13, A21, A23, A31, A32]
    for bound in (1, 2, 3, 4, 7, 8, 100):
        codec = _Codec(params + [A12], bound)
        assert codec.params == tuple(params)
        assert codec.width == bound.bit_length()
        for k, p in enumerate(params):
            assert codec.var(p) == 1 << codec.width * (len(params) - 1 - k)
            assert codec.code(((p, bound),)) == bound * codec.var(p)
        assert codec.monomial(0) == () and codec.unpack({}) == Poly.zero()
        for _ in range(20):
            poly = random_poly(rng, 6, max_exp=min(bound, 3), max_coeff=2 ** 80)
            assert codec.unpack(codec.pack(poly)).terms == poly.terms
            if bound == 1:
                left = rng.sample(params, 3)
                a = Poly.monomial(left)
                b = Poly.monomial(p for p in params if p not in left
                                  and rng.random() < 0.5)
            else:
                a, b = (Poly.monomial(rng.choices(params, k=bound // 2))
                        for _ in range(2))
            ((ma, _),), ((mb, _),) = a.terms.items(), b.terms.items()
            ((mab, _),) = (a * b).terms.items()
            assert codec.monomial(codec.code(ma) + codec.code(mb)) == mab


# -- lambda polynomials ---------------------------------------------------

def test_lambda_linear_product():
    a, b = Poly.var(A12), Poly.var(A21)
    la = LambdaPoly([a, Poly.one()])
    lb = LambdaPoly([b, Poly.one()])
    prod = la * lb
    assert prod.coeff(2) == Poly.one()
    assert prod.coeff(1) == a + b
    assert prod.coeff(0) == a * b


def test_lambda_multiplication_by_zero():
    la = LambdaPoly([Poly.var(A12), Poly.one()])
    assert not (la * LambdaPoly.zero())


def test_lambda_degree_additive():
    rng = random.Random(5)
    for _ in range(15):
        f = LambdaPoly([random_poly(rng, 3) for _ in range(rng.randrange(1, 5))]
                       + [Poly.one()])
        g = LambdaPoly([random_poly(rng, 3) for _ in range(rng.randrange(1, 5))]
                       + [Poly.one()])
        assert (f * g).degree() == f.degree() + g.degree()


def test_lambda_shift_and_coeff():
    la = LambdaPoly([Poly.var(A12)])
    assert la.shift(2).coeff(2) == Poly.var(A12)
    assert not la.shift(2).coeff(0)


# -- exact division (the fraction-free determinant oracle) ---------------

def test_poly_exact_division_roundtrip():
    rng = random.Random(6)
    for _ in range(20):
        f = random_poly(rng, 5)
        g = random_poly(rng, 5)
        if not g:
            continue
        assert poly_exact_div(f * g, g) == f


def test_poly_inexact_division_raises():
    with pytest.raises(InexactDivision):
        poly_exact_div(Poly.var(A12), Poly.var(A13))


def test_lambda_exact_division_roundtrip():
    rng = random.Random(7)
    for _ in range(15):
        f = LambdaPoly([random_poly(rng, 3) for _ in range(3)] + [Poly.one()])
        g = LambdaPoly([random_poly(rng, 3), Poly.one()])
        assert lambda_exact_div(f * g, g) == f
