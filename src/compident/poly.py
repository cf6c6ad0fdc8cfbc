"""Exact multivariate polynomial arithmetic over the integers.

Every symbolic object in this package is built from rate parameters
``a_ij`` (flow from compartment j into compartment i, with i = 0 meaning a
leak).  A parameter is a pair of ints ``(i, j)``; a monomial is a sorted
tuple of ``(param, exponent)`` pairs; a polynomial maps monomials to
nonzero integer coefficients:

    Param    = (i, j)                         # the label a_ij
    Monomial = ((param, exp), ...)            # sorted by param, exps >= 1
    Poly.terms = {Monomial: int}              # no zero coefficients stored

Coefficients are arbitrary-precision ints, so all identities checked by
the test suite are exact.  There is no floating point anywhere in the
symbolic path.

The determinant and forest routes build their polynomials on packed
monomials: over a fixed sorted parameter list, parameter k owns the bit
field ``[w*k, w*(k+1))`` and a monomial is the int ``sum(e << w*k)``, so
a product of monomials is one integer addition and a polynomial is an
``{int: int}`` dict.  The width w is the bit length of a bound on every
exponent the route can form.  ``_Codec`` packs and unpacks; tuples are
built once per final term.

``LambdaPoly`` wraps a dense vector of :class:`Poly` coefficients indexed
by the degree of an extra distinguished variable ``lambda``, which stands
for the differentiation operator d/dt when input-output equations are
written in operator form.  Its degree is bounded by the matrix size, so a
dense representation is the right shape (the parameter monomials stay
sparse).

``FieldPoint`` assigns every parameter a nonzero residue modulo a large
prime; the generic-rank computation evaluates the compartmental matrix at
such points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple

Param = Tuple[int, int]
Monomial = Tuple[Tuple[Param, int], ...]

# Hard-coded 61-bit primes for generic-point evaluation.  Distinct trials
# use distinct moduli so that a single unlucky point cannot masquerade as
# a rank drop across all trials.
PRIMES: tuple[int, ...] = (
    2305843009213693951,  # 2^61 - 1
    2305843009213693921,
    2305843009213693907,
)


def param_name(param: Param) -> str:
    """Render a parameter, e.g. ``(0, 2) -> 'a02'``.

    Indices of 10 or more get underscore separators to stay unambiguous.
    """
    i, j = param
    if i < 10 and j < 10:
        return f"a{i}{j}"
    return f"a{i}_{j}"


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[Param, int] = dict(a)
    for p, e in b:
        exps[p] = exps.get(p, 0) + e
    return tuple(sorted(exps.items()))


class Poly:
    """Sparse exact polynomial in the ``a_ij`` parameters."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly({(): c}) if c else Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly.const(1)

    @staticmethod
    def var(param: Param) -> "Poly":
        return Poly({((param, 1),): 1})

    @staticmethod
    def monomial(params: Iterable[Param], coeff: int = 1) -> "Poly":
        """Product of the given parameters (with multiplicity) times coeff."""
        exps: dict[Param, int] = {}
        for p in params:
            exps[p] = exps.get(p, 0) + 1
        return Poly({tuple(sorted(exps.items())): coeff})

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        res = Poly.__new__(Poly)
        res.terms = out
        return res

    def __neg__(self) -> "Poly":
        res = Poly.__new__(Poly)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly()
        out: dict[Monomial, int] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        res = Poly.__new__(Poly)
        res.terms = out
        return res

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly()
        res = Poly.__new__(Poly)
        res.terms = {m: c * v for m, v in self.terms.items()}
        return res

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- queries -------------------------------------------------------
    def degree(self) -> int:
        """Total degree; 0 for constants including the zero polynomial."""
        deg = 0
        for m in self.terms:
            deg = max(deg, sum(e for _, e in m))
        return deg

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    # -- canonical text --------------------------------------------------
    def text(self) -> str:
        """Canonical rendering: terms by (degree desc, lexicographic params).

        Example: ``a02*a13*a21 + a02*a21*a23 + a02*a23*a31``.  Bit-exact
        output, suitable for golden tests.  The parameter list compared is
        the flattened one (a parameter with exponent e repeated e times).
        The result is ``"0"`` exactly for the zero polynomial and ``"1"``
        exactly for the one polynomial.
        """
        if not self.terms:
            return "0"
        names: dict[Param, str] = {}
        keyed = []
        for mono, coeff in self.terms.items():
            # Sort key: -degree, then the indices of the flattened
            # parameter list.  Within one degree these lists have equal
            # length, so comparing the ints orders them as the pairs.
            deg = 0
            key = [0]
            factors = []
            for p, e in mono:
                name = names.get(p)
                if name is None:
                    name = names[p] = param_name(p)
                deg += e
                if e == 1:
                    key += p
                    factors.append(name)
                else:
                    key += p * e
                    factors.append(f"{name}^{e}")
            key[0] = -deg
            keyed.append((tuple(key), "*".join(factors), coeff))
        # Distinct monomials have distinct keys, so the sort never
        # compares past them.
        keyed.sort()
        parts: list[str] = []
        for _key, body, coeff in keyed:
            mag = abs(coeff)
            if not body:
                tok = str(mag)
            elif mag == 1:
                tok = body
            else:
                tok = f"{mag}*{body}"
            parts.append(("- " if coeff < 0 else "+ ") + tok)
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]

    def __repr__(self) -> str:
        return f"Poly({self.text()})"


class _Codec:
    """Monomials over a fixed parameter set packed into single ints.

    The k-th parameter in sorted order owns the bit field [w*k, w*(k+1)),
    so a monomial's code is the sum of e * 2**(w*k) over its factors and
    the code of a product is the sum of the factors' codes.  That holds
    as long as no exponent reaches 2**w: the width w is the bit length of
    an exponent bound the caller guarantees for every monomial it packs
    or forms by adding codes.  A packed polynomial is ``{code: coeff}``.
    """

    __slots__ = ("params", "width", "_shift", "_ones")

    def __init__(self, params: Iterable[Param], bound: int = 1):
        self.params: tuple[Param, ...] = tuple(sorted(set(params)))
        self.width = max(1, bound.bit_length())
        self._shift = {p: self.width * k for k, p in enumerate(self.params)}
        # the factor (param, 1) for each field, shared by every decoded
        # monomial of a width-1 codec
        self._ones = [(p, 1) for p in self.params]

    def code(self, mono: Monomial) -> int:
        shift = self._shift
        return sum(e << shift[p] for p, e in mono)

    def pack(self, poly: Poly) -> dict[int, int]:
        code = self.code
        return {code(m): c for m, c in poly.terms.items()}

    def monomial(self, code: int) -> Monomial:
        """The canonical sorted monomial of a code."""
        factors = []
        if self.width == 1:
            ones = self._ones
            while code:
                low = code & -code
                factors.append(ones[low.bit_length() - 1])
                code ^= low
            return tuple(factors)
        width, params = self.width, self.params
        mask = (1 << width) - 1
        k = 0
        while code:
            e = code & mask
            if e:
                factors.append((params[k], e))
            code >>= width
            k += 1
        return tuple(factors)

    def unpack(self, packed: Mapping[int, int]) -> Poly:
        """The Poly of a packed polynomial with no zero coefficients."""
        monomial = self.monomial
        res = Poly.__new__(Poly)
        res.terms = {monomial(c): v for c, v in packed.items()}
        return res


@dataclass(frozen=True)
class FieldPoint:
    """An assignment of every parameter to a nonzero residue mod a prime."""

    prime: int
    values: Mapping[Param, int]

    def __post_init__(self):
        for p, v in self.values.items():
            if not (1 <= v < self.prime):
                raise ValueError(f"coordinate for {param_name(p)} must be in [1, prime-1]")

    @staticmethod
    def random(params: Sequence[Param], prime: int, rng: random.Random) -> "FieldPoint":
        return FieldPoint(prime, {p: rng.randrange(1, prime) for p in params})


class LambdaPoly:
    """Polynomial in lambda with :class:`Poly` coefficients (dense in lambda)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Poly] = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs: tuple[Poly, ...] = tuple(cs)

    @staticmethod
    def zero() -> "LambdaPoly":
        return LambdaPoly()

    @staticmethod
    def from_poly(p: Poly) -> "LambdaPoly":
        return LambdaPoly([p])

    @staticmethod
    def lam() -> "LambdaPoly":
        """The bare lambda variable."""
        return LambdaPoly([Poly.zero(), Poly.one()])

    def coeff(self, k: int) -> Poly:
        """Coefficient of lambda^k (zero beyond the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Poly.zero()

    def degree(self) -> int:
        """Lambda-degree; -1 for the zero element."""
        return len(self.coeffs) - 1

    def leading(self) -> Poly:
        return self.coeffs[-1] if self.coeffs else Poly.zero()

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "LambdaPoly") -> "LambdaPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return LambdaPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly([-c for c in self.coeffs])

    def __sub__(self, other: "LambdaPoly") -> "LambdaPoly":
        return self + (-other)

    def __mul__(self, other: "LambdaPoly") -> "LambdaPoly":
        if not self.coeffs or not other.coeffs:
            return LambdaPoly()
        out = [Poly.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b
        return LambdaPoly(out)

    def scale(self, p: Poly) -> "LambdaPoly":
        return LambdaPoly([c * p for c in self.coeffs])

    def shift(self, k: int = 1) -> "LambdaPoly":
        """Multiply by lambda^k."""
        if not self.coeffs:
            return self
        return LambdaPoly([Poly.zero()] * k + list(self.coeffs))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LambdaPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def text(self, var: str = "L") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree(), -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            if k == 0:
                parts.append(c.text())
            else:
                v = var if k == 1 else f"{var}^{k}"
                parts.append(v if c == Poly.one() else f"({c.text()})*{v}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LambdaPoly({self.text()})"

