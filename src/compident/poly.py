"""Exact multivariate polynomials over the integers, packed and unpacked.

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
symbolic path.  :class:`Poly` is the unpacked form the forest and
determinant routes hand out; it compares, hashes and renders, and does
no ring arithmetic: the package computes on packed monomials only.

The determinant and forest routes build their polynomials on packed
monomials: over a fixed sorted list of P parameters, parameter k owns
the bit field ``[w*(P-1-k), w*(P-k))``, the first parameter the top
one, and a monomial is the int ``sum(e << w*(P-1-k))``, so a product of
monomials is one integer addition and a polynomial is an ``{int: int}``
dict.  The width w is the bit length of a bound on every exponent the
route can form.  ``_Codec`` packs, unpacks and renders.  With the first
parameter on top, two monomials of one degree stand in canonical text
order exactly when their codes stand in descending order, so the text is
rendered straight from the codes: sort by (degree, code) descending and
name each term chunk by chunk, top chunk first, where a chunk is the
value of 8 adjacent fields.  A codec names each chunk value it meets
once, by walking its fields, and keeps the name in a memo that lives as
long as the codec, so a term costs about ceil(P/8) shift, mask and
lookup steps.  ``Poly.text`` packs and then renders, so there is one
renderer for every field width.  A polynomial in lambda, which stands
for the differentiation operator d/dt, is a list of such dicts, one per
power of lambda (a "lambda-list"; see
:func:`compident.graphs.compartmental_matrix`).

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


class Poly:
    """Sparse exact polynomial in the ``a_ij`` parameters: its terms,
    equality and canonical text, with no ring arithmetic."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self.terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    @classmethod
    def one(cls) -> "Poly":
        return cls({(): 1})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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
        bound = max((e for mono in self.terms for _p, e in mono), default=1)
        codec = _Codec((p for mono in self.terms for p, _e in mono), bound)
        return codec.text(codec.pack(self))

    def __repr__(self) -> str:
        return f"Poly({self.text()})"


class _Codec:
    """Monomials over a fixed parameter set packed into single ints.

    With P parameters in sorted order, the k-th owns the bit field
    [w*(P-1-k), w*(P-k)): the first parameter sits in the top field.  A
    monomial's code is the sum of e * 2**(w*(P-1-k)) over its factors,
    and the code of a product is the sum of the factors' codes.  That
    holds as long as no exponent reaches 2**w: the width w is the bit
    length of an exponent bound the caller guarantees for every monomial
    it packs or forms by adding codes.  A packed polynomial is
    ``{code: coeff}``.

    Of two monomials of one degree, the one with the larger code comes
    first in the canonical text (:meth:`text`), for any width: at the
    first parameter where their exponents differ, which owns the highest
    differing field, the larger code has more of that parameter, so its
    flattened parameter list has that parameter where the other's has a
    later one.
    """

    __slots__ = ("params", "width", "_shift", "_names", "_chunks")

    def __init__(self, params: Iterable[Param], bound: int = 1):
        self.params: tuple[Param, ...] = tuple(sorted(set(params)))
        self.width = max(1, bound.bit_length())
        top = len(self.params) - 1
        self._shift = {p: self.width * (top - k)
                       for k, p in enumerate(self.params)}
        # the name of the parameter in each field, lowest field first
        self._names = [param_name(p) for p in reversed(self.params)]
        # (shift, chunk memo) per chunk, top chunk first; built by text()
        self._chunks: list[tuple[int, _ChunkNames]] | None = None

    def var(self, param: Param) -> int:
        """The code of a single parameter."""
        return 1 << self._shift[param]

    def code(self, mono: Monomial) -> int:
        shift = self._shift
        return sum(e << shift[p] for p, e in mono)

    def pack(self, poly: Poly) -> dict[int, int]:
        code = self.code
        return {code(m): c for m, c in poly.terms.items()}

    def monomial(self, code: int) -> Monomial:
        """The canonical sorted monomial of a code."""
        factors = []
        top = len(self.params) - 1
        params, width = self.params, self.width
        while code:
            f = (code.bit_length() - 1) // width
            e = code >> f * width
            code ^= e << f * width
            factors.append((params[top - f], e))
        return tuple(factors)

    def unpack(self, packed: Mapping[int, int]) -> Poly:
        """The Poly of a packed polynomial with no zero coefficients."""
        monomial = self.monomial
        res = Poly.__new__(Poly)
        res.terms = {monomial(c): v for c, v in packed.items()}
        return res

    def text(self, packed: Mapping[int, int]) -> str:
        """The canonical text of a packed polynomial (see :meth:`Poly.text`).

        Terms go by degree, then by code, both descending.  A body is
        named chunk by chunk, top chunk first: a chunk is the value of
        :data:`_CHUNK` adjacent fields, and its name, the names of its
        factors with ``^e`` where e > 1, is looked up in a memo kept with
        the codec, so a body costs one shift, mask and lookup per chunk.
        A value is named by walking its fields only the first time the
        codec meets it; the memo lives as long as the codec does.
        """
        if not packed:
            return "0"
        width = self.width
        order = sorted(packed, reverse=True)
        # stable, so the codes of one degree stay in descending order
        order.sort(key=int.bit_count if width == 1 else self._degree,
                   reverse=True)
        chunks = self._chunks
        if chunks is None:
            fields = self._names
            chunks = self._chunks = [
                (low * width, _ChunkNames(fields[low:low + _CHUNK], width))
                for low in range(0, len(fields), _CHUNK)][::-1]
        mask = (1 << _CHUNK * width) - 1
        parts = []
        for code in order:
            # each name ends in "*", and a chunk with no factor names ""
            body = ""
            for shift, names in chunks:
                body += names[code >> shift & mask]
            coeff = packed[code]
            mag = abs(coeff)
            if not body:
                tok = str(mag)
            elif mag == 1:
                tok = body[:-1]
            else:
                tok = f"{mag}*{body[:-1]}"
            parts.append(("- " if coeff < 0 else "+ ") + tok)
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]

    def _degree(self, code: int) -> int:
        mask = (1 << self.width) - 1
        deg = 0
        while code:
            deg += code & mask
            code >>= self.width
        return deg


# fields per chunk of a code, as :meth:`_Codec.text` names it
_CHUNK = 8


class _ChunkNames(dict):
    """The memo of one chunk of a codec: chunk value -> the names of its
    factors, top field first, each followed by ``"*"``.  A missing value
    is named by walking its fields."""

    __slots__ = ("names", "width")

    def __init__(self, names: list[str], width: int):
        super().__init__({0: ""})
        self.names = names      # the chunk's field names, lowest first
        self.width = width

    def __missing__(self, value: int) -> str:
        names, width = self.names, self.width
        text = ""
        rest = value
        while rest:
            f = (rest.bit_length() - 1) // width
            e = rest >> f * width
            rest ^= e << f * width
            text += names[f] + "*" if e == 1 else f"{names[f]}^{e}*"
        self[value] = text
        return text


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
