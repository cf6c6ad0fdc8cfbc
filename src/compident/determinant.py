"""Input-output equations by symbolic determinants.

This module is the independent route to the equation coefficients: it
expands ``det(lambda*I - A)`` and its minors exactly, where A is the
symbolic compartmental matrix and lambda stands for the differentiation
operator d/dt.  For an output compartment ``out`` the equation reads ::

    det(lambda*I - A) y_out = sum over inputs j of
        (-1)^(out+j) * det((lambda*I - A)^{j,out}) u_j

with ``B^{j,out}`` denoting deletion of row j and column out.  The forest
formulas in :mod:`compident.forests` must reproduce these coefficients
exactly; the test suite enforces the equivalence on a randomized corpus,
and :func:`check_minor_identities` verifies the minor-determinant
identities that relate a model to its leaf-edge extension.

Determinants use Laplace expansion memoized over column subsets, which is
division-free: O(n * 2^n) products of an entry with a minor.  The
expansion runs on packed monomials (see :mod:`compident.poly`): each
entry is packed once into ``{code: coeff}`` dicts, one per power of
lambda, a product of two monomials is one integer addition, and only the
final determinant is unpacked into :class:`Poly` terms.  The test suite
checks it against a fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from .graphs import SymMatrix, compartmental_matrix, star_matrix
from .model import Model, is_strongly_connected
from .poly import LambdaPoly, Param, Poly, _Codec


def _lambda_shifted(M: SymMatrix) -> list[list[LambdaPoly]]:
    """Entries of lambda*I - M."""
    n = M.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = -M.entries[i][j]
            if i == j:
                row.append(LambdaPoly([entry, Poly.one()]))
            else:
                row.append(LambdaPoly.from_poly(entry))
        rows.append(row)
    return rows


_ONE = LambdaPoly([Poly.one()])


def _det_laplace(rows: list[list[LambdaPoly]]) -> LambdaPoly:
    """Determinant of a square matrix of lambda-polynomials.

    Every entry is packed once, the expansion runs on packed
    lambda-lists (one ``{code: coeff}`` dict per power of lambda), and
    the result is unpacked once.  The codec's exponent bound is, over
    the parameters, the largest sum over the columns of the parameter's
    top exponent in the column: a Laplace term takes one entry per
    column, so no product it forms can exceed it.
    """
    n = len(rows)
    if n == 0:
        return _ONE
    bound: dict[Param, int] = {}
    for c in range(n):
        top: dict[Param, int] = {}
        for row in rows:
            for coeff in row[c].coeffs:
                for mono in coeff.terms:
                    for p, e in mono:
                        if e > top.get(p, 0):
                            top[p] = e
        for p, e in top.items():
            bound[p] = bound.get(p, 0) + e
    codec = _Codec(bound.keys(), max(bound.values(), default=1))
    packed = [[[codec.pack(coeff) for coeff in entry.coeffs] for entry in row]
              for row in rows]
    det = _laplace(packed, tuple(range(n)), {})
    return LambdaPoly([codec.unpack(d) for d in det])


def _laplace(rows: list[list[list[dict[int, int]]]], cols: tuple[int, ...],
             memo: dict[tuple[int, ...], list[dict[int, int]]]
             ) -> list[dict[int, int]]:
    """The minor on the last len(cols) rows and the given columns,
    expanded along its first row and memoized by column set.

    Entries and minors are packed lambda-lists, the empty list being
    zero; a minor keeps no zero coefficient and no zero top degree.
    A module-level function and not a closure: a recursive closure
    refers to itself through its own cell, so its memo would live until
    the cyclic garbage collector ran.
    """
    n = len(rows)
    if len(cols) == 1:
        return rows[n - 1][cols[0]]
    cached = memo.get(cols)
    if cached is not None:
        return cached
    r = n - len(cols)
    acc: list[dict[int, int]] = []
    for idx, c in enumerate(cols):
        entry = rows[r][c]
        if not entry:
            continue
        minor = _laplace(rows, cols[:idx] + cols[idx + 1:], memo)
        if not minor:
            continue
        while len(acc) < len(entry) + len(minor) - 1:
            acc.append({})
        odd = idx % 2
        for i, a in enumerate(entry):
            for j, b in enumerate(minor):
                out = acc[i + j]
                get = out.get
                for ca, va in a.items():
                    if odd:
                        va = -va
                    for cb, vb in b.items():
                        code = ca + cb
                        out[code] = get(code, 0) + va * vb
    acc = [{code: v for code, v in d.items() if v} for d in acc]
    while acc and not acc[-1]:
        acc.pop()
    memo[cols] = acc
    return acc


def _delete(rows: list[list[LambdaPoly]], drop_rows: frozenset[int],
            drop_cols: frozenset[int]) -> list[list[LambdaPoly]]:
    # drop_* hold 1-based indices
    return [[e for j, e in enumerate(row, start=1) if j not in drop_cols]
            for i, row in enumerate(rows, start=1) if i not in drop_rows]


def char_lambda_poly(M: SymMatrix) -> LambdaPoly:
    """``det(lambda*I - M)`` as an exact lambda-polynomial."""
    return _det_laplace(_lambda_shifted(M))


def minor_lambda_poly(M: SymMatrix, drop_row: int, drop_col: int) -> LambdaPoly:
    """Determinant of ``lambda*I - M`` with one row and one column removed.

    Row and column indices are 1-based; the lambda entries stay at their
    original diagonal positions, so off-diagonal minors are genuinely
    different from characteristic polynomials of submatrices.
    """
    n = M.n
    if not (1 <= drop_row <= n and 1 <= drop_col <= n):
        raise ValueError(f"minor indices out of range 1..{n}")
    rows = _delete(_lambda_shifted(M), frozenset([drop_row]), frozenset([drop_col]))
    return _det_laplace(rows)


def _multi_minor(M: SymMatrix, drop_rows, drop_cols) -> LambdaPoly:
    rows = _delete(_lambda_shifted(M), frozenset(drop_rows), frozenset(drop_cols))
    return _det_laplace(rows)


@dataclass(frozen=True)
class IoEquation:
    """One input-output equation in coefficient form.

    ``lhs`` lists c_0..c_n with c_n = 1 (monic).  For every input j,
    ``rhs[j]`` holds ``(sign, (d_0, ..., d_{n-1}))`` where sign is
    ``(-1)^(out+j)`` and the d_k are the unsigned coefficient polynomials
    (they equal sign times the raw minor determinant coefficients, which
    makes them plain forest sums with nonnegative coefficients).
    """

    out: int
    lhs: Tuple[Poly, ...]
    rhs: Mapping[int, Tuple[int, Tuple[Poly, ...]]]

    @property
    def n(self) -> int:
        return len(self.lhs) - 1


def io_equation(m: Model, out: int) -> IoEquation:
    """The equation for one output, computed via determinants."""
    if out not in m.outputs:
        raise ValueError(f"compartment {out} is not an output of the model")
    if not m.inputs:
        raise ValueError("model has no inputs; no input-output equation")
    n = m.n
    A = compartmental_matrix(m)
    char = char_lambda_poly(A)
    lhs = tuple(char.coeff(k) for k in range(n + 1))
    rhs: dict[int, tuple[int, tuple[Poly, ...]]] = {}
    for j in sorted(m.inputs):
        minor = minor_lambda_poly(A, j, out)
        sign = -1 if (out + j) % 2 else 1
        ds = tuple(minor.coeff(k).scale(sign) for k in range(n))
        rhs[j] = (sign, ds)
    return IoEquation(out, lhs, rhs)


class IdentityCheckError(AssertionError):
    """A symbolic determinant identity failed -- implementation bug."""


@dataclass(frozen=True)
class MinorIdentityReport:
    """Names of the identities verified (all exact equalities)."""

    model_compartments: int
    checks: Tuple[str, ...]


def _require(cond: bool, name: str):
    if not cond:
        raise IdentityCheckError(f"identity {name!r} failed")


def check_stripped_minor_identity(m: Model) -> int:
    """Row/column-1 deletion against the column-zeroed matrix.

    Verifies, for all compartments i, j != 1 of any model, the equality
    ``lambda * det((lambda*I - A)^{{1,i},{1,j}}) = det((lambda*I - A*_1)^{i,j})``
    where ``A*_1`` zeroes column 1.  Returns the number of (i, j) pairs
    checked; raises :class:`IdentityCheckError` on any mismatch.
    """
    A = compartmental_matrix(m)
    S = star_matrix(m, 1)
    count = 0
    for i in range(2, m.n + 1):
        for j in range(2, m.n + 1):
            lhs = _multi_minor(A, (1, i), (1, j)).shift(1)
            rhs = _multi_minor(S, (i,), (j,))
            _require(lhs == rhs, f"stripped-minor i={i} j={j}")
            count += 1
    return count


def check_minor_forest_signs(m: Model) -> int:
    """Minor determinants against signed forest sums, all index pairs.

    For every (r, q) the coefficients of ``det((lambda*I - A)^{r,q})``
    must equal ``(-1)^(q+r)`` times the pair-restricted forest sums of the
    graph stripped at q.  Returns the number of pairs checked.
    """
    from .forests import forest_sums_by_size
    from .graphs import strip_outgoing

    A = compartmental_matrix(m)
    n = m.n
    count = 0
    for q in range(1, n + 1):
        for r in range(1, n + 1):
            minor = minor_lambda_poly(A, r, q)
            sums = forest_sums_by_size(strip_outgoing(m, q), pair=(r, q))
            sign = -1 if (q + r) % 2 else 1
            for k in range(n):
                _require(minor.coeff(k).scale(sign) == sums[n - k - 1],
                         f"minor-forest-sign r={r} q={q} k={k}")
            count += 1
    return count


def check_leaf_edge_identities(m: Model) -> LambdaPoly:
    """Verify identities 1-3 tying m to its leaf-edge extension at 1.

    A new compartment n is attached to compartment 1 of the leakless
    model m by a bidirected edge.  With A the matrix of m and B that of
    the extended model, the exact identities checked are:

    1. det(lI - B) = l*det(lI - A) + a_1n*det(lI - A)
                     + a_n1*l*det((lI - A)^{1,1})
    2. det((lI - B)^{1,n}) = (-1)^(n-1) * a_n1 * det((lI - A)^{1,1})
    3. det((lI - B)^{n,1}) = (-1)^(n-1) * a_1n * det((lI - A)^{1,1})

    Returns det(lI - B); raises :class:`IdentityCheckError` on any failure.
    """
    from .transforms import add_leaf_edge

    n = m.n + 1
    A = compartmental_matrix(m)
    B = compartmental_matrix(add_leaf_edge(m, 1).model)
    det_a = char_lambda_poly(A)
    det_b = char_lambda_poly(B)
    minor_a11 = minor_lambda_poly(A, 1, 1)
    a_1n = Poly.var((1, n))
    a_n1 = Poly.var((n, 1))
    sign = 1 if (n - 1) % 2 == 0 else -1

    _require(det_b == det_a.shift(1) + det_a.scale(a_1n)
             + minor_a11.scale(a_n1).shift(1), "leaf-edge-char")
    _require(minor_lambda_poly(B, 1, n) == minor_a11.scale(a_n1.scale(sign)),
             "leaf-edge-minor-1n")
    _require(minor_lambda_poly(B, n, 1) == minor_a11.scale(a_1n.scale(sign)),
             "leaf-edge-minor-n1")
    return det_b


def check_minor_identities(m: Model) -> MinorIdentityReport:
    """Verify the determinant identities tying m to its leaf-edge extension.

    Preconditions: m is strongly connected and leakless.  Checks the
    leaf-edge identities of :func:`check_leaf_edge_identities` plus the
    row/column-1 deletion identity on m itself.  Raises
    :class:`IdentityCheckError` on any failure.
    """
    if m.leaks:
        raise ValueError("leaf-edge identities require a leakless model")
    if not is_strongly_connected(m):
        raise ValueError("leaf-edge identities require a strongly connected model")
    check_leaf_edge_identities(m)
    pairs = check_stripped_minor_identity(m)
    return MinorIdentityReport(
        model_compartments=m.n,
        checks=("leaf-edge-char", "leaf-edge-minor-1n", "leaf-edge-minor-n1",
                f"stripped-minor[{pairs} pairs]"),
    )
