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
division-free: O(n * 2^n) products of an entry with a minor.  It runs
on packed monomials (see :mod:`compident.poly`), where a product of two
monomials is one integer addition.  Every determinant here is a minor of
the packed ``lambda*I - A`` of
:func:`~compident.graphs.compartmental_matrix` on a one-bit codec per
model.  An identity check takes its minors from :func:`_minor`;
:func:`det_sides` expands all equation sides on one memo per input, with
that input's row on top, so that c and every d share the minors without
it.  Minors and :func:`_combine` sums are trimmed lambda-lists, so an
identity is ``==`` on lists.  :func:`io_equation` unpacks the equation
sides.  The test suite checks the expansion against a fraction-free
(Bareiss) elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple

from .forests import forest_rhs
from .graphs import LambdaList, compartmental_matrix
from .model import Model, is_strongly_connected, param_vector
from .poly import Poly, _Codec


def _trimmed(acc: list[dict[int, int]]) -> LambdaList:
    """``acc`` without zero coefficients and empty top entries, so that
    zero is the empty list and equal polynomials have equal lists.  Trims
    in place: deleting the cancelled terms (about one in seven on dense
    models) costs less than copying all the others."""
    for d in acc:
        for code in [code for code, v in d.items() if not v]:
            del d[code]
    while acc and not acc[-1]:
        acc.pop()
    return acc


def _laplace(rows: list[list[LambdaList]], cols: tuple[int, ...],
             memo: dict[tuple[int, ...], LambdaList]) -> LambdaList:
    """The minor on the last len(cols) rows and the given columns,
    expanded along its first row and memoized by column set; 1 for no
    columns.

    Entries and minors are trimmed packed lambda-lists (see
    :func:`_trimmed`).  A module-level function and not a closure: a recursive closure
    refers to itself through its own cell, so its memo would live until
    the cyclic garbage collector ran.
    """
    n = len(rows)
    if len(cols) <= 1:
        return rows[n - 1][cols[0]] if cols else [{0: 1}]
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
    acc = _trimmed(acc)
    memo[cols] = acc
    return acc


def _minor(rows: list[list[LambdaList]], drop_rows: Iterable[int] = (),
           drop_cols: Iterable[int] = ()) -> LambdaList:
    """The determinant of ``rows`` without the given rows and columns
    (1-based indices); the whole determinant when none is given."""
    drop_rows, drop_cols = set(drop_rows), set(drop_cols)
    kept = [[e for c, e in enumerate(row, start=1) if c not in drop_cols]
            for r, row in enumerate(rows, start=1) if r not in drop_rows]
    return _laplace(kept, tuple(range(len(kept))), {})


def _combine(terms: Iterable[tuple[int, int, int, LambdaList]]) -> LambdaList:
    """The sum of ``lambda^k * x * s * f`` over the terms (k, x, s, f),
    where x is a monomial code and s is +1 or -1, trimmed as
    :func:`_laplace` trims a minor."""
    acc: list[dict[int, int]] = []
    for k, x, s, f in terms:
        while len(acc) < k + len(f):
            acc.append({})
        for out, d in zip(acc[k:], f):
            for code, v in d.items():
                code += x
                out[code] = out.get(code, 0) + s * v
    return _trimmed(acc)


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
    codec = _Codec(param_vector(m))
    unpack = codec.unpack
    inputs = sorted(m.inputs)
    cs, ds = det_sides(m, codec, [out], inputs)
    rhs: dict[int, tuple[int, tuple[Poly, ...]]] = {}
    for j in inputs:
        sign = -1 if (out + j) % 2 else 1
        rhs[j] = (sign, tuple(unpack(d) for d in ds[out, j]))
    return IoEquation(out, tuple(unpack(c) for c in cs), rhs)


def _negated(poly: LambdaList) -> LambdaList:
    return [{code: -v for code, v in d.items()} for d in poly]


def det_sides(m: Model, codec: _Codec, outputs: Sequence[int],
              inputs: Sequence[int]
              ) -> tuple[LambdaList, dict[tuple[int, int], LambdaList]]:
    """``[c_0, ..., c_n]``, the coefficients of ``det(lambda*I - A)``,
    and per (output, input) pair the unsigned ``[d_0, ..., d_{n-1}]``:
    ``(-1)^(out+inp)`` times the coefficients of the minor of
    ``lambda*I - A`` without row ``inp`` and column ``out``.  All are
    packed on ``codec``, a one-bit codec over the model's parameters;
    ``inputs`` must not be empty.

    Per input, the rows are expanded with row ``inp`` moved to the top,
    which multiplies the determinant by ``(-1)^(inp-1)``, and the minors
    one level down are exactly those without row ``inp``.  So for the
    first input the expansion of c leaves every (inp, out) minor in its
    memo, or where the (inp, out) entry is zero, the minors one level
    below it, and every d reads from there.  Each later input expands its
    minors on a memo of its own.  A memo is dropped before the next one
    is built, and all are gone on return.
    """
    rows = compartmental_matrix(m, codec)
    n = m.n
    cols = tuple(range(n))
    lhs = None
    rhs = {}
    for inp in inputs:
        top = [rows[inp - 1]] + rows[:inp - 1] + rows[inp:]
        memo: dict[tuple[int, ...], LambdaList] = {}
        if lhs is None:
            lhs = _laplace(top, cols, memo)
            if (inp - 1) % 2:
                lhs = _negated(lhs)
        for out in outputs:
            minor = _laplace(top, cols[:out - 1] + cols[out:], memo)
            if (out + inp) % 2:
                minor = _negated(minor)
            rhs[out, inp] = minor + [{} for _ in range(n - len(minor))]
    return lhs, rhs


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
    where ``A*_1`` zeroes column 1, so that column 1 of
    ``lambda*I - A*_1`` is lambda times e_1.  Returns the number of
    (i, j) pairs checked; raises :class:`IdentityCheckError` on any
    mismatch.
    """
    rows = compartmental_matrix(m, _Codec(param_vector(m)))
    star = [[[{}, {0: 1}] if r == 0 else []] + row[1:]
            for r, row in enumerate(rows)]
    count = 0
    for i in range(2, m.n + 1):
        for j in range(2, m.n + 1):
            lhs = _combine([(1, 0, 1, _minor(rows, (1, i), (1, j)))])
            _require(lhs == _minor(star, (i,), (j,)),
                     f"stripped-minor i={i} j={j}")
            count += 1
    return count


def check_minor_forest_signs(m: Model) -> int:
    """Minor determinants against signed forest sums, all index pairs.

    For every (r, q) the coefficients of ``det((lambda*I - A)^{r,q})``
    must equal ``(-1)^(q+r)`` times the pair-restricted forest sums of the
    graph stripped at q: the d of output q and input r by
    :func:`det_sides` equals that of
    :func:`~compident.forests.forest_rhs`, on one codec.  Returns the
    number of pairs checked.
    """
    codec = _Codec(param_vector(m))
    every = range(1, m.n + 1)
    _cs, dets = det_sides(m, codec, every, every)
    count = 0
    for q in every:
        forests = forest_rhs(m, q, every, codec)
        for r in every:
            _require(dets[q, r] == forests[r],
                     f"minor-forest-sign r={r} q={q}")
            count += 1
    return count


def check_leaf_edge_identities(m: Model) -> LambdaList:
    """Verify identities 1-3 tying m to its leaf-edge extension at 1.

    A new compartment n is attached to compartment 1 of the leakless
    model m by a bidirected edge.  With A the matrix of m and B that of
    the extended model, the exact identities checked are:

    1. det(lI - B) = l*det(lI - A) + a_1n*det(lI - A)
                     + a_n1*l*det((lI - A)^{1,1})
    2. det((lI - B)^{1,n}) = (-1)^(n-1) * a_n1 * det((lI - A)^{1,1})
    3. det((lI - B)^{n,1}) = (-1)^(n-1) * a_1n * det((lI - A)^{1,1})

    Returns det(lI - B) packed on the one codec of both matrices, over
    ``param_vector(add_leaf_edge(m, 1).model)``; raises
    :class:`IdentityCheckError` on any failure.
    """
    from .transforms import add_leaf_edge

    extended = add_leaf_edge(m, 1).model
    n = extended.n
    codec = _Codec(param_vector(extended))
    rows_a = compartmental_matrix(m, codec)
    rows_b = compartmental_matrix(extended, codec)
    det_a = _minor(rows_a)
    det_b = _minor(rows_b)
    minor_a11 = _minor(rows_a, (1,), (1,))
    a_1n, a_n1 = codec.var((1, n)), codec.var((n, 1))
    sign = 1 if (n - 1) % 2 == 0 else -1

    _require(det_b == _combine([(1, 0, 1, det_a), (0, a_1n, 1, det_a),
                                (1, a_n1, 1, minor_a11)]), "leaf-edge-char")
    _require(_minor(rows_b, (1,), (n,))
             == _combine([(0, a_n1, sign, minor_a11)]), "leaf-edge-minor-1n")
    _require(_minor(rows_b, (n,), (1,))
             == _combine([(0, a_1n, sign, minor_a11)]), "leaf-edge-minor-n1")
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
