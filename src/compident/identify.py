"""Identifiability verdicts: coefficient maps, generic rank, classifiers.

A model's coefficient map sends its parameter vector to the vector of all
non-constant input-output coefficients.  The model is generically locally
identifiable exactly when the Jacobian of that map has full column rank
at a generic parameter point, and it has expected dimension when the rank
reaches min(parameter count, coefficient count).

Every coefficient is a coefficient of ``det(lambda*I - A)`` or of an
entry of ``adj(lambda*I - A)``, so the Jacobian is evaluated at a point
straight from the matrix, with no polynomial ever expanded.  At the point
the adjugate and the characteristic polynomial c come from
Faddeev-LeVerrier (n - 1 sparse matrix products mod p).  Each parameter
sits in one column of A, so the partials of c (the left-side rows L) are
differences of adjugate entries, and those of an adjugate entry follow
from the Jacobi identity as the quotient by c of ``u d - w v``, where u
is the parameter's partial of c and d the entry.  The rows of the
quotient of ``u d`` lie in the span of L, and modulo that span the rows
of a right-side block span what the same top coefficients of ``w v``
span, so no division by c is made (:meth:`_Point.rows`).  With K a
kernel basis of L, the rank is rank(L) + rank(N K) for the right-side
rows N: L is reduced and K found once per trial, and each map ranks only
its own N K, which has one row per right-side coefficient and one column
per kernel vector, and which is formed by combining the products ``w v``,
packed into single integers, with the entries of K before any
coefficient is read.  No right-side row is reduced against L.  A trial
of one map costs O(n^4 + k n^2) residue operations for k parameters.
The point, the adjugate at it, L and K depend on the graph and the leaks
alone, not on where inputs and outputs sit, so :func:`generic_ranks`
evaluates them once per trial for a group of maps that differ only in
placement; v is packed once per output and w once per input.  Which
coefficients are non-constant has a closed form for strongly connected
models (:func:`~compident.forests.nonconstant_sizes`), read by
:func:`coefficient_maps` once per graph for every leak set on it.  No verdict expands a polynomial;
the forest sums of :attr:`CoefficientMap.entries` serve tests and
reference digests.

The arithmetic mod p runs on whole rows at once (:class:`_Lanes`): a row
of residues is packed into one integer, entry i in the s-bit slot at bit
s*i, so a row of A M is the sum of a M_j over the nonzeros a of a row of
A, and a step of the elimination is ``pv r + (p - f) b``, each a handful
of big-integer operations instead of one operation per entry.  One
reduction then brings every slot back into [0, p) by folding with
2^k = delta (mod p), k = bits(p) and delta = 2^k - p (the primes are
2^61 - 1, 2^61 - 31 and 2^61 - 45), and one slot-wise conditional
subtraction.  The fold stays inside a slot when bits(delta) < k, which
holds for every odd prime; a slot must hold what it sums before the
reduction, so Faddeev-LeVerrier needs s >= 2k + bits(row nonzeros) + 1
and a row step of the elimination s >= 2k + 1.  The n - 1 sparse matrix
products mod p then take O(n (n + e)) big-integer operations for e edges
and the elimination of L O(n min(n, k)), on rows of n or k slots.

Rank at a generic point is computed by evaluating the Jacobian at random
points over large prime fields.  Rank at any concrete point is a lower
bound for the generic rank, so a full-rank observation is conclusive; a
rank drop at a random point requires the point to lie on the zero set of
every top-order minor, which by the Schwartz-Zippel bound happens with
probability at most (total minor degree)/prime per trial -- with 61-bit
primes and independent trials over distinct moduli, a spurious
"unidentifiable" answer is negligible.  Reported ranks are monotone in
the number of trials (the maximum over trials is returned).

The full verdict pipeline tries cheap structural certificates first: the
parameter-versus-coefficient counting bound, the bidirectional-tree
classification, and the inductively-strongly-connected sufficiency test;
the Jacobian rank is the fallback that always applies.  Every shortcut
can be bypassed (``force_rank``) to re-derive a verdict from rank alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Optional, Sequence, Tuple

from .families import is_bidirectional_tree
from .forests import (lhs_coefficients, nonconstant_counts, nonconstant_sizes,
                      rhs_coefficients)
from .model import (Model, _bfs, distance, distances,
                    inductively_strong_order, is_strongly_connected,
                    param_vector)
from .poly import PRIMES, FieldPoint, Param, Poly

DEFAULT_SEED = 20240101
DEFAULT_TRIALS = 3

IDENTIFIABLE = "identifiable"
UNIDENTIFIABLE = "unidentifiable"
NO_PARAMETERS = "no_parameters"

METHOD_RANK = "jacobian_rank"
METHOD_COUNT = "count_criterion"
METHOD_TREE = "tree_theorem"
METHOD_ISC = "isc_theorem"
METHOD_CONVENTION = "convention"


class NotStronglyConnectedError(ValueError):
    """Verdicts are only defined for strongly connected models."""


class NoInputError(ValueError):
    """The coefficient map needs at least one input."""


class NotATreeError(ValueError):
    """The tree classification only covers bidirectional trees."""


@dataclass(frozen=True)
class CoefficientMap:
    """Ordered non-constant coefficients of all input-output equations.

    Every equation has the same left side, the coefficients ``c_k`` of
    ``det(lambda*I - A)``, so each counts once: ``m`` is the number of
    distinct non-constant coefficients.  Order: outputs ascending; the
    first output lists the left-side coefficients by descending
    derivative order; then every output lists, per input (ascending), its
    right-side coefficients by descending order.  Each coefficient is
    named by ``(output, input, k)``: input None stands for the left-side
    ``c_k``, listed under the first output, and an input compartment for
    the right-side ``d_k``.  Constants (0 and 1) are excluded.
    """

    model: Model
    params: Tuple[Param, ...]
    coeffs: Tuple[Tuple[int, Optional[int], int], ...]

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(f"y{out}.c{k}" if inp is None else f"y{out}.u{inp}.d{k}"
                     for (out, inp, k) in self.coeffs)

    @property
    def m(self) -> int:
        return len(self.coeffs)

    @property
    def p(self) -> int:
        return len(self.params)

    @cached_property
    def entries(self) -> Tuple[Poly, ...]:
        """The coefficient polynomials, expanded from the forest formulas.

        Exponential in the model size.  The rank path never reads them;
        they serve as the symbolic oracle and for display.
        """
        cs = lhs_coefficients(self.model)
        ds: dict[tuple[int, int], list[Poly]] = {}
        entries = []
        for (out, inp, k) in self.coeffs:
            if inp is None:
                entries.append(cs[k])
                continue
            if (out, inp) not in ds:
                ds[(out, inp)] = rhs_coefficients(self.model, out, inp)[1]
            entries.append(ds[(out, inp)][k])
        return tuple(entries)


@dataclass(frozen=True)
class TrialResult:
    prime: int
    seed: int
    rank: int


@dataclass(frozen=True)
class RankReport:
    """Generic-rank evidence: the max observed rank and the trial log."""

    rank: int
    trials: Tuple[TrialResult, ...]
    p: int
    m: int


@dataclass(frozen=True)
class Verdict:
    status: str                      # identifiable | unidentifiable | no_parameters
    method: str
    rank_report: Optional[RankReport]
    criteria: dict


@dataclass(frozen=True)
class DimReport:
    image_dim: int
    expected: int
    has_expected_dimension: bool
    rank_report: RankReport


def coefficient_map(m: Model) -> CoefficientMap:
    """The coefficient map's layout, read off the graph in O(n + e).

    ``c_k`` sums the (n-k)-edge forests of the leak-augmented graph, and
    ``d_k`` the (n-k-1)-edge forests of the graph stripped at the output
    that join input and output.  For a strongly connected model the sizes
    whose sums are non-constant have a closed form
    (:func:`~compident.forests.nonconstant_sizes`): 1..n on the left with
    leaks and 1..n-1 without, and max(dist, 1)..n-1 on the right, for
    dist the distance from input to output.  Raises
    :class:`NotStronglyConnectedError` for any other model.
    """
    return coefficient_maps([m])[0]


def coefficient_maps(models: Sequence[Model]) -> list[CoefficientMap]:
    """:func:`coefficient_map` of each model, reading each graph fact once.

    The models must share the compartment count and edges; they may place
    inputs, outputs and leaks anywhere.  Distances and strong connectivity
    depend on the edges alone, so they serve every leak set: strong
    connectivity is checked once for the group (the search from its first
    input, which the distances need anyway, and one back to it must reach
    every compartment), and the distances take one search per input.
    Whether a model leaks, and its parameter vector, are read per leak set.
    """
    if not models:
        return []
    model = models[0]
    if any((m.n, m.edges) != (model.n, model.edges) for m in models):
        raise ValueError("models must share compartments and edges")
    if not all(m.inputs for m in models):
        raise NoInputError("model has no inputs")
    n = model.n
    first = min(model.inputs)
    reach = {first: distances(model, first)}
    if not len(reach[first]) == n == len(
            _bfs([(t, f) for (f, t) in model.edges], first)):
        raise NotStronglyConnectedError(
            "coefficient maps are laid out for strongly connected models only")
    params = {}
    cms = []
    for m in models:
        leaky = bool(m.leaks)
        if m.leaks not in params:
            params[m.leaks] = param_vector(m)
        outs = sorted(m.outputs)
        coeffs: list[tuple[int, Optional[int], int]] = [
            (outs[0], None, n - s) for s in nonconstant_sizes(n, leaky)]
        for out in outs:
            for inp in sorted(m.inputs):
                if inp not in reach:
                    reach[inp] = distances(m, inp)
                coeffs += [(out, inp, n - 1 - s) for s in
                           nonconstant_sizes(n, leaky, reach[inp][out])]
        cms.append(CoefficientMap(m, params[m.leaks], tuple(coeffs)))
    return cms


def _pack(values: Sequence[int], s: int) -> int:
    """The integer with values[i] in the s-bit slot at bit s*i."""
    x = 0
    for v in reversed(values):
        x = x << s | v
    return x


def _inverses(n: int, p: int) -> list[int]:
    """1/k mod p for k = 1..n (index k), by inv(k) = -(p // k) inv(p % k)."""
    inv = [0, 1]
    for k in range(2, n + 1):
        inv.append((p - p // k) * inv[p % k] % p)
    return inv


class _Lanes:
    """Arithmetic mod p on rows of ``width`` residues packed into one
    integer: entry i of a row sits in the s-bit slot at bit s*i.

    A row is scaled by one multiplication and two rows are added by one
    addition, so long as no slot overflows: the caller keeps every slot
    below 2^s.  :meth:`reduce` then brings every slot back to its residue
    in [0, p) at once.  With k = bits(p) and delta = 2^k - p, a slot x =
    hi 2^k + lo is congruent to hi delta + lo; folding every slot that
    way, until no slot has bits above k, stays inside the slot when
    bits(delta) < k and s > k, which holds for every odd prime.  One
    slot-wise conditional subtraction of p then finishes: x + delta
    carries into bit k exactly when x >= p.  Everything is exact integer
    arithmetic.
    """

    __slots__ = ("p", "s", "width", "mask", "_k", "_delta", "_ones",
                 "_low", "_fold", "_high", "_deltas")

    def __init__(self, p: int, s: int, width: int):
        k = p.bit_length()
        ones = ((1 << s * width) - 1) // ((1 << s) - 1)   # 1 in every slot
        self.p, self.s, self.width, self.mask = p, s, width, (1 << s) - 1
        self._k, self._delta, self._ones = k, (1 << k) - p, ones
        self._low = ones * ((1 << k) - 1)          # bits 0..k-1 of each slot
        self._fold = ones * ((1 << s - k) - 1)     # bits k..s-1, shifted down
        self._high = self._fold << k
        self._deltas = ones * self._delta

    def reduce(self, x: int) -> int:
        """Every slot of x, each below 2^s, replaced by its residue mod p."""
        k, low, fold, high, delta = (self._k, self._low, self._fold,
                                     self._high, self._delta)
        while x & high:
            x = (x & low) + (x >> k & fold) * delta
        return x - ((x + self._deltas) >> k & self._ones) * self.p

    def unpack(self, x: int) -> list[int]:
        """The entries of the row x, slot by slot."""
        s, mask = self.s, self.mask
        return [x >> s * i & mask for i in range(self.width)]


def _adjugate(a_rows: list[list[tuple[int, int]]],
              p: int) -> tuple[list[list[int]], list[int], _Lanes]:
    """adj(lambda*I - A) and det(lambda*I - A) mod p, by Faddeev-LeVerrier.

    ``a_rows[i]`` lists the nonzero ``(j, A[i][j])`` of row i (0-based),
    each a residue mod p.  Returns ``(B, c, lanes)``: ``B[k][a]`` is row a
    of the matrix coefficient of lambda^k in the adjugate (k < n), packed
    on ``lanes`` (entry b in slot b), and ``c[k]`` the coefficient of
    lambda^k in the monic characteristic polynomial.  It takes n - 1
    sparse matrix products mod p: row i of A M is the sum of a M_j over
    the nonzeros of row i, one multiplication and one addition each, and
    is reduced once.  A slot then sums at most (row nonzeros) products of
    two residues plus a residue, so s = 2 bits(p) + bits(row nonzeros) + 1
    keeps the slots apart.  The only inverses are those of 1..n.
    """
    n = len(a_rows)
    inv = _inverses(n, p)
    s = 2 * p.bit_length() + max(map(len, a_rows)).bit_length() + 1
    lanes = _Lanes(p, s, n)
    reduce, mask = lanes.reduce, lanes.mask
    eye = [1 << s * i for i in range(n)]
    c = [0] * (n + 1)
    c[n] = 1
    M = eye
    B = [M] * n                 # B[n - 1] = I; the others are set below
    for k in range(1, n):
        AM = [sum(a * M[j] for j, a in row) for row in a_rows]
        ck = c[n - k] = -sum(x >> s * i & mask
                             for i, x in enumerate(AM)) * inv[k] % p
        M = B[n - 1 - k] = [reduce(x + ck * e) for x, e in zip(AM, eye)]
    c[0] = -sum(a * (M[j] >> s * i & mask) for i, row in enumerate(a_rows)
                for j, a in row) * inv[n] % p
    return B, c, lanes


def _diff(row: Sequence, j: int, i: Optional[int], p: int) -> Sequence:
    """row[j] - row[i], or row[j] alone for a leak."""
    if i is None:
        return row[j]
    return tuple((a - b) % p for a, b in zip(row[j], row[i]))


class _Point:
    """What one point gives every map on its graph and leaks, mod its
    prime, and the Jacobian rows it makes.

    ``c`` is the characteristic polynomial and :meth:`entry` gives entry
    (a, b) of adj(lambda*I - A), 0-based, by ascending powers of lambda;
    the adjugate stays packed as Faddeev-LeVerrier left it, and only the
    entries used are read off: the diagonal and entry (j, i) per
    parameter here, row ``out`` per output and column ``in`` per input in
    :meth:`rows`.  ``cols`` gives per parameter ``a_ij`` the 0-based
    ``(i, j)``, with i None for a leak ``a_0j``, and ``lhs`` its partials
    of ``c``.  With M = lambda*I - A, ``a_ij`` sits at M[i][j] as -a_ij
    and at M[j][j] as +a_ij (``a_0j`` only at M[j][j]), so ``c = det M``
    is affine in it and ``dc/da_ij = adj_jj - adj_ji``.  None of this
    depends on where the inputs and outputs sit.

    ``left`` lists the orders k of the left-side coefficients ``c_k``
    that the maps rank.  Their rows, packed one slot per parameter, are
    reduced once: ``rank`` is their rank and ``kernel`` a basis of their
    kernel, which multiplies every right-side row (:meth:`rows`).  With no
    left rows the kernel basis is the unit vectors, and :meth:`rows` gives
    the right-side rows themselves.  ``lanes`` packs a row of N K, one
    slot per kernel vector, with s = 2 bits(p) + 1: a row step of the
    elimination sums two products of residues.

    Right-side rows come from products of polynomials of degree < n,
    formed as integer products.  A polynomial is packed into one integer,
    coefficient k at bit s*(n-1-k) for k >= 1, so the product of two
    packings holds coefficient 2n-2-t of the polynomial product in slot
    t; the constant terms only reach slots n-1 and above, which are never
    read, and are left out.  A kernel vector combines the products of all
    P parameters before any slot is read, so a slot sums at most n*P
    products of three residues below p (a w, a v and a kernel entry), and
    s = 3*bits(p) + bits(n*P) keeps the slots apart.
    """

    def __init__(self, n: int, params: Sequence[Param], point: FieldPoint,
                 left: Sequence[int]):
        p, values = point.prime, point.values
        a_rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        diag = [0] * n
        for (i, j) in params:
            v = values[(i, j)]
            diag[j - 1] -= v
            if i:
                a_rows[i - 1].append((j - 1, v))
        for j in range(n):
            a_rows[j].append((j, diag[j] % p))
        self._B, self.c, self._adj_lanes = _adjugate(a_rows, p)
        self.p, self.n = p, n
        self.cols = [(i - 1 if i else None, j - 1) for (i, j) in params]
        dd = [self.entry(j, j) for j in range(n)]
        self.lhs = [dd[j] if i is None else
                    [(a - b) % p for a, b in zip(dd[j], self.entry(j, i))]
                    for (i, j) in self.cols]
        s = 2 * p.bit_length() + 1
        by_param = _Lanes(p, s, len(params))
        self.rank, self.kernel = _kernel(
            [_pack([du[k] for du in self.lhs], s) for k in left],
            by_param)
        self.lanes = _Lanes(p, s, len(self.kernel))
        self._slot = 3 * p.bit_length() + (n * len(params)).bit_length()
        self._v: dict[int, list[int]] = {}
        self._w: dict[int, list[int]] = {}

    def entry(self, a: int, b: int) -> list[int]:
        """Entry (a, b) of adj(lambda*I - A) by ascending powers of lambda."""
        shift, mask = self._adj_lanes.s * b, self._adj_lanes.mask
        return [Bk[a] >> shift & mask for Bk in self._B]

    def rows(self, coeffs: Sequence[tuple[int, int, int]]) -> list[int]:
        """The right-side rows of the coefficients times the kernel basis,
        packed on ``lanes``: per coefficient, one slot per kernel vector.

        With u = dc/da_ij, d = adj(M)[out][in], w = adj_j,in and
        v = adj_out,j - adj_out,i (adj_out,j alone for a leak), the Jacobi
        identity ``d adj_ab / d M_rc = (adj_cr adj_ab - adj_ar adj_cb) / c``
        gives ``dd/da_ij = Q(u d) - Q(w v)``, where Q takes the quotient of
        the division by the monic c.  Q is linear, so the rows of ``Q(u d)``
        are, for every parameter alike, fixed combinations of the rows of
        u: they lie in the span of the left-side rows (a constant ``c_k``
        has a zero row).  Reversed, Q is multiplication by 1/rev(c) mod
        x^(n-1): with rows counted by t = n-2-k, row t of ``Q(w v)`` is row
        t of the top coefficients of ``w v`` plus multiples of its rows
        before t.  A block of ``d_k`` starts at t0 = max(dist, 1) - 1 and
        the Jacobian rows before it are zero, so rows 0..t0-1 of ``w v``
        lie in the left span, and modulo that span the kept rows of the
        quotient span what the same rows of ``w v`` span: no division by
        c is needed.  Modulo the left span a row x is known by x K, so an
        entry is slot t of ``sum_ij K_ij w v`` for one kernel vector K.
        """
        p, s, top, width = self.p, self._slot, self.n - 2, self.lanes.s
        mask = (1 << s) - 1
        rows = []
        pair = None
        for (out, inp, k) in coeffs:
            if (out, inp) != pair:
                pair = (out, inp)
                products = self._products(out - 1, inp - 1)
                sums = [sum(map(mul, vec.values(),
                                map(products.__getitem__, vec)))
                        for vec in reversed(self.kernel)]
            shift = s * (top - k)
            row = 0
            for x in sums:          # the last kernel vector's slot on top
                row = row << width | (x >> shift & mask) % p
            rows.append(row)
        return rows

    def _products(self, out: int, inp: int) -> list[int]:
        """``w v`` of every parameter, packed; v is packed once per output,
        w once per input."""
        p, s, n = self.p, self._slot, self.n
        top = self._B[:0:-1]            # coefficients n-1 down to 1
        vs = self._v.get(out)
        if vs is None:
            unpack = self._adj_lanes.unpack
            row_o = list(zip(*[unpack(Bk[out]) for Bk in top]))
            vs = self._v[out] = [_pack(_diff(row_o, j, i, p), s)
                                 for (i, j) in self.cols]
        ws = self._w.get(inp)
        if ws is None:
            shift, mask = self._adj_lanes.s * inp, self._adj_lanes.mask
            ws = self._w[inp] = [_pack([Bk[j] >> shift & mask for Bk in top],
                                       s) for j in range(n)]
        return [ws[j] * v for v, (_i, j) in zip(vs, self.cols)]


def _echelon(rows: Sequence[int],
             lanes: _Lanes) -> list[tuple[int, int, int]]:
    """An echelon basis of packed rows over the prime field.

    Entries lie in [0, p), in the slots of ``lanes``, whose width must be
    at least 2 bits(p) + 1.  Returns ``(pivot column, pivot, row)``
    triples in insertion order; each row is zero at the pivot columns of
    the rows before it, so one pass reduces a new row at every pivot.  A
    row is scaled by the pivot instead of divided by it, so no modular
    inverse is needed: a step is ``pv r + (p - f) b``, two products of
    residues per slot, then one reduction of every slot.  The pivot
    column of a row is its lowest nonzero slot.  The rank of the rows is
    the basis length.
    """
    p, s, mask, reduce = lanes.p, lanes.s, lanes.mask, lanes.reduce
    basis: list[tuple[int, int, int]] = []
    for r in rows:
        for c, pv, b in basis:
            f = r >> s * c & mask
            if f:
                r = reduce(pv * r + (p - f) * b)
        if r:
            c = ((r & -r).bit_length() - 1) // s
            basis.append((c, r >> s * c & mask, r))
    return basis


def _kernel(rows: Sequence[int],
            lanes: _Lanes) -> tuple[int, list[dict[int, int]]]:
    """The rank of packed rows over the prime field and a basis of their
    kernel, with one slot per column (:func:`_echelon`).

    Each echelon row is scaled to pivot 1, one inverse per pivot, and the
    rows are reduced upwards, ``r + (p - f) b``, until every row is zero
    at the other rows' pivots.  The vector for a free column f then has 1
    at f, ``p - row_i[f]`` at each row's pivot and 0 elsewhere.  Returns
    the rank and one such vector per free column, in ascending order,
    each as a dict from column to its nonzero entry: a vector has at most
    rank + 1 of them, however wide the rows.
    """
    p, s, mask, reduce = lanes.p, lanes.s, lanes.mask, lanes.reduce
    basis = [(c, reduce(pow(pv, -1, p) * b))
             for c, pv, b in _echelon(rows, lanes)]
    for k in range(len(basis) - 1, 0, -1):
        c, b = basis[k]
        for i in range(k):
            ci, bi = basis[i]
            f = bi >> s * c & mask
            if f:
                basis[i] = (ci, reduce(bi + (p - f) * b))
    pivot_cols = {c for c, _b in basis}
    kernel = []
    for f in range(lanes.width):
        if f not in pivot_cols:
            shift = s * f
            vec = {}
            for c, b in basis:
                x = b >> shift & mask
                if x:
                    vec[c] = p - x
            vec[f] = 1
            kernel.append(vec)
    return len(basis), kernel


def generic_rank(cm: CoefficientMap, trials: int = DEFAULT_TRIALS,
                 seed: int = DEFAULT_SEED) -> RankReport:
    """Max Jacobian rank over random evaluations, one prime per trial.

    Trial t draws a uniform point with nonzero coordinates from its own
    deterministic RNG seeded by ``seed + t``, over ``PRIMES[t % 3]``.
    So trial t of seed s draws the same point as trial 0 of seed s + t,
    taken over another prime unless t is a multiple of 3: ranks at
    nearby seeds share draws and are not independent evidence.  Trials stop
    early once the rank reaches min(p, m): no further trial can raise it,
    so the reported rank is unchanged and stays monotone in the trial
    budget.
    """
    return generic_ranks([cm], trials, seed)[0]


def generic_ranks(cms: Sequence[CoefficientMap], trials: int = DEFAULT_TRIALS,
                  seed: int = DEFAULT_SEED) -> list[RankReport]:
    """:func:`generic_rank` of each map, evaluating each point once.

    The maps must share the compartment count, edges and leaks; they may
    place inputs and outputs anywhere.  A trial's point, the adjugate at
    it, and the left-side rows with their rank and kernel basis K then
    serve every map; v serves every map with the same output and w every
    map with the same input.  A map's rank is rank(left) + rank(N K) for
    its right-side rows N, and only N K is formed and ranked per map.
    Each map keeps its own early stop, so every report equals that of
    ``generic_rank`` alone.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not cms:
        return []
    model = cms[0].model
    if any((cm.model.n, cm.model.edges, cm.model.leaks)
           != (model.n, model.edges, model.leaks) for cm in cms):
        raise ValueError("maps must share compartments, edges and leaks")
    params = cms[0].params
    caps = [min(cm.p, cm.m) for cm in cms]
    # A model has at least one output, and every output has the same left
    # side, so the left rows and their kernel serve every map.
    left = sorted({k for (_out, inp, k) in cms[0].coeffs if inp is None})
    rhs = [[co for co in cm.coeffs if co[1] is not None] for cm in cms]
    logs: list[list[TrialResult]] = [[] for _ in cms]
    best = [0] * len(cms)
    for t in range(trials):
        live = [k for k in range(len(cms)) if not logs[k] or best[k] < caps[k]]
        if not live:
            break
        prime = PRIMES[t % len(PRIMES)]
        trial_seed = seed + t
        point = FieldPoint.random(params, prime, random.Random(trial_seed))
        at = _Point(model.n, params, point, left)
        for k in live:
            r = at.rank
            if at.kernel:           # else the left rows have full rank
                r += len(_echelon(at.rows(rhs[k]), at.lanes))
            logs[k].append(TrialResult(prime, trial_seed, r))
            best[k] = max(best[k], r)
    return [RankReport(best[k], tuple(logs[k]), cm.p, cm.m)
            for k, cm in enumerate(cms)]


def count_criterion(m: Model) -> Optional[dict]:
    """Parameters-versus-coefficients bound; returns evidence when it fires.

    For a strongly connected model with one input and one output the
    coefficient count is known in closed form
    (:func:`~compident.forests.nonconstant_counts`), so having strictly
    more parameters forces the map to be infinite-to-one.  A None result
    says nothing about identifiability.  The evidence's ``case`` numbers
    the bound's four forms: 1 leaky with input = output, 2 leaky, 3
    leakless with input = output, 4 leakless.
    """
    lhs, rhs = nonconstant_counts(m)
    params = m.param_count()
    if params <= lhs + rhs:
        return None
    (inp,) = m.inputs
    (out,) = m.outputs
    # The right side counts n - dist(input, output) coefficients when the
    # two differ, so the distance is read off the count, not searched again.
    return {"case": 1 + (inp != out) + 2 * (not m.leaks), "params": params,
            "bound": lhs + rhs, "distance": m.n - rhs if inp != out else 0,
            "leaks": len(m.leaks)}


def tree_identifiable(dist: int, leaks: int) -> bool:
    """The tree theorem: a bidirectional tree model with one input and one
    output is identifiable exactly when the input-to-output distance is
    at most 1 and there is at most one leak."""
    return dist <= 1 and leaks <= 1


def classify_tree(m: Model) -> Verdict:
    """Bidirectional-tree classification (exact iff condition, see
    :func:`tree_identifiable`).

    Raises :class:`NotATreeError` for a graph that is not a bidirectional
    tree.
    """
    if not is_bidirectional_tree(m):
        raise NotATreeError("model graph is not a bidirectional tree")
    if len(m.inputs) != 1 or len(m.outputs) != 1:
        raise ValueError("tree classification requires one input and one output")
    (inp,) = m.inputs
    (out,) = m.outputs
    dist = int(distance(m, inp, out))
    return Verdict(
        status=(IDENTIFIABLE if tree_identifiable(dist, len(m.leaks))
                else UNIDENTIFIABLE),
        method=METHOD_TREE,
        rank_report=None,
        criteria={"distance": dist, "leaks": len(m.leaks)},
    )


def isc_sufficiency(m: Model) -> Optional[tuple[int, ...]]:
    """Inductively-strongly-connected sufficiency; witness ordering or None.

    Fires for models with input and output together in one compartment i,
    at most one leak, at most 2n-2 edges, and a vertex ordering rooted at
    i whose prefixes all induce strongly connected subgraphs.  Firing
    certifies identifiability; not firing says nothing.

    The edge bound is required for soundness: with input equal to output
    the coefficient map has at most 2n-1 coordinates, so a model with
    more than 2n-2 edges (plus a possible leak) has more parameters than
    coefficients and cannot be identifiable, no matter how connected.
    """
    if (len(m.inputs) == 1 and m.inputs == m.outputs and len(m.leaks) <= 1
            and len(m.edges) <= 2 * m.n - 2):
        (i,) = m.inputs
        return inductively_strong_order(m, i)
    return None


def decide_identifiability(m: Model, *, trials: int = DEFAULT_TRIALS,
                           seed: int = DEFAULT_SEED,
                           force_rank: bool = False) -> Verdict:
    """Full verdict pipeline for a strongly connected model.

    Refuses models that are not strongly connected (the rank criterion is
    only known to characterize identifiability there).  Models without
    parameters are identifiable by convention and reported as such.
    """
    if not is_strongly_connected(m):
        raise NotStronglyConnectedError(
            "identifiability verdicts are limited to strongly connected models")
    if m.param_count() == 0:
        return Verdict(NO_PARAMETERS, METHOD_CONVENTION, None, {})
    if not m.inputs:
        raise NoInputError("model has no inputs")

    single_io = len(m.inputs) == 1 and len(m.outputs) == 1
    if not force_rank:
        if single_io:
            fired = count_criterion(m)
            if fired is not None:
                return Verdict(UNIDENTIFIABLE, METHOD_COUNT, None, fired)
            try:
                return classify_tree(m)
            except NotATreeError:
                pass
        witness = isc_sufficiency(m)
        if witness is not None:
            return Verdict(IDENTIFIABLE, METHOD_ISC, None,
                           {"witness_order": list(witness)})

    cm = coefficient_map(m)
    report = generic_rank(cm, trials=trials, seed=seed)
    status = IDENTIFIABLE if report.rank == cm.p else UNIDENTIFIABLE
    return Verdict(status, METHOD_RANK, report, {})


def expected_dimension(m: Model, *, trials: int = DEFAULT_TRIALS,
                       seed: int = DEFAULT_SEED) -> DimReport:
    """Image dimension of the coefficient map versus min(p, m)."""
    cm = coefficient_map(m)
    report = generic_rank(cm, trials=trials, seed=seed)
    expected = min(cm.p, cm.m)
    return DimReport(
        image_dim=report.rank,
        expected=expected,
        has_expected_dimension=report.rank == expected,
        rank_report=report,
    )


def verdict_to_dict(v: Verdict, m: Model) -> dict:
    """Stable-keyed JSON form of a verdict (golden-test friendly)."""
    try:
        cm_len = coefficient_map(m).m
    except NoInputError:
        cm_len = None
    return {
        "verdict": v.status,
        "method": v.method,
        "rank": v.rank_report.rank if v.rank_report else None,
        "params": m.param_count(),
        "coeffs": cm_len,
        "trials": [
            {"prime": str(t.prime), "seed": t.seed, "rank": t.rank}
            for t in (v.rank_report.trials if v.rank_report else ())
        ],
        "criteria": v.criteria,
    }
