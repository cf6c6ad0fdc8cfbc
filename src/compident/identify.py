"""Identifiability verdicts: coefficient maps, generic rank, classifiers.

A model's coefficient map sends its parameter vector to the vector of all
non-constant input-output coefficients.  The model is generically locally
identifiable exactly when the Jacobian of that map has full column rank
at a generic parameter point, and it has expected dimension when the rank
reaches min(parameter count, coefficient count).

Every coefficient is a coefficient of the characteristic polynomial
``c = det(lambda*I - A)`` or of ``d = adj(lambda*I - A)[out][in]`` for
an (output, input) pair, and the Jacobian's rank at a point is read off
powers of A there, with no polynomial expanded.  By Newton's identities
the c_k and the power sums tr(A^m), m = 1..n, are triangular functions of
each other with diagonal m, so at any point their partials span the same
rows, the left rows L.  The transfer function d/c is the sum of the
Markov parameters h_t = e_out A^t e_in over lambda^(t+1), so
``d_(n-1-s) = h_s + sum_(t<s) c_(n-s+t) h_t``: modulo the span of L the
partials of a pair's d_k span what those of h_1..h_(n-1) span (h_0, the
h_t below the input-output distance and the d_k the layout leaves out
are constants).  A parameter a_ij adds to A[i][j] and subtracts from
A[j][j] (a leak a_0j only the latter), so with u_r row ``out`` and v_r
column ``in`` of A^r, ``d tr(A^(r+1))/da_ij = -(r+1) ((A^r)_jj -
(A^r)_ji)`` and ``dh_t/da_ij = -sum_(r+q=t-1) (u_r[j] - u_r[i]) v_q[j]``;
each parameter's rows drop the same sign, and a left row its factor,
which keeps every rank.  With K a kernel basis of L, the rank is rank(L)
+ rank(H K) for the Markov rows H of a map's pairs: L is reduced and K
found once per trial, and each map ranks only its own H K, through its
transpose: one row per kernel vector and one slot per Markov parameter,
formed by combining the convolutions, packed into single integers, with
the entries of K before any coefficient is read.  No Markov row is
reduced against L.

A point reads all of this off M_r = A^r M_0, r = 0..n-1, for the start
matrix M_0 = [E | e_in ...] with one column per parameter and one per
input: the column of a_ij is e_j - e_i, of a leak a_0j e_j, and of an
input e_in.  Column a_ij of M_r is A^r (e_j - e_i), so its entry j is
``(A^r)_jj - (A^r)_ji`` and its entry ``out`` is ``u_r[j] - u_r[i]``,
and entry j of column e_in is v_r[j].  Left row r is thus row j of M_r
masked to the parameters leaving j, summed over j; a map's U is row
``out`` and its V the input's column.  The point, the M_r, L and K
depend on the graph and the leaks alone (with one column per input), not
on where inputs and outputs sit, so :func:`generic_ranks` evaluates them
once per trial for a group of maps that differ only in placement; each
M_r is read as it is formed and then dropped.  Which coefficients are
non-constant has a closed form for strongly connected models
(:func:`~compident.forests.nonconstant_sizes`), read by
:func:`coefficient_maps` once per graph for every leak set on it.  No
verdict expands a polynomial; the forest sums of
:attr:`CoefficientMap.entries` serve tests and reference digests.

The arithmetic mod p runs on whole rows at once (:class:`_Lanes`): a row
of residues is packed into one integer, entry i in the s-bit slot at bit
s*i, so a row of A M is the sum of a M_j over the nonzeros a of a row of
A, and a step of the elimination is ``pv r + (p - f) b``, each a handful
of big-integer operations instead of one operation per entry.  A fold
brings every slot closer to its residue at once, by 2^k = delta (mod p)
for k = bits(p) and delta = 2^k - p (the primes are 2^61 - 1, 2^61 - 31
and 2^61 - 45), and stays inside the slot when bits(delta) < k, which
holds for every odd prime.  Between steps the slots are only
semi-reduced, folded into [0, 2^(k+1)) with no subtraction of p: two
folds per row of a matrix product, which then needs s >= 2k + bits(row
nonzeros) + 1, and as many as it takes per step of the elimination,
which reads one entry mod p and needs s >= 2k + 2.  A row is fully
reduced mod p only where its entries are read: a row of the elimination
once, after its last step, where its pivot is read, and a row of H K
once, when it is formed.  A trial of a group with k parameters and i
inputs then takes O(n (n + e)) big-integer operations on rows of k + i
slots for the n - 1 sparse matrix products with e edges and O(n min(n,
k)) on rows of k slots for the elimination of L, and each map one
product of packed polynomials per parameter and one per nonzero of K.

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

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence, Tuple

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
    carries into bit k exactly when x >= p.  A row whose slots are only
    folded below 2^(k+1) is semi-reduced: congruent slot by slot to its
    residues, and what the sparse products (:func:`_powers`) and the
    elimination (:func:`_echelon`) keep between their steps.  Folding
    while any slot reaches 2^(k+1) gets there for every odd prime: a fold
    lowers every such slot and keeps the others below 2^k + delta.  Two
    folds alone leave every slot
    below 2^k + 2^(s-2k) delta^2 + delta, which is below 2^(k+1) when s -
    2k + 2 bits(delta) < k; for the primes of
    :data:`~compident.poly.PRIMES` (bits(delta) <= 6) that holds for s up
    to 3k - 13.  Everything is exact integer arithmetic.
    """

    __slots__ = ("p", "s", "width", "mask", "_k", "_delta", "_ones",
                 "_low", "_fold", "_high", "_top", "_deltas")

    def __init__(self, p: int, s: int, width: int):
        k = p.bit_length()
        ones = ((1 << s * width) - 1) // ((1 << s) - 1)   # 1 in every slot
        self.p, self.s, self.width, self.mask = p, s, width, (1 << s) - 1
        self._k, self._delta, self._ones = k, (1 << k) - p, ones
        self._low = ones * ((1 << k) - 1)          # bits 0..k-1 of each slot
        self._fold = ones * ((1 << s - k) - 1)     # bits k..s-1, shifted down
        self._high = self._fold << k               # bits k..s-1
        self._top = self._high ^ ones << k         # bits k+1..s-1
        self._deltas = ones * self._delta

    def reduce(self, x: int) -> int:
        """Every slot of x, each below 2^s, replaced by its residue mod p."""
        k, low, fold, high, delta = (self._k, self._low, self._fold,
                                     self._high, self._delta)
        while x & high:
            x = (x & low) + (x >> k & fold) * delta
        return x - ((x + self._deltas) >> k & self._ones) * self.p


def _powers(a_rows: list[list[tuple[int, int]]], start: list[int],
            lanes: _Lanes):
    """A^0 M, A^1 M, A^2 M, ... for the start matrix M, each as its rows
    packed on ``lanes``, formed one at a time as they are asked for.

    ``a_rows[i]`` lists the nonzero ``(j, A[i][j])`` of row i (0-based),
    each a residue mod p, and ``start[i]`` is row i of M, each slot below
    2^(k+1) for k = bits(p).  A step is one sparse matrix product: row i of
    A M is the sum of a M_j over the nonzeros of row i, one
    multiplication and one addition each.  The slots are then only
    semi-reduced, by two folds and no subtraction of p (:class:`_Lanes`):
    each ends below 2^(k+1), congruent mod p to its entry.  A slot sums at
    most (row nonzeros) products of a residue and such a value, so s =
    2 bits(p) + bits(row nonzeros) + 1 keeps the slots apart.
    """
    k, low, fold, delta = lanes._k, lanes._low, lanes._fold, lanes._delta
    power = start
    while True:
        yield power
        rows = []
        for row in a_rows:
            x = 0
            for j, a in row:
                x += a * power[j]
            x = (x & low) + (x >> k & fold) * delta
            rows.append((x & low) + (x >> k & fold) * delta)
        power = rows


class _Point:
    """What one point gives every map on its graph and leaks, mod its
    prime, and the Markov rows it makes.

    :func:`_powers` forms M_r = A^r M_0 for r = 0..n-1 from the start
    matrix M_0 = [E | e_in ...], each read as it is formed and then
    dropped.  ``cols`` gives per parameter ``a_ij`` the 0-based ``(i,
    j)``, with i None for a leak ``a_0j``; E has one slot per parameter,
    in that order, holding its column e_j - e_i (e_j for a leak), and
    each input in ``ins`` adds one more slot, in ascending order, holding
    e_in.  The rows of the M_r are semi-reduced (:class:`_Lanes`), and
    so is all that is read off them.  Left row r is ``sum_j (M_r[j] &
    S_j)``, with S_j the mask of the slots of the parameters leaving j:
    per parameter ``(A^r)_jj - (A^r)_ji`` (``(A^r)_jj`` for a leak), the
    partial of tr(A^(r+1)) up to the factor -(r+1).  These n rows are
    eliminated once (:func:`_kernel`): ``rank`` is their rank and
    ``kernel`` a basis of their kernel, which multiplies every Markov row
    (:meth:`rows`).  None of this depends on where the inputs and outputs
    sit.

    Of each M_r with r < n - 1, row ``out`` is kept per output in
    ``outs`` and the input's slot of every row per input in ``ins``
    (1-based), as polynomials in r packed into one integer, coefficient r
    at bit s*r: per output and parameter, U = ``sum_r (u_r[j] - u_r[i])
    x^r`` (u_r[j] alone for a leak) is its slot of row ``out``; per input
    and compartment j, V = ``sum_r v_r[j] x^r`` is the input's slot of row
    j.  The product U V of a parameter's two packings holds in slot t its
    partial of h_(t+1), up to the sign.  A kernel vector combines the
    products of all P parameters before any slot is read, so a slot sums
    at most n*P products of two semi-reduced values (a u and a v) and a
    residue (a kernel entry), and s = 3 bits(p) + 2 + bits(n*P) keeps the
    slots apart.  ``lanes`` packs a row of (H K)^T on the same slots, one
    per Markov parameter: s >= 2 bits(p) + 2, as the elimination needs.
    """

    def __init__(self, n: int, params: Sequence[Param], point: FieldPoint,
                 outs: Iterable[int], ins: Iterable[int]):
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
        s = 2 * p.bit_length() + max(map(len, a_rows)).bit_length() + 1
        width = len(params)
        ins = sorted(ins)
        lanes = _Lanes(p, s, width + len(ins))
        mask = lanes.mask
        self.p, self.n = p, n
        self.cols = cols = [(i - 1 if i else None, j - 1) for (i, j) in params]
        # M_0 = [E | e_in ...], and per compartment j the mask S_j of the
        # slots of the parameters leaving j
        start = [0] * n
        leaving = [0] * n
        for c, (i, j) in enumerate(cols):
            start[j] += 1 << s * c
            leaving[j] += mask << s * c
            if i is not None:
                start[i] += (p - 1) << s * c
        for c, inp in enumerate(ins, width):
            start[inp - 1] += 1 << s * c
        left = []
        # per output, row out of each M_r; per input and compartment j, its
        # slot of row j; r = 0..n-2, ascending; all semi-reduced
        row_out: dict[int, list[int]] = {out: [] for out in outs}
        col_in = {inp: [[] for _ in range(n)] for inp in ins}
        powers = _powers(a_rows, start, lanes)
        for r, power in enumerate(itertools.islice(powers, n)):
            left.append(sum(map(int.__and__, power, leaving)))
            if r < n - 1:
                for out, u in row_out.items():
                    u.append(power[out - 1])
                for c, v in enumerate(col_in.values(), width):
                    shift = s * c
                    for vj, x in zip(v, power):
                        vj.append(x >> shift & mask)
        self.rank, self.kernel = _kernel(left, _Lanes(p, s, width))
        slot = 3 * p.bit_length() + 2 + (n * width).bit_length()
        self.lanes = _Lanes(p, slot, n - 1)
        self._u = {out: [_pack([x >> s * c & mask for x in u], slot)
                         for c in range(width)]
                   for out, u in row_out.items()}
        self._v = {inp: [_pack(vj, slot) for vj in v]
                   for inp, v in col_in.items()}

    def rows(self, out: int, inp: int) -> list[int]:
        """The Markov rows h_1..h_(n-1) of the pair (1-based) times the
        kernel basis, transposed and packed on ``lanes``: per kernel
        vector K, one row with slot t holding row h_(t+1) times K.  Modulo
        the left span a row x is known by x K, so that row is the first n
        - 1 slots of ``sum_ij K_ij U V``, reduced at once.
        """
        vs, lanes = self._v[inp], self.lanes
        products = [vs[j] * u for u, (_i, j) in zip(self._u[out], self.cols)]
        first = (1 << lanes.s * lanes.width) - 1
        return [lanes.reduce(first & sum(map(mul, vec.values(),
                                             map(products.__getitem__, vec))))
                for vec in self.kernel]

    def markov_rank(self, outs: Iterable[int], ins: Iterable[int]) -> int:
        """rank(H K) for the Markov rows H of every (output, input) pair
        (1-based): the rank of its transpose, whose row for a kernel
        vector holds each pair's :meth:`rows` side by side."""
        if not self.kernel:         # the left rows have full rank
            return 0
        blocks = [self.rows(out, inp) for out in outs for inp in ins]
        lanes = self.lanes
        if len(blocks) == 1:
            return len(_echelon(blocks[0], lanes))
        shift = lanes.s * lanes.width
        lanes = _Lanes(self.p, lanes.s, lanes.width * len(blocks))
        return len(_echelon([sum(x << shift * q for q, x in enumerate(xs))
                             for xs in zip(*blocks)], lanes))


def _echelon(rows: Sequence[int],
             lanes: _Lanes) -> list[tuple[int, int, int]]:
    """An echelon basis of packed rows over the prime field.

    Entries are semi-reduced, below 2^(k+1) for k = bits(p), in the slots
    of ``lanes``, whose width must be at least 2k + 2.  Returns ``(pivot
    column, pivot, row)`` triples in insertion order, each row reduced;
    each row is zero at the pivot columns of the rows before it, so one
    pass reduces a new row at every pivot.  A row is scaled by the pivot
    instead of divided by it, so no modular inverse is needed: a step is
    ``pv r + (p - f) b`` for the entry f of r at b's pivot, read mod p,
    which stays below 2^(2k+2).  Between steps the slots are folded only
    until they are semi-reduced again (:class:`_Lanes`); a row is fully
    reduced once, after its last step, where its pivot column, its lowest
    nonzero slot, is read.  The rank of the rows is the basis length.
    """
    p, s, mask, reduce = lanes.p, lanes.s, lanes.mask, lanes.reduce
    k, low, fold, top, delta = (lanes._k, lanes._low, lanes._fold,
                                lanes._top, lanes._delta)
    basis: list[tuple[int, int, int]] = []
    for r in rows:
        for c, pv, b in basis:
            f = (r >> s * c & mask) % p
            if f:
                r = pv * r + (p - f) * b
                while r & top:
                    r = (r & low) + (r >> k & fold) * delta
        r = reduce(r)
        if r:
            c = ((r & -r).bit_length() - 1) // s
            basis.append((c, r >> s * c & mask, r))
    return basis


def _inverses(values: Sequence[int], p: int) -> list[int]:
    """The inverses mod p of nonzero residues, from one modular inverse
    of their product: the inverse of value i is the inverse of the
    product of values 0..i times the product of values 0..i-1."""
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % p)
    inverse = pow(prefix[-1], -1, p)
    inverses = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        inverses[i] = inverse * prefix[i] % p
        inverse = inverse * values[i] % p
    return inverses


def _kernel(rows: Sequence[int],
            lanes: _Lanes) -> tuple[int, list[dict[int, int]]]:
    """The rank of packed rows over the prime field and a basis of their
    kernel, with one slot per column (:func:`_echelon`).

    Each echelon row is scaled to pivot 1, with the pivots' inverses from
    one modular inverse (:func:`_inverses`), and the rows are reduced
    upwards, ``r + (p - f) b``, until every row is zero at the other
    rows' pivots; as in :func:`_echelon`, a step keeps its slots only
    semi-reduced, and each row is fully reduced once, at the end.  A step
    reads f at the pivot of a lower row; the rows below that one are zero
    there, so the earlier steps, which added multiples of them, have left
    f as the scaling reduced it, a residue.  The vector for a free column
    f then has 1 at f, ``p - row_i[f]`` at each row's pivot and 0
    elsewhere.  Returns the rank and one such vector per free column, in
    ascending order, each as a dict from column to its nonzero entry: a
    vector has at most rank + 1 of them, however wide the rows.
    """
    p, s, mask, reduce = lanes.p, lanes.s, lanes.mask, lanes.reduce
    k, low, fold, top, delta = (lanes._k, lanes._low, lanes._fold,
                                lanes._top, lanes._delta)
    echelon = _echelon(rows, lanes)
    basis = [(c, reduce(inverse * b)) for (c, _pv, b), inverse in
             zip(echelon, _inverses([pv for _c, pv, _b in echelon], p))]
    for last in range(len(basis) - 1, 0, -1):
        c, b = basis[last]
        for i in range(last):
            ci, r = basis[i]
            f = r >> s * c & mask
            if f:
                r += (p - f) * b
                while r & top:
                    r = (r & low) + (r >> k & fold) * delta
                basis[i] = (ci, r)
    basis = [(c, reduce(b)) for c, b in basis]
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


# (model, trials, seed, report) of the latest generic_rank call
_last_rank: tuple = (None, 0, 0, None)


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

    The latest report is kept in one slot, ``_last_rank``, with the model,
    ``trials`` and ``seed`` it answers, and a call returns it again when
    ``cm.model`` is the stored model (identity, not equality) and
    ``trials`` and ``seed`` equal the stored ones.  So ``analyze`` ranks a
    map once: :func:`decide_identifiability` and
    :func:`expected_dimension` each lay out the map of one model and rank
    it at one seed, and the second call reads the first one's report.  A
    model that another :func:`~compident.model.load_model` built, even an
    equal one, is ranked afresh.  The slot holds the model, so its ``id``
    is not reused while it is stored, and each call replaces the whole
    slot in one assignment.  The key is the model, not the map, because a
    map is its model's layout (:func:`coefficient_map`).
    """
    global _last_rank
    model, last_trials, last_seed, report = _last_rank
    if cm.model is model and trials == last_trials and seed == last_seed:
        return report
    report = generic_ranks([cm], trials, seed)[0]
    _last_rank = (cm.model, trials, seed, report)
    return report


def generic_ranks(cms: Sequence[CoefficientMap], trials: int = DEFAULT_TRIALS,
                  seed: int = DEFAULT_SEED) -> list[RankReport]:
    """:func:`generic_rank` of each map, evaluating each point once.

    The maps must share the compartment count, edges and leaks; they may
    place inputs and outputs anywhere.  A trial's point, the powers of A
    at it, and the left rows with their rank and kernel basis K then
    serve every map; the packed row ``out`` serves every map with that
    output and column ``in`` every map with that input.  A map's rank is
    rank(left) + rank(H K) for the Markov rows H of its (output, input)
    pairs, and only H K is formed and ranked per map.  Each map keeps its
    own early stop, so every report equals that of ``generic_rank``
    alone.
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
    logs: list[list[TrialResult]] = [[] for _ in cms]
    best = [0] * len(cms)
    for t in range(trials):
        live = [k for k in range(len(cms)) if not logs[k] or best[k] < caps[k]]
        if not live:
            break
        prime = PRIMES[t % len(PRIMES)]
        trial_seed = seed + t
        point = FieldPoint.random(params, prime, random.Random(trial_seed))
        models = [cms[k].model for k in live]
        at = _Point(model.n, params, point,
                    {out for m in models for out in m.outputs},
                    {inp for m in models for inp in m.inputs})
        for k, m in zip(live, models):
            r = at.rank + at.markov_rank(m.outputs, m.inputs)
            logs[k].append(TrialResult(prime, trial_seed, r))
            best[k] = max(best[k], r)
    return [RankReport(best[k], tuple(logs[k])) for k in range(len(cms))]


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
