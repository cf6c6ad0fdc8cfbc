"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately re-derive results from first principles --
subset enumeration for forests, boolean-matrix closure for connectivity,
exact rational elimination for ranks, fraction-free elimination for
determinants -- so the package's algorithms are checked against genuinely
different computations, not against themselves.
"""

from __future__ import annotations

import copy
import itertools
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

import pytest

from compident.determinant import _laplace
from compident.forests import forest_sums_by_size, lhs_coefficients, \
    rhs_coefficients
from compident.graphs import AuxGraph, flip_into_leak
from compident.identify import CoefficientMap, RankReport, TrialResult
from compident.model import Model, param_vector
from compident.poly import PRIMES, FieldPoint, Monomial, Param, Poly, \
    _Codec, param_name

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


@pytest.fixture
def fixtures_dir() -> str:
    return os.path.abspath(FIXTURES_DIR)


# ---------------------------------------------------------------------
# forest oracle: filter *all* edge subsets by the definition


def _is_incoming_forest(nodes, edges) -> bool:
    sources = [e[0] for e in edges]
    if len(sources) != len(set(sources)):
        return False  # some node has two outgoing edges
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for (s, t, _lab) in edges:
        rs, rt = find(s), find(t)
        if rs == rt:
            return False  # undirected cycle
        parent[rs] = rt
    return True


def brute_force_forests(g: AuxGraph, j: int, pair=None) -> list[frozenset[int]]:
    """All j-edge spanning incoming forests as frozensets of edge indices."""
    out = []
    for subset in itertools.combinations(range(len(g.edges)), j):
        chosen = [g.edges[k] for k in subset]
        if not _is_incoming_forest(g.nodes, chosen):
            continue
        if pair is not None:
            parent = {v: v for v in g.nodes}

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for (s, t, _lab) in chosen:
                parent[find(s)] = find(t)
            if find(pair[0]) != find(pair[1]):
                continue
        out.append(frozenset(subset))
    return out


def undirected_components(g: AuxGraph, edge_indices) -> list[set[int]]:
    parent = {v: v for v in g.nodes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for k in edge_indices:
        s, t, _lab = g.edges[k]
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
    groups: dict[int, set[int]] = {}
    for v in g.nodes:
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


# ---------------------------------------------------------------------
# forest listing: a depth-first enumeration, one forest at a time, for
# the tests that inspect individual forests; it never packs a monomial,
# so it is also an oracle for the package's forest sums


class _DSU:
    """Union-find over graph nodes with O(1) undo (no path compression)."""

    __slots__ = ("parent", "size", "trail")

    def __init__(self, nodes):
        self.parent = {v: v for v in nodes}
        self.size = {v: 1 for v in nodes}
        self.trail: list[int] = []

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] > self.size[rb]:
            ra, rb = rb, ra
        self.parent[ra] = rb
        self.size[rb] += self.size[ra]
        self.trail.append(ra)
        return True

    def undo(self):
        ra = self.trail.pop()
        rb = self.parent[ra]
        self.size[rb] -= self.size[ra]
        self.parent[ra] = ra


def iter_forests(g: AuxGraph) -> Iterator[tuple[list[int], _DSU]]:
    """Yield (chosen edge indices, live union-find) for every spanning
    incoming forest of g, in a fixed depth-first order.

    The union-find is only valid at the moment of the yield; callers must
    query it before advancing the iterator.
    """
    nodes = sorted(g.nodes)
    out_by_node = [g.out_edges(v) for v in nodes]
    dsu = _DSU(nodes)
    chosen: list[int] = []
    n_nodes = len(nodes)

    def rec(pos: int) -> Iterator[tuple[list[int], _DSU]]:
        if pos == n_nodes:
            yield chosen, dsu
            return
        yield from rec(pos + 1)  # this node keeps no outgoing edge
        for ei in out_by_node[pos]:
            src, dst, _lab = g.edges[ei]
            if dsu.union(src, dst):
                chosen.append(ei)
                yield from rec(pos + 1)
                chosen.pop()
                dsu.undo()

    yield from rec(0)


@dataclass(frozen=True)
class Forest:
    """A spanning incoming forest, stored as edge positions in its host.

    Positional edge identity keeps parallel edges of a multigraph host
    distinct even when they join the same pair of nodes.
    """

    host: AuxGraph
    edge_indices: tuple[int, ...]

    def edge_count(self) -> int:
        return len(self.edge_indices)

    def labels(self):
        return [self.host.edges[k][2] for k in self.edge_indices]


@dataclass(frozen=True)
class ForestQuery:
    """Forests of ``host`` with ``edge_count`` edges; optionally restricted
    to those whose underlying undirected graph puts ``same_component[0]``
    and ``same_component[1]`` in one component."""

    host: AuxGraph
    edge_count: int
    same_component: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.edge_count < 0:
            raise ValueError("edge_count must be >= 0")
        if self.same_component is not None:
            nodes = set(self.host.nodes)
            for v in self.same_component:
                if v not in nodes:
                    raise ValueError(f"node {v} not in host graph")


def enumerate_forests(query: ForestQuery) -> list[Forest]:
    """All forests matching the query, in depth-first order."""
    g = query.host
    out: list[Forest] = []
    pair = query.same_component
    for chosen, dsu in iter_forests(g):
        if len(chosen) != query.edge_count:
            continue
        if pair is not None and dsu.find(pair[0]) != dsu.find(pair[1]):
            continue
        out.append(Forest(g, tuple(sorted(chosen))))
    return out


def productivity(f: Forest) -> Poly:
    """Product of the forest's edge labels; 1 for the edgeless forest."""
    return Poly.monomial(f.labels())


# ---------------------------------------------------------------------
# connectivity oracle: transitive closure by boolean matrix powering


def all_digraphs(max_n: int):
    """Every digraph on 1..n for n <= max_n, as (n, edge list)."""
    for n in range(1, max_n + 1):
        pairs = [(f, t) for f in range(1, n + 1) for t in range(1, n + 1) if f != t]
        for bits in range(2 ** len(pairs)):
            yield n, [pairs[k] for k in range(len(pairs)) if bits >> k & 1]


def closure_strongly_connected(n: int, edges) -> bool:
    reach = [[i == j for j in range(n)] for i in range(n)]
    for (f, t) in edges:
        reach[f - 1][t - 1] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return all(all(row) for row in reach)


# ---------------------------------------------------------------------
# rank oracle: exact rational Jacobian rank at a concrete point


def _term_partial_at(mono, coeff, var, point) -> Fraction:
    exps = dict(mono)
    if var not in exps:
        return Fraction(0)
    value = Fraction(coeff) * exps[var]
    for p, e in mono:
        value *= Fraction(point[p]) ** (e - 1 if p == var else e)
    return value


def rational_jacobian_rank(entries, params, point) -> int:
    """Rank over the rationals of the Jacobian at the given point.

    Differentiates term by term and eliminates with Fractions; shares no
    code with the modular path used by the package.
    """
    rows = []
    for f in entries:
        row = []
        for var in params:
            val = Fraction(0)
            for mono, c in f.terms.items():
                val += _term_partial_at(mono, c, var, point)
            row.append(val)
        rows.append(row)
    rank = 0
    n_rows = len(rows)
    n_cols = len(params)
    for c in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][c]
        for i in range(rank + 1, n_rows):
            if rows[i][c] != 0:
                factor = rows[i][c] / pv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over the prime field by column-pivoted Gaussian elimination.

    Rows are scaled by the pivot instead of divided by it.  Eliminates
    column by column over the whole matrix, unlike the package's
    row-by-row echelon basis.
    """
    if not rows:
        return 0
    M = [row[:] for row in rows]
    n_rows, n_cols = len(M), len(M[0])
    rank = 0
    for c in range(n_cols):
        pivot = None
        for i in range(rank, n_rows):
            if M[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        row = M[rank]
        pv = row[c] % p
        for i in range(rank + 1, n_rows):
            f = M[i][c] % p
            if f:
                M[i] = [(pv * a - f * b) % p for a, b in zip(M[i], row)]
        rank += 1
        if rank == n_rows:
            break
    return rank


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _quotient_mod(num, c, p: int) -> tuple[list[int], list[int]]:
    """Long division of num by the monic c, coefficients by ascending
    power of lambda, mod p: returns (quotient, remainder)."""
    n = len(c) - 1
    rem = [x % p for x in num]
    q = [0] * max(len(rem) - n, 0)
    for t in range(len(q) - 1, -1, -1):
        qt = q[t] = rem[t + n]
        for s, cs in enumerate(c):
            rem[t + s] = (rem[t + s] - qt * cs) % p
    return q, rem[:n]


def point_rows(n: int, params, point) -> list[list[tuple[int, int]]]:
    """The sparse rows of A at the point: ``rows[i]`` lists the nonzero
    ``(j, A[i][j])`` mod the prime, 0-based.  Parameter ``a_ij`` moves
    flow from j to i, so it adds to A[i][j] and subtracts from A[j][j]
    (``a_0j``, a leak, only the latter); the matrix is filled densely
    and then read, row by row, with every diagonal entry listed."""
    p = point.prime
    A = [[0] * n for _ in range(n)]
    for (i, j) in params:
        v = point.values[(i, j)]
        A[j - 1][j - 1] -= v
        if i:
            A[i - 1][j - 1] += v
    return [[(j, x % p) for j, x in enumerate(row) if x or i == j]
            for i, row in enumerate(A)]


def faddeev_leverrier(a_rows, p: int) -> tuple[list, list[int]]:
    """adj(lambda*I - A) and det(lambda*I - A) mod p, on plain lists.

    ``a_rows[i]`` lists the nonzero ``(j, A[i][j])`` of row i.  Returns
    ``(B, c)``: ``B[k][a][b]`` is entry (a, b) of the matrix coefficient
    of lambda^k in the adjugate (k < n) and ``c[k]`` the coefficient of
    lambda^k in the monic characteristic polynomial.  Element by element,
    with every entry reduced after each product and 1/k by Fermat.  The
    package never forms the adjugate: it ranks power sums and Markov
    parameters (``identify._Point``), so this recursion is an independent
    route to the same Jacobian.
    """
    n = len(a_rows)
    inv = [0] + [pow(k, p - 2, p) for k in range(1, n + 1)]   # Fermat
    c = [0] * (n + 1)
    c[n] = 1
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    B = [M] * n                 # B[n - 1] = I; the others are set below
    for k in range(1, n):
        AM = []
        for row in a_rows:
            acc = [0] * n
            for j, a in row:
                acc = [x + a * y for x, y in zip(acc, M[j])]
            AM.append(acc)
        c[n - k] = -sum(AM[i][i] for i in range(n)) * inv[k] % p
        M = [[x % p for x in row] for row in AM]
        for i in range(n):
            M[i][i] = (M[i][i] + c[n - k]) % p
        B[n - 1 - k] = M
    c[0] = -sum(a * M[j][i] for i, row in enumerate(a_rows)
                for j, a in row) * inv[n] % p
    return B, c


def matrix_powers(a_rows, p: int, count: int) -> list[list[list[int]]]:
    """A^0..A^(count-1) mod p as dense lists, from the sparse rows of A
    (:func:`point_rows`), each entry reduced after each product."""
    n = len(a_rows)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    powers = []
    for _ in range(count):
        powers.append(power)
        power = [[sum(a * power[j][b] for j, a in row) % p for b in range(n)]
                 for row in a_rows]
    return powers


def adjugate_at(n: int, params, point):
    """``(adj, c)`` at the point by :func:`faddeev_leverrier`:
    ``adj[a][b]`` lists entry (a, b) of adj(lambda*I - A) by ascending
    powers of lambda."""
    B, c = faddeev_leverrier(point_rows(n, params, point), point.prime)
    return [[[Bk[a][b] for Bk in B] for b in range(n)]
            for a in range(n)], c


def jacobian_at(cm, point) -> list[list[int]]:
    """The Jacobian of the coefficient map at the point, mod its prime.

    A left-side row holds the partials of c, ``adj_jj - adj_ji`` for
    ``a_ij`` (``adj_jj`` for a leak).  With M = lambda*I - A, the Jacobi
    identity ``d adj_ab / d M_rc = (adj_cr adj_ab - adj_ar adj_cb) / c``
    gives the right-side row of ``d_k``: per parameter, coefficient k of
    the quotient of ``u d - w v`` by the monic c, by long division that
    is checked to be exact, for u = dc/da_ij, d = adj_out,in, w =
    adj_j,in and v = adj_out,j - adj_out,i (adj_out,j alone for a leak).
    The adjugate comes from :func:`adjugate_at`, not from the package.
    """
    p = point.prime
    adj, c = adjugate_at(cm.model.n, cm.params, point)
    cols = [(i - 1 if i else None, j - 1) for (i, j) in cm.params]
    lhs = [adj[j][j] if i is None else
           [(a - b) % p for a, b in zip(adj[j][j], adj[j][i])]
           for (i, j) in cols]
    rows = []
    for (out, inp, k) in cm.coeffs:
        if inp is None:
            rows.append([u[k] for u in lhs])
            continue
        d = adj[out - 1][inp - 1]
        row_o = adj[out - 1]
        row = []
        for u, (i, j) in zip(lhs, cols):
            v = row_o[j] if i is None else \
                [a - b for a, b in zip(row_o[j], row_o[i])]
            num = [a - b for a, b in zip(_poly_mul(u, d),
                                         _poly_mul(adj[j][inp - 1], v))]
            q, rem = _quotient_mod(num, c, p)
            assert not any(rem), "the Jacobi quotient is not exact"
            row.append(q[k] if k < len(q) else 0)
        rows.append(row)
    return rows


def reference_generic_rank(cm, trials: int, seed: int):
    """The generic-rank trial loop of one map on its own: the Jacobian
    built from scratch at each trial's point and ranked by :func:`rank_mod`,
    stopping once the rank reaches min(p, m)."""
    cap = min(cm.p, cm.m)
    results, best = [], 0
    for t in range(trials):
        prime = PRIMES[t % len(PRIMES)]
        point = FieldPoint.random(cm.params, prime, random.Random(seed + t))
        r = rank_mod(jacobian_at(cm, point), prime)
        results.append(TrialResult(prime, seed + t, r))
        best = max(best, r)
        if best == cap:
            break
    return RankReport(best, tuple(results), cm.p, cm.m)


def rational_generic_rank(entries, params, rng, attempts: int = 3) -> int:
    best = 0
    for _ in range(attempts):
        point = {p: Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 97))
                 for p in params}
        best = max(best, rational_jacobian_rank(entries, params, point))
    return best


# ---------------------------------------------------------------------
# Jacobian oracle: partial derivatives of the expanded polynomials


def symbolic_jacobian_mod_point(entries, params, point) -> list[list[int]]:
    """All partial derivatives of every entry, evaluated at the point.

    Uses the product-rule shortcut: for a term c*x^e*R the partial with
    respect to x is e/x times the term's value, and the point coordinates
    are nonzero mod the prime by construction.  Works on the expanded
    polynomials, so it shares nothing with the package's adjugate route.
    """
    p = point.prime
    col = {par: k for k, par in enumerate(params)}
    inv = {par: pow(v, p - 2, p) for par, v in point.values.items()}
    rows = []
    for f in entries:
        row = [0] * len(params)
        for mono, c in f.terms.items():
            val = c % p
            for par, e in mono:
                v = point.values[par]
                val = val * (v if e == 1 else pow(v, e, p)) % p
            for par, e in mono:
                j = col[par]
                row[j] = (row[j] + e * val * inv[par]) % p
        rows.append(row)
    return rows


def symbolic_map(m: Model) -> CoefficientMap:
    """The coefficient map laid out from the expanded forest polynomials:
    every coefficient that is not a constant, in the map's order, for any
    model with inputs, strongly connected or not.  The left side is shared
    by every equation and listed once, under the first output."""
    cs = lhs_coefficients(m)
    outs = sorted(m.outputs)
    orders = range(m.n - 1, -1, -1)
    coeffs = [(outs[0], None, k) for k in orders if not cs[k].is_constant()]
    for out in outs:
        for inp in sorted(m.inputs):
            _sign, ds = rhs_coefficients(m, out, inp)
            coeffs += [(out, inp, k) for k in orders
                       if not ds[k].is_constant()]
    return CoefficientMap(m, param_vector(m), tuple(coeffs))


# ---------------------------------------------------------------------
# rendering oracle: sort by a key function, then name every factor


def _mono_sort_key(mono):
    # Graded order: total degree first, then the flattened parameter list
    # (a parameter with exponent e is repeated e times) compared
    # lexicographically.
    flat = []
    deg = 0
    for p, e in mono:
        deg += e
        flat.extend([p] * e)
    return (-deg, tuple(flat))


def reference_text(poly: Poly) -> str:
    """The canonical text of a polynomial, rendered term by term."""
    if not poly.terms:
        return "0"
    parts = []
    for mono, coeff in sorted(poly.terms.items(),
                              key=lambda kv: _mono_sort_key(kv[0])):
        factors = []
        for p, e in mono:
            factors.append(param_name(p) if e == 1 else f"{param_name(p)}^{e}")
        body = "*".join(factors)
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


# ---------------------------------------------------------------------
# unpacked determinant oracles: lambda-polynomials with Poly coefficients,
# the Poly compartmental matrix, and determinants of its minors


class LambdaPoly:
    """Polynomial in lambda with :class:`Poly` coefficients (dense in lambda)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
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


@dataclass(frozen=True)
class SymMatrix:
    """A square matrix of polynomials, indexed 1..n like the compartments."""

    entries: tuple[tuple[Poly, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i - 1][j - 1]


def poly_matrix(m: Model) -> SymMatrix:
    """The n x n compartmental matrix A of the model, with Poly entries.

    Off-diagonal (i, j) holds ``a_ij`` when j -> i is an edge, zero
    otherwise.  Diagonal (i, i) holds ``-a_0i`` (if i leaks) minus the sum
    of ``a_ki`` over edges i -> k, so each column sums to ``-a_0i`` for
    leak columns and to zero otherwise.
    """
    n = m.n
    grid = [[Poly.zero() for _ in range(n)] for _ in range(n)]
    for i in m.compartments():
        diag = Poly.zero()
        if i in m.leaks:
            diag = diag - Poly.var((0, i))
        for k in m.out_neighbors(i):
            diag = diag - Poly.var((k, i))
        grid[i - 1][i - 1] = diag
    for (f, t) in m.sorted_edges():
        grid[t - 1][f - 1] = Poly.var((t, f))
    return SymMatrix(tuple(tuple(row) for row in grid))


def star_matrix(m: Model, i: int) -> SymMatrix:
    """The compartmental matrix with column i replaced by zeros."""
    if not (1 <= i <= m.n):
        raise ValueError(f"compartment {i} out of range 1..{m.n}")
    grid = [list(row) for row in poly_matrix(m).entries]
    for r in range(m.n):
        grid[r][i - 1] = Poly.zero()
    return SymMatrix(tuple(tuple(row) for row in grid))


def lambda_shifted(M: SymMatrix) -> list[list[LambdaPoly]]:
    """Entries of lambda*I - M."""
    return [[LambdaPoly([-e, Poly.one()]) if i == j else LambdaPoly([-e])
             for j, e in enumerate(row)] for i, row in enumerate(M.entries)]


def det_laplace(rows: list[list[LambdaPoly]]) -> LambdaPoly:
    """Determinant of a square matrix of lambda-polynomials by the
    package's kernel, ``determinant._laplace``.

    Every entry is packed once, on a codec whose exponent bound is, over
    the parameters, the largest sum over the columns of the parameter's
    top exponent in the column: a Laplace term takes one entry per
    column, so no product it forms can exceed it.  The result is
    unpacked once.
    """
    n = len(rows)
    if n == 0:
        return LambdaPoly([Poly.one()])
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


def char_lambda_poly(M: SymMatrix) -> LambdaPoly:
    """``det(lambda*I - M)`` as an exact lambda-polynomial."""
    return det_laplace(lambda_shifted(M))


def minor_lambda_poly(M: SymMatrix, drop_row: int, drop_col: int) -> LambdaPoly:
    """Determinant of ``lambda*I - M`` with one row and one column removed.

    Row and column indices are 1-based; the lambda entries stay at their
    original diagonal positions, so off-diagonal minors are genuinely
    different from characteristic polynomials of submatrices.
    """
    n = M.n
    if not (1 <= drop_row <= n and 1 <= drop_col <= n):
        raise ValueError(f"minor indices out of range 1..{n}")
    return det_laplace([[e for j, e in enumerate(row, start=1) if j != drop_col]
                        for i, row in enumerate(lambda_shifted(M), start=1)
                        if i != drop_row])


# ---------------------------------------------------------------------
# determinant oracle: fraction-free (Bareiss) elimination with exact
# polynomial division, which raises if a division is not exact


class InexactDivision(ArithmeticError):
    pass


def _leading(poly: Poly):
    mono = min(poly.terms, key=_mono_sort_key)
    return mono, poly.terms[mono]


def _mono_div(a, b):
    exps = dict(a)
    for p, e in b:
        have = exps.get(p, 0)
        if have < e:
            raise InexactDivision("monomial does not divide")
        if have == e:
            del exps[p]
        else:
            exps[p] = have - e
    return tuple(sorted(exps.items()))


def poly_exact_div(num: Poly, den: Poly) -> Poly:
    """Exact quotient num / den in the polynomial ring.

    Works by repeatedly cancelling leading terms under the graded order;
    raises :class:`InexactDivision` if den does not divide num.
    """
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    quo = {}
    rem = num
    dm, dc = _leading(den)
    while rem:
        rm, rc = _leading(rem)
        if rc % dc != 0:
            raise InexactDivision("coefficient does not divide")
        qm = _mono_div(rm, dm)
        qc = rc // dc
        quo[qm] = quo.get(qm, 0) + qc
        rem = rem - den * Poly({qm: qc})
    return Poly(quo)


def lambda_exact_div(num: LambdaPoly, den: LambdaPoly) -> LambdaPoly:
    """Exact quotient in lambda: classic long division, exact at each step."""
    if not den:
        raise ZeroDivisionError("division by zero lambda-polynomial")
    quo = [Poly.zero()] * max(num.degree() - den.degree() + 1, 0)
    rem = num
    while rem and rem.degree() >= den.degree():
        q = poly_exact_div(rem.leading(), den.leading())
        k = rem.degree() - den.degree()
        quo[k] = quo[k] + q
        rem = rem - den.scale(q).shift(k)
    if rem:
        raise InexactDivision("lambda-polynomial division left a remainder")
    return LambdaPoly(quo)


def det_bareiss(rows) -> LambdaPoly:
    """Fraction-free elimination; every division is exact by construction."""
    n = len(rows)
    one = LambdaPoly([Poly.one()])
    if n == 0:
        return one
    M = [list(r) for r in rows]
    sign = 1
    prev = one
    for k in range(n - 1):
        if not M[k][k]:
            pivot = next((i for i in range(k + 1, n) if M[i][k]), None)
            if pivot is None:
                return LambdaPoly.zero()
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[k][k] * M[i][j] - M[i][k] * M[k][j]
                M[i][j] = lambda_exact_div(num, prev)
            M[i][k] = LambdaPoly.zero()
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else -det


# ---------------------------------------------------------------------
# helpers that only tests use


def rhs_coefficients_multigraph(m: Model, i: int) -> list[Poly]:
    """Alternative input-side route via the flipped multigraph.

    Only defined when input and output coincide in compartment i; the
    result ``[d_0, ..., d_{n-2}]`` must agree with ``rhs_coefficients``
    (the flip is a productivity-preserving bijection on forests).
    """
    if m.inputs != {i} or m.outputs != {i}:
        raise ValueError("multigraph route requires inputs == outputs == {i}")
    sums = forest_sums_by_size(flip_into_leak(m, i))
    n = m.n
    return [sums[n - k - 1] for k in range(n - 1)]


def to_dot(g: AuxGraph, name: str = "aux") -> str:
    """Dot-format rendering of an auxiliary graph; labels are parameter names."""
    lines = [f"digraph {name} {{"]
    for v in g.nodes:
        lines.append(f"  n{v} [label=\"{v}\"];")
    for (src, dst, lab) in g.edges:
        lines.append(f"  n{src} -> n{dst} [label=\"{param_name(lab)}\"];")
    lines.append("}")
    return "\n".join(lines)


def partial_derivative(poly: Poly, param: Param) -> Poly:
    """Formal partial derivative with respect to one parameter."""
    out: dict[Monomial, int] = {}
    for m, c in poly.terms.items():
        for idx, (p, e) in enumerate(m):
            if p != param:
                continue
            if e == 1:
                dm = m[:idx] + m[idx + 1:]
            else:
                dm = m[:idx] + ((p, e - 1),) + m[idx + 1:]
            out[dm] = out.get(dm, 0) + c * e
            break
    return Poly(out)


def eval_mod(poly: Poly, point: FieldPoint) -> int:
    """Evaluate at a field point; raises KeyError on unassigned params."""
    p = point.prime
    total = 0
    for m, c in poly.terms.items():
        t = c % p
        for par, e in m:
            v = point.values[par]
            t = t * (v if e == 1 else pow(v, e, p)) % p
        total = (total + t) % p
    return total


def dropping_a_term(original, pick):
    """``original`` returning a copy of its result in which each packed
    lambda-list that ``pick(result, *args, **kwargs)`` lists lacks the
    first term of its top nonzero coefficient."""
    def patched(*args, **kwargs):
        result = copy.deepcopy(original(*args, **kwargs))
        for coeffs in pick(result, *args, **kwargs):
            top = next(d for d in reversed(coeffs) if d)
            del top[next(iter(top))]
        return result
    return patched


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap ``module.name`` wherever a compident module binds it; the
    returned list gets one entry (the arguments) per call."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "compident" \
                and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


# ---------------------------------------------------------------------
# small model shorthand


def mk(n, edges, ins, outs, leaks=()) -> Model:
    return Model.create(n, edges, ins, outs, leaks)


def poly_of(*params) -> Poly:
    """Monomial from parameter tuples, e.g. poly_of((0,2),(1,3))."""
    return Poly.monomial(params)
