"""Spanning incoming forests and the coefficient formulas built on them.

A spanning incoming forest of a labelled digraph is a spanning subgraph
(isolated nodes allowed) whose underlying undirected graph is acyclic and
in which every node has at most one outgoing edge.  Each connected
component of such a forest has exactly one sink.

The input-output equation coefficients of a model with n compartments
are sums of forest productivities (products of edge labels):

* left side:   ``c_k``   = sum over (n-k)-edge forests of the
  leak-augmented graph, for k = 0..n-1 (the leading coefficient is 1);
* right side:  ``d_k``   = sum over (n-k-1)-edge forests of the
  output-stripped graph in which the input and output compartments lie in
  the same undirected component, for k = 0..n-1.  The companion sign
  ``(-1)^(out+in)`` is reported separately so the stored polynomials keep
  all-positive coefficients.

Enumeration is a depth-first scan over the nodes in increasing order;
each node either keeps no outgoing edge or picks one of its out-edges,
and a union-find structure rejects undirected cycles as soon as they
would form.  All sizes are collected in a single pass, so one traversal
yields every coefficient of an equation side at once.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from .graphs import AuxGraph, leak_augmented, strip_outgoing
from .model import Model, distance, is_strongly_connected
from .poly import Poly


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


def _iter_forests(g: AuxGraph) -> Iterator[tuple[list[int], _DSU]]:
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


def forest_sums_by_size(g: AuxGraph,
                        pair: Optional[Tuple[int, int]] = None) -> list[Poly]:
    """Sum of productivities of all (pair-restricted) forests, per size.

    Returns a list indexed by edge count 0..len(g.nodes); a forest on k
    nodes has at most k-1 edges, so the top buckets are zero.
    """
    buckets: list[dict] = [dict() for _ in range(len(g.nodes) + 1)]
    labels = [lab for (_s, _d, lab) in g.edges]
    for chosen, dsu in _iter_forests(g):
        if pair is not None and dsu.find(pair[0]) != dsu.find(pair[1]):
            continue
        mono = tuple(sorted((labels[k], 1) for k in chosen))
        bucket = buckets[len(chosen)]
        bucket[mono] = bucket.get(mono, 0) + 1
    return [Poly(b) for b in buckets]


def lhs_coefficients(m: Model) -> list[Poly]:
    """The output-side coefficients ``[c_0, ..., c_{n-1}]`` (``c_n = 1``).

    ``c_k`` is the sum of productivities over all (n-k)-edge spanning
    incoming forests of the leak-augmented graph.
    """
    sums = forest_sums_by_size(leak_augmented(m))
    n = m.n
    return [sums[n - k] for k in range(n)]


def rhs_coefficients(m: Model, out: int, inp: int) -> tuple[int, list[Poly]]:
    """The input-side coefficients for one (output, input) pair.

    Returns ``(sign, [d_0, ..., d_{n-1}])`` where ``d_k`` is the sum of
    productivities over (n-k-1)-edge forests of the output-stripped graph
    having ``inp`` and ``out`` in one undirected component, and ``sign``
    is ``(-1)^(out+inp)``.  The sign is metadata: the stored polynomials
    are the unsigned forest sums.
    """
    if out not in m.outputs:
        raise ValueError(f"compartment {out} is not an output")
    if inp not in m.inputs:
        raise ValueError(f"compartment {inp} is not an input")
    sums = forest_sums_by_size(strip_outgoing(m, out), pair=(inp, out))
    n = m.n
    ds = [sums[n - k - 1] for k in range(n)]
    sign = -1 if (out + inp) % 2 else 1
    return sign, ds


def nonconstant_counts(m: Model) -> tuple[int, int]:
    """Counts of non-constant coefficients (left side, right side).

    Closed form for strongly connected single-input single-output models:
    n (with leaks) or n-1 (leakless) on the left; n-1 when input equals
    output, else n-L with L the input-to-output distance.
    """
    if len(m.inputs) != 1 or len(m.outputs) != 1:
        raise ValueError("counts require exactly one input and one output")
    if not is_strongly_connected(m):
        raise ValueError("counts require a strongly connected model")
    n = m.n
    lhs = n if m.leaks else n - 1
    (inp,) = m.inputs
    (out,) = m.outputs
    if inp == out:
        rhs = n - 1
    else:
        rhs = n - int(distance(m, inp, out))
    return lhs, rhs
