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

Enumeration is a plain recursion over the nodes with out-edges, in
increasing order: each keeps no outgoing edge or picks one of them, and a
list-based union-find with undo rejects an undirected cycle as it would
form.  Edge labels are distinct, so the recursion carries a forest as a
packed monomial (see :mod:`compident.poly`) with one bit per edge: the
sum of the chosen edges' codes.  A finished forest records its code, and
each code is unpacked once, into the bucket of its size (its bit count).
All sizes come from a single pass, so one traversal yields every
coefficient of an equation side at once.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .graphs import AuxGraph, leak_augmented, strip_outgoing
from .model import Model, distance, is_strongly_connected
from .poly import Poly, _Codec


def forest_sums_by_size(g: AuxGraph,
                        pair: Optional[Tuple[int, int]] = None) -> list[Poly]:
    """Sum of productivities of all (pair-restricted) forests, per size.

    Returns a list indexed by edge count 0..len(g.nodes); a forest on k
    nodes has at most k-1 edges, so the top buckets are zero.
    """
    nodes = sorted(g.nodes)
    index = {v: k for k, v in enumerate(nodes)}
    # Labels are distinct (AuxGraph checks), so every exponent is at most
    # 1, a forest's code has one bit per edge and no two forests share a
    # code: each forest is a term of coefficient 1 in its size's bucket.
    codec = _Codec(g.labels())
    steps: dict[int, list[tuple[int, int]]] = {}
    for (src, dst, lab) in g.edges:
        steps.setdefault(index[src], []).append(
            (index[dst], codec.code(((lab, 1),))))
    codes: list[int] = []
    _grow(sorted(steps.items()), 0, 0, list(range(len(nodes))),
          [1] * len(nodes),
          None if pair is None else (index[pair[0]], index[pair[1]]), codes)
    buckets: list[dict[int, int]] = [{} for _ in range(len(nodes) + 1)]
    for code in codes:
        buckets[code.bit_count()][code] = 1
    return [codec.unpack(b) for b in buckets]


def _grow(steps: list[tuple[int, list[tuple[int, int]]]], pos: int,
          code: int, parent: list[int], size: list[int],
          pair: Optional[Tuple[int, int]], codes: list[int]) -> None:
    """Extend a partial forest by the choice of node ``steps[pos][0]``.

    ``steps`` lists, for each node with out-edges in increasing order,
    its edges as (target, code); the node keeps no outgoing edge or one
    of them.  ``code`` is the sum of the chosen edges' codes, and
    ``parent``/``size`` are a union-find (union by size, no path
    compression) over the chosen edges that rejects an undirected cycle
    as it would form; each union is undone after its subtree.  A
    complete forest whose pair, if any, lies in one component appends
    its code to ``codes``.
    """
    if pos == len(steps):
        if pair is not None:
            a, b = pair
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                return
        codes.append(code)
        return
    _grow(steps, pos + 1, code, parent, size, pair, codes)
    src, edges = steps[pos]
    while parent[src] != src:
        src = parent[src]
    for dst, bit in edges:
        while parent[dst] != dst:
            dst = parent[dst]
        if dst == src:
            continue
        child, root = (src, dst) if size[src] <= size[dst] else (dst, src)
        parent[child] = root
        size[root] += size[child]
        _grow(steps, pos + 1, code + bit, parent, size, pair, codes)
        size[root] -= size[child]
        parent[child] = child


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
