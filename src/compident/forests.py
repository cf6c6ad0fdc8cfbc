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
increasing order: each keeps no outgoing edge or picks one of them.  As
no node has two out-edges, an undirected cycle among the chosen edges is
a directed one, so one successor per node is all the state: an edge
``src -> dst`` is refused when the chosen edges lead from ``dst`` back to
``src``.  Edge labels are distinct, so the recursion carries a forest as
a packed monomial (see :mod:`compident.poly`) with one bit per edge: the
sum of the chosen edges' codes.  A finished forest drops its code into
the ``{code: 1}`` bucket of its size (its bit count).  All sizes come
from a single pass, so one traversal yields every coefficient of an
equation side at once.  On the right side, a complete forest is tested
against every input at once, so one traversal per output yields the
right sides of all its equations.

The traversal, :func:`forest_buckets` for one pair or none, packs on the
caller's codec, so the ``coeffs`` command keeps both routes'
coefficients packed on one codec per request, compares them there and
renders them from the codes; :func:`forest_lhs` gives the left side and
:func:`forest_rhs` the right sides of one output.
:func:`forest_sums_by_size`, :func:`lhs_coefficients` and
:func:`rhs_coefficients` unpack the same buckets into :class:`Poly`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from .graphs import AuxGraph, leak_augmented, strip_outgoing
from .model import Model, distance, is_strongly_connected, param_vector
from .poly import Poly, _Codec


def forest_sums_by_size(g: AuxGraph,
                        pair: Optional[Tuple[int, int]] = None) -> list[Poly]:
    """Sum of productivities of all (pair-restricted) forests, per size.

    Returns a list indexed by edge count 0..len(g.nodes); a forest on k
    nodes has at most k-1 edges, so the top buckets are zero.
    """
    codec = _Codec(g.labels())
    return [codec.unpack(b) for b in forest_buckets(g, codec, pair)]


def forest_buckets(g: AuxGraph, codec: _Codec,
                   pair: Optional[Tuple[int, int]] = None
                   ) -> list[dict[int, int]]:
    """:func:`forest_sums_by_size` packed on ``codec``: per size, the
    ``{code: 1}`` dict of the forests of that many edges.

    The codec must have one-bit fields and hold every label of ``g``.
    Labels are distinct (AuxGraph checks), so a forest's code has one
    bit per edge and no two forests share a code.
    """
    if pair is None:
        return _walk(g, codec, None, [None])[0]
    return _walk(g, codec, pair[1], [pair[0]])[0]


def _walk(g: AuxGraph, codec: _Codec, sink: Optional[int],
          sources: Sequence[Optional[int]]) -> list[list[dict[int, int]]]:
    """One traversal of the forests of g: per source, the buckets of
    :func:`forest_buckets` of the pair (source, sink), or with ``sink``
    None, of every forest for the one source."""
    nodes = sorted(g.nodes)
    index = {v: k for k, v in enumerate(nodes)}
    steps: dict[int, list[tuple[int, int]]] = {}
    for (src, dst, lab) in g.edges:
        steps.setdefault(index[src], []).append((index[dst], codec.var(lab)))
    sums = [[{} for _ in range(len(nodes) + 1)] for _ in sources]
    if sink is None:
        end, buckets = None, sums[0]
    else:
        end, buckets = index[sink], [(index[v], s)
                                     for v, s in zip(sources, sums)]
    _grow(sorted(steps.items()), 0, 0, list(range(len(nodes))), end,
          buckets)
    return sums


def _grow(steps: list[tuple[int, list[tuple[int, int]]]], pos: int,
          code: int, succ: list[int], sink: Optional[int], buckets) -> None:
    """Extend a partial forest by the choice of node ``steps[pos][0]``.

    ``steps`` lists, for each node with out-edges in increasing order,
    its edges as (target, code); the node keeps no outgoing edge or one
    of them.  ``code`` is the sum of the chosen edges' codes, and
    ``succ[v]`` the target of v's chosen edge, or v if it keeps none.
    With one out-edge per node, a cycle closed by ``src -> dst`` is
    directed: the chosen edges lead from ``dst`` back to ``src``.  Only
    the nodes below ``src`` have chosen, so the others are sinks: the
    walk along ``succ`` from ``dst`` stops at the first sink or node not
    below ``src``, and the edge is refused when that node is ``src``.
    A complete forest drops its code into the bucket of its size: with
    ``sink`` None, in ``buckets``, one dict per size; else ``buckets``
    lists (source, buckets) pairs, and the forest goes to each source
    whose walk along ``succ`` ends where the sink's does.
    """
    if pos == len(steps):
        if sink is None:
            buckets[code.bit_count()][code] = 1
            return
        b = sink
        while succ[b] != b:
            b = succ[b]
        for a, sized in buckets:
            while succ[a] != a:
                a = succ[a]
            if a == b:
                sized[code.bit_count()][code] = 1
        return
    src, edges = steps[pos]
    succ[src] = src
    _grow(steps, pos + 1, code, succ, sink, buckets)
    for dst, bit in edges:
        end = dst
        while end < src and succ[end] != end:
            end = succ[end]
        if end != src:
            succ[src] = dst
            _grow(steps, pos + 1, code + bit, succ, sink, buckets)


def lhs_coefficients(m: Model) -> list[Poly]:
    """The output-side coefficients ``[c_0, ..., c_{n-1}]`` (``c_n = 1``).

    ``c_k`` is the sum of productivities over all (n-k)-edge spanning
    incoming forests of the leak-augmented graph.
    """
    codec = _Codec(param_vector(m))
    return [codec.unpack(c) for c in forest_lhs(m, codec)[:-1]]


def forest_lhs(m: Model, codec: _Codec) -> list[dict[int, int]]:
    """``[c_0, ..., c_n]`` packed on ``codec``, with ``c_n = {0: 1}``."""
    sums = forest_buckets(leak_augmented(m), codec)
    n = m.n
    return [sums[n - k] for k in range(n + 1)]


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
    codec = _Codec(param_vector(m))
    sign = -1 if (out + inp) % 2 else 1
    ds = forest_rhs(m, out, [inp], codec)[inp]
    return sign, [codec.unpack(d) for d in ds]


def forest_rhs(m: Model, out: int, inputs: Sequence[int],
               codec: _Codec) -> dict[int, list[dict[int, int]]]:
    """Per input, the unsigned ``[d_0, ..., d_{n-1}]`` of the pair
    (output, input), packed on ``codec``, from one traversal of the graph
    stripped at the output."""
    sums = _walk(strip_outgoing(m, out), codec, out, inputs)
    n = m.n
    return {inp: [s[n - k - 1] for k in range(n)]
            for inp, s in zip(inputs, sums)}


def nonconstant_sizes(n: int, leaky: bool,
                      dist: Optional[int] = None) -> range:
    """The count law of a strongly connected model with n compartments:
    the forest sizes (edge counts) whose sums are non-constant.

    A forest sum has positive coefficients and is homogeneous of degree
    its edge count, so it is non-constant exactly when a forest of its
    size, at least one edge, exists.  Those sizes run 1..n on the left
    side (``dist`` None) with leaks and 1..n-1 without, and
    max(dist, 1)..n-1 on the right of an (output, input) pair at distance
    ``dist``: a forest that joins the two contains a path between them.
    """
    if dist is None:
        return range(1, n + 1 if leaky else n)
    return range(max(dist, 1), n)


def nonconstant_counts(m: Model) -> tuple[int, int]:
    """Counts of non-constant coefficients (left side, right side) of a
    strongly connected single-input single-output model, by the count law
    :func:`nonconstant_sizes`."""
    if len(m.inputs) != 1 or len(m.outputs) != 1:
        raise ValueError("counts require exactly one input and one output")
    if not is_strongly_connected(m):
        raise ValueError("counts require a strongly connected model")
    (inp,) = m.inputs
    (out,) = m.outputs
    dist = 0 if inp == out else int(distance(m, inp, out))
    leaky = bool(m.leaks)
    return (len(nonconstant_sizes(m.n, leaky)),
            len(nonconstant_sizes(m.n, leaky, dist)))
