"""Auxiliary graphs and the packed compartmental matrix.

From a model three derived graphs are built, all sharing the virtual leak
node 0:

* the leak-augmented graph: the model graph plus node 0 and one edge
  ``j -> 0`` labelled ``a_0j`` per leak compartment j;
* the output-stripped graph (for a compartment i): the leak-augmented
  graph with every edge leaving i removed;
* the flipped multigraph (for i): from the stripped graph, every edge
  ``j -> i`` is redirected to ``j -> 0`` keeping its label ``a_ij``, and
  node i is deleted.  Redirection can create parallel edges into node 0,
  so this is the only one of the three allowed to be a multigraph; the
  parallel edges keep their distinct labels.

The compartmental matrix A has ``a_ij`` at entry (i, j) for each edge
j -> i, and diagonal entries that balance each column: column i sums to
``-a_0i`` when i leaks and to zero otherwise.  :func:`compartmental_matrix`
builds ``lambda*I - A`` on packed monomials (see :mod:`compident.poly`),
the one matrix the determinant route expands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .model import Model
from .poly import Param, _Codec

# A labelled directed edge (source, target, label).  Edge identity within
# an AuxGraph is positional, which keeps parallel edges distinct.
LabeledEdge = Tuple[int, int, Param]


@dataclass(frozen=True)
class AuxGraph:
    """A labelled digraph on a subset of {0, 1, ..., n}.

    No label appears on two edges, so a forest's productivity is a
    square-free monomial with one factor per edge.
    """

    nodes: tuple[int, ...]
    edges: tuple[LabeledEdge, ...]
    allows_multi_edges: bool = False

    def __post_init__(self):
        node_set = set(self.nodes)
        seen: set[tuple[int, int]] = set()
        labels: set[Param] = set()
        for (src, dst, lab) in self.edges:
            if src not in node_set or dst not in node_set:
                raise ValueError(f"edge {src}->{dst} uses a node outside {sorted(node_set)}")
            if src == 0:
                raise ValueError("node 0 must not have outgoing edges")
            if (src, dst) in seen and not self.allows_multi_edges:
                raise ValueError(f"parallel edge {src}->{dst} in a simple graph")
            if lab in labels:
                raise ValueError(f"label {lab} on two edges")
            seen.add((src, dst))
            labels.add(lab)

    def out_edges(self, node: int) -> list[int]:
        """Indices of the edges leaving ``node``."""
        return [k for k, (src, _dst, _lab) in enumerate(self.edges) if src == node]

    def labels(self) -> list[Param]:
        return [lab for (_s, _d, lab) in self.edges]


def leak_augmented(m: Model) -> AuxGraph:
    """The model graph plus node 0 and one labelled leak edge per leak."""
    edges = [(f, t, (t, f)) for (f, t) in m.sorted_edges()]
    edges += [(j, 0, (0, j)) for j in sorted(m.leaks)]
    return AuxGraph(tuple(range(0, m.n + 1)), tuple(edges))


def strip_outgoing(m: Model, i: int) -> AuxGraph:
    """Leak-augmented graph with every edge out of compartment i removed."""
    return _without_out_edges(leak_augmented(m), i)


def _without_out_edges(g: AuxGraph, i: int) -> AuxGraph:
    kept = tuple(e for e in g.edges if e[0] != i)
    return AuxGraph(g.nodes, kept, g.allows_multi_edges)


def flip_into_leak(m: Model, i: int) -> AuxGraph:
    """Redirect all edges into i toward node 0, then delete node i.

    The result may contain parallel edges into node 0 (e.g. a leak edge
    ``j -> 0`` next to a redirected ``j -> i`` edge); they stay separate
    edges with their original, distinct labels.
    """
    stripped = strip_outgoing(m, i)
    edges = []
    for (src, dst, lab) in stripped.edges:
        if dst == i:
            edges.append((src, 0, lab))
        else:
            edges.append((src, dst, lab))
    nodes = tuple(v for v in stripped.nodes if v != i)
    return AuxGraph(nodes, tuple(edges), allows_multi_edges=True)


# ---------------------------------------------------------------------
# The packed compartmental matrix

# A packed lambda-list: one ``{code: coeff}`` dict per power of lambda,
# the empty list being zero.
LambdaList = list[dict[int, int]]


def compartmental_matrix(m: Model, codec: _Codec) -> list[list[LambdaList]]:
    """``lambda*I - A`` of the model, packed on ``codec``: entry (t, f),
    at ``rows[t-1][f-1]``, is ``-a_tf`` for an edge f -> t, and (f, f) is
    lambda plus ``a_kf`` over the edges f -> k, plus ``a_0f`` for a leak.
    Each parameter sits in one column, so a one-bit codec over the model's
    parameters holds every product of a Laplace expansion.
    """
    n = m.n
    rows: list[list[LambdaList]] = [[[] for _ in range(n)] for _ in range(n)]
    diag: list[dict[int, int]] = [{} for _ in range(n)]
    for (f, t) in m.edges:
        code = codec.var((t, f))
        rows[t - 1][f - 1] = [{code: -1}]
        diag[f - 1][code] = 1
    for j in m.leaks:
        diag[j - 1][codec.var((0, j))] = 1
    for j in range(n):
        rows[j][j] = [diag[j], {0: 1}]
    return rows
