"""Auxiliary graphs and symbolic compartmental matrices.

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

The symbolic compartmental matrix A has ``a_ij`` at entry (i, j) for each
edge j -> i, and diagonal entries that balance each column: column i sums
to ``-a_0i`` when i leaks and to zero otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .model import Model
from .poly import Param, Poly

# A labelled directed edge (source, target, label).  Edge identity within
# an AuxGraph is positional, which keeps parallel edges distinct.
LabeledEdge = Tuple[int, int, Param]


@dataclass(frozen=True)
class AuxGraph:
    """A labelled digraph on a subset of {0, 1, ..., n}."""

    nodes: tuple[int, ...]
    edges: tuple[LabeledEdge, ...]
    allows_multi_edges: bool = False

    def __post_init__(self):
        node_set = set(self.nodes)
        seen: set[tuple[int, int]] = set()
        for (src, dst, _lab) in self.edges:
            if src not in node_set or dst not in node_set:
                raise ValueError(f"edge {src}->{dst} uses a node outside {sorted(node_set)}")
            if src == 0:
                raise ValueError("node 0 must not have outgoing edges")
            if (src, dst) in seen and not self.allows_multi_edges:
                raise ValueError(f"parallel edge {src}->{dst} in a simple graph")
            seen.add((src, dst))

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
# Symbolic matrices


@dataclass(frozen=True)
class SymMatrix:
    """A square matrix of polynomials, indexed 1..n like the compartments."""

    entries: tuple[tuple[Poly, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Poly:
        return self.entries[i - 1][j - 1]


def compartmental_matrix(m: Model) -> SymMatrix:
    """The n x n compartmental matrix A of the model.

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
    base = compartmental_matrix(m)
    grid = [list(row) for row in base.entries]
    for r in range(m.n):
        grid[r][i - 1] = Poly.zero()
    return SymMatrix(tuple(tuple(row) for row in grid))
