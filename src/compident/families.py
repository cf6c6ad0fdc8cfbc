"""Model families, tree enumeration, and the built-in reference corpus.

Catenary models are bidirectional paths, mammillary models bidirectional
stars with hub compartment 1.  ``labeled_trees`` enumerates every labeled
undirected tree on n vertices by decoding all Pruefer sequences, which is
what the exhaustive tree sweeps iterate over.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Iterable, Iterator

from .model import Model, distances, is_strongly_connected


def _bidirect(und_edges: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    out = []
    for (a, b) in und_edges:
        out.append((a, b))
        out.append((b, a))
    return out


def bidirectional_tree_model(n: int, und_edges: Iterable[tuple[int, int]],
                             inputs: Iterable[int], outputs: Iterable[int],
                             leaks: Iterable[int] = ()) -> Model:
    return Model.create(n, _bidirect(und_edges), inputs, outputs, leaks)


def catenary(n: int, inputs: Iterable[int] = (1,), outputs: Iterable[int] = (1,),
             leaks: Iterable[int] = ()) -> Model:
    """Bidirectional path 1 -- 2 -- ... -- n."""
    return bidirectional_tree_model(n, [(i, i + 1) for i in range(1, n)],
                                    inputs, outputs, leaks)


def mammillary(n: int, inputs: Iterable[int] = (1,), outputs: Iterable[int] = (1,),
               leaks: Iterable[int] = ()) -> Model:
    """Bidirectional star with hub 1 and satellites 2..n."""
    return bidirectional_tree_model(n, [(1, j) for j in range(2, n + 1)],
                                    inputs, outputs, leaks)


def bidirectional_cycle(n: int, inputs: Iterable[int] = (1,),
                        outputs: Iterable[int] = (1,),
                        leaks: Iterable[int] = ()) -> Model:
    """Bidirectional cycle 1 -- 2 -- ... -- n -- 1 (n >= 3)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 compartments")
    und = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return Model.create(n, _bidirect(und), inputs, outputs, leaks)


def labeled_trees(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All labeled undirected trees on vertices 1..n (n^(n-2) of them).

    Yields each tree as a tuple of undirected edges, decoded from its
    Pruefer sequence in lexicographic sequence order.
    """
    if n == 1:
        yield ()
        return

    def decode(seq: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
        degree = [1] * (n + 1)
        for v in seq:
            degree[v] += 1
        edges = []
        leaves = [v for v in range(1, n + 1) if degree[v] == 1]
        heapq.heapify(leaves)
        for v in seq:
            u = heapq.heappop(leaves)
            edges.append((min(u, v), max(u, v)))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        u = heapq.heappop(leaves)
        w = heapq.heappop(leaves)
        edges.append((min(u, w), max(u, w)))
        return tuple(edges)

    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield decode(seq)


def is_bidirectional_tree(m: Model) -> bool:
    """True iff every edge is paired with its reverse and the underlying
    undirected graph is a tree: its n - 1 edges connect all n vertices.

    With every edge paired, each path reverses, so one search from
    compartment 1 that reaches every compartment shows the connection.
    """
    return (len(m.edges) == 2 * (m.n - 1)
            and all((t, f) in m.edges for (f, t) in m.edges)
            and len(distances(m, 1)) == m.n)


def random_strongly_connected_edges(rng: random.Random, n: int,
                                    extra: float = 0.35) -> frozenset[tuple[int, int]]:
    """A random strongly connected edge set on 1..n.

    Takes a random directed Hamiltonian cycle (which already makes the
    graph strongly connected) and adds each remaining ordered pair
    independently with probability ``extra``.
    """
    if n == 1:
        return frozenset()
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    for f in range(1, n + 1):
        for t in range(1, n + 1):
            if f != t and (f, t) not in edges and rng.random() < extra:
                edges.add((f, t))
    return frozenset(edges)


def random_strongly_connected_model(rng: random.Random, n: int, *,
                                    leak_prob: float = 0.3,
                                    extra: float = 0.35,
                                    same_io: bool | None = None) -> Model:
    """A random strongly connected model with one input and one output."""
    edges = random_strongly_connected_edges(rng, n, extra)
    leaks = [i for i in range(1, n + 1) if rng.random() < leak_prob]
    inp = rng.randrange(1, n + 1)
    if same_io is None:
        same_io = rng.random() < 0.5
    out = inp if same_io else rng.randrange(1, n + 1)
    m = Model.create(n, edges, [inp], [out], leaks)
    assert is_strongly_connected(m)
    return m


def reference_models() -> dict[str, Model]:
    """Named small models used as fixed self-test corpus and CLI fixtures.

    Kept in code (not files) so the installed package can self-test
    without a data directory; the repository's ``fixtures/`` JSON files
    mirror these definitions byte for byte.
    """
    return {name: m for name, (m, _verdict) in _reference_corpus().items()}


def reference_verdicts() -> dict[str, str]:
    """The expected verdict of each reference model, by name; the
    repository's ``fixtures/manifest.json`` repeats them."""
    return {name: verdict
            for name, (_m, verdict) in _reference_corpus().items()}


def _reference_corpus() -> dict[str, tuple[Model, str]]:
    """Each reference model with its expected verdict."""
    k3 = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
    cycle = [(1, 2), (2, 3), (3, 1)]
    chord = [(1, 2), (2, 1), (2, 3), (3, 1)]
    chord_leaf = chord + [(1, 4), (4, 1)]
    yes, no = "identifiable", "unidentifiable"
    return {
        # complete bidirectional triangle, one leak: more parameters than
        # coefficients, the canonical unidentifiable example
        "k3_leak": (Model.create(3, k3, [1], [1], [2]), no),
        # 4 edges on 3 compartments, input=output: the counting bound is
        # tight yet the model is still unidentifiable (rank drops)
        "four_edge_sc": (Model.create(3, [(1, 2), (2, 3), (3, 2), (3, 1)],
                                      [1], [1]), no),
        # one-way 3-cycle, output two steps downstream: identifiable
        "cycle3_out3": (Model.create(3, cycle, [1], [3]), yes),
        # one-way 3-cycle with two leaks: identifiable
        "cycle3_two_leaks": (Model.create(3, cycle, [1], [2], [1, 2]), yes),
        # 3-cycle with a chord, input=output=1: identifiable
        "chorded_cycle3": (Model.create(3, chord, [1], [1]), yes),
        # same graph with a leaf edge 1<->4 added, output kept at 1
        "chorded_cycle3_leaf": (Model.create(4, chord_leaf, [1], [1]), yes),
        # leaf edge added and output moved to the new compartment
        "chorded_cycle3_leaf_out4": (Model.create(4, chord_leaf, [1], [4]),
                                     yes),
        # 3-compartment catenary with input, output and leak at 1
        "cat3_leak1": (catenary(3, [1], [1], [1]), yes),
        # catenary extended by a leaf at 1, input moved to the new leaf
        "cat4_in4_leak1": (Model.create(
            4, _bidirect([(1, 2), (2, 3), (1, 4)]), [4], [1], [1]), yes),
        # 2-compartment exchange with input and output split
        "cat2_in1_out2": (catenary(2, [1], [2]), yes),
    }
