"""Linear compartmental models and their graph predicates.

A model is a directed graph on compartments 1..n (no self-edges, no
duplicate edges) together with input, output and leak compartment sets.
An edge from j to i carries the rate parameter ``a_ij`` -- note the
subscript order: the *target* compartment comes first.  This mirrors the
convention used throughout the package and in the JSON wire format, where
an edge object ``{"from": j, "to": i}`` denotes the parameter ``a_ij``.

Compartment ids are 1-based everywhere; id 0 is reserved for the virtual
leak node used by the auxiliary graphs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

from .poly import Param


class ModelValidationError(ValueError):
    """Raised for malformed model descriptions; message includes the field path."""


@dataclass(frozen=True)
class Model:
    """A linear compartmental model (graph, inputs, outputs, leaks).

    Instances are immutable and validated on construction; all operations
    on them are pure functions, so they are safe to share freely.
    """

    n: int
    edges: frozenset[tuple[int, int]]   # (from, to) pairs, labelled a_{to,from}
    inputs: frozenset[int]
    outputs: frozenset[int]
    leaks: frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise ModelValidationError("compartments: must be a positive integer")
        for (f, t) in self.edges:
            if f == t:
                raise ModelValidationError(f"edges: self-edge {f}->{t} not allowed")
            if not (1 <= f <= self.n and 1 <= t <= self.n):
                raise ModelValidationError(
                    f"edges: endpoint out of range 1..{self.n} in {f}->{t}")
        for field, vals in (("in", self.inputs), ("out", self.outputs),
                            ("leak", self.leaks)):
            for v in vals:
                if not (1 <= v <= self.n):
                    raise ModelValidationError(
                        f"{field}: compartment {v} out of range 1..{self.n}")
        if not self.outputs:
            raise ModelValidationError("out: must be nonempty")

    @staticmethod
    def create(n: int, edges: Iterable[tuple[int, int]],
               inputs: Iterable[int] = (), outputs: Iterable[int] = (),
               leaks: Iterable[int] = ()) -> "Model":
        return Model(n, frozenset(edges), frozenset(inputs),
                     frozenset(outputs), frozenset(leaks))

    # -- convenience views (deterministically ordered) ------------------
    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def compartments(self) -> range:
        return range(1, self.n + 1)

    def param_count(self) -> int:
        return len(self.edges) + len(self.leaks)


def relabel(m: Model, swap: dict[int, int]) -> Model:
    """Relabel compartments by a bijection (identity where unspecified).

    Compartment labels are arbitrary, so every structural property is
    preserved; this is used to reduce statements fixed at compartment 1
    to arbitrary attachment points.
    """
    full = {i: swap.get(i, i) for i in m.compartments()}
    if sorted(full.values()) != list(m.compartments()):
        raise ValueError("relabeling must be a bijection on 1..n")
    return Model.create(
        m.n,
        [(full[f], full[t]) for (f, t) in m.edges],
        [full[i] for i in m.inputs],
        [full[i] for i in m.outputs],
        [full[i] for i in m.leaks],
    )


def param_vector(m: Model) -> tuple[Param, ...]:
    """Canonical parameter order: edge params by (to, from), then leaks.

    This fixed order is what makes Jacobian column order and every report
    reproducible; its length is ``|edges| + |leaks|``.
    """
    edge_params = sorted((t, f) for (f, t) in m.edges)
    leak_params = [(0, i) for i in sorted(m.leaks)]
    return tuple(edge_params) + tuple(leak_params)


# ---------------------------------------------------------------------
# JSON wire format


_SCHEMA_KEYS = ("compartments", "edges", "in", "out", "leak")


def _require_int(value, path: str) -> int:
    if type(value) is not int:
        raise ModelValidationError(f"{path}: expected an integer")
    return value


def _require_id_list(value, path: str) -> list[int]:
    if not isinstance(value, list):
        raise ModelValidationError(f"{path}: expected a list of compartment ids")
    out = []
    for idx, v in enumerate(value):
        out.append(_require_int(v, f"{path}[{idx}]"))
    if len(set(out)) != len(out):
        raise ModelValidationError(f"{path}: duplicate compartment id")
    return out


def parse_model(text: str) -> Model:
    """Parse the canonical JSON model format.

    Schema (exact keys, unknown keys rejected)::

        {"compartments": n,
         "edges": [{"from": j, "to": i}, ...],   # parameter a_ij
         "in": [..], "out": [..], "leak": [..]}

    Raises :class:`ModelValidationError` with a field path on any schema
    violation, self-edge, duplicate edge, out-of-range compartment or
    empty output set.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:       # a JSONDecodeError, or an int too long
        raise ModelValidationError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:   # nested deeper than the decoder recurses
        raise ModelValidationError(f"nested too deeply: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelValidationError("top level: expected a JSON object")
    for key in doc:
        if key not in _SCHEMA_KEYS:
            raise ModelValidationError(f"unknown key {key!r}")
    for key in _SCHEMA_KEYS:
        if key not in doc:
            raise ModelValidationError(f"missing key {key!r}")

    n = _require_int(doc["compartments"], "compartments")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ModelValidationError("edges: expected a list")
    edges: set[tuple[int, int]] = set()
    for idx, e in enumerate(raw_edges):
        path = f"edges[{idx}]"
        if not isinstance(e, dict) or set(e) != {"from", "to"}:
            raise ModelValidationError(f"{path}: expected {{'from': j, 'to': i}}")
        f = _require_int(e["from"], f"{path}.from")
        t = _require_int(e["to"], f"{path}.to")
        if not (1 <= f <= n):
            raise ModelValidationError(f"{path}.from: out of range 1..{n}")
        if not (1 <= t <= n):
            raise ModelValidationError(f"{path}.to: out of range 1..{n}")
        if f == t:
            raise ModelValidationError(f"{path}: self-edge {f}->{t}")
        if (f, t) in edges:
            raise ModelValidationError(f"{path}: duplicate edge {f}->{t}")
        edges.add((f, t))
    return Model.create(n, edges, _require_id_list(doc["in"], "in"),
                        _require_id_list(doc["out"], "out"),
                        _require_id_list(doc["leak"], "leak"))


def model_to_dict(m: Model) -> dict:
    return {
        "compartments": m.n,
        "edges": [{"from": f, "to": t} for (f, t) in m.sorted_edges()],
        "in": sorted(m.inputs),
        "out": sorted(m.outputs),
        "leak": sorted(m.leaks),
    }


def serialize_model(m: Model) -> str:
    """Canonical JSON text; ``parse_model(serialize_model(m)) == m``."""
    return json.dumps(model_to_dict(m), separators=(", ", ": "))


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelValidationError(f"not UTF-8 text: {exc}") from exc
    return parse_model(text)


# ---------------------------------------------------------------------
# Graph predicates


def _bfs(edges: Iterable[tuple[int, int]], start: int) -> dict[int, int]:
    """Shortest-path edge count from ``start`` to every node it reaches."""
    succ: dict[int, list[int]] = {}
    for (f, t) in edges:
        succ.setdefault(f, []).append(t)
    dist = {start: 0}
    queue = [start]
    for v in queue:
        for w in succ.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def is_strongly_connected(m: Model) -> bool:
    """True iff every ordered pair of compartments is joined by a path."""
    reverse = [(t, f) for (f, t) in m.edges]
    return len(_bfs(m.edges, 1)) == m.n == len(_bfs(reverse, 1))


def distances(m: Model, a: int) -> dict[int, int]:
    """Edge count of the shortest directed path from a to every
    compartment it reaches (0 for a itself)."""
    return _bfs(m.edges, a)


def distance(m: Model, a: int, b: int) -> int | float:
    """Edge count of the shortest directed path a -> b.

    Returns 0 when a == b and ``math.inf`` when b is unreachable from a
    (callers decide how to treat the unreachable case).
    """
    return distances(m, a).get(b, math.inf)


def inductively_strong_order(m: Model, root: int) -> tuple[int, ...] | None:
    """Witness ordering for inductive strong connectivity, or None.

    Searches for an ordering v1=root, v2, ..., vn such that every prefix
    induces a strongly connected subgraph.  When a prefix is strongly
    connected, adding v keeps it so exactly when v has an edge into the
    prefix and an edge from it.  A vertex that can be added stays
    addable as the prefix grows, so taking the smallest addable vertex
    at each step never loses a witness: the result is the
    lexicographically first witness, found in O(n^2 * e).
    """
    if not (1 <= root <= m.n):
        raise ValueError(f"root {root} out of range 1..{m.n}")
    order = [root]
    used = {root}
    while len(order) < m.n:
        v = min((v for v in m.compartments() if v not in used
                 and any(f == v and t in used for (f, t) in m.edges)
                 and any(t == v and f in used for (f, t) in m.edges)),
                default=None)
        if v is None:
            return None
        order.append(v)
        used.add(v)
    return tuple(order)
