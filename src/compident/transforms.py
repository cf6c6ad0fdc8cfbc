"""Model rewrites and the guarantees they carry.

Each operation returns the rewritten model plus a guarantee tag that is
only attached when the hypotheses of the corresponding preservation
result were verified on the input model; otherwise the rewrite still runs
and the guarantee is None.  The guarantees are:

* ``add_leaf_edge`` -- attaching a new compartment to an existing one by a
  bidirected edge preserves identifiability and expected dimension for
  strongly connected single-input single-output leakless models (the
  attachment point may be any compartment: labels are arbitrary).
* ``add_leaf_move_output`` / ``add_leaf_move_input`` -- when input and
  output share one compartment and the leaf is attached there, moving the
  output (or input) onto the new compartment preserves identifiability
  and expected dimension in both directions (an exact equivalence); the
  Jacobian ranks of the two coefficient maps differ by exactly 2.
* ``add_leak`` -- adding a single leak to a strongly connected leakless
  model with at least one input preserves identifiability.
* ``remove_leak`` -- removing the leak from a model whose input, output
  and only leak share one compartment preserves identifiability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import determinant
from .identify import DEFAULT_SEED, DEFAULT_TRIALS, coefficient_map, generic_rank
from .model import Model, is_strongly_connected, relabel

GUARANTEE_IDENT = "preserves_identifiability"
GUARANTEE_BOTH = "both"
GUARANTEE_IFF = "iff"

KIND_ADD_LEAF = "add-leaf"
KIND_ADD_LEAF_MOVE_OUT = "add-leaf-move-out"
KIND_ADD_LEAF_MOVE_IN = "add-leaf-move-in"
KIND_ADD_LEAK = "add-leak"
KIND_REMOVE_LEAK = "remove-leak"

ALL_KINDS = (KIND_ADD_LEAF, KIND_ADD_LEAF_MOVE_OUT, KIND_ADD_LEAF_MOVE_IN,
             KIND_ADD_LEAK, KIND_REMOVE_LEAK)


class TransformError(ValueError):
    """A transform request that does not fit the model it is applied to."""


class AttachmentRequiredError(TransformError):
    """The transform needs a compartment and none follows from the model."""


@dataclass(frozen=True)
class Transform:
    """A rewrite and the compartment it applies to; ``at`` None means the
    default of :func:`_attachment`."""

    kind: str
    at: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise TransformError(f"unknown transform kind {self.kind!r}")


@dataclass(frozen=True)
class TransformResult:
    model: Model
    guarantee: Optional[str]
    theorem: str
    details: dict


def _attachment(m: Model, kind: str, at: Optional[int]) -> int:
    """The compartment a transform applies to: ``at`` when given, else,
    for a leaf move on a model whose one input is its one output, that
    compartment.  Raises :class:`AttachmentRequiredError` otherwise."""
    if at is None and kind in (KIND_ADD_LEAF_MOVE_OUT, KIND_ADD_LEAF_MOVE_IN) \
            and len(m.inputs) == 1 and m.inputs == m.outputs:
        (at,) = m.inputs
    if at is None:
        raise AttachmentRequiredError(f"{kind} needs an attachment compartment")
    return at


def _leaf_extended(m: Model, at: int) -> Model:
    if not (1 <= at <= m.n):
        raise TransformError(f"compartment {at} out of range 1..{m.n}")
    new = m.n + 1
    return Model.create(m.n + 1, set(m.edges) | {(at, new), (new, at)},
                        m.inputs, m.outputs, m.leaks)


def add_leaf_edge(m: Model, at: int) -> TransformResult:
    """Attach a new compartment to ``at`` by a bidirected edge."""
    out = _leaf_extended(m, at)
    hypo = (out.n >= 3 and is_strongly_connected(m)
            and len(m.inputs) == 1 and len(m.outputs) == 1 and not m.leaks)
    return TransformResult(
        model=out,
        guarantee=GUARANTEE_BOTH if hypo else None,
        theorem="add_leaf_edge",
        details={"at": at, "new_compartment": out.n},
    )


def _add_leaf_move(m: Model, at: Optional[int], move: str) -> TransformResult:
    kind = KIND_ADD_LEAF_MOVE_OUT if move == "output" else KIND_ADD_LEAF_MOVE_IN
    at = _attachment(m, kind, at)
    extended = _leaf_extended(m, at)
    new = extended.n
    if move == "output":
        out = Model.create(extended.n, extended.edges, extended.inputs,
                           {new}, extended.leaks)
    else:
        out = Model.create(extended.n, extended.edges, {new},
                           extended.outputs, extended.leaks)
    hypo = (extended.n >= 3 and is_strongly_connected(m)
            and m.inputs == m.outputs == {at} and not m.leaks)
    return TransformResult(
        model=out,
        guarantee=GUARANTEE_IFF if hypo else None,
        theorem=f"add_leaf_move_{move}",
        details={"at": at, "new_compartment": new, "moved": move},
    )


def add_leaf_move_output(m: Model, at: Optional[int] = None) -> TransformResult:
    """Leaf edge at the input/output compartment, output moved to the leaf."""
    return _add_leaf_move(m, at, "output")


def add_leaf_move_input(m: Model, at: Optional[int] = None) -> TransformResult:
    """Leaf edge at the input/output compartment, input moved to the leaf."""
    return _add_leaf_move(m, at, "input")


def add_leak(m: Model, at: int) -> TransformResult:
    if not (1 <= at <= m.n):
        raise TransformError(f"compartment {at} out of range 1..{m.n}")
    if at in m.leaks:
        raise TransformError(f"compartment {at} already leaks")
    out = Model.create(m.n, m.edges, m.inputs, m.outputs, set(m.leaks) | {at})
    hypo = is_strongly_connected(m) and bool(m.inputs) and not m.leaks
    return TransformResult(
        model=out,
        guarantee=GUARANTEE_IDENT if hypo else None,
        theorem="add_leak",
        details={"at": at},
    )


def remove_leak(m: Model, at: int) -> TransformResult:
    if at not in m.leaks:
        raise TransformError(f"compartment {at} has no leak to remove")
    out = Model.create(m.n, m.edges, m.inputs, m.outputs, set(m.leaks) - {at})
    hypo = (is_strongly_connected(m)
            and m.inputs == m.outputs == m.leaks == frozenset({at}))
    return TransformResult(
        model=out,
        guarantee=GUARANTEE_IDENT if hypo else None,
        theorem="remove_leak",
        details={"at": at},
    )


def apply_transform(m: Model, t: Transform) -> TransformResult:
    at = _attachment(m, t.kind, t.at)
    if t.kind == KIND_ADD_LEAF:
        return add_leaf_edge(m, at)
    if t.kind == KIND_ADD_LEAF_MOVE_OUT:
        return add_leaf_move_output(m, at)
    if t.kind == KIND_ADD_LEAF_MOVE_IN:
        return add_leaf_move_input(m, at)
    if t.kind == KIND_ADD_LEAK:
        return add_leak(m, at)
    return remove_leak(m, at)


class RankRelationError(AssertionError):
    """A rank or coefficient relation failed -- implementation bug."""


def verify_rank_relation(m: Model, t: Transform, *,
                         trials: int = DEFAULT_TRIALS,
                         seed: int = DEFAULT_SEED) -> dict:
    """Check the rank jump and coefficient relations of a leaf move.

    Preconditions: m is strongly connected and leakless with input and
    output together in compartment ``t.at``, and t is a move-input or
    move-output leaf transform.  Verifies, with A the matrix of m and B
    the matrix of the moved model on n compartments:

    * generic rank after = generic rank before + 2;
    * the leaf-edge identities of
      :func:`~compident.determinant.check_leaf_edge_identities`: the new
      minor determinants factor as
      ``det((lI-B)^{1,n}) = (-1)^(n-1) a_n1 det((lI-A)^{1,1})`` (and
      ``(n,1)`` with ``a_1n``), and the new characteristic coefficients
      satisfy ``c*_i = c_{i-1} + a_1n c_i + a_n1 d_{i-1}``;
    * c*_0 = 0.

    Raises :class:`RankRelationError` when a rank or c*_0 check fails and
    :class:`~compident.determinant.IdentityCheckError` when an identity
    fails; returns a report dict with both ranks and the names of the
    verified relations.

    The determinant identities are stated for attachment at compartment 1;
    for other attachment points the model is relabeled first (labels are
    arbitrary, and ranks are invariant under relabeling).
    """
    if t.kind not in (KIND_ADD_LEAF_MOVE_OUT, KIND_ADD_LEAF_MOVE_IN):
        raise TransformError("rank relation applies to leaf-move transforms only")
    if m.leaks or not is_strongly_connected(m) \
            or not (m.inputs == m.outputs == frozenset({t.at})):
        raise TransformError("rank relation requires a strongly connected leakless "
                         "model with input = output = {at}")

    if t.at != 1:
        m = relabel(m, {1: t.at, t.at: 1})
        t = Transform(t.kind, 1)

    moved = apply_transform(m, t).model
    rank_before = generic_rank(coefficient_map(m), trials=trials, seed=seed).rank
    rank_after = generic_rank(coefficient_map(moved), trials=trials, seed=seed).rank
    if rank_after != rank_before + 2:
        raise RankRelationError(
            f"rank after move = {rank_after}, expected {rank_before} + 2")
    if determinant.check_leaf_edge_identities(m)[0]:
        raise RankRelationError("c*_0 must vanish for leakless models")

    return {
        "kind": t.kind,
        "rank_before": rank_before,
        "rank_after": rank_after,
        "relations": ["rank_plus_two", "minor_factorization",
                      "char_recurrence", "c0_zero"],
    }
