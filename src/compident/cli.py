"""Command-line front end.

Subcommands: ``analyze`` (verdict + expected dimension), ``coeffs``
(equation coefficients by either route), ``transform`` (model rewrites),
``sweep-trees`` (exhaustive tree validation, ranking one model per
automorphism orbit of one tree per unlabeled class) and ``selftest``
(randomized cross-checks of every symbolic identity).  Every command runs
in one process.

Exit codes: 0 success, 1 usage error, 2 invalid or out-of-scope model,
3 internal error or failed self-check.  With the same seed and inputs the
JSON output is byte-identical between runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Mapping, Sequence

from . import families
from .determinant import IdentityCheckError, check_minor_identities, \
    det_lhs, det_rhs
from .forests import forest_buckets, forest_lhs, forest_rhs
from .graphs import flip_into_leak, strip_outgoing
from .identify import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    NoInputError,
    NotStronglyConnectedError,
    coefficient_map,
    coefficient_maps,
    decide_identifiability,
    expected_dimension,
    generic_ranks,
    tree_identifiable,
    verdict_to_dict,
)
from .model import Model, ModelValidationError, load_model, \
    model_to_dict, param_vector
from .poly import _Codec
from .transforms import ALL_KINDS, AttachmentRequiredError, RankRelationError, \
    Transform, TransformError, apply_transform, verify_rank_relation, \
    KIND_ADD_LEAF_MOVE_IN, KIND_ADD_LEAF_MOVE_OUT

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID_MODEL = 2
EXIT_INTERNAL = 3

_SWEEP_HARD_CAP = 7


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(obj, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------
# coeffs


def _deriv_name(base: str, k: int) -> str:
    if k == 0:
        return base
    if k <= 3:
        return base + "'" * k
    return f"{base}^({k})"


def _terms(texts: Sequence[str], base: str, top: int) -> list[str]:
    # The "(coefficient)*derivative" terms of orders top..0.
    out = []
    for k in range(top, -1, -1):
        t = texts[k]
        if t != "0":
            name = _deriv_name(base, k)
            out.append(name if t == "1" else f"({t})*{name}")
    return out


def render_equation(out: int, lhs: Sequence[str],
                    rhs: Mapping[int, Sequence[str]], n_compartments: int) -> str:
    """The equation for one output in readable form.

    Takes the coefficients as already rendered in canonical text:
    ``lhs`` holds the texts of c_0..c_n and ``rhs`` maps each input j to
    the texts of d_0..d_(n-1).  A ``"0"`` term is left out and a ``"1"``
    coefficient prints as the bare derivative.  The right-hand
    coefficients are the net ones: the detached sign times the raw minor
    determinant, i.e. exactly the stored nonnegative polynomials.
    """
    n = len(lhs) - 1
    left = _terms(lhs, "y" if n_compartments == 1 else f"y{out}", n)
    right = []
    for j in sorted(rhs):
        right += _terms(rhs[j], "u" if n_compartments == 1 else f"u{j}", n - 1)
    return " + ".join(left) + " = " + (" + ".join(right) if right else "0")


Packed = dict[int, int]
# An equation set on one codec: c_0..c_n, and per (output, input) the
# unsigned d_0..d_(n-1).
Sides = tuple[list[Packed], dict[tuple[int, int], list[Packed]]]


def _sides(m: Model, codec: _Codec, method: str) -> Sides:
    """The packed coefficients of every equation of m by one route
    (``"forest"`` or ``"det"``), the left side computed once."""
    lhs_of, rhs_of = ((forest_lhs, forest_rhs) if method == "forest"
                      else (det_lhs, det_rhs))
    return lhs_of(m, codec), {(out, inp): rhs_of(m, out, inp, codec)
                              for out in sorted(m.outputs)
                              for inp in sorted(m.inputs)}


def _disagreeing_outputs(m: Model, a: Sides, b: Sides) -> list[int]:
    """The outputs whose equations differ between two routes, compared
    term by term on their shared codec."""
    (lhs_a, rhs_a), (lhs_b, rhs_b) = a, b
    return [out for out in sorted(m.outputs)
            if lhs_a != lhs_b or any(rhs_a[out, inp] != rhs_b[out, inp]
                                     for inp in m.inputs)]


def cmd_coeffs(args) -> int:
    m = load_model(args.model)
    # Both routes recurse once per compartment (forest choices, Laplace
    # columns); half the recursion limit leaves the rest to the callers.
    bound = sys.getrecursionlimit() // 2
    if m.n > bound:
        print(f"model out of scope: coeffs takes at most {bound} "
              f"compartments (half the recursion limit), got {m.n}",
              file=sys.stderr)
        return EXIT_INVALID_MODEL
    if not m.inputs:
        raise NoInputError("model has no inputs")
    codec = _Codec(param_vector(m))
    sides = _sides(m, codec, "det" if args.method == "det" else "forest")
    if args.method == "both":
        bad = _disagreeing_outputs(m, sides, _sides(m, codec, "det"))
        if bad:
            print("internal error: forest and determinant coefficients "
                  f"disagree for output {bad[0]}", file=sys.stderr)
            return EXIT_INTERNAL
    n, text = m.n, codec.text
    lhs = [text(c) for c in sides[0]]
    rhs = {pair: [text(d) for d in ds] for pair, ds in sides[1].items()}
    outputs = []
    lines = [f"model: {n} compartments, {m.param_count()} parameters"]
    for out in sorted(m.outputs):
        ins = {j: rhs[out, j] for j in sorted(m.inputs)}
        equation = render_equation(out, lhs, ins, n)
        lines.append(f"output {out}")
        lines.append(f"  {equation}")
        for k in range(n, -1, -1):
            lines.append(f"  c{k} = {lhs[k]}")
        entry = {"output": out, "equation": equation, "lhs": lhs,
                 "inputs": []}
        for j, ds in ins.items():
            sign = -1 if (out + j) % 2 else 1
            lines.append(f"  input {j}: sign {'+1' if sign > 0 else '-1'}")
            for k in range(n - 1, -1, -1):
                lines.append(f"  d{k} = {ds[k]}")
            entry["inputs"].append({"input": j, "sign": sign, "d": ds})
        outputs.append(entry)
    _emit({"method": args.method, "compartments": n,
           "params": m.param_count(), "outputs": outputs},
          args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    m = load_model(args.model)
    verdict = decide_identifiability(m, trials=args.trials, seed=args.seed,
                                     force_rank=args.force_rank)
    report = verdict_to_dict(verdict, m)
    if m.inputs:
        dim = expected_dimension(m, trials=args.trials, seed=args.seed)
        report["expected_dimension"] = {
            "image_dim": dim.image_dim,
            "expected": dim.expected,
            "has_expected_dimension": dim.has_expected_dimension,
        }
    else:
        report["expected_dimension"] = None
    lines = [
        f"verdict: {report['verdict']}",
        f"method: {report['method']}",
        f"params: {report['params']}  coeffs: {report['coeffs']}",
    ]
    if verdict.rank_report is not None:
        lines.append(f"rank: {verdict.rank_report.rank} "
                     f"(over {len(verdict.rank_report.trials)} trial(s))")
    if verdict.criteria:
        lines.append(f"criteria: {json.dumps(verdict.criteria, sort_keys=True)}")
    if report["expected_dimension"] is not None:
        d = report["expected_dimension"]
        lines.append(f"image dimension: {d['image_dim']} of expected "
                     f"{d['expected']} -> "
                     f"{'expected dimension' if d['has_expected_dimension'] else 'dimension deficient'}")
    _emit(report, args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------
# transform


def cmd_transform(args) -> int:
    m = load_model(args.model)
    try:
        result = apply_transform(m, Transform(args.op, args.at))
    except AttachmentRequiredError:
        print("error: --at is required for this operation", file=sys.stderr)
        return EXIT_USAGE
    obj = {
        "model": model_to_dict(result.model),
        "guarantee": result.guarantee,
        "theorem": result.theorem,
        "details": result.details,
    }
    lines = [
        json.dumps(model_to_dict(result.model), separators=(", ", ": ")),
        f"guarantee: {result.guarantee or 'none'}",
        f"theorem: {result.theorem}",
    ]
    _emit(obj, args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------
# sweep-trees


def _leak_sets(n: int, max_size: int):
    for size in range(min(max_size, n) + 1):
        yield from itertools.combinations(range(1, n + 1), size)


def _symmetries(n: int, und) -> tuple[list[tuple[int, ...]], set]:
    """The automorphism group and the labeled members of the class of a
    labeled tree on 1..n, given as its sorted edge tuple, from one pass
    over all n! relabellings.

    Each relabelling g is a tuple with g[v] the image of compartment v
    (and g[0] = 0); it maps the tree onto a labeled tree of its class,
    kept as its sorted edge tuple, and it is an automorphism when that is
    the tree itself.  So there are n! / |group| members.
    """
    group, members = [], set()
    for p in itertools.permutations(range(1, n + 1)):
        g = (0, *p)
        image = tuple(sorted((min(g[a], g[b]), max(g[a], g[b]))
                             for (a, b) in und))
        members.add(image)
        if image == und:
            group.append(g)
    return group, members


def _tree_classes(max_n: int):
    """One ``(tree, group, members)`` per unlabeled tree on n <= max_n
    vertices, n ascending; the tree has n - 1 edges.

    Every tree on n > 1 vertices has a leaf, so attaching vertex n to
    each vertex of each tree on n - 1 vertices reaches every class.  A
    grown tree already among the members of a kept class is skipped, so
    :func:`_symmetries` scans each class once.
    """
    classes = []
    for n in range(1, max_n + 1):
        previous, classes = classes, []
        grown = [()] if n == 1 else (tuple(sorted((*und, (v, n))))
                                      for und, _group, _members in previous
                                      for v in range(1, n))
        for und in grown:
            if not any(und in members for _und, _group, members in classes):
                classes.append((und, *_symmetries(n, und)))
        yield from classes


def _sweep_tree(und, group, trials: int, seed: int):
    """One labeled tree of the sweep, end to end, one model per orbit.

    ``und`` holds the tree's edges on 1..len(und) + 1 and ``group`` a
    group of its automorphisms (:func:`_symmetries`, or the identity).  An
    automorphism keeps the edges, so it keeps the rank, the input-output
    distance and the number of leaks, and every model of one orbit gets
    the same verdicts.  A leak set is ranked only when it is the least in
    its orbit, and a placement only when it is the least in its orbit
    under that leak set's stabilizer; each ranked model stands for its
    orbit, |orbit(leak set)| x |orbit(placement)| models.  With the
    identity alone every model is ranked.

    :func:`coefficient_maps` lays out every map from one set of graph
    facts, and the placements of one leak set form a group that
    :func:`generic_ranks` ranks together, evaluating each trial's point
    and adjugate once for all of them.  The tree theorem reads each
    distance back from its map.  Returns ``(models, identifiable,
    disagreements)``, the disagreements by input, output and leak set.
    """
    n = len(und) + 1
    picked = []             # (leak set, [(inp, out, weight)]), in sweep order
    for leaks in _leak_sets(n, 2):
        images = [tuple(sorted(g[v] for v in leaks)) for g in group]
        if min(images) != leaks:
            continue
        stabilizer = [g for g, image in zip(group, images) if image == leaks]
        leak_orbit = len(set(images))
        places = []
        for inp, out in itertools.product(range(1, n + 1), repeat=2):
            orbit = {(g[inp], g[out]) for g in stabilizer}
            if min(orbit) == (inp, out):
                places.append((inp, out, leak_orbit * len(orbit)))
        picked.append((leaks, places))
    edges = frozenset(e for (a, b) in und for e in ((a, b), (b, a)))
    cms = coefficient_maps([
        Model(n, edges, frozenset([inp]), frozenset([out]), frozenset(leaks))
        for leaks, places in picked for (inp, out, _weight) in places])
    rest = iter(cms)
    ranked = {}     # (inp, out, leak set index) -> (leaks, weight, map, rank)
    for j, (leaks, places) in enumerate(picked):
        maps = list(itertools.islice(rest, len(places)))
        reports = generic_ranks(maps, trials=trials, seed=seed)
        for (inp, out, weight), cm, report in zip(places, maps, reports):
            ranked[inp, out, j] = (leaks, weight, cm, report.rank)
    count = identifiable = 0
    disagreements = []
    for (inp, out, _j), (leaks, weight, cm, rank) in sorted(ranked.items()):
        # the right side has the forest sizes max(dist, 1)..n-1
        # (forests.nonconstant_sizes), one per right-side coefficient
        right = sum(i is not None for (_o, i, _k) in cm.coeffs)
        by_rank = rank == cm.p
        if by_rank != tree_identifiable(0 if inp == out else n - right,
                                        len(leaks)):
            disagreements.append({
                "n": n, "edges": sorted(und), "in": inp, "out": out,
                "leak": list(leaks), "rank": rank, "params": cm.p,
            })
        count += weight
        identifiable += weight * by_rank
    return count, identifiable, disagreements


def run_tree_sweep(max_n: int, trials: int, seed: int) -> dict:
    """Exhaustive tree comparison: Jacobian rank versus the tree theorem.

    Covers every labeled tree on up to max_n vertices, every input and
    output placement and every leak set of size at most 2, and compares
    the rank verdict against the tree theorem (:func:`tree_identifiable`).
    Both are invariant under relabelling compartments, so
    :func:`_sweep_tree` runs on one tree per unlabeled class
    (:func:`_tree_classes`), one model per orbit of its automorphism
    group, its counts weighted by the number of labeled members.  The
    members of a class that disagrees anywhere are swept instead with the
    identity group, in one pass over the labeled trees, so their counts
    and disagreements come from every labeled model in labeled order.
    Returns a summary dict with any disagreements (expected none), listed
    by labeled tree, input, output and leak set.
    """
    per_n = {str(n): 0 for n in range(1, max_n + 1)}
    identifiable = 0
    expand = set()          # the labeled members of every disagreeing class
    for und, group, members in _tree_classes(max_n):
        n = len(und) + 1
        count, found, disagree = _sweep_tree(und, group, trials, seed)
        if disagree:
            expand |= members
            continue
        per_n[str(n)] += len(members) * count
        identifiable += len(members) * found
    disagreements = []
    for n in sorted({len(und) + 1 for und in expand}):
        identity = [tuple(range(n + 1))]
        for und in families.labeled_trees(n):
            if tuple(sorted(und)) in expand:
                count, found, disagree = _sweep_tree(und, identity, trials,
                                                     seed)
                per_n[str(n)] += count
                identifiable += found
                disagreements += disagree
    total = sum(per_n.values())
    return {"max_n": max_n, "trials": trials, "seed": seed, "models": total,
            "identifiable": identifiable,
            "unidentifiable": total - identifiable,
            "per_n": per_n, "disagreements": disagreements}


def cmd_sweep_trees(args) -> int:
    if args.max_n > _SWEEP_HARD_CAP:
        print(f"error: --max-n larger than {_SWEEP_HARD_CAP} is not supported",
              file=sys.stderr)
        return EXIT_USAGE
    summary = run_tree_sweep(args.max_n, args.trials, args.seed)
    lines = [f"trees swept up to n={summary['max_n']}: "
             f"{summary['models']} models "
             f"({summary['identifiable']} identifiable, "
             f"{summary['unidentifiable']} unidentifiable)"]
    for n, cnt in sorted(summary["per_n"].items()):
        lines.append(f"  n={n}: {cnt} models")
    lines.append(f"disagreements: {len(summary['disagreements'])}")
    for d in summary["disagreements"]:
        lines.append(f"  {json.dumps(d, sort_keys=True)}")
    _emit(summary, args.json, lines)
    return EXIT_OK if not summary["disagreements"] else EXIT_INTERNAL


# ---------------------------------------------------------------------
# selftest


_SELFTEST_RANDOM_MODELS = 20
_SELFTEST_RELATION_MODELS = 6


def _check_io_equivalence(m: Model, failures: list) -> Sides:
    """Compare the forest and determinant equations of every output.

    Returns the packed forest equations, for the checks that follow.
    """
    codec = _Codec(param_vector(m))
    forest = _sides(m, codec, "forest")
    for out in _disagreeing_outputs(m, forest, _sides(m, codec, "det")):
        failures.append(f"io mismatch: {model_to_dict(m)} output {out}")
    return forest


def _check_counts(m: Model, sides: Sides, failures: list):
    """Compare the forest route's non-constant coefficients, order by
    order, with the layout of the coefficient map."""
    (out,) = m.outputs
    (inp,) = m.inputs
    cs = sides[0]
    ds = sides[1][out, inp]
    # a packed coefficient is non-constant when it has a nonzero code
    orders = range(m.n - 1, -1, -1)
    got = tuple([(out, None, k) for k in orders if any(cs[k])]
                + [(out, inp, k) for k in orders if any(ds[k])])
    want = coefficient_map(m).coeffs
    if got != want:
        failures.append(f"count mismatch: {model_to_dict(m)}: "
                        f"{list(got)} != {list(want)}")
    if inp == out and ds[m.n - 1] != {0: 1}:
        failures.append(f"d_(n-1) != 1 with input = output {model_to_dict(m)}")


def _check_flip_equality(m: Model, failures: list):
    codec = _Codec(param_vector(m))
    for i in m.compartments():
        direct = forest_buckets(strip_outgoing(m, i), codec, pair=(i, i))
        flipped = forest_buckets(flip_into_leak(m, i), codec)
        if direct[:len(flipped)] != flipped:
            failures.append(f"flip sums differ at {i}: {model_to_dict(m)}")


def run_selftest(seed: int, trials: int) -> dict:
    """Randomized cross-checks of the package's symbolic identities."""
    import random

    failures: list[str] = []
    fixtures = {}
    ref = families.reference_models()
    expected = families.reference_verdicts()
    for name in sorted(ref):
        m = ref[name]
        verdict = decide_identifiability(m, trials=trials, seed=seed)
        rank_verdict = decide_identifiability(m, trials=trials, seed=seed,
                                              force_rank=True)
        fixtures[name] = {
            "verdict": verdict.status,
            "method": verdict.method,
            "rank": rank_verdict.rank_report.rank,
        }
        if verdict.status != expected[name]:
            failures.append(f"fixture {name}: verdict {verdict.status}")
        if rank_verdict.status != expected[name]:
            failures.append(f"fixture {name}: rank verdict {rank_verdict.status}")
        _check_io_equivalence(m, failures)

    rng = random.Random(seed)
    for _ in range(_SELFTEST_RANDOM_MODELS):
        n = rng.randrange(2, 6)
        m = families.random_strongly_connected_model(rng, n)
        sides = _check_io_equivalence(m, failures)
        _check_counts(m, sides, failures)
        _check_flip_equality(m, failures)

    relation_checks = 0
    for _ in range(_SELFTEST_RELATION_MODELS):
        n = rng.randrange(2, 5)
        m = families.random_strongly_connected_model(rng, n, leak_prob=0.0,
                                                     same_io=True)
        try:
            check_minor_identities(m)
            kind = KIND_ADD_LEAF_MOVE_OUT if rng.random() < 0.5 \
                else KIND_ADD_LEAF_MOVE_IN
            (at,) = m.inputs
            verify_rank_relation(m, Transform(kind, at), trials=trials,
                                 seed=seed)
            relation_checks += 1
        except (IdentityCheckError, RankRelationError) as exc:
            failures.append(f"identity failure: {exc} on {model_to_dict(m)}")

    return {
        "seed": seed,
        "trials": trials,
        "fixtures": fixtures,
        "random_models": _SELFTEST_RANDOM_MODELS,
        "relation_models": relation_checks,
        "failures": failures,
        "ok": not failures,
    }


def cmd_selftest(args) -> int:
    summary = run_selftest(args.seed, args.trials)
    lines = [f"fixtures: {len(summary['fixtures'])} checked"]
    for name, info in sorted(summary["fixtures"].items()):
        lines.append(f"  {name}: {info['verdict']} ({info['method']}, "
                     f"rank {info['rank']})")
    lines.append(f"random models: {summary['random_models']}")
    lines.append(f"leaf/rank relation models: {summary['relation_models']}")
    for f in summary["failures"]:
        lines.append(f"FAIL {f}")
    lines.append("selftest " + ("PASS" if summary["ok"] else "FAIL"))
    _emit(summary, args.json, lines)
    return EXIT_OK if summary["ok"] else EXIT_INTERNAL


# ---------------------------------------------------------------------
# argument plumbing


def build_parser() -> _Parser:
    parser = _Parser(prog="compident",
                     description="identifiability of linear compartmental "
                                 "models from graph structure")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_model=True, ranked=True):
        if with_model:
            p.add_argument("model", help="path to a model JSON file")
        p.add_argument("--json", action="store_true", help="JSON output")
        if not ranked:
            return
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS,
                       help="random evaluation trials for rank computations")

    p = sub.add_parser("analyze", help="identifiability and expected dimension")
    common(p)
    p.add_argument("--force-rank", action="store_true",
                   help="skip structural shortcuts, use Jacobian rank only")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("coeffs", help="input-output equation coefficients")
    common(p, ranked=False)
    p.add_argument("--method", choices=("forest", "det", "both"),
                   default="both",
                   help="coefficient route; 'both' cross-checks them")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("transform", help="rewrite a model, report guarantees")
    common(p, ranked=False)
    p.add_argument("--op", choices=ALL_KINDS, required=True)
    p.add_argument("--at", type=int, default=None,
                   help="compartment the operation applies to")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("sweep-trees",
                       help="exhaustively validate the tree classification")
    common(p, with_model=False)
    p.add_argument("--max-n", type=_positive_int, default=5, dest="max_n")
    p.set_defaults(func=cmd_sweep_trees)

    p = sub.add_parser("selftest", help="randomized identity cross-checks")
    common(p, with_model=False)
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser every :func:`main` call of the process parses with.

    Built on the first call rather than at import, so importing costs
    nothing more; parsing leaves the parser unchanged, so no option of one
    call carries over into the next.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ModelValidationError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except (NotStronglyConnectedError, NoInputError) as exc:
        print(f"model out of scope: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except OSError as exc:
        print(f"cannot read model: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except TransformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_MODEL
    except (IdentityCheckError, RankRelationError) as exc:
        print(f"internal identity failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # any other error, a ValueError too, is a bug
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
