"""Seeded workloads: model corpora, CLI call sequences and output checks.

Every workload is a list of CLI calls (``compident.cli.main(argv)``) that
the runner replays in a closed loop with one client.  The models are
generated here, from the workload seed, and written as JSON files; the
program only ever sees those files.

Generated models come from fixed pools.  A pool model is a pure function
of its id, so the output recorded for it in ``reference.json`` holds for
every workload seed.  The seed picks which pool models a run uses and in
what order: per stratum every seed keeps the pool's heaviest model and
takes one model from the middle of each of k - 1 bins of the rest, sorted
by the recorded work estimate, choosing among up to three neighbours of
nearly equal work.  The pools are six to ten times larger than the picks,
so runs at different seeds see different models with the same cost
quantiles, which keeps their figures comparable.

Only the standard library is used; compident is imported by the runner.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
# Scratch space for model files, inside the checkout and git-ignored.
WORK_BASE = os.path.join(os.path.dirname(HERE), ".perfbench_work")

WORKLOADS = ("analyze-sparse", "sweep-trees", "coeffs-dense")

# analyze-sparse: one-way cycles on n compartments plus random chords.
SPARSE_NS = range(7, 12)
SPARSE_CHORDS = range(0, 4)
SPARSE_POOL = 60          # pool models per (n, chords) stratum
SPARSE_PICK = 6           # models per stratum and workload seed

# coeffs-dense: random strongly connected models, extra-edge prob 0.35.
DENSE_NS = range(4, 8)
DENSE_EXTRA = 0.35
DENSE_LEAK = 0.3
# Models per n and workload seed.  Twice as many n = 6 models as any other
# size put the median call inside their latencies rather than in the gap
# below them, where it would jump from seed to seed.
DENSE_PICK = {4: 20, 5: 20, 6: 40, 7: 20}
DENSE_POOL = {n: 6 * k for n, k in DENSE_PICK.items()}   # pool models per n
DENSE_SELFTESTS = 12      # selftest calls per pass

# A stratum's pick (see _pick): at most PICK_WINDOW candidates per bin,
# each within WORK_TOLERANCE of the bin's middle in recorded work.
PICK_WINDOW = 3
WORK_TOLERANCE = 0.05

SWEEP_MAX_N = 4
# Distinct sweep seeds per pass.  A call takes about 3 s, so a run repeats
# each one three or four times, and the median repetition is reported.
SWEEP_CALLS = 3


def _model_json(n: int, edges, inputs, outputs, leaks) -> str:
    return json.dumps({
        "compartments": n,
        "edges": [{"from": f, "to": t} for (f, t) in sorted(edges)],
        "in": sorted(inputs), "out": sorted(outputs), "leak": sorted(leaks),
    }, separators=(", ", ": "))


def sparse_model(model_id: str) -> str:
    """Pool model ``s-<n>-<chords>-<i>``: a one-way n-cycle with random
    chords, one random input and output, and 0 to 2 random leaks."""
    _tag, n, chords, _i = model_id.split("-")
    n, chords = int(n), int(chords)
    rng = random.Random("analyze-sparse/" + model_id)
    edges = {(i, i % n + 1) for i in range(1, n + 1)}
    while len(edges) < n + chords:
        f, t = rng.sample(range(1, n + 1), 2)
        edges.add((f, t))
    leaks = rng.sample(range(1, n + 1), rng.randrange(0, 3))
    inp = rng.randrange(1, n + 1)
    out = rng.randrange(1, n + 1)
    return _model_json(n, edges, [inp], [out], leaks)


def dense_model(model_id: str) -> str:
    """Pool model ``d-<n>-<i>``: a random Hamiltonian cycle plus every other
    ordered pair with probability 0.35, leaks with probability 0.3, and
    input and output together with probability 1/2."""
    _tag, n, _i = model_id.split("-")
    n = int(n)
    rng = random.Random("coeffs-dense/" + model_id)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
    for f in range(1, n + 1):
        for t in range(1, n + 1):
            if f != t and (f, t) not in edges and rng.random() < DENSE_EXTRA:
                edges.add((f, t))
    leaks = [i for i in range(1, n + 1) if rng.random() < DENSE_LEAK]
    inp = rng.randrange(1, n + 1)
    out = inp if rng.random() < 0.5 else rng.randrange(1, n + 1)
    return _model_json(n, edges, [inp], [out], leaks)


def sparse_pool() -> dict[tuple[int, int], list[str]]:
    return {(n, c): [f"s-{n}-{c}-{i}" for i in range(SPARSE_POOL)]
            for n in SPARSE_NS for c in SPARSE_CHORDS}


def dense_pool() -> dict[int, list[str]]:
    return {n: [f"d-{n}-{i}" for i in range(DENSE_POOL[n])] for n in DENSE_NS}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------
# calls and checks


@dataclass(frozen=True)
class Call:
    """One CLI request.  ``check(rc, stdout)`` returns ``(error, models)``:
    error is None when the output is right, and models is the number of
    models the request finished."""

    kind: str
    argv: tuple[str, ...]
    check: Callable[[int, str], tuple[Optional[str], int]]


def _parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"unparsable JSON output: {exc}"


def _check_digest(expected: Optional[str], extra=None):
    def check(rc: int, stdout: str):
        if rc != 0:
            return f"exit code {rc}", 0
        if expected is None:
            return "no reference output recorded", 0
        if sha256(stdout) != expected:
            return "output differs from the recorded reference", 0
        if extra is not None:
            err = extra(stdout)
            if err:
                return err, 0
        return None, 1
    return check


def _check_fixture_verdict(expected_verdict: str):
    def extra(stdout: str):
        report, err = _parse(stdout)
        if err:
            return err
        if report.get("verdict") != expected_verdict:
            return (f"verdict {report.get('verdict')!r}, manifest says "
                    f"{expected_verdict!r}")
        return None
    return extra


def _check_sweep(seed: int, expected: dict):
    def check(rc: int, stdout: str):
        if rc != 0:
            return f"exit code {rc}", 0
        summary, err = _parse(stdout)
        if err:
            return err, 0
        if summary.get("disagreements") != []:
            return f"{len(summary.get('disagreements') or ())} disagreements", 0
        got = {k: summary.get(k) for k in expected}
        if got != expected or summary.get("seed") != seed:
            return f"sweep summary {got} differs from {expected}", 0
        return None, summary["models"]
    return check


def _check_selftest(seed: int, manifest: dict):
    def check(rc: int, stdout: str):
        if rc != 0:
            return f"exit code {rc}", 0
        summary, err = _parse(stdout)
        if err:
            return err, 0
        if summary.get("ok") is not True or summary.get("failures"):
            return f"selftest failures: {summary.get('failures')}", 0
        if summary.get("seed") != seed:
            return "selftest echoed another seed", 0
        fixtures = summary.get("fixtures", {})
        for name, info in manifest.items():
            if fixtures.get(name, {}).get("verdict") != info["expected_verdict"]:
                return f"selftest verdict for {name} differs from manifest", 0
        models = (len(fixtures) + summary["random_models"]
                  + summary["relation_models"])
        return None, models
    return check


# ---------------------------------------------------------------------
# corpus construction


def _pick(rng: random.Random, ids: list[str], work: dict, k: int) -> list[str]:
    """k ids of a stratum in random order: the one with the most work, and
    one from the middle of each of k - 1 bins of the rest sorted by work.

    The heaviest call sets the peak memory of a run, so every seed keeps
    it.  The bins differ in size by at most one.  A bin's candidates are
    the PICK_WINDOW ids at its middle whose work is within WORK_TOLERANCE
    of the middle one's, so where work climbs steeply (the heavy tail)
    every seed gets the same model.  Runs at different seeds then see
    different models with the same cost quantiles, and their latency
    figures differ by host speed rather than by the models drawn.
    """
    ranked = sorted(ids, key=lambda i: (work.get(i, 0), i))
    rest, n = ranked[:-1], len(ranked) - 1
    picked = []
    for b in range(k - 1):
        lo, hi = b * n // (k - 1), (b + 1) * n // (k - 1)
        start = max(lo, (lo + hi - PICK_WINDOW) // 2)
        window = rest[start:min(hi, start + PICK_WINDOW)]
        middle = work.get(window[len(window) // 2], 0)
        picked.append(rng.choice([i for i in window if abs(
            work.get(i, 0) - middle) <= WORK_TOLERANCE * middle]))
    picked += ranked[-1:]
    rng.shuffle(picked)
    return picked


def _spread(rng: random.Random, strata: list[list]) -> list:
    """Merge strata so that every prefix holds each in proportion.

    Item i of a stratum of m items goes to position (i + u) / m, u uniform
    in [0, 1).  A run that stops part-way through a pass, or goes on into
    the next one, then still sees the pass's mix of strata.
    """
    keyed = [((i + rng.random()) / len(stratum), j, item)
             for j, stratum in enumerate(strata)
             for i, item in enumerate(stratum)]
    keyed.sort(key=lambda t: t[:2])
    return [item for _pos, _j, item in keyed]


class Corpus:
    """The call sequence of one workload at one seed, with its model files
    written under ``workdir``."""

    def __init__(self, workload: str, seed: int, root: str, workdir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.root = root
        self.workdir = workdir
        self.reference = load_reference()
        with open(os.path.join(root, "fixtures", "manifest.json"),
                  encoding="utf-8") as fh:
            self.manifest = json.load(fh)
        rng = random.Random(f"{workload}:{seed}")
        build = {"analyze-sparse": self._analyze_sparse,
                 "sweep-trees": self._sweep_trees,
                 "coeffs-dense": self._coeffs_dense}[workload]
        self.calls: list[Call] = build(rng)

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _model_call(self, item, text_of, argv_tail, ref: dict) -> Call:
        """A ready call as is, or a pool id written out as a model file."""
        if isinstance(item, Call):
            return item
        path = self._write(item, text_of(item))
        expected = ref.get(item, (None,))[0]
        return Call(argv_tail[0], (argv_tail[0], path) + argv_tail[1:],
                    _check_digest(expected))

    def _analyze_sparse(self, rng: random.Random) -> list[Call]:
        ref = self.reference["analyze"]
        work = {i: v[1] for i, v in ref.items()}
        fixtures = []
        for name in sorted(self.manifest):
            info = self.manifest[name]
            path = os.path.join(self.root, "fixtures", info["file"])
            expected = self.reference["fixtures"].get(name)
            fixtures.append(Call("analyze", ("analyze", path, "--json"),
                                 _check_digest(expected, _check_fixture_verdict(
                                     info["expected_verdict"]))))
        strata = [_pick(rng, ids, work, SPARSE_PICK)
                  for _key, ids in sorted(sparse_pool().items())]
        return [self._model_call(item, sparse_model, ("analyze", "--json"), ref)
                for item in _spread(rng, strata + [fixtures])]

    def _sweep_trees(self, rng: random.Random) -> list[Call]:
        expected = self.reference["sweep_trees"]
        calls = []
        for _ in range(SWEEP_CALLS):
            s = rng.randrange(1, 2 ** 31)
            calls.append(Call("sweep-trees",
                              ("sweep-trees", "--max-n", str(SWEEP_MAX_N),
                               "--json", "--seed", str(s)),
                              _check_sweep(s, expected)))
        return calls

    def _coeffs_dense(self, rng: random.Random) -> list[Call]:
        ref = self.reference["coeffs"]
        work = {i: v[1] for i, v in ref.items()}
        strata = [_pick(rng, ids, work, DENSE_PICK[n])
                  for n, ids in sorted(dense_pool().items())]
        selftests = []
        for _ in range(DENSE_SELFTESTS):
            s = rng.randrange(1, 2 ** 31)
            selftests.append(Call("selftest",
                                  ("selftest", "--seed", str(s), "--json"),
                                  _check_selftest(s, self.manifest)))
        return [self._model_call(item, dense_model,
                                 ("coeffs", "--method", "both", "--json"), ref)
                for item in _spread(rng, strata + [selftests])]
