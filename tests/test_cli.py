"""Command-line interface: outputs, exit codes, determinism."""

import collections
import contextlib
import errno
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from compident import cli, determinant, families, forests, identify, model, \
    poly
from compident.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID_MODEL,
    EXIT_OK,
    EXIT_USAGE,
    main,
    run_tree_sweep,
)
from compident.determinant import io_equation
from compident.families import bidirectional_tree_model, labeled_trees
from compident.graphs import leak_augmented
from compident.identify import coefficient_map, generic_rank
from compident.model import load_model
from compident.transforms import ALL_KINDS

from conftest import FIXTURES_DIR, count_calls, dropping_a_term, mk, \
    reference_text

with open(os.path.join(FIXTURES_DIR, "manifest.json")) as fh:
    MANIFEST = json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(fixtures_dir, name):
    return os.path.join(fixtures_dir, name + ".json")


# -- analyze -----------------------------------------------------------------

def test_analyze_triangle(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "analyze", fixture(fixtures_dir, "k3_leak"))
    assert code == EXIT_OK
    assert "verdict: unidentifiable" in out
    assert "method: count_criterion" in out


def test_analyze_catenary_leak_json(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "analyze", "--json",
                           fixture(fixtures_dir, "cat3_leak1"))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "identifiable"
    assert doc["method"] == "tree_theorem"
    assert doc["expected_dimension"]["has_expected_dimension"] is True


@pytest.mark.parametrize("name,search,most", [
    ("cat3_leak1", "is_strongly_connected", 2),
    ("k3_leak", "distance", 1),
])
def test_analyze_repeats_no_graph_search(monkeypatch, capsys, fixtures_dir,
                                         name, search, most):
    # a tree verdict checks strong connectivity once for the pipeline and
    # once for the count law; a firing count criterion reads its distance
    # off the count, and the map layout searches by its own BFS
    calls = count_calls(monkeypatch, model, search)
    code, _, _ = run_cli(capsys, "analyze", "--json",
                         fixture(fixtures_dir, name))
    assert code == EXIT_OK
    assert len(calls) <= most, calls


def test_analyze_force_rank(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "analyze", "--json", "--force-rank",
                           fixture(fixtures_dir, "cat3_leak1"))
    doc = json.loads(out)
    assert code == EXIT_OK
    assert doc["method"] == "jacobian_rank"
    assert doc["rank"] == 5
    assert [t["seed"] for t in doc["trials"]] == [20240101]


def _one_way_cycle_60():
    # a one-way 60-cycle with one chord and one leak
    n = 60
    edges = [(i, i % n + 1) for i in range(1, n + 1)] + [(1, n // 2 + 1)]
    return n, edges, [1], [2], [n]


def _dense_20():
    # strongly connected, and row 1 of A has 20 nonzeros: the slots of
    # the packed powers of A are 128 bits wide
    rng = random.Random(20)
    n = 20
    edges = {(i, i % n + 1) for i in range(1, n + 1)}
    edges |= {(j, 1) for j in range(2, n + 1)}
    edges |= {(f, t) for f in range(1, n + 1) for t in range(2, n + 1)
              if f != t and rng.random() < 0.3}
    return n, sorted(edges), [3], [7], [1, 12]


def _two_in_three_out():
    # rank 12 of 13 parameters: every trial runs, on all three primes
    edges = [(1, 2), (1, 3), (2, 3), (3, 4), (3, 6), (4, 1), (4, 2), (4, 5),
             (5, 2), (5, 6), (6, 1)]
    return 6, edges, [1, 4], [2, 3, 6], [4, 5]


# digests of the output before the rank path ran on packed rows; no
# fixture reaches these sizes
@pytest.mark.parametrize("build,force_rank,digest", [
    (_one_way_cycle_60, False,
     "7f9480f56d41835767b7408f106d9714776de862694c5268ef0ae2c6002ba72d"),
    (_one_way_cycle_60, True,
     "7f9480f56d41835767b7408f106d9714776de862694c5268ef0ae2c6002ba72d"),
    (_dense_20, False,
     "b079e37b41f0f2c4870273465e929202d17047532426a7f264e469a402f47cf7"),
    (_dense_20, True,
     "3da6625e5293a646d581b09ddd0b70796b5aeb9d699913ae7a37f6343e43dafd"),
    (_two_in_three_out, False,
     "9f03da5fb6e497ca1a63ee2d15e6cf697dfe9f9b17244c73d47ca98ccd0bfd36"),
    (_two_in_three_out, True,
     "9f03da5fb6e497ca1a63ee2d15e6cf697dfe9f9b17244c73d47ca98ccd0bfd36"),
], ids=["cycle60", "cycle60-force", "dense20", "dense20-force", "io2x3",
        "io2x3-force"])
def test_analyze_json_is_pinned_beyond_the_fixtures(capsys, tmp_path, build,
                                                    force_rank, digest):
    n, edges, inputs, outputs, leaks = build()
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "compartments": n,
        "edges": [{"from": f, "to": t} for (f, t) in edges],
        "in": inputs, "out": outputs, "leak": leaks}))
    argv = ["analyze", "--json", str(path)] + ["--force-rank"] * force_rank
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_analyze_malformed_model(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"compartments": 2, "edges": [], "in": [], "out": []}')
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == EXIT_INVALID_MODEL
    assert "missing key" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/model.json")
    assert code == EXIT_INVALID_MODEL


def test_analyze_unreadable_path(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", str(tmp_path))
    assert code == EXIT_INVALID_MODEL
    assert "cannot read model" in err


def test_analyze_not_strongly_connected(capsys, tmp_path):
    path = tmp_path / "open.json"
    path.write_text('{"compartments": 2, "edges": [{"from": 1, "to": 2}], '
                    '"in": [1], "out": [2], "leak": []}')
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_INVALID_MODEL
    assert "out of scope" in err


def test_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "analyze")  # missing model argument
    assert code == EXIT_USAGE


def _edgeless(n):
    return (f'{{"compartments": {n}, "edges": [], "in": [1], "out": [1], '
            f'"leak": []}}')


_USER_FILES = {
    "bad.json": '{"compartments": 2, "edges": [], "in": [], "out": []}',
    "notjson.json": '{"compartments": ',
    "binary.json": b"\xff\xfe\x00model",
    "open.json": '{"compartments": 2, "edges": [{"from": 1, "to": 2}], '
                 '"in": [1], "out": [2], "leak": []}',
    "noin.json": '{"compartments": 2, "edges": [{"from": 1, "to": 2}, '
                 '{"from": 2, "to": 1}], "in": [], "out": [1], "leak": []}',
    "deep.json": "[" * 200_000,
    "n990.json": _edgeless(990),
    "n1200.json": _edgeless(1200),
    "n1e20.json": _edgeless(10 ** 20),
}


@pytest.mark.parametrize("argv,code,last", [
    # usage errors: the last stderr line (argparse prints the usage first)
    (["no-such-command"], EXIT_USAGE,
     "error: argument command: invalid choice: 'no-such-command' .*"),
    (["analyze"], EXIT_USAGE,
     "error: the following arguments are required: model"),
    (["analyze", "{fx}/k3_leak.json", "--trials", "0"], EXIT_USAGE,
     "error: argument --trials: must be at least 1, got 0"),
    (["analyze", "{fx}/k3_leak.json", "--trials", "two"], EXIT_USAGE,
     "error: argument --trials: invalid int value: 'two'"),
    (["selftest", "--trials", "-1"], EXIT_USAGE,
     "error: argument --trials: must be at least 1, got -1"),
    (["sweep-trees", "--max-n", "0"], EXIT_USAGE,
     "error: argument --max-n: must be at least 1, got 0"),
    (["sweep-trees", "--max-n", "8"], EXIT_USAGE,
     "error: --max-n larger than 7 is not supported"),
    (["transform", "--op", "add-leak", "{fx}/chorded_cycle3.json"], EXIT_USAGE,
     "error: --at is required for this operation"),
    (["transform", "--op", "add-leaf-move-out", "{fx}/cat2_in1_out2.json"],
     EXIT_USAGE, "error: --at is required for this operation"),
    # models that cannot be read, are malformed or are out of scope
    (["analyze", "{tmp}/bad.json"], EXIT_INVALID_MODEL,
     "invalid model: missing key 'leak'"),
    (["analyze", "{tmp}/notjson.json"], EXIT_INVALID_MODEL,
     "invalid model: not valid JSON: Expecting value: .*"),
    (["coeffs", "{tmp}/binary.json"], EXIT_INVALID_MODEL,
     "invalid model: not UTF-8 text: 'utf-8' codec can't decode .*"),
    (["analyze", "{tmp}/missing.json"], EXIT_INVALID_MODEL,
     "cannot read model: .*No such file or directory.*"),
    (["analyze", "{tmp}"], EXIT_INVALID_MODEL,
     "cannot read model: .*Is a directory.*"),
    (["analyze", "{tmp}/open.json"], EXIT_INVALID_MODEL,
     "model out of scope: identifiability verdicts are limited to strongly "
     "connected models"),
    (["analyze", "{tmp}/noin.json"], EXIT_INVALID_MODEL,
     "model out of scope: model has no inputs"),
    (["coeffs", "{tmp}/noin.json"], EXIT_INVALID_MODEL,
     "model out of scope: model has no inputs"),
    # transform requests that do not fit the model
    (["transform", "--op", "add-leaf", "--at", "9", "{fx}/cat3_leak1.json"],
     EXIT_INVALID_MODEL, "error: compartment 9 out of range 1..3"),
    (["transform", "--op", "add-leak", "--at", "1", "{fx}/cat3_leak1.json"],
     EXIT_INVALID_MODEL, "error: compartment 1 already leaks"),
    (["transform", "--op", "remove-leak", "--at", "2", "{fx}/cat3_leak1.json"],
     EXIT_INVALID_MODEL, "error: compartment 2 has no leak to remove"),
    # --seed and --trials belong to the commands that compute a rank
    (["coeffs", "{fx}/k3_leak.json", "--seed", "1"], EXIT_USAGE,
     "error: unrecognized arguments: --seed 1"),
    (["transform", "--op", "add-leak", "--at", "1", "{fx}/k3_leak.json",
      "--trials", "2"], EXIT_USAGE, "error: unrecognized arguments: --trials 2"),
    # a model file nested deeper than the JSON decoder recurses
    (["analyze", "{tmp}/deep.json"], EXIT_INVALID_MODEL,
     "invalid model: nested too deeply: maximum recursion depth exceeded.*"),
    (["coeffs", "{tmp}/deep.json"], EXIT_INVALID_MODEL,
     "invalid model: nested too deeply: maximum recursion depth exceeded.*"),
    (["transform", "--op", "add-leak", "--at", "1", "{tmp}/deep.json"],
     EXIT_INVALID_MODEL,
     "invalid model: nested too deeply: maximum recursion depth exceeded.*"),
    # more compartments than the coefficient routes can recurse through
    *[(["coeffs", "--json", f"{{tmp}}/{name}.json"], EXIT_INVALID_MODEL,
       r"model out of scope: coeffs takes at most \d+ compartments "
       rf"\(half the recursion limit\), got {n}")
      for name, n in (("n990", 990), ("n1200", 1200),
                      ("n1e20", 10 ** 20))],
])
def test_user_errors_exit_with_a_reason(capsys, tmp_path, fixtures_dir, argv,
                                        code, last):
    for name, body in _USER_FILES.items():
        (tmp_path / name).write_bytes(
            body if isinstance(body, bytes) else body.encode())
    argv = [a.format(tmp=tmp_path, fx=fixtures_dir) for a in argv]
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert re.fullmatch(last, err.splitlines()[-1]), err


def test_other_value_errors_are_internal(monkeypatch, capsys, fixtures_dir):
    # a ValueError that no input check raised is a bug, not a bad model
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "decide_identifiability", broken)
    code, _, err = run_cli(capsys, "analyze", fixture(fixtures_dir, "k3_leak"))
    assert code == EXIT_INTERNAL
    assert err == "internal error: boom\n"


# -- coeffs ------------------------------------------------------------------

TRIANGLE_GOLDEN = {
    "c2": "a02 + a12 + a13 + a21 + a23 + a31 + a32",
    "c1": "a02*a13 + a02*a21 + a02*a23 + a02*a31 + a12*a13 + a12*a23 "
          "+ a12*a31 + a13*a21 + a13*a32 + a21*a23 + a21*a32 + a23*a31 "
          "+ a31*a32",
    "c0": "a02*a13*a21 + a02*a21*a23 + a02*a23*a31",
    "d1": "a02 + a12 + a13 + a23 + a32",
    "d0": "a02*a13 + a02*a23 + a12*a13 + a12*a23 + a13*a32",
}


@pytest.mark.parametrize("method", ["forest", "det", "both"])
def test_coeffs_triangle_all_methods(capsys, fixtures_dir, method):
    code, out, _ = run_cli(capsys, "coeffs", "--json", "--method", method,
                           fixture(fixtures_dir, "k3_leak"))
    assert code == EXIT_OK
    doc = json.loads(out)
    eq = doc["outputs"][0]
    assert eq["lhs"][2] == TRIANGLE_GOLDEN["c2"]
    assert eq["lhs"][1] == TRIANGLE_GOLDEN["c1"]
    assert eq["lhs"][0] == TRIANGLE_GOLDEN["c0"]
    assert eq["lhs"][3] == "1"
    d = eq["inputs"][0]
    assert d["sign"] == 1
    assert d["d"][1] == TRIANGLE_GOLDEN["d1"]
    assert d["d"][0] == TRIANGLE_GOLDEN["d0"]
    assert d["d"][2] == "1"


def test_coeffs_single_compartment(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{"compartments": 1, "edges": [], "in": [1], "out": [1], '
                    '"leak": []}')
    code, out, _ = run_cli(capsys, "coeffs", str(path))
    assert code == EXIT_OK
    assert "y' = u" in out


def test_coeffs_answers_an_edgeless_model_within_the_bound(capsys, tmp_path):
    # 500 compartments: each route recurses once per compartment, inside
    # half the default recursion limit
    path = tmp_path / "n500.json"
    path.write_text(_edgeless(500))
    code, out, _ = run_cli(capsys, "coeffs", "--json", str(path))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["compartments"] == 500
    assert doc["outputs"][0]["lhs"] == ["0"] * 500 + ["1"]


def test_coeffs_two_compartment_cross(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "coeffs", "--json",
                           fixture(fixtures_dir, "cat2_in1_out2"))
    doc = json.loads(out)
    entry = doc["outputs"][0]["inputs"][0]
    assert entry["sign"] == -1
    assert entry["d"][0] == "a21"
    assert "(a21)*u1" in doc["outputs"][0]["equation"]


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_coeffs_output_pins_every_coefficient(capsys, fixtures_dir, name):
    path = fixture(fixtures_dir, name)
    m = load_model(path)
    code, text, _ = run_cli(capsys, "coeffs", "--method", "both", path)
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "coeffs", "--method", "both", "--json", path)
    assert code == EXIT_OK
    doc = json.loads(out)
    # Text mode: an "output" line, the equation, c_n..c_0, then for each
    # input a "sign" line and d_(n-1)..d_0.
    lines = text.splitlines()[1:]
    assert len(doc["outputs"]) == len(m.outputs)
    for entry in doc["outputs"]:
        eq = io_equation(m, entry["output"])
        lhs = [reference_text(c) for c in eq.lhs]
        assert lines.pop(0) == f"output {entry['output']}"
        assert lines.pop(0) == f"  {entry['equation']}"
        for k in range(m.n, -1, -1):
            assert lines.pop(0) == f"  c{k} = {lhs[k]}"
        assert entry["lhs"] == lhs
        assert [e["input"] for e in entry["inputs"]] == sorted(eq.rhs)
        for e in entry["inputs"]:
            sign, ds = eq.rhs[e["input"]]
            d = [reference_text(c) for c in ds]
            assert lines.pop(0) == (f"  input {e['input']}: sign "
                                    f"{'+1' if sign > 0 else '-1'}")
            for k in range(m.n - 1, -1, -1):
                assert lines.pop(0) == f"  d{k} = {d[k]}"
            assert e["d"] == d
    assert lines == []


# digests of the output before the determinant and forest routes packed
# monomials into ints
@pytest.mark.parametrize("name,digest", [
    ("cat2_in1_out2", "2b3799fd371e43e6db42e38565dcc1e7e8c094afcca8bfc6cfc5c24e57523b97"),
    ("cat3_leak1", "1f44742db412de5de57f5ef5de54bc55d7d14d229c39d49b72d21bc1f3c7ebd3"),
    ("cat4_in4_leak1", "c441f9e131fbd6c9d64f86416703930d08f9adf8ff4017c2b869dc437f899297"),
    ("chorded_cycle3", "583099e7b9c74991dad596525bf8d5c4d0093a1c4e64132cb174a73c1d227c46"),
    ("chorded_cycle3_leaf", "84759dd9a96fd7a1c485bd47831793ead2787ae62f19608216fda903e92cea39"),
    ("chorded_cycle3_leaf_out4", "2a0400ce4bf8973f5d6ae761a618106fe73d253fed8ed42a2e9d7437d2eb63d3"),
    ("cycle3_out3", "851fe72d60a57c430b567d4cebdeb0fa64067b980cf10f72d880fea44b7d0dec"),
    ("cycle3_two_leaks", "71cfcfc024d646a13b5836e815abfb504750bbe6c5524d95cb5f2107c6195265"),
    ("four_edge_sc", "fa3a1ff4610b2fb59efc4fe36880dfa3b848e779e90e8d3ca18a677083d32127"),
    ("k3_leak", "5f786656a6c87893affda4c839475a78d600b7a4968ca70f1f5d62fe7553ac94"),
])
def test_coeffs_json_is_pinned(capsys, fixtures_dir, name, digest):
    code, out, _ = run_cli(capsys, "coeffs", "--method", "both", "--json",
                           fixture(fixtures_dir, name))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_coeffs_json_is_pinned_across_two_chunks(capsys):
    # 15 parameters: every term's name is joined from two chunks of the
    # codec's fields
    path = os.path.join(os.path.dirname(__file__), "data",
                        "cycle10_chords.json")
    code, out, _ = run_cli(capsys, "coeffs", "--method", "both", "--json",
                           path)
    assert code == EXIT_OK
    assert json.loads(out)["params"] == 15
    assert len(out) == 371_812
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b099793bd7c829a5e95fa20cba4934dedb2b8e2be1447ef671c5a7ec58b8a799"


@pytest.mark.parametrize("method", ["det", "forest"])
def test_coeffs_text_is_pinned(capsys, fixtures_dir, method):
    code, out, _ = run_cli(capsys, "coeffs", "--method", method,
                           fixture(fixtures_dir, "k3_leak"))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "7c1342d17ec0e478ed175b10bc3ef501c0790708716216bbf7a97acc26332729"


# two inputs, three outputs and a leak
SEVERAL_IO = {"compartments": 4,
              "edges": [{"from": f, "to": t} for (f, t) in
                        [(1, 2), (1, 3), (2, 1), (2, 3), (3, 4), (4, 1)]],
              "in": [1, 3], "out": [1, 2, 4], "leak": [2]}


@pytest.fixture
def several_io(tmp_path):
    path = tmp_path / "several_io.json"
    path.write_text(json.dumps(SEVERAL_IO))
    return str(path)


# digests of the output before the coefficients stayed packed up to the
# text and the left side was computed once per request
@pytest.mark.parametrize("argv,digest", [
    (("--method", "both", "--json"),
     "26bafe280956de14b1bd550c273d574d110d146a0382d9d72eba4be621c7edca"),
    (("--method", "both"),
     "91733b806e822c16c5df79313ea3358f2ff6777f7dc2b15e0bd32498cbf67ebb"),
    (("--method", "det"),
     "91733b806e822c16c5df79313ea3358f2ff6777f7dc2b15e0bd32498cbf67ebb"),
    (("--method", "forest"),
     "91733b806e822c16c5df79313ea3358f2ff6777f7dc2b15e0bd32498cbf67ebb"),
])
def test_coeffs_several_outputs_are_pinned(capsys, several_io, argv, digest):
    code, out, _ = run_cli(capsys, "coeffs", several_io, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.fixture
def dense_seven(tmp_path):
    # 32 parameters; coeffs --json prints 4,165,403 bytes, more than a
    # pipe buffer holds
    m = families.random_strongly_connected_model(random.Random(23), 7,
                                                 extra=0.5)
    path = tmp_path / "dense_seven.json"
    path.write_text(json.dumps(model.model_to_dict(m)))
    return str(path)


def test_coeffs_holds_little_besides_its_output(dense_seven):
    # the packed sides of both routes, the Laplace memo and a second copy
    # of the JSON are never all alive at once
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["coeffs", dense_seven, "--method", "both", "--json"])
        size = len(out.getvalue())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert size == 4_165_403
    assert peak < 5 * size


def _src_env():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_coeffs_reports_a_closed_stdout_as_a_write_error(dense_seven):
    with subprocess.Popen([sys.executable, "-m", "compident", "coeffs",
                           dense_seven, "--json"], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=_src_env()) as proc:
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert head == b'{\n  "compartments": '
    assert err == ("cannot write output: "
                   f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")
    assert proc.returncode == EXIT_INVALID_MODEL


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_a_missing_stdout_takes_the_output_nowhere(fixtures_dir, json_flag):
    # started with fd 1 closed, Python sets sys.stdout to None
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "compident",
         "analyze", fixture(fixtures_dir, "k3_leak"), *json_flag],
        stderr=subprocess.PIPE, text=True, env=_src_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


def test_coeffs_computes_the_left_side_once(monkeypatch, capsys, several_io):
    walks = count_calls(monkeypatch, forests, "_walk")
    laplace = count_calls(monkeypatch, determinant, "_laplace")
    code, _, _ = run_cli(capsys, "coeffs", several_io, "--method", "both")
    assert code == EXIT_OK
    # one traversal for the left side, one per output for every input
    lhs_graph = leak_augmented(load_model(several_io))
    assert sum(args[0] == lhs_graph for args in walks) == 1
    assert len(walks) == 1 + 3
    # one expansion of det(lambda*I - A), whose memo serves the minors of
    # input 1; input 3 expands its minors on a memo of its own
    tops = [len(rows) for rows, cols, _memo in laplace if len(rows) == len(cols)]
    assert tops == [4]
    assert len({id(memo) for _rows, _cols, memo in laplace}) == 2


def test_coeffs_builds_no_poly(monkeypatch, capsys, several_io):
    # a Poly starts from its constructor or from a codec's unpack: ring
    # operations need a Poly to start from
    built = []
    for cls, name in ((poly.Poly, "__init__"), (poly._Codec, "unpack")):
        def counted(*args, _original=getattr(cls, name), **kwargs):
            built.append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    assert poly.Poly.one() and built
    built.clear()
    for method in ("both", "det", "forest"):
        code, _, _ = run_cli(capsys, "coeffs", several_io, "--method", method)
        assert code == EXIT_OK
    assert built == []


@pytest.mark.parametrize("name,pick,bad", [
    # the d of output 2, for each input
    ("det_sides", lambda sides, m, codec, outs, ins:
     [ds for (out, _inp), ds in sides[1].items() if out == 2], 2),
    # c
    ("det_sides", lambda sides, m, codec, outs, ins: [sides[0]], 1),
    # the forest d of (output 4, input 3)
    ("forest_rhs", lambda ds, m, out, ins, codec: [ds[3]] if out == 4 else [],
     4),
])
def test_coeffs_reports_disagreeing_routes(monkeypatch, capsys, several_io,
                                           name, pick, bad):
    monkeypatch.setattr(cli, name, dropping_a_term(getattr(cli, name), pick))
    code, out, err = run_cli(capsys, "coeffs", several_io, "--method", "both",
                             "--json")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == ("internal error: forest and determinant coefficients "
                   f"disagree for output {bad}\n")
    # each route alone has nothing to compare against
    code, _, _ = run_cli(capsys, "coeffs", several_io, "--method", "forest")
    assert code == EXIT_OK


def test_selftest_reports_disagreeing_routes(monkeypatch, capsys):
    monkeypatch.setattr(cli, "det_sides", dropping_a_term(
        cli.det_sides, lambda sides, m, codec, outs, ins: [sides[0]]))
    code, out, _ = run_cli(capsys, "selftest", "--json")
    assert code == EXIT_INTERNAL
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["failures"]
    assert all(f.startswith("io mismatch: ") for f in doc["failures"])


def test_flip_check_reports_a_dropped_forest(monkeypatch):
    # the flipped multigraph's forests lose one: the selftest's flip
    # check must name the compartment
    monkeypatch.setattr(cli, "forest_buckets", dropping_a_term(
        cli.forest_buckets, lambda sums, g, codec, pair=None:
        [sums] if g.allows_multi_edges else []))
    m = mk(3, [(1, 2), (2, 3), (3, 1)], [1], [1], [2])
    failures = []
    cli._check_flip_equality(m, failures)
    assert [f.split(":")[0] for f in failures] \
        == [f"flip sums differ at {i}" for i in (1, 2, 3)]


def test_analyze_counts_the_left_side_once(capsys, tmp_path):
    # two outputs share c_2, c_1, c_0: 6 coefficients, not 9, and rank 6
    # is the expected dimension min(7, 6)
    path = tmp_path / "two_outputs.json"
    path.write_text(json.dumps({
        "compartments": 3,
        "edges": [{"from": f, "to": t} for (f, t) in
                  [(1, 2), (2, 1), (2, 3), (3, 1), (3, 2)]],
        "in": [1], "out": [1, 3], "leak": [1, 3]}))
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == EXIT_OK
    assert "params: 7  coeffs: 6" in out
    assert "image dimension: 6 of expected 6 -> expected dimension" in out


def test_coeffs_no_inputs(capsys, tmp_path):
    path = tmp_path / "noin.json"
    path.write_text('{"compartments": 1, "edges": [], "in": [], "out": [1], '
                    '"leak": []}')
    code, _, err = run_cli(capsys, "coeffs", str(path))
    assert code == EXIT_INVALID_MODEL


# -- transform ----------------------------------------------------------------

def test_transform_leaf_move_output(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "transform", "--json",
                           "--op", "add-leaf-move-out",
                           fixture(fixtures_dir, "chorded_cycle3"))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["guarantee"] == "iff"
    assert doc["model"]["out"] == [4]
    assert {"from": 1, "to": 4} in doc["model"]["edges"]


def test_transform_requires_at_for_add_leak(capsys, fixtures_dir):
    code, _, err = run_cli(capsys, "transform", "--op", "add-leak",
                           fixture(fixtures_dir, "chorded_cycle3"))
    assert code == EXIT_USAGE


def test_transform_remove_missing_leak(capsys, fixtures_dir):
    code, _, err = run_cli(capsys, "transform", "--op", "remove-leak",
                           "--at", "2", fixture(fixtures_dir, "cat3_leak1"))
    assert code == EXIT_INVALID_MODEL


def test_transform_text_output(capsys, fixtures_dir):
    code, out, _ = run_cli(capsys, "transform", "--op", "add-leaf", "--at", "1",
                           fixture(fixtures_dir, "cat3_leak1"))
    assert code == EXIT_OK
    assert "guarantee: none" in out  # leaky model, hypotheses unmet
    assert '"compartments": 4' in out


# -- sweeps and selftest --------------------------------------------------------

def test_sweep_trees_small(capsys):
    code, out, _ = run_cli(capsys, "sweep-trees", "--max-n", "3", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["models"] == 2 + 16 + 189
    assert doc["disagreements"] == []


def test_sweep_trees_disagreement_order(monkeypatch):
    # every verdict inverted: all models disagree, listed in the order of
    # the plain tree -> input -> output -> leak set loop.  At n = 4 the
    # labeled order interleaves the star and path classes
    expected = []
    for n in (1, 2, 3, 4):
        for und in labeled_trees(n):
            for inp in range(1, n + 1):
                for out in range(1, n + 1):
                    for size in range(min(2, n) + 1):
                        for leaks in itertools.combinations(range(1, n + 1), size):
                            m = bidirectional_tree_model(n, und, [inp], [out], leaks)
                            cm = coefficient_map(m)
                            expected.append({
                                "n": n, "edges": sorted(und), "in": inp,
                                "out": out, "leak": sorted(leaks),
                                "rank": generic_rank(cm, 3, 5).rank,
                                "params": cm.p})

    def inverted(dist, leaks):
        return not identify.tree_identifiable(dist, leaks)

    plain = run_tree_sweep(4, 3, 5)
    monkeypatch.setattr(cli, "tree_identifiable", inverted)
    swept = run_tree_sweep(4, 3, 5)
    assert len(expected) == 3023
    assert swept["disagreements"] == expected
    assert {k: v for k, v in swept.items() if k != "disagreements"} == \
        {k: v for k, v in plain.items() if k != "disagreements"}


def _is_path(n, und):
    return all(d <= 2 for d in collections.Counter(
        v for edge in und for v in edge).values())


def _identity(n):
    """The group of the identity alone, as ``cli._sweep_tree`` takes it."""
    return [tuple(range(n + 1))]


def _labeled_sweep(max_n, trials, seed):
    """The sweep summary from every labeled model, none skipped: the sum
    of ``cli._sweep_tree`` with the identity group over the trees in
    labeled order."""
    per_n = {str(n): 0 for n in range(1, max_n + 1)}
    identifiable, disagreements = 0, []
    for n in range(1, max_n + 1):
        for und in labeled_trees(n):
            count, found, disagree = cli._sweep_tree(und, _identity(n),
                                                     trials, seed)
            per_n[str(n)] += count
            identifiable += found
            disagreements += disagree
    total = sum(per_n.values())
    return {"max_n": max_n, "trials": trials, "seed": seed, "models": total,
            "identifiable": identifiable,
            "unidentifiable": total - identifiable,
            "per_n": per_n, "disagreements": disagreements}


def test_tree_classes_are_the_unlabeled_trees():
    # the number of unlabeled trees on n vertices, and the members of the
    # classes split the n^(n-2) labeled trees of the Pruefer enumeration;
    # the paths form one class
    by_n = collections.defaultdict(list)
    for und, group, members in cli._tree_classes(7):
        by_n[len(und) + 1].append((und, group, members))
    assert [len(by_n[n]) for n in range(1, 8)] == [1, 1, 1, 2, 3, 6, 11]
    for n, classes in by_n.items():
        labeled = {tuple(sorted(und)) for und in labeled_trees(n)}
        assert len(labeled) == max(1, n ** (n - 2))
        assert sum(len(members) for _u, _g, members in classes) == len(labeled)
        assert set().union(*(members for _u, _g, members in classes)) == labeled
        assert all(und in members for und, _group, members in classes)
        assert sum(_is_path(n, und) for und, _g, _m in classes) == 1


def test_tree_class_groups_fill_out_the_class():
    # orbit-stabilizer on the n! relabellings of a tree: its class holds
    # n! / |Aut(T)| labeled trees.  The path has 2 automorphisms (n >= 2)
    # and the star (n >= 3) has (n - 1)!
    for und, group, members in cli._tree_classes(7):
        n = len(und) + 1
        assert len(group) * len(members) == math.factorial(n)
        assert (0, *range(1, n + 1)) in group
        degrees = collections.Counter(v for edge in und for v in edge)
        if n >= 2 and _is_path(n, und):
            assert len(group) == 2
        if n >= 3 and max(degrees.values()) == n - 1:
            assert len(group) == math.factorial(n - 1)


@pytest.mark.parametrize("seed", [2, 11])
def test_sweep_tree_orbit_weights_match_the_identity_group(seed):
    # one model per automorphism orbit, weighted by the orbit size, counts
    # what ranking every model of the tree counts, on every class
    # representative with n <= 5
    for und, group, _members in cli._tree_classes(5):
        n = len(und) + 1
        assert cli._sweep_tree(und, group, 3, seed) == \
            cli._sweep_tree(und, _identity(n), 3, seed)


def test_sweep_trees_expands_a_disagreeing_class(monkeypatch):
    # the verdict inverted on the n = 4 paths only: the path class is
    # swept member by member with the identity group, so its 12 labeled
    # paths are listed in
    # labeled order with all of their 16 * 11 models, and the counts
    # stay those of the plain sweep
    sweep = cli._sweep_tree

    def inverted_on_paths(und, group, trials, seed):
        n = len(und) + 1
        with monkeypatch.context() as patch:
            if n == 4 and _is_path(n, und):
                patch.setattr(cli, "tree_identifiable", lambda dist, leaks:
                              not identify.tree_identifiable(dist, leaks))
            return sweep(und, group, trials, seed)

    plain = run_tree_sweep(4, 3, 5)
    assert plain["disagreements"] == []
    paths = [sorted(und) for und in labeled_trees(4) if _is_path(4, und)]
    assert len(paths) == 12
    monkeypatch.setattr(cli, "_sweep_tree", inverted_on_paths)
    swept = run_tree_sweep(4, 3, 5)
    assert swept == _labeled_sweep(4, 3, 5)
    listed = swept["disagreements"]
    assert len(listed) == 12 * 16 * 11
    assert [d["edges"] for d in listed[::16 * 11]] == paths
    assert {k: v for k, v in swept.items() if k != "disagreements"} == \
        {k: v for k, v in plain.items() if k != "disagreements"}


@pytest.mark.parametrize("seed", [2, 11])
def test_sweep_trees_class_sweep_equals_labeled_sweep(seed):
    # one tree per class and one model per automorphism orbit give the
    # summary of every labeled model, tuples included
    summary = run_tree_sweep(4, 3, seed)
    assert summary == _labeled_sweep(4, 3, seed)
    assert summary["models"] == 3023


def test_sweep_trees_enumerates_no_labeled_tree_without_disagreement(
        monkeypatch, capsys):
    # the classes are grown directly; the Pruefer enumeration runs only
    # to expand a class that disagrees
    calls = count_calls(monkeypatch, families, "labeled_trees")
    code, out, _ = run_cli(capsys, "sweep-trees", "--max-n", "4", "--json")
    assert code == EXIT_OK and json.loads(out)["models"] == 3023
    assert calls == []


def test_sweep_trees_internal_failure_exits_3(monkeypatch, capsys):
    def failing(cms, *args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(cli, "generic_ranks", failing)
    code, out, err = run_cli(capsys, "sweep-trees", "--max-n", "4")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: injected failure\n"


def test_sweep_trees_forms_the_powers_once_per_tree_and_leak_set(
        monkeypatch, capsys):
    # 22 (class representative, leak set orbit) groups for n <= 4: 2 + 3
    # + 5, then 5 for the star and 7 for the path, against 3,023 models;
    # every tree map reaches min(p, m) at its first trial
    calls = count_calls(monkeypatch, identify, "_powers")
    code, out, _ = run_cli(capsys, "sweep-trees", "--max-n", "4", "--json")
    assert code == EXIT_OK and json.loads(out)["models"] == 3023
    assert len(calls) == 22


def test_sweep_trees_lays_out_each_group_once(monkeypatch, capsys):
    # per swept tree, the maps of every ranked leak set are laid out from
    # one search per input (for n <= 4 every compartment is the input of
    # some ranked model), whose first also checks strong connectivity with
    # one search backwards; the distances the tree theorem compares are
    # read back from the maps.  For n <= 4 one tree is swept per class:
    # 1, 1, 1 and 2 classes
    classes = {1: 1, 2: 1, 3: 1, 4: 2}
    searches = count_calls(monkeypatch, model, "distances")
    every = count_calls(monkeypatch, model, "_bfs")
    code, out, _ = run_cli(capsys, "sweep-trees", "--max-n", "4", "--json")
    assert code == EXIT_OK and json.loads(out)["models"] == 3023
    assert len(searches) == sum(n * c for n, c in classes.items()) == 14
    assert len(every) == 14 + sum(classes.values()) == 19


@pytest.mark.parametrize("seed,digest", [
    (1, "808ef4c19549c42b67f6c63986eaee1b67de43084e7e80a2afdf1cc534664941"),
    (7, "af05477d7ea371616cae7b8cbf8ab9b90a2cc4a75b6819527c8cc948a28c1d91"),
])
def test_sweep_trees_json_is_pinned(capsys, seed, digest):
    # digests of the output before the map layouts were built per group
    # and the right-side rows reduced modulo the left-side span
    code, out, _ = run_cli(capsys, "sweep-trees", "--max-n", "4", "--json",
                           "--seed", str(seed))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_trees_n5_json_is_pinned(capsys):
    # digest of the output before the right-side rows were ranked against
    # a kernel of the left rows and each tree was classified once
    code, out, _ = run_cli(capsys, "sweep-trees", "--max-n", "5", "--trials",
                           "1", "--json", "--seed", "7")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "f1d18f09efacc6aa7c3169942ca87b7e0287c996380c8109ac86b02e6f2740b2"


def test_sweep_trees_rejects_huge_n(capsys):
    code, _, err = run_cli(capsys, "sweep-trees", "--max-n", "9")
    assert code == EXIT_USAGE


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == EXIT_OK
    assert "selftest PASS" in out


def test_selftest_alternate_seed(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "7", "--trials", "1")
    assert code == EXIT_OK
    assert "selftest PASS" in out


def test_selftest_json_is_pinned(capsys):
    # digest of the output before the determinant and forest routes
    # packed monomials into ints
    code, out, _ = run_cli(capsys, "selftest", "--json", "--seed", "7")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "47071cb950599f85cd652e794b8a909c020f418c7ada9caded98affb510a5ce6"


def test_selftest_json_deterministic(capsys):
    _, first, _ = run_cli(capsys, "selftest", "--seed", "20240101", "--json")
    _, second, _ = run_cli(capsys, "selftest", "--seed", "20240101", "--json")
    assert first == second
    doc = json.loads(first)
    assert doc["ok"] is True and doc["failures"] == []


def test_python_m_runs_the_cli(capsys, fixtures_dir):
    path = fixture(fixtures_dir, "k3_leak")
    code, out, _ = run_cli(capsys, "analyze", path, "--json")
    proc = subprocess.run([sys.executable, "-m", "compident", "analyze", path,
                           "--json"], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == code == EXIT_OK
    assert proc.stdout == out


def test_main_parses_every_call_afresh_on_one_parser(monkeypatch, capsys,
                                                     fixtures_dir):
    # one parser serves every call of the process, and each call gives
    # the stdout, stderr and exit code of a fresh process: no option of
    # one call carries over into the next
    path = fixture(fixtures_dir, "cat3_leak1")
    sequence = [
        ["analyze", path, "--trials", "0"],
        ["analyze", "--json", "--force-rank", path],
        ["analyze", "--json", path],
        ["sweep-trees", "--max-n", "2"],
    ]
    cli._parser.cache_clear()
    builds = count_calls(monkeypatch, cli, "build_parser")
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    codes = []
    for argv in sequence:
        got = run_cli(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "compident", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        codes.append(got[0])
    assert codes == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]
    assert len(builds) == 1


def test_fixture_files_match_builtin_corpus(fixtures_dir):
    from compident.families import reference_models, reference_verdicts
    from compident.model import load_model, serialize_model
    with open(os.path.join(fixtures_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    ref = reference_models()
    assert set(manifest) == set(ref)
    for name, meta in manifest.items():
        path = os.path.join(fixtures_dir, meta["file"])
        assert load_model(path) == ref[name]
        with open(path) as fh:
            assert fh.read().strip() == serialize_model(ref[name])
    assert {name: meta["expected_verdict"] for name, meta in manifest.items()} \
        == reference_verdicts()


# -- fuzzing the command line -------------------------------------------------

_WRONG_VALUES = ("1", 1.5, None, True, [], {}, [[1]], -1, 0, 6, 10 ** 30)


def _mutated_model_text(doc: dict, rng) -> str:
    """The JSON text of a fixture document after up to three random
    mutations: a key dropped or added, a value of the wrong type, an
    out-of-range, duplicate or ill-typed compartment id, a duplicate, self
    or ill-formed edge, or the text cut short."""
    n = doc["compartments"]
    for _ in range(rng.randrange(4)):
        kind = rng.randrange(6)
        if kind == 0 and doc:
            del doc[rng.choice(sorted(doc))]
        elif kind == 1:
            doc[rng.choice(("extra", "Edges", "leaks", ""))] = \
                rng.choice(_WRONG_VALUES)
        elif kind == 2 and doc:
            doc[rng.choice(sorted(doc))] = rng.choice(_WRONG_VALUES)
        elif kind == 3:
            ids = doc.get(rng.choice(("in", "out", "leak")))
            if isinstance(ids, list):
                ids.append(rng.choice(ids + [0, -1, n + 1, "2", 2.0, None]))
        elif kind == 4 and isinstance(doc.get("edges"), list):
            edges = doc["edges"]
            dicts = [e for e in edges if isinstance(e, dict)]
            edge = dict(rng.choice(dicts)) if dicts else {"from": 1, "to": 2}
            key, other = rng.sample(("from", "to"), 2)
            # kept: a duplicate edge; the other end: a self-edge
            edge[key] = rng.choice((edge[key], edge[other], n + 1, 0, "1",
                                    None))
            if rng.random() < 0.2:
                edge["via"] = 1
            edges.append(edge)
        elif kind == 5:
            text = json.dumps(doc)
            return text[:rng.randrange(len(text))]
    return json.dumps(doc)


def _fuzzed_argv(rng, path: str) -> list[str]:
    command = rng.choice(("analyze", "coeffs", "transform"))
    argv = [command, path if rng.random() < 0.95 else path + ".missing"]
    if command == "analyze":
        if rng.random() < 0.5:
            argv.append("--force-rank")
        if rng.random() < 0.2:
            argv += ["--trials", rng.choice(("1", "2", "0", "x"))]
    elif command == "coeffs":
        if rng.random() < 0.7:
            argv += ["--method", rng.choice(("forest", "det", "both", "all"))]
    else:
        if rng.random() < 0.9:
            argv += ["--op", rng.choice(ALL_KINDS + ("add-edge",))]
        if rng.random() < 0.8:
            argv += ["--at", rng.choice(("1", "2", "4", "0", "-1", "9", "x"))]
    if rng.random() < 0.5:
        argv.append("--json")
    if rng.random() < 0.05:
        argv.append(rng.choice(("--bogus", "extra")))
    return argv


def _open_fds() -> list[str]:
    for path in ("/proc/self/fd", "/dev/fd"):
        if os.path.isdir(path):
            return sorted(os.listdir(path))
    pytest.skip("no way to list this process's open file descriptors")


def test_fuzzed_models_and_arguments_exit_cleanly(capsys, fixtures_dir,
                                                 tmp_path):
    # seeded mutations of the fixture files (n <= 4) and of the arguments
    # of analyze, coeffs and transform: every call ends in success, a
    # usage error or a refused model, never an internal error, and leaves
    # no file open
    rng = random.Random(2024)
    docs = []
    for meta in MANIFEST.values():
        with open(os.path.join(fixtures_dir, meta["file"])) as fh:
            docs.append(fh.read())
    path = str(tmp_path / "model.json")
    fds = _open_fds()
    codes = collections.Counter()
    for _ in range(400):
        text = _mutated_model_text(json.loads(rng.choice(docs)), rng)
        with open(path, "w") as fh:
            fh.write(text)
        argv = _fuzzed_argv(rng, path)
        code, _out, err = run_cli(capsys, *argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_INVALID_MODEL), \
            (argv, text, err)
        assert _open_fds() == fds, (argv, text)
        codes[code] += 1
    # every outcome occurs, so the mutations reach past the parser
    assert set(codes) == {EXIT_OK, EXIT_USAGE, EXIT_INVALID_MODEL}
