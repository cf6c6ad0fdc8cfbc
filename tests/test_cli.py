"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys

import pytest

from compident import cli, identify, model
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
from compident.identify import coefficient_map, generic_rank
from compident.model import load_model

from conftest import FIXTURES_DIR, count_calls, reference_text

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


_USER_FILES = {
    "bad.json": '{"compartments": 2, "edges": [], "in": [], "out": []}',
    "notjson.json": '{"compartments": ',
    "binary.json": b"\xff\xfe\x00model",
    "open.json": '{"compartments": 2, "edges": [{"from": 1, "to": 2}], '
                 '"in": [1], "out": [2], "leak": []}',
    "noin.json": '{"compartments": 2, "edges": [{"from": 1, "to": 2}, '
                 '{"from": 2, "to": 1}], "in": [], "out": [1], "leak": []}',
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
    (["sweep-trees", "--max-n", "7"], EXIT_USAGE,
     "error: --max-n larger than 6 is not supported"),
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


@pytest.mark.parametrize("method", ["det", "forest"])
def test_coeffs_text_is_pinned(capsys, fixtures_dir, method):
    code, out, _ = run_cli(capsys, "coeffs", "--method", method,
                           fixture(fixtures_dir, "k3_leak"))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "7c1342d17ec0e478ed175b10bc3ef501c0790708716216bbf7a97acc26332729"


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
    # the plain tree -> input -> output -> leak set loop
    plain = run_tree_sweep(3, 3, 5)
    expected = []
    for n in (1, 2, 3):
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

    monkeypatch.setattr(cli, "tree_identifiable", inverted)
    swept = run_tree_sweep(3, 3, 5)
    assert swept["disagreements"] == expected
    assert {k: v for k, v in swept.items() if k != "disagreements"} == \
        {k: v for k, v in plain.items() if k != "disagreements"}


def test_sweep_trees_evaluates_one_adjugate_per_tree_and_leak_set(
        monkeypatch, capsys):
    # 203 (tree, leak set) groups for n <= 4, against 3,023 models; every
    # tree map reaches min(p, m) at its first trial
    calls = []
    adjugate = identify._adjugate

    def counted(*args):
        calls.append(1)
        return adjugate(*args)

    monkeypatch.setattr(identify, "_adjugate", counted)
    code, out, _ = run_cli(capsys, "sweep-trees", "--max-n", "4", "--json")
    assert code == EXIT_OK and json.loads(out)["models"] == 3023
    assert len(calls) == 203


def test_sweep_trees_lays_out_each_group_once(monkeypatch, capsys):
    # per (tree, leak set) group: one left-side Tarjan pass, one per
    # output and one search per input, not two passes and one search per
    # model; for n <= 4 that is 203 groups of n^2 models.  Classifying
    # adds per tree one search for the tree test and one per input for
    # the distances.
    trees = {1: 1, 2: 1, 3: 3, 4: 16}
    groups = {1: 2, 2: 4, 3: 21, 4: 176}
    tarjan = count_calls(monkeypatch, identify, "_terminal_components")
    searches = count_calls(monkeypatch, model, "distances")
    code, out, _ = run_cli(capsys, "sweep-trees", "--max-n", "4", "--json")
    assert code == EXIT_OK and json.loads(out)["models"] == 3023
    assert len(tarjan) == sum((1 + n) * g for n, g in groups.items()) == 980
    assert len(searches) == sum(n * g for n, g in groups.items()) \
        + sum((1 + n) * t for n, t in trees.items()) == 874


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
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-m", "compident", "analyze", path,
                           "--json"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == code == EXIT_OK
    assert proc.stdout == out


def test_fixture_files_match_builtin_corpus(fixtures_dir):
    from compident.families import reference_models
    from compident.model import load_model, serialize_model
    manifest = json.load(open(os.path.join(fixtures_dir, "manifest.json")))
    ref = reference_models()
    assert set(manifest) == set(ref)
    for name, meta in manifest.items():
        path = os.path.join(fixtures_dir, meta["file"])
        assert load_model(path) == ref[name]
        assert open(path).read().strip() == serialize_model(ref[name])
    assert {name: meta["expected_verdict"] for name, meta in manifest.items()} \
        == cli._FIXTURE_EXPECTATIONS
