"""The traced run's counters are exact: two runs at one seed agree.

    python3 -m pytest -q perfbench/test_trace_counters.py

Each run is a fresh ``perfbench/run.py --trace 1`` process over a short
prefix of the workload's call sequence (a few seconds each).
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def _traced(workload: str, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counters(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s" and name != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload,seconds", [("analyze-sparse", 4),
                                              ("coeffs-dense", 4)])
def test_counters_repeat_exactly(workload, seconds):
    first = _traced(workload, seconds)
    second = _traced(workload, seconds)
    assert first["correct"] and second["correct"]
    assert _counters(first)
    assert _counters(first) == _counters(second)


def test_map_builds_per_analyze_request():
    # A rank-path analyze builds the coefficient map three times and ranks
    # twice; a certificate-path one builds it twice and ranks once.
    _traced("analyze-sparse", 6)
    path = os.path.join(ROOT, ".perfbench_out",
                        f"trace-analyze-sparse-seed{SEED}.json.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        trace = json.load(fh)
    builds = Counter(span[4] for span in trace["spans"]
                     if span[0] == "identify.coefficient_map")
    ranks = Counter(span[4] for span in trace["spans"]
                    if span[0] == "identify.generic_rank")
    seen = {(builds[rid], ranks[rid]) for rid, _kind, _argv
            in trace["requests"]}
    assert seen == {(3, 2), (2, 1)}
