"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py

Runs the CLI once on every pool model and fixture and writes
``perfbench/reference.json``: the SHA-256 of each JSON output, a work
estimate per pool model (used only to stratify the per-seed picks), and
the seed-independent fields of the ``sweep-trees`` summary.  Re-record
only when the program's output is meant to change; the benchmark's
correctness check is exactly "same bytes as recorded".  Takes about seven
minutes on one core.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import workloads

ROOT = os.path.dirname(workloads.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from compident import cli  # noqa: E402
from compident.identify import coefficient_map  # noqa: E402
from compident.model import parse_model  # noqa: E402


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def _record_file(tmp: str, model_id: str, text: str, argv_tail: list[str]):
    path = os.path.join(tmp, model_id + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return _run([argv_tail[0], path] + argv_tail[1:])


def main() -> None:
    ref: dict = {"analyze": {}, "coeffs": {}, "fixtures": {}}
    os.makedirs(workloads.WORK_BASE, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=workloads.WORK_BASE)
    try:
        for _key, ids in sorted(workloads.sparse_pool().items()):
            for model_id in ids:
                text = workloads.sparse_model(model_id)
                out = _record_file(tmp, model_id, text, ["analyze", "--json"])
                terms = sum(len(p.terms)
                            for p in coefficient_map(parse_model(text)).entries)
                maps = 3 if json.loads(out)["method"] == "jacobian_rank" else 2
                ref["analyze"][model_id] = [workloads.sha256(out), terms * maps]
            print(f"analyze pool: {len(ref['analyze'])} models", flush=True)
        for ids in workloads.dense_pool().values():
            for model_id in ids:
                text = workloads.dense_model(model_id)
                out = _record_file(tmp, model_id, text,
                                   ["coeffs", "--method", "both", "--json"])
                ref["coeffs"][model_id] = [workloads.sha256(out), len(out)]
            print(f"coeffs pool: {len(ref['coeffs'])} models", flush=True)
    finally:
        shutil.rmtree(tmp)
    with open(os.path.join(ROOT, "fixtures", "manifest.json"),
              encoding="utf-8") as fh:
        manifest = json.load(fh)
    for name, info in sorted(manifest.items()):
        path = os.path.join(ROOT, "fixtures", info["file"])
        ref["fixtures"][name] = workloads.sha256(
            _run(["analyze", path, "--json"]))
    summary = json.loads(_run(["sweep-trees", "--max-n",
                               str(workloads.SWEEP_MAX_N), "--json"]))
    ref["sweep_trees"] = {k: summary[k] for k in
                          ("max_n", "trials", "models", "identifiable",
                           "unidentifiable", "per_n")}
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
