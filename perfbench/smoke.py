"""Tiny-scale smoke run of the benchmark.

    python3 perfbench/smoke.py

Runs every workload once at ``--scale tiny`` (``stream_live`` too, which
``BENCHMARK.json`` leaves out) and one traced run. It asserts that each
run exits 0 and that its last line is the result object with every
end-to-end (or per-layer) metric, each with the unit ``BENCHMARK.json``
gives it. It also asserts that the traced run wrote its spans. Takes about
two minutes on one CPU.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2",
           "--trace", str(trace), "--scale", "tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if p.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {p.returncode}:\n{p.stderr[-3000:]}")
    lines = p.stdout.strip().splitlines()
    host = json.loads(lines[-2])["host"]
    for key in ("nproc", "mem_total_mb", "loadavg_before", "loadavg_after",
                "python", "ray", "pyarrow", "git_sha", "sizing"):
        assert key in host, f"host fingerprint lacks {key}"
    return json.loads(lines[-1])


def _assert_metrics(result: dict, wanted: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, (
        f"{label}: metric names differ: {sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], f"{label}: {m['name']} unit {v['unit']} != {m['unit']}"
        assert isinstance(v["value"], (int, float)), f"{label}: {m['name']} is not a number"
        print(f"  {m['name']} = {v['value']:.6g} {v['unit']}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    for w in WORKLOADS:
        print(f"{w} (end to end)")
        _assert_metrics(_run(w, 0), bench["end_to_end"], w)
    before = set(glob.glob(os.path.join(ROOT, ".perfbench", "samples", "*.spans.json")))
    first = bench["workloads"][0]["name"]
    print(f"{first} (traced)")
    _assert_metrics(_run(first, 1), bench["per_layer"], f"{first} traced")
    after = set(glob.glob(os.path.join(ROOT, ".perfbench", "samples", "*.spans.json")))
    assert after - before, "the traced run wrote no span file"
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
