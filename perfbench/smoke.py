"""Smoke test of the benchmark: each workload once, untraced and traced.

    python3 perfbench/smoke.py

Checks that every run exits 0, passes its output checks and reports each
metric BENCHMARK.json names, with its unit, and that the benchmark exits
non-zero without a result in a directory that holds only BENCHMARK.json
and the benchmark's own files.  Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_run(workload, trace, wanted):
    proc = run(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace])
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{label}: result keys {sorted(result)}"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}\n{proc.stderr[-2000:]}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(result['metrics']) ^ {m['name'] for m in wanted})}")
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            continue
        value = got["value"]
        if got["unit"] != metric["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{label}: {metric['name']} = {got}")
        elif trace == "0" and value == 0:
            problems.append(f"{label}: {metric['name']} is 0")
    return problems


def check_bare(spec):
    """Without corrls sources the benchmark must fail and print no result."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "0",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare(spec)
    for workload in spec["workloads"]:
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            problems += check_run(workload["name"], trace, wanted)
            print(f"ran {workload['name']} --trace {trace}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
