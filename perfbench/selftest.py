#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Run from the root of a source checkout; it takes about a minute.  For every
workload it makes one untraced and two traced runs with ``--toy`` and checks
that each run exits 0, ends with a correct result line, and emits exactly the
metrics BENCHMARK.json names with their units, and that every count metric
reads the same in both traced runs.  It then copies BENCHMARK.json and the
benchmark's files, without the package, into ``perfbench/out/bare`` and
checks that the benchmark fails there without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _declared(spec: dict, key: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: _declared(spec, "end_to_end"), 1: _declared(spec, "per_layer")}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace in (0, 1, 1):
            done = _run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                errors.append(f"{where}: exit {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                errors.append(f"{where}: not correct\n{done.stderr}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                missing = sorted(set(expected[trace]) - set(units))
                extra = sorted(set(units) - set(expected[trace]))
                wrong = sorted(n for n in units if n in expected[trace] and units[n] != expected[trace][n])
                errors.append(f"{where}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
            if trace:
                counts.append({
                    name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"
                })
            print(f"ok: {where}", file=sys.stderr)
        if len(counts) == 2 and counts[0] != counts[1]:
            errors.append(f"{workload}: count metrics differ between runs: {counts}")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = _run(bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or '"correct"' in done.stdout:
        errors.append(f"without the package the benchmark exited {done.returncode}: {done.stdout}")
    shutil.rmtree(bare)

    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
