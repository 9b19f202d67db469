"""Self-test of the benchmark: a tiny pass of each workload.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that

* every workload, the ungated ``warm_replay`` too, prints untraced and
  traced exactly the metrics that ``BENCHMARK.json`` names, each with its
  unit, and reports no failure;
* the same seed simulates the same outcome in both of those runs (the
  ``outputs_digest`` line, which covers every simulator counter);
* a planted fault -- one record of a copy of the warm store cut in half,
  which turns a replay into an execution -- is counted as a failure;
* without the program's sources the benchmark exits non-zero and prints no
  result.

It takes about three minutes on a 2-CPU host.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: The gated workloads, plus warm_replay, which the planted fault needs.
WORKLOADS = list(dict.fromkeys([*(w["name"] for w in SPEC["workloads"]), "warm_replay"]))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: List[str], cwd: Path = ROOT) -> Tuple[int, List[str]]:
    """Run the benchmark command with ``args``; returns (exit code, stdout lines)."""
    completed = subprocess.run(
        [*SPEC["command"], *args], cwd=str(cwd), capture_output=True, text=True, timeout=600
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr[-3000:])
    return completed.returncode, completed.stdout.strip().splitlines()


def result_of(lines: List[str]) -> Dict[str, Any]:
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def check_metrics(result: Dict[str, Any], expected: List[Dict[str, str]]) -> List[str]:
    """Problems with the printed metrics against the BENCHMARK.json list."""
    problems = []
    printed = result["metrics"]
    wanted = {metric["name"]: metric["unit"] for metric in expected}
    if set(printed) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(printed) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = printed.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main() -> int:
    failures: List[str] = []

    def expect(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message, flush=True)
        if not condition:
            failures.append(message)

    for workload in WORKLOADS:
        digests = set()
        for trace, expected in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            label = f"{workload} --trace {trace}"
            code, lines = run(
                ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace]
            )
            expect(code == 0, f"{label}: exit code {code}")
            if code != 0:
                continue
            digests.update(line for line in lines if line.startswith("outputs_digest"))
            result = result_of(lines)
            problems = check_metrics(result, expected)
            expect(not problems, f"{label}: metrics {problems or 'as listed'}")
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{label}: {result['failed']} of {result['attempted']} failed",
            )
            if trace == "0":
                nonzero = all(entry["value"] > 0 for entry in result["metrics"].values())
                expect(nonzero, f"{label}: every end-to-end metric is above 0")
        expect(len(digests) == 1, f"{workload}: one outputs_digest for one seed, got {digests}")

    code, lines = run(
        ["--workload", "warm_replay", "--seed", "7", "--seconds", "1", "--trace", "0",
         "--fault", "truncated-shard"]
    )
    expect(code == 0, f"planted fault: exit code {code}")
    if code == 0:
        result = result_of(lines)
        expect(
            result["failed"] > 0 and not result["correct"],
            f"planted fault: {result['failed']} of {result['attempted']} requests failed",
        )

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines = run(
            ["--workload", WORKLOADS[0], "--seed", "7", "--seconds", "1", "--trace", "0"],
            cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed_result = bool(lines) and lines[-1].startswith("{")
    expect(code != 0 and not printed_result, f"without sources: exit code {code}, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
