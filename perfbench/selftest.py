"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

1. One seed gives byte-identical inputs; another seed gives other inputs.
2. A planted wrong reference answer makes items fail (fail_frac > 0),
   while the unplanted run has none.
3. The ``_calls`` counts of two traced runs of one seed are identical.
4. In a directory holding only BENCHMARK.json and perfbench/ (no source to
   measure) the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import checkout
import gen


def run(*args, cwd=None, script=checkout.BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def result(workload, seed, *extra):
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1", *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    for workload in gen.WORKLOADS:
        assert gen.digest(workload, 7) == gen.digest(workload, 7), workload
        if workload != "cli_sample" or gen.CLI_ROUNDS > 1:
            assert gen.digest(workload, 7) != gen.digest(workload, 8), workload
    print("ok: inputs are a function of the seed")

    for workload in ("catalog_pairs", "cli_sample"):
        clean = result(workload, 3)
        planted = result(workload, 3, "--plant")
        assert clean["correct"] and clean["failed"] == 0, clean
        assert not planted["correct"] and planted["failed"] > 0, planted
        print(f"ok: {workload}: planted answer fails {planted['failed']}/{planted['attempted']} items")

    for workload in ("catalog_pairs", "big_stabilizer", "cli_sample"):
        first, second = (result(workload, 5, "--trace", "1") for _ in range(2))
        calls = [
            {k: v["value"] for k, v in r["metrics"].items() if k.endswith("_calls")}
            for r in (first, second)
        ]
        assert calls[0] == calls[1], calls
        print(f"ok: {workload}: {len(calls[0])} call counts repeat across two traced runs")

    bare = checkout.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(checkout.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(checkout.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(
        "--workload", "necklace", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=bare, script=bare / "perfbench" / "run.py",
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok: without a source tree the benchmark exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    main()
