"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload necklace --seeds 1-10 [--seconds 10]

Runs ``run.py`` once per seed and prints, per metric, the median and the
interquartile range as a share of the median (``statistics.quantiles(n=4)``),
next to the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import checkout


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    bench = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(checkout.BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()[-1]
        result = json.loads(out)
        if not result["correct"]:
            print(f"seed {seed}: incorrect ({result['failed']}/{result['attempted']} failed)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(
            f"seed {seed} ({time.perf_counter() - t0:.1f} s): "
            + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True,
        )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med
        print(f"{args.workload:15s} {name:14s} median {med:12.5g}  spread {spread:6.3f}  bound {bounds.get(name)}")


if __name__ == "__main__":
    main()
