"""Layered benchmark for isoprod.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs the four workloads one after another.  For each, it
generates the workload's inputs from the seed (outside every timed region),
times set-up in fresh interpreters, runs the workload in a fresh process
and prints every metric with its unit.  Times are scaled to a reference
host speed by probes timed next to the work (``hostspeed.py``), because the
host is shared and its speed swings.  The last line of standard output
is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  Everything it writes goes under ``.perfbench/``
in the checkout.  Workloads, metrics and the reasons behind them are in
``perfbench/design.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import checkout
import gen
import hostspeed

WORKLOADS = tuple(gen.WORKLOADS)
SETUP_SAMPLES = 11
# Batches every run completes at least, so the tail percentile below always
# has ten items beyond it; the percentile is fixed per workload so runs of
# different speed compare the same rank.
MIN_BATCHES = {"cli_sample": 5, "catalog_pairs": 3, "necklace": 3, "big_stabilizer": 4}

SELF_TIME = {
    "groups.enumerate_s": ["groups.FiniteGroup.from_generators"],
    "groups.extend_action_s": ["groups.FiniteGroup.extend_action"],
    "groups.orbits_s": ["groups.orbits"],
    "groups.subgroup_closure_s": ["groups.FiniteGroup.subgroup_closure"],
    "groups.trace_s": ["groups.invariant_dimension_trace"],
    "actions.validate_s": ["actions.validate_action"],
    "actions.t1_equivariant_s": ["actions.t1_equivariant"],
    "actions.oracle_s": ["actions.t1_equivariant_oracle"],
    "actions.quotient_signatures_s": ["actions.quotient_signatures"],
    "curves.build_graph_s": ["curves.build_graph"],
    "families.smoothing_chain_s": ["families.smoothing_chain"],
    "families.check_constancy_s": ["families.check_constancy"],
    "surfaces.fixed_point_profile_s": ["surfaces.fixed_point_profile"],
    "surfaces.freeness_s": ["surfaces.check_free_action", "surfaces.check_free_codim1"],
    "surfaces.certify_s": ["surfaces.certify_degeneration"],
    "surfaces.invariants_s": ["surfaces.surface_invariants"],
    "surfaces.kuranishi_s": ["surfaces.kuranishi_dimension"],
}
CALLS = {
    "groups.mul_calls": "groups.FiniteGroup.mul",
    "groups.inverse_calls": "groups.FiniteGroup.inverse",
    "groups.index_of_calls": "groups.FiniteGroup.index_of",
    "groups.conjugate_subgroup_calls": "groups.FiniteGroup.conjugate_subgroup",
    "groups.subgroup_closure_calls": "groups.FiniteGroup.subgroup_closure",
    "cyclotomic.root_of_unity_sum_calls": "cyclotomic.root_of_unity_sum",
    "actions.validate_calls": "actions.validate_action",
    "curves.connected_components_calls": "curves.connected_components",
    "families.smooth_node_orbit_calls": "families.smooth_node_orbit",
    "surfaces.fixed_point_profile_calls": "surfaces.fixed_point_profile",
}
STAGES_MS = (
    "cli.import_ms", "document.import_ms", "document.decode_ms", "document.schema_ms",
    "document.parse_ms", "cli.run_ms", "cli.render_ms",
)
UNITS = {"_s": "s", "_ms": "ms", "_calls": "count", "_mib": "MiB", "_frac": "ratio"}


def unit(name):
    if name.startswith("actions.validate_s."):
        return "s"
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def tail_percentile(workload, items_per_batch):
    """Highest whole percentile with at least ten items beyond it, at the
    fewest items a run makes (``MIN_BATCHES`` batches)."""
    n = MIN_BATCHES[workload] * items_per_batch
    return max(50, (100 * (n - 10)) // n)


def nearest_rank(values, pct):
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * pct // 100))
    return ordered[k - 1]


def inputs_for(workload, seed):
    """Generated inputs, cached per (workload, seed, generator source)."""
    base = checkout.OUT / "inputs" / f"{workload}-seed{seed}-{gen.source_digest()}"
    inputs, groups = base.with_suffix(".json"), base.with_suffix(".groups.json")
    if not (inputs.is_file() and groups.is_file()):
        doc = gen.generate(workload, seed)
        base.parent.mkdir(parents=True, exist_ok=True)
        inputs.write_text(gen.dumps(doc))
        groups.write_text(json.dumps(doc["groups"], sort_keys=True))
    return inputs, groups


def worker_cmd(mode, args, **extra):
    cmd = [sys.executable, str(checkout.BENCH / "worker.py"), mode, "--workload", args.workload]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    return cmd


def setup_time(args, groups):
    """Seconds from spawning a fresh interpreter until it reports ready,
    scaled to the reference host speed by bare interpreter starts right
    before and after (``hostspeed``)."""
    env = checkout.child_env()
    before = hostspeed.measure_start(env, checkout.ROOT)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        worker_cmd("setup", args, groups=groups),
        stdout=subprocess.PIPE, text=True, env=env, cwd=checkout.ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed * hostspeed.scale(before, hostspeed.measure_start(env, checkout.ROOT), hostspeed.START_REF_MS)


def end_to_end(workload, raw, setup):
    pct = tail_percentile(workload, raw["items_per_batch"])
    # every latency scaled to the reference host speed (hostspeed.py)
    lat = [ms for samples in raw["scaled_ms"].values() for ms in samples]
    metrics = {
        # the batch's time to all verdicts, taken item by item as the median
        # over the run's batches
        "wall_s": sum(statistics.median(v) for v in raw["scaled_ms"].values()) / 1000,
        "item_p50_ms": statistics.median(lat),
        "item_tail_ms": nearest_rank(lat, pct),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": raw["peak_rss_mib"],
    }
    info = {
        "tail_percentile": pct,
        "items": len(lat),
        "batches": len(raw["batch_walls"]),
        "items_per_batch": raw["items_per_batch"],
        "fail_frac": raw["failed"] / raw["attempted"],
        "wall_s_unscaled": sum(statistics.median(v) for v in raw["item_ms"].values()) / 1000,
        "setup_samples_s": setup,
    }
    return metrics, info


def per_layer(workload, raw):
    traced = raw["traced"]
    counts, own = {}, {}
    sources = [traced["process"]]
    if workload == "cli_sample":
        # the library work of cli_sample happens in its CLI children
        sources += traced["cli"]
    for src in sources:
        for name, n in src["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, s in src["self_s"].items():
            own[name] = own.get(name, 0.0) + s
    metrics = {m: sum(own.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
    metrics.update({m: counts.get(n, 0) for m, n in CALLS.items()})
    metrics["cli.interpreter_ms"] = statistics.median(traced["interpreter_ms"])
    for stage in STAGES_MS:
        metrics[stage] = statistics.median(s["stages"][stage] for s in traced["cli"])
    metrics["trace.overhead_frac"] = traced["wall_s"] / statistics.median(raw["batch_walls"]) - 1
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="Layered isoprod benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", action="store_true", help="self-test: plant a wrong reference answer")
    args = parser.parse_args(argv)
    try:
        checkout.require_source()
    except checkout.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    hostspeed.pin_to_one_core()
    if args.workload != "all":
        return run_workload(args)
    for workload in WORKLOADS:
        args.workload = workload
        if run_workload(args):
            return 1
    return 0


def run_workload(args):
    """One workload: set-up probes, the workload process, metrics, result line."""
    inputs, groups = inputs_for(args.workload, args.seed)
    setup_time(args, groups)  # warm-up: bytecode caches, file cache
    setup = [setup_time(args, groups) for _ in range(SETUP_SAMPLES)]

    out = checkout.OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    raw_path = out.with_suffix(".raw.json")
    cmd = worker_cmd(
        "run", args, inputs=inputs, seed=args.seed, seconds=args.seconds,
        min_batches=MIN_BATCHES[args.workload], trace=args.trace, out=raw_path,
    ) + (["--plant"] if args.plant else [])
    proc = subprocess.run(cmd, env=checkout.child_env(), cwd=checkout.ROOT, timeout=170)
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(raw_path.read_text())

    metrics, info = end_to_end(args.workload, raw, setup)
    layers = per_layer(args.workload, raw) if args.trace else {}
    # validate_action per item size (untraced medians): actions.validate_s.n200 ...
    extras = {
        f"actions.validate_s.{label}": statistics.median(times)
        for label, times in raw["validate_s"].items()
    } if args.workload in ("necklace", "big_stabilizer") else {}

    print(f"workload {args.workload}  seed {args.seed}  isoprod {raw['env']['isoprod_file']}")
    print(f"env {json.dumps(raw['env'], sort_keys=True)}")
    for name, value in {**metrics, **layers, **extras}.items():
        print(f"{name:40s} {value:>16.6f} {unit(name)}")
    print(f"{'fail_frac':40s} {info['fail_frac']:>16.6f} ratio  ({raw['failed']}/{raw['attempted']} items)")
    print(
        f"item_tail_ms is p{info['tail_percentile']} of {info['items']} items "
        f"({info['batches']} batches of {info['items_per_batch']})"
    )
    print(f"wall_s before scaling to the reference host speed: {info['wall_s_unscaled']:.6f} s")
    for failure in raw["failures"]:
        print(f"FAILED {failure}")

    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": raw["env"], "end_to_end": metrics, "per_layer": layers, "per_item_size": extras,
        "info": info, "attempted": raw["attempted"], "failed": raw["failed"], "failures": raw["failures"],
    }, indent=2, sort_keys=True))

    chosen = layers if args.trace else metrics
    print(json.dumps({
        "correct": raw["failed"] == 0 and raw.get("cross_check", True),
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
