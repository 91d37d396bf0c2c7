"""Workload process: one fresh interpreter per run.

``worker.py setup`` imports isoprod (and ``isoprod.cli`` on ``cli_sample``),
enumerates the workload's groups and prints ``ready``; the caller times it
from process start.  ``worker.py run`` repeats the workload's fixed batch
sequentially (one client, closed loop) until the time is up, checks every
answer against the generator's reference, and with ``--trace 1`` then runs
one traced pass over the same batch.  It writes its raw measurements as
JSON; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import checkout


class Mismatch(Exception):
    """An answer disagreed with its reference."""


def check(ok, what):
    if not ok:
        raise Mismatch(what)


def build_groups(iso, specs):
    return {
        name: iso.FiniteGroup.from_generators([tuple(g) for g in spec["generators"]], spec["degree"])
        for name, spec in sorted(specs.items())
    }


def setup_main(args):
    iso = checkout.import_isoprod(with_cli=args.workload == "cli_sample")
    with open(args.groups) as fh:
        build_groups(iso, json.load(fh))
    print("ready", flush=True)


# ----------------------------------------------------------------------------
# item preparation (harness side, outside every timed region)


def prepare(iso, groups, spec):
    from fractions import Fraction

    G = groups[spec["group"]]

    def el(perm):
        return G.index_of(tuple(perm))

    return {
        "label": spec["label"],
        "group": spec["group"],
        "inert": spec.get("inert", False),
        "genera": spec["genera"],
        "hev": spec["half_edge_vertex"],
        "edges": [tuple(e) for e in spec["edges"]],
        "vimgs": [tuple(x) for x in spec["vertex_images"]],
        "himgs": [tuple(x) for x in spec["half_edge_images"]],
        "tangent": {(el(g), h): Fraction(*c) for g, h, c in spec.get("tangent", [])},
        "smoothing": {(el(g), n): Fraction(*c) for g, n, c in spec.get("smoothing", [])},
        "kernels": {int(v): [el(g) for g in ks] for v, ks in spec.get("kernels", {}).items()},
        "ram": [(v, el(g), Fraction(*c), e) for v, g, c, e in spec.get("ram", [])],
        "ram_elements": sorted({el(g) for _, g, _, _ in spec.get("ram", [])}),
        "expect": spec["expect"],
        "family_smooth_genus": spec.get("family_smooth_genus"),
    }


# ----------------------------------------------------------------------------
# pipelines and reference checks


def build_action(iso, G, it):
    graph = iso.build_graph(it["genera"], it["hev"], it["edges"])
    if it["inert"]:
        return iso.inert_action(G, graph)
    return iso.validate_action(
        G, graph, it["vimgs"], it["himgs"],
        tangent_chars=it["tangent"],
        smoothing_chars=it["smoothing"],
        kernels=it["kernels"],
        ramification_orbits=[iso.RamificationOrbit(*r) for r in it["ram"]],
    )


def query_action(iso, action, exp):
    """T1 against the oracle and the generator's closed forms; returns the total."""
    t1 = iso.t1_equivariant(action)
    oracle = iso.t1_equivariant_oracle(action)
    check(t1 == oracle, f"t1_equivariant {t1} != oracle {oracle}")
    if "total" in exp:
        check(t1.total == exp["total"], f"T1 total {t1.total} != {exp['total']}")
    check(iso.arithmetic_genus(action.graph) == exp["genus"], "arithmetic genus")
    sigs = sorted([s.g_prime, s.b] for s in iso.quotient_signatures(action))
    check(sigs == exp["signatures"], f"quotient signatures {sigs} != {exp['signatures']}")
    return t1.total


def check_chain(iso, chain, total, genus, steps=None):
    """T1 constant and genus preserved along a smoothing chain."""
    if steps is not None:
        check(len(chain.strata) == steps and not chain.obstructions, "chain length")
    for stratum in chain.strata:
        check(iso.arithmetic_genus(stratum.action.graph) == genus, "genus not preserved")
    if len(chain.strata) >= 2:
        report = iso.check_constancy(chain.strata)
        check(
            report.verdict == "constant" and report.constant_value == total,
            f"constancy {report.verdict} {report.constant_value} != {total}",
        )


def check_pair(iso, a, b, totals, genera, order, free=None, codim1=None):
    surface = iso.build_surface(a, b)
    f = iso.check_free_action(surface)
    c = iso.check_free_codim1(surface)
    check(c.passed or not f.passed, "free but not free in codimension 1")
    if free is not None:
        check(f.passed == free, f"freeness {f.passed} != {free}")
    if codim1 is not None:
        check(c.passed == codim1, f"codim-1 freeness {c.passed} != {codim1}")
    cert = iso.certify_degeneration(surface)
    check(cert.passed == c.passed, "certificate disagrees with codim-1 freeness")
    if c.passed:
        k = iso.kuranishi_dimension(surface)
        check(k.total == totals[0] + totals[1], "Kuranishi total != sum of factor totals")
    else:
        try:
            iso.kuranishi_dimension(surface)
        except iso.SurfaceError:
            pass
        else:
            raise Mismatch("kuranishi_dimension accepted a pair not free in codimension 1")
    if f.passed:
        from fractions import Fraction

        chi = Fraction((genera[0] - 1) * (genera[1] - 1), order)
        inv = iso.surface_invariants(surface)
        check(chi.denominator == 1, "chi not integral for a free pair")
        check(
            (inv.chi, inv.k_squared, inv.euler) == (chi, 8 * chi, 4 * chi),
            "K^2 = 8 chi, e = 4 chi",
        )


class Library:
    """catalog_pairs, necklace and big_stabilizer: items are pipelines."""

    def __init__(self, iso, workload, groups, items, plant):
        self.iso = iso
        self.workload = workload
        self.groups = groups
        self.items = items
        if plant:
            items[0]["expect"] = dict(items[0]["expect"], genus=items[0]["expect"]["genus"] + 1)

    def units(self):
        """The batch as (label, callable) pairs, run in this order."""
        if self.workload != "catalog_pairs":
            return [(it["label"], self._single(it)) for it in self.items]
        units, by_group = [], {}
        for it in self.items:
            by_group.setdefault(it["group"], []).append(it)
        for name, its in by_group.items():
            state = {}
            for it in its:
                units.append((it["label"], self._catalog_action(it, state)))
            for a in its:
                for b in its:
                    units.append((f"{a['label']}|{b['label']}", self._catalog_pair(a, b, state)))
        return units

    def _single(self, it):
        iso, exp = self.iso, it["expect"]

        def run(record):
            G = self.groups[it["group"]]
            t0 = time.perf_counter()
            action = build_action(iso, G, it)
            record["validate_s"] = time.perf_counter() - t0
            total = query_action(iso, action, exp)
            if it["inert"]:
                check(total == iso.t1_dimension(action.graph).total, "inert total != 3g - 3")
            if self.workload == "necklace":
                check_chain(iso, iso.smoothing_chain(action), total, exp["genus"], exp["edge_orbits"] + 1)
            elif it["family_smooth_genus"] is not None:
                # the smoothed stratum supplied explicitly (the smoothing code
                # stops at nodes under a kernel): constancy across the family,
                # and the smooth stratum is terminal
                smooth = iso.inert_action(G, iso.build_graph([it["family_smooth_genus"]], [], []))
                report = iso.check_constancy([
                    iso.FamilyStratum("nodal", action), iso.FamilyStratum("smooth", smooth),
                ])
                check(report.verdict == "constant" and report.constant_value == total, "family constancy")
                check_chain(iso, iso.smoothing_chain(smooth), total, exp["genus"], 1)
            if self.workload == "big_stabilizer":
                profile = iso.fixed_point_profile(action)
                if it["inert"]:
                    check(all(p.fixes_component for p in profile.values()), "inert profile")
                elif exp["free"]:
                    check(not any(p.has_fixed_point for p in profile.values()), "free profile")
                for h in it["ram_elements"]:
                    check(profile[h].has_fixed_point, f"ramification element {h} without fixed point")
            check_pair(
                iso, action, action, (total, total), (exp["genus"],) * 2, G.order,
                free=exp["free"], codim1=not exp["kernel"],
            )

        return run

    def _catalog_action(self, it, state):
        iso, exp = self.iso, it["expect"]

        def run(record):
            state.pop(it["label"], None)
            t0 = time.perf_counter()
            action = build_action(iso, self.groups[it["group"]], it)
            record["validate_s"] = time.perf_counter() - t0
            total = query_action(iso, action, exp)
            check_chain(iso, iso.smoothing_chain(action), total, exp["genus"])
            state[it["label"]] = (action, total)

        return run

    def _catalog_pair(self, a, b, state):
        iso = self.iso

        def run(record):
            if a["label"] not in state or b["label"] not in state:
                raise Mismatch("factor action failed")
            (fa, ta), (fb, tb) = state[a["label"]], state[b["label"]]
            check_pair(
                iso, fa, fb, (ta, tb), (a["expect"]["genus"], b["expect"]["genus"]),
                self.groups[a["group"]].order,
                free=True if a["expect"]["free"] and b["expect"]["free"] else None,
                codim1=True if not (a["expect"]["kernel"] or b["expect"]["kernel"]) else None,
            )

        return run


def lookup(data, path):
    for key in path.split("."):
        data = data[int(key)] if isinstance(data, list) else data[key]
    return data


def check_cli_output(ref, proc):
    check(proc.returncode == ref["exit"], f"exit code {proc.returncode} != {ref['exit']}")
    out = json.loads(proc.stdout)
    for path in ref.get("present", []):
        lookup(out, path)
    for path, value in ref.get("equal", {}).items():
        got = lookup(out, path)
        check(got == value, f"{path}: {got!r} != {value!r}")


class Cli:
    """cli_sample: items are CLI child processes."""

    DOC = checkout.BENCH / "data" / "quartic_node.json"

    def __init__(self, iso, rounds, plant):
        import subprocess  # here, not at the top: set-up probes import this module

        self.subprocess = subprocess
        self.iso = iso
        with open(checkout.BENCH / "data" / "cli_reference.json") as fh:
            self.ref = json.load(fh)
        if plant:
            self.ref["commands"]["genus"]["exit"] = 2
        self.rounds = rounds
        self.env = checkout.child_env()
        probe = subprocess.run(
            [sys.executable, "-c", "import isoprod; print(isoprod.__file__)"],
            env=self.env, cwd=checkout.ROOT, capture_output=True, text=True, timeout=60,
        )
        checkout.check_location(probe.stdout.strip())
        self.next_round = 0

    def cross_check(self):
        """The reference totals, recomputed in-process by the Burnside oracle."""
        doc = self.iso.parse_document(self.DOC.read_text())
        for name, total in self.ref["oracle_totals"].items():
            check(self.iso.t1_equivariant_oracle(doc.actions[name]).total == total, f"oracle {name}")

    def units(self):
        order = self.rounds[self.next_round % len(self.rounds)]
        self.next_round += 1
        return [(cmd, self._command(cmd)) for cmd in order]

    def _command(self, cmd, shim_out=None):
        def run(record):
            if shim_out is None:
                argv = [sys.executable, "-m", "isoprod.cli"]
            else:
                argv = [sys.executable, str(checkout.BENCH / "cli_shim.py"), shim_out]
            proc = self.subprocess.run(
                argv + [cmd, str(self.DOC), "--json"],
                env=self.env, cwd=checkout.ROOT, capture_output=True, text=True, timeout=60,
            )
            check_cli_output(self.ref["commands"][cmd], proc)

        return run

    def traced_units(self, trace_dir, tag):
        order = self.rounds[0]
        return [
            (cmd, self._command(cmd, str(trace_dir / f"{tag}-cli-{i}.json")))
            for i, cmd in enumerate(order)
        ]

    def interpreter_ms(self, n=5):
        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            self.subprocess.run([sys.executable, "-c", "pass"], env=self.env, cwd=checkout.ROOT, timeout=60)
            out.append((time.perf_counter() - t0) * 1000)
        return out


def run_units(units, result, probe=None):
    """Run one batch; returns its wall time in seconds.  With a host-speed
    ``probe``, each item's latency is also recorded scaled to the reference
    host speed (``hostspeed``)."""
    t_batch = time.perf_counter()
    for label, fn in units:
        record = {}
        started = probe.start() if probe else None
        t0 = time.perf_counter()
        try:
            fn(record)
            ok = True
        except Exception as exc:  # any raise the item did not expect is a failure
            ok = False
            if len(result["failures"]) < 20:
                result["failures"].append(f"{label}: {type(exc).__name__}: {exc}")
        dt = time.perf_counter() - t0
        factor = 1.0
        if probe:
            dt, scaled = probe.stop(started)
            factor = scaled / dt
            result["scaled_ms"].setdefault(label, []).append(scaled * 1000)
        result["attempted"] += 1
        result["failed"] += not ok
        result["item_ms"].setdefault(label, []).append(dt * 1000)
        if "validate_s" in record:
            result["validate_s"].setdefault(label, []).append(record["validate_s"] * factor)
    return time.perf_counter() - t_batch


def run_main(args):
    import resource

    import hostspeed
    import tracer as tracing

    hostspeed.pin_to_one_core()

    iso = checkout.import_isoprod(with_cli=args.workload == "cli_sample")
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    groups = build_groups(iso, inputs["groups"])
    result = {
        "env": checkout.environment(iso.__file__),
        "attempted": 0, "failed": 0, "failures": [],
        "item_ms": {}, "scaled_ms": {}, "batch_walls": [], "validate_s": {},
    }
    if args.workload == "cli_sample":
        bench = Cli(iso, inputs["rounds"], args.plant)
        try:
            bench.cross_check()
            result["cross_check"] = True
        except Exception as exc:
            result["cross_check"] = False
            result["failures"].append(f"oracle cross-check: {type(exc).__name__}: {exc}")
    else:
        items = [prepare(iso, groups, spec) for spec in inputs["items"]]
        bench = Library(iso, args.workload, groups, items, args.plant)

    if isinstance(bench, Cli):
        # the child shares the core, so readings only between items
        probe = hostspeed.Probe(
            lambda: hostspeed.measure_start(bench.env, checkout.ROOT), hostspeed.START_REF_MS, within=False,
        )
    else:
        probe = hostspeed.Probe(hostspeed.measure, hostspeed.REF_MS, within=True)
    start = time.perf_counter()
    while len(result["batch_walls"]) < args.min_batches or time.perf_counter() - start < args.seconds:
        result["batch_walls"].append(run_units(bench.units(), result, probe))
    result["items_per_batch"] = result["attempted"] // len(result["batch_walls"])
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_sample" else resource.RUSAGE_SELF
    result["peak_rss_mib"] = resource.getrusage(usage).ru_maxrss / 1024

    if args.trace:
        trace_dir = checkout.OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}"
        traced_result = {"attempted": 0, "failed": 0, "failures": [], "item_ms": {}, "validate_s": {}}
        if isinstance(bench, Cli):
            cli = bench
        else:
            import gen

            cli = Cli(iso, [list(gen.CLI_COMMANDS)], False)
        T = tracing.Tracer()
        T.install()
        try:
            if isinstance(bench, Cli):
                traced_wall = run_units(cli.traced_units(trace_dir, tag), traced_result)
                bench.cross_check()
            else:
                with T.span("bench.setup"):
                    bench.groups = build_groups(iso, inputs["groups"])
                traced_wall = run_units(bench.units(), traced_result)
        finally:
            T.uninstall()
        T.dump(trace_dir / f"{tag}.json")
        if not isinstance(bench, Cli):
            # the CLI stage metrics come from one traced round on every workload
            run_units(cli.traced_units(trace_dir, tag), traced_result)
        shims = []
        for i in range(len(cli.rounds[0])):
            with open(trace_dir / f"{tag}-cli-{i}.json") as fh:
                shims.append(json.load(fh))
        result["traced"] = {
            "wall_s": traced_wall,
            "process": T.totals(),
            "cli": shims,
            "interpreter_ms": cli.interpreter_ms(),
        }
        result["attempted"] += traced_result["attempted"]
        result["failed"] += traced_result["failed"]
        result["failures"] += traced_result["failures"]
    with open(args.out, "w") as fh:
        json.dump(result, fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--groups")
    parser.add_argument("--inputs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-batches", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--plant", action="store_true", help="plant a wrong reference answer")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    try:
        (setup_main if args.mode == "setup" else run_main)(args)
    except checkout.CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
