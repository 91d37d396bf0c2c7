"""Command line interface.

Every subcommand reads one JSON document.  ``validate`` summarizes the
whole document; every other command runs over the items of one document
section (curves, actions, surfaces or families) in sorted name order, as
described by its entry in ``_SPECS``.  One loop runs every item: an item
whose computation raises an ``IsoprodError`` becomes ``{"error": message}``
in the machine block and one error row or line in the human block.

Exit codes: 1 when some item failed (or the input did), otherwise 2 when
some certificate or constancy verdict is negative, otherwise 0.  ``--json``
emits the machine block ``{command, items[, note]}`` only; the default
prints the human block, a blank line and the machine block.

The environment variable ISOPROD_GROUP_CAP overrides the group-order cap.

``check-family`` and ``smooth`` import ``isoprod.families`` when they run,
so the other commands never load it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from . import __version__
from .actions import quotient_signatures, t1_equivariant
from .curves import arithmetic_genus, t1_dimension
from .document import Document, emit_document, parse_document
from .errors import DocumentError, IsoprodError
from .groups import DEFAULT_GROUP_CAP, format_perm
from .surfaces import certify_degeneration, kuranishi_dimension, surface_invariants


def _plain(x: Any) -> Any:
    """JSON-able form of a result: a record (a named tuple) becomes a dict
    field by field, any other tuple a list, a Fraction an int or "a/b"."""
    if hasattr(x, "_fields"):  # before the tuple test: a record is a tuple
        return {k: _plain(v) for k, v in zip(x._fields, x)}
    if isinstance(x, tuple):
        return [_plain(v) for v in x]
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers), fmt.format(*["-" * w for w in widths])]
    lines.extend(fmt.format(*row) for row in rows)
    return lines


def _error_row(known: list[str], error: str, width: int) -> list[str]:
    """A table row for a failed computation: the known cells, "-" up to the
    last column, and the error message there."""
    return [*known, *["-"] * (width - len(known) - 1), error]


def _row(*keys: str) -> Callable[[str, dict], list[list[str]]]:
    """Rows of an item that prints as its name followed by ``d[key]`` cells
    (None prints as "not computed")."""
    return lambda name, d: [
        [name, *("not computed" if d[k] is None else str(d[k]) for k in keys)]
    ]


class _Command(NamedTuple):
    """One subcommand (its ``--help`` line is ``help``) over document section ``section``.

    ``compute(doc, name)`` returns the item's machine dict.  A table command
    names its ``columns`` and ``render(name, d)`` returns the item's rows; a
    line command has ``columns == ()`` and ``render`` returns its lines.
    ``outcome(d)`` is 0, 1 for a failure reported inside the item, or 2 for
    a negative verdict.  Library functions are looked up when called, never
    bound here, so patching a module global reaches every command.
    """

    help: str
    section: str
    columns: tuple[str, ...]
    compute: Callable[[Document, str], dict]
    render: Callable[[str, dict], list]
    outcome: Callable[[dict], int] = lambda d: 0


def _quotient(doc: Document, name: str) -> dict:
    vertices = doc.names_for_action(name).vertices
    return {
        "signatures": [
            {**_plain(s), "representative": vertices[s.representative]}
            for s in quotient_signatures(doc.actions[name])
        ]
    }


def _check_family(doc: Document, name: str) -> dict:
    from .families import FamilyStratum, check_constancy

    strata = [FamilyStratum(label, doc.actions[label]) for label in doc.families[name]]
    report = _plain(check_constancy(strata))
    for s in report["strata"]:
        t1, error = s.pop("t1"), s.pop("error")
        s.update(t1 or {"error": error})
    return report


def _family_lines(name: str, d: dict) -> list[str]:
    if d["verdict"] == "constant":
        head = f"{name}: constant at {d['constant_value']}"
    elif d["verdict"] == "violation":
        a, b = d["offending"]
        head = f"{name}: VIOLATION between strata {a!r} and {b!r}"
    else:
        head = f"{name}: error in some stratum"
    columns = ["stratum", "delta", "genus", "node", "branch", "quotient", "total"]
    rows = []
    for s in d["strata"]:
        known = [s["label"], str(s["delta"])]
        if s["genus"] is not None:  # None: a disconnected stratum, which fails T1
            known.append(str(s["genus"]))
        if "error" in s:
            rows.append(_error_row(known, s["error"], len(columns)))
        else:
            rows.append(
                known + [str(s[k]) for k in ("node_inv", "branch_inv", "minus_chi_inv", "total")]
            )
    return [head, *("  " + line for line in _table(columns, rows))]


def _smooth(doc: Document, name: str) -> dict:
    from .families import smoothing_chain

    chain = smoothing_chain(doc.actions[name])
    return {
        "strata": [
            {
                "label": s.label,
                "delta": s.action.graph.n_edges,
                # None: a disconnected stratum, as check-family reports it
                "genus": (
                    arithmetic_genus(s.action.graph)
                    if len(s.action.graph.components) == 1
                    else None
                ),
                "ramification_orbits": len(s.action.ramification_orbits),
            }
            for s in chain.strata
        ],
        "obstructions": list(chain.obstructions),
    }


def _smooth_lines(name: str, d: dict) -> list[str]:
    steps = " -> ".join(f"{s['label']}(delta={s['delta']})" for s in d["strata"])
    return [f"{name}: {steps}", *(f"  obstruction: {o}" for o in d["obstructions"])]


def _certificate_lines(name: str, d: dict) -> list[str]:
    lines = [f"{name}: {'PASS' if d['passed'] else 'FAIL'}"]
    for c in d["conditions"]:
        status = "pass" if c["passed"] else "FAIL"
        lines.append(f"  [{status}] {c['key']}: {c['detail']}  ({c['citation']})")
    return lines


_SPECS = {
    "genus": _Command(
        "arithmetic genus of each curve",
        "curves", ("curve", "genus"),
        lambda doc, n: {"arithmetic_genus": arithmetic_genus(doc.curves[n])},
        _row("arithmetic_genus"),
    ),
    "t1": _Command(
        "deformation count per curve: node, branch and normalization pieces",
        "curves", ("curve", "delta", "branch", "-chi", "total"),
        lambda doc, n: _plain(t1_dimension(doc.curves[n])),
        _row("delta", "branch_term", "minus_chi", "total"),
    ),
    "t1-equivariant": _Command(
        "invariant deformation count per action: node, branch and quotient pieces",
        "actions", ("action", "node", "branch", "quotient", "total"),
        lambda doc, n: _plain(t1_equivariant(doc.actions[n])),
        _row("node_inv", "branch_inv", "minus_chi_inv", "total"),
    ),
    "quotient": _Command(
        "quotient genus and branch points of each component orbit, per action",
        "actions", ("action", "component", "g'", "b", "3g'-3+b"),
        _quotient,
        lambda name, d: [
            [name, s["representative"], *(str(s[k]) for k in ("g_prime", "b", "contribution"))]
            for s in d["signatures"]
        ],
    ),
    "surface-invariants": _Command(
        "chi, K^2, e, q and p_g of each surface with a free action",
        "surfaces", ("surface", "chi", "K^2", "e", "q", "p_g"),
        lambda doc, n: _plain(surface_invariants(doc.surfaces[n])),
        _row("chi", "k_squared", "euler", "q", "p_g"),
    ),
    "kuranishi": _Command(
        "invariant deformation count of each surface's two factors and their sum",
        "surfaces", ("surface", "factor1", "factor2", "total", ""),
        lambda doc, n: _plain(kuranishi_dimension(doc.surfaces[n])),
        lambda name, d: [
            [name, str(d["factor1"]["total"]), str(d["factor2"]["total"]), str(d["total"]), ""]
        ],
    ),
    "certify-degeneration": _Command(
        "stable-degeneration certificate of each surface, condition by condition",
        "surfaces", (),
        lambda doc, n: _plain(certify_degeneration(doc.surfaces[n])),
        _certificate_lines,
        lambda d: 0 if d["passed"] else 2,
    ),
    "check-family": _Command(
        "whether the invariant deformation count is constant over each family",
        "families", (), _check_family, _family_lines,
        lambda d: {"constant": 0, "violation": 2}.get(d["verdict"], 1),
    ),
    "smooth": _Command(
        "smooth each action's node orbits one at a time until smooth or stuck",
        "actions", (), _smooth, _smooth_lines,
    ),
}

COMMANDS = ("validate", *_SPECS)


def _validate(doc: Document) -> tuple[dict, list[str]]:
    group, sections = doc.group, ("curves", "actions", "surfaces", "families")
    elements = [format_perm(p) for p in group.elements]
    items = {
        "group": {"degree": group.degree, "order": group.order, "elements": elements},
        **{s: sorted(getattr(doc, s)) for s in sections},
    }
    human = [
        f"group: degree {group.degree}, order {group.order}",
        "elements: " + ", ".join(f"{i}={e}" for i, e in enumerate(elements)),
        *(f"{s}: {', '.join(items[s]) or '(none)'}" for s in sections),
        "all items validated",
    ]
    return items, human


def run(command: str, doc: Document) -> tuple[dict, str, int]:
    """Run one subcommand over a parsed document; returns the machine block,
    the human block and the exit code."""
    if command == "validate":
        items, human = _validate(doc)
        return {"command": command, "items": items}, "\n".join(human), 0
    spec = _SPECS[command]
    names = getattr(doc, spec.section)
    if not names:
        machine = {"command": command, "items": {}, "note": "nothing to do"}
        return machine, f"nothing to do: document has no {spec.section}", 0
    items: dict[str, dict] = {}
    shown: list = []  # table rows, or the lines of a line command
    outcomes = {0}
    for name in sorted(names):
        try:
            items[name] = d = spec.compute(doc, name)
        except IsoprodError as exc:
            items[name] = {"error": str(exc)}
            outcomes.add(1)
            shown.append(
                _error_row([name], str(exc), len(spec.columns))
                if spec.columns
                else f"{name}: error: {exc}"
            )
        else:
            outcomes.add(spec.outcome(d))
            shown.extend(spec.render(name, d))
    human = _table(list(spec.columns), shown) if spec.columns else shown
    code = 1 if 1 in outcomes else max(outcomes)
    return {"command": command, "items": items}, "\n".join(human), code


def _group_cap() -> int:
    raw = os.environ.get("ISOPROD_GROUP_CAP")
    if raw is None:
        return DEFAULT_GROUP_CAP
    try:
        # ASCII digits without a leading zero: int() also takes signs,
        # spaces, underscores, leading zeros and non-ASCII digits
        if not (raw.isascii() and raw.isdigit()) or raw[0] == "0":
            raise ValueError
        return int(raw)
    except ValueError:  # also a cap with more digits than int() converts
        raise DocumentError(
            [f"ISOPROD_GROUP_CAP: not a positive integer: {raw!r}"]
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoprod",
        description=(
            "Exact deformation-space dimensions for stable curves with finite "
            "group actions, and certification of stable degenerations of "
            "product-quotient surfaces."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    validate_help = "check the document and list its group and items"
    for name in COMMANDS:
        p = sub.add_parser(name, help=_SPECS[name].help if name in _SPECS else validate_help)
        p.add_argument("document", help="path to a JSON input document")
        p.add_argument(
            "--json", action="store_true", help="emit the machine block only"
        )
        if name == "validate":
            p.add_argument(
                "--emit",
                action="store_true",
                help="also echo the canonical form of the document",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.document, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {args.document}: {exc}", file=sys.stderr)
        return 1
    try:
        doc = parse_document(text, cap=_group_cap())
    except DocumentError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1

    machine, human, code = run(args.command, doc)
    if args.command == "validate" and args.emit:
        machine["document"] = emit_document(doc)
    try:
        if not args.json:
            print(human, end="\n\n")
        print(json.dumps(machine, indent=2, sort_keys=True), flush=True)
    except BrokenPipeError:  # a closed reader: silence the exit flush (the docs' SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
