"""Write ``cli_golden.json``: the CLI transcript the golden test compares to.

Run from the repository root with ``PYTHONPATH=src python
tests/data/make_cli_golden.py``.  Every command runs, with its default
output, over each document below, and ``validate --json --emit`` runs too;
stdout, stderr and the exit code of each run are recorded.  Regenerate only
when an output change is intended, and review the diff.
"""

import contextlib
import copy
import io
import json
import tempfile
from importlib.resources import files
from pathlib import Path

from isoprod.cli import COMMANDS, main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def documents() -> dict:
    """The bundled document, a constancy violation, a failing certificate,
    item errors in every command (marked, disconnected and
    Riemann-Hurwitz-inconsistent inputs, a one-stratum family), an inert S3
    action whose smoothing is obstructed, and an empty document."""
    bundled = json.loads(files("isoprod").joinpath("data/quartic_node.json").read_text())
    broken = copy.deepcopy(bundled)
    broken["families"]["broken"] = ["node_swap", "free_involution"]
    kernel_side = {
        "version": "1",
        "group": {"degree": 2, "generators": [[[0, 1]]]},
        "curves": {
            "pair": {
                "vertices": [{"id": "u", "genus": 2}, {"id": "w", "genus": 2}],
                "half_edges": [{"id": "p", "vertex": "u"}, {"id": "q", "vertex": "w"}],
                "edges": [["p", "q"]],
            }
        },
        "actions": {
            "kernel_side": {
                "curve": "pair",
                "vertex_images": [{}],
                "half_edge_images": [{}],
                "tangent_chars": [{"element": 1, "half_edge": "q", "char": "1/2"}],
                "kernels": {"u": [1]},
                "ramification_orbits": [
                    {"vertex": "w", "element": 1, "char": "1/2", "order": 2}
                ],
            }
        },
        "surfaces": {"bad": {"factor1": "kernel_side", "factor2": "kernel_side"}},
    }
    errors = copy.deepcopy(bundled)
    errors["curves"]["marked"] = {
        "vertices": [{"id": "m", "genus": 2}],
        "half_edges": [],
        "edges": [],
        "marks": [{"id": "x", "vertex": "m"}],
    }
    errors["curves"]["split"] = {
        "vertices": [{"id": "a", "genus": 2}, {"id": "b", "genus": 2}],
        "half_edges": [],
        "edges": [],
        "allow_disconnected": True,
    }
    errors["actions"]["odd_branching"] = {
        "curve": "quartic_smooth",
        "vertex_images": [{}],
        "half_edge_images": [{}],
        "ramification_orbits": [
            {"vertex": "w", "element": 1, "char": "1/2", "order": 2}
        ] * 3,
    }
    errors["actions"]["on_marked"] = {
        "curve": "marked", "vertex_images": [{}], "half_edge_images": [{}]
    }
    errors["actions"]["split_swap"] = {
        "curve": "split",
        "vertex_images": [{"a": "b", "b": "a"}],
        "half_edge_images": [{}],
    }
    errors["surfaces"]["marked_factor"] = {"factor1": "on_marked", "factor2": "free_involution"}
    errors["surfaces"]["odd_factor"] = {"factor1": "odd_branching", "factor2": "free_involution"}
    errors["families"]["mixed"] = ["node_swap", "on_marked"]
    errors["families"]["lonely"] = ["node_swap"]
    inert_s3 = {
        "version": "1",
        "group": {"degree": 3, "generators": [[[0, 1]], [[0, 1, 2]]]},
        "curves": {
            "nodal": {
                "vertices": [{"id": "v", "genus": 2}],
                "half_edges": [{"id": "p", "vertex": "v"}, {"id": "q", "vertex": "v"}],
                "edges": [["p", "q"]],
            }
        },
        "actions": {
            "inert": {
                "curve": "nodal",
                "vertex_images": [{}, {}],
                "half_edge_images": [{}, {}],
                "kernels": {"v": [0, 1, 2, 3, 4, 5]},
            }
        },
    }
    empty = {"version": "1", "group": {"degree": 1, "generators": []}}
    return {
        "quartic_node": bundled,
        "constancy_violation": broken,
        "kernel_side": kernel_side,
        "item_errors": errors,
        "inert_s3": inert_s3,
        "empty": empty,
    }


def argvs() -> list[list[str]]:
    """Each command with default output, plus ``validate --json --emit``."""
    return [[cmd] for cmd in COMMANDS] + [["validate", "--json", "--emit"]]


def record(tmp_dir: Path) -> dict:
    """Stdout, stderr and exit code of every argv over every document."""
    docs = documents()
    cases = []
    for name, document in docs.items():
        path = tmp_dir / f"{name}.json"
        path.write_text(json.dumps(document))
        for argv in argvs():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([argv[0], str(path), *argv[1:]])
            cases.append({"document": name, "argv": argv, "stdout": out.getvalue(),
                          "stderr": err.getvalue(), "code": code})
    return {"documents": docs, "cases": cases}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = record(Path(tmp))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
