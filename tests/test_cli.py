import argparse
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from isoprod.cli import COMMANDS, build_parser, main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


@pytest.fixture()
def golden_path(tmp_path, bundled_document_text):
    path = tmp_path / "quartic_node.json"
    path.write_text(bundled_document_text)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_block(out: str) -> dict:
    # default output: human block, blank line, JSON block
    return json.loads(out[out.index("\n{") :])


# -- golden document over every subcommand ---------------------------------------


def test_validate(capsys, golden_path):
    code, out, _ = run_cli(capsys, "validate", golden_path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["items"]["group"]["order"] == 2
    assert data["items"]["group"]["elements"] == ["()", "(0 1)"]


def test_genus(capsys, golden_path):
    code, out, _ = run_cli(capsys, "genus", golden_path, "--json")
    assert code == 0
    items = json.loads(out)["items"]
    assert items["quartic_node"]["arithmetic_genus"] == 3
    assert items["quartic_smooth"]["arithmetic_genus"] == 3


def test_t1(capsys, golden_path):
    code, out, _ = run_cli(capsys, "t1", golden_path, "--json")
    assert code == 0
    items = json.loads(out)["items"]
    assert items["quartic_node"] == {
        "delta": 1,
        "branch_term": 2,
        "minus_chi": 3,
        "total": 6,
    }


def test_t1_equivariant(capsys, golden_path):
    code, out, _ = run_cli(capsys, "t1-equivariant", golden_path, "--json")
    assert code == 0
    items = json.loads(out)["items"]
    assert items["node_swap"] == {
        "node_inv": 1,
        "branch_inv": 1,
        "minus_chi_inv": 2,
        "total": 4,
    }
    assert items["smooth_fiber"]["total"] == 4


def test_quotient(capsys, golden_path):
    code, out, _ = run_cli(capsys, "quotient", golden_path, "--json")
    assert code == 0
    sigs = json.loads(out)["items"]["node_swap"]["signatures"]
    assert sigs == [
        {"representative": "v", "g_prime": 1, "b": 2, "contribution": 2}
    ]


def test_surface_invariants(capsys, golden_path):
    code, out, _ = run_cli(capsys, "surface-invariants", golden_path, "--json")
    # central_fiber is not free, so that item errors: exit 1, free_product fine
    assert code == 1
    items = json.loads(out)["items"]
    assert "error" in items["central_fiber"]
    assert items["free_product"] == {
        "chi": 2,
        "k_squared": 16,
        "euler": 8,
        "q": 4,
        "p_g": 5,
    }


def test_kuranishi(capsys, golden_path):
    code, out, _ = run_cli(capsys, "kuranishi", golden_path, "--json")
    assert code == 0
    items = json.loads(out)["items"]
    assert items["central_fiber"]["total"] == 8
    assert items["free_product"]["total"] == 6


def test_certify_degeneration(capsys, golden_path):
    code, out, _ = run_cli(capsys, "certify-degeneration", golden_path, "--json")
    assert code == 0
    items = json.loads(out)["items"]
    assert items["central_fiber"]["passed"] is True
    keys = [c["key"] for c in items["central_fiber"]["conditions"]]
    assert keys[0] == "stable-factors"


def test_check_family(capsys, golden_path):
    code, out, _ = run_cli(capsys, "check-family", golden_path)
    assert code == 0
    assert "constant at 4" in out
    machine = machine_block(out)
    assert machine["items"]["node_smoothing"]["verdict"] == "constant"


def test_smooth(capsys, golden_path):
    code, out, _ = run_cli(capsys, "smooth", golden_path, "--json")
    assert code == 0
    items = json.loads(out)["items"]
    strata = items["node_swap"]["strata"]
    assert [s["delta"] for s in strata] == [1, 0]
    assert strata[1]["ramification_orbits"] == 4
    assert items["node_swap"]["obstructions"] == []


# -- exit codes --------------------------------------------------------------------


def test_exit_2_on_failing_certificate(capsys, tmp_path):
    doc = {
        "version": "1",
        "group": {"degree": 2, "generators": [[[0, 1]]]},
        "curves": {
            "pair": {
                "vertices": [{"id": "u", "genus": 2}, {"id": "w", "genus": 2}],
                "half_edges": [
                    {"id": "p", "vertex": "u"},
                    {"id": "q", "vertex": "w"},
                ],
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
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "certify-degeneration", str(path), "--json")
    assert code == 2
    items = json.loads(out)["items"]
    assert items["bad"]["passed"] is False
    assert items["bad"]["first_failure"] == "free-in-codim-1"


def test_exit_2_on_constancy_violation(capsys, tmp_path, bundled_document_text):
    data = json.loads(bundled_document_text)
    data["families"]["broken"] = ["node_swap", "free_involution"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "check-family", str(path), "--json")
    assert code == 2
    items = json.loads(out)["items"]
    assert items["broken"]["verdict"] == "violation"
    assert items["node_smoothing"]["verdict"] == "constant"


def test_check_family_reports_a_disconnected_stratum_in_band(
    capsys, tmp_path, bundled_document_text
):
    # two genus-1 components with a node each, swapped by the involution
    data = json.loads(bundled_document_text)
    data["curves"]["split"] = {
        "vertices": [{"id": "a", "genus": 1}, {"id": "b", "genus": 1}],
        "half_edges": [{"id": h, "vertex": v} for h, v in zip("pqrs", "aabb")],
        "edges": [["p", "q"], ["r", "s"]],
        "allow_disconnected": True,
    }
    data["actions"]["split_swap"] = {
        "curve": "split",
        "vertex_images": [{"a": "b", "b": "a"}],
        "half_edge_images": [{"p": "r", "q": "s", "r": "p", "s": "q"}],
    }
    data["families"]["apart"] = ["split_swap", "node_swap"]
    path = tmp_path / "apart.json"
    path.write_text(json.dumps(data))
    # the chain smooths both nodes; the genus of its strata is undefined, so
    # it is null, and the chain is still reported
    code, out, _ = run_cli(capsys, "smooth", str(path), "--json")
    assert code == 0
    assert json.loads(out)["items"]["split_swap"] == {
        "strata": [
            {"label": "step0", "delta": 2, "genus": None, "ramification_orbits": 0},
            {"label": "step1", "delta": 0, "genus": None, "ramification_orbits": 0},
        ],
        "obstructions": [],
    }
    code, out, _ = run_cli(capsys, "check-family", str(path))
    assert code == 1
    assert "apart: error in some stratum" in out
    row = next(line.split() for line in out.splitlines() if line.split()[:1] == ["split_swap"])
    assert row == "split_swap 2 - - - - equivariant T1 requires a connected curve".split()
    stratum = machine_block(out)["items"]["apart"]["strata"][0]
    assert stratum["genus"] is None
    assert stratum["error"] == "equivariant T1 requires a connected curve"


def test_closed_stdout_exits_1_without_a_traceback(golden_path, monkeypatch, capsys):
    # ``isoprod check-family doc.json --json | head -c 10``: the reader
    # closes the pipe, so writing stdout raises BrokenPipeError; main points
    # the stream's descriptor at devnull, so the flush at exit stays quiet
    read_end, write_end = os.pipe()

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return write_end

    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["check-family", golden_path, "--json"]) == 1
        monkeypatch.undo()
        assert capsys.readouterr().err == ""
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    finally:
        os.close(read_end)
        os.close(write_end)


def test_exit_1_on_invalid_document(capsys, tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps({"version": "1"}))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "group" in err


def test_exit_1_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/file.json")
    assert code == 1
    assert "error" in err


def test_exit_1_on_non_utf8_document(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: ")


def test_exit_1_on_deeply_nested_document(capsys, tmp_path):
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: <json>: nesting too deep\n"


def test_exit_1_on_huge_schema_violation_with_bounded_message(capsys, tmp_path):
    # a one-line array of 200,000 zeros used to be echoed whole to stderr
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps([0] * 200_000))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and len(err) == len("error: \n") + 240
    assert err.startswith("error: <root>: [0, 0, ") and err.endswith("is not of type 'object'\n")


def test_exit_1_on_long_curve_name_with_bounded_message(capsys, tmp_path):
    # the JSON path carries the 5,000-character name; the line is still cut
    path = tmp_path / "long_name.json"
    block = {
        "vertices": [{"id": "v", "genus": 0}],
        "half_edges": [{"id": "p", "vertex": "v"}, {"id": "q", "vertex": "v"}],
        "edges": [["p", "q"]],
    }
    data = {"version": "1", "group": {"degree": 2, "generators": []}, "curves": {"c" * 5000: block}}
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and len(err) == len("error: \n") + 240
    assert err.startswith("error: curves.ccc") and err.endswith("must be > 0): 0\n")


def test_schema_invalid_never_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "certify-degeneration", str(path))
    assert code == 1


def test_group_cap_env(capsys, golden_path, monkeypatch):
    monkeypatch.setenv("ISOPROD_GROUP_CAP", "1")
    code, _, err = run_cli(capsys, "validate", golden_path)
    assert code == 1
    assert "group too large" in err


def test_group_cap_env_invalid(capsys, golden_path, monkeypatch):
    monkeypatch.setenv("ISOPROD_GROUP_CAP", "zero")
    code, _, err = run_cli(capsys, "validate", golden_path)
    assert code == 1
    assert "ISOPROD_GROUP_CAP" in err


@pytest.mark.parametrize("raw", ["7", "2", "1000"])
def test_group_cap_env_accepts_plain_digits(capsys, golden_path, monkeypatch, raw):
    monkeypatch.setenv("ISOPROD_GROUP_CAP", raw)
    code, _, err = run_cli(capsys, "validate", golden_path)
    assert (code, err) == (0, "")


# int() reads each of these, so each set a cap before: only ASCII
# [1-9][0-9]* is a cap
@pytest.mark.parametrize(
    "raw", [" 7 ", "+7", "1_000", "07", "\u0667", "0", "-1", "", "7.0", "\u00b2"]
)
def test_group_cap_env_rejects_other_spellings(capsys, golden_path, monkeypatch, raw):
    monkeypatch.setenv("ISOPROD_GROUP_CAP", raw)
    code, out, err = run_cli(capsys, "validate", golden_path)
    assert (code, out) == (1, "")
    assert err == f"error: ISOPROD_GROUP_CAP: not a positive integer: {raw!r}\n"


def test_nothing_to_do(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(
        json.dumps({"version": "1", "group": {"degree": 1, "generators": []}})
    )
    code, out, _ = run_cli(capsys, "genus", str(path))
    assert code == 0
    assert "nothing to do" in out


def test_default_output_has_both_blocks(capsys, golden_path):
    code, out, _ = run_cli(capsys, "genus", golden_path)
    assert code == 0
    assert "curve" in out.splitlines()[0]
    assert machine_block(out)["command"] == "genus"


def test_validate_emit_roundtrip(capsys, golden_path, tmp_path):
    code, out, _ = run_cli(capsys, "validate", golden_path, "--json", "--emit")
    assert code == 0
    document = json.loads(out)["document"]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(document))
    code2, out2, _ = run_cli(capsys, "t1-equivariant", str(path), "--json")
    assert code2 == 0
    assert json.loads(out2)["items"]["node_swap"]["total"] == 4


def test_exit_1_on_float_degree(capsys, tmp_path, bundled_document_text):
    # 2.0 is not an "integer" to the document checker; it is reported, not a
    # traceback
    data = json.loads(bundled_document_text)
    data["group"]["degree"] = 2.0
    path = tmp_path / "float_degree.json"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "group.degree" in err


def test_exit_1_on_oversized_degree(capsys, tmp_path, bundled_document_text):
    # rejected by the schema, before a group builds a degree-length tuple
    data = json.loads(bundled_document_text)
    data["group"]["degree"] = 10**12
    path = tmp_path / "huge_degree.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: group.degree: 1000000000000 is greater than the maximum of 10000\n"



# -- golden transcript (tests/data/make_cli_golden.py) ---------------------------


def _load_golden():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    return [
        pytest.param(golden["documents"][case["document"]], case,
                     id=f"{case['document']}-{'-'.join(case['argv'])}")
        for case in golden["cases"]
    ]


@pytest.mark.parametrize("document,case", _load_golden())
def test_golden_transcript(capsys, tmp_path, document, case):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, case["argv"][0], str(path), *case["argv"][1:])
    assert out == case["stdout"]
    assert err == case["stderr"]
    assert code == case["code"]


def test_golden_generator_reproduces_the_recorded_inputs():
    # the documents and argv lists of make_cli_golden.py are the recorded
    # ones, so an edit to the generator must come with a regenerated file
    spec = importlib.util.spec_from_file_location(
        "make_cli_golden", GOLDEN.with_name("make_cli_golden.py")
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    documents = generator.documents()
    assert json.loads(json.dumps(documents)) == golden["documents"]
    expected = [(name, argv) for name in documents for argv in generator.argvs()]
    assert [(case["document"], case["argv"]) for case in golden["cases"]] == expected
    assert len(expected) == 6 * 11


def test_help_describes_each_command():
    subcommands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    helps = {choice.dest: choice.help for choice in subcommands._choices_actions}
    assert list(helps) == list(COMMANDS) and len(COMMANDS) == 10
    assert len(set(helps.values())) == len(helps)
    for name, text in helps.items():
        assert text and not text.startswith("run ") and "over a document" not in text, name
