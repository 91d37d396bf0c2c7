import json

import pytest

from isoprod.document import emit_document, parse_document
from isoprod.errors import DocumentError


def minimal_doc(**extra):
    doc = {"version": "1", "group": {"degree": 2, "generators": [[[0, 1]]]}}
    doc.update(extra)
    return doc


def curve_block():
    return {
        "vertices": [{"id": "v", "genus": 2}],
        "half_edges": [{"id": "p", "vertex": "v"}, {"id": "q", "vertex": "v"}],
        "edges": [["p", "q"]],
    }


# -- parsing ------------------------------------------------------------------


def test_bundled_document_parses(golden_doc):
    assert golden_doc.group.order == 2
    assert set(golden_doc.curves) == {"quartic_node", "quartic_smooth"}
    assert set(golden_doc.actions) == {"node_swap", "smooth_fiber", "free_involution"}
    assert set(golden_doc.surfaces) == {"central_fiber", "free_product"}
    assert golden_doc.families == {"node_smoothing": ("node_swap", "smooth_fiber")}


def test_empty_document_is_valid():
    doc = parse_document(json.dumps(minimal_doc()))
    assert doc.curves == {} and doc.actions == {}


def test_malformed_json():
    with pytest.raises(DocumentError, match="<json>"):
        parse_document("{not json")


def test_deep_nesting_is_a_document_error():
    depth = 100_000
    with pytest.raises(DocumentError) as err:
        parse_document("[" * depth + "]" * depth)
    assert err.value.problems == ["<json>: nesting too deep"]


def test_unknown_version():
    with pytest.raises(DocumentError, match="unknown version"):
        parse_document(json.dumps({"version": "2", "group": {"degree": 1, "generators": []}}))


def test_unreduced_character_rejected():
    data = minimal_doc(
        curves={"c": curve_block()},
        actions={
            "a": {
                "curve": "c",
                "vertex_images": [{}],
                "half_edge_images": [{"p": "q", "q": "p"}],
                "smoothing_chars": [{"element": 1, "edge": ["p", "q"], "char": "2/4"}],
            }
        },
    )
    with pytest.raises(DocumentError, match=r'not reduced \(expected "1/2"\)'):
        parse_document(json.dumps(data))


def test_schema_errors_have_paths():
    data = minimal_doc(curves={"c": {"vertices": [{"id": "v", "genus": -1}]}})
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    assert any("curves.c.vertices.0.genus" in p for p in err.value.problems)


def test_all_problems_reported_not_just_first():
    data = minimal_doc(
        curves={"c": curve_block()},
        actions={
            "a": {
                "curve": "missing",
                "vertex_images": [{}],
                "half_edge_images": [{}],
            },
            "b": {
                "curve": "c",
                "vertex_images": [{}],
                "half_edge_images": [{"p": "nowhere", "q": "p"}],
            },
        },
    )
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    problems = "\n".join(err.value.problems)
    assert "actions.a.curve" in problems
    assert "actions.b" in problems


def test_unresolved_family_reference():
    data = minimal_doc(families={"f": ["ghost"]})
    with pytest.raises(DocumentError, match="unresolved action reference 'ghost'"):
        parse_document(json.dumps(data))


def test_mixed_type_surface_rejected():
    data = minimal_doc(
        curves={"c": curve_block()},
        actions={
            "a": {
                "curve": "c",
                "vertex_images": [{}],
                "half_edge_images": [{"p": "q", "q": "p"}],
                "smoothing_chars": [{"element": 1, "edge": ["p", "q"], "char": "0/1"}],
                "ramification_orbits": [
                    {"vertex": "v", "element": 1, "char": "1/2", "order": 2},
                    {"vertex": "v", "element": 1, "char": "1/2", "order": 2},
                ],
            }
        },
        surfaces={"s": {"factor1": "a", "factor2": "a", "mixed_type": True}},
    )
    with pytest.raises(DocumentError, match="swaps the two factors"):
        parse_document(json.dumps(data))


def test_kernels_close_to_subgroup():
    data = minimal_doc(
        curves={
            "c": {
                "vertices": [{"id": "u", "genus": 2}, {"id": "w", "genus": 2}],
                "half_edges": [
                    {"id": "p", "vertex": "u"},
                    {"id": "q", "vertex": "w"},
                ],
                "edges": [["p", "q"]],
            }
        },
        actions={
            "a": {
                "curve": "c",
                "vertex_images": [{}],
                "half_edge_images": [{}],
                "tangent_chars": [{"element": 1, "half_edge": "q", "char": "1/2"}],
                "kernels": {"u": [1]},
                "ramification_orbits": [
                    {"vertex": "w", "element": 1, "char": "1/2", "order": 2}
                ],
            }
        },
    )
    doc = parse_document(json.dumps(data))
    assert doc.actions["a"].kernels[0] == frozenset({0, 1})
    assert doc.actions["a"].kernels[1] == frozenset({0})


def test_trivial_group_document():
    data = {
        "version": "1",
        "group": {"degree": 1, "generators": []},
        "curves": {"c": curve_block()},
        "actions": {"a": {"curve": "c", "vertex_images": [], "half_edge_images": []}},
    }
    doc = parse_document(json.dumps(data))
    assert doc.group.order == 1
    assert doc.actions["a"].graph.n_edges == 1


def test_duplicate_ids_rejected():
    block = curve_block()
    block["vertices"] = [{"id": "v", "genus": 2}, {"id": "v", "genus": 3}]
    with pytest.raises(DocumentError, match="duplicate vertex id"):
        parse_document(json.dumps(minimal_doc(curves={"c": block})))


def test_group_cap_applies():
    data = {"version": "1", "group": {"degree": 5, "generators": [[[0, 1, 2, 3, 4]]]}}
    with pytest.raises(DocumentError, match="group too large"):
        parse_document(json.dumps(data), cap=3)


# -- emission -----------------------------------------------------------------


def test_emit_roundtrip_is_identity(golden_doc, bundled_document_text):
    emitted = emit_document(golden_doc)
    reparsed = parse_document(json.dumps(emitted))
    assert reparsed == golden_doc
    assert emit_document(reparsed) == emitted


def test_emit_validates_against_schema(golden_doc):
    import jsonschema

    from isoprod.document import SCHEMA

    jsonschema.validate(emit_document(golden_doc), SCHEMA)


# -- integral floats ------------------------------------------------------------


def _float_degree(doc):
    doc["group"]["degree"] = 2.0


def _float_cycle_entry(doc):
    doc["group"]["generators"][0][0][1] = 1.0


def _float_genus(doc):
    doc["curves"]["c"]["vertices"][0]["genus"] = 2.0


def _float_tangent_element(doc):
    doc["actions"]["a"]["tangent_chars"][0]["element"] = 1.0


@pytest.mark.parametrize(
    "mutate, path",
    [
        (_float_degree, "group.degree: 2.0"),
        (_float_cycle_entry, "group.generators.0.0.1: 1.0"),
        (_float_genus, "curves.c.vertices.0.genus: 2.0"),
        (_float_tangent_element, "actions.a.tangent_chars.0.element: 1.0"),
    ],
    ids=["degree", "cycle-entry", "genus", "tangent-element"],
)
def test_integral_float_in_integer_slot_rejected(mutate, path):
    # the schema's "integer" accepts 2.0; the document names it instead of
    # passing a float on to the group and graph builders
    data = minimal_doc(
        curves={"c": curve_block()},
        actions={
            "a": {
                "curve": "c",
                "vertex_images": [{}],
                "half_edge_images": [{"p": "p", "q": "q"}],
                "tangent_chars": [
                    {"element": 1, "half_edge": "p", "char": "1/2"},
                    {"element": 1, "half_edge": "q", "char": "1/2"},
                ],
            }
        },
    )
    parse_document(json.dumps(data))
    mutate(data)
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    assert err.value.problems == [f"{path} is not of type 'integer'"]


def test_integral_floats_all_reported_in_path_order():
    data = minimal_doc(curves={"c": curve_block()})
    _float_genus(data)
    _float_degree(data)
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    assert err.value.problems == [
        "curves.c.vertices.0.genus: 2.0 is not of type 'integer'",
        "group.degree: 2.0 is not of type 'integer'",
    ]


def test_schema_problem_shortens_a_long_echoed_value():
    # the message echoes the offending value; only that value is cut, in the
    # middle, so the line keeps its path and the validator's wording
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps([0] * 200_000))
    (problem,) = err.value.problems
    assert len(problem) == 240
    assert problem.startswith("<root>: [0, 0, 0, ")
    assert "0, ... 0, " in problem and problem.endswith("0, 0] is not of type 'object'")

    data = minimal_doc(curves={"c": {**curve_block(), "x" * 10_000: 1}})
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    (problem,) = err.value.problems
    assert len(problem) == 240
    assert problem.startswith("curves.c: Additional properties are not allowed ('xxx")
    assert problem.endswith("xxx' was unexpected)")


def test_short_schema_problems_are_unchanged():
    data = minimal_doc(curves={"c": {"vertices": [{"id": "v", "genus": "x" * 150}]}})
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    assert err.value.problems == [
        f"curves.c.vertices.0.genus: {'x' * 150!r} is not of type 'integer'"
    ]


LONG = "c" * 5000


@pytest.mark.parametrize(
    "data, head, tail, kept",
    [
        (
            minimal_doc(curves={LONG: {**curve_block(), "vertices": "bad"}}),
            "curves.ccc",
            "ccc.vertices: 'bad' is not of type 'array'",
            "ccc.vertices: ",
        ),
        (
            minimal_doc(curves={LONG: {**curve_block(), "vertices": [{"id": "v", "genus": 0}]}}),
            "curves.ccc",
            "ccc: unstable vertices (2g - 2 + branches + marks must be > 0): 0",
            "ccc: unstable",
        ),
        (
            {**minimal_doc(), "version": "9" * 5000},
            "version: unknown version '999",
            "999' (expected \"1\")",
            "version: unknown",
        ),
        (
            minimal_doc(
                curves={"c": curve_block()},
                actions={"a": {"curve": LONG, "vertex_images": [{}], "half_edge_images": [{}]}},
            ),
            "actions.a.curve: unresolved curve reference 'ccc",
            "ccc'",
            "curve: unresolved",
        ),
        (
            minimal_doc(curves={LONG: {**curve_block(), "vertices": "b" * 300}}),
            "curves.ccc",
            "' is not of type 'array'",
            "ccc.vertices: 'bbb",
        ),
    ],
    ids=[
        "long-path-schema", "long-path-curve", "long-version", "long-curve-reference",
        "long-path-long-value",
    ],
)
def test_every_problem_line_is_cut_in_the_middle(data, head, tail, kept):
    # paths carry user-chosen keys and messages echo user values: each
    # problem is cut to 240 characters, keeping its start, its end and the
    # name of the failing field
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    (problem,) = err.value.problems
    assert len(problem) == 240
    assert problem.startswith(head) and problem.endswith(tail)
    assert "c..." in problem or "9...9" in problem
    assert kept in problem


@pytest.mark.parametrize(
    "where, value, problem",
    [
        (
            ("surfaces", "zz"),
            {"factor1": "nope", "factor2": "node_swap"},
            "surfaces.zz.factor1: unresolved action reference 'nope'",
        ),
        (
            ("actions", "node_swap", "vertex_images"),
            [{}, {}],
            "actions.node_swap.vertex_images: expected 1 image maps (one per generator), got 2",
        ),
        (
            ("actions", "node_swap", "ramification_orbits", 0, "element"),
            5,
            "actions.node_swap.ramification_orbits[0]: element index 5 out of range (|G| = 2)",
        ),
        (
            ("actions", "node_swap", "smoothing_chars", 0, "edge"),
            ["p", "p"],
            "actions.node_swap.smoothing_chars[0]: half-edge pair is not an edge of the curve",
        ),
    ],
    ids=["surface-factor", "image-count", "ramification-element", "smoothing-edge"],
)
def test_bundled_document_with_one_bad_reference_rejected(
    bundled_document_text, where, value, problem
):
    data = json.loads(bundled_document_text)
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    assert err.value.problems == [problem]


def test_integer_literal_past_the_digit_limit_is_a_document_error():
    text = '{"version": "1", "group": {"degree": ' + "9" * 5000 + ', "generators": []}}'
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    (problem,) = err.value.problems
    assert problem.startswith("<json>: Exceeds the limit")
