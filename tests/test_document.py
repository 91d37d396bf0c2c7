import json
import random
import re

import pytest

import isoprod.document
from isoprod.document import (
    SCHEMA,
    CurveNames,
    Document,
    _schema_problem,
    _schema_problems,
    emit_document,
    parse_document,
)
from isoprod.errors import DocumentError
from randgen import catalog, random_action


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


def test_a_non_text_document_is_one_problem():
    # raised a bare TypeError from json.loads
    with pytest.raises(DocumentError) as err:
        parse_document(5)
    assert err.value.problems == [
        "<json>: the JSON object must be str, bytes or bytearray, not int"
    ]


def test_emitting_a_non_document_is_one_problem():
    # raised a bare AttributeError ("'int' object has no attribute 'version'")
    with pytest.raises(DocumentError) as err:
        emit_document(5)
    assert err.value.problems == ["<document>: not a Document: int"]


def test_deep_nesting_is_a_document_error():
    depth = 100_000
    with pytest.raises(DocumentError) as err:
        parse_document("[" * depth + "]" * depth)
    assert err.value.problems == ["<json>: nesting too deep"]


def test_unknown_version():
    with pytest.raises(DocumentError, match="unknown version"):
        parse_document(json.dumps({"version": "2", "group": {"degree": 1, "generators": []}}))


def swap_with_smoothing_char(char):
    """The branch swap on a one-node curve, with one smoothing character."""
    return minimal_doc(
        curves={"c": curve_block()},
        actions={
            "a": {
                "curve": "c",
                "vertex_images": [{}],
                "half_edge_images": [{"p": "q", "q": "p"}],
                "smoothing_chars": [{"element": 1, "edge": ["p", "q"], "char": char}],
            }
        },
    )


def test_unreduced_character_rejected():
    data = swap_with_smoothing_char("2/4")
    with pytest.raises(DocumentError, match=r'not reduced \(expected "1/2"\)'):
        parse_document(json.dumps(data))


@pytest.mark.parametrize("char", ["+1/2", "01/2", " 1/2", "\uff11/\uff12"])
def test_non_canonical_character_rejected(char):
    # int() reads each as 1 and 2; the item error names the one spelling
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(swap_with_smoothing_char(char)))
    assert err.value.problems == [
        f'actions.a: malformed character string {char!r}: expected "1/2"'
    ]


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


def test_surface_with_a_genus_one_factor_reports_the_factor():
    elliptic = {"vertices": [{"id": "v", "genus": 1}], "marks": [{"id": "m", "vertex": "v"}]}
    trivial = {"vertex_images": [{}], "half_edge_images": [{}]}
    data = minimal_doc(
        curves={"e": elliptic, "c": {"vertices": [{"id": "v", "genus": 2}]}},
        actions={"a": {"curve": "e", **trivial}, "b": {"curve": "c", **trivial}},
        surfaces={"s": {"factor1": "a", "factor2": "b"}},
    )
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    assert err.value.problems == [
        "surfaces.s: factor1: arithmetic genus 1 < 2; "
        "factors must be curves of genus two or higher"
    ]


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


@pytest.mark.parametrize(
    "kind, entries, problem",
    [
        ("tangent", [{"element": 1, "half_edge": "p", "char": "1/2"},
                     {"element": 1, "half_edge": "p", "char": "0/1"}],
         "actions.a.tangent_chars[1]: duplicate (element, half-edge) pair"),
        ("smoothing", [{"element": 1, "edge": ["p", "q"], "char": "0/1"},
                       {"element": 1, "edge": ["q", "p"], "char": "1/2"}],
         "actions.a.smoothing_chars[1]: duplicate (element, edge) pair"),
    ],
    ids=["tangent", "smoothing"],
)
def test_repeated_character_entry_rejected(kind, entries, problem):
    # before, the last entry won: the smoothing pair gave T1 total 3 or 4
    # depending on its order
    action = {"curve": "c", "vertex_images": [{}], "half_edge_images": [{}]}
    action[f"{kind}_chars"] = entries
    data = minimal_doc(curves={"c": curve_block()}, actions={"a": action})
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(data))
    assert err.value.problems == [problem]


@pytest.mark.parametrize(
    "old, new, key",
    [
        ('"actions": {', '"actions": {"node_swap": {}, ', "node_swap"),
        ('"version": "1",', '"version": "1", "version": "1",', "version"),
        ('"char": "0/1"', '"char": "0/1", "char": "1/2"', "char"),
    ],
    ids=["actions", "version", "char"],
)
def test_repeated_json_key_rejected(bundled_document_text, old, new, key):
    # json.loads alone keeps the last value of a repeated key
    assert bundled_document_text.count(old) == 1
    with pytest.raises(DocumentError) as err:
        parse_document(bundled_document_text.replace(old, new))
    assert err.value.problems == [f"<json>: duplicate key {key!r}"]


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


def test_emit_roundtrip_keeps_a_disconnected_curve():
    split = {
        "vertices": [{"id": "a", "genus": 2}, {"id": "b", "genus": 2}],
        "allow_disconnected": True,
    }
    swap = {"curve": "split", "vertex_images": [{"a": "b", "b": "a"}], "half_edge_images": [{}]}
    doc = parse_document(
        json.dumps(minimal_doc(curves={"split": split, "c": curve_block()}, actions={"s": swap}))
    )
    emitted = emit_document(doc)
    assert emitted["curves"]["split"]["allow_disconnected"] is True
    assert "allow_disconnected" not in emitted["curves"]["c"]
    reparsed = parse_document(json.dumps(emitted))
    assert reparsed == doc
    assert emit_document(reparsed) == emitted


def test_emit_validates_against_schema(golden_doc):
    import jsonschema

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
    # JSON Schema's "integer" accepts 2.0; the document checker names it
    # instead of passing a float on to the group and graph builders
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


@pytest.mark.parametrize(
    "group, problems",
    [
        (
            {"degree": 2, "zz": 1},
            [
                "group: 'generators' is a required property",
                "group: Additional properties are not allowed ('zz' was unexpected)",
            ],
        ),
        (
            {"degree": 0.5, "generators": []},
            [
                "group.degree: 0.5 is not of type 'integer'",
                "group.degree: 0.5 is less than the minimum of 1",
            ],
        ),
    ],
    ids=["required-then-unexpected", "type-then-minimum"],
)
def test_problems_at_one_path_keep_the_schema_keyword_order(group, problems):
    # the sort by path is stable, so lines at one path come in the order of
    # the keywords in SCHEMA; jsonschema follows the same order, so the
    # differential test cannot see a reordered keyword
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps({"version": "1", "group": group}))
    assert err.value.problems == problems


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


# -- the schema walk against jsonschema -------------------------------------------


_POOL = [-1, -7, 0, 10**12, 0.0, 1.0, 2.0, -1.0, 0.5, -2.5, True, False, None, "", "x",
         [], [0], [[0, 1]], ["p", "q", "r"], {}, {"x": "y"}]


def _nodes(node, path=()):
    """(path, node) of every value in decoded JSON data, the root included."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _json_path(path):
    return ".".join(map(str, path)) or "<root>"


def _pool_value(rng):
    """A fresh copy of a value from ``_POOL``, never shared by two places."""
    return json.loads(json.dumps(rng.choice(_POOL)))


def _mutate(data, rng):
    """``data`` with one value replaced from ``_POOL``, one or two keys
    added (unexpected, in most places) or one key deleted."""
    path, node = rng.choice(list(_nodes(data)))
    kind = rng.randrange(3) if isinstance(node, dict) else 0
    if kind == 1:
        for key in rng.sample(["zz", "x", "id"], rng.randint(1, 2)):
            node[key] = _pool_value(rng)
        return data
    if kind == 2 and node:
        del node[rng.choice(sorted(node))]
        return data
    if not path:
        return _pool_value(rng)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _pool_value(rng)
    return data


def _emitted_documents(rng):
    """Canonical forms of documents holding one random action per group."""
    for group in catalog():
        action = random_action(group, rng)
        graph = action.graph
        names = CurveNames(
            tuple(f"v{i}" for i in range(graph.n_vertices)),
            tuple(f"h{i}" for i in range(graph.n_half_edges)),
            tuple(f"m{i}" for i in range(len(graph.marks))),
        )
        doc = Document("1", group, {"c": graph}, {"c": names}, {"a": action}, {"a": "c"},
                       families={"f": ("a",)})
        yield emit_document(doc)


_INTEGRAL_FLOAT = re.compile(r"-?\d+\.0 is not of type 'integer'")


def test_schema_walk_matches_jsonschema_on_mutated_documents(bundled_document_text):
    # jsonschema is the reference: the walk accepts exactly what jsonschema
    # plus the rule "no float anywhere" accepts, words every problem the same
    # way, and adds one line for each integral float in an integer slot
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(SCHEMA)
    rng = random.Random(20260418)
    bases = [json.loads(bundled_document_text), *_emitted_documents(rng)]
    for trial in range(1000):
        data = json.loads(json.dumps(rng.choice(bases)))
        for _ in range(rng.randint(1, 3)):
            data = _mutate(data, rng)
        errors = sorted(validator.iter_errors(data), key=lambda e: _json_path(e.absolute_path))
        expected = [_schema_problem(_json_path(e.absolute_path), e.message, e.instance)
                    for e in errors]
        values = {_json_path(path): node for path, node in _nodes(data)}
        has_float = any(isinstance(node, float) for node in values.values())
        got = _schema_problems(data)
        assert (not got) == (not expected and not has_float), (trial, got, expected)
        if not has_float:
            assert got == expected, trial
        added = [p for p in got if _INTEGRAL_FLOAT.search(p) and p not in expected]
        assert [p for p in got if p not in added] == expected, trial
        for problem in added:
            value = values[problem.partition(": ")[0]]
            assert isinstance(value, float) and value.is_integer(), trial


def test_unknown_schema_keyword_raises(monkeypatch):
    # the walk checks only the keywords it knows; one added to the schema
    # must fail loudly, whatever the value in the document
    schema = {"type": "object", "properties": {"group": {"type": "object", "maxProperties": 1}}}
    monkeypatch.setattr(isoprod.document, "SCHEMA", schema)
    for group in ({"degree": 2}, "not an object"):
        with pytest.raises(ValueError, match="'maxProperties' is not checked"):
            _schema_problems({"group": group})
