"""Versioned JSON input documents and their parsing/emission.

One document carries one permutation group, named curves, named actions,
named surfaces (pairs of actions), and named families (ordered lists of
actions).  Permutations are written as lists of cycles of 0-based letters
(the identity is ``[]``), group elements are referenced by their index in
the deterministic element table, and every rotation character is a reduced
"a/e" string; no floats appear anywhere in the interface.

Parsing reports every problem it can find (schema violations with JSON
paths, unresolved references, malformed characters, per-item consistency
failures), not just the first.  A walk of its own checks the JSON Schema
``SCHEMA``, worded as jsonschema 4 words it, but 2.0 is no "integer" here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator

from .actions import CurveAction, RamificationOrbit, validate_action
from .curves import DualGraph, build_graph
from .errors import _MAX_PROBLEM, DocumentError, IsoprodError, _clip
from .groups import (
    DEFAULT_GROUP_CAP,
    FiniteGroup,
    format_rotation_char,
    parse_rotation_char,
    perm_from_cycles,
    perm_to_cycles,
)
from .surfaces import SurfaceDescriptor, build_surface

FORMAT_VERSION = "1"

jsonschema = None  # perfbench/tracer.py reads this name to time the document stages

# 50 times the largest degree any test or benchmark input uses (200): a group
# builds tuples of ``degree`` letters before it can check anything else
_MAX_DEGREE = 10_000

_ID = {"type": "string", "minLength": 1}
_CYCLES = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 2},
}
_IMAGE_MAP = {"type": "object", "additionalProperties": _ID}

SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["version", "group"],
    "additionalProperties": False,
    "properties": {
        "version": {"type": "string"},
        "group": {
            "type": "object",
            "required": ["degree", "generators"],
            "additionalProperties": False,
            "properties": {
                "degree": {"type": "integer", "minimum": 1, "maximum": _MAX_DEGREE},
                "generators": {"type": "array", "items": _CYCLES},
            },
        },
        "curves": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["vertices"],
                "additionalProperties": False,
                "properties": {
                    "vertices": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["id", "genus"],
                            "additionalProperties": False,
                            "properties": {
                                "id": _ID,
                                "genus": {"type": "integer", "minimum": 0},
                            },
                        },
                    },
                    "half_edges": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["id", "vertex"],
                            "additionalProperties": False,
                            "properties": {"id": _ID, "vertex": _ID},
                        },
                    },
                    "edges": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": _ID,
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                    "marks": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["id", "vertex"],
                            "additionalProperties": False,
                            "properties": {"id": _ID, "vertex": _ID},
                        },
                    },
                    "allow_disconnected": {"type": "boolean"},
                },
            },
        },
        "actions": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["curve", "vertex_images", "half_edge_images"],
                "additionalProperties": False,
                "properties": {
                    "curve": _ID,
                    "vertex_images": {"type": "array", "items": _IMAGE_MAP},
                    "half_edge_images": {"type": "array", "items": _IMAGE_MAP},
                    "tangent_chars": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["element", "half_edge", "char"],
                            "additionalProperties": False,
                            "properties": {
                                "element": {"type": "integer", "minimum": 0},
                                "half_edge": _ID,
                                "char": {"type": "string"},
                            },
                        },
                    },
                    "smoothing_chars": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["element", "edge", "char"],
                            "additionalProperties": False,
                            "properties": {
                                "element": {"type": "integer", "minimum": 0},
                                "edge": {
                                    "type": "array",
                                    "items": _ID,
                                    "minItems": 2,
                                    "maxItems": 2,
                                },
                                "char": {"type": "string"},
                            },
                        },
                    },
                    "kernels": {
                        "type": "object",
                        "additionalProperties": {
                            "type": "array",
                            "items": {"type": "integer", "minimum": 0},
                        },
                    },
                    "ramification_orbits": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["vertex", "element", "char", "order"],
                            "additionalProperties": False,
                            "properties": {
                                "vertex": _ID,
                                "element": {"type": "integer", "minimum": 0},
                                "char": {"type": "string"},
                                "order": {"type": "integer", "minimum": 2},
                            },
                        },
                    },
                },
            },
        },
        "surfaces": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["factor1", "factor2"],
                "additionalProperties": False,
                "properties": {
                    "factor1": _ID,
                    "factor2": _ID,
                    "declared_minimal": {"type": "boolean"},
                    "mixed_type": {"type": "boolean"},
                },
            },
        },
        "families": {
            "type": "object",
            "additionalProperties": {"type": "array", "items": _ID, "minItems": 1},
        },
    },
}


@dataclass(frozen=True)
class CurveNames:
    vertices: tuple[str, ...]
    half_edges: tuple[str, ...]
    marks: tuple[str, ...]


@dataclass(eq=True)
class Document:
    """A fully validated input document."""

    version: str
    group: FiniteGroup
    curves: dict[str, DualGraph] = field(default_factory=dict)
    curve_names: dict[str, CurveNames] = field(default_factory=dict)
    actions: dict[str, CurveAction] = field(default_factory=dict)
    action_curve: dict[str, str] = field(default_factory=dict)
    surfaces: dict[str, SurfaceDescriptor] = field(default_factory=dict)
    surface_factors: dict[str, tuple[str, str]] = field(default_factory=dict)
    families: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def names_for_action(self, name: str) -> CurveNames:
        return self.curve_names[self.action_curve[name]]


def parse_document(text: str, cap: int = DEFAULT_GROUP_CAP) -> Document:
    """Parse and validate a UTF-8 JSON document; raises DocumentError with
    every detected problem."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past Python's digit limit
        raise DocumentError([f"<json>: {exc}"]) from exc
    except RecursionError:
        raise DocumentError(["<json>: nesting too deep"]) from None
    return document_from_dict(data, cap=cap)


# the Python kind of each type, and of what each keyword checks (others pass)
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "integer": int}
_KEYWORD_KINDS = {
    "required": dict, "properties": dict, "additionalProperties": dict,
    "items": list, "minItems": list, "maxItems": list,
    "minLength": str, "minimum": (int, float), "maximum": (int, float),
}


def _schema_problems(data: Any) -> list[str]:
    """Every way ``data`` breaks ``SCHEMA``, as ``<path>: <message>`` lines
    stable-sorted by path; raises ValueError on a keyword it cannot check."""
    return [_schema_problem(*p) for p in sorted(_walk(data, SCHEMA, ()), key=lambda p: p[0])]


def _walk(node: Any, schema: dict, path: tuple) -> Iterator[tuple[str, str, Any]]:
    """(path, message, node) for each problem, in ``schema``'s keyword order."""
    where = ".".join(map(str, path)) or "<root>"
    for keyword, value in schema.items():
        if keyword == "type":
            kind = _TYPES[value]
            if not isinstance(node, kind) or (isinstance(node, bool) and kind is not bool):
                yield where, f"{node!r} is not of type {value!r}", node
        elif keyword not in _KEYWORD_KINDS:
            raise ValueError(f"schema keyword {keyword!r} is not checked")
        elif not isinstance(node, _KEYWORD_KINDS[keyword]) or isinstance(node, bool):
            continue
        elif keyword == "required":
            for key in value:
                if key not in node:
                    yield where, f"{key!r} is a required property", node
        elif keyword == "properties":
            for key, sub in value.items():
                if key in node:
                    yield from _walk(node[key], sub, path + (key,))
        elif keyword == "additionalProperties":
            extra = [key for key in node if key not in schema.get("properties", {})]
            if value is not False:
                for key in extra:
                    yield from _walk(node[key], value, path + (key,))
            elif extra:
                names = ", ".join(map(repr, sorted(extra)))
                verb = "was" if len(extra) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
                yield where, message, node
        elif keyword == "items":
            for i, item in enumerate(node):
                yield from _walk(item, value, path + (i,))
        elif keyword == "maxItems" and len(node) > value:
            yield where, f"{node!r} is too long", node
        elif keyword in ("minItems", "minLength") and len(node) < value:
            short = "should be non-empty" if value == 1 else "is too short"
            yield where, f"{node!r} {short}", node
        elif keyword == "minimum" and node < value:
            yield where, f"{node!r} is less than the minimum of {value!r}", node
        elif keyword == "maximum" and node > value:
            yield where, f"{node!r} is greater than the maximum of {value!r}", node


def _schema_problem(path: str, message: str, instance: Any) -> str:
    """``<path>: <message>`` in at most ``_MAX_PROBLEM`` characters.

    The path is cut in the middle with "..." to what the message leaves of
    the line, but never below half a line; the echoed value is then cut in
    the middle to what remains, so both ends of the path (and the failing
    field) survive a long value."""
    path = _clip(path, max(_MAX_PROBLEM - 2 - len(message), _MAX_PROBLEM // 2))
    excess = len(path) + 2 + len(message) - _MAX_PROBLEM
    if excess > 0:
        echoed = repr(instance)
        at = message.find(echoed)
        if at < 0:
            # the value echoed is not the instance (unexpected keys)
            echoed, at = message, 0
        cut = _clip(echoed, max(len(echoed) - excess, 3))
        message = f"{message[:at]}{cut}{message[at + len(echoed):]}"
    return f"{path}: {message}"


def document_from_dict(data: Any, cap: int = DEFAULT_GROUP_CAP) -> Document:
    problems = _schema_problems(data)
    if problems:
        raise DocumentError(problems)

    if data["version"] != FORMAT_VERSION:
        raise DocumentError(
            [f"version: unknown version {data['version']!r} (expected \"{FORMAT_VERSION}\")"]
        )

    try:
        degree = data["group"]["degree"]
        generators = [
            perm_from_cycles(cycles, degree) for cycles in data["group"]["generators"]
        ]
        group = FiniteGroup.from_generators(generators, degree, cap=cap)
    except IsoprodError as exc:
        raise DocumentError([f"group: {exc}"]) from exc

    doc = Document(version=FORMAT_VERSION, group=group)

    for name, block in sorted(data.get("curves", {}).items()):
        path = f"curves.{name}"
        try:
            graph, names = _parse_curve(block, path)
            doc.curves[name] = graph
            doc.curve_names[name] = names
        except IsoprodError as exc:
            problems.append(f"{path}: {exc}")
        except _RefError as exc:
            problems.append(str(exc))

    for name, block in sorted(data.get("actions", {}).items()):
        path = f"actions.{name}"
        curve_name = block["curve"]
        if curve_name not in doc.curves:
            if curve_name not in data.get("curves", {}):
                problems.append(f"{path}.curve: unresolved curve reference {curve_name!r}")
            continue
        try:
            action = _parse_action(
                group, doc.curves[curve_name], doc.curve_names[curve_name], block, path
            )
            doc.actions[name] = action
            doc.action_curve[name] = curve_name
        except IsoprodError as exc:
            problems.append(f"{path}: {exc}")
        except _RefError as exc:
            problems.append(str(exc))

    for name, block in sorted(data.get("surfaces", {}).items()):
        path = f"surfaces.{name}"
        if block.get("mixed_type"):
            problems.append(
                f"{path}.mixed_type: realizations whose group swaps the two "
                "factors are not supported"
            )
            continue
        missing = [f for f in ("factor1", "factor2") if block[f] not in doc.actions]
        if missing:
            for f in missing:
                if block[f] not in data.get("actions", {}):
                    problems.append(
                        f"{path}.{f}: unresolved action reference {block[f]!r}"
                    )
            continue
        try:
            doc.surfaces[name] = build_surface(
                doc.actions[block["factor1"]],
                doc.actions[block["factor2"]],
                declared_minimal=block.get("declared_minimal", True),
            )
            doc.surface_factors[name] = (block["factor1"], block["factor2"])
        except IsoprodError as exc:
            problems.append(f"{path}: {exc}")

    for name, labels in sorted(data.get("families", {}).items()):
        path = f"families.{name}"
        bad = [a for a in labels if a not in doc.actions]
        if bad:
            for a in bad:
                if a not in data.get("actions", {}):
                    problems.append(f"{path}: unresolved action reference {a!r}")
            continue
        doc.families[name] = tuple(labels)

    if problems:
        raise DocumentError(problems)
    return doc


class _RefError(Exception):
    pass


def _parse_curve(block: dict, path: str) -> tuple[DualGraph, CurveNames]:
    vertex_ids = [v["id"] for v in block["vertices"]]
    _require_unique(vertex_ids, f"{path}.vertices", "vertex id")
    vidx = {vid: i for i, vid in enumerate(vertex_ids)}
    genera = [v["genus"] for v in block["vertices"]]

    he_ids = [h["id"] for h in block.get("half_edges", [])]
    _require_unique(he_ids, f"{path}.half_edges", "half-edge id")
    hidx = {hid: i for i, hid in enumerate(he_ids)}
    he_vertices = [
        _resolve(vidx, h["vertex"], f"{path}.half_edges[{i}].vertex", "vertex")
        for i, h in enumerate(block.get("half_edges", []))
    ]

    edges = [
        tuple(
            _resolve(hidx, h, f"{path}.edges[{i}]", "half-edge") for h in pair
        )
        for i, pair in enumerate(block.get("edges", []))
    ]
    mark_ids = [m["id"] for m in block.get("marks", [])]
    _require_unique(mark_ids, f"{path}.marks", "mark id")
    marks = [
        _resolve(vidx, m["vertex"], f"{path}.marks[{i}].vertex", "vertex")
        for i, m in enumerate(block.get("marks", []))
    ]
    graph = build_graph(
        genera,
        he_vertices,
        edges,
        marks,
        allow_disconnected=block.get("allow_disconnected", False),
    )
    return graph, CurveNames(tuple(vertex_ids), tuple(he_ids), tuple(mark_ids))


def _require_unique(ids: list[str], path: str, what: str) -> None:
    seen = set()
    for x in ids:
        if x in seen:
            raise _RefError(f"{path}: duplicate {what} {x!r}")
        seen.add(x)


def _resolve(index: dict[str, int], key: str, path: str, what: str) -> int:
    if key not in index:
        raise _RefError(f"{path}: unresolved {what} reference {key!r}")
    return index[key]


def _parse_image_maps(
    maps: list[dict], index: dict[str, int], ids: list[str], path: str
) -> list[tuple[int, ...]]:
    out = []
    for k, mapping in enumerate(maps):
        img = list(range(len(ids)))
        for src, dst in mapping.items():
            img[_resolve(index, src, f"{path}[{k}]", "object")] = _resolve(
                index, dst, f"{path}[{k}].{src}", "object"
            )
        out.append(tuple(img))
    return out


def _parse_action(
    group: FiniteGroup,
    graph: DualGraph,
    names: CurveNames,
    block: dict,
    path: str,
) -> CurveAction:
    vidx = {vid: i for i, vid in enumerate(names.vertices)}
    hidx = {hid: i for i, hid in enumerate(names.half_edges)}
    edge_index = {frozenset(pair): n for n, pair in enumerate(graph.edges)}

    ngens = len(group.generators)
    for key in ("vertex_images", "half_edge_images"):
        if len(block[key]) != ngens:
            raise _RefError(
                f"{path}.{key}: expected {ngens} image maps (one per generator), "
                f"got {len(block[key])}"
            )
    vertex_images = _parse_image_maps(
        block["vertex_images"], vidx, list(names.vertices), f"{path}.vertex_images"
    )
    he_images = _parse_image_maps(
        block["half_edge_images"], hidx, list(names.half_edges), f"{path}.half_edge_images"
    )

    def _element(e: int, where: str) -> int:
        if not 0 <= e < group.order:
            raise _RefError(f"{where}: element index {e} out of range (|G| = {group.order})")
        return e

    tangent = {}
    for i, entry in enumerate(block.get("tangent_chars", [])):
        where = f"{path}.tangent_chars[{i}]"
        key = (
            _element(entry["element"], where),
            _resolve(hidx, entry["half_edge"], where, "half-edge"),
        )
        tangent[key] = parse_rotation_char(entry["char"])

    smoothing = {}
    for i, entry in enumerate(block.get("smoothing_chars", [])):
        where = f"{path}.smoothing_chars[{i}]"
        pair = frozenset(
            _resolve(hidx, h, where, "half-edge") for h in entry["edge"]
        )
        if pair not in edge_index:
            raise _RefError(f"{where}: half-edge pair is not an edge of the curve")
        key = (_element(entry["element"], where), edge_index[pair])
        smoothing[key] = parse_rotation_char(entry["char"])

    kernels = {}
    for vid, elems in block.get("kernels", {}).items():
        where = f"{path}.kernels.{vid}"
        v = _resolve(vidx, vid, where, "vertex")
        kernels[v] = [_element(e, where) for e in elems]

    ram = []
    for i, entry in enumerate(block.get("ramification_orbits", [])):
        where = f"{path}.ramification_orbits[{i}]"
        ram.append(
            RamificationOrbit(
                _resolve(vidx, entry["vertex"], where, "vertex"),
                _element(entry["element"], where),
                parse_rotation_char(entry["char"]),
                entry["order"],
            )
        )

    return validate_action(
        group,
        graph,
        vertex_images,
        he_images,
        tangent_chars=tangent,
        smoothing_chars=smoothing,
        kernels=kernels,
        ramification_orbits=ram,
    )


def emit_document(doc: Document) -> dict:
    """Canonical JSON form; parse(emit(parse(x))) == parse(x)."""
    data: dict[str, Any] = {
        "version": doc.version,
        "group": {
            "degree": doc.group.degree,
            "generators": [perm_to_cycles(g) for g in doc.group.generators],
        },
    }
    if doc.curves:
        data["curves"] = {
            name: _emit_curve(doc.curves[name], doc.curve_names[name])
            for name in sorted(doc.curves)
        }
    if doc.actions:
        data["actions"] = {
            name: _emit_action(
                doc.actions[name],
                doc.action_curve[name],
                doc.curve_names[doc.action_curve[name]],
            )
            for name in sorted(doc.actions)
        }
    if doc.surfaces:
        data["surfaces"] = {
            name: {
                "factor1": doc.surface_factors[name][0],
                "factor2": doc.surface_factors[name][1],
                "declared_minimal": doc.surfaces[name].declared_minimal,
            }
            for name in sorted(doc.surfaces)
        }
    if doc.families:
        data["families"] = {name: list(doc.families[name]) for name in sorted(doc.families)}
    return data


def _emit_curve(graph: DualGraph, names: CurveNames) -> dict:
    return {
        "vertices": [
            {"id": names.vertices[v], "genus": graph.genera[v]}
            for v in range(graph.n_vertices)
        ],
        "half_edges": [
            {"id": names.half_edges[h], "vertex": names.vertices[graph.half_edge_vertex[h]]}
            for h in range(graph.n_half_edges)
        ],
        "edges": [
            [names.half_edges[p], names.half_edges[q]] for p, q in graph.edges
        ],
        "marks": [
            {"id": names.marks[m], "vertex": names.vertices[v]}
            for m, v in enumerate(graph.marks)
        ],
    }


def _emit_action(action: CurveAction, curve_name: str, names: CurveNames) -> dict:
    group = action.group
    gen_indices = group.generator_indices
    block: dict[str, Any] = {
        "curve": curve_name,
        "vertex_images": [
            {
                names.vertices[v]: names.vertices[action.vertex_perms[k][v]]
                for v in range(action.graph.n_vertices)
                if action.vertex_perms[k][v] != v
            }
            for k in gen_indices
        ],
        "half_edge_images": [
            {
                names.half_edges[h]: names.half_edges[action.half_edge_perms[k][h]]
                for h in range(action.graph.n_half_edges)
                if action.half_edge_perms[k][h] != h
            }
            for k in gen_indices
        ],
    }
    tangent = [
        {"element": g, "half_edge": names.half_edges[h], "char": format_rotation_char(c)}
        for (g, h), c in sorted(action.tangent_chars.items())
        if g != 0
    ]
    if tangent:
        block["tangent_chars"] = tangent
    smoothing = [
        {
            "element": g,
            "edge": [
                names.half_edges[action.graph.edges[n][0]],
                names.half_edges[action.graph.edges[n][1]],
            ],
            "char": format_rotation_char(c),
        }
        for (g, n), c in sorted(action.smoothing_chars.items())
        if g != 0 and action.swaps_branches(g, n)
    ]
    if smoothing:
        block["smoothing_chars"] = smoothing
    kernels = {
        names.vertices[v]: sorted(k - {0})
        for v, k in enumerate(action.kernels)
        if len(k) > 1
    }
    if kernels:
        block["kernels"] = kernels
    if action.ramification_orbits:
        block["ramification_orbits"] = [
            {
                "vertex": names.vertices[o.vertex],
                "element": o.element,
                "char": format_rotation_char(o.char),
                "order": o.order,
            }
            for o in action.ramification_orbits
        ]
    return block
