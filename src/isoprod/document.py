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
In ``SCHEMA`` every closed record comes from ``_record``, every list (and
its bounds) from ``_array`` and every map keyed by user names from ``_named``.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from ._value import _Value
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
_NAT = {"type": "integer", "minimum": 0}
_CHAR = {"type": "string"}
_BOOL = {"type": "boolean"}


def _record(*required: str, **properties: dict) -> dict:
    """A closed object: every key in ``required`` present, none outside
    ``properties``.  The walk reports a missing key before an unexpected one."""
    return {
        "type": "object",
        "required": list(required),
        "additionalProperties": False,
        "properties": properties,
    }


def _array(items: dict, **bounds: int) -> dict:
    """A list of ``items``; ``bounds`` are its ``minItems`` / ``maxItems``."""
    return {"type": "array", "items": items, **bounds}


def _named(item: dict) -> dict:
    """An object mapping user-chosen names to ``item``s."""
    return {"type": "object", "additionalProperties": item}


_PAIR = _array(_ID, minItems=2, maxItems=2)
_IMAGE_MAPS = _array(_named(_ID))
_AT_VERTEX = _record("id", "vertex", id=_ID, vertex=_ID)

SCHEMA: dict[str, Any] = _record(
    "version", "group",
    version={"type": "string"},
    group=_record(
        "degree", "generators",
        degree={"type": "integer", "minimum": 1, "maximum": _MAX_DEGREE},
        generators=_array(_array(_array(_NAT, minItems=2))),
    ),
    curves=_named(
        _record(
            "vertices",
            vertices=_array(_record("id", "genus", id=_ID, genus=_NAT), minItems=1),
            half_edges=_array(_AT_VERTEX),
            edges=_array(_PAIR),
            marks=_array(_AT_VERTEX),
            allow_disconnected=_BOOL,
        )
    ),
    actions=_named(
        _record(
            "curve", "vertex_images", "half_edge_images",
            curve=_ID,
            vertex_images=_IMAGE_MAPS,
            half_edge_images=_IMAGE_MAPS,
            tangent_chars=_array(
                _record("element", "half_edge", "char", element=_NAT, half_edge=_ID, char=_CHAR)
            ),
            smoothing_chars=_array(
                _record("element", "edge", "char", element=_NAT, edge=_PAIR, char=_CHAR)
            ),
            kernels=_named(_array(_NAT)),
            ramification_orbits=_array(
                _record(
                    "vertex", "element", "char", "order",
                    vertex=_ID, element=_NAT, char=_CHAR, order={"type": "integer", "minimum": 2},
                )
            ),
        )
    ),
    surfaces=_named(
        _record(
            "factor1", "factor2",
            factor1=_ID, factor2=_ID, declared_minimal=_BOOL, mixed_type=_BOOL,
        )
    ),
    families=_named(_array(_ID, minItems=1)),
)


class CurveNames(NamedTuple):
    vertices: tuple[str, ...]
    half_edges: tuple[str, ...]
    marks: tuple[str, ...]


class Document(_Value):
    """A fully validated input document: its version, its group and seven
    name-keyed dicts, each a new empty dict unless given.  Equality and repr
    read all nine fields; it is mutable, so it has no hash."""

    version: str
    group: FiniteGroup
    curves: dict[str, DualGraph]
    curve_names: dict[str, CurveNames]
    actions: dict[str, CurveAction]
    action_curve: dict[str, str]
    surfaces: dict[str, SurfaceDescriptor]
    surface_factors: dict[str, tuple[str, str]]
    families: dict[str, tuple[str, ...]]
    __hash__ = None

    def __init__(
        self, version, group, curves=None, curve_names=None, actions=None, action_curve=None,
        surfaces=None, surface_factors=None, families=None,
    ):
        self.version, self.group = version, group
        self.curves = {} if curves is None else curves
        self.curve_names = {} if curve_names is None else curve_names
        self.actions = {} if actions is None else actions
        self.action_curve = {} if action_curve is None else action_curve
        self.surfaces = {} if surfaces is None else surfaces
        self.surface_factors = {} if surface_factors is None else surface_factors
        self.families = {} if families is None else families

    def names_for_action(self, name: str) -> CurveNames:
        return self.curve_names[self.action_curve[name]]


def parse_document(text: str, cap: int = DEFAULT_GROUP_CAP) -> Document:
    """Parse and validate a UTF-8 JSON document; raises DocumentError with
    every detected problem."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (TypeError, ValueError) as exc:
        # not a str or bytes, JSONDecodeError, a repeated key, or an integer past the digit limit
        raise DocumentError([f"<json>: {exc}"]) from exc
    except RecursionError:
        raise DocumentError(["<json>: nesting too deep"]) from None
    return document_from_dict(data, cap=cap)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A decoded JSON object; a repeated key raises ValueError."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


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

    curves, actions = data.get("curves", {}), data.get("actions", {})
    for name, block in sorted(curves.items()):
        path = f"curves.{name}"
        try:
            doc.curves[name], doc.curve_names[name] = _parse_curve(block, path)
        except IsoprodError as exc:
            problems.append(f"{path}: {exc}")
        except _RefError as exc:
            problems.append(str(exc))

    for name, block in sorted(actions.items()):
        path, curve = f"actions.{name}", block["curve"]
        if not _refs_built([(f"{path}.curve", curve)], doc.curves, curves, "curve", problems):
            continue
        try:
            doc.actions[name] = _parse_action(
                group, doc.curves[curve], doc.curve_names[curve], block, path
            )
            doc.action_curve[name] = curve
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
        factors = (block["factor1"], block["factor2"])
        refs = [(f"{path}.factor{i}", a) for i, a in enumerate(factors, 1)]
        if not _refs_built(refs, doc.actions, actions, "action", problems):
            continue
        try:
            doc.surfaces[name] = build_surface(
                *map(doc.actions.__getitem__, factors),
                declared_minimal=block.get("declared_minimal", True),
            )
            doc.surface_factors[name] = factors
        except IsoprodError as exc:
            problems.append(f"{path}: {exc}")

    for name, labels in sorted(data.get("families", {}).items()):
        refs = [(f"families.{name}", a) for a in labels]
        if _refs_built(refs, doc.actions, actions, "action", problems):
            doc.families[name] = tuple(labels)

    if problems:
        raise DocumentError(problems)
    return doc


def _refs_built(
    refs: list[tuple[str, str]], built: dict, declared: dict, what: str, problems: list[str]
) -> bool:
    """Whether every ``(path, name)`` in ``refs`` names an item in ``built``.
    A name not even ``declared`` adds an unresolved-reference problem; one
    declared but not built has had its own problems reported already."""
    for path, name in refs:
        if name not in built and name not in declared:
            problems.append(f"{path}: unresolved {what} reference {name!r}")
    return all(name in built for _, name in refs)


class _RefError(Exception):
    pass


def _parse_curve(block: dict, path: str) -> tuple[DualGraph, CurveNames]:
    vidx = _index(block["vertices"], f"{path}.vertices", "vertex id")
    genera = [v["genus"] for v in block["vertices"]]

    hidx = _index(block.get("half_edges", []), f"{path}.half_edges", "half-edge id")
    he_vertices = [
        _resolve(vidx, h["vertex"], f"{path}.half_edges[{i}].vertex", "vertex")
        for i, h in enumerate(block.get("half_edges", []))
    ]

    edges = [
        tuple(_resolve(hidx, h, f"{path}.edges[{i}]", "half-edge") for h in pair)
        for i, pair in enumerate(block.get("edges", []))
    ]
    midx = _index(block.get("marks", []), f"{path}.marks", "mark id")
    marks = [
        _resolve(vidx, m["vertex"], f"{path}.marks[{i}].vertex", "vertex")
        for i, m in enumerate(block.get("marks", []))
    ]
    disconnected = block.get("allow_disconnected", False)
    graph = build_graph(genera, he_vertices, edges, marks, allow_disconnected=disconnected)
    return graph, CurveNames(tuple(vidx), tuple(hidx), tuple(midx))


def _index(items: list[dict], path: str, what: str) -> dict[str, int]:
    """The position of each item by its ``id``; a repeated id raises _RefError."""
    index: dict[str, int] = {}
    for i, item in enumerate(items):
        if item["id"] in index:
            raise _RefError(f"{path}: duplicate {what} {item['id']!r}")
        index[item["id"]] = i
    return index


def _resolve(index: dict[str, int], key: str, path: str, what: str) -> int:
    if key not in index:
        raise _RefError(f"{path}: unresolved {what} reference {key!r}")
    return index[key]


def _parse_image_maps(maps: list[dict], index: dict[str, int], path: str) -> list[tuple[int, ...]]:
    out = []
    for k, mapping in enumerate(maps):
        img = list(range(len(index)))
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
    vertex_images = _parse_image_maps(block["vertex_images"], vidx, f"{path}.vertex_images")
    he_images = _parse_image_maps(block["half_edge_images"], hidx, f"{path}.half_edge_images")

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
        if key in tangent:
            raise _RefError(f"{where}: duplicate (element, half-edge) pair")
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
        if key in smoothing:
            raise _RefError(f"{where}: duplicate (element, edge) pair")
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
    if not isinstance(doc, Document):
        raise DocumentError([f"<document>: not a Document: {type(doc).__name__}"])
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
                doc.actions[name], doc.action_curve[name], doc.names_for_action(name)
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
    block = {
        "vertices": [
            {"id": names.vertices[v], "genus": graph.genera[v]}
            for v in range(graph.n_vertices)
        ],
        "half_edges": [
            {"id": names.half_edges[h], "vertex": names.vertices[graph.half_edge_vertex[h]]}
            for h in range(graph.n_half_edges)
        ],
        "edges": [[names.half_edges[h] for h in edge] for edge in graph.edges],
        "marks": [
            {"id": names.marks[m], "vertex": names.vertices[v]}
            for m, v in enumerate(graph.marks)
        ],
    }
    if len(graph.components) > 1:
        block["allow_disconnected"] = True
    return block


def _emit_image_maps(
    perms: Sequence[tuple[int, ...]], ids: tuple[str, ...], generators: Iterable[int]
) -> list[dict[str, str]]:
    """Per generator's element index, ``{id: image id}`` for each object its
    permutation moves; the inverse of :func:`_parse_image_maps`."""
    return [{ids[x]: ids[y] for x, y in enumerate(perms[k]) if x != y} for k in generators]


def _emit_action(action: CurveAction, curve_name: str, names: CurveNames) -> dict:
    gens = action.group.generator_indices
    block: dict[str, Any] = {
        "curve": curve_name,
        "vertex_images": _emit_image_maps(action.vertex_perms, names.vertices, gens),
        "half_edge_images": _emit_image_maps(action.half_edge_perms, names.half_edges, gens),
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
            "edge": [names.half_edges[h] for h in action.graph.edges[n]],
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
