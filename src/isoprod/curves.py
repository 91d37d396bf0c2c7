"""Combinatorial stable curves as decorated dual graphs.

A dual graph records the combinatorial type of a nodal curve: vertices are
irreducible components labeled by their normalization genus, half-edges are
the branches over the nodes, edges pair two half-edges into a node (a
self-loop keeps both half-edges on one vertex), and marks are marked points.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain, count, filterfalse
from typing import NamedTuple

from ._value import _Frozen, kept
from .errors import GraphError


class DualGraph(_Frozen):
    """Validated dual graph; build through :func:`build_graph`.

    ``genera[v]`` is the normalization genus of vertex ``v``,
    ``half_edge_vertex[h]`` the vertex carrying half-edge ``h``,
    ``edges`` the node pairs (each half-edge in exactly one pair), and
    ``marks[m]`` the vertex carrying mark ``m``.

    Derived structure is built on first use, in one pass over the graph each,
    and kept on the instance, outside the four fields that equality, hashing
    and repr read: ``components`` (the connected components, each
    a sorted vertex tuple), ``vertex_half_edges[v]`` and ``vertex_marks[v]``
    (the half-edges and marks at ``v``, in index order), and
    ``arithmetic_genus`` (raising ``GraphError`` on every read if disconnected).
    """

    genera: tuple[int, ...]
    half_edge_vertex: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    marks: tuple[int, ...]

    def __init__(self, genera, half_edge_vertex, edges, marks=()):
        self.__dict__.update(
            genera=genera, half_edge_vertex=half_edge_vertex, edges=edges, marks=marks
        )

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_half_edges(self) -> int:
        return len(self.half_edge_vertex)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @kept
    def vertex_half_edges(self) -> tuple[tuple[int, ...], ...]:
        return _incidence(self.half_edge_vertex, self.n_vertices)

    @kept
    def vertex_marks(self) -> tuple[tuple[int, ...], ...]:
        return _incidence(self.marks, self.n_vertices)

    @kept
    def components(self) -> tuple[tuple[int, ...], ...]:
        return _components(self)

    @kept
    def arithmetic_genus(self) -> int:
        _require_connected(self)
        return sum(self.genera) + self.n_edges - self.n_vertices + 1


def _components(graph: DualGraph) -> tuple[tuple[int, ...], ...]:
    """The connected components: the classes of every edge, as tuples."""
    return tuple(map(tuple, _classes(graph.genera, graph.half_edge_vertex, graph.edges)[0]))


def _classes(genera, owner, pairs) -> tuple[list[list[int]], list[int], list[int]]:
    """Union-find over the vertices joined by the half-edge ``pairs``, each
    class rooted at its least vertex: the classes (ascending, ordered by
    their least vertex), each vertex's class, and each class's genus sum
    less one per merge."""
    up: dict[int, int] = {}  # a merged vertex -> a smaller vertex of its class
    for p, q in pairs:
        a, b = owner[p], owner[q]
        while a in up:  # halve the path to the least vertex of a's class
            up[a] = a = up.get(up[a], up[a])
        while b in up:
            up[b] = b = up.get(up[b], up[b])
        if a < b:
            up[b] = a
        elif b < a:
            up[a] = b
    classes, vclass, sums = [], [], []
    for v, g in enumerate(genera):
        if v in up:  # merged into the class of a smaller vertex
            c = vclass[up[v]]
            classes[c].append(v)
            sums[c] += g - 1
        else:
            c = len(classes)
            classes.append([v])
            sums.append(g)
        vclass.append(c)
    return classes, vclass, sums


def _incidence(owner: Sequence[int], n: int) -> tuple[tuple[int, ...], ...]:
    """Per target in range(n), the indices i with owner[i] == target, ascending."""
    at: list[list[int]] = [[] for _ in range(n)]
    for i, v in enumerate(owner):
        at[v].append(i)
    return tuple(map(tuple, at))


class T1Breakdown(NamedTuple):
    """First-order deformation dimension of a stable curve, by source:
    ``delta`` from the nodes, ``branch_term`` = 2*delta from the branch
    points on the normalization, ``minus_chi`` = 3*sum(g_i) - 3*nu from the
    normalization's tangent sheaf."""

    delta: int
    branch_term: int
    minus_chi: int
    total: int


def build_graph(
    genera: Sequence[int],
    half_edge_vertices: Sequence[int],
    edges: Iterable[Sequence[int]],
    marks: Sequence[int] = (),
    allow_disconnected: bool = False,
) -> DualGraph:
    """Validate raw graph data and freeze it.

    Checks structure (each half-edge on exactly one edge, ids in range),
    stability of every vertex (2g - 2 + degree + marks > 0), and
    connectivity unless ``allow_disconnected``.  Raises GraphError listing
    every offending item.
    """
    # the containers first: len() and iteration would fail with a bare TypeError
    for what, items in (("genera", genera), ("half-edge vertices", half_edge_vertices),
                        ("marks", marks)):
        if not isinstance(items, Sequence):
            raise GraphError(f"{what} must be a sequence, got {items!r}")
    if not isinstance(edges, Iterable):
        raise GraphError(f"edges must be an iterable of pairs, got {edges!r}")
    problems: list[str] = []
    nv = len(genera)
    if nv < 1:
        raise GraphError("graph needs at least one vertex")
    # bools and floats compare like ints, so each type is checked before its range
    for v, g in enumerate(genera):
        if type(g) is not int or g < 0:
            problems.append(f"vertex {v}: genus must be a nonnegative integer, got {g!r}")
    nh = len(half_edge_vertices)
    for h, v in enumerate(half_edge_vertices):
        if type(v) is not int:
            problems.append(f"half-edge {h}: vertex {v!r} is not an integer")
        elif not 0 <= v < nv:
            problems.append(f"half-edge {h}: vertex {v} out of range")
    edge_list: list[tuple[int, int]] = []
    use_count = [0] * nh
    for n, pair in enumerate(edges):
        if type(pair) is not tuple:  # exact types first: typing.Iterable's isinstance is slow
            pair = tuple(pair) if type(pair) is list or isinstance(pair, Iterable) else pair
        if type(pair) is not tuple or len(pair) != 2 or pair[0] == pair[1]:
            problems.append(f"edge {n}: must pair two distinct half-edges, got {pair!r}")
            continue
        for h in pair:
            if type(h) is not int:
                problems.append(f"edge {n}: half-edge {h!r} is not an integer")
                break
            if not 0 <= h < nh:
                problems.append(f"edge {n}: half-edge {h} out of range")
                break
        else:
            use_count[pair[0]] += 1
            use_count[pair[1]] += 1
            edge_list.append((min(pair), max(pair)))
    for h, c in enumerate(use_count):
        if c == 0:
            problems.append(f"half-edge {h}: dangling (belongs to no edge)")
        elif c > 1:
            problems.append(f"half-edge {h}: belongs to {c} edges")
    for m, v in enumerate(marks):
        if type(v) is not int:
            problems.append(f"mark {m}: vertex {v!r} is not an integer")
        elif not 0 <= v < nv:
            problems.append(f"mark {m}: vertex {v} out of range")
    if problems:
        raise GraphError("invalid graph structure:\n" + "\n".join(problems))

    graph = DualGraph(
        tuple(genera), tuple(half_edge_vertices), tuple(edge_list), tuple(marks)
    )
    unstable = [
        v
        for v, (g, hs, ms) in enumerate(
            zip(graph.genera, graph.vertex_half_edges, graph.vertex_marks)
        )
        if 2 * g - 2 + len(hs) + len(ms) <= 0
    ]
    if unstable:
        raise GraphError(
            "unstable vertices (2g - 2 + branches + marks must be > 0): "
            + ", ".join(map(str, unstable))
        )
    if not allow_disconnected and len(graph.components) > 1:
        raise GraphError("graph is disconnected (pass allow_disconnected to permit)")
    return graph


def contract(
    graph: DualGraph, removed: Iterable[int]
) -> tuple[DualGraph, tuple[tuple[int, ...], ...], dict[int, int], dict[int, int]]:
    """The graph with the edges ``removed`` contracted, with its vertices'
    merge classes of parent vertices and the renumbering of the surviving
    half-edges and edges.  Genera add, plus one per contracted cycle.  The
    classes come from union-find over the removed edges' ends, not from a
    walk of the whole graph.  It keeps every vertex stable and joins no two
    components, so it is not re-validated: its components are the parent's,
    mapped to the classes.  GraphError for a removed edge that is not an
    edge index.
    """
    if not isinstance(graph, DualGraph):
        raise GraphError(f"not a DualGraph: {type(graph).__name__}")
    if not isinstance(removed, Iterable):
        raise GraphError(f"removed edges must be an iterable of edge indices, got {removed!r}")
    edges, owner = graph.edges, graph.half_edge_vertex
    cut: dict[int, None] = {}  # the removed edges, once each
    for n in removed:
        if type(n) is not int or not 0 <= n < len(edges):  # True reads edge 1, -1 the last
            raise GraphError(f"removed edge {n!r} is not an edge index of the graph")
        cut[n] = None
    classes, vclass, genera = _classes(graph.genera, owner, map(edges.__getitem__, cut))
    for n in cut:  # one genus per contracted edge, the merges counted
        genera[vclass[owner[edges[n][0]]]] += 1
    kept = list(filterfalse(cut.__contains__, range(len(edges))))
    kept_ends = list(chain.from_iterable(map(edges.__getitem__, kept)))
    he_map = dict(zip(sorted(kept_ends), count()))  # the surviving half-edges
    ends = map(he_map.__getitem__, kept_ends)
    child = DualGraph(
        tuple(genera),
        tuple(map(vclass.__getitem__, map(owner.__getitem__, he_map))),
        tuple(zip(ends, ends)),  # each kept edge's two ends, renumbered
        tuple(map(vclass.__getitem__, graph.marks)),
    )
    child.__dict__["components"] = graph.components if len(classes) == len(vclass) else tuple(
        tuple(sorted(set(map(vclass.__getitem__, comp)))) for comp in graph.components
    )
    return child, tuple(map(tuple, classes)), he_map, dict(zip(kept, count()))


def _require_connected(graph: DualGraph) -> None:
    if len(graph.components) > 1:
        raise GraphError("operation requires a connected graph")


def arithmetic_genus(graph: DualGraph) -> int:
    """g = sum(g_i) + delta - nu + 1 for a connected nodal curve, kept on the graph."""
    if not isinstance(graph, DualGraph):
        raise GraphError(f"not a DualGraph: {type(graph).__name__}")
    return graph.arithmetic_genus


def t1_dimension(graph: DualGraph) -> T1Breakdown:
    """Dimension of the first-order deformation space of the stable curve.

    Three pieces: delta (one per node), 2*delta (branch points on the
    normalization), and 3*sum(g_i) - 3*nu; the total must equal 3g - 3,
    which is asserted rather than assumed.
    """
    if not isinstance(graph, DualGraph):
        raise GraphError(f"not a DualGraph: {type(graph).__name__}")
    if graph.marks:
        raise GraphError("T1 of marked curves not in scope")
    _require_connected(graph)
    delta = graph.n_edges
    branch_term = 2 * delta
    minus_chi = 3 * sum(graph.genera) - 3 * graph.n_vertices
    total = delta + branch_term + minus_chi
    g = arithmetic_genus(graph)
    if total != 3 * g - 3:
        raise AssertionError(
            f"internal inconsistency: T1 total {total} != 3g-3 = {3 * g - 3}"
        )
    return T1Breakdown(delta, branch_term, minus_chi, total)
