"""Combinatorial stable curves as decorated dual graphs.

A dual graph records the combinatorial type of a nodal curve: vertices are
irreducible components labeled by their normalization genus, half-edges are
the branches over the nodes, edges pair two half-edges into a node (a
self-loop keeps both half-edges on one vertex), and marks are marked points.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from ._value import _Frozen
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

    @cached_property
    def vertex_half_edges(self) -> tuple[tuple[int, ...], ...]:
        return _incidence(self.half_edge_vertex, self.n_vertices)

    @cached_property
    def vertex_marks(self) -> tuple[tuple[int, ...], ...]:
        return _incidence(self.marks, self.n_vertices)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return _components(self.n_vertices, self.half_edge_vertex, self.edges)

    @cached_property
    def arithmetic_genus(self) -> int:
        _require_connected(self)
        return sum(self.genera) + self.n_edges - self.n_vertices + 1


def _components(
    n_vertices: int, half_edge_vertex: Sequence[int], edges: Iterable[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """Connected components of the vertices joined by ``edges``, each a sorted
    vertex tuple, ordered by their least vertex."""
    adj: list[set[int]] = [set() for _ in range(n_vertices)]
    for p, q in edges:
        a, b = half_edge_vertex[p], half_edge_vertex[q]
        adj[a].add(b)
        adj[b].add(a)
    seen: set[int] = set()
    comps = []
    for v in range(n_vertices):
        if v in seen:
            continue
        stack, comp = [v], []
        seen.add(v)
        while stack:
            w = stack.pop()
            comp.append(w)
            for u in adj[w]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


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
    half-edges and edges.  Genera add, plus one per contracted cycle.  It
    keeps every vertex stable and joins no two components, so it is not
    re-validated: its components are the parent's, mapped to the classes.
    """
    removed = set(removed)
    classes = _components(
        graph.n_vertices, graph.half_edge_vertex, [graph.edges[n] for n in removed]
    )
    vclass = {v: c for c, vs in enumerate(classes) for v in vs}
    class_edges = Counter(vclass[graph.half_edge_vertex[graph.edges[n][0]]] for n in removed)
    genera = tuple(
        sum(graph.genera[v] for v in vs) + class_edges[c] - len(vs) + 1
        for c, vs in enumerate(classes)
    )
    removed_hes = {h for n in removed for h in graph.edges[n]}
    surviving = [h for h in range(graph.n_half_edges) if h not in removed_hes]
    he_map = {h: i for i, h in enumerate(surviving)}
    kept = [n for n in range(graph.n_edges) if n not in removed]
    child = DualGraph(
        genera,
        tuple(vclass[graph.half_edge_vertex[h]] for h in surviving),
        tuple((he_map[p], he_map[q]) for p, q in map(graph.edges.__getitem__, kept)),
        tuple(vclass[v] for v in graph.marks),
    )
    child.__dict__["components"] = tuple(
        tuple(sorted({vclass[v] for v in comp})) for comp in graph.components
    )
    return child, classes, he_map, {n: i for i, n in enumerate(kept)}


def _require_connected(graph: DualGraph) -> None:
    if len(graph.components) > 1:
        raise GraphError("operation requires a connected graph")


def arithmetic_genus(graph: DualGraph) -> int:
    """g = sum(g_i) + delta - nu + 1 for a connected nodal curve, kept on the graph."""
    return graph.arithmetic_genus


def t1_dimension(graph: DualGraph) -> T1Breakdown:
    """Dimension of the first-order deformation space of the stable curve.

    Three pieces: delta (one per node), 2*delta (branch points on the
    normalization), and 3*sum(g_i) - 3*nu; the total must equal 3g - 3,
    which is asserted rather than assumed.
    """
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
