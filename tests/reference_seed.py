"""The character-table, closure and fixed-point algorithms as first shipped.

A test-only oracle for the differential tests in ``test_seed_differential``:
``subgroup_closure`` (O(|H|^2) products per round), ``conjugacy_union``
(conjugates by every element), ``_transport_and_close`` (every transporter,
pairwise closure and product check), the ``validate_action`` that calls
them (kernel equivariance checked at every element), the per-element
``fixed_point_profile`` and the callable Burnside ``invariant_dimension_trace``
(action and character evaluated at every (element, point) pair), with the
``Action`` alias and the action-axiom check ``_check_is_action`` that trace
runs, and the ``build_graph`` that walked every vertex, half-edge, edge and
mark in Python.  The bodies are copied unchanged; the group methods take the
group as ``self``, and calls to them go to the copies here instead of the
library's.
Calls to ``extend_action`` and ``orbits`` pass the library's permutation
tables and point counts.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from typing import Callable

from isoprod.actions import CharTable, CurveAction, RamificationOrbit
from isoprod.curves import DualGraph
from isoprod.cyclotomic import root_of_unity_sum
from isoprod.errors import ActionError, CharacterError, GraphError, GroupError
from isoprod.groups import (
    TRIVIAL_CHAR,
    FiniteGroup,
    Orbit,
    Perm,
    char_order,
    orbits,
)
from isoprod.surfaces import ElementFixedPoints

Action = Callable[[int, object], object]


def _check_is_action(group: FiniteGroup, act: Action, points: Sequence) -> None:
    for p in points:
        if act(0, p) != p:
            raise GroupError(f"not a group action: identity moves point {p!r}")
    gen_indices = group.generator_indices
    for i, row in enumerate(group.right):
        for k, prod in enumerate(row):
            for p in points:
                if act(prod, p) != act(i, act(gen_indices[k], p)):
                    raise GroupError(
                        "not a group action: composition fails at "
                        f"(element {i}, generator {k}, point {p!r})"
                    )


def subgroup_closure(self, seeds: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by the given element indices."""
    known = {0}
    frontier = [s for s in set(seeds) if s != 0]
    for s in frontier:
        if not (0 <= s < self.order):
            raise GroupError(f"element index {s} out of range")
    known.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(known):
                for c in (self.mul(a, b), self.mul(b, a)):
                    if c not in known:
                        known.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(known)


def conjugacy_union(self, sub: Iterable[int]) -> frozenset[int]:
    """Union of all conjugates of a subgroup."""
    out: set[int] = set()
    for g in range(self.order):
        out.update(self.conjugate(g, x) for x in sub)
    return frozenset(out)


def _transport_and_close(
    group: FiniteGroup,
    perms: Sequence[Perm],
    orbit: Orbit,
    seeds: Mapping[tuple[int, int], Fraction],
    forced: Mapping[tuple[int, int], Fraction],
    kind: str,
    obj_kind: str,
) -> CharTable:
    """Complete a character table on one orbit of objects.

    ``seeds`` are user-supplied values, ``forced`` are values implied by
    other data (kernel triviality, tangent-product rule); both are
    transported to the representative, closed under multiplication, checked
    pairwise, and redistributed.  Gaps raise CharacterError naming the
    offending (element, object) pair.
    """
    rep = orbit.representative
    transporters = {
        obj: [g for g in range(group.order) if perms[g][rep] == obj]
        for obj in orbit.members
    }
    known: dict[int, Fraction] = {0: TRIVIAL_CHAR}

    def learn(h: int, val: Fraction, provenance: str) -> None:
        val = val % 1
        if h in known and known[h] != val:
            raise CharacterError(
                f"inconsistent {kind} character at (element {h}, {obj_kind} {rep}): "
                f"{provenance} gives {val}, have {known[h]}"
            )
        known[h] = val

    for source in (forced, seeds):
        for (h, obj), val in source.items():
            if obj not in transporters:
                continue
            for g in transporters[obj]:
                ginv = group.inverse(g)
                learn(group.mul(group.mul(ginv, h), g), val, f"value at {obj_kind} {obj}")

    frontier = list(known)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(known):
                for c, val in (
                    (group.mul(a, b), known[a] + known[b]),
                    (group.mul(b, a), known[b] + known[a]),
                ):
                    if c not in known:
                        known[c] = val % 1
                        nxt.append(c)
        frontier = nxt
    for a in known:
        for b in known:
            c = group.mul(a, b)
            if c in known and known[c] != (known[a] + known[b]) % 1:
                raise CharacterError(
                    f"inconsistent {kind} character data on the stabilizer of "
                    f"{obj_kind} {rep}: product rule fails at elements ({a}, {b})"
                )

    stab = set(orbit.stabilizer)
    missing = sorted(stab - set(known))
    if missing:
        raise CharacterError(
            f"missing {kind} character for element {missing[0]} at {obj_kind} {rep}"
        )

    table: CharTable = {}
    for obj in orbit.members:
        g = transporters[obj][0]
        ginv = group.inverse(g)
        for h, val in known.items():
            if h in stab:
                table[(group.mul(group.mul(g, h), ginv), obj)] = val
    return table


def validate_action(
    group: FiniteGroup,
    graph: DualGraph,
    vertex_images: Sequence[Sequence[int]],
    half_edge_images: Sequence[Sequence[int]],
    tangent_chars: Mapping[tuple[int, int], Fraction] | None = None,
    smoothing_chars: Mapping[tuple[int, int], Fraction] | None = None,
    kernels: Mapping[int, Iterable[int]] | None = None,
    ramification_orbits: Iterable[RamificationOrbit | tuple] = (),
) -> CurveAction:
    """Check every consistency relation the action data must satisfy.

    ``vertex_images`` / ``half_edge_images`` give, per group generator, the
    induced permutation of vertices / half-edges.  Character mappings are
    seeds keyed by (element index, object index); kernels map a vertex to
    generators of the subgroup acting trivially on its component.
    """
    tangent_chars = dict(tangent_chars or {})
    smoothing_chars = dict(smoothing_chars or {})
    kernels = {v: list(ks) for v, ks in (kernels or {}).items()}

    ngens = len(group.generators)
    if len(vertex_images) != ngens or len(half_edge_images) != ngens:
        raise ActionError("need one vertex image and one half-edge image per generator")

    try:
        vertex_perms = group.extend_action(
            [tuple(img) for img in vertex_images] if ngens else [], graph.n_vertices
        )
        half_edge_perms = group.extend_action(
            [tuple(img) for img in half_edge_images] if ngens else [], graph.n_half_edges
        )
    except GroupError as exc:
        raise ActionError(str(exc)) from exc
    if ngens == 0:
        vertex_perms = tuple(tuple(range(graph.n_vertices)) for _ in range(group.order))
        half_edge_perms = tuple(
            tuple(range(graph.n_half_edges)) for _ in range(group.order)
        )
    else:
        if any(len(p) != graph.n_vertices for p in vertex_perms):
            raise ActionError("vertex images must permute the graph's vertices")
        if any(len(p) != graph.n_half_edges for p in half_edge_perms):
            raise ActionError("half-edge images must permute the graph's half-edges")

    for k in range(ngens):
        for h in range(graph.n_half_edges):
            if (
                graph.half_edge_vertex[half_edge_images[k][h]]
                != vertex_images[k][graph.half_edge_vertex[h]]
            ):
                raise ActionError(
                    f"half-edge action does not cover the vertex action "
                    f"(generator {k}, half-edge {h})"
                )

    edge_index = {frozenset(pair): n for n, pair in enumerate(graph.edges)}
    edge_perm_rows = []
    for g in range(group.order):
        row = []
        for p, q in graph.edges:
            image = frozenset((half_edge_perms[g][p], half_edge_perms[g][q]))
            if image not in edge_index:
                raise ActionError(
                    f"edge action ill-defined: element {g} sends a node to the "
                    f"non-node pair {sorted(image)}"
                )
            row.append(edge_index[image])
        edge_perm_rows.append(tuple(row))
    edge_perms = tuple(edge_perm_rows)

    kernel_subs: list[frozenset[int]] = []
    for v in range(graph.n_vertices):
        sub = subgroup_closure(group, kernels.get(v, ()))
        for k in sub:
            if vertex_perms[k][v] != v:
                raise ActionError(f"kernel element {k} of vertex {v} moves the vertex")
            for h in graph.vertex_half_edges[v]:
                if half_edge_perms[k][h] != h:
                    raise ActionError(
                        f"kernel element {k} of vertex {v} moves half-edge {h}"
                    )
        kernel_subs.append(sub)
    for g in range(group.order):
        for v in range(graph.n_vertices):
            if {group.conjugate(g, x) for x in kernel_subs[v]} != kernel_subs[vertex_perms[g][v]]:
                raise ActionError(
                    f"kernels not equivariant: element {g} maps vertex {v} to "
                    f"{vertex_perms[g][v]} but does not conjugate the kernels"
                )

    vertex_orbits = tuple(
        orbits(vertex_perms, range(graph.n_vertices))
    )
    half_edge_orbits = tuple(
        orbits(half_edge_perms, range(graph.n_half_edges))
    )
    edge_orbits = tuple(
        orbits(edge_perms, range(graph.n_edges))
    )

    for (h, obj), val in tangent_chars.items():
        if not 0 <= obj < graph.n_half_edges:
            raise ActionError(f"tangent character at unknown half-edge {obj}")
        if half_edge_perms[h][obj] != obj:
            raise ActionError(
                f"tangent character assigned to element {h} which moves half-edge {obj}"
            )
        if char_order(val) > 1 and group.element_order(h) % char_order(val) != 0:
            raise CharacterError(
                f"tangent character {val} at half-edge {obj} has order "
                f"{char_order(val)}, not a divisor of the order of element {h}"
            )

    forced_tangent: CharTable = {}
    for v in range(graph.n_vertices):
        for k in kernel_subs[v]:
            for h in graph.vertex_half_edges[v]:
                forced_tangent[(k, h)] = TRIVIAL_CHAR

    full_tangent: CharTable = {}
    for orbit in half_edge_orbits:
        full_tangent.update(
            _transport_and_close(
                group, half_edge_perms, orbit, tangent_chars, forced_tangent,
                "tangent", "half-edge",
            )
        )
    for key, val in tangent_chars.items():
        if full_tangent[key] != val % 1:
            raise CharacterError(
                f"inconsistent tangent character at (element {key[0]}, half-edge {key[1]})"
            )

    for (h, n), _ in smoothing_chars.items():
        if not 0 <= n < graph.n_edges:
            raise ActionError(f"smoothing character at unknown edge {n}")
        if edge_perms[h][n] != n:
            raise ActionError(
                f"smoothing character assigned to element {h} which moves edge {n}"
            )

    forced_smoothing: CharTable = {}
    for n, (p, q) in enumerate(graph.edges):
        for g in range(group.order):
            if half_edge_perms[g][p] == p and half_edge_perms[g][q] == q:
                forced_smoothing[(g, n)] = (full_tangent[(g, p)] + full_tangent[(g, q)]) % 1

    full_smoothing: CharTable = {}
    for orbit in edge_orbits:
        full_smoothing.update(
            _transport_and_close(
                group, edge_perms, orbit, smoothing_chars, forced_smoothing,
                "smoothing", "edge",
            )
        )
    for key, val in smoothing_chars.items():
        if full_smoothing[key] != val % 1:
            raise CharacterError(
                f"inconsistent smoothing character at (element {key[0]}, edge {key[1]})"
            )

    ram: list[RamificationOrbit] = []
    for entry in ramification_orbits:
        if not isinstance(entry, RamificationOrbit):
            entry = RamificationOrbit(*entry)
        v, h, chi, e = entry.vertex, entry.element, entry.char % 1, entry.order
        if not 0 <= v < graph.n_vertices:
            raise ActionError(f"ramification orbit at unknown vertex {v}")
        if not 0 <= h < group.order:
            raise ActionError(f"ramification orbit names unknown element {h}")
        if vertex_perms[h][v] != v:
            raise ActionError(
                f"ramification element {h} does not stabilize its vertex {v}"
            )
        if e < 2:
            raise ActionError(f"ramification order must be >= 2, got {e}")
        kernel = kernel_subs[v]
        m, x = 1, h
        while x not in kernel:
            x = group.mul(x, h)
            m += 1
        if m != e:
            raise ActionError(
                f"ramification stabilizer at vertex {v} is cyclic of order {m}, "
                f"declared order {e}"
            )
        if char_order(chi) != e:
            raise ActionError(
                f"ramification character {chi} at vertex {v} must have exact order {e}"
            )
        ram.append(RamificationOrbit(v, h, chi, e))
    ram.sort(key=lambda o: (o.vertex, o.element, o.char, o.order))

    return CurveAction(
        group=group,
        graph=graph,
        vertex_perms=vertex_perms,
        half_edge_perms=half_edge_perms,
        edge_perms=edge_perms,
        tangent_chars=full_tangent,
        smoothing_chars=full_smoothing,
        kernels=tuple(kernel_subs),
        ramification_orbits=tuple(ram),
        vertex_orbits=vertex_orbits,
        half_edge_orbits=half_edge_orbits,
        edge_orbits=edge_orbits,
    )


def fixed_point_profile(action: CurveAction) -> dict[int, ElementFixedPoints]:
    """For each nonidentity element: does it fix a point / a whole component.

    A fixed point arises from membership in a conjugate of a ramification
    orbit's point stabilizer, a fixed half-edge, a fixed node, or a kernel.
    """
    group = action.group
    ram_unions = []
    for o in action.ramification_orbits:
        stab = subgroup_closure(group, {o.element} | set(action.kernels[o.vertex]))
        ram_unions.append(conjugacy_union(group, stab))
    profile = {}
    for g in range(1, group.order):
        fixes_component = any(g in k for k in action.kernels)
        has_fp = (
            fixes_component
            or any(
                action.half_edge_perms[g][h] == h
                for h in range(action.graph.n_half_edges)
            )
            or any(action.edge_perms[g][n] == n for n in range(action.graph.n_edges))
            or any(g in u for u in ram_unions)
        )
        profile[g] = ElementFixedPoints(has_fp, fixes_component)
    return profile


def invariant_dimension_trace(
    group: FiniteGroup,
    act: Action,
    points: Sequence,
    char: Callable[[int, object], Fraction],
    check: bool = True,
) -> int:
    """dim V^G for a permutation representation with 1-dimensional fibers.

    Burnside average (1/|G|) sum_g tr(g), where tr(g) sums the character
    values of g over its fixed points; evaluated exactly as a sum of roots
    of unity.  Raises CharacterError when the average is not a nonnegative
    integer or a needed character value is missing.
    """
    if check:
        _check_is_action(group, act, points)
    counts: dict[Fraction, int] = {}
    for g in range(group.order):
        for p in points:
            if act(g, p) == p:
                try:
                    val = char(g, p)
                except KeyError:
                    raise CharacterError(
                        f"inconsistent character data: no character for element {g} "
                        f"at fixed point {p!r}"
                    ) from None
                val = val % 1
                counts[val] = counts.get(val, 0) + 1
    total = root_of_unity_sum(counts)
    if total is None:
        raise CharacterError("inconsistent character data: trace sum is irrational")
    dim, rem = divmod(total, group.order)
    if rem != 0 or dim < 0:
        raise CharacterError(
            f"inconsistent character data: trace average {total}/{group.order} "
            "is not a nonnegative integer"
        )
    return dim


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
