"""Finite group actions on stable curves with local character data.

The dual graph alone does not pin down how a group acts near its fixed
points, so an action carries explicit local data: a rotation character for
every element fixing a branch (its action on the branch's tangent line), a
rotation character for every element fixing a node (its action on the
node's smoothing parameter), a kernel subgroup per vertex (elements acting
trivially on that whole component), and the orbits of ramified smooth
points away from the nodes.

A character table is stored per orbit (:class:`CharacterTable`): the value
at (g, t.p) is the value at (t^-1 g t, p), so an orbit's values are its
representative's stabilizer character, one column of integers modulo the
lcm of the denominators supplied.  Validation builds each column at the
representative from the values supplied, the zeros its component's kernel
forces, and for a node the sum of its two branch characters where both
branches are fixed (a branch swap's value must be supplied).  It extends
them multiplicatively inside the stabilizer, checks for conflicts, and
reports any value still missing rather than guessing it.  Every check runs
by BFS over generators: one walk of the half-edge table, O(|G| * |H|) group
products (the vertex and edge tables are read off it), and O(|stab| * gens)
per column unless forced zeros cover the stabilizer.  ``Fraction`` values
appear only when a table is read and in messages.  Quotient signatures read
branch suborbits from the half-edge orbit table (``tangent_chars.orbits``);
the oracle recomputes them as orbits of the stabilizer's half-edge rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, repeat
from math import lcm
from operator import ne
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from ._value import _Frozen, kept
from .curves import DualGraph
from .errors import (
    ActionError,
    CharacterError,
    GraphError,
    GroupError,
    RamificationError,
)
from .groups import (
    CharacterTable,
    FiniteGroup,
    OrbitTable,
    Perm,
    RestrictedTable,
    char_order,
    check_perm,
    column,
    compose,
    identity_perm,
    invariant_dimension_trace,
    orbits,
)

CharTable = Mapping[tuple[int, int], Fraction]
# forced values on a stabilizer subgroup F: |F|, all zero?, pairs at the rep
Forced = tuple[int, bool, Iterable[tuple[int, int]]]


class RamificationOrbit(NamedTuple):
    """One orbit of smooth non-node points with nontrivial cyclic stabilizer.

    ``element`` generates the stabilizer of a point of the orbit on the
    component of ``vertex``; ``char`` is its tangent character there and
    ``order`` the ramification index (the element's order modulo the
    component's kernel).  The field order is the sort order of an action's
    ramification orbits.
    """

    vertex: int
    element: int
    char: Fraction
    order: int


class QuotientSignature(NamedTuple):
    """Per component orbit: quotient genus, branch point count, and the
    contribution 3*g' - 3 + b to the invariant deformation count."""

    representative: int
    g_prime: int
    b: int
    contribution: int


class EquivariantT1(NamedTuple):
    """Invariant first-order deformations, by source: node smoothings,
    branch adjustments on the normalization, and quotient moduli."""

    node_inv: int
    branch_inv: int
    minus_chi_inv: int
    total: int


class CurveAction(_Frozen):
    """A validated action of a finite group on a stable dual graph.

    Character tables are complete: every (element, fixed half-edge) and
    (element, fixed edge) pair has an entry, read from one column per orbit
    of half-edges or edges (:class:`CharacterTable`, whose orbit tables are
    ``half_edge_orbits`` / ``edge_orbits``).  Each orbit field is an
    :class:`~isoprod.groups.OrbitTable`, which reads as the tuple of its
    ``Orbit`` records.  Instances are immutable.  A validated
    action's half-edge table is a tuple (elements acting alike may share a
    row) and its vertex and edge tables are usually
    :class:`~isoprod.groups.RestrictedTable` views of it; build one through
    :func:`validate_action`.  ``families.smooth_node_orbit`` derives a child
    whose tables are views of its parent's, each row built on first read;
    a view compares equal to the tuple of its rows.

    Equality, hashing and repr read the twelve fields below.  Derived facts
    are computed on first use and kept on the instance, outside them:
    ``fixed_point_sets``, ``quotient_signatures`` and ``t1_equivariant``.
    A new instance, such as a ``_replace()`` copy, starts with none of them;
    :func:`t1_equivariant_oracle` reads none of them.
    """

    group: FiniteGroup
    graph: DualGraph
    vertex_perms: Sequence[Perm]
    half_edge_perms: Sequence[Perm]
    edge_perms: Sequence[Perm]
    tangent_chars: CharacterTable
    smoothing_chars: CharacterTable
    kernels: tuple[frozenset[int], ...]
    ramification_orbits: tuple[RamificationOrbit, ...]
    vertex_orbits: OrbitTable
    half_edge_orbits: OrbitTable
    edge_orbits: OrbitTable

    def __init__(
        self, group, graph, vertex_perms, half_edge_perms, edge_perms, tangent_chars,
        smoothing_chars, kernels, ramification_orbits, vertex_orbits, half_edge_orbits,
        edge_orbits,
    ):
        self.__dict__.update(
            group=group, graph=graph, vertex_perms=vertex_perms,
            half_edge_perms=half_edge_perms, edge_perms=edge_perms,
            tangent_chars=tangent_chars, smoothing_chars=smoothing_chars, kernels=kernels,
            ramification_orbits=ramification_orbits, vertex_orbits=vertex_orbits,
            half_edge_orbits=half_edge_orbits, edge_orbits=edge_orbits,
        )

    def swaps_branches(self, g: int, n: int) -> bool:
        p, q = self.graph.edges[n]
        return self.half_edge_perms[g][p] == q

    @kept
    def fixed_point_sets(self) -> tuple[frozenset[int], frozenset[int]]:
        """(elements with a fixed point, elements fixing a whole component).

        An element fixes a point exactly when it lies in a kernel, in a
        conjugate of a half-edge or edge stabilizer, or in a conjugate of a
        ramification orbit's point stabilizer (generated by the orbit's element
        and the component's kernel).  Kernels are permuted by conjugation, so
        one conjugacy closure of all these subgroups gives the first set:
        O(|G| * gens) group products on first use, each distinct kernel and
        stabilizer read once; ``surfaces.fixed_point_profile`` and the
        freeness checks read it.  Both may hold the identity, which all skip.
        """
        group = self.group
        fixes_component = frozenset().union(*set(self.kernels))  # frozensets cache their hash
        seeds = set(fixes_component)
        for table in (self.half_edge_orbits, self.edge_orbits):
            seeds.update(*map(table.stabilizers.__getitem__, set(table.stabilizer_ids)))
        for o in self.ramification_orbits:
            seeds |= group.subgroup_closure([o.element, *self.kernels[o.vertex]])
        return group.conjugacy_union(seeds), fixes_component

    @kept
    def quotient_signatures(self) -> tuple[QuotientSignature, ...]:
        """See :func:`quotient_signatures`; a ramification error raises on every read."""
        return tuple(_signature(self, i) for i in range(len(self.vertex_orbits.representatives)))

    @kept
    def t1_equivariant(self) -> EquivariantT1:
        """See :func:`t1_equivariant`; a precondition error raises on every read."""
        _check_t1_preconditions(self)
        # node (branch) orbits whose stabilizer character is trivial: one invariant each
        node_inv = sum(self.smoothing_chars.trivial)
        branch_inv = sum(self.tangent_chars.trivial)
        minus_chi_inv = sum(sig.contribution for sig in self.quotient_signatures)
        return EquivariantT1(
            node_inv, branch_inv, minus_chi_inv, node_inv + branch_inv + minus_chi_inv
        )


def _transport_and_close(
    group: FiniteGroup,
    rep: int,
    stab: tuple[int, ...],
    transporters: Mapping[int, int],
    given: list[tuple[int, Sequence[tuple[int, int]]]],
    forced: Forced,
    modulus: int,
    kind: str,
    obj_kind: str,
) -> tuple[int, ...] | None:
    """The column of one orbit: its representative's stabilizer character.

    ``stab`` is the stabilizer of the representative ``rep``; ``given``
    lists the members with supplied residues, in orbit order.  If the
    ``forced`` zeros cover the stabilizer and every supplied residue is
    zero, the column is zero: None (the caller keeps one).  Otherwise the
    forced pairs and then the supplied values are moved to the
    representative by their member's transporter, closed under conjugation
    by the stabilizer's generators, and extended by BFS to a homomorphism,
    every product and remaining value checked: O(|F| + #values + |stab| *
    gens) group products.  Conflicts raise CharacterError naming the value's
    object and the element transporting it to the representative; gaps raise
    CharacterError naming the first missing (element, object) pair.
    """
    size, zero, forced_pairs = forced
    if zero and size == len(stab) and not any(a for _, pairs in given for _, a in pairs):
        return None
    given = [(rep, list(forced_pairs)), *given]

    frac = partial(Fraction, denominator=modulus)  # for messages
    # known[h] is the character of h at the representative; origin[h] says
    # where it came from: (object, element there, transporter) for a moved
    # value, (element, conjugator) for a conjugate, None for the identity
    known: dict[int, int] = {0: 0}
    origin: dict[int, tuple | None] = {0: None}

    def provenance(h: int) -> str:
        steps = []
        while origin[h] is not None and len(origin[h]) == 2:
            h, u = origin[h]
            steps.append(u)
        if origin[h] is None:
            return "the identity"
        obj, x, g = origin[h]
        for u in reversed(steps):
            g = group.mul(g, u)
        where = f"value of element {x} at {obj_kind} {obj}"
        return where if g == 0 else f"{where} transported by element {g}"

    def learn(h: int, val: int, source: tuple) -> bool:
        if h not in known:
            known[h] = val
            origin[h] = source
            return True
        if known[h] != val:
            theirs = provenance(h)
            origin[h] = source
            raise CharacterError(
                f"inconsistent {kind} character at (element {h}, {obj_kind} {rep}): "
                f"{provenance(h)} gives {frac(val)}, {theirs} gives {frac(known[h])}"
            )
        return False

    for obj, pairs in given:
        t = transporters[obj]
        at_rep = group.conjugates(group.inverse(t), [h for h, _ in pairs])
        for (h, val), x in zip(pairs, at_rep):
            learn(x, val, (obj, h, t))

    conjugators = [(u, group.inverse(u)) for u in group.closure_and_generators(stab)[1]]
    frontier = [h for h in known if h != 0]
    while frontier:
        # u x u^-1 is x moved by the transporter composed with u^-1
        images = [group.conjugates(u, frontier) for u, _ in conjugators]
        nxt = []
        for i, x in enumerate(frontier):
            val = known[x]
            for (u, uinv), col in zip(conjugators, images):
                y = col[i]
                if known.get(y) != val and learn(y, val, (x, uinv)):
                    nxt.append(y)
        frontier = nxt

    chi: dict[int, int] = {0: 0}
    gens: list[int] = []

    def extend(elements: Sequence[int], ts: Sequence[int]) -> list[int]:
        new = []
        columns = [group.products(elements, t) for t in ts]
        steps = [known[t] for t in ts]
        for i, a in enumerate(elements):
            at_a = chi[a]
            for t, col, step in zip(ts, columns, steps):
                c = col[i]
                val = (at_a + step) % modulus
                if c not in chi:
                    chi[c] = val
                    new.append(c)
                elif chi[c] != val:
                    raise CharacterError(
                        f"inconsistent {kind} character data on the stabilizer of "
                        f"{obj_kind} {rep}: product rule fails at elements ({a}, {t})"
                    )
        return new

    for x in list(known):
        if x not in chi:
            gens.append(x)
            # old elements need only the new generator, new ones every generator
            frontier = extend(list(chi), (x,))
            while frontier:
                frontier = extend(frontier, gens)
        elif chi[x] != known[x]:
            raise CharacterError(
                f"inconsistent {kind} character data on the stabilizer of "
                f"{obj_kind} {rep}: {provenance(x)} gives {frac(known[x])}, the "
                f"product rule gives {frac(chi[x])}"
            )

    missing = [h for h in stab if h not in chi]
    if missing:
        raise CharacterError(
            f"missing {kind} character for element {missing[0]} at {obj_kind} {rep}"
        )
    return tuple(chi[h] for h in stab)


def _as_dict(mapping: Mapping | None, what: str) -> dict:
    """A copy of an optional mapping argument; anything else is an ActionError."""
    try:
        return dict(mapping or {})
    except (TypeError, ValueError):  # not a mapping, nor a list of pairs
        raise ActionError(f"{what} must be a mapping, got {mapping!r}") from None


def _length(x: object) -> int:
    """``len(x)``, or -1 for an object without one, which matches no count."""
    try:
        return len(x)
    except TypeError:
        return -1


def _is_char(x: object) -> bool:
    """A rotation character: a Fraction or a plain int (no bool or IntEnum)."""
    return isinstance(x, Fraction) or type(x) is int


def _complete_chars(
    group: FiniteGroup,
    perms: Sequence[Perm],
    table: OrbitTable,
    seeds: CharTable,
    forced: Callable[[int], Forced],
    modulus: int,
    kind: str,
    obj_kind: str,
) -> CharacterTable:
    """The complete table of one kind of character (tangent or smoothing).

    Each seed is checked first: its element fixes the object, and the
    character's order divides the element's order.  Then every orbit's
    column is completed, ``forced`` naming the values its representative's
    stabilizer must take; equal columns are one tuple.
    """
    values: dict[int, list[tuple[int, int]]] = {}
    for (h, obj), val in seeds.items():
        if perms[h][obj] != obj:
            raise ActionError(
                f"{kind} character assigned to element {h} which moves {obj_kind} {obj}"
            )
        if char_order(val) > 1 and group.element_order(h) % char_order(val) != 0:
            raise CharacterError(
                f"{kind} character {val} at {obj_kind} {obj} has order "
                f"{char_order(val)}, not a divisor of the order of element {h}"
            )
        residue = val.numerator * (modulus // val.denominator) % modulus
        values.setdefault(obj, []).append((h, residue))
    given: dict[int, list] = {}  # per orbit, its members' supplied values, in member order
    for x in sorted(values):
        given.setdefault(table.orbit_of[x], []).append((x, values[x]))
    transporters: dict[int, int] = {}
    columns: list[tuple[int, ...]] = []
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    zero: dict[int, tuple[int, ...]] = {}  # stabilizer order -> its zero column
    stabs = map(table.stabilizers.__getitem__, table.stabilizer_ids)
    for i, (rep, members, stab) in enumerate(zip(table.representatives, table.members, stabs)):
        # per member, the first element in table order carrying rep there: a
        # free orbit's column holds each member once, read in one C pass; else
        # a walk of the column stops once all are found (at 0 for a fixed point)
        if len(stab) == 1:
            transporters.update(zip(column(perms, rep), range(len(perms))))
        else:
            found: dict[int, int] = {}
            for g, x in enumerate(column(perms, rep)):
                found.setdefault(x, g)
                if len(found) == len(members):
                    break
            transporters.update(found)
        residues = _transport_and_close(
            group, rep, stab, transporters, given.get(i, []), forced(rep), modulus, kind, obj_kind
        )
        if residues is None:  # forced zeros: one column per stabilizer order, hashed once
            zero[k] = zero.get(k := len(stab)) or shared.setdefault((0,) * k, (0,) * k)
        columns.append(zero[k] if residues is None else shared.setdefault(residues, residues))
    return CharacterTable(group, perms, table, tuple(columns), modulus, transporters)


def _word_images(group: FiniteGroup, graph: DualGraph, vertex_images, half_edge_images,
                 half_edge_perms, edge_at: list[int]) -> None:
    """The cover and edge-image walks, item by item: raise at the first fault."""
    for k in range(len(vertex_images)):
        for h in range(graph.n_half_edges):
            if (
                graph.half_edge_vertex[half_edge_images[k][h]]
                != vertex_images[k][graph.half_edge_vertex[h]]
            ):
                raise ActionError(
                    f"half-edge action does not cover the vertex action "
                    f"(generator {k}, half-edge {h})"
                )
    for g in group.generator_indices:
        hp = half_edge_perms[g]
        for p, q in graph.edges:
            m = edge_at[hp[p]]
            if m < 0 or edge_at[hp[q]] != m:
                raise ActionError(
                    f"edge action ill-defined: element {g} sends a node to the "
                    f"non-node pair {sorted((hp[p], hp[q]))}"
                )


def _word_kernels(graph: DualGraph, vertex_perms, half_edge_perms,
                  kernels: list[tuple[frozenset[int], list[int]]]) -> None:
    """The kernel walk, vertex by vertex: raise at the first fault."""
    for v, (sub, _) in enumerate(kernels):
        hes = graph.vertex_half_edges[v]
        for k in sub:
            if vertex_perms[k][v] != v:
                raise ActionError(f"kernel element {k} of vertex {v} moves the vertex")
            for h in hes:
                if half_edge_perms[k][h] != h:
                    raise ActionError(f"kernel element {k} of vertex {v} moves half-edge {h}")


def _check_operands(group: FiniteGroup, graph: DualGraph) -> None:
    for name, value, kind in (("group", group, FiniteGroup), ("graph", graph, DualGraph)):
        if not isinstance(value, kind):
            raise ActionError(f"{name}: not a {kind.__name__}: {type(value).__name__}")


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

    Only the half-edge images H are walked.  Where every vertex carries a
    half-edge, the vertex table is H read at each vertex's first half-edge,
    and soundly: the cover check gives vertex(H(s) h) = V_s(vertex(h)) at
    each generator s, so by induction on word length, as H(g s) = H(g) H(s),
    vertex(H(g) h) = V(g)(vertex(h)) for every element g with V the
    homomorphism extending the images V_s: the table a vertex walk builds.
    The generator check that nodes go to nodes extends the same way, so the
    edge table is H read at one branch per node.  A table whose images are
    all the identity is one shared identity tuple; a vertex with no
    half-edge (a smooth component) makes the vertex images walked.  Errors
    keep the order of separate walks: a bad vertex image first, and a
    failure of the half-edge walk or the cover check replays the vertex
    walk, whose error wins.  The cover, edge and kernel-fixing checks are
    passes in C per generator or per distinct kernel list; a fault found by
    one runs the item-by-item walks, which word the first.  Equivariance is
    not checked when every kernel has order 1 or |G|.
    """
    _check_operands(group, graph)
    tangent_chars = _as_dict(tangent_chars, "tangent characters")
    smoothing_chars = _as_dict(smoothing_chars, "smoothing characters")
    kernels = _as_dict(kernels, "kernels")

    ngens = len(group.generators)
    if _length(vertex_images) != ngens or _length(half_edge_images) != ngens:
        raise ActionError("need one vertex image and one half-edge image per generator")
    for kind, seeds, n_objects, obj_kind in (
        ("tangent", tangent_chars, graph.n_half_edges, "half-edge"),
        ("smoothing", smoothing_chars, graph.n_edges, "edge"),
    ):
        for key, val in seeds.items():
            if not (isinstance(key, tuple) and len(key) == 2 and {int}.issuperset(map(type, key))):
                raise ActionError(
                    f"{kind} character key {key!r} is not an (element, {obj_kind}) "
                    "pair of integers"
                )
            h, obj = key
            if not 0 <= h < group.order:
                raise ActionError(f"{kind} character names unknown element {h}")
            if not 0 <= obj < n_objects:
                raise ActionError(f"{kind} character at unknown {obj_kind} {obj}")
            if not _is_char(val):
                raise ActionError(
                    f"{kind} character at {key!r} must be a Fraction or an integer, "
                    f"got {val!r}"
                )
    for v, ks in kernels.items():
        if type(v) is not int or not 0 <= v < graph.n_vertices:
            raise ActionError(f"kernel at unknown vertex {v!r}")
        if type(ks) is not list and not isinstance(ks, Iterable):
            raise ActionError(f"kernel of vertex {v} is not a list of elements: {ks!r}")
        kernels[v] = ks = list(ks)
        for k in ks:
            if type(k) is not int:
                raise ActionError(f"kernel of vertex {v} names non-integer element {k!r}")
            if not 0 <= k < group.order:
                raise ActionError(f"kernel of vertex {v} names unknown element {k}")
    if not isinstance(ramification_orbits, Iterable):
        raise ActionError(f"ramification orbits must be a list, got {ramification_orbits!r}")
    ram_entries: list[RamificationOrbit] = []
    for entry in ramification_orbits:
        if not isinstance(entry, RamificationOrbit):
            try:
                entry = RamificationOrbit(*entry)
            except TypeError:
                raise ActionError(
                    f"ramification orbit {entry!r} is not (vertex, element, char, order)"
                ) from None
        for name in ("vertex", "element", "order"):
            if type(getattr(entry, name)) is not int:
                raise ActionError(
                    f"ramification orbit {name} must be an integer, "
                    f"got {getattr(entry, name)!r}"
                )
        if not _is_char(entry.char):
            raise ActionError(
                f"ramification character must be a Fraction or an integer, got {entry.char!r}"
            )
        ram_entries.append(entry)

    if any(_length(img) != graph.n_vertices for img in vertex_images):
        raise ActionError("vertex images must permute the graph's vertices")
    if any(_length(img) != graph.n_half_edges for img in half_edge_images):
        raise ActionError("half-edge images must permute the graph's half-edges")

    def induced(images: list[Perm], kept: list[int], owner: Sequence[int]) -> Sequence[Perm]:
        ident = identity_perm(len(kept))
        if all(map(ident.__eq__, images)):
            return (ident,) * group.order
        return RestrictedTable(half_edge_perms, kept, owner)

    edge_at = [-1] * graph.n_half_edges  # each branch's node
    for n, (p, q) in enumerate(graph.edges):
        edge_at[p] = edge_at[q] = n
    try:
        vertex_images = [check_perm(p, graph.n_vertices) for p in vertex_images]
        try:
            half_edge_perms = group.extend_action(half_edge_images, graph.n_half_edges)
            # per generator s, owner after H_s is V_s after owner; the walk reads
            # images that are not tuples or lists (a mapping indexes as it iterates)
            owner = graph.half_edge_vertex
            if owner and (
                not {tuple, list}.issuperset(map(type, half_edge_images))
                or any(map(ne, map(compose, repeat(owner), half_edge_images),
                           map(compose, vertex_images, repeat(owner))))
            ):
                _word_images(group, graph, vertex_images, half_edge_images, half_edge_perms,
                             edge_at)
        except (GroupError, ActionError):
            group.extend_action(vertex_images, graph.n_vertices)  # its error comes first
            raise
        firsts = [hes[0] for hes in graph.vertex_half_edges if hes]
        if len(firsts) == graph.n_vertices:
            vertex_perms = induced(vertex_images, firsts, graph.half_edge_vertex)
        else:  # a smooth component
            vertex_perms = group.extend_action(vertex_images, graph.n_vertices)
    except GroupError as exc:
        raise ActionError(str(exc)) from exc

    # an element sends a node to edge m when both its branches land on m;
    # composites keep nodes on nodes, so the generators are checked
    ps, qs = zip(*graph.edges) if graph.edges else ((), ())  # each node's two branches
    edge_images = []
    for g in group.generator_indices if graph.edges else ():
        at = compose(edge_at, half_edge_perms[g])  # the node of each branch's image
        if -1 in (row := compose(at, ps)) or row != compose(at, qs):
            _word_images(group, graph, vertex_images, half_edge_images, half_edge_perms, edge_at)
        edge_images.append(row)
    edge_perms = induced(edge_images, ps, edge_at)

    # one closure walk per distinct kernel list, () for the undeclared; a
    # subgroup fixes its vertices and their half-edges when its generators do
    lists: dict[tuple[int, ...], list[int]] = {(): []} if len(kernels) < graph.n_vertices else {}
    for v, ks in kernels.items():
        lists.setdefault(tuple(ks), []).append(v)
    closures = list(map(group.closure_and_generators, lists))
    kernels_at, moved = [closures[0]] * graph.n_vertices, False
    for closure, vs in zip(closures, map(tuple, lists.values())):
        for v in vs:
            kernels_at[v] = closure
        hes = tuple(chain.from_iterable(compose(graph.vertex_half_edges, vs)))
        moved = moved or any(compose(vertex_perms[k], vs) != vs
                             or compose(half_edge_perms[k], hes) != hes for k in closure[1])
    if moved:
        _word_kernels(graph, vertex_perms, half_edge_perms, kernels_at)
    kernel_subs, _ = zip(*kernels_at)
    # g K_v g^-1 = K_{g.v} is multiplicative in g, so generators suffice; for
    # one g, equal orders and K_v's generators conjugated into K_{g.v} suffice.
    # Kernels of orders 1 and |G| alone need no check: a kernel G fixes its
    # vertex, so no other vertex maps there
    for g in group.generator_indices if {len(c[0]) for c in closures} - {1, group.order} else ():
        images = vertex_perms[g]
        for v, (sub, gens) in enumerate(kernels_at):
            target = kernel_subs[images[v]]
            if len(sub) != len(target) or gens and not target.issuperset(group.conjugates(g, gens)):
                raise ActionError(
                    f"kernels not equivariant: element {g} maps vertex {v} to "
                    f"{images[v]} but does not conjugate the kernels"
                )

    vertex_orbits = orbits(vertex_perms, range(graph.n_vertices))
    half_edge_orbits = orbits(half_edge_perms, range(graph.n_half_edges))
    edge_orbits = orbits(edge_perms, range(graph.n_edges))

    modulus = lcm(*(c.denominator for c in chain(tangent_chars.values(), smoothing_chars.values())))

    def kernel_zeros(rep: int) -> Forced:
        kernel = kernel_subs[graph.half_edge_vertex[rep]]
        return len(kernel), True, ((k, 0) for k in kernel if k)

    tangent = _complete_chars(
        group, half_edge_perms, half_edge_orbits, tangent_chars, kernel_zeros, modulus,
        "tangent", "half-edge",
    )

    def pair_sums(p: int, q: int) -> Iterator[tuple[int, int]]:
        at_q = dict(tangent.at(q))  # on the first read of the sums: never on the zero path
        yield from ((g, (a + at_q[g]) % modulus) for g, a in tangent.at(p) if g)

    def branch_sums(rep: int) -> Forced:
        # g fixes both branches (p, q) exactly when it fixes p; it then acts
        # on the node by the sum of its tangent characters
        p, q = graph.edges[rep]
        i, j = half_edge_orbits.orbit_of[p], half_edge_orbits.orbit_of[q]
        zero = tangent.trivial[i] and tangent.trivial[j]
        stab = half_edge_orbits.stabilizers[half_edge_orbits.stabilizer_ids[i]]
        return len(stab), zero, pair_sums(p, q)

    smoothing = _complete_chars(
        group, edge_perms, edge_orbits, smoothing_chars, branch_sums, modulus,
        "smoothing", "edge",
    )

    ram: list[RamificationOrbit] = []
    for entry in ram_entries:
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
    ram.sort()

    return CurveAction(
        group=group,
        graph=graph,
        vertex_perms=vertex_perms,
        half_edge_perms=half_edge_perms,
        edge_perms=edge_perms,
        tangent_chars=tangent,
        smoothing_chars=smoothing,
        kernels=tuple(kernel_subs),
        ramification_orbits=tuple(ram),
        vertex_orbits=vertex_orbits,
        half_edge_orbits=half_edge_orbits,
        edge_orbits=edge_orbits,
    )


def trivial_action(graph: DualGraph) -> CurveAction:
    """The trivial group acting on a graph."""
    return validate_action(FiniteGroup.trivial(), graph, [], [])


def inert_action(group: FiniteGroup, graph: DualGraph) -> CurveAction:
    """Every element acts trivially on every component (all kernels = G)."""
    _check_operands(group, graph)
    ngens = len(group.generators)
    return validate_action(
        group,
        graph,
        [tuple(range(graph.n_vertices))] * ngens,
        [tuple(range(graph.n_half_edges))] * ngens,
        kernels=dict.fromkeys(range(graph.n_vertices), group.generator_indices),
    )


def _solve_riemann_hurwitz(
    g_v: int, hbar: int, branch_orders: Sequence[int], where: str
) -> tuple[int, int]:
    """Solve 2g - 2 = |H|(2g' - 2) + sum (|H|/e)(e - 1) for g' exactly."""
    ram_sum = 0
    for e in branch_orders:
        if hbar % e != 0:
            raise RamificationError(
                f"inconsistent ramification data at {where}: order {e} does not "
                f"divide the effective stabilizer order {hbar}"
            )
        ram_sum += (hbar // e) * (e - 1)
    num = 2 * g_v - 2 - ram_sum
    m, r = divmod(num, hbar)
    if r != 0:
        raise RamificationError(
            f"inconsistent ramification data at {where}: 2g-2 - ramification = {num} "
            f"leaves residue {r} modulo {hbar}"
        )
    if (m + 2) % 2 != 0:
        raise RamificationError(
            f"inconsistent ramification data at {where}: 2g' = {m + 2} is odd"
        )
    g_prime = (m + 2) // 2
    if g_prime < 0:
        raise RamificationError(
            f"inconsistent ramification data at {where}: quotient genus {g_prime} < 0"
        )
    return g_prime, len(branch_orders)


def _signature(action: CurveAction, i: int) -> QuotientSignature:
    """The signature of vertex orbit i; its branch suborbits are read off
    the half-edge orbit table."""
    vertices = action.vertex_orbits
    rep = vertices.representatives[i]
    kernel = len(action.kernels[rep])
    hbar = len(vertices.stabilizers[vertices.stabilizer_ids[i]]) // kernel
    orbit_of = vertices.orbit_of
    branch_orders = [o.order for o in action.ramification_orbits if orbit_of[o.vertex] == i]
    branches = action.half_edge_orbits
    stabilizers, ids = branches.stabilizers, branches.stabilizer_ids
    for j in dict.fromkeys(map(branches.orbit_of.__getitem__, action.graph.vertex_half_edges[rep])):
        e = len(stabilizers[ids[j]]) // kernel
        if e >= 2:
            branch_orders.append(e)
    g_prime, b = _solve_riemann_hurwitz(
        action.graph.genera[rep], hbar, branch_orders, f"vertex {rep}"
    )
    return QuotientSignature(rep, g_prime, b, 3 * g_prime - 3 + b)


def quotient_signatures(action: CurveAction) -> list[QuotientSignature]:
    """Quotient genus g', branch count b and contribution 3g' - 3 + b per
    component orbit, in orbit order, as a new list on each call.  Branch points
    are the declared ramification orbits and the half-edge orbits at the
    representative fixed by more than the kernel; g' solves Riemann-Hurwitz."""
    if not isinstance(action, CurveAction):
        raise ActionError(f"not a CurveAction: {type(action).__name__}")
    return list(action.quotient_signatures)


def _check_t1_preconditions(action: CurveAction) -> None:
    if action.graph.marks:
        raise GraphError("T1 of marked curves not in scope")
    if len(action.graph.components) > 1:
        raise GraphError("equivariant T1 requires a connected curve")


def t1_equivariant(action: CurveAction) -> EquivariantT1:
    """Invariant deformation dimension: node + branch + quotient pieces.

    With the trivial group this equals the non-equivariant count
    (delta, 2*delta, 3*sum(g_i) - 3*nu) componentwise.  Read from the action.
    """
    if not isinstance(action, CurveAction):
        raise ActionError(f"not a CurveAction: {type(action).__name__}")
    return action.t1_equivariant


def t1_equivariant_oracle(action: CurveAction) -> EquivariantT1:
    """Same contract as :func:`t1_equivariant` by an independent route.

    Node and branch invariants come from the exact Burnside trace average
    over the node-stalk and branch-tangent representations, each read from
    its own character table: fixed points come from the table's
    per-element permutations (one row per conjugacy class of cyclic
    subgroups, which needs only that they form an action; a node's row is
    gathered from a branch row) rather than orbits or table keys.  The
    quotient pieces are recomputed from scratch: the vertex orbits from the
    columns of the vertex table, and the branch suborbits as orbits of the
    stabilizer's rows of the half-edge table (the table itself when the
    stabilizer is the whole group) rather than from the cached half-edge
    orbits.
    """
    if not isinstance(action, CurveAction):
        raise ActionError(f"not a CurveAction: {type(action).__name__}")
    _check_t1_preconditions(action)
    node_inv = invariant_dimension_trace(action.smoothing_chars)
    branch_inv = invariant_dimension_trace(action.tangent_chars)
    minus_chi_inv = 0
    vertices = orbits(action.vertex_perms, range(action.graph.n_vertices))
    for i, rep in enumerate(vertices.representatives):
        kernel = action.kernels[rep]
        stabilizer = vertices.stabilizers[vertices.stabilizer_ids[i]]
        hbar = len(stabilizer) // len(kernel)
        branch_orders = [
            o.order for o in action.ramification_orbits if vertices.orbit_of[o.vertex] == i
        ]
        rows = action.half_edge_perms  # the whole table for a whole-group stabilizer
        rows = rows if len(stabilizer) == len(rows) else [rows[g] for g in stabilizer]
        subs = orbits(rows, action.graph.vertex_half_edges[rep])
        for j in subs.stabilizer_ids:
            e = len(subs.stabilizers[j]) // len(kernel)
            if e >= 2:
                branch_orders.append(e)
        g_prime, b = _solve_riemann_hurwitz(
            action.graph.genera[rep], hbar, branch_orders, f"vertex {rep}"
        )
        minus_chi_inv += 3 * g_prime - 3 + b
    return EquivariantT1(
        node_inv, branch_inv, minus_chi_inv, node_inv + branch_inv + minus_chi_inv
    )
