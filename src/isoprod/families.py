"""Equivariant node smoothings and constancy of the invariant deformation count.

Smoothing a node orbit contracts the orbit's edges in the dual graph,
merging the incident components equivariantly.  The smoothed action is the
parent's on the contracted graph, restricted to the surviving objects and
renumbered, its orbits carried over; each table view is composed and each
row built when first read, and it is never re-validated.
The invariant deformation dimension is locally constant across such
smoothings, and :func:`check_constancy` verifies that on an explicit list
of strata, computing each stratum's count from scratch.

Only three local models around a node are smoothed automatically:
a trivial edge stabilizer, a cyclic branch-preserving stabilizer acting
faithfully on a branch tangent line (with inverse characters on the two
branches, so the smoothing parameter is fixed), and an order-2 stabilizer
swapping the branches.  The swap model creates two fixed points of the
involution on the smoothed fiber per node, which assemble into exactly two
new order-2 ramification orbits across the whole edge orbit.  All other
stabilizers are rejected: the orbit structure of their new fixed points is
not determined by combinatorial data, so the user must supply the smoothed
stratum explicitly and verify it with :func:`check_constancy`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress, repeat
from operator import and_, eq, itemgetter
from typing import NamedTuple

from .actions import CurveAction, EquivariantT1, RamificationOrbit, t1_equivariant
from .curves import _contract, arithmetic_genus
from .errors import FamilyError, IsoprodError, SmoothingError
from .groups import Orbit, RestrictedTable, _listed, column, compose, format_rotation_char


class FamilyStratum(NamedTuple):
    label: str
    action: CurveAction


class StratumValue(NamedTuple):
    """Computed invariants of one stratum; ``error`` set if computation
    failed; ``genus`` None for a disconnected curve."""

    label: str
    delta: int
    genus: int | None
    t1: EquivariantT1 | None
    error: str | None


class ConstancyReport(NamedTuple):
    """Verdict over an ordered list of strata.

    ``verdict`` is "constant", "violation" (with the offending label pair),
    or "error" when some stratum failed to compute.  The upper-bound
    direction (more degenerate strata may never have a smaller value) is
    reported separately in ``bound_violations``; the theorem requires
    equality, the bound is the weaker sanity direction.
    """

    strata: tuple[StratumValue, ...]
    verdict: str
    constant_value: int | None
    offending: tuple[str, str] | None
    bound_violations: tuple[tuple[str, str], ...]


class SmoothingChain(NamedTuple):
    """A maximal chain of strata, each smoothing one node orbit of the last.

    ``obstructions`` describes the edge orbits of the final stratum that
    could not be smoothed (empty when the chain reaches a smooth fiber).
    """

    strata: tuple[FamilyStratum, ...]
    obstructions: tuple[str, ...]


def _local_model(action: CurveAction, i: int) -> int | None:
    """The branch-swapping element of the stabilizer of edge orbit i, or
    None when nothing swaps the branches (the free and rotation models);
    SmoothingError when a stabilizer element moves the smoothing parameter
    or the stabilizer is not one of the three supported local models."""
    edges = action.edge_orbits
    rep, stab = edges.representatives[i], edges.stabilizers[edges.stabilizer_ids[i]]
    smoothing, tangent = action.smoothing_chars, action.tangent_chars
    for g, a in smoothing.at(rep):
        if a:
            raise SmoothingError(
                "node orbit not equivariantly smoothable: element "
                f"{g} acts on the smoothing parameter of edge {rep} by "
                f"{format_rotation_char(smoothing.fraction(a))}"
            )
    if len(stab) == 1:
        return None
    p0, _ = action.graph.edges[rep]
    swaps = [g for g in stab if action.swaps_branches(g, rep)]
    if not swaps:
        # the stabilizer is the branch's: its values are the branch's
        if len({a for _, a in tangent.at(p0)}) == len(stab):
            return None
        raise SmoothingError(
            "unsupported local model: branch-preserving stabilizer of order "
            f"{len(stab)} acts with a non-faithful tangent character at edge {rep}"
        )
    if len(stab) == 2:
        return swaps[0]
    raise SmoothingError(
        f"unsupported local model: stabilizer of order {len(stab)} containing "
        f"a branch swap at edge {rep}"
    )


def smooth_node_orbit(action: CurveAction, edge: int) -> CurveAction:
    """Smooth the whole orbit of the given edge, equivariantly.

    Contracts the orbit's edges: a smoothed self-loop raises its vertex's
    genus by one, a smoothed connecting node merges the two components with
    additive genus (cycles among the contracted edges add genus likewise).
    The swap model appends two new order-2 ramification orbits.  Raises
    SmoothingError when the orbit's smoothing character is nontrivial or
    the stabilizer is not one of the three supported local models.

    The child is read off the parent, not re-validated: its graph is the
    parent's contracted (:func:`~isoprod.curves.contract`), and its tables
    are :class:`RestrictedTable` views of the parent's on the surviving
    objects, renumbered (a merged class moves as its first vertex does),
    composed and gathered from the validated ancestor's when first read.
    Its orbit tables are the parent's composed with the renumberings
    (``OrbitTable.restrict``), one C pass per column and no record: the
    half-edge and edge orbits other than the smoothed one survive whole
    with their columns and transporters (``CharacterTable.restrict``), and
    the vertex classes the orbit's edges touch form one orbit, as G is
    transitive on those edges, whose stabilizer is read off one parent
    column.  A class's kernel is the intersection of its vertices' kernels:
    an element acts trivially on the merged component exactly when it does
    on each part.
    """
    if not isinstance(action, CurveAction):
        raise SmoothingError(f"not a CurveAction: {type(action).__name__}")
    if type(edge) is not int:  # True and 1.0 would find edge 1
        raise SmoothingError(f"edge index must be an integer, got {edge!r}")
    graph, owner = action.graph, action.graph.half_edge_vertex
    if not 0 <= edge < graph.n_edges:
        raise SmoothingError(f"edge {edge} not found in any orbit")
    i = action.edge_orbits.orbit_of[edge]
    swap = _local_model(action, i)
    rep = action.edge_orbits.representatives[i]

    members = compress(range(graph.n_edges), map(eq, action.edge_orbits.orbit_of, repeat(i)))
    new_graph, classes, vclass, half_edges, edges = _contract(graph, [*members])
    # the smoothed edges' branches are one or two whole orbits, those of rep's
    branch_orbits = {action.half_edge_orbits.orbit_of[h] for h in graph.edges[rep]}
    tangent_chars = action.tangent_chars.restrict(*half_edges, branch_orbits)
    smoothing_chars = action.smoothing_chars.restrict(*edges, (i,))
    vertices = action.vertex_orbits
    if len(classes) == graph.n_vertices:  # self-loops only: the vertices stay
        vclass = range(len(classes))
        vertex_perms = RestrictedTable(action.vertex_perms, vclass, vclass)
        kernels, vertex_orbits = action.kernels, vertices
    else:
        firsts = [*map(itemgetter(0), classes)]
        vertex_perms = RestrictedTable(action.vertex_perms, firsts, vclass)
        kernels = [*compose(action.kernels, firsts)]
        for c, vs in enumerate(classes):
            if len(vs) > 1:
                kernels[c] = reduce(and_, map(action.kernels.__getitem__, vs))
        # the touched vertices are the orbits of the representative's ends,
        # the first holding the least of them
        t, u = sorted(vertices.orbit_of[owner[h]] for h in graph.edges[rep])
        c = vclass[v := vertices.representatives[t]]
        images = map(vclass.__getitem__, column(action.vertex_perms, v))
        stab = tuple(compress(range(action.group.order), map(eq, images, repeat(c))))
        vertex_orbits = vertices.restrict(firsts, vclass, {u} - {t}, (t, stab))[0]

    ram = [
        RamificationOrbit(vclass[o.vertex], o.element, o.char, o.order)
        for o in action.ramification_orbits
    ]
    if swap is not None:
        # |G| new fixed points of the swap involutions, in orbits of size
        # |G|/2: exactly two new orbits, both of order 2 with character -1.
        c = vclass[owner[graph.edges[rep][0]]]
        ram += [RamificationOrbit(c, swap, Fraction(1, 2), 2)] * 2
    ram.sort()

    return CurveAction(
        group=action.group,
        graph=new_graph,
        vertex_perms=vertex_perms,
        half_edge_perms=tangent_chars.perms,
        edge_perms=smoothing_chars.perms,
        tangent_chars=tangent_chars,
        smoothing_chars=smoothing_chars,
        kernels=tuple(kernels),
        ramification_orbits=tuple(ram),
        vertex_orbits=vertex_orbits,
        half_edge_orbits=tangent_chars.orbits,
        edge_orbits=smoothing_chars.orbits,
    )


def smoothable_edge_orbits(action: CurveAction) -> list[tuple[Orbit, str | None]]:
    """Each edge orbit with None if it can be smoothed, else the obstruction."""
    if not isinstance(action, CurveAction):
        raise SmoothingError(f"not a CurveAction: {type(action).__name__}")
    out = []
    for i, orbit in enumerate(action.edge_orbits):
        try:
            _local_model(action, i)
            out.append((orbit, None))
        except SmoothingError as exc:
            out.append((orbit, str(exc)))
    return out


def smoothing_chain(action: CurveAction) -> SmoothingChain:
    """Iterate node-orbit smoothings until smooth or stuck.

    Deterministic: each step smooths the supported orbit with the smallest
    representative edge index, trying the orbits in order through
    :func:`smooth_node_orbit`, which classifies each once.  Obstructions of
    the final stratum are reported in-band, never raised.
    """
    if not isinstance(action, CurveAction):
        raise SmoothingError(f"not a CurveAction: {type(action).__name__}")
    strata = [FamilyStratum("step0", action)]
    current = action
    while True:
        # orbits are tried in order up to the first that smooths, so only
        # the final stratum has every orbit classified
        obstructions = []
        for rep in current.edge_orbits.representatives:
            try:
                current = smooth_node_orbit(current, rep)
                break
            except SmoothingError as exc:
                obstructions.append(str(exc))
        else:
            return SmoothingChain(tuple(strata), tuple(obstructions))
        strata.append(FamilyStratum(f"step{len(strata)}", current))


def check_constancy(strata) -> ConstancyReport:
    """Compute the invariant deformation count per stratum and compare.

    Strata must share one group; per-stratum computation errors, a
    disconnected curve's among them, are reported under the stratum's label
    without aborting the batch.
    """
    strata = _listed(strata, "strata", FamilyError)
    for s in strata:
        if not (isinstance(s, FamilyStratum) and isinstance(s.action, CurveAction)):
            raise FamilyError(f"not a FamilyStratum of a CurveAction: {type(s).__name__}")
    if len(strata) < 2:
        raise FamilyError("constancy check needs at least 2 strata")
    first_group = strata[0].action.group
    for s in strata[1:]:
        if s.action.group != first_group:
            raise FamilyError(
                f"stratum {s.label!r} uses a different group than {strata[0].label!r}"
            )

    values: list[StratumValue] = []
    for s in strata:
        graph = s.action.graph
        delta = graph.n_edges
        genus = arithmetic_genus(graph) if len(graph.components) == 1 else None
        try:
            t1 = t1_equivariant(s.action)
            values.append(StratumValue(s.label, delta, genus, t1, None))
        except IsoprodError as exc:
            values.append(StratumValue(s.label, delta, genus, None, str(exc)))

    computed = [v for v in values if v.t1 is not None]
    if len(computed) < len(values):
        verdict, constant_value, offending = "error", None, None
    else:
        totals = {v.t1.total for v in computed}
        if len(totals) == 1:
            verdict, constant_value, offending = "constant", totals.pop(), None
        else:
            # the first stratum differing from the first one: if none did,
            # the totals would be constant
            first = computed[0]
            other = next(v for v in computed if v.t1.total != first.t1.total)
            verdict, constant_value = "violation", None
            offending = (first.label, other.label)

    bound_violations = []
    for a in computed:
        for b in computed:
            if a.delta > b.delta and a.t1.total < b.t1.total:
                bound_violations.append((a.label, b.label))
    return ConstancyReport(
        tuple(values), verdict, constant_value, offending, tuple(bound_violations)
    )
