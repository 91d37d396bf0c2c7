"""Equivariant node smoothings and constancy of the invariant deformation count.

Smoothing a node orbit contracts the orbit's edges in the dual graph,
merging the incident components equivariantly.  The smoothed action is the
parent's on the contracted graph, restricted to the surviving objects and
renumbered, each table row built when first read; it is never re-validated.
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
from typing import NamedTuple

from .actions import CurveAction, EquivariantT1, RamificationOrbit, t1_equivariant
from .curves import arithmetic_genus, contract
from .errors import FamilyError, IsoprodError, SmoothingError
from .groups import Orbit, RestrictedTable, format_rotation_char, orbits


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


def _local_model(action: CurveAction, orbit: Orbit) -> tuple[str, int | None]:
    """("free" | "rotation" | "swap", swap element or None) for a node orbit;
    SmoothingError when a stabilizer element moves the smoothing parameter
    or the stabilizer is not one of the three supported local models."""
    rep = orbit.representative
    stab = orbit.stabilizer
    smoothing, tangent = action.smoothing_chars, action.tangent_chars
    for g, a in smoothing.at(rep):
        if a:
            raise SmoothingError(
                "node orbit not equivariantly smoothable: element "
                f"{g} acts on the smoothing parameter of edge {rep} by "
                f"{format_rotation_char(smoothing.fraction(a))}"
            )
    if len(stab) == 1:
        return "free", None
    p0, _ = action.graph.edges[rep]
    swaps = [g for g in stab if action.swaps_branches(g, rep)]
    if not swaps:
        # the stabilizer is the branch's: its values are the branch's
        if len({a for _, a in tangent.at(p0)}) == len(stab):
            return "rotation", None
        raise SmoothingError(
            "unsupported local model: branch-preserving stabilizer of order "
            f"{len(stab)} acts with a non-faithful tangent character at edge {rep}"
        )
    if len(stab) == 2:
        return "swap", swaps[0]
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
    each row gathered from the validated ancestor's when first read (the
    vertex orbits read columns and build none).  Half-edge and edge orbits
    other than the smoothed one survive whole with their columns, renumbered
    (``CharacterTable.restrict``); vertex orbits are recomputed, since a
    merged class can have a larger stabilizer.  A merged class gets the
    trivial kernel: a kernel element at an orbit endpoint fixes the node and
    its branch there, which each local model allows only for the identity.
    """
    graph = action.graph
    try:
        orbit = action.edge_orbits[action.smoothing_chars.orbit_at[edge]]
    except KeyError:
        raise SmoothingError(f"edge {edge} not found in any orbit") from None
    model, swap_element = _local_model(action, orbit)

    new_graph, classes, he_map, edge_map = contract(graph, orbit.members)
    vclass = {v: c for c, vs in enumerate(classes) for v in vs}
    merged = {vclass[graph.half_edge_vertex[graph.edges[n][0]]] for n in orbit.members}

    vertex_perms = RestrictedTable(action.vertex_perms, [vs[0] for vs in classes], vclass)
    half_edge_perms = RestrictedTable(action.half_edge_perms, list(he_map), he_map)
    edge_perms = RestrictedTable(action.edge_perms, list(edge_map), edge_map)

    tangent_chars = action.tangent_chars.restrict(half_edge_perms, he_map)
    smoothing_chars = action.smoothing_chars.restrict(edge_perms, edge_map)
    kernels = tuple(
        frozenset({0}) if c in merged else action.kernels[vs[0]]
        for c, vs in enumerate(classes)
    )

    ram = [
        RamificationOrbit(vclass[o.vertex], o.element, o.char, o.order)
        for o in action.ramification_orbits
    ]
    if model == "swap":
        # |G| new fixed points of the swap involutions, in orbits of size
        # |G|/2: exactly two new orbits, both of order 2 with character -1.
        c = vclass[graph.half_edge_vertex[graph.edges[orbit.representative][0]]]
        ram += [RamificationOrbit(c, swap_element, Fraction(1, 2), 2)] * 2
    ram.sort()

    return CurveAction(
        group=action.group,
        graph=new_graph,
        vertex_perms=vertex_perms,
        half_edge_perms=half_edge_perms,
        edge_perms=edge_perms,
        tangent_chars=tangent_chars,
        smoothing_chars=smoothing_chars,
        kernels=kernels,
        ramification_orbits=tuple(ram),
        vertex_orbits=tuple(orbits(vertex_perms, range(new_graph.n_vertices))),
        half_edge_orbits=tangent_chars.orbits,
        edge_orbits=smoothing_chars.orbits,
    )


def smoothable_edge_orbits(action: CurveAction) -> list[tuple[Orbit, str | None]]:
    """Each edge orbit with None if it can be smoothed, else the obstruction."""
    out = []
    for orbit in action.edge_orbits:
        try:
            _local_model(action, orbit)
            out.append((orbit, None))
        except SmoothingError as exc:
            out.append((orbit, str(exc)))
    return out


def smoothing_chain(action: CurveAction) -> SmoothingChain:
    """Iterate node-orbit smoothings until smooth or stuck.

    Deterministic: each step smooths the supported orbit with the smallest
    representative edge index.  Obstructions of the final stratum are
    reported in-band, never raised.
    """
    strata = [FamilyStratum("step0", action)]
    current = action
    while True:
        # orbits are tried in order up to the first smoothable one, so only
        # the final stratum has every orbit classified
        obstructions = []
        for orbit in current.edge_orbits:
            try:
                _local_model(current, orbit)
                break
            except SmoothingError as exc:
                obstructions.append(str(exc))
        else:
            return SmoothingChain(tuple(strata), tuple(obstructions))
        current = smooth_node_orbit(current, orbit.representative)
        strata.append(FamilyStratum(f"step{len(strata)}", current))


def check_constancy(strata) -> ConstancyReport:
    """Compute the invariant deformation count per stratum and compare.

    Strata must share one group; per-stratum computation errors, a
    disconnected curve's among them, are reported under the stratum's label
    without aborting the batch.
    """
    try:
        strata = iter(strata)
    except TypeError:
        raise FamilyError(f"strata must be iterable, got {strata!r}") from None
    strata = list(strata)
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
