"""Scaling regressions: validation and the queries built on it stay linear in
|G| * (|V| + |H| + |E|) group products.  The budgets are generous (tens of
times the expected time); they catch a return to quadratic or cubic work,
not small slowdowns."""

from test_acceptance import criterion

from isoprod.actions import (
    inert_action,
    t1_equivariant,
    t1_equivariant_oracle,
    trivial_action,
    validate_action,
)
from isoprod.curves import arithmetic_genus, build_graph, t1_dimension
from isoprod.groups import FiniteGroup, perm_from_cycles
from isoprod.surfaces import build_surface, check_free_codim1


def necklace(n: int):
    """Z_n rotating an n-cycle of genus-2 components: edge i joins half-edge
    i at vertex i to half-edge n + i at vertex i + 1."""
    group = FiniteGroup.from_generators([perm_from_cycles([list(range(n))], n)], n)
    graph = build_graph(
        [2] * n,
        list(range(n)) + [(i + 1) % n for i in range(n)],
        [(i, n + i) for i in range(n)],
    )
    shift = tuple((i + 1) % n for i in range(n))
    return group, graph, [shift], [shift + tuple(n + j for j in shift)]


def test_inert_s6_on_one_node_curve():
    s6 = FiniteGroup.from_generators(
        [perm_from_cycles([list(range(6))], 6), perm_from_cycles([[0, 1]], 6)], 6
    )
    graph = build_graph([2], [0, 0], [(0, 1)])
    with criterion(101, "inert S6 (|G| = 720): validate, T1, oracle, freeness", budget=5.0):
        action = inert_action(s6, graph)
        t1 = t1_equivariant(action)
        assert t1 == t1_equivariant_oracle(action)
        assert t1.total == 3 * 3 - 3
        assert not check_free_codim1(build_surface(action, action)).passed


def test_inert_s7_on_one_node_curve():
    s7 = FiniteGroup.from_generators(
        [perm_from_cycles([list(range(7))], 7), perm_from_cycles([[0, 1]], 7)], 7
    )
    graph = build_graph([2], [0, 0], [(0, 1)])
    with criterion(103, "inert S7 (|G| = 5040) validates", budget=5.0):
        action = inert_action(s7, graph)
        assert action.kernels == (frozenset(range(s7.order)),)


def test_inert_z101_z99_on_one_node_curve():
    # two disjoint cycles of coprime lengths: a cyclic group of order 9999
    # at degree 200, so every non-generator product composes long tuples
    group = FiniteGroup.from_generators(
        [
            perm_from_cycles([list(range(101))], 200),
            perm_from_cycles([list(range(101, 200))], 200),
        ],
        200,
    )
    graph = build_graph([2], [0, 0], [(0, 1)])
    with criterion(
        106, "inert Z101xZ99 (|G| = 9999, degree 200): validate, T1, oracle", budget=5.0
    ):
        action = inert_action(group, graph)
        t1 = t1_equivariant(action)
        assert t1 == t1_equivariant_oracle(action)
        assert t1.total == 3 * 3 - 3


def test_necklace_z400_validates():
    group, graph, vertex_images, half_edge_images = necklace(400)
    with criterion(102, "Z_400 necklace validates", budget=5.0):
        action = validate_action(group, graph, vertex_images, half_edge_images)
        assert len(action.vertex_orbits) == len(action.edge_orbits) == 1


def test_necklace_z400_oracle():
    group, graph, vertex_images, half_edge_images = necklace(400)
    with criterion(104, "Z_400 necklace: validate, T1 == oracle", budget=5.0):
        action = validate_action(group, graph, vertex_images, half_edge_images)
        assert t1_equivariant(action) == t1_equivariant_oracle(action)


def test_trivial_action_on_10000_component_cycle():
    # one orbit per point: orbit bookkeeping must cost O(|orbit|) per orbit,
    # not O(#points)
    n = 10000
    graph = build_graph(
        [2] * n,
        list(range(n)) + [(i + 1) % n for i in range(n)],
        [(i, n + i) for i in range(n)],
    )
    with criterion(
        107, "trivial group on a 10,000-component cycle: validate, T1 == oracle", budget=5.0
    ):
        action = trivial_action(graph)
        t1 = t1_equivariant(action)
        assert t1 == t1_equivariant_oracle(action)
        assert t1.total == 3 * arithmetic_genus(graph) - 3


def test_necklace_graph_20000_builds():
    n = 20000
    with criterion(105, "20,000-component necklace graph: build, genus, T1", budget=5.0):
        graph = build_graph(
            [2] * n,
            list(range(n)) + [(i + 1) % n for i in range(n)],
            [(i, n + i) for i in range(n)],
        )
        assert arithmetic_genus(graph) == 2 * n + 1
        assert t1_dimension(graph).total == 3 * (2 * n + 1) - 3
