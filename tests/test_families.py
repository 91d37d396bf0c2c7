import random
from fractions import Fraction

import pytest

from isoprod.actions import (
    RamificationOrbit,
    inert_action,
    quotient_signatures,
    t1_equivariant,
    t1_equivariant_oracle,
    trivial_action,
    validate_action,
)
from isoprod.curves import arithmetic_genus, build_graph
from isoprod.errors import FamilyError, SmoothingError
from isoprod.families import (
    FamilyStratum,
    check_constancy,
    smooth_node_orbit,
    smoothable_edge_orbits,
    smoothing_chain,
)
from isoprod.groups import CharacterTable, FiniteGroup, RestrictedTable, perm_from_cycles

from randgen import catalog, random_action
from test_acceptance import _rebuild_with_ram, assert_revalidates
from test_scaling import counting, necklace
from test_seed_differential import a5, cayley_inputs, s4


def theta_graph():
    return build_graph([0, 0], [0, 1, 0, 1, 0, 1], [(0, 1), (2, 3), (4, 5)])


# -- smooth_node_orbit ---------------------------------------------------------


def test_smooth_paper_node(paper_action, smooth_fiber_action):
    smoothed = smooth_node_orbit(paper_action, 0)
    assert_revalidates(smoothed)
    assert smoothed.graph.genera == (3,)
    assert smoothed.graph.n_edges == 0
    assert len(smoothed.ramification_orbits) == 4
    assert all(
        (o.order, o.char) == (2, Fraction(1, 2)) for o in smoothed.ramification_orbits
    )
    assert smoothed == smooth_fiber_action


def test_swap_bookkeeping_paper(paper_action):
    """Smoothing the swap node trades node_inv + branch_inv = 2 for two new
    branch points: (1, 1, 2) -> (0, 0, 4)."""
    before = t1_equivariant(paper_action)
    after = t1_equivariant(smooth_node_orbit(paper_action, 0))
    assert (before.node_inv, before.branch_inv, before.minus_chi_inv) == (1, 1, 2)
    assert (after.node_inv, after.branch_inv, after.minus_chi_inv) == (0, 0, 4)
    b_before = sum(s.b for s in quotient_signatures(paper_action))
    b_after = sum(s.b for s in quotient_signatures(smooth_node_orbit(paper_action, 0)))
    assert b_after == b_before + 2


def test_smooth_connecting_edge_trivial_group():
    action = trivial_action(theta_graph())
    smoothed = smooth_node_orbit(action, 0)
    assert_revalidates(smoothed)
    assert smoothed.graph.n_vertices == 1
    assert smoothed.graph.genera == (0,)
    assert smoothed.graph.n_edges == 2
    assert arithmetic_genus(smoothed.graph) == 2


def test_smooth_rotation_model(z2):
    # branch-preserving involution with characters (-1, -1) on a self-loop:
    # no fixed points appear on the smoothed fiber
    graph = build_graph([2], [0, 0], [(0, 1)])
    action = validate_action(
        z2,
        graph,
        vertex_images=[(0,)],
        half_edge_images=[(0, 1)],
        tangent_chars={(1, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)},
    )
    smoothed = smooth_node_orbit(action, 0)
    assert_revalidates(smoothed)
    assert smoothed.graph.genera == (3,)
    assert smoothed.ramification_orbits == ()
    assert t1_equivariant(action).total == t1_equivariant(smoothed).total == 3


def test_smooth_connecting_swap_edge(z2):
    # two genus-1 components swapped by the involution, joined at one node
    # whose branches are swapped: smoothing merges them into a genus-2
    # component with two new order-2 fixed points; totals stay at 2
    graph = build_graph([1, 1], [0, 1], [(0, 1)])
    action = validate_action(
        z2,
        graph,
        vertex_images=[(1, 0)],
        half_edge_images=[(1, 0)],
        smoothing_chars={(1, 0): Fraction(0)},
    )
    before = t1_equivariant(action)
    assert (before.node_inv, before.branch_inv, before.minus_chi_inv) == (1, 1, 0)
    smoothed = smooth_node_orbit(action, 0)
    assert_revalidates(smoothed)
    assert smoothed.graph.genera == (2,)
    assert len(smoothed.ramification_orbits) == 2
    assert all(o.order == 2 for o in smoothed.ramification_orbits)
    after = t1_equivariant(smoothed)
    assert (after.node_inv, after.branch_inv, after.minus_chi_inv) == (0, 0, 2)
    assert after.total == before.total == 2


def test_smooth_free_square_contracts_two_classes(z2):
    # free involution turning a 4-cycle of genus-1 components by half a turn:
    # edges 01, 12, 23, 30 pair half-edges (0, 1), (2, 3), (4, 5), (6, 7)
    graph = build_graph(
        [1, 1, 1, 1], [0, 1, 1, 2, 2, 3, 3, 0], [(0, 1), (2, 3), (4, 5), (6, 7)]
    )
    action = validate_action(
        z2,
        graph,
        vertex_images=[(2, 3, 0, 1)],
        half_edge_images=[(4, 5, 6, 7, 0, 1, 2, 3)],
    )
    assert action.edge_orbits[action.smoothing_chars.orbit_at[0]].members == (0, 2)
    # smoothing {01, 23} merges {0, 1} and {2, 3}; vertex 0's class comes
    # first, and the surviving half-edges 2, 3, 6, 7 sit on 1, 2, 3, 0
    halved = smooth_node_orbit(action, 0)
    assert_revalidates(halved)
    assert halved.graph.genera == (2, 2)
    assert halved.graph.half_edge_vertex == (0, 1, 1, 0)
    assert halved.vertex_perms[z2.generator_indices[0]] == (1, 0)
    smooth = smooth_node_orbit(halved, 0)
    assert_revalidates(smooth)
    assert smooth.graph.genera == (5,)
    assert smooth.graph.n_edges == 0
    chain = smoothing_chain(action)
    assert [s.action for s in chain.strata] == [action, halved, smooth]
    report = check_constancy(chain.strata)
    assert report.verdict == "constant"
    assert report.constant_value == 6


def test_unsmoothable_nontrivial_character(z2, nodal_quartic_graph):
    action = validate_action(
        z2,
        nodal_quartic_graph,
        vertex_images=[(0,)],
        half_edge_images=[(1, 0)],
        smoothing_chars={(1, 0): Fraction(1, 2)},
        ramification_orbits=[RamificationOrbit(0, 1, Fraction(1, 2), 2)] * 2,
    )
    with pytest.raises(SmoothingError, match="not equivariantly smoothable"):
        smooth_node_orbit(action, 0)


def test_unknown_edge_rejected(paper_action):
    with pytest.raises(SmoothingError, match="edge 1 not found in any orbit"):
        smooth_node_orbit(paper_action, 1)


def test_unsupported_order4_swap():
    z4 = FiniteGroup.from_generators([perm_from_cycles([[0, 1, 2, 3]], 4)], 4)
    graph = build_graph([2], [0, 0], [(0, 1)])
    sq = z4.mul(1, 1)
    action = validate_action(
        z4,
        graph,
        vertex_images=[(0,)],
        half_edge_images=[(1, 0)],
        tangent_chars={(sq, 0): Fraction(1, 2), (sq, 1): Fraction(1, 2)},
        smoothing_chars={(1, 0): Fraction(0)},
    )
    with pytest.raises(SmoothingError, match="unsupported local model"):
        smooth_node_orbit(action, 0)


def test_unsupported_nonfaithful_branch_preserving(z2):
    # node joining a kernel component to a faithful component: the
    # stabilizer preserves branches but acts trivially on one tangent line
    graph = build_graph([2, 2], [0, 1], [(0, 1)])
    action = validate_action(
        z2,
        graph,
        vertex_images=[(0, 1)],
        half_edge_images=[(0, 1)],
        tangent_chars={(1, 1): Fraction(0)},
        kernels={0: [1], 1: [1]},
    )
    with pytest.raises(SmoothingError, match="non-faithful"):
        smooth_node_orbit(action, 0)


# -- smoothing chains ------------------------------------------------------------


def test_chain_paper(paper_action):
    chain = smoothing_chain(paper_action)
    assert len(chain.strata) == 2
    assert chain.obstructions == ()
    assert chain.strata[-1].action.graph.n_edges == 0


def test_chain_node_free(smooth_fiber_action):
    chain = smoothing_chain(smooth_fiber_action)
    assert len(chain.strata) == 1
    assert chain.obstructions == ()


def test_chain_theta():
    chain = smoothing_chain(trivial_action(theta_graph()))
    assert len(chain.strata) == 4
    for stratum in chain.strata[1:]:
        assert_revalidates(stratum.action)
    deltas = [s.action.graph.n_edges for s in chain.strata]
    assert deltas == [3, 2, 1, 0]
    assert chain.strata[-1].action.graph.genera == (2,)


def test_chain_reports_obstructions(z2, nodal_quartic_graph):
    action = validate_action(
        z2,
        nodal_quartic_graph,
        vertex_images=[(0,)],
        half_edge_images=[(1, 0)],
        smoothing_chars={(1, 0): Fraction(1, 2)},
        ramification_orbits=[RamificationOrbit(0, 1, Fraction(1, 2), 2)] * 2,
    )
    chain = smoothing_chain(action)
    assert len(chain.strata) == 1
    assert len(chain.obstructions) == 1
    assert "not equivariantly smoothable" in chain.obstructions[0]


def test_chain_delta_decreases_genus_constant():
    rng = random.Random(37)
    for _ in range(40):
        action = random_action(rng.choice(catalog()), rng)
        chain = smoothing_chain(action)
        for stratum in chain.strata[1:]:
            assert_revalidates(stratum.action)
        deltas = [s.action.graph.n_edges for s in chain.strata]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        genera = {arithmetic_genus(s.action.graph) for s in chain.strata}
        assert len(genera) == 1


def cayley_action(group):
    """``group`` acting freely by left multiplication on its Cayley graph
    (``cayley_inputs``)."""
    graph, args = cayley_inputs(group)
    return validate_action(group, graph, *args["images"])


@pytest.mark.parametrize("make", [s4, a5], ids=["S4", "A5"])
def test_cayley_chain_strata_revalidate(make):
    # one free edge orbit per generator: the first step merges the cycles
    # of the first generator, the second leaves one component
    action = cayley_action(make())
    chain = smoothing_chain(action)
    assert [s.action.graph.n_edges for s in chain.strata] == [
        len(action.edge_perms[0]), action.group.order, 0,
    ]
    assert chain.obstructions == ()
    for stratum in chain.strata[1:]:
        assert_revalidates(stratum.action)
    # free: the count is 3g' - 3 on the quotient, 2g - 2 = |G| (2g' - 2)
    report = check_constancy(chain.strata)
    assert report.verdict == "constant"
    genus = arithmetic_genus(action.graph)
    assert report.constant_value == 3 * (genus - 1) // action.group.order


def test_necklace_chain_strata_revalidate():
    group, graph, vertex_images, half_edge_images = necklace(60)
    action = validate_action(group, graph, vertex_images, half_edge_images)
    chain = smoothing_chain(action)
    assert len(chain.strata) == 2
    smooth = chain.strata[1].action
    assert_revalidates(smooth)
    assert smooth.graph.genera == (2 * 60 + 1,)
    assert check_constancy(chain.strata).verdict == "constant"


def chain_steps(action):
    """Check each step of ``action``'s smoothing chain: the invariant node
    count falls by exactly 1, the total stays, and one fewer edge orbit is
    smoothable.  Returns the number of steps."""
    strata = [s.action for s in smoothing_chain(action).strata]
    counts = [
        (t1_equivariant(a), sum(why is None for _, why in smoothable_edge_orbits(a)))
        for a in strata
    ]
    for (t1, smoothable), (child, left) in zip(counts, counts[1:]):
        assert (child.node_inv, child.total, left) == (t1.node_inv - 1, t1.total, smoothable - 1)
    return len(strata) - 1


def test_each_smoothing_step_drops_one_invariant_node():
    # the per-step bookkeeping of the normal-crossings picture, on 300
    # seeded catalog actions, the free S4 and A5 Cayley actions and the
    # free necklaces with n <= 8
    rng = random.Random(16)
    groups = catalog()
    steps = sum(chain_steps(random_action(rng.choice(groups), rng)) for _ in range(300))
    assert steps >= 300
    assert [chain_steps(cayley_action(make())) for make in (s4, a5)] == [2, 2]
    for n in range(1, 9):
        group, graph, vertex_images, half_edge_images = necklace(n)
        assert chain_steps(validate_action(group, graph, vertex_images, half_edge_images)) == 1


def classify_all_chain(action):
    """The chain as a walk classifying every edge orbit of every stratum and
    smoothing the first smoothable one: (strata actions, obstructions)."""
    strata = [action]
    while True:
        classified = smoothable_edge_orbits(strata[-1])
        smoothable = [orbit for orbit, why in classified if why is None]
        if not smoothable:
            return strata, tuple(why for _, why in classified)
        strata.append(smooth_node_orbit(strata[-1], smoothable[0].representative))


def assert_reads_as_tuple(view, table):
    """``view`` reads as the tuple ``table``, row by row before it is
    complete and as a whole after."""
    n = len(table)
    assert isinstance(view, RestrictedTable) and len(view) == n
    assert view[-1] == table[-1] and view[n // 2] == table[n // 2]
    for past in (n, -n - 1):
        with pytest.raises(IndexError):
            view[past]
    assert view[1:3] == table[1:3]
    assert list(view) == list(table)
    assert view == table and table == view and not view != table
    assert hash(view) == hash(table) and repr(view) == repr(table)
    assert view != list(table)


def test_smoothed_tables_read_as_the_validated_tuples(monkeypatch):
    # every child table equals, under each tuple operation, the tuple that
    # validating the child from scratch builds; the oracle recognizes a
    # child's tables as its character tables' own and reads no entry by key
    rng = random.Random(71)
    actions = [random_action(rng.choice(catalog()), rng) for _ in range(40)]
    actions += [cayley_action(s4()), cayley_action(a5())]
    children = deep = 0
    for action in actions:
        chain = smoothing_chain(action)
        strata, obstructions = classify_all_chain(action)
        assert [s.action for s in chain.strata] == strata
        assert chain.obstructions == obstructions
        fresh = smoothing_chain(action)
        for stratum, child in zip(chain.strata[1:], fresh.strata[1:]):
            child = child.action
            reference = _rebuild_with_ram(stratum.action, stratum.action.ramification_orbits)
            for kind in ("vertex_perms", "half_edge_perms", "edge_perms"):
                table = tuple(getattr(reference, kind))
                assert_reads_as_tuple(getattr(child, kind), table)
            reads = counting(monkeypatch, CharacterTable, "__getitem__")
            assert t1_equivariant_oracle(child) == t1_equivariant(child)
            monkeypatch.undo()
            assert sum(reads.values()) == 0
            children += 1
        deep += len(chain.strata) > 2
    assert children > 80 and deep > 25


def test_chain_of_a_disconnected_curve_reports_in_band():
    # contracting edges joins no two components, so each child is built with
    # its parent's allowance, and T1's precondition fails in each stratum
    graph = build_graph([1, 1, 2], [0, 1, 2, 2], [[0, 1], [2, 3]], allow_disconnected=True)
    chain = smoothing_chain(trivial_action(graph))
    assert [s.action.graph.genera for s in chain.strata] == [(1, 1, 2), (2, 2), (2, 3)]
    assert chain.obstructions == ()
    for stratum in chain.strata[1:]:
        assert_revalidates(stratum.action)
        assert len(stratum.action.graph.components) == 2
    report = check_constancy(chain.strata)
    assert report.verdict == "error"
    assert [(v.delta, v.genus, v.error) for v in report.strata] == [
        (d, None, "equivariant T1 requires a connected curve") for d in (2, 1, 0)
    ]


# -- constancy -------------------------------------------------------------------


def test_constancy_paper_family(paper_action, smooth_fiber_action):
    report = check_constancy(
        [
            FamilyStratum("nodal", paper_action),
            FamilyStratum("smooth", smooth_fiber_action),
        ]
    )
    assert report.verdict == "constant"
    assert report.constant_value == 4
    assert report.bound_violations == ()


def test_constancy_trivial_one_node_smoothing():
    rng = random.Random(41)
    from randgen import random_stable_graph

    found = 0
    while found < 20:
        g = random_stable_graph(rng)
        if g.n_edges == 0:
            continue
        found += 1
        action = trivial_action(g)
        smoothed = smooth_node_orbit(action, 0)
        assert_revalidates(smoothed)
        report = check_constancy(
            [FamilyStratum("nodal", action), FamilyStratum("smoothed", smoothed)]
        )
        assert report.verdict == "constant"
        assert report.constant_value == 3 * arithmetic_genus(g) - 3


def test_constancy_violation_dropped_orbits(paper_action, free_involution_action):
    # all four ramification orbits dropped from the smoothed fiber: a free
    # involution has total 3, exposing the corruption as 4 vs 3
    report = check_constancy(
        [
            FamilyStratum("nodal", paper_action),
            FamilyStratum("corrupted", free_involution_action),
        ]
    )
    assert report.verdict == "violation"
    assert report.offending == ("nodal", "corrupted")
    values = [v.t1.total for v in report.strata]
    assert values == [4, 3]


def test_constancy_violation_names_the_first_stratum_that_differs(
    paper_action, smooth_fiber_action, free_involution_action
):
    # totals 4, 4, 3 and 3, 4, 4: the pair is the first stratum and the
    # first one whose total differs from it
    report = check_constancy(
        [
            FamilyStratum("nodal", paper_action),
            FamilyStratum("smooth", smooth_fiber_action),
            FamilyStratum("corrupted", free_involution_action),
        ]
    )
    assert [v.t1.total for v in report.strata] == [4, 4, 3]
    assert report.verdict == "violation"
    assert report.offending == ("nodal", "corrupted")
    report = check_constancy(
        [
            FamilyStratum("corrupted", free_involution_action),
            FamilyStratum("nodal", paper_action),
            FamilyStratum("smooth", smooth_fiber_action),
        ]
    )
    assert report.offending == ("corrupted", "nodal")


def test_constancy_dropping_one_orbit_is_rh_inconsistent(paper_action, z2):
    # dropping exactly one of the four orbits leaves Riemann-Hurwitz with no
    # integer solution; the error is reported under the stratum's label
    graph = build_graph([3], [], [])
    corrupted = validate_action(
        z2,
        graph,
        vertex_images=[(0,)],
        half_edge_images=[()],
        ramification_orbits=[RamificationOrbit(0, 1, Fraction(1, 2), 2)] * 3,
    )
    report = check_constancy(
        [
            FamilyStratum("nodal", paper_action),
            FamilyStratum("corrupted", corrupted),
        ]
    )
    assert report.verdict == "error"
    assert report.strata[1].error is not None
    assert "inconsistent ramification data" in report.strata[1].error
    assert report.strata[0].t1.total == 4


def test_constancy_semicontinuity_bound_violation(smooth_fiber_action, z2):
    # an inert involution on the theta graph has total 3 with delta 3; a
    # more-degenerate stratum below a smooth one with total 4 violates the
    # upper-semicontinuity bound as well as constancy
    nodal = inert_action(z2, theta_graph())
    report = check_constancy(
        [
            FamilyStratum("nodal", nodal),
            FamilyStratum("smooth", smooth_fiber_action),
        ]
    )
    assert report.verdict == "violation"
    assert ("nodal", "smooth") in report.bound_violations


def test_constancy_needs_two_strata(paper_action):
    with pytest.raises(FamilyError, match="at least 2"):
        check_constancy([FamilyStratum("only", paper_action)])


@pytest.mark.parametrize(
    "strata, message",
    [
        (5, "strata must be iterable, got 5"),
        ([1, 2], "not a FamilyStratum of a CurveAction: int"),
        (["a", "b"], "not a FamilyStratum of a CurveAction: str"),
        ([FamilyStratum("a", None)] * 2, "not a FamilyStratum of a CurveAction: FamilyStratum"),
    ],
)
def test_constancy_rejects_strata_of_the_wrong_type(strata, message):
    # these raised a bare TypeError or AttributeError
    with pytest.raises(FamilyError) as err:
        check_constancy(strata)
    assert str(err.value) == message


def test_constancy_rejects_mixed_groups(paper_action):
    other = trivial_action(build_graph([2], [], []))
    with pytest.raises(FamilyError, match="different group"):
        check_constancy(
            [FamilyStratum("a", paper_action), FamilyStratum("b", other)]
        )


def test_random_supported_smoothings_preserve_t1():
    rng = random.Random(43)
    groups = catalog()
    done = 0
    while done < 60:
        action = random_action(rng.choice(groups), rng)
        for orbit, obstruction in smoothable_edge_orbits(action):
            if obstruction is None:
                smoothed = smooth_node_orbit(action, orbit.representative)
                assert_revalidates(smoothed)
                assert (
                    smoothed.graph.n_edges
                    == action.graph.n_edges - len(orbit.members)
                )
                assert arithmetic_genus(smoothed.graph) == arithmetic_genus(
                    action.graph
                )
                assert (
                    t1_equivariant(smoothed).total == t1_equivariant(action).total
                )
                done += 1
                break
