import random
from fractions import Fraction

import pytest

from isoprod.actions import (
    RamificationOrbit,
    branch_invariants,
    inert_action,
    node_invariants,
    quotient_signature,
    quotient_signatures,
    t1_equivariant,
    t1_equivariant_oracle,
    trivial_action,
    validate_action,
)
from isoprod.curves import build_graph, t1_dimension
from isoprod.errors import (
    ActionError,
    CharacterError,
    GraphError,
    RamificationError,
)
from isoprod.groups import FiniteGroup, perm_from_cycles

from randgen import catalog, random_action, random_stable_graph

# a genus-2 component with one node, and two genus-2 components joined at one
ONE_NODE = build_graph([2], [0, 0], [(0, 1)])
TWO_COMPONENTS = build_graph([2, 2], [0, 1], [(0, 1)])


# -- validation --------------------------------------------------------------


def test_trivial_group_any_graph():
    rng = random.Random(1)
    for _ in range(20):
        action = trivial_action(random_stable_graph(rng))
        assert action.group.order == 1


def test_paper_action_validates(paper_action):
    assert paper_action.group.order == 2
    # the full smoothing table was materialized, including the derived
    # identity entry
    assert paper_action.smoothing_chars[(1, 0)] == 0
    assert paper_action.smoothing_chars[(0, 0)] == 0


def test_product_rule_forces_trivial_smoothing_char(z2):
    # both branches fixed with character -1: the smoothing parameter gets
    # (-1)(-1) = +1, so declaring -1 is inconsistent
    graph = build_graph([2], [0, 0], [(0, 1)])
    with pytest.raises(CharacterError, match="smoothing character"):
        validate_action(
            z2,
            graph,
            vertex_images=[(0,)],
            half_edge_images=[(0, 1)],
            tangent_chars={(1, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)},
            smoothing_chars={(1, 0): Fraction(1, 2)},
        )


def test_consistent_derived_smoothing_char(z2):
    graph = build_graph([2], [0, 0], [(0, 1)])
    action = validate_action(
        z2,
        graph,
        vertex_images=[(0,)],
        half_edge_images=[(0, 1)],
        tangent_chars={(1, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)},
    )
    assert action.smoothing_chars[(1, 0)] == 0


def test_homomorphism_failure():
    # generator image of order 3 for a group whose generator has order 2
    z2 = FiniteGroup.from_generators([perm_from_cycles([[0, 1]], 2)], 2)
    graph = build_graph([1, 1, 1], [0, 1, 1, 2, 2, 0], [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(ActionError, match="homomorphism"):
        validate_action(
            z2,
            graph,
            vertex_images=[(1, 2, 0)],
            half_edge_images=[(2, 3, 4, 5, 0, 1)],
        )


@pytest.mark.parametrize(
    "images, message",
    [
        (([(1, 0)], [(0, 1)]), "vertex images must permute the graph's vertices"),
        (([(0,)], [(0, 1, 2)]), "half-edge images must permute the graph's half-edges"),
        (([()], [(0, 1)]), "vertex images must permute the graph's vertices"),
        (([], [(1, 0)]), "need one vertex image and one half-edge image per generator"),
    ],
)
def test_wrong_length_generator_image_rejected(z2, nodal_quartic_graph, images, message):
    # checked on each generator image, before the image is extended
    with pytest.raises(ActionError, match=message):
        validate_action(z2, nodal_quartic_graph, *images)


@pytest.mark.parametrize("image", [(1.0, 0), (True, False)])
def test_non_integer_image_entries_rejected(z2, nodal_quartic_graph, image):
    # reported as the image error it is, not a TypeError from composing it
    with pytest.raises(ActionError) as err:
        validate_action(z2, nodal_quartic_graph, [(0,)], [image])
    assert str(err.value) == f"not a permutation of 2 letters: {image!r}"


def test_trivial_group_acts_by_identity_tables():
    graph = build_graph([2, 2], [0, 1, 0, 1], [(0, 1), (2, 3)])
    action = trivial_action(graph)
    assert action.vertex_perms == ((0, 1),)
    assert action.half_edge_perms == ((0, 1, 2, 3),)
    assert action.edge_perms == ((0, 1),)


def test_half_edge_action_must_cover_vertex_action(z2):
    graph = build_graph([2, 2], [0, 1], [(0, 1)])
    with pytest.raises(ActionError, match="cover"):
        validate_action(
            z2, graph, vertex_images=[(1, 0)], half_edge_images=[(0, 1)]
        )


def test_half_edge_action_must_cover_fixed_vertices(z2):
    # both vertices fixed, but the node's branches change components
    with pytest.raises(ActionError) as err:
        validate_action(z2, TWO_COMPONENTS, vertex_images=[(0, 1)], half_edge_images=[(1, 0)])
    assert str(err.value) == (
        "half-edge action does not cover the vertex action (generator 0, half-edge 0)"
    )


def test_kernel_element_must_fix_its_vertex(z2):
    with pytest.raises(ActionError) as err:
        validate_action(
            z2, TWO_COMPONENTS, vertex_images=[(1, 0)], half_edge_images=[(1, 0)],
            kernels={0: [1]},
        )
    assert str(err.value) == "kernel element 1 of vertex 0 moves the vertex"


def test_edge_action_must_be_well_defined(z2):
    # swapping one half-edge of each node breaks the pairing
    graph = build_graph([2, 2], [0, 0, 1, 1], [(0, 2), (1, 3)])
    with pytest.raises(ActionError, match="edge action ill-defined"):
        validate_action(
            z2, graph, vertex_images=[(0, 1)], half_edge_images=[(1, 0, 2, 3)]
        )


def test_edge_action_checked_on_each_generator():
    # the first generator fixes every half-edge; the second swaps the two
    # branches at vertex 0 that belong to different nodes
    v4 = FiniteGroup.from_generators(
        [perm_from_cycles([[2, 3]], 4), perm_from_cycles([[0, 1]], 4)], 4
    )
    graph = build_graph([2, 2], [0, 0, 1, 1], [(0, 2), (1, 3)])
    second = v4.generator_indices[1]
    with pytest.raises(ActionError, match=f"ill-defined: element {second} sends"):
        validate_action(
            v4,
            graph,
            vertex_images=[(0, 1), (0, 1)],
            half_edge_images=[(0, 1, 2, 3), (1, 0, 2, 3)],
        )


@pytest.mark.parametrize(
    "seeds, message",
    [
        ({"tangent_chars": {(5, 0): Fraction(1, 2)}}, "tangent character names unknown element 5"),
        ({"tangent_chars": {(-1, 0): Fraction(1, 2)}}, "tangent character names unknown element -1"),
        ({"smoothing_chars": {(7, 0): Fraction(0)}}, "smoothing character names unknown element 7"),
        ({"smoothing_chars": {(-1, 0): Fraction(0)}}, "smoothing character names unknown element -1"),
        ({"kernels": {7: [1]}}, "kernel at unknown vertex 7"),
        ({"kernels": {-1: [1]}}, "kernel at unknown vertex -1"),
        ({"smoothing_chars": {(1, 3): Fraction(0)}}, "smoothing character at unknown edge 3"),
    ],
    ids=[
        "tangent5", "tangent-1", "smoothing7", "smoothing-1", "kernel7", "kernel-1",
        "smoothing-edge3",
    ],
)
def test_out_of_range_seed_rejected(z2, nodal_quartic_graph, seeds, message):
    with pytest.raises(ActionError, match=message):
        validate_action(
            z2, nodal_quartic_graph, vertex_images=[(0,)], half_edge_images=[(1, 0)], **seeds
        )


@pytest.mark.parametrize("k", [5, -1])
def test_out_of_range_kernel_element_rejected(z2, nodal_quartic_graph, k):
    with pytest.raises(ActionError, match=f"kernel of vertex 0 names unknown element {k}"):
        validate_action(
            z2,
            nodal_quartic_graph,
            vertex_images=[(0,)],
            half_edge_images=[(1, 0)],
            kernels={0: [k]},
        )


@pytest.mark.parametrize(
    "seeds, message",
    [
        ({"tangent_chars": {(1,): Fraction(1, 2)}}, r"tangent character key \(1,\) is not"),
        ({"smoothing_chars": {(1, 0, 0): Fraction(0)}}, r"smoothing character key \(1, 0, 0\)"),
        ({"tangent_chars": {(1.0, 0): Fraction(1, 2)}}, r"tangent character key \(1.0, 0\)"),
        ({"tangent_chars": {(True, 0): Fraction(1, 2)}}, r"tangent character key \(True, 0\)"),
        ({"tangent_chars": {(1, 0): 0.5}}, r"tangent character at \(1, 0\) .* got 0.5"),
        ({"tangent_chars": {(1, 0): "1/2"}}, r"tangent character at \(1, 0\) .* got '1/2'"),
        ({"kernels": {0: ["1"]}}, "kernel of vertex 0 names non-integer element '1'"),
        ({"kernels": {0: [1.0]}}, "kernel of vertex 0 names non-integer element 1.0"),
        ({"kernels": {"0": [1]}}, "kernel at unknown vertex '0'"),
        ({"kernels": {0: 5}}, "kernel of vertex 0 is not a list of elements: 5"),
        ({"tangent_chars": 5}, "tangent characters must be a mapping, got 5"),
        ({"smoothing_chars": 5}, "smoothing characters must be a mapping, got 5"),
        ({"kernels": 5}, "kernels must be a mapping, got 5"),
        ({"ramification_orbits": 5}, "ramification orbits must be a list, got 5"),
        (
            {"ramification_orbits": [(0, 1, Fraction(1, 2))]},
            r"ramification orbit \(0, 1, Fraction\(1, 2\)\) is not",
        ),
        (
            {"ramification_orbits": [RamificationOrbit(0, 1, 0.5, 2)]},
            "ramification character must be a Fraction or an integer, got 0.5",
        ),
        (
            {"ramification_orbits": [RamificationOrbit(0, 1, Fraction(1, 2), 2.0)]},
            "ramification orbit order must be an integer, got 2.0",
        ),
    ],
    ids=[
        "tangent-key-short", "smoothing-key-long", "key-float", "key-bool",
        "value-float", "value-str", "kernel-str", "kernel-float", "kernel-vertex-str",
        "kernel-not-a-list", "tangent-not-a-mapping", "smoothing-not-a-mapping",
        "kernels-not-a-mapping", "ramification-not-a-list",
        "ramification-arity",
        "ramification-char-float", "ramification-order-float",
    ],
)
def test_malformed_seed_rejected(z2, nodal_quartic_graph, seeds, message):
    # both branches fixed, so each seed would otherwise be meaningful
    with pytest.raises(ActionError, match=message):
        validate_action(
            z2, nodal_quartic_graph, vertex_images=[(0,)], half_edge_images=[(0, 1)], **seeds
        )


@pytest.mark.parametrize(
    "images, message",
    [
        ({"vertex_images": [5], "half_edge_images": [(0, 1)]}, "must permute the graph's vertices"),
        ({"vertex_images": [(0,)], "half_edge_images": [5]}, "must permute the graph's half-edges"),
        ({"vertex_images": 5, "half_edge_images": [(0, 1)]}, "need one vertex image"),
    ],
    ids=["vertex-image-int", "half-edge-image-int", "vertex-images-int"],
)
def test_malformed_images_rejected(z2, nodal_quartic_graph, images, message):
    with pytest.raises(ActionError, match=message):
        validate_action(z2, nodal_quartic_graph, **images)
    # the container checks come first, in argument order
    with pytest.raises(ActionError, match="tangent characters must be a mapping"):
        validate_action(z2, nodal_quartic_graph, **images, tangent_chars=5, kernels=5)


def test_orbit_lookup(paper_action):
    assert [o.members for o in paper_action.vertex_orbits] == [(0,)]
    assert paper_action.smoothing_chars.orbit_at == {0: 0}
    with pytest.raises(ActionError, match="vertex 1 not found in any orbit"):
        quotient_signature(paper_action, 1)


def test_missing_tangent_character_is_a_gap(z2):
    # the involution fixes both half-edges but no character is supplied
    graph = build_graph([2], [0, 0], [(0, 1)])
    with pytest.raises(CharacterError, match="missing"):
        validate_action(z2, graph, vertex_images=[(0,)], half_edge_images=[(0, 1)])


def test_missing_swap_smoothing_character(z2, nodal_quartic_graph):
    with pytest.raises(CharacterError, match="missing"):
        validate_action(
            z2,
            nodal_quartic_graph,
            vertex_images=[(0,)],
            half_edge_images=[(1, 0)],
        )


def test_smoothing_seed_order_must_divide_element_order(z2):
    # the involution swaps the branches, so its smoothing value is a seed; a
    # value of order 3 is named as such, not as a product-rule failure
    graph = build_graph([2], [0, 0], [(0, 1)])
    images = dict(vertex_images=[(0,)], half_edge_images=[(1, 0)])
    with pytest.raises(CharacterError) as err:
        validate_action(z2, graph, smoothing_chars={(1, 0): Fraction(1, 3)}, **images)
    assert str(err.value) == (
        "smoothing character 1/3 at edge 0 has order 3, not a divisor of the "
        "order of element 1"
    )
    ok = validate_action(z2, graph, smoothing_chars={(1, 0): Fraction(1, 2)}, **images)
    assert ok.smoothing_chars[(1, 0)] == Fraction(1, 2)


def test_character_on_moved_half_edge_rejected(z2, nodal_quartic_graph):
    with pytest.raises(ActionError, match="moves half-edge"):
        validate_action(
            z2,
            nodal_quartic_graph,
            vertex_images=[(0,)],
            half_edge_images=[(1, 0)],
            tangent_chars={(1, 0): Fraction(1, 2)},
            smoothing_chars={(1, 0): Fraction(0)},
        )


def test_kernel_must_fix_half_edges(z2, nodal_quartic_graph):
    with pytest.raises(ActionError, match="kernel element"):
        validate_action(
            z2,
            nodal_quartic_graph,
            vertex_images=[(0,)],
            half_edge_images=[(1, 0)],
            smoothing_chars={(1, 0): Fraction(0)},
            kernels={0: [1]},
        )


def test_ramification_order_mismatch(z2):
    graph = build_graph([3], [], [])
    with pytest.raises(ActionError, match="cyclic of order 2, declared order 4"):
        validate_action(
            z2,
            graph,
            vertex_images=[(0,)],
            half_edge_images=[()],
            ramification_orbits=[RamificationOrbit(0, 1, Fraction(1, 4), 4)],
        )


@pytest.mark.parametrize(
    "graph, images, orbit, message",
    [
        (ONE_NODE, ((0,), (1, 0)), (3, 1, 2), "ramification orbit at unknown vertex 3"),
        (ONE_NODE, ((0,), (1, 0)), (0, 7, 2), "ramification orbit names unknown element 7"),
        (
            TWO_COMPONENTS, ((1, 0), (1, 0)), (0, 1, 2),
            "ramification element 1 does not stabilize its vertex 0",
        ),
        (ONE_NODE, ((0,), (1, 0)), (0, 1, 1), "ramification order must be >= 2, got 1"),
    ],
    ids=["unknown-vertex", "unknown-element", "moved-vertex", "order-1"],
)
def test_ramification_orbit_out_of_place_rejected(z2, graph, images, orbit, message):
    v, h, e = orbit
    with pytest.raises(ActionError) as err:
        validate_action(
            z2,
            graph,
            vertex_images=[images[0]],
            half_edge_images=[images[1]],
            smoothing_chars={(1, 0): Fraction(0)},
            ramification_orbits=[RamificationOrbit(v, h, Fraction(1, 2), e)],
        )
    assert str(err.value) == message


def test_tangent_conflict_names_the_transported_seed():
    # S3 fixes both branches of the node; the transpositions (0 1) and (1 2)
    # are conjugate, so seeds 1/2 and 0 on them conflict, and the message
    # names the element carrying the first seed onto the second
    s3 = FiniteGroup.from_generators(
        [perm_from_cycles([[0, 1, 2]], 3), perm_from_cycles([[0, 1]], 3)], 3
    )
    first = s3.index_of(perm_from_cycles([[0, 1]], 3))
    second = s3.index_of(perm_from_cycles([[1, 2]], 3))
    assert (first, second) == (1, 3)
    with pytest.raises(CharacterError) as err:
        validate_action(
            s3,
            ONE_NODE,
            vertex_images=[(0,), (0,)],
            half_edge_images=[(0, 1), (0, 1)],
            tangent_chars={(first, 0): Fraction(1, 2), (second, 0): Fraction(0)},
        )
    assert str(err.value) == (
        "inconsistent tangent character at (element 3, half-edge 0): value of "
        "element 1 at half-edge 0 transported by element 4 gives 1/2, value of "
        "element 3 at half-edge 0 gives 0"
    )


def test_ramification_character_must_be_faithful(z2):
    graph = build_graph([3], [], [])
    with pytest.raises(ActionError, match="exact order"):
        validate_action(
            z2,
            graph,
            vertex_images=[(0,)],
            half_edge_images=[()],
            ramification_orbits=[RamificationOrbit(0, 1, Fraction(0), 2)],
        )


def test_swap_consistency_rejects_wrong_square():
    # order-4 swap: sm(sigma)^2 must equal the derived sm(sigma^2)
    z4 = FiniteGroup.from_generators([perm_from_cycles([[0, 1, 2, 3]], 4)], 4)
    graph = build_graph([2], [0, 0], [(0, 1)])
    sigma = 1
    sq = z4.mul(sigma, sigma)
    kwargs = dict(
        vertex_images=[(0,)],
        half_edge_images=[(1, 0)],
        tangent_chars={(sq, 0): Fraction(1, 2), (sq, 1): Fraction(1, 2)},
    )
    # derived sm(sigma^2) = 0, so sm(sigma) in {0, 1/2} is fine but 1/4 is not
    with pytest.raises(CharacterError):
        validate_action(
            z4, graph, smoothing_chars={(sigma, 0): Fraction(1, 4)}, **kwargs
        )
    ok = validate_action(
        z4, graph, smoothing_chars={(sigma, 0): Fraction(1, 2)}, **kwargs
    )
    assert ok.smoothing_chars[(sq, 0)] == 0


# -- node and branch invariants ----------------------------------------------


def test_node_invariants_trivial_group():
    rng = random.Random(2)
    for _ in range(10):
        g = random_stable_graph(rng)
        assert node_invariants(trivial_action(g)) == g.n_edges


def test_node_invariants_paper(paper_action):
    assert node_invariants(paper_action) == 1


def test_node_invariant_killed_by_sign(z2):
    # branch-preserving with characters (-1, +1): smoothing character -1
    graph = build_graph([2, 2], [0, 1], [(0, 1)])
    action = validate_action(
        z2,
        graph,
        vertex_images=[(0, 1)],
        half_edge_images=[(0, 1)],
        tangent_chars={(1, 0): Fraction(1, 2), (1, 1): Fraction(0)},
        ramification_orbits=[
            RamificationOrbit(0, 1, Fraction(1, 2), 2),
            RamificationOrbit(1, 1, Fraction(1, 2), 2),
            RamificationOrbit(1, 1, Fraction(1, 2), 2),
            RamificationOrbit(1, 1, Fraction(1, 2), 2),
        ],
    )
    assert action.smoothing_chars[(1, 0)] == Fraction(1, 2)
    assert node_invariants(action) == 0


def test_branch_invariants_trivial_group():
    rng = random.Random(4)
    for _ in range(10):
        g = random_stable_graph(rng)
        assert branch_invariants(trivial_action(g)) == 2 * g.n_edges


def test_branch_invariants_paper(paper_action):
    assert branch_invariants(paper_action) == 1


def test_branch_invariants_killed_by_signs(z2):
    graph = build_graph([2], [0, 0], [(0, 1)])
    action = validate_action(
        z2,
        graph,
        vertex_images=[(0,)],
        half_edge_images=[(0, 1)],
        tangent_chars={(1, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)},
    )
    assert branch_invariants(action) == 0


# -- quotient signatures -------------------------------------------------------


def test_quotient_signature_paper(paper_action):
    sig = quotient_signature(paper_action, 0)
    assert (sig.g_prime, sig.b, sig.contribution) == (1, 2, 2)


def test_quotient_signature_trivial_group():
    g = build_graph([4], [], [])
    sig = quotient_signature(trivial_action(g), 0)
    assert (sig.g_prime, sig.b, sig.contribution) == (4, 0, 9)


def test_quotient_signature_hyperelliptic(z2):
    # genus 2 quotient by the hyperelliptic involution: six order-2 points
    graph = build_graph([2], [], [])
    action = validate_action(
        z2,
        graph,
        vertex_images=[(0,)],
        half_edge_images=[()],
        ramification_orbits=[RamificationOrbit(0, 1, Fraction(1, 2), 2)] * 6,
    )
    sig = quotient_signature(action, 0)
    assert (sig.g_prime, sig.b, sig.contribution) == (0, 6, 3)


def test_quotient_signature_inconsistent_parity(z2):
    graph = build_graph([2], [], [])
    action = validate_action(
        z2,
        graph,
        vertex_images=[(0,)],
        half_edge_images=[()],
        ramification_orbits=[RamificationOrbit(0, 1, Fraction(1, 2), 2)] * 3,
    )
    with pytest.raises(RamificationError, match="inconsistent ramification data"):
        quotient_signature(action, 0)


def test_quotient_signature_negative_genus(z2):
    graph = build_graph([2], [], [])
    action = validate_action(
        z2,
        graph,
        vertex_images=[(0,)],
        half_edge_images=[()],
        ramification_orbits=[RamificationOrbit(0, 1, Fraction(1, 2), 2)] * 10,
    )
    with pytest.raises(RamificationError, match="inconsistent ramification data"):
        quotient_signature(action, 0)


# -- equivariant T1 -------------------------------------------------------------


def test_t1_equivariant_paper(paper_action):
    t1 = t1_equivariant(paper_action)
    assert (t1.node_inv, t1.branch_inv, t1.minus_chi_inv, t1.total) == (1, 1, 2, 4)


def test_t1_equivariant_trivial_genus3():
    t1 = t1_equivariant(trivial_action(build_graph([3], [], [])))
    assert t1.total == 6


def test_t1_equivariant_smooth_fiber(smooth_fiber_action):
    t1 = t1_equivariant(smooth_fiber_action)
    assert (t1.node_inv, t1.branch_inv, t1.minus_chi_inv, t1.total) == (0, 0, 4, 4)


def test_t1_equivariant_rejects_marks(z2):
    graph = build_graph([1], [], [], marks=[0, 0])
    action = validate_action(z2, graph, vertex_images=[(0,)], half_edge_images=[()])
    with pytest.raises(GraphError, match="not in scope"):
        t1_equivariant(action)


def test_trivial_group_reduction_matches_t1_dimension():
    rng = random.Random(6)
    for _ in range(50):
        g = random_stable_graph(rng)
        t1 = t1_equivariant(trivial_action(g))
        plain = t1_dimension(g)
        assert (t1.node_inv, t1.branch_inv, t1.minus_chi_inv, t1.total) == (
            plain.delta,
            plain.branch_term,
            plain.minus_chi,
            plain.total,
        )


def test_inert_action_reduces_to_t1_dimension():
    # a group acting trivially on every component still has full kernels,
    # trivial characters, and quotient = the curve itself
    rng = random.Random(8)
    for group in catalog():
        g = random_stable_graph(rng, max_vertices=4, max_edges=5)
        t1 = t1_equivariant(inert_action(group, g))
        plain = t1_dimension(g)
        assert (t1.node_inv, t1.branch_inv, t1.minus_chi_inv, t1.total) == (
            plain.delta,
            plain.branch_term,
            plain.minus_chi,
            plain.total,
        )


def test_kernel_component_node_oracle_arbiter(kernel_component_action):
    """A node joining a kernel component to a faithful one: the smoothing
    character picks up the faithful side's sign, so the node is not
    invariant even though the whole dual graph is fixed.  The trace oracle
    arbitrates the formal multiplicativity rules."""
    action = kernel_component_action
    assert action.smoothing_chars[(1, 0)] == Fraction(1, 2)
    assert node_invariants(action) == 0
    assert branch_invariants(action) == 1
    sigs = {s.representative: s for s in quotient_signatures(action)}
    assert (sigs[0].g_prime, sigs[0].b) == (2, 0)
    assert (sigs[1].g_prime, sigs[1].b) == (1, 2)
    t1 = t1_equivariant(action)
    assert t1 == t1_equivariant_oracle(action)
    assert t1.total == 0 + 1 + (3 + 2)


# -- oracle equivalence and properties ------------------------------------------


def test_t1_equivariant_rejects_disconnected(z2):
    graph = build_graph([2, 2], [], [], allow_disconnected=True)
    action = validate_action(z2, graph, vertex_images=[(0, 1)], half_edge_images=[()])
    with pytest.raises(GraphError, match="connected"):
        t1_equivariant(action)


def test_oracle_on_inert_actions():
    rng = random.Random(19)
    for group in catalog():
        action = inert_action(group, random_stable_graph(rng, max_vertices=4, max_edges=5))
        assert t1_equivariant(action) == t1_equivariant_oracle(action)


def test_oracle_matches_on_random_actions():
    rng = random.Random(23)
    for _ in range(150):
        group = rng.choice(catalog())
        action = random_action(group, rng)
        assert t1_equivariant(action) == t1_equivariant_oracle(action)


def test_riemann_hurwitz_reconstruction():
    """Accepted signatures reconstruct 2g - 2 exactly from their orbit data."""
    rng = random.Random(29)
    for _ in range(80):
        action = random_action(rng.choice(catalog()), rng)
        for orbit in action.vertex_orbits:
            rep = orbit.representative
            kernel = action.kernels[rep]
            hbar = len(orbit.stabilizer) // len(kernel)
            orders = [
                o.order
                for o in action.ramification_orbits
                if o.vertex in orbit.members
            ]
            seen = set()
            for p in action.graph.vertex_half_edges[rep]:
                if p in seen:
                    continue
                members = {action.half_edge_perms[g][p] for g in orbit.stabilizer}
                seen.update(members)
                stab = [
                    g for g in orbit.stabilizer if action.half_edge_perms[g][p] == p
                ]
                e = len(stab) // len(kernel)
                if e >= 2:
                    orders.append(e)
            sig = quotient_signature(action, rep)
            lhs = 2 * action.graph.genera[rep] - 2
            rhs = hbar * (2 * sig.g_prime - 2) + sum(
                (hbar // e) * (e - 1) for e in orders
            )
            assert lhs == rhs
            assert sig.b == len(orders)


def test_invariant_monotonicity():
    rng = random.Random(31)
    for _ in range(60):
        action = random_action(rng.choice(catalog()), rng)
        assert node_invariants(action) <= len(action.edge_orbits)
        assert branch_invariants(action) <= len(action.half_edge_orbits)
