"""Differential tests: the BFS character-table completion, subgroup and
conjugacy closures, the vertex and edge permutations read off the half-edge
table, fixed-point sets, freeness verdicts
and Burnside counts against the algorithms they replaced (``reference_seed``), on the random
catalog, on inert, kernel and ramified actions of S4 and A5, on necklaces,
and on corrupted inputs."""

import random
import re
from fractions import Fraction

import pytest

import randgen
import reference_seed
from isoprod.actions import (
    QuotientSignature,
    RamificationOrbit,
    _solve_riemann_hurwitz,
    inert_action,
    quotient_signatures,
    t1_equivariant,
    t1_equivariant_oracle,
    validate_action,
)
from isoprod.curves import arithmetic_genus, build_graph
from isoprod.errors import (
    ActionError,
    CharacterError,
    GroupError,
    IsoprodError,
    RamificationError,
)
from isoprod.groups import (
    CharacterTable,
    FiniteGroup,
    Orbit,
    RestrictedTable,
    compose,
    format_perm,
    invariant_dimension_trace,
    invert,
    orbits,
    perm_from_cycles,
)
from isoprod.families import smooth_node_orbit, smoothable_edge_orbits, smoothing_chain
from isoprod.surfaces import (
    FreenessCheck,
    SurfaceDescriptor,
    build_surface,
    certify_degeneration,
    check_free_action,
    check_free_codim1,
    fixed_point_profile,
)
from test_scaling import assert_trace_scans_at_most, necklace, symmetric_group


def s4():
    return FiniteGroup.from_generators(
        [perm_from_cycles([[0, 1, 2, 3]], 4), perm_from_cycles([[0, 1]], 4)], 4
    )


def a5():
    return FiniteGroup.from_generators(
        [perm_from_cycles([[0, 1, 2]], 5), perm_from_cycles([[0, 1, 2, 3, 4]], 5)], 5
    )


def s5():
    return FiniteGroup.from_generators(
        [perm_from_cycles([[0, 1, 2, 3, 4]], 5), perm_from_cycles([[0, 1]], 5)], 5
    )


def element(group, cycles):
    return group.index_of(perm_from_cycles(cycles, group.degree))


def outcome(validate, group, graph, args):
    try:
        return validate(group, graph, *args["images"], **args["kwargs"])
    except IsoprodError as exc:
        return type(exc)


def assert_same_traces(action):
    """The node and branch Burnside counts, each read from the action's own
    character table, equal the callable trace's, which evaluates every
    (element, point) pair."""
    group = action.group
    for perms, chars in (
        (action.edge_perms, action.smoothing_chars),
        (action.half_edge_perms, action.tangent_chars),
    ):
        expected = reference_seed.invariant_dimension_trace(
            group,
            lambda g, p: perms[g][p],
            range(len(perms[0])),
            lambda g, p: chars[(g, p)],
        )
        assert chars.perms is perms
        assert invariant_dimension_trace(chars) == expected


def assert_same(group, graph, args):
    """Both validations give the same verdict, and on success the same
    tables, edge permutations, kernels, fixed-point profile and Burnside
    counts."""
    new = outcome(validate_action, group, graph, args)
    ref = outcome(reference_seed.validate_action, group, graph, args)
    if isinstance(ref, type):
        assert new is ref
        return None
    assert not isinstance(new, type), f"seed validates, new raises {new.__name__}"
    assert new.tangent_chars == ref.tangent_chars
    assert new.smoothing_chars == ref.smoothing_chars
    assert new.edge_perms == ref.edge_perms
    assert new.kernels == ref.kernels
    assert fixed_point_profile(new) == reference_seed.fixed_point_profile(ref)
    assert_same_traces(new)
    return new


def captured_inputs(group, seed, count):
    """Inputs of ``count`` random actions (and as many free ones) of ``group``,
    recorded at the ``validate_action`` call of the random builder."""
    calls = []

    def record(group, graph, vertex_images, half_edge_images, **kwargs):
        calls.append((graph, {"images": (vertex_images, half_edge_images), "kwargs": kwargs}))
        return validate_action(group, graph, vertex_images, half_edge_images, **kwargs)

    rng = random.Random(seed)
    mp = pytest.MonkeyPatch()
    mp.setattr(randgen, "validate_action", record)
    try:
        for _ in range(count):
            randgen.random_action(group, rng)
            randgen.random_free_action(group, rng)
    finally:
        mp.undo()
    return calls


def kernel_action_inputs(group, stab, kernel):
    """Vertices G/stab, the kernel g N g^-1 at vertex g.stab (N = ``kernel``,
    normal in ``stab``), and one self-loop per coset of N: half-edges
    (side, g N) at vertex g.stab, edge {(0, g N), (1, g N)}.  Kernels force
    every tangent and smoothing character; nothing is supplied."""
    vertices = randgen.left_cosets(group, stab)
    branches = randgen.left_cosets(group, kernel)
    vertex_of = {g: v for v, coset in enumerate(vertices) for g in coset}
    half_edge_vertex = [vertex_of[min(c)] for c in branches] * 2
    nb = len(branches)
    graph = build_graph(
        [2] * len(vertices), half_edge_vertex, [(i, nb + i) for i in range(nb)],
        allow_disconnected=True,
    )

    def image(s, cosets, of):
        return tuple(of[group.mul(s, min(c))] for c in cosets)

    branch_of = {g: i for i, coset in enumerate(branches) for g in coset}
    gens = group.generator_indices
    vertex_images = [image(s, vertices, vertex_of) for s in gens]
    half_edge_images = [
        image(s, branches, branch_of)
        + tuple(nb + i for i in image(s, branches, branch_of))
        for s in gens
    ]
    kernels = {
        v: frozenset(group.conjugates(min(coset), kernel)) for v, coset in enumerate(vertices)
    }
    args = {"images": (vertex_images, half_edge_images), "kwargs": {"kernels": kernels}}
    return graph, args


def ramified_inputs(group, vector, genus):
    """A faithful action on a smooth curve of ``genus`` with one ramification
    orbit per (element cycles, order) entry of ``vector``."""
    ngens = len(group.generators)
    ram = [
        RamificationOrbit(0, element(group, cycles), Fraction(1, e), e)
        for cycles, e in vector
    ]
    graph = build_graph([genus], [], [])
    args = {"images": ([(0,)] * ngens, [()] * ngens), "kwargs": {"ramification_orbits": ram}}
    return graph, args


def cayley_inputs(group):
    """``group`` acting freely by left multiplication on its Cayley graph:
    genus-0 vertex g joined to g * s for each generator s by edge
    e = g * ngens + k, with half-edges 2e at g and 2e + 1 at g * s."""
    ngens = len(group.generators)
    half_edge_vertex, edges = [], []
    for g in range(group.order):
        for k in range(ngens):
            e = g * ngens + k
            half_edge_vertex += [g, group.right[g][k]]
            edges.append((2 * e, 2 * e + 1))
    graph = build_graph([0] * group.order, half_edge_vertex, edges)
    vertex_images = [
        tuple(group.mul(s, g) for g in range(group.order)) for s in group.generator_indices
    ]
    half_edge_images = [
        tuple(
            2 * (group.mul(s, h // (2 * ngens)) * ngens + h // 2 % ngens) + h % 2
            for h in range(len(half_edge_vertex))
        )
        for s in group.generator_indices
    ]
    return graph, {"images": (vertex_images, half_edge_images), "kwargs": {}}


TABLES = ("vertex_perms", "half_edge_perms", "edge_perms")


def assert_tables_match_seed(group, graph, args):
    """Both validations accept, and every permutation table reads as the
    seed's, whose edge table is walked element by element."""
    new = validate_action(group, graph, *args["images"], **args["kwargs"])
    ref = reference_seed.validate_action(group, graph, *args["images"], **args["kwargs"])
    for kind in TABLES:
        assert tuple(getattr(new, kind)) == tuple(getattr(ref, kind))
    assert new.vertex_orbits == ref.vertex_orbits
    assert new.edge_orbits == ref.edge_orbits
    return new


def test_induced_tables_match_the_seed_walk():
    # the vertex and edge tables read off the half-edge table equal the
    # walked ones wherever validation derives them, and the walked path
    # (a vertex with no branch) still runs: a smooth curve, and two smooth
    # components swapped by an involution
    derived = walked = 0
    cases = []
    for i, group in enumerate(randgen.catalog() + [s4(), a5()]):
        cases += [(group, *c) for c in captured_inputs(group, 300 + i, 3)]
    for make in (s4, a5, s5):
        group = make()
        cases.append((group, *cayley_inputs(group)))
        full = frozenset(range(group.order))
        alternating = group.subgroup_closure(
            [element(group, [[i, i + 1, i + 2]]) for i in range(group.degree - 2)]
        )
        cases.append((group, *kernel_action_inputs(group, full, alternating)))
    for n in (3, 8, 25):
        group, graph, vertex_images, half_edge_images = necklace(n)
        cases.append((group, graph, {"images": (vertex_images, half_edge_images), "kwargs": {}}))
    z2 = randgen.catalog()[1]
    assert z2.order == 2
    pair = build_graph([2, 2], [], [], allow_disconnected=True)
    cases.append((z2, pair, {"images": ([(1, 0)], [()]), "kwargs": {}}))
    cases.append((z2, build_graph([3], [], []), {"images": ([(0,)], [()]), "kwargs": {}}))
    for group, graph, args in cases:
        action = assert_tables_match_seed(group, graph, args)
        for kind in ("vertex_perms", "edge_perms"):
            if isinstance(getattr(action, kind), RestrictedTable):
                derived += 1
            elif kind == "vertex_perms" and not all(graph.vertex_half_edges):
                walked += len(set(getattr(action, kind))) > 1
    assert derived >= 100 and walked >= 1


def image_error(validate, group, graph, images):
    try:
        validate(group, graph, *images)
    except IsoprodError as exc:
        return type(exc), str(exc)
    return None


def test_bad_vertex_images_raise_the_vertex_walks_message():
    # the vertex walk no longer runs first where the vertex table is read
    # off the half-edge table; an error of the half-edge walk or the cover
    # check replays it, so a vertex relation failure is still the message
    z2 = randgen.catalog()[1]
    triangle = build_graph([1, 1, 1], [0, 1, 1, 2, 2, 0], [(0, 1), (2, 3), (4, 5)])
    images = ([(1, 2, 0)], [tuple(range(6))])
    expected = (
        ActionError,
        "generator images do not extend to a group homomorphism "
        "(relation fails at element 1, generator 0)",
    )
    assert image_error(validate_action, z2, triangle, images) == expected
    assert image_error(reference_seed.validate_action, z2, triangle, images) == expected
    # the same with half-edge images that fail their own walk as well, and
    # on three smooth components, whose vertex images are walked last
    images = ([(1, 2, 0)], [(2, 3, 4, 5, 0, 1)])
    assert image_error(validate_action, z2, triangle, images) == expected
    smooth = build_graph([2, 2, 2], [], [], allow_disconnected=True)
    assert image_error(validate_action, z2, smooth, ([(1, 2, 0)], [()])) == expected


def test_mutated_images_give_the_seeds_messages():
    # one generator's vertex or half-edge image replaced by another
    # permutation: the library names the same first failure as the seed,
    # which walks the vertex images first, then the half-edge images, then
    # checks the cover
    rng = random.Random(17)
    errors = 0
    for i, group in enumerate(randgen.catalog()[1:] + [s4()]):
        for graph, args in captured_inputs(group, 400 + i, 3):
            vertex_images, half_edge_images = map(list, args["images"])
            for which, n in (
                (vertex_images, graph.n_vertices), (half_edge_images, graph.n_half_edges)
            ):
                if n < 2:
                    continue
                k = rng.randrange(len(which))
                saved = which[k]
                which[k] = tuple(rng.sample(range(n), n))
                images = (vertex_images, half_edge_images)
                got = image_error(validate_action, group, graph, images)
                assert got == image_error(reference_seed.validate_action, group, graph, images)
                errors += got is not None
                which[k] = saved
    assert errors > 40


def test_catalog_matches_seed():
    groups = randgen.catalog() + [s4(), a5()]
    for i, group in enumerate(groups):
        for graph, args in captured_inputs(group, 100 + i, 4 if group.order < 24 else 2):
            assert assert_same(group, graph, args) is not None


def test_subgroup_and_conjugacy_closures_match_seed():
    for group in randgen.catalog() + [s4()]:
        rng = random.Random(group.order)
        for _ in range(20):
            seeds = [rng.randrange(group.order) for _ in range(rng.randint(0, 3))]
            sub = group.subgroup_closure(seeds)
            assert sub == reference_seed.subgroup_closure(group, seeds)
            assert group.conjugacy_union(sub) == reference_seed.conjugacy_union(group, sub)


@pytest.mark.parametrize("make", [s4, a5])
def test_inert_kernel_and_ramified_actions_match_seed(make):
    group = make()
    one_node = build_graph([2], [0, 0], [(0, 1)])
    two_vertices = build_graph([2, 3], [0, 1, 0, 1], [(0, 1), (2, 3)])
    for graph in (one_node, two_vertices):
        ngens = len(group.generators)
        args = {
            "images": (
                [tuple(range(graph.n_vertices))] * ngens,
                [tuple(range(graph.n_half_edges))] * ngens,
            ),
            "kwargs": {"kernels": {v: range(group.order) for v in range(graph.n_vertices)}},
        }
        action = assert_same(group, graph, args)
        assert action == inert_action(group, graph)

    v4 = [element(group, c) for c in ([[0, 1], [2, 3]], [[0, 2], [1, 3]])]
    kernel = group.subgroup_closure(v4)
    if group.order == 24:
        # V4 is normal in S4: one component, S4/V4 = S3 acting on it
        stab = frozenset(range(group.order))
        vector = [([[0, 1]], 2), ([[0, 1]], 2), ([[0, 1], [2, 3]], 2), ([[0, 1, 2]], 3)]
        genus = 3
    else:
        # A5 is simple: V4 is normal in the stabilizer A4 of a letter
        stab = group.subgroup_closure(v4 + [element(group, [[0, 1, 2]])])
        vector = [([[0, 1], [2, 3]], 2), ([[0, 1, 2, 3, 4]], 5), ([[0, 2, 4, 1, 3]], 5)]
        genus = 4
    graph, args = kernel_action_inputs(group, stab, kernel)
    assert assert_same(group, graph, args) is not None
    # one involution of V4 as the only kernel fixes the branches at vertex 0
    # but is not carried to the kernels of its conjugate vertices
    args["kwargs"]["kernels"] = {0: [v4[0]]}
    assert outcome(validate_action, group, graph, args) is ActionError
    assert assert_same(group, graph, args) is None
    assert assert_same(group, *ramified_inputs(group, vector, genus)) is not None


@pytest.mark.parametrize("n", [3, 8, 25])
def test_necklaces_match_seed(n):
    group, graph, vertex_images, half_edge_images = necklace(n)
    args = {"images": (vertex_images, half_edge_images), "kwargs": {}}
    assert assert_same(group, graph, args) is not None


def self_node_inputs(group, c):
    """One component fixed by the group with a self-node orbit G/<c> (the
    graph of ``kernel_action_inputs`` with no kernel); c rotates the two
    branches of the base node by inverse faithful characters, so the
    tangent column is nonzero."""
    sub = group.subgroup_closure([c])
    graph, args = kernel_action_inputs(group, frozenset(range(group.order)), sub)
    m, nb = len(sub), graph.n_edges
    args["kwargs"] = {"tangent_chars": {(c, 0): Fraction(1, m), (c, nb): Fraction(m - 1, m)}}
    return graph, args


@pytest.mark.parametrize("make", [s4, a5, s5])
def test_table_traces_on_inert_kernel_ramified_and_free_actions(make):
    # assert_same runs the Burnside trace on the table, on dict(table) and on
    # a copy of the permutations: on inert and kernel-carrying actions, whose
    # elements share tuples, and on ramified and free ones, whose elements
    # do not
    group = make()
    full = frozenset(range(group.order))
    alternating = group.subgroup_closure(
        [element(group, [[i, i + 1, i + 2]]) for i in range(group.degree - 2)]
    )
    two_vertices = build_graph([2, 3], [0, 1, 0, 1], [(0, 1), (2, 3)])
    ngens = len(group.generators)
    inert = {
        "images": ([(0, 1)] * ngens, [(0, 1, 2, 3)] * ngens),
        "kwargs": {"kernels": {0: full, 1: full}},
    }
    rotation = {24: [[0, 1, 2, 3]], 60: [[0, 1, 2, 3, 4]], 120: [[0, 1, 2], [3, 4]]}
    ramified = assert_same(group, *self_node_inputs(group, element(group, rotation[group.order])))
    assert not all(ramified.tangent_chars.trivial)
    assert len(set(ramified.half_edge_perms)) == group.order
    for graph, args in ((two_vertices, inert), kernel_action_inputs(group, full, alternating)):
        action = assert_same(group, graph, args)
        assert len(set(action.half_edge_perms)) <= 2
    rng = random.Random(group.order)
    for _ in range(2):
        assert_same_traces(randgen.random_free_action(group, rng))


def orbits_by_definition(perms, points):
    """Orbits read element by element in Python: the representative first
    met in ``points``, members in point order, the elements fixing it."""
    pos = {p: i for i, p in enumerate(points)}
    found, seen = [], set()
    for p in points:
        if p not in seen:
            members = {row[p] for row in perms}
            seen |= members
            stab = tuple(g for g, row in enumerate(perms) if row[p] == p)
            found.append(Orbit(p, tuple(sorted(members, key=pos.__getitem__)), stab))
    return found


@pytest.mark.parametrize("make", [s4, a5])
def test_orbits_over_shared_rows_match_the_seed_tables(make):
    # validate_action's inert and kernel-carrying tables share row tuples,
    # and an inert one is read once per point; the seed walk builds a tuple
    # per element.  Orbits of each table, and of each vertex stabilizer's
    # half-edge rows as the oracle takes them, agree with the seed tables'
    # and with the definition, on the inputs of the trace test above
    group = make()
    full = frozenset(range(group.order))
    alternating = group.subgroup_closure(
        [element(group, [[i, i + 1, i + 2]]) for i in range(group.degree - 2)]
    )
    ngens = len(group.generators)
    inert = {
        "images": ([(0, 1)] * ngens, [(0, 1, 2, 3)] * ngens),
        "kwargs": {"kernels": {0: full, 1: full}},
    }
    rotation = {24: [[0, 1, 2, 3]], 60: [[0, 1, 2, 3, 4]]}
    inputs = [
        (build_graph([2, 3], [0, 1, 0, 1], [(0, 1), (2, 3)]), inert),
        kernel_action_inputs(group, full, alternating),
        self_node_inputs(group, element(group, rotation[group.order])),
    ]
    one_row = 0
    for graph, args in inputs:
        new = validate_action(group, graph, *args["images"], **args["kwargs"])
        seed = reference_seed.validate_action(group, graph, *args["images"], **args["kwargs"])
        tables = [
            (new.vertex_perms, seed.vertex_perms, range(graph.n_vertices)),
            (new.half_edge_perms, seed.half_edge_perms, range(graph.n_half_edges)),
            (new.edge_perms, seed.edge_perms, range(graph.n_edges)),
        ]
        for orb in new.vertex_orbits:
            tables.append((
                [new.half_edge_perms[g] for g in orb.stabilizer],
                [seed.half_edge_perms[g] for g in orb.stabilizer],
                graph.vertex_half_edges[orb.representative],
            ))
        for mine, theirs, points in tables:
            one_row += len(mine) > 1 and len({id(row) for row in mine}) == 1
            expected = orbits_by_definition(theirs, list(points))
            assert orbits(mine, points) == orbits(theirs, points) == expected
    assert one_row >= 3


@pytest.mark.parametrize("n", [12, 30])
def test_co_generators_of_a_cyclic_subgroup_keep_their_own_characters(n):
    # Z_n = <g> swapping the branches of a one-node curve: the even powers
    # fix both branches with the faithful tangent character g^2k -> 2k/n,
    # and every element fixes the node with g^k -> 2k/n.  Co-generators of
    # one cyclic subgroup (g^2 and g^-2) share their fixed points, not their
    # values; the trace may reuse only the former
    group = FiniteGroup.from_generators([perm_from_cycles([list(range(n))], n)], n)
    graph = build_graph([2], [0, 0], [(0, 1)])
    args = {
        "images": ([(0,)], [(1, 0)]),
        "kwargs": {
            "tangent_chars": {(2, 0): Fraction(2, n)},
            "smoothing_chars": {(1, 0): Fraction(2, n)},
        },
    }
    action = assert_same(group, graph, args)
    named = group.cyclic_subgroup_classes().values()
    least = next(c for members in named for c, gens in members.items() if n - 2 in gens)
    assert least == 2 and action.tangent_chars[n - 2, 0] != action.tangent_chars[2, 0]
    assert len({id(p) for p in action.half_edge_perms}) == n


def test_table_trace_names_the_first_pair_a_wrong_transporter_drops():
    # hand-built tables whose transporter for one branch x carries the
    # representative elsewhere, or is missing: x's pairs lack elements fixing
    # it, and the first missing pair in element order is named
    group = s4()
    action = assert_same(group, *self_node_inputs(group, element(group, [[0, 1, 2, 3]])))
    table = action.tangent_chars
    orbit = next(o for o, zero in zip(table.orbits, table.trivial) if not zero)
    perms = table.perms
    stab = set(orbit.stabilizer)
    fixing = {x: {g for g, p in enumerate(perms) if p[x] == x} for x in orbit.members}
    x = next(x for x in orbit.members if fixing[x] != stab)
    wrong, missing = dict(table.transporters), dict(table.transporters)
    wrong[x] = 0
    del missing[x]
    bad, unknown = (
        CharacterTable(group, perms, table.orbits, table.columns, table.modulus, t)
        for t in (wrong, missing)
    )
    first = min(fixing[x] - stab)
    for chars, g in ((bad, first), (unknown, 0)):
        message = f"no character for element {g} at fixed point {x}$"
        with pytest.raises(CharacterError, match=message):
            invariant_dimension_trace(chars)


@pytest.mark.parametrize("group, classes", [(s5(), 7), (symmetric_group(6), 11)])
def test_free_cayley_traces_scan_one_row_per_class_of_cyclic_subgroups(group, classes):
    # S5 and S6 act freely on their Cayley graphs: only the identity fixes a
    # branch or a node, and conjugate subgroups fix as many points, so each
    # table's trace compares one row per conjugacy class of cyclic subgroups
    # with the identity (7 and 11 rows, not 67 and 362)
    assert len(group.cyclic_subgroup_classes()) == classes
    graph, args = cayley_inputs(group)
    assert_trace_scans_at_most(validate_action(group, graph, *args["images"]), classes)


def mixed_s4_table():
    """S4 on the six cosets of the Klein four-group V (points 0-5, where V
    acts by the character (01)(23), (02)(13) -> 1/2) and the two cosets of
    A4 (points 6, 7, character 0), with a table over its own permutations.
    The class of the three <(01)(23)> fixes nonzero points; the class of
    the four <(012)> fixes only points 6 and 7, in a zero column."""
    group = s4()
    klein = {0} | {element(group, c) for c in ([[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]])}
    alternating = group.subgroup_closure([element(group, [[0, 1, 2]]), element(group, [[1, 2, 3]])])
    cosets = list(dict.fromkeys(
        frozenset(group.mul(g, h) for h in sub) for sub in (klein, alternating)
        for g in range(group.order)
    ))
    at = {c: i for i, c in enumerate(cosets)}
    images = [
        tuple(at[frozenset(group.mul(s, x) for x in c)] for c in cosets)
        for s in group.generator_indices
    ]
    perms = group.extend_action(images, len(cosets))
    found = orbits(perms, range(len(cosets)))
    half = {element(group, [[0, 1], [2, 3]]), element(group, [[0, 2], [1, 3]])}
    columns = tuple(tuple(int(g in half) if o.representative == 0 else 0 for g in o.stabilizer)
                    for o in found)
    transporters = {x: min(g for g in range(group.order) if perms[g][o.representative] == x)
                    for o in found for x in o.members}
    return group, CharacterTable(group, perms, tuple(found), columns, 2, transporters)


def test_table_trace_mixes_classes_counted_at_once_and_read_per_subgroup():
    # a class whose representative fixes only zero-column points is counted
    # at once, |class| x |generators| x |Fix|; another reads each member
    # subgroup's row; the sum is the reference trace over every pair
    group, table = mixed_s4_table()
    perms = table.perms
    classes = group.cyclic_subgroup_classes()
    zero = set().union(*(o.members for o, z in zip(table.orbits, table.trivial) if z))
    fixed = {r: {p for p in range(len(perms[0])) if perms[r][p] == p} for r in classes}
    assert {len(classes[r]) for r in classes if fixed[r] and fixed[r] <= zero} == {4}
    assert {len(classes[r]) for r in classes if r and fixed[r] - zero} == {3}
    expected = reference_seed.invariant_dimension_trace(
        group, lambda g, p: perms[g][p], range(len(perms[0])), lambda g, p: table[g, p]
    )
    assert invariant_dimension_trace(table) == expected


def corrupted(args, kind, key, value):
    kwargs = dict(args["kwargs"])
    chars = dict(kwargs.get(kind, {}))
    if value is None:
        del chars[key]
    else:
        chars[key] = value
    kwargs[kind] = chars
    return {"images": args["images"], "kwargs": kwargs}


def test_corrupted_inputs_match_seed():
    verdicts = set()
    for i, group in enumerate(randgen.catalog()[1:] + [s4()]):
        for graph, args in captured_inputs(group, 200 + i, 6):
            for kind in ("tangent_chars", "smoothing_chars"):
                for key, val in args["kwargs"].get(kind, {}).items():
                    for value in (None, (val + Fraction(1, 2)) % 1, (val + Fraction(1, 3)) % 1):
                        bad = corrupted(args, kind, key, value)
                        action = assert_same(group, graph, bad)
                        verdicts.add("ok" if action is not None else "error")
    # the corruptions both break and keep validity somewhere in the catalog
    assert verdicts == {"ok", "error"}


def test_conjugation_closure_completes_a_stabilizer():
    # S4 fixes both branches of the node; a tangent value at one
    # transposition reaches every transposition only by conjugation, which
    # completes the sign character; a 3-cycle's conjugates generate only A4,
    # which leaves the transpositions missing
    group = s4()
    graph = build_graph([2], [0, 0], [(0, 1)])
    ngens = len(group.generators)
    transposition = element(group, [[2, 3]])
    three_cycle = element(group, [[0, 1, 2]])
    for seed, val, completes in ((transposition, Fraction(1, 2), True),
                                 (three_cycle, Fraction(0), False)):
        args = {
            "images": ([(0,)] * ngens, [(0, 1)] * ngens),
            "kwargs": {"tangent_chars": {(seed, 0): val, (seed, 1): Fraction(0)}},
        }
        action = assert_same(group, graph, args)
        if not completes:
            with pytest.raises(CharacterError, match="missing tangent character"):
                validate_action(group, graph, *args["images"], **args["kwargs"])
        else:
            a4 = group.subgroup_closure([three_cycle, element(group, [[0, 1], [2, 3]])])
            for g in range(group.order):
                assert action.tangent_chars[(g, 0)] == (0 if g in a4 else Fraction(1, 2))


def test_conflict_names_seed_object_and_transporter():
    # Z4 = <r> swaps two components, r^2 fixes everything; the values given
    # for r^2 at the two branches of one half-edge orbit disagree
    z4 = FiniteGroup.from_generators([perm_from_cycles([[0, 1, 2, 3]], 4)], 4)
    r = 1
    r2 = z4.mul(r, r)
    graph = build_graph([2, 2], [0, 1, 0, 1], [(0, 2), (1, 3)], allow_disconnected=True)
    with pytest.raises(CharacterError, match="inconsistent tangent character") as err:
        validate_action(
            z4,
            graph,
            vertex_images=[(1, 0)],
            half_edge_images=[(1, 0, 3, 2)],
            tangent_chars={(r2, 0): Fraction(1, 2), (r2, 1): Fraction(0)},
        )
    assert f"value of element {r2} at half-edge 1 transported by element {r}" in str(err.value)


def test_value_contradicting_the_product_rule_is_named():
    # r^2 is reached from r by the product rule before its own value is read
    z4 = FiniteGroup.from_generators([perm_from_cycles([[0, 1, 2, 3]], 4)], 4)
    r = 1
    r2 = z4.mul(r, r)
    graph = build_graph([2], [0, 0], [(0, 1)])
    with pytest.raises(CharacterError) as err:
        validate_action(
            z4,
            graph,
            vertex_images=[(0,)],
            half_edge_images=[(0, 1)],
            tangent_chars={(r, 0): Fraction(1, 4), (r2, 0): Fraction(0), (r, 1): Fraction(3, 4)},
        )
    assert f"value of element {r2} at half-edge 0 gives 0, the product rule gives 1/2" in str(
        err.value
    )


def reference_freeness(factor1, factor2):
    """Both freeness checks scanned element by element over the reference
    fixed-point profiles."""
    p1 = reference_seed.fixed_point_profile(factor1)
    p2 = reference_seed.fixed_point_profile(factor2)

    def first(offends):
        g = next((g for g in sorted(p1) if offends(p1[g], p2[g])), None)
        if g is None:
            return FreenessCheck(True, None, None)
        return FreenessCheck(False, g, format_perm(factor1.group.elements[g]))

    return (
        first(lambda a, b: a.has_fixed_point and b.has_fixed_point),
        first(
            lambda a, b: (a.fixes_component and b.has_fixed_point)
            or (b.fixes_component and a.has_fixed_point)
        ),
    )


def s4_a5_actions(group):
    """The inert, kernel and ramified actions of the S4/A5 differential test."""
    one_node = build_graph([2], [0, 0], [(0, 1)])
    actions = [inert_action(group, one_node)]
    v4 = group.subgroup_closure(
        [element(group, c) for c in ([[0, 1], [2, 3]], [[0, 2], [1, 3]])]
    )
    if group.order == 24:
        stab = frozenset(range(group.order))
        vector = [([[0, 1]], 2), ([[0, 1]], 2), ([[0, 1], [2, 3]], 2), ([[0, 1, 2]], 3)]
        genus = 3
    else:
        stab = group.subgroup_closure(sorted(v4) + [element(group, [[0, 1, 2]])])
        vector = [([[0, 1], [2, 3]], 2), ([[0, 1, 2, 3, 4]], 5), ([[0, 2, 4, 1, 3]], 5)]
        genus = 4
    for graph, args in (
        kernel_action_inputs(group, stab, v4),
        ramified_inputs(group, vector, genus),
    ):
        actions.append(validate_action(group, graph, *args["images"], **args["kwargs"]))
    return actions


def test_freeness_checks_match_seed_profiles():
    verdicts = set()
    groups = randgen.catalog() + [s4(), a5()]
    for i, group in enumerate(groups):
        actions = [
            validate_action(group, graph, *args["images"], **args["kwargs"])
            for graph, args in captured_inputs(group, 300 + i, 3 if group.order < 24 else 1)
        ]
        if group.order >= 24:
            actions += s4_a5_actions(group)
        for f1 in actions:
            for f2 in actions:
                surface = SurfaceDescriptor(f1, f2)
                free, codim1 = reference_freeness(f1, f2)
                assert check_free_action(surface) == free
                assert check_free_codim1(surface) == codim1
                verdicts.add((free.passed, codim1.passed))
    # free, free in codimension 1 only, and neither all occur
    assert {(True, True), (False, True), (False, False)} <= verdicts


def test_quotient_signatures_read_the_stabilizer_suborbits_from_cached_orbits():
    # per vertex orbit, the half-edge orbits met by the representative's
    # branches (looked up in first-branch order, as quotient_signatures reads
    # them) are the orbits of Stab(rep) on those branches, recomputed here
    # as orbits of the stabilizer's rows, with stabilizers of the same order
    groups = randgen.catalog() + [s4(), a5()]
    suborbits_seen = 0
    for i, group in enumerate(groups):
        actions = [
            validate_action(group, graph, *args["images"], **args["kwargs"])
            for graph, args in captured_inputs(group, 500 + i, 4 if group.order < 24 else 1)
        ]
        if group.order >= 24:
            actions += s4_a5_actions(group)
        for action in actions:
            expected = []  # per orbit: its signature, or the message it fails with
            for orb in action.vertex_orbits:
                rep = orb.representative
                branches = action.graph.vertex_half_edges[rep]
                met = dict.fromkeys(action.tangent_chars.orbit_at[h] for h in branches)
                cached = [action.half_edge_orbits[i] for i in met]
                rows = [action.half_edge_perms[g] for g in orb.stabilizer]
                subs = orbits(rows, branches)
                assert [len(o.stabilizer) for o in cached] == [
                    len(sub.stabilizer) for sub in subs
                ]
                for o, sub in zip(cached, subs):
                    assert sub.members == tuple(h for h in branches if h in o.members)
                kernel = len(action.kernels[rep])
                orders = [o.order for o in action.ramification_orbits if o.vertex in orb.members]
                orders += [
                    len(sub.stabilizer) // kernel
                    for sub in subs
                    if len(sub.stabilizer) // kernel >= 2
                ]
                genus = action.graph.genera[rep]
                hbar = len(orb.stabilizer) // kernel
                try:
                    g_prime, b = _solve_riemann_hurwitz(genus, hbar, orders, f"vertex {rep}")
                    expected.append(QuotientSignature(rep, g_prime, b, 3 * g_prime - 3 + b))
                except RamificationError as exc:
                    expected.append(str(exc))
                suborbits_seen += len(subs)
            failures = [e for e in expected if isinstance(e, str)]
            try:
                assert quotient_signatures(action) == expected and not failures
            except RamificationError as exc:  # the first failing orbit's message
                assert str(exc) == failures[0]
    assert suborbits_seen > 100


def test_table_at_reads_the_mapping_on_every_object():
    # CharacterTable.at(x) pairs each element fixing x with the residue the
    # Mapping reads at (element, x); most objects here are not their orbit's
    # representative, so at() conjugates the column's stabilizer
    groups = randgen.catalog() + [s4(), a5()]
    moved = 0
    for i, group in enumerate(groups):
        actions = [
            validate_action(group, graph, *args["images"], **args["kwargs"])
            for graph, args in captured_inputs(group, 950 + i, 4 if group.order < 24 else 1)
        ]
        if group.order >= 24:
            actions += s4_a5_actions(group)
        for action in actions:
            for table in (action.tangent_chars, action.smoothing_chars):
                for x in range(len(table.perms[0])):
                    fixing = [g for g, perm in enumerate(table.perms) if perm[x] == x]
                    read = {g: table[g, x] * table.modulus for g in fixing}
                    assert dict(table.at(x)) == read
                    rep = table.orbits[table.orbit_at[x]].representative
                    moved += x != rep and len(fixing) > 1
    assert moved > 200


KEPT_ON_ACTION = {"t1_equivariant", "quotient_signatures"}


def assert_kept_facts_sound(action):
    """T1, the signatures and the genus read twice agree, and equal a fresh
    computation on a new object; T1 equals the oracle run after it is kept;
    mutating a returned signature list leaves the kept tuple alone."""
    t1 = t1_equivariant(action)
    assert KEPT_ON_ACTION <= vars(action).keys()
    assert t1_equivariant(action) == t1 == t1_equivariant(action._replace())
    assert t1_equivariant_oracle(action) == t1
    signatures = quotient_signatures(action)
    expected = list(signatures)
    signatures.clear()
    assert quotient_signatures(action) == expected
    assert quotient_signatures(action._replace()) == expected
    graph = action.graph
    genus = arithmetic_genus(graph)
    rebuilt = build_graph(graph.genera, graph.half_edge_vertex, graph.edges, graph.marks)
    assert arithmetic_genus(graph) == genus == arithmetic_genus(rebuilt)


def test_kept_facts_equal_fresh_computations():
    rng = random.Random(67)
    steps = pairs = 0
    for group in randgen.catalog():
        actions = []
        for _ in range(2):
            actions += [randgen.random_action(group, rng), randgen.random_free_action(group, rng)]
        for action in actions:
            # the chain smoothing_chain takes, each child made from a parent
            # whose facts are already kept
            current = action
            while True:
                assert_kept_facts_sound(current)
                smoothable = [o for o, why in smoothable_edge_orbits(current) if why is None]
                if not smoothable:
                    break
                current = smooth_node_orbit(current, smoothable[0].representative)
                assert not KEPT_ON_ACTION & vars(current).keys()
                assert "arithmetic_genus" not in vars(current.graph)
                steps += 1
        for f1 in actions:
            for f2 in actions:
                surface = build_surface(f1, f2)
                fresh = build_surface(f1._replace(), f2._replace())
                for check in (check_free_action, check_free_codim1):
                    first = check(surface)
                    assert check(surface) == first == check(fresh)
                assert {"free_action", "free_codim1"} <= vars(surface).keys()
                pairs += 1
    assert steps > 10 and pairs == 7 * 16


def relabeled_inputs(group, graph, args, rng):
    """The same action with vertices, half-edges and edges renumbered by
    random permutations and the group conjugated by a random permutation of
    its letters.  Returns the new group, graph and inputs, and the maps of
    elements, half-edges and edges (old index -> new index)."""
    pi = tuple(rng.sample(range(group.degree), group.degree))

    def conj(p):
        return compose(compose(pi, p), invert(pi))

    new_group = FiniteGroup.from_generators([conj(s) for s in group.generators], group.degree)
    phi = [new_group.index_of(conj(p)) for p in group.elements]
    sv, sh, se = (
        rng.sample(range(n), n) for n in (graph.n_vertices, graph.n_half_edges, graph.n_edges)
    )
    genera, hev, edges = [0] * len(sv), [0] * len(sh), [None] * len(se)
    for v, g in enumerate(graph.genera):
        genera[sv[v]] = g
    for h, v in enumerate(graph.half_edge_vertex):
        hev[sh[h]] = sv[v]
    for n, (p, q) in enumerate(graph.edges):
        edges[se[n]] = (sh[q], sh[p]) if rng.random() < 0.5 else (sh[p], sh[q])
    new_graph = build_graph(
        genera, hev, edges, [sv[v] for v in graph.marks], allow_disconnected=True
    )

    def moved(images, s):
        out = []
        for image in images:
            row = [0] * len(image)
            for x, y in enumerate(image):
                row[s[x]] = s[y]
            out.append(tuple(row))
        return out

    kw = args["kwargs"]
    new_kw = {
        "tangent_chars": {(phi[g], sh[h]): c for (g, h), c in kw.get("tangent_chars", {}).items()},
        "smoothing_chars": {
            (phi[g], se[n]): c for (g, n), c in kw.get("smoothing_chars", {}).items()
        },
        "kernels": {sv[v]: [phi[k] for k in ks] for v, ks in kw.get("kernels", {}).items()},
        "ramification_orbits": [
            RamificationOrbit(sv[o.vertex], phi[o.element], o.char, o.order)
            for o in kw.get("ramification_orbits", ())
        ],
    }
    vertex_images, half_edge_images = args["images"]
    new_args = {
        "images": (moved(vertex_images, sv), moved(half_edge_images, sh)),
        "kwargs": new_kw,
    }
    return new_group, new_graph, new_args, (phi, sh, se)


def signature_multiset(action):
    return sorted((s.g_prime, s.b, s.contribution) for s in quotient_signatures(action))


def relabeling_invariants(action):
    """What relabeling must not change: T1 and the oracle, the quotient
    signatures, the smoothing chain's T1 totals, length, last T1 and
    obstruction count, and the self-pair freeness and certificate verdicts
    (an error counts by its type)."""

    def value(f, *args):
        try:
            return f(*args)
        except IsoprodError as exc:
            return type(exc)

    def self_pair(action):
        surface = build_surface(action, action)
        certificate = certify_degeneration(surface)
        return (
            check_free_action(surface).passed,
            check_free_codim1(surface).passed,
            certificate.passed,
            [(c.key, c.passed) for c in certificate.conditions],
        )

    chain = smoothing_chain(action)
    return (
        value(t1_equivariant, action),
        value(t1_equivariant_oracle, action),
        value(signature_multiset, action),
        [value(lambda a: t1_equivariant(a).total, s.action) for s in chain.strata],
        value(t1_equivariant, chain.strata[-1].action),
        len(chain.obstructions),
        value(self_pair, action),
    )


def test_relabeling_and_conjugating_the_group_change_nothing():
    # ROADMAP item 8: renumbered vertices, half-edges and edges and a group
    # conjugated by a permutation of letters give the same invariants, and
    # the character tables map onto each other entry by entry; the new
    # representatives are reached by other transporters, so the tables are
    # read through non-identity conjugations
    rng = random.Random(808)
    inputs = []
    for i, group in enumerate(randgen.catalog()):
        inputs += [(group, g, a) for g, a in captured_inputs(group, 800 + i, 4)]
    for group in (s4(), a5()):
        inputs += [(group, g, a) for g, a in captured_inputs(group, 890 + group.order, 1)]
        v4 = group.subgroup_closure(
            [element(group, c) for c in ([[0, 1], [2, 3]], [[0, 2], [1, 3]])]
        )
        stab = group.subgroup_closure(sorted(v4) + [element(group, [[0, 1, 2]])])
        inputs.append((group, *kernel_action_inputs(group, stab, v4)))
        two = build_graph([2, 3], [0, 1, 0, 1], [(0, 1), (2, 3)])
        ngens = len(group.generators)
        inert = {
            "images": ([(0, 1)] * ngens, [(0, 1, 2, 3)] * ngens),
            "kwargs": {"kernels": {0: range(group.order), 1: range(group.order)}},
        }
        inputs.append((group, two, inert))
    moved_reads = 0
    for group, graph, args in inputs:
        action = validate_action(group, graph, *args["images"], **args["kwargs"])
        expected = relabeling_invariants(action)
        for _ in range(2):
            new_group, new_graph, new_args, (phi, sh, se) = relabeled_inputs(
                group, graph, args, rng
            )
            new = validate_action(new_group, new_graph, *new_args["images"], **new_args["kwargs"])
            assert relabeling_invariants(new) == expected
            for old_table, new_table, move in (
                (action.tangent_chars, new.tangent_chars, sh),
                (action.smoothing_chars, new.smoothing_chars, se),
            ):
                mapped = {(phi[g], move[x]): c for (g, x), c in old_table.items()}
                assert dict(new_table.items()) == mapped
                moved_reads += sum(
                    len(o.stabilizer)
                    for o, trivial in zip(new_table.orbits, new_table.trivial)
                    if not trivial
                    for x in o.members
                    if new_table.transporters[x]
                )
    assert moved_reads > 50


def test_forced_values_conflict_with_a_supplied_value():
    # a supplied value on an element the kernel (or both branches' tangent
    # characters) already fixes must conflict, named as before: at the
    # representative the forced value comes first, from the representative
    # itself; a value at another member names its transporter.  Element
    # numbers are S4's table indices: 16 = (2 3), 5 = (0 2)(1 3), carried by
    # element 4 from half-edge 4 to 15 at the representative half-edge 0
    group = s4()
    ngens = len(group.generators)
    t = element(group, [[2, 3]])
    k = element(group, [[0, 2], [1, 3]])
    assert (t, k) == (16, 5)
    inert = (build_graph([2], [0, 0], [(0, 1)]), [(0,)] * ngens, [(0, 1)] * ngens)
    v4 = group.subgroup_closure([k, element(group, [[0, 1], [2, 3]])])
    graph, args = kernel_action_inputs(group, frozenset(range(group.order)), v4)
    kernel_inputs = (graph, *args["images"])
    cases = [
        (inert, {0: range(24)}, "tangent_chars", (t, 1), "tangent character at (element 16, "
         "half-edge 1): value of element 16 at half-edge 1 gives 1/2, value of element 16 "
         "at half-edge 1 gives 0"),
        (inert, {0: range(24)}, "smoothing_chars", (t, 0), "smoothing character at (element "
         "16, edge 0): value of element 16 at edge 0 gives 1/2, value of element 16 at edge "
         "0 gives 0"),
        (kernel_inputs, args["kwargs"]["kernels"], "tangent_chars", (k, 4), "tangent "
         "character at (element 15, half-edge 0): value of element 5 at half-edge 4 "
         "transported by element 4 gives 1/2, value of element 15 at half-edge 0 gives 0"),
        (kernel_inputs, args["kwargs"]["kernels"], "smoothing_chars", (k, 4), "smoothing "
         "character at (element 15, edge 0): value of element 5 at edge 4 transported by "
         "element 4 gives 1/2, value of element 15 at edge 0 gives 0"),
    ]
    for (graph, vertex_images, half_edge_images), kernels, kind, key, message in cases:
        with pytest.raises(CharacterError) as err:
            validate_action(
                group, graph, vertex_images, half_edge_images,
                kernels=kernels, **{kind: {key: Fraction(1, 2)}},
            )
        assert str(err.value) == f"inconsistent {message}"
        # the zero the same data forces is accepted
        validate_action(
            group, graph, vertex_images, half_edge_images, kernels=kernels, **{kind: {key: 0}}
        )


def walked_extension(group, images, n):
    """``extend_action`` as first shipped: every (element, generator) product
    composed and compared by value, identity images included."""
    table = [tuple(range(n))] + [None] * (group.order - 1)
    for i, row in enumerate(group.right):
        for k, prod in enumerate(row):
            image = compose(table[i], images[k])
            if table[prod] is None:
                table[prod] = image
            elif table[prod] != image:
                raise GroupError(
                    "generator images do not extend to a group homomorphism "
                    f"(relation fails at element {i}, generator {k})"
                )
    return tuple(table)


def extension_outcome(extend, group, images, n):
    try:
        return extend(group, images, n)
    except GroupError as exc:
        return str(exc)


def test_identity_images_fail_relations_where_the_full_walk_does():
    # one generator acting as the identity: the walk skips its composes,
    # but names the same first failing (element, generator) product
    s3 = FiniteGroup.from_generators(
        [perm_from_cycles([[0, 1]], 3), perm_from_cycles([[0, 1, 2]], 3)], 3
    )
    v4 = randgen.catalog()[4]
    ident, cycle = (0, 1, 2), perm_from_cycles([[0, 1, 2]], 3)
    targets = [perm_from_cycles(c, 3) for c in ([], [[0, 1]], [[1, 2]], [[0, 1, 2]], [[0, 2, 1]])]
    cases = [(s3, [ident, cycle]), (v4, [ident, cycle]), (v4, [cycle, ident])]
    for group in (s3, v4, s4(), a5()):
        for k in range(2):
            for p in targets:
                images = [p, p]
                images[k] = ident
                cases.append((group, images))
    failed = set()
    for group, images in cases:
        expected = extension_outcome(walked_extension, group, images, 3)
        got = extension_outcome(FiniteGroup.extend_action, group, images, 3)
        assert got == expected
        if isinstance(got, str):
            failed.add(group.order)
    assert failed == {4, 6, 24, 60}
    assert extension_outcome(FiniteGroup.extend_action, s3, [ident, cycle], 3) == (
        "generator images do not extend to a group homomorphism "
        "(relation fails at element 3, generator 0)"
    )


def in_index_order(group):
    """The group with its generators listed in element-index order; the
    element table is unchanged."""
    return FiniteGroup.from_generators(sorted(group.generators), group.degree)


def kernel_mutations(group, graph, action):
    """Kernel lists that may break the action at vertex v: v's kernel also
    generated by an element moving v, or by one fixing v outside its kernel
    (it moves a branch there); v's kernel dropped; every kernel shrunk to the
    cyclic group of its least nonidentity element."""
    kernels = {v: sorted(k) for v, k in enumerate(action.kernels)}
    for v, kernel in kernels.items():
        moves = [g for g in range(group.order) if action.vertex_perms[g][v] != v]
        fixes = [
            g for g in range(group.order)
            if action.vertex_perms[g][v] == v and g not in action.kernels[v]
        ]
        for extra in (moves[:1] + fixes[:1]):
            yield {**kernels, v: kernel + [extra]}
        if len(kernel) > 1 and graph.n_vertices > 1:
            yield {**kernels, v: []}
    if graph.n_vertices > 1:
        yield {v: k[1:2] for v, k in kernels.items()}


def scans_alike(group, seeds):
    """Whether the library's and the seed's closures of ``seeds`` iterate in
    the same order, the order both scan a kernel in for an offender."""
    return list(group.subgroup_closure(seeds)) == list(
        reference_seed.subgroup_closure(group, seeds)
    )


def test_kernel_messages_match_seed():
    # both validations raise the same ActionError text.  The seed scans
    # every element in index order for equivariance and the library only
    # the generators, in their listed order, so the groups list theirs in
    # index order.  Both name the first kernel element, in their closure
    # set's order, that moves the vertex or a branch; where the two sets
    # iterate differently, the library's must still name a true offender
    # at the same vertex
    kinds = set()
    for group in map(in_index_order, randgen.catalog()[1:] + [s4(), a5()]):
        assert list(group.generator_indices) == sorted(group.generator_indices)
        subs = randgen.all_subgroups(group)
        pairs = [
            (stab, kernel)
            for stab in subs
            for kernel in subs
            if 1 < len(kernel) and kernel <= stab
            and all(set(group.conjugates(g, kernel)) == kernel for g in stab)
            and group.order // len(stab) <= 5 and len(stab) // len(kernel) <= 3
        ]
        for stab, kernel in pairs[:4]:
            graph, args = kernel_action_inputs(group, stab, kernel)
            action = assert_same(group, graph, args)
            for kernels in kernel_mutations(group, graph, action):
                messages = []
                for validate in (validate_action, reference_seed.validate_action):
                    try:
                        validate(group, graph, *args["images"], kernels=kernels)
                        messages.append(None)
                    except IsoprodError as exc:
                        messages.append(f"{type(exc).__name__}: {exc}")
                new, ref = messages
                offender = re.fullmatch(
                    r"ActionError: kernel element (\d+) of vertex (\d+) moves "
                    r"(the vertex|half-edge (\d+))",
                    new or "",
                )
                if new is not None and new.startswith("ActionError"):
                    kinds.add((group.order, new.startswith("ActionError: kernels not")))
                if offender is None or scans_alike(group, kernels[int(offender[2])]):
                    assert new == ref
                    continue
                k, v = int(offender[1]), int(offender[2])
                assert ref.startswith("ActionError: kernel element ")
                assert f" of vertex {v} " in ref
                assert k in group.subgroup_closure(kernels[v])
                if offender[4] is None:
                    assert action.vertex_perms[k][v] != v
                else:
                    h = int(offender[4])
                    assert action.half_edge_perms[k][h] != h
    assert {equivariance for _, equivariance in kinds} == {False, True}
    assert {order for order, _ in kinds} == {4, 6, 24, 60}
