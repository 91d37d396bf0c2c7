"""Scaling regressions: validation and the queries built on it stay linear in
|G| * (|V| + |H| + |E|) group products.  The budgets are generous (tens of
times the expected time); they catch a return to quadratic or cubic work,
not small slowdowns.  Repeated work across queries is pinned by counting
computations, which, unlike a time, does not depend on the host."""

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from randgen import catalog, random_action
from test_acceptance import criterion

import isoprod
import isoprod.actions
import isoprod.curves
import isoprod.families
import isoprod.groups
import isoprod.surfaces
from isoprod.actions import (
    inert_action,
    t1_equivariant,
    t1_equivariant_oracle,
    trivial_action,
    validate_action,
)
from isoprod.curves import arithmetic_genus, build_graph, t1_dimension
from isoprod.groups import (
    CharacterTable,
    FiniteGroup,
    invariant_dimension_trace,
    perm_from_cycles,
)
from isoprod.errors import GraphError, SurfaceError
from isoprod.families import check_constancy, smoothing_chain
from isoprod.surfaces import (
    build_surface,
    certify_degeneration,
    check_free_action,
    check_free_codim1,
    fixed_point_profile,
    kuranishi_dimension,
)


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


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls per first
    argument (by identity); returns the counter."""
    calls = Counter()
    original = getattr(module, name)

    def counted(first, *args):
        calls[id(first)] += 1
        return original(first, *args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_kept_fact_is_computed_once_per_object(
    monkeypatch, z2, paper_action, kernel_component_action
):
    # fresh copies: the session fixtures may already keep their facts
    actions = [a._replace() for a in (kernel_component_action, paper_action)]
    # with this seed every random action has a fixed point, so the kernel
    # action (which fixes a component) is in no pair free in codimension 1
    rng = random.Random(72)
    actions += [random_action(z2, rng) for _ in range(4)]
    t1_runs = counting(monkeypatch, isoprod.actions, "_check_t1_preconditions")
    freeness_runs = counting(monkeypatch, isoprod.surfaces, "_first_witness")
    genus_runs = counting(monkeypatch, isoprod.curves, "_require_connected")
    in_codim1_free_pair = set()
    for a in actions:
        for b in actions:
            surface = build_surface(a, b)
            certify_degeneration(surface)
            try:
                kuranishi_dimension(surface)
            except SurfaceError:
                continue
            in_codim1_free_pair.update((id(a), id(b)))
    assert t1_runs == Counter(dict.fromkeys(in_codim1_free_pair, 1))
    assert id(actions[0]) not in t1_runs and len(t1_runs) == 5
    assert sum(freeness_runs.values()) == len(actions) ** 2  # codim 1 only, once each
    assert max(genus_runs.values()) == 1

    # the oracle keeps nothing: each call runs both Burnside traces again
    trace_runs = counting(monkeypatch, isoprod.actions, "invariant_dimension_trace")
    assert t1_equivariant_oracle(actions[1]) == t1_equivariant_oracle(actions[1])
    tables = (actions[1].smoothing_chars, actions[1].tangent_chars)
    assert trace_runs == {id(table): 2 for table in tables}


def test_a_kept_fact_is_computed_once_and_a_raising_one_on_every_read(monkeypatch):
    checks = counting(monkeypatch, isoprod.curves, "_require_connected")
    connected = build_graph([2], [0, 0], [(0, 1)])
    apart = build_graph([2, 2], [], [], allow_disconnected=True)
    for _ in range(3):
        assert arithmetic_genus(connected) == 3
        with pytest.raises(GraphError, match="connected"):
            arithmetic_genus(apart)
    assert checks == {id(connected): 1, id(apart): 3}
    assert vars(connected)["arithmetic_genus"] == 3 and "arithmetic_genus" not in vars(apart)


def test_a_repeated_pair_formats_no_cycles_and_builds_at_most_two_records(
    monkeypatch, paper_action, kernel_component_action, smooth_fiber_action
):
    # a pair's queries are set operations: the witness's cycle notation is
    # kept per group element, and a certificate builds only its genera's
    # record and, when freeness in codimension 1 fails, its witness's
    rng = random.Random(3)
    families = []
    for actions in (
        (paper_action, kernel_component_action, smooth_fiber_action),
        [random_action(catalog()[6], rng) for _ in range(4)],  # S3
    ):
        fresh = actions[0].group._replace()  # a copy with no element's cycles kept
        families.append([a._replace(group=fresh) for a in actions])
    formats = counting(monkeypatch, isoprod.groups, "format_perm")
    built = counting(monkeypatch, isoprod.surfaces, "CertificateCondition")
    witnesses, verdicts = set(), set()
    for _ in range(2):
        for actions in families:
            for a in actions:
                for b in actions:
                    surface = build_surface(a, b)
                    before = sum(built.values())
                    certify_degeneration(surface)
                    checks = (check_free_action(surface), check_free_codim1(surface))
                    assert sum(built.values()) - before == 1 + (not checks[1].passed)
                    verdicts.add(tuple(c.passed for c in checks))
                    witnesses |= {(id(a.group), c.witness) for c in checks if not c.passed}
        # one string per witness element, none when the pairs come again
        assert sum(formats.values()) == len(witnesses)
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_inert_s7_on_ten_component_cycle():
    # a cap-sized group on more than one component: every half-edge and
    # edge orbit is a fixed point with stabilizer S7, so each table holds
    # 5040 * |orbits| entries but one stored column
    n = 10
    s7 = FiniteGroup.from_generators(
        [perm_from_cycles([list(range(7))], 7), perm_from_cycles([[0, 1]], 7)], 7
    )
    graph = build_graph(
        [2] * n,
        list(range(n)) + [(i + 1) % n for i in range(n)],
        [(i, n + i) for i in range(n)],
    )
    with criterion(
        108, "inert S7 (|G| = 5040) on a 10-component cycle: validate, T1, oracle", budget=5.0
    ):
        action = inert_action(s7, graph)
        t1 = t1_equivariant(action)
        assert t1 == t1_equivariant_oracle(action)
        assert t1.total == 3 * arithmetic_genus(graph) - 3


def cycle_graph(n: int):
    """An n-cycle of genus-2 components: edge i joins half-edge i at vertex
    i to half-edge n + i at vertex i + 1."""
    return build_graph(
        [2] * n, list(range(n)) + [(i + 1) % n for i in range(n)], [(i, n + i) for i in range(n)]
    )


def test_inert_s7_on_160_component_cycle():
    # every table is one identity tuple repeated 5040 times: orbits read that
    # row once per object, and the group closes its generators once
    s7 = symmetric_group(7)
    graph = cycle_graph(160)
    with criterion(
        109, "inert S7 (|G| = 5040) on a 160-component cycle: validate, T1, oracle", budget=5.0
    ):
        action = inert_action(s7, graph)
        t1 = t1_equivariant(action)
        assert t1 == t1_equivariant_oracle(action)
        assert t1.total == 3 * arithmetic_genus(graph) - 3


def test_inert_orbits_read_no_column_and_keep_one_stabilizer_per_kind(monkeypatch):
    # inert S7 on a 160-component cycle: no orbits call, in validation or
    # in the oracle's per-vertex calls over a stabilizer's rows, reads a
    # |G|-long column; each kind of orbit keeps one stabilizer tuple
    s7 = symmetric_group(7)
    columns = counting(monkeypatch, isoprod.groups, "column")  # as orbits calls it
    calls = counting(monkeypatch, isoprod.actions, "orbits")
    action = inert_action(s7, cycle_graph(160))
    assert t1_equivariant_oracle(action) == t1_equivariant(action)
    monkeypatch.undo()
    assert sum(calls.values()) == 3 + 1 + 160
    assert sum(columns.values()) == 0
    for kind in (action.vertex_orbits, action.half_edge_orbits, action.edge_orbits):
        assert len({id(o.stabilizer) for o in kind}) == 1
        assert kind[0].stabilizer == tuple(range(s7.order))


def test_inert_actions_close_the_group_once(monkeypatch):
    # every kernel is seeded by the group's generators: the first inert
    # action walks their closure, later ones read the one the group keeps
    graph = cycle_graph(3)
    for group in (symmetric_group(5), symmetric_group(7)):
        walks = counting(monkeypatch, isoprod.groups.FiniteGroup, "products")
        first = inert_action(group, graph)
        assert walks
        walks.clear()
        assert inert_action(group, graph).kernels == first.kernels
        monkeypatch.undo()
        assert not walks


def symmetric_group(n: int) -> FiniteGroup:
    return FiniteGroup.from_generators(
        [perm_from_cycles([list(range(n))], n), perm_from_cycles([[0, 1]], n)], n
    )


def test_equal_stabilizers_are_one_tuple():
    # inert S4 on a 10-component cycle: every orbit of each kind is fixed by
    # the whole group, and one orbits() call keeps one stabilizer tuple
    n = 10
    graph = build_graph(
        [2] * n, list(range(n)) + [(i + 1) % n for i in range(n)], [(i, n + i) for i in range(n)]
    )
    action = inert_action(symmetric_group(4), graph)
    for kind, count in (
        (action.vertex_orbits, n), (action.half_edge_orbits, 2 * n), (action.edge_orbits, n)
    ):
        assert len(kind) == count
        assert len({id(o.stabilizer) for o in kind}) == 1
        assert kind[0].stabilizer == tuple(range(24))


def test_oracle_reads_a_whole_group_stabilizer_through_the_table(monkeypatch):
    # inert S4 on a 10-component cycle: each vertex's stabilizer is the
    # whole group, so its branch suborbits read the half-edge table itself,
    # not a |G|-long list of its rows
    action = inert_action(symmetric_group(4), cycle_graph(10))
    calls = counting(monkeypatch, isoprod.actions, "orbits")
    assert t1_equivariant_oracle(action) == t1_equivariant(action)
    monkeypatch.undo()
    assert calls == {id(action.vertex_perms): 1, id(action.half_edge_perms): 10}


def test_character_storage_does_not_grow_with_the_group(monkeypatch):
    # inert actions store one zero column per table whatever |G| is, build
    # no Fraction, and the oracle reads them without hashing a Fraction
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    graph = build_graph([2], [0, 0], [(0, 1)])
    storage = []
    for n in (4, 5, 6):
        group = symmetric_group(n)
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
        action = inert_action(group, graph)
        monkeypatch.undo()
        tables = (action.tangent_chars, action.smoothing_chars)
        assert [len(t) for t in tables] == [2 * group.order, group.order]
        columns = {id(c) for t in tables for c in t.columns}
        storage.append((len(built), len(columns)))
        built.clear()
    assert storage[0] == storage[1] == storage[2]

    hashed = []
    fraction_hash = Fraction.__hash__

    def counted_hash(self):
        hashed.append(self)
        return fraction_hash(self)

    action = inert_action(symmetric_group(5), graph)
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    assert t1_equivariant_oracle(action).total == 3 * 3 - 3
    monkeypatch.undo()
    assert hashed == []


def inert_cap_sized_cases():
    """Z101 x Z99 (|G| = 9999) on a one-node curve and S7 on a 10-component
    cycle, as groups with the graphs they act on inertly."""
    z101_z99 = FiniteGroup.from_generators(
        [
            perm_from_cycles([list(range(101))], 200),
            perm_from_cycles([list(range(101, 200))], 200),
        ],
        200,
    )
    n = 10
    cycle = build_graph(
        [2] * n, list(range(n)) + [(i + 1) % n for i in range(n)], [(i, n + i) for i in range(n)]
    )
    one_node = build_graph([2], [0, 0], [(0, 1)])
    return [(z101_z99, one_node), (symmetric_group(7), cycle)]


def test_inert_actions_compose_no_permutation(monkeypatch):
    # every generator acts as the identity, so extend_action walks nothing:
    # each table is one identity tuple whatever |G| is
    for group, graph in inert_cap_sized_cases():
        composed = counting(monkeypatch, isoprod.groups, "compose")
        action = inert_action(group, graph)
        monkeypatch.undo()
        assert sum(composed.values()) == 0
        for table in (action.vertex_perms, action.half_edge_perms, action.edge_perms):
            assert len(table) == group.order
            assert len({id(p) for p in table}) == 1


def test_inert_traces_build_no_cyclic_table(monkeypatch):
    # an inert table is one run of a shared tuple, so the oracle never asks
    # which elements generate the same cyclic subgroup
    for group, graph in inert_cap_sized_cases():
        action = inert_action(group, graph)
        built = counting(monkeypatch, isoprod.groups.FiniteGroup, "cyclic_subgroup_classes")
        assert t1_equivariant_oracle(action) == t1_equivariant(action)
        monkeypatch.undo()
        assert not built and group._subgroup_classes is None


def counted_rows(perms):
    """A copy of the table ``perms`` whose rows record their own ids in the
    returned set when compared or iterated (scanned)."""
    scanned = set()

    class Row(tuple):
        __hash__ = tuple.__hash__

        def __eq__(self, other):
            scanned.add(id(self))
            return tuple.__eq__(self, other)

        def __iter__(self):
            scanned.add(id(self))
            return tuple.__iter__(self)

    return [Row(p) for p in perms], scanned


def assert_trace_scans_at_most(action, most):
    """Each character table's Burnside trace, read over counted rows, agrees
    with the plain trace and scans 1..most rows."""
    group = action.group
    for table in (action.tangent_chars, action.smoothing_chars):
        expected = invariant_dimension_trace(table)
        rows, scanned = counted_rows(table.perms)
        own = CharacterTable(
            group, rows, table.orbits, table.columns, table.modulus, table.transporters
        )
        assert invariant_dimension_trace(own) == expected
        assert 1 <= len(scanned) <= most


def test_free_necklace_trace_scans_one_row_per_cyclic_subgroup():
    # Z_200 acts freely on the half-edges and edges of a 200-necklace, each
    # element with its own row: a row is compared with the identity once per
    # cyclic subgroup, d(200) = 12 rows per table, not once per element
    group, graph, vertex_images, half_edge_images = necklace(200)
    assert_trace_scans_at_most(validate_action(group, graph, vertex_images, half_edge_images), 12)


def test_fixed_point_profile_shares_its_records():
    # four possible answers, so at most four record objects for 119 elements
    graph = build_graph([2], [0, 0], [(0, 1)])
    profile = fixed_point_profile(inert_action(symmetric_group(5), graph))
    assert len(profile) == 119
    assert all(p.has_fixed_point and p.fixes_component for p in profile.values())
    assert len({id(p) for p in profile.values()}) <= 4


def test_oracle_reads_no_table_entry_by_key(monkeypatch):
    # inert S7 on a 10-component cycle: every element shares one identity
    # tuple and both tables hold one zero column, so the oracle counts fixed
    # points per run and reads no (element, object) key (151,200 reads when
    # it looked up each fixed pair)
    n = 10
    graph = build_graph(
        [2] * n, list(range(n)) + [(i + 1) % n for i in range(n)], [(i, n + i) for i in range(n)]
    )
    action = inert_action(symmetric_group(7), graph)
    reads = counting(monkeypatch, isoprod.groups.CharacterTable, "__getitem__")
    assert t1_equivariant_oracle(action) == t1_equivariant(action)
    assert sum(reads.values()) == 0


def test_smoothing_builds_no_half_edge_or_edge_row(monkeypatch):
    # Z_n turning n genus-0 components joined to their next and their
    # next-but-one neighbour: two free edge orbits, smoothed in two steps.
    # Free local models and the constancy check read no permutation of a
    # child, and the child's vertex orbits read columns, so no row of any
    # child table is built.  Edge e = k * n + i (k = 0, 1) joins
    # half-edge 2e at component i to half-edge 2e + 1 at component i + k + 1
    n = 12
    group = FiniteGroup.from_generators([perm_from_cycles([list(range(n))], n)], n)
    half_edge_vertex = []
    for k in (1, 2):
        for i in range(n):
            half_edge_vertex += [i, (i + k) % n]
    graph = build_graph([0] * n, half_edge_vertex, [(2 * e, 2 * e + 1) for e in range(2 * n)])

    def turned(e):
        return e - e % n + (e + 1) % n

    shift = [tuple((i + 1) % n for i in range(n))]
    turn = [tuple(2 * turned(h // 2) + h % 2 for h in range(4 * n))]
    action = validate_action(group, graph, shift, turn)
    # a table builds each row in _row
    built = counting(monkeypatch, isoprod.groups.RestrictedTable, "_row")
    chain = smoothing_chain(action)
    report = check_constancy(chain.strata)
    assert len(chain.strata) == 3 and report.verdict == "constant"
    children = [s.action for s in chain.strata[1:]]
    unread = {
        id(t) for c in children for t in (c.vertex_perms, c.half_edge_perms, c.edge_perms)
    }
    assert not built.keys() & unread


def test_deep_stratum_row_is_one_gather(monkeypatch):
    # the trivial group on a 200-cycle smooths one edge per step; a row of
    # a stratum 199 restrictions deep is one gather from the validated
    # action's row, built alone and with no recursion through its ancestors
    n = 200
    graph = build_graph(
        [2] * n, list(range(n)) + [(i + 1) % n for i in range(n)], [(i, n + i) for i in range(n)]
    )
    chain = smoothing_chain(trivial_action(graph))
    assert len(chain.strata) == n + 1
    built = counting(monkeypatch, isoprod.groups.RestrictedTable, "_row")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        loop = chain.strata[-2].action
        assert loop.half_edge_perms[0] == (0, 1)
        assert sum(built.values()) == 1
        assert chain.strata[-1].action.edge_perms[-1] == ()
        assert sum(built.values()) == 2
    finally:
        sys.setrecursionlimit(limit)


def test_necklace_validation_walks_only_the_half_edge_table(monkeypatch):
    # the vertex and edge tables are read off the half-edge table: every
    # half-edge row is built by the walk, and of the two views at most the
    # generators' rows, for the kernel and equivariance checks
    group, graph, vertex_images, half_edge_images = necklace(60)
    built = counting(monkeypatch, isoprod.groups.RestrictedTable, "_row")
    action = validate_action(group, graph, vertex_images, half_edge_images)
    monkeypatch.undo()
    assert type(action.half_edge_perms) is tuple
    assert len(set(action.half_edge_perms)) == group.order
    views = (action.vertex_perms, action.edge_perms)
    assert all(isinstance(t, isoprod.groups.RestrictedTable) for t in views)
    for table in views:
        assert built[id(table)] <= len(group.generators)


def test_necklace_smoothing_builds_no_row_of_a_child(monkeypatch):
    group, graph, vertex_images, half_edge_images = necklace(60)
    action = validate_action(group, graph, vertex_images, half_edge_images)
    built = counting(monkeypatch, isoprod.groups.RestrictedTable, "_row")
    chain = smoothing_chain(action)
    assert check_constancy(chain.strata).verdict == "constant"
    monkeypatch.undo()
    assert len(chain.strata) == 2
    child = chain.strata[1].action
    tables = {id(t) for t in (child.vertex_perms, child.half_edge_perms, child.edge_perms)}
    assert not built.keys() & tables


def test_smoothing_steps_compute_no_orbits_and_no_components(monkeypatch):
    # a step merges the parent's vertex orbits along the smoothed edge orbit
    # and finds the merge classes by union-find over its edges: no orbit
    # walk and no walk of the whole graph, on seeded catalog actions, the
    # free necklaces n = 1..8 and the free S4 and A5 Cayley actions
    from test_seed_differential import a5, cayley_inputs, s4

    rng = random.Random(30)
    actions = [random_action(rng.choice(catalog()), rng) for _ in range(100)]
    for n in range(1, 9):
        group, graph, vertex_images, half_edge_images = necklace(n)
        actions.append(validate_action(group, graph, vertex_images, half_edge_images))
    for group in (s4(), a5()):
        graph, args = cayley_inputs(group)
        actions.append(validate_action(group, graph, *args["images"]))
    # every module's own name for the orbit walk
    calls = [
        counting(monkeypatch, module, "orbits")
        for module in (isoprod.groups, isoprod.actions, isoprod.families)
        if hasattr(module, "orbits")
    ]
    calls.append(counting(monkeypatch, isoprod.curves, "_components"))
    steps = sum(len(smoothing_chain(action).strata) - 1 for action in actions)
    assert steps > 100
    assert not any(calls)


def test_a_chain_classifies_each_tried_orbit_once(monkeypatch):
    # the chain smooths through smooth_node_orbit, which classifies the
    # orbit itself: one local-model call per step on the free necklaces
    # (the chain classified each smoothed orbit, and then the step again)
    models = counting(monkeypatch, isoprod.families, "_local_model")
    for n in (1, 2, 5, 12):
        models.clear()
        chain = smoothing_chain(validate_action(*necklace(n)))
        assert len(chain.strata) == 2 and chain.obstructions == ()
        assert sum(models.values()) == 1


def test_an_unread_child_view_is_never_composed():
    # a view over a view keeps its parent until first read: the chain and
    # its constancy check read no table of the last child of a two-step Z_12
    # chain nor of a necklace's child, so none of them is composed
    # the graph of test_smoothing_builds_no_half_edge_or_edge_row: Z_12 turning
    # 12 genus-0 components, each joined to its next and next-but-one neighbour
    n = 12
    group = FiniteGroup.from_generators([perm_from_cycles([list(range(n))], n)], n)
    graph = build_graph(
        [0] * n, [v for k in (1, 2) for i in range(n) for v in (i, (i + k) % n)],
        [(2 * e, 2 * e + 1) for e in range(2 * n)],
    )
    turn = [tuple(2 * (h // 2 - h // 2 % n + (h // 2 + 1) % n) + h % 2 for h in range(4 * n))]
    shift = [tuple((i + 1) % n for i in range(n))]
    chains = [smoothing_chain(validate_action(group, graph, shift, turn))]
    chains.append(smoothing_chain(validate_action(*necklace(60))))
    assert [len(chain.strata) for chain in chains] == [3, 2]
    for chain in chains:
        assert check_constancy(chain.strata).verdict == "constant"
        parent, last = (s.action for s in chain.strata[-2:])
        for name in ("vertex_perms", "half_edge_perms", "edge_perms"):
            table, view = getattr(parent, name), getattr(last, name)._view
            assert view[0] is table  # pending on its parent, or a view of the root


def test_trivial_200_cycle_chain_and_constancy():
    # one edge per step over 200 steps, each stratum's T1 from scratch:
    # quadratic in all, with a small constant per step; the budget catches a
    # return to cubic work, such as composing every ancestor's map per step
    n = 200
    graph = build_graph(
        [2] * n, list(range(n)) + [(i + 1) % n for i in range(n)], [(i, n + i) for i in range(n)]
    )
    action = trivial_action(graph)
    with criterion(106, "trivial 200-cycle: smoothing chain and constancy", budget=5.0):
        chain = smoothing_chain(action)
        report = check_constancy(chain.strata)
    assert len(chain.strata) == n + 1
    assert report.verdict == "constant" and report.constant_value == 3 * (2 * n + 1) - 3


def test_a_step_builds_no_orbit_record_and_no_lookup_dict(monkeypatch):
    # a step composes the parent's orbit tables with its renumberings: the
    # chain and its constancy check build no Orbit record, under any module
    # name that binds one, and no child table builds its orbit_at or
    # transporters dict, on the trivial 200-cycle, seeded catalog actions
    # and the free necklaces n = 1..8
    n = 200
    graph = build_graph(
        [2] * n, list(range(n)) + [(i + 1) % n for i in range(n)], [(i, n + i) for i in range(n)]
    )
    rng = random.Random(34)
    actions = [trivial_action(graph)]
    actions += [random_action(rng.choice(catalog()), rng) for _ in range(40)]
    actions += [validate_action(*necklace(k)) for k in range(1, 9)]
    records = [
        counting(monkeypatch, module, "Orbit")
        for module in (isoprod, isoprod.groups, isoprod.actions, isoprod.families)
        if hasattr(module, "Orbit")
    ]
    steps = 0
    for action in actions:
        chain = smoothing_chain(action)
        if len(chain.strata) > 1:
            assert check_constancy(chain.strata).verdict == "constant"
        for stratum in chain.strata[1:]:
            steps += 1
            for table in (stratum.action.tangent_chars, stratum.action.smoothing_chars):
                assert not {"orbit_at", "transporters"} & vars(table).keys()
    assert steps > n + 40
    assert not any(records)


def test_trace_reads_one_edge_row_per_cyclic_subgroup_through_the_view(monkeypatch):
    # the edge table of a free Z_200 necklace is a view of the half-edge
    # table; the Burnside trace gathers at most d(200) = 12 of its rows
    group, graph, vertex_images, half_edge_images = necklace(200)
    action = validate_action(group, graph, vertex_images, half_edge_images)
    assert isinstance(action.edge_perms, isoprod.groups.RestrictedTable)
    built = counting(monkeypatch, isoprod.groups.RestrictedTable, "_row")
    assert action.smoothing_chars.perms is action.edge_perms
    assert invariant_dimension_trace(action.smoothing_chars) == 1
    monkeypatch.undo()
    assert 1 <= built[id(action.edge_perms)] <= 12
