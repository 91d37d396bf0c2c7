import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isoprod.cyclotomic import cyclotomic_polynomial, root_of_unity_sum
from isoprod.errors import CharacterError, GroupError
from isoprod.groups import (
    CharacterTable,
    FiniteGroup,
    RestrictedTable,
    column,
    compose,
    format_perm,
    invariant_dimension_trace,
    invert,
    orbits,
    parse_rotation_char,
    perm_from_cycles,
    perm_to_cycles,
)

import reference_seed
from randgen import all_subgroups, catalog, left_cosets
from test_scaling import symmetric_group
from test_seed_differential import a5, s4, s5


# -- enumeration ---------------------------------------------------------


def test_trivial_group():
    g = FiniteGroup.from_generators([], 1)
    assert g.order == 1
    assert g.elements == ((0,),)


def test_z2_closure():
    g = FiniteGroup.from_generators([perm_from_cycles([[0, 1]], 2)], 2)
    assert g.order == 2
    assert g.elements[0] == (0, 1)


def test_s3_closure_brute_force():
    # closure of {(0 1 2), (0 1)} has the six permutations of three letters
    g = FiniteGroup.from_generators(
        [perm_from_cycles([[0, 1, 2]], 3), perm_from_cycles([[0, 1]], 3)], 3
    )
    assert g.order == 6
    assert set(g.elements) == {
        (0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1), (2, 0, 1), (2, 1, 0)
    }


def test_enumeration_deterministic_order():
    g = FiniteGroup.from_generators(
        [perm_from_cycles([[0, 1, 2]], 3), perm_from_cycles([[0, 1]], 3)], 3
    )
    # identity, then the word-length-1 elements in lex order, then the rest
    assert g.elements[0] == (0, 1, 2)
    assert g.elements[1] == (1, 0, 2)
    assert g.elements[2] == (1, 2, 0)


def test_group_cap():
    with pytest.raises(GroupError, match="group too large"):
        FiniteGroup.from_generators(
            [perm_from_cycles([[0, 1, 2, 3, 4, 5, 6]], 7)], 7, cap=5
        )


def test_bad_permutation_rejected():
    with pytest.raises(GroupError, match="not a permutation"):
        FiniteGroup.from_generators([(0, 0)], 2)


@pytest.mark.parametrize("entries", [(1.0, 0), (True, False), (1, False), (0.0, 1)])
def test_non_integer_permutation_entries_rejected(entries):
    # floats and bools sort like the letters they equal; as generators they
    # would be composed (1.0 is no index) or kept as a group of bools
    message = f"not a permutation of 2 letters: {entries!r}"
    with pytest.raises(GroupError) as err:
        FiniteGroup.from_generators([entries], 2)
    assert str(err.value) == message
    z2 = FiniteGroup.from_generators([(1, 0)], 2)
    with pytest.raises(GroupError) as err:
        z2.extend_action([entries], 2)
    assert str(err.value) == message


@pytest.mark.parametrize("letter", [1.0, True])
def test_non_integer_cycle_letters_rejected(letter):
    # both pass 0 <= x < 2: 1.0 then failed as a list index with a bare
    # TypeError, and True was kept as a letter, giving (True, 0)
    with pytest.raises(GroupError) as err:
        perm_from_cycles([[0, letter]], 2)
    assert str(err.value) == f"not a permutation of 2 letters: cycle entry {letter!r}"


Z2 = FiniteGroup.from_generators([(1, 0)], 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: perm_from_cycles(5, 2), "cycles must be iterable, got 5"),
        (lambda: perm_from_cycles([5], 2), "a cycle must be iterable, got 5"),
        (lambda: FiniteGroup.from_generators(5, 2), "generators must be iterable, got 5"),
        (
            lambda: FiniteGroup.from_generators([5], 2),
            "a permutation of 2 letters must be iterable, got 5",
        ),
        (lambda: FiniteGroup.from_generators([], "3"), "degree must be an integer, got '3'"),
        (lambda: Z2.extend_action(5, 2), "generator images must be iterable, got 5"),
        (lambda: Z2.extend_action([5], 2), "a permutation of 2 letters must be iterable, got 5"),
    ],
    ids=["cycles", "cycle", "generators", "generator", "degree", "images", "image"],
)
def test_containers_of_the_wrong_type_raise_group_error(call, message):
    # each raised a bare TypeError from iterating, len() or comparing
    with pytest.raises(GroupError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: perm_from_cycles([[0]], "2"), "degree must be an integer, got '2'"),
        (lambda: Z2.extend_action([(1, 0)], "2"), "degree must be an integer, got '2'"),
        (
            lambda: FiniteGroup.from_generators([(1, 0)], 2, cap="5"),
            "cap must be an integer, got '5'",
        ),
        (lambda: orbits(Z2.elements, 5), "points must be iterable, got 5"),
        (lambda: Z2.conjugate(5, 1), "element index 5 out of range"),
        (lambda: Z2.conjugate(1, 5), "element index 5 out of range"),
        (lambda: Z2.mul(5, 1), "element index 5 out of range"),
        (lambda: Z2.mul(1, -1), "element index -1 out of range"),
        (lambda: Z2.inverse(5), "element index 5 out of range"),
        (lambda: Z2.inverse(True), "element index True is not an integer"),
        (lambda: Z2.element_order(5), "element index 5 out of range"),
        (lambda: Z2.element_order(1.0), "element index 1.0 is not an integer"),
        (lambda: Z2.mul(1, True), "element index True is not an integer"),
        (lambda: Z2.inverse(-1), "element index -1 out of range"),
        (lambda: Z2.element_cycles(2), "element index 2 out of range"),
        (lambda: Z2.element_cycles(True), "element index True is not an integer"),
    ],
    ids=[
        "cycles-degree", "images-degree", "cap", "points", "conjugator", "conjugated",
        "mul-left", "mul-negative", "inverse", "inverse-bool", "order", "order-float",
        "mul-bool", "inverse-negative", "element-cycles", "element-cycles-bool",
    ],
)
def test_mistyped_scalar_arguments_raise_group_error(call, message):
    # each raised a bare TypeError or IndexError, or read a wrong element
    with pytest.raises(GroupError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("cap", [0, -1])
def test_a_cap_below_one_is_rejected(cap):
    # cap 0 built the trivial group, and cap -1 reported "order exceeds cap -1"
    with pytest.raises(GroupError) as err:
        FiniteGroup.from_generators([(1, 0)], 2, cap=cap)
    assert str(err.value) == f"cap must be at least 1, got {cap}"
    assert FiniteGroup.from_generators([], 2, cap=1).order == 1


@pytest.mark.parametrize(
    "seed, message",
    [
        (True, "element index True is not an integer"),
        (1.0, "element index 1.0 is not an integer"),
        (1.5, "element index 1.5 is not an integer"),
        ("a", "element index 'a' is not an integer"),
        (2, "element index 2 out of range"),
    ],
)
def test_malformed_closure_seeds_rejected(z2, seed, message):
    # True == 1 and 1.0 == 1 would pass the range check (True was kept as an
    # element); 1.5 and 'a' raised a bare TypeError
    with pytest.raises(GroupError) as err:
        z2.subgroup_closure([seed])
    assert str(err.value) == message


@pytest.mark.parametrize("method", ["subgroup_closure", "closure_and_generators", "conjugacy_union"])
def test_closure_of_a_non_iterable_is_a_group_error(z2, method):
    with pytest.raises(GroupError) as err:
        getattr(z2, method)(5)
    assert str(err.value) == "element indices must be iterable, got 5"


def test_index_of_a_non_element_is_a_group_error(z2):
    assert z2.index_of((1, 0)) == 1
    for perm in [(0, 0), (0, 1, 2), [1, 0]]:
        with pytest.raises(GroupError, match="is not a group element"):
            z2.index_of(perm)


def test_character_table_rejects_malformed_keys(paper_action):
    table = paper_action.tangent_chars
    n = paper_action.graph.n_half_edges
    assert table[(0, 0)] == 0
    for key in ["x", (1,), (-1, 0), (0, n), (True, 0), (0.0, 0)]:
        with pytest.raises(KeyError):
            table[key]
        assert table.get(key) is None


@pytest.mark.parametrize("group", catalog(), ids=lambda g: f"order{g.order}")
def test_group_axioms_exhaustive(group):
    n = group.order
    assert n <= 200
    elems = set(group.elements)
    assert tuple(range(group.degree)) in elems
    for a in group.elements:
        assert invert(a) in elems
        for b in group.elements:
            assert compose(a, b) in elems


def test_mul_and_inverse_indices():
    g = FiniteGroup.from_generators([perm_from_cycles([[0, 1, 2, 3]], 4)], 4)
    for i in range(g.order):
        assert g.mul(i, g.inverse(i)) == 0
    assert g.element_order(0) == 1


@pytest.mark.parametrize("group", catalog() + [s4(), a5()], ids=lambda g: f"order{g.order}")
def test_right_table_and_mul_match_composed_tuples(group):
    assert len(group.right) == group.order
    for i, row in enumerate(group.right):
        assert len(row) == len(group.generators)
        for k, j in enumerate(row):
            assert j == group.index_of(compose(group.elements[i], group.generators[k]))
    # mul reads products by generators and by the identity without composing
    for i, a in enumerate(group.elements):
        for j, b in enumerate(group.elements):
            assert group.mul(i, j) == group.index_of(compose(a, b))


def unusual_generator_groups():
    """An identity generator, a repeated generator, and the trivial group on
    three letters (the catalog starts with the trivial group of degree 1)."""
    cycle3, swap = perm_from_cycles([[0, 1, 2]], 3), perm_from_cycles([[0, 1]], 3)
    return [
        FiniteGroup.from_generators([cycle3, (0, 1, 2), swap], 3),
        FiniteGroup.from_generators([swap, cycle3, swap, cycle3], 3),
        FiniteGroup.trivial(3),
    ]


BATCHED = catalog() + [s4(), a5()] + unusual_generator_groups()


def batched_id(group):
    return f"order{group.order}-degree{group.degree}-gens{len(group.generators)}"


@pytest.mark.parametrize("group", BATCHED, ids=batched_id)
def test_batched_arithmetic_matches_scalar(group):
    everything = list(range(group.order))
    for g in everything:
        assert group.products(everything, g) == [group.mul(x, g) for x in everything]
        assert group.conjugates(g, everything) == [group.conjugate(g, x) for x in everything]
        # lists with no non-identity entry, and the empty list
        assert group.products([0, 0], g) == [g, g]
        assert group.conjugates(g, [0, 0]) == [0, 0]
        assert group.products([], g) == group.conjugates(g, []) == []
    for k, s in enumerate(group.generators):
        assert group._generator_conjugation(k) == [
            group.index_of(compose(compose(s, x), invert(s))) for x in group.elements
        ]


def test_lazy_conjugation_tables_race_to_the_same_values():
    # more threads than cores race on the first use of each generator's
    # table; a lost or partial table would give a wrong conjugate
    reference = a5()
    everything = list(range(reference.order))
    expected = {g: [reference.conjugate(g, x) for x in everything] for g in range(1, 4)}
    group = a5()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                (g, pool.submit(group.conjugates, g, everything))
                for g in expected
                for _ in range(6)
            ]
            for g, future in futures:
                assert future.result(timeout=30) == expected[g]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("group", BATCHED, ids=batched_id)
def test_conjugacy_union_matches_seed(group):
    for x in range(group.order):
        for sub in ({x}, group.subgroup_closure([x])):
            assert group.conjugacy_union(sub) == reference_seed.conjugacy_union(group, sub)
    assert group.conjugacy_union(range(group.order)) == frozenset(range(group.order))


@pytest.mark.parametrize(
    "sub, message",
    [
        ([7], "element index 7 out of range"),
        ([1, -1], "element index -1 out of range"),
        ([0, True], "element index True is not an integer"),
        ([1.0], "element index 1.0 is not an integer"),
    ],
)
def test_conjugacy_union_rejects_bad_elements(z2, sub, message):
    # a bare TypeError or IndexError before, or a wrong element read
    with pytest.raises(GroupError) as err:
        z2.conjugacy_union(sub)
    assert str(err.value) == message


def test_conjugacy_union_of_the_whole_group_conjugates_nothing(monkeypatch):
    group = symmetric_group(5)
    calls = []
    conjugates = FiniteGroup.conjugates
    monkeypatch.setattr(
        FiniteGroup, "conjugates", lambda self, g, xs: calls.append(g) or conjugates(self, g, xs)
    )
    assert group.conjugacy_union(range(group.order)) == frozenset(range(group.order))
    assert calls == []
    assert len(group.conjugacy_union([1])) < group.order
    assert calls


def test_the_closure_of_the_generators_is_walked_once(monkeypatch):
    # kept on the group with its reduced generating set; other seeds walk
    group = symmetric_group(5)
    own = list(group.generator_indices)
    walks = []
    products = FiniteGroup.products
    monkeypatch.setattr(
        FiniteGroup, "products", lambda self, xs, t: walks.append(t) or products(self, xs, t)
    )
    first = group.closure_and_generators(own)
    assert first[0] == frozenset(range(group.order)) and walks
    walks.clear()
    again = group.closure_and_generators(tuple(own))
    assert again == first and walks == []
    again[1].append(0)  # the caller's list, not the kept one
    assert group.closure_and_generators(own) == first
    assert group.subgroup_closure(own[:1]) < first[0] and walks


def test_extend_action_rejects_broken_power_relation():
    # Z4 = <r>: the table is built along r, r^2, r^3, so r^3 * r = e is the
    # one relation not used to build it; a 3-cycle image breaks only that one
    z4 = FiniteGroup.from_generators([perm_from_cycles([[0, 1, 2, 3]], 4)], 4)
    with pytest.raises(GroupError, match="homomorphism"):
        z4.extend_action([perm_from_cycles([[0, 1, 2]], 3)], 3)


def test_extend_action_rejects_broken_braid_relation():
    # S3 = <a, b>: images of orders 3 and 2 for which b a b != a^-1
    s3 = FiniteGroup.from_generators(
        [perm_from_cycles([[0, 1, 2]], 3), perm_from_cycles([[0, 1]], 3)], 3
    )
    with pytest.raises(GroupError, match="homomorphism"):
        s3.extend_action([perm_from_cycles([[0, 1, 2]], 4), perm_from_cycles([[0, 3]], 4)], 4)
    assert s3.extend_action(list(s3.generators), 3) == s3.elements


def test_extend_action_of_the_trivial_group_is_the_identity():
    assert FiniteGroup.trivial().extend_action([], 3) == ((0, 1, 2),)
    assert FiniteGroup.trivial().extend_action([], 0) == ((),)


@pytest.mark.parametrize("group", BATCHED, ids=batched_id)
def test_extend_action_by_the_generators_is_the_element_table(group):
    # identity and repeated generators reach elements already in the table:
    # every such product is a relation check, never a second definition
    assert group.extend_action(group.generators, group.degree) == group.elements
    for g in range(group.order):
        n, power = 1, g
        while power != 0:
            power, n = group.mul(power, g), n + 1
        assert group.element_order(g) == n


def test_element_order_is_the_lcm_of_the_cycle_lengths():
    # Z6 generated by (0 1)(2 3 4): the generator has cycles of lengths 2, 3
    z6 = FiniteGroup.from_generators([perm_from_cycles([[0, 1], [2, 3, 4]], 5)], 5)
    assert sorted(map(z6.element_order, range(z6.order))) == [1, 2, 3, 3, 6, 6]


def test_element_cycles_and_order_read_one_kept_entry():
    # both read one entry kept per element, which matches format_perm and the
    # lcm of the cycle lengths on every element of the catalog, S4 and A5
    for group in catalog() + [s4(), a5()]:
        expected = {
            g: (format_perm(p), lcm(*map(len, perm_to_cycles(p))))
            for g, p in enumerate(group.elements)
        }
        assert {g: (group.element_cycles(g), group.element_order(g)) for g in expected} == expected
        assert group._cycles == expected


CYCLIC = [
    FiniteGroup.from_generators([perm_from_cycles([list(range(n))], n)], n) for n in range(1, 61)
]


def generating_lists(group):
    """Each cyclic subgroup (its closure, compared whole) -> the elements
    generating it, ascending."""
    generating: dict[frozenset[int], list[int]] = {}
    for g in range(group.order):
        generating.setdefault(group.subgroup_closure([g]), []).append(g)
    return generating


@pytest.mark.parametrize("group", BATCHED + [s5()] + CYCLIC, ids=batched_id)
def test_cyclic_representatives_match_brute_force(group):
    # the class table names each cyclic subgroup by its least generator,
    # with exactly the elements generating it
    named = {
        c: gens for members in group.cyclic_subgroup_classes().values()
        for c, gens in members.items()
    }
    assert named == {gens[0]: gens for gens in generating_lists(group).values()}


# (order, degree) of S4, A5, S5 and S6 -> (cyclic subgroups, classes)
SUBGROUP_CLASS_COUNTS = {(24, 4): (17, 5), (60, 5): (32, 4), (120, 5): (67, 7), (720, 6): (362, 11)}


@pytest.mark.parametrize(
    "group",
    catalog() + [s4(), a5(), s5(), symmetric_group(6)] + unusual_generator_groups()
    + [group for group in CYCLIC if group not in catalog()],
    ids=batched_id,
)
def test_cyclic_subgroup_classes_match_brute_force(group):
    # each class is the set of subgroups conjugate to its key, computed from
    # every element's conjugation, and the classes partition the subgroups
    # (each named by its least generator, from the closures)
    classes = group.cyclic_subgroup_classes()
    everything = range(group.order)
    generating = generating_lists(group).values()
    reps = {g: gens[0] for gens in generating for g in gens}
    subgroups = sorted(gens[0] for gens in generating)
    assert sorted(r for members in classes.values() for r in members) == subgroups
    for key, members in classes.items():
        assert list(members) == sorted(members) and key == min(members)
        conjugates = {reps[x] for h in everything for x in group.conjugates(h, [key])}
        assert conjugates == set(members)
        for h in everything:
            assert {reps[x] for x in group.conjugates(h, list(members))} == set(members)
    if (group.order, group.degree) in SUBGROUP_CLASS_COUNTS:
        counts = SUBGROUP_CLASS_COUNTS[group.order, group.degree]
        assert (len(subgroups), len(classes)) == counts
    assert group.cyclic_subgroup_classes() is classes


@pytest.mark.parametrize("group", CYCLIC, ids=batched_id)
def test_cyclic_group_has_one_subgroup_class_per_divisor(group):
    n = group.order
    classes = group.cyclic_subgroup_classes()
    assert len(classes) == sum(n % d == 0 for d in range(1, n + 1))
    assert all(list(members) == [key] for key, members in classes.items())
    gens = [g for members in classes.values() for each in members.values() for g in each]
    assert sorted(gens) == list(range(n))


def test_lazy_cyclic_subgroup_classes_race_to_the_same_dict():
    # threads racing on the first use each store a finished dict, built over
    # finished representatives and conjugation tables, never a partial one
    expected = s5().cyclic_subgroup_classes()
    group = s5()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(group.cyclic_subgroup_classes) for _ in range(12)]
            for future in futures:
                assert future.result(timeout=30) == expected
    finally:
        sys.setswitchinterval(interval)
    assert group.cyclic_subgroup_classes() == expected


CYCLE3, SWAP = perm_from_cycles([[0, 1, 2]], 3), perm_from_cycles([[0, 1]], 3)


@pytest.mark.parametrize(
    "group, images, element, generator",
    [
        (FiniteGroup.from_generators([SWAP, CYCLE3], 3), [CYCLE3, SWAP], 1, 0),
        (FiniteGroup.from_generators([CYCLE3], 3), [SWAP], 2, 0),
        (a5(), list(reversed(a5().generators)), 3, 0),
        (FiniteGroup.from_generators([CYCLE3, (0, 1, 2), SWAP], 3), [CYCLE3, SWAP, SWAP], 0, 1),
    ],
    ids=["s3-swapped", "z3-to-transposition", "a5-swapped", "identity-generator"],
)
def test_failed_relation_names_the_first_product_in_table_order(group, images, element, generator):
    # the first (element, generator) product in row order that contradicts
    # the permutations already set is named
    with pytest.raises(GroupError) as err:
        group.extend_action(images, len(images[0]))
    assert str(err.value) == (
        "generator images do not extend to a group homomorphism "
        f"(relation fails at element {element}, generator {generator})"
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: perm_from_cycles([[0, 5]], 2), "cycle entry 5 out of range for degree 2"),
        (lambda: perm_from_cycles([[0, 1], [1, 2]], 3), "letter 1 appears in two cycles"),
        (lambda: FiniteGroup.from_generators([], 0), "degree must be at least 1"),
        (
            lambda: FiniteGroup.from_generators([(1, 0)], 2).extend_action([], 2),
            "one image required per generator",
        ),
    ],
    ids=["cycle-entry", "repeated-letter", "degree-0", "no-images"],
)
def test_malformed_group_input_rejected(build, message):
    with pytest.raises(GroupError) as err:
        build()
    assert str(err.value) == message


# -- permutation helpers --------------------------------------------------


@given(st.permutations(list(range(6))))
def test_cycle_roundtrip(perm):
    p = tuple(perm)
    assert perm_from_cycles(perm_to_cycles(p), 6) == p


@given(st.permutations(list(range(5))), st.permutations(list(range(5))))
def test_compose_invert(a, b):
    a, b = tuple(a), tuple(b)
    assert compose(invert(a), a) == tuple(range(5))
    assert invert(compose(a, b)) == compose(invert(b), invert(a))


def test_compose_matches_comprehension_at_every_degree():
    # degrees 0 and 1 cannot go through itemgetter (no index / a bare value)
    rng = random.Random(8)
    cases = [((), ()), ((0,), (0,)), ((0, 1), (1, 0)), ((1, 0), (1, 0))]
    for degree in (2, 3, 7, 50, 400):
        for _ in range(5):
            a, b = list(range(degree)), list(range(degree))
            rng.shuffle(a)
            rng.shuffle(b)
            cases.append((tuple(a), tuple(b)))
    for a, b in cases:
        product = compose(a, b)
        assert type(product) is tuple
        assert product == tuple([a[x] for x in b])


def test_format_perm():
    assert format_perm((0, 1, 2)) == "()"
    assert format_perm((1, 0, 2)) == "(0 1)"


# -- orbits ---------------------------------------------------------------


def test_orbits_trivial_group():
    out = orbits(FiniteGroup.trivial().extend_action([], 2), [0, 1])
    assert [o.members for o in out] == [(0,), (1,)]
    assert all(o.stabilizer == (0,) for o in out)


def test_orbits_swap(z2):
    out = orbits(z2.extend_action([(1, 0)], 2), [0, 1])
    assert len(out) == 1
    assert out[0].representative == 0
    assert out[0].members == (0, 1)
    assert out[0].stabilizer == (0,)


def test_orbits_fixing(z2):
    out = orbits(z2.extend_action([(0, 1)], 2), [0, 1])
    assert [o.members for o in out] == [(0,), (1,)]
    assert all(o.stabilizer == (0, 1) for o in out)


def test_orbits_members_in_point_order_and_within_a_subgroup():
    # Z4 = <r> by a 4-cycle on 4 points: r^2 has orbits {0, 2} and {1, 3}
    z4 = FiniteGroup.from_generators([perm_from_cycles([[0, 1, 2, 3]], 4)], 4)
    perms = z4.extend_action(list(z4.generators), 4)
    r2 = z4.mul(1, 1)
    out = orbits([perms[0], perms[r2]], [3, 2, 1, 0])
    assert [(o.representative, o.members, o.stabilizer) for o in out] == [
        (3, (3, 1), (0,)),
        (2, (2, 0), (0,)),
    ]
    (whole,) = orbits(perms, range(4))
    assert whole.members == (0, 1, 2, 3) and whole.stabilizer == (0,)


def test_orbits_rejects_non_action(z2):
    # the generator sends point 1 to 2, which is not among the points
    perms = z2.extend_action([(0, 2, 1)], 3)
    with pytest.raises(GroupError, match="not a group action on the given points: 1 -> 2"):
        orbits(perms, [0, 1])
    with pytest.raises(GroupError, match="not a group action"):
        orbits([perms[0], perms[1]], [1, 0])
    assert [o.members for o in orbits(perms, [0, 1, 2])] == [(0,), (1, 2)]


def test_orbits_rejects_out_of_range_subgroup_elements(z2):
    perms = z2.extend_action([(1, 0)], 2)
    # an empty table has no identity row: without it an orbit has no members
    with pytest.raises(GroupError, match="^one permutation required per group element$"):
        orbits([], [0, 1])
    assert [o.stabilizer for o in orbits([perms[0], perms[1]], [0, 1])] == [(0,)]


@pytest.mark.parametrize(
    "perms, points, message",
    [
        ([(0, 1), (1, 0)], [-1, 0, 1], "point -1 is not an integer in range(2)"),
        ([(0, 1)], [True], "point True is not an integer in range(2)"),
        ([(0, 1)], [0, 5], "point 5 is not an integer in range(2)"),
        ([(0, 1)], [1.0], "point 1.0 is not an integer in range(2)"),
        ([(0, 1)], ["0"], "point '0' is not an integer in range(2)"),
        ([(0, 1)], range(-1, 2), "point -1 is not an integer in range(2)"),
        ([(0, 1)], range(3, 0, -1), "point 3 is not an integer in range(2)"),
        (5, [0], "not a table of permutation tuples: 5"),
        ([5], [0], "not a table of permutation tuples: [5]"),
        ([[0, 1]], [0], "not a table of permutation tuples: [[0, 1]]"),
        (
            RestrictedTable(((0, 1, 2), (1, 2, 0)), [2, 0], (0, 9, 1)), [2],
            "point 2 is not an integer in range(2)",
        ),
    ],
    ids=[
        "negative", "bool", "past-the-end", "float", "str", "range-start", "range-stop",
        "scalar-table", "scalar-row", "list-row", "view-range",
    ],
)
def test_orbits_rejects_bad_points_and_tables(perms, points, message):
    # a negative point read from the end of a row, True read row entry 1,
    # and the rest raised a bare IndexError or TypeError
    with pytest.raises(GroupError) as err:
        orbits(perms, points)
    assert str(err.value) == message


def test_orbits_of_shared_rows_read_one_row_and_share_stabilizers():
    # a table whose rows are all row 0 (an inert table) reads that row once
    # per point: every point is fixed by every element, and one stabilizer
    # tuple serves every orbit; a table with one other row reads columns
    ident = (0, 1, 2)
    found = orbits((ident,) * 6, [2, 0, 1])
    assert [(o.representative, o.members) for o in found] == [(2, (2,)), (0, (0,)), (1, (1,))]
    assert found[0].stabilizer == tuple(range(6))
    assert len({id(o.stabilizer) for o in found}) == 1
    swap = (1, 0, 2)
    found = orbits([ident, swap, ident, swap], [0, 1, 2])
    assert [(o.members, o.stabilizer) for o in found] == [((0, 1), (0, 2)), ((2,), (0, 1, 2, 3))]


def test_orbit_stabilizer_theorem():
    for group in catalog():
        for sub in all_subgroups(group):
            cosets = left_cosets(group, sub)
            index = {c: i for i, c in enumerate(cosets)}
            perms = [
                tuple(index[frozenset(group.mul(g, x) for x in c)] for c in cosets)
                for g in range(group.order)
            ]
            for orbit in orbits(perms, range(len(cosets))):
                assert len(orbit.members) * len(orbit.stabilizer) == group.order


# -- invariant dimensions --------------------------------------------------


def table_of(group, perms, chars):
    """The :class:`CharacterTable` over ``perms`` with the values ``chars``
    ((element, fixed point) -> Fraction) at each orbit's representative,
    carried to each member by the first element taking the representative
    there."""
    found = tuple(orbits(perms, range(len(perms[0]))))
    at_reps = [[chars[g, o.representative] % 1 for g in o.stabilizer] for o in found]
    modulus = lcm(*(c.denominator for column in at_reps for c in column))
    columns = tuple(tuple(int(c * modulus) for c in column) for column in at_reps)
    transporters = {
        x: min(g for g, perm in enumerate(perms) if perm[o.representative] == x)
        for o in found for x in o.members
    }
    return CharacterTable(group, perms, found, columns, modulus, transporters)


def test_trace_trivial_group_three_points():
    g = FiniteGroup.trivial()
    dim = invariant_dimension_trace(
        table_of(g, [(0, 1, 2)], {(0, p): Fraction(0) for p in range(3)})
    )
    assert dim == 3


def test_trace_swap_two_points(z2):
    # only the diagonal vector survives the swap
    chars = {(e, p): Fraction(0) for e in range(2) for p in range(2)}
    assert invariant_dimension_trace(table_of(z2, [(0, 1), (1, 0)], chars)) == 1


def test_trace_fixed_point_with_sign(z2):
    # (1 + (-1)) / 2 = 0
    char = {(0, 0): Fraction(0), (1, 0): Fraction(1, 2)}
    dim = invariant_dimension_trace(table_of(z2, [(0,), (0,)], char))
    assert dim == 0


def test_trace_non_integer_average(z2):
    # a lone -1 trace for the involution: average (1 - 1 + junk) ... use a
    # character table that is not multiplicative: value 1/3 on an involution
    char = {(0, 0): Fraction(0), (1, 0): Fraction(1, 3)}
    with pytest.raises(CharacterError, match="inconsistent character data"):
        invariant_dimension_trace(table_of(z2, [(0,), (0,)], char))


def test_trace_takes_only_a_character_table(z2):
    # a mapping of (element, point) pairs is no longer read
    for chars in ({(0, 0): Fraction(0), (1, 0): Fraction(0)}, None):
        with pytest.raises(CharacterError) as err:
            invariant_dimension_trace(chars)
        assert str(err.value) == f"not a character table: {type(chars).__name__}"


def test_trace_needs_one_permutation_per_element(z2):
    with pytest.raises(GroupError, match="one permutation required per group element"):
        invariant_dimension_trace(table_of(z2, [(0,)], {(0, 0): Fraction(0)}))


def test_frobenius_property_random_instances():
    """Trace average equals orbit-stabilizer counting on consistent data."""
    rng = random.Random(17)
    for trial in range(120):
        group = rng.choice(catalog())
        points = []
        acts = []
        chars = []
        expected = 0
        for _ in range(rng.randint(1, 3)):
            h = rng.randrange(group.order)
            sub = group.subgroup_closure((h,))
            e = len(sub)
            chi = Fraction(rng.randrange(e), e)
            cosets = left_cosets(group, sub)
            base = len(points)
            index = {c: base + i for i, c in enumerate(cosets)}
            points.extend(range(base, base + len(cosets)))
            gen = next(x for x in sub if group.element_order(x) == e)
            # character of the cyclic stabilizer: gen^k -> k * chi
            powers = {}
            x, k = 0, 0
            while True:
                powers[x] = (k * chi) % 1
                x = group.mul(x, gen)
                k += 1
                if x == 0:
                    break
            local_cosets = cosets

            def act(g, p, index=index, local_cosets=local_cosets, base=base):
                return index[
                    frozenset(group.mul(g, x) for x in local_cosets[p - base])
                ]

            def char(g, p, local_cosets=local_cosets, base=base, powers=powers):
                rep = min(local_cosets[p - base])
                conj = group.mul(group.mul(group.inverse(rep), g), rep)
                return powers[conj]

            acts.append((base, base + len(cosets), act, char))
            expected += 1 if chi % 1 == 0 else 0

        def global_act(g, p):
            for lo, hi, act, _ in acts:
                if lo <= p < hi:
                    return act(g, p)
            raise AssertionError

        def global_char(g, p):
            for lo, hi, _, char in acts:
                if lo <= p < hi:
                    return char(g, p)
            raise AssertionError

        perms = [tuple(global_act(g, p) for p in points) for g in range(group.order)]
        fixed_chars = {
            (g, p): global_char(g, p)
            for g, perm in enumerate(perms)
            for p in points
            if perm[p] == p
        }
        dim = invariant_dimension_trace(table_of(group, perms, fixed_chars))
        assert dim == expected, f"trial {trial}"


# -- cyclotomic helpers ----------------------------------------------------


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_root_of_unity_sums():
    assert root_of_unity_sum({}) == 0
    assert root_of_unity_sum({Fraction(0): 5}) == 5
    assert root_of_unity_sum({Fraction(1, 2): 2}) == -2
    assert root_of_unity_sum({Fraction(1, 3): 1, Fraction(2, 3): 1}) == -1
    assert root_of_unity_sum({Fraction(1, 3): 1}) is None
    # all n-th roots of unity sum to zero
    for n in (2, 3, 4, 5, 6, 12):
        counts = {Fraction(k, n): 1 for k in range(n)}
        assert root_of_unity_sum(counts) == 0


@given(st.integers(min_value=1, max_value=30))
def test_cyclotomic_degree_is_totient(n):
    from math import gcd

    phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
    assert len(cyclotomic_polynomial(n)) - 1 == phi


# -- rotation characters ---------------------------------------------------


def test_parse_rotation_char():
    assert parse_rotation_char("0/1") == Fraction(0)
    assert parse_rotation_char("1/2") == Fraction(1, 2)
    assert parse_rotation_char("2/3") == Fraction(2, 3)


NON_CANONICAL_CHARS = [
    "+1/2", " 1/2", "1/2 ", "1/ 2", "01/2", "1/02", "0_1/2", "-0/1", "\uff11/\uff12", "1/\u0662"
]


@pytest.mark.parametrize(
    "bad", ["2/4", "0/2", "3/2", "1/0", "-1/2", "x/2", "1", "1/2/3"] + NON_CANONICAL_CHARS
)
def test_parse_rotation_char_rejects(bad):
    with pytest.raises(GroupError, match="malformed character"):
        parse_rotation_char(bad)


@pytest.mark.parametrize(
    "bad, canonical",
    [
        ("+1/2", "1/2"),
        ("01/2", "1/2"),
        ("0_1/2", "1/2"),
        ("-0/1", "0/1"),
        ("\uff11/\uff12", "1/2"),
    ],
)
def test_parse_rotation_char_names_the_canonical_spelling(bad, canonical):
    # int() reads each of these as the integers of a valid character
    with pytest.raises(GroupError) as err:
        parse_rotation_char(bad)
    assert str(err.value) == f'malformed character string {bad!r}: expected "{canonical}"'


def test_restricted_rows_are_shared_like_their_source():
    # one row per distinct source row object, whether rows are read one by
    # one, all at once, or both; a column is read without building a row
    a, b = (1, 0, 2, 3), (0, 1, 3, 2)
    source = (a, tuple(list(a)), b, a)
    assert source[1] is not a
    ways = []
    for first in ([], [3], [0, 2]):
        view = RestrictedTable(source, [2, 3, 0], (5, 6, 7, 8))
        assert list(column(view, 0)) == [7, 7, 8, 7]
        assert not view._made
        for g in first:
            view[g]
        ways.append(list(view))
        assert [view[g] for g in range(4)] == ways[-1]
        assert view[0] is view[3] is ways[-1][0] and view[0] is not view[1]
    for rows in ways:
        assert rows == [(7, 8, 6), (7, 8, 6), (8, 7, 5), (7, 8, 6)]
        assert rows[0] is rows[3] and rows[0] is not rows[1]


def test_pending_views_race_to_the_same_rows():
    # rows permute 12 blocks of 5 objects; each restriction drops a block
    # and shuffles the order of the rest, eleven deep.  Threads race on the first
    # row, column and child reads of the pending last view: each sees it
    # pending or composed, never half done, and reads the rows it stands for
    rng = random.Random(30)
    blocks, size = 12, 5
    source = []
    for _ in range(24):
        row = []
        for b in range(blocks):
            images = list(range(b * size, (b + 1) * size))
            rng.shuffle(images)
            row += images
        source.append(tuple(row))
    source = tuple(source)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            table, expected, alive = source, list(source), list(range(blocks * size))
            for b in rng.sample(range(blocks), blocks - 1):
                kept = [i for i, x in enumerate(alive) if x // size != b]
                rng.shuffle(kept)
                new_index = {k: i for i, k in enumerate(kept)}
                table = RestrictedTable(table, kept, new_index)
                alive = [alive[k] for k in kept]
                expected = [tuple(new_index[row[k]] for k in kept) for row in expected]
            assert type(table._view[0]) is RestrictedTable
            columns = [tuple(row[p] for row in expected) for p in range(size)]
            with ThreadPoolExecutor(max_workers=6) as pool:
                rows = [pool.submit(table.__getitem__, g) for g in range(len(source))]
                cols = [pool.submit(lambda p: tuple(column(table, p)), p) for p in range(size)]
                child = pool.submit(lambda: list(RestrictedTable(table, range(size), {i: i for i in range(size)})))
                assert [f.result(timeout=30) for f in rows] == expected
                assert [f.result(timeout=30) for f in cols] == columns
                assert child.result(timeout=30) == expected
            assert table._view[0] is source
    finally:
        sys.setswitchinterval(interval)
