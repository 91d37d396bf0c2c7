import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isoprod.cyclotomic import cyclotomic_polynomial, root_of_unity_sum
from isoprod.errors import CharacterError, GroupError
from isoprod.groups import (
    FiniteGroup,
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
from test_seed_differential import a5, s4


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
    out = orbits(perms, [3, 2, 1, 0], within=[r2, 0])
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
        orbits(perms, [1, 0], within=[1, 0])
    assert [o.members for o in orbits(perms, [0, 1, 2])] == [(0,), (1, 2)]


def test_orbits_rejects_out_of_range_subgroup_elements(z2):
    perms = z2.extend_action([(1, 0)], 2)
    with pytest.raises(GroupError, match="element index 5 out of range"):
        orbits(perms, [0, 1], within=[5])
    # a negative index would otherwise read the last table
    with pytest.raises(GroupError, match="element index -1 out of range"):
        orbits(perms, [0, 1], within=[0, -1])
    # every subgroup holds the identity: without it an orbit has no members
    for within in ([], [1]):
        with pytest.raises(GroupError, match="lacks the identity"):
            orbits(perms, [0, 1], within=within)
    assert [o.stabilizer for o in orbits(perms, [0, 1], within=[1, 0])] == [(0,)]


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


def test_trace_trivial_group_three_points():
    g = FiniteGroup.trivial()
    dim = invariant_dimension_trace(
        g, [(0, 1, 2)], {(0, p): Fraction(0) for p in range(3)}
    )
    assert dim == 3


def test_trace_swap_two_points(z2):
    # only the diagonal vector survives the swap
    dim = invariant_dimension_trace(
        z2, [(0, 1), (1, 0)], {(e, p): Fraction(0) for e in range(2) for p in range(2)}
    )
    assert dim == 1


def test_trace_fixed_point_with_sign(z2):
    # (1 + (-1)) / 2 = 0
    char = {(0, 0): Fraction(0), (1, 0): Fraction(1, 2)}
    dim = invariant_dimension_trace(z2, [(0,), (0,)], char)
    assert dim == 0


def test_trace_missing_character(z2):
    with pytest.raises(CharacterError, match="inconsistent character data"):
        invariant_dimension_trace(z2, [(0,), (0,)], {(0, 0): Fraction(0)})


def test_trace_non_integer_average(z2):
    # a lone -1 trace for the involution: average (1 - 1 + junk) ... use a
    # character table that is not multiplicative: value 1/3 on an involution
    char = {(0, 0): Fraction(0), (1, 0): Fraction(1, 3)}
    with pytest.raises(CharacterError, match="inconsistent character data"):
        invariant_dimension_trace(z2, [(0,), (0,)], char)


def test_trace_needs_one_permutation_per_element(z2):
    with pytest.raises(GroupError, match="one permutation required per group element"):
        invariant_dimension_trace(z2, [(0,)], {(0, 0): Fraction(0)})


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
        dim = invariant_dimension_trace(group, perms, fixed_chars)
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


@pytest.mark.parametrize("bad", ["2/4", "0/2", "3/2", "1/0", "-1/2", "x/2", "1", "1/2/3"])
def test_parse_rotation_char_rejects(bad):
    with pytest.raises(GroupError, match="malformed character"):
        parse_rotation_char(bad)
