import itertools
import random
from fractions import Fraction

import pytest

from isoprod.actions import (
    RamificationOrbit,
    inert_action,
    trivial_action,
    validate_action,
)
from isoprod.curves import arithmetic_genus, build_graph
from isoprod.errors import SurfaceError
from isoprod.families import smoothing_chain
from isoprod.groups import FiniteGroup, format_perm, perm_from_cycles
from isoprod.surfaces import (
    CertificateCondition,
    DegenerationCertificate,
    SurfaceDescriptor,
    build_surface,
    certify_degeneration,
    check_free_action,
    check_free_codim1,
    fixed_point_profile,
    kuranishi_dimension,
    surface_invariants,
)

from randgen import catalog, random_action, random_free_action


@pytest.fixture(scope="module")
def hyperelliptic_action(z2):
    """Genus-2 curve with an involution fixing six order-2 points."""
    graph = build_graph([2], [], [])
    return validate_action(
        z2,
        graph,
        vertex_images=[(0,)],
        half_edge_images=[()],
        ramification_orbits=[RamificationOrbit(0, 1, Fraction(1, 2), 2)] * 6,
    )


# -- fixed point profiles -----------------------------------------------------


def test_profile_free(free_involution_action):
    profile = fixed_point_profile(free_involution_action)
    assert profile[1].has_fixed_point is False
    assert profile[1].fixes_component is False


def test_profile_paper(paper_action):
    profile = fixed_point_profile(paper_action)
    assert profile[1].has_fixed_point is True
    assert profile[1].fixes_component is False


def test_profile_kernel_component(kernel_component_action):
    profile = fixed_point_profile(kernel_component_action)
    assert profile[1].fixes_component is True
    assert profile[1].has_fixed_point is True


# -- freeness checks -----------------------------------------------------------


def test_free_action_passes_with_one_free_factor(
    free_involution_action, paper_action
):
    surface = build_surface(free_involution_action, paper_action)
    assert check_free_action(surface).passed


def test_free_action_fails_with_witness(paper_action):
    surface = build_surface(paper_action, paper_action)
    result = check_free_action(surface)
    assert not result.passed
    assert result.witness == 1
    assert result.witness_cycles == "(0 1)"


def test_free_action_trivial_group_vacuous():
    a = trivial_action(build_graph([2], [], []))
    assert check_free_action(build_surface(a, a)).passed


def test_codim1_weaker_than_free(paper_action):
    surface = build_surface(paper_action, paper_action)
    assert not check_free_action(surface).passed
    assert check_free_codim1(surface).passed


def test_codim1_fails_on_kernel_times_fixed_point(
    kernel_component_action, paper_action
):
    surface = build_surface(kernel_component_action, paper_action)
    result = check_free_codim1(surface)
    assert not result.passed
    assert result.witness == 1


def test_codim1_passes_kernel_times_free(
    kernel_component_action, free_involution_action
):
    surface = build_surface(kernel_component_action, free_involution_action)
    assert check_free_codim1(surface).passed


# -- descriptor validation ------------------------------------------------------


def test_factors_must_share_group(paper_action):
    other = trivial_action(build_graph([2], [], []))
    with pytest.raises(SurfaceError, match="identical group"):
        build_surface(paper_action, other)


def test_factors_must_be_curve_actions(paper_action):
    # an int factor raised a bare AttributeError reading its group
    with pytest.raises(SurfaceError) as err:
        build_surface(paper_action, 5)
    assert str(err.value) == "factor2: not a CurveAction: int"
    with pytest.raises(SurfaceError, match="^factor1: not a CurveAction: str$"):
        build_surface("paper", paper_action)


def test_descriptor_checks_its_factor_types(paper_action):
    # a descriptor built directly accepted anything, and its kept facts
    # raised a bare AttributeError ("'int' object has no attribute
    # 'fixed_point_sets'")
    with pytest.raises(SurfaceError) as err:
        check_free_action(SurfaceDescriptor(5, 5))
    assert str(err.value) == "factor1: not a CurveAction: int"
    with pytest.raises(SurfaceError) as err:
        SurfaceDescriptor(paper_action, None)
    assert str(err.value) == "factor2: not a CurveAction: NoneType"
    assert SurfaceDescriptor(paper_action, paper_action) == build_surface(paper_action, paper_action)


@pytest.mark.parametrize("declared", ["no", 0, 1, None])
def test_declared_minimal_must_be_a_bool(paper_action, declared):
    # "no" was accepted, and its emitted document failed the schema on parsing
    with pytest.raises(SurfaceError) as err:
        build_surface(paper_action, paper_action, declared_minimal=declared)
    assert str(err.value) == f"declared_minimal must be a bool, got {declared!r}"
    assert SurfaceDescriptor(paper_action, paper_action, False).declared_minimal is False


def test_genus_one_factor_rejected(z2):
    marked_elliptic = build_graph([1], [], [], marks=[0, 0])
    action = validate_action(
        z2, marked_elliptic, vertex_images=[(0,)], half_edge_images=[()]
    )
    with pytest.raises(SurfaceError, match="genus.*< 2"):
        build_surface(action, action)


# -- numerical invariants ---------------------------------------------------------


def test_invariants_kunneth_trivial_group():
    # C1 x C2 itself: chi = (g1-1)(g2-1), q = g1 + g2, p_g = g1*g2
    a = trivial_action(build_graph([2], [], []))
    inv = surface_invariants(build_surface(a, a))
    assert inv.chi == 1
    assert inv.k_squared == 8
    assert inv.euler == 4
    assert inv.q == 4
    assert inv.p_g == 4


def test_invariants_order2(free_involution_action, hyperelliptic_action):
    # genera 3 and 2 with |G| = 2: chi = (2)(1)/2 = 1
    surface = build_surface(free_involution_action, hyperelliptic_action)
    inv = surface_invariants(surface)
    assert inv.chi == 1
    assert inv.k_squared == 8
    assert inv.euler == 4
    # both factors smooth: q = quotient genus 2 + quotient genus 0
    assert inv.q == 2
    assert inv.p_g == 2


def test_invariants_require_free_action(paper_action):
    surface = build_surface(paper_action, paper_action)
    with pytest.raises(SurfaceError, match="free action"):
        surface_invariants(surface)


def test_invariants_nodal_center_q_not_computed(free_involution_action, z2):
    # a free-on-the-product pair with one nodal factor: q is not computed
    nodal = validate_action(
        z2,
        build_graph([1, 1], [0, 1, 0, 1], [(0, 1), (2, 3)]),
        vertex_images=[(1, 0)],
        half_edge_images=[(3, 2, 1, 0)],
    )
    surface = build_surface(free_involution_action, nodal)
    inv = surface_invariants(surface)
    assert inv.chi == 2
    assert inv.q is None and inv.p_g is None


def test_inconsistent_freeness_data_caught(z2):
    # an involution on a genus-2 curve with no declared fixed data passes the
    # freeness profile but makes chi non-integral: the documented error
    phantom = validate_action(
        z2, build_graph([2], [], []), vertex_images=[(0,)], half_edge_images=[()]
    )
    surface = build_surface(phantom, phantom)
    assert check_free_action(surface).passed
    with pytest.raises(SurfaceError, match="inconsistent action data"):
        surface_invariants(surface)


# -- kuranishi dimension -----------------------------------------------------------


def test_kuranishi_smooth_fibers(smooth_fiber_action):
    k = kuranishi_dimension(build_surface(smooth_fiber_action, smooth_fiber_action))
    assert (k.factor1.total, k.factor2.total, k.total) == (4, 4, 8)


def test_kuranishi_trivial_group():
    a = trivial_action(build_graph([2], [], []))
    assert kuranishi_dimension(build_surface(a, a)).total == 6


def test_kuranishi_nodal_times_smooth(paper_action, smooth_fiber_action):
    k = kuranishi_dimension(build_surface(paper_action, smooth_fiber_action))
    assert k.total == 8


def test_kuranishi_symmetric(paper_action, smooth_fiber_action):
    a = kuranishi_dimension(build_surface(paper_action, smooth_fiber_action))
    b = kuranishi_dimension(build_surface(smooth_fiber_action, paper_action))
    assert a.total == b.total


def test_kuranishi_requires_codim1(kernel_component_action, paper_action):
    surface = build_surface(kernel_component_action, paper_action)
    with pytest.raises(SurfaceError, match="codimension 1"):
        kuranishi_dimension(surface)


# -- certification ------------------------------------------------------------------


def test_certificate_paper_central_fiber(paper_action):
    cert = certify_degeneration(build_surface(paper_action, paper_action))
    assert cert.passed
    assert cert.first_failure is None
    assert [c.key for c in cert.conditions] == [
        "stable-factors",
        "free-in-codim-1",
        "q-gorenstein",
        "normal-crossings-codim-1",
        "relative-canonical-ample",
    ]
    assert all(c.citation for c in cert.conditions)


def test_certificate_fails_on_fixed_curve(kernel_component_action, paper_action):
    cert = certify_degeneration(
        build_surface(kernel_component_action, paper_action)
    )
    assert not cert.passed
    assert cert.first_failure == "free-in-codim-1"
    status = {c.key: c.passed for c in cert.conditions}
    assert status["free-in-codim-1"] is False
    assert status["q-gorenstein"] is False
    assert status["normal-crossings-codim-1"] is False
    assert status["stable-factors"] is True
    assert status["relative-canonical-ample"] is True
    failing = next(c for c in cert.conditions if c.key == "free-in-codim-1")
    assert "element 1" in failing.detail


def test_certificate_trivial_group_nodal_factors():
    nodal = trivial_action(build_graph([2], [0, 0], [(0, 1)]))
    cert = certify_degeneration(build_surface(nodal, nodal))
    assert cert.passed


def reference_certificate(surface):
    """The certificate built record by record from its five conditions' texts,
    with the codimension-1 witness found by a scan of the factors' profiles."""
    g1, g2 = arithmetic_genus(surface.factor1.graph), arithmetic_genus(surface.factor2.graph)
    stable = g1 >= 2 and g2 >= 2
    p1, p2 = fixed_point_profile(surface.factor1), fixed_point_profile(surface.factor2)
    witness = next(
        (
            g
            for g in sorted(p1)
            if (p1[g].fixes_component and p2[g].has_fixed_point)
            or (p2[g].fixes_component and p1[g].has_fixed_point)
        ),
        None,
    )
    free = witness is None
    cycles = None if free else format_perm(surface.factor1.group.elements[witness])
    conditions = (
        CertificateCondition(
            "stable-factors",
            "both factors are stable curves with an action of one group",
            "properness of the moduli of stable curves with group action",
            stable,
            f"arithmetic genera ({g1}, {g2})",
        ),
        CertificateCondition(
            "free-in-codim-1",
            "no nonidentity element fixes a curve on the product",
            "quotient morphism etale in codimension one",
            free,
            "fixed loci have codimension >= 2"
            if free
            else f"element {witness} = {cycles} fixes a curve",
        ),
        CertificateCondition(
            "q-gorenstein",
            "the quotient is Q-Gorenstein",
            "finite quotients etale in codimension one are Q-Gorenstein "
            "(Kollar-Mori, Prop. 5.20)",
            free,
            "follows from free-in-codim-1",
        ),
        CertificateCondition(
            "normal-crossings-codim-1",
            "normal crossings in codimension one survive the quotient",
            "finite quotients preserve normal crossings in codimension one (Cor. 1.7)",
            free,
            "follows from free-in-codim-1",
        ),
        CertificateCondition(
            "relative-canonical-ample",
            "the relative canonical sheaf descends and stays ample",
            "ampleness descends along finite quotient maps unramified in codimension one",
            stable,
            "theorem-backed: stability of the factors with genus >= 2",
        ),
    )
    failures = [c.key for c in conditions if not c.passed]
    return DegenerationCertificate(conditions, not failures, failures[0] if failures else None)


def assert_certificate_matches_reference(surface):
    cert, expected = certify_degeneration(surface), reference_certificate(surface)
    assert type(cert) is DegenerationCertificate and cert._fields == expected._fields
    assert (cert.passed, cert.first_failure) == (expected.passed, expected.first_failure)
    assert len(cert.conditions) == len(expected.conditions)
    for got, want in zip(cert.conditions, expected.conditions):
        assert type(got) is CertificateCondition
        assert tuple(got) == tuple(want) and type(got.passed) is bool
    for check in (check_free_action, check_free_codim1):
        result = check(surface)
        if result.passed:
            assert result == (True, None, None)
        else:
            elements = surface.factor1.group.elements
            assert result.witness_cycles == format_perm(elements[result.witness])
    return cert


def test_certificate_matches_a_reference_on_every_ordered_catalog_pair(
    paper_action, smooth_fiber_action, free_involution_action, kernel_component_action
):
    rng = random.Random(61)
    outcomes = set()
    for group in catalog():
        actions = [random_action(group, rng) for _ in range(3)]
        actions += [random_free_action(group, rng) for _ in range(2)]
        if group == paper_action.group:
            actions += [
                paper_action, smooth_fiber_action, free_involution_action, kernel_component_action
            ]
        for a in actions:
            for b in actions:
                cert = assert_certificate_matches_reference(SurfaceDescriptor(a, b))
                outcomes.add(cert.first_failure)
    assert outcomes == {None, "free-in-codim-1"}


def test_certificate_of_a_genus_one_factor_fails_stability_first(z2, paper_action):
    # an elliptic curve with one mark: no build_surface accepts it, so the
    # descriptor is built directly; stable-factors fails, and when the pair
    # also fixes a curve it is still the first failure named
    elliptic = build_graph([1], [], [], marks=[0])
    free = validate_action(z2, elliptic, vertex_images=[(0,)], half_edge_images=[()])
    inert = inert_action(z2, elliptic)
    for factors, codim1 in [
        ((free, paper_action), True),
        ((paper_action, free), True),
        ((inert, paper_action), False),
        ((inert, inert), False),
    ]:
        cert = assert_certificate_matches_reference(SurfaceDescriptor(*factors))
        assert not cert.passed and cert.first_failure == "stable-factors"
        status = [c.passed for c in cert.conditions]
        assert status == [False, codim1, codim1, codim1, False]


@pytest.mark.parametrize(
    "reader",
    [
        check_free_action,
        check_free_codim1,
        certify_degeneration,
        surface_invariants,
        kuranishi_dimension,
        fixed_point_profile,
    ],
    ids=lambda reader: reader.__name__,
)
def test_readers_name_a_mistyped_argument(reader):
    # each raised a bare AttributeError
    kind = "CurveAction" if reader is fixed_point_profile else "SurfaceDescriptor"
    with pytest.raises(SurfaceError) as err:
        reader(5)
    assert str(err.value) == f"not a {kind}: int"


# -- randomized properties -----------------------------------------------------------


def test_free_implies_codim1_randomized():
    rng = random.Random(47)
    for _ in range(100):
        group = rng.choice(catalog())
        kind = rng.random()
        if kind < 0.4:
            f1 = random_free_action(group, rng)
        else:
            f1 = random_action(group, rng)
        f2 = random_action(group, rng) if kind < 0.7 else random_free_action(group, rng)
        surface = build_surface(f1, f2)
        if check_free_action(surface).passed:
            assert check_free_codim1(surface).passed


def test_invariant_identities_random_free_instances():
    rng = random.Random(53)
    for _ in range(60):
        group = rng.choice(catalog())
        surface = build_surface(
            random_free_action(group, rng), random_free_action(group, rng)
        )
        assert check_free_action(surface).passed
        inv = surface_invariants(surface)
        assert inv.k_squared == 8 * inv.chi
        assert inv.euler == 4 * inv.chi
        assert inv.chi.denominator == 1


def smooth_end(factor):
    """The factor's smooth end along ``smoothing_chain``, or "undetermined"
    when the chain stops at a node orbit it cannot smooth (the kernel gap
    among them): a stopped chain gives no verdict."""
    chain = smoothing_chain(factor)
    return "undetermined" if chain.obstructions else chain.strata[-1].action


def test_a_pair_free_at_the_root_is_free_at_its_smooth_end():
    # the three local models only shrink fixed-point sets: a rotation node
    # loses its fixed point on xy = t, and a swap node's new fixed points lie
    # over a branch swap, which fixes the node already; each factor is
    # smoothed once
    rng = random.Random(5)
    counts = {"pairs": 0, "undetermined": 0, "free at the root": 0, "free at the end": 0}
    for group in catalog()[1:]:
        actions = [random_action(group, rng) for _ in range(20)]
        ends = [smooth_end(a) for a in actions]
        for (a, end_a), (b, end_b) in itertools.product(zip(actions, ends), repeat=2):
            counts["pairs"] += 1
            if "undetermined" in (end_a, end_b):
                counts["undetermined"] += 1
                continue
            assert not end_a.graph.edges and not end_b.graph.edges
            free_at_root = check_free_action(SurfaceDescriptor(a, b)).passed
            free_at_end = check_free_action(SurfaceDescriptor(end_a, end_b)).passed
            counts["free at the root"] += free_at_root
            counts["free at the end"] += free_at_end
            assert free_at_end or not free_at_root, (a, b)
    # the corpus reaches both verdicts: some pairs smooth to the end, some free
    assert counts["pairs"] > counts["undetermined"]
    assert counts["free at the root"] > 0


def _outcome(query, surface):
    try:
        return query(surface)
    except SurfaceError as exc:
        return str(exc)


def test_surface_queries_symmetric_in_the_factors(
    paper_action, smooth_fiber_action, free_involution_action, kernel_component_action
):
    # (C1 x C2)/G and (C2 x C1)/G are one surface: every verdict, witness and
    # invariant must agree when the factors are swapped
    rng = random.Random(59)
    verdicts = set()
    for group in catalog():
        actions = [random_action(group, rng) for _ in range(3)]
        actions += [random_free_action(group, rng) for _ in range(2)]
        if group == paper_action.group:
            actions += [
                paper_action, smooth_fiber_action, free_involution_action, kernel_component_action
            ]
        for a in actions:
            for b in actions:
                ab, ba = build_surface(a, b), build_surface(b, a)
                for check in (check_free_action, check_free_codim1):
                    assert check(ab) == check(ba)
                cert_ab, cert_ba = certify_degeneration(ab), certify_degeneration(ba)
                assert cert_ab.passed == cert_ba.passed
                assert cert_ab.first_failure == cert_ba.first_failure
                assert [c.passed for c in cert_ab.conditions] == [
                    c.passed for c in cert_ba.conditions
                ]
                totals = [_outcome(kuranishi_dimension, s) for s in (ab, ba)]
                totals = [k if isinstance(k, str) else k.total for k in totals]
                assert totals[0] == totals[1]
                assert _outcome(surface_invariants, ab) == _outcome(surface_invariants, ba)
                verdicts.add((check_free_action(ab).passed, cert_ab.passed))
    assert {(True, True), (False, True), (False, False)} <= verdicts


# -- known answers ------------------------------------------------------------------


def beauville_factor(group, vector):
    """A smooth curve with the Z_5^2 action of one generating vector: one
    ramification orbit per entry (i, j), the element a^i b^j, each with
    tangent character 1/5 of order 5.  The genus is the one Riemann-Hurwitz
    gives for the signature (0; 5, 5, 5):
    2g - 2 = |G| (-2 + sum (1 - 1/e))."""
    a, b = (group.index_of(s) for s in group.generators)
    orders = [5] * len(vector)
    twice_g_minus_2 = group.order * (-2 + sum(Fraction(e - 1, e) for e in orders))
    genus = int(twice_g_minus_2) // 2 + 1
    ram = []
    for i, j in vector:
        element = 0
        for _ in range(i):
            element = group.mul(element, a)
        for _ in range(j):
            element = group.mul(element, b)
        ram.append(RamificationOrbit(0, element, Fraction(1, 5), 5))
    graph = build_graph([genus], [], [])
    action = validate_action(group, graph, [(0,)] * 2, [()] * 2, ramification_orbits=ram)
    return action, genus, len(orders)


def test_beauville_surface_known_answer():
    # Beauville's surface: (C1 x C2)/Z_5^2 with the generating vectors
    # ((1,0),(0,1),(4,4)) and ((1,2),(3,4),(1,4)); both quotients are P^1
    # with three branch points, and the six stabilizers are the six
    # subgroups of order 5, disjoint, so the action is free
    group = FiniteGroup.from_generators(
        [perm_from_cycles([[0, 1, 2, 3, 4]], 10), perm_from_cycles([[5, 6, 7, 8, 9]], 10)], 10
    )
    f1, g1, r1 = beauville_factor(group, [(1, 0), (0, 1), (4, 4)])
    f2, g2, r2 = beauville_factor(group, [(1, 2), (3, 4), (1, 4)])
    assert (g1, g2) == (6, 6)
    surface = build_surface(f1, f2)
    assert check_free_action(surface).passed
    chi = Fraction((g1 - 1) * (g2 - 1), group.order)
    q = 0 + 0  # both quotient curves have genus 0
    inv = surface_invariants(surface)
    assert (inv.chi, inv.k_squared, inv.euler) == (chi, 8 * chi, 4 * chi) == (1, 8, 4)
    assert inv.q == q == 0
    assert inv.p_g == chi - 1 + q == 0
    # a P^1 quotient with r branch points moves in a family of dimension r - 3
    assert kuranishi_dimension(surface).total == (r1 - 3) + (r2 - 3) == 0
    certificate = certify_degeneration(surface)
    assert certificate.passed and certificate.first_failure is None
    assert all(c.passed for c in certificate.conditions)
