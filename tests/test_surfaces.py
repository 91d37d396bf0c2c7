import random
from fractions import Fraction

import pytest

from isoprod.actions import (
    RamificationOrbit,
    trivial_action,
    validate_action,
)
from isoprod.curves import build_graph
from isoprod.errors import SurfaceError
from isoprod.groups import FiniteGroup, perm_from_cycles
from isoprod.surfaces import (
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
