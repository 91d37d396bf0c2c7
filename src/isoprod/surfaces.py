"""Surfaces isogenous to a product and their stable degenerations.

A surface descriptor is a pair of curve actions over one group (the group
acting diagonally on the product).  Freeness checks reduce to fixed-point
bookkeeping on the factors, numerical invariants follow from the unramified
cover by the product, and the degeneration certificate records the chain of
reductions that make the quotient of a product of stable curves a stable
surface: freeness in codimension one plus standard descent results, each
condition carrying its citation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .actions import (
    CurveAction,
    EquivariantT1,
    quotient_signature,
    t1_equivariant,
)
from .curves import arithmetic_genus
from .errors import SurfaceError
from .groups import format_perm


@dataclass(frozen=True)
class SurfaceDescriptor:
    """A product-quotient surface (C1 x C2)/G given by its two factors.

    ``declared_minimal`` records that the realization is the minimal one;
    minimality itself is not re-verified (it needs curve isomorphism data
    beyond the combinatorial model).
    """

    factor1: CurveAction
    factor2: CurveAction
    declared_minimal: bool = True


@dataclass(frozen=True)
class ElementFixedPoints:
    has_fixed_point: bool
    fixes_component: bool


@dataclass(frozen=True)
class FreenessCheck:
    passed: bool
    witness: int | None
    witness_cycles: str | None


@dataclass(frozen=True)
class SurfaceInvariants:
    """chi = (g1-1)(g2-1)/|G|, K^2 = 8 chi, e = 4 chi; q and p_g only for
    smooth factors (None means "not computed" for nodal central fibers)."""

    chi: Fraction
    k_squared: Fraction
    euler: Fraction
    q: int | None
    p_g: Fraction | None


@dataclass(frozen=True)
class KuranishiDimension:
    factor1: EquivariantT1
    factor2: EquivariantT1
    total: int


@dataclass(frozen=True)
class CertificateCondition:
    key: str
    description: str
    citation: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class DegenerationCertificate:
    conditions: tuple[CertificateCondition, ...]
    passed: bool
    first_failure: str | None


def build_surface(
    factor1: CurveAction, factor2: CurveAction, declared_minimal: bool = True
) -> SurfaceDescriptor:
    """Validate the pair: one shared group, connected stable factors of genus >= 2."""
    if factor1.group != factor2.group:
        raise SurfaceError("both factors must carry the identical group")
    for label, action in (("factor1", factor1), ("factor2", factor2)):
        if len(action.graph.components) > 1:
            raise SurfaceError(f"{label}: factor curve must be connected")
        g = arithmetic_genus(action.graph)
        if g < 2:
            raise SurfaceError(
                f"{label}: arithmetic genus {g} < 2; factors must be curves of "
                "genus two or higher"
            )
    return SurfaceDescriptor(factor1, factor2, declared_minimal)


def _fixed_point_sets(action: CurveAction) -> tuple[frozenset[int], frozenset[int]]:
    """(elements with a fixed point, elements fixing a whole component).

    An element fixes a point exactly when it lies in a kernel, in a
    conjugate of a half-edge or edge stabilizer, or in a conjugate of a
    ramification orbit's point stabilizer (generated by the orbit's element
    and the component's kernel).  Kernels are permuted by conjugation, so
    one conjugacy closure of all these subgroups gives the first set:
    O(|G| * gens) group products.  Computed once per action and kept on it;
    the freeness checks and :func:`fixed_point_profile` read it.  Both sets
    may hold the identity, which every reader skips.
    """
    try:
        return action._fixed_point_sets
    except AttributeError:
        pass
    group = action.group
    fixes_component = frozenset().union(*action.kernels)
    seeds = set(fixes_component)
    for orbit in action.half_edge_orbits + action.edge_orbits:
        seeds.update(orbit.stabilizer)
    for o in action.ramification_orbits:
        seeds |= group.subgroup_closure([o.element, *action.kernels[o.vertex]])
    sets = (group.conjugacy_union(seeds), fixes_component)
    object.__setattr__(action, "_fixed_point_sets", sets)
    return sets


def fixed_point_profile(action: CurveAction) -> dict[int, ElementFixedPoints]:
    """For each nonidentity element: does it fix a point / a whole component.

    A fixed point arises from membership in a conjugate of a ramification
    orbit's point stabilizer, a fixed half-edge, a fixed node, or a kernel.
    """
    has_fixed_point, fixes_component = _fixed_point_sets(action)
    return {
        g: ElementFixedPoints(g in has_fixed_point, g in fixes_component)
        for g in range(1, action.group.order)
    }


def _first_witness(surface: SurfaceDescriptor, offenders: frozenset[int]) -> FreenessCheck:
    """Passed when no nonidentity element offends; else the least one."""
    g = min((g for g in offenders if g), default=None)
    if g is None:
        return FreenessCheck(True, None, None)
    return FreenessCheck(False, g, format_perm(surface.factor1.group.elements[g]))


def check_free_action(surface: SurfaceDescriptor) -> FreenessCheck:
    """Free on the product: no g != e with fixed points on both factors.

    Reads the two factors' fixed-point sets: one set intersection.
    """
    fp1, _ = _fixed_point_sets(surface.factor1)
    fp2, _ = _fixed_point_sets(surface.factor2)
    return _first_witness(surface, fp1 & fp2)


def check_free_codim1(surface: SurfaceDescriptor) -> FreenessCheck:
    """Free in codimension 1: no g != e fixing a curve on the product.

    A 1-dimensional fixed locus needs a pointwise-fixed component on one
    factor times a nonempty fixed set on the other, in either order.
    Reads the two factors' fixed-point sets.
    """
    fp1, fc1 = _fixed_point_sets(surface.factor1)
    fp2, fc2 = _fixed_point_sets(surface.factor2)
    return _first_witness(surface, (fc1 & fp2) | (fc2 & fp1))


def surface_invariants(surface: SurfaceDescriptor) -> SurfaceInvariants:
    """Numerical invariants of the free quotient (C1 x C2)/G.

    chi must come out integral when the action is genuinely free; a
    non-integral value means the freeness data was inconsistent.  For nodal
    factors the irregularity is not computed.
    """
    free = check_free_action(surface)
    if not free.passed:
        raise SurfaceError(
            "surface invariants require a free action; element "
            f"{free.witness} = {free.witness_cycles} has fixed points on both factors"
        )
    g1 = arithmetic_genus(surface.factor1.graph)
    g2 = arithmetic_genus(surface.factor2.graph)
    order = surface.factor1.group.order
    chi = Fraction((g1 - 1) * (g2 - 1), order)
    if chi.denominator != 1:
        raise SurfaceError(
            f"inconsistent action data: (g1-1)(g2-1) = {(g1 - 1) * (g2 - 1)} is "
            f"not divisible by |G| = {order} although the action checks as free"
        )
    q = None
    if surface.factor1.graph.n_edges == 0 and surface.factor2.graph.n_edges == 0:
        q = (
            quotient_signature(surface.factor1, 0).g_prime
            + quotient_signature(surface.factor2, 0).g_prime
        )
    p_g = chi - 1 + q if q is not None else None
    return SurfaceInvariants(chi, 8 * chi, 4 * chi, q, p_g)


def kuranishi_dimension(surface: SurfaceDescriptor) -> KuranishiDimension:
    """Dimension of the product of the two pairs' deformation spaces.

    Requires freeness in codimension 1 (the central fibers of the stable
    degeneration theory); a genuinely free action passes a fortiori.
    """
    codim1 = check_free_codim1(surface)
    if not codim1.passed:
        raise SurfaceError(
            "kuranishi dimension requires an action free in codimension 1; "
            f"element {codim1.witness} = {codim1.witness_cycles} fixes a curve "
            "on the product"
        )
    t1_1 = t1_equivariant(surface.factor1)
    t1_2 = t1_equivariant(surface.factor2)
    return KuranishiDimension(t1_1, t1_2, t1_1.total + t1_2.total)


def certify_degeneration(surface: SurfaceDescriptor) -> DegenerationCertificate:
    """Checklist certifying that the quotient of the product is a stable surface.

    The certificate mirrors the reduction: structural validity of the
    factors, freeness in codimension 1, then the cited descent results
    (Q-Gorenstein, normal crossings in codimension 1, ampleness of the
    relative canonical sheaf).  Failures are reported in-band with the
    first failing group element.
    """
    f1, f2 = surface.factor1, surface.factor2
    g1 = arithmetic_genus(f1.graph)
    g2 = arithmetic_genus(f2.graph)
    stable_factors = g1 >= 2 and g2 >= 2  # vertexwise stability held at build time
    codim1 = check_free_codim1(surface)

    conditions = [
        CertificateCondition(
            key="stable-factors",
            description="both factors are stable curves with an action of one group",
            citation="properness of the moduli of stable curves with group action",
            passed=stable_factors,
            detail=f"arithmetic genera ({g1}, {g2})",
        ),
        CertificateCondition(
            key="free-in-codim-1",
            description="no nonidentity element fixes a curve on the product",
            citation="quotient morphism etale in codimension one",
            passed=codim1.passed,
            detail=(
                "fixed loci have codimension >= 2"
                if codim1.passed
                else f"element {codim1.witness} = {codim1.witness_cycles} fixes a curve"
            ),
        ),
        CertificateCondition(
            key="q-gorenstein",
            description="the quotient is Q-Gorenstein",
            citation=(
                "finite quotients etale in codimension one are Q-Gorenstein "
                "(Kollar-Mori, Prop. 5.20)"
            ),
            passed=codim1.passed,
            detail="follows from free-in-codim-1",
        ),
        CertificateCondition(
            key="normal-crossings-codim-1",
            description="normal crossings in codimension one survive the quotient",
            citation=(
                "finite quotients preserve normal crossings in codimension one "
                "(Cor. 1.7)"
            ),
            passed=codim1.passed,
            detail="follows from free-in-codim-1",
        ),
        CertificateCondition(
            key="relative-canonical-ample",
            description="the relative canonical sheaf descends and stays ample",
            citation=(
                "ampleness descends along finite quotient maps unramified in "
                "codimension one"
            ),
            passed=stable_factors,
            detail="theorem-backed: stability of the factors with genus >= 2",
        ),
    ]
    passed = all(c.passed for c in conditions)
    first_failure = next((c.key for c in conditions if not c.passed), None)
    return DegenerationCertificate(tuple(conditions), passed, first_failure)
