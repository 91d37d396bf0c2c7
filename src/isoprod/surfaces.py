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

from fractions import Fraction
from typing import NamedTuple

from ._value import _Frozen, kept
from .actions import CurveAction, EquivariantT1
from .errors import SurfaceError


class SurfaceDescriptor(_Frozen):
    """A product-quotient surface (C1 x C2)/G given by its two factors.

    ``declared_minimal`` (a bool, else SurfaceError) records that the
    realization is the minimal one; minimality itself is not re-verified
    (it needs curve isomorphism data beyond the combinatorial model).

    Its freeness checks ``free_action`` and ``free_codim1`` are kept on first use.
    """

    factor1: CurveAction
    factor2: CurveAction
    declared_minimal: bool

    def __init__(self, factor1, factor2, declared_minimal=True):
        for label, action in (("factor1", factor1), ("factor2", factor2)):
            if not isinstance(action, CurveAction):
                raise SurfaceError(f"{label}: not a CurveAction: {type(action).__name__}")
        if type(declared_minimal) is not bool:  # a document keeps only true or false
            raise SurfaceError(f"declared_minimal must be a bool, got {declared_minimal!r}")
        self.__dict__.update(
            factor1=factor1, factor2=factor2, declared_minimal=declared_minimal
        )

    @kept
    def free_action(self) -> FreenessCheck:
        fp1, _ = self.factor1.fixed_point_sets
        fp2, _ = self.factor2.fixed_point_sets
        return _first_witness(self, fp1 & fp2)

    @kept
    def free_codim1(self) -> FreenessCheck:
        fp1, fc1 = self.factor1.fixed_point_sets
        fp2, fc2 = self.factor2.fixed_point_sets
        return _first_witness(self, (fc1 & fp2) | (fc2 & fp1))


class ElementFixedPoints(NamedTuple):
    has_fixed_point: bool
    fixes_component: bool


class FreenessCheck(NamedTuple):
    passed: bool
    witness: int | None
    witness_cycles: str | None


class SurfaceInvariants(NamedTuple):
    """chi = (g1-1)(g2-1)/|G|, K^2 = 8 chi, e = 4 chi; q and p_g only for
    smooth factors (None means "not computed" for nodal central fibers)."""

    chi: Fraction
    k_squared: Fraction
    euler: Fraction
    q: int | None
    p_g: Fraction | None


class KuranishiDimension(NamedTuple):
    factor1: EquivariantT1
    factor2: EquivariantT1
    total: int


class CertificateCondition(NamedTuple):
    key: str
    description: str
    citation: str
    passed: bool
    detail: str


class DegenerationCertificate(NamedTuple):
    conditions: tuple[CertificateCondition, ...]
    passed: bool
    first_failure: str | None


def build_surface(
    factor1: CurveAction, factor2: CurveAction, declared_minimal: bool = True
) -> SurfaceDescriptor:
    """Validate the pair: one shared group, connected stable factors of genus >= 2."""
    surface = SurfaceDescriptor(factor1, factor2, declared_minimal)  # checks the types
    if factor1.group != factor2.group:
        raise SurfaceError("both factors must carry the identical group")
    for label, action in (("factor1", factor1), ("factor2", factor2)):
        if len(action.graph.components) > 1:
            raise SurfaceError(f"{label}: factor curve must be connected")
        g = action.graph.arithmetic_genus
        if g < 2:
            raise SurfaceError(
                f"{label}: arithmetic genus {g} < 2; factors must be curves of "
                "genus two or higher"
            )
    return surface


def fixed_point_profile(action: CurveAction) -> dict[int, ElementFixedPoints]:
    """For each nonidentity element: does it fix a point / a whole component.

    A fixed point arises from membership in a conjugate of a ramification
    orbit's point stabilizer, a fixed half-edge, a fixed node, or a kernel.
    Each value is one of the four possible records, built once per call.
    """
    if not isinstance(action, CurveAction):
        raise SurfaceError(f"not a CurveAction: {type(action).__name__}")
    has_fixed_point, fixes_component = action.fixed_point_sets
    records = {(a, b): ElementFixedPoints(a, b) for a in (False, True) for b in (False, True)}
    return {
        g: records[g in has_fixed_point, g in fixes_component]
        for g in range(1, action.group.order)
    }


_PASSED = FreenessCheck(True, None, None)


def _first_witness(surface: SurfaceDescriptor, offenders: frozenset[int]) -> FreenessCheck:
    """Passed when no nonidentity element offends; else the least one."""
    offenders = offenders - {0}
    if not offenders:
        return _PASSED
    g = min(offenders)
    return FreenessCheck(False, g, surface.factor1.group.element_cycles(g))


def check_free_action(surface: SurfaceDescriptor) -> FreenessCheck:
    """Free on the product: no g != e with fixed points on both factors.

    Reads the two factors' fixed-point sets: one set intersection, kept.
    """
    if not isinstance(surface, SurfaceDescriptor):
        raise SurfaceError(f"not a SurfaceDescriptor: {type(surface).__name__}")
    return surface.free_action


def check_free_codim1(surface: SurfaceDescriptor) -> FreenessCheck:
    """Free in codimension 1: no g != e fixing a curve on the product.

    A 1-dimensional fixed locus needs a pointwise-fixed component on one
    factor times a nonempty fixed set on the other, in either order.
    Reads the two factors' fixed-point sets, once per surface.
    """
    if not isinstance(surface, SurfaceDescriptor):
        raise SurfaceError(f"not a SurfaceDescriptor: {type(surface).__name__}")
    return surface.free_codim1


def surface_invariants(surface: SurfaceDescriptor) -> SurfaceInvariants:
    """Numerical invariants of the free quotient (C1 x C2)/G.

    chi must come out integral when the action is genuinely free; a
    non-integral value means the freeness data was inconsistent.  For nodal
    factors the irregularity is not computed.
    """
    if not isinstance(surface, SurfaceDescriptor):
        raise SurfaceError(f"not a SurfaceDescriptor: {type(surface).__name__}")
    free = surface.free_action
    if not free.passed:
        raise SurfaceError(
            "surface invariants require a free action; element "
            f"{free.witness} = {free.witness_cycles} has fixed points on both factors"
        )
    f1, f2 = surface.factor1, surface.factor2
    product = (f1.graph.arithmetic_genus - 1) * (f2.graph.arithmetic_genus - 1)
    order = f1.group.order
    chi, rest = divmod(product, order)
    if rest:
        raise SurfaceError(
            f"inconsistent action data: (g1-1)(g2-1) = {product} is "
            f"not divisible by |G| = {order} although the action checks as free"
        )
    if f1.graph.n_edges == 0 and f2.graph.n_edges == 0:
        q = f1.quotient_signatures[0].g_prime + f2.quotient_signatures[0].g_prime
        p_g = Fraction(chi - 1 + q)
    else:
        q = p_g = None
    return SurfaceInvariants(Fraction(chi), Fraction(8 * chi), Fraction(4 * chi), q, p_g)


def kuranishi_dimension(surface: SurfaceDescriptor) -> KuranishiDimension:
    """Dimension of the product of the two pairs' deformation spaces.

    Requires freeness in codimension 1 (the central fibers of the stable
    degeneration theory); a genuinely free action passes a fortiori.
    """
    if not isinstance(surface, SurfaceDescriptor):
        raise SurfaceError(f"not a SurfaceDescriptor: {type(surface).__name__}")
    codim1 = surface.free_codim1
    if not codim1.passed:
        raise SurfaceError(
            "kuranishi dimension requires an action free in codimension 1; "
            f"element {codim1.witness} = {codim1.witness_cycles} fixes a curve "
            "on the product"
        )
    t1_1 = surface.factor1.t1_equivariant
    t1_2 = surface.factor2.t1_equivariant
    return KuranishiDimension(t1_1, t1_2, t1_1.total + t1_2.total)


# key, description and citation of each certificate condition, in order
_STABLE_FACTORS, _FREE_IN_CODIM_1, _Q_GORENSTEIN, _NORMAL_CROSSINGS, _AMPLE = (
    ("stable-factors", "both factors are stable curves with an action of one group",
     "properness of the moduli of stable curves with group action"),
    ("free-in-codim-1", "no nonidentity element fixes a curve on the product",
     "quotient morphism etale in codimension one"),
    ("q-gorenstein", "the quotient is Q-Gorenstein",
     "finite quotients etale in codimension one are Q-Gorenstein (Kollar-Mori, Prop. 5.20)"),
    ("normal-crossings-codim-1", "normal crossings in codimension one survive the quotient",
     "finite quotients preserve normal crossings in codimension one (Cor. 1.7)"),
    ("relative-canonical-ample", "the relative canonical sheaf descends and stays ample",
     "ampleness descends along finite quotient maps unramified in codimension one"),
)
# the records that depend on the pair only through a verdict, indexed by it
_FOLLOWS = "follows from free-in-codim-1"
_CODIM1_HOLDS = CertificateCondition(*_FREE_IN_CODIM_1, True, "fixed loci have codimension >= 2")
_FOLLOW_CODIM1 = [
    (CertificateCondition(*_Q_GORENSTEIN, v, _FOLLOWS),
     CertificateCondition(*_NORMAL_CROSSINGS, v, _FOLLOWS))
    for v in (False, True)
]
_FOLLOW_STABLE = [
    CertificateCondition(*_AMPLE, v, "theorem-backed: stability of the factors with genus >= 2")
    for v in (False, True)
]


def certify_degeneration(surface: SurfaceDescriptor) -> DegenerationCertificate:
    """Checklist certifying that the quotient of the product is a stable surface.

    The certificate mirrors the reduction: structural validity of the
    factors, freeness in codimension 1, then the cited descent results
    (Q-Gorenstein, normal crossings in codimension 1, ampleness of the
    relative canonical sheaf).  Failures are reported in-band with the
    first failing group element.  Only the genera's record and a failing
    witness's record are built per call; the others are shared constants.
    """
    if not isinstance(surface, SurfaceDescriptor):
        raise SurfaceError(f"not a SurfaceDescriptor: {type(surface).__name__}")
    g1 = surface.factor1.graph.arithmetic_genus
    g2 = surface.factor2.graph.arithmetic_genus
    stable = g1 >= 2 and g2 >= 2  # vertexwise stability held at build time
    codim1 = surface.free_codim1
    codim1_free = codim1.passed
    conditions = (
        CertificateCondition(*_STABLE_FACTORS, stable, f"arithmetic genera ({g1}, {g2})"),
        _CODIM1_HOLDS if codim1_free else CertificateCondition(
            *_FREE_IN_CODIM_1, False,
            f"element {codim1.witness} = {codim1.witness_cycles} fixes a curve",
        ),
        *_FOLLOW_CODIM1[codim1_free],
        _FOLLOW_STABLE[stable],
    )
    first_failure = "stable-factors" if not stable else (None if codim1_free else "free-in-codim-1")
    return DegenerationCertificate(conditions, stable and codim1_free, first_failure)
