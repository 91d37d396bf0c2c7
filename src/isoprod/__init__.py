"""Exact deformation-space dimensions for stable curves with finite group
actions, and stable degenerations of product-quotient surfaces.

Everything is exact: permutations, integers, and rational rotation
characters; no floating point anywhere.

``Document``, ``emit_document`` and ``parse_document`` are resolved on first
access, so a plain ``import isoprod`` does not load the document layer.  The
package imports nothing outside the standard library.
"""

from .actions import (
    CurveAction,
    EquivariantT1,
    QuotientSignature,
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
from .curves import (
    DualGraph,
    T1Breakdown,
    arithmetic_genus,
    build_graph,
    t1_dimension,
)
from .errors import (
    ActionError,
    CharacterError,
    DocumentError,
    FamilyError,
    GraphError,
    GroupError,
    IsoprodError,
    RamificationError,
    SmoothingError,
    SurfaceError,
)
from .families import (
    ConstancyReport,
    FamilyStratum,
    SmoothingChain,
    check_constancy,
    smooth_node_orbit,
    smoothing_chain,
)
from .groups import (
    DEFAULT_GROUP_CAP,
    FiniteGroup,
    Orbit,
    invariant_dimension_trace,
    orbits,
    perm_from_cycles,
)
from .surfaces import (
    DegenerationCertificate,
    SurfaceDescriptor,
    SurfaceInvariants,
    build_surface,
    certify_degeneration,
    check_free_action,
    check_free_codim1,
    fixed_point_profile,
    kuranishi_dimension,
    surface_invariants,
)

__version__ = "0.1.0"

_DOCUMENT_NAMES = frozenset({"Document", "emit_document", "parse_document"})


def __getattr__(name: str):
    # not cached in the package globals: a caller that rebinds an attribute
    # of ``isoprod.document`` (a tracer, a mock) is seen on every access
    if name in _DOCUMENT_NAMES:
        from . import document

        return getattr(document, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ActionError",
    "CharacterError",
    "ConstancyReport",
    "CurveAction",
    "DEFAULT_GROUP_CAP",
    "DegenerationCertificate",
    "Document",
    "DocumentError",
    "DualGraph",
    "EquivariantT1",
    "FamilyError",
    "FamilyStratum",
    "FiniteGroup",
    "GraphError",
    "GroupError",
    "IsoprodError",
    "Orbit",
    "QuotientSignature",
    "RamificationError",
    "RamificationOrbit",
    "SmoothingChain",
    "SmoothingError",
    "SurfaceDescriptor",
    "SurfaceError",
    "SurfaceInvariants",
    "T1Breakdown",
    "arithmetic_genus",
    "branch_invariants",
    "build_graph",
    "build_surface",
    "certify_degeneration",
    "check_constancy",
    "check_free_action",
    "check_free_codim1",
    "emit_document",
    "fixed_point_profile",
    "inert_action",
    "invariant_dimension_trace",
    "kuranishi_dimension",
    "node_invariants",
    "orbits",
    "parse_document",
    "perm_from_cycles",
    "quotient_signature",
    "quotient_signatures",
    "smooth_node_orbit",
    "smoothing_chain",
    "surface_invariants",
    "t1_dimension",
    "t1_equivariant",
    "t1_equivariant_oracle",
    "trivial_action",
    "validate_action",
]
