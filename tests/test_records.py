"""Result records are named tuples: their fields, immutability, rendering
and repr.  The five stateful classes are plain classes that compare, hash
and print as the dataclasses they were."""

import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
from fractions import Fraction

import pytest

import isoprod
from isoprod.actions import EquivariantT1, QuotientSignature, RamificationOrbit
from isoprod.cli import _Command, _plain
from isoprod.curves import T1Breakdown
from isoprod.document import CurveNames
from isoprod.families import ConstancyReport, FamilyStratum, SmoothingChain, StratumValue
from isoprod.actions import CurveAction
from isoprod.curves import DualGraph
from isoprod.document import Document
from isoprod.groups import FiniteGroup, Orbit
from isoprod.surfaces import (
    CertificateCondition,
    SurfaceDescriptor,
    DegenerationCertificate,
    ElementFixedPoints,
    FreenessCheck,
    KuranishiDimension,
    SurfaceInvariants,
)

T1 = EquivariantT1(1, 1, 2, 4)
T1_PLAIN = {"node_inv": 1, "branch_inv": 1, "minus_chi_inv": 2, "total": 4}
T1_REPR = "EquivariantT1(node_inv=1, branch_inv=1, minus_chi_inv=2, total=4)"
CONDITION = CertificateCondition("free", "acts freely", "Prop. 2.1", True, "no witness")
CONDITION_PLAIN = {
    "key": "free",
    "description": "acts freely",
    "citation": "Prop. 2.1",
    "passed": True,
    "detail": "no witness",
}
CONDITION_REPR = (
    "CertificateCondition(key='free', description='acts freely', "
    "citation='Prop. 2.1', passed=True, detail='no witness')"
)
# a stand-in for the CurveAction a stratum holds: records check no types
STRATUM = FamilyStratum("step0", "action")


def _render(name, d):
    return []


def _compute(doc, name):
    return {}


# (record, its fields, its _plain form, its repr)
RECORDS = [
    (
        RamificationOrbit(0, 1, Fraction(1, 2), 2),
        ("vertex", "element", "char", "order"),
        {"vertex": 0, "element": 1, "char": "1/2", "order": 2},
        "RamificationOrbit(vertex=0, element=1, char=Fraction(1, 2), order=2)",
    ),
    (
        QuotientSignature(0, 1, 2, 2),
        ("representative", "g_prime", "b", "contribution"),
        {"representative": 0, "g_prime": 1, "b": 2, "contribution": 2},
        "QuotientSignature(representative=0, g_prime=1, b=2, contribution=2)",
    ),
    (T1, ("node_inv", "branch_inv", "minus_chi_inv", "total"), T1_PLAIN, T1_REPR),
    (
        T1Breakdown(1, 2, 3, 6),
        ("delta", "branch_term", "minus_chi", "total"),
        {"delta": 1, "branch_term": 2, "minus_chi": 3, "total": 6},
        "T1Breakdown(delta=1, branch_term=2, minus_chi=3, total=6)",
    ),
    (
        Orbit(0, (0, 1), (0,)),
        ("representative", "members", "stabilizer"),
        {"representative": 0, "members": [0, 1], "stabilizer": [0]},
        "Orbit(representative=0, members=(0, 1), stabilizer=(0,))",
    ),
    (
        STRATUM,
        ("label", "action"),
        {"label": "step0", "action": "action"},
        "FamilyStratum(label='step0', action='action')",
    ),
    (
        StratumValue("step1", 0, None, T1, None),
        ("label", "delta", "genus", "t1", "error"),
        {"label": "step1", "delta": 0, "genus": None, "t1": T1_PLAIN, "error": None},
        f"StratumValue(label='step1', delta=0, genus=None, t1={T1_REPR}, error=None)",
    ),
    (
        ConstancyReport(
            (StratumValue("a", 1, 3, None, "failed"),), "error", None, None, (("a", "b"),)
        ),
        ("strata", "verdict", "constant_value", "offending", "bound_violations"),
        {
            "strata": [
                {"label": "a", "delta": 1, "genus": 3, "t1": None, "error": "failed"}
            ],
            "verdict": "error",
            "constant_value": None,
            "offending": None,
            "bound_violations": [["a", "b"]],
        },
        "ConstancyReport(strata=(StratumValue(label='a', delta=1, genus=3, t1=None, "
        "error='failed'),), verdict='error', constant_value=None, offending=None, "
        "bound_violations=(('a', 'b'),))",
    ),
    (
        SmoothingChain((STRATUM,), ("stuck",)),
        ("strata", "obstructions"),
        {"strata": [{"label": "step0", "action": "action"}], "obstructions": ["stuck"]},
        "SmoothingChain(strata=(FamilyStratum(label='step0', action='action'),), "
        "obstructions=('stuck',))",
    ),
    (
        ElementFixedPoints(True, False),
        ("has_fixed_point", "fixes_component"),
        {"has_fixed_point": True, "fixes_component": False},
        "ElementFixedPoints(has_fixed_point=True, fixes_component=False)",
    ),
    (
        FreenessCheck(False, 1, "(0 1)"),
        ("passed", "witness", "witness_cycles"),
        {"passed": False, "witness": 1, "witness_cycles": "(0 1)"},
        "FreenessCheck(passed=False, witness=1, witness_cycles='(0 1)')",
    ),
    (
        SurfaceInvariants(Fraction(2), Fraction(16), Fraction(8), None, Fraction(7, 2)),
        ("chi", "k_squared", "euler", "q", "p_g"),
        {"chi": 2, "k_squared": 16, "euler": 8, "q": None, "p_g": "7/2"},
        "SurfaceInvariants(chi=Fraction(2, 1), k_squared=Fraction(16, 1), "
        "euler=Fraction(8, 1), q=None, p_g=Fraction(7, 2))",
    ),
    (
        KuranishiDimension(T1, T1, 8),
        ("factor1", "factor2", "total"),
        {"factor1": T1_PLAIN, "factor2": T1_PLAIN, "total": 8},
        f"KuranishiDimension(factor1={T1_REPR}, factor2={T1_REPR}, total=8)",
    ),
    (CONDITION, ("key", "description", "citation", "passed", "detail"), CONDITION_PLAIN,
     CONDITION_REPR),
    (
        DegenerationCertificate((CONDITION,), True, None),
        ("conditions", "passed", "first_failure"),
        {"conditions": [CONDITION_PLAIN], "passed": True, "first_failure": None},
        f"DegenerationCertificate(conditions=({CONDITION_REPR},), passed=True, "
        "first_failure=None)",
    ),
    (
        CurveNames(("v",), ("p", "q"), ()),
        ("vertices", "half_edges", "marks"),
        {"vertices": ["v"], "half_edges": ["p", "q"], "marks": []},
        "CurveNames(vertices=('v',), half_edges=('p', 'q'), marks=())",
    ),
    (
        _Command("help", "curves", ("curve",), _compute, _render),
        ("help", "section", "columns", "compute", "render", "outcome"),
        {
            "help": "help",
            "section": "curves",
            "columns": ["curve"],
            "compute": _compute,
            "render": _render,
            "outcome": _Command._field_defaults["outcome"],
        },
        None,  # holds functions: their repr carries an address
    ),
]
IDS = [type(record).__name__ for record, *_ in RECORDS]


def test_every_record_type_is_covered():
    assert len(set(IDS)) == len(IDS) == 17


@pytest.mark.parametrize(("record", "names", "plain", "text"), RECORDS, ids=IDS)
def test_record_fields_in_order(record, names, plain, text):
    assert type(record)._fields == names
    # a record unpacks, indexes and compares like the tuple of its values
    assert tuple(record) == tuple(getattr(record, name) for name in names)
    assert record[0] == getattr(record, names[0])
    assert record == tuple(record) and hash(record) == hash(tuple(record))


@pytest.mark.parametrize(("record", "names", "plain", "text"), RECORDS, ids=IDS)
def test_record_rejects_assignment(record, names, plain, text):
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.no_such_field = None


@pytest.mark.parametrize(("record", "names", "plain", "text"), RECORDS, ids=IDS)
def test_record_renders_field_by_field(record, names, plain, text):
    assert _plain(record) == plain
    assert list(_plain(record)) == list(names)
    if text is not None:
        assert repr(record) == text


def test_records_compare_and_dump_as_tuples():
    # named-tuple semantics, all intended: equal values make equal records
    # whatever their type, and a bare record dumps as a JSON list; the CLI
    # renders every machine block through _plain, never a bare record
    assert EquivariantT1(1, 2, 3, 6) == T1Breakdown(1, 2, 3, 6) == (1, 2, 3, 6)
    node_inv, branch_inv, minus_chi_inv, total = T1
    assert (node_inv, total) == (T1.node_inv, T1.total)
    assert json.dumps(T1) == "[1, 1, 2, 4]"
    assert json.dumps(_plain(T1), sort_keys=True) == json.dumps(T1_PLAIN, sort_keys=True)


def test_command_outcome_defaults_to_zero():
    command = _Command("help", "curves", ("curve",), _compute, _render)
    assert command.outcome({"anything": 1}) == 0


def test_ramification_orbits_sort_by_their_fields():
    half, third = Fraction(1, 2), Fraction(1, 3)
    given = [
        RamificationOrbit(1, 1, half, 2),
        RamificationOrbit(0, 2, third, 3),
        RamificationOrbit(0, 1, half, 2),
        RamificationOrbit(0, 1, third, 2),
        RamificationOrbit(0, 1, half, 1),
    ]
    assert sorted(given) == [
        RamificationOrbit(0, 1, third, 2),
        RamificationOrbit(0, 1, half, 1),
        RamificationOrbit(0, 1, half, 2),
        RamificationOrbit(0, 2, third, 3),
        RamificationOrbit(1, 1, half, 2),
    ]


def test_no_class_in_the_package_is_a_dataclass():
    # every import of the package would pay for the dataclasses module and
    # the inspect, ast and dis modules it loads
    found = set()
    for info in pkgutil.iter_modules(isoprod.__path__, "isoprod."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.add(cls.__name__)
    assert found == set()


# each stateful class as the dataclass it was: its fields in order, then
# any field left out of equality, hashing and repr, and whether it was frozen
DATACLASS_FORMS = {
    FiniteGroup: (("degree", "generators", "elements"), ("right",), True),
    DualGraph: (("genera", "half_edge_vertex", "edges", "marks"), (), True),
    CurveAction: (
        (
            "group", "graph", "vertex_perms", "half_edge_perms", "edge_perms", "tangent_chars",
            "smoothing_chars", "kernels", "ramification_orbits", "vertex_orbits",
            "half_edge_orbits", "edge_orbits",
        ),
        (),
        True,
    ),
    SurfaceDescriptor: (("factor1", "factor2", "declared_minimal"), (), True),
    Document: (
        (
            "version", "group", "curves", "curve_names", "actions", "action_curve", "surfaces",
            "surface_factors", "families",
        ),
        (),
        False,
    ),
}
STATEFUL_IDS = [cls.__name__ for cls in DATACLASS_FORMS]


@functools.cache
def _dataclass_form(cls):
    """A dataclass of ``cls``'s name in its former form."""
    compared, hidden, frozen = DATACLASS_FORMS[cls]
    fields = [(name, object) for name in compared]
    fields += [(name, object, dataclasses.field(compare=False, repr=False)) for name in hidden]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=frozen)


def _as_dataclass(obj):
    """``obj``'s field values in its class's former dataclass form."""
    compared, hidden, _ = DATACLASS_FORMS[type(obj)]
    return _dataclass_form(type(obj))(*(getattr(obj, name) for name in compared + hidden))


def _hash(obj):
    """``hash(obj)``, or the error it raises (a field may be unhashable)."""
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def _samples(doc, cls):
    """At least two unequal instances of ``cls`` from the bundled document."""
    if cls is FiniteGroup:
        z3 = FiniteGroup.from_generators([[1, 2, 0]], 3)
        # the same group with another ``right`` table: equal, as before
        return [doc.group, z3, z3._replace(right=((0,), (0,), (0,)))]
    if cls is Document:
        return [doc, doc._replace(families={})]
    table = {DualGraph: doc.curves, CurveAction: doc.actions, SurfaceDescriptor: doc.surfaces}
    samples = list(table[cls].values())
    if cls is SurfaceDescriptor:
        samples.append(samples[0]._replace(declared_minimal=False))
    return samples


@pytest.mark.parametrize("cls", DATACLASS_FORMS, ids=STATEFUL_IDS)
def test_stateful_class_compares_hashes_and_prints_as_its_dataclass(golden_doc, cls):
    samples = _samples(golden_doc, cls)
    samples += [obj._replace() for obj in samples]
    forms = list(map(_as_dataclass, samples))
    for obj, form in zip(samples, forms):
        assert repr(obj) == repr(form)
        assert _hash(obj) == _hash(form)
        for other, other_form in zip(samples, forms):
            assert (obj == other) is (form == other_form)
            assert (obj != other) is (form != other_form)
        assert obj.__eq__(form) is NotImplemented and obj != form
        assert obj != 5


def test_small_group_and_graph_reprs(z2, nodal_quartic_graph):
    assert repr(z2) == "FiniteGroup(degree=2, generators=((1, 0),), elements=((0, 1), (1, 0)))"
    assert repr(nodal_quartic_graph) == (
        "DualGraph(genera=(2,), half_edge_vertex=(0, 0), edges=((0, 1),), marks=())"
    )


FROZEN = [cls for cls, (_, _, frozen) in DATACLASS_FORMS.items() if frozen]


@pytest.mark.parametrize("cls", FROZEN, ids=[cls.__name__ for cls in FROZEN])
def test_frozen_stateful_class_rejects_assignment(golden_doc, cls):
    obj = _samples(golden_doc, cls)[0]
    compared, hidden, _ = DATACLASS_FORMS[cls]
    before = dict(vars(obj))
    for name in compared + hidden + ("no_such_field",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
    assert vars(obj) == before


def test_document_stays_mutable(golden_doc):
    doc = golden_doc._replace()
    doc.version = "2"
    assert doc.version == "2" and golden_doc.version == "1" and doc != golden_doc
    assert Document("1", golden_doc.group).curves == {}
    # each default is a new dict
    assert Document("1", golden_doc.group).curves is not Document("1", golden_doc.group).curves


# the kept facts (``_value.kept``) each class keeps once computed
KEPT = {
    FiniteGroup: (),
    DualGraph: ("components", "vertex_half_edges", "vertex_marks", "arithmetic_genus"),
    CurveAction: ("fixed_point_sets", "quotient_signatures", "t1_equivariant"),
    SurfaceDescriptor: ("free_action", "free_codim1"),
    Document: (),
}
# a group's lookup caches, each with its value when nothing is kept
GROUP_CACHES = {
    "_inverse": {0: 0}, "_conjugation": {}, "_subgroup_classes": None, "_cycles": {}
}


@pytest.mark.parametrize("cls", DATACLASS_FORMS, ids=STATEFUL_IDS)
def test_kept_values_stay_out_of_equality_hash_and_repr(golden_doc, cls):
    for obj in _samples(golden_doc, cls)[:2]:  # a real group's caches, not a made-up table's
        fresh = obj._replace()
        assert fresh is not obj and type(fresh) is cls
        for name in KEPT[cls]:
            getattr(obj, name)
            assert name in vars(obj) and name not in vars(fresh)
        if cls is FiniteGroup:
            obj.inverse(obj.order - 1)
            obj.cyclic_subgroup_classes()
            obj.element_order(obj.order - 1)
            for name, empty in GROUP_CACHES.items():
                assert vars(obj)[name] != empty and vars(fresh)[name] == empty
        assert fresh == obj and obj == fresh
        assert repr(fresh) == repr(obj) == repr(_as_dataclass(obj))
        assert _hash(fresh) == _hash(obj) == _hash(_as_dataclass(obj))


def test_replace_changes_only_the_given_fields(golden_doc):
    surface = golden_doc.surfaces["central_fiber"]
    changed = surface._replace(declared_minimal=False)
    assert (changed.factor1, changed.factor2) == (surface.factor1, surface.factor2)
    assert changed.declared_minimal is False and changed != surface
    group = golden_doc.group
    assert group._replace().right is group.right
    with pytest.raises(TypeError):
        surface._replace(no_such_field=1)
