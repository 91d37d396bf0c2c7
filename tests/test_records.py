"""Result records are named tuples: their fields, immutability, rendering
and repr, and which classes of the package stay dataclasses."""

import dataclasses
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
from isoprod.groups import Orbit
from isoprod.surfaces import (
    CertificateCondition,
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


def test_only_the_stateful_classes_are_dataclasses():
    # a dataclass is kept only where a record needs what a named tuple lacks:
    # cached_property, __post_init__, field(compare=False), default_factory
    found = set()
    for info in pkgutil.iter_modules(isoprod.__path__, "isoprod."):
        module = importlib.import_module(info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.add(cls.__name__)
    assert found == {"CurveAction", "DualGraph", "FiniteGroup", "SurfaceDescriptor", "Document"}
