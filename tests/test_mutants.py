"""Executable mutants: each row edits one node of a library function's AST,
compiles the edited source in process and installs it under every name that
binds the original, and asserts that the row's property check fails with
the mutant and passes without it: a failed assertion, or a package error
on the check's corpus, which is valid input.  No file is written and no
subprocess is started.

A row whose mutant no check can kill is recorded as equivalent, with the
argument; its check must pass with the mutant installed too, so a change
that makes the mutant observable fails here and the row is revisited.
"""

import __future__

import ast
import copy
import inspect
import random
import sys
import textwrap
from typing import Callable, NamedTuple

import pytest

import isoprod.actions
import isoprod.families
import isoprod.groups
import reference_seed
from isoprod._value import kept
from isoprod.actions import CurveAction, t1_equivariant, t1_equivariant_oracle
from isoprod.errors import IsoprodError
from isoprod.families import smooth_node_orbit, smoothable_edge_orbits, smoothing_chain
from isoprod.groups import OrbitTable
from isoprod.surfaces import fixed_point_profile
from randgen import catalog, random_action
from test_acceptance import assert_revalidates
from test_seed_differential import kernel_ramified_actions_match_seed


def chain_strata_match_seed():
    # every stratum of the chains of a seeded catalog corpus (swap-model
    # ramification orbits among them) and the kernel-carrying roots
    kernel_ramified_actions_match_seed()
    rng = random.Random(5)
    for group in catalog()[1:]:
        for _ in range(4):
            for stratum in smoothing_chain(random_action(group, rng)).strata:
                action = stratum.action
                assert fixed_point_profile(action) == reference_seed.fixed_point_profile(action)


def oracle_agrees():
    rng = random.Random(777)
    for _ in range(40):
        action = random_action(rng.choice(catalog()), rng)
        assert t1_equivariant(action) == t1_equivariant_oracle(action)


def smoothings_revalidate():
    rng = random.Random(555)
    for _ in range(30):
        action = random_action(rng.choice(catalog()), rng)
        for orbit, obstruction in smoothable_edge_orbits(action):
            if obstruction is None:
                assert_revalidates(smooth_node_orbit(action, orbit.representative))


class Mutant(NamedTuple):
    name: str
    owner: object  # the module or class whose attribute is the target
    attribute: str
    old: str  # the one AST node replaced, as source
    new: str
    check: Callable[[], None]
    equivalent: str | None = None  # why no check can kill it


MUTANTS = [
    Mutant(
        "the coset walk stops one power early", CurveAction, "fixed_point_sets",
        "x not in kernel", "group.mul(x, o.element) not in kernel",
        kernel_ramified_actions_match_seed,
    ),
    Mutant(
        "the coset walk trusts the declared order, not the action's kernel",
        CurveAction, "fixed_point_sets",
        """
        while x not in kernel:
            seeds.update(group.products(kernel, x))
            x = group.mul(x, o.element)
        """,
        """
        for _ in range(1, o.order):
            seeds.update(group.products(kernel, x))
            x = group.mul(x, o.element)
        """,
        chain_strata_match_seed,
        equivalent=(
            "validate_action checks that the declared order is h's order modulo the "
            "kernel, and a smoothing step keeps it so: every vertex a smoothable node "
            "touches has a trivial kernel (a kernel fixes the node's branches with "
            "character 0, which none of the three local models allows on a nontrivial "
            "element), so a merged class's kernel, their intersection, is trivial as "
            "each part's was, other vertices keep their kernels, and a swap orbit's "
            "involution has order 2 over a trivial kernel.  Revisit when nodes with a "
            "kernel smooth (ROADMAP item 18)."
        ),
    ),
    Mutant(
        "two orbits' stabilizer ids swapped in the orbits fill", isoprod.groups, "orbits",
        "OrbitTable(orbit_of, reps, ids, stabilizers, members)",
        "OrbitTable(orbit_of, reps, ids[1::-1] + ids[2:], stabilizers, members)",
        oracle_agrees,
    ),
    Mutant(
        "two orbits' stabilizer ids swapped in OrbitTable.restrict", OrbitTable, "restrict",
        "OrbitTable(orbit_of, reps, ids, stabilizers)",
        "OrbitTable(orbit_of, reps, ids[1::-1] + ids[2:], stabilizers)",
        smoothings_revalidate,
    ),
    Mutant(
        "the smoothed edge orbit is kept", isoprod.families, "smooth_node_orbit",
        "action.smoothing_chars.restrict(*edges, (i,))",
        "action.smoothing_chars.restrict(*edges, ())",
        smoothings_revalidate,
    ),
]


def _fragment(source: str) -> ast.AST:
    node = ast.parse(textwrap.dedent(source).strip()).body[0]
    return node.value if isinstance(node, ast.Expr) else node


class _Replace(ast.NodeTransformer):
    """Replaces every node that dumps like ``old`` by a copy of ``new``."""

    def __init__(self, old: ast.AST, new: ast.AST):
        self.old, self.new, self.hits = ast.dump(old), new, 0

    def visit(self, node):
        if ast.dump(node) == self.old:
            self.hits += 1
            return ast.copy_location(copy.deepcopy(self.new), node)
        return self.generic_visit(node)


def compiled_mutant(function, old: str, new: str):
    """``function`` with its one node ``old`` replaced by ``new``, compiled
    from its source with the globals of its module and line numbers of its
    file; decorators are dropped, the caller re-wraps."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    tree.body[0].decorator_list = []
    edit = _Replace(_fragment(old), _fragment(new))
    tree = ast.fix_missing_locations(edit.visit(tree))
    assert edit.hits == 1, f"{old!r} occurs {edit.hits} times in {function.__qualname__}"
    ast.increment_lineno(tree, function.__code__.co_firstlineno - 1)
    code = compile(tree, inspect.getsourcefile(function), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(function.__globals__)
    exec(code, namespace)
    return namespace[function.__name__]


def install(monkeypatch, mutant: Mutant) -> None:
    """Installs the row's mutant: on its class, or under every module name
    that binds the module-level function (``orbits`` is bound in ``groups``,
    ``actions``, the package and test modules alike)."""
    target = vars(mutant.owner)[mutant.attribute]
    function = target.compute if isinstance(target, kept) else target
    edited = compiled_mutant(function, mutant.old, mutant.new)
    if isinstance(target, kept):
        monkeypatch.setattr(target, "compute", edited)
    elif isinstance(mutant.owner, type):
        monkeypatch.setattr(mutant.owner, mutant.attribute, edited)
    else:
        for module in list(sys.modules.values()):
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, edited)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed_or_recorded_equivalent(monkeypatch, mutant):
    mutant.check()
    install(monkeypatch, mutant)
    if mutant.equivalent:
        mutant.check()
    else:
        with pytest.raises((AssertionError, IsoprodError)):
            mutant.check()
    monkeypatch.undo()
    mutant.check()


def test_install_reaches_every_binding(monkeypatch):
    orbits = isoprod.groups.orbits
    install(monkeypatch, MUTANTS[2])
    assert isoprod.groups.orbits is not orbits
    assert isoprod.actions.orbits is isoprod.groups.orbits
