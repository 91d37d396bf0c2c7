"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with ``pytest -s``) and enforcing its stated time budget.  All
values are exact integers or rationals; there are no tolerances."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from isoprod.actions import (
    quotient_signature,
    quotient_signatures,
    t1_equivariant,
    t1_equivariant_oracle,
    trivial_action,
    validate_action,
)
from isoprod.cli import main
from isoprod.curves import arithmetic_genus, build_graph, t1_dimension
from isoprod.errors import RamificationError
from isoprod.families import (
    FamilyStratum,
    check_constancy,
    smooth_node_orbit,
    smoothable_edge_orbits,
)
from isoprod.surfaces import (
    build_surface,
    certify_degeneration,
    check_free_action,
    check_free_codim1,
    surface_invariants,
)

from randgen import (
    RamificationOrbit,
    catalog,
    random_action,
    random_free_action,
    random_stable_graph,
)


@contextmanager
def criterion(num: int, name: str, budget: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{name}]: FAIL")
        raise
    elapsed = time.monotonic() - t0
    assert budget is None or elapsed < budget, (
        f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"
    )
    print(f"ACCEPTANCE {num} [{name}]: PASS ({elapsed:.2f}s)")


def test_criterion_1_golden_example(paper_action):
    with criterion(1, "golden example", budget=1.0):
        assert arithmetic_genus(paper_action.graph) == 3
        plain = t1_dimension(paper_action.graph)
        assert (plain.delta, plain.branch_term, plain.minus_chi, plain.total) == (
            1, 2, 3, 6,
        )
        t1 = t1_equivariant(paper_action)
        assert (t1.node_inv, t1.branch_inv, t1.minus_chi_inv, t1.total) == (1, 1, 2, 4)
        sig = quotient_signature(paper_action, 0)
        assert (sig.g_prime, sig.b) == (1, 2)


def test_criterion_2_smoothed_fiber(paper_action, golden_doc, capsys, tmp_path):
    with criterion(2, "smoothed fiber and family constancy", budget=1.0):
        smoothed = smooth_node_orbit(paper_action, 0)
        assert_revalidates(smoothed)
        assert smoothed.graph.genera == (3,)
        assert smoothed.graph.n_edges == 0
        assert len(smoothed.ramification_orbits) == 4
        assert all(o.order == 2 for o in smoothed.ramification_orbits)
        assert t1_equivariant(smoothed).total == 4
        report = check_constancy(
            [FamilyStratum("nodal", paper_action), FamilyStratum("smooth", smoothed)]
        )
        assert report.verdict == "constant" and report.constant_value == 4

        from importlib.resources import files

        path = tmp_path / "doc.json"
        path.write_text(files("isoprod").joinpath("data/quartic_node.json").read_text())
        code = main(["check-family", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "constant at 4" in out


def test_criterion_3_t1_suite():
    rng = random.Random(2024)
    with criterion(3, "3g-3 on 1000 random stable graphs", budget=10.0):
        for _ in range(1000):
            g = random_stable_graph(rng, max_vertices=8, max_genus=5, max_edges=12)
            assert g.n_vertices <= 8 and g.n_edges <= 12
            assert all(x <= 5 for x in g.genera)
            assert t1_dimension(g).total == 3 * arithmetic_genus(g) - 3


def test_criterion_4_oracle_equivalence():
    rng = random.Random(777)
    groups = catalog()
    assert sorted({g.order for g in groups}) == [1, 2, 3, 4, 6]
    with criterion(4, "oracle equivalence on 500 random actions", budget=60.0):
        for _ in range(500):
            action = random_action(rng.choice(groups), rng)
            assert t1_equivariant(action) == t1_equivariant_oracle(action)


def test_criterion_5_constancy_suite():
    rng = random.Random(555)
    groups = catalog()
    with criterion(5, "200 equivariant smoothings preserve T1", budget=30.0):
        done = 0
        while done < 200:
            action = random_action(rng.choice(groups), rng)
            for orbit, obstruction in smoothable_edge_orbits(action):
                if obstruction is None:
                    smoothed = smooth_node_orbit(action, orbit.representative)
                    assert_revalidates(smoothed)
                    assert arithmetic_genus(smoothed.graph) == arithmetic_genus(
                        action.graph
                    )
                    assert (
                        t1_equivariant(smoothed).total
                        == t1_equivariant(action).total
                    )
                    done += 1
                    break


def _rebuild_with_ram(action, ram):
    group = action.group
    gen_idx = [group.index_of(g) for g in group.generators]
    return validate_action(
        group,
        action.graph,
        [action.vertex_perms[k] for k in gen_idx],
        [action.half_edge_perms[k] for k in gen_idx],
        tangent_chars=action.tangent_chars,
        smoothing_chars=action.smoothing_chars,
        kernels={v: sorted(k) for v, k in enumerate(action.kernels)},
        ramification_orbits=ram,
    )


def assert_revalidates(action):
    """A derived stratum equals ``validate_action`` re-run on its own
    generator images, full character tables, kernels and ramification
    orbits: the relabeled tables, orbits and local data are the ones
    validation would build from scratch.  Its contracted graph equals the
    one ``build_graph`` validates from the same data, with the same
    components and incidence."""
    graph = action.graph
    rebuilt = build_graph(
        graph.genera, graph.half_edge_vertex, graph.edges, graph.marks,
        allow_disconnected=True,
    )
    assert rebuilt == graph
    assert rebuilt.components == graph.components
    assert rebuilt.vertex_half_edges == graph.vertex_half_edges
    assert rebuilt.vertex_marks == graph.vertex_marks
    assert _rebuild_with_ram(action, action.ramification_orbits) == action


def test_criterion_6_riemann_hurwitz_integrality():
    rng = random.Random(333)
    groups = catalog()
    with criterion(6, "RH reconstruction and corrupted-data rejection"):
        # accepted signatures reconstruct 2g - 2 exactly
        for _ in range(60):
            action = random_action(rng.choice(groups), rng)
            for orbit in action.vertex_orbits:
                rep = orbit.representative
                kernel = action.kernels[rep]
                hbar = len(orbit.stabilizer) // len(kernel)
                orders = [
                    o.order
                    for o in action.ramification_orbits
                    if o.vertex in orbit.members
                ]
                seen = set()
                for p in action.graph.vertex_half_edges[rep]:
                    if p in seen:
                        continue
                    members = {
                        action.half_edge_perms[g][p] for g in orbit.stabilizer
                    }
                    seen.update(members)
                    stab = [
                        g
                        for g in orbit.stabilizer
                        if action.half_edge_perms[g][p] == p
                    ]
                    if len(stab) // len(kernel) >= 2:
                        orders.append(len(stab) // len(kernel))
                sig = quotient_signature(action, rep)
                assert 2 * action.graph.genera[rep] - 2 == hbar * (
                    2 * sig.g_prime - 2
                ) + sum((hbar // e) * (e - 1) for e in orders)

        # every single-orbit corruption is rejected with the documented error
        rejected = 0
        while rejected < 100:
            action = random_action(rng.choice(groups), rng)
            quotient_signatures(action)  # sanity: valid before corruption
            corrupted = None
            declared = list(action.ramification_orbits)
            if declared and rng.random() < 0.5:
                drop = rng.randrange(len(declared))
                corrupted = declared[:drop] + declared[drop + 1 :]
            else:
                for orbit in action.vertex_orbits:
                    rep = orbit.representative
                    kernel = action.kernels[rep]
                    candidates = []
                    for h in orbit.stabilizer:
                        m, x = 1, h
                        while x not in kernel:
                            x = action.group.mul(x, h)
                            m += 1
                        if m >= 2:
                            candidates.append((h, m))
                    if candidates:
                        h, e = rng.choice(candidates)
                        corrupted = declared + [
                            RamificationOrbit(rep, h, Fraction(1, e), e)
                        ]
                        break
            if corrupted is None:
                continue
            bad = _rebuild_with_ram(action, corrupted)
            try:
                quotient_signatures(bad)
            except RamificationError as exc:
                assert "inconsistent ramification data" in str(exc)
                rejected += 1
            else:
                raise AssertionError("corrupted ramification data was accepted")


def test_criterion_7_surface_formulas():
    rng = random.Random(888)
    groups = catalog()
    with criterion(7, "surface invariant identities"):
        checked = 0
        while checked < 100:
            group = rng.choice(groups)
            f1 = random_free_action(group, rng)
            f2 = (
                random_free_action(group, rng)
                if rng.random() < 0.6
                else random_action(group, rng)
            )
            surface = build_surface(f1, f2)
            if not check_free_action(surface).passed:
                continue
            inv = surface_invariants(surface)
            assert inv.k_squared == 8 * inv.chi
            assert inv.euler == 4 * inv.chi
            assert inv.chi.denominator == 1
            checked += 1

        a = trivial_action(build_graph([2], [], []))
        inv = surface_invariants(build_surface(a, a))
        assert (inv.chi, inv.k_squared, inv.q) == (1, 8, 4)


def test_criterion_8_freeness_implication(paper_action):
    rng = random.Random(999)
    groups = catalog()
    with criterion(8, "free implies free-in-codim-1, with a separating instance"):
        for _ in range(200):
            group = rng.choice(groups)
            roll = rng.random()
            f1 = (
                random_free_action(group, rng)
                if roll < 0.3
                else random_action(group, rng)
            )
            f2 = (
                random_free_action(group, rng)
                if 0.3 <= roll < 0.6
                else random_action(group, rng)
            )
            surface = build_surface(f1, f2)
            if check_free_action(surface).passed:
                assert check_free_codim1(surface).passed

        # the constructed separating instance: free in codimension 1 only
        central = build_surface(paper_action, paper_action)
        assert not check_free_action(central).passed
        assert check_free_codim1(central).passed
        cert = certify_degeneration(central)
        assert cert.passed and len(cert.conditions) == 5
