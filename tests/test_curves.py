import random

import pytest

from isoprod.curves import (
    DualGraph,
    arithmetic_genus,
    build_graph,
    contract,
    t1_dimension,
)
from isoprod.errors import GraphError

from randgen import random_stable_graph


def theta_graph():
    """Two genus-0 vertices joined by three edges."""
    return build_graph([0, 0], [0, 1, 0, 1, 0, 1], [(0, 1), (2, 3), (4, 5)])


# -- validation -------------------------------------------------------------


def test_smooth_genus2_valid():
    g = build_graph([2], [], [])
    assert g.n_vertices == 1 and g.n_edges == 0


def test_genus0_self_loop_unstable():
    # 2*0 - 2 + 2 = 0 is not > 0
    with pytest.raises(GraphError, match="unstable vertices.*0"):
        build_graph([0], [0, 0], [(0, 1)])


def test_genus2_self_loop_valid(nodal_quartic_graph):
    assert nodal_quartic_graph.n_edges == 1
    assert nodal_quartic_graph.edges[0] == (0, 1)


def test_dangling_half_edge():
    with pytest.raises(GraphError, match="dangling"):
        build_graph([2], [0, 0, 0], [(0, 1)])


def test_half_edge_on_two_edges():
    with pytest.raises(GraphError, match="belongs to 2 edges"):
        build_graph([2, 2], [0, 1, 1], [(0, 1), (1, 2)])


def test_edge_needs_two_distinct_half_edges():
    with pytest.raises(GraphError, match="two distinct half-edges"):
        build_graph([2], [0], [(0, 0)])


def test_error_lists_all_offenders():
    with pytest.raises(GraphError) as err:
        build_graph([0, 0], [0, 1, 0, 1], [(0, 1), (2, 3)])
    assert "0" in str(err.value) and "1" in str(err.value)


@pytest.mark.parametrize(
    "args, marks, problem",
    [
        (([True], [0, 0], [(0, 1)]), [], "vertex 0: genus must be a nonnegative integer, got True"),
        (([2, 2], [0, True], [(0, 1)]), [], "half-edge 1: vertex True is not an integer"),
        (([2], [0.0, 0], [(0, 1)]), [], "half-edge 0: vertex 0.0 is not an integer"),
        (([2], [0, 3], [(0, 1)]), [], "half-edge 1: vertex 3 out of range"),
        (([2], [0, 0], [(0, True)]), [], "edge 0: half-edge True is not an integer"),
        (([2], [0, 0], [(0, 1.0)]), [], "edge 0: half-edge 1.0 is not an integer"),
        (([2], [0, 0], [5]), [], "edge 0: must pair two distinct half-edges, got 5"),
        (([2], [0, 0], [(0, 2)]), [], "edge 0: half-edge 2 out of range"),
        (([2], [], []), [True], "mark 0: vertex True is not an integer"),
        (([2], [], []), [0.0], "mark 0: vertex 0.0 is not an integer"),
        (([2], [], []), [1], "mark 0: vertex 1 out of range"),
    ],
    ids=[
        "genus-bool", "half-edge-vertex-bool", "half-edge-vertex-float", "half-edge-vertex-range",
        "edge-entry-bool", "edge-entry-float", "edge-not-a-pair", "edge-entry-range",
        "mark-bool", "mark-float", "mark-range",
    ],
)
def test_malformed_graph_entry_is_a_problem_line(args, marks, problem):
    # bools and floats compare like ints: each is named by its type, not
    # stored (True as genus 1 or half-edge 1) nor left to fail as a TypeError
    with pytest.raises(GraphError) as err:
        build_graph(*args, marks=marks)
    assert problem in str(err.value).splitlines()[1:]


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((5, [], []), {}, "genera must be a sequence, got 5"),
        (([2], 5, []), {}, "half-edge vertices must be a sequence, got 5"),
        (([2], [], 5), {}, "edges must be an iterable of pairs, got 5"),
        (([2], [], []), {"marks": 5}, "marks must be a sequence, got 5"),
    ],
    ids=["genera", "half-edge-vertices", "edges", "marks"],
)
def test_malformed_graph_container_is_one_line(args, kwargs, message):
    with pytest.raises(GraphError) as err:
        build_graph(*args, **kwargs)
    assert str(err.value) == message


def test_every_malformed_graph_entry_is_one_more_line():
    with pytest.raises(GraphError) as err:
        build_graph([True], [0.0, 0], [5, (0, 1.0)], marks=[2])
    assert str(err.value).splitlines() == [
        "invalid graph structure:",
        "vertex 0: genus must be a nonnegative integer, got True",
        "half-edge 0: vertex 0.0 is not an integer",
        "edge 0: must pair two distinct half-edges, got 5",
        "edge 1: half-edge 1.0 is not an integer",
        "half-edge 0: dangling (belongs to no edge)",
        "half-edge 1: dangling (belongs to no edge)",
        "mark 0: vertex 2 out of range",
    ]


def test_disconnected_rejected_unless_flagged():
    with pytest.raises(GraphError, match="disconnected"):
        build_graph([2, 2], [], [])
    g = build_graph([2, 3], [], [], allow_disconnected=True)
    assert g.components == ((0,), (1,))


def test_marks_count_toward_stability():
    # genus 1 with two marked points is stable
    g = build_graph([1], [], [], marks=[0, 0])
    assert g.marks == (0, 0)
    with pytest.raises(GraphError, match="unstable"):
        build_graph([0], [], [], marks=[0, 0])


# -- genus ------------------------------------------------------------------


def test_genus_smooth():
    assert arithmetic_genus(build_graph([3], [], [])) == 3


def test_genus_paper_example(nodal_quartic_graph):
    assert arithmetic_genus(nodal_quartic_graph) == 3


def test_genus_theta():
    assert arithmetic_genus(theta_graph()) == 2


def test_genus_requires_connected():
    g = build_graph([2, 2], [], [], allow_disconnected=True)
    with pytest.raises(GraphError, match="connected"):
        arithmetic_genus(g)


@pytest.mark.parametrize("reader", [arithmetic_genus, t1_dimension], ids=lambda r: r.__name__)
def test_readers_name_a_mistyped_graph(reader):
    # each raised a bare AttributeError
    with pytest.raises(GraphError) as err:
        reader(5)
    assert str(err.value) == "not a DualGraph: int"


# -- t1 ----------------------------------------------------------------------


def test_t1_smooth_genus2():
    b = t1_dimension(build_graph([2], [], []))
    assert (b.delta, b.branch_term, b.minus_chi, b.total) == (0, 0, 3, 3)


def test_t1_paper_example(nodal_quartic_graph):
    b = t1_dimension(nodal_quartic_graph)
    assert (b.delta, b.branch_term, b.minus_chi, b.total) == (1, 2, 3, 6)


def test_t1_theta():
    b = t1_dimension(theta_graph())
    assert (b.delta, b.branch_term, b.minus_chi, b.total) == (3, 6, -6, 3)
    assert b.total == 3 * arithmetic_genus(theta_graph()) - 3


def test_t1_rejects_marks():
    g = build_graph([1], [], [], marks=[0, 0])
    with pytest.raises(GraphError, match="not in scope"):
        t1_dimension(g)


def test_t1_matches_3g_minus_3_randomized():
    rng = random.Random(5)
    for _ in range(300):
        g = random_stable_graph(rng)
        assert t1_dimension(g).total == 3 * arithmetic_genus(g) - 3


def test_genus_invariant_under_relabeling():
    rng = random.Random(9)
    for _ in range(100):
        g = random_stable_graph(rng)
        vperm = list(range(g.n_vertices))
        hperm = list(range(g.n_half_edges))
        rng.shuffle(vperm)
        rng.shuffle(hperm)
        relabeled = build_graph(
            [g.genera[vperm.index(v)] for v in range(g.n_vertices)],
            [vperm[g.half_edge_vertex[hperm.index(h)]] for h in range(g.n_half_edges)],
            [(hperm[p], hperm[q]) for p, q in g.edges],
        )
        assert arithmetic_genus(relabeled) == arithmetic_genus(g)
        assert t1_dimension(relabeled) == t1_dimension(g)


def test_smoothing_one_node_preserves_genus_drops_delta():
    from isoprod.actions import trivial_action
    from isoprod.families import smooth_node_orbit
    from test_acceptance import assert_revalidates

    rng = random.Random(13)
    seen = 0
    while seen < 50:
        g = random_stable_graph(rng)
        if g.n_edges == 0:
            continue
        seen += 1
        action = trivial_action(g)
        smoothed = smooth_node_orbit(action, rng.randrange(g.n_edges))
        assert_revalidates(smoothed)
        assert smoothed.graph.n_edges == g.n_edges - 1
        assert arithmetic_genus(smoothed.graph) == arithmetic_genus(g)


# -- derived structure ---------------------------------------------------------


def random_marked_forest(rng):
    """Disjoint union of one to three random stable graphs, with random marks
    (marks only add to stability)."""
    genera, half_edge_vertex, edges = [], [], []
    for _ in range(rng.randint(1, 3)):
        part = random_stable_graph(rng, max_vertices=5, max_edges=6)
        nv, nh = len(genera), len(half_edge_vertex)
        genera += part.genera
        half_edge_vertex += [nv + v for v in part.half_edge_vertex]
        edges += [(nh + p, nh + q) for p, q in part.edges]
    marks = [rng.randrange(len(genera)) for _ in range(rng.randint(0, 4))]
    return build_graph(genera, half_edge_vertex, edges, marks, allow_disconnected=True)


def scanned_components(graph):
    """Components by relabelling each vertex with the least vertex it is
    joined to until nothing changes."""
    label = list(range(graph.n_vertices))
    changed = True
    while changed:
        changed = False
        for p, q in graph.edges:
            a, b = graph.half_edge_vertex[p], graph.half_edge_vertex[q]
            low = min(label[a], label[b])
            for v in (a, b):
                if label[v] != low:
                    label[v], changed = low, True
    roots = sorted(set(label))
    return tuple(tuple(v for v in range(graph.n_vertices) if label[v] == r) for r in roots)


def test_derived_structure_matches_scans():
    rng = random.Random(21)
    graphs = [random_stable_graph(rng) for _ in range(100)]
    graphs += [random_marked_forest(rng) for _ in range(100)]
    assert any(len(g.components) > 1 for g in graphs)
    assert any(g.marks for g in graphs)
    for g in graphs:
        assert g.components == scanned_components(g)
        for v in range(g.n_vertices):
            at = [h for h, w in enumerate(g.half_edge_vertex) if w == v]
            assert g.vertex_half_edges[v] == tuple(at)
            marks = tuple(m for m, w in enumerate(g.marks) if w == v)
            assert g.vertex_marks[v] == marks


def test_cached_structure_leaves_equality_and_hash_alone():
    data = ([2, 0], [0, 1, 1, 1], [(0, 1), (2, 3)], [1, 1])
    filled = build_graph(*data)
    for name in ("components", "vertex_half_edges", "vertex_marks"):
        getattr(filled, name)
    fresh = DualGraph(
        tuple(data[0]), tuple(data[1]), tuple(data[2]), tuple(data[3])
    )
    assert filled == fresh and fresh == build_graph(*data)
    assert hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)


def test_contract_matches_the_graph_built_from_scratch():
    # vertex 0 (genus 0, two marks) -e0- vertex 1 (genus 1) -e1- vertex 2
    # (genus 2, one mark), which also carries the self-loop e2, and a
    # second edge e3 from vertex 1 to vertex 2
    graph = build_graph(
        [0, 1, 2], [0, 1, 1, 2, 2, 2, 1, 2], [(0, 1), (2, 3), (4, 5), (6, 7)], marks=[0, 2, 0]
    )
    cases = {
        # merging 1 and 2: genera add, the self-loop and e3 survive as loops
        (1,): ([0, 3], [0, 1, 1, 1, 1, 1], [(0, 1), (2, 3), (4, 5)], [0, 1, 0]),
        # the self-loop adds one to its vertex's genus
        (2,): ([0, 1, 3], [0, 1, 1, 2, 1, 2], [(0, 1), (2, 3), (4, 5)], [0, 2, 0]),
        # e1 and e3 form a cycle: one more genus on the merged vertex
        (1, 3): ([0, 4], [0, 1, 1, 1], [(0, 1), (2, 3)], [0, 1, 0]),
        (0, 1, 2, 3): ([5], [], [], [0, 0, 0]),
    }
    for removed, (genera, half_edge_vertex, edges, marks) in cases.items():
        child, classes, he_map, edge_map = contract(graph, removed)
        expected = build_graph(genera, half_edge_vertex, edges, marks)
        assert child == expected
        assert child.components == expected.components
        assert child.vertex_half_edges == expected.vertex_half_edges
        assert arithmetic_genus(child) == arithmetic_genus(graph)
        assert sorted(v for vs in classes for v in vs) == [0, 1, 2]
        kept = [n for n in range(4) if n not in removed]
        assert edge_map == {n: i for i, n in enumerate(kept)}
        assert list(he_map) == [h for n in kept for h in graph.edges[n]]


@pytest.mark.parametrize(
    "graph, removed, message",
    [
        (None, [5], "removed edge 5 is not an edge index of the graph"),
        (None, [-1], "removed edge -1 is not an edge index of the graph"),
        (None, [True], "removed edge True is not an edge index of the graph"),
        (None, [0, 1.0], "removed edge 1.0 is not an edge index of the graph"),
        (None, 5, "removed edges must be an iterable of edge indices, got 5"),
        (5, [0], "not a DualGraph: int"),
    ],
    ids=["past-the-end", "negative", "bool", "float", "not-iterable", "not-a-graph"],
)
def test_contract_rejects_what_is_not_an_edge_index(graph, removed, message):
    # each raised a bare IndexError, KeyError, TypeError or AttributeError,
    # or read the wrong edge: -1 the last one, True edge 1
    if graph is None:
        graph = build_graph([1, 1, 2], [0, 1, 1, 2, 2, 2], [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(GraphError) as err:
        contract(graph, removed)
    assert str(err.value) == message
