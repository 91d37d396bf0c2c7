"""The whole-sequence passes of ``build_graph`` and ``validate_action``
against the walks they replaced: seeded corruptions of random graphs give the
seed's exact message or an equal graph, faults placed at the last generator,
vertex or edge give the seed's first-fault message, valid input never runs a
wording walk, and each character table's ``trivial`` flags read its columns."""

import random
import re
from fractions import Fraction

import pytest

import randgen
import reference_seed
from isoprod import actions, curves
from isoprod.actions import inert_action, validate_action
from isoprod.curves import build_graph
from isoprod.errors import ActionError, GroupError, IsoprodError
from isoprod.groups import FiniteGroup, perm_from_cycles
from test_scaling import necklace
from test_seed_differential import (
    a5,
    captured_inputs,
    cayley_inputs,
    element,
    image_error,
    in_index_order,
    kernel_action_inputs,
    s4,
    scans_alike,
)


def graph_outcome(build, args, disconnected):
    try:
        return build(*args, allow_disconnected=disconnected)
    except IsoprodError as exc:
        return type(exc), str(exc)


# applied in this order, so the last three see int pairs
CORRUPTIONS = (
    "bool", "float", "str", "range", "dangling", "doubled", "self-pair", "3-tuple",
    "unstable", "disconnected", "list-pair", "dict-pair", "bytes-pair",
)


def corrupt(rng, kind, genera, hev, edges, marks):
    """Apply one seeded corruption of ``kind`` to the raw lists in place."""
    nv, nh = len(genera), len(hev)
    if kind in ("bool", "float", "str"):
        seq = rng.choice([s for s in (genera, hev, edges, marks) if s])
        i = rng.randrange(len(seq))
        entry = list(edges[i]) if seq is edges else seq
        j = rng.randrange(len(entry)) if seq is edges else i
        entry[j] = {"bool": bool, "float": float, "str": str}[kind](entry[j])
        if seq is edges:
            edges[i] = tuple(entry)
    elif kind == "range":
        seq = rng.choice([genera, hev, marks] + [edges] * bool(edges))
        if seq is edges:
            i = rng.randrange(len(edges))
            edges[i] = (edges[i][0], rng.choice([nh, -1]))
        elif seq is genera:
            genera[rng.randrange(nv)] = -1
        else:
            seq.append(rng.choice([nv, -1]))
    elif kind == "dangling":
        if edges:
            del edges[rng.randrange(len(edges))]
        else:
            hev.append(0)
    elif kind == "doubled":
        if edges:
            edges.append(rng.choice(edges))
        else:
            hev += [0, 0]
            edges += [(0, 1), (1, 0)]
    elif kind == "self-pair":
        h = rng.randrange(nh) if nh else 0
        edges.append((h, h))
    elif kind == "3-tuple":
        edges.append((0, 1, 2))
    elif kind == "unstable":  # a genus-0 leaf, or a vertex dropped to genus 0
        if rng.random() < 0.5:
            genera.append(0)
            hev += [nv, 0]
            edges.append((nh, nh + 1))
        else:
            genera[rng.randrange(nv)] = 0
    elif kind == "disconnected":
        genera.append(2)
    elif edges and {int}.issuperset(map(type, pair := edges[i := rng.randrange(len(edges))])):
        if kind == "list-pair":  # other iterable pair types: valid
            edges[i] = list(pair)
        elif kind == "dict-pair":
            edges[i] = dict.fromkeys(pair)
        elif all(0 <= h < 256 for h in pair):
            edges[i] = bytes(pair)


def test_corrupted_graphs_give_the_seeds_message_or_graph():
    rng = random.Random(33)
    seen = {kind: set() for kind in CORRUPTIONS}
    for _ in range(400):
        graph = randgen.random_stable_graph(rng)
        genera, hev, edges = list(graph.genera), list(graph.half_edge_vertex), list(graph.edges)
        marks = [rng.randrange(len(genera)) for _ in range(rng.randint(0, 2))]
        kinds = sorted(rng.sample(CORRUPTIONS, rng.choice((1, 1, 2))), key=CORRUPTIONS.index)
        for kind in kinds:
            corrupt(rng, kind, genera, hev, edges, marks)
        for disconnected in (False, True):
            args = (genera, hev, edges, marks)
            got = graph_outcome(build_graph, args, disconnected)
            assert got == graph_outcome(reference_seed.build_graph, args, disconnected)
            for kind in kinds:
                seen[kind].add(type(got) is tuple)
    # every corruption gives an error somewhere; the valid pair types and the
    # allowed disconnected graphs also build
    assert all(True in outcomes for outcomes in seen.values())
    for kind in ("list-pair", "dict-pair", "bytes-pair", "disconnected"):
        assert False in seen[kind]


def alternating_group(group):
    return group.subgroup_closure(
        [element(group, [[i, i + 1, i + 2]]) for i in range(group.degree - 2)]
    )


def z2xz2():
    """Z2 x Z2 generated by (0 1) and then (2 3)."""
    return FiniteGroup.from_generators(
        [perm_from_cycles([[0, 1]], 4), perm_from_cycles([[2, 3]], 4)], 4
    )


def last_place_faults():
    """(group, graph, images, kernels, message): valid images except at the
    last generator, and kernels valid except at the last vertex or under the
    last generator."""
    z22 = z2xz2()
    b = z22.generator_indices[-1]
    # cover: the last generator swaps the branches of the two nodes joining
    # vertices 1 and 2 but fixes both vertices
    graph = build_graph([2, 2, 2], [0, 1, 0, 0, 1, 2, 1, 2], [(0, 1), (2, 3), (4, 5), (6, 7)])
    images = ([(0, 1, 2)] * 2, [tuple(range(8)), (0, 1, 2, 3, 5, 4, 7, 6)])
    yield z22, graph, images, {}, (
        "half-edge action does not cover the vertex action (generator 1, half-edge 4)"
    )
    # edge images: the last generator swaps two branches of the last two nodes
    graph = build_graph([2], [0] * 6, [(0, 1), (2, 3), (4, 5)])
    images = ([(0,)] * 2, [tuple(range(6)), (0, 1, 2, 4, 3, 5)])
    yield z22, graph, images, {}, (
        f"edge action ill-defined: element {b} sends a node to the non-node pair [2, 4]"
    )
    # kernel fixing: one kernel list at every vertex, moving only a branch of
    # the last vertex's self-node
    graph = build_graph([1, 2, 1], [0, 1, 1, 2, 2, 2], [(0, 1), (2, 3), (4, 5)])
    images = ([(0, 1, 2)] * 2, [tuple(range(6)), (0, 1, 2, 3, 5, 4)])
    yield z22, graph, images, dict.fromkeys(range(3), [b]), (
        f"kernel element {b} of vertex 2 moves half-edge 4"
    )
    # equivariance: the last vertex alone has a kernel, of the wrong order
    # for the generator swapping it with vertex 0
    graph = build_graph([2, 2], [0, 1, 0, 1], [(0, 1), (2, 3)])
    images = ([(1, 0), (0, 1)], [(1, 0, 3, 2), tuple(range(4))])
    yield z22, graph, images, {1: [b]}, (
        f"kernels not equivariant: element {z22.generator_indices[0]} maps vertex 0 to 1 "
        "but does not conjugate the kernels"
    )
    # equivariance: S3 = <(1 2), (0 1)> on a smooth curve with kernel <(1 2)>,
    # which only the last generator fails to normalize
    s3 = FiniteGroup.from_generators(
        [perm_from_cycles([[1, 2]], 3), perm_from_cycles([[0, 1]], 3)], 3
    )
    assert s3 == in_index_order(s3) and list(s3.generator_indices) == [1, 2]
    graph = build_graph([2], [], [])
    yield s3, graph, ([(0,)] * 2, [()] * 2), {0: [1]}, (
        "kernels not equivariant: element 2 maps vertex 0 to 0 but does not conjugate the kernels"
    )


@pytest.mark.parametrize(
    "group, graph, images, kernels, message", list(last_place_faults()),
    ids=["cover", "edge-image", "kernel-fixing", "kernel-order", "kernel-conjugation"],
)
def test_last_place_faults_give_the_seeds_messages(group, graph, images, kernels, message):
    # a pass that stopped before the last generator, vertex or edge would
    # accept these; the walk names the first fault, as the seed does
    for validate in (validate_action, reference_seed.validate_action):
        def with_kernels(*args):
            return validate(*args, kernels=kernels)

        assert image_error(with_kernels, group, graph, images) == (ActionError, message)


def test_last_place_kernel_mutations_match_seed():
    # the last vertex's kernel replaced by a conjugate of it, widened by an
    # element, dropped or cut to one cyclic subgroup, on S4 and A5 in index
    # order: the same verdict and message as the seed's, which checks every
    # element
    kinds = set()
    for group in map(in_index_order, [s4(), a5()]):
        full = frozenset(range(group.order))
        alternating = alternating_group(group)
        cyclic = group.subgroup_closure([group.generator_indices[-1]])
        for stab, kernel in ((full, alternating), (cyclic, cyclic), (cyclic, frozenset({0}))):
            graph, args = kernel_action_inputs(group, stab, kernel)
            action = validate_action(group, graph, *args["images"], **args["kwargs"])
            last = graph.n_vertices - 1
            base = {v: sorted(k) for v, k in args["kwargs"]["kernels"].items()}
            step = 1 if group.order < 60 else 12
            mutations = [
                {**base, last: sorted(group.conjugates(g, base[last]))}
                for g in range(0, group.order, step)
            ] + [{**base, last: base[last] + [g]} for g in range(1, group.order, 2 * step + 5)]
            mutations += [{**base, last: []}, {**base, last: base[last][1:2]}]
            for kernels in mutations:
                messages = []
                for validate in (validate_action, reference_seed.validate_action):
                    try:
                        validate(group, graph, *args["images"], kernels=kernels)
                        messages.append(None)
                    except IsoprodError as exc:
                        messages.append(f"{type(exc).__name__}: {exc}")
                new, ref = messages
                kinds.add(new and new.split(" ")[1])
                if new == ref or scans_alike(group, kernels[last]):
                    assert new == ref
                    continue
                # closure sets iterating in another order name another
                # offender of the same vertex, as in the seed corpus
                k, v = map(int, re.fullmatch(
                    r"ActionError: kernel element (\d+) of vertex (\d+) moves the vertex", new
                ).groups())
                assert ref.endswith(f" of vertex {v} moves the vertex")
                assert v == last and action.vertex_perms[k][v] != v
                assert k in group.subgroup_closure(kernels[v])
    assert {None, "kernel", "kernels"} <= kinds


WALKS = ((curves, "_structure_problems"), (actions, "_word_images"), (actions, "_word_kernels"))


def test_valid_input_never_runs_a_wording_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("a wording walk ran")

    for module, name in WALKS:
        monkeypatch.setattr(module, name, refuse)
    # captured_inputs builds and validates every seeded catalog action it records
    for i, group in enumerate(randgen.catalog() + [s4(), a5()]):
        assert captured_inputs(group, 700 + i, 3)
    for n in range(1, 41):
        group, graph, vertex_images, half_edge_images = necklace(n)
        validate_action(group, graph, vertex_images, half_edge_images)
        inert_action(group, graph)
    for make in (s4, a5):
        group = make()
        graph, args = cayley_inputs(group)
        validate_action(group, graph, *args["images"])
        full = frozenset(range(group.order))
        graph, args = kernel_action_inputs(group, full, alternating_group(group))
        validate_action(group, graph, *args["images"], **args["kwargs"])
        inert_action(group, graph)
    # and a structure, cover, edge-image or kernel-fixing fault reaches a walk
    # (an equivariance fault is raised by its own loop, not a walk)
    for run in (
        lambda: build_graph([2], [0], []),
        *(
            lambda fault=fault: validate_action(fault[0], fault[1], *fault[2], kernels=fault[3])
            for fault in last_place_faults() if not fault[4].startswith("kernels not")
        ),
    ):
        with pytest.raises(AssertionError, match="a wording walk ran"):
            run()


def test_trivial_flags_read_the_columns():
    actions_seen = []
    for i, group in enumerate(randgen.catalog() + [s4(), a5()]):
        actions_seen += [
            validate_action(group, graph, *args["images"], **args["kwargs"])
            for graph, args in captured_inputs(group, 800 + i, 3)
        ]
    for make in (s4, a5):
        group = make()
        full = frozenset(range(group.order))
        for kernel in (full, alternating_group(group), frozenset({0})):
            graph, args = kernel_action_inputs(group, full, kernel)
            actions_seen.append(validate_action(group, graph, *args["images"], **args["kwargs"]))
        actions_seen.append(inert_action(group, build_graph([2] * 3, [0, 1, 1, 2, 2, 0],
                                                            [(0, 3), (2, 5), (4, 1)])))
    for n in (1, 2, 7, 20):
        group, graph, vertex_images, half_edge_images = necklace(n)
        actions_seen.append(validate_action(group, graph, vertex_images, half_edge_images))
    kinds = set()
    for action in actions_seen:
        for table in (action.tangent_chars, action.smoothing_chars):
            assert table.trivial == tuple(not any(c) for c in table.columns)
            kinds.update(table.trivial)
    assert kinds == {False, True}


def test_an_image_that_is_not_a_tuple_or_list_is_walked_as_the_seed_reads_it():
    # the cover pass composes images by iterating them, and the walk indexes
    # them: they differ for a mapping, so other image types go to the walk
    z2 = FiniteGroup.from_generators([perm_from_cycles([[0, 1]], 2)], 2)
    graph = build_graph([2, 2], [0, 1, 0, 1], [(0, 1), (2, 3)])
    for images in (([(0, 1)], [{0: 1, 1: 0, 2: 3, 3: 2}]), ([(1, 0)], [range(4)])):
        got = image_error(validate_action, z2, graph, images)
        assert got == image_error(reference_seed.validate_action, z2, graph, images)
        assert got and "does not cover" in got[1]


def test_a_mapping_image_is_read_by_index_everywhere():
    # check_perm reads a mapping as p[0] ... p[n - 1], the way the cover and
    # edge walks index it; it read the keys, so this swap of both nodes'
    # branches, with the components swapped, validated with identity tables
    z2 = FiniteGroup.from_generators([perm_from_cycles([[0, 1]], 2)], 2)
    graph = build_graph([2, 2], [0, 1, 0, 1], [(0, 1), (2, 3)])
    swap = {0: 1, 1: 0, 2: 3, 3: 2}
    tangent = {(1, h): Fraction(1, 2) for h in range(4)}
    with pytest.raises(ActionError) as err:
        validate_action(z2, graph, [(1, 0)], [swap], tangent_chars=tangent)
    assert str(err.value) == "tangent character assigned to element 1 which moves half-edge 0"
    smoothing = {(1, 0): Fraction(0), (1, 1): Fraction(0)}
    read = validate_action(z2, graph, [(1, 0)], [swap], smoothing_chars=smoothing)
    assert read == validate_action(z2, graph, [(1, 0)], [(1, 0, 3, 2)], smoothing_chars=smoothing)
    assert z2.extend_action([{0: 1, 1: 0}], 2) == ((0, 1), (1, 0))
    with pytest.raises(GroupError) as err:
        z2.extend_action([{0: 1, 2: 0}], 2)
    assert str(err.value) == "not a permutation of 2 letters: {0: 1, 2: 0}"
