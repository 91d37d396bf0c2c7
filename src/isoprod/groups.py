"""Finite permutation groups: enumeration, orbits, stabilizers, rotation characters.

Groups are given by permutation generators on {0..degree-1} and enumerated
once, deterministically: the identity first, then breadth-first by generator
words, ties within a word length broken by lexicographic order of the
permutation tuples.  Every other module refers to group elements by their
index in this table.  The enumeration keeps every product it computes as a
right-multiply-by-generator table of element indices (``right``), so
products by generators are table reads, not rebuilt permutation tuples.
Read row by row, ``right`` reaches each element first from a word one
letter shorter, so one walk of it extends any data along words.

Batched arithmetic (:meth:`FiniteGroup.products`,
:meth:`FiniteGroup.conjugates`) works on lists of element indices.
Conjugation by a group generator is one list read per element: the table
x -> s x s^-1 is built on first use from ``right`` alone (one walk of it,
|G| ints kept per generator).  A product by any other element hoists that
element's permutation out of the loop, so each list entry costs one C-level
compose and one index lookup; a conjugation by any other element costs two
composes and one lookup.

A group action is a table of per-element permutations built by
:meth:`FiniteGroup.extend_action`, which proves the homomorphism (the trivial
map is not walked: every element gets the one identity tuple) and lets
elements acting alike share one tuple, so tables are never mutated.  A
:class:`RestrictedTable` reads a table at some of its objects, renumbered
(an induced action, or the surviving objects), building a row when first
read.  Orbits (:func:`orbits`) read columns, or one shared row, and the
Burnside trace one row per conjugacy class of cyclic subgroups (a
character sum is a class function; :meth:`FiniteGroup.cyclic_subgroup_classes`
is the one table of them), so neither builds every row of a view.

Rotation characters (the action of an element on a one-dimensional space)
are plain ``Fraction`` values r in [0, 1), meaning the root of unity
exp(2*pi*i*r); products of characters are sums of fractions mod 1, so all
invariant dimensions stay exact integers.  A :class:`CharacterTable` holds
one kind of them for a whole action, one integer column per orbit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import compress, filterfalse, repeat
from math import gcd, lcm
from operator import countOf, eq, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from ._value import _Frozen
from .cyclotomic import root_of_unity_sum
from .errors import CharacterError, GroupError

Perm = tuple[int, ...]

DEFAULT_GROUP_CAP = 10000

TRIVIAL_CHAR = Fraction(0)
_EVERY: dict[int, tuple[int, ...]] = {}  # order -> (0, ..., order - 1), built once per order


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(a: Perm, b: Perm) -> Perm:
    """Product a*b: apply b first, then a.

    ``itemgetter`` does the work in C; it returns a bare value for one index
    and needs at least one, so degrees 0 and 1 take the comprehension.
    """
    if len(b) > 1:
        return itemgetter(*b)(a)
    return tuple([a[x] for x in b])


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _listed(items: Iterable, what: str, error: type[Exception] = GroupError) -> list:
    """``list(items)``; ``error`` (GroupError by default) naming ``what`` if not iterable."""
    try:
        items = iter(items)
    except TypeError:
        raise error(f"{what} must be iterable, got {items!r}") from None
    return list(items)


def check_perm(p: Sequence[int], degree: int) -> Perm:
    p = tuple(_listed(p, f"a permutation of {degree} letters"))
    # bools and floats sort like ints, so their type is checked first
    if (
        len(p) != degree
        or not {int}.issuperset(map(type, p))
        or sorted(p) != list(range(degree))
    ):
        raise GroupError(f"not a permutation of {degree} letters: {p!r}")
    return p


def _check_degree(degree) -> None:
    if type(degree) is not int:
        raise GroupError(f"degree must be an integer, got {degree!r}")


def perm_from_cycles(cycles: Iterable[Iterable[int]], degree: int) -> Perm:
    """Permutation from disjoint cycles of 0-based letters; [] is the identity."""
    _check_degree(degree)
    out = list(range(degree))
    seen: set[int] = set()
    for cycle in _listed(cycles, "cycles"):
        cycle = _listed(cycle, "a cycle")
        for x in cycle:
            # bools and floats compare like ints, so their type is checked first
            if type(x) is not int:
                raise GroupError(f"not a permutation of {degree} letters: cycle entry {x!r}")
            if not (0 <= x < degree):
                raise GroupError(f"cycle entry {x} out of range for degree {degree}")
            if x in seen:
                raise GroupError(f"letter {x} appears in two cycles")
            seen.add(x)
        for i, x in enumerate(cycle):
            out[x] = cycle[(i + 1) % len(cycle)]
    return tuple(out)


def perm_to_cycles(p: Perm) -> list[list[int]]:
    cycles = []
    seen: set[int] = set()
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cycle = [i]
        seen.add(i)
        j = p[i]
        while j != i:
            cycle.append(j)
            seen.add(j)
            j = p[j]
        cycles.append(cycle)
    return cycles


def format_perm(p: Perm) -> str:
    return "".join("(" + " ".join(map(str, c)) + ")" for c in perm_to_cycles(p)) or "()"


class FiniteGroup(_Frozen):
    """A finite permutation group with a fixed element table.

    Index 0 is always the identity.  ``right[i][k]`` is the index of
    ``elements[i] * generators[k]``, recorded during enumeration (|G| * gens
    ints).  Instances are immutable and safe to share; construct through
    :meth:`from_generators`, which builds nothing else.  Lookup tables
    derived later (inverses, conjugation by a generator, the classes of
    cyclic subgroups, each element's cycle notation and order, the closure
    of the generator list) are kept on the instance when first asked for.
    Equality, hashing and repr read ``degree``, ``generators`` and
    ``elements`` only.  The scalar methods taking element indices raise
    GroupError for anything but an index in range; the batched ones
    (:meth:`products`, :meth:`conjugates`) take their callers' indices,
    already checked, as given.
    """

    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    right: tuple[tuple[int, ...], ...]
    _compared = ("degree", "generators", "elements")

    def __init__(self, degree, generators, elements, right):
        # the lookup caches are filled lazily by :meth:`inverse`,
        # :meth:`_generator_conjugation`, :meth:`cyclic_subgroup_classes`,
        # :meth:`_cycle_type` and :meth:`closure_and_generators`
        self.__dict__.update(
            degree=degree, generators=generators, elements=elements, right=right,
            _index={p: i for i, p in enumerate(elements)}, _inverse={0: 0}, _conjugation={},
            _subgroup_classes=None, _cycles={}, _closure=None,
            _generator_position={j: k for k, j in enumerate(right[0])},
        )

    def _replace(self, **changes) -> "FiniteGroup":
        changes.setdefault("right", self.right)  # a constructor argument, not compared
        return super()._replace(**changes)

    @classmethod
    def from_generators(
        cls,
        generators: Iterable[Sequence[int]],
        degree: int,
        cap: int = DEFAULT_GROUP_CAP,
    ) -> "FiniteGroup":
        _check_degree(degree)
        if type(cap) is not int:
            raise GroupError(f"cap must be an integer, got {cap!r}")
        if cap < 1:  # the identity alone fills a cap of 1
            raise GroupError(f"cap must be at least 1, got {cap}")
        if degree < 1:
            raise GroupError("degree must be at least 1")
        gens = tuple(check_perm(g, degree) for g in _listed(generators, "generators"))
        ident = identity_perm(degree)
        elements = [ident]
        index = {ident: 0}
        right: list[list[int]] = [[0] * len(gens)]
        frontier = [0]
        while frontier:
            # products not yet indexed; resolved once this level is sorted
            pending: list[tuple[int, int, Perm]] = []
            for i in frontier:
                for k, s in enumerate(gens):
                    y = compose(elements[i], s)
                    j = index.get(y)
                    if j is None:
                        pending.append((i, k, y))
                    else:
                        right[i][k] = j
            frontier = []
            for y in sorted({y for _, _, y in pending}):
                if len(elements) >= cap:
                    raise GroupError(f"group too large: order exceeds cap {cap}")
                index[y] = len(elements)
                frontier.append(len(elements))
                elements.append(y)
                right.append([0] * len(gens))
            for i, k, y in pending:
                right[i][k] = index[y]
        return cls(degree, gens, tuple(elements), tuple(map(tuple, right)))

    @classmethod
    def trivial(cls, degree: int = 1) -> "FiniteGroup":
        return cls.from_generators((), degree)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, perm: Perm) -> int:
        try:
            return self._index[perm]
        except (KeyError, TypeError):  # TypeError: an unhashable perm, such as a list
            raise GroupError(f"permutation {perm!r} is not a group element") from None

    def _check_index(self, *ix) -> None:
        # C passes, then a loop naming the first bad index (the scalar methods
        # call this only to raise); bools and floats compare like ints
        if countOf(map(type, ix), int) < len(ix) or ix and not 0 <= min(ix) <= max(ix) < self.order:
            for i in ix:
                if type(i) is not int:
                    raise GroupError(f"element index {i!r} is not an integer")
                if not (0 <= i < self.order):
                    raise GroupError(f"element index {i} out of range")

    def mul(self, i: int, j: int) -> int:
        n = len(self.elements)
        if type(i) is not int or not 0 <= i < n:
            self._check_index(i)  # raises
        if type(j) is not int or not 0 <= j < n:
            self._check_index(j)  # raises
        k = self._generator_position.get(j)
        if k is not None:
            return self.right[i][k]
        return self.index_of(compose(self.elements[i], self.elements[j]))

    def inverse(self, i: int) -> int:
        if type(i) is not int or not 0 <= i < len(self.elements):
            self._check_index(i)  # raises
        try:
            return self._inverse[i]
        except KeyError:
            j = self.index_of(invert(self.elements[i]))
            self._inverse[i] = j
            self._inverse[j] = i
            return j

    @property
    def generator_indices(self) -> tuple[int, ...]:
        return self.right[0]

    def element_order(self, i: int) -> int:
        """The lcm of the cycle lengths of element i's permutation."""
        return self._cycle_type(i)[1]

    def element_cycles(self, i: int) -> str:
        """Element i's permutation in cycle notation, as :func:`format_perm` writes it."""
        return self._cycle_type(i)[0]

    def _cycle_type(self, i: int) -> tuple[str, int]:
        """Element i's cycle notation and order, kept per element; a
        concurrent first use only computes them twice."""
        self._check_index(i)
        entry = self._cycles.get(i)
        if entry is None:
            p = self.elements[i]
            entry = self._cycles[i] = (format_perm(p), lcm(*map(len, perm_to_cycles(p))))
        return entry

    def cyclic_subgroup_classes(self) -> dict[int, dict[int, list[int]]]:
        """Conjugacy classes of cyclic subgroups, each subgroup named by its
        least generator: a class's least member -> {member: the member's
        generators}, members and generators ascending.

        One power walk per cyclic subgroup C, in index order: the first
        element not yet named is C's least generator, and g^j generates C
        when j is prime to |C| (sum of |C| composes and index lookups).
        Each class is the closure of its least member under the generators'
        conjugation tables, which generate every conjugation.  Built on
        first use and kept; a concurrent first use only computes it twice."""
        classes = self._subgroup_classes
        if classes is None:
            reps = [0] * self.order  # the least generator of <g>
            index, elements = self._index, self.elements
            for g in range(1, self.order):
                if reps[g]:
                    continue
                by_g = itemgetter(*elements[g])  # degree >= 2 for g != 0
                powers = [g]
                p = by_g(elements[g])
                while i := index[p]:
                    powers.append(i)
                    p = by_g(p)
                m = len(powers) + 1
                for i in compress(powers, [gcd(j, m) == 1 for j in range(1, m)]):
                    reps[i] = g
            classes, seen = {}, set()
            gens: dict[int, list[int]] = {}
            for g, r in enumerate(reps):
                gens.setdefault(r, []).append(g)
            tables = list(map(self._generator_conjugation, range(len(self.generators))))
            for r in gens:  # in index order
                if r not in seen:
                    seen.add(r)
                    members = [r]
                    for c in members:  # grows by each new conjugate
                        for d in [reps[t[c]] for t in tables]:
                            if d not in seen:
                                seen.add(d)
                                members.append(d)
                    classes[r] = {c: gens[c] for c in sorted(members)}
            self.__dict__["_subgroup_classes"] = classes
        return classes

    def products(self, xs: Iterable[int], t: int) -> list[int]:
        """``[mul(x, t) for x in xs]``: a column read of ``right`` when t is
        a generator, else one compose with t's hoisted permutation and one
        index lookup per entry."""
        xs = list(xs)
        if not any(xs):
            return [t] * len(xs)
        k = self._generator_position.get(t)
        if k is not None:
            right = self.right
            return [right[x][k] for x in xs]
        by_t = itemgetter(*self.elements[t])
        index = self._index
        elements = self.elements
        return [index[by_t(elements[x])] for x in xs]

    def conjugates(self, g: int, xs: Iterable[int]) -> list[int]:
        """``[conjugate(g, x) for x in xs]``: one read of a generator's
        conjugation table per entry, or for any other g one compose with the
        hoisted permutation of g^-1, one with g, and one index lookup."""
        xs = list(xs)
        if g == 0 or not any(xs):
            return xs
        k = self._generator_position.get(g)
        if k is not None:
            return list(map(self._generator_conjugation(k).__getitem__, xs))
        # g x g^-1 = g o (x o g^-1) as permutations; degree >= 2 here
        perm = self.elements[g]
        by_inverse = itemgetter(*self.elements[self.inverse(g)])
        index = self._index
        elements = self.elements
        return [index[itemgetter(*by_inverse(elements[x]))(perm)] for x in xs]

    def _generator_conjugation(self, k: int) -> list[int]:
        """x -> s x s^-1 over element indices, for generator s = generators[k].

        Table reads only: left[i], the index of s * elements[i], satisfies
        left[right[j][k']] = right[left[j]][k'] for every (j, k'), so one
        walk of ``right`` row by row fills it (each row comes after the row
        that first reaches it), and right division by s inverts column k of
        ``right``.  Built on first use and kept; a concurrent first use only
        computes the same list twice.
        """
        table = self._conjugation.get(k)
        if table is None:
            right = self.right
            left = [right[0][k]] * self.order
            for j, row in enumerate(right):
                for i, x in zip(row, right[left[j]]):
                    left[i] = x
            divide = [0] * self.order
            for z, row in enumerate(right):
                divide[row[k]] = z
            table = [divide[y] for y in left]
            self._conjugation[k] = table
        return table

    def closure_and_generators(self, seeds: Iterable[int]) -> tuple[frozenset[int], list[int]]:
        """Closure of the seeds with a reduced generating set of it.

        Each seed not in the closure of the earlier ones becomes a generator;
        a BFS under right multiplication grows the closure, the old elements
        by the new generator and the new ones by all: O(|H| * gens) products
        for the subgroup H, each (element, generator) once; none after the
        first walk of the group's own generators, which the group keeps.
        """
        self._check_index(*(seeds := _listed(seeds, "element indices")))  # names the first bad seed
        if tuple(seeds) == self.right[0] and self._closure:
            return self._closure[0], list(self._closure[1])
        known = {0}
        gens: list[int] = []
        for s in seeds:
            if s in known:
                continue
            gens.append(s)
            # a * s for a in the old closure are all new, as s is not in it
            frontier = self.products(known, s)
            known.update(frontier)
            while frontier:
                nxt = []
                for t in gens:
                    for c in self.products(frontier, t):
                        if c not in known:
                            known.add(c)
                            nxt.append(c)
                frontier = nxt
        if tuple(seeds) == self.right[0]:  # a concurrent first use walks it twice
            self.__dict__["_closure"] = (frozenset(known), tuple(gens))
        return frozenset(known), gens

    def subgroup_closure(self, seeds: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by the given element indices (BFS from a
        reduced generating set, see :meth:`closure_and_generators`)."""
        return self.closure_and_generators(seeds)[0]

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inverse(g))

    def conjugacy_union(self, sub: Iterable[int]) -> frozenset[int]:
        """Union of all conjugates of a subgroup (or of any set of elements).

        BFS closure under conjugation by the group generators, which generate
        every conjugation: O(|union| * gens) group products, none for G.
        """
        self._check_index(*(sub := _listed(sub, "element indices")))  # names the first bad one
        out = set(sub)
        frontier = list(out) if len(out) < len(self.elements) else []
        while frontier:
            nxt = []
            for s in self.generator_indices:
                for y in self.conjugates(s, frontier):
                    if y not in out:
                        out.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(out)

    def extend_action(self, generator_perms: Sequence[Perm], n: int) -> tuple[Perm, ...]:
        """Per-element permutations of {0..n-1} induced by generator images
        along BFS words; the trivial map is not walked.

        One walk of ``right`` row by row: the first (element, generator)
        product that reaches an element sets its permutation, and every
        later one is a relation check.  Raises GroupError if an image is not
        a permutation of n letters or the images do not define a group
        homomorphism (every (element, generator) product is checked, which
        suffices by induction on word length).  Identity images pass a row's
        tuple on, so elements acting alike may share one: never mutate a
        table.  When every image is the identity (each checked first) the
        table is one identity tuple repeated, with no walk.
        """
        generator_perms = _listed(generator_perms, "generator images")
        _check_degree(n)
        if len(generator_perms) != len(self.generators):
            raise GroupError("one image required per generator")
        ident = identity_perm(n)
        images = [None if q == ident else q for q in (check_perm(p, n) for p in generator_perms)]
        if not any(images):
            return (ident,) * self.order
        table: list[Perm | None] = [ident] + [None] * (self.order - 1)
        for i, row in enumerate(self.right):
            for k, prod in enumerate(row):
                image = table[i] if images[k] is None else compose(table[i], images[k])
                known = table[prod]
                if known is None:
                    table[prod] = image
                elif known is not image and known != image:
                    raise GroupError(
                        "generator images do not extend to a group homomorphism "
                        f"(relation fails at element {i}, generator {k})"
                    )
        return tuple(table)


class Orbit(NamedTuple):
    """One orbit of a group action: canonical representative (the member
    appearing first in the input point sequence), all members in input
    order, and the representative's stabilizer as sorted element indices."""

    representative: int
    members: tuple[int, ...]
    stabilizer: tuple[int, ...]


def orbits(perms: Sequence[Perm], points: Sequence[int]) -> list[Orbit]:
    """Partition ``points`` into orbits of the permutation tables ``perms``.

    ``perms[g]`` is the permutation of element g, as returned by
    :meth:`FiniteGroup.extend_action`, which has already checked that the
    tables form an action; no callable and no further check.  Stabilizers
    are positions in ``perms``: a subgroup's rows give its orbits.  A bad
    table, points not ints in range, or an image outside ``points`` raise
    GroupError.  If every row is row 0 (one C pass, identity first), a point
    reads that row, else its column: O(|G|) lookups in C, no row of a view.
    """
    view = perms._composed() if type(perms) is RestrictedTable else (perms, None, None)
    source, kept, new_index = view
    if not isinstance(source, (tuple, list)) or source and type(source[0]) is not tuple:
        raise GroupError(f"not a table of permutation tuples: {perms!r}")
    if not source:
        raise GroupError("one permutation required per group element")
    first, degree = source[0], len(source[0] if kept is None else kept)
    if type(points) is range:  # ints, so both ends in range bound it
        bad = points and not (0 <= points[0] < degree and 0 <= points[-1] < degree)
    else:  # C passes over the points, never a set over the degree
        points = points if type(points) in (tuple, list) else _listed(points, "points")
        bad = countOf(map(type, points), int) < len(points) or points and not (
            0 <= min(points) <= max(points) < degree)
    if bad:
        p = next(p for p in points if type(p) is not int or not 0 <= p < degree)
        raise GroupError(f"point {p!r} is not an integer in range({degree})")
    n = len(source)
    rows = (first,) if n > 1 and source[-1] == first and countOf(source, first) == n else source
    pos = {p: i for i, p in enumerate(points)}
    seen: set[int] = set()
    # one tuple per stabilizer; one row standing for all is fixed by all (0,) or none ()
    shared = {} if rows is source else {(0,): _EVERY.get(n) or _EVERY.setdefault(n, (*range(n),))}
    out: list[Orbit] = []
    for p in filterfalse(seen.__contains__, points):  # skips members of earlier orbits
        images = map(itemgetter(p if kept is None else kept[p]), rows)
        images = list(images if kept is None else map(new_index.__getitem__, images))
        members = set(images)
        # O(|orbit|): issubset() would first copy every key of ``pos``
        if members.difference(pos):
            q = next(q for q in images if q not in pos)
            raise GroupError(f"not a group action on the given points: {p!r} -> {q!r}")
        seen.update(members)
        ordered = tuple(sorted(members, key=pos.__getitem__))
        stab = tuple(compress(range(len(rows)), map(eq, images, repeat(p))))
        out.append(Orbit(p, ordered, shared.setdefault(stab, stab)))
    return out


class RestrictedTable(Sequence):
    """Per-element permutations of the objects ``kept`` of a table ``perms``,
    renumbered by ``new_index`` (a mapping, or a sequence over all objects):
    row g is ``new_index[perms[g][k]] for k in kept``, built on first read
    and kept, one per distinct row object of ``perms``; :func:`column`
    builds none.  Also an induced table (vertices or nodes by their branches).

    Reads as the tuple of rows it stands for: equal to it in either operand
    order, same ``len``, iteration, hash and repr, negative indices and
    slices, ``IndexError`` past the end.  Over another restricted table, a
    view is built in O(1) and stays pending: it keeps that table (so every
    unread ancestor up to the first composed one, with its ``kept`` and
    ``new_index``, stays alive) and its own ``kept`` and ``new_index``
    (then a mapping).  Its first row or column read composes the chain onto
    the root source, so a row costs one gather from a materialized row
    however long the chain, and then it keeps only the root alive.
    ``new_index`` must be defined on every image of a kept object.
    Read-only, like every table.
    """

    __slots__ = ("_view", "_made")

    def __init__(self, perms: Sequence[Perm], kept: Sequence[int], new_index: Mapping | Sequence):
        self._view = (perms, kept, new_index)  # pending while perms is a RestrictedTable
        self._made: dict[int, Perm] = {}  # id of a source row -> the row here

    def _composed(self) -> tuple:
        """(root source, kept, new_index).  A pending view is composed in a
        loop from each ancestor's view, read once, and published by one
        assignment: no ancestor is changed, and racing readers see it
        pending or composed, never half done."""
        view = self._view
        if type(view[0]) is RestrictedTable:
            pending = []
            while type(view[0]) is RestrictedTable:
                pending.append(view)
                view = view[0]._view
            source, inner, old = view
            for _, kept, new_index in reversed(pending):
                pairs = old.items() if isinstance(old, Mapping) else enumerate(old)
                old = {x: new_index[i] for x, i in pairs if i in new_index}
                inner = compose(inner, kept)
            view = self._view = (source, inner, old)
        return view

    def _row(self, source_row: Perm) -> Perm:
        _, kept, new_index = self._view
        return compose(new_index, compose(source_row, kept))

    def __getitem__(self, g):
        if isinstance(g, slice):
            return tuple(map(self.__getitem__, range(len(self))[g]))
        source_row = self._composed()[0][g]
        row = self._made.get(id(source_row))
        if row is None:
            row = self._made[id(source_row)] = self._row(source_row)
        return row

    def __len__(self) -> int:
        return len(self._composed()[0])

    def __iter__(self) -> Iterator[Perm]:
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (tuple, RestrictedTable)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def column(perms: Sequence[Perm], p: int) -> Iterator[int]:
    """``perms[g][p]`` for each element g in turn, lazily, in C loops; a
    :class:`RestrictedTable` renumbers its source's column, building no row."""
    if type(perms) is RestrictedTable:  # an ABC's isinstance costs more than the read
        source, kept, new_index = perms._composed()
        return map(new_index.__getitem__, map(itemgetter(kept[p]), source))
    return map(itemgetter(p), perms)


class CharacterTable(Mapping):
    """Rotation characters of one kind: (element, fixed object) -> Fraction.

    ``columns[i]`` is the character of ``orbits[i]``'s representative on its
    stabilizer, residues modulo ``modulus`` in stabilizer order (equal
    columns are one tuple); ``trivial[i]`` says whether it is zero, and
    ``orbit_at[x]`` is the index of x's orbit.  The value at (g, x) is the
    column's at t^-1 g t, t = ``transporters[x]`` carrying the
    representative to x; ``perms`` are the objects' permutations.  The
    library reads columns only through :meth:`at` and :meth:`restrict`;
    ``__getitem__`` is the public ``Mapping`` face.  One ``Fraction`` per
    residue, built when read.  Read-only.
    """

    def __init__(
        self,
        group: FiniteGroup,
        perms: Sequence[Perm],
        orbits: tuple[Orbit, ...],
        columns: tuple[tuple[int, ...], ...],
        modulus: int,
        transporters: Mapping[int, int],
    ):
        self.group, self.perms, self.orbits = group, perms, orbits
        self.columns, self.modulus, self.transporters = columns, modulus, transporters
        self.trivial = tuple(not any(c) for c in columns)
        self.orbit_at = {x: i for i, orbit in enumerate(orbits) for x in orbit.members}
        self._fractions = {0: TRIVIAL_CHAR}

    def fraction(self, a: int) -> Fraction:
        """The character a / modulus."""
        if a not in self._fractions:
            self._fractions[a] = Fraction(a, self.modulus)
        return self._fractions[a]

    def at(self, x: int) -> Iterator[tuple[int, int]]:
        """(element, residue) pairs on the stabilizer of object x; lazy."""
        i = self.orbit_at[x]
        stab = self.orbits[i].stabilizer
        if t := self.transporters[x]:
            stab = self.group.conjugates(t, stab)
        yield from zip(stab, self.columns[i])

    def restrict(self, new_index: dict[int, int]) -> "CharacterTable":
        """The table on the surviving objects, renumbered by the increasing
        ``new_index``: orbits that survive whole keep their columns,
        stabilizers and order as a recomputation would, and each object its
        transporter.  Its ``perms`` are a :class:`RestrictedTable` of these
        at the keys of ``new_index``, a view built on first read."""
        perms = RestrictedTable(self.perms, list(new_index), new_index)
        renumber = new_index.__getitem__
        alive = [i for i, o in enumerate(self.orbits) if o.representative in new_index]
        relabeled = tuple(
            Orbit(renumber(o.representative), tuple(map(renumber, o.members)), o.stabilizer)
            for o in map(self.orbits.__getitem__, alive)
        )
        columns = tuple(map(self.columns.__getitem__, alive))
        transporters = dict(zip(new_index.values(), map(self.transporters.__getitem__, new_index)))
        return CharacterTable(self.group, perms, relabeled, columns, self.modulus, transporters)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        try:
            g, x = key
            fixed = type(g) is int and g >= 0 and x >= 0 and self.perms[g][x] == x
        except (TypeError, ValueError, IndexError):
            fixed = False
        if not fixed:
            raise KeyError(key)
        i = self.orbit_at[x]
        if t := self.transporters[x]:
            g = self.group.conjugate(self.group.inverse(t), g)
        return self.fraction(self.columns[i][bisect_left(self.orbits[i].stabilizer, g)])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for x in self.orbit_at:
            yield from ((g, x) for g, _ in self.at(x))

    def __len__(self) -> int:
        return sum(len(o.members) * len(o.stabilizer) for o in self.orbits)


def invariant_dimension_trace(table: CharacterTable) -> int:
    """dim V^G for the permutation representation on the objects of a
    :class:`CharacterTable`, with 1-dimensional fibers.

    ``table.perms[g]`` is the permutation of the objects by element g (as
    returned by :meth:`FiniteGroup.extend_action`).  Burnside average
    (1/|G|) sum_g tr(g), where tr(g) sums the character values of g over its
    fixed objects; evaluated exactly as a sum of roots of unity.

    The one premise on the permutations beyond their number is that they
    form an action, which :meth:`FiniteGroup.extend_action` has proved:
    elements generating one cyclic subgroup act as powers of each other and
    fix the same objects, Fix(h g h^-1) = h Fix(g), and identity generators
    make every element the identity.  So the generators' rows and one row
    per conjugacy class of cyclic subgroups (:meth:`FiniteGroup.cyclic_subgroup_classes`)
    are read, never the whole table, nor orbits, nor any value by key.  A
    class whose representative fixes only objects in zero columns is counted
    at once; any other class reads one row per member subgroup, as character
    values stay per element (chi(g^j) = j chi(g)), and an object's (element,
    residue) pairs when first needed, once per call.  Raises CharacterError
    for a non-table, a fixed pair with no character value (the first in
    element order), or an average that is not a nonnegative integer.
    """
    if not isinstance(table, CharacterTable):
        raise CharacterError(f"not a character table: {type(table).__name__}")
    group, perms = table.group, table.perms
    if len(perms) != group.order:
        raise GroupError("one permutation required per group element")
    ident = identity_perm(len(perms[0]))
    zero = {x for x, i in table.orbit_at.items() if table.trivial[i]}  # zero-column objects
    rows: dict[int, dict[int, int]] = {}  # per object read: element -> residue

    def residues_at(p: int) -> dict[int, int]:
        if p not in rows:
            try:
                rows[p] = dict(table.at(p))
            except KeyError:  # an object the table does not cover has no value
                rows[p] = {}
        return rows[p]

    def fixed_points(g: int) -> Sequence[int]:
        perm = perms[g]
        return ident if perm == ident else list(compress(ident, map(eq, perm, ident)))

    trivial = all(perms[k] == ident for k in group.generator_indices)
    classes = {0: {0: range(group.order)}} if trivial else group.cyclic_subgroup_classes()
    residues: list[int] = []
    zeros = 0
    try:
        for r, subgroups in classes.items():
            fixed = fixed_points(r)
            # conjugate subgroups: as many generators, fixed points and zeros
            if zero.issuperset(fixed):
                zeros += len(subgroups) * len(subgroups[r]) * len(fixed)
                continue
            for c, gens in subgroups.items():
                fixed = fixed_points(c) if c != r else fixed
                reads = [residues_at(p) for p in fixed if p not in zero]
                zeros += (len(fixed) - len(reads)) * len(gens)
                residues.extend([row[g] for g in gens for row in reads])
    except KeyError:  # the first missing pair in element order
        g, p = min(
            (g, p) for subgroups in classes.values() for c, gens in subgroups.items()
            for p in fixed_points(c) if p not in zero for g in gens if g not in residues_at(p)
        )
        raise CharacterError(
            f"inconsistent character data: no character for element {g} at fixed point {p!r}"
        ) from None
    # distinct residues are distinct fractions; residue 0 counts as an integer,
    # so an all-zero trace hashes no Fraction
    counts = Counter(residues)
    zeros += counts.pop(0, 0)
    rest = root_of_unity_sum({table.fraction(a): c for a, c in counts.items()})
    if rest is None:
        raise CharacterError("inconsistent character data: trace sum is irrational")
    total = rest + zeros
    dim, rem = divmod(total, group.order)
    if rem != 0 or dim < 0:
        raise CharacterError(
            f"inconsistent character data: trace average {total}/{group.order} "
            "is not a nonnegative integer"
        )
    return dim


def char_order(c: Fraction) -> int:
    """Order of the root of unity exp(2*pi*i*c)."""
    return (c % 1).denominator


def parse_rotation_char(text: str) -> Fraction:
    """Strict "a/e" rotation-character parser: reduced, 0 <= a < e.

    Unreduced strings such as "2/4", and any other spelling than the
    canonical ``f"{a}/{e}"`` (" 1/2", "+1/2", "01/2"), are rejected rather
    than normalized, so documents have a single spelling per character.
    """
    parts = text.split("/")
    if len(parts) != 2:
        raise GroupError(f"malformed character string {text!r}: expected \"a/e\"")
    try:
        a, e = int(parts[0]), int(parts[1])
    except ValueError:
        raise GroupError(f"malformed character string {text!r}: expected integers") from None
    if e < 1 or not 0 <= a < e:
        raise GroupError(f"malformed character string {text!r}: need 0 <= a < e")
    frac = Fraction(a, e)
    if (frac.numerator, frac.denominator) != (a, e):
        raise GroupError(
            f"malformed character string {text!r}: not reduced (expected "
            f"\"{frac.numerator}/{frac.denominator}\")"
        )
    # int() also takes signs, spaces, leading zeros, underscores and
    # non-ASCII digits
    if text != f"{a}/{e}":
        raise GroupError(f"malformed character string {text!r}: expected \"{a}/{e}\"")
    return frac


def format_rotation_char(c: Fraction) -> str:
    c = c % 1
    return f"{c.numerator}/{c.denominator}"
