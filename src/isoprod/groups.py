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
:meth:`FiniteGroup.extend_action`, which proves the homomorphism; orbits and
stabilizers (:func:`orbits`) are read from such tables, never from a callable.

Rotation characters (the action of an element on a one-dimensional space)
are plain ``Fraction`` values r in [0, 1), meaning the root of unity
exp(2*pi*i*r); products of characters are sums of fractions mod 1, so all
invariant dimensions stay exact integers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import lcm
from operator import eq, itemgetter
from typing import Iterable, Mapping, Sequence

from .cyclotomic import root_of_unity_sum
from .errors import CharacterError, GroupError

Perm = tuple[int, ...]

DEFAULT_GROUP_CAP = 10000

TRIVIAL_CHAR = Fraction(0)


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


def check_perm(p: Sequence[int], degree: int) -> Perm:
    p = tuple(p)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise GroupError(f"not a permutation of {degree} letters: {p!r}")
    return p


def perm_from_cycles(cycles: Iterable[Iterable[int]], degree: int) -> Perm:
    """Permutation from disjoint cycles of 0-based letters; [] is the identity."""
    out = list(range(degree))
    seen: set[int] = set()
    for cycle in cycles:
        cycle = list(cycle)
        for x in cycle:
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
    cycles = perm_to_cycles(p)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite permutation group with a fixed element table.

    Index 0 is always the identity.  ``right[i][k]`` is the index of
    ``elements[i] * generators[k]``, recorded during enumeration (|G| * gens
    ints).  Instances are immutable and safe to share; construct through
    :meth:`from_generators`.
    """

    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    right: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    def __post_init__(self):
        # lookup caches; not fields, so they stay out of eq/repr.  The
        # inverse memo and the generator conjugation tables are filled
        # lazily, by :meth:`inverse` and :meth:`_generator_conjugation`.
        object.__setattr__(
            self, "_index", {p: i for i, p in enumerate(self.elements)}
        )
        object.__setattr__(self, "_inverse", {0: 0})
        object.__setattr__(self, "_conjugation", {})
        object.__setattr__(
            self, "_generator_position", {j: k for k, j in enumerate(self.right[0])}
        )

    @classmethod
    def from_generators(
        cls,
        generators: Iterable[Sequence[int]],
        degree: int,
        cap: int = DEFAULT_GROUP_CAP,
    ) -> "FiniteGroup":
        if degree < 1:
            raise GroupError("degree must be at least 1")
        gens = tuple(check_perm(g, degree) for g in generators)
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
        except KeyError:
            raise GroupError(f"permutation {perm!r} is not a group element") from None

    def mul(self, i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        k = self._generator_position.get(j)
        if k is not None:
            return self.right[i][k]
        return self.index_of(compose(self.elements[i], self.elements[j]))

    def inverse(self, i: int) -> int:
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
        return lcm(*map(len, perm_to_cycles(self.elements[i])))

    def products(self, xs: Iterable[int], t: int) -> list[int]:
        """``[mul(x, t) for x in xs]``: a column read of ``right`` when t is
        a generator, else one compose with t's hoisted permutation and one
        index lookup per entry."""
        xs = list(xs)
        if t == 0:
            return xs
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

    def _close(self, seeds: Iterable[int]) -> tuple[set[int], list[int]]:
        """Closure of the seeds with a reduced generating set of it.

        Each seed not already in the closure of the earlier ones becomes a
        generator; the closure grows by a BFS under right multiplication,
        where the old elements need only the new generator and the new
        elements all generators.  Every (element, generator) product is
        taken once: O(|H| * gens) group products for the subgroup H.
        """
        seeds = list(dict.fromkeys(seeds))
        order = self.order
        for s in seeds:
            if not (0 <= s < order):
                raise GroupError(f"element index {s} out of range")
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
        return known, gens

    def subgroup_closure(self, seeds: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by the given element indices.

        BFS from a reduced generating set (seeds already in the closure are
        skipped): O(|H| * gens) group products.
        """
        return frozenset(self._close(seeds)[0])

    def generating_set(self, elements: Iterable[int]) -> tuple[int, ...]:
        """A reduced generating set of the subgroup generated by ``elements``:
        those elements, in the given order, outside the subgroup generated by
        the earlier ones (at most log2 |H| of them)."""
        return tuple(self._close(elements)[1])

    def conjugate(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        if g == 0 or x == 0:
            return x
        return self.mul(self.mul(g, x), self.inverse(g))

    def conjugate_subgroup(self, sub: Iterable[int], g: int) -> frozenset[int]:
        return frozenset(self.conjugates(g, sub))

    def conjugacy_union(self, sub: Iterable[int]) -> frozenset[int]:
        """Union of all conjugates of a subgroup (or of any set of elements).

        BFS closure under conjugation by the group generators, which generate
        every conjugation: O(|union| * gens) group products.
        """
        out = set(sub)
        frontier = list(out)
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
        along BFS words; the trivial group gets the identity alone.

        One walk of ``right`` row by row: the first (element, generator)
        product that reaches an element sets its permutation, and every
        later one is a relation check.  Raises GroupError if an image is not
        a permutation of n letters or the images do not define a group
        homomorphism (every (element, generator) product is checked, which
        suffices by induction on word length).
        """
        if len(generator_perms) != len(self.generators):
            raise GroupError("one image required per generator")
        images = [check_perm(p, n) for p in generator_perms]
        table: list[Perm | None] = [identity_perm(n)] + [None] * (self.order - 1)
        for i, row in enumerate(self.right):
            for k, prod in enumerate(row):
                image = compose(table[i], images[k])
                if table[prod] is None:
                    table[prod] = image
                elif table[prod] != image:
                    raise GroupError(
                        "generator images do not extend to a group homomorphism "
                        f"(relation fails at element {i}, generator {k})"
                    )
        return tuple(table)


@dataclass(frozen=True)
class Orbit:
    """One orbit of a group action: canonical representative (the member
    appearing first in the input point sequence), all members in input
    order, and the representative's stabilizer as sorted element indices."""

    representative: int
    members: tuple[int, ...]
    stabilizer: tuple[int, ...]


def orbits(
    perms: Sequence[Perm],
    points: Sequence[int],
    within: Iterable[int] | None = None,
) -> list[Orbit]:
    """Partition ``points`` into orbits of the permutation tables ``perms``.

    ``perms[g]`` is the permutation of element g, as returned by
    :meth:`FiniteGroup.extend_action`, which has already checked that the
    tables form an action; no callable and no further check.  ``within``
    restricts to a subgroup (element indices; one out of range, or no
    identity 0, raises GroupError), and ``points`` must be closed under it
    (or under the whole group): an image outside ``points`` raises
    GroupError.  Each orbit reads one column of the tables, O(|G|) lookups.
    """
    elems = range(len(perms)) if within is None else sorted(set(within))
    if elems and (elems[0] < 0 or elems[-1] >= len(perms)):
        bad = elems[0] if elems[0] < 0 else elems[-1]
        raise GroupError(f"element index {bad} out of range")
    if not elems or elems[0] != 0:
        raise GroupError("within is not a subgroup: it lacks the identity, element 0")
    rows = [perms[g] for g in elems]
    pos = {p: i for i, p in enumerate(points)}
    seen: set[int] = set()
    out: list[Orbit] = []
    for p in points:
        if p in seen:
            continue
        column = list(map(itemgetter(p), rows))
        members = set(column)
        # O(|orbit|): issubset() would first copy every key of ``pos``
        if members.difference(pos):
            q = next(q for q in column if q not in pos)
            raise GroupError(f"not a group action on the given points: {p!r} -> {q!r}")
        seen.update(members)
        ordered = tuple(sorted(members, key=pos.__getitem__))
        stab = tuple(compress(elems, map(eq, column, repeat(p))))
        out.append(Orbit(p, ordered, stab))
    return out


def invariant_dimension_trace(
    group: FiniteGroup,
    perms: Sequence[Perm],
    chars: Mapping[tuple[int, int], Fraction],
) -> int:
    """dim V^G for a permutation representation with 1-dimensional fibers.

    ``perms[g]`` is the permutation of the points {0..n-1} by element g (as
    returned by :meth:`FiniteGroup.extend_action`) and ``chars`` maps each
    (element, fixed point) pair to its rotation character.  Burnside average
    (1/|G|) sum_g tr(g), where tr(g) sums the character values of g over its
    fixed points; evaluated exactly as a sum of roots of unity.

    Each element's fixed points are read by comparing its permutation with
    the identity, so an element fixing no point costs one tuple scan and
    only fixed pairs are looked up; the keys of ``chars`` are never
    enumerated.  Raises CharacterError when the average is not a
    nonnegative integer or a fixed pair has no character value.
    """
    if len(perms) != group.order:
        raise GroupError("one permutation required per group element")
    ident = identity_perm(len(perms[0]))
    values: list[Fraction] = []
    for g, perm in enumerate(perms):
        if perm == ident:
            fixed: Sequence[int] = ident
        elif any(map(eq, perm, ident)):
            fixed = list(compress(ident, map(eq, perm, ident)))
        else:
            continue
        try:
            values.extend([chars[g, p] for p in fixed])
        except KeyError:
            p = next(p for p in fixed if (g, p) not in chars)
            raise CharacterError(
                f"inconsistent character data: no character for element {g} "
                f"at fixed point {p!r}"
            ) from None
    total = root_of_unity_sum(Counter(values))
    if total is None:
        raise CharacterError("inconsistent character data: trace sum is irrational")
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

    Unreduced strings such as "2/4" are rejected rather than normalized, so
    documents have a single spelling per character.
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
    return frac


def format_rotation_char(c: Fraction) -> str:
    c = c % 1
    return f"{c.numerator}/{c.denominator}"
