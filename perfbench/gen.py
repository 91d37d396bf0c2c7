"""Seeded input generator for the benchmark.

Self-contained on purpose: it has its own permutation arithmetic and its own
action builder, and imports nothing from ``isoprod`` or ``tests``.  Changes
to the library or to the test-suite generators therefore cannot change a
workload between two commits.  The same (workload, seed) always gives the
same JSON document, byte for byte (see :func:`digest`).

Group elements are written as full permutations (lists of images, composed
like ``isoprod``: ``(a*b)[i] == a[b[i]]``); the workload process maps them to
element indices with ``FiniteGroup.index_of``.  Each item carries the
answers this generator knows from construction (genus, quotient genera,
freeness, totals where a closed form exists); they are the independent
reference the workload process checks the library against.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

# ----------------------------------------------------------------------------
# permutations and small groups


def compose(a, b):
    return tuple(a[i] for i in b)


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def from_cycles(cycles, degree):
    out = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


class Group:
    """Permutation group with a full multiplication table (small groups only)."""

    def __init__(self, gens, degree):
        self.degree = degree
        self.gens = tuple(tuple(g) for g in gens)
        ident = tuple(range(degree))
        self.elems = [ident]
        self.index = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for s in self.gens:
                    y = compose(x, s)
                    if y not in self.index:
                        self.index[y] = len(self.elems)
                        self.elems.append(y)
                        nxt.append(y)
            frontier = nxt
        n = len(self.elems)
        self.order = n
        self.table = [[self.index[compose(a, b)] for b in self.elems] for a in self.elems]
        self.inv = [self.index[inverse(a)] for a in self.elems]
        self.elem_order = []
        for i in range(n):
            k, x = 1, i
            while x != 0:
                x = self.table[x][i]
                k += 1
            self.elem_order.append(k)

    def mul(self, a, b):
        return self.table[a][b]

    def closure(self, seeds):
        known = {0}
        frontier = [0]
        seeds = [s for s in seeds if s != 0]
        while frontier:
            nxt = []
            for x in frontier:
                for s in seeds:
                    y = self.table[x][s]
                    if y not in known:
                        known.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(known)

    def cyclic_subgroups(self):
        subs = {self.closure((x,)) for x in range(self.order)}
        return sorted(subs, key=lambda s: (len(s), sorted(s)))

    def is_even(self, i):
        p, seen, even = self.elems[i], set(), True
        for x in range(self.degree):
            if x not in seen:
                n, y = 0, x
                while y not in seen:
                    seen.add(y)
                    y = p[y]
                    n += 1
                even ^= n % 2 == 0
        return even

    def left_cosets(self, sub):
        seen, out = set(), []
        for g in range(self.order):
            if g not in seen:
                coset = frozenset(self.table[g][s] for s in sub)
                seen.update(coset)
                out.append(coset)
        return out

    def perm(self, i):
        return list(self.elems[i])


def _quaternion_generators():
    # Q8 in its regular representation: element (s, u) means s*u with
    # u in {1, i, j, k} and s = +-1; letter 4*(s<0) + u.
    table = {  # u*v for unit quaternions: (sign, unit)
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def left(u):
        img = [0] * 8
        for x in range(8):
            sign, v = (-1 if x >= 4 else 1), x % 4
            s, w = table[(u, v)]
            img[x] = (4 if sign * s < 0 else 0) + w
        return tuple(img)

    return [left(1), left(2)]


CATALOG = {
    # name: (degree, generator cycles); orders 1-6 as in the test suites,
    # then D4, Q8, A4, Z2xZ6 and S4.
    "C1": (1, []),
    "C2": (2, [[[0, 1]]]),
    "C3": (3, [[[0, 1, 2]]]),
    "C4": (4, [[[0, 1, 2, 3]]]),
    "V4": (4, [[[0, 1], [2, 3]], [[0, 2], [1, 3]]]),
    "C6": (6, [[[0, 1, 2, 3, 4, 5]]]),
    "S3": (3, [[[0, 1, 2]], [[0, 1]]]),
    "D4": (4, [[[0, 1, 2, 3]], [[0, 2]]]),
    "Q8": (8, None),
    "A4": (4, [[[0, 1, 2]], [[0, 1], [2, 3]]]),
    "C2xC6": (8, [[[0, 1]], [[2, 3, 4, 5, 6, 7]]]),
    "S4": (4, [[[0, 1, 2, 3]], [[0, 1]]]),
}

_GROUP_CACHE: dict = {}


def catalog_group(name):
    if name not in _GROUP_CACHE:
        degree, cycles = CATALOG[name]
        gens = _quaternion_generators() if cycles is None else [
            from_cycles(c, degree) for c in cycles
        ]
        _GROUP_CACHE[name] = Group(gens, degree)
    return _GROUP_CACHE[name]


def natural_group(name):
    """S4, A5 or S5 on its natural letters, with fixed generators."""
    degree, cycles = {
        "S4": (4, [[[0, 1, 2, 3]], [[0, 1]]]),
        "A5": (5, [[[0, 1, 2]], [[0, 1, 2, 3, 4]]]),
        "S5": (5, [[[0, 1, 2, 3, 4]], [[0, 1]]]),
    }[name]
    key = ("sym", name)
    if key not in _GROUP_CACHE:
        _GROUP_CACHE[key] = Group([from_cycles(c, degree) for c in cycles], degree)
    return _GROUP_CACHE[key]


def random_generating_set(group, rng, k, min_order):
    """k distinct elements of order >= min_order, no two mutually inverse,
    generating the whole group; conjugated by a random letter permutation
    so the presentation changes with the seed."""
    pool = [i for i in range(group.order) if group.elem_order[i] >= min_order]
    while True:
        picks = rng.sample(pool, k)
        if any(group.inv[a] == b for a in picks for b in picks):
            continue
        if len(group.closure(picks)) == group.order:
            break
    letters = list(range(group.degree))
    rng.shuffle(letters)
    pi = tuple(letters)
    pinv = inverse(pi)
    return [compose(compose(pi, group.elems[i]), pinv) for i in picks]


def frac(x):
    x = Fraction(x) % 1
    return [x.numerator, x.denominator]


def faithful_char(rng, e):
    if e == 1:
        return Fraction(0)
    return Fraction(rng.choice([a for a in range(1, e) if gcd(a, e) == 1]), e)


def arithmetic_genus(genera, n_edges):
    return sum(genera) + n_edges - len(genera) + 1


def shuffle_labels(rng, item):
    """Relabel vertices and half-edges by random permutations (the action,
    genera and every reference answer are unchanged)."""
    nv, nh = len(item["genera"]), len(item["half_edge_vertex"])
    vp = list(range(nv))
    hp = list(range(nh))
    rng.shuffle(vp)
    rng.shuffle(hp)
    genera = [0] * nv
    for v in range(nv):
        genera[vp[v]] = item["genera"][v]
    hev = [0] * nh
    for h in range(nh):
        hev[hp[h]] = vp[item["half_edge_vertex"][h]]
    item["genera"] = genera
    item["half_edge_vertex"] = hev
    item["edges"] = [[hp[p], hp[q]] for p, q in item["edges"]]
    for key, perm in (("vertex_images", vp), ("half_edge_images", hp)):
        new = []
        for img in item[key]:
            out = [0] * len(img)
            for x, y in enumerate(img):
                out[perm[x]] = perm[y]
            new.append(out)
        item[key] = new
    item["tangent"] = [[g, hp[h], c] for g, h, c in item.get("tangent", [])]
    item["ram"] = [[vp[v], g, c, e] for v, g, c, e in item.get("ram", [])]
    item["kernels"] = {str(vp[int(v)]): ks for v, ks in item.get("kernels", {}).items()}
    return item


# ----------------------------------------------------------------------------
# orbit-by-orbit action builder (catalog_pairs)


class ActionBuilder:
    """Vertex orbits are coset spaces G/H; half-edge orbits are coset spaces
    G/C attached equivariantly; genera are solved from Riemann-Hurwitz."""

    def __init__(self, group, rng):
        self.G = group
        self.rng = rng
        self.orbit_subs = []
        self.vertices = []  # (orbit, coset)
        self.vindex = {}
        self.half_edges = []  # (edge orbit, side, coset)
        self.hindex = {}
        self.he_vertex = []
        self.edges = []
        self.tangent = []  # (element, half-edge, Fraction)
        self.smoothing = []  # (element, edge, Fraction)
        self.declared = []  # (vertex, element, Fraction, order)
        self.n_edge_orbits = 0
        self.fixed_nodes = False  # some element fixes a node (swap models)

    def add_vertex_orbit(self, sub):
        i = len(self.orbit_subs)
        self.orbit_subs.append(sub)
        for coset in self.G.left_cosets(sub):
            self.vindex[(i, coset)] = len(self.vertices)
            self.vertices.append((i, coset))
        return i

    def act_vertex(self, g, v):
        i, coset = self.vertices[v]
        return self.vindex[(i, frozenset(self.G.mul(g, c) for c in coset))]

    def act_half_edge(self, g, h):
        o, side, coset = self.half_edges[h]
        return self.hindex[(o, side, frozenset(self.G.mul(g, c) for c in coset))]

    def stabilizer(self, v):
        return [g for g in range(self.G.order) if self.act_vertex(g, v) == v]

    def rep(self, i):
        return next(v for v, (j, _) in enumerate(self.vertices) if j == i)

    def _half_edge(self, o, side, coset, vertex):
        self.hindex[(o, side, coset)] = len(self.half_edges)
        self.half_edges.append((o, side, coset))
        self.he_vertex.append(vertex)

    def add_paired(self, v1, v2, sub):
        """Edge orbit G/sub joining the orbits of v1 and v2.  A nontrivial
        (cyclic) ``sub`` acts by inverse characters on the two branches, so
        the node is smoothable; returns (generator, character on the v1 side)."""
        G, o = self.G, self.n_edge_orbits
        self.n_edge_orbits += 1
        cosets = G.left_cosets(sub)
        for side, v in ((0, v1), (1, v2)):
            for coset in cosets:
                self._half_edge(o, side, coset, self.act_vertex(min(coset), v))
        for coset in cosets:
            self.edges.append((self.hindex[(o, 0, coset)], self.hindex[(o, 1, coset)]))
        if len(sub) == 1:
            return None
        e = len(sub)
        c = next(x for x in sorted(sub) if G.elem_order[x] == e)
        chi = faithful_char(self.rng, e)
        self.tangent.append((c, self.hindex[(o, 0, cosets[0])], chi))
        self.tangent.append((c, self.hindex[(o, 1, cosets[0])], -chi))
        return c, chi

    def add_swap(self, v1, sigma, smoothable):
        G, o = self.G, self.n_edge_orbits
        self.n_edge_orbits += 1
        self.fixed_nodes = True
        for g in range(G.order):
            self._half_edge(o, 0, frozenset((g,)), self.act_vertex(g, v1))
        done, base = set(), None
        for g in range(G.order):
            partner = G.mul(g, sigma)
            if g in done:
                continue
            done.update((g, partner))
            if g == 0:
                base = len(self.edges)
            self.edges.append(
                (self.hindex[(o, 0, frozenset((g,)))], self.hindex[(o, 0, frozenset((partner,)))])
            )
        self.smoothing.append((sigma, base, Fraction(0) if smoothable else Fraction(1, 2)))

    def add_swap4(self, v1, sigma):
        """Order-4 stabilizer whose square keeps the branches: a local model
        the smoothing code does not support (an expected obstruction)."""
        G, o = self.G, self.n_edge_orbits
        self.n_edge_orbits += 1
        self.fixed_nodes = True
        sq = G.mul(sigma, sigma)
        sub = G.closure((sq,))
        cosets = G.left_cosets(sub)
        for coset in cosets:
            self._half_edge(o, 0, coset, self.act_vertex(min(coset), v1))
        coset_of = {c: cs for cs in cosets for c in cs}
        done, base = set(), None
        for coset in cosets:
            partner = coset_of[G.mul(min(coset), sigma)]
            if coset in done:
                continue
            done.update((coset, partner))
            if 0 in coset:
                base = len(self.edges)
            self.edges.append((self.hindex[(o, 0, coset)], self.hindex[(o, 0, partner)]))
        self.tangent.append((sq, self.hindex[(o, 0, cosets[0])], Fraction(1, 2)))
        self.smoothing.append((sigma, base, self.rng.choice([Fraction(0), Fraction(1, 2)])))

    def add_declared(self, vertex, h, chi):
        self.declared.append((vertex, h, chi % 1, self.G.elem_order[h]))

    def add_declared_pair(self, i, transported):
        """Two ramification orbits of one element with inverse characters, so
        their local monodromies multiply to one (the action stays realizable)."""
        rep = self.rep(i)
        candidates = [h for h in self.stabilizer(rep) if h != 0]
        if not candidates:
            return
        h = self.rng.choice(candidates)
        chi = faithful_char(self.rng, self.G.elem_order[h])
        vertex = rep
        if transported:
            x = self.rng.randrange(self.G.order)
            vertex = self.act_vertex(x, rep)
            h = self.G.mul(self.G.mul(x, h), self.G.inv[x])
        self.add_declared(vertex, h, chi)
        self.add_declared(vertex, h, -chi)

    def branch_data(self, i):
        """(order, template element, vertex) of each branch point on orbit i."""
        rep = self.rep(i)
        stab = self.stabilizer(rep)
        out = [(e, h, v) for v, h, _, e in self.declared if self.vertices[v][0] == i]
        seen = set()
        for p in [h for h, v in enumerate(self.he_vertex) if v == rep]:
            if p in seen:
                continue
            seen.update(self.act_half_edge(g, p) for g in stab)
            s = [g for g in stab if self.act_half_edge(g, p) == p]
            if len(s) >= 2:
                gen = next(x for x in s if self.G.elem_order[x] == len(s))
                out.append((len(s), gen, rep))
        return out

    def solve_genera(self):
        """Genus of each orbit's components from Riemann-Hurwitz.  Branch
        points come in pairs with inverse monodromies, so the ramification
        sum is even; a nontrivial stabilizer gets quotient genus >= 2, which
        leaves room for a generating vector (x, y, y, x) of the stabilizer."""
        quotient = []
        for i in range(len(self.orbit_subs)):
            rep = self.rep(i)
            hbar = len(self.stabilizer(rep))
            branch = self.branch_data(i)
            ram = sum((hbar // e) * (e - 1) for e, _, _ in branch)
            assert ram % 2 == 0
            degree = sum(1 for v in self.he_vertex if v == rep)
            gq = max(self.rng.randint(0, 2), 2 if hbar > 1 else 0)
            while True:
                g_v = (hbar * (2 * gq - 2) + ram) // 2 + 1
                if g_v >= 0 and 2 * g_v - 2 + degree > 0:
                    break
                gq += 1
            quotient.append((g_v, gq, len(branch)))
        return quotient

    def emit(self, label):
        G = self.G
        quotient = self.solve_genera()
        genera = [quotient[i][0] for i, _ in self.vertices]
        genus = arithmetic_genus(genera, len(self.edges))
        if genus < 2:
            return None
        gen_idx = [G.index[s] for s in G.gens]
        return {
            "label": label,
            "genera": genera,
            "half_edge_vertex": list(self.he_vertex),
            "edges": [list(e) for e in self.edges],
            "vertex_images": [
                [self.act_vertex(k, v) for v in range(len(self.vertices))] for k in gen_idx
            ],
            "half_edge_images": [
                [self.act_half_edge(k, h) for h in range(len(self.half_edges))] for k in gen_idx
            ],
            "tangent": [[G.perm(g), h, frac(c)] for g, h, c in self.tangent],
            "smoothing": [[G.perm(g), n, frac(c)] for g, n, c in self.smoothing],
            "ram": [[v, G.perm(h), frac(c), e] for v, h, c, e in self.declared],
            "expect": {
                "genus": genus,
                "signatures": sorted([gq, b] for _, gq, b in quotient),
                "free": self.is_free(),
                "kernel": False,
            },
        }

    def is_free(self):
        """True when no nonidentity element can have a fixed point: every
        vertex stabilizer is trivial (so no branch point or fixed half-edge)
        and no node is swapped onto itself; None when not known."""
        return (all(len(sub) == 1 for sub in self.orbit_subs) and not self.fixed_nodes) or None


def prime_subgroups(group):
    """Subgroups of order p, p the smallest prime dividing |G| (cyclic)."""
    if group.order == 1:
        return [frozenset((0,))]
    p = next(q for q in range(2, group.order + 1) if group.order % q == 0)
    return [s for s in group.cyclic_subgroups() if len(s) == p]


def catalog_action(group, rng, label, shape):
    """One action of a fixed shape; the seed picks subgroups, elements,
    characters and genera.  Every vertex orbit's representative is joined to
    its image under each group generator by a free edge orbit, so the curve
    is connected without a variable number of repair edges and the size of
    the curve is fixed by the shape and the group."""
    G = group
    b = ActionBuilder(G, rng)
    trivial = frozenset((0,))
    involutions = [g for g in range(G.order) if G.elem_order[g] == 2]
    order4 = [g for g in range(G.order) if G.elem_order[g] == 4]
    if shape == "cyclic":
        H = rng.choice(prime_subgroups(G))
        b.add_vertex_orbit(H)
        b.add_paired(0, 0, H)
        b.add_declared_pair(0, transported=rng.random() < 0.3)
    elif shape == "swap":
        b.add_vertex_orbit(trivial)
        if involutions:
            b.add_swap(0, rng.choice(involutions), rng.random() < 0.5)
    elif shape == "free":
        b.add_vertex_orbit(trivial)
    elif shape == "hub":
        # one component fixed by G joined to a free orbit of components
        b.add_vertex_orbit(frozenset(range(G.order)))
        b.add_vertex_orbit(trivial)
        b.add_paired(0, 1, trivial)
        b.add_declared_pair(0, transported=False)
    elif shape == "swap4" and order4:
        sigma = rng.choice(order4)
        sq = G.mul(sigma, sigma)
        b.add_vertex_orbit(G.closure((sq,)))
        b.add_swap4(0, sigma)
        # the branch at the representative has monodromy sq; pair it
        b.add_declared(0, sq, Fraction(1, 2))
    else:  # two orbits joined by a paired orbit with a cyclic stabilizer
        C = rng.choice(prime_subgroups(G))
        b.add_vertex_orbit(C)
        b.add_vertex_orbit(C)
        rep1 = len(G.left_cosets(C))
        paired = b.add_paired(0, rep1, C)
        if paired:
            # pair each side's branch with a declared orbit of inverse monodromy
            c, chi = paired
            b.add_declared(0, c, -chi)
            b.add_declared(rep1, c, chi)
    for i in range(len(b.orbit_subs)):
        rep = b.rep(i)
        for s in G.gens:
            b.add_paired(rep, b.act_vertex(G.index[s], rep), trivial)
    return b.emit(label)


def inert_item(group, label, genera, hev, edges):
    g = arithmetic_genus(genera, len(edges))
    return {
        "label": label,
        "inert": True,
        "genera": genera,
        "half_edge_vertex": hev,
        "edges": edges,
        "vertex_images": [list(range(len(genera)))] * len(group.gens),
        "half_edge_images": [list(range(len(hev)))] * len(group.gens),
        "expect": {
            "genus": g,
            "total": 3 * g - 3,
            # trivial action on every component: quotient genus g_v, no branch points
            "signatures": sorted([gv, 0] for gv in genera),
            "free": group.order == 1,
            "kernel": group.order > 1,
        },
    }


def group_spec(group):
    return {"degree": group.degree, "generators": [list(s) for s in group.gens]}


# ----------------------------------------------------------------------------
# workloads

CLI_COMMANDS = (
    "validate", "genus", "t1", "t1-equivariant", "quotient",
    "surface-invariants", "kuranishi", "certify-degeneration", "check-family", "smooth",
)
CLI_ROUNDS = 64  # command orders for up to this many rounds per run

CATALOG_SHAPES = ("cyclic", "swap", "free", "inert", "hub", "swap4")

NECKLACE_SIZES = (
    3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16, 18, 20, 22, 25, 28, 32, 36, 40, 45,
    50, 56, 63, 71, 80, 90, 100, 125, 160, 200,
)
CAYLEY = (("S4", 3), ("A5", 2), ("S5", 2))  # group, number of Cayley generators


def gen_cli_sample(rng):
    rounds = []
    for _ in range(CLI_ROUNDS):
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        rounds.append(order)
    # the group of the document, enumerated by set-up like any workload's groups
    return {"groups": {"doc": {"degree": 2, "generators": [[1, 0]]}}, "rounds": rounds, "items": []}


def gen_catalog_pairs(rng):
    groups, items = {}, []
    for name in CATALOG:
        G = catalog_group(name)
        groups[name] = group_spec(G)
        for j, shape in enumerate(CATALOG_SHAPES):
            label = f"{name}.{j}.{shape}"
            while True:
                if shape == "inert":
                    g1, g2 = rng.randint(1, 3), rng.randint(1, 3)
                    item = inert_item(G, label, [g1, g2], [0, 1, 0, 0], [[0, 1], [2, 3]])
                else:
                    item = catalog_action(G, rng, label, shape)
                if item is not None:
                    break
            item["group"] = name
            items.append(shuffle_labels(rng, item))
    return {"groups": groups, "items": items}


def zn_necklace(n, rng):
    rotation = from_cycles([list(range(n))], n)
    u = rng.choice([a for a in range(1, n) if gcd(a, n) == 1] or [1])
    gen = list(range(n))
    for _ in range(u):
        gen = list(compose(tuple(gen), rotation))
    # vertex i carries half-edges 2i (towards i+1) and 2i+1 (from i-1);
    # the generator acts on the cycle by the rotation i -> i+u.
    hev, edges = [], []
    for i in range(n):
        hev.append(i)
        hev.append(i)
    for i in range(n):
        edges.append([2 * i, 2 * ((i + 1) % n) + 1])
    vimg = [(i + u) % n for i in range(n)]
    himg = [2 * ((h // 2 + u) % n) + h % 2 for h in range(2 * n)]
    genus = arithmetic_genus([2] * n, n)
    item = {
        "label": f"n{n}",
        "group": f"Z{n}",
        "genera": [2] * n,
        "half_edge_vertex": hev,
        "edges": edges,
        "vertex_images": [vimg],
        "half_edge_images": [himg],
        "expect": {
            "genus": genus,
            # quotient: one genus-2 component with one self-node
            "total": 6,
            "signatures": [[2, 0]],
            "free": True,
            "kernel": False,
            "edge_orbits": 1,
        },
    }
    return {"degree": n, "generators": [gen]}, item


def cayley_necklace(name, k, rng):
    base = natural_group(name)
    gens = random_generating_set(base, rng, k, min_order=3)
    G = Group(gens, base.degree)
    n = G.order
    # vertex x (element index); for each Cayley generator s_j an edge
    # x -- x*s_j, with half-edge 2*(j*n + x) at x and 2*(j*n + x) + 1 at x*s_j.
    hev = [0] * (2 * k * n)
    edges = []
    for j in range(k):
        sj = G.index[G.gens[j]]
        for x in range(n):
            h = 2 * (j * n + x)
            hev[h] = x
            hev[h + 1] = G.mul(x, sj)
            edges.append([h, h + 1])
    vimgs, himgs = [], []
    for t in range(k):
        ti = G.index[G.gens[t]]
        vimgs.append([G.mul(ti, x) for x in range(n)])
        himg = [0] * (2 * k * n)
        for j in range(k):
            for x in range(n):
                h = 2 * (j * n + x)
                h2 = 2 * (j * n + G.mul(ti, x))
                himg[h], himg[h + 1] = h2, h2 + 1
        himgs.append(himg)
    genus = arithmetic_genus([2] * n, k * n)
    item = {
        "label": f"g{n}",
        "group": name,
        "genera": [2] * n,
        "half_edge_vertex": hev,
        "edges": edges,
        "vertex_images": vimgs,
        "half_edge_images": himgs,
        "expect": {
            "genus": genus,
            # quotient: one genus-2 component with k self-nodes
            "total": 3 + 3 * k,
            "signatures": [[2, 0]],
            "free": True,
            "kernel": False,
            "edge_orbits": k,
        },
    }
    return group_spec(G), item


def gen_necklace(rng):
    groups, items = {}, []
    for n in NECKLACE_SIZES:
        spec, item = zn_necklace(n, rng)
        groups[item["group"]] = spec
        items.append(shuffle_labels(rng, item))
    for name, k in CAYLEY:
        spec, item = cayley_necklace(name, k, rng)
        groups[name] = spec
        items.append(shuffle_labels(rng, item))
    return {"groups": groups, "items": items}


def self_node_orbit(G, sub):
    """A self-node orbit G/sub at a vertex fixed by G: node i joins half-edges
    2i and 2i+1.  Returns the cosets and the half-edge images per generator."""
    cosets = G.left_cosets(sub)
    index = {cs: i for i, cs in enumerate(cosets)}
    images = []
    for s in G.gens:
        t = G.index[s]
        img = []
        for cs in cosets:
            j = index[frozenset(G.mul(t, x) for x in cs)]
            img += [2 * j, 2 * j + 1]
        images.append(img)
    return cosets, images


def _solve_component(rng, hbar, ram, node_orders):
    """Genus of a component with effective stabilizer order ``hbar``, declared
    ramification ``ram`` ([vertex, perm, char, order]) and node-branch
    suborbits of the given orders, for a random quotient genus g' >= 2.
    Returns (genus, g', b)."""
    orders = [r[3] for r in ram] + list(node_orders)
    ram_sum = sum((hbar // e) * (e - 1) for e in orders)
    assert ram_sum % 2 == 0
    gq = rng.randint(2, 3)
    return (hbar * (2 * gq - 2) + ram_sum) // 2 + 1, gq, len(orders)


def big_items(name, rng):
    """Items for one of S4, A5, S5 acting with large stabilizers."""
    base = natural_group(name)
    G = Group(random_generating_set(base, rng, 2, min_order=2), base.degree)
    n = G.order
    out = []

    g0 = rng.randint(2, 4)
    node = inert_item(G, f"{name}.inert_node", [g0], [0, 0], [[0, 1]])
    node["family_smooth_genus"] = g0 + 1
    out.append(node)
    g1, g2 = rng.randint(1, 3), rng.randint(1, 3)
    out.append(inert_item(G, f"{name}.inert_two", [g1, g2], [0, 1], [[0, 1]]))

    # One component fixed by G (trivial kernel) with a self-node orbit G/C,
    # C cyclic of order m >= 3 acting by inverse characters on the branches,
    # plus declared ramification orbits.
    m = {"S4": 4, "A5": 5, "S5": 6}[name]
    C = rng.choice([s for s in G.cyclic_subgroups() if len(s) == m])
    c = next(x for x in sorted(C) if G.elem_order[x] == len(C))
    cosets, himgs = self_node_orbit(G, C)
    base_i = next(i for i, cs in enumerate(cosets) if 0 in cs)
    chi = faithful_char(rng, len(C))
    # the ramification element has order 3 in every group, so the cost of
    # its conjugacy union is the same for every seed
    h = rng.choice([x for x in range(n) if G.elem_order[x] == 3])
    rho = faithful_char(rng, 3)
    ram = [[0, G.perm(h), frac(x), 3] for x in (rho, -rho)]
    genus, gq, b = _solve_component(rng, n, ram, [m, m])
    out.append({
        "label": f"{name}.ramified_node",
        "genera": [genus],
        "half_edge_vertex": [0] * (2 * len(cosets)),
        "edges": [[2 * i, 2 * i + 1] for i in range(len(cosets))],
        "vertex_images": [[0]] * len(G.gens),
        "half_edge_images": himgs,
        "tangent": [[G.perm(c), 2 * base_i, frac(chi)], [G.perm(c), 2 * base_i + 1, frac(-chi)]],
        "ram": ram,
        "expect": {
            "genus": genus + len(cosets),
            # node orbit fixed (inverse characters), both branch orbits moved
            # by a faithful character, quotient piece 3g' - 3 + b
            "total": 1 + 3 * gq - 3 + b,
            "signatures": [[gq, b]],
            "free": False,
            "kernel": False,
        },
    })

    # The same component type with a normal kernel K: G/K acts effectively
    # and the self-node orbit has stabilizer K, on which characters vanish.
    normal = {"S4": 4, "S5": 60}.get(name)
    if normal:
        # V4 in S4 (even elements of order <= 2), A5 in S5 (even elements)
        K = frozenset(
            x for x in range(n)
            if G.is_even(x) and (name == "S5" or G.elem_order[x] <= 2)
        )
        assert len(K) == normal
        hbar = n // normal
        cosets, himgs = self_node_orbit(G, K)
        # ramification: elements whose order modulo K is at least 2
        def order_mod(h):
            m, x = 1, h
            while x not in K:
                x = G.mul(x, h)
                m += 1
            return m

        outside = [x for x in range(n) if x not in K]
        h = rng.choice(outside)
        e = order_mod(h)
        chi = faithful_char(rng, e)
        ram = [[0, G.perm(h), frac(x), e] for x in (chi, -chi)]
        genus, gq, b = _solve_component(rng, hbar, ram, [])
        out.append({
            "label": f"{name}.kernel_node",
            "genera": [genus],
            "half_edge_vertex": [0] * (2 * len(cosets)),
            "edges": [[2 * i, 2 * i + 1] for i in range(len(cosets))],
            "vertex_images": [[0]] * len(G.gens),
            "half_edge_images": himgs,
            "kernels": {"0": [G.perm(x) for x in sorted(K) if x != 0]},
            "ram": ram,
            "expect": {
                "genus": genus + len(cosets),
                # node and both branch orbits invariant (characters vanish on K)
                "total": 1 + 2 + 3 * gq - 3 + b,
                "signatures": [[gq, b]],
                "free": False,
                "kernel": True,
            },
        })

    # G acting freely on a smooth component of genus |G| + 1 (quotient genus 2).
    out.append({
        "label": f"{name}.free_smooth",
        "genera": [n + 1],
        "half_edge_vertex": [],
        "edges": [],
        "vertex_images": [[0]] * len(G.gens),
        "half_edge_images": [[]] * len(G.gens),
        "expect": {"genus": n + 1, "total": 3, "signatures": [[2, 0]], "free": True, "kernel": False},
    })
    for item in out:
        item["group"] = name
    return group_spec(G), out


def gen_big_stabilizer(rng):
    groups, items = {}, []
    for name in ("S4", "A5", "S5"):
        spec, its = big_items(name, rng)
        groups[name] = spec
        items += [shuffle_labels(rng, it) for it in its]
    return {"groups": groups, "items": items}


WORKLOADS = {
    "cli_sample": gen_cli_sample,
    "catalog_pairs": gen_catalog_pairs,
    "necklace": gen_necklace,
    "big_stabilizer": gen_big_stabilizer,
}


def source_digest():
    """Identifies this generator's code, so cached inputs follow its changes."""
    with open(__file__, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:12]


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    doc = WORKLOADS[workload](rng)
    doc.update({"workload": workload, "seed": seed, "generator": source_digest()})
    return doc


def dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(workload, seed):
    return hashlib.sha256(dumps(generate(workload, seed)).encode()).hexdigest()
