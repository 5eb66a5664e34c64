"""Finite groups with elements indexed 0..n-1.

A group is built by closing a generating set of concretely encoded elements
(integers, tuples of integers, permutation images, 2x2 matrix entries) under
multiplication.  Elements are then sorted by their encoding, so indices are
stable across runs, and everything downstream works on indices 0..n-1.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .groupspec import (
    FamilySpec,
    GroupSpec,
    PermSpec,
    ProductSpec,
    format_group_spec,
)

DEFAULT_MAX_ORDER = 5040
_EXHAUSTIVE_LIMIT = 1024


class OrderCapExceeded(RuntimeError):
    """The requested construction would pass a configured size cap."""

    def __init__(self, label: str, cap: int, needed: int | None = None, kind: str = "order"):
        detail = f"group {label!r} exceeds the {kind} cap {cap}"
        if needed is not None:
            detail += f" (needs {needed})"
        super().__init__(detail)
        self.label = label
        self.cap = cap
        self.needed = needed
        self.kind = kind


class GroupError(RuntimeError):
    """An axiom or consistency check failed."""


def _seeded_rng(seed: int, label: str, salt: str = "") -> random.Random:
    # a str seed is hashed with sha512 by random itself, the same on every run
    return random.Random(f"{seed}:{label}:{salt}")


class GroupTable:
    """A finite group with elements indexed 0..n-1 in encoding order.

    Exposes multiplication (of encodings, looked up in ``index``), inversion,
    element orders and powers.  The raw encodings stay available through
    ``elements`` for printing and for building direct products.
    """

    def __init__(
        self,
        label: str,
        elements: Sequence[object],
        mul_enc: Callable[[object, object], object],
        identity_enc: object,
        generator_encs: Sequence[object],
        spec: Optional[GroupSpec] = None,
    ):
        self.label = label
        self.spec = spec
        self.elements = tuple(elements)
        self.n = len(self.elements)
        self.index = {enc: i for i, enc in enumerate(self.elements)}
        if len(self.index) != self.n:
            raise GroupError(f"duplicate encodings in {label!r}")
        self.identity_index = self.index[identity_enc]
        gens = []
        for g in generator_encs:
            i = self.index[g]
            if i not in gens:
                gens.append(i)
        if not gens:
            gens = [self.identity_index]
        self.generators = tuple(gens)
        self._mul_enc = mul_enc
        self._init_orders()

    def _init_orders(self) -> None:
        n = self.n
        e = self.identity_index
        orders = [0] * n
        inverse = [0] * n
        for i in range(n):
            prev = e
            cur = i
            o = 1
            while cur != e:
                prev = cur
                cur = self.multiply(cur, i)
                o += 1
                if o > n:
                    raise GroupError(f"element {i} of {self.label!r} has no finite order")
            orders[i] = o
            inverse[i] = prev
        self.element_order = tuple(orders)
        self.inverse = tuple(inverse)
        self.exponent = math.lcm(*orders)
        gens = self.generators
        self.is_abelian = all(
            self.multiply(a, b) == self.multiply(b, a) for a in gens for b in gens
        )

    def multiply(self, i: int, j: int) -> int:
        return self.index[self._mul_enc(self.elements[i], self.elements[j])]

    def power(self, i: int, k: int) -> int:
        """i raised to the integer k (any sign), via the element's order."""
        k %= self.element_order[i]
        result = self.identity_index
        base = i
        while k:
            if k & 1:
                result = self.multiply(result, base)
            k >>= 1
            if k:
                base = self.multiply(base, base)
        return result

    def element_repr(self, i: int) -> str:
        return str(self.elements[i])


def _close(
    generator_encs: Sequence[object],
    identity_enc: object,
    mul_enc: Callable[[object, object], object],
    cap: int,
    label: str,
) -> list[object]:
    """Breadth-first closure of the generators under right multiplication."""
    seen = {identity_enc}
    frontier = [identity_enc]
    while frontier:
        fresh = []
        for x in frontier:
            for g in generator_encs:
                y = mul_enc(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise OrderCapExceeded(label, cap)
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return sorted(seen)  # type: ignore[type-var]


# ---------------------------------------------------------------------------
# family constructions


def _build_cyclic(k: int):
    mul = lambda a, b: (a + b) % k
    return [1 % k], 0, mul, k


def _build_abelian(dims: tuple[int, ...]):
    def mul(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, dims))

    gens = []
    for i, d in enumerate(dims):
        if d > 1:
            gens.append(tuple(1 if j == i else 0 for j in range(len(dims))))
    identity = tuple(0 for _ in dims)
    order = math.prod(dims)
    return gens or [identity], identity, mul, order


def _build_dihedral(k: int):
    # (r, s) stands for rotation^r * flip^s; flips conjugate rotations to
    # their inverses, hence the sign twist on the second rotation amount.
    def mul(a, b):
        r1, s1 = a
        r2, s2 = b
        r = (r1 + (r2 if s1 == 0 else -r2)) % k
        return (r, (s1 + s2) % 2)

    gens = [(1 % k, 0), (0, 1)]
    return gens, (0, 0), mul, 2 * k


def _perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # apply b first, then a
    return tuple(a[x] for x in b)


def _build_sym(k: int):
    deg = max(k, 1)
    identity = tuple(range(deg))
    gens = []
    if k >= 2:
        t = list(identity)
        t[0], t[1] = t[1], t[0]
        gens.append(tuple(t))
    if k >= 3:
        gens.append(tuple(list(range(1, k)) + [0]))
    return gens or [identity], identity, _perm_mul, math.factorial(k)


def _build_alt(k: int):
    deg = max(k, 1)
    identity = tuple(range(deg))
    gens = []
    for i in range(k - 2):
        c = list(identity)
        c[i], c[i + 1], c[i + 2] = c[i + 1], c[i + 2], c[i]
        gens.append(tuple(c))
    order = math.factorial(k) // 2 if k >= 2 else 1
    return gens or [identity], identity, _perm_mul, order


def _build_q8():
    # (a, b) stands for i^a * j^b with i^4 = e, j^2 = i^2, j i = i^-1 j.
    def mul(x, y):
        a1, b1 = x
        a2, b2 = y
        if b1 == 0:
            return ((a1 + a2) % 4, b2)
        if b2 == 0:
            return ((a1 - a2) % 4, 1)
        return ((a1 - a2 + 2) % 4, 0)

    return [(1, 0), (0, 1)], (0, 0), mul, 8


# GF(2^r) with a fixed irreducible polynomial per degree; elements are bit
# masks over the polynomial basis.
_GF2_POLY = {2: 0b111, 3: 0b1011, 4: 0b10011}


class _GF2Field:
    def __init__(self, r: int):
        self.r = r
        self.q = 1 << r
        poly = _GF2_POLY[r]
        mul = [[0] * self.q for _ in range(self.q)]
        for a in range(self.q):
            for b in range(self.q):
                acc = 0
                x = a
                y = b
                while y:
                    if y & 1:
                        acc ^= x
                    y >>= 1
                    x <<= 1
                    if x & self.q:
                        x ^= poly
                mul[a][b] = acc
        self.mul = mul
        inv = [0] * self.q
        for a in range(1, self.q):
            for b in range(1, self.q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
        self.inv = inv


def _build_sl2(q: int):
    r = q.bit_length() - 1
    field = _GF2Field(r)
    fm = field.mul

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            fm[a][e] ^ fm[b][g],
            fm[a][f] ^ fm[b][h],
            fm[c][e] ^ fm[d][g],
            fm[c][f] ^ fm[d][h],
        )

    # a transvection, the Weyl element and a generator of the diagonal torus
    gen = 0b10
    gens = [(1, 1, 0, 1), (0, 1, 1, 0), (gen, 0, 0, field.inv[gen])]
    order = q * (q * q - 1)
    return gens, (1, 0, 0, 1), mul, order


def make_group(spec: GroupSpec, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Realize a parsed spec as a concrete group, subject to the order cap."""
    label = format_group_spec(spec)
    if isinstance(spec, ProductSpec):
        left = make_group(spec.left, max_order)
        right = make_group(spec.right, max_order)
        return direct_product(left, right, max_order)
    if isinstance(spec, PermSpec):
        return _make_perm_group(spec, label, max_order)
    name, args = spec.family, spec.args
    if name == "cyclic":
        gens, identity, mul, order = _build_cyclic(args[0])
    elif name == "abelian":
        gens, identity, mul, order = _build_abelian(args)
    elif name == "dihedral":
        gens, identity, mul, order = _build_dihedral(args[0])
    elif name == "sym":
        gens, identity, mul, order = _build_sym(args[0])
    elif name == "alt":
        gens, identity, mul, order = _build_alt(args[0])
    elif name == "q8":
        gens, identity, mul, order = _build_q8()
    elif name == "sl2":
        gens, identity, mul, order = _build_sl2(args[0])
    else:
        raise ValueError(f"unknown family {name!r}")
    if order > max_order:
        raise OrderCapExceeded(label, max_order, order)
    elements = _close(gens, identity, mul, max_order, label)
    if len(elements) != order:
        raise GroupError(
            f"{label!r}: closure produced {len(elements)} elements, expected {order}"
        )
    return GroupTable(label, elements, mul, identity, gens, spec=spec)


def _make_perm_group(spec: PermSpec, label: str, max_order: int) -> GroupTable:
    deg = max(p for gen in spec.generators for cyc in gen for p in cyc)
    identity = tuple(range(deg))
    gens = []
    for gen in spec.generators:
        images = list(identity)
        for cyc in gen:
            # apply this cycle after what is already there
            zero_based = [p - 1 for p in cyc]
            shift = {zero_based[i]: zero_based[(i + 1) % len(cyc)] for i in range(len(cyc))}
            images = [shift.get(x, x) for x in images]
        gens.append(tuple(images))
    elements = _close(gens, identity, _perm_mul, max_order, label)
    return GroupTable(label, elements, _perm_mul, identity, gens, spec=spec)


def direct_product(
    left: GroupTable, right: GroupTable, max_order: int = DEFAULT_MAX_ORDER
) -> GroupTable:
    """The direct product, with pair encodings ordered left-then-right."""
    label = f"{left.label}*{right.label}"
    order = left.n * right.n
    if order > max_order:
        raise OrderCapExceeded(label, max_order, order)
    lmul, rmul = left._mul_enc, right._mul_enc

    def mul(a, b):
        return (lmul(a[0], b[0]), rmul(a[1], b[1]))

    elements = [(x, y) for x in left.elements for y in right.elements]
    identity = (
        left.elements[left.identity_index],
        right.elements[right.identity_index],
    )
    gens = [(left.elements[g], right.elements[right.identity_index]) for g in left.generators]
    gens += [(left.elements[left.identity_index], right.elements[g]) for g in right.generators]
    spec = None
    if left.spec is not None and right.spec is not None:
        spec = ProductSpec(left.spec, right.spec)
    return GroupTable(label, sorted(elements), mul, identity, gens, spec=spec)


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass(frozen=True)
class ConjugacyClass:
    rep: int
    members: tuple[int, ...]
    size: int
    centralizer_order: int
    rep_order: int


@dataclass(frozen=True)
class ClassSet:
    """All conjugacy classes of a group, in a canonical order.

    Classes are sorted by (order of representative, class size, smallest
    member index), which puts the identity class first.  ``class_of`` maps
    element indices to class indices; ``inverse_class`` maps a class to the
    class of the inverses of its members.
    """

    classes: tuple[ConjugacyClass, ...]
    class_of: tuple[int, ...]
    inverse_class: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.classes)


def conjugacy_classes(G: GroupTable) -> ClassSet:
    n = G.n
    seen = bytearray(n)
    raw: list[list[int]] = []
    gens = G.generators
    ginv = [G.inverse[g] for g in gens]
    for i in range(n):
        if seen[i]:
            continue
        orbit = [i]
        seen[i] = 1
        queue = [i]
        while queue:
            x = queue.pop()
            for g, gi in zip(gens, ginv):
                y = G.multiply(gi, G.multiply(x, g))
                if not seen[y]:
                    seen[y] = 1
                    orbit.append(y)
                    queue.append(y)
        orbit.sort()
        raw.append(orbit)
    raw.sort(key=lambda orbit: (G.element_order[orbit[0]], len(orbit), orbit[0]))
    classes = []
    class_of = [0] * n
    for ci, orbit in enumerate(raw):
        size = len(orbit)
        if n % size:
            raise GroupError(f"class size {size} does not divide {n}")
        classes.append(
            ConjugacyClass(
                rep=orbit[0],
                members=tuple(orbit),
                size=size,
                centralizer_order=n // size,
                rep_order=G.element_order[orbit[0]],
            )
        )
        for x in orbit:
            class_of[x] = ci
    inverse_class = tuple(class_of[G.inverse[c.rep]] for c in classes)
    return ClassSet(tuple(classes), tuple(class_of), tuple(inverse_class))


def class_power_chains(G: GroupTable, S: ClassSet) -> tuple[tuple[int, ...], ...]:
    """For each class, the classes of rep^0, rep^1, ..., rep^(o-1).

    Since rep^a depends on a only mod o, these chains answer every power-map
    query without touching group multiplication again.
    """
    chains = []
    for c in S.classes:
        chain = []
        cur = G.identity_index
        for _ in range(c.rep_order):
            chain.append(S.class_of[cur])
            cur = G.multiply(cur, c.rep)
        chains.append(tuple(chain))
    return tuple(chains)


def class_power_map(G: GroupTable, S: ClassSet, a: int) -> tuple[int, ...]:
    """The permutation j -> class of (rep_j)^a, for a coprime to the order:
    one power per class (``class_power_chains`` tabulates every exponent)."""
    b = a % G.n if G.n > 0 else 0
    if math.gcd(b, G.n) != 1:
        raise ValueError(f"{a} is not coprime to the group order {G.n}")
    return tuple(S.class_of[G.power(c.rep, b % c.rep_order)] for c in S.classes)


def permutation_parity(p: Sequence[int]) -> int:
    """+1 for even permutations of 0..m-1, -1 for odd ones."""
    m = len(p)
    seen = bytearray(m)
    cycles = 0
    for i in range(m):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = 1
            j = p[j]
            if not 0 <= j < m:
                raise ValueError(f"not a permutation of 0..{m - 1}: {p!r}")
        if j != i:
            raise ValueError(f"not a permutation of 0..{m - 1}: {p!r}")
    return 1 if (m - cycles) % 2 == 0 else -1


# ---------------------------------------------------------------------------
# axiom verification


def verify_axioms(G: GroupTable, seed: int = 0) -> None:
    """Check the group laws on the realized group; raise GroupError on failure.

    Identity, inverses and orders are checked for every element.  For n <= 1024
    an n x n table must be a Latin square, the generators must reach every
    element, and Light's test (x g) y = x (g y) must hold for each generator g;
    the elements passing it are closed under products, so this proves
    associativity.  Larger groups get a seeded sample of rows, columns and triples.
    """
    n = G.n
    e = G.identity_index
    for i in range(n):
        if G.multiply(e, i) != i or G.multiply(i, e) != i:
            raise GroupError(f"{G.label!r}: identity fails at {i}")
        if G.multiply(i, G.inverse[i]) != e or G.multiply(G.inverse[i], i) != e:
            raise GroupError(f"{G.label!r}: inverse fails at {i}")
        if G.element_order[i] < 1 or G.exponent % G.element_order[i]:
            raise GroupError(f"{G.label!r}: order of {i} does not divide the exponent")
    if G.element_order[e] != 1 or n % G.exponent:
        raise GroupError(f"{G.label!r}: exponent {G.exponent} inconsistent with n={n}")

    if n <= _EXHAUSTIVE_LIMIT:
        idx, elems, mul = G.index, G.elements, G._mul_enc
        t = np.empty((n, n), dtype=np.intp)
        for i, a in enumerate(elems):
            t[i] = [idx[mul(a, b)] for b in elems]
        want = np.arange(n)
        if not ((np.sort(t, axis=1) == want).all() and (np.sort(t, axis=0) == want[:, None]).all()):
            raise GroupError(f"{G.label!r}: multiplication table is not a Latin square")
        right = t[:, list(G.generators)]
        reached = np.arange(n) == e
        while not reached[right[reached]].all():
            reached[right[reached]] = True
        if not reached.all():
            raise GroupError(f"{G.label!r}: generators reach only {reached.sum()} of {n} elements")
        for g in G.generators:
            if not np.array_equal(t[t[:, g]], t[:, t[g]]):
                raise GroupError(f"{G.label!r}: associativity fails with generator {g}")
        return
    rng = _seeded_rng(seed, G.label, "latin")
    lines = sorted(rng.sample(range(n), min(n, 48)))
    full = set(range(n))
    for i in lines:
        if {G.multiply(i, j) for j in range(n)} != full:
            raise GroupError(f"{G.label!r}: row {i} is not a permutation")
        if {G.multiply(j, i) for j in range(n)} != full:
            raise GroupError(f"{G.label!r}: column {i} is not a permutation")
    rng = _seeded_rng(seed, G.label, "assoc")
    for _ in range(100_000):
        a = rng.randrange(n)
        b = rng.randrange(n)
        c = rng.randrange(n)
        if G.multiply(G.multiply(a, b), c) != G.multiply(a, G.multiply(b, c)):
            raise GroupError(f"{G.label!r}: associativity fails at ({a}, {b}, {c})")
