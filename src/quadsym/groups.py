"""Finite groups with elements indexed 0..n-1.

A group is built by closing a generating set of concretely encoded elements
(integers, tuples of integers, permutation images, 2x2 matrix entries) under
multiplication.  Elements are then sorted by their encoding, so indices are
stable across runs, and everything downstream works on indices 0..n-1.

Each element also has a row: its encoding flattened to integers, stored in
the n x w array ``GroupTable.rows``.  A family's product maps two arrays of
rows, shapes (..., w) broadcast together, to one: modular addition, a twisted
sum (dihedral, quaternion), a gather of permutation images or of one GF(2^r)
a c + b d per SL(2) entry, or both halves of a row for a direct product.
``_multiply`` multiplies each side's rows in its own shape, a block of the
leading axis at a time, and looks each product up by a key read in place from
its bytes, in an open-addressing hash table, -1 where it is no element.  A
group whose n^2 products span n^2 w <= 2^17 row values tabulates them so in
its constructor, an (n, n) int16 table read by one gather from then on; either
way ``multiply_many`` raises on a -1 it was asked for.  So orders, classes,
power maps, the axiom check and the closure multiply whole arrays at once.

``class_power_chains`` tabulates the class power map at every exponent in one
array, by doubling, for chartab alone; ``class_power_map`` answers one
exponent, or several from one square-and-multiply ladder (``power_many``).
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .groupspec import (
    GroupSpec,
    PermSpec,
    ProductSpec,
    format_group_spec,
)

DEFAULT_MAX_ORDER = 5040
_EXHAUSTIVE_LIMIT = 1024
# row entries multiplied per numpy pass; bounds the temporaries of a large batch
_BLOCK_VALUES = 1 << 16

Product = Callable[[np.ndarray, np.ndarray], np.ndarray]


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


def _flat(enc: object) -> tuple[int, ...]:
    """An encoding's row: its integers in order, nested tuples flattened."""
    if isinstance(enc, (tuple, list)):
        return tuple(v for part in enc for v in _flat(part))
    return (enc,)  # type: ignore[return-value]


def _keys(rows: np.ndarray, dtype) -> np.ndarray:
    """One opaque key per row of a (..., w) array, equal exactly when the rows are:
    up to 8 bytes read in place, the p-byte part at size & (p - 1), else bytes."""
    raw = np.ascontiguousarray(rows, dtype).view(np.uint8)
    size = raw.shape[-1]
    if size > 8:
        return raw.view(np.dtype((np.void, size)))[..., 0]
    parts = [raw[..., size & p - 1 : size & 2 * p - 1].view(f"u{p}")[..., 0] for p in (1, 2, 4, 8) if size & p]
    return functools.reduce(lambda key, w: key.astype(np.int64) << 8 * w.itemsize | w, parts)


# 2^64 / golden ratio, odd: Fibonacci hashing keeps the top bits of key * _FIB
_FIB = np.uint64(0x9E3779B97F4A7C15)


def _hash(keys: np.ndarray, bits: int) -> np.ndarray:
    """Slots 0..2^bits-1 for a 1-d array of keys (Knuth, TAOCP vol. 3, 6.4); a
    void key folds its words of up to 8 bytes into one first."""
    if keys.dtype.kind == "V":
        raw = keys.view(np.uint8).reshape(len(keys), keys.dtype.itemsize)
        words = (_keys(raw[:, i : i + 8], np.uint8) for i in range(0, raw.shape[1], 8))
        keys = functools.reduce(lambda h, w: h * _FIB + w.view(f"u{w.itemsize}"), words, np.uint64(0))
    h = keys.view(f"u{keys.itemsize}") * _FIB
    h >>= np.uint64(64 - bits)
    return h.view(np.intp)


def _dtype(bound: int) -> type:
    # row values stay below bound; a family product may form sums up to 2 * bound
    return np.int8 if bound < 2**6 else np.int16 if bound < 2**14 else np.int64


class GroupTable:
    """A finite group with elements indexed 0..n-1 in encoding order.

    ``rows`` holds the elements as an n x w integer array and ``elements``
    their encodings, for printing: given as such (rows default to them
    flattened), or as a function that decodes (k, w) rows into k encodings,
    called on first read.  ``mul`` multiplies two arrays of rows, shapes
    (..., w) broadcast together; ``identity`` and ``generators`` are encodings.
    """

    def __init__(
        self,
        label: str,
        elements: Sequence[object] | Callable[[np.ndarray], list],
        mul: Product,
        identity: object,
        generators: Sequence[object],
        spec: Optional[GroupSpec] = None,
        rows: Optional[np.ndarray] = None,
    ):
        self.label = label
        self.spec = spec
        if callable(elements):
            self._decode = elements
        else:  # the encodings themselves: a row decodes to the one at its index
            self.__dict__["elements"] = known = tuple(elements)
            self._decode = lambda rows: [known[i] for i in self._locate(rows)[0].tolist()]
            if rows is None:
                rows = np.array([_flat(x) for x in known]).reshape(len(known), -1)
        self.rows = rows
        self.n = len(rows)
        self._mul = mul
        self._init_slots(label)
        # a small group's products are looked up once, from at most two blocks
        # of row values: -1 marks a non-element
        every = np.arange(self.n)
        small = self.n**2 * self.rows.shape[1] <= 2 * _BLOCK_VALUES
        self._table = self._multiply(every[:, None], every) if small else None
        named = [identity, *generators]
        found, miss = self._locate(np.array([_flat(x) for x in named]))
        if miss.any():
            raise GroupError(f"{label!r}: {named[miss.argmax()]} is not an element")
        self.identity_index = int(found[0])
        self.generators = tuple(dict.fromkeys(found[1:].tolist())) or (self.identity_index,)
        self._init_orders()

    @functools.cached_property
    def elements(self) -> tuple:
        return tuple(self._decode(self.rows))  # on first read

    def _init_slots(self, label: str) -> None:
        # linear probing in 2^bits >= 8n slots, each -1 or an element index;
        # every pending row tries its slot, one claimant of each free slot wins
        self._key = _keys(self.rows, self.rows.dtype)
        self._bits = (8 * self.n - 1).bit_length()
        self._slots = np.empty(1 << self._bits, np.int16 if self.n < 2**15 else np.intp)
        self._slots.fill(-1)
        todo, h = np.arange(self.n), _hash(self._key, self._bits)
        while todo.size:
            free = self._slots[h] < 0
            self._slots[h[free]] = todo[free]
            held = self._slots[h]
            left = held != todo
            if (self._key[held[left]] == self._key[todo[left]]).any():
                raise GroupError(f"duplicate encodings in {label!r}")
            todo, h = todo[left], (h[left] + 1) & (len(self._slots) - 1)

    def _locate(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Indices of the given rows, and a mask of the rows that are not
        elements: each key probes from its hash to its element or, if it is
        none, to an empty slot; a probe round gathers only unresolved keys."""
        keys = _keys(rows, self.rows.dtype)
        shape, keys = keys.shape, keys.ravel()
        h = _hash(keys, self._bits)
        found = self._slots.take(h)
        # an empty slot gathers the last element's key, which the probe for
        # that key meets at its own slot before any empty one
        todo = (self._key.take(found) != keys).nonzero()[0]
        h, miss = h[todo], np.zeros(len(keys), bool)
        while todo.size:
            live = found[todo] >= 0
            miss[todo[~live]] = True
            todo, h = todo[live], (h[live] + 1) & (len(self._slots) - 1)
            found[todo] = self._slots.take(h)
            again = self._key.take(found[todo]) != keys[todo]
            todo, h = todo[again], h[again]
        return found.reshape(shape), miss.reshape(shape)

    def multiply_many(self, I, J) -> np.ndarray:
        """Indices of the products I * J over the broadcast index arrays: one
        gather from the table of a small group, else ``_multiply``."""
        I, J = np.asarray(I), np.asarray(J)
        found = self._multiply(I, J) if self._table is None else self._table[I, J]
        miss = found < 0
        if miss.any():
            at = np.unravel_index(miss.argmax(), miss.shape)
            x, y = (int(np.broadcast_to(X, miss.shape)[at]) for X in (I, J))
            raise GroupError(
                f"{self.label!r}: the product of elements {x} and {y} "
                f"({self.element_repr(x)} * {self.element_repr(y)}) is not an element"
            )
        return found

    def _multiply(self, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        """The products' indices, -1 where a product is not an element, from
        each side's rows in its own shape, a block of the leading axis at a time."""
        block = lambda I, J: self._locate(self._mul(self.rows.take(I, axis=0), self.rows.take(J, axis=0)))[0]
        shape = np.broadcast(I, J).shape
        values = math.prod(shape) * self.rows.shape[1]
        if values <= _BLOCK_VALUES:
            return block(I, J)
        step, out = max(1, _BLOCK_VALUES * shape[0] // values), np.empty(shape, self._slots.dtype)
        for s in range(0, shape[0], step):
            cut = (X[s : s + step] if X.ndim == len(shape) and len(X) > 1 else X for X in (I, J))
            out[s : s + step] = block(*cut)
        return out

    def power_many(self, I, k) -> np.ndarray:
        """Indices of I ** k for one exponent 0 <= k, or, for a list of them,
        of I ** k[s] at row s: one square-and-multiply, the squares shared."""
        ks, base = k if isinstance(k, list) else [k], np.array(I, dtype=np.intp)
        out = np.empty((len(ks),) + base.shape, np.intp)
        out.fill(self.identity_index)
        for bit in range(int(max(ks, default=0)).bit_length()):
            if bit:
                base = self.multiply_many(base, base)
            odd = [s for s, x in enumerate(ks) if x >> bit & 1]
            if odd:
                out[odd] = self.multiply_many(out[odd], base)
        return out if isinstance(k, list) else out[0]

    def _init_orders(self) -> None:
        # powers of every element at once; an element leaves when it reaches e
        n, e = self.n, self.identity_index
        orders, inverse = np.empty((2, n), np.int64)
        orders[e], inverse[e] = 1, e
        x = np.arange(n)[np.arange(n) != e]
        cur = x
        o = 1
        while x.size:
            if o >= n:
                raise GroupError(f"element {x[0]} of {self.label!r} has no finite order")
            nxt = self.multiply_many(cur, x)
            o += 1
            done = nxt == e
            if done.any():
                orders[x[done]] = o
                inverse[x[done]] = cur[done]
                x, nxt = x[~done], nxt[~done]
            cur = nxt
        self.element_order = tuple(orders.tolist())
        self.inverse = tuple(inverse.tolist())
        self.exponent = math.lcm(*self.element_order)
        gens = np.array(self.generators)
        ab = self.multiply_many(gens[:, None], gens)
        self.is_abelian = bool((ab == ab.T).all())

    def multiply(self, i: int, j: int) -> int:
        return int(self.multiply_many(i, j))

    def power(self, i: int, k: int) -> int:
        """i raised to the integer k (any sign), via the element's order."""
        return int(self.power_many(i, k % self.element_order[i]))

    def element_repr(self, i: int) -> str:
        known = self.__dict__.get("elements")  # else row i alone is decoded
        return str(known[i] if known is not None else self._decode(self.rows[i : i + 1])[0])


def _close(
    generators: np.ndarray, identity: np.ndarray, mul: Product, cap: int, label: str
) -> np.ndarray:
    """Breadth-first closure under right multiplication, one level at a time:
    the frontier times every generator in one product.  Returns the element
    rows in encoding (lexicographic) order."""
    w, dtype = identity.shape[0], identity.dtype
    levels = [identity[None, :]]
    seen = _keys(levels[0], dtype)  # sorted
    while len(levels[-1]):
        cand = np.ascontiguousarray(mul(levels[-1][:, None], generators), dtype).reshape(-1, w)
        keys = _keys(cand, dtype)
        by_key = keys.argsort(kind="stable")
        keys = keys[by_key]
        fresh = seen.take(seen.searchsorted(keys), mode="clip") != keys
        fresh[1:] &= keys[1:] != keys[:-1]
        seen = np.concatenate([seen, keys[fresh]])
        if len(seen) > cap:
            raise OrderCapExceeded(label, cap)
        seen.sort(kind="stable")
        levels.append(cand[by_key[fresh]])
    rows = np.concatenate(levels)
    return rows[np.lexsort(rows.T[::-1])]


# ---------------------------------------------------------------------------
# family constructions: generators and identity as rows, the product on
# (..., w) arrays of rows, the order, and the largest row value plus one


def _build_cyclic(k: int):
    return [[1 % k]], [0], lambda a, b: (a + b) % k, k, k


def _build_abelian(dims: tuple[int, ...]):
    mod = np.array(dims, dtype=_dtype(max(dims)))
    gens = [[int(j == i) for j in range(len(dims))] for i, d in enumerate(dims) if d > 1]
    identity = [0] * len(dims)
    return gens or [identity], identity, lambda a, b: (a + b) % mod, math.prod(dims), max(dims)


def _build_dihedral(k: int):
    # (r, s) stands for rotation^r * flip^s; flips conjugate rotations to
    # their inverses, hence the sign twist on the second rotation amount.
    def mul(x, y):
        r1, s1, r2, s2 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
        return np.stack([(r1 + (1 - 2 * s1) * r2) % k, (s1 + s2) % 2], axis=-1)

    return [[1 % k, 0], [0, 1]], [0, 0], mul, 2 * k, k


def _perm_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # apply b first, then a: one gather from a's rows, each offset by its start
    start = np.arange(0, a.size, a.shape[-1]).reshape(a.shape[:-1] + (1,))
    return np.ravel(a).take(b + start)


def _build_sym(k: int):
    identity = list(range(max(k, 1)))
    gens = []
    if k >= 2:
        gens.append([1, 0] + identity[2:])
    if k >= 3:
        gens.append(identity[1:] + [0])
    return gens or [identity], identity, _perm_mul, math.factorial(k), k


def _build_alt(k: int):
    identity = list(range(max(k, 1)))
    gens = []
    for i in range(k - 2):
        c = list(identity)
        c[i], c[i + 1], c[i + 2] = c[i + 1], c[i + 2], c[i]
        gens.append(c)
    order = math.factorial(k) // 2 if k >= 2 else 1
    return gens or [identity], identity, _perm_mul, order, k


def _build_q8():
    # (a, b) stands for i^a * j^b with i^4 = e, j^2 = i^2, j i = i^-1 j.
    def mul(x, y):
        a1, b1, a2, b2 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
        return np.stack([(a1 + (1 - 2 * b1) * a2 + 2 * b1 * b2) % 4, (b1 + b2) % 2], axis=-1)

    return [[1, 0], [0, 1]], [0, 0], mul, 8, 4


# GF(2^r) with a fixed irreducible polynomial per degree; elements are bit
# masks over the polynomial basis.
_GF2_POLY = {2: 0b111, 3: 0b1011, 4: 0b10011}


class _GF2Field:
    def __init__(self, r: int):
        self.r = r
        self.q = 1 << r
        # at step i, shifted[a] = a * X^i mod the polynomial and bits[b] = b >> i;
        # mul[a, b] is the XOR of shifted[a] over the set bits of b
        shifted, bits = np.arange(self.q), np.arange(self.q)
        self.mul = np.zeros((self.q, self.q), dtype=np.int8)
        for _ in range(r):
            self.mul ^= np.outer(shifted, bits & 1).astype(np.int8)
            shifted, bits = shifted << 1, bits >> 1
            shifted = np.where(shifted & self.q, shifted ^ _GF2_POLY[r], shifted)
        self.inv = (self.mul == 1).argmax(axis=1).tolist()


def _build_sl2(q: int):
    field = _GF2Field(q.bit_length() - 1)
    fm, r = field.mul, field.r
    # dot[(a << 3r) | (b << 2r) | (c << r) | d] is the field's a * c + b * d
    dot = (fm[:, None, :, None] ^ fm[None, :, None, :]).ravel()

    def mul(x, y):
        # entry (i, j) of x @ y (row-major a b / c d) is x_i0 y_0j + x_i1 y_1j:
        # one lookup per entry, at x's row i and y's column j packed together
        x, y = x.astype(np.uint16), y.astype(np.uint16)
        rows = [x[..., i] << 3 * r | x[..., i + 1] << 2 * r for i in (0, 2)]
        cols = [y[..., j] << r | y[..., j + 2] for j in (0, 1)]
        return np.stack([dot.take(u | v) for u in rows for v in cols], axis=-1)

    # a transvection, the Weyl element and a generator of the diagonal torus
    gen = 0b10
    gens = [[1, 1, 0, 1], [0, 1, 1, 0], [gen, 0, 0, field.inv[gen]]]
    return gens, [1, 0, 0, 1], mul, q * (q * q - 1), q


_CONSTRUCTIONS = {
    "cyclic": lambda args: _build_cyclic(args[0]),
    "abelian": _build_abelian,
    "dihedral": lambda args: _build_dihedral(args[0]),
    "sym": lambda args: _build_sym(args[0]),
    "alt": lambda args: _build_alt(args[0]),
    "q8": lambda args: _build_q8(),
    "sl2": lambda args: _build_sl2(args[0]),
}


def make_group(spec: GroupSpec, max_order: int = DEFAULT_MAX_ORDER) -> GroupTable:
    """Realize a parsed spec as a concrete group, subject to the order cap."""
    label = format_group_spec(spec)
    if isinstance(spec, ProductSpec):
        left = make_group(spec.left, max_order)
        right = make_group(spec.right, max_order)
        return direct_product(left, right, max_order)
    if isinstance(spec, PermSpec):
        return _make_perm_group(spec, label, max_order)
    if spec.family not in _CONSTRUCTIONS:
        raise ValueError(f"unknown family {spec.family!r}")
    gens, identity, mul, order, bound = _CONSTRUCTIONS[spec.family](spec.args)
    if order > max_order:
        raise OrderCapExceeded(label, max_order, order)
    dtype = _dtype(bound)
    rows = _close(np.array(gens, dtype), np.array(identity, dtype), mul, max_order, label)
    if len(rows) != order:
        raise GroupError(f"{label!r}: closure produced {len(rows)} elements, expected {order}")
    decode = (lambda rows: rows[:, 0].tolist()) if spec.family == "cyclic" else _tuples
    return GroupTable(label, decode, mul, identity, gens, spec=spec, rows=rows)


def _tuples(rows: np.ndarray) -> list:
    return list(map(tuple, rows.tolist()))


def _make_perm_group(spec: PermSpec, label: str, max_order: int) -> GroupTable:
    deg = max(p for gen in spec.generators for cyc in gen for p in cyc)
    identity = list(range(deg))
    gens = []
    for gen in spec.generators:
        images = list(identity)
        for cyc in gen:
            # apply this cycle after what is already there
            zero_based = [p - 1 for p in cyc]
            shift = {zero_based[i]: zero_based[(i + 1) % len(cyc)] for i in range(len(cyc))}
            images = [shift.get(x, x) for x in images]
        gens.append(images)
    dtype = _dtype(deg)
    rows = _close(np.array(gens, dtype), np.array(identity, dtype), _perm_mul, max_order, label)
    return GroupTable(label, _tuples, _perm_mul, identity, gens, spec=spec, rows=rows)


def direct_product(
    left: GroupTable, right: GroupTable, max_order: int = DEFAULT_MAX_ORDER
) -> GroupTable:
    """The direct product, with pair encodings ordered left-then-right; a row
    is the left row followed by the right row."""
    label = f"{left.label}*{right.label}"
    order = left.n * right.n
    if order > max_order:
        raise OrderCapExceeded(label, max_order, order)
    lmul, rmul, w = left._mul, right._mul, left.rows.shape[1]

    def mul(a, b):
        return np.concatenate([lmul(a[..., :w], b[..., :w]), rmul(a[..., w:], b[..., w:])], axis=-1)

    rows = np.concatenate(
        [np.repeat(left.rows, right.n, axis=0), np.tile(right.rows, (left.n, 1))], axis=1
    )
    ldecode, rdecode = left._decode, right._decode
    decode = lambda rows: list(zip(ldecode(rows[:, :w]), rdecode(rows[:, w:])))
    e_left, *gl = ldecode(left.rows[[left.identity_index, *left.generators]])  # these only
    e_right, *gr = rdecode(right.rows[[right.identity_index, *right.generators]])
    gens = [(g, e_right) for g in gl] + [(e_left, g) for g in gr]
    spec = None
    if left.spec is not None and right.spec is not None:
        spec = ProductSpec(left.spec, right.spec)
    return GroupTable(label, decode, mul, (e_left, e_right), gens, spec=spec, rows=rows)


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
    every = np.arange(n)
    # conj[k][x] = g_k^-1 x g_k for every x, one product pair per generator
    conj = [G.multiply_many(G.inverse[g], G.multiply_many(every, g)) for g in G.generators]
    # every element takes the least label along each map, then one pointer
    # jump, until nothing changes: the label is then its orbit's least member
    label = every
    while True:
        last = label
        for c in conj:
            label = np.minimum(label, label[c])
        label = label.take(label)
        if (label == last).all():
            break
    members = label.argsort(kind="stable")  # each orbit's members in order
    label = label[members]
    cuts, members = ((label[1:] != label[:-1]).nonzero()[0] + 1).tolist(), members.tolist()
    raw = [members[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    raw.sort(key=lambda orbit: (G.element_order[orbit[0]], len(orbit), orbit[0]))
    classes = []
    class_of = [0] * n
    for ci, orbit in enumerate(raw):
        size = len(orbit)
        if n % size:
            raise GroupError(f"{G.label!r}: class size {size} does not divide {n}")
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


@dataclass(frozen=True, eq=False)
class PowerChains:
    """The class power map at every exponent.  Class j's chain lists the classes
    of rep^0, ..., rep^(o-1), o = ``order[j]``, from ``flat[start[j]]`` on, the
    chains back to back; since rep^a depends on a only mod o, they answer every
    power-map query without multiplying again.
    """

    flat: np.ndarray
    start: np.ndarray
    order: np.ndarray

    def __getitem__(self, j: int) -> np.ndarray:
        """Class j's whole chain."""
        return self.flat[self.start[j] : self.start[j] + self.order[j]]

    def at(self, a: int) -> np.ndarray:
        """The classes of rep^a for every class, for any integer a."""
        return self.flat[self.start + a % self.order]

    def relabel(self, order: Sequence[int]) -> "PowerChains":
        """The same map with the classes renumbered: class order[t] becomes t."""
        order = np.array(order)
        pos = np.empty_like(order)
        pos[order] = np.arange(len(order))
        return PowerChains(pos[self.flat], self.start[order], self.order[order])


def class_power_chains(G: GroupTable, S: ClassSet) -> PowerChains:
    """Every class's power chain, by doubling: once rep^0, ..., rep^k are
    known, rep^(k + t) = rep^t rep^k for 0 < t <= k, one batched product per
    step over the classes whose order exceeds k + 1."""
    class_of = np.array(S.class_of)
    order = np.array([c.rep_order for c in S.classes])
    powers = np.empty((S.m, 2 * order.max()), dtype=np.intp)
    powers[:, 0] = G.identity_index
    powers[:, 1] = [c.rep for c in S.classes]
    k = 1
    while k + 1 < order.max():
        live = (order > k + 1).nonzero()[0]
        powers[live, k + 1 : 2 * k + 1] = G.multiply_many(powers[live, 1 : k + 1], powers[live, k, None])
        k *= 2
    start = np.cumsum(order) - order
    return PowerChains(class_of[powers[np.arange(powers.shape[1]) < order[:, None]]], start, order)


def class_power_map(G: GroupTable, S: ClassSet, a):
    """The permutation j -> class of (rep_j)^a, for a coprime to the order, one
    power per class: the symbol's path (only chartab reads the power chains).
    For a list or tuple of exponents, a list of these, from one ladder."""
    several = isinstance(a, (list, tuple))
    for x in a if several else [a]:
        if math.gcd(x, G.n) != 1:
            raise ValueError(f"{G.label!r}: {x} is not coprime to the group order {G.n}")
    powers = G.power_many([c.rep for c in S.classes], [x % G.n for x in (a if several else [a])])
    maps = [tuple(S.class_of[x] for x in row) for row in powers.tolist()]
    return maps if several else maps[0]


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


def _permutation_rows(t: np.ndarray) -> np.ndarray:
    """Whether each row of a (k, n) array of indices 0..n-1 is a permutation."""
    k, n = t.shape
    seen, step = np.zeros(k * n, bool), max(1, _BLOCK_VALUES // n)
    for s in range(0, k, step):
        seen[t[s : s + step] + n * np.arange(s, min(s + step, k))[:, None]] = True
    return seen.reshape(k, n).all(axis=1)


def verify_axioms(G: GroupTable, seed: int = 0) -> None:
    """Check the group laws on the realized group; raise GroupError on failure.

    Every product is evaluated by the group's own product on element rows.
    Identity, inverses and orders are checked for every element.  For n <= 1024
    the full n x n table must be a Latin square, the generators must reach every
    element, and Light's test (x g) y = x (g y) must hold for each generator g;
    the elements passing it are closed under products, so this proves
    associativity.  Larger groups get a seeded sample of 48 rows and columns
    and 100 000 triples.
    """
    n = G.n
    e = G.identity_index
    every = np.arange(n)
    inverse = np.array(G.inverse)
    failed = np.array([
        (G.multiply_many(e, every) != every) | (G.multiply_many(every, e) != every),
        (G.multiply_many(every, inverse) != e) | (G.multiply_many(inverse, every) != e),
        np.array([o < 1 or G.exponent % o != 0 for o in G.element_order]),
    ])
    if failed.any():
        i = int(failed.any(axis=0).argmax())
        what = ("identity fails at {}", "inverse fails at {}", "order of {} does not divide the exponent")
        raise GroupError(f"{G.label!r}: " + what[int(failed[:, i].argmax())].format(i))
    if G.element_order[e] != 1 or n % G.exponent:
        raise GroupError(f"{G.label!r}: exponent {G.exponent} inconsistent with n={n}")

    if n <= _EXHAUSTIVE_LIMIT:
        t = G.multiply_many(every[:, None], every).astype(np.int16, copy=False)
        if not (_permutation_rows(t).all() and _permutation_rows(t.T).all()):
            raise GroupError(f"{G.label!r}: multiplication table is not a Latin square")
        right = t[:, list(G.generators)]
        reached = every == e
        while not reached[right[reached]].all():
            reached[right[reached]] = True
        if not reached.all():
            raise GroupError(f"{G.label!r}: generators reach only {reached.sum()} of {n} elements")
        blocks = [slice(s, s + _BLOCK_VALUES // n) for s in range(0, n, _BLOCK_VALUES // n)]
        for g in G.generators:
            if not all((t[t[x, g]] == t[x, t[g]]).all() for x in blocks):
                raise GroupError(f"{G.label!r}: associativity fails with generator {g}")
        return
    rng = _seeded_rng(seed, G.label, "latin")
    lines = np.array(sorted(rng.sample(range(n), min(n, 48))))
    pairs = ((lines[:, None], every), (every, lines[:, None]))  # rows, then columns
    failed = ~np.array([_permutation_rows(G.multiply_many(*pair)) for pair in pairs])
    if failed.any():
        k = int(failed.any(axis=0).argmax())
        what = ("row", "column")[int(failed[:, k].argmax())]
        raise GroupError(f"{G.label!r}: {what} {lines[k]} is not a permutation")
    # three draws of 32 bits per triple, uniform on 0..n-1 up to a bias below n / 2**32
    rng = _seeded_rng(seed, G.label, "assoc")
    a, b, c = ((np.frombuffer(rng.randbytes(400_000), "<u4") % n).astype(G._slots.dtype) for _ in range(3))
    failed = G.multiply_many(G.multiply_many(a, b), c) != G.multiply_many(a, G.multiply_many(b, c))
    if failed.any():
        k = int(failed.argmax())
        raise GroupError(f"{G.label!r}: associativity fails at ({a[k]}, {b[k]}, {c[k]})")
