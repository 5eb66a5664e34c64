"""Z[z] arithmetic for the tests' oracles, z a primitive e-th root of unity:
an element's phi(e) integer coordinates over the power basis, multiplied one
coordinate at a time and reduced by the rows z^k of quadsym's basis, which
test_basis_and_embedding_maps_match_the_oracles checks against its own
oracle.  Nothing else is shared with quadsym, whose checks decide the same
identities on coefficient arrays mod primes."""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from quadsym.chartab import _basis


def _reduce(prod: Sequence[int], e: int) -> tuple[int, ...]:
    """The polynomial prod in z, reduced to the power basis."""
    basis = _basis(e)
    out = list(prod[: basis.phi]) + [0] * (basis.phi - len(prod))
    for k, row in enumerate(basis.rows[basis.phi : len(prod)].tolist(), basis.phi):
        if prod[k]:
            out = [x + prod[k] * r for x, r in zip(out, row)]
    return tuple(out)


def _mul(a: Sequence[int], b: Sequence[int], e: int) -> tuple[int, ...]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return _reduce(prod, e)


@dataclass(frozen=True, eq=False)
class Cyc:
    """An element of Z[z]; equal to a Python int that is its value, as the
    representation is unique."""

    e: int
    coeffs: tuple[int, ...]

    @staticmethod
    def integer(e: int, v: int) -> "Cyc":
        return Cyc(e, (v,) + (0,) * (_basis(e).phi - 1))

    @staticmethod
    def root_power(e: int, k: int) -> "Cyc":
        return Cyc(e, tuple(_basis(e).rows[k % e].tolist()))

    @staticmethod
    def of(z) -> "Cyc":
        """The element that quadsym prints as the CycInt z."""
        return Cyc(z.e, tuple(z.coeffs))

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_int(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def _coerce(self, other) -> Optional["Cyc"]:
        if isinstance(other, int):
            return Cyc.integer(self.e, other)
        if isinstance(other, Cyc):
            if other.e != self.e:
                raise ValueError(f"mixed conductors {self.e} and {other.e}")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.e, tuple(x + y for x, y in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + -o

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyc(self.e, tuple(x * other for x in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.e, _mul(self.coeffs, o.coeffs, self.e))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, Cyc):
            return self.e == other.e and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.e, self.coeffs))

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                terms.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return " + ".join(terms).replace("+ -", "- ")

    __repr__ = __str__


def galois(z: Cyc, a: int) -> Cyc:
    """z -> z^a; a must be coprime to e."""
    e = z.e
    b = a % e
    if gcd(b, e) != 1:
        raise ValueError(f"{a} is not coprime to the conductor {e}")
    prod = [0] * e
    for i, c in enumerate(z.coeffs):
        prod[i * b % e] += c
    return Cyc(e, _reduce(prod, e))


def rows_of(T) -> tuple[tuple[Cyc, ...], ...]:
    """A character table's entries, read from its coefficient array."""
    return tuple(tuple(Cyc(T.conductor, tuple(z)) for z in row) for row in T.coeffs.tolist())
