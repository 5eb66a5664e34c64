"""Quadratic symbols of finite groups and the discriminants they obey.

The symbol of a group at an integer a coprime to its order n is the sign of
the permutation that g -> g^a induces on conjugacy classes (and 0 when
gcd(a, n) > 1).  It agrees with the Kronecker symbol of one fixed
discriminant d built from the class structure: take the real classes (those
closed under inversion), multiply their centralizer orders, and attach a
sign of (-1) for every pair of complex classes.  ``verify_group`` checks
this agreement and several companion identities exhaustively.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .groups import (
    ClassSet,
    GroupTable,
    class_power_map,
    conjugacy_classes,
    permutation_parity,
)
from .groupspec import FamilySpec
from .ntheory import (
    FactoredInt,
    factorize,
    fundamental_discriminant,
    is_perfect_square,
    kronecker,
    kronecker_table,
    n_star,
    unit_generators,
)


@dataclass(frozen=True)
class RealComplexSplit:
    """Classes reordered so the real ones come first.

    ``order`` lists class indices: the r1 real classes in their canonical
    order, then the complex ones arranged as adjacent inverse pairs (each
    pair in canonical order, pairs sorted by their first member).
    """

    r1: int
    r2: int
    order: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.r1 + 2 * self.r2


def real_complex_split(S: ClassSet) -> RealComplexSplit:
    real = [j for j, k in enumerate(S.inverse_class) if j == k]
    pairs = [(j, k) for j, k in enumerate(S.inverse_class) if j < k]
    order = tuple(real) + tuple(x for pair in pairs for x in pair)
    return RealComplexSplit(r1=len(real), r2=len(pairs), order=order)


@dataclass(frozen=True)
class Discriminant:
    value: FactoredInt
    r1: int
    r2: int


def discriminant(G: GroupTable, S: ClassSet, split: RealComplexSplit) -> Discriminant:
    """(-1)^r2 times the product of centralizer orders over real classes."""
    d = FactoredInt(1, ()) if split.r2 % 2 == 0 else FactoredInt(-1, ())
    for j in split.order[: split.r1]:
        d = d * factorize(S.classes[j].centralizer_order)
    return Discriminant(value=d, r1=split.r1, r2=split.r2)


def quadratic_symbol(G: GroupTable, S: ClassSet, a: int) -> int:
    """Sign of the class permutation induced by g -> g^a; 0 off the units."""
    return permutation_parity(class_power_map(G, S, a)) if math.gcd(a, G.n) == 1 else 0


@dataclass(frozen=True)
class SymbolCharacter:
    """The symbol tabulated at 0..modulus-1; a real character mod the modulus."""

    modulus: int
    values: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.values[a % self.modulus]


def symbol_character(G: GroupTable, S: ClassSet) -> SymbolCharacter:
    """Tabulate the symbol over a full period 0..n-1.

    rep^a depends only on a mod the exponent e, and pi_ab = pi_a pi_b, so the
    symbol is a character of (Z/e)^x.  Each of ``unit_generators(e)`` extends
    the subgroup found so far coset by coset, chi(h g^k) = chi(h) (g/G)^k,
    until g^k is back in it; any generating set will do.  As n and e share
    their primes, every other residue is off the units and gets 0.
    """
    e = G.exponent
    chi = {1 % e: 1}
    for g in unit_generators(e):
        s, subgroup = quadratic_symbol(G, S, g), list(chi.items())
        x, v = g, s
        while x not in chi:
            chi.update((h * x % e, c * v) for h, c in subgroup)
            x, v = x * g % e, v * s
    return SymbolCharacter(G.n, tuple(chi.get(a, 0) for a in range(e)) * (G.n // e))


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class VerificationReport:
    label: str
    n: int
    m: int
    r1: int
    r2: int
    exponent: int
    d: FactoredInt
    d_K: int
    conductor: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _check(name: str, ok: bool, witness: str | None = None) -> CheckResult:
    return CheckResult(name, ok, None if ok else witness)


def verify_group(G: GroupTable, S: Optional[ClassSet] = None) -> VerificationReport:
    """Compute the discriminant of G and test every identity it should satisfy.

    The checks: d is 0 or 1 mod 4; the symbol equals the Kronecker symbol of
    d at every residue (and at a few integers outside 0..n-1); the symbol is
    trivial exactly when d is a square; for odd-order groups d is the twisted
    order n* with a single real class and n = m mod 16; for abelian groups d
    matches the closed form driven by the number of square roots of the
    identity; for the sl2 family d matches its polynomial formula in q.
    """
    if S is None:
        S = conjugacy_classes(G)
    split = real_complex_split(S)
    D = discriminant(G, S, split)
    d = D.value
    dv = d.value()
    n, m = G.n, S.m
    fd = fundamental_discriminant(d)
    sym = symbol_character(G, S)
    checks = []

    checks.append(
        _check("discriminant_mod_4", d.mod(4) in (0, 1), f"d = {d} = {d.mod(4)} mod 4")
    )

    # (d|a) at every residue from one table, and at a few integers outside 0..n-1
    extra = (-1, -3, n + 1, 2 * n + 3)
    got = zip((*range(n), *extra), (*sym.values, *map(sym, extra)))
    want = kronecker_table(dv, n) + [kronecker(dv, a) for a in extra]
    bad = next((a for (a, s), k in zip(got, want) if s != k), None)
    checks.append(
        _check(
            "symbol_equals_kronecker",
            bad is None,
            None if bad is None else f"a = {bad}: symbol {sym(bad)}, kronecker {kronecker(dv, bad)}",
        )
    )

    trivial = all(v != -1 for v in sym.values)
    square = is_perfect_square(d)
    checks.append(
        _check(
            "trivial_iff_square",
            trivial == square,
            f"symbol trivial: {trivial}, d = {d} square: {square}",
        )
    )

    if n % 2 == 1:
        checks.append(_check("odd_order_d_is_n_star", dv == n_star(n), f"d = {dv}, n* = {n_star(n)}"))
        checks.append(_check("odd_order_one_real_class", split.r1 == 1, f"r1 = {split.r1}"))
        checks.append(_check("odd_order_n_mod_16", n % 16 == m % 16, f"n = {n}, m = {m}"))

    if G.is_abelian:
        t = sum(1 for o in G.element_order if o <= 2)
        ok = t == split.r1 and (t & (t - 1)) == 0
        sign = -1 if ((n - t) // 2) % 2 else 1
        expected = sign * n**t if ok else None
        ok = ok and dv == expected
        checks.append(
            _check(
                "abelian_closed_form",
                ok,
                f"t = {t}, r1 = {split.r1}, d = {d}",
            )
        )

    if isinstance(G.spec, FamilySpec) and G.spec.family == "sl2":
        q = G.spec.args[0]
        formula, _ = sl2_formula_check(q.bit_length() - 1)
        checks.append(
            _check(
                "sl2_closed_form",
                dv == formula.value(),
                f"d = {d}, formula = {formula}",
            )
        )

    return VerificationReport(
        label=G.label,
        n=n,
        m=m,
        r1=split.r1,
        r2=split.r2,
        exponent=G.exponent,
        d=d,
        d_K=fd.d_K,
        conductor=fd.conductor,
        checks=tuple(checks),
    )


def sl2_formula_check(r: int) -> tuple[FactoredInt, int]:
    """d for the group of unimodular 2x2 matrices over the field with 2^r
    elements, by the closed formula q^2 (q+1) (q^2-1)^(q/2), together with
    the fundamental part of that discriminant.  Exact for any r up to 16."""
    if not 2 <= r <= 16:
        raise ValueError(f"r must be between 2 and 16, got {r}")
    q = 2**r
    d = factorize(q) ** 2 * factorize(q + 1) * factorize(q * q - 1) ** (q // 2)
    fd = fundamental_discriminant(d)
    return d, fd.d_K
