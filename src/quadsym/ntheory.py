"""Exact integer arithmetic: factorizations, Jacobi and Kronecker symbols,
discriminants and their fundamental parts.

Everything here is deterministic and exact; no floats anywhere.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# Deterministic Miller-Rabin with these bases is correct for n < 3.3 * 10**24,
# far beyond any prime this package can produce.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FactoredInt:
    """A nonzero integer (or zero) kept in factored form.

    ``sign`` is -1, 0 or 1; ``factors`` lists (prime, exponent) pairs with
    strictly increasing primes and positive exponents.  Zero carries no
    factors.  The represented value may be far too large to expand, so most
    queries work directly on the factorization.
    """

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if self.sign == 0 and self.factors:
            raise ValueError("zero cannot carry prime factors")
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError(f"primes must be strictly increasing, got {p} after {prev}")
            if e < 1:
                raise ValueError(f"exponent for {p} must be positive, got {e}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            prev = p

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    def mod(self, modulus: int) -> int:
        """Residue of the represented value, without expanding it."""
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        v = self.sign % modulus
        for p, e in self.factors:
            v = v * pow(p, e, modulus) % modulus
        return v

    def __mul__(self, other: "FactoredInt") -> "FactoredInt":
        if not isinstance(other, FactoredInt):
            return NotImplemented
        if self.sign == 0 or other.sign == 0:
            return FactoredInt(0, ())
        merged: dict[int, int] = dict(self.factors)
        for p, e in other.factors:
            merged[p] = merged.get(p, 0) + e
        return FactoredInt(self.sign * other.sign, tuple(sorted(merged.items())))

    def __pow__(self, k: int) -> "FactoredInt":
        if k < 0:
            raise ValueError(f"negative exponent {k}")
        if k == 0:
            return FactoredInt(1, ())
        if self.sign == 0:
            return self
        sign = self.sign if k % 2 else 1
        return FactoredInt(sign, tuple((p, e * k) for p, e in self.factors))

    def decimal(self) -> str:
        return int_to_decimal(self.value())

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        body = " * ".join(str(p) if e == 1 else f"{p}^{e}" for p, e in self.factors)
        if not body:
            body = "1"
        return body if self.sign == 1 else f"-{body}"


def int_to_decimal(v: int) -> str:
    """str(v), raising the interpreter's digit limit if v is enormous."""
    try:
        return str(v)
    except ValueError:
        digits = v.bit_length() * 302 // 1000 + 10
        sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), digits))
        return str(v)


def factorize(n: int) -> FactoredInt:
    """Factor a nonzero integer by trial division (fine for |n| < 2**50 or so)."""
    if n == 0:
        raise ValueError("cannot factor zero")
    sign = -1 if n < 0 else 1
    n = abs(n)
    factors: list[tuple[int, int]] = []
    for p in (2, 3, 5):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
    # wheel mod 30
    p = 7
    steps = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += steps[i]
        i = (i + 1) % 8
    if n > 1:
        factors.append((n, 1))
    return FactoredInt(sign, tuple(factors))


def primitive_root(p: int) -> int:
    """The least primitive root mod the prime p."""
    parts = [q for q, _ in factorize(p - 1).factors]
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in parts))


def unit_generators(e: int) -> tuple[int, ...]:
    """Residues that generate (Z/e)^x, at most omega(e) + 1 of them (Ireland &
    Rosen, ch. 4): a primitive root mod p^k for each odd p^k || e, and -1
    (k >= 2) and 5 (k >= 3) for 2^k || e, each lifted to 1 mod the rest of e."""
    gens = []
    for p, k in factorize(e).factors:
        q, g = p**k, primitive_root(p)
        # g or g + p is a primitive root mod every power of p
        local = [-1] * (k >= 2) + [5] * (k >= 3) if p == 2 else [g + p * (pow(g, p - 1, p * p) == 1)]
        one = e // q * pow(e // q, -1, q)  # 1 mod q, 0 mod e / q
        gens += [(1 + (h - 1) * one) % e for h in local]
    return tuple(gens)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"jacobi needs odd positive n, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_discriminant(d: int | FactoredInt) -> bool:
    """True when d is a nonzero integer congruent to 0 or 1 mod 4."""
    if isinstance(d, FactoredInt):
        return d.sign != 0 and d.mod(4) in (0, 1)
    return d != 0 and d % 4 in (0, 1)


def kronecker(d: int | FactoredInt, a: int) -> int:
    """Kronecker symbol (d|a), defined here only for discriminants d.

    Completely multiplicative in a, with (d|2) read off from d mod 8 and
    (d|-1) = sign of d.  (d|0) is 1 exactly when d = 1.
    """
    if not is_discriminant(d):
        raise ValueError(f"{d} is not a discriminant")
    if isinstance(d, FactoredInt):
        d = d.value()
    if a == 0:
        return 1 if d == 1 else 0
    result = 1
    if a < 0:
        result = -1 if d < 0 else 1
        a = -a
    s = 0
    while a % 2 == 0:
        a //= 2
        s += 1
    if s:
        if d % 2 == 0:
            return 0
        # odd discriminants are 1 mod 4, so d is 1 or 5 mod 8
        if s % 2 and d % 8 == 5:
            result = -result
    if a == 1:
        return result
    return result * jacobi(d % a, a)


def kronecker_table(d: int | FactoredInt, n: int) -> list[int]:
    """(d|a) for 0 <= a < n, calling ``kronecker`` at 0, 1 and the primes
    below n only: the symbol is completely multiplicative in a, so any other
    a takes the product of the values at its smallest prime factor p and at
    a / p, both already in the table."""
    least = list(range(n))
    # every p from the top down marks its multiples from p^2 on, so the
    # smallest divisor of each composite is the one left
    for p in range(math.isqrt(max(n - 1, 0)), 1, -1):
        least[p * p :: p] = [p] * len(range(p * p, n, p))
    table: list[int] = []
    for a, p in enumerate(least):
        table.append(kronecker(d, a) if p == a else table[p] * table[a // p])
    return table


def n_star(n: int) -> int:
    """(-1)^((n-1)/2) * n: the discriminant-normalized twist of an odd n."""
    if n % 2 == 0:
        raise ValueError(f"n_star needs odd n, got {n}")
    return n if n % 4 == 1 else -n


@dataclass(frozen=True)
class FundamentalDiscriminant:
    d_K: int
    conductor: int


def fundamental_discriminant(d: int | FactoredInt) -> FundamentalDiscriminant:
    """Split a discriminant as d = d_K * f**2 with d_K fundamental, f >= 1.

    Works on the factored form, so d itself is never expanded.
    """
    fi = d if isinstance(d, FactoredInt) else factorize(d)
    if not is_discriminant(fi):
        raise ValueError(f"{fi} is not a discriminant")
    core = fi.sign
    conductor = 1
    for p, e in fi.factors:
        if e % 2:
            core *= p
        conductor *= p ** (e // 2)
    if core % 4 == 1:
        return FundamentalDiscriminant(core, conductor)
    # core is 2 or 3 mod 4; the leftover factor 4 moves into the conductor
    if conductor % 2:
        raise ValueError(f"{fi} is not a discriminant")
    return FundamentalDiscriminant(4 * core, conductor // 2)


def is_perfect_square(n: int | FactoredInt) -> bool:
    if isinstance(n, FactoredInt):
        if n.sign == 0:
            return True
        return n.sign == 1 and all(e % 2 == 0 for _, e in n.factors)
    if n < 0:
        return False
    return math.isqrt(n) ** 2 == n
