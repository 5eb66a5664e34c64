import math
import random

import pytest

from quadsym.ntheory import (
    FactoredInt,
    factorize,
    fundamental_discriminant,
    int_to_decimal,
    is_discriminant,
    is_perfect_square,
    is_prime,
    jacobi,
    kronecker,
    kronecker_table,
    n_star,
    primitive_root,
    unit_generators,
)

ODD_PRIMES = [p for p in range(3, 100) if is_prime(p)]


def euler_symbol(a, p):
    """Legendre symbol by the Euler criterion; p must be an odd prime."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_is_prime_against_sieve():
    limit = 5000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n
    assert not is_prime(-7)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 - 1)


def test_factorize_round_trip():
    rng = random.Random(7)
    values = [1, -1, 2, -2, 360, -360, 2**20, 10**12 + 39]
    values += [rng.randrange(-10**9, 10**9) or 1 for _ in range(200)]
    for n in values:
        f = factorize(n)
        assert f.value() == n
        for p, e in f.factors:
            assert is_prime(p) and e >= 1


def test_factorize_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factored_int_validation():
    with pytest.raises(ValueError):
        FactoredInt(2, ())
    with pytest.raises(ValueError):
        FactoredInt(0, ((2, 1),))
    with pytest.raises(ValueError):
        FactoredInt(1, ((3, 1), (2, 1)))
    with pytest.raises(ValueError):
        FactoredInt(1, ((4, 1),))
    with pytest.raises(ValueError):
        FactoredInt(1, ((2, 0),))


def test_factored_int_arithmetic():
    rng = random.Random(11)
    for _ in range(100):
        a = rng.randrange(-10**6, 10**6) or 1
        b = rng.randrange(-10**6, 10**6) or 1
        fa, fb = factorize(a), factorize(b)
        assert (fa * fb).value() == a * b
        k = rng.randrange(0, 5)
        assert (fa**k).value() == a**k
        m = rng.randrange(1, 1000)
        assert fa.mod(m) == a % m
    assert str(factorize(-12)) == "-2^2 * 3"


def test_int_to_decimal_huge():
    v = 3**40000
    s = int_to_decimal(v)
    assert len(s) == math.floor(40000 * math.log10(3)) + 1
    assert int(s) == v


def test_jacobi_euler_oracle():
    for p in ODD_PRIMES:
        for a in range(p):
            assert jacobi(a, p) == euler_symbol(a, p), (a, p)


def test_jacobi_multiplicative():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(1, 200) * 2 + 1
        a, b = rng.randrange(-500, 500), rng.randrange(-500, 500)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
    for _ in range(300):
        m = rng.randrange(0, 100) * 2 + 1
        n = rng.randrange(0, 100) * 2 + 1
        a = rng.randrange(-500, 500)
        assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


def test_jacobi_rejects_bad_modulus():
    for n in (0, -3, 4, 10):
        with pytest.raises(ValueError):
            jacobi(2, n)


def test_is_discriminant():
    assert is_discriminant(1)
    assert is_discriminant(-4)
    assert is_discriminant(-16)
    assert is_discriminant(5)
    assert not is_discriminant(0)
    assert not is_discriminant(2)
    assert not is_discriminant(-1)
    assert not is_discriminant(3)
    assert is_discriminant(factorize(-3))
    assert not is_discriminant(factorize(6))


def test_kronecker_needs_discriminant():
    for d in (0, 2, 3, -1, -2, 6):
        with pytest.raises(ValueError):
            kronecker(d, 5)


def test_kronecker_at_special_points():
    # (d/2) reads off d mod 8; (d/-1) is the sign of d; (d/0) vanishes
    # unless d = 1.
    for d in range(-300, 300):
        if not is_discriminant(d):
            continue
        if d % 2 == 0:
            assert kronecker(d, 2) == 0
        elif d % 8 == 1:
            assert kronecker(d, 2) == 1
        else:
            assert kronecker(d, 2) == -1
        assert kronecker(d, -1) == (1 if d > 0 else -1)
        assert kronecker(d, 0) == (1 if d == 1 else 0)
    assert kronecker(17, 2) == 1
    assert kronecker(5, 2) == -1
    assert kronecker(-16, 3) == -1


def test_kronecker_periodic_and_multiplicative():
    rng = random.Random(5)
    discs = [d for d in range(-60, 61) if is_discriminant(d)]
    for d in discs:
        period = 4 * abs(d)
        for a in range(-80, 80):
            assert kronecker(d, a) == kronecker(d, a + period), (d, a)
    for _ in range(500):
        d = rng.choice(discs)
        a, b = rng.randrange(-100, 100), rng.randrange(-100, 100)
        assert kronecker(d, a * b) == kronecker(d, a) * kronecker(d, b)


def test_kronecker_odd_positive_is_jacobi():
    for d in range(-60, 61):
        if not is_discriminant(d):
            continue
        for a in range(1, 120, 2):
            assert kronecker(d, a) == jacobi(d, a), (d, a)


def test_kronecker_factored_matches_int():
    rng = random.Random(13)
    for _ in range(300):
        d = rng.randrange(-5000, 5000)
        if not is_discriminant(d):
            continue
        a = rng.randrange(-300, 300)
        assert kronecker(factorize(d), a) == kronecker(d, a)


def test_n_star():
    for n in range(-99, 100, 2):
        v = n_star(n)
        assert v == (-1) ** ((n - 1) // 2 % 2) * n
        assert is_discriminant(v)
    with pytest.raises(ValueError):
        n_star(4)


def _is_fundamental(d):
    if d % 4 == 1:
        return all(e == 1 for _, e in factorize(d).factors)
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and all(e == 1 for _, e in factorize(m).factors)
    return False


def test_fundamental_discriminant_hand_values():
    cases = {
        18000: (5, 60),
        -16: (-4, 2),
        36: (1, 6),
        1: (1, 1),
        8: (8, 1),
        -4: (-4, 1),
        -3: (-3, 1),
        12: (12, 1),
        45: (5, 3),
        -27: (-3, 3),
        -72: (-8, 3),
        9: (1, 3),
    }
    for d, (dk, f) in cases.items():
        fd = fundamental_discriminant(d)
        assert (fd.d_K, fd.conductor) == (dk, f), d


def test_fundamental_discriminant_round_trip():
    for d in range(-2000, 2001):
        if not is_discriminant(d):
            continue
        fd = fundamental_discriminant(d)
        assert fd.conductor >= 1
        assert fd.d_K * fd.conductor**2 == d
        assert is_discriminant(fd.d_K)
        assert _is_fundamental(fd.d_K), d


def test_fundamental_discriminant_factored_path():
    f = factorize(2**6 * 3**10 * 7**4)
    fd = fundamental_discriminant(f)
    assert (fd.d_K, fd.conductor) == (1, 2**3 * 3**5 * 7**2)
    with pytest.raises(ValueError):
        fundamental_discriminant(factorize(7))


def test_kronecker_of_fundamental_part_agrees_on_coprime_a():
    # (d/a) = (d_K/a) whenever a is coprime to the conductor
    for d in (-48, -75, 180, -300, 45):
        fd = fundamental_discriminant(d)
        for a in range(1, 200):
            if math.gcd(a, fd.conductor) == 1:
                assert kronecker(d, a) == kronecker(fd.d_K, a), (d, a)


def test_is_perfect_square():
    for n in range(-50, 5000):
        assert is_perfect_square(n) == (n >= 0 and math.isqrt(max(n, 0)) ** 2 == n)
    assert is_perfect_square(factorize(95256**2))
    assert not is_perfect_square(factorize(-4))
    assert not is_perfect_square(factorize(18000))
    assert is_perfect_square(FactoredInt(0, ()))


def test_primitive_root_is_the_least_generator():
    for p in [2, *ODD_PRIMES, 101, 257]:
        order = lambda g: len({pow(g, k, p) for k in range(p - 1)})
        g = primitive_root(p)
        assert order(g) == p - 1 and all(order(h) < p - 1 for h in range(1, g)), p


def subgroup(gens, e):
    """The residues mod e reached by products of powers of ``gens``."""
    reached = {1 % e}
    for g in gens:
        cycle, x = [1 % e], g % e
        while x != 1 % e:
            cycle.append(x)
            x = x * g % e
        reached = {r * c % e for r in reached for c in cycle}
    return reached


def test_unit_generators_generate_the_units():
    for e in range(1, 2001):
        gens = unit_generators(e)
        units = {a for a in range(e) if math.gcd(a, e) == 1}
        assert all(0 < g < e and math.gcd(g, e) == 1 for g in gens), e
        assert len(gens) <= len(factorize(e).factors) + 1, e
        assert subgroup(gens, e) == units, e
    # (Z/2^k)^x is trivial, then cyclic of order 2, then {+-1} x <5>
    assert [unit_generators(e) for e in (1, 2, 4, 8, 16)] == [(), (), (3,), (7, 5), (15, 5)]


def test_kronecker_table_matches_kronecker(build, catalog):
    # every catalog group's d, at every residue of its order and past it
    for label in catalog:
        b = build(label)
        d, n = b.D.value.value(), b.G.n + 40
        assert kronecker_table(d, n) == [kronecker(d, a) for a in range(n)], label
    rng = random.Random(11)
    for size in [10**3] * 100 + [10**30] * 30:
        d = 4 * rng.randrange(-size, size) + rng.choice((0, 1)) or 1
        n = rng.randrange(0, 1500)
        assert kronecker_table(d, n) == [kronecker(d, a) for a in range(n)], (d, n)
    # factored, negative and odd discriminants, and the tables shorter than 3
    for _ in range(200):
        d = 4 * rng.randrange(-10**4, 10**4) + rng.choice((0, 1)) or -4
        n = rng.choice((0, 1, 2, 3, 4, rng.randrange(5, 400)))
        want = [kronecker(d, a) for a in range(n)]
        assert kronecker_table(d, n) == kronecker_table(factorize(d), n) == want, (d, n)
    for d in (7, 2, -1, factorize(-6)):
        for n in (1, 2, 3, 10):
            with pytest.raises(ValueError, match="not a discriminant"):
                kronecker_table(d, n)
