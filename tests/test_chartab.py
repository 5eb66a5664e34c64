import dataclasses
import itertools
import math
import random

import pytest

from quadsym.chartab import (
    CharTableError,
    CharacterTable,
    CycInt,
    _modular_det,
    character_table,
    cyclotomic_polynomial,
    det_identities,
    export_table,
    galois_apply,
    verify_orthogonality,
)
from quadsym.groups import OrderCapExceeded, conjugacy_classes, make_group
from quadsym.groupspec import parse_group_spec
from quadsym.reciprocity import discriminant, real_complex_split


def table_for(build, label, **kw):
    b = build(label)
    T = character_table(b.G, b.S, b.split, **kw)
    return b, T


def test_cyclotomic_polynomial_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first conductor with a coefficient other than 0, 1, -1
    assert cyclotomic_polynomial(105)[7] == -2


def test_cyclotomic_polynomials_multiply_back():
    for e in range(1, 37):
        prod = [1]
        for d in range(1, e + 1):
            if e % d == 0:
                phi_d = cyclotomic_polynomial(d)
                nxt = [0] * (len(prod) + len(phi_d) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi_d):
                        nxt[i + j] += a * b
                prod = nxt
        want = [0] * (e + 1)
        want[0], want[e] = -1, 1
        assert prod == want, e


def test_cycint_basics():
    z = CycInt.root_power(12, 1)
    assert (z * z * z) == CycInt.root_power(12, 3)
    acc = CycInt.integer(12, 1)
    for _ in range(12):
        acc = acc * z
    assert acc == 1
    # the minimal polynomial vanishes on the root
    for e in (3, 4, 5, 8, 12, 30):
        z = CycInt.root_power(e, 1)
        acc = CycInt.integer(e, 0)
        power = CycInt.integer(e, 1)
        for c in cyclotomic_polynomial(e):
            acc = acc + c * power
            power = power * z
        assert acc == 0, e


def test_cycint_ring_ops():
    rng = random.Random(23)
    for e in (5, 8, 12):
        phi = len(cyclotomic_polynomial(e)) - 1
        for _ in range(50):
            a = CycInt(e, tuple(rng.randrange(-9, 10) for _ in range(phi)))
            b = CycInt(e, tuple(rng.randrange(-9, 10) for _ in range(phi)))
            c = CycInt(e, tuple(rng.randrange(-9, 10) for _ in range(phi)))
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a - b) + b == a
            assert a * 1 == a and a * 0 == 0
    assert CycInt.integer(8, 5).is_rational()
    assert CycInt.integer(8, 5).to_int() == 5
    with pytest.raises(ValueError):
        CycInt.root_power(8, 1).to_int()
    with pytest.raises(ValueError):
        CycInt.integer(8, 1) + CycInt.integer(12, 1)


def test_galois_is_a_ring_automorphism():
    rng = random.Random(29)
    for e in (7, 12, 30):
        phi = len(cyclotomic_polynomial(e)) - 1
        units = [a for a in range(1, e) if math.gcd(a, e) == 1] or [1]
        for _ in range(30):
            z = CycInt(e, tuple(rng.randrange(-5, 6) for _ in range(phi)))
            w = CycInt(e, tuple(rng.randrange(-5, 6) for _ in range(phi)))
            a = rng.choice(units)
            b = rng.choice(units)
            assert galois_apply(z * w, a) == galois_apply(z, a) * galois_apply(w, a)
            assert galois_apply(z + w, a) == galois_apply(z, a) + galois_apply(w, a)
            assert galois_apply(galois_apply(z, a), b) == galois_apply(z, a * b)
            assert galois_apply(z, 1) == z
        assert galois_apply(CycInt.root_power(e, 1), e - 1) == CycInt.root_power(e, e - 1)
    with pytest.raises(ValueError):
        galois_apply(CycInt.integer(12, 1), 4)


def leibniz_det(rows, e):
    m = len(rows)
    total = CycInt.integer(e, 0)
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        term = CycInt.integer(e, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def test_modular_det_matches_leibniz():
    rng = random.Random(31)
    big = 10**6
    for e in (1, 2, 4, 5, 12, 105):
        phi = len(cyclotomic_polynomial(e)) - 1
        rand = lambda: CycInt(e, tuple(rng.randrange(-big, big + 1) for _ in range(phi)))
        for m in range(1, 6):
            rows = [[rand() for _ in range(m)] for _ in range(m)]
            det, primes, _ = _modular_det(rows, e, "random")
            assert det == leibniz_det(rows, e), (e, m)
            if m > 1:
                assert len(primes) >= 2, (e, m)
        # a zero (0, 0) entry forces a row swap in every image
        rows = [[rand() for _ in range(3)] for _ in range(3)]
        rows[0][0] = CycInt.integer(e, 0)
        assert _modular_det(rows, e, "swap")[0] == leibniz_det(rows, e), e
        # the third row is a Z[z]-combination of the first two
        u, v = rand(), rand()
        rows[2] = [u * a + v * b for a, b in zip(rows[0], rows[1])]
        assert _modular_det(rows, e, "singular")[0] == 0, e


def test_cyclic_tables_match_roots_of_unity(build):
    # independent construction: row t of cyclic(k) is j -> zeta^(t * rep_j)
    for k in range(1, 17):
        b, T = table_for(build, f"cyclic:{k}")
        assert T.conductor == k
        assert set(T.degrees) == {1}
        reps = [b.S.classes[j].rep for j in T.class_order]
        expected = {
            tuple(CycInt.root_power(k, t * r) for r in reps) for t in range(k)
        }
        assert set(T.entries) == expected, k


def test_sym3_table(build):
    b, T = table_for(build, "sym:3")
    assert T.degrees == (1, 1, 2)
    assert T.class_order == (0, 1, 2)
    want = [
        [1, 1, 1],
        [1, -1, 1],
        [2, 0, -1],
    ]
    for row, wrow in zip(T.entries, want):
        assert [z.to_int() for z in row] == wrow


def test_q8_and_dihedral4_share_a_table(build):
    _, T1 = table_for(build, "q8")
    _, T2 = table_for(build, "dihedral:4")
    assert T1.degrees == T2.degrees == (1, 1, 1, 1, 2)
    as_ints = lambda T: [[z.to_int() for z in row] for row in T.entries]
    assert as_ints(T1) == as_ints(T2)


def test_known_degree_multisets(build):
    expected = {
        "sym:4": [1, 1, 2, 3, 3],
        "sym:5": [1, 1, 4, 4, 5, 5, 6],
        "sym:6": [1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16],
        "alt:4": [1, 1, 1, 3],
        "alt:5": [1, 3, 3, 4, 5],
        "sl2:8": [1, 7, 7, 7, 7, 8, 9, 9, 9],
        "dihedral:6": [1, 1, 1, 1, 2, 2],
    }
    for label, degrees in expected.items():
        _, T = table_for(build, label)
        assert list(T.degrees) == degrees, label
        assert sum(d * d for d in T.degrees) == build(label).G.n


def test_first_row_is_trivial_character(build):
    for label in ["cyclic:6", "sym:4", "alt:5", "q8", "sl2:4"]:
        _, T = table_for(build, label)
        assert all(z == 1 for z in T.entries[0])
        assert T.degrees[0] == 1


def test_tables_are_seed_independent(build):
    for label in ["alt:5", "sl2:8", "cyclic:16", "cyclic:3*dihedral:4"]:
        b = build(label)
        T1 = character_table(b.G, b.S, b.split, seed=0)
        T2 = character_table(b.G, b.S, b.split, seed=987654321)
        assert T1 == T2


def test_orthogonality_everywhere(build):
    for label in ["cyclic:12", "sym:5", "alt:5", "q8", "sl2:8", "abelian:2,4"]:
        b, T = table_for(build, label)
        verify_orthogonality(b.G, b.S, T)


def test_orthogonality_detects_corruption(build):
    b, T = table_for(build, "sym:3")
    bad_rows = list(list(r) for r in T.entries)
    bad_rows[2][1] = CycInt.integer(T.conductor, 1)
    bad = CharacterTable(
        label=T.label,
        conductor=T.conductor,
        prime=T.prime,
        class_order=T.class_order,
        degrees=T.degrees,
        entries=tuple(tuple(r) for r in bad_rows),
    )
    with pytest.raises(CharTableError) as exc:
        verify_orthogonality(b.G, b.S, bad)
    message = str(exc.value)
    assert message.startswith("sym:3: row orthogonality fails at rows 0, 2: got 3, want 0")
    assert "P = " in message
    # a coefficient past int64 is reduced mod each prime as a Python int
    bad_rows = [list(r) for r in T.entries]
    bad_rows[1][0] = bad_rows[1][0] + 10**40
    with pytest.raises(CharTableError, match=f"rows 0, 1: got {10**40}, want 0"):
        verify_orthogonality(b.G, b.S, dataclasses.replace(T, entries=tuple(map(tuple, bad_rows))))


def test_det_identities_detect_corruption(build):
    # the last row of cyclic:5 times z: det picks up a factor z, so det^2 is
    # irrational and z -> z^a no longer permutes the columns
    b, T = table_for(build, "cyclic:5")
    z = CycInt.root_power(5, 1)
    rows = T.entries[:-1] + (tuple(x * z for x in T.entries[-1]),)
    report = det_identities(b.G, b.S, b.split, dataclasses.replace(T, entries=rows), b.D)
    assert [(c.name, c.ok, c.witness) for c in report.checks] == [
        ("det_squared_is_ell2_d", False, "det^2 = 3125*z^2, d = 5"),
        ("conjugate_det", False, "conj(det) != (1) * det"),
        ("galois_scales_det_by_symbol", False, "a = 2, symbol -1"),
        ("galois_permutes_columns", False, "a = 2, row 4, column 0"),
        ("det_squared_mod_4", False, "det^2 = 0 = 0 mod 4"),
    ]
    # a zero row bounds det by 0, which still takes one prime
    rows = T.entries[:-1] + ((CycInt.integer(5, 0),) * 5,)
    report = det_identities(b.G, b.S, b.split, dataclasses.replace(T, entries=rows), b.D)
    assert report.det == 0
    assert [c.name for c in report.checks if not c.ok] == ["det_squared_is_ell2_d"]


def test_det_squared_matches_vandermonde_formula(build):
    # for cyclic(k) the table is a DFT matrix, whose squared determinant is
    # the discriminant of x^k - 1
    for k in range(1, 17):
        b, T = table_for(build, f"cyclic:{k}")
        det = det_identities(b.G, b.S, b.split, T, b.D)
        want = (-1) ** ((k - 1) * (k - 2) // 2 % 2) * k**k
        assert det.det_squared == want, k
        assert det.ok


def test_det_identities_hand_values(build):
    for label, det2, ell in [
        ("cyclic:3", -27, 3),
        ("cyclic:4", -256, 4),
        ("sym:3", 36, 1),
        ("alt:4", -432, 3),
        ("alt:5", 18000, 1),
        ("q8", 4096, 1),
        ("sl2:8", 9073705536, 1),
    ]:
        b, T = table_for(build, label)
        det = det_identities(b.G, b.S, b.split, T, b.D)
        assert det.ok, [c for c in det.checks if not c.ok]
        assert (det.det_squared, det.ell) == (det2, ell), label
        assert det.det_squared == ell * ell * b.D.value.value()


def test_sl2_16_past_the_class_cap(build):
    b = build("sl2:16")
    T = character_table(b.G, b.S, b.split, max_classes=17)
    verify_orthogonality(b.G, b.S, T)
    det = det_identities(b.G, b.S, b.split, T, b.D)
    assert det.ok, [c for c in det.checks if not c.ok]
    assert (det.det_squared, det.ell) == (b.D.value.value(), 1)


def test_class_count_cap(build):
    b = build("cyclic:17")
    with pytest.raises(OrderCapExceeded) as exc:
        character_table(b.G, b.S, b.split)
    assert exc.value.needed == 17
    T = character_table(b.G, b.S, b.split, max_classes=17)
    assert T.m == 17


def test_export_format(build):
    _, T = table_for(build, "sym:3")
    assert export_table(T) == (
        "[1,0] [1,0] [1,0]\n"
        "[1,0] [-1,0] [1,0]\n"
        "[2,0] [0,0] [-1,0]\n"
    )
    _, T5 = table_for(build, "cyclic:5")
    lines = export_table(T5).splitlines()
    assert len(lines) == 5
    assert all(len(line.split()) == 5 for line in lines)
    assert lines[0] == "[1,0,0,0] [1,0,0,0] [1,0,0,0] [1,0,0,0] [1,0,0,0]"
