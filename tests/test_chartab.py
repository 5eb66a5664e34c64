import dataclasses
import itertools
import math
import random
import re

import numpy as np
import pytest

from quadsym.chartab import (
    CharTableError,
    CharacterTable,
    CycInt,
    _charpoly,
    _common_eigenvectors,
    _derivative_bound,
    _det_bound,
    _det_stack,
    _embedding_prime,
    _modular_det,
    _restrict,
    _split_space,
    _unit_perm,
    _units,
    character_table,
    cyclotomic_polynomial,
    det_identities,
    export_table,
    galois_apply,
    verify_orthogonality,
)
from quadsym.groups import OrderCapExceeded, conjugacy_classes, make_group
from quadsym.groupspec import parse_group_spec
from quadsym.ntheory import factorize, fundamental_discriminant
from quadsym.reciprocity import discriminant, real_complex_split, symbol_character


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


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for e in range(1, 1001):
        poly = cyclotomic_polynomial(e)
        assert list(poly) == sympy.cyclotomic_poly(e, x, polys=True).all_coeffs()[::-1], e
        assert len(poly) - 1 == sympy.totient(e), e


def test_charpoly_matches_the_determinant_scan():
    # the oracle: det(lam - T) at every lam in F_P, one batched elimination
    rng = np.random.default_rng(41)
    cases = [(rng.integers(0, P, (d, d)), P) for P in (2, 3, 7, 101, 421) for d in (1, 2, 3, 5, 8)]
    # entries mostly zero, so that zero subcolumns and row swaps are common
    cases += [(rng.integers(0, 3, (6, 6)) * rng.integers(0, 2, (6, 6)), 3) for _ in range(20)]
    zero_subcolumn = rng.integers(0, 101, (5, 5))
    zero_subcolumn[1:, 0] = 0  # the first Hessenberg step has nothing to clear
    swap = rng.integers(0, 101, (5, 5))
    swap[1:3, 0] = 0, 5  # the first pivot sits below the subdiagonal
    scalar = 7 * np.eye(4, dtype=np.int64)
    jordan = np.eye(6, k=1, dtype=np.int64)  # nilpotent
    cases += [(zero_subcolumn, 101), (swap, 101), (scalar, 101), (jordan, 101)]
    for T, P in cases:
        d, before = len(T), T.copy()
        coeffs = _charpoly(T, P).tolist()
        assert (T == before).all()
        assert len(coeffs) == d + 1 and coeffs[-1] == 1
        values = [sum(c * pow(lam, k, P) for k, c in enumerate(coeffs)) % P for lam in range(P)]
        eye = np.eye(d, dtype=np.int64)
        assert values == _det_stack(np.arange(P)[:, None, None] * eye - T, P).tolist(), (T, P)
    assert _charpoly(scalar, 101).tolist() == [c % 101 for c in (7**4, -4 * 7**3, 6 * 7**2, -4 * 7, 1)]
    assert _charpoly(jordan, 101).tolist() == [0] * 6 + [1]


def test_splitting_failures_raise():
    P = 7
    plane = (np.eye(2, dtype=np.int64), [0, 1])
    # one eigenvalue with a line of eigenvectors, and x^2 + 1, which has no root mod 7
    for R in ([[3, 1], [0, 3]], [[0, -1], [1, 0]]):
        with pytest.raises(CharTableError, match="not simultaneously diagonalizable"):
            _split_space(plane, np.array(R) % P, P)
    with pytest.raises(CharTableError, match="not invariant"):
        _restrict(np.array([[0, 1], [1, 0]]), np.array([[1, 0]]), [0], P)
    # the identity and a nilpotent matrix: every combination with a nonzero
    # nilpotent part fails to split
    Ns = np.stack([np.eye(2, dtype=np.int64), np.eye(2, k=1, dtype=np.int64)])
    with pytest.raises(CharTableError, match=r"g: eigenspace splitting did not converge in 4 attempts \(P = 7\)"):
        _common_eigenvectors(Ns, P, "g", 0)


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


def leibniz_bound(rows, e):
    # C_e * prod_i sum_j |M_ij|_1, with C_e the largest |z^k|_1 over k < e:
    # the Leibniz expansion, its exponents taken mod e and then reduced once
    l1 = lambda z: sum(map(abs, z.coeffs))
    root_norm = max(l1(CycInt.root_power(e, k)) for k in range(e))
    return root_norm * math.prod(sum(map(l1, row)) for row in rows)


def test_modular_det_matches_leibniz():
    # random matrices have no column norms to prove, so the Leibniz bound
    rng = random.Random(31)
    big = 10**6
    for e in (1, 2, 4, 5, 12, 105):
        phi = len(cyclotomic_polynomial(e)) - 1
        rand = lambda: CycInt(e, tuple(rng.randrange(-big, big + 1) for _ in range(phi)))
        for m in range(1, 6):
            rows = [[rand() for _ in range(m)] for _ in range(m)]
            det, primes, _ = _modular_det(rows, e, leibniz_bound(rows, e), "random")
            assert det == leibniz_det(rows, e), (e, m)
            if m > 1:
                assert len(primes) >= 2, (e, m)
        # a zero (0, 0) entry forces a row swap in every image
        rows = [[rand() for _ in range(3)] for _ in range(3)]
        rows[0][0] = CycInt.integer(e, 0)
        assert _modular_det(rows, e, leibniz_bound(rows, e), "swap")[0] == leibniz_det(rows, e), e
        # the third row is a Z[z]-combination of the first two
        u, v = rand(), rand()
        rows[2] = [u * a + v * b for a, b in zip(rows[0], rows[1])]
        assert _modular_det(rows, e, leibniz_bound(rows, e), "singular")[0] == 0, e


def test_derivative_bound_is_below_the_discriminant():
    # |disc Phi_e| = prod over the primitive e-th roots zeta of |Phi_e'(zeta)|
    # = e^phi / prod over p | e of p^(phi / (p - 1)), and each factor is >= L
    for e in range(1, 1001):
        num, den = _derivative_bound(e)
        phi = len(cyclotomic_polynomial(e)) - 1
        primes = [p for p, _ in factorize(e).factors]
        assert num**phi * math.prod(p ** (phi // (p - 1)) for p in primes) <= (e * den) ** phi, e
    # and root by root, in floating point with room for rounding: L is
    # attained at e = 1, 2, 4
    for e in range(1, 201):
        num, den = _derivative_bound(e)
        poly = np.array(cyclotomic_polynomial(e), dtype=float)
        zetas = np.exp(2j * np.pi * np.array(_units(e)) / e)
        deriv = np.polyval((poly * np.arange(len(poly)))[:0:-1], zetas)
        assert np.abs(deriv).min() >= num / den * (1 - 1e-9), e


def test_det_bound_is_sound_and_sets_the_prime_count(build, catalog):
    labels = [label for label in catalog if build(label).S.m <= 16]
    labels += ["cyclic:11*sym:3", "dihedral:12*sym:4", "sl2:16", "perm:[(1 2 3 4 5 6 7),(1 2)(3 6)]"]
    counts = {}
    for label in labels:
        b = build(label)
        T = character_table(b.G, b.S, b.split, max_classes=b.S.m)
        e = T.conductor
        bound = _det_bound(e, [b.G.n // b.S.classes[j].size for j in T.class_order])
        det, primes, _ = _modular_det(T.entries, e, bound, label)
        assert det == _modular_det(T.entries, e, leibniz_bound(T.entries, e), label)[0], label
        assert max(map(abs, det.coeffs)) <= bound, label
        # the least number of primes, taken largest first, with Q > 2B
        assert primes.tolist() == [_embedding_prime(e, k) for k in range(len(primes))], label
        assert math.prod(primes[:-1].tolist()) <= 2 * bound < math.prod(primes.tolist()), label
        assert det_identities(b.G, b.S, b.split, T, b.D).det == det, label
        counts[label] = len(primes)
    assert (counts["cyclic:11*sym:3"], counts["dihedral:12*sym:4"]) == (5, 6)


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


@pytest.mark.parametrize(
    "left, right",
    [
        ("dihedral:3", "sym:3"),
        ("cyclic:6", "cyclic:2*cyclic:3"),
        ("abelian:3,9", "cyclic:3*cyclic:9"),
        ("alt:4", "perm:[(1 2 3),(2 3 4)]"),
        # q8 acting on itself by left multiplication, with 1, i, -1, -i, j, k,
        # -j, -k as the points 1..8: i and j
        ("q8", "perm:[(1 2 3 4)(5 6 7 8),(1 5 3 7)(2 8 4 6)]"),
    ],
)
def test_isomorphic_groups_agree(build, left, right):
    def invariants(label):
        b = build(label)
        T = character_table(b.G, b.S, b.split, max_classes=b.S.m)
        sym = symbol_character(b.G, b.S).values
        return b.G.n, b.S.m, b.split.r1, b.split.r2, b.D.value.value(), sym, sorted(T.degrees)

    assert invariants(left) == invariants(right)


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
    # cyclic:11*sym:3 (m = 33) takes the splitting path past the class cap
    for label in ["alt:5", "sl2:8", "cyclic:16", "cyclic:3*dihedral:4", "cyclic:11*sym:3"]:
        b = build(label)
        T1 = character_table(b.G, b.S, b.split, seed=0, max_classes=b.S.m)
        T2 = character_table(b.G, b.S, b.split, seed=987654321, max_classes=b.S.m)
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
    # a zero row takes 1 from every column norm, which the bound on det needs
    rows = T.entries[:-1] + ((CycInt.integer(5, 0),) * 5,)
    with pytest.raises(CharTableError, match=r"^cyclic:5: column 0 has norm 4, want 5, .* \(P = \d+\)$"):
        det_identities(b.G, b.S, b.split, dataclasses.replace(T, entries=rows), b.D)


def test_det_identities_need_the_column_norms(build):
    for label in ["cyclic:5", "sym:4", "perm:[(1 2 3 4 5 6 7),(1 2)(3 6)]"]:
        b, T = table_for(build, label)
        for j in range(T.m):
            rows = tuple(row[:j] + (2 * row[j],) + row[j + 1 :] for row in T.entries)
            c = b.G.n // b.S.classes[T.class_order[j]].size
            want = rf"^{re.escape(label)}: column {j} has norm {4 * c}, want {c}, "
            with pytest.raises(CharTableError, match=want):
                det_identities(b.G, b.S, b.split, dataclasses.replace(T, entries=rows), b.D)


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


def test_psl27_table(build):
    # PSL(2, 7) on the 7 points of the Fano plane: non-abelian, and its two
    # classes of elements of order 7 are a non-real pair
    b, T = table_for(build, "perm:[(1 2 3 4 5 6 7),(1 2)(3 6)]")
    assert (b.G.n, T.m, T.prime, T.degrees) == (168, 6, 337, (1, 3, 3, 6, 7, 8))
    assert b.split.r2 == 1
    verify_orthogonality(b.G, b.S, T)
    det = det_identities(b.G, b.S, b.split, T, b.D)
    assert [c.ok for c in det.checks] == [True] * 5
    assert (det.det_squared, det.ell, b.D.value.value()) == (-790272, 7, -16128)
    assert fundamental_discriminant(b.D.value).d_K == -7


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


def test_unit_perm_acts_by_multiplication():
    for e in (1, 2, 3, 12, 30, 420):
        units = _units(e)
        for a in (*units, -1, e + 1):
            want = [next(v for v in units if (v - a * u) % e == 0) for u in units]
            assert [units[t] for t in _unit_perm(e, a)] == want, (e, a)


def test_chartab_builds_the_power_chains_and_the_symbol_once(monkeypatch, capsys):
    from quadsym import chartab, cli, reciprocity

    calls = {"class_power_chains": 0, "symbol_character": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return original(*args, **kw)

        monkeypatch.setattr(module, name, wrapper)

    for module in (chartab, reciprocity):
        counting(module, "class_power_chains")
    counting(chartab, "symbol_character")
    for text in ["sym:4", "cyclic:12", "q8"]:
        calls.update(class_power_chains=0, symbol_character=0)
        assert cli.main(["chartab", text, "--json"]) == 0
        assert calls == {"class_power_chains": 1, "symbol_character": 1}, text
    capsys.readouterr()


def test_chartab_builds_the_embedding_maps_once_per_prime(monkeypatch, capsys):
    import hashlib
    import json
    from pathlib import Path

    from quadsym import chartab, cli

    cached = chartab._embedding_maps
    asked = []

    def spy(e, P):
        asked.append((e, P))
        return cached(e, P)

    monkeypatch.setattr(chartab, "_embedding_maps", spy)
    cached.cache_clear()
    assert cli.main(["chartab", "sym:7", "--json"]) == 0
    out = capsys.readouterr().out
    assert len(asked) > len(set(asked)) and cached.cache_info().misses == len(set(asked))
    vander, interp = cached(*asked[0])
    assert not vander.flags.writeable and not interp.flags.writeable
    # the bytes of a cold cache, of a warm one, and of the benchmark's reference
    assert cli.main(["chartab", "sym:7", "--json"]) == 0
    assert capsys.readouterr().out == out
    reference = Path(__file__).parents[1] / "bench" / "reference.json"
    if reference.is_file():
        want = json.loads(reference.read_text())["outputs"]["chartab sym:7"]
        assert hashlib.sha256(out.encode()).hexdigest() == want
