import math

import pytest

from quadsym.groups import class_power_chains, conjugacy_classes, make_group, permutation_parity
from quadsym.groupspec import parse_group_spec
from quadsym.ntheory import is_perfect_square, kronecker, n_star, unit_generators
from quadsym.reciprocity import (
    discriminant,
    quadratic_symbol,
    real_complex_split,
    sl2_formula_check,
    symbol_character,
    verify_group,
)


def test_split_counts():
    expected = {
        "cyclic:3": (1, 1),
        "cyclic:4": (2, 1),
        "cyclic:5": (1, 2),
        "sym:3": (3, 0),
        "sym:6": (11, 0),
        "q8": (5, 0),
        "alt:4": (2, 1),
        "alt:5": (5, 0),
        "sl2:16": (17, 0),
        "perm:[(1 2 3 4 5 6 7),(2 3 5)(4 7 6)]": (1, 2),
        "cyclic:3*dihedral:4": (5, 5),
    }
    for text, (r1, r2) in expected.items():
        S = conjugacy_classes(make_group(parse_group_spec(text)))
        split = real_complex_split(S)
        assert (split.r1, split.r2) == (r1, r2), text
        assert split.m == S.m


def test_split_order_layout(build):
    for label in ["cyclic:7", "alt:4", "cyclic:3*dihedral:4"]:
        b = build(label)
        split, S = b.split, b.S
        assert sorted(split.order) == list(range(S.m))
        for t in range(split.r1):
            j = split.order[t]
            assert S.inverse_class[j] == j
        for t in range(split.r1, split.m, 2):
            j, k = split.order[t], split.order[t + 1]
            assert S.inverse_class[j] == k and S.inverse_class[k] == j
            assert j < k


def test_discriminant_hand_values(build):
    expected = {
        "cyclic:3": -3,
        "cyclic:4": -16,
        "cyclic:5": 5,
        "sym:3": 36,
        "sym:4": 9216,
        "dihedral:4": 4096,
        "q8": 4096,
        "alt:4": -48,
        "alt:5": 18000,
        "sl2:4": 18000,
        "perm:[(1 2 3 4 5 6 7),(2 3 5)(4 7 6)]": 21,
        "cyclic:3*dihedral:4": -995328,
    }
    for label, d in expected.items():
        b = build(label)
        assert b.D.value.value() == d, label
        assert b.D.r1 == b.split.r1 and b.D.r2 == b.split.r2


def test_symbol_on_cyclic_5(build):
    b = build("cyclic:5")
    sym = symbol_character(b.G, b.S)
    assert sym.values == (0, 1, -1, -1, 1)
    assert sym(7) == sym.values[2]


def test_symbol_trivial_on_symmetric_groups(build):
    # symmetric groups have rational character tables, so g -> g^a acts
    # trivially on classes
    for k in (3, 4, 5, 6):
        b = build(f"sym:{k}")
        sym = symbol_character(b.G, b.S)
        assert set(sym.values) <= {0, 1}
        for a in range(b.G.n):
            if math.gcd(a, b.G.n) == 1:
                assert sym.values[a] == 1


def test_symbol_zero_off_units(build):
    for label in ["cyclic:12", "sym:4", "q8"]:
        b = build(label)
        sym = symbol_character(b.G, b.S)
        for a in range(b.G.n):
            coprime = math.gcd(a, b.G.n) == 1
            assert (sym.values[a] != 0) == coprime
            assert quadratic_symbol(b.G, b.S, a) == sym.values[a]


def test_symbol_multiplicative_and_periodic(build):
    for label in ["sym:4", "dihedral:6", "cyclic:15", "q8", "alt:4"]:
        b = build(label)
        G, S = b.G, b.S
        n, e = G.n, G.exponent
        units = [a for a in range(n) if math.gcd(a, n) == 1]
        for a in units:
            for c in units:
                assert quadratic_symbol(G, S, a * c) == quadratic_symbol(
                    G, S, a
                ) * quadratic_symbol(G, S, c)
        # the symbol only sees a mod the exponent
        for a in units:
            for k in (1, 2, 5):
                assert quadratic_symbol(G, S, a + k * e) == quadratic_symbol(G, S, a)


def test_symbol_at_minus_one_counts_complex_pairs(build):
    for label in ["cyclic:5", "cyclic:7", "alt:4", "sym:5", "q8",
                  "perm:[(1 2 3 4 5 6 7),(2 3 5)(4 7 6)]"]:
        b = build(label)
        assert quadratic_symbol(b.G, b.S, -1) == (-1) ** (b.split.r2 % 2)


def test_verify_group_families(build):
    for label in ["cyclic:9", "dihedral:5", "sym:4", "alt:5", "q8", "sl2:4"]:
        rep = verify_group(build(label).G)
        assert rep.ok, [c for c in rep.checks if not c.ok]
        assert rep.n == build(label).G.n
        assert rep.m == build(label).S.m
        names = [c.name for c in rep.checks]
        assert "discriminant_mod_4" in names
        assert "symbol_equals_kronecker" in names
        assert "trivial_iff_square" in names


def test_verify_group_report_fields(build):
    rep = verify_group(build("alt:5").G)
    assert (rep.d_K, rep.conductor) == (5, 60)
    assert rep.d.value() == 18000
    assert rep.exponent == 30
    rep = verify_group(build("cyclic:3*dihedral:4").G)
    assert rep.ok
    assert rep.d_K == -3


def test_sl2_formula_against_enumeration(build):
    for r, label in [(2, "sl2:4"), (3, "sl2:8"), (4, "sl2:16")]:
        d, d_K = sl2_formula_check(r)
        b = build(label)
        assert d.value() == b.D.value.value(), r
        assert d_K == verify_group(b.G).d_K


def test_sl2_formula_large_r():
    d, d_K = sl2_formula_check(16)
    assert d_K == 65537
    q = 2**16
    assert d.mod(10**9) == (q * q * (q + 1) * pow(q * q - 1, q // 2, 10**9)) % 10**9
    d8, d_K8 = sl2_formula_check(3)
    assert d8.value() == 9073705536 and is_perfect_square(d8)
    assert d_K8 == 1
    with pytest.raises(ValueError):
        sl2_formula_check(1)
    with pytest.raises(ValueError):
        sl2_formula_check(17)


def test_odd_order_groups(build):
    for label in ["cyclic:7", "cyclic:15", "cyclic:27",
                  "perm:[(1 2 3 4 5 6 7),(2 3 5)(4 7 6)]"]:
        b = build(label)
        rep = verify_group(b.G)
        assert rep.ok
        assert b.D.value.value() == n_star(b.G.n)
        assert b.split.r1 == 1
        assert b.G.n % 16 == b.S.m % 16


def test_trivial_group(build):
    b = build("cyclic:1")
    assert b.D.value.value() == 1
    sym = symbol_character(b.G, b.S)
    assert sym.values == (1,)
    assert quadratic_symbol(b.G, b.S, 5) == 1
    assert verify_group(b.G).ok


def test_symbol_agrees_with_kronecker_spot(build):
    for label in ["cyclic:11", "dihedral:8", "alt:4"]:
        b = build(label)
        for a in range(-10, 2 * b.G.n):
            assert quadratic_symbol(b.G, b.S, a) == kronecker(b.D.value, a), (label, a)


def symbol_by_chains(G, S):
    """The symbol tabulated one unit at a time: one class permutation from
    the power chains, and one parity, per unit a mod the exponent e."""
    chains = class_power_chains(G, S)
    e = G.exponent
    by_residue = [permutation_parity(chains.at(a).tolist()) if math.gcd(a, e) == 1 else 0 for a in range(e)]
    return tuple(by_residue) * (G.n // e)


SYMBOL_ORACLE_EXTRA = [
    "cyclic:840",  # generators -1, 5 and one per odd prime
    "abelian:2,4,8",
    "abelian:4,8,9,5",
    "dihedral:100",
    "sym:7",
    "cyclic:11*sym:3",
]


def test_symbol_character_matches_the_chains_at_every_unit(build, catalog):
    for label in [*catalog, *SYMBOL_ORACLE_EXTRA]:
        b = build(label)
        assert symbol_character(b.G, b.S).values == symbol_by_chains(b.G, b.S), label


def test_symbol_character_takes_one_parity_per_generator(build, monkeypatch):
    from quadsym import reciprocity

    calls = 0

    def counting(p):
        nonlocal calls
        calls += 1
        return permutation_parity(p)

    monkeypatch.setattr(reciprocity, "permutation_parity", counting)
    for label in ["cyclic:840", "sl2:16"]:
        b = build(label)
        budget, calls = len(unit_generators(b.G.exponent)), 0
        symbol_character(b.G, b.S)
        assert calls <= budget, (label, calls, budget)


def test_verify_group_expands_the_discriminant_once(build, monkeypatch):
    # the Kronecker checks run on d.value(), not on d's factored form
    from quadsym.ntheory import FactoredInt

    calls = 0
    original = FactoredInt.mod

    def counting(self, modulus):
        nonlocal calls
        calls += 1
        return original(self, modulus)

    monkeypatch.setattr(FactoredInt, "mod", counting)
    b = build("sl2:16")
    assert verify_group(b.G, b.S).ok
    assert calls <= 4, calls


def test_symbol_tables_of_large_groups_match_the_golden_hashes(capsys):
    import hashlib
    import json
    from pathlib import Path

    from quadsym import cli

    want = json.loads((Path(__file__).parent / "symbol_golden.json").read_text())
    got = {}
    for key in want:
        assert cli.main([*key.split(), "--table", "--json"]) == 0, key
        got[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == want
