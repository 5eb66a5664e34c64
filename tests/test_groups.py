import math
import random

import pytest

from quadsym.groups import (
    GroupError,
    GroupTable,
    OrderCapExceeded,
    class_power_chains,
    class_power_map,
    conjugacy_classes,
    direct_product,
    make_group,
    permutation_parity,
    verify_axioms,
)
from quadsym.groupspec import parse_group_spec


def group(text, **kw):
    return make_group(parse_group_spec(text), **kw)


def test_family_orders():
    cases = {
        "cyclic:1": 1,
        "cyclic:12": 12,
        "abelian:2,4": 8,
        "abelian:3,9": 27,
        "dihedral:3": 6,
        "dihedral:12": 24,
        "sym:1": 1,
        "sym:4": 24,
        "alt:3": 3,
        "alt:5": 60,
        "q8": 8,
        "sl2:4": 60,
        "sl2:8": 504,
        "sl2:16": 4080,
        "cyclic:3*dihedral:4": 24,
    }
    for text, n in cases.items():
        assert group(text).n == n, text


def test_identity_and_inverses():
    for text in ["cyclic:9", "dihedral:7", "sym:4", "q8", "sl2:4"]:
        G = group(text)
        e = G.identity_index
        for i in range(G.n):
            assert G.multiply(i, e) == i
            assert G.multiply(G.inverse[i], i) == e
            o = G.element_order[i]
            assert G.power(i, o) == e
            assert G.power(i, o - 1) == G.inverse[i]
            assert G.power(i, -1) == G.inverse[i]


def test_exponent_values():
    assert group("cyclic:12").exponent == 12
    assert group("sym:4").exponent == 12
    assert group("sym:5").exponent == 60
    assert group("dihedral:6").exponent == 6
    assert group("q8").exponent == 4
    assert group("sl2:4").exponent == 30
    assert group("sl2:8").exponent == 126
    assert group("abelian:2,4").exponent == 4


def test_is_abelian_flag():
    assert group("cyclic:15").is_abelian
    assert group("abelian:2,2,2").is_abelian
    assert not group("sym:3").is_abelian
    assert not group("q8").is_abelian
    assert group("cyclic:2*cyclic:3").is_abelian
    assert not group("cyclic:3*dihedral:4").is_abelian


def test_verify_axioms_families():
    for text in ["cyclic:16", "abelian:2,4", "dihedral:9", "sym:5", "alt:4", "q8", "sl2:4"]:
        verify_axioms(group(text))


def test_verify_axioms_large_group_sampled():
    G = group("sl2:16")
    assert G.n > 1024
    verify_axioms(G, seed=0)
    verify_axioms(G, seed=99)


def test_verify_axioms_rejects_non_groups():
    # a loop of order 6: 0 is the identity and x*x = 0 for every x, so all
    # identity and inverse checks pass, but 80 of the 216 triples fail
    # associativity
    rows = [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 4, 0, 5, 1, 3],
        [3, 5, 4, 0, 2, 1],
        [4, 3, 5, 1, 0, 2],
        [5, 2, 1, 4, 3, 0],
    ]
    loop = GroupTable("loop6", range(6), lambda a, b: rows[a][b], 0, [1, 2])
    for seed in (0, 7):
        with pytest.raises(GroupError, match="associativity"):
            verify_axioms(loop, seed=seed)
    big = direct_product(loop, group("cyclic:100"))
    assert big.n == 600
    with pytest.raises(GroupError, match="associativity"):
        verify_axioms(big)
    # a group whose generators do not generate it
    c6 = GroupTable("c6", range(6), lambda a, b: (a + b) % 6, 0, [2])
    with pytest.raises(GroupError, match="generators"):
        verify_axioms(c6)


def test_order_cap():
    with pytest.raises(OrderCapExceeded) as exc:
        group("sym:7", max_order=5000)
    assert exc.value.needed == 5040 and exc.value.cap == 5000
    # the cap refuses only strictly larger groups, so 5040 itself builds
    assert group("sym:7").n == 5040
    with pytest.raises(OrderCapExceeded):
        group("perm:[(1 2 3 4 5 6 7 8)(9 10 11 12 13 14 15)]", max_order=50)
    with pytest.raises(OrderCapExceeded):
        direct_product(group("sym:4"), group("sym:4"), max_order=500)


def test_elements_sorted_by_encoding():
    for text in ["cyclic:6", "dihedral:4", "sym:4", "q8"]:
        G = group(text)
        assert list(G.elements) == sorted(G.elements)


def test_perm_generator_composition_order():
    # cycles inside one generator apply left to right
    G = group("perm:[(1 2)(2 3)]")
    gen = G.elements[G.generators[0]]
    assert gen == (2, 0, 1)
    assert G.n == 3


def test_frobenius_21():
    G = group("perm:[(1 2 3 4 5 6 7),(2 3 5)(4 7 6)]")
    assert G.n == 21
    assert G.exponent == 21
    S = conjugacy_classes(G)
    assert S.m == 5
    assert sorted(c.size for c in S.classes) == [1, 3, 3, 7, 7]


def test_class_data_sym3():
    G = group("sym:3")
    S = conjugacy_classes(G)
    assert [c.size for c in S.classes] == [1, 3, 2]
    assert [c.rep_order for c in S.classes] == [1, 2, 3]
    assert [c.centralizer_order for c in S.classes] == [6, 2, 3]
    assert S.class_of[G.identity_index] == 0
    assert S.inverse_class == (0, 1, 2)


def test_class_counts():
    expected = {
        "sym:4": 5,
        "sym:5": 7,
        "sym:6": 11,
        "alt:4": 4,
        "alt:5": 5,
        "q8": 5,
        "dihedral:4": 5,
        "dihedral:5": 4,
        "dihedral:6": 6,
        "sl2:4": 5,
        "sl2:8": 9,
        "sl2:16": 17,
        "cyclic:30": 30,
    }
    for text, m in expected.items():
        assert conjugacy_classes(group(text)).m == m, text


def test_class_partition_and_sizes():
    for text in ["sym:4", "dihedral:7", "sl2:4", "cyclic:3*dihedral:4"]:
        G = group(text)
        S = conjugacy_classes(G)
        assert sum(c.size for c in S.classes) == G.n
        seen = set()
        for c in S.classes:
            assert c.rep == min(c.members)
            assert len(c.members) == c.size
            assert c.size * c.centralizer_order == G.n
            seen.update(c.members)
            # class members share their element order
            assert {G.element_order[x] for x in c.members} == {c.rep_order}
        assert seen == set(range(G.n))
        # conjugation by any element stays inside the class
        rng = random.Random(1)
        for _ in range(200):
            x = rng.randrange(G.n)
            h = rng.randrange(G.n)
            y = G.multiply(G.multiply(G.inverse[h], x), h)
            assert S.class_of[y] == S.class_of[x]


def test_classes_ordered_canonically():
    for text in ["sym:4", "sym:6", "q8", "sl2:8"]:
        S = conjugacy_classes(group(text))
        keys = [(c.rep_order, c.size, c.rep) for c in S.classes]
        assert keys == sorted(keys)
        assert S.classes[0].size == 1 and S.classes[0].rep_order == 1


def test_class_power_chains():
    G = group("sym:4")
    S = conjugacy_classes(G)
    chains = class_power_chains(G, S)
    for j, c in enumerate(S.classes):
        assert len(chains[j]) == c.rep_order
        for t in range(c.rep_order):
            assert chains[j][t] == S.class_of[G.power(c.rep, t)]


def test_class_power_map_properties():
    for text in ["sym:4", "dihedral:6", "q8", "cyclic:12"]:
        G = group(text)
        S = conjugacy_classes(G)
        n = G.n
        units = [a for a in range(n) if math.gcd(a, n) == 1]
        ident = tuple(range(S.m))
        assert class_power_map(G, S, 1) == ident
        assert class_power_map(G, S, n + 1) == ident
        for a in units:
            pa = class_power_map(G, S, a)
            assert sorted(pa) == list(ident)
            # well-defined: any member of the class lands in the same image
            for j, c in enumerate(S.classes):
                for x in c.members:
                    assert S.class_of[G.power(x, a)] == pa[j]
        for a, b in [(units[0], units[-1]), (units[-1], units[-1])]:
            pa, pb = class_power_map(G, S, a), class_power_map(G, S, b)
            pab = class_power_map(G, S, a * b)
            assert pab == tuple(pb[pa[j]] for j in range(S.m))
        with pytest.raises(ValueError):
            class_power_map(G, S, 0)


def test_class_power_map_is_one_power_per_class(monkeypatch):
    # in cyclic:101 the chains alone take 10 101 multiplies, the budget 1 414
    for text in ["sym:4", "q8", "cyclic:2*alt:5", "cyclic:101"]:
        G = group(text)
        S = conjugacy_classes(G)
        chains = class_power_chains(G, S)
        calls = 0
        multiply = G.multiply

        def counting(i, j):
            nonlocal calls
            calls += 1
            return multiply(i, j)

        monkeypatch.setattr(G, "multiply", counting)
        budget = S.m * 2 * math.ceil(math.log2(G.n))
        for a in range(1, G.n):
            if math.gcd(a, G.n) != 1:
                continue
            calls = 0
            want = tuple(chain[a % c.rep_order] for chain, c in zip(chains, S.classes))
            assert class_power_map(G, S, a) == want, (text, a)
            assert calls <= budget, (text, a, calls)


def test_permutation_parity():
    def by_inversions(p):
        inv = sum(
            1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
        )
        return -1 if inv % 2 else 1

    import itertools

    for p in itertools.permutations(range(4)):
        assert permutation_parity(p) == by_inversions(p)
    rng = random.Random(17)
    for _ in range(100):
        p = list(range(rng.randrange(1, 30)))
        rng.shuffle(p)
        assert permutation_parity(p) == by_inversions(p)
    assert permutation_parity(()) == 1
    with pytest.raises(ValueError):
        permutation_parity((0, 0, 1))
    with pytest.raises(ValueError):
        permutation_parity((1, 2, 3))


def test_direct_product_structure():
    A = group("cyclic:3")
    B = group("dihedral:4")
    P = direct_product(A, B)
    assert P.n == 24
    assert P.label == "cyclic:3*dihedral:4"
    assert P.exponent == math.lcm(A.exponent, B.exponent)
    verify_axioms(P)
    S = conjugacy_classes(P)
    assert S.m == conjugacy_classes(A).m * conjugacy_classes(B).m


def test_sl2_small_field_structure():
    G = group("sl2:4")
    # unimodular: every element has determinant 1 over GF(4)
    from quadsym.groups import _GF2Field

    field = _GF2Field(2)
    for a, b, c, d in G.elements:
        det = field.mul[a][d] ^ field.mul[b][c]
        assert det == 1


def test_element_repr():
    G = group("sym:3")
    assert G.element_repr(G.identity_index) == "(0, 1, 2)"
