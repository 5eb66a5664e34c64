import math
import random
import re

import numpy as np
import pytest

from quadsym.cli import default_catalog
from quadsym.groups import (
    _BLOCK_VALUES,
    GroupError,
    GroupTable,
    OrderCapExceeded,
    class_power_chains,
    class_power_map,
    conjugacy_classes,
    direct_product,
    make_group,
    permutation_parity,
    _keys,
    _permutation_rows,
    verify_axioms,
)
from quadsym.groupspec import FamilySpec, ProductSpec, parse_group_spec


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
    # (the product takes k x 1 arrays of element rows)
    table = np.array([
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 4, 0, 5, 1, 3],
        [3, 5, 4, 0, 2, 1],
        [4, 3, 5, 1, 0, 2],
        [5, 2, 1, 4, 3, 0],
    ])
    loop = GroupTable("loop6", range(6), lambda a, b: table[a, b], 0, [1, 2])
    for seed in (0, 7):
        with pytest.raises(GroupError, match="associativity"):
            verify_axioms(loop, seed=seed)
    big = direct_product(loop, group("cyclic:100"))
    assert big.n == 600
    with pytest.raises(GroupError, match="associativity"):
        verify_axioms(big)
    # n = 1200 takes the sampled path; the first failing triple of each
    # seed's draw pins the seeded triples
    huge = direct_product(loop, group("cyclic:200"))
    for seed, witness in ((0, "(890, 1144, 1021)"), (7, "(1137, 539, 458)")):
        message = f"'loop6*cyclic:200': associativity fails at {witness}"
        with pytest.raises(GroupError, match=f"^{re.escape(message)}$"):
            verify_axioms(huge, seed=seed)
    # rows (0, c) pass Light's test; they fill its first block of 64 rows
    with pytest.raises(GroupError, match="associativity fails with generator"):
        verify_axioms(direct_product(loop, group("cyclic:170")))
    # a group whose generators do not generate it
    c6 = GroupTable("c6", range(6), lambda a, b: (a + b) % 6, 0, [2])
    with pytest.raises(GroupError, match="generators"):
        verify_axioms(c6)


def _not_latin(label, transpose=False):
    # 0 is the identity and x*x = 0 for every x, so every identity, inverse
    # and order check passes; row x of the table (or, transposed, column x)
    # repeats x for each x != 0, while the other lines are permutations
    table = np.array([[0, 1, 2, 3], [1, 0, 1, 1], [2, 2, 0, 2], [3, 3, 3, 0]])
    table = table.T if transpose else table
    return GroupTable(label, range(4), lambda a, b: table[a, b], 0, [1, 2, 3])


def test_verify_axioms_rejects_a_table_that_is_not_a_latin_square():
    for transpose in (False, True):
        with pytest.raises(GroupError, match="^'m4': multiplication table is not a Latin square$"):
            verify_axioms(_not_latin("m4", transpose))


@pytest.mark.parametrize("seed", [0, 7])
def test_verify_axioms_names_the_first_sampled_line_that_is_not_a_permutation(seed):
    # times cyclic:300 (n = 1200, the sampled path): element i is
    # (i // 300, i % 300), so line i is a permutation exactly when i < 300
    for transpose, what in ((False, "row"), (True, "column")):
        G = direct_product(_not_latin("m4", transpose), group("cyclic:300"))
        assert G.n == 1200
        lines = sorted(random.Random(f"{seed}:m4*cyclic:300:latin").sample(range(G.n), 48))
        first = next(i for i in lines if i >= 300)
        message = f"'m4*cyclic:300': {what} {first} is not a permutation"
        with pytest.raises(GroupError, match=f"^{re.escape(message)}$"):
            verify_axioms(G, seed=seed)


@pytest.mark.parametrize(
    "table, message",
    [
        # 1 * 0 = 2, though 0 * x = x and x * x = 0 for every x
        ([[0, 1, 2], [2, 0, 1], [2, 1, 0]], "identity fails at 1"),
        # 1 * 1 = 2 and 2 * 1 = 0, so 1 has order 3 and its inverse is 2 on the
        # left, but 1 * 2 = 3: no right inverse
        ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 0, 0, 1], [3, 2, 1, 0]], "inverse fails at 1"),
        # identity, inverses (x * x = 0) and orders hold, but 2 does not divide 3
        ([[0, 1, 2], [1, 0, 1], [2, 2, 0]], "exponent 2 inconsistent with n=3"),
    ],
)
def test_verify_axioms_names_the_failing_law(table, message):
    table = np.array(table)
    G = GroupTable("magma", range(len(table)), lambda a, b: table[a, b], 0, range(1, len(table)))
    with pytest.raises(GroupError, match=f"^'magma': {re.escape(message)}$"):
        verify_axioms(G)


def test_conjugacy_classes_names_the_group_whose_class_size_does_not_divide_n():
    # x * x = 0 for every x, so 1 and 2 are their own inverses, and
    # 1 * (2 * 1) = 1 puts them in one orbit of size 2, with n = 3
    table = np.array([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    G = GroupTable("magma", range(3), lambda a, b: table[a, b], 0, [1, 2])
    with pytest.raises(GroupError, match="^'magma': class size 2 does not divide 3$"):
        conjugacy_classes(G)


def test_permutation_rows_across_blocks():
    # 100 lines of 1000 entries take two blocks; break one line in each
    rng = np.random.default_rng(3)
    t = np.array([rng.permutation(1000) for _ in range(100)], dtype=np.int16)
    t[10, 5], t[80, 7] = t[10, 6], t[80, 0]
    assert _permutation_rows(t).tolist() == [k not in (10, 80) for k in range(100)]


@pytest.mark.parametrize(
    "text",
    ["sym:6", "sl2:16", "dihedral:70*cyclic:3", "sym:5*sym:4", "sl2:4*cyclic:64", "cyclic:64*sl2:4"],
)
def test_multiply_many_across_broadcast_shapes_and_blocks(text):
    # int8 rows with 6-byte keys, 4-byte keys, int16 rows, 9-byte void keys,
    # and SL(2) entries inside int16 rows on either side of a direct product
    G = group(text)
    n, w = G.rows.shape
    rng = np.random.default_rng(1)
    # k rows of n products cross _BLOCK_VALUES, and leave a short last block
    k = _BLOCK_VALUES // (n * w) + 2
    assert k * n * w > _BLOCK_VALUES and (k * n * w) % _BLOCK_VALUES
    col, every = rng.integers(0, n, (k, 1)), np.arange(n)
    m = 3 * _BLOCK_VALUES // w + 5
    I, J = rng.integers(0, n, m), rng.integers(0, n, m)
    x = int(rng.integers(n))
    cases = [(col, every), (every, col), (every[None], col), (x, every), (every, x), (I, J)]
    if n * n * w <= 40 * _BLOCK_VALUES:
        cases.append((every[:, None], every))
    for A, B in cases:
        got = G.multiply_many(A, B)
        A, B = np.broadcast_arrays(A, B)
        assert got.shape == A.shape and got.dtype == np.int16, text
        # the same products in 1-d pieces of at most a block each
        parts = -(-A.size * w // _BLOCK_VALUES)
        pieces = zip(np.array_split(A.ravel(), parts), np.array_split(B.ravel(), parts))
        assert np.array_equal(got.ravel(), np.concatenate([G._multiply(a, b) for a, b in pieces])), text
        for t in rng.integers(0, A.size, 200):
            assert got.flat[t] == G.multiply(int(A.flat[t]), int(B.flat[t])), text
    assert G.multiply_many(np.arange(0), np.arange(0)).shape == (0,)
    assert G.multiply_many(np.zeros((0, 1), int), every).shape == (0, n)


def test_sl2_factor_of_a_product_with_int16_rows():
    # cyclic:64's rows are int16, so the product hands SL(2) int16 entries
    for text in ("sl2:4*cyclic:64", "cyclic:64*sl2:4"):
        G = group(text)
        assert G.rows.dtype == np.int16 and G.n == 3840
        verify_axioms(G, seed=0)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64])
def test_keys_are_equal_exactly_when_rows_are(dtype):
    rng = np.random.default_rng(5)
    size = np.dtype(dtype).itemsize
    for w in range(1, 10 // size + 1):
        # small values make equal rows likely; copies force more of them
        rows = rng.integers(-2, 3, (3, 200, w)).astype(dtype)
        rows[:, 100:150] = rows[:, :50]
        rows[2] = rows[0]
        flat, keys = rows.reshape(-1, w), _keys(rows, dtype).ravel()
        same_rows = (flat[:, None] == flat[None]).all(axis=-1)
        assert np.array_equal(keys[:, None] == keys[None], same_rows), (dtype, w)
        # a row's key does not depend on the array it sits in
        assert np.array_equal(_keys(flat[::-1], dtype), keys[::-1]), (dtype, w)
        assert all(_keys(row, dtype) == key for row, key in zip(flat[:5], keys)), (dtype, w)


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


def eager_elements(spec):
    """The encodings as make_group built them before they were decoded on
    first read: the rows' entries as Python ints (a cyclic group's one int
    per element), and a product's pairs from its factors, left then right."""
    if isinstance(spec, ProductSpec):
        return [(x, y) for x in eager_elements(spec.left) for y in eager_elements(spec.right)]
    rows = make_group(spec).rows
    if isinstance(spec, FamilySpec) and spec.family == "cyclic":
        return rows[:, 0].tolist()
    return list(map(tuple, rows.tolist()))


def test_elements_are_decoded_on_first_read():
    for text in [*default_catalog(), "cyclic:11*sym:3", "dihedral:12*sym:4", "sl2:4*cyclic:64"]:
        G = group(text)
        assert "elements" not in G.__dict__, text
        want = tuple(eager_elements(G.spec))
        # repr tells int from np.int64 and tuple from list at every depth
        assert G.elements == want and repr(G.elements) == repr(want), text
        assert G.elements is G.elements, text
    # a product of a group given by its encodings decodes through the lookup
    loop = GroupTable("c3", [5, 6, 7], lambda a, b: (a + b - 10) % 3 + 5, 5, [6])
    P = direct_product(group("cyclic:2"), loop)
    assert P.elements == ((0, 5), (0, 6), (0, 7), (1, 5), (1, 6), (1, 7))
    assert P.elements[P.generators[0]] == (1, 5) and P.elements[P.identity_index] == (0, 5)


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


def power_chains_oracle(G, S):
    """class_power_chains as one step per power: step t stores the classes of
    rep^t for each class whose order exceeds t."""
    class_of = np.array(S.class_of)
    reps = np.array([c.rep for c in S.classes])
    order = np.array([c.rep_order for c in S.classes])
    start = np.cumsum(order) - order
    flat = np.empty(order.sum(), dtype=np.intp)
    live = np.arange(S.m)
    cur = np.full(S.m, G.identity_index)
    for t in range(order.max()):
        flat[start[live] + t] = class_of[cur]
        keep = order[live] > t + 1
        live = live[keep]
        cur = G.multiply_many(cur[keep], reps[live])
    return flat, start, order


def test_class_power_chains_match_the_step_per_power_oracle(monkeypatch):
    # doubling takes ceil(log2(o - 1)) batched products for the largest
    # order o, where the oracle takes one per power: 5 against 33 on
    # cyclic:11*sym:3, 7 against 128 on cyclic:128
    labels = [*default_catalog(), "cyclic:101", "cyclic:128", "cyclic:11*sym:3", "dihedral:12*sym:4"]
    for label in labels:
        G = group(label)
        S = conjugacy_classes(G)
        want = power_chains_oracle(G, S)
        calls = 0
        multiply_many = G.multiply_many

        def counting(I, J):
            nonlocal calls
            calls += 1
            return multiply_many(I, J)

        monkeypatch.setattr(G, "multiply_many", counting)
        chains = class_power_chains(G, S)
        assert all(np.array_equal(x, y) for x, y in zip((chains.flat, chains.start, chains.order), want)), label
        assert calls == max(int(want[2].max()) - 2, 0).bit_length(), (label, calls)


def test_class_power_map_takes_several_exponents(monkeypatch):
    # one ladder for all the exponents: the squares are shared, so the
    # products are about those of the largest exponent alone, not the sum
    for label in ["sym:7", "cyclic:2*alt:5", "sl2:8", "cyclic:101"]:
        G = group(label)
        S = conjugacy_classes(G)
        units = [a for a in range(1, G.n) if math.gcd(a, G.n) == 1][-6:]
        calls = 0
        multiply_many = G.multiply_many

        def counting(I, J):
            nonlocal calls
            calls += 1
            return multiply_many(I, J)

        monkeypatch.setattr(G, "multiply_many", counting)
        maps = class_power_map(G, S, units)
        assert maps == [class_power_map(G, S, a) for a in units], label
        calls = 0
        class_power_map(G, S, units)
        assert calls <= 2 * max(units).bit_length(), (label, calls)
        assert class_power_map(G, S, []) == []
        # the error names the group, for a list of exponents and for one
        want = "^" + re.escape(f"{label!r}: {G.n} is not coprime to the group order")
        for a in ([1, G.n], G.n):
            with pytest.raises(ValueError, match=want):
                class_power_map(G, S, a)


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
    # one batched square-and-multiply over the representatives: in cyclic:101
    # the chains take 101 batched products, the budget is 14
    for text in ["sym:4", "q8", "cyclic:2*alt:5", "cyclic:101"]:
        G = group(text)
        S = conjugacy_classes(G)
        chains = class_power_chains(G, S)
        calls = 0
        multiply_many = G.multiply_many

        def counting(I, J):
            nonlocal calls
            calls += 1
            return multiply_many(I, J)

        monkeypatch.setattr(G, "multiply_many", counting)
        budget = 2 * math.ceil(math.log2(G.n))
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


def test_element_repr_decodes_its_row_alone():
    # before the elements are decoded, element_repr decodes row i only
    for label in ["sym:7", "cyclic:12", "dihedral:12*sym:4", "sl2:4*cyclic:64", "q8*sym:3"]:
        G = group(label)
        got = [G.element_repr(i) for i in range(0, G.n, 7)]
        assert "elements" not in G.__dict__, label
        assert got == [str(G.elements[i]) for i in range(0, G.n, 7)], label


def test_product_outside_the_elements_is_a_group_error():
    # 3 * 3 = 6 mod 7 is not among 0..5; this used to escape as KeyError: 6
    with pytest.raises(GroupError, match=r"'bad': the product of elements 3 and 3 \(3 \* 3\)"):
        GroupTable("bad", range(6), lambda a, b: (a + b) % 7, 0, [1])
    # every square is 0, but 1 * 3 = 4 leaves 0..3
    leaky = GroupTable("leaky", range(4), lambda a, b: np.where(a == b, 0, a + b), 0, [1, 2])
    assert leaky.multiply(1, 2) == 3
    with pytest.raises(GroupError, match=r"'leaky': the product of elements 1 and 3 \(1 \* 3\)"):
        leaky.multiply(1, 3)
    with pytest.raises(GroupError, match="'leaky'"):
        verify_axioms(leaky)


def test_lookup_finds_every_element_and_nothing_else():
    # int64 keys (the catalog), 9-byte void keys (sym:5*sym:4) and int16 rows
    for text in [*default_catalog(), "sym:5*sym:4", "dihedral:70*cyclic:3"]:
        G = group(text)
        found, miss = G._locate(G.rows)
        assert not miss.any(), text
        assert np.array_equal(found, np.arange(G.n)), text
        # a first entry above every element's, then a pair of rows with it
        off = G.rows.copy()
        off[:, 0] = G.rows[:, 0].max() + 1
        found, miss = G._locate(np.stack([off, off[::-1]]))
        assert miss.shape == (2, G.n) and miss.all(), text
        assert G.multiply_many(np.arange(G.n), G.identity_index).dtype == np.int16, text
        assert G.multiply_many(np.arange(0), np.arange(0)).shape == (0,), text
    assert G.rows.dtype == np.int16 and G._key.dtype == np.int64
    assert group("sym:5*sym:4")._key.dtype.itemsize == 9


def test_small_groups_multiply_from_their_table():
    # n^2 w <= 2 _BLOCK_VALUES row values: the constructor tabulates every
    # product once, and each lookup equals the row kernel's product; a wide
    # group of 256 permutations of 1024 points is not tabulated
    wide = "perm:[({}),({})]".format(" ".join(map(str, range(1, 17))), " ".join(map(str, range(1009, 1025))))
    untabled = []
    for text in [*default_catalog(), "cyclic:100", "cyclic:128", "dihedral:12*sym:4", wide]:
        G = group(text)
        if G._table is None:
            untabled.append(text)
            continue
        every = np.arange(G.n)
        assert G.n**2 * G.rows.shape[1] <= 2 * _BLOCK_VALUES and G._table.dtype == np.int16, text
        assert np.array_equal(G._table, G._multiply(every[:, None], every)), text
    assert sorted(untabled) == ["dihedral:12*sym:4", wide, "sl2:16", "sl2:8", "sym:6"]
    G = group(wide)
    assert (G.n, G.rows.shape[1]) == (256, 1024)
    I, J = np.arange(0, G.n, 5)[:, None], np.arange(0, G.n, 7)
    assert np.array_equal(G.multiply_many(I, J), G._locate(G._mul(G.rows[I], G.rows[J]))[0])
    # a product outside the elements is stored as -1 and raises only when asked for
    leaky = GroupTable("leaky", range(4), lambda a, b: np.where(a == b, 0, a + b), 0, [1, 2])
    assert leaky._table.tolist() == [[0, 1, 2, 3], [1, 0, 3, -1], [2, 3, 0, -1], [3, -1, -1, 0]]
    assert leaky.multiply_many([[0], [1]], [1, 2]).tolist() == [[1, 2], [0, 3]]
    with pytest.raises(GroupError, match=r"'leaky': the product of elements 2 and 3 \(2 \* 3\)"):
        leaky.multiply_many([0, 1, 2, 2, 1], [0, 2, 0, 3, 3])


def test_lookup_against_a_dict_of_rows():
    # sym:7's rows: the even ones are alt:7's elements, the odd ones are misses
    # that share its key width and hash into the same table
    A, S = group("alt:7"), group("sym:7")
    index = {row.tobytes(): i for i, row in enumerate(A.rows)}
    found, miss = A._locate(S.rows)
    want = [index.get(row.tobytes(), -1) for row in S.rows]
    assert miss.tolist() == [k < 0 for k in want]
    assert np.where(miss, -1, found).tolist() == want
    assert miss.sum() == A.n


def test_duplicate_encodings_are_a_group_error():
    with pytest.raises(GroupError, match="duplicate encodings in 'dup'"):
        GroupTable("dup", [0, 1, 2, 1], lambda a, b: (a + b) % 3, 0, [1])
    with pytest.raises(GroupError, match="duplicate encodings in 'wide'"):
        rows = np.array([[0] * 9, [1] * 9, [0] * 9], dtype=np.int8)
        GroupTable("wide", range(3), lambda a, b: a, 0, [1], rows=rows)


def _random_pairs(G, count=300, seed=0):
    rng = random.Random(f"{G.label}:{seed}")
    return [(rng.randrange(G.n), rng.randrange(G.n)) for _ in range(count)]


def _check_oracle(G, oracle):
    """multiply_many on seeded random pairs against an independent product of
    the encodings."""
    pairs = _random_pairs(G)
    I, J = (np.array(side) for side in zip(*pairs))
    got = G.multiply_many(I, J)
    for (i, j), k in zip(pairs, got.tolist()):
        assert G.elements[k] == oracle(G.elements[i], G.elements[j]), (G.label, i, j)


def test_q8_product_matches_quaternion_units():
    def quat(x):
        # i^a j^b as a unit quaternion (w, x, y, z)
        q = (1, 0, 0, 0)
        for unit, times in (((0, 1, 0, 0), x[0]), ((0, 0, 1, 0), x[1])):
            for _ in range(times):
                q = hamilton(q, unit)
        return q

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    G = group("q8")
    by_quat = {quat(x): x for x in G.elements}
    assert len(by_quat) == 8
    _check_oracle(G, lambda x, y: by_quat[hamilton(quat(x), quat(y))])


def test_dihedral_product_matches_affine_matrices():
    # (r, s) acts on Z/k as t -> (-1)^s t + r: the matrix [[(-1)^s, r], [0, 1]]
    for k in (1, 2, 5, 12):
        def matrix(x):
            return ((-1) ** x[1], x[0]), (0, 1)

        def matmul(A, B):
            (a, b), _ = A
            (c, d), _ = B
            return (a * c, (a * d + b) % k), (0, 1)

        G = group(f"dihedral:{k}")
        by_matrix = {matrix(x): x for x in G.elements}
        assert len(by_matrix) == 2 * k
        _check_oracle(G, lambda x, y: by_matrix[matmul(matrix(x), matrix(y))])


def test_sl2_product_matches_carry_less_multiplication():
    from quadsym.groups import _GF2_POLY

    for q in (4, 8, 16):
        r = q.bit_length() - 1

        def gf_mul(a, b):
            # carry-less product, then reduction mod the field polynomial
            prod = 0
            for bit in range(r):
                if b >> bit & 1:
                    prod ^= a << bit
            for bit in range(2 * r - 2, r - 1, -1):
                if prod >> bit & 1:
                    prod ^= _GF2_POLY[r] << (bit - r)
            return prod

        def matmul(x, y):
            a, b, c, d = x
            e, f, g, h = y
            return (
                gf_mul(a, e) ^ gf_mul(b, g),
                gf_mul(a, f) ^ gf_mul(b, h),
                gf_mul(c, e) ^ gf_mul(d, g),
                gf_mul(c, f) ^ gf_mul(d, h),
            )

        _check_oracle(group(f"sl2:{q}"), matmul)


def test_perm_product_matches_function_composition():
    def compose(a, b):
        # b first, then a, as functions on points
        f, g = a.__getitem__, b.__getitem__
        return tuple(f(g(x)) for x in range(len(a)))

    for text in ["sym:5", "alt:6", "perm:[(1 2 3 4 5 6 7),(2 3 5)(4 7 6)]", "perm:[(1 30)(2 3)]"]:
        _check_oracle(group(text), compose)


def test_abelian_product_matches_componentwise_addition():
    for text, dims in (("cyclic:17", None), ("abelian:2,4,3", (2, 4, 3))):
        G = group(text)
        if dims is None:
            _check_oracle(G, lambda x, y: (x + y) % 17)
        else:
            _check_oracle(G, lambda x, y: tuple((u + v) % d for u, v, d in zip(x, y, dims)))


def test_direct_product_matches_factor_products():
    for left, right in (("cyclic:3", "dihedral:4"), ("sym:3", "q8"), ("cyclic:2*sym:3", "sl2:4")):
        A, B = group(left), group(right)
        P = direct_product(A, B)
        a_index = {x: i for i, x in enumerate(A.elements)}
        b_index = {y: i for i, y in enumerate(B.elements)}

        def pair(x, y):
            (x1, x2), (y1, y2) = x, y
            return (
                A.elements[A.multiply(a_index[x1], a_index[y1])],
                B.elements[B.multiply(b_index[x2], b_index[y2])],
            )

        _check_oracle(P, pair)
