"""Random permutation groups checked against sympy.combinatorics, and the
Jacobi and Kronecker symbols against sympy's."""
import math

import pytest

pytest.importorskip("hypothesis")
pytest.importorskip("sympy")

from hypothesis import example, given, settings, strategies as st  # noqa: E402
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402
from sympy.functions.combinatorial.numbers import jacobi_symbol, kronecker_symbol  # noqa: E402

from quadsym.groups import conjugacy_classes, make_group, verify_axioms  # noqa: E402
from quadsym.groupspec import parse_group_spec  # noqa: E402
from quadsym.ntheory import factorize, jacobi, kronecker  # noqa: E402
from quadsym.reciprocity import discriminant, real_complex_split, symbol_character  # noqa: E402


def cycles(images):
    """Cycle notation of a permutation of 0..deg-1, fixed points included, so
    that the spec's degree is deg."""
    seen, out = set(), []
    for start in range(len(images)):
        if start not in seen:
            cyc = [start]
            seen.add(start)
            while images[cyc[-1]] not in seen:
                cyc.append(images[cyc[-1]])
                seen.add(cyc[-1])
            out.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(out)


@st.composite
def perm_generators(draw):
    deg = draw(st.integers(1, 6))
    return draw(st.lists(st.permutations(range(deg)), min_size=1, max_size=3))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(perm_generators())
def test_random_perm_groups_match_sympy(gens):
    spec = "perm:[" + ",".join(cycles(g) for g in gens) + "]"
    G = make_group(parse_group_spec(spec))
    verify_axioms(G)
    S = conjugacy_classes(G)

    # quadsym applies the cycles of a generator left to right, which for
    # disjoint cycles is the permutation itself: i -> images[i]
    ref = PermutationGroup([Permutation(list(g)) for g in gens])
    ref_classes = ref.conjugacy_classes()
    assert G.n == ref.order()
    assert S.m == len(ref_classes)
    assert sorted(c.size for c in S.classes) == sorted(len(c) for c in ref_classes)
    real = sum(1 for j in range(S.m) if S.inverse_class[j] == j)
    assert real == sum(1 for c in ref_classes if next(iter(c)) ** -1 in c)

    d = discriminant(G, S, real_complex_split(S)).value.value()
    sym = symbol_character(G, S)
    for a in range(1, G.n):
        if math.gcd(a, G.n) == 1:
            assert sym(a) == kronecker(d, a), (spec, a)


# nonzero integers that are 0 or 1 mod 4: x - 2 moves 2 and 3 mod 4 to 0 and 1
discriminants = st.integers(-(10**6), 10**6).map(lambda x: x - 2 * (x % 4 >= 2)).filter(bool)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(-(10**6), 10**6), st.integers(0, 10**6).map(lambda k: 2 * k + 1))
@example(0, 1)
@example(-6, 9)
def test_jacobi_matches_sympy(a, n):
    assert jacobi(a, n) == jacobi_symbol(a, n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(discriminants, st.integers(-(10**4), 10**4))
@example(1, 0)
@example(-4, 0)
@example(5, -8)
@example(-3, -6)
def test_kronecker_matches_sympy(d, a):
    want = kronecker_symbol(d, a)
    assert kronecker(d, a) == want
    assert kronecker(factorize(d), a) == want
