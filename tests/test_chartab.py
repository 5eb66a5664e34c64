import collections
import dataclasses
import functools
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadsym.chartab import (
    CharTableError,
    CharacterTable,
    CycInt,
    DetReport,
    _basis,
    _column_witness,
    _common_eigenvectors,
    _derivative_bound,
    _det_bound,
    _embedding_maps,
    _embedding_prime,
    _lift,
    _power_table,
    _primes,
    _rref_stack,
    _split,
    _table_images,
    _unit_perm,
    character_table,
    cyclotomic_polynomial,
    det_identities,
    export_table,
    galois_apply,
    verify_orthogonality,
)
from quadsym.groups import OrderCapExceeded, PowerChains, class_power_chains, conjugacy_classes, make_group
from quadsym.groupspec import parse_group_spec
from quadsym.ntheory import factorize, fundamental_discriminant, primitive_root, unit_generators
from quadsym.reciprocity import CheckResult, _check, discriminant, real_complex_split, symbol_character


def table_for(build, label, **kw):
    b = build(label)
    T = character_table(b.G, b.S, b.split, **kw)
    return b, T


def coeffs_of(rows):
    """The coefficient array of a table given as rows of CycInts: int64, or
    Python ints (dtype object) once a coefficient does not fit."""
    return np.array([[z.coeffs for z in row] for row in rows])


def with_rows(T, rows):
    """A copy of T whose table is ``rows``, rows of CycInts."""
    return dataclasses.replace(T, coeffs=coeffs_of(rows))


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
    # prod over d | e of Phi_d = X^e - 1 for every e <= 1000; with Phi_1 =
    # X - 1 this fixes every Phi_e, as the quotient of X^e - 1 by the monic
    # Phi_d of the proper divisors.  The products are taken in int64, which
    # wraps mod 2^64, and mod two primes below 2^20, where every convolution
    # sums at most 1001 products below 2^40 exactly.  Their coefficients are
    # below prod |Phi_d|_1, so agreement mod 2^64 * p * q makes them equal.
    p, q = 1048571, 1048573
    for e in range(1, 1001):
        divisors = [d for d in range(1, e + 1) if e % d == 0]
        factors = [np.array(cyclotomic_polynomial(d), dtype=np.int64) for d in divisors]
        assert 2 * (math.prod(int(np.abs(f).sum()) for f in factors) + 1) < 2**64 * p * q, e
        want = np.zeros(e + 1, dtype=np.int64)
        want[[0, e]] = -1, 1
        for modulus in (None, p, q):
            prod = np.ones(1, dtype=np.int64)
            for f in factors:
                prod = np.convolve(prod, f) if modulus is None else np.convolve(prod, f) % modulus
            assert np.array_equal(prod, want if modulus is None else want % modulus), (e, modulus)


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for e in range(1, 201):
        poly = cyclotomic_polynomial(e)
        assert list(poly) == sympy.cyclotomic_poly(e, x, polys=True).all_coeffs()[::-1], e
        assert len(poly) - 1 == sympy.totient(e), e


# Oracles: the power table and the Lagrange maps as they were built before
# they became array operations, one tuple and one synthetic-division step at
# a time.


def basis_oracle(e):
    """The rows z^k for k below max(e, 2 phi - 1), as tuples, and C_e."""
    poly = cyclotomic_polynomial(e)
    phi = len(poly) - 1
    rows = [tuple(int(t == k) for t in range(phi)) for k in range(phi)]
    for _ in range(phi, max(e - 1, 2 * phi - 2) + 1):
        prev = rows[-1]
        rows.append(tuple((prev[t - 1] if t else 0) - prev[-1] * poly[t] for t in range(phi)))
    return rows, max(sum(map(abs, row)) for row in rows[:e])


def embedding_maps_oracle(e, P):
    """vander and interp mod P, the quotients Phi_e / (X - x_t) by synthetic
    division and Phi_e'(x_t) as each quotient at x_t by Horner."""
    poly = cyclotomic_polynomial(e)
    phi = len(poly) - 1
    w = pow(primitive_root(P), (P - 1) // e, P)
    powers = np.array([pow(w, t, P) for t in range(e)], dtype=np.int64)
    units = np.array([a for a in range(1, e + 1) if math.gcd(a, e) == 1])
    vander = powers[np.outer(units, np.arange(phi)) % e]
    x = powers[units % e]
    quot = np.empty((phi, phi), dtype=np.int64)
    quot[phi - 1] = 1
    for c in range(phi - 1, 0, -1):
        quot[c - 1] = (poly[c] + x * quot[c]) % P
    deriv = np.zeros(phi, dtype=np.int64)
    for c in range(phi - 1, -1, -1):
        deriv = (deriv * x + quot[c]) % P
    return vander, quot * np.array([pow(int(d), -1, P) for d in deriv]) % P


def test_basis_and_embedding_maps_match_the_oracles():
    for e in [*range(1, 201), 420, 2520]:
        basis = _basis(e)
        rows, root_norm = basis_oracle(e)
        assert basis.rows.dtype == np.int64 and basis.rows.tolist() == [list(row) for row in rows], e
        assert basis.root_norm == root_norm, e
        assert basis.units.tolist() == [a for a in range(1, e + 1) if math.gcd(a, e) == 1], e
        for P in (_embedding_prime(e, 0), _embedding_prime(e, 1)):
            vander, interp = _embedding_maps(e, P)
            want = embedding_maps_oracle(e, P)
            assert np.array_equal(vander, want[0]) and np.array_equal(interp, want[1]), (e, P)
            # every product below P^2 and phi of them summed stay in int64
            assert np.array_equal(vander @ interp % P, np.eye(basis.phi, dtype=np.int64)), (e, P)


def test_power_table_matches_pow():
    # the powers of a root of unity by doubling, as _embedding_maps and
    # character_table take them, against one pow per exponent
    for e in [*range(1, 201), 420, 2520]:
        P = _embedding_prime(e, 0)
        w = pow(primitive_root(P), (P - 1) // e, P)
        for root in (w, pow(w, -1, P)):
            got = _power_table(root, e, P)
            assert got.dtype == np.int64 and got.tolist() == [pow(root, t, P) for t in range(e)], e


# Oracles: the one-matrix-at-a-time reductions the stacked kernels replaced,
# each reducing everything mod P at every step.


def rref_oracle(mat, P):
    """The nonzero rows of the reduced row echelon form mod P, and the pivot
    columns."""
    A = np.array(mat, dtype=np.int64) % P
    pivots = []
    for col in range(A.shape[1]):
        r = len(pivots)
        below = np.flatnonzero(A[r:, col])
        if not below.size:
            continue
        A[[r, r + below[0]]] = A[[r + below[0], r]]
        A[r] = A[r] * pow(int(A[r, col]), -1, P) % P
        f = A[:, col].copy()
        f[r] = 0
        A = (A - f[:, None] * A[r]) % P
        pivots.append(col)
    return A[: len(pivots)], pivots


def nullspace_oracle(mat, P):
    rref, pivots = rref_oracle(mat, P)
    free = [c for c in range(rref.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), rref.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -rref[:, free].T % P
    return basis


def det_stack_oracle(A, P):
    """Fraction-free elimination: clearing column k multiplies each later row
    by the pivot p_k, so det = prod p_k / prod_k p_k^(m-1-k)."""
    A = np.array(A, dtype=np.int64) % P
    b, m, _ = A.shape
    stack = np.arange(b)
    pivots, scale = np.ones(b, dtype=np.int64), np.ones(b, dtype=np.int64)
    odd = np.zeros(b, dtype=bool)
    for k in range(m):
        piv = k + (A[:, k:, k] != 0).argmax(axis=1)
        A[stack, k], A[stack, piv] = A[stack, piv], A[stack, k]
        odd ^= piv != k
        f = A[:, k + 1 :, k].copy()
        rest = A[:, k + 1 :, k:]
        rest *= A[:, k, k, None, None]
        rest -= f[:, :, None] * A[:, None, k, k:]
        rest %= P
        scale = scale * pivots % P
        pivots = pivots * A[:, k, k] % P
    det = pivots * np.array([pow(s, P - 2, P) for s in scale.tolist()]) % P
    return np.where(odd, (P - det) % P, det)


def det_stack(A, P):
    """Determinants mod P (one prime, or one per matrix) by the elimination kernel, on a copy."""
    return _rref_stack(np.asarray(A, dtype=np.int64) % np.reshape(P, (-1, 1, 1)), P)[1]


def split_oracle(pieces, R, P):
    """_split root by root: the eigenspaces of a diagonalizable R from a null
    space per root of det(x - R), and each piece's component in each of them
    that it meets, in piece and root order."""
    d = len(R)
    eye = np.eye(d, dtype=np.int64)
    roots = np.flatnonzero(det_stack_oracle(np.arange(P)[:, None, None] * eye - R, P) == 0)
    spaces = [nullspace_oracle((R - lam * eye) % P, P) for lam in roots]
    basis = np.vstack(spaces)
    assert len(basis) == d  # the eigenvectors span
    bounds = np.cumsum([0] + [len(space) for space in spaces])
    out = []
    for w in pieces:
        coords = rref_oracle(np.hstack([basis.T, w[:, None]]), P)[0][:, -1]  # w = coords @ basis
        parts = [coords[a:b] @ space % P for a, b, space in zip(bounds, bounds[1:], spaces)]
        out += [part for part in parts if part.any()]
    return out


def leading_one(v, P):
    return (v * pow(int(v[v != 0][0]), -1, P) % P).tolist()


def diagonalizable(rng, eigenvalues, P):
    """A random map mod P with the given eigenvalues, and its eigenvectors
    as the columns of an invertible matrix."""
    d = len(eigenvalues)
    V = rng.integers(0, P, (d, d))
    while len(rref_oracle(V, P)[1]) < d:
        V = rng.integers(0, P, (d, d))
    inverse = rref_oracle(np.hstack([V, np.eye(d, dtype=np.int64)]), P)[0][:, d:]
    return V @ np.diag(eigenvalues) % P @ inverse % P, V


def assert_split_matches_the_oracle(pieces, R, P):
    want = [leading_one(part, P) for part in split_oracle(pieces, R, P)]
    assert [leading_one(v, P) for v in _split(pieces, R, P)] == want


PSL27 = "perm:[(1 2 3 4 5 6 7),(1 2)(3 6)]"

# the primes of the tests: tiny, a splitting prime of the benchmark's tables,
# sym:7's, and the largest embedding prime of any conductor
LARGEST_P = _embedding_prime(1, 0)
PRIMES = (2, 3, 61, 421, LARGEST_P)


def awkward_stack(rng, b, r, c, P):
    """b random r x c matrices mod P, each of deficient rank with some
    probability, some with zero columns and repeated rows, some whose pivot
    rows come in a random order, of either parity."""
    stack = []
    for _ in range(b):
        A = rng.integers(0, P, (r, c))
        k = int(rng.integers(0, min(r, c) + 1))
        if rng.random() < 0.6 and k < min(r, c):  # rank at most k
            A = rng.integers(0, P, (r, k)) @ rng.integers(0, P, (k, c))
        elif rng.random() < 0.5:  # upper triangular, rows shuffled: the pivot rows come shuffled
            A = np.triu(A)
            A[np.diag_indices(min(r, c))] = rng.integers(1, P, min(r, c))
            A = A[rng.permutation(r)]
        if rng.random() < 0.3:
            A[:, rng.integers(0, c)] = 0
        if rng.random() < 0.3 and r > 1:
            A[rng.integers(0, r)] = A[rng.integers(0, r)]
        if rng.random() < 0.2:
            A = A * (rng.random((r, c)) < 0.3)  # mostly zero: swaps and empty columns
        stack.append(A % P)
    return np.array(stack, dtype=np.int64).reshape(b, r, c)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(PRIMES), st.integers(0, 4), st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32 - 1)
)
def test_rref_stack_matches_the_oracle(P, b, r, c, seed):
    A = awkward_stack(np.random.default_rng(seed), b, r, c, P)
    before = A.copy()
    has, det = _rref_stack(A, P)
    assert has.shape == (b, c) and det.shape == (b,)
    for s in range(b):
        rref, pivots = rref_oracle(before[s], P)
        assert np.flatnonzero(has[s]).tolist() == pivots
        assert (A[s, : len(pivots)] == rref).all() and not A[s, len(pivots) :].any()
    if r == c:
        assert det.tolist() == det_stack_oracle(before, P).tolist()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PRIMES), st.integers(0, 4), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_det_stack_matches_the_oracle(P, b, m, seed):
    A = awkward_stack(np.random.default_rng(seed), b, m, m, P)
    before = A.copy()
    assert det_stack(A, P).tolist() == det_stack_oracle(A, P).tolist()
    assert (A == before).all()
    # one prime per matrix, as the determinant identities stack them
    mixed = np.random.default_rng(seed).choice(PRIMES, b)
    assert det_stack(A, mixed).tolist() == [det_stack_oracle(M[None], int(q))[0] for M, q in zip(A, mixed)]


def test_det_stack_at_the_headroom_bound():
    # m = 128 at the largest P: an entry can pile up 127 unreduced products,
    # each below (P - 1)^2 = 2^48
    P, m = LARGEST_P, 128
    rng = np.random.default_rng(43)
    A = P - 1 - rng.integers(0, 3, (3, m, m))
    A[1, 7] = A[1, 90]  # singular
    A[2, :, 0] = 0
    A[2, 5, 0] = 1  # the first pivot takes a swap
    got = det_stack(A, P).tolist()
    assert got == det_stack_oracle(A, P).tolist() and got[1] == 0 and got[0] != 0
    # past the headroom the kernel refuses before it starts, at the largest
    # prime when each matrix has its own; an empty stack allocates nothing
    big = 2**63 // (P - 1) ** 2 + 1
    with pytest.raises(AssertionError):
        _rref_stack(np.zeros((0, 1, big), dtype=np.int64), P)
    with pytest.raises(AssertionError):
        _rref_stack(np.zeros((2, 1, big), dtype=np.int64), np.array([3, P]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(PRIMES), st.integers(1, 4), st.integers(1, 7), st.integers(1, 8), st.integers(0, 2**32 - 1)
)
def test_rref_stack_until_free_reduces_up_to_each_first_free_column(P, b, r, c, seed):
    # stopped once every matrix has a column without a pivot, the stack
    # agrees with the full reduction up to each matrix's first such column,
    # which is all that _split reads
    A = awkward_stack(np.random.default_rng(seed), b, r, c, P)
    full, stopped = A.copy(), A.copy()
    has, _ = _rref_stack(full, P)
    got, _ = _rref_stack(stopped, P, until_free=True)
    for s in range(b):
        first = int(has[s].argmin()) if not has[s].all() else c - 1
        assert (got[s, : first + 1] == has[s, : first + 1]).all()
        assert (stopped[s, :, : first + 1] == full[s, :, : first + 1]).all()
    if has.all(axis=1).any():  # some matrix never has a free column: no stop
        assert (got == has).all() and (stopped == full).all()
    else:  # no pivot is looked for past the last first free column
        assert not got[:, int(has.argmin(axis=1).max()) + 1 :].any()


def test_splits_reduce_only_the_krylov_columns_they_read(build, monkeypatch):
    # each split reduces its Krylov stack up to the last piece's first
    # column without a pivot, and no further: at the benchmark's seed, 43 of
    # the 61 columns on dihedral:12*sym:4 and 32 of 41 on cyclic:11*sym:3
    from quadsym import chartab

    reduced = []
    original = chartab._rref_stack

    def counting(A, P, **kw):
        has, det = original(A, P, **kw)
        assert kw == {"until_free": True}
        reduced.append((A.shape[2], int(has.argmin(axis=1).max()) + 1))
        return has, det

    monkeypatch.setattr(chartab, "_rref_stack", counting)
    for label, want in [("dihedral:12*sym:4", (61, 43)), ("cyclic:11*sym:3", (41, 32))]:
        reduced.clear()
        b = build(label)
        character_table(b.G, b.S, b.split, seed=1, max_classes=64)
        assert tuple(map(sum, zip(*reduced))) == want, (label, reduced)


def test_split_with_a_repeated_root():
    # R has eigenvalues 2, 2, 5 on a 3-dimensional invariant subspace of
    # F_P^5 and 3, 3 off it: a vector in the subspace splits into its parts
    # at 2 and 5, in root order, and a vector of the whole space into three
    rng = np.random.default_rng(47)
    for P in (7, 61, 421):
        R, V = diagonalizable(rng, [2, 5, 3, 2, 3], P)
        inside = V[:, [0, 1, 3]] @ rng.integers(1, P, 3) % P
        assert len(_split(inside[None], R, P)) == 2
        assert_split_matches_the_oracle(inside[None], R, P)
        whole = V @ rng.integers(1, P, 5) % P
        assert len(_split(whole[None], R, P)) == 3
        assert_split_matches_the_oracle(whole[None], R, P)


def test_split_matches_the_oracle_on_random_diagonalizable_maps():
    # pieces as the split holds them: sums of eigenvectors with nonzero
    # coefficients over disjoint sets, eigenvalues repeated within and across
    rng = np.random.default_rng(53)
    for P in (3, 7, 61, 421):
        for d in (1, 2, 4, 6, 9):
            R, V = diagonalizable(rng, rng.integers(0, min(P, 4), d), P)
            for p in range(1, d + 1):
                owner = rng.permutation(np.arange(d) % p)  # every piece meets one eigenvector at least
                coeffs = rng.integers(1, P, d) * (owner == np.arange(p)[:, None])
                assert_split_matches_the_oracle(coeffs @ V.T % P, R, P)


def test_each_split_runs_one_elimination(build, monkeypatch):
    # one stacked reduction of the Krylov vectors per combination drawn
    from quadsym import chartab

    calls = draws = 0
    rref_stack, seeded_rng = chartab._rref_stack, chartab._seeded_rng

    def counting_rref_stack(A, P, **kw):
        nonlocal calls
        calls += 1
        return rref_stack(A, P, **kw)

    class CountingRng:
        def __init__(self, rng):
            self.rng = rng

        def randrange(self, P):
            nonlocal draws
            draws += 1
            return self.rng.randrange(P)

    monkeypatch.setattr(chartab, "_rref_stack", counting_rref_stack)
    monkeypatch.setattr(chartab, "_seeded_rng", lambda *args: CountingRng(seeded_rng(*args)))
    for label in ["sym:7", "dihedral:12*sym:4"]:
        calls = draws = 0
        b = build(label)
        character_table(b.G, b.S, b.split, max_classes=64)
        assert draws % b.S.m == 0 and calls == draws // b.S.m > 0, (label, calls, draws)


def test_split_holds_one_stack(build):
    # the split holds one Krylov stack of its pieces at a time (48 x 49 at
    # cyclic:48's first split), not a stack of matrices per root
    import tracemalloc

    b = build("cyclic:48")
    character_table(b.G, b.S, b.split, max_classes=b.S.m)  # fills the caches
    tracemalloc.start()
    try:
        character_table(b.G, b.S, b.split, max_classes=b.S.m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


def test_class_matrices_take_one_product(build, monkeypatch):
    # the class targets x^-1 rep_k of every element and class come from one
    # batched product; class_power_chains makes the others
    for label in ["sym:7", "dihedral:12*sym:4"]:
        b = build(label)
        calls = 0
        multiply_many = b.G.multiply_many

        def counting(I, J):
            nonlocal calls
            calls += 1
            return multiply_many(I, J)

        monkeypatch.setattr(b.G, "multiply_many", counting)
        class_power_chains(b.G, b.S)
        chains_calls, calls = calls, 0
        character_table(b.G, b.S, b.split, max_classes=64)
        assert calls == chains_calls + 1, (label, calls, chains_calls)


def test_splitting_failures_raise():
    P = 7
    # a Jordan block, from a vector off its eigenline, and x^2 + 1, which has
    # no root mod 7: a minimal polynomial with fewer roots than its degree
    for R, w in (([[3, 1], [0, 3]], [0, 1]), ([[0, -1], [1, 0]], [1, 0])):
        with pytest.raises(CharTableError, match="not simultaneously diagonalizable"):
            _split(np.array([w]), np.array(R) % P, P)
    # two pieces of F_7^2 hold one character each, so neither minimal
    # polynomial may have degree 2: no dependence shows within the bound
    with pytest.raises(CharTableError, match="not simultaneously diagonalizable"):
        _split(np.array([[1, 1], [1, 0]]), np.array([[1, 0], [0, 2]]), P)
    # the class data of cyclic:3: its central characters take the values of
    # the cube roots of unity, and x^2 + x + 1 has no root mod 5, so the
    # first split fails; mod 7 it splits
    cls_pos, targets = np.arange(3), np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    with pytest.raises(CharTableError, match=r"^g: class matrices were not simultaneously diagonalizable \(P = 5\)$"):
        _common_eigenvectors(cls_pos, targets, 5, "g", 0)
    vecs = _common_eigenvectors(cls_pos, targets, P, "g", 0)
    assert sorted(vecs) == [[1, 1, 1], [1, 2, 4], [1, 4, 2]]
    # both classes act as the identity, so every combination is scalar and
    # nothing splits
    message = r"^g: eigenspace splitting did not converge in 60 combinations \(P = 7\)$"
    with pytest.raises(CharTableError, match=message):
        _common_eigenvectors(np.arange(2), np.array([[0, 1], [0, 1]]), P, "g", 0)


def test_the_identity_class_meets_every_central_character(build, catalog, monkeypatch):
    # the split starts from e_0 and finds every character only if e_0 has a
    # nonzero coefficient on each omega_chi: solving c Omega = e_0 for the
    # central characters the split found must give c_chi = chi(1)^2 / n
    from quadsym import chartab

    found = []
    original = chartab._common_eigenvectors
    monkeypatch.setattr(chartab, "_common_eigenvectors", lambda *args: found.append(original(*args)) or found[-1])
    benchmark = ["sym:7", "alt:7", "cyclic:11*sym:3", "dihedral:12*sym:4"]
    labels = [label for label in catalog if build(label).S.m <= 64]
    for label in dict.fromkeys(benchmark + labels):
        b = build(label)
        T = character_table(b.G, b.S, b.split, max_classes=64)
        P, n = T.prime, b.G.n
        # omega_chi at class j is h_j chi(g_j) / chi(1), from the table at z -> w
        w = pow(primitive_root(P), (P - 1) // T.conductor, P)
        chi = np.array(T.coeffs, dtype=np.int64) @ [pow(w, k, P) for k in range(T.coeffs.shape[-1])] % P
        sizes = np.array([b.S.classes[j].size for j in T.class_order])
        degree_inv = np.array([pow(d, -1, P) for d in T.degrees])
        omegas = chi * sizes % P * degree_inv[:, None] % P
        assert sorted(map(tuple, omegas.tolist())) == sorted(map(tuple, found[-1])), label
        identity = (np.arange(T.m) == 0).astype(np.int64)
        assert sizes[0] == 1, label  # column 0 is the identity class
        c = rref_oracle(np.hstack([omegas.T, identity[:, None]]), P)[0][:, -1]
        assert c.tolist() == [d * d * pow(n, -1, P) % P for d in T.degrees], label


def test_the_table_keeps_its_coefficient_array(build, capsys, monkeypatch):
    # the table is the int64 array character_table lifted; the checks and
    # the export read that array, and the CycInt entries are decoded from it
    # on first read only
    from quadsym import cli

    for label in ["sym:5", "dihedral:12*sym:4"]:
        b, T = table_for(build, label, max_classes=64)
        assert T.coeffs.dtype == np.int64 and T.coeffs.shape == (T.m, T.m, _basis(T.conductor).phi)
        verify_orthogonality(b.G, b.S, T)
        assert det_identities(b.G, b.S, b.split, T, b.D).ok
        text = export_table(T)
        assert "entries" not in T.__dict__, label
        assert [[list(z.coeffs) for z in row] for row in T.entries] == T.coeffs.tolist()
        assert all(z.e == T.conductor for row in T.entries for z in row)
        assert text == "".join(" ".join(f"[{','.join(map(str, z.coeffs))}]" for z in row) + "\n" for row in T.entries)
        # a copy made by replace holds the same array and decodes its own
        # entries; one coefficient more makes another table
        copy = dataclasses.replace(T)
        assert copy.coeffs is T.coeffs and copy == T and "entries" not in copy.__dict__
        bumped = T.coeffs.copy()
        bumped[-1, 0, 0] += 1
        assert dataclasses.replace(T, coeffs=bumped) != T
        assert dataclasses.replace(T, coeffs=bumped).entries[-1][0] == T.entries[-1][0] + 1
    # chartab prints its text and JSON without decoding the entries
    decoded = []
    original = CharacterTable.__dict__["entries"].func
    monkeypatch.setattr(CharacterTable, "entries", property(lambda T: decoded.append(T) or original(T)))
    for argv in (["chartab", "sym:4"], ["chartab", "sym:4", "--json"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert decoded == []


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


def modular_det(rows, e, bound, label):
    """det of a square matrix over Z[z] from its images at every unit mod
    each prime, with the primes and those images."""
    m = len(rows)
    T = CharacterTable(label, e, 0, tuple(range(m)), (1,) * m, coeffs_of(rows))
    primes = _primes(e, bound, label)
    E = _table_images(T, primes, np.arange(_basis(e).phi))
    s = np.array([det_stack(images, P) for P, images in zip(primes, E)])
    return _lift(e, primes, s), np.array(primes), s


def test_modular_det_matches_leibniz():
    # random matrices have no column norms to prove, so the Leibniz bound
    rng = random.Random(31)
    big = 10**6
    for e in (1, 2, 4, 5, 12, 105):
        phi = len(cyclotomic_polynomial(e)) - 1
        rand = lambda: CycInt(e, tuple(rng.randrange(-big, big + 1) for _ in range(phi)))
        for m in range(1, 6):
            rows = [[rand() for _ in range(m)] for _ in range(m)]
            det, primes, _ = modular_det(rows, e, leibniz_bound(rows, e), "random")
            assert det == leibniz_det(rows, e), (e, m)
            if m > 1:
                assert len(primes) >= 2, (e, m)
        # a zero (0, 0) entry forces a row swap in every image
        rows = [[rand() for _ in range(3)] for _ in range(3)]
        rows[0][0] = CycInt.integer(e, 0)
        assert modular_det(rows, e, leibniz_bound(rows, e), "swap")[0] == leibniz_det(rows, e), e
        # the third row is a Z[z]-combination of the first two
        u, v = rand(), rand()
        rows[2] = [u * a + v * b for a, b in zip(rows[0], rows[1])]
        assert modular_det(rows, e, leibniz_bound(rows, e), "singular")[0] == 0, e


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
        zetas = np.exp(2j * np.pi * _basis(e).units / e)
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
        det, primes, _ = modular_det(T.entries, e, bound, label)
        assert det == modular_det(T.entries, e, leibniz_bound(T.entries, e), label)[0], label
        assert max(map(abs, det.coeffs)) <= bound, label
        # the least number of primes, taken largest first, with Q > 2B
        assert primes.tolist() == [_embedding_prime(e, k) for k in range(len(primes))], label
        assert math.prod(primes[:-1].tolist()) <= 2 * bound < math.prod(primes.tolist()), label
        assert det_identities(b.G, b.S, b.split, T, b.D).det == det, label
        counts[label] = len(primes)
    assert (counts["cyclic:11*sym:3"], counts["dihedral:12*sym:4"]) == (5, 6)


def test_cyclic_tables_match_roots_of_unity(build, catalog):
    # independent construction, the dual group (Serre, Linear Representations
    # of Finite Groups, 1977): with cyclic factors of orders d_i and zeta a
    # primitive e-th root of unity, e = lcm d_i, row t is g -> zeta^<t, g>,
    # <t, g> = sum_i t_i g_i e / d_i; compared as CycInts, entry by entry, up
    # to the order of the rows.  Every abelian catalog group, and two past the
    # class cap
    labels = [label for label in catalog if label.startswith(("cyclic:", "abelian:")) and "*" not in label]
    assert len(labels) == 34
    for label in labels + ["cyclic:100", "cyclic:128"]:
        b = build(label)
        T = character_table(b.G, b.S, b.split, max_classes=b.S.m)
        dims = b.G.spec.args
        e = math.lcm(*dims)
        assert T.conductor == e and set(T.degrees) == {1}, label
        reps = b.G.rows[[b.S.classes[j].rep for j in T.class_order]] * (e // np.array(dims))
        expected = {
            tuple(CycInt.root_power(e, k) for k in (reps @ t).tolist()) for t in itertools.product(*map(range, dims))
        }
        assert len(expected) == T.m and set(T.entries) == expected, label


def partitions(k, most=None):
    """The partitions of k into parts of at most ``most``, largest part first."""
    if k == 0:
        return [()]
    most = k if most is None else most
    return [(p,) + rest for p in range(min(k, most), 0, -1) for rest in partitions(k - p, p)]


@functools.lru_cache(maxsize=None)
def murnaghan_nakayama(beta, mu):
    """chi^lambda at cycle type mu (James & Kerber, The Representation Theory
    of the Symmetric Group, 1981, ch. 2), lambda given by its beta-set, the
    distinct numbers lambda_i + (len - i): removing a rim hook of length r
    moves one bead from b to b - r onto an empty place, with the sign of
    the leg length, the number of beads passed."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            leg = sum(b - r < x < b for x in beta)
            total += (-1) ** leg * murnaghan_nakayama(tuple(sorted(set(beta) - {b} | {b - r})), rest)
    return total


def cycle_type(perm):
    seen, parts = set(), []
    for start in range(len(perm)):
        i, length = start, 0
        while i not in seen:
            seen.add(i)
            i, length = perm[i], length + 1
        if length:
            parts.append(length)
    return tuple(sorted(parts, reverse=True))


def test_symmetric_tables_match_murnaghan_nakayama(build):
    # row lambda at the column of a class whose representative has cycle type
    # mu is chi^lambda(mu), an integer; compared as CycInts, entry by entry,
    # up to the order of the rows.  sym:3 to sym:7, and S_8 from two
    # generators past the order and class caps
    s8 = make_group(parse_group_spec("perm:[(1 2 3 4 5 6 7 8),(1 2)]"), max_order=40320)
    groups = [build(f"sym:{k}").G for k in range(3, 8)] + [s8]
    for G in groups:
        S = conjugacy_classes(G)
        T = character_table(G, S, real_complex_split(S), max_classes=22)
        k = G.rows.shape[1]
        types = [cycle_type(G.rows[S.classes[j].rep].tolist()) for j in T.class_order]
        assert sorted(types) == sorted(partitions(k)), G.label
        betas = [tuple(p + len(lam) - i for i, p in enumerate(lam, 1)) for lam in partitions(k)]
        expected = [tuple(CycInt.integer(T.conductor, murnaghan_nakayama(beta, mu)) for mu in types) for beta in betas]
        assert collections.Counter(T.entries) == collections.Counter(expected), G.label


def test_dihedral_tables_match_the_closed_form(build, catalog):
    # D_k, (x, y) standing for rotation^x flip^y (Serre, Linear Representations
    # of Finite Groups, 1977, 5.3): the linear characters a^x c^y, a = 1 or,
    # for even k, -1, and c = +-1; and for 0 < h < k / 2, chi_h(r^x) =
    # zeta^hx + zeta^-hx, zeta a primitive k-th root of unity, and
    # chi_h(r^x s) = 0.  Compared as CycInts, entry by entry, up to the order
    # of the rows.  Every dihedral catalog group, and one past the class cap
    labels = [label for label in catalog if label.startswith("dihedral:") and "*" not in label]
    assert len(labels) == 10
    for label in labels + ["dihedral:100"]:
        b = build(label)
        T = character_table(b.G, b.S, b.split, max_classes=b.S.m)
        k, e = b.G.spec.args[0], T.conductor
        x, y = b.G.rows[[b.S.classes[j].rep for j in T.class_order]].T.tolist()
        zeta = lambda t: CycInt.root_power(e, t * (e // k))
        linear = [
            tuple(CycInt.integer(e, a**i * c**j) for i, j in zip(x, y)) for a in (1, -1)[: 2 - k % 2] for c in (1, -1)
        ]
        planar = [
            tuple(zeta(h * i) + zeta(-h * i) if j == 0 else CycInt.integer(e, 0) for i, j in zip(x, y))
            for h in range(1, (k + 1) // 2)
        ]
        assert collections.Counter(T.entries) == collections.Counter(linear + planar), label


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
        coeffs=coeffs_of(bad_rows),
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
        verify_orthogonality(b.G, b.S, with_rows(T, bad_rows))


def test_det_identities_detect_corruption(build):
    # the last row of cyclic:5 times z: det picks up a factor z, so det^2 is
    # irrational and z -> z^a no longer permutes the columns
    b, T = table_for(build, "cyclic:5")
    z = CycInt.root_power(5, 1)
    rows = T.entries[:-1] + (tuple(x * z for x in T.entries[-1]),)
    report = det_identities(b.G, b.S, b.split, with_rows(T, rows), b.D)
    assert [(c.name, c.ok, c.witness) for c in report.checks] == [
        ("det_squared_is_ell2_d", False, "det^2 = 3125*z^2, d = 5"),
        ("conjugate_det", False, "conj(det) != (1) * det"),
        ("galois_scales_det_by_symbol", False, "a = 2, symbol -1"),
        ("galois_permutes_columns", False, "a = 2, row 4, column 0"),
        ("det_squared_mod_4", False, "det^2 = 0 = 0 mod 4"),
    ]
    # a zero row takes 1 from every column norm, which the bound on det
    # needs; the rows decide the column norms, and row 4 has norm 0
    rows = T.entries[:-1] + ((CycInt.integer(5, 0),) * 5,)
    want = r"^cyclic:5: row orthogonality fails at rows 4, 4: got 0, want 5 \(P = \d+\)$"
    with pytest.raises(CharTableError, match=want):
        det_identities(b.G, b.S, b.split, with_rows(T, rows), b.D)


def test_det_identities_decide_the_rows_first(build):
    # column j doubled: row 0, the trivial character, gains 3 h_j in norm
    for label in ["cyclic:5", "sym:4", "perm:[(1 2 3 4 5 6 7),(1 2)(3 6)]"]:
        b, T = table_for(build, label)
        for j in range(T.m):
            rows = tuple(row[:j] + (2 * row[j],) + row[j + 1 :] for row in T.entries)
            h = b.S.classes[T.class_order[j]].size
            want = rf"^{re.escape(label)}: row orthogonality fails at rows 0, 0: got {b.G.n + 3 * h}, want {b.G.n} "
            with pytest.raises(CharTableError, match=want):
                det_identities(b.G, b.S, b.split, with_rows(T, rows), b.D)


def test_det_identities_refuse_a_table_with_the_column_norms_but_not_the_rows(build):
    # two entries of one column swapped keep every column norm, which is all
    # the bound on det reads, but break the rows, so no det is reported
    for label in ["sym:4", "cyclic:5"]:
        b, T = table_for(build, label)
        e = T.conductor
        norms = lambda rows: [sum((x * galois_apply(x, -1) for x in col), CycInt.integer(e, 0)) for col in zip(*rows)]
        for j in range(T.m):
            column = [row[j] for row in T.entries]
            i = next((i for i, x in enumerate(column) if x != column[0]), None)
            if i is None:
                continue
            rows = [list(row) for row in T.entries]
            rows[0][j], rows[i][j] = rows[i][j], rows[0][j]
            assert norms(rows) == norms(T.entries), (label, j)
            want = rf"^{re.escape(label)}: row orthogonality fails at rows \d+, \d+: got .*, want \d+ \(P = \d+\)$"
            with pytest.raises(CharTableError, match=want):
                det_identities(b.G, b.S, b.split, with_rows(T, rows), b.D)


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


def test_multiplicity_errors_name_the_first_column(build, monkeypatch):
    # the multiplicities come from one product per element order, but a
    # multiplicity above its degree is reported for the first failing column
    # in column order, as the column-at-a-time loop did.  In q8*cyclic:3 the
    # real class 4 (order 4) is column 2 and the complex class 2 (order 3)
    # column 5; a wrong rep^1 in a chain breaks that column's DFT
    from quadsym import chartab

    b = build("q8*cyclic:3")
    assert [b.split.order.index(j) for j in (4, 2)] == [2, 5]
    assert [b.S.classes[j].rep_order for j in (4, 2)] == [4, 3]

    def corrupted(*bad):
        def chains(G, S):
            good = class_power_chains(G, S)
            flat = good.flat.copy()
            flat[good.start[list(bad)] + 1] = 0
            return PowerChains(flat, good.start, good.order)

        return chains

    message = "q8*cyclic:3: eigenvalue multiplicity {} exceeds the degree 1 (P = 13)"
    for bad, value in [((4,), 7), ((2,), 8), ((4, 2), 7), ((2, 4), 7)]:
        monkeypatch.setattr(chartab, "class_power_chains", corrupted(*bad))
        with pytest.raises(CharTableError) as info:
            character_table(b.G, b.S, b.split)
        assert str(info.value) == message.format(value), bad


def test_table_images_use_only_the_powers_that_occur():
    # images of random tables at the largest P = 1 mod e below 2^24, for
    # phi = 96 and 576, with some powers of z in no entry, against the full
    # int64 product over every power
    rng = np.random.default_rng(59)
    for e, m in [(420, 5), (2520, 3)]:
        phi = _basis(e).phi
        P = _embedding_prime(e, 0)
        vander, _ = _embedding_maps(e, P)
        for unused in (0.0, 0.5, 1.0):
            coeffs = rng.integers(-(2**40), 2**40, (m, m, phi)) * (rng.random(phi) >= unused)
            coeffs[0, 0, 0] = 7  # one power, z^0, at least
            coeffs[-1, -1, rng.integers(phi)] = -3  # a power, maybe in the last entry only
            T = CharacterTable("t", e, 0, tuple(range(m)), (1,) * m, coeffs)
            units = rng.permutation(phi)[: phi // 2]
            want = vander[units] @ (coeffs.reshape(m * m, phi) % P).T % P
            got = _table_images(T, [P], units)
            assert got.shape == (1, len(units), m, m) and (got[0].reshape(len(units), -1) == want).all(), (e, unused)


def test_unit_perm_acts_by_multiplication():
    for e in (1, 2, 3, 12, 30, 420):
        units = _basis(e).units
        for a in (*units, -1, e + 1):
            want = [next(v for v in units if (v - a * u) % e == 0) for u in units]
            assert [units[t] for t in _unit_perm(e, a)] == want, (e, a)


def test_chartab_builds_the_power_chains_and_the_symbol_once(monkeypatch, capsys):
    from quadsym import chartab, cli

    calls = {"class_power_chains": 0, "symbol_character": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return original(*args, **kw)

        monkeypatch.setattr(module, name, wrapper)

    counting(chartab, "class_power_chains")
    counting(chartab, "symbol_character")
    for text in ["sym:4", "cyclic:12", "q8"]:
        calls.update(class_power_chains=0, symbol_character=0)
        assert cli.main(["chartab", text, "--json"]) == 0
        assert calls == {"class_power_chains": 1, "symbol_character": 1}, text
    capsys.readouterr()


def test_verify_and_chartab_never_decode_the_elements(monkeypatch, capsys):
    # the encodings are for printing: neither pipeline reads them, so a
    # fresh process never builds sym:7's 5040 tuples; classes prints the
    # representatives and decodes those rows alone
    import json

    from quadsym import cli

    made = []
    monkeypatch.setattr(cli, "make_group", lambda *a, **kw: made.append(make_group(*a, **kw)) or made[-1])
    for argv in (["verify", "sym:7", "--json"], ["chartab", "sym:7", "--json"], ["classes", "sym:7", "--json"]):
        made.clear()
        assert cli.main(argv) == 0, argv
        assert [G.n for G in made] == [5040] and "elements" not in made[0].__dict__, argv
        out = json.loads(capsys.readouterr().out)
        assert all(c["ok"] for c in out.get("checks", [])), argv
    reps = [str(made[0].elements[c.rep]) for c in conjugacy_classes(made[0]).classes]
    assert [c["rep"] for c in out["classes"]] == reps


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
    # each prime's maps are built once, whichever checks ask for them
    assert cached.cache_info().misses == 3 and set(asked) == {(420, _embedding_prime(420, k)) for k in range(3)}
    vander, interp = cached(*asked[0])
    assert not vander.flags.writeable and not interp.flags.writeable
    # the bytes of a cold cache, of a warm one, and of the benchmark's reference
    assert cli.main(["chartab", "sym:7", "--json"]) == 0
    assert capsys.readouterr().out == out
    reference = Path(__file__).parents[1] / "bench" / "reference.json"
    if reference.is_file():
        want = json.loads(reference.read_text())["outputs"]["chartab sym:7"]
        assert hashlib.sha256(out.encode()).hexdigest() == want


def test_checks_keep_no_state_on_the_table(build):
    # a table is a value: the checks add nothing to it but the two cached
    # properties their error texts and bounds read, on the few-units path and
    # on the every-unit one (sl2:8, and cyclic:5 with its last row times z)
    b, T = table_for(build, "sl2:8")
    c, C = table_for(build, "cyclic:5")
    z = CycInt.root_power(5, 1)
    bad = with_rows(C, C.entries[:-1] + (tuple(x * z for x in C.entries[-1]),))
    for b, T, ok in [(b, T, True), (c, bad, False)]:
        before = dict(vars(T))
        reports = []
        for _ in range(2):
            verify_orthogonality(b.G, b.S, T)
            reports.append(det_identities(b.G, b.S, b.split, T, b.D))
        assert reports[0] == reports[1] and reports[0].ok == ok, T.label
        assert set(vars(T)) - set(before) <= {"norms", "entries"}, sorted(vars(T))
        assert all(vars(T)[k] is v for k, v in before.items()), T.label
        # a copy made by replace gives the same report
        assert det_identities(b.G, b.S, b.split, dataclasses.replace(T), b.D) == reports[0], T.label


def test_det_identities_decides_the_galois_action_once(build, monkeypatch):
    # one _column_witness at the generators of (Z/e)^x per call, and one more
    # at every unit where the checks run again at every unit
    from quadsym import chartab

    asked = []
    original = chartab._column_witness
    monkeypatch.setattr(chartab, "_column_witness", lambda G, S, T, tests: asked.append(list(tests)) or original(G, S, T, tests))
    for label in ["sym:7", "sl2:8", "cyclic:5", PSL27]:
        b, T = table_for(build, label)
        asked.clear()
        assert det_identities(b.G, b.S, b.split, T, b.D).ok, label
        assert asked == [list(chartab.unit_generators(T.conductor))], (label, asked)
    # cyclic:5 with its last row times z fails the decision and det
    b, T = table_for(build, "cyclic:5")
    z = CycInt.root_power(5, 1)
    bad = with_rows(T, T.entries[:-1] + (tuple(x * z for x in T.entries[-1]),))
    asked.clear()
    assert not det_identities(b.G, b.S, b.split, bad, b.D).ok
    assert asked == [list(chartab.unit_generators(5)), _basis(5).units.tolist()], asked


def test_det_is_eliminated_once_per_prime(build, monkeypatch):
    # once the columns permute, det at u is (u/G) det at 1, so det is
    # eliminated at u = 1 only, one matrix per det prime (sym:7 has 3 det
    # primes, sl2:8 2); where they do not, at every unit of every det prime
    from quadsym import chartab

    stacked = []
    original = chartab._rref_stack
    monkeypatch.setattr(chartab, "_rref_stack", lambda A, P, **kw: stacked.append(len(A)) or original(A, P, **kw))
    for label, want in [("sym:7", 3), ("sl2:8", 2)]:
        b, T = table_for(build, label)
        stacked.clear()
        assert det_identities(b.G, b.S, b.split, T, b.D).ok, label
        assert sum(stacked) == want, (label, stacked)
    # cyclic:5 with its last row times z, as in test_det_identities_detect_corruption
    b, T = table_for(build, "cyclic:5")
    z = CycInt.root_power(5, 1)
    bad = with_rows(T, T.entries[:-1] + (tuple(x * z for x in T.entries[-1]),))
    stacked.clear()
    assert not det_identities(b.G, b.S, b.split, bad, b.D).ok
    det_primes = _primes(5, _det_bound(5, [5] * 5), T.label)
    assert _column_witness(b.G, b.S, bad, unit_generators(5)) is not None
    assert sum(stacked) == len(det_primes) * _basis(5).phi, stacked


def test_galois_checks_compare_the_table_with_the_symbol(build, monkeypatch):
    # on the few-units path det at u is sign(pi_u) * det at 1, pi_u from the
    # power chains the table's columns were checked against; the symbol is
    # read from class_power_map, so a symbol flipped at a generator of
    # (Z/e)^x, a character still, fails there and on the every-unit path.
    # The flip swaps two classes in pi_g, which negates its sign, in what
    # class_power_map gives for g alone and in the one ladder over all the
    # generators that symbol_character asks it for.
    from quadsym import chartab, reciprocity

    original = reciprocity.class_power_map
    for label in ["sym:4", "cyclic:5", PSL27]:
        b, T = table_for(build, label)
        want = det_identities(b.G, b.S, b.split, T, b.D)
        g = chartab.unit_generators(T.conductor)[0]
        symbol = reciprocity.quadratic_symbol(b.G, b.S, g)

        def flip(G, S, a, g=g):
            swap = lambda x, pi: pi[1::-1] + pi[2:] if x == g else pi
            return swap(a, original(G, S, a)) if np.ndim(a) == 0 else list(map(swap, a, original(G, S, a)))

        monkeypatch.setattr(reciprocity, "class_power_map", flip)
        assert reciprocity.quadratic_symbol(b.G, b.S, g) == symbol_character(b.G, b.S)(g) == -symbol, label
        few = chartab._det_identities(b.G, b.S, T, b.D, every=False)
        every = det_identities(b.G, b.S, b.split, T, b.D)
        monkeypatch.setattr(reciprocity, "class_power_map", original)
        for report in (every, few):
            checks = {c.name: c for c in report.checks}
            assert report.det == want.det and checks["galois_permutes_columns"].ok, label
            assert not checks["galois_scales_det_by_symbol"].ok, label
        # the few-units path tests the generators, g first
        assert checks["galois_scales_det_by_symbol"].witness == f"a = {g}, symbol {-symbol}", label


# Oracles: verify_orthogonality and det_identities as they were before the
# Galois action was decided at the generators of the units, with every check
# at every unit of every prime.


def images_oracle(rows, e, bound, label):
    """(P, interp, E) for each prime P until the product exceeds 2 * bound,
    E[t] the matrix under z -> w^units[t] mod P."""
    m, phi = len(rows), len(cyclotomic_polynomial(e)) - 1
    coeffs = np.array([[z.coeffs for z in row] for row in rows], dtype=object).reshape(m * m, phi)
    found, Q = [], 1
    while not found or Q <= 2 * bound:
        P = _embedding_prime(e, len(found))
        if P is None:
            last = found[-1][0] if found else None
            raise CharTableError(f"{label}: too few primes 1 mod {e} below 2^24 (last P = {last})")
        vander, interp = _embedding_maps(e, P)
        found.append((P, interp, (vander @ (coeffs % P).astype(np.int64).T % P).reshape(phi, m, m)))
        Q *= P
    return found


def l1(z):
    return sum(map(abs, z.coeffs))


def orthogonality_oracle(G, S, T):
    m, n, e = T.m, G.n, T.conductor
    sizes = np.array([S.classes[j].size for j in T.class_order])
    norms = np.array([[l1(z) for z in row] for row in T.entries], dtype=object)
    sums = max(((norms * sizes) @ norms.T).max(), (norms.T @ norms).max())
    wants = {"row": n * np.eye(m, dtype=np.int64), "column": np.diag(n // sizes)}
    found = images_oracle(T.entries, e, _basis(e).root_norm * sums + n, T.label)
    primes = np.array([P for P, _, _ in found])
    E = np.stack([E for _, _, E in found])
    P = primes.reshape(-1, 1, 1, 1)
    # the relations at -u are the transposes of those at u: half the units do
    half = [t for t, u in enumerate(_basis(e).units) if 2 * (u % e) <= e]
    E, conj = E[:, half], E[:, _unit_perm(e, -1)[half]]
    got = {
        "row": np.matmul(E * sizes % P, conj.swapaxes(-1, -2)) % P,
        "column": np.matmul(E.swapaxes(-1, -2), conj) % P,
    }
    for kind, want in wants.items():
        bad = (got[kind] != want % P).any(axis=1)  # per prime
        bad |= bad.swapaxes(-1, -2)
        first = np.triu(bad.any(axis=0))
        if not first.any():
            continue
        a, b = (int(x) for x in np.argwhere(first)[0])
        if kind == "row":
            terms = [(int(sizes[j]), T.entries[a][j], T.entries[b][j]) for j in range(m)]
        else:
            terms = [(1, T.entries[i][a], T.entries[i][b]) for i in range(m)]
        total = sum((h * (x * galois_apply(y, -1)) for h, x, y in terms), CycInt.integer(e, 0))
        raise CharTableError(
            f"{T.label}: {kind} orthogonality fails at {kind}s {a}, {b}: "
            f"got {total}, want {int(want[a, b])} (P = {primes[bad[:, a, b].argmax()]})"
        )


def det_identities_oracle(G, S, split, T, D):
    # the column norms that _det_bound needs, decided with the rows
    orthogonality_oracle(G, S, T)
    e = T.conductor
    centralizers = np.array([G.n // S.classes[j].size for j in T.class_order])
    norms = np.array([[l1(z) for z in row] for row in T.entries], dtype=object)
    # sigma_a(chi_ij) - chi_ik has coefficients below (C_e + 1) max |chi|_1
    found = images_oracle(T.entries, e, (_basis(e).root_norm + 1) * norms.max(), T.label)
    E = np.stack([E for _, _, E in found])

    coeffs, Q, primes, s = [0] * _basis(e).phi, 1, [], []
    for P, interp, images in images_oracle(T.entries, e, _det_bound(e, centralizers.tolist()), T.label):
        s.append(det_stack(images, P))
        residues = (interp @ s[-1] % P).tolist()
        t = pow(Q, -1, P)
        coeffs = [x + Q * ((r - x) * t % P) for x, r in zip(coeffs, residues)]
        Q *= P
        primes.append(P)
    det = CycInt(e, tuple(x - Q if 2 * x > Q else x for x in coeffs))
    primes, s = np.array(primes), np.array(s)
    checks = []

    det2 = det * det
    d2_ok = det2.is_rational()
    det_squared = det2.to_int() if d2_ok else 0
    ell = 0
    dval = D.value.value()
    if d2_ok and det_squared % dval == 0:
        q, rem = divmod(det_squared, dval)
        ell = math.isqrt(q) if q >= 0 else 0
    ratio_ok = d2_ok and ell >= 1 and ell * ell * dval == det_squared
    checks.append(_check("det_squared_is_ell2_d", ratio_ok, f"det^2 = {det2}, d = {dval}"))

    chains = T.chains if T.chains is not None else class_power_chains(G, S).relabel(T.class_order)
    sym = symbol_character(G, S)

    def scales_det(a):
        return not ((s[:, _unit_perm(e, a)] - sym(a) * s) % primes[:, None]).any()

    conj_ok = scales_det(-1)
    checks.append(_check("conjugate_det", conj_ok, f"conj(det) != ({sym(-1)}) * det"))

    galois_witness = column_witness = None
    for a in _basis(e).units:
        moved = (E[:, _unit_perm(e, a)] != E[..., chains.at(a)]).any(axis=(0, 1))
        if moved.any():
            i, j = np.argwhere(moved)[0]
            column_witness = f"a = {a}, row {i}, column {j}"
        if not scales_det(a):
            galois_witness = f"a = {a}, symbol {sym(a)}"
        if galois_witness or column_witness:
            break
    checks.append(CheckResult("galois_scales_det_by_symbol", not galois_witness, galois_witness))
    checks.append(CheckResult("galois_permutes_columns", not column_witness, column_witness))

    mod4_ok = d2_ok and det_squared % 4 in (0, 1)
    checks.append(_check("det_squared_mod_4", mod4_ok, f"det^2 = {det_squared} = {det_squared % 4} mod 4"))
    return DetReport(det=det, det_squared=det_squared, ell=ell, checks=tuple(checks))


def outcome(check, *args):
    """What a check returns, or the text of the CharTableError it raises."""
    try:
        return check(*args)
    except CharTableError as exc:
        return f"error: {exc}"


def galois_oracle(b, T):
    """Whether z -> z^a moves column j to column chains.at(a)[j] at every
    unit a, in exact arithmetic."""
    chains = class_power_chains(b.G, b.S).relabel(T.class_order)
    units = _basis(T.conductor).units
    moved = (galois_apply(row[j], a) == row[chains.at(a)[j]] for a in units for row in T.entries for j in range(T.m))
    return all(moved)


def assert_checks_match_the_oracles(b, T):
    # det_identities on a table of its own, and after verify_orthogonality on
    # the same table, as chartab runs them
    fresh = lambda: dataclasses.replace(T, coeffs=T.coeffs)
    want_orth = outcome(orthogonality_oracle, b.G, b.S, fresh())
    want_det = outcome(det_identities_oracle, b.G, b.S, b.split, fresh(), b.D)
    assert outcome(det_identities, b.G, b.S, b.split, fresh(), b.D) == want_det, T.label
    shared = fresh()
    assert outcome(verify_orthogonality, b.G, b.S, shared) == want_orth, T.label
    assert outcome(det_identities, b.G, b.S, b.split, shared, b.D) == want_det, T.label
    # the Galois action the checks decided at the generators, against every
    # unit in exact arithmetic, where that is quick
    if _basis(T.conductor).phi * T.m**2 <= 5000:
        decided = _column_witness(b.G, b.S, shared, unit_generators(T.conductor)) is None
        assert decided == galois_oracle(b, T), T.label
    return want_orth, want_det


def test_checks_match_the_all_units_oracles(build, catalog):
    labels = [label for label in catalog if build(label).S.m <= 16]
    labels += ["cyclic:11*sym:3", "dihedral:12*sym:4", "sl2:16", PSL27]
    for label in labels:
        b = build(label)
        orth, det = assert_checks_match_the_oracles(b, character_table(b.G, b.S, b.split, max_classes=b.S.m))
        assert orth is None and det.ok, label


def test_rows_imply_the_columns(build, catalog):
    # verify_orthogonality decides the rows only; on every table whose rows
    # pass, the oracle's column half holds exactly: the table itself, its
    # last row times z (the Galois decision fails, so every unit is checked)
    # and its rows after the first reversed
    labels = [label for label in catalog if build(label).S.m <= 16]
    labels += ["cyclic:11*sym:3", "dihedral:12*sym:4", "sl2:16", PSL27]
    for label in labels:
        b = build(label)
        T = character_table(b.G, b.S, b.split, max_classes=b.S.m)
        z = CycInt.root_power(T.conductor, 1)
        times_z = T.entries[:-1] + (tuple(x * z for x in T.entries[-1]),)
        for rows in (T.entries, times_z, T.entries[:1] + T.entries[:0:-1]):
            table = with_rows(T, rows)
            verify_orthogonality(b.G, b.S, table)
            assert orthogonality_oracle(b.G, b.S, table) is None, label


def test_existing_corruptions_match_the_oracles(build):
    # the inputs of test_orthogonality_detects_corruption,
    # test_det_identities_detect_corruption and
    # test_det_identities_decide_the_rows_first
    b, T = table_for(build, "sym:3")
    rows = [list(r) for r in T.entries]
    rows[2][1] = CycInt.integer(T.conductor, 1)
    # built without the power chains, which the checks then compute
    bare = CharacterTable(T.label, T.conductor, T.prime, T.class_order, T.degrees, coeffs_of(rows))
    assert_checks_match_the_oracles(b, bare)
    rows = [list(r) for r in T.entries]
    rows[1][0] = rows[1][0] + 10**40
    assert_checks_match_the_oracles(b, with_rows(T, rows))
    b, T = table_for(build, "cyclic:5")
    z = CycInt.root_power(5, 1)
    for last in (tuple(x * z for x in T.entries[-1]), (CycInt.integer(5, 0),) * 5):
        assert_checks_match_the_oracles(b, with_rows(T, T.entries[:-1] + (last,)))
    for label in ["cyclic:5", "sym:4", PSL27]:
        b, T = table_for(build, label)
        for j in range(T.m):
            rows = tuple(row[:j] + (2 * row[j],) + row[j + 1 :] for row in T.entries)
            assert_checks_match_the_oracles(b, with_rows(T, rows))


CORRUPTED = ["cyclic:5", "cyclic:12", "sym:4", "q8", "dihedral:6", "cyclic:3*dihedral:4", "alt:5", PSL27]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(CORRUPTED),
    st.sampled_from(["entry", "row times z", "column doubled"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.lists(st.integers(-3, 3), min_size=1, max_size=8),
)
def test_corrupted_tables_match_the_oracles(build, label, kind, i, j, values):
    b = build(label)
    T = character_table(b.G, b.S, b.split, max_classes=b.S.m)
    e, m = T.conductor, T.m
    i, j = i % m, j % m
    rows = [list(row) for row in T.entries]
    if kind == "entry":
        phi = _basis(e).phi
        rows[i][j] = CycInt(e, tuple((values * phi)[:phi]))
    elif kind == "row times z":
        rows[i] = [x * CycInt.root_power(e, values[0]) for x in rows[i]]
    else:
        for row in rows:
            row[j] = 2 * row[j]
    assert_checks_match_the_oracles(b, with_rows(T, rows))


def library_report(b, max_classes=64):
    """The benchmark's chartab_lib JSON line: the chartab --json fields with
    the class cap raised."""
    import json

    T = character_table(b.G, b.S, b.split, max_classes=max_classes)
    verify_orthogonality(b.G, b.S, T)
    det = det_identities(b.G, b.S, b.split, T, b.D)
    obj = {
        "label": b.G.label,
        "n": b.G.n,
        "m": T.m,
        "conductor": T.conductor,
        "prime": T.prime,
        "class_order": list(T.class_order),
        "degrees": list(T.degrees),
        "rows": [[list(z.coeffs) for z in row] for row in T.entries],
        "det_squared": det.det_squared,
        "ell": det.ell,
        "d": b.D.value.decimal(),
        "checks": [{"name": c.name, "ok": c.ok, "witness": c.witness} for c in det.checks],
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("label", ["cyclic:11*sym:3", "dihedral:12*sym:4"])
def test_library_pipeline_matches_the_benchmark_reference(build, label):
    # at seed 0 each table takes 2 combinations, at P = 67 and 61
    import hashlib
    import json
    from pathlib import Path

    reference = Path(__file__).parents[1] / "bench" / "reference.json"
    if not reference.is_file():
        pytest.skip("no benchmark reference in this checkout")
    out = library_report(build(label))
    want = json.loads(reference.read_text())["outputs"][f"chartab_lib {label}"]
    assert hashlib.sha256(out.encode()).hexdigest() == want


GOLDEN_LIBRARY = ["cyclic:11*sym:3", "dihedral:12*sym:4", "sl2:16", "dihedral:100"]


def golden_outputs(build, catalog, capsys):
    """(key, stdout) for tests/chartab_golden.json: ``chartab --json`` on
    every catalog group with at most 16 classes and on PSL(2, 7), and the
    library report past the class cap."""
    from quadsym import cli

    for label in [label for label in catalog if build(label).S.m <= 16] + [PSL27]:
        assert cli.main(["chartab", label, "--json"]) == 0, label
        yield f"chartab {label}", capsys.readouterr().out
    for label in GOLDEN_LIBRARY:
        yield f"chartab_lib {label}", library_report(build(label))


def test_chartab_outputs_match_the_golden_hashes(build, catalog, capsys):
    import hashlib
    import json
    from pathlib import Path

    want = json.loads((Path(__file__).parent / "chartab_golden.json").read_text())
    outputs = golden_outputs(build, catalog, capsys)
    got = {key: hashlib.sha256(out.encode()).hexdigest() for key, out in outputs}
    assert got == want
