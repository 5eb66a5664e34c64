"""Exact character tables, computed modulo a prime and lifted to cyclotomic
integers.

The table of a group with m classes and exponent e lives in Z[z] with z a
primitive e-th root of unity.  We first find the m central characters as
common eigenvectors of the class-multiplication matrices over F_P, where
P = 1 mod e so F_P contains the needed roots of unity.  The split keeps one
vector per piece, starting from the identity class: a random combination R
of the class matrices splits a piece w by the roots of its minimal
polynomial, read from the Krylov sequence w, R w, R^2 w, ... (Wiedemann,
1986) and scanned by one Horner pass over all of F_P, until there are m
pieces.  We then recover each entry exactly: the eigenvalue multiplicities
of a representation at a group element are small nonnegative integers, so
knowing them mod a large enough P pins them down; they are a discrete
Fourier transform along the powers of the class representative, one batched
product for the columns of each element order.  One stacked Gauss-Jordan
elimination mod P (_rref_stack) gives both the Krylov dependences, stopped
at the last column a split reads, and the determinants: it records the row
that pivots each column, moves no row until one gather at the end, and takes
det as the product of the pivots times the parity of that row order.  It
stays exact in int64 within a headroom it asserts, c (P - 1)^2 + P < 2^63.

The identities on a table are decided without arithmetic in Z[z]: for primes
P = 1 mod e below 2^24, Phi_e splits mod P into the factors X - x_t, x_t = w^u
(w of order e, u a unit mod e), so the phi(e) images under z -> x_t identify
Z[z]/P with F_P^phi.  An element with coefficients of size at most B vanishes
once its images vanish mod primes with product Q > 2B, and is recovered by
CRT and Lagrange interpolation, each quotient Phi_e / (X - x_t) one cumulative
sum as Phi_e(x_t) = 0.  With C_e = max_k |z^k|_1, orthogonality takes B_orth =
C_e * max sum_j h_j |chi_ij|_1 |chi_i2j|_1 + n for the rows alone: for the
square table X, X H X* = n I gives X* X = n H^-1.  So the rows decide the
column norms sum_i |chi_ij|^2 = c_j, and then Hadamard bounds det at every
embedding by (prod_j c_j)^(1/2), which the interpolation turns into B_det
(_det_bound).

The table is one (m, m, phi) int64 array, CharacterTable.coeffs: a coefficient
sums at most e multiplicities, each at most the degree, times coefficients of
z^k of size at most C_e, which character_table asserts fits.  det^2 and the
text of a failing row relation are the only products in Z[z], each one
polynomial product of coefficient arrays (_cyc_mul); a CycInt is the printed
value of one element, det's or an entry's.

Most embeddings are redundant (Isaacs, Character Theory of Finite Groups,
1976): z -> z^a moves the image at u to the image at u * a, and it moves
column j to column pi_a(j), pi_a the class power map, at every unit once it
does at the generators of (Z/e)^x.  That is decided first and exactly, once
per public call (_decide_galois); then each relation is decided at u = 1,
the conjugates read from the inverse-class column, and det is eliminated at
u = 1 only, one matrix per prime, as det at u is sign(pi_u) det at 1.  Only
a table whose columns fail to permute is checked at every unit.  The checks
keep nothing on the table.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, isqrt, prod
from typing import Optional, Sequence

import numpy as np

from .groups import (
    ClassSet, GroupTable, OrderCapExceeded, _seeded_rng, class_power_chains, permutation_parity
)
from .ntheory import factorize, is_prime, primitive_root, unit_generators
from .reciprocity import CheckResult, Discriminant, RealComplexSplit, _check, symbol_character

MAX_CLASSES = 16


class CharTableError(RuntimeError):
    """The modular computation failed or an exactness check broke."""


# ---------------------------------------------------------------------------
# cyclotomic integers


def _squarefree_divisors(e: int) -> list[tuple[int, int]]:
    """The pairs (r, mu(r)) over the squarefree divisors r of e, 1 first."""
    divisors = [(1, 1)]
    for p, _ in factorize(e).factors:
        divisors += [(r * p, -mu) for r, mu in divisors]
    return divisors


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of the e-th cyclotomic polynomial, constant term first.

    Phi_e(X) = Phi_s(X^(e/s)) with s = rad(e), and Phi_s is the product of
    (X^(s/r) - 1)^mu(r) over the divisors r of s.  The factors with mu = 1
    are multiplied in first, so that every division by X^d - 1 is exact.
    """
    if e < 1:
        raise ValueError(f"conductor must be positive, got {e}")
    divisors = _squarefree_divisors(e)
    rad = divisors[-1][0]
    poly = [1]
    for d, mu in sorted(((rad // r, mu) for r, mu in divisors), key=lambda t: -t[1]):
        if mu == 1:  # times X^d - 1
            poly = [b - a for a, b in zip(poly + [0] * d, [0] * d + poly)]
        else:  # the quotient by X^d - 1, top coefficient first
            poly = poly[d:]
            for i in range(len(poly) - d - 1, -1, -1):
                poly[i] += poly[i + d]
    step = e // rad
    out = [0] * (step * (len(poly) - 1) + 1)
    out[::step] = poly
    return tuple(out)


class _CycBasis:
    """Z[z]/Phi_e(z): row k of ``rows`` is z^k over the power basis, for k
    below max(e, 2 phi - 1), in one int64 array; ``units`` are the units mod e."""

    def __init__(self, e: int):
        self.poly = cyclotomic_polynomial(e)
        phi = self.phi = len(self.poly) - 1
        self.units = np.flatnonzero(np.gcd(np.arange(1, e + 1), e) == 1) + 1  # u in 1..e, for z -> w^u
        self.unit_index = np.cumsum(np.gcd(np.arange(e), e) == 1) - 1  # each unit's index, by residue
        rows = self.rows = np.eye(max(e, 2 * phi - 1), phi, dtype=np.int64)
        tail = -np.array(self.poly[:phi])
        for k in range(phi, len(rows)):
            # z times row k - 1, with z^phi = -(poly[0] + ... + poly[phi-1] z^(phi-1))
            np.multiply(tail, rows[k - 1, -1], out=rows[k])
            rows[k, 1:] += rows[k - 1, :-1]
        # C_e = max over k of |z^k|_1 (the rows past e repeat the first ones),
        # a block at a time, with no temporary the size of the basis
        self.root_norm = max(int(np.abs(rows[k : k + 64]).sum(axis=1).max()) for k in range(0, len(rows), 64))


@lru_cache(maxsize=None)
def _basis(e: int) -> _CycBasis:
    return _CycBasis(e)


def _cyc_mul(x: Sequence[int], y: Sequence[int], e: int) -> np.ndarray:
    """The product in Z[z] of two coefficient arrays, as Python ints: z^k of
    the polynomial product is row k of the basis (2 phi - 1 rows at least).
    Trailing zeros are dropped first: a rational det costs one product."""
    xy = np.convolve(*(np.asarray(v, dtype=object)[: np.flatnonzero(v).max(initial=0) + 1] for v in (x, y)))
    return xy @ _basis(e).rows[: len(xy)]


@dataclass(frozen=True)
class CycInt:
    """An element of Z[z], z a primitive e-th root of unity, as phi(e)
    integer coordinates over the power basis 1, z, ..., z^(phi-1): a printed
    value.  Arithmetic in Z[z] is on coefficient arrays (_cyc_mul,
    galois_apply).

    The representation is unique, so an element is a rational integer
    exactly when every coordinate past the constant one vanishes.
    """

    e: int
    coeffs: tuple[int, ...]

    def __str__(self):
        if not any(self.coeffs[1:]):
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                terms.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return " + ".join(terms).replace("+ -", "- ")

    __repr__ = __str__


def galois_apply(z: CycInt, a: int) -> CycInt:
    """The automorphism z -> z^a of the e-th cyclotomic ring; a must be
    coprime to e.  z^k goes to z^(k a), row k a mod e of the basis."""
    e = z.e
    if gcd(a, e) != 1:
        raise ValueError(f"{a} is not coprime to the conductor {e}")
    rows = _basis(e).rows[np.arange(len(z.coeffs)) * (a % e) % e]
    return CycInt(e, tuple((np.asarray(z.coeffs, dtype=object) @ rows).tolist()))


# ---------------------------------------------------------------------------
# Galois embeddings mod P


def _unit_perm(e: int, a: int) -> np.ndarray:
    """Embedding index t -> index of units[t] * a: the action of z -> z^a."""
    basis = _basis(e)
    return basis.unit_index[basis.units * a % e]


@lru_cache(maxsize=None)
def _embedding_prime(e: int, k: int) -> Optional[int]:
    """The k-th largest prime P = 1 mod e below 2^24, or None if there are fewer."""
    top = (1 << 24) - 1 if k == 0 else _embedding_prime(e, k - 1) - 1
    P = top - (top - 1) % e
    while P > e and not is_prime(P):
        P -= e
    return P if P > e else None


def _power_table(w: int, e: int, P: int) -> np.ndarray:
    """w^t mod P for t < e, by doubling: powers[k:2k] = powers[:k] w^k."""
    powers, k = np.ones(e, dtype=np.int64), 1
    while k < e:
        powers[k : 2 * k] = powers[: min(k, e - k)] * pow(w, k, P) % P
        k *= 2
    return powers


@lru_cache(maxsize=None)
def _embedding_maps(e: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """vander[t, k] = w^(units[t] * k) mod P, which maps the power basis to
    the images, and its inverse mod P; both read-only, as the cache hands
    them to every caller."""
    basis = _basis(e)
    phi = basis.phi
    powers = _power_table(pow(primitive_root(P), (P - 1) // e, P), e, P)
    vander = powers[np.outer(basis.units, np.arange(phi)) % e]
    # Lagrange: column t is q_t / Phi_e'(x_t), q_t = Phi_e / (X - x_t); as
    # Phi_e(x_t) = 0, q_t[c] = -x_t^-(c+1) sum_{s <= c} poly[s] x_t^s, one
    # cumulative sum, and Phi_e'(x_t) = q_t(x_t), one column sum
    x = vander.T  # x[s, t] = x_t^s
    quot = -np.cumsum(x * np.array(basis.poly[:phi])[:, None] % P, axis=0) % P
    quot = quot * powers[np.outer(np.arange(1, phi + 1), -basis.units) % e] % P
    deriv = (quot * x % P).sum(axis=0) % P
    interp = quot * np.array([pow(d, -1, P) for d in deriv.tolist()]) % P
    vander.setflags(write=False)
    interp.setflags(write=False)
    return vander, interp


def _primes(e: int, bound: int, label: str) -> list[int]:
    """The primes P = 1 mod e below 2^24, largest first, until their product
    exceeds 2 * bound, and at least one."""
    primes = []
    while not primes or prod(primes) <= 2 * bound:
        P = _embedding_prime(e, len(primes))
        if P is None:
            last = primes[-1] if primes else None
            raise CharTableError(f"{label}: too few primes 1 mod {e} below 2^24 (last P = {last})")
        primes.append(P)
    return primes


def _derivative_bound(e: int) -> tuple[int, int]:
    """(num, den) with num / den <= |Phi_e'(zeta)| at every primitive e-th
    root of unity zeta.

    Phi_e(X) = (X^e - 1) * prod over squarefree r > 1 dividing e of
    (X^(e/r) - 1)^mu(r), and zeta^(e/r) has order r, so |Phi_e'(zeta)| =
    e * prod |zeta^(e/r) - 1|^mu(r) with every factor in [2 sin(pi/r), 2],
    and 2 sin(pi/r) >= 4/r.
    """
    num, den = e, 1
    for r, mu in _squarefree_divisors(e)[1:]:
        num, den = (num * 4, den * r) if mu == 1 else (num, den * 2)
    return num, den


def _det_bound(e: int, centralizers: Sequence[int]) -> int:
    """A bound on the coefficients of det M, for M over Z[z] whose column j
    has sum_i |sigma(M_ij)|^2 = c_j at every complex embedding sigma.

    Hadamard: |sigma(det M)| < H = isqrt(prod_j c_j) + 1.  The coefficients
    are V^-1 applied to the phi embeddings, with V^-1[k, t] = q_tk /
    Phi_e'(zeta_t) and q_t = Phi_e / (X - zeta_t), whose coefficients are
    tails of Phi_e's times powers of zeta_t, so |q_tk| <= |Phi_e|_1.  That
    gives phi * |Phi_e|_1 * H / L with L from _derivative_bound.
    """
    poly = cyclotomic_polynomial(e)
    num, den = _derivative_bound(e)
    top = (len(poly) - 1) * sum(map(abs, poly)) * (isqrt(prod(centralizers)) + 1) * den
    return -(-top // num)


def _lift(e: int, primes: Sequence[int], s: np.ndarray) -> CycInt:
    """The element of Z[z] whose images mod primes[k], at every unit in
    order, are s[k]; its coefficients must be below half the product of the
    primes in size."""
    coeffs, Q = [0] * _basis(e).phi, 1
    for P, images in zip(primes, s):
        residues = (_embedding_maps(e, P)[1] @ images % P).tolist()
        t = pow(Q, -1, P)
        coeffs = [x + Q * ((r - x) * t % P) for x, r in zip(coeffs, residues)]
        Q *= P
    return CycInt(e, tuple(x - Q if 2 * x > Q else x for x in coeffs))


# ---------------------------------------------------------------------------
# linear algebra mod P


def _rref_stack(A: np.ndarray, P, until_free: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms of a stack of matrices with entries in
    [0, P), matrix k mod P[k] (or all mod one P), in place and all at once.
    Returns which columns of each hold a pivot, and each determinant: the
    product of the pivots times the parity of the order the rows pivot in
    (the reduction leaves that permutation matrix), and 0 once a column has
    no pivot, which is det for a square matrix.  ``until_free`` stops once
    every matrix has had a column without a pivot, the later columns unreduced.

    At each column every matrix takes the first row without a pivot whose
    entry is nonzero, scales it by the pivot's inverse and clears the column
    in every other row; no row moves until one gather puts the pivot rows on
    top in column order.  Only the pivot column and the pivot row are reduced
    at each step: every other entry gains a product of two residues, below
    (P - 1)^2, per step, so c columns stay exact in int64 while
    c (P - 1)^2 + P < 2^63.
    """
    b, r, c = A.shape
    top = int(np.max(P, initial=0))
    assert c * (top - 1) ** 2 + top < 2**63, (c, top)
    P = np.broadcast_to(np.asarray(P, dtype=np.int64), (b,))
    mods, Pc = P.tolist(), P[:, None]
    stack, rows = np.arange(b), np.arange(r)
    has = np.zeros((b, c), dtype=bool)
    det = np.ones(b, dtype=np.int64)
    lead = np.full((b, r), c)  # the column each row pivots, c for none yet
    for k in range(c):
        col = A[:, :, k] % Pc
        cand = (col != 0) & (lead == c)
        found = has[:, k] = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        pivot = np.where(found, col[stack, piv], 0)
        det = det * pivot % P
        inv = np.array([pow(x, -1, p) if x else 1 for x, p in zip(pivot.tolist(), mods)], dtype=np.int64)
        A[stack, piv, k + 1 :] = row = A[stack, piv, k + 1 :] % Pc * inv[:, None] % Pc
        A[:, :, k] = np.where(found[:, None], rows == piv[:, None], col)
        col[stack, piv] = 0  # the pivot row keeps its entries
        A[:, :, k + 1 :] += (-col * found[:, None] % Pc)[:, :, None] * row[:, None]
        lead[stack[found], piv[found]] = k
        if until_free and not has[:, : k + 1].all(axis=1).any():
            break
    order = np.argsort(lead, axis=1, kind="stable")
    A[:] = A[stack[:, None], order]
    parity = lru_cache(None)(permutation_parity)
    return has, np.array([parity(p) for p in map(tuple, order.tolist())], dtype=np.int64) * det % P


def _split(pieces: np.ndarray, R: np.ndarray, P: int) -> np.ndarray:
    """Each piece w (a row) split by R, in piece and root order: q(R) w for
    each root lam of w's minimal polynomial mu, q = mu / (x - lam).

    A piece is a sum of central characters with nonzero coefficients, so
    q(R) w keeps the terms of eigenvalue lam, each times q(lam) != 0.  mu is
    read from the first column without a pivot in the Krylov stack w, R w,
    R^2 w, ..., reduced that far; p pieces share m characters, so it has
    degree at most m - p + 1, and it must have that many distinct roots.
    """
    p, m = pieces.shape
    krylov = np.empty((p, m - p + 2, m), dtype=np.int64)
    krylov[:, 0] = pieces
    for k in range(1, m - p + 2):
        krylov[:, k] = krylov[:, k - 1] @ R.T % P
    stack = krylov.transpose(0, 2, 1).copy()
    has, _ = _rref_stack(stack, P, until_free=True)
    deg = has.argmin(axis=1)  # R^deg w is the first power in the span of the ones before
    d = int(deg.max())
    mu = np.zeros((p, d + 1), dtype=np.int64)  # constant first
    mu[:, :d] = -stack[np.arange(p), :d, deg] % P  # 0 from row deg on
    mu[np.arange(p), deg] = 1
    values = np.zeros((p, P), dtype=np.int64)
    for c in mu.T[::-1]:  # Horner at every lam at once
        values = (values * np.arange(P) + c[:, None]) % P
    if has.all(axis=1).any() or ((values == 0).sum(axis=1) != deg).any():
        raise CharTableError("class matrices were not simultaneously diagonalizable")
    lams = np.argsort(values != 0, axis=1, kind="stable")[:, :d]  # each piece's roots first
    q = np.zeros((p, d, d + 1), dtype=np.int64)  # synthetic division, from the top
    for k in range(d, 0, -1):
        q[:, :, k - 1] = (mu[:, k, None] + lams * q[:, :, k]) % P
    return (q[:, :, :d] @ krylov[:, :d] % P)[np.arange(d) < deg[:, None]]


def _common_eigenvectors(cls_pos, targets, P, label, seed):
    """The common eigenvectors of the class matrices mod P, each scaled to
    lead with 1.  Element x of class cls_pos[x] takes class k to class
    targets[x, k], the class of x^-1 rep_k, so a random combination R of the
    class matrices, R[t, k] = sum of r_i over the x in class i with
    targets[x, k] = t, is one scatter over the (n, m) targets.  The split
    starts from e_0, the identity class, which is sum_chi chi(1)^2 / n
    omega_chi: no coefficient vanishes, as P = 1 mod e is prime to n and
    chi(1) < P.  The combinations come from one seeded stream, and valid
    class data splits into m pieces within a few, so a failed split or 60
    combinations raise."""
    m = targets.shape[1]
    rng = _seeded_rng(seed, label, "split:0")
    pieces = np.eye(1, m, dtype=np.int64)
    try:
        for _ in range(60):
            if len(pieces) >= m:
                break
            r = np.array([rng.randrange(P) for _ in range(m)], dtype=np.int64)
            R = np.zeros((m, m), dtype=np.int64)
            np.add.at(R, (targets, np.arange(m)), r[cls_pos, None])
            pieces = _split(pieces, R % P, P)
    except CharTableError as exc:
        raise CharTableError(f"{label}: {exc} (P = {P})") from exc
    if len(pieces) == m:
        vecs = [(v * pow(int(v[v != 0][0]), -1, P) % P).tolist() for v in pieces]
        if len({tuple(v) for v in vecs}) == m:
            return vecs
    raise CharTableError(f"{label}: eigenspace splitting did not converge in 60 combinations (P = {P})")


def _choose_prime(e: int, n: int) -> int:
    P = e + 1
    while True:
        if P * P > 4 * n and is_prime(P):
            return P
        P += e


# ---------------------------------------------------------------------------
# the table itself


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Rows are characters, columns follow ``class_order`` (a permutation of
    the ClassSet indices: real classes first, then inverse pairs).  The table
    is ``coeffs``, each entry's coefficients over the power basis in one
    (m, m, phi) array, int64 from character_table (bounded as the module
    docstring says).  It is a value: the checks read it and keep nothing on
    it.  ``entries``, the array as CycInts, is read by the benchmark's
    worker alone."""

    label: str
    conductor: int
    prime: int
    class_order: tuple[int, ...]
    degrees: tuple[int, ...]
    coeffs: np.ndarray
    # the class power map in column order, (m, e): z -> z^a moves column j to
    # column chains[j, a % e]; computed again from the group when absent
    chains: Optional[np.ndarray] = field(default=None, repr=False)

    def __eq__(self, other):  # the generated == would take an array's truth value
        head = lambda T: (T.label, T.conductor, T.prime, T.class_order, T.degrees)
        same = isinstance(other, CharacterTable) and head(self) == head(other)
        return same and np.array_equal(self.coeffs, other.coeffs)

    @property
    def m(self) -> int:
        return len(self.class_order)

    @cached_property
    def entries(self) -> tuple[tuple[CycInt, ...], ...]:
        """The table as rows of CycInts, decoded from ``coeffs``."""
        return tuple(tuple(CycInt(self.conductor, tuple(z)) for z in row) for row in self.coeffs.tolist())

    @cached_property
    def norms(self) -> np.ndarray:
        """|chi_ij|_1 for every entry, as Python ints."""
        return np.abs(self.coeffs).sum(axis=-1).astype(object)


def character_table(
    G: GroupTable,
    S: ClassSet,
    split: RealComplexSplit,
    seed: int = 0,
    max_classes: int = MAX_CLASSES,
) -> CharacterTable:
    m = S.m
    if m > max_classes:
        raise OrderCapExceeded(G.label, max_classes, m, kind="class count")
    e = G.exponent
    n = G.n
    cols = split.order
    sizes = [S.classes[j].size for j in cols]
    reps = [S.classes[j].rep for j in cols]
    orders = np.array([S.classes[j].rep_order for j in cols])
    chains = _chains(G, S, cols)

    P = _choose_prime(e, n)
    cls_pos = np.argsort(cols)[np.array(S.class_of)]  # each element's column
    targets = cls_pos[G.multiply_many(np.array(G.inverse)[:, None], reps)]
    omegas = _common_eigenvectors(cls_pos, targets, P, G.label, seed)
    # each vector leads with 1, so it is the central character unless it is
    # 0 at the identity class
    if any(w[0] != 1 for w in omegas):
        raise CharTableError(f"{G.label}: a central character vanishes on the identity class (P = {P})")

    size_inv, W = [pow(h, -1, P) for h in sizes], np.array(omegas)
    roots = {r * r % P: r for r in range((P + 1) // 2)}  # each square's root below P / 2
    degrees = []
    for s in ((W * W[:, chains[:, -1]] % P * size_inv % P).sum(axis=1) % P).tolist():
        if s == 0:
            raise CharTableError(f"{G.label}: a degree sum vanished (P = {P})")
        d2 = n * pow(s, -1, P) % P
        if d2 not in roots:
            raise CharTableError(f"{G.label}: the squared degree {d2} is not a square (P = {P})")
        degrees.append(roots[d2])
    if sum(d * d for d in degrees) != n:
        raise CharTableError(f"{G.label}: degrees {degrees} are inconsistent with n={n} (P = {P})")

    # every int64 dot product here and in the splitting sums at most
    # max(e, m) products of residues; a coefficient sums at most o <= e
    # multiplicities, each at most the degree (checked below), times basis
    # entries of size at most C_e
    basis = _basis(e)
    assert max(e, m) * (P - 1) ** 2 < 2**63, (e, m, P)
    assert e * max(degrees) * basis.root_norm < 2**63, (e, max(degrees), basis.root_norm)
    inv_powers = _power_table(pow(primitive_root(P), -((P - 1) // e), P), e, P)
    degs = np.array(degrees)
    chi_mod = degs[:, None] * W % P * size_inv % P
    coeffs = np.empty((m, m, basis.phi), dtype=np.int64)
    over = []  # per block, the first (column, multiplicity, degree) with a multiplicity above the degree
    for o in sorted(set(orders.tolist())):
        # mu[i, j, k]: the multiplicity of w^(step * k) as an eigenvalue of
        # character i at rep_j, a discrete Fourier coefficient along its
        # powers; one product for the columns of order o, a block at a time
        step, k = e // o, np.arange(o)
        dft = inv_powers[np.outer(k, k) * step % e] * pow(o, -1, P) % P
        same, block = np.flatnonzero(orders == o), max(1, 2**18 // (m * o))  # 2 MB a product
        for J in (same[s : s + block] for s in range(0, len(same), block)):
            mu = chi_mod[:, chains[J, :o]] @ dft % P
            bad = np.argwhere(mu.swapaxes(0, 1) > degs[:, None])[:1]  # the block's first, in column order
            over += [(J[j], mu[i, j, t], degs[i]) for j, i, t in bad]
            coeffs[:, J] = mu @ basis.rows[step * k]
    del mu  # a block's worth, before the sort sets the peak
    if over:
        _, mu, deg = min(over)
        raise CharTableError(f"{G.label}: eigenvalue multiplicity {mu} exceeds the degree {deg} (P = {P})")
    # by degree, the trivial character first, then by coefficients
    trivial = (coeffs == basis.rows[0]).all(axis=(1, 2))
    order = sorted(range(m), key=lambda i: (degrees[i], not trivial[i], coeffs[i].tolist()))
    return CharacterTable(G.label, e, P, tuple(cols), tuple(degrees[i] for i in order), coeffs[order], chains)


def _chains(G: GroupTable, S: ClassSet, cols: Sequence[int], chains=None) -> np.ndarray:
    """``chains`` if given, else class_power_chains in the column order ``cols``:
    entry [t, a] is the column of rep^a for the class in column t."""
    return chains if chains is not None else np.argsort(cols)[class_power_chains(G, S)[list(cols)]]


def _table_images(T: CharacterTable, primes: Sequence[int], units: np.ndarray) -> np.ndarray:
    """The table mod each of ``primes`` at the unit indices ``units``, shape
    (primes, units, m, m), a fresh array."""
    m = T.m
    # only the powers of z that some entry uses take part (a rational table:
    # z^0 alone); take gives C order, on which numpy's int64 product is
    # several times faster than on what fancy indexing gives
    flat = T.coeffs.reshape(m * m, -1)
    used = np.flatnonzero(flat.any(axis=0))
    flat = flat.take(used, axis=1)
    top = np.abs(flat).max(initial=0)
    out = np.empty((len(primes), len(units), m, m), dtype=np.int64)
    for E, P in zip(out, map(int, primes)):
        vander = _embedding_maps(T.conductor, P)[0]
        # every int64 dot product here and in the checks sums at most
        # max(phi, m) products of residues, or of coefficients below P in
        # size, which are reduced first only where they are not
        assert max(vander.shape[1], m) * (P - 1) ** 2 < 2**63, (vander.shape, m, P)
        A = flat if top < P else flat % P
        E[:] = (A @ np.ascontiguousarray(vander[units][:, used].T) % P).T.reshape(len(units), m, m)
    return out


def _column_witness(T: CharacterTable, chains: np.ndarray, tests: Sequence[int]):
    """The first (a, i, j), a in ``tests``, where z -> z^a does not move
    chi_ij to column chains[j, a % e], or None.  Decided exactly on the images
    at every unit of the first primes, whose product exceeds twice (C_e + 1)
    max |chi|_1, a bound on sigma_a(chi_ij) - chi_ik."""
    e = T.conductor
    primes = _primes(e, (_basis(e).root_norm + 1) * T.norms.max(), T.label)
    E = _table_images(T, primes, np.arange(_basis(e).phi))
    for a in tests:
        moved = np.argwhere((E[:, _unit_perm(e, a)] != E.take(chains[:, a % e], axis=-1)).any(axis=(0, 1)))
        if moved.size:
            return (a, *moved[0].tolist())


def _decide_galois(G: GroupTable, S: ClassSet, T: CharacterTable) -> tuple[np.ndarray, bool]:
    """The power chains in column order, and whether the checks run at every
    unit: they need not once z -> z^g moves column j to column chains[j, g % e]
    at each generator g of (Z/e)^x, for then it does at every unit."""
    chains = _chains(G, S, T.class_order, T.chains)
    try:
        return chains, _column_witness(T, chains, unit_generators(T.conductor)) is not None
    except CharTableError:
        return chains, True


def verify_orthogonality(G: GroupTable, S: ClassSet, T: CharacterTable) -> None:
    """Row orthogonality, decided exactly on the embeddings mod P under
    B_orth; the rows imply the columns (X H X* = n I gives X* X = n H^-1).

    Once z -> z^a permutes the columns by pi_a, which keeps class sizes, the
    row relations are rational, so they are decided at u = 1, the conjugates
    read from the inverse-class column (_decide_galois)."""
    _orthogonality(G, S, T, *_decide_galois(G, S, T))


def _orthogonality(G: GroupTable, S: ClassSet, T: CharacterTable, chains: np.ndarray, every: bool) -> None:
    m, n, e = T.m, G.n, T.conductor
    sizes = np.array([S.classes[j].size for j in T.class_order])
    # by Cauchy-Schwarz, sum_j h_j |chi_aj|_1 |chi_bj|_1 is largest at some a = b
    sums = int(((T.norms * T.norms) @ sizes).max())
    primes = np.array(_primes(e, _basis(e).root_norm * sums + n, T.label))
    E = _table_images(T, primes, np.arange(_basis(e).phi if every else 1))  # index 0 is u = 1
    conj = E[:, _unit_perm(e, -1)] if every else E.take(chains[:, -1], axis=-1)
    P = primes.reshape(-1, 1, 1, 1)
    got = np.matmul(E * sizes % P, conj.swapaxes(-1, -2)) % P
    bad = (got != n * np.eye(m, dtype=np.int64) % P).any(axis=1)  # per prime
    if bad.any():
        bad |= bad.swapaxes(-1, -2)
        a, b = (int(x) for x in np.argwhere(np.triu(bad.any(axis=0)))[0])
        conj = (galois_apply(CycInt(e, tuple(y)), -1).coeffs for y in T.coeffs[b].tolist())
        got = sum(h * _cyc_mul(x, y, e) for h, x, y in zip(sizes.tolist(), T.coeffs[a].tolist(), conj))
        raise CharTableError(
            f"{T.label}: row orthogonality fails at rows {a}, {b}: got {CycInt(e, tuple(got.tolist()))}, "
            f"want {n * (a == b)} (P = {primes[bad[:, a, b].argmax()]})"
        )


@dataclass(frozen=True)
class DetReport:
    det: CycInt
    det_squared: int
    ell: int
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def det_identities(
    G: GroupTable,
    S: ClassSet,
    split: RealComplexSplit,
    T: CharacterTable,
    D: Discriminant,
) -> DetReport:
    """The determinant of the table against the discriminant.

    Checks: det^2 is a rational integer equal to ell^2 * d for a positive
    integer ell; conjugation scales det by the symbol at -1; every Galois
    automorphism z -> z^a scales det by the symbol at a, because it permutes
    the columns by the class power map; det^2 is 0 or 1 mod 4.

    The determinant is lifted under _det_bound, which holds once every
    column j has norm sum_i chi_ij * conj(chi_ij) = c_j = n / h_j; the rows
    decide that, so they are decided first, and a table whose rows fail
    raises CharTableError.

    Both run under one Galois decision (_decide_galois): once the columns
    permute, det is eliminated at u = 1 only, one matrix per prime (else at
    every unit, the rows too): det at any other u is sign(pi_u) * det at 1,
    pi_u a column of the power chains, and the Galois checks compare those
    signs with the symbol (u/G).
    """
    chains, every = _decide_galois(G, S, T)
    _orthogonality(G, S, T, chains, every)
    return _det_identities(G, S, T, D, chains, every)


def _det_identities(
    G: GroupTable, S: ClassSet, T: CharacterTable, D: Discriminant, chains: np.ndarray, every: bool
) -> DetReport:
    e, m = T.conductor, T.m
    units = np.arange(_basis(e).phi if every else 1)  # index 0 is u = 1
    centralizers = [G.n // S.classes[j].size for j in T.class_order]
    sym = symbol_character(G, S)
    tests = _basis(e).units.tolist() if every else unit_generators(e)
    det_primes = np.array(_primes(e, _det_bound(e, centralizers), T.label))
    step = max(1, 2**22 // (len(units) * m * m))  # primes per elimination, about 32 MB of images
    chunks = [det_primes[k : k + step] for k in range(0, len(det_primes), step)]
    dets = [_rref_stack(_table_images(T, c, units).reshape(-1, m, m), c.repeat(len(units)))[1] for c in chunks]
    dets = np.concatenate(dets).reshape(len(det_primes), len(units))
    if not every:  # z -> z^u permutes the columns by pi_u (_column_witness): det at u is sign(pi_u) det at 1
        pis = map(tuple, chains[:, _basis(e).units % e].T.tolist())
        dets = np.array(list(map(lru_cache(None)(permutation_parity), pis))) * dets % det_primes[:, None]
    det = _lift(e, det_primes.tolist(), dets)
    checks = []

    det2 = _cyc_mul(det.coeffs, det.coeffs, e).tolist()
    d2_ok = not any(det2[1:])
    det_squared = det2[0] if d2_ok else 0
    dval = D.value.value()
    q = det_squared // dval if d2_ok and det_squared % dval == 0 else -1
    ell = isqrt(q) if q >= 0 else 0
    ratio_ok = d2_ok and ell >= 1 and ell * ell * dval == det_squared
    checks.append(_check("det_squared_is_ell2_d", ratio_ok, f"det^2 = {CycInt(e, tuple(det2))}, d = {dval}"))

    def scales_det(a: int) -> bool:
        return not ((dets[:, _unit_perm(e, a)] - sym(a) * dets) % det_primes[:, None]).any()

    checks.append(_check("conjugate_det", scales_det(-1), f"conj(det) != ({sym(-1)}) * det"))

    moved = _column_witness(T, chains, tests) if every else None  # else the columns permute
    galois_witness = column_witness = None
    for a in tests:
        if moved and moved[0] == a:
            column_witness = "a = {}, row {}, column {}".format(*moved)
        if not scales_det(a):
            galois_witness = f"a = {a}, symbol {sym(a)}"
        if galois_witness or column_witness:
            break
    checks.append(CheckResult("galois_scales_det_by_symbol", not galois_witness, galois_witness))
    checks.append(CheckResult("galois_permutes_columns", not column_witness, column_witness))

    mod4_ok = d2_ok and det_squared % 4 in (0, 1)
    checks.append(_check("det_squared_mod_4", mod4_ok, f"det^2 = {det_squared} = {det_squared % 4} mod 4"))
    return DetReport(det=det, det_squared=det_squared, ell=ell, checks=tuple(checks))


def export_table(T: CharacterTable) -> str:
    """One line per character: entries as bracketed coefficient lists."""
    rows = (" ".join("[" + ",".join(map(str, z)) + "]" for z in row) for row in T.coeffs.tolist())
    return "".join(row + "\n" for row in rows)
