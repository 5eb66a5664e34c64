"""Exact character tables, computed modulo a prime and lifted to cyclotomic
integers.

The table of a group with m classes and exponent e lives in Z[z] with z a
primitive e-th root of unity.  We first find the m central characters as
common eigenvectors of the class-multiplication matrices over F_P, where
P = 1 mod e so F_P contains the needed roots of unity, then recover each
entry exactly: the eigenvalue multiplicities of a representation at a group
element are small nonnegative integers, so knowing them mod a large enough P
pins them down.

The identities on a table are decided without arithmetic in Z[z]: for primes
P = 1 mod e below 2^24, Phi_e splits mod P into the factors X - w^u (w of
order e, u a unit mod e), so the phi(e) images under z -> w^u identify Z[z]/P
with F_P^phi.  An element with coefficients of size at most B vanishes once
its images vanish mod primes with product Q > 2B, and is recovered from them
by interpolation and CRT.  With C_e = max over k of |z^k|_1, the determinant
takes B_det = C_e * prod_i sum_j |chi_ij|_1 (Leibniz), orthogonality B_orth =
C_e * max sum_j h_j |chi_ij|_1 |chi_i2j|_1 + n, and z -> z^a moves the image
at u to the image at u * a, which decides the Galois checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, prod
from typing import Optional, Sequence

import numpy as np

from .groups import (
    ClassSet, GroupTable, OrderCapExceeded, _seeded_rng, class_power_chains, permutation_parity
)
from .ntheory import factorize, is_prime
from .reciprocity import CheckResult, Discriminant, RealComplexSplit, _check, quadratic_symbol

MAX_CLASSES = 16


class CharTableError(RuntimeError):
    """The modular computation failed or an exactness check broke."""


# ---------------------------------------------------------------------------
# cyclotomic integers


def _poly_divmod_int(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # integer polynomial division; den must be monic
    num = num[:]
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients of the e-th cyclotomic polynomial, constant term first."""
    if e < 1:
        raise ValueError(f"conductor must be positive, got {e}")
    if e == 1:
        return (-1, 1)
    num = [0] * (e + 1)
    num[0] = -1
    num[e] = 1
    poly = num
    for d in range(1, e):
        if e % d == 0:
            poly, rem = _poly_divmod_int(poly, list(cyclotomic_polynomial(d)))
            if any(rem[1:]) or rem[0] != 0:
                raise CharTableError(f"cyclotomic division left a remainder at e={e}, d={d}")
    return tuple(poly)


class _CycBasis:
    """Reduction data for Z[z]/Phi_e(z): powers of z as coefficient rows."""

    def __init__(self, e: int):
        self.e = e
        poly = cyclotomic_polynomial(e)
        self.phi = len(poly) - 1
        self.poly = poly
        top = [-c for c in poly[: self.phi]]  # z^phi in the power basis
        rows: list[tuple[int, ...]] = []
        for k in range(self.phi):
            row = [0] * self.phi
            row[k] = 1
            rows.append(tuple(row))
        limit = max(e - 1, 2 * self.phi - 2)
        for _ in range(self.phi, limit + 1):
            prev = rows[-1]
            row = [0] * self.phi
            for t in range(1, self.phi):
                row[t] = prev[t - 1]
            lead = prev[self.phi - 1]
            if lead:
                for t in range(self.phi):
                    row[t] += lead * top[t]
            rows.append(tuple(row))
        self.pow_rows = tuple(rows)
        self.root_norm = max(sum(map(abs, row)) for row in rows[:e])  # C_e


@lru_cache(maxsize=None)
def _basis(e: int) -> _CycBasis:
    return _CycBasis(e)


def _reduce_product(prod: list[int], basis: _CycBasis) -> tuple[int, ...]:
    phi = basis.phi
    out = list(prod[:phi])
    while len(out) < phi:
        out.append(0)
    for k in range(phi, len(prod)):
        c = prod[k]
        if c:
            row = basis.pow_rows[k]
            for t in range(phi):
                out[t] += c * row[t]
    return tuple(out)


def _coeff_mul(a: Sequence[int], b: Sequence[int], basis: _CycBasis) -> tuple[int, ...]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] += ai * bj
    return _reduce_product(prod, basis)


@dataclass(frozen=True, eq=False)
class CycInt:
    """An element of Z[z], z a primitive e-th root of unity, as phi(e)
    integer coordinates over the power basis 1, z, ..., z^(phi-1).

    The representation is unique, so an element is a rational integer
    exactly when every coordinate past the constant one vanishes.
    """

    e: int
    coeffs: tuple[int, ...]

    @staticmethod
    def integer(e: int, v: int) -> "CycInt":
        phi = _basis(e).phi
        return CycInt(e, (v,) + (0,) * (phi - 1))

    @staticmethod
    def root_power(e: int, k: int) -> "CycInt":
        return CycInt(e, _basis(e).pow_rows[k % e])

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_int(self) -> int:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def _coerce(self, other) -> Optional["CycInt"]:
        if isinstance(other, int):
            return CycInt.integer(self.e, other)
        if isinstance(other, CycInt):
            if other.e != self.e:
                raise ValueError(f"mixed conductors {self.e} and {other.e}")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.e, tuple(x + y for x, y in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.e, tuple(x - y for x, y in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return CycInt(self.e, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.e, tuple(x * other for x in self.coeffs))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt(self.e, _coeff_mul(self.coeffs, o.coeffs, _basis(self.e)))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, CycInt):
            return self.e == other.e and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.e, self.coeffs))

    def __str__(self):
        if self.is_rational():
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
    coprime to e."""
    e = z.e
    b = a % e
    if gcd(b, e) != 1:
        raise ValueError(f"{a} is not coprime to the conductor {e}")
    basis = _basis(e)
    acc = [0] * basis.phi
    for i, c in enumerate(z.coeffs):
        if c:
            row = basis.pow_rows[i * b % e]
            for t in range(basis.phi):
                acc[t] += c * row[t]
    return CycInt(e, tuple(acc))


# ---------------------------------------------------------------------------
# Galois embeddings mod P


@lru_cache(maxsize=None)
def _units(e: int) -> tuple[int, ...]:
    return tuple(a for a in range(1, e + 1) if gcd(a, e) == 1)


def _unit_perm(e: int, a: int) -> np.ndarray:
    """Embedding index t -> index of units[t] * a: the action of z -> z^a."""
    units = _units(e)
    index = {u % e: t for t, u in enumerate(units)}
    return np.array([index[u * a % e] for u in units])


@lru_cache(maxsize=None)
def _embedding_prime(e: int, k: int) -> Optional[int]:
    """The k-th largest prime P = 1 mod e below 2^24, or None if there are fewer."""
    top = (1 << 24) - 1 if k == 0 else _embedding_prime(e, k - 1) - 1
    P = top - (top - 1) % e
    while P > e and not is_prime(P):
        P -= e
    return P if P > e else None


def _embedding_maps(e: int, P: int) -> tuple[np.ndarray, np.ndarray]:
    """vander[t, k] = w^(units[t] * k) mod P, which maps the power basis to
    the images, and its inverse mod P."""
    basis = _basis(e)
    phi = basis.phi
    w = pow(_primitive_root(P), (P - 1) // e, P)
    powers = np.array([pow(w, t, P) for t in range(e)], dtype=np.int64)
    units = np.array(_units(e))
    vander = powers[np.outer(units, np.arange(phi)) % e]
    # Lagrange: column t is (Phi_e / (X - x_t)) / Phi_e'(x_t), the quotient
    # by synthetic division and Phi_e'(x_t) as that quotient at x_t
    x = powers[units % e]
    quot = np.empty((phi, phi), dtype=np.int64)
    quot[phi - 1] = 1
    for c in range(phi - 1, 0, -1):
        quot[c - 1] = (basis.poly[c] + x * quot[c]) % P
    deriv = np.zeros(phi, dtype=np.int64)
    for c in range(phi - 1, -1, -1):
        deriv = (deriv * x + quot[c]) % P
    return vander, quot * np.array([pow(d, -1, P) for d in deriv.tolist()]) % P


def _images(rows: Sequence[Sequence[CycInt]], e: int, bound: int, label: str):
    """For each prime P = 1 mod e in turn, at least one and until their
    product exceeds 2 * bound: P, the interpolation matrix mod P, and E
    with E[t] the matrix ``rows`` under z -> w^units[t] mod P."""
    m = len(rows)
    phi = _basis(e).phi
    entries = [z.coeffs for row in rows for z in row]
    try:
        coeffs = np.array(entries, dtype=np.int64).reshape(m * m, phi)
    except OverflowError:  # reduced per prime as Python ints
        coeffs = np.array(entries, dtype=object).reshape(m * m, phi)
    Q, P, k = 1, None, 0
    while k == 0 or Q <= 2 * bound:
        if _embedding_prime(e, k) is None:
            raise CharTableError(f"{label}: too few primes 1 mod {e} below 2^24 (last P = {P})")
        P = _embedding_prime(e, k)
        # every int64 dot product below sums at most max(phi, m) products
        assert max(phi, m) * (P - 1) ** 2 < 2**63, (phi, m, P)
        vander, interp = _embedding_maps(e, P)
        E = vander @ (coeffs % P).astype(np.int64, copy=False).T
        E %= P
        yield P, interp, E.reshape(phi, m, m)
        Q, k = Q * P, k + 1


def _det_stack(A: np.ndarray, P: int) -> np.ndarray:
    """Determinants mod P of a stack of square matrices, which it overwrites,
    by fraction-free elimination on all of them at once.  Clearing column k
    multiplies each later row by the pivot p_k, so det = prod p_k / prod_k
    p_k^(m-1-k), that denominator being the product of the running products.
    """
    A %= P
    b, m, _ = A.shape
    stack = np.arange(b)
    pivots, scale = np.ones(b, dtype=np.int64), np.ones(b, dtype=np.int64)
    odd = np.zeros(b, dtype=bool)  # an odd number of row swaps
    for k in range(m):
        piv = k + (A[:, k:, k] != 0).argmax(axis=1)  # k itself when the column is zero
        A[stack, k], A[stack, piv] = A[stack, piv], A[stack, k]
        odd ^= piv != k
        f = A[:, k + 1 :, k].copy()
        rest = A[:, k + 1 :, k:]
        rest *= A[:, k, k, None, None]
        rest -= f[:, :, None] * A[:, None, k, k:]
        rest %= P
        scale = scale * pivots % P
        pivots = pivots * A[:, k, k] % P
    det = pivots * np.array([pow(s, P - 2, P) for s in scale.tolist()]) % P  # 0 stays 0
    return np.where(odd, (P - det) % P, det)


def _l1(z: CycInt) -> int:
    return sum(map(abs, z.coeffs))


def _modular_det(rows: Sequence[Sequence[CycInt]], e: int, label: str):
    """The determinant of a square matrix over Z[z], with the primes and the
    images of the determinant it was lifted from.

    The bound is B_det = C_e * prod_i sum_j |M_ij|_1, with C_e the largest
    |z^k|_1 over k < e: the Leibniz expansion, its exponents taken mod e and
    then reduced once, bounds both |det|_1 and |sigma_a(det)|_1 by it.
    """
    bound = _basis(e).root_norm * prod(sum(map(_l1, row)) for row in rows)
    coeffs, Q, primes, images = [0] * _basis(e).phi, 1, [], []
    for P, interp, E in _images(rows, e, bound, label):
        images.append(_det_stack(E, P))
        residues = (interp @ images[-1] % P).tolist()
        t = pow(Q, -1, P)
        coeffs = [x + Q * ((r - x) * t % P) for x, r in zip(coeffs, residues)]
        Q *= P
        primes.append(P)
    det = CycInt(e, tuple(x - Q if 2 * x > Q else x for x in coeffs))
    return det, np.array(primes), np.array(images)


# ---------------------------------------------------------------------------
# linear algebra mod P


def _rref(mat, P: int) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows of the reduced row echelon form mod P, and the pivot
    columns."""
    A = np.array(mat, dtype=np.int64) % P
    pivots: list[int] = []
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


def _nullspace(mat: np.ndarray, P: int) -> np.ndarray:
    rref, pivots = _rref(mat, P)
    free = [c for c in range(rref.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), rref.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -rref[:, free].T % P
    return basis


def _restrict(R: np.ndarray, basis: np.ndarray, pivots: list[int], P: int) -> np.ndarray:
    """Matrix of ``R`` on the span of ``basis`` (which must be invariant
    and in reduced echelon form), in basis coordinates."""
    images = basis @ R.T % P
    coords = images[:, pivots]
    if ((images - coords @ basis) % P).any():
        raise CharTableError("subspace is not invariant; splitting is inconsistent")
    return coords.T


def _split_space(space, R, P):
    basis, pivots = space
    d = len(basis)
    T = _restrict(R, basis, pivots, P)
    eye = np.eye(d, dtype=np.int64)
    pieces = []
    found = 0
    for lam in range(P):
        if lam % 16 == 0:  # det(T - lam) for the next 16 values at once
            dets = _det_stack(T - np.arange(lam, min(lam + 16, P))[:, None, None] * eye, P)
        if dets[lam % 16]:
            continue
        sub_rref, sub_pivots = _rref(_nullspace((T - lam * eye) % P, P) @ basis % P, P)
        pieces.append((sub_rref, sub_pivots))
        found += len(sub_rref)
        if found == d:
            break
    if found != d:
        raise CharTableError("class matrices were not simultaneously diagonalizable")
    return pieces


def _common_eigenvectors(Ns, P, label, seed):
    m = len(Ns)
    for attempt in range(4):
        rng = _seeded_rng(seed, label, f"split:{attempt}")
        spaces = [(np.eye(m, dtype=np.int64), list(range(m)))]
        try:
            for _ in range(60):
                if all(len(b) == 1 for b, _ in spaces):
                    break
                R = np.tensordot([rng.randrange(P) for _ in range(m)], Ns, 1) % P
                refined = []
                for space in spaces:
                    if len(space[0]) == 1:
                        refined.append(space)
                    else:
                        refined.extend(_split_space(space, R, P))
                spaces = refined
        except CharTableError:
            continue
        if all(len(b) == 1 for b, _ in spaces):
            vecs = [b[0].tolist() for b, _ in spaces]
            if len({tuple(v) for v in vecs}) == m:
                return vecs
    raise CharTableError(f"{label}: eigenspace splitting did not converge in 4 attempts (P = {P})")


def _choose_prime(e: int, n: int) -> int:
    P = e + 1
    while True:
        if P * P > 4 * n and is_prime(P):
            return P
        P += e


def _primitive_root(P: int) -> int:
    if P == 2:
        return 1
    prime_parts = [p for p, _ in factorize(P - 1).factors]
    for g in range(2, P):
        if all(pow(g, (P - 1) // p, P) != 1 for p in prime_parts):
            return g
    raise CharTableError(f"no primitive root mod {P}")


# ---------------------------------------------------------------------------
# the table itself


@dataclass(frozen=True)
class CharacterTable:
    """Rows are characters, columns follow ``class_order`` (a permutation of
    the ClassSet indices: real classes first, then inverse pairs)."""

    label: str
    conductor: int
    prime: int
    class_order: tuple[int, ...]
    degrees: tuple[int, ...]
    entries: tuple[tuple[CycInt, ...], ...]

    @property
    def m(self) -> int:
        return len(self.class_order)


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
    pos = {j: t for t, j in enumerate(cols)}
    sizes = [S.classes[j].size for j in cols]
    reps = [S.classes[j].rep for j in cols]
    rep_orders = [S.classes[j].rep_order for j in cols]
    inv_pos = [pos[S.inverse_class[j]] for j in cols]
    native_chains = class_power_chains(G, S)
    chains = [tuple(pos[c] for c in native_chains[j]) for j in cols]

    P = _choose_prime(e, n)
    cls_pos = [pos[S.class_of[x]] for x in range(n)]
    Ns = np.zeros((m, m, m), dtype=np.int64)
    for k in range(m):
        targets = [cls_pos[G.multiply(G.inverse[x], reps[k])] for x in range(n)]
        np.add.at(Ns[:, :, k], (cls_pos, targets), 1)

    raw = _common_eigenvectors(Ns, P, G.label, seed)
    omegas = []
    for v in raw:
        if v[0] == 0:
            raise CharTableError(
                f"{G.label}: a central character vanishes on the identity class (P = {P})"
            )
        inv0 = pow(v[0], -1, P)
        omegas.append([x * inv0 % P for x in v])

    size_inv = [pow(h, -1, P) for h in sizes]
    degrees = []
    for w in omegas:
        s = sum(w[j] * w[inv_pos[j]] * size_inv[j] for j in range(m)) % P
        if s == 0:
            raise CharTableError(f"{G.label}: a degree sum vanished (P = {P})")
        d2 = n * pow(s, -1, P) % P
        deg = next((r for r in range((P + 1) // 2) if r * r % P == d2), None)
        if deg is None:
            raise CharTableError(f"{G.label}: the squared degree {d2} is not a square (P = {P})")
        degrees.append(deg)
    if sum(d * d for d in degrees) != n:
        raise CharTableError(f"{G.label}: degrees {degrees} are inconsistent with n={n} (P = {P})")

    # every int64 dot product here and in the splitting sums at most
    # max(e, m) products of residues
    assert max(e, m) * (P - 1) ** 2 < 2**63, (e, m, P)
    inv_root_e = pow(_primitive_root(P), -((P - 1) // e), P)
    inv_powers = np.array([pow(inv_root_e, t, P) for t in range(e)], dtype=np.int64)
    basis = _basis(e)
    chi_mod = np.array(
        [[deg * w[j] * size_inv[j] % P for j in range(m)] for w, deg in zip(omegas, degrees)],
        dtype=np.int64,
    )
    degs = np.array(degrees)
    coeffs = np.empty((m, m, basis.phi), dtype=np.int64)
    for j in range(m):
        # mu[i, k]: the multiplicity of w^(step * k) as an eigenvalue of
        # character i at rep_j, a discrete Fourier coefficient along its powers
        o = rep_orders[j]
        step, k = e // o, np.arange(o)
        mu = chi_mod[:, chains[j]] @ inv_powers[np.outer(k, k) * step % e] % P
        mu = mu * pow(o, -1, P) % P
        over = np.argwhere(mu > degs[:, None])
        if over.size:
            i, t = over[0]
            raise CharTableError(
                f"{G.label}: eigenvalue multiplicity {mu[i, t]} exceeds the degree {degs[i]} "
                f"(P = {P})"
            )
        coeffs[:, j] = mu @ np.array([basis.pow_rows[step * t] for t in range(o)])
    rows = [[CycInt(e, tuple(z)) for z in row] for row in coeffs.tolist()]

    order_key = lambda pair: (
        pair[0],
        0 if all(z == 1 for z in pair[1]) else 1,
        tuple(z.coeffs for z in pair[1]),
    )
    paired = sorted(zip(degrees, rows), key=order_key)
    return CharacterTable(
        label=G.label,
        conductor=e,
        prime=P,
        class_order=tuple(cols),
        degrees=tuple(d for d, _ in paired),
        entries=tuple(tuple(r) for _, r in paired),
    )


def verify_orthogonality(G: GroupTable, S: ClassSet, T: CharacterTable) -> None:
    """Row and column orthogonality, decided exactly on the embeddings mod P
    under B_orth, which bounds the row and the column relations alike."""
    m, n, e = T.m, G.n, T.conductor
    sizes = np.array([S.classes[j].size for j in T.class_order])
    norms = np.array([[_l1(z) for z in row] for row in T.entries], dtype=object)
    sums = max(((norms * sizes) @ norms.T).max(), (norms.T @ norms).max())
    wants = {"row": n * np.eye(m, dtype=np.int64), "column": np.diag(n // sizes)}
    found = list(_images(T.entries, e, _basis(e).root_norm * sums + n, T.label))
    primes = np.array([P for P, _, _ in found])
    E = np.stack([E for _, _, E in found])
    P = primes.reshape(-1, 1, 1, 1)
    # the relations at -u are the transposes of those at u: half the units do
    half = [t for t, u in enumerate(_units(e)) if 2 * (u % e) <= e]
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
    the columns by the class power map; det^2 is 0 or 1 mod 4.  The Galois
    checks compare images: z -> z^a moves the image at unit u to u * a.
    """
    e = T.conductor
    m = T.m
    det, primes, s = _modular_det(T.entries, e, T.label)
    checks = []

    det2 = det * det
    d2_ok = det2.is_rational()
    det_squared = det2.to_int() if d2_ok else 0
    ell = 0
    dval = D.value.value()
    if d2_ok and det_squared % dval == 0:
        q, rem = divmod(det_squared, dval)
        ell = isqrt(q) if q >= 0 else 0
    ratio_ok = d2_ok and ell >= 1 and ell * ell * dval == det_squared
    checks.append(_check("det_squared_is_ell2_d", ratio_ok, f"det^2 = {det2}, d = {dval}"))

    def scales_det(a: int, sym: int) -> bool:
        return not ((s[:, _unit_perm(e, a)] - sym * s) % primes[:, None]).any()

    sym_minus1 = quadratic_symbol(G, S, -1)
    conj_ok = scales_det(-1, sym_minus1)
    checks.append(_check("conjugate_det", conj_ok, f"conj(det) != ({sym_minus1}) * det"))

    rep_orders = [S.classes[j].rep_order for j in T.class_order]
    pos = {j: t for t, j in enumerate(T.class_order)}
    native_chains = class_power_chains(G, S)
    chains = [tuple(pos[c] for c in native_chains[j]) for j in T.class_order]
    # sigma_a(chi_ij) - chi_ik has coefficients below 2 * C_e * max |chi|_1
    col_bound = _basis(e).root_norm * max(_l1(z) for row in T.entries for z in row)
    E = np.stack([E for _, _, E in _images(T.entries, e, col_bound, T.label)])
    galois_witness = column_witness = None
    for a in _units(e):
        colmap = [chains[j][a % rep_orders[j]] for j in range(m)]
        moved = (E[:, _unit_perm(e, a)] != E[..., colmap]).reshape(-1, m * m).any(axis=0)
        if moved.any():
            i, j = divmod(int(moved.argmax()), m)
            column_witness = f"a = {a}, row {i}, column {j}"
        sym = permutation_parity(colmap)
        if not scales_det(a, sym):
            galois_witness = f"a = {a}, symbol {sym}"
        if galois_witness or column_witness:
            break
    checks.append(CheckResult("galois_scales_det_by_symbol", not galois_witness, galois_witness))
    checks.append(CheckResult("galois_permutes_columns", not column_witness, column_witness))

    mod4_ok = d2_ok and det_squared % 4 in (0, 1)
    checks.append(
        _check("det_squared_mod_4", mod4_ok, f"det^2 = {det_squared} = {det_squared % 4} mod 4")
    )
    return DetReport(det=det, det_squared=det_squared, ell=ell, checks=tuple(checks))


def export_table(T: CharacterTable) -> str:
    """One line per character: entries as bracketed coefficient lists."""
    lines = []
    for row in T.entries:
        lines.append(" ".join("[" + ",".join(str(c) for c in z.coeffs) + "]" for z in row))
    return "\n".join(lines) + "\n"
