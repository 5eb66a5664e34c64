"""Exact character tables, computed modulo a prime and lifted to cyclotomic
integers.

The table of a group with m classes and exponent e lives in Z[z] with z a
primitive e-th root of unity.  We first find the m central characters as
common eigenvectors of the class-multiplication matrices over F_P, where
P = 1 mod e so F_P contains the needed roots of unity, then recover each
entry exactly: the eigenvalue multiplicities of a representation at a group
element are small nonnegative integers, so knowing them mod a large enough P
pins them down.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Optional, Sequence

from .groups import (
    ClassSet, GroupTable, OrderCapExceeded, _seeded_rng, class_power_chains, permutation_parity
)
from .ntheory import factorize, is_prime
from .reciprocity import CheckResult, Discriminant, RealComplexSplit, quadratic_symbol

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


def _conjugate(z: CycInt) -> CycInt:
    return galois_apply(z, -1)


# exact division in Z[z]: cache the inverse of a pivot as an integer
# polynomial U and a denominator D with pivot * U = D


def _frac_poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _cyc_inverse(z: CycInt) -> tuple[tuple[int, ...], int]:
    if z.is_zero():
        raise ZeroDivisionError("inverting zero")
    basis = _basis(z.e)
    r0 = [Fraction(c) for c in basis.poly]
    r1 = [Fraction(c) for c in z.coeffs]
    while len(r1) > 1 and r1[-1] == 0:
        r1.pop()
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, r = _frac_poly_divmod(r0, r1)
        # s_next = s0 - q * s1
        s_next = s0[:] + [Fraction(0)] * (len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            if qi:
                for j, sj in enumerate(s1):
                    s_next[i + j] -= qi * sj
        r0, r1 = r1, r
        s0, s1 = s1, s_next
    if len(r0) != 1:
        raise CharTableError(f"zero divisor in Z[z_{z.e}]: {z}")
    c = r0[0]
    inv = [si / c for si in s0]
    inv += [Fraction(0)] * (basis.phi - len(inv))
    denom = 1
    for f in inv:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    U = tuple(int(f * denom) for f in inv[: basis.phi])
    return U, denom


def _exact_div(num: CycInt, inv: tuple[tuple[int, ...], int]) -> CycInt:
    U, D = inv
    basis = _basis(num.e)
    prod = _coeff_mul(num.coeffs, U, basis)
    out = []
    for c in prod:
        if c % D:
            raise CharTableError("non-exact division in determinant elimination")
        out.append(c // D)
    return CycInt(num.e, tuple(out))


# ---------------------------------------------------------------------------
# linear algebra mod P


def _rref(mat: list[list[int]], P: int) -> tuple[list[list[int]], list[int]]:
    rows = [r[:] for r in mat]
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] % P), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, P)
        rows[r] = [x * inv % P for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % P for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return rows[:r], pivots


def _nullspace(mat: list[list[int]], P: int) -> list[list[int]]:
    d = len(mat)
    rref, pivots = _rref(mat, P)
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * d
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -rref[i][f] % P
        basis.append(v)
    return basis


def _mat_vec(mat: list[list[int]], v: list[int], P: int) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v)) if v[j]) % P for row in mat]


def _restrict(mat: list[list[int]], basis: list[list[int]], pivots: list[int], P: int):
    """Matrix of ``mat`` on the span of ``basis`` (which must be invariant
    and in reduced echelon form), in basis coordinates."""
    d = len(basis)
    cols = []
    for b in basis:
        w = _mat_vec(mat, b, P)
        coords = [w[p] for p in pivots]
        for t, c in enumerate(coords):
            if c:
                w = [(x - c * y) % P for x, y in zip(w, basis[t])]
        if any(w):
            raise CharTableError("subspace is not invariant; splitting is inconsistent")
        cols.append(coords)
    return [[cols[s][t] for s in range(d)] for t in range(d)]


def _det_mod(mat: list[list[int]], P: int) -> int:
    a = [r[:] for r in mat]
    d = len(a)
    det = 1
    for k in range(d):
        pivot = next((i for i in range(k, d) if a[i][k] % P), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k] % P
        inv = pow(a[k][k], -1, P)
        for i in range(k + 1, d):
            if a[i][k]:
                c = a[i][k] * inv % P
                a[i] = [(x - c * y) % P for x, y in zip(a[i], a[k])]
    return det % P


def _split_space(space, R, P):
    basis, pivots = space
    d = len(basis)
    T = _restrict(R, basis, pivots, P)
    pieces = []
    found = 0
    for lam in range(P):
        shifted = [[(T[i][j] - (lam if i == j else 0)) % P for j in range(d)] for i in range(d)]
        if _det_mod(shifted, P):
            continue
        null = _nullspace(shifted, P)
        vecs = []
        for coords in null:
            v = [0] * len(basis[0])
            for t, c in enumerate(coords):
                if c:
                    for x in range(len(v)):
                        v[x] = (v[x] + c * basis[t][x]) % P
            vecs.append(v)
        sub_rref, sub_pivots = _rref(vecs, P)
        pieces.append((sub_rref, sub_pivots))
        found += len(sub_rref)
        if found == d:
            break
    if found != d:
        raise CharTableError("class matrices were not simultaneously diagonalizable")
    return pieces


def _common_eigenvectors(Ns, P, label, seed):
    m = len(Ns)
    full = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for attempt in range(4):
        rng = _seeded_rng(seed, label, f"split:{attempt}")
        spaces = [(full, list(range(m)))]
        try:
            for _ in range(60):
                if all(len(b) == 1 for b, _ in spaces):
                    break
                coeffs = [rng.randrange(P) for _ in range(m)]
                R = [
                    [sum(coeffs[i] * Ns[i][j][k] for i in range(m)) % P for k in range(m)]
                    for j in range(m)
                ]
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
            vecs = [b[0] for b, _ in spaces]
            if len({tuple(v) for v in vecs}) == m:
                return vecs
    raise CharTableError(f"eigenspace splitting did not converge for {label!r}")


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


def _sqrt_mod(v: int, P: int) -> int:
    for r in range((P + 1) // 2):
        if r * r % P == v:
            return r
    raise CharTableError(f"{v} is not a square mod {P}")


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
    Ns = [[[0] * m for _ in range(m)] for _ in range(m)]
    for k in range(m):
        z = reps[k]
        for x in range(n):
            row = Ns[cls_pos[x]]
            row[cls_pos[G.multiply(G.inverse[x], z)]][k] += 1

    raw = _common_eigenvectors(Ns, P, G.label, seed)
    omegas = []
    for v in raw:
        if v[0] == 0:
            raise CharTableError("central character vanishes on the identity class")
        inv0 = pow(v[0], -1, P)
        omegas.append([x * inv0 % P for x in v])

    size_inv = [pow(h, -1, P) for h in sizes]
    degrees = []
    for w in omegas:
        s = sum(w[j] * w[inv_pos[j]] * size_inv[j] for j in range(m)) % P
        if s == 0:
            raise CharTableError("degree sum vanished mod P")
        d2 = n * pow(s, -1, P) % P
        degrees.append(_sqrt_mod(d2, P))
    if sum(d * d for d in degrees) != n:
        raise CharTableError(f"degrees {degrees} are inconsistent with n={n}")

    g = _primitive_root(P)
    root_e = pow(g, (P - 1) // e, P)
    inv_root_e = pow(root_e, -1, P)

    rows = []
    for w, deg in zip(omegas, degrees):
        chi_mod = [deg * w[j] * size_inv[j] % P for j in range(m)]
        row = []
        for j in range(m):
            o = rep_orders[j]
            step = e // o
            wo_inv = pow(inv_root_e, step, P)
            o_inv = pow(o, -1, P)
            entry = CycInt.integer(e, 0)
            for k in range(o):
                mu = 0
                base = pow(wo_inv, k, P)
                acc = 1
                for t in range(o):
                    mu += chi_mod[chains[j][t]] * acc
                    acc = acc * base % P
                mu = mu * o_inv % P
                if mu > deg:
                    raise CharTableError(
                        f"eigenvalue multiplicity {mu} exceeds the degree {deg}"
                    )
                if mu:
                    entry = entry + mu * CycInt.root_power(e, step * k)
            row.append(entry)
        rows.append(row)

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
    """Row and column orthogonality with exact cyclotomic arithmetic."""
    m = T.m
    n = G.n
    sizes = [S.classes[j].size for j in T.class_order]
    conj = [[_conjugate(z) for z in row] for row in T.entries]
    for i in range(m):
        for i2 in range(i, m):
            total = CycInt.integer(T.conductor, 0)
            for j in range(m):
                total = total + sizes[j] * (T.entries[i][j] * conj[i2][j])
            want = n if i == i2 else 0
            if total != want:
                raise CharTableError(
                    f"row orthogonality fails at rows {i}, {i2}: got {total}, want {want}"
                )
    for j in range(m):
        for j2 in range(j, m):
            total = CycInt.integer(T.conductor, 0)
            for i in range(m):
                total = total + T.entries[i][j] * conj[i][j2]
            want = n // sizes[j] if j == j2 else 0
            if total != want:
                raise CharTableError(
                    f"column orthogonality fails at columns {j}, {j2}: got {total}, want {want}"
                )


def _bareiss_det(M: list[list[CycInt]], e: int) -> CycInt:
    m = len(M)
    if m == 0:
        return CycInt.integer(e, 1)
    A = [row[:] for row in M]
    sign = 1
    prev_inv: Optional[tuple[tuple[int, ...], int]] = None
    for k in range(m - 1):
        if A[k][k].is_zero():
            swap = next((r for r in range(k + 1, m) if not A[r][k].is_zero()), None)
            if swap is None:
                return CycInt.integer(e, 0)
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                num = A[k][k] * A[i][j] - A[i][k] * A[k][j]
                A[i][j] = num if prev_inv is None else _exact_div(num, prev_inv)
        prev_inv = _cyc_inverse(A[k][k])
    det = A[m - 1][m - 1]
    return det if sign == 1 else -det


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
    """
    from math import isqrt

    e = T.conductor
    m = T.m
    det = _bareiss_det([list(row) for row in T.entries], e)
    checks = []

    d2_ok = (det * det).is_rational()
    det_squared = (det * det).to_int() if d2_ok else 0
    ell = 0
    dval = D.value.value()
    if d2_ok and det_squared % dval == 0:
        q, rem = divmod(det_squared, dval)
        ell = isqrt(q) if q >= 0 else 0
    ratio_ok = d2_ok and ell >= 1 and ell * ell * dval == det_squared
    checks.append(
        CheckResult(
            "det_squared_is_ell2_d",
            ratio_ok,
            None if ratio_ok else f"det^2 = {det * det}, d = {dval}",
        )
    )

    sym_minus1 = quadratic_symbol(G, S, -1)
    conj_ok = _conjugate(det) == det * sym_minus1
    checks.append(
        CheckResult(
            "conjugate_det",
            conj_ok,
            None if conj_ok else f"conj(det) != ({sym_minus1}) * det",
        )
    )

    rep_orders = [S.classes[j].rep_order for j in T.class_order]
    pos = {j: t for t, j in enumerate(T.class_order)}
    native_chains = class_power_chains(G, S)
    chains = [tuple(pos[c] for c in native_chains[j]) for j in T.class_order]
    units = [a for a in range(1, e + 1) if gcd(a, e) == 1]
    galois_ok = True
    column_ok = True
    galois_witness = column_witness = None
    for a in units:
        colmap = [chains[j][a % rep_orders[j]] for j in range(m)]
        for i in range(m):
            for j in range(m):
                img = galois_apply(T.entries[i][j], a)
                if img != T.entries[i][colmap[j]]:
                    column_ok = False
                    column_witness = f"a = {a}, row {i}, column {j}"
                    break
            if not column_ok:
                break
        sym = permutation_parity(colmap)
        if galois_apply(det, a) != det * sym:
            galois_ok = False
            galois_witness = f"a = {a}, symbol {sym}"
        if not (galois_ok and column_ok):
            break
    checks.append(CheckResult("galois_scales_det_by_symbol", galois_ok, galois_witness))
    checks.append(CheckResult("galois_permutes_columns", column_ok, column_witness))

    mod4_ok = d2_ok and det_squared % 4 in (0, 1)
    checks.append(
        CheckResult(
            "det_squared_mod_4",
            mod4_ok,
            None if mod4_ok else f"det^2 = {det_squared} = {det_squared % 4} mod 4",
        )
    )
    return DetReport(det=det, det_squared=det_squared, ell=ell, checks=tuple(checks))


def export_table(T: CharacterTable) -> str:
    """One line per character: entries as bracketed coefficient lists."""
    lines = []
    for row in T.entries:
        lines.append(" ".join("[" + ",".join(str(c) for c in z.coeffs) + "]" for z in row))
    return "\n".join(lines) + "\n"
