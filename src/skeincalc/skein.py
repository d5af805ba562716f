"""Kauffman-bracket skein of the solid torus at an odd prime p.

The skein of a genus-one handlebody is a polynomial ring in the core curve z;
we expand everything in the z-basis with coefficients in O_p[1/p].  The
Chebyshev elements e_k diagonalize the full-twist map, which is what makes
framing changes and the surgery element computable.

Conventions (all verified by the test suite):
  * bracket normalization: empty diagram 1, each unknot delta = -A^2 - A^(-2);
  * A is the primitive 2p-th root zeta_N**(N/2p) of the ring at p;
  * the twist acts on e_k by (-1)^k A^(k^2 + 2k);
  * the surgery element is omega(p) = sum of (-1)^k [k+1] e_k.

Every bracket of +1-twisted cables, L(f) = plane_eval(twist(f, 1)), is read
off the values of f at the points z_j = -(A^2j + A^-2j), j = 1 .. (p-1)/2,
with the closed-form weights of hopf_points.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclotomic import CycInt, CycNum, from_int, ring_modulus, root
from .errors import ModulusMismatchError, UnsupportedPrimeError


def A_power(p: int, e: int) -> CycInt:
    """A**e where A = zeta_N**(N/2p) is the primitive 2p-th root at p."""
    N = ring_modulus(p)
    return root(N, e * (N // (2 * p)))


@lru_cache(maxsize=None)
def delta(p: int) -> CycInt:
    """Loop value of the bracket: one unknot contributes -A^2 - A^(-2)."""
    return -(A_power(p, 2) + A_power(p, -2))


@lru_cache(maxsize=None)
def quantum_int(p: int, k: int) -> CycInt:
    """[k] = (A^2k - A^-2k) / (A^2 - A^-2) = sum over i < k of A^(2(k-1-2i))."""
    if k < 1:
        raise ValueError("quantum integers are defined for k >= 1")
    # A^2 = zeta_N^(N/p); the powers are reduced modulo Phi_N once
    N = ring_modulus(p)
    coeffs = [0] * N
    for i in range(k):
        coeffs[(k - 1 - 2 * i) * (N // p) % N] += 1
    return CycInt.from_poly(N, coeffs)


def _as_cycnum(p: int, value) -> CycNum:
    N = ring_modulus(p)
    if isinstance(value, CycNum):
        if value.modulus != N or value.p != p:
            raise ModulusMismatchError(f"coefficient does not live in the ring for p={p}")
        return value
    if isinstance(value, CycInt):
        if value.modulus != N:
            raise ModulusMismatchError(f"coefficient does not live in the ring for p={p}")
        return CycNum(value, p, 0)
    if isinstance(value, int):
        return CycNum(from_int(N, value), p, 0)
    raise TypeError(f"cannot use {type(value).__name__} as a skein coefficient")


class SkeinElem:
    """Polynomial in the core curve z with coefficients in O_p[1/p].

    Coefficients may be given as CycNum, CycInt or int; trailing zeros are
    trimmed so the degree is canonical (-1 for the zero element).
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()) -> None:
        cs = [_as_cycnum(p, c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _coerce(self, other):
        if isinstance(other, SkeinElem):
            if other.p != self.p:
                raise ModulusMismatchError("skein elements at different primes")
            return other
        if isinstance(other, (CycNum, CycInt, int)):
            return SkeinElem(self.p, [other])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return SkeinElem(self.p, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return SkeinElem(self.p, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (CycNum, CycInt, int)):
            c = _as_cycnum(self.p, other)
            return SkeinElem(self.p, [a * c for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return SkeinElem(self.p)
        out = [_as_cycnum(self.p, 0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return SkeinElem(self.p, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"SkeinElem(p={self.p}, coeffs={list(self.coeffs)})"

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            body = str(c)
            if " " in body or "/" in body:
                body = f"({body})"
            if j == 0:
                terms.append(body)
            elif body == "1":
                terms.append("z" if j == 1 else f"z^{j}")
            else:
                terms.append(f"{body}·z" if j == 1 else f"{body}·z^{j}")
        return " + ".join(terms)

    def substitute(self, value) -> CycNum:
        """Evaluate at z = value, a CycNum, CycInt or int (Horner)."""
        value = _as_cycnum(self.p, value)
        acc = _as_cycnum(self.p, 0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def to_json(self) -> dict:
        return {"p": self.p, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "SkeinElem":
        return cls(data["p"], [CycNum.from_json(c) for c in data["coeffs"]])


@lru_cache(maxsize=None)
def chebyshev_e(p: int, k: int) -> SkeinElem:
    """e_0 = 1, e_1 = z, e_(k+1) = z e_k - e_(k-1), in the z-basis."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return SkeinElem(p, [1])
    if k == 1:
        return SkeinElem(p, [0, 1])
    z = SkeinElem(p, [0, 1])
    return z * chebyshev_e(p, k - 1) - chebyshev_e(p, k - 2)


def plane_eval(x: SkeinElem) -> CycNum:
    """Embed the solid torus in the plane: z becomes an unknot, so z -> delta."""
    return x.substitute(_as_cycnum(x.p, delta(x.p)))


@lru_cache(maxsize=None)
def omega(p: int) -> SkeinElem:
    """Surgery element at p: sum over k <= (p-3)/2 of (-1)^k [k+1] e_k."""
    out = SkeinElem(p)
    for k in range((p - 3) // 2 + 1):
        term = chebyshev_e(p, k) * quantum_int(p, k + 1)
        out = out + (term if k % 2 == 0 else -term)
    return out


@lru_cache(maxsize=None)
def _z_to_e_rows(deg: int) -> tuple[tuple[int, ...], ...]:
    """rows[j][k] = integer coefficient of e_k in z**j (ballot-number table)."""
    rows = [(1,)]
    for j in range(deg):
        prev = rows[-1]
        row = []
        for k in range(j + 2):
            left = prev[k - 1] if k - 1 >= 0 and k - 1 < len(prev) else 0
            right = prev[k + 1] if k + 1 < len(prev) else 0
            row.append(left + right)
        rows.append(tuple(row))
    return tuple(rows)


def twist_eigenvalue(p: int, k: int, e: int = 1) -> CycInt:
    """e-th power of the twist eigenvalue (-1)^k A^(k^2+2k) on e_k."""
    sign = -1 if (k * e) % 2 else 1
    return sign * A_power(p, e * k * (k + 2))


def twist(x: SkeinElem, e: int) -> SkeinElem:
    """Apply e full twists: diagonal on the e_k basis, then back to z."""
    if x.is_zero:
        return x
    p = x.p
    rows = _z_to_e_rows(x.degree)
    e_coeffs = [_as_cycnum(p, 0) for _ in range(x.degree + 1)]
    for j, cj in enumerate(x.coeffs):
        for k, r in enumerate(rows[j]):
            if r:
                e_coeffs[k] = e_coeffs[k] + cj * r
    out = SkeinElem(p)
    for k, ck in enumerate(e_coeffs):
        if not ck.is_zero:
            out = out + chebyshev_e(p, k) * (ck * twist_eigenvalue(p, k, e))
    return out


@lru_cache(maxsize=None)
def hopf_points(p: int) -> tuple[tuple[CycInt, CycNum], ...]:
    """The pairs (z_j, w_j), j = 1 .. (p-1)/2, with L(f) = sum of w_j f(z_j).

    L(f) = plane_eval(twist(f, 1)).  A -1-framed omega around the strands
    of f applies one positive full twist to them and scales by
    plane_eval(twist(omega, -1)), whose inverse is
    eta^2 * plane_eval(twist(omega, 1)).  Writing twist(omega, -1) in the
    e-basis, its e_(j-1) coefficient is [j] A^(1-j^2), and f encircling e_(j-1)
    evaluates to f(z_j) (-1)^(j-1) [j] with z_j = -(A^2j + A^-2j).  So
    w_j = eta^2 plane_eval(twist(omega, 1)) (-1)^(j-1) A^(1-j^2) [j]^2.
    """
    scale = eta_squared(p) * plane_eval(twist(omega(p), 1))
    out = []
    for j in range(1, (p - 1) // 2 + 1):
        z = -(A_power(p, 2 * j) + A_power(p, -2 * j))
        w = scale * (A_power(p, 1 - j * j) * quantum_int(p, j) ** 2)
        out.append((z, w if j % 2 else -w))
    return tuple(out)


@lru_cache(maxsize=None)
def hopf_bracket(p: int, n: int) -> CycInt:
    """Bracket H_n of n Hopf fibers, all framings +1 and pairwise linking +1.

    H_n = L(z^n) = sum of w_j z_j^n over hopf_points(p); the sum is checked
    to be integral.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    total = _as_cycnum(p, 0)
    for z, w in hopf_points(p):
        total = total + w * z ** n
    return total.as_integral()


_ETA_EXACT = {
    # 1/5 (2 zeta20 + zeta20^3 + zeta20^5 - 3 zeta20^7)
    5: ((0, 2, 0, 1, 0, 1, 0, -3), 1),
    # 1/7 (-2 - zeta14^2 - 2 zeta14^3 + 2 zeta14^4 + zeta14^5)
    7: ((-2, 0, -1, -2, 2, 1), 1),
}


def eta(p: int) -> CycNum:
    """The signed normalization scalar; pinned exactly only at p = 5 and 7.

    Both constants satisfy eta * plane_eval(twist(omega, 1)) = kappa (a
    +1-surgered unknot is a sphere of weight one) and square to eta_squared.
    For other primes only the square is determined by the normalization
    (see eta_squared); requesting the signed value raises.
    """
    if p not in _ETA_EXACT:
        raise UnsupportedPrimeError(
            f"signed eta is pinned only for p in {{5, 7}}; use eta_squared for p={p}")
    coeffs, k = _ETA_EXACT[p]
    return CycNum(CycInt(ring_modulus(p), coeffs), p, k)


@lru_cache(maxsize=None)
def eta_squared(p: int) -> CycNum:
    """eta^2 = -(A^2 - A^-2)^2 / p, from the sphere-bundle normalization.

    Zero-surgery on the unknot gives eta^2 * plane_eval(omega) = 1, and
    plane_eval(omega) = sum of [j]^2 over j = 1 .. (p-1)/2.  With q = A^2,
    (q - 1/q)^2 [j]^2 = q^2j + q^-2j - 2, and the exponents +-2j run over
    the nonzero residues mod p once each, so the sum is -p / (A^2 - A^-2)^2.
    """
    d = A_power(p, 2) - A_power(p, -2)
    return CycNum(-(d * d), p, 1)


def kappa_exponent(p: int) -> int:
    """Exponent e with kappa^2 = A^e."""
    return -6 - p * (p + 1) // 2


def kappa_root_exponent(p: int) -> int:
    """t with kappa = zeta_N^t, a square root of A^e, e = kappa_exponent(p).

    For p = 1 (mod 4), A = zeta_N^2 and t = e; else A = zeta_N, e is even
    mod 2p and t = (e mod 2p)/2.  The sign is pinned only at p = 5, 7.
    """
    e = kappa_exponent(p)
    return e if p % 4 == 1 else (e % (2 * p)) // 2


@lru_cache(maxsize=None)
def kappa(p: int) -> CycInt:
    """Phase factor zeta_N^t with kappa^2 = A^(-6 - p(p+1)/2)."""
    return root(ring_modulus(p), kappa_root_exponent(p))


def kappa_order(p: int) -> int:
    """Multiplicative order of kappa = zeta_N^t, which is N / gcd(t, N)."""
    N = ring_modulus(p)
    return N // math.gcd(kappa_root_exponent(p), N)


def phase_pinned(p: int) -> bool:
    """Whether the sign of kappa (and eta) is fixed rather than a choice."""
    return p in _ETA_EXACT
