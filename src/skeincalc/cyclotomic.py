"""Exact arithmetic in Z[zeta_N] and its localization Z[zeta_N][1/p].

Elements are integer vectors in the power basis 1, zeta, ..., zeta**(phi(N)-1),
kept reduced modulo the N-th cyclotomic polynomial, so equality is plain
coefficient comparison.  All coefficients are arbitrary-precision ints;
nothing here is floating point.  N must be p, 2p or 4p for an odd prime p;
then Phi_N(x) = Phi_p(s * x**m) with s = +-1, m = 1 or 2 (`_shape`), and
every reduction is the one closed-form fold `_reduce`, with no polynomial
division.

For an odd prime p the ambient ring is Z[zeta_N] with N = ring_modulus(p)
(4p or 2p).  It contains the primitive 2p-th root A used by the skein
module, the root of unity zeta_p = zeta_N**(N/p), and a square root of
A**(-6 - p(p+1)/2), so every constant of the SO(3) theory at p is exact here.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import lru_cache

from .errors import InvalidPrimeError, ModulusMismatchError, NonIntegralError


# Miller-Rabin with the first 13 primes as bases is exact below this bound
PRIME_TEST_LIMIT = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k bases (Jaeschke; Sorenson
# and Webster): below it those k bases decide primality
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051, 318665857834031151167461,
        PRIME_TEST_LIMIT)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n >= PRIME_TEST_LIMIT.

    After trial division by the bases, n < 43**2 is prime; above that only
    the first k bases are tried, for the least k with n < psi_k.
    """
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"cannot test a {n.bit_length()}-bit number for primality: "
                         f"the test is exact only below {PRIME_TEST_LIMIT}")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a, psi in zip(_WITNESSES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


@lru_cache(maxsize=None)
def ring_modulus(p: int) -> int:
    """Conductor N of the cyclotomic ring used at the odd prime p.

    N = 4p when p = 1 (mod 4), else 2p.  For p = 3 (mod 4) the exponent
    -6 - p(p+1)/2 is even modulo 2p, so the phase square root is already a
    power of the 2p-th root; for p = 1 (mod 4) a 4p-th root is needed.
    """
    if p % 2 == 0 or not is_prime(p):
        raise InvalidPrimeError(f"p must be an odd prime, got {p}")
    return 4 * p if p % 4 == 1 else 2 * p


@lru_cache(maxsize=None)
def _shape(N: int) -> tuple[int, int, int]:
    """(p, m, s) with Phi_N(x) = Phi_p(s * x**m), for N = p, 2p or 4p, p odd prime.

    Phi_2p(x) = Phi_p(-x) and Phi_4p(x) = Phi_p(-x**2) (Washington,
    Introduction to Cyclotomic Fields, ch. 2); every other N is refused.
    """
    for k, m, s in ((1, 1, 1), (2, 1, -1), (4, 2, -1)):
        p, r = divmod(N, k)
        if not r and p % 2 and is_prime(p):
            return p, m, s
    raise ValueError(f"Z[zeta_{N}] needs N = p, 2p or 4p for an odd prime p")


@lru_cache(maxsize=None)
def euler_phi(N: int) -> int:
    """Degree of Phi_N: m * (p - 1) with (p, m, s) = _shape(N)."""
    p, m, _ = _shape(N)
    return m * (p - 1)


def _reduce(N: int, v) -> list[int]:
    """The list of ints v, coefficients of 1, t, t**2, ..., reduced into the basis.

    Folds t**N = 1, then t**(N/2) = -1 for even N, which leaves m*p terms;
    then the top m fold in one O(phi) pass by Phi_p(s * x**m) = 0, i.e.
    x**(m(p-1)+r) = -sum_{k<p-1} s**k x**(mk+r).  v is not modified.
    """
    p, m, s = _shape(N)
    if len(v) > N:
        w = v[:N]
        for i in range(N, len(v), N):
            chunk = v[i:i + N]
            w[:len(chunk)] = map(operator.add, w, chunk)
        v = w
    size = m * p
    if len(v) > size:
        head, tail = v[:size], v[size:]
        head[:len(tail)] = map(operator.sub, head, tail)
        v = head
    phi = size - m
    out = v[:phi] + [0] * (phi - len(v))
    step = m if s == 1 else 2 * m
    for r, c in enumerate(v[phi:]):
        if c:
            out[r::step] = [a - c for a in out[r::step]]
            if s == -1:
                out[r + m::step] = [a + c for a in out[r + m::step]]
    return out


def mul_reduce(a, b, N: int):
    """Product of two power-basis vectors of Z[zeta_N], reduced into the basis.

    ``a`` and ``b`` are sequences of phi(N) ints.  Returns a list of phi(N)
    ints.
    """
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    c[i + j] += ai * bj
    return _reduce(N, c)


def format_poly(coeffs, symbol: str) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            body = str(abs(c))
        else:
            var = symbol if i == 1 else f"{symbol}^{i}"
            body = var if abs(c) == 1 else f"{abs(c)}{var}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"


class CycInt:
    """An element of Z[zeta_N], reduced in the power basis.

    Supports +, -, *, ** with elements of the same ring and with plain ints.
    Instances are immutable and hashable; ** takes exponents >= 0.
    """

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs) -> None:
        coeffs = tuple(operator.index(c) for c in coeffs)
        phi = euler_phi(modulus)
        if len(coeffs) != phi:
            raise ValueError(f"need phi({modulus}) = {phi} coefficients, got {len(coeffs)}")
        self.modulus = modulus
        self.coeffs = coeffs

    @classmethod
    def from_poly(cls, modulus: int, coeffs) -> "CycInt":
        """Reduce an arbitrary-degree coefficient sequence modulo Phi_N."""
        return _make(modulus, tuple(_reduce(modulus, [operator.index(c) for c in coeffs])))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.modulus != self.modulus:
                raise ModulusMismatchError(
                    f"cannot combine Z[zeta_{self.modulus}] with Z[zeta_{other.modulus}]")
            return other
        if isinstance(other, int):
            return from_int(self.modulus, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.modulus, tuple([a + b for a, b in zip(self.coeffs, o.coeffs)]))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.modulus, tuple([a - b for a, b in zip(self.coeffs, o.coeffs)]))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _make(self.modulus, tuple([-c for c in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, int):
            return _make(self.modulus, tuple([c * other for c in self.coeffs]))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _make(self.modulus,
                     tuple(mul_reduce(self.coeffs, o.coeffs, self.modulus)))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers of CycInt are not defined")
        result = one(self.modulus)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            other = from_int(self.modulus, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.modulus, self.coeffs))

    def __repr__(self):
        return f"CycInt({self.modulus}, {list(self.coeffs)})"

    def __str__(self):
        return format_poly(self.coeffs, f"ζ{self.modulus}")

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "CycInt":
        return cls(data["modulus"], data["coeffs"])


def _make(modulus: int, coeffs: tuple) -> CycInt:
    """CycInt from a tuple of phi(modulus) ints, without re-checking them.

    For results of the ring operations here, whose coefficients are ints of
    the right count by construction; outside input goes through CycInt().
    """
    x = object.__new__(CycInt)
    x.modulus = modulus
    x.coeffs = coeffs
    return x


def zero(N: int) -> CycInt:
    return CycInt(N, [0] * euler_phi(N))


def one(N: int) -> CycInt:
    return from_int(N, 1)


def from_int(N: int, n: int) -> CycInt:
    return CycInt(N, [n] + [0] * (euler_phi(N) - 1))


def root(N: int, j: int) -> CycInt:
    """zeta_N**j as a canonical ring element; j may be negative."""
    return CycInt.from_poly(N, [0] * (j % N) + [1])


class CycNum:
    """num / p**k with num a CycInt; reduced so k = 0 or p does not divide num.

    p must be the prime of num's ring Z[zeta_N] (N = p, 2p or 4p): the
    (1 - zeta_p)-adic valuation reads the denominator as a power of p there.
    """

    __slots__ = ("num", "p", "k")

    def __init__(self, num: CycInt, p: int, k: int = 0) -> None:
        if p != _shape(num.modulus)[0]:
            raise ValueError(f"denominator prime {p} is not the prime of Z[zeta_{num.modulus}]")
        if k < 0:
            raise ValueError("denominator exponent must be >= 0")
        while k > 0 and all(c % p == 0 for c in num.coeffs):
            num = _make(num.modulus, tuple([c // p for c in num.coeffs]))
            k -= 1
        self.num = num
        self.p = p
        self.k = k

    @property
    def modulus(self) -> int:
        return self.num.modulus

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _coerce(self, other):
        if isinstance(other, int):
            return CycNum(from_int(self.modulus, other), self.p, 0)
        if not isinstance(other, (CycNum, CycInt)):
            return None
        # p is the prime of the ring, so one ring means one denominator
        if other.modulus != self.modulus:
            raise ModulusMismatchError("operands live in different rings")
        return other if isinstance(other, CycNum) else CycNum(other, self.p, 0)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if self.k < o.k:
            a = a * self.p ** (o.k - self.k)
        elif o.k < self.k:
            b = b * self.p ** (self.k - o.k)
        return CycNum(a + b, self.p, max(self.k, o.k))

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
        return CycNum(-self.num, self.p, self.k)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycNum(self.num * other, self.p, self.k)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum(self.num * o.num, self.p, self.k + o.k)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers of CycNum are not defined")
        return CycNum(self.num ** e, self.p, self.k * e)

    def __eq__(self, other):
        if isinstance(other, (int, CycInt)):
            return self.k == 0 and self.num == other
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.k == other.k and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.p, self.k))

    def __repr__(self):
        return f"CycNum({self.num!r}, p={self.p}, k={self.k})"

    def __str__(self):
        if self.k == 0:
            return str(self.num)
        return f"({self.num}) / {self.p}^{self.k}"

    def as_integral(self) -> CycInt:
        """The underlying CycInt, requiring the reduced denominator to be 1."""
        if self.k:
            raise NonIntegralError(f"value has denominator {self.p}^{self.k}")
        return self.num

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "coeffs": list(self.num.coeffs),
                "p": self.p, "k": self.k}

    @classmethod
    def from_json(cls, data: dict) -> "CycNum":
        return cls(CycInt(data["modulus"], data["coeffs"]), data["p"], data["k"])


def mod_p(x: CycInt, p: int) -> tuple[int, ...]:
    """Coefficient-wise reduction Z[zeta_N] -> Z[zeta_N]/p (a ring map).

    The residue is the tuple of the power-basis coefficients mod p, which
    names it uniquely because the ring has a power basis.
    """
    return tuple([c % p for c in x.coeffs])


def valuation(x, p: int):
    """Largest k with x in (1 - zeta_p)**k Z[zeta_N]; math.inf for 0.

    Strips integer factors of p first, as p = unit * (1 - zeta_p)**(p-1).
    With (p, m, s) = _shape(N), w = s * zeta_N**m is a primitive p-th root,
    1 - w an associate of 1 - zeta_p, and Z[zeta_N] is free over Z[w] on
    zeta_N**r, r < m: c_(mk+r) is s**k times component r's w**k coefficient.
    So x is in (1 - w)**k Z[zeta_N] iff every component is.  A component
    divides by 1 - w iff p divides the sum S of its p - 1 coefficients; the
    quotient's i-th coefficient is the i-th prefix sum minus (i+1) * S/p.
    For a CycNum y/p**j this is valuation(y) - j*(p-1).
    """
    if isinstance(x, CycNum):
        v = valuation(x.num, p)
        return v if v == math.inf else v - x.k * (p - 1)
    if x.is_zero:
        return math.inf
    N = x.modulus
    q, m, s = _shape(N)
    if p != q:
        raise ValueError(f"valuation at (1 - zeta_{p}) needs the prime {q} of Z[zeta_{N}]")
    coeffs, v = x.coeffs, 0
    while not any(c % p for c in coeffs):
        coeffs = [c // p for c in coeffs]
        v += p - 1
    parts = [[c * s ** k for k, c in enumerate(coeffs[r::m])] for r in range(m)]
    while True:
        for r, part in enumerate(parts):
            sums = list(itertools.accumulate(part))
            t, rem = divmod(sums[-1], p)
            if rem:
                return v
            parts[r] = [a - i * t for i, a in enumerate(sums, 1)]
        v += 1


def cm_bound(p: int) -> int:
    """ceil((p^2 - 7p + 12)/6): the quadratic valuation bound at (1 - zeta_p)."""
    if p < 5:
        raise ValueError("the bound is stated for p >= 5")
    num = p * p - 7 * p + 12
    return -(-num // 6)
