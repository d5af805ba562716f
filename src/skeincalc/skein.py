"""Kauffman-bracket skein of the solid torus at an odd prime p.

The skein of a genus-one handlebody is a polynomial ring in the core curve z.
Elements are kept on the Chebyshev basis e_0 = 1, e_1 = z,
e_(k+1) = z e_k - e_(k-1), with coefficients in O_p[1/p]: the full twist is
diagonal there and the surgery element has closed-form coefficients, so no
change of basis is ever made.

Conventions (all verified by the test suite):
  * bracket normalization: empty diagram 1, each unknot delta = -A^2 - A^(-2);
  * A is the primitive 2p-th root zeta_N**(N/2p) of the ring at p;
  * the twist acts on e_k by (-1)^k A^(k^2 + 2k);
  * the surgery element is omega(p) = sum of (-1)^k [k+1] e_k.

Every sum of powers of A (A**e, delta, [k], <omega>, eta^2, H_n, the
weights, eta up to a factor i) is one vector reduced once by _A_sum.  An
element is only ever evaluated at the points z_j = -(A^2j + A^-2j)
(point_eval, by Clenshaw's recurrence); z_1 = delta gives plane_eval.  A
bracket of +1-twisted cables, L(f) = plane_eval(twist(f, 1)), is the sum of
w_j f(z_j), j = 1 .. (p-1)/2, over the closed-form weights of hopf_weights.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .cyclotomic import CycInt, CycNum, euler_phi, from_int, ring_modulus, root
from .errors import ModulusMismatchError


def _A_sum(p: int, terms) -> CycInt:
    """Sum of c * A**e over (c, e) in terms: one vector of Z[t]/(t^N - 1), reduced once."""
    N = ring_modulus(p)
    v = [0] * N
    for c, e in terms:
        v[e * (N // (2 * p)) % N] += c
    return CycInt.from_poly(N, v)


def A_power(p: int, e: int) -> CycInt:
    """A**e where A = zeta_N**(N/2p) is the primitive 2p-th root at p."""
    return _A_sum(p, [(1, e)])


def delta(p: int) -> CycInt:
    """Loop value of the bracket: one unknot contributes -A^2 - A^(-2)."""
    return _A_sum(p, [(-1, 2), (-1, -2)])


def quantum_int(p: int, k: int) -> CycInt:
    """[k] = (A^2k - A^-2k) / (A^2 - A^-2) = sum over i < k of A^(2(k-1-2i))."""
    if k < 1:
        raise ValueError("quantum integers are defined for k >= 1")
    return _A_sum(p, [(1, 2 * (k - 1 - 2 * i)) for i in range(k)])


def _as_cycnum(p: int, value) -> CycNum:
    N = ring_modulus(p)
    if isinstance(value, int):
        value = from_int(N, value)
    if not isinstance(value, (CycNum, CycInt)):
        raise TypeError(f"cannot use {type(value).__name__} as a skein coefficient")
    if value.modulus != N:
        raise ModulusMismatchError(f"coefficient does not live in the ring for p={p}")
    return value if isinstance(value, CycNum) else CycNum(value, p, 0)


class SkeinElem:
    """Element sum of c_k e_k of the skein, with c_k in O_p[1/p].

    Coefficients may be given as CycNum, CycInt or int; trailing zeros are
    trimmed so the degree (in z, equal to the last k) is canonical, -1 for
    the zero element.  Elements are read-only e-basis vectors, built by
    omega and twist and read through point_eval.
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

    def __eq__(self, other):
        if not isinstance(other, SkeinElem):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"SkeinElem(p={self.p}, coeffs={list(self.coeffs)})"


def point_eval(x: SkeinElem, j: int) -> CycNum:
    """x at z = z_j = -(A^2j + A^-2j), by Clenshaw's recurrence.

    e_k(z) = U_k(z/2), so b_k = c_k + z b_(k+1) - b_(k+2) from the top
    down gives x(z) = b_0.  The b_k are numerators over the common
    denominator p^K, kept as vectors in Z[t]/(t^N - 1), t = zeta_N, where
    multiplying by z_j is two rotations by s = jN/p.  b_0 is reduced
    into the basis once.
    """
    p = x.p
    N = ring_modulus(p)
    K = max((c.k for c in x.coeffs), default=0)
    s = j * (N // p) % N
    pad = [0] * (N - euler_phi(N))
    b1 = b2 = [0] * N
    for c in reversed(x.coeffs):
        scale = p ** (K - c.k)
        b0 = [scale * a for a in c.num.coeffs] + pad
        up = b1[N - s:] + b1[:N - s]
        down = b1[s:] + b1[:s]
        b1, b2 = [a - u - d - e for a, u, d, e in zip(b0, up, down, b2)], b1
    return CycNum(CycInt.from_poly(N, b1), p, K)


def plane_eval(x: SkeinElem) -> CycNum:
    """Embed the solid torus in the plane: z becomes an unknot, so z -> delta = z_1."""
    return point_eval(x, 1)


@lru_cache(maxsize=None)
def omega(p: int) -> SkeinElem:
    """Surgery element at p: sum over k <= (p-3)/2 of (-1)^k [k+1] e_k."""
    return SkeinElem(p, [quantum_int(p, k + 1) * (-1) ** k for k in range((p - 1) // 2)])


@lru_cache(maxsize=None)
def omega_bracket(p: int) -> CycInt:
    """<omega> = plane_eval(omega(p)) = sum of [j]^2 over j = 1 .. k, k = (p-1)/2.

    [j]^2 = sum over |u| < j of (j - |u|) A^(4u), so A^(4u) collects
    1 + 2 + ... + (k - |u|) = T(k - |u|), T(n) = n(n+1)/2: O(p) terms in
    one sum, and 1 at p = 3.
    """
    k = (p - 1) // 2
    return _A_sum(p, [((k - abs(u)) * (k - abs(u) + 1) // 2, 4 * u) for u in range(1 - k, k)])


def twist(x: SkeinElem, e: int) -> SkeinElem:
    """Apply e full twists, scaling e_k by (-1)^(ke) A^(ek(k+2)) = A^(ek(k+p+2)).

    Each numerator, padded to a vector in Z[t]/(t^N - 1), is rotated by that
    root and reduced once.
    """
    p = x.p
    N = ring_modulus(p)
    pad = [0] * (N - euler_phi(N))
    out = []
    for k, c in enumerate(x.coeffs):
        t = -e * k * (k + p + 2) * (N // (2 * p)) % N
        v = list(c.num.coeffs) + pad
        out.append(CycNum(CycInt.from_poly(N, v[t:] + v[:t]), p, c.k))
    return SkeinElem(p, out)


@lru_cache(maxsize=None)
def hopf_weights(p: int) -> tuple[CycNum, ...]:
    """The weights w_j, j = 1 .. (p-1)/2, with L(f) = sum of w_j f(z_j).

    L(f) = plane_eval(twist(f, 1)).  A -1-framed omega around the strands
    of f applies one positive full twist to them and scales by
    plane_eval(twist(omega, -1)), whose inverse is
    eta^2 * plane_eval(twist(omega, 1)) = eta * kappa, as
    eta * plane_eval(twist(omega, 1)) = kappa.  Writing twist(omega, -1) in
    the e-basis, its e_(j-1) coefficient is [j] A^(1-j^2), and f encircling
    e_(j-1) evaluates to f(z_j) (-1)^(j-1) [j] with z_j = -(A^2j + A^-2j).
    So w_j = eta kappa (-1)^(j-1) A^(1-j^2) [j]^2.  As
    [j]^2 = sum over |u| < j of (j - |u|) A^(4u) and -1 = A^p, all but the
    scale eta kappa is one sum of powers of A.
    """
    scale = eta(p) * kappa(p)
    return tuple(scale * _A_sum(p, [(j - abs(u), (j - 1) * p + 1 - j * j + 4 * u)
                                    for u in range(1 - j, j)])
                 for j in range(1, (p - 1) // 2 + 1))


@lru_cache(maxsize=None)
def hopf_bracket(p: int, n: int) -> CycInt:
    """Bracket H_n of n Hopf fibers, all framings +1 and pairwise linking +1.

    H_0 = 1 and H_n = sum over r < n of C(n-1, r) A^(s^2-1) [s], s = n-2r+1
    (Blanchet-Habegger-Masbaum-Vogel, Topology 34, 1995).  Both factors depend
    only on s mod 2p, so the binomials are summed per class s < 2p into one sum.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    c, binomial = [0] * (2 * p), 1
    for r in range(max(n, 1)):  # at n = 0 the one term, s = 1, is H_0 = 1
        c[(n - 2 * r + 1) % (2 * p)] += binomial
        binomial = binomial * (n - 1 - r) // (r + 1)
    return _A_sum(p, [(c[s], s * s + 2 * s - 3 - 4 * i)
                      for s in range(2 * p) if c[s] for i in range(s)])


def eta(p: int) -> CycNum:
    """The signed normalization scalar e (A^2 - A^-2) G / p, at every odd prime p.

    G = sum over a < p of (a/p) A^(2a) is the quadratic Gauss sum, times
    i = zeta_N^p when p = 1 (mod 4); G^2 = (-1)^((p-1)/2) p makes that
    sqrt(-p), so the square is -(A^2 - A^-2)^2 / p = eta_squared(p).  The
    sign e = +1 for p = 7 (mod 8) and -1 otherwise is the one with
    eta * plane_eval(twist(omega, 1)) = kappa (a +1-surgered unknot is a
    sphere of weight one).
    """
    e = 1 if p % 8 == 7 else -1
    x = _A_sum(p, [(e * s * (1 if pow(a, (p - 1) // 2, p) == 1 else -1), 2 * a + 2 * s)
                   for a in range(1, p) for s in (1, -1)])
    if p % 4 == 1:
        x = x * root(ring_modulus(p), p)
    return CycNum(x, p, 1)


@lru_cache(maxsize=None)
def eta_squared(p: int) -> CycNum:
    """eta^2 = -(A^2 - A^-2)^2 / p = (-A^4 + 2 - A^-4) / p.

    Zero-surgery on the unknot gives eta^2 * plane_eval(omega) = 1, and
    plane_eval(omega) = sum of [j]^2 over j = 1 .. (p-1)/2.  With q = A^2,
    (q - 1/q)^2 [j]^2 = q^2j + q^-2j - 2, and the exponents +-2j run over
    the nonzero residues mod p once each, so the sum is -p / (A^2 - A^-2)^2.
    """
    return CycNum(_A_sum(p, [(-1, 4), (2, 0), (-1, -4)]), p, 1)


def kappa_exponent(p: int) -> int:
    """Exponent e with kappa^2 = A^e."""
    return -6 - p * (p + 1) // 2


def kappa_root_exponent(p: int) -> int:
    """t with kappa = zeta_N^t, a square root of A^e, e = kappa_exponent(p).

    For p = 1 (mod 4), A = zeta_N^2 and t = e; else A = zeta_N, e is even
    mod 2p and t = (e mod 2p)/2.  The sign of eta is fitted to this root.
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
    """Whether a published display of the invariant exists at p (p = 5, 7)."""
    return p in (5, 7)
