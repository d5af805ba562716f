"""Residue tests modulo p·O_p: the table of n*kappa^m by line, membership
verdicts, the quadratic valuation bound (defined in cyclotomic), and the
shift-orbit collapse congruence.

All verdicts are exact: residues are coefficient vectors in O_p / p·O_p,
which is well defined because the ring has a power basis.  kappa is the
root of unity zeta_N^t, so its order is N / gcd(t, N), read off t.
"""

from __future__ import annotations

import math
from functools import lru_cache

# cm_bound is defined next to valuation, the quantity it bounds, and read from here too
from .cyclotomic import (  # noqa: F401
    CycInt,
    CycNum,
    _shape,
    cm_bound,
    euler_phi,
    from_int,
    mod_p,
    ring_modulus,
)
from .errors import ModulusMismatchError
from .skein import kappa_order, kappa_root_exponent


class CongruenceVerdict:
    """Outcome of an x = kappa^m * n (mod p O_p) membership test."""

    __slots__ = ("congruent", "witness", "candidates_checked")

    def __init__(self, congruent: bool, witness, candidates_checked: int) -> None:
        self.congruent = congruent
        self.witness = witness
        self.candidates_checked = candidates_checked

    def __repr__(self):
        return (f"CongruenceVerdict(congruent={self.congruent}, witness={self.witness}, "
                f"candidates_checked={self.candidates_checked})")

    def to_json(self) -> dict:
        return {"congruent": self.congruent,
                "witness": list(self.witness) if self.witness else None,
                "candidates_checked": self.candidates_checked}


def _line(p: int, coeffs) -> tuple[int, tuple[int, ...]] | None:
    """(c, key) with coeffs = c * key mod p and the first nonzero coefficient
    of key 1, or None when every coefficient is 0 mod p.

    key names the line F_p^* * r of the residue r of coeffs; it is scaled
    while it is reduced, in one pass over coeffs.
    """
    for a in coeffs:
        c = a % p
        if c:
            inv = pow(c, -1, p)
            return c, tuple([b * inv % p for b in coeffs])
    return None


@lru_cache(maxsize=None)
def kappa_residues(p: int) -> dict:
    """The residues n*kappa^m mod p, one entry per line F_p^* * kappa^m.

    For 0 < n < p the residues n*kappa^m fill the line through kappa^m, so
    each line is keyed by the coefficient tuple (mod p, see mod_p) of its
    point whose first nonzero coefficient is 1, and maps to (m, u): m is
    the least exponent on the line and residue(kappa^m) = u * key.  The
    zero residue is keyed to (0, 0).  kappa^m is zeta_N^k, k = t*m mod N,
    so the table has at most ord(kappa) + 1 entries, each read off the
    shape Phi_N(x) = Phi_p(s * x**a) of the ring (cyclotomic._shape) with
    no ring element: zeta^(N/2) = -1, zeta^k is the basis vector e_k for
    k < phi = a(p - 1), and zeta^(phi + r) = -sum_{j<p-1} s^j e_(aj + r)
    for r < a, whose key D_r has first entry 1.  So u is 1 or p - 1 and
    u^-1 = u.
    """
    N = ring_modulus(p)
    _, a, s = _shape(N)
    phi = a * (p - 1)
    t = kappa_root_exponent(p)
    zero = (0,) * phi
    folded = []
    for r in range(a):
        d = [0] * phi
        d[r::a] = [s ** j % p for j in range(p - 1)]
        folded.append(tuple(d))
    out: dict[tuple[int, ...], tuple[int, int]] = {zero: (0, 0)}
    for m in range(kappa_order(p)):
        k, u = t * m % N, 1
        if k >= a * p:
            k, u = k - a * p, -1
        if k < phi:
            key = zero[:k] + (1,) + zero[k + 1:]
        else:
            key, u = folded[k - phi], -u
        out.setdefault(key, (m, u % p))
    return out


def check_kappa_congruence(x, p: int) -> CongruenceVerdict:
    """Is x congruent to some kappa^m * n mod p*O_p?  Witness reports the
    first (m, n) with 0 <= m < ord(kappa), 0 <= n < p, m before n.  x is an
    int, an element of the ring at p, or a CycNum that must reduce to
    denominator exponent zero.

    A nonzero residue c * key lies on the line of its key, whose entry
    (m, u) gives the least m and then n = c / u = c * u mod p; lines of
    distinct keys are disjoint, and on one line each m has a single n.
    """
    N = ring_modulus(p)
    if isinstance(x, CycNum):
        x = x.as_integral()
    if isinstance(x, int):
        x = from_int(N, x)
    elif x.modulus != N:
        raise ModulusMismatchError(f"x is in Z[zeta_{x.modulus}], not Z[zeta_{N}]")
    line = _line(p, x.coeffs)
    if line is None:
        witness = (0, 0)
    else:
        c, key = line
        entry = kappa_residues(p).get(key)
        witness = None if entry is None else (entry[0], c * entry[1] % p)
    return CongruenceVerdict(witness is not None, witness, kappa_order(p) * p)


def check_kappa_congruence_up_to_phase(x, p: int) -> CongruenceVerdict:
    """Same test applied to x * kappa^j over all j < ord(kappa).

    Multiplication by the unit kappa permutes the residue list, so every j
    gets the strict verdict, with the witness of j = 0; a failure checks
    ord(kappa) times the strict candidates.  So its verdict is the strict
    one: kappa fixes the sign of eta at every prime, and no phase is left
    to choose.
    """
    verdict = check_kappa_congruence(x, p)
    if not verdict.congruent:
        verdict.candidates_checked *= kappa_order(p)
    return verdict


def necklace_orbits(num_colors: int, p: int):
    """The least rotation of each shift orbit of the color sequences of
    length p, in lexicographic order, by the iterative Fredricksen-Kessler-
    Maiorana algorithm (Cattell et al., J. Algorithms 37, 2000): a runs over
    the prenecklaces and is a necklace when its Lyndon prefix length n divides p.
    """
    a, n = [0] * p, 1
    while num_colors > 0:
        if p % n == 0:
            yield tuple(a)
        n = p
        while n and a[n - 1] == num_colors - 1:
            n -= 1
        if not n:
            return
        a[n - 1] += 1
        for j in range(n, p):  # one at a time: the extension reads what it writes
            a[j] = a[j - n]


def orbit_work(colors: int, p: int, trials: int = 1) -> int:
    """The work of trials orbit checks of colors^p sequences at the prime p,
    in units of about 1 us on a 2-CPU machine: phi(N) / 3 + 9 units for
    each of the (colors^p - colors) / p + colors orbits (its random value,
    representative and multiset key), phi(N)^2 / 8 per ring product and 100
    per trial for its weights.  A trial makes comb(colors + p - 1, p) * p
    products for the multisets and 2 * bit_length(p) per color for p-th powers.
    """
    phi = euler_phi(ring_modulus(p))
    orbits = (colors ** p - colors) // p + colors
    products = math.comb(colors + p - 1, p) * p + colors * 2 * p.bit_length()
    return trials * (orbits * (phi // 3 + 9) + products * phi * phi // 8 + 100)


class OrbitCheckReport:
    """Both sides of the orbit-collapse congruence and the verdict."""

    __slots__ = ("lhs", "rhs", "congruent", "sequences_checked")

    def __init__(self, lhs, rhs, congruent: bool, sequences_checked: int) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.congruent = congruent
        self.sequences_checked = sequences_checked

    def __repr__(self):
        return (f"OrbitCheckReport(congruent={self.congruent}, "
                f"sequences_checked={self.sequences_checked})")


def orbit_congruence_check(weights, orbit_values, p: int) -> OrbitCheckReport:
    """Verify the mod-p collapse of a shift-invariant sum.

    LHS sums (prod of per-position weights) * value over ALL color sequences
    of length p; RHS keeps only the constant sequences with weights raised
    to the p-th power.  ``orbit_values`` maps each orbit's least rotation
    (see necklace_orbits) to its value and must be defined on every orbit.
    Values and weights are either all ints or all CycInt in one ring.
    Non-constant orbits have size p, so LHS = RHS mod p always holds; a
    false verdict indicates a bug in the caller's data or this package.
    Each orbit is visited once: value * size (its least rotation period) is
    summed per multiset of colors, and each sum multiplied by its weights;
    orbit_work estimates that work, which is not bounded here.
    """
    weights = list(weights)
    sums = {}
    rhs = 0
    for rep in necklace_orbits(len(weights), p):
        size = next(d for d in range(1, p + 1) if p % d == 0 and rep[d:] + rep[:d] == rep)
        value = orbit_values[rep] * size
        if size == 1:
            rhs = rhs + weights[rep[0]] ** p * value
        key = tuple(sorted(rep))
        sums[key] = sums[key] + value if key in sums else value
    lhs = 0
    for key, term in sums.items():
        for i in key:
            term = term * weights[i]
        lhs = lhs + term
    diff = lhs - rhs
    congruent = not any(mod_p(diff, p)) if isinstance(diff, CycInt) else diff % p == 0
    return OrbitCheckReport(lhs, rhs, congruent, len(weights) ** p)
