"""Residue tests modulo p·O_p: the kappa^m * n list, membership verdicts,
the quadratic valuation bound, and the shift-orbit collapse congruence.

All verdicts are exact: residues are coefficient vectors in O_p / p·O_p,
which is well defined because the ring has a power basis.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .cyclotomic import CycInt, CycNum, ResidueClass, from_int, mod_p, ring_modulus
from .errors import InconsistencyError, TooLargeError
from .skein import kappa

ORBIT_TERM_CAP = 10 ** 7


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


@lru_cache(maxsize=None)
def kappa_order(p: int) -> int:
    """Multiplicative order of kappa, found by iteration."""
    k = kappa(p)
    power = k
    order = 1
    while power != 1:
        power = power * k
        order += 1
        if order > 4 * p:
            raise InconsistencyError("kappa order exceeded the root-of-unity bound")
    return order


@lru_cache(maxsize=None)
def kappa_residues(p: int) -> dict:
    """All residues of n*kappa^m mod p, keyed to their first witness (m, n).

    m runs over 0 <= m < ord(kappa), n over 0 <= n < p; larger m, n only
    repeat these residues.
    """
    out: dict[ResidueClass, tuple[int, int]] = {}
    power = from_int(ring_modulus(p), 1)
    for m in range(kappa_order(p)):
        for n in range(p):
            out.setdefault(mod_p(power * n, p), (m, n))
        power = power * kappa(p)
    return out


def check_kappa_congruence(x, p: int) -> CongruenceVerdict:
    """Is x congruent to some kappa^m * n mod p*O_p?  Witness reports reduced
    (m, n); a CycNum input must reduce to denominator exponent zero."""
    if isinstance(x, CycNum):
        x = x.as_integral()
    residues = kappa_residues(p)
    witness = residues.get(mod_p(x, p))
    return CongruenceVerdict(witness is not None, witness,
                             kappa_order(p) * p)


def check_kappa_congruence_up_to_phase(x, p: int) -> CongruenceVerdict:
    """Same test applied to x * kappa^j over all j.

    Multiplication by the unit kappa permutes the residue list, so this can
    never disagree with the strict verdict; it is reported separately so a
    non-canonical phase choice at general p is visible rather than silent.
    """
    if isinstance(x, CycNum):
        x = x.as_integral()
    checked = 0
    for j in range(kappa_order(p)):
        verdict = check_kappa_congruence(x * kappa(p) ** j, p)
        checked += verdict.candidates_checked
        if verdict.congruent:
            return CongruenceVerdict(True, verdict.witness, checked)
    return CongruenceVerdict(False, None, checked)


def cm_bound(p: int) -> int:
    """ceil((p^2 - 7p + 12)/6): the quadratic valuation bound at (1 - zeta_p)."""
    if p < 5:
        raise ValueError("the bound is stated for p >= 5")
    num = p * p - 7 * p + 12
    return -(-num // 6)


def canonical_orbit(seq) -> tuple:
    """Lexicographically least cyclic rotation: the orbit representative."""
    seq = tuple(seq)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def necklace_orbits(num_colors: int, p: int):
    """All shift-orbit representatives of color sequences of length p."""
    seen = set()
    for seq in itertools.product(range(num_colors), repeat=p):
        rep = canonical_orbit(seq)
        if rep not in seen:
            seen.add(rep)
            yield rep


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
    to the p-th power.  ``orbit_values`` maps canonical representatives
    (see canonical_orbit) to values and must be defined on every orbit.
    Values and weights are either all ints or all CycInt in one ring.
    Non-constant orbits have size p, so LHS = RHS mod p always holds; a
    false verdict indicates a bug in the caller's data or this package.
    """
    weights = list(weights)
    num_colors = len(weights)
    if num_colors < 1:
        raise ValueError("need at least one color")
    total = num_colors ** p
    if total > ORBIT_TERM_CAP:
        raise TooLargeError(f"{num_colors}^{p} sequences exceed the cap {ORBIT_TERM_CAP}")

    lhs = 0
    for seq in itertools.product(range(num_colors), repeat=p):
        term = orbit_values[canonical_orbit(seq)]
        for i in seq:
            term = term * weights[i]
        lhs = lhs + term
    rhs = 0
    for j in range(num_colors):
        rhs = rhs + weights[j] ** p * orbit_values[canonical_orbit((j,) * p)]
    diff = lhs - rhs
    congruent = mod_p(diff, p).is_zero if isinstance(diff, CycInt) else diff % p == 0
    return OrbitCheckReport(lhs, rhs, congruent, total)
