"""Surgery-family evaluation for the cabled-Hopf-link covers.

The framed link is a (p,p)-torus cable of one Hopf component (framing +1 on
every cable strand) with a 0-framed unknot around it.  A 0-framed component
decorated with x equals a +1-framed one decorated with twist(x, -1), after
which every component is +1-framed and mutually +1-linked, so the bracket
is the functional L(f) = plane_eval(twist(f, 1)) applied to the product
twist(zero_decor, -1) * cable**p of the decorations as polynomials in z.

bracket_satellite evaluates L for any decorations at the points z_j with
the weights of skein.hopf_weights.  With omega(p) on every component only
the point z_1 = delta is left and contributes <omega>**p (README lemmas
(a)-(c)); as eta^2 <omega> = 1, both invariants read <omega> alone.

skein and intlinalg load on first use, through the package namespace, so
homology_from_matrix compiles no skein and the invariants no intlinalg.
"""

from __future__ import annotations

import math
from functools import lru_cache

import skeincalc

from .cyclotomic import CycNum, from_int, ring_modulus, valuation
from .errors import InconsistencyError, ModulusMismatchError


class HopfSatellite:
    """The decorated surgery diagram: p cable strands plus the ring unknot."""

    __slots__ = ("p", "cable_decor", "zero_decor")

    def __init__(self, p: int, cable_decor: skeincalc.skein.SkeinElem,
                 zero_decor: skeincalc.skein.SkeinElem) -> None:
        if cable_decor.p != p or zero_decor.p != p:
            raise ModulusMismatchError("decorations must live in the ring for p")
        self.p = p
        self.cable_decor = cable_decor
        self.zero_decor = zero_decor

    def __repr__(self):
        return (f"HopfSatellite(p={self.p}, cable_decor={self.cable_decor!r}, "
                f"zero_decor={self.zero_decor!r})")


def bracket_satellite(sat: HopfSatellite) -> CycNum:
    """Bracket of the decorated satellite as a Hopf-fiber expansion.

    The linear functional L: z^n -> H_n applied to
    twist(zero_decor, -1) * cable_decor**p, evaluated as the sum over the
    weights w_j of hopf_weights(p) of w_j tz(z_j) cable(z_j)**p with
    tz = twist(zero_decor, -1).  A point is skipped only when cable(z_j)
    is zero there.
    """
    skein = skeincalc.skein
    p = sat.p
    tz = skein.twist(sat.zero_decor, -1)
    total = CycNum(from_int(ring_modulus(p), 0), p, 0)
    for j, w in enumerate(skein.hopf_weights(p), 1):
        c = skein.point_eval(sat.cable_decor, j)
        if not c.is_zero:
            total = total + w * skein.point_eval(tz, j) * c ** p
    return total


def cover_invariant(p: int) -> CycNum:
    """Normalized invariant of the surgered p-fold cover, for any p >= 5.

    eta^(p+2) times the satellite bracket <omega>**p with the surgery
    element on all p + 1 components; as eta^2 <omega> = 1 that is
    eta * <omega>**((p-1)/2).
    """
    skein = skeincalc.skein
    return skein.eta(p) * skein.omega_bracket(p) ** ((p - 1) // 2)


@lru_cache(maxsize=None)
def cover_invariant_valuation(p: int) -> int:
    """(1 - zeta_p)-adic valuation of the cover invariant, for any p >= 5.

    The squared invariant is eta^(2(p+2)) <omega>^(2p) = <omega>^(p-2), so
    only <omega> is needed: the valuation is (p - 2) v(<omega>) / 2, and
    the product is even (it is a square's).  An odd product signals a
    convention bug.
    """
    v2 = (p - 2) * valuation(skeincalc.skein.omega_bracket(p), p)
    if v2 == math.inf:
        raise InconsistencyError("squared invariant vanished")
    if v2 % 2:
        raise InconsistencyError(f"squared valuation {v2} is odd")
    return v2 // 2


def linking_matrix(p: int) -> list[list[int]]:
    """Linking matrix of the base surgery link: ((0, p), (p, p))."""
    return [[0, p], [p, p]]


class AbelianGroup:
    """Finitely generated abelian group as free rank plus invariant factors."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion) -> None:
        torsion = tuple(map(int, torsion))
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError(f"invariant factors must divide in turn: {torsion}")
        if any(t <= 1 for t in torsion):
            raise ValueError("invariant factors must be > 1")
        self.free_rank = free_rank
        self.torsion = torsion

    def __eq__(self, other):
        if not isinstance(other, AbelianGroup):
            return NotImplemented
        return self.free_rank == other.free_rank and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.free_rank, self.torsion))

    def __repr__(self):
        return f"AbelianGroup(free_rank={self.free_rank}, torsion={list(self.torsion)})"

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{t}" for t in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}


def homology_from_matrix(mat) -> AbelianGroup:
    """First homology presented by a square linking matrix (its cokernel).

    intlinalg loads on the first call, through the package namespace, so a
    command that never asks for homology does not compile it.
    """
    free_rank, torsion = skeincalc.intlinalg.cokernel(mat)
    return AbelianGroup(free_rank, torsion)


def base_homology(p: int) -> AbelianGroup:
    """Z_p + Z_p, the cokernel of linking_matrix(p), read off in closed form.

    Its determinantal divisors are d1 = p, the gcd of the entries, and
    d1 d2 = p^2, the determinant up to sign, so both invariant factors are p.
    """
    return AbelianGroup(0, (p, p))
