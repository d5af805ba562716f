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
(a)-(c)), so both invariants take that power and nothing is divided.
"""

from __future__ import annotations

import math
from functools import lru_cache

import skeincalc

from .cyclotomic import CycNum, from_int, ring_modulus, valuation
from .errors import InconsistencyError, ModulusMismatchError, UnsupportedPrimeError
from .skein import (SkeinElem, eta, eta_squared, hopf_weights, omega, phase_pinned,
                    plane_eval, point_eval, twist)


class HopfSatellite:
    """The decorated surgery diagram: p cable strands plus the ring unknot."""

    __slots__ = ("p", "cable_decor", "zero_decor")

    def __init__(self, p: int, cable_decor: SkeinElem, zero_decor: SkeinElem) -> None:
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
    p = sat.p
    tz = twist(sat.zero_decor, -1)
    total = CycNum(from_int(ring_modulus(p), 0), p, 0)
    for j, w in enumerate(hopf_weights(p), 1):
        c = point_eval(sat.cable_decor, j)
        if not c.is_zero:
            total = total + w * point_eval(tz, j) * c ** p
    return total


@lru_cache(maxsize=None)
def _surgery_bracket(p: int) -> CycNum:
    """The bracket with omega(p) on every component, <omega>**p; shared by both invariants."""
    return plane_eval(omega(p)) ** p


def cover_invariant(p: int) -> CycNum:
    """Normalized invariant of the surgered p-fold cover at p in {5, 7}.

    eta^(p+2) times the satellite bracket with the surgery element on all
    p + 1 components (the exponent is component count plus one).  Other
    primes have no pinned signed eta; use cover_invariant_valuation instead.
    """
    if not phase_pinned(p):
        raise UnsupportedPrimeError(
            f"exact invariant needs the signed eta, pinned only for p in {{5, 7}}")
    return eta(p) ** (p + 2) * _surgery_bracket(p)


@lru_cache(maxsize=None)
def cover_invariant_valuation(p: int) -> int:
    """(1 - zeta_p)-adic valuation of the cover invariant, for any p >= 5.

    Works through the squared invariant so only eta^2 is needed: the
    valuation of eta^(2(p+2)) * bracket^2 is even (it is a square) and half
    of it is the answer.  An odd value signals a convention bug.
    """
    b = _surgery_bracket(p)
    squared = eta_squared(p) ** (p + 2) * b * b
    v2 = valuation(squared, p)
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

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Number of elements, or None for infinite."""
        if self.free_rank:
            return None
        return math.prod(self.torsion)

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
