"""Linking forms on finite abelian p-groups in Wall normal form, and the
simple-cover algebra built on them.

A p-primary nonsingular symmetric form splits as an orthogonal sum of
elementary pieces on Z_(p^t): type A pairs (x, y) to x*y/p^t, type B to
n*x*y/p^t with n a non-square unit.  A finite cyclic cover of a closed
oriented 3-manifold is "simple" (a quotient of an infinite cyclic cover)
exactly when its character lifts integrally, i.e. kills torsion; the
obstruction is the Bockstein, realized here as the dual element of the
character under the form.  Everything below is that algebra made
executable: pairing, duals, lifting tests, span tests against curve
classes, and the curve selections that pin the character values to 1/p or
1/p^2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import skeincalc

from .errors import CharacterDomainError, InconsistencyError
from .cyclotomic import is_prime


def smallest_nonresidue(p: int) -> int:
    """Least quadratic non-residue mod p (the default type-B unit)."""
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return n
    raise ValueError(f"{p} has no non-residue; it is not an odd prime")


class WallSummand(NamedTuple):
    exponent: int            # t >= 1; the summand group is Z_(p^t)
    kind: str                # "A" or "B"
    unit: int                # 1 for A; a non-square unit mod p for B


class WallForm:
    """Orthogonal sum of elementary p-primary linking forms."""

    __slots__ = ("p", "summands")

    def __init__(self, p: int, summands) -> None:
        if p % 2 == 0 or not is_prime(p):
            raise ValueError(f"Wall normal form here needs an odd prime, got {p}")
        normalized = []
        for s in summands:
            t, kind, unit = s
            if t < 1:
                raise ValueError("summand exponent must be >= 1")
            if kind == "A":
                unit = 1
            elif kind == "B":
                unit %= p ** t
                if unit % p == 0 or pow(unit, (p - 1) // 2, p) != p - 1:
                    raise ValueError(f"type-B unit {unit} is not a non-square unit mod {p}")
            else:
                raise ValueError(f"summand kind must be A or B, got {kind!r}")
            normalized.append(WallSummand(t, kind, unit))
        self.p = p
        self.summands = tuple(normalized)

    def order(self, i: int) -> int:
        return self.p ** self.summands[i].exponent

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(self.order(i) for i in range(len(self.summands)))

    def __eq__(self, other):
        if not isinstance(other, WallForm):
            return NotImplemented
        return self.p == other.p and self.summands == other.summands

    def __hash__(self):
        return hash((self.p, self.summands))

    def __repr__(self):
        return f"WallForm(p={self.p}, summands={list(self.summands)})"

    def __str__(self):
        return format_form(self)


class TorsionElement:
    """Element of the underlying group, one residue per summand."""

    __slots__ = ("values",)

    def __init__(self, values) -> None:
        self.values = tuple(map(int, values))

    def reduced(self, form: WallForm) -> "TorsionElement":
        return TorsionElement(v % form.order(i) for i, v in enumerate(self.values))

    def __eq__(self, other):
        if not isinstance(other, TorsionElement):
            return NotImplemented
        return self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"TorsionElement({list(self.values)})"


class Homology1:
    """H_1 of a closed oriented 3-manifold: free rank plus its linking form."""

    __slots__ = ("free_rank", "form")

    def __init__(self, free_rank: int, form: WallForm) -> None:
        if free_rank < 0:
            raise ValueError("free rank must be >= 0")
        self.free_rank = free_rank
        self.form = form

    def __repr__(self):
        return f"Homology1(free_rank={self.free_rank}, form={self.form!r})"


class Character:
    """Hom(H_1, Z_k) for k a power of p, kept as Q/Z values on torsion.

    free_values are elements of Z_k (one per free generator); each torsion
    value, given as a Fraction or an int, is kept as a fraction mod 1 whose
    denominator divides both the summand order and k (well-definedness).
    """

    __slots__ = ("order", "free_values", "torsion_values")

    def __init__(self, order: int, free_values, torsion_values, form: WallForm) -> None:
        if order < 1:
            raise ValueError("target order must be >= 1")
        self.order = order
        self.free_values = tuple(int(v) % order for v in free_values)
        vals = []
        for v in torsion_values:
            num, den = v.numerator, v.denominator
            if not (isinstance(v, Fraction) and 0 <= num < den):
                v = Fraction(num % den, den)
            if order % den:
                raise CharacterDomainError(
                    f"value {v} does not lie in Z_{order} inside Q/Z")
            vals.append(v)
        self.torsion_values = tuple(vals)
        for i, v in enumerate(self.torsion_values):
            if form.order(i) % v.denominator:
                raise CharacterDomainError(
                    f"value {v} does not annihilate the order-{form.order(i)} summand")

    @property
    def is_zero(self) -> bool:
        return not any(self.free_values) and not any(self.torsion_values)

    def evaluate(self, curve: "CurveClass") -> Fraction:
        """Value in Q/Z on a mixed H_1 class (free coords and torsion coords)."""
        total = Fraction(sum(c * v for c, v in zip(curve.free, self.free_values)), self.order)
        for x, v in zip(curve.torsion.values, self.torsion_values):
            total += x * v
        return total % 1

    def __repr__(self):
        return (f"Character(order={self.order}, free_values={list(self.free_values)}, "
                f"torsion_values={[str(v) for v in self.torsion_values]})")


class CurveClass(NamedTuple):
    """An H_1 class: integer free coordinates plus a torsion element."""
    free: tuple
    torsion: TorsionElement


def pair(form: WallForm, x: TorsionElement, y: TorsionElement) -> Fraction:
    """The Q/Z linking pairing, summed over summands and reduced mod 1.

    The sum is taken over the common denominator p**t, t the largest
    exponent, so one Fraction is built.
    """
    if len(x.values) != len(form.summands) or len(y.values) != len(form.summands):
        raise ValueError("element shape does not match the form")
    p = form.p
    top = max((s.exponent for s in form.summands), default=0)
    total = 0
    for s, xi, yi in zip(form.summands, x.values, y.values):
        total += s.unit * xi * yi * p ** (top - s.exponent)
    q = p ** top
    return Fraction(total % q, q)


def dual_element(form: WallForm, torsion_values) -> TorsionElement:
    """The unique c with pair(c, -) equal to the given character on torsion.

    Per summand: a value a/p^t on type A gives coordinate a; type B divides
    by the unit n mod p^t.  Nonsingularity makes c unique, and c is the
    Bockstein image of the character under the form's identification.
    The values are Fractions or ints, read as numerator and denominator.
    """
    torsion_values = list(torsion_values)
    if len(torsion_values) != len(form.summands):
        raise ValueError("one value per summand is required")
    out = []
    for s, v in zip(form.summands, torsion_values):
        num, den = v.numerator, v.denominator
        q = form.p ** s.exponent
        if q % den:
            raise CharacterDomainError(f"{Fraction(num % den, den)} does not annihilate Z_{q}")
        a = num * (q // den)
        if s.kind == "B":
            a = a * pow(s.unit, -1, q)
        out.append(a % q)
    return TorsionElement(out)


def is_simple(h: Homology1, chi: Character) -> bool:
    """Does the cover classified by chi come from an infinite cyclic cover?

    True exactly when chi lifts to an integral character, i.e. kills all
    torsion (the Bockstein image vanishes).
    """
    return not any(chi.torsion_values)


def complement_simple(h: Homology1, chi: Character, curves) -> bool:
    """Is the cover simple away from the given curves?

    True when the Bockstein dual of chi lies in the subgroup of
    Z^r + torsion generated by the curve classes: a span test on the curve
    columns, each torsion row read modulo its summand order.  intlinalg loads
    on the first call, through the package namespace, so a cover analysis
    without curves does not compile it.
    """
    dual = dual_element(h.form, chi.torsion_values)
    curves = list(curves)
    r = h.free_rank
    s = len(h.form.summands)
    for c in curves:
        if len(c.free) != r or len(c.torsion.values) != s:
            raise ValueError("curve class shape does not match H_1")
    rows = [[c.free[j] for c in curves] for j in range(r)]
    rows += [[c.torsion.values[j] for c in curves] for j in range(s)]
    return skeincalc.intlinalg.in_span(rows, [0] * r + list(dual.values),
                                       [0] * r + list(h.form.orders))


class SccCurve(NamedTuple):
    """One selected curve: its summand, its class, and the pairing value."""
    summand: int
    element: TorsionElement
    pairing: Fraction


def _select(form: WallForm, chi: Character, orders) -> list:
    """(summand, class, order) wherever chi's dual projects nonzero.

    The projection u * q/order (u a unit) must have an order in ``orders``;
    the class x = 1/(unit * u) mod order pairs with it to exactly 1/order,
    that is unit * u * q/order * x = q/order mod q, checked on integers.
    """
    dual = dual_element(form, chi.torsion_values)
    out = []
    for i, (s, c) in enumerate(zip(form.summands, dual.values)):
        if c == 0:
            continue
        q = form.p ** s.exponent
        order = q // math.gcd(c, q)
        if order not in orders:
            raise InconsistencyError(f"dual projection has order {order}, not one of {orders}")
        x = pow(s.unit * (c // (q // order)), -1, order)
        value = s.unit * c * x % q
        if value != q // order:
            raise InconsistencyError(
                f"selected curve pairs to {Fraction(value, q)}, not 1/{order}")
        elem = TorsionElement(x if j == i else 0 for j in range(len(form.summands)))
        out.append((i, elem, order))
    return out


def scc_curves(h: Homology1, chi: Character) -> list[SccCurve]:
    """Curve classes making a nonzero Z_p character simple on the complement.

    For each summand where the Bockstein dual projects nonzero, picks the
    class pairing with that projection to exactly 1/p; the dual lies in the
    span of the picks and chi takes the value 1/p on each.
    """
    p = h.form.p
    if chi.order != p:
        raise CharacterDomainError(f"character target must be Z_{p}")
    if chi.is_zero:
        raise CharacterDomainError("character must be nonzero")
    return [SccCurve(i, elem, Fraction(1, p)) for i, elem, _ in _select(h.form, chi, (p,))]


class Scc2Curve(NamedTuple):
    """Curve for the Z_(p^2) case; chi_value is 1 or p in Z_(p^2)."""
    summand: int
    element: TorsionElement
    chi_value: int


def scc2_curves(h: Homology1, chi: Character) -> list[Scc2Curve]:
    """Curve selection for an epimorphism onto Z_(p^2).

    Where the Bockstein dual projects with order p^2 the curve pairs to
    1/p^2 (chi value 1); where it has order p the curve pairs to 1/p
    (chi value p).
    """
    p = h.form.p
    if chi.order != p * p:
        raise CharacterDomainError(f"character target must be Z_{p * p}")
    # onto iff some value generates Z_(p^2): a unit free value or a torsion
    # value with denominator p^2
    if not (any(v % p for v in chi.free_values)
            or any(v.denominator == p * p for v in chi.torsion_values)):
        raise CharacterDomainError("character is not onto Z_(p^2)")
    return [Scc2Curve(i, elem, 1 if order == p * p else p)
            for i, elem, order in _select(h.form, chi, (p, p * p))]


# ---------------------------------------------------------------------------
# literal syntax used by the CLI and the JSON schemas:
#   form:      "A25+A5+B5[2]"            (B unit in brackets, default smallest
#                                         non-residue)
#   character: "free:0,0;tors:1/5,0,2/5" (either part may be empty)
#   curve:     "free:1,0;tors:3,0,1"     (torsion entries are residues)
# ---------------------------------------------------------------------------


def _iroot(q: int, t: int) -> int:
    """Largest r with r**t <= q, by Newton's method from a start above it."""
    b = q.bit_length()
    if b // t < 1000:
        # the float error in log2(q) / t is near 1e-13, far below the margin
        r = int(2 ** (math.log2(q) / t) * (1 + 1e-9)) + 1
    else:
        r = 1 << -(-b // t)
    while True:
        s = ((t - 1) * r + q // r ** (t - 1)) // t
        if s >= r:
            return r
        r = s


def _primorial(limit: int) -> int:
    """The product of the primes below limit, by a sieve."""
    sieve = bytearray([1]) * limit
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
    return math.prod(i for i in range(2, limit) if sieve[i])


_SMALL_PRIMES = _primorial(1 << 10)


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    # for q = p**t with p below 2**10 the gcd is p; when it is 1, q = p**t
    # with p > 2**10, so t <= bits / 10, and the largest such t gives p
    p = math.gcd(q, _SMALL_PRIMES)
    if p == 1:
        t = next(t for t in range(max(q.bit_length() // 10, 1), 0, -1) if _iroot(q, t) ** t == q)
        p = _iroot(q, t)
    else:
        t = round(math.log(q, p))
    if p ** t != q or not is_prime(p):
        raise ValueError("summand order must be a prime power")
    return p, t


def parse_form(text: str) -> WallForm:
    p = None
    summands = []
    for atom in text.replace(" ", "").split("+"):
        if not atom:
            raise ValueError("empty summand in form literal")
        kind = atom[0].upper()
        body = atom[1:]
        unit = None
        if "[" in body:
            body, bracket = body.split("[", 1)
            if not bracket.endswith("]"):
                raise ValueError(f"unclosed unit bracket in {atom!r}")
            unit = int(bracket[:-1])
        q = int(body)
        if p is None:
            p, t = _prime_power(q)
        else:
            # every later order must be a power of the first one's prime
            t, rest = 0, q
            while rest > 1 and rest % p == 0:
                rest, t = rest // p, t + 1
            if rest != 1 or not t:
                q_p, _ = _prime_power(q)  # raises unless q is a power of another prime
                raise ValueError(f"mixed primes {p} and {q_p} in one form")
        if kind == "B" and unit is None:
            unit = smallest_nonresidue(p)
        summands.append((t, kind, unit))
    return WallForm(p, summands)


def format_form(form: WallForm) -> str:
    parts = []
    for s in form.summands:
        q = form.p ** s.exponent
        parts.append(f"A{q}" if s.kind == "A" else f"B{q}[{s.unit}]")
    return "+".join(parts)


def split_sections(text: str) -> dict[str, list[str]]:
    out = {}
    for section in text.split(";"):
        section = section.strip()
        if not section:
            continue
        if ":" not in section:
            raise ValueError(f"expected 'name:values' in {section!r}")
        name, _, values = section.partition(":")
        out[name.strip()] = [v for v in (s.strip() for s in values.split(",")) if v != ""]
    return out


def parse_character(text: str, form: WallForm, free_rank: int = 0,
                    order: int | None = None) -> Character:
    sections = split_sections(text)
    unknown = set(sections) - {"free", "tors"}
    if unknown:
        raise ValueError(f"unknown character sections {sorted(unknown)}")
    free = [int(v) for v in sections.get("free", [])]
    try:
        tors = [Fraction(v) for v in sections.get("tors", [])]
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in the character literal {text!r}")
    if len(free) != free_rank:
        raise ValueError(f"expected {free_rank} free values, got {len(free)}")
    if len(tors) != len(form.summands):
        raise ValueError(f"expected {len(form.summands)} torsion values, got {len(tors)}")
    if order is None:
        # smallest Z_k containing all torsion values; default Z_p when they
        # are all integral
        order = 1
        for v in tors:
            order = max(order, (v % 1).denominator)
        if order == 1:
            order = form.p
    return Character(order, free, tors, form)


def parse_curve(text: str, form: WallForm, free_rank: int = 0) -> CurveClass:
    sections = split_sections(text)
    unknown = set(sections) - {"free", "tors"}
    if unknown:
        raise ValueError(f"unknown curve sections {sorted(unknown)}")
    free = tuple(int(v) for v in sections.get("free", []))
    tors = [int(v) for v in sections.get("tors", [])]
    if len(free) != free_rank:
        raise ValueError(f"expected {free_rank} free coordinates, got {len(free)}")
    if len(tors) != len(form.summands):
        raise ValueError(f"expected {len(form.summands)} torsion coordinates, got {len(tors)}")
    return CurveClass(free, TorsionElement(tors).reduced(form))
