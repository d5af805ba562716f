"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check.  The
package sums the Hopf bracket H_n per residue class of s mod 2p as one
vector, evaluates the general bracket at the points z_j with closed-form
weights, and reads both invariants off <omega> = sum of T(k - |u|) A^(4u);
here <omega> is the Clenshaw value of omega(p) at delta, the surgery
bracket its p-th power, and the valuation half that of the squared
invariant eta^(2(p+2)) (<omega>**p)**2.  H_n is resolved from an explicit
diagram crossing by crossing, summed as w_j z_j^n over the points with
z_j^n built up factor by factor, or summed from the binomial formula with
one exact division (the package's own formula, so that check covers only
the summation per class).
The package keeps skein elements on the Chebyshev basis e_k and evaluates
them by Clenshaw's recurrence; here they become polynomials in z (ZPoly),
built by e_(k+1) = z e_k - e_(k-1) and read back through the ballot-number
rows, with their own twist, pairwise product and Horner evaluation.  The
satellite bracket is expanded in that z-basis, either over every
cable-coefficient tuple or through the p-th power of the cable decoration.
The order of kappa and the up-to-phase verdict are found by search over the
powers of kappa, where the package reads both off kappa = zeta_N^t; the
strict verdict looks x up in every residue n*kappa^m, built by ring products,
where the package keeps one entry per line F_p^* * kappa^m; that table of
lines is also built from the ring element zeta_N^(tm) of each kappa^m, where
the package reads each line off the shape of Phi_N.  The
Smith form pivots on the least nonzero entry of the whole submatrix with row
and column operations, where the package clears one column at a time by
Euclid on the rows.  An integer solution x of mat @ x = rhs is built with
unit vectors carried beside the reduced columns, where the package only
asks whether rhs lies in the column span; a span in a finite group is the
closure of its generators under addition, or a span over Z with one
modulus column per summand, where the package reads each torsion row in
Z/q by valuation pivots.  A prime-power order is factored
by trial division, where the package takes one gcd with a product of small
primes.  The (1 - zeta_p)-adic valuation divides by 1 - zeta_p through
its cofactor in p, one ring product per unit of valuation, where the
package splits x into components over Z[zeta_p] and divides each by prefix
sums; the cofactor's closed form is checked against the product of the
other 1 - zeta_p**a.  Exact division and inversion up to a power of p go
through the Galois norm; the package never divides in the ring.  The
orbit-collapse sum multiplies the weights sequence by sequence, where the
package multiplies them once per color multiset, and takes the orbit of each
sequence as the least of its rotations, where the package generates one
representative per orbit by the Fredricksen-Kessler-Maiorana algorithm.
Phi_N is found by dividing
x^N - 1 by every Phi_d, d | N, d < N, and a vector is reduced modulo it by
long division, where the package folds t^N = 1, t^(N/2) = -1 and
Phi_p(s x^m) = 0 in closed form.  The signed eta at p = 5, 7 is the
published constant, where the package sums a quadratic Gauss sum.  The
command line is read by argparse, where the package reads it from its own
option table.  Skein elements are printed and read as JSON only here; no
command prints one, and the elements of a Wall form's group are listed only
here, for exhaustive tests.
"""

from __future__ import annotations

import argparse
import cmath
import itertools
import math
import operator
from functools import lru_cache

from skeincalc.congruence import CongruenceVerdict, OrbitCheckReport, _line
from skeincalc.cyclotomic import (
    CycInt,
    CycNum,
    from_int,
    is_prime,
    mod_p,
    one,
    ring_modulus,
    root,
    valuation,
    zero,
)
from skeincalc.errors import CalcError, InconsistencyError, ModulusMismatchError
from skeincalc.intlinalg import _clear_leading, _rows, in_span
from skeincalc.linkform import TorsionElement, _iroot, dual_element
from skeincalc.skein import (A_power, SkeinElem, delta, eta_squared, hopf_weights, kappa,
                             kappa_order, kappa_root_exponent, omega, plane_eval)


def poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of ascending-coefficient integer polynomials.

    ``den`` must be monic, which keeps everything in Z.
    """
    num = list(num)
    dn = len(den) - 1
    if len(num) <= dn:
        return [], num + [0] * (dn - len(num))
    quot = [0] * (len(num) - dn)
    for i in reversed(range(len(quot))):
        c = num[i + dn]
        if c:
            quot[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    return quot, num[:dn]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of Phi_N, ascending: x^N - 1 divided by every Phi_d, d | N, d < N."""
    poly = [-1] + [0] * (N - 1) + [1]
    for d in range(1, N):
        if N % d == 0:
            poly, rem = poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if any(rem):
                raise InconsistencyError(f"Phi_{d} does not divide x^{N} - 1")
    return tuple(poly)


def reduce_by_division(N: int, coeffs) -> list[int]:
    """The remainder of sum c_i x^i modulo Phi_N, padded to phi(N) entries."""
    return poly_divmod(list(coeffs), list(cyclotomic_polynomial(N)))[1]


def numeric(x, N=None):
    """Evaluate at zeta_N = exp(2 pi i / N); for approximate cross-checks."""
    if isinstance(x, CycNum):
        return numeric(x.num) / x.p ** x.k
    if N is None:
        N = x.modulus
    z = cmath.exp(2j * cmath.pi / N)
    return sum(c * z ** i for i, c in enumerate(x.coeffs))


class ExactDivisionError(CalcError):
    """The quotient does not exist in Z[zeta_N]."""


class PPowerInversionError(CalcError):
    """No multiple of the element equals p**k within the search cap."""


def _adjugate(y: CycInt) -> tuple[CycInt, int]:
    """adj = product of sigma_a(y) over a in (Z/N)^*, a != 1, and the norm n.

    sigma_a sends zeta to zeta**a.  y * adj is the Galois norm of y, a
    rational integer n, nonzero when y is.
    """
    N = y.modulus
    adj = one(N)
    for a in range(2, N):
        if math.gcd(a, N) == 1:
            image = [0] * N
            for i, c in enumerate(y.coeffs):
                image[a * i % N] += c
            adj = adj * CycInt.from_poly(N, image)
    n, *rest = (y * adj).coeffs
    if any(rest):
        raise InconsistencyError(f"the norm of ({y}) is not a rational integer")
    return adj, n


def divide_exact(x: CycInt, y: CycInt) -> CycInt:
    """The q with q*y = x, or ExactDivisionError when x is not in (y).

    q = x * adj / n with adj, n from _adjugate(y); since the power basis is a
    Z-basis of Z[zeta_N], q is integral iff n divides every coefficient.
    """
    if x.modulus != y.modulus:
        raise ModulusMismatchError("operands live in different rings")
    if y.is_zero:
        raise ZeroDivisionError("division by zero in Z[zeta_N]")
    if x.is_zero:
        return zero(x.modulus)
    adj, n = _adjugate(y)
    q = (x * adj).coeffs
    if any(c % n for c in q):
        raise ExactDivisionError(f"({x}) is not divisible by ({y})")
    return CycInt(x.modulus, [c // n for c in q])


def invert_p_power(x: CycInt, p: int, cap: int | None = None) -> CycNum:
    """Smallest k <= cap with p**k in the ideal (x), returned as q/p**k.

    The result is the inverse of x in Z[zeta_N][1/p] when it exists with
    exponent at most cap (default 2(p-1)).  It is adj / n with adj, n from
    _adjugate(x), which exists iff |n| is a power of p; the reduction of
    CycNum leaves the smallest k because then q is not in p Z[zeta_N].
    """
    if x.is_zero:
        raise ZeroDivisionError("cannot invert zero")
    if cap is None:
        cap = 2 * (p - 1)
    adj, n = _adjugate(x)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    if abs(n) == 1:
        q = CycNum(adj * n, p, k)
        if q.k <= cap:
            return q
    raise PPowerInversionError(f"no q with q*x = {p}**k for k <= {cap}")


@lru_cache(maxsize=None)
def hopf_state_sum_data(n: int) -> tuple:
    """Kauffman state sum of the n-fiber diagram, as ((A-exponent, loops), count).

    The diagram is the closure of the braid (s_1 ... s_(n-1))^n — n strands,
    pairwise linking +1 — with one positive kink inserted into each closure
    arc for the +1 framings: n(n-1) + n crossings, each resolved both ways.
    """
    arcs = itertools.count()
    cur = [next(arcs) for _ in range(n)]
    bottom = list(cur)
    crossings = []  # (bottom-left, bottom-right, top-left, top-right)
    for _ in range(n):
        for i in range(n - 1):
            tl, tr = next(arcs), next(arcs)
            crossings.append((cur[i], cur[i + 1], tl, tr))
            cur[i], cur[i + 1] = tl, tr
    for j in range(n):
        loop = next(arcs)
        crossings.append((cur[j], loop, bottom[j], loop))
    total_arcs = next(arcs)

    # positive crossing: A keeps the strands parallel, A^-1 joins them
    a_pairs = [((bl, tl), (br, tr)) for bl, br, tl, tr in crossings]
    b_pairs = [((bl, br), (tl, tr)) for bl, br, tl, tr in crossings]

    counter: dict[tuple[int, int], int] = {}
    for state in range(2 ** len(crossings)):
        parent = list(range(total_arcs))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        exp = 0
        for idx in range(len(crossings)):
            if state >> idx & 1:
                exp -= 1
                pairs = b_pairs[idx]
            else:
                exp += 1
                pairs = a_pairs[idx]
            for a, b in pairs:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        loops = len({find(x) for x in range(total_arcs)})
        key = (exp, loops)
        counter[key] = counter.get(key, 0) + 1
    return tuple(sorted(counter.items()))


def hopf_state_sum(p: int, n: int) -> CycInt:
    """Evaluate the state-sum data in the ring at p (loop value delta)."""
    N = ring_modulus(p)
    total = from_int(N, 0)
    d = delta(p)
    dpow = [from_int(N, 1)]
    for (exp, loops), count in hopf_state_sum_data(n):
        while len(dpow) <= loops:
            dpow.append(dpow[-1] * d)
        total = total + A_power(p, exp) * dpow[loops] * count
    return total


def hopf_by_points(p: int, ns) -> list[CycInt]:
    """H_n = L(z^n) = sum of w_j z_j^n over skein.hopf_weights, for each n of
    the increasing ns, each checked to be integral.

    z_j = -y_j with y_j = x^j + x^-j and x = A^2 of order p, so a power of
    y_j is a vector over the exponents of x mod p, and multiplying it by y_j
    adds the vector turned j places either way.  Each term w_j y_j^n is the
    term of the previous n times y_j to the difference, reduced into the
    ring, and H_n is (-1)^n times their sum.  The package sums the binomial
    closed form per residue class of s mod 2p instead.
    """
    N = ring_modulus(p)
    terms, done, totals = list(hopf_weights(p)), 0, []
    for n in ns:
        for j, term in enumerate(terms, 1):
            power = [1] + [0] * (p - 1)
            for _ in range(n - done):
                power = list(map(operator.add, power[j:] + power[:j], power[-j:] + power[:-j]))
            poly = [0] * N
            poly[::N // p] = power  # x^k is zeta_N^(kN/p)
            # the power first: the ring product skips its zero coefficients
            terms[j - 1] = CycNum(CycInt.from_poly(N, poly), p) * term
        done = n
        totals.append((sum(terms[1:], terms[0]) * (-1) ** n).as_integral())
    return totals


@lru_cache(maxsize=None)
def hopf_binomial(p: int, n: int) -> CycInt:
    """H_n = S_n / (A^2 - A^-2) for n >= 1, with one exact division.

    S_n is the sum over r < n of C(n-1, r) A^(s^2-1) (A^2s - A^-2s),
    s = n - 2r + 1, whose terms are A^((s+1)^2-2) and A^((s-1)^2-2).
    skein.hopf_bracket uses the same formula, divided term by term and
    summed per class of s mod 2p, so this is not an independent check of
    the formula, only of that summation; hopf_state_sum and hopf_by_points
    are the independent ones.
    """
    N = ring_modulus(p)
    if n == 0:
        return from_int(N, 1)
    total = from_int(N, 0)
    for r in range(n):
        s = n - 2 * r + 1
        term = A_power(p, (s + 1) ** 2 - 2) - A_power(p, (s - 1) ** 2 - 2)
        total = total + term * math.comb(n - 1, r)
    return divide_exact(total, A_power(p, 2) - A_power(p, -2))


def _cycnum(p: int, c) -> CycNum:
    """c, a CycNum, CycInt or int of the ring at p, as a CycNum."""
    N = ring_modulus(p)
    if isinstance(c, int):
        c = from_int(N, c)
    if isinstance(c, CycInt):
        c = CycNum(c, p, 0)
    if c.modulus != N or c.p != p:
        raise ValueError(f"coefficient does not live in the ring for p={p}")
    return c


class ZPoly:
    """Polynomial in the core curve z with coefficients in O_p[1/p], ascending.

    Coefficients may be given as CycNum, CycInt or int; trailing zeros are
    trimmed so the degree is canonical (-1 for the zero polynomial).
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()) -> None:
        cs = [_cycnum(p, c) for c in coeffs]
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
        return other if isinstance(other, ZPoly) else ZPoly(self.p, [other])

    def __add__(self, other):
        a, b = self.coeffs, self._coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return ZPoly(self.p, out)

    def __neg__(self):
        return ZPoly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        o = self._coerce(other)
        if self.is_zero or o.is_zero:
            return ZPoly(self.p)
        out = [_cycnum(self.p, 0)] * (self.degree + o.degree + 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return ZPoly(self.p, out)

    def __eq__(self, other):
        return isinstance(other, ZPoly) and (self.p, self.coeffs) == (other.p, other.coeffs)

    def __repr__(self):
        return f"ZPoly(p={self.p}, coeffs={list(self.coeffs)})"

    def substitute(self, value) -> CycNum:
        """Evaluate at z = value, a CycNum, CycInt or int (Horner)."""
        value = _cycnum(self.p, value)
        acc = _cycnum(self.p, 0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc


@lru_cache(maxsize=None)
def chebyshev_z(p: int, k: int) -> ZPoly:
    """e_0 = 1, e_1 = z, e_(k+1) = z e_k - e_(k-1), in the z-basis."""
    if k < 2:
        return ZPoly(p, [0] * k + [1])
    return ZPoly(p, [0, 1]) * chebyshev_z(p, k - 1) - chebyshev_z(p, k - 2)


@lru_cache(maxsize=None)
def ballot_rows(deg: int) -> tuple[tuple[int, ...], ...]:
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


def to_z(x: SkeinElem) -> ZPoly:
    """The e-basis element x = sum of c_k e_k as a polynomial in z."""
    out = ZPoly(x.p)
    for k, c in enumerate(x.coeffs):
        out = out + chebyshev_z(x.p, k) * c
    return out


def e_coefficients(f: ZPoly) -> list:
    """The coefficients of f on e_0 .. e_deg, through the ballot-number rows."""
    out = [_cycnum(f.p, 0)] * (f.degree + 1)
    for j, cj in enumerate(f.coeffs):
        for k, r in enumerate(ballot_rows(f.degree)[j]):
            if r:
                out[k] = out[k] + cj * r
    return out


def from_z(f: ZPoly) -> SkeinElem:
    """The polynomial f in z as an e-basis skein element."""
    return SkeinElem(f.p, e_coefficients(f))


def twist_z(f: ZPoly, e: int) -> ZPoly:
    """e full twists in the z-basis: to e_k, scale by ((-1)^k A^(k^2+2k))^e, back."""
    out = ZPoly(f.p)
    for k, c in enumerate(e_coefficients(f)):
        eig = A_power(f.p, e * k * (k + 2)) * (-1 if k * e % 2 else 1)
        out = out + chebyshev_z(f.p, k) * (c * eig)
    return out


def bracket_by_cable_power(sat) -> CycNum:
    """L(tz * cable**p) in the z-basis, with L: z^n -> hopf_binomial(p, n)."""
    p = sat.p
    poly = twist_z(to_z(sat.zero_decor), -1)
    cable = to_z(sat.cable_decor)
    for _ in range(p):
        poly = poly * cable
    total = CycNum(from_int(ring_modulus(p), 0), p, 0)
    for n, c in enumerate(poly.coeffs):
        total = total + c * hopf_binomial(p, n)
    return total


def satellite_direct(p: int, cable_decors, zero_decor) -> CycNum:
    """Satellite bracket by expanding every cable-coefficient tuple directly."""
    tz = twist_z(to_z(zero_decor), -1)
    cables = [to_z(c) for c in cable_decors]
    total = CycNum(from_int(ring_modulus(p), 0), p, 0)
    ranges = [range(len(c.coeffs)) for c in cables]
    for m, cm in enumerate(tz.coeffs):
        if cm.is_zero:
            continue
        for combo in itertools.product(*ranges):
            term = cm
            for dec, j in zip(cables, combo):
                term = term * dec.coeffs[j]
            total = total + term * hopf_binomial(p, m + sum(combo))
    return total


@lru_cache(maxsize=None)
def surgery_bracket(p: int) -> CycNum:
    """<omega>**p, the bracket with omega(p) on every component: one Clenshaw
    evaluation of omega(p) and a ring power."""
    return plane_eval(omega(p)) ** p


# the published signed eta: 1/5 (2 zeta20 + zeta20^3 + zeta20^5 - 3 zeta20^7)
# and 1/7 (-2 - zeta14^2 - 2 zeta14^3 + 2 zeta14^4 + zeta14^5), whose first
# term is printed -2 zeta14 (README, "Known discrepancy")
ETA_PUBLISHED = {5: CycNum(CycInt(20, [0, 2, 0, 1, 0, 1, 0, -3]), 5, 1),
                 7: CycNum(CycInt(14, [-2, 0, -1, -2, 2, 1]), 7, 1)}


def invariant_by_surgery_bracket(p: int) -> CycNum:
    """The cover invariant eta^(p+2) <omega>**p at p in {5, 7}, with the published eta."""
    return ETA_PUBLISHED[p] ** (p + 2) * surgery_bracket(p)


def valuation_by_squared_power(p: int) -> int:
    """Half the valuation of the squared invariant eta^(2(p+2)) (<omega>**p)**2."""
    b = surgery_bracket(p)
    v2 = valuation(eta_squared(p) ** (p + 2) * b * b, p)
    if v2 == math.inf or v2 % 2:
        raise InconsistencyError(f"squared valuation {v2} is not finite and even")
    return v2 // 2


@lru_cache(maxsize=None)
def kappa_order_by_search(p: int) -> int:
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
def kappa_residues_by_enumeration(p: int) -> dict:
    """All residues of n*kappa^m mod p, keyed to their first witness (m, n).

    m runs over 0 <= m < ord(kappa), n over 0 <= n < p; larger m, n only
    repeat these residues.
    """
    out: dict[tuple[int, ...], tuple[int, int]] = {}
    power = from_int(ring_modulus(p), 1)
    for m in range(kappa_order(p)):
        for n in range(p):
            out.setdefault(mod_p(power * n, p), (m, n))
        power = power * kappa(p)
    return out


def kappa_residues_by_roots(p: int) -> dict:
    """The table of congruence.kappa_residues, one line per kappa^m, built
    from the ring element kappa^m = zeta_N^(tm) and normalized by _line."""
    N = ring_modulus(p)
    t = kappa_root_exponent(p)
    out: dict[tuple[int, ...], tuple[int, int]] = {mod_p(from_int(N, 0), p): (0, 0)}
    for m in range(kappa_order(p)):
        u, key = _line(p, root(N, t * m).coeffs)
        out.setdefault(key, (m, u))
    return out


def verdict_by_enumeration(x, p: int) -> CongruenceVerdict:
    """The strict verdict: x's residue looked up among every n*kappa^m."""
    witness = kappa_residues_by_enumeration(p).get(mod_p(x, p))
    return CongruenceVerdict(witness is not None, witness, kappa_order_by_search(p) * p)


def phase_verdict_by_search(x, p: int) -> CongruenceVerdict:
    """The strict test applied to x * kappa^j for each j < ord(kappa) in turn."""
    if isinstance(x, CycNum):
        x = x.as_integral()
    checked = 0
    for _ in range(kappa_order_by_search(p)):
        verdict = verdict_by_enumeration(x, p)
        checked += verdict.candidates_checked
        if verdict.congruent:
            return CongruenceVerdict(True, verdict.witness, checked)
        x = x * kappa(p)
    return CongruenceVerdict(False, None, checked)


def random_cycint(rng, N: int, lo: int = -9, hi: int = 9) -> CycInt:
    from skeincalc.cyclotomic import euler_phi
    return CycInt(N, [rng.randint(lo, hi) for _ in range(euler_phi(N))])


def random_skein(rng, p: int, max_degree: int = 3) -> SkeinElem:
    N = ring_modulus(p)
    deg = rng.randint(0, max_degree)
    return SkeinElem(p, [random_cycint(rng, N, -4, 4) for _ in range(deg + 1)])


def smith_by_min_pivot(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(D, U, V) with U*mat*V = D, by pivoting on the least nonzero entry.

    D is diagonal with nonnegative entries and each diagonal entry divides
    the next.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    D = [[int(x) for x in row] for row in mat]
    if any(len(row) != n for row in D):
        raise ValueError("matrix rows have unequal lengths")
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(a, b):
        D[a], D[b] = D[b], D[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in D:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def add_row(dst, src, c):
        D[dst] = [x + c * y for x, y in zip(D[dst], D[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(dst, src, c):
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    for t in range(min(m, n)):
        while True:
            entries = [(abs(D[i][j]), i, j)
                       for i in range(t, m) for j in range(t, n) if D[i][j]]
            if not entries:
                break
            _, pi, pj = min(entries)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            clean = True
            for i in range(t + 1, m):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // D[t][t]))
                    if D[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // D[t][t]))
                    if D[t][j]:
                        clean = False
            if not clean:
                continue
            # pivot isolated; pull in any entry it does not divide and redo
            pivot = D[t][t]
            culprit = next(((i, j) for i in range(t + 1, m) for j in range(t + 1, n)
                            if D[i][j] % pivot), None)
            if culprit is None:
                break
            add_row(t, culprit[0], 1)
        if t < m and t < n and D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
    return D, U, V


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def solve(mat, rhs) -> list[int] | None:
    """An integer solution x of mat @ x = rhs, or None when there is none.

    The columns of mat, each followed by its unit vector, are reduced by the
    kernel one coordinate at a time.  The pivot then divides every value the
    column lattice takes in that coordinate, so the rest of rhs must be a
    multiple of it there; the pivot column times that multiple is taken off,
    and its unit-vector part records the columns used.
    """
    rows = _rows(mat)
    m = len(rows)
    n = len(rows[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    X = [list(col) + e for col, e in zip(zip(*rows), _identity(n))]
    res = [int(v) for v in rhs]
    x = [0] * n
    while res:
        a = 0
        if X:
            _clear_leading(X)
            top = X[0]
            a = top[0]
        if not a:
            if res[0]:
                return None
            X = [row[1:] for row in X]
        else:
            q, r = divmod(res[0], a)
            if r:
                return None
            res = [v - q * c for v, c in zip(res, top)]
            x = [v + q * c for v, c in zip(x, top[len(res):])]
            X = [row[1:] for row in X[1:]]
        res = res[1:]
    return x


def span_by_closure(orders, generators) -> set:
    """The subgroup of Z_orders[0] + Z_orders[1] + ... the generators span.

    Every element reached is added to each generator until nothing new
    appears, so the group must be small.
    """
    zero = (0,) * len(orders)
    span = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = tuple((a + b) % q for a, b, q in zip(x, g, orders))
                if y not in span:
                    span.add(y)
                    new.append(y)
        frontier = new
    return span


def form_elements(form):
    """Every TorsionElement of the form's group, the first coordinate fastest."""
    for values in itertools.product(*map(range, reversed(form.orders))):
        yield TorsionElement(values[::-1])


def complement_by_modulus_columns(h, chi, curves) -> bool:
    """complement_simple as a span test over Z alone.

    Each torsion summand of order q gets a column q*e_j beside the curve
    columns, so the dual's coordinates are read in Z, not in Z/q.
    """
    dual = dual_element(h.form, chi.torsion_values)
    curves = list(curves)
    r, s = h.free_rank, len(h.form.summands)
    rows = [[c.free[j] for c in curves] + [0] * s for j in range(r)]
    rows += [[c.torsion.values[j] for c in curves] + [q if k == j else 0 for k in range(s)]
             for j, q in enumerate(h.form.orders)]
    return in_span(rows, [0] * r + list(dual.values))


def skein_str(x: SkeinElem) -> str:
    """x as text on the e-basis: c_0 + c_1·e_1 + ..., zero terms left out."""
    if x.is_zero:
        return "0"
    terms = []
    for k, c in enumerate(x.coeffs):
        if c.is_zero:
            continue
        body = str(c)
        if " " in body or "/" in body:
            body = f"({body})"
        if k == 0:
            terms.append(body)
        else:
            terms.append(f"e_{k}" if body == "1" else f"{body}·e_{k}")
    return " + ".join(terms)


def skein_to_json(x: SkeinElem) -> dict:
    """The JSON form {"p": p, "coeffs": [CycNum, ...]}, coeffs[k] on e_k."""
    return {"p": x.p, "coeffs": [c.to_json() for c in x.coeffs]}


def skein_from_json(data: dict) -> SkeinElem:
    return SkeinElem(data["p"], [CycNum.from_json(c) for c in data["coeffs"]])


def valuation_cofactor_product(N: int, p: int) -> CycInt:
    """prod_{a=2}^{p-1} (1 - zeta_p**a) in Z[zeta_N], by p - 2 ring products."""
    c = one(N)
    for a in range(2, p):
        c = c * (one(N) - root(N, a * N // p))
    return c


def valuation_cofactor(N: int, p: int) -> CycInt:
    """c = prod_{a=2}^{p-1} (1 - zeta_p**a), so that (1 - zeta_p) * c = p.

    Built as c = -sum_{k<p} (k+1) zeta_p**k with one reduction: (1 - zeta_p)
    times that sum telescopes to sum_{k<p} zeta_p**k - p*zeta_p**p = -p.
    """
    step = N // p
    poly = [0] * ((p - 1) * step + 1)
    poly[::step] = range(-1, -p - 1, -1)
    return CycInt.from_poly(N, poly)


def valuation_by_cofactor(x: CycInt, p: int):
    """The (1 - zeta_p)-adic valuation with one ring product per unit of it.

    Whole factors of p come off first; then x / (1 - zeta_p) = x * c / p
    with c = valuation_cofactor(N, p), exact iff p divides every coefficient
    of x * c.
    """
    if x.is_zero:
        return math.inf
    N, v = x.modulus, 0
    while not any(c % p for c in x.coeffs):
        x = CycInt(N, [c // p for c in x.coeffs])
        v += p - 1
    c = valuation_cofactor(N, p)
    while True:
        y = (x * c).coeffs
        if any(t % p for t in y):
            return v
        x = CycInt(N, [t // p for t in y])
        v += 1


def prime_power_by_trial_division(q: int) -> tuple[int, int]:
    """(p, t) with q = p**t, finding a prime factor below 2**10 by division."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = next((f for f in range(2, min(1 << 10, math.isqrt(q) + 1)) if q % f == 0), None)
    if p is None:
        t = next(t for t in range(max(q.bit_length() // 10, 1), 0, -1) if _iroot(q, t) ** t == q)
        p = _iroot(q, t)
    else:
        t = round(math.log(q, p))
    if p ** t != q or not is_prime(p):
        raise ValueError("summand order must be a prime power")
    return p, t


def canonical_orbit(seq) -> tuple:
    """Lexicographically least cyclic rotation: the orbit representative."""
    seq = tuple(seq)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def necklace_orbits_by_rotation(num_colors: int, p: int):
    """Each shift-orbit representative of the color sequences of length p,
    in the order of the first sequence of its orbit."""
    seen = set()
    for seq in itertools.product(range(num_colors), repeat=p):
        rep = canonical_orbit(seq)
        if rep not in seen:
            seen.add(rep)
            yield rep


def orbit_check_by_sequence(weights, orbit_values, p: int) -> OrbitCheckReport:
    """The orbit-collapse check with every sequence's weights multiplied in turn."""
    weights = list(weights)
    num_colors = len(weights)
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
    congruent = not any(mod_p(diff, p)) if isinstance(diff, CycInt) else diff % p == 0
    return OrbitCheckReport(lhs, rhs, congruent, num_colors ** p)


# the argparse command line, with its argument types

def _prime_arg(min_p: int):
    def parse(text: str) -> int:
        try:
            p = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        try:
            ok = p >= min_p and p % 2 == 1 and is_prime(p)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if not ok:
            raise argparse.ArgumentTypeError(f"p must be an odd prime >= {min_p}, got {p}")
        return p
    return parse


def _nonneg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if n < 0:
        raise argparse.ArgumentTypeError("value must be >= 0")
    return n


def _positive(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return n


def argparse_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeincalc",
        description="Exact quantum-invariant, congruence and linking-form calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(sp):
        sp.add_argument("--json", action="store_true", help="emit JSON instead of text")

    sp = sub.add_parser("invariant", help="invariant of the surgered cover, residue "
                                          "verdict and valuation (p = 5 or 7)")
    sp.add_argument("--p", type=_prime_arg(5), required=True)
    add_json_flag(sp)

    sp = sub.add_parser("hopf", help="bracket of n +1-framed Hopf fibers")
    sp.add_argument("--p", type=_prime_arg(5), required=True)
    sp.add_argument("--n", type=_nonneg, required=True)
    add_json_flag(sp)

    sp = sub.add_parser("valuation", help="(1-zeta_p)-adic valuation of the cover "
                                          "invariant vs the quadratic bound and p-1")
    sp.add_argument("--p", type=_prime_arg(5), required=True)
    add_json_flag(sp)

    sp = sub.add_parser("homology", help="cokernel of an integer matrix")
    sp.add_argument("--matrix", required=True,
                    help="rows separated by ';', entries by ',' (e.g. \"0,5;5,5\"); "
                         "write --matrix=-1,0;0,1 when the literal starts with '-'")
    add_json_flag(sp)

    cover = sub.add_parser("cover", help="linking-form cover analysis")
    cover_sub = cover.add_subparsers(dest="cover_command", required=True)
    sp = cover_sub.add_parser("analyze", help="simplicity, curve selection and "
                                              "complement test for a character")
    sp.add_argument("--form", required=True, help='Wall form literal, e.g. "A25+B5[2]"')
    sp.add_argument("--char", required=True,
                    help='character literal, e.g. "free:0;tors:1/5,0"')
    sp.add_argument("--free-rank", type=_nonneg, default=0)
    sp.add_argument("--order", type=_nonneg, default=None,
                    help="target order k (default: inferred from denominators)")
    sp.add_argument("--curves", nargs="*", default=[],
                    help='curve literals, e.g. "free:0;tors:5,0"')
    add_json_flag(sp)

    sp = sub.add_parser("orbit-check", help="verify the mod-p orbit-collapse "
                                            "congruence on random ring data")
    sp.add_argument("--p", type=_prime_arg(3), required=True)
    sp.add_argument("--colors", type=_positive, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=_positive, default=1)
    add_json_flag(sp)
    return parser
