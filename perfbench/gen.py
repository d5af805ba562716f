"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``random.Random`` that the caller seeds from
``--seed``, so one seed gives one input stream.  Inputs are plain tuples and
ints; the ring elements of the congruence queries are built by the caller.

The query mixes are stratified: each algebra block and each CLI session holds
a fixed multiset of query kinds, and only the operands vary with the seed.
That keeps the cost of a block nearly the same for every seed, so medians
taken over different seeds agree.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text(encoding="utf-8"))

# primes of the kappa-residue queries: both ring shapes (N = 4p and N = 2p)
CONGRUENCE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# per algebra block, besides one query per (prime, strict|phase, planted|random);
# chosen so that congruence, linkform and intlinalg each take at least a fifth
# of the busy time (README.md records the shares measured with --trace 1)
FORMS_PER_BLOCK = 150
MATRICES_PER_BLOCK = 700


def _odd_primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n, i)))
    return tuple(i for i in range(3, n) if sieve[i])


FORM_PRIMES = _odd_primes_below(10 ** 4)


# ---------------------------------------------------------------------------
# algebra_queries
# ---------------------------------------------------------------------------

def kappa_query(rng: random.Random, p: int, phi: int, order: int, mode: str,
                planted: bool) -> dict:
    """A residue query on an element of O_p given by its power-basis coefficients.

    Planted elements are n*kappa^m + p*y; the caller forms them from ``m``,
    ``n`` and ``y``.  Random elements have coefficients in [-p^2, p^2].
    """
    if planted:
        return {"kind": "kappa", "p": p, "mode": mode, "planted": True,
                "m": rng.randrange(order), "n": rng.randrange(p),
                "y": tuple(rng.randint(-p, p) for _ in range(phi))}
    return {"kind": "kappa", "p": p, "mode": mode, "planted": False,
            "coeffs": tuple(rng.randint(-p * p, p * p) for _ in range(phi))}


def _nonresidue(rng: random.Random, p: int) -> int:
    while True:
        u = rng.randrange(2, p)
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u


def _vp(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def dual_coordinates(p: int, summands, torsion_values) -> list[int]:
    """Bockstein dual of a character, computed from the Wall form directly.

    Used only to plant curve sets with a known answer; the checker tests the
    package's dual through the pairing instead.
    """
    out = []
    for (t, kind, unit), v in zip(summands, torsion_values):
        q = p ** t
        a = v.numerator * (q // v.denominator)
        if kind == "B":
            a *= pow(unit, -1, q)
        out.append(a % q)
    return out


def form_query(rng: random.Random) -> dict:
    """A Wall-form analysis with a planted complement answer.

    The form has 1-4 summands of exponent <= 3 at a prime below 10^4.  The
    character targets Z_p, Z_(p^2) (onto, when some exponent is >= 2) or is
    zero on torsion.  The curve set either contains the dual in its span
    (expected True) or lives in a subgroup that misses it (expected False).
    """
    p = rng.choice(FORM_PRIMES)
    summands = []
    for _ in range(rng.randint(1, 4)):
        t = rng.randint(1, 3)
        if rng.random() < 0.5:
            summands.append((t, "A", 1))
        else:
            summands.append((t, "B", _nonresidue(rng, p)))
    literal = "+".join(f"A{p ** t}" if kind == "A" else f"B{p ** t}[{u}]"
                       for t, kind, u in summands)
    s = len(summands)
    target = rng.choice(("p", "p", "p2", "zero"))
    if target == "p2" and max(t for t, _, _ in summands) < 2:
        target = "p"
    if target == "zero":
        order, tors = p, [Fraction(0)] * s
    elif target == "p":
        order = p
        tors = [Fraction(rng.randrange(p), p) for _ in range(s)]
        if not any(tors):
            tors[rng.randrange(s)] = Fraction(rng.randrange(1, p), p)
    else:
        order = p * p
        tors = [Fraction(rng.randrange(p * p), p * p) if t >= 2
                else Fraction(rng.randrange(p), p) for t, _, _ in summands]
        i = rng.choice([i for i, (t, _, _) in enumerate(summands) if t >= 2])
        tors[i] = Fraction(rng.randrange(p) * p + rng.randrange(1, p), p * p)
    r = rng.randint(0, 2)
    free_values = tuple(rng.randrange(order) for _ in range(r))
    dual = dual_coordinates(p, summands, tors)
    orders = [p ** t for t, _, _ in summands]
    curves = [(tuple(rng.randint(-5, 5) for _ in range(r)),
               tuple(rng.randrange(q) for q in orders))
              for _ in range(rng.randint(1, 3))]
    if any(dual) and rng.random() < 0.5:
        # every curve is divisible by p^(v+1) on a summand where the dual has
        # valuation v < t there, so the span cannot reach the dual
        j = rng.choice([j for j, c in enumerate(dual) if c])
        step = p ** (_vp(dual[j], p) + 1)
        curves = [(free, tuple(rng.randrange(orders[j] // step) * step if i == j else x
                               for i, x in enumerate(tors_c)))
                  for free, tors_c in curves]
        expect_complement = False
    else:
        a = rng.randint(-3, 3)
        free1, tors1 = curves[0]
        curves.append((tuple(a * f for f in free1),
                       tuple((d + a * x) % q for d, x, q in zip(dual, tors1, orders))))
        rng.shuffle(curves)
        expect_complement = True
    return {"kind": "form", "literal": literal, "p": p, "summands": tuple(summands),
            "order": order, "free_rank": r, "free_values": free_values,
            "torsion_values": tuple(tors), "curves": tuple(curves),
            "expect_complement": expect_complement}


def matrix_query(rng: random.Random) -> dict:
    """A square integer matrix of size 4-8; one in four is singular."""
    n = rng.randint(4, 8)
    rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.25:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return {"kind": "matrix", "rows": tuple(tuple(r) for r in rows)}


def algebra_block(rng: random.Random, ring_facts: dict) -> list[dict]:
    """One stratified block of algebra queries, in seeded order.

    ``ring_facts`` maps each prime to (phi, kappa order).  The block holds one
    query per (prime, strict|phase, planted|random) plus fixed numbers of
    form and matrix queries.
    """
    block = []
    for p in CONGRUENCE_PRIMES:
        phi, order = ring_facts[p]
        for mode in ("strict", "phase"):
            for planted in (True, False):
                block.append(kappa_query(rng, p, phi, order, mode, planted))
    block += [form_query(rng) for _ in range(FORMS_PER_BLOCK)]
    block += [matrix_query(rng) for _ in range(MATRICES_PER_BLOCK)]
    rng.shuffle(block)
    return block


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def _pinned(prefix: str) -> list[str]:
    return sorted(k for k in PINS["cli"] if k.startswith(prefix))


def cli_session(rng: random.Random) -> list[list[str]]:
    """One session of CLI calls, in seeded order.

    Every session holds the same kinds of call: invariant at p = 5 and 7,
    valuation at p = 5, 7 and 11, one Hopf bracket, one homology, one cover
    analysis and one orbit check.  Text or JSON output is drawn per call.
    Homology matrices and orbit-check parameters are generated; the other
    calls come from the pinned menu.
    """
    def fmt():
        return ["--json"] if rng.random() < 0.5 else []

    calls = [["invariant", "--p", "5"] + fmt(), ["invariant", "--p", "7"] + fmt()]
    calls += [["valuation", "--p", p] + fmt() for p in ("5", "7", "11")]
    calls.append(rng.choice(_pinned("hopf ")).split(" "))
    calls.append(rng.choice(_pinned("cover analyze ")).split(" "))
    n = rng.randint(2, 4)
    rows = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.25:
        rows[-1] = list(rows[0])
    matrix = ";".join(",".join(str(x) for x in row) for row in rows)
    # the = form keeps argparse from reading a leading minus sign as an option
    calls.append(["homology", f"--matrix={matrix}"] + fmt())
    p, colors = rng.choice(((3, 2), (3, 3), (5, 2), (5, 3), (7, 2)))
    calls.append(["orbit-check", "--p", str(p), "--colors", str(colors),
                  "--seed", str(rng.randrange(10 ** 6)),
                  "--trials", str(rng.randint(1, 2))] + fmt())
    rng.shuffle(calls)
    return calls
