"""Answer gates.  Each checker returns None for a correct answer and a short
reason otherwise; the workload counts a reason as a failed operation.

Pinned answers come from ``pins.json``.  Generated queries are checked by a
route that does not share the code path under test:

* kappa residues: planted elements must come back congruent with a witness
  that reproduces them; for random elements the verdict is compared with a
  brute-force search that multiplies by every power of kappa^-1 and asks
  whether an integer remains mod p (no residue table, no ``mod_p``);
* linking forms: ``pair(dual, e_i)`` must reproduce the character on every
  basis element, and the complement test must give the planted answer;
* cokernels: the order must equal |det| for a nonsingular matrix, and the
  free rank must equal the nullity otherwise (both by exact elimination
  over Q);
* CLI: stdout must equal pinned bytes, or bytes built from the invariant
  factors computed as quotients of determinantal divisors.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from skeincalc.linkform import TorsionElement

from .gen import PINS


# ---------------------------------------------------------------------------
# cover_sweep
# ---------------------------------------------------------------------------

def check_cover_pass(results: dict) -> str | None:
    """Compare one pass's results with the pinned p=5/p=7 invariants and valuations."""
    for p, pin in PINS["cover"].items():
        got = results["cover"].get(p)
        if got != pin:
            return f"cover_invariant({p}) and verdicts {got} != pinned {pin}"
    for key in ("valuation", "cm_bound"):
        if results[key] != PINS[key]:
            return f"{key} {results[key]} != pinned {PINS[key]}"
    return None


# ---------------------------------------------------------------------------
# algebra_queries
# ---------------------------------------------------------------------------

class KappaOracle:
    """Brute-force kappa-residue membership, independent of the residue table.

    x = n*kappa^m (mod p) iff kappa^-m * x is an integer mod p, i.e. every
    power-basis coefficient but the constant one is divisible by p.
    """

    def __init__(self, kappa, order_of):
        self._kappa = kappa
        self._order_of = order_of
        self._inverse_powers = {}

    def _powers(self, p: int):
        if p not in self._inverse_powers:
            order = self._order_of(p)
            inv = self._kappa(p) ** (order - 1)
            powers = [inv ** 0]
            for _ in range(order - 1):
                powers.append(powers[-1] * inv)
            self._inverse_powers[p] = powers
        return self._inverse_powers[p]

    def congruent(self, x, p: int) -> bool:
        for power in self._powers(p):
            y = power * x
            if all(c % p == 0 for c in y.coeffs[1:]):
                return True
        return False


def witness_reproduces(x, p: int, witness, kappa) -> bool:
    m, n = witness
    diff = kappa(p) ** m * n - x
    return all(c % p == 0 for c in diff.coeffs)


def check_kappa(query: dict, x, verdict, truth: bool, kappa) -> str | None:
    """``truth`` is True for planted elements and the oracle's answer otherwise."""
    if verdict.congruent != truth:
        return f"p={query['p']} {query['mode']}: congruent={verdict.congruent}, expected {truth}"
    if query["mode"] == "strict" and truth and not witness_reproduces(x, query["p"], verdict.witness, kappa):
        return f"p={query['p']}: witness {verdict.witness} does not reproduce the element"
    return None


def check_form(query: dict, form, dual, simple: bool, picks, complement: bool, pair) -> str | None:
    """Outputs of one Wall-form analysis against the pairing and the plant."""
    s = len(query["summands"])
    for i, v in enumerate(query["torsion_values"]):
        basis = TorsionElement([1 if j == i else 0 for j in range(s)])
        if pair(form, dual, basis) != v:
            return f"pair(dual, e_{i}) != chi(e_{i}) = {v} for {query['literal']}"
    if simple != (not any(query["torsion_values"])):
        return f"is_simple={simple} for torsion values {query['torsion_values']}"
    if picks is not None:
        p = query["p"]
        if sorted(c.summand for c in picks) != [i for i, c in enumerate(dual.values) if c]:
            return f"curve selection misses a summand where the dual is nonzero: {picks}"
        for c in picks:
            want = Fraction(1, p) if query["order"] == p else Fraction(c.chi_value, p * p)
            if pair(form, dual, c.element) != want or getattr(c, "pairing", want) != want:
                return f"selected curve {c} does not pair with the dual to {want}"
    if complement != query["expect_complement"]:
        return f"complement_simple={complement}, planted {query['expect_complement']}"
    return None


def _eliminate(rows) -> tuple[int, Fraction]:
    """(rank, determinant) by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, m = len(a), len(a[0])
    rank, det = 0, Fraction(1)
    for col in range(m):
        piv = next((r for r in range(rank, n) if a[r][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][col]
        for r in range(rank + 1, n):
            f = a[r][col] / a[rank][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank, det if rank == n == m else Fraction(0)


def check_homology(rows, group) -> str | None:
    """Cokernel order |det| when nonsingular; free rank = nullity otherwise."""
    rank, det = _eliminate(rows)
    n = len(rows)
    if det:
        if group.free_rank or math.prod(group.torsion) != abs(det):
            return f"cokernel {group} has order != |det| = {abs(det)}"
    elif group.free_rank != n - rank:
        return f"cokernel {group} has free rank != nullity {n - rank}"
    return None


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

def _det(rows) -> int:
    return int(_eliminate(rows)[1])


def invariant_factors(rows) -> tuple[int, list[int]]:
    """(free rank, factors > 1) from determinantal divisors d_k = gcd of k-minors."""
    n = len(rows)
    divisors = [1]
    for k in range(1, n + 1):
        g = 0
        for r in itertools.combinations(range(n), k):
            for c in itertools.combinations(range(n), k):
                g = math.gcd(g, _det([[rows[i][j] for j in c] for i in r]))
        if g == 0:
            break
        divisors.append(g)
    factors = [divisors[k] // divisors[k - 1] for k in range(1, len(divisors))]
    return n - (len(divisors) - 1), [f for f in factors if f > 1]


def expected_stdout(argv: list[str]) -> str:
    """The stdout a correct CLI prints for ``argv``."""
    key = " ".join(argv)
    if key in PINS["cli"]:
        return PINS["cli"][key]
    as_json = "--json" in argv
    if argv[0] == "homology":
        text = argv[1].removeprefix("--matrix=")
        rows = [[int(x) for x in row.split(",")] for row in text.split(";")]
        free, torsion = invariant_factors(rows)
        if as_json:
            record = {"matrix": text, "homology": {"free_rank": free, "torsion": torsion}}
            return json.dumps(record, sort_keys=True) + "\n"
        parts = (["Z"] if free == 1 else [f"Z^{free}"] if free else [])
        parts += [f"Z_{t}" for t in torsion]
        return (" ⊕ ".join(parts) if parts else "0") + "\n"
    if argv[0] == "orbit-check":
        opts = dict(zip(argv[1:9:2], (int(v) for v in argv[2:9:2])))
        p, colors, seed, trials = opts["--p"], opts["--colors"], opts["--seed"], opts["--trials"]
        # non-constant necklaces have size p, so the collapse always holds
        if as_json:
            record = {"p": p, "colors": colors, "seed": seed, "trials": trials,
                      "all_congruent": True, "sequences_per_trial": colors ** p,
                      "residue_diffs_zero": [True] * trials}
            return json.dumps(record, sort_keys=True) + "\n"
        return (f"orbit-collapse congruence mod {p} with {colors} colors, "
                f"{trials} trial(s), seed {seed}\n"
                f"sequences per trial: {colors ** p}\n"
                "all congruent: yes\n")
    raise KeyError(f"no expected output for {key!r}")
