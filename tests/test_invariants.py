import math
import random
import time

import pytest

from skeincalc import cyclotomic, invariants, skein
from skeincalc.cli import MAX_P
from skeincalc.congruence import check_kappa_congruence, cm_bound
from skeincalc.cyclotomic import (CycInt, CycNum, is_prime, mod_p, ring_modulus, valuation,
                                  zero)
from skeincalc.invariants import (
    AbelianGroup,
    HopfSatellite,
    base_homology,
    bracket_satellite,
    cover_invariant,
    cover_invariant_valuation,
    homology_from_matrix,
    linking_matrix,
)
from skeincalc.skein import (A_power, SkeinElem, delta, eta, eta_squared, hopf_bracket, omega,
                             omega_bracket, point_eval, quantum_int)

from oracles import (bracket_by_cable_power, from_z, invariant_by_surgery_bracket, random_cycint,
                     random_skein, satellite_direct, surgery_bracket, to_z,
                     valuation_by_squared_power)

# the published p=5 value and the forced p=7 value (see README notes)
VALUE_P5 = CycInt(20, [0, -2, 0, 4, 0, -1, 0, -2])
VALUE_P7 = CycInt(14, [84, 0, -56, -63, 63, 56])


def test_trivial_satellite():
    for p in (3, 5, 7):
        sat = HopfSatellite(p, SkeinElem(p, [1]), SkeinElem(p, [1]))
        assert bracket_satellite(sat) == 1


def test_bracket_matches_p5_binomial_display():
    # expanding the 0-framed ring first gives the two binomial sums
    p = 5
    d = delta(p)
    total = CycNum(CycInt(20, [0] * 8), p, 0)
    for k in range(6):
        c = math.comb(5, k)
        total = total + d ** k * c * hopf_bracket(p, k)
        total = total - A_power(p, -3) * d * (d ** k * c * hopf_bracket(p, k + 1))
    assert bracket_satellite(HopfSatellite(p, omega(p), omega(p))) == total


def test_bracket_matches_p7_multinomial_display():
    p = 7
    d = delta(p)
    A6, A11 = A_power(p, 6), A_power(p, 11)
    ring_coeffs = [1 + A6 - A6 * d * d, -(A11 * d), A6 * (d * d - 1)]
    total = CycNum(CycInt(14, [0] * 6), p, 0)
    for i in range(8):
        for j in range(8 - i):
            k = 7 - i - j
            m = math.factorial(7) // (math.factorial(i) * math.factorial(j) * math.factorial(k))
            base = (2 - d * d) ** i * d ** j * (d * d - 1) ** k * m
            for shift, rc in enumerate(ring_coeffs):
                total = total + rc * base * hopf_bracket(p, j + 2 * k + shift)
    assert bracket_satellite(HopfSatellite(p, omega(p), omega(p))) == total


def test_bracket_matches_direct_expansion():
    rng = random.Random(17)
    for p in (3, 5):
        for _ in range(3):
            cable = random_skein(rng, p, max_degree=2)
            ring = random_skein(rng, p, max_degree=2)
            collapsed = bracket_satellite(HopfSatellite(p, cable, ring))
            direct = satellite_direct(p, [cable] * p, ring)
            assert collapsed == direct
    # the production decorations at p=7
    assert bracket_satellite(HopfSatellite(7, omega(7), omega(7))) == \
        satellite_direct(7, [omega(7)] * 7, omega(7))
    # decorations with p-power denominators, on top of the weights' own 1/p
    for p in (5, 7):
        N = ring_modulus(p)
        cable = SkeinElem(p, [CycNum(random_cycint(rng, N, -4, 4), p, rng.randint(0, 2))
                              for _ in range(2)])
        ring = SkeinElem(p, [CycNum(random_cycint(rng, N, -4, 4), p, j) for j in (2, 0, 1)])
        value = bracket_satellite(HopfSatellite(p, cable, ring))
        assert value == satellite_direct(p, [cable] * p, ring)
        assert value.k > 0


def test_bracket_matches_cable_power_oracle():
    # the production decorations against L(tz * cable**p) in the z-basis
    for p in (3, 5, 7, 11, 13, 17):
        sat = HopfSatellite(p, omega(p), omega(p))
        assert bracket_satellite(sat) == bracket_by_cable_power(sat)


def test_bracket_linear_in_ring_decoration():
    rng = random.Random(18)
    for _ in range(5):
        cable = random_skein(rng, 5, max_degree=2)
        x, y = random_skein(rng, 5), random_skein(rng, 5)
        a = bracket_satellite(HopfSatellite(5, cable, from_z(to_z(x) + to_z(y))))
        b = bracket_satellite(HopfSatellite(5, cable, x))
        c = bracket_satellite(HopfSatellite(5, cable, y))
        assert a == b + c


def test_direct_expansion_multilinear_per_cable_slot():
    rng = random.Random(19)
    p = 3
    ring = random_skein(rng, p, max_degree=1)
    cables = [random_skein(rng, p, max_degree=1) for _ in range(p)]
    x, y = random_skein(rng, p, max_degree=1), random_skein(rng, p, max_degree=1)
    for slot in range(p):
        with_sum = list(cables)
        with_sum[slot] = from_z(to_z(x) + to_z(y))
        with_x = list(cables)
        with_x[slot] = x
        with_y = list(cables)
        with_y[slot] = y
        assert satellite_direct(p, with_sum, ring) == \
            satellite_direct(p, with_x, ring) + satellite_direct(p, with_y, ring)


def test_cover_invariant_p5_reproduces_published_value():
    v = cover_invariant(5)
    assert v.k == 0
    assert v == VALUE_P5


def test_cover_invariant_p7_value():
    # forced by the pinned conventions; lies in 7*O_7 (see README on the
    # misprinted published display)
    v = cover_invariant(7)
    assert v.k == 0
    assert v == VALUE_P7
    assert not any(mod_p(v.as_integral(), 7))


def test_cover_invariant_unsupported_prime():
    # the Gauss-sum eta at a prime with no published display, raised to
    # p + 2 against the oracle's own Clenshaw <omega>**p
    assert cover_invariant(11) == eta(11) ** 13 * surgery_bracket(11)


def test_valuation_pathways_agree():
    # and the paper's verdicts: the Z5 x Z5 quotient is not congruent, while
    # from p = 7 on the invariant lies in p O_p, congruent to 0 = kappa^0 * 0
    for p in range(5, MAX_P + 1, 2):
        if not is_prime(p):
            continue
        value = cover_invariant(p)
        assert cover_invariant_valuation(p) == valuation(value, p), p
        verdict = check_kappa_congruence(value, p)
        if p == 5:
            assert not verdict.congruent and verdict.witness is None
        else:
            assert verdict.congruent and verdict.witness == (0, 0), p


def test_valuation_values():
    assert cover_invariant_valuation(5) == 3
    v7 = cover_invariant_valuation(7)
    assert v7 >= 6  # in 7*O_7
    assert v7 == 10  # regression: computed exact valuation


def test_linking_matrix():
    assert linking_matrix(5) == [[0, 5], [5, 5]]
    assert linking_matrix(7) == [[0, 7], [7, 7]]
    for p in (5, 7, 11):
        m = linking_matrix(p)
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        assert det == -p * p


def test_homology_examples():
    # the cokernel of the linking matrix is the oracle of the closed form
    for p in range(3, 102, 2):
        if is_prime(p):
            assert homology_from_matrix(linking_matrix(p)) == AbelianGroup(0, [p, p])
            assert base_homology(p) == AbelianGroup(0, [p, p])
    assert homology_from_matrix([[1]]) == AbelianGroup(0, [])
    assert str(homology_from_matrix([[0, 5], [5, 5]])) == "Z_5 ⊕ Z_5"


def test_homology_invariant_factor_chain():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        g = homology_from_matrix(m)
        for a, b in zip(g.torsion, g.torsion[1:]):
            assert b % a == 0
        det = _det(m)
        if det:
            assert g.free_rank == 0
            assert math.prod(g.torsion) == abs(det)


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_abelian_group_str_and_validation():
    assert str(AbelianGroup(0, [])) == "0"
    assert str(AbelianGroup(1, [])) == "Z"
    assert str(AbelianGroup(2, [2, 4])) == "Z^2 ⊕ Z_2 ⊕ Z_4"
    assert math.prod(AbelianGroup(0, [5, 5]).torsion) == 25
    assert AbelianGroup(1, []).free_rank == 1
    with pytest.raises(ValueError):
        AbelianGroup(0, [4, 6])  # 4 does not divide 6


def test_bracket_collapse_at_large_p_against_direct():
    # degree-1 decorations keep the direct expansion tractable (2^11 tuples)
    # at a large p
    rng = random.Random(23)
    p = 11
    cable = random_skein(rng, p, max_degree=1)
    ring = random_skein(rng, p, max_degree=1)
    assert bracket_satellite(HopfSatellite(p, cable, ring)) == \
        satellite_direct(p, [cable] * p, ring)


def test_valuation_beyond_the_tabulated_primes():
    # p = 13: the bound predicts membership in p*O_p; the exact valuation is
    # pinned as a regression value
    v = cover_invariant_valuation(13)
    assert v >= 15  # quadratic bound
    assert v >= 12  # p*O_p membership
    assert v == 55
    # p = 17 equals (p-2)(p-3)/2; the bracket it rests on is identical to
    # the one the composition-enumerating multinomial sum gave (165 s on a
    # 2-CPU machine, against about 0.02 s for the point evaluation)
    cover_invariant_valuation.cache_clear()
    t0 = time.perf_counter()
    v = cover_invariant_valuation(17)
    elapsed = time.perf_counter() - t0
    assert v == 105
    assert v >= cm_bound(17)
    assert elapsed < 20.0


def test_valuation_past_the_benchmark_primes():
    # both values equal (p-2)(p-3)/2 and were first computed in the z-basis
    # with one ring product per pair of skein coefficients (4.4 s at p = 23
    # on a 2-CPU machine, against about 0.02 s for the point evaluation)
    assert cover_invariant_valuation(19) == 136
    cover_invariant_valuation.cache_clear()
    t0 = time.perf_counter()
    v = cover_invariant_valuation(23)
    elapsed = time.perf_counter() - t0
    assert v == 210
    assert elapsed < 5.0


def test_valuation_at_p101_makes_few_ring_products(monkeypatch):
    # the valuation is (p - 2) v(<omega>) / 2 with <omega> one sum of powers
    # of A, so it makes no ring product (24 when it raised the Clenshaw value
    # of omega to the p-th power and multiplied by eta^(2(p+2)), 80 when the
    # bracket summed over the points of hopf_points and the valuation
    # multiplied by the cofactor, 330 when the weights and twists were built
    # by ring products, 9,354 when the decorations were evaluated by Horner's
    # rule in the z-basis)
    for module in (skein, invariants):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    calls = []
    kernel = cyclotomic.mul_reduce

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(cyclotomic, "mul_reduce", counting)
    assert cover_invariant_valuation(101) == 4851
    assert len(calls) <= 30


def test_valuation_closed_form():
    # the cover invariant is eta^(2-p), so its valuation is (p-2)(p-3)/2
    for p in range(5, 102, 2):
        if is_prime(p):
            assert cover_invariant_valuation(p) == (p - 2) * (p - 3) // 2
            assert cover_invariant(p) * eta(p) ** (p - 2) == 1, p


def test_closed_form_lemmas():
    # README, "The cover invariant is eta^(2-p)": (a) omega vanishes at z_j
    # for j >= 2, (b) omega(z_1) = eta^-2, (c) w_1 tz(z_1) = 1; and the
    # closed form of <omega> = omega(z_1) against the Clenshaw value and the
    # sum of [j]^2 (at p = 3 both are the single term 1)
    assert omega_bracket(3) == 1
    for p in range(3, 102, 2):
        if not is_prime(p):
            continue
        om = omega(p)
        for j in range(2, (p - 1) // 2 + 1):
            assert point_eval(om, j).is_zero, (p, j)
        assert omega_bracket(p) == point_eval(om, 1), p
        squares = sum((quantum_int(p, j) ** 2 for j in range(1, (p - 1) // 2 + 1)),
                      zero(ring_modulus(p)))
        assert omega_bracket(p) == squares, p
        assert eta_squared(p) * point_eval(om, 1) == 1
        w1 = skein.hopf_weights(p)[0]
        assert w1 * point_eval(skein.twist(om, -1), 1) == 1


def test_surgery_bracket_is_the_point_bracket():
    # the oracle routes against the closed form: <omega>**p by Clenshaw and
    # a ring power, against the (p-1)/2-point sum and the closed <omega>;
    # the invariant eta^(p+2) <omega>**p and half the valuation of its
    # square against eta <omega>**((p-1)/2) and (p - 2) v(<omega>) / 2
    for p in (3, 5, 7, 11, 13, 101):
        assert surgery_bracket(p) == omega_bracket(p) ** p, p
        assert surgery_bracket(p) == \
            bracket_satellite(HopfSatellite(p, omega(p), omega(p))), p
    for p in (5, 7):
        assert invariant_by_surgery_bracket(p) == cover_invariant(p), p
    for p in (5, 7, 11, 13, 53, 101):
        assert valuation_by_squared_power(p) == cover_invariant_valuation(p), p


def test_valuation_at_p61_cold():
    for fn in (skein.omega, skein.hopf_weights, skein.eta_squared,
               skein.omega_bracket, cover_invariant_valuation):
        fn.cache_clear()
    t0 = time.perf_counter()
    v = cover_invariant_valuation(61)
    elapsed = time.perf_counter() - t0
    assert v == 1711
    assert elapsed < 5.0
