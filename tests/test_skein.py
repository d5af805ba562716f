import math
import random

import pytest

from skeincalc import cyclotomic, skein
from skeincalc.cli import MAX_P
from skeincalc.cyclotomic import CycNum, from_int, is_prime, ring_modulus, root
from skeincalc.errors import ModulusMismatchError
from skeincalc.skein import (
    A_power,
    SkeinElem,
    delta,
    eta,
    eta_squared,
    hopf_bracket,
    kappa,
    kappa_exponent,
    omega,
    phase_pinned,
    plane_eval,
    point_eval,
    quantum_int,
    twist,
)

from oracles import (ETA_PUBLISHED, ZPoly, from_z, hopf_binomial, hopf_by_points, hopf_state_sum,
                     numeric, random_skein, skein_from_json, skein_str, skein_to_json, to_z)

# every prime the CLI accepts for the invariant
PRIMES = [p for p in range(5, MAX_P + 1, 2) if is_prime(p)]


def e(p, k):
    """The Chebyshev element e_k as a skein element."""
    return SkeinElem(p, [0] * k + [1])


def test_delta_examples():
    # p=5: A = zeta20^2, delta = -zeta20^4 - zeta20^-4
    assert delta(5) == -(root(20, 4) + root(20, -4))
    # p=7: A = zeta14
    assert delta(7) == -(root(14, 2) + root(14, -2))
    for p in (5, 7, 11):
        assert delta(p) ** 2 - 1 == quantum_int(p, 3)


def test_quantum_int_examples():
    for p in (5, 7, 11):
        assert quantum_int(p, 1) == 1
        assert quantum_int(p, 2) == A_power(p, 2) + A_power(p, -2)
        assert quantum_int(p, 2) == -delta(p)
        assert quantum_int(p, 3) == delta(p) ** 2 - 1


def test_chebyshev_recursion_and_degrees():
    # e_k in the z-basis, read back through the independent ballot rows
    for p in (5, 7):
        z = ZPoly(p, [0, 1])
        assert to_z(e(p, 0)) == ZPoly(p, [1])
        assert to_z(e(p, 1)) == z
        assert to_z(e(p, 2)) == z * z - 1
        for k in range(2, 8):
            assert from_z(z * to_z(e(p, k - 1)) - to_z(e(p, k - 2))) == e(p, k)
            assert to_z(e(p, k)).degree == k
            assert e(p, k).degree == k
            for j in range(1, (p - 1) // 2 + 1):
                zj = -(A_power(p, 2 * j) + A_power(p, -2 * j))
                assert point_eval(e(p, k), j) == \
                    point_eval(e(p, k - 1), j) * zj - point_eval(e(p, k - 2), j)


def test_coefficient_errors():
    # a coefficient of another prime's ring, or of another ring at p, is a
    # mismatch; a non-ring value is a type error
    for other in (root(14, 1), root(10, 1)):
        with pytest.raises(ModulusMismatchError):
            SkeinElem(5, [other])
    with pytest.raises(TypeError):
        SkeinElem(5, [0.5])


def test_plane_eval_examples():
    for p in (5, 7):
        assert plane_eval(SkeinElem(p, [0, 1])) == delta(p)
        assert plane_eval(e(p, 2)) == quantum_int(p, 3)
        assert plane_eval(from_z(ZPoly(p, [0, 0, 1]))) == delta(p) ** 2


def test_plane_eval_chebyshev_induction():
    # e_k at the loop value is (-1)^k [k+1]
    for p in (5, 7, 11):
        for k in range((p - 3) // 2 + 1):
            want = quantum_int(p, k + 1) * (1 if k % 2 == 0 else -1)
            assert plane_eval(e(p, k)) == want


def test_omega_displays():
    assert omega(3) == SkeinElem(3, [1])
    d = delta(5)
    assert omega(5) == SkeinElem(5, [1, d])
    assert to_z(omega(5)) == ZPoly(5, [1, d])
    d = delta(7)
    assert to_z(omega(7)) == ZPoly(7, [2 - d * d, d, d * d - 1])
    assert omega(7) == SkeinElem(7, [1, d, d * d - 1])
    for p in (5, 7, 11, 13):
        assert omega(p).degree == (p - 3) // 2
        assert to_z(omega(p)).degree == (p - 3) // 2


def test_plane_eval_omega_is_sum_of_squares():
    for p in (5, 7, 11):
        total = from_int(ring_modulus(p), 0)
        for k in range((p - 3) // 2 + 1):
            total = total + quantum_int(p, k + 1) ** 2
        assert plane_eval(omega(p)) == total


def test_twist_displays():
    # constants are fixed by the twist
    for p in (5, 7):
        assert twist(SkeinElem(p, [1]), -1) == SkeinElem(p, [1])
        assert twist(SkeinElem(p, [1]), 5) == SkeinElem(p, [1])
    d = delta(5)
    assert twist(omega(5), -1) == SkeinElem(5, [1, -(A_power(5, -3) * d)])
    assert to_z(twist(omega(5), -1)) == ZPoly(5, [1, -(A_power(5, -3) * d)])
    d = delta(7)
    A6, A11 = A_power(7, 6), A_power(7, 11)
    want = ZPoly(7, [1 + A6 - A6 * d * d, -(A11 * d), A6 * (d * d - 1)])
    assert to_z(twist(omega(7), -1)) == want
    assert twist(omega(7), -1) == from_z(want)


def test_point_eval_matches_horner_in_z_basis():
    # Clenshaw on e-coefficients against Horner on the z-basis polynomial
    rng = random.Random(14)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        xs = [omega(p), twist(omega(p), -1), twist(omega(p), 1), random_skein(rng, p)]
        xs.append(SkeinElem(p, [CycNum(c.num, p, k) for k, c in enumerate(xs[-1].coeffs)]))
        for x in xs:
            f = to_z(x)
            assert plane_eval(x) == f.substitute(delta(p))
            for j in range(1, (p - 1) // 2 + 1):
                assert point_eval(x, j) == f.substitute(-(A_power(p, 2 * j) + A_power(p, -2 * j)))


def test_twist_round_trip_randomized():
    rng = random.Random(12)
    for p in (5, 7):
        for _ in range(20):
            x = random_skein(rng, p)
            assert twist(twist(x, 1), -1) == x
            assert twist(twist(x, -2), 2) == x


def test_twist_is_linear():
    rng = random.Random(13)
    for _ in range(10):
        x, y = random_skein(rng, 5), random_skein(rng, 5)
        x_plus_y = from_z(to_z(x) + to_z(y))
        assert twist(x_plus_y, -1) == from_z(to_z(twist(x, -1)) + to_z(twist(y, -1)))


def test_hopf_bracket_examples():
    for p in (5, 7):
        assert hopf_bracket(p, 0) == 1
        A = A_power(p, 1)
        assert hopf_bracket(p, 1) == A ** 5 + A
        assert hopf_bracket(p, 1) == -(A ** 3) * delta(p)
        assert hopf_bracket(p, 2) == A ** 12 + A ** 8 + A ** 4 + 1


def test_hopf_bracket_vs_state_sum_oracle():
    for p in (5, 7):
        for n in range(5):
            assert hopf_bracket(p, n) == hopf_state_sum(p, n)


def test_hopf_bracket_vs_point_oracle():
    # the closed form against the sum of w_j z_j^n, at every prime the CLI
    # accepts (and p = 3), on both sides of each period 2p, and at n = 1000
    for p in range(3, 102, 2):
        if is_prime(p):
            ns = sorted({0, 1, 2, 2 * p - 1, 2 * p, 2 * p + 1, 3 * p}
                        | ({1000} if p in (89, 101) else set()))
            for n, value in zip(ns, hopf_by_points(p, ns), strict=True):
                assert hopf_bracket(p, n) == value, (p, n)


def test_hopf_bracket_and_eta_squared_make_no_ring_products(monkeypatch):
    # both are one sum of powers of A; their values are checked by the oracles
    skein.hopf_bracket.cache_clear()
    skein.eta_squared.cache_clear()
    calls = []
    kernel = cyclotomic.mul_reduce

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(cyclotomic, "mul_reduce", counting)
    hopf_bracket(101, 1000)
    eta_squared(101)
    assert not calls


def test_hopf_bracket_vs_binomial_oracle():
    # the closed form against the binomial sum with one exact division; the
    # two share the formula, so this checks the summation per class mod 2p
    for p in (3, 5, 7, 11, 13):
        for n in range(30):
            assert hopf_bracket(p, n) == hopf_binomial(p, n)


def test_hopf_bracket_vs_twist_route():
    # n +1-framed fibers are one positive full twist applied to z^n
    for p in (5, 7, 11):
        for n in range(11):
            zn = from_z(ZPoly(p, [0] * n + [1]))
            assert plane_eval(twist(zn, 1)) == CycNum(hopf_bracket(p, n), p, 0)


def test_eta_exact_values():
    for p, value in ETA_PUBLISHED.items():
        assert eta(p) == value
    # at zeta_N = exp(2 pi i / N), A^2 - A^-2 = 2i sin(2 pi / p) and, by Gauss's
    # sign of the quadratic Gauss sum, G = sqrt(p) or i sqrt(p) as p = 1 or
    # 3 (mod 4); so eta is real, 2 sin(2 pi / p) / sqrt(p) up to the sign rule
    for p in PRIMES:
        want = (-1 if p % 8 == 7 else 1) * 2 * math.sin(2 * math.pi / p) / math.sqrt(p)
        assert abs(numeric(eta(p)) - want) < 1e-9, p


def test_eta_squared_consistency():
    for p in PRIMES:
        assert eta(p) ** 2 == eta_squared(p), p
    # the closed form against its defining sum: eta^2 * sum of [k+1]^2 = 1
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        total = from_int(ring_modulus(p), 0)
        for k in range((p - 3) // 2 + 1):
            total = total + quantum_int(p, k + 1) ** 2
        assert eta_squared(p) * total == 1


def test_eta_satisfies_sphere_constraint():
    # +1-surgery on the unknot is a weight-one sphere: eta * <t omega> = kappa
    for p in PRIMES:
        g = plane_eval(twist(omega(p), 1))
        assert eta(p) * g == CycNum(kappa(p), p, 0), p


def test_kappa_values_and_identity():
    assert kappa(5) == root(20, -1)
    assert kappa(7) == A_power(7, 4)
    for p in (5, 7, 11, 13):
        assert kappa(p) ** 2 == A_power(p, kappa_exponent(p))
    assert phase_pinned(5) and phase_pinned(7)
    assert not phase_pinned(11)


def test_skein_json_round_trip():
    # the printers are test helpers: no command prints a skein element
    rng = random.Random(3)
    x = random_skein(rng, 5)
    assert skein_from_json(skein_to_json(x)) == x
    data = skein_to_json(x)
    assert data.keys() == {"p", "coeffs"}
    assert not hasattr(SkeinElem, "to_json") and not hasattr(SkeinElem, "from_json")
    assert skein_str(SkeinElem(5, [])) == "0"
    assert skein_str(e(5, 2)) == "e_2"
    assert skein_str(SkeinElem(5, [2, 0, 1])) == "2 + e_2"
