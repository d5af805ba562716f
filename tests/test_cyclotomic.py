import math
import random

import pytest

from skeincalc import cyclotomic
from skeincalc.cyclotomic import (
    PRIME_TEST_LIMIT,
    CycInt,
    CycNum,
    euler_phi,
    from_int,
    is_prime,
    mod_p,
    one,
    ring_modulus,
    root,
    valuation,
    zero,
)
from skeincalc.errors import InvalidPrimeError, ModulusMismatchError, NonIntegralError
from skeincalc.skein import eta_squared

from oracles import (
    ExactDivisionError,
    PPowerInversionError,
    cyclotomic_polynomial,
    divide_exact,
    invert_p_power,
    numeric,
    random_cycint,
    reduce_by_division,
    surgery_bracket,
    valuation_by_cofactor,
    valuation_cofactor,
    valuation_cofactor_product,
)

USED_MODULI = [6, 10, 14, 20, 22, 26, 44, 52]


def test_ring_modulus_examples():
    assert ring_modulus(5) == 20
    assert ring_modulus(7) == 14
    assert ring_modulus(11) == 22
    assert ring_modulus(13) == 52
    for bad in (2, 4, 9, 15, 1):
        with pytest.raises(InvalidPrimeError):
            ring_modulus(bad)


def test_cyclotomic_polynomial_vs_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for N in USED_MODULI:
        theirs = [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(N, x), x).all_coeffs()[::-1]]
        phi = euler_phi(N)
        assert len(theirs) == phi + 1
        # x^phi = -(the lower terms of Phi_N), in closed form and by the oracle
        assert cyclotomic._reduce(N, [0] * phi + [1]) == [-c for c in theirs[:phi]]
        assert list(cyclotomic_polynomial(N)) == theirs


def test_root_examples():
    assert root(20, 0) == 1
    # x^8 = x^6 - x^4 + x^2 - 1 modulo Phi_20
    assert root(20, 8) == CycInt(20, [-1, 0, 1, 0, -1, 0, 1, 0])
    # negative exponents wrap
    assert root(20, -1) == root(20, 19)
    assert root(20, -1) * root(20, 1) == 1


def test_root_reduction_vs_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi20 = sympy.cyclotomic_poly(20, x)
    for j in range(8, 20):
        rem = sympy.rem(x ** j, phi20, x)
        coeffs = sympy.Poly(rem, x).all_coeffs()[::-1]
        coeffs = [int(c) for c in coeffs] + [0] * (8 - len(coeffs))
        assert root(20, j) == CycInt(20, coeffs)


def test_root_of_unity_and_minimal_polynomial():
    for N in USED_MODULI:
        z = root(N, 1)
        assert z ** N == 1
        # Phi_N(zeta) = 0
        acc = zero(N)
        for i, c in enumerate(cyclotomic_polynomial(N)):
            acc = acc + root(N, i) * c
        assert acc.is_zero


def test_ring_axioms_randomized():
    rng = random.Random(20)
    for N in (20, 14, 22):
        for _ in range(25):
            x, y, w = (random_cycint(rng, N) for _ in range(3))
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + w == x + (y + w)
            assert (x * y) * w == x * (y * w)
            assert x * (y + w) == x * y + x * w
            assert x + (-x) == zero(N)


def test_mul_matches_numeric_embedding():
    rng = random.Random(7)
    for N in (20, 14, 22):
        for _ in range(20):
            x, y = random_cycint(rng, N), random_cycint(rng, N)
            got = numeric(x * y)
            want = numeric(x) * numeric(y)
            assert abs(got - want) < 1e-6 * max(1.0, abs(want))


def test_mul_examples():
    assert root(20, 2) * root(20, 18) == 1
    d5 = -(root(20, 4) + root(20, -4))  # delta at p=5 with A = zeta20^2
    assert d5 ** 2 == root(20, 8) + 2 + root(20, -8)


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatchError):
        root(20, 1) + root(14, 1)
    with pytest.raises(ModulusMismatchError):
        root(20, 1) * root(14, 1)
    # a CycNum meeting another prime's ring element: unequal, and no sum
    assert (CycNum(one(20), 5, 1) == one(14)) is False
    with pytest.raises(ModulusMismatchError):
        CycNum(one(20), 5, 1) + one(14)
    # only N = p, 2p or 4p with p an odd prime is a ring here
    for bad in (0, -20, 1, 2, 8, 9, 18, 24, 30, 36):
        with pytest.raises(ValueError, match="needs N = p, 2p or 4p"):
            CycInt(bad, [])
    assert euler_phi(12) == 4
    assert CycInt(12, [0, 1, 0, 0]) == root(12, 1)
    assert root(12, 1) ** 6 == -1


def test_int_coercion():
    x = root(20, 3)
    assert x + 0 == x
    assert 2 * x == x + x
    assert 1 - x == -(x - 1)
    assert (x * 0).is_zero


def test_divide_exact_examples():
    A = root(20, 2)
    assert divide_exact(A ** 4 - 1, A ** 2 - 1) == A ** 2 + 1
    with pytest.raises(ExactDivisionError):
        divide_exact(one(20), one(20) - root(20, 4))  # 1 / (1 - zeta_5)
    with pytest.raises(ZeroDivisionError):
        divide_exact(one(20), zero(20))


def test_divide_exact_roundtrip_randomized():
    rng = random.Random(99)
    for N in (20, 14, 22):
        for _ in range(25):
            x, y = random_cycint(rng, N), random_cycint(rng, N)
            if y.is_zero:
                continue
            assert divide_exact(x * y, y) == x


def test_negative_powers_of_units():
    # the ring takes no negative powers, not even of a unit; the inverse
    # through the Galois norm is a test oracle
    z = root(22, 5)
    with pytest.raises(ValueError, match="negative powers"):
        z ** -3
    with pytest.raises(ValueError, match="negative powers"):
        (one(20) - root(20, 4)) ** -1  # non-unit
    assert divide_exact(one(22), z ** 3) == root(22, -15)


def test_invert_p_power():
    five = from_int(20, 5)
    inv = invert_p_power(five, 5)
    assert inv == CycNum(one(20), 5, 1)
    # (1 - zeta_5) divides 5 exactly once
    u = one(20) - root(20, 4)
    q = invert_p_power(u, 5)
    assert q.k == 1
    assert CycNum(q.num * u, 5, q.k) == 1
    # 2 never divides a power of 5
    with pytest.raises(PPowerInversionError):
        invert_p_power(from_int(20, 2), 5)


def test_is_prime_against_a_sieve():
    limit = 20000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for f in range(2, math.isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f::f] = [False] * len(range(f * f, limit, f))
    assert [n for n in range(-3, limit) if is_prime(n)] == \
        [n for n in range(limit) if sieve[n]]


def test_is_prime_on_pseudoprimes_and_large_primes():
    # Carmichael numbers, the least strong pseudoprimes psi_k to the first
    # k = 1, 2, 3, 4, 5, 6, 7, 9 and 12 prime bases (the last one needs the
    # base 41), and the composites either side of 43**2, below which trial
    # division decides
    for n in (561, 1729, 2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461, 41 * 43, 43 * 43):
        assert not is_prime(n)
    for n in (1000000007, 1000000000000000003, 2 ** 61 - 1,
              1000000000000000000000007, 3317044064679887385961813):
        assert is_prime(n)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randrange(1, PRIME_TEST_LIMIT) | 1
        assert is_prime(n) == sympy.isprime(n)
    # the first 13 bases fail at the limit itself, so it is refused
    with pytest.raises(ValueError):
        is_prime(PRIME_TEST_LIMIT)


def test_residue_class_checks_outside_input():
    # a residue is the tuple mod_p reads off a CycInt, which checks the input
    assert mod_p(CycInt(20, [7, -1, 0, 0, 0, 0, 0, 5]), 5) == (2, 4, 0, 0, 0, 0, 0, 0)
    with pytest.raises(TypeError):
        CycInt(20, [1.5] + [0] * 7)
    with pytest.raises(ValueError):
        CycInt(20, [0] * 7)


def test_mod_p_examples():
    assert mod_p(root(20, 1) * 5, 5) == (0,) * 8
    x = CycInt(20, [0, -2, 0, 4, 0, -1, 0, -2])
    assert mod_p(x, 5) == (0, 3, 0, 4, 0, 4, 0, 3)


def test_mod_p_is_ring_hom():
    rng = random.Random(31)
    for _ in range(100):
        x, y = random_cycint(rng, 20), random_cycint(rng, 20)
        rx, ry = CycInt(20, mod_p(x, 5)), CycInt(20, mod_p(y, 5))
        assert mod_p(x * y, 5) == mod_p(rx * ry, 5)
        assert mod_p(x + y, 5) == mod_p(rx + ry, 5)


def test_valuation_examples():
    u5 = one(20) - root(20, 4)
    assert valuation(u5, 5) == 1
    assert valuation(from_int(20, 5), 5) == 4
    x = root(14, 3) + 2  # valuation 0
    assert valuation(x, 7) == 0
    assert valuation(x * 7, 7) == 6
    assert valuation(zero(20), 5) == math.inf


def test_valuation_cofactor_matches_the_product():
    # the oracle's closed form -sum (k+1) zeta_p**k against
    # prod_{a>=2} (1 - zeta_p**a)
    for p in range(3, 32, 2):
        if is_prime(p):
            for N in (p, 2 * p, 4 * p):
                c = valuation_cofactor(N, p)
                assert c == valuation_cofactor_product(N, p), (p, N)
                assert c * (one(N) - root(N, N // p)) == p


def test_valuation_properties():
    rng = random.Random(4)
    for p, N in ((5, 20), (7, 14)):
        for _ in range(15):
            x, y = random_cycint(rng, N), random_cycint(rng, N)
            if x.is_zero or y.is_zero:
                continue
            vx, vy = valuation(x, p), valuation(y, p)
            assert vx == valuation_by_cofactor(x, p)
            assert valuation(x * y, p) >= vx + vy
            assert valuation(x * y, p) == valuation_by_cofactor(x * y, p)
            assert valuation(x * p, p) == vx + (p - 1)
            assert valuation(x * x, p) == 2 * vx


def test_valuation_matches_the_cofactor_oracle():
    # random elements times planted (1 - zeta_p)**k and powers of p, at every
    # ring shape; p = 3 (N = 6) keeps components of two coefficients covered
    rng = random.Random(12)
    for p in (3, 5, 7, 11, 13):
        for N in (p, 2 * p, 4 * p):
            pi = one(N) - root(N, N // p)
            for _ in range(12):
                x = random_cycint(rng, N) * pi ** rng.randint(0, 6) * p ** rng.randint(0, 2)
                if rng.random() < 0.3:
                    x = x * root(N, rng.randrange(N))
                assert valuation(x, p) == valuation_by_cofactor(x, p), (p, N, x)
    for N, p in ((20, 2), (20, 7), (14, 5)):
        with pytest.raises(ValueError, match="prime"):
            valuation(one(N), p)


def test_valuation_makes_no_ring_product(monkeypatch):
    calls = []
    kernel = cyclotomic.mul_reduce

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    rng = random.Random(13)
    values = []
    for p in (3, 5, 7, 13):
        for N in (2 * p, 4 * p):
            pi = one(N) - root(N, N // p)
            values += [(random_cycint(rng, N) * pi ** rng.randint(0, 6), p) for _ in range(5)]
    b = surgery_bracket(101)
    values.append((eta_squared(101) ** 103 * b * b, 101))
    monkeypatch.setattr(cyclotomic, "mul_reduce", counting)
    assert [valuation(x, p) for x, p in values][-1] == 2 * 4851
    assert not calls


def test_valuation_of_cycnum():
    x = CycNum(from_int(20, 5), 5, 1)  # == 1
    assert valuation(x, 5) == 0
    y = CycNum(one(20), 5, 2)  # 1/25
    assert valuation(y, 5) == -8


def test_cycnum_denominator_is_the_ring_prime():
    # 1/7 is a unit at (1 - zeta_5), so a 7 in Z[zeta_20]'s denominator
    # would read as a power of (1 - zeta_5); every such value is refused
    for N, p in ((20, 7), (20, 2), (14, 5), (14, 2), (5, 1)):
        with pytest.raises(ValueError, match="prime"):
            CycNum(one(N), p, 1)
        with pytest.raises(ValueError, match="prime"):
            CycNum.from_json({"modulus": N, "coeffs": list(one(N).coeffs), "p": p, "k": 0})
    for N, p in ((5, 5), (10, 5), (20, 5), (14, 7)):
        assert valuation(CycNum(one(N), p, 1), p) == 1 - p


def test_cycnum_canonicalization_and_arithmetic():
    n = CycNum(from_int(20, 50), 5, 2)
    assert n.k == 0 and n.num == 2
    a = CycNum(one(20), 5, 1)
    b = CycNum(from_int(20, 4), 5, 1)
    assert a + b == 1
    assert a * 5 == 1
    assert (a - a).is_zero
    assert a ** 2 == CycNum(one(20), 5, 2)
    with pytest.raises(NonIntegralError):
        a.as_integral()
    assert CycNum(from_int(20, 3), 5, 0).as_integral() == 3
    with pytest.raises(ValueError):
        a ** -1


def test_json_round_trips():
    rng = random.Random(8)
    x = random_cycint(rng, 20)
    assert CycInt.from_json(x.to_json()) == x
    n = CycNum(x, 5, 3)
    assert CycNum.from_json(n.to_json()) == n
    assert n.to_json().keys() == {"modulus", "coeffs", "p", "k"}


def test_str_formats():
    x = CycInt(20, [0, -2, 0, 4, 0, -1, 0, -2])
    assert str(x) == "-2ζ20 + 4ζ20^3 - ζ20^5 - 2ζ20^7"
    assert str(zero(20)) == "0"
    assert str(one(14)) == "1"


def test_reduction_is_idempotent():
    rng = random.Random(61)
    for N in (20, 14, 22):
        for _ in range(10):
            x = random_cycint(rng, N)
            assert CycInt.from_poly(N, x.coeffs) == x
    # high-degree input reduces to the same class as explicit root sums
    y = CycInt.from_poly(20, [1] * 25)
    acc = zero(20)
    for i in range(25):
        acc = acc + root(20, i)
    assert y == acc
    # the closed-form reduction against long division by Phi_N, at every
    # shape N = p, 2p, 4p and lengths from 1 to 3N
    for p in range(3, 110, 2):
        if not is_prime(p):
            continue
        for N in (p, 2 * p, 4 * p):
            phi = euler_phi(N)
            for length in (1, phi, 2 * phi - 1, N, N + 7, 3 * N):
                v = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(length)]
                assert cyclotomic._reduce(N, v) == reduce_by_division(N, v), (N, length)
