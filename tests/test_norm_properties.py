"""Property tests for the ring axioms, the valuation and the norm-based
division and inversion of tests/oracles.py, on both ring shapes N = 2p and
N = 4p.

Every expected value is built from ring multiplication alone, so these
checks do not share the Galois-norm path they test.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ExactDivisionError, divide_exact, invert_p_power
from skeincalc.cyclotomic import CycInt, euler_phi, one, root, valuation, zero

# conductor N -> the odd prime p with zeta_p in Z[zeta_N]
RINGS = {14: 7, 20: 5, 22: 11, 52: 13}
# N = 4p, p = 1 (mod 4): p splits in Z[i], so (1 - zeta_p) is a product of two primes
SPLIT = {20, 52}

norm_settings = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def elements(draw, N, nonzero=False):
    coeffs = draw(st.lists(st.integers(-6, 6), min_size=euler_phi(N), max_size=euler_phi(N)))
    if nonzero and not any(coeffs):
        coeffs[draw(st.integers(0, euler_phi(N) - 1))] = 1
    return CycInt(N, coeffs)


def ring_with(*parts):
    """(N, p, *drawn parts); each part is a function of N."""
    return st.sampled_from(sorted(RINGS)).flatmap(
        lambda N: st.tuples(st.just(N), st.just(RINGS[N]), *(part(N) for part in parts)))


def pi_power(N, p, j):
    pi = one(N) - root(N, N // p)
    return pi ** j


@norm_settings
@given(ring_with(elements, elements, elements))
def test_ring_axioms(case):
    N, _, x, y, z = case
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert x + zero(N) == x and x + (-x) == zero(N) and x - y == x + (-y)
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * one(N) == x and x * zero(N) == zero(N)
    assert x * (y + z) == x * y + x * z


@norm_settings
@given(ring_with(elements, lambda N: elements(N, nonzero=True)))
def test_divide_exact_undoes_multiplication(case):
    _, _, x, y = case
    assert divide_exact(x * y, y) == x


@norm_settings
@given(ring_with(elements, lambda N: st.integers(1, 6)))
def test_divide_exact_rejects_a_unit_offset(case):
    N, p, q, j = case
    d = pi_power(N, p, j)
    with pytest.raises(ExactDivisionError):
        divide_exact(q * d + 1, d)


@norm_settings
@given(ring_with(lambda N: st.integers(0, N - 1), lambda N: st.integers(0, 3 * (RINGS[N] - 1))))
def test_invert_p_power_of_root_times_pi_power(case):
    N, p, i, j = case
    x = root(N, i) * pi_power(N, p, j)
    q = invert_p_power(x, p)
    assert q.num * x == p ** q.k
    assert any(c % p for c in q.num.coeffs)
    assert q.k == math.ceil(j / (p - 1))


@norm_settings
@given(ring_with(lambda N: elements(N, nonzero=True), lambda N: st.integers(0, 2 * RINGS[N])))
def test_valuation_counts_pi_factors(case):
    N, p, x, j = case
    assert valuation(x * pi_power(N, p, j), p) == valuation(x, p) + j


@norm_settings
@given(ring_with(lambda N: elements(N, nonzero=True), lambda N: elements(N, nonzero=True),
                 lambda N: st.integers(0, 2 * RINGS[N]), lambda N: st.integers(0, 2 * RINGS[N])))
def test_valuation_of_products_and_sums(case):
    N, p, a, b, i, j = case
    x, y = a * pi_power(N, p, i), b * pi_power(N, p, j)
    vx, vy, vxy = valuation(x, p), valuation(y, p), valuation(x * y, p)
    if N in SPLIT:
        assert vxy >= vx + vy
    else:
        assert vxy == vx + vy
    assert valuation(x + y, p) >= min(vx, vy)
    # p is a unit times pi^(p-1), and squaring doubles the valuation at each
    # prime above pi, so both stay exact where the prime splits
    assert valuation(x * x, p) == 2 * vx
    assert valuation(x * p, p) == vx + p - 1


def test_valuation_is_not_additive_where_the_prime_splits():
    # p = (a + bi)(a - bi): each factor lies in only one prime above (1 - zeta_p)
    for N, a, b in ((20, 2, 1), (52, 3, 2)):
        p = RINGS[N]
        i = root(N, N // 4)
        x, y = i * b + a, -i * b + a
        assert valuation(x, p) == valuation(y, p) == 0
        assert x * y == p and valuation(x * y, p) == p - 1
