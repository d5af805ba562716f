"""Property tests for the norm-based division, inversion and valuation.

Every expected value is built from ring multiplication alone, so these
checks do not share the Galois-norm path they test.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skeincalc.cyclotomic import CycInt, divide_exact, euler_phi, invert_p_power, one, root, valuation
from skeincalc.errors import ExactDivisionError

# conductor N -> the odd prime p with zeta_p in Z[zeta_N]
RINGS = {14: 7, 20: 5, 22: 11, 52: 13}

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
