"""The ring kernel must agree exactly with an independent reduction."""

import random

from oracles import reduce_by_division
from skeincalc.cyclotomic import euler_phi, mul_reduce


def reference_mul(a, b, N):
    """Schoolbook product reduced by long division (independent of the kernel)."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    return reduce_by_division(N, conv)


def test_kernels_agree_with_reference():
    rng = random.Random(55)
    for N in (14, 20, 22, 52):
        phi = euler_phi(N)
        for _ in range(50):
            a = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(phi)]
            b = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(phi)]
            assert mul_reduce(a, b, N) == reference_mul(a, b, N)


def test_kernels_handle_big_integers():
    rng = random.Random(56)
    N = 22
    phi = euler_phi(N)
    a = [rng.randint(-10 ** 80, 10 ** 80) for _ in range(phi)]
    b = [rng.randint(-10 ** 80, 10 ** 80) for _ in range(phi)]
    assert mul_reduce(a, b, N) == reference_mul(a, b, N)
