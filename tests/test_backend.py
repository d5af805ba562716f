"""The ring kernel must agree exactly with an independent reduction."""

import random

from skeincalc.cyclotomic import _reduction_table, cyclotomic_polynomial, euler_phi, mul_reduce


def reference_mul(a, b, N):
    """Schoolbook product reduced by long division (independent of the kernel)."""
    phi = euler_phi(N)
    conv = [0] * (2 * phi - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    den = list(cyclotomic_polynomial(N))
    for i in reversed(range(len(conv) - phi)):
        c = conv[i + phi]
        if c:
            for j, dj in enumerate(den):
                conv[i + j] -= c * dj
    return conv[:phi]


def test_kernels_agree_with_reference():
    rng = random.Random(55)
    for N in (14, 20, 22, 52):
        phi = euler_phi(N)
        table = _reduction_table(N)
        for _ in range(50):
            a = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(phi)]
            b = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(phi)]
            assert mul_reduce(a, b, table) == reference_mul(a, b, N)


def test_kernels_handle_big_integers():
    rng = random.Random(56)
    N = 22
    phi = euler_phi(N)
    table = _reduction_table(N)
    a = [rng.randint(-10 ** 80, 10 ** 80) for _ in range(phi)]
    b = [rng.randint(-10 ** 80, 10 ** 80) for _ in range(phi)]
    assert mul_reduce(a, b, table) == reference_mul(a, b, N)
