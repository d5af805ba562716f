"""The z-basis product of the oracles against point evaluation.

A product of degree d over the domain Z[zeta_N][1/p] is fixed by its degree
and its values at d + 1 distinct points, and ZPoly.substitute evaluates by
Horner's rule without any product of polynomials.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeincalc.cyclotomic import CycInt, CycNum, euler_phi, ring_modulus

from oracles import ZPoly

BIG = 10 ** 80

product_settings = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def coefficients(p):
    """A coefficient: zero, small, or up to +-10**80, over p**0 .. p**3."""
    N = ring_modulus(p)
    phi = euler_phi(N)
    ints = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG), st.sampled_from([BIG, -BIG]))
    nums = st.one_of(
        st.just([0] * phi),
        st.lists(ints, min_size=phi, max_size=phi),
        st.sampled_from([BIG, -BIG]).map(lambda c: [c] * phi),
    )
    return st.builds(lambda cs, k: CycNum(CycInt(N, cs), p, k), nums, st.integers(0, 3))


def skein_elems(p):
    """Degree 0 to 6, or the zero element; interior rows may be zero."""
    return st.lists(coefficients(p), min_size=0, max_size=7).map(lambda cs: ZPoly(p, cs))


pairs = st.sampled_from([5, 7, 11, 13]).flatmap(
    lambda p: st.tuples(skein_elems(p), skein_elems(p)))


def flat(p, c, length):
    N = ring_modulus(p)
    return ZPoly(p, [CycInt(N, [c] * euler_phi(N))] * length)


@product_settings
@given(pairs)
@example((flat(13, BIG, 1), flat(13, BIG, 1)))
@example((flat(13, BIG, 7), flat(13, -BIG, 7)))
@example((ZPoly(5), flat(5, BIG, 3)))
def test_product_matches_values_at_points(case):
    x, y = case
    xy = x * y
    assert xy == y * x
    if x.is_zero or y.is_zero:
        assert xy.is_zero
        return
    assert xy.degree == x.degree + y.degree
    for t in range(xy.degree + 1):
        assert xy.substitute(t) == x.substitute(t) * y.substitute(t)
