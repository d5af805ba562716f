import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (complement_by_modulus_columns, form_elements, prime_power_by_trial_division,
                     span_by_closure)
from skeincalc.cyclotomic import is_prime
from skeincalc import linkform
from skeincalc.errors import CharacterDomainError, InconsistencyError
from skeincalc.linkform import (
    Character,
    CurveClass,
    Homology1,
    Scc2Curve,
    TorsionElement,
    WallForm,
    _prime_power,
    complement_simple,
    dual_element,
    format_form,
    is_simple,
    pair,
    parse_character,
    parse_curve,
    parse_form,
    scc2_curves,
    scc_curves,
    smallest_nonresidue,
)


def all_forms(p, max_order):
    """Every Wall form at p with group order <= max_order."""
    max_total = 0
    while p ** (max_total + 1) <= max_order:
        max_total += 1
    shapes = []

    def rec(prefix, remaining, minimum):
        shapes.append(tuple(prefix))
        for t in range(minimum, remaining + 1):
            rec(prefix + [t], remaining - t, t)

    rec([], max_total, 1)
    for shape in shapes:
        if not shape:
            continue
        for kinds in itertools.product("AB", repeat=len(shape)):
            yield WallForm(p, [(t, k, smallest_nonresidue(p) if k == "B" else 1)
                               for t, k in zip(shape, kinds)])


def generators(form):
    n = len(form.summands)
    return [TorsionElement(1 if j == i else 0 for j in range(n)) for i in range(n)]


def test_pair_examples():
    a25 = WallForm(5, [(2, "A", 1)])
    assert pair(a25, TorsionElement([1]), TorsionElement([5])) == Fraction(1, 5)
    b5 = WallForm(5, [(1, "B", 2)])
    assert pair(b5, TorsionElement([1]), TorsionElement([1])) == Fraction(2, 5)


def test_pair_symmetric_bilinear_nonsingular_exhaustive():
    # every p=5 form of order <= 125
    for form in all_forms(5, 125):
        elements = list(form_elements(form))
        for x in elements:
            for y in elements:
                v = pair(form, x, y)
                assert v == pair(form, y, x)
            if not x.is_zero:
                assert any(pair(form, x, y) != 0 for y in elements), \
                    f"{form} is singular at {x}"
        # bilinearity spot-check on the generators
        gens = generators(form)
        for g in gens:
            two = TorsionElement([2 * v for v in g.values]).reduced(form)
            assert pair(form, two, g) == (2 * pair(form, g, g)) % 1


def test_dual_element_round_trip_exhaustive():
    for form in all_forms(5, 125):
        gens = generators(form)
        for c in form_elements(form):
            chi_values = [pair(form, c, g) for g in gens]
            assert dual_element(form, chi_values) == c.reduced(form)


@st.composite
def forms_with_element(draw):
    """A Wall form of 1-4 summands, exponents <= 3, and one of its elements."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 101, 9973]))
    summands = []
    for _ in range(draw(st.integers(1, 4))):
        t, kind = draw(st.integers(1, 3)), draw(st.sampled_from("AB"))
        # a non-square unit mod p^t: the least non-residue times a unit square
        s = draw(st.integers(1, p ** t - 1).filter(lambda s: s % p))
        summands.append((t, kind, smallest_nonresidue(p) * s * s if kind == "B" else 1))
    form = WallForm(p, summands)
    return form, TorsionElement([draw(st.integers(0, q - 1)) for q in form.orders])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(forms_with_element())
def test_dual_element_round_trip_on_random_forms(case):
    form, c = case
    gens = generators(form)
    assert dual_element(form, [pair(form, c, g) for g in gens]) == c
    values = [Fraction(x, q) for x, q in zip(c.values, form.orders)]
    d = dual_element(form, values)
    assert [pair(form, d, g) for g in gens] == values


def test_dual_element_examples():
    a25 = WallForm(5, [(2, "A", 1)])
    assert dual_element(a25, [Fraction(1, 5)]) == TorsionElement([5])
    assert dual_element(a25, [Fraction(1, 25)]) == TorsionElement([1])
    assert dual_element(a25, [0]) == TorsionElement([0])
    b5 = WallForm(5, [(1, "B", 2)])
    # pair(3, y) = 2*3*y/5 = y/5
    assert dual_element(b5, [Fraction(1, 5)]) == TorsionElement([3])


def test_is_simple_basic():
    form = WallForm(5, [(2, "A", 1)])
    h = Homology1(2, form)
    assert is_simple(h, Character(5, [1, 3], [0], form))
    assert not is_simple(h, Character(5, [0, 0], [Fraction(1, 5)], form))


def test_is_simple_vs_bruteforce_lift_oracle():
    # enumerate integral characters of Z^r + T, reduce mod k, compare
    rng = random.Random(71)
    for form in all_forms(3, 81):
        for r in range(3):
            h = Homology1(r, form)
            for k in (3, 9):
                for _ in range(4):
                    free = [rng.randrange(k) for _ in range(r)]
                    tors = [Fraction(rng.randrange(3), 3) for _ in form.summands]
                    chi = Character(k, free, tors, form)
                    reductions = []
                    for lam in itertools.product(range(k), repeat=r):
                        reductions.append((tuple(v % k for v in lam),
                                           (Fraction(0),) * len(form.summands)))
                    oracle = (tuple(chi.free_values), chi.torsion_values) in reductions
                    assert is_simple(h, chi) == oracle


def test_is_simple_flips_with_any_torsion_value():
    rng = random.Random(72)
    for _ in range(20):
        form = WallForm(5, [(rng.randint(1, 2), rng.choice("AB"), 2)
                            for _ in range(rng.randint(1, 3))])
        h = Homology1(1, form)
        free = [rng.randrange(5)]
        chi = Character(5, free, [0] * len(form.summands), form)
        assert is_simple(h, chi)
        i = rng.randrange(len(form.summands))
        tors = [Fraction(1, 5) if j == i else Fraction(0)
                for j in range(len(form.summands))]
        assert not is_simple(h, Character(5, free, tors, form))


def test_lens_space_example():
    # L(p^2, 1) model: single A_(p^2) summand, chi(gen) = 1/p
    for p in (3, 5):
        form = WallForm(p, [(2, "A", 1)])
        h = Homology1(0, form)
        chi = Character(p, [], [Fraction(1, p)], form)
        assert not is_simple(h, chi)
        times_p = CurveClass((), TorsionElement([p]))
        gen = CurveClass((), TorsionElement([1]))
        assert complement_simple(h, chi, [times_p])
        assert chi.evaluate(times_p) == 0
        assert complement_simple(h, chi, [gen])
        assert chi.evaluate(gen) == Fraction(1, p)


def test_lens_space_connected_sum_no_good_curve():
    # three copies of L(9,1), chi = (1/3, 1/3, 1/3): among all 729 classes
    # no curve is covered nontrivially with a simple complement
    form = WallForm(3, [(2, "A", 1), (2, "A", 1), (2, "A", 1)])
    h = Homology1(0, form)
    chi = Character(3, [], [Fraction(1, 3)] * 3, form)
    checked = 0
    for gamma in form_elements(form):
        curve = CurveClass((), gamma)
        if complement_simple(h, chi, [curve]):
            assert chi.evaluate(curve) == 0
        checked += 1
    assert checked == 729


def test_complement_simple_empty_curves():
    form = WallForm(5, [(1, "A", 1)])
    h = Homology1(0, form)
    non_simple = Character(5, [], [Fraction(1, 5)], form)
    assert not complement_simple(h, non_simple, [])
    simple = Character(5, [], [0], form)
    assert complement_simple(h, simple, [])


def test_complement_simple_mixed_free_torsion():
    form = WallForm(5, [(1, "A", 1)])
    h = Homology1(1, form)
    chi = Character(5, [0], [Fraction(1, 5)], form)  # dual = (1)
    # a*(2, 3) = (0, 1) forces a = 0 on the free part
    assert not complement_simple(h, chi, [CurveClass((2,), TorsionElement([3]))])
    assert complement_simple(h, chi, [CurveClass((0,), TorsionElement([1]))])
    # -5*(1,2) + 1*(5,1): free cancels, torsion gives -9 = 1 mod 5
    assert complement_simple(h, chi, [CurveClass((1,), TorsionElement([2])),
                                      CurveClass((5,), TorsionElement([1]))])
    # same free cancellation now gives -10 + 0 = 0 != 1 mod 5
    assert not complement_simple(h, chi, [CurveClass((1,), TorsionElement([2])),
                                          CurveClass((5,), TorsionElement([0]))])


def test_complement_simple_matches_the_closure_oracle():
    # free rank 0, every form of order <= 25 at p = 3, 5: every element is
    # the dual of one character, and it must lie in the closure of the curves
    rng = random.Random(73)
    for p in (3, 5):
        for form in all_forms(p, 25):
            h = Homology1(0, form)
            gens = generators(form)
            elements = list(form_elements(form))
            for size in (0, 1, 1, 2, 2, 3):
                curves = rng.sample(elements, size)
                span = span_by_closure(form.orders, [c.values for c in curves])
                classes = [CurveClass((), c) for c in curves]
                for c in elements:
                    chi = Character(p * p, [], [pair(form, c, g) for g in gens], form)
                    assert complement_simple(h, chi, classes) == (c.values in span), \
                        (form, curves, c)


def test_complement_simple_matches_the_modulus_column_oracle():
    # free rank 0-3, A and B summands: each torsion row read in Z/q must give
    # the verdict of a span over Z with one modulus column q*e_j per summand
    rng = random.Random(75)
    seen = set()
    for _ in range(1500):
        p = rng.choice([3, 5, 7, 101])
        form = WallForm(p, [(rng.randint(1, 3), rng.choice("AB"), smallest_nonresidue(p))
                            for _ in range(rng.randint(1, 4))])
        r = rng.randint(0, 3)
        h = Homology1(r, form)

        def residues(spread=1):
            return [rng.randint(-spread * q, spread * q) for q in form.orders]

        c = TorsionElement(residues())
        chi = Character(max(form.orders), [0] * r,
                        [pair(form, c.reduced(form), g) for g in generators(form)], form)
        curves = [CurveClass(tuple(rng.randint(-4, 4) for _ in range(r)),
                             TorsionElement(residues(2)))
                  for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.5:
            # two curves whose free parts cancel and whose torsion sums to c
            f = tuple(rng.randint(-4, 4) for _ in range(r))
            x = residues()
            curves += [CurveClass(f, TorsionElement(x)),
                       CurveClass(tuple(-v for v in f),
                                  TorsionElement(a - b for a, b in zip(c.values, x)))]
            rng.shuffle(curves)
        verdict = complement_simple(h, chi, curves)
        assert verdict == complement_by_modulus_columns(h, chi, curves), (form, r, c, curves)
        seen.add(verdict)
    assert seen == {True, False}


def test_scc_examples():
    p = 5
    form = WallForm(p, [(1, "A", 1), (2, "A", 1)])
    h = Homology1(0, form)
    chi = Character(p, [], [Fraction(1, 5), 0], form)
    picks = scc_curves(h, chi)
    assert len(picks) == 1
    assert picks[0].summand == 0
    assert picks[0].element == TorsionElement([1, 0])
    assert picks[0].pairing == Fraction(1, 5)

    form = WallForm(p, [(2, "A", 1)])
    h = Homology1(0, form)
    picks = scc_curves(h, Character(p, [], [Fraction(1, 5)], form))
    assert picks[0].element == TorsionElement([1])
    assert picks[0].pairing == Fraction(1, 5)

    # type B with unit 2: dual is 3, and 2*3*1/5 = 1/5 picks the class 1
    form = WallForm(p, [(1, "B", 2)])
    h = Homology1(0, form)
    picks = scc_curves(h, Character(p, [], [Fraction(1, 5)], form))
    assert picks[0].element == TorsionElement([1])
    assert picks[0].pairing == Fraction(1, 5)


def test_select_checks_its_picks(monkeypatch):
    # a dual of the wrong order, or a wrong inverse, is refused rather than
    # returned as a pick
    form = WallForm(5, [(2, "A", 1), (1, "B", 2)])
    h = Homology1(0, form)
    chi = Character(5, [], [Fraction(1, 5), Fraction(2, 5)], form)
    assert len(scc_curves(h, chi)) == 2
    with monkeypatch.context() as m:
        m.setattr(linkform, "dual_element", lambda form, values: TorsionElement([1, 1]))
        with pytest.raises(InconsistencyError, match="dual projection has order 25"):
            scc_curves(h, chi)
    monkeypatch.setattr(linkform, "pow", lambda b, e, m: (b % m + 1) % m, raising=False)
    with pytest.raises(InconsistencyError, match="selected curve pairs to"):
        scc_curves(h, chi)


def test_scc_domain_errors():
    form = WallForm(5, [(1, "A", 1)])
    h = Homology1(0, form)
    with pytest.raises(CharacterDomainError):
        scc_curves(h, Character(5, [], [0], form))  # zero character
    with pytest.raises(CharacterDomainError):
        scc_curves(h, Character(25, [], [Fraction(1, 5)], form))  # wrong target


def test_scc_postconditions_randomized():
    rng = random.Random(73)
    done = 0
    while done < 250:
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 3)
        form = WallForm(p, [(rng.randint(1, 3), rng.choice("AB"),
                             smallest_nonresidue(p)) for _ in range(n)])
        r = rng.randint(0, 2)
        h = Homology1(r, form)
        free = [rng.randrange(p) for _ in range(r)]
        tors = [Fraction(rng.randrange(p), p) for _ in range(n)]
        chi = Character(p, free, tors, form)
        if chi.is_zero:
            continue
        picks = scc_curves(h, chi)
        dual = dual_element(form, chi.torsion_values)
        assert len(picks) == sum(1 for v in dual.values if v)
        for c in picks:
            assert pair(form, dual, c.element) == Fraction(1, p)
            curve = CurveClass((0,) * r, c.element)
            assert chi.evaluate(curve) == Fraction(1, p)
        curves = [CurveClass((0,) * r, c.element) for c in picks]
        assert complement_simple(h, chi, curves)
        done += 1


def test_scc2_examples():
    p = 5
    form = WallForm(p, [(2, "A", 1)])
    h = Homology1(0, form)
    picks = scc2_curves(h, Character(p * p, [], [Fraction(1, 25)], form))
    assert picks == [Scc2Curve(0, TorsionElement([1]), 1)]

    form = WallForm(p, [(2, "A", 1), (1, "A", 1)])
    h = Homology1(0, form)
    picks = scc2_curves(h, Character(25, [], [Fraction(1, 25), Fraction(1, 5)], form))
    assert [c.chi_value for c in picks] == [1, 5]

    with pytest.raises(CharacterDomainError):
        scc2_curves(h, Character(25, [], [Fraction(1, 5), Fraction(1, 5)], form))


def test_scc2_postconditions_randomized():
    rng = random.Random(74)
    done = 0
    while done < 250:
        p = rng.choice([3, 5])
        n = rng.randint(1, 3)
        form = WallForm(p, [(rng.randint(1, 3), rng.choice("AB"),
                             smallest_nonresidue(p)) for _ in range(n)])
        h = Homology1(1, form)
        tors = []
        for s in form.summands:
            d = p ** min(s.exponent, 2)
            tors.append(Fraction(rng.randrange(d), d))
        chi = Character(p * p, [1], tors, form)  # free value 1 keeps it onto
        picks = scc2_curves(h, chi)
        dual = dual_element(form, chi.torsion_values)
        assert len(picks) == sum(1 for v in dual.values if v)
        for c in picks:
            expected = Fraction(1, p * p) if c.chi_value == 1 else Fraction(1, p)
            assert pair(form, dual, c.element) == expected
            assert chi.evaluate(CurveClass((0,), c.element)) == expected
        curves = [CurveClass((0,), c.element) for c in picks]
        assert complement_simple(h, chi, curves)
        done += 1


def test_wall_form_validation():
    with pytest.raises(ValueError):
        WallForm(5, [(1, "B", 4)])  # 4 is a square mod 5
    with pytest.raises(ValueError):
        WallForm(5, [(0, "A", 1)])
    with pytest.raises(ValueError):
        WallForm(4, [(1, "A", 1)])
    with pytest.raises(ValueError):
        WallForm(5, [(1, "C", 1)])


def test_character_validation():
    form = WallForm(5, [(1, "A", 1)])
    with pytest.raises(CharacterDomainError):
        Character(5, [], [Fraction(1, 25)], form)  # does not annihilate Z_5
    with pytest.raises(CharacterDomainError):
        Character(5, [], [Fraction(1, 3)])  # not in Z_5 inside Q/Z


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3
    assert smallest_nonresidue(11) == 2


def test_parse_and_format_round_trip():
    form = parse_form("A25+A5+B5[2]")
    assert form.p == 5
    assert [s.exponent for s in form.summands] == [2, 1, 1]
    assert [s.kind for s in form.summands] == ["A", "A", "B"]
    assert format_form(form) == "A25+A5+B5[2]"
    # default unit is the smallest non-residue
    assert parse_form("B7").summands[0].unit == 3
    # orders far past the primality test's range, as long as p is inside it
    big = parse_form(f"A{5 ** 40}+A125")
    assert [s.exponent for s in big.summands] == [40, 3]
    assert parse_form(f"A{1000000007 ** 3}").summands[0].exponent == 3

    chi = parse_character("free:0,0;tors:1/5,0,2/5", form, free_rank=2)
    assert chi.order == 5
    assert chi.free_values == (0, 0)
    assert chi.torsion_values == (Fraction(1, 5), Fraction(0), Fraction(2, 5))

    curve = parse_curve("free:1,0;tors:3,0,1", form, free_rank=2)
    assert curve.free == (1, 0)
    assert curve.torsion == TorsionElement([3, 0, 1])


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_form("A24")  # not a prime power
    with pytest.raises(ValueError):
        parse_form(f"A{(10 ** 9 + 7) * (10 ** 9 + 9)}")  # no factor below 2**10
    with pytest.raises(ValueError):
        parse_form(f"A{2 ** 89 - 1}")  # a prime beyond the exact primality test
    with pytest.raises(ValueError):
        parse_form("A25+B49")  # mixed primes
    with pytest.raises(ValueError):
        parse_form("")
    form = parse_form("A25")
    with pytest.raises(ValueError):
        parse_character("tors:1/5,1/5", form)  # wrong arity
    with pytest.raises(ValueError):
        parse_character("bogus:1", form)
    with pytest.raises(ValueError):
        parse_curve("free:1;tors:0", form, free_rank=0)


@pytest.mark.parametrize("literal, message", [
    ("A0+A5", "0 is not a prime power"),
    ("A5+A0", "0 is not a prime power"),
    ("A5+A-5", "-5 is not a prime power"),
    ("A5+A1", "1 is not a prime power"),
    ("A5+A6", "summand order must be a prime power"),
    ("A5+A7", "mixed primes 5 and 7 in one form"),
    ("A25+A5+A10", "summand order must be a prime power"),
])
def test_bad_summand_orders_raise_the_first_order_errors(literal, message):
    # later orders are split by the first order's prime; a bad one still
    # gets the error a first order would get, and 0 does not loop
    with pytest.raises(ValueError) as exc:
        parse_form(literal)
    assert str(exc.value) == message


def _factor_or_error(f, q):
    try:
        return f(q)
    except ValueError as exc:
        return str(exc)


def test_prime_power_matches_trial_division():
    # every q below 10^5, and p^t for the primes below 10^4 that perfbench's
    # Wall forms are drawn from
    primes = [p for p in range(3, 10 ** 4) if is_prime(p)]
    powers = [p ** t for p in primes for t in (1, 2, 3)]
    accepted = 0
    for q in list(range(10 ** 5)) + powers:
        got = _factor_or_error(_prime_power, q)
        assert got == _factor_or_error(prime_power_by_trial_division, q), q
        accepted += isinstance(got, tuple)
    assert accepted > len(powers)
