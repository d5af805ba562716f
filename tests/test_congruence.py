import itertools
import random
import time

import pytest

from skeincalc import cyclotomic
from skeincalc.cli import MAX_ORBIT_WORK, main
from skeincalc.congruence import (
    check_kappa_congruence,
    check_kappa_congruence_up_to_phase,
    cm_bound,
    kappa_order,
    kappa_residues,
    necklace_orbits,
    orbit_congruence_check,
    orbit_work,
)
from skeincalc.cyclotomic import CycInt, CycNum, from_int, is_prime, mod_p, one, ring_modulus
from skeincalc.errors import ModulusMismatchError, NonIntegralError
from skeincalc.invariants import cover_invariant
from skeincalc.skein import kappa

from oracles import (
    canonical_orbit,
    kappa_order_by_search,
    kappa_residues_by_roots,
    necklace_orbits_by_rotation,
    orbit_check_by_sequence,
    phase_verdict_by_search,
    random_cycint,
    verdict_by_enumeration,
)


def test_kappa_order():
    assert kappa_order(5) == 20  # zeta20^-1
    assert kappa_order(7) == 7   # A^4 with A of order 14
    for p in range(3, 110):
        if is_prime(p):
            assert kappa_order(p) == kappa_order_by_search(p), p


def test_kappa_residue_list():
    res = kappa_residues(5)
    assert len(res) <= 100
    zero_residue = mod_p(from_int(20, 0), 5)
    assert res[zero_residue] == (0, 0)
    # constructed member 2 kappa^3: its line key has first nonzero coefficient 1
    r = mod_p(kappa(5) ** 3 * 2, 5)
    c = next(a for a in r if a)
    m, u = res[mod_p(CycInt(20, [a * pow(c, -1, 5) for a in r]), 5)]
    assert m == 3 and c * pow(u, -1, 5) % 5 == 2


def test_checks_match_enumeration_oracle():
    rng = random.Random(50)
    for p in range(3, 44):
        if not is_prime(p):
            continue
        N = ring_modulus(p)
        elements = []
        power = from_int(N, 1)
        for m in range(kappa_order(p)):
            y = random_cycint(rng, N) * p
            elements += [power * n + y for n in range(p)]
            power = power * kappa(p)
        members = len(elements)
        elements += [random_cycint(rng, N) for _ in range(200)]
        for i, x in enumerate(elements):
            want = verdict_by_enumeration(x, p)
            assert check_kappa_congruence(x, p).to_json() == want.to_json(), (p, x)
            phase = check_kappa_congruence_up_to_phase(x, p).to_json()
            if i < members + 8:
                assert phase == phase_verdict_by_search(x, p).to_json(), (p, x)
            else:
                # past the first 8 random elements the search is too slow;
                # a failed phase check tries every power of kappa
                if not want.congruent:
                    want.candidates_checked *= kappa_order_by_search(p)
                assert phase == want.to_json(), (p, x)
        assert len(kappa_residues(p)) <= kappa_order(p) + 1


def test_residue_tables_build_cold_in_time():
    primes = [p for p in range(5, 44) if is_prime(p)]
    kappa_residues.cache_clear()
    start = time.perf_counter()
    for p in primes:
        kappa_residues(p)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.15, elapsed


def test_residue_tables_match_the_root_oracle():
    # both ring shapes, N = 2p and N = 4p, and N = 6 at p = 3; the order of
    # the entries is the order of the root loop too
    for p in range(3, 102):
        if is_prime(p):
            table = kappa_residues(p)
            want = kappa_residues_by_roots(p)
            assert table == want and list(table) == list(want), p


def test_residue_tables_build_no_ring_element(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a ring element was built")

    kappa_residues.cache_clear()
    monkeypatch.setattr(cyclotomic, "root", refused)
    monkeypatch.setattr(cyclotomic, "_reduce", refused)
    monkeypatch.setattr(CycInt, "__init__", refused)
    sizes = [len(kappa_residues(p)) for p in range(3, 102) if is_prime(p)]
    assert len(sizes) == 25 and all(sizes)


def test_verdicts_for_the_two_invariants():
    v5 = check_kappa_congruence(cover_invariant(5), 5)
    assert not v5.congruent and v5.witness is None
    assert v5.candidates_checked == 100
    v7 = check_kappa_congruence(cover_invariant(7), 7)
    assert v7.congruent and v7.witness == (0, 0)  # the value is 0 mod 7


def test_constructed_member():
    v = check_kappa_congruence(kappa(5) ** 2 * 3, 5)
    assert v.congruent and v.witness == (2, 3)


def test_nonintegral_input_rejected():
    with pytest.raises(NonIntegralError):
        check_kappa_congruence(CycNum(one(20), 5, 1), 5)


def test_multiplying_by_kappa_preserves_verdict():
    rng = random.Random(44)
    for _ in range(25):
        x = random_cycint(rng, 20)
        a = check_kappa_congruence(x, 5).congruent
        b = check_kappa_congruence(x * kappa(5), 5).congruent
        assert a == b


def test_multiples_of_p_always_congruent():
    rng = random.Random(45)
    for _ in range(25):
        x = random_cycint(rng, 20)
        v = check_kappa_congruence(x * 5, 5)
        assert v.congruent and v.witness[1] == 0


def test_phase_orbit_verdict_matches_strict():
    rng = random.Random(46)
    for _ in range(10):
        x = random_cycint(rng, 20)
        assert (check_kappa_congruence(x, 5).congruent
                == check_kappa_congruence_up_to_phase(x, 5).congruent)


def test_phase_verdict_matches_search_field_by_field():
    rng = random.Random(49)
    seen = set()
    for p in range(5, 44):
        if not is_prime(p):
            continue
        N = ring_modulus(p)
        planted = (kappa(p) ** rng.randrange(kappa_order(p)) * rng.randrange(p)
                   + random_cycint(rng, N) * p)
        for x in (planted, random_cycint(rng, N)):
            got = check_kappa_congruence_up_to_phase(x, p)
            want = phase_verdict_by_search(x, p)
            assert got.to_json() == want.to_json(), (p, x)
            seen.add(got.congruent)
        assert check_kappa_congruence_up_to_phase(planted, p).congruent
    assert seen == {True, False}  # both branches were compared


def test_int_input_is_taken_into_the_ring():
    for check in (check_kappa_congruence, check_kappa_congruence_up_to_phase):
        v = check(3, 5)
        assert v.congruent and v.witness == (0, 3) and v.candidates_checked == 100


def test_element_of_another_ring_is_refused():
    x = CycInt(14, [1, 0, 0, 0, 0, 0])
    for check in (check_kappa_congruence, check_kappa_congruence_up_to_phase):
        with pytest.raises(ModulusMismatchError):
            check(x, 5)


def test_cm_bound_values():
    assert cm_bound(5) == 1
    assert cm_bound(7) == 2
    assert cm_bound(11) == 10
    assert cm_bound(13) == 15
    for p in (5, 7, 11, 13):
        assert (cm_bound(p) >= p - 1) == (p >= 11)


def test_orbit_check_hand_example():
    # two colors, everything weighted 1: LHS counts all 8 sequences,
    # RHS the 2 constant ones; 8 = 2 mod 3
    values = {rep: 1 for rep in necklace_orbits(2, 3)}
    report = orbit_congruence_check([1, 1], values, 3)
    assert report.lhs == 8 and report.rhs == 2
    assert report.congruent
    assert report.sequences_checked == 8


def test_orbit_check_single_color_exact():
    rng = random.Random(47)
    a = rng.randint(-9, 9)
    x = rng.randint(-9, 9)
    report = orbit_congruence_check([a], {(0,) * 5: x}, 5)
    assert report.lhs == report.rhs == a ** 5 * x


def test_orbit_check_randomized_ring_instances():
    rng = random.Random(48)
    N = ring_modulus(5)
    for trial in range(100):
        colors = rng.choice([2, 3])
        weights = [random_cycint(rng, N) for _ in range(colors)]
        values = {rep: random_cycint(rng, N) for rep in necklace_orbits(colors, 5)}
        report = orbit_congruence_check(weights, values, 5)
        assert report.congruent, f"trial {trial} failed"
        assert report.sequences_checked == colors ** 5


def test_orbit_check_matches_the_sequence_by_sequence_sum():
    # one weight product per color multiset, each orbit's value counted
    # once per sequence of the orbit, gives the same lhs, rhs and verdict as
    # multiplying every sequence's weights: ring weights at the benchmark's
    # (p, colors), int weights, one color, and the composite lengths 4 and
    # 6, whose orbits of sizes 2 and 3 break the congruence
    rng = random.Random(49)

    def ints():
        return rng.randint(-9, 9)

    cases = [(p, colors, lambda p=p: random_cycint(rng, ring_modulus(p)))
             for p, colors in ((3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (5, 1))]
    cases += [(5, 3, ints), (7, 1, ints), (4, 2, ints), (6, 2, ints), (6, 3, ints)]
    verdicts = set()
    for p, colors, draw in cases:
        for _ in range(3):
            weights = [draw() for _ in range(colors)]
            values = {rep: draw() for rep in necklace_orbits(colors, p)}
            got = orbit_congruence_check(weights, values, p)
            want = orbit_check_by_sequence(weights, values, p)
            assert (got.lhs, got.rhs, got.congruent, got.sequences_checked) == \
                (want.lhs, want.rhs, want.congruent, want.sequences_checked), (p, colors)
            assert type(got.lhs) is type(want.lhs)
            verdicts.add(got.congruent)
    assert verdicts == {True, False}


def test_necklace_orbits_match_the_rotation_oracle():
    # the generator yields the least rotation of each orbit once, in the
    # order in which the walk over every sequence first meets its orbit:
    # no colors, one color, lengths 4 and 6 (orbits of every size dividing
    # them), and (2, 5), whose (0, 1, 0, 1, 1) a block copy of the
    # periodic extension would skip
    grid = [(colors, p) for colors in (0, 1, 2, 3) for p in (1, 2, 3, 4, 5, 6, 7)]
    grid += [(2, 5), (48, 3), (2, 17), (4, 4), (5, 6), (3, 6)]
    for colors, p in grid:
        # there are no more orbits than sequences: a generator that ran on
        # would fail here rather than hang
        got = list(itertools.islice(necklace_orbits(colors, p), colors ** p + 1))
        assert got == list(necklace_orbits_by_rotation(colors, p)), (colors, p)
    assert (0, 1, 0, 1, 1) in necklace_orbits(2, 5)


def test_orbit_check_cap(capsys):
    # 10^11 sequences: the command line refuses them with the cap message
    assert orbit_work(10, 11) > MAX_ORBIT_WORK
    assert main(["orbit-check", "--p", "11", "--colors", "10"]) == 1
    assert (f"work={orbit_work(10, 11)} is above the cap {MAX_ORBIT_WORK} for this command"
            in capsys.readouterr().err)


def test_orbit_work_cap():
    # the largest orbit check the benchmark runs, p = 7 with 3 colors and 2
    # trials, the one-color checks up to p = 101 (two trials at p = 101, about
    # 1.2 s in process) and 3 colors at p = 11 fit the cap
    assert orbit_work(3, 7, trials=2) <= MAX_ORBIT_WORK
    assert orbit_work(1, 101, trials=2) <= MAX_ORBIT_WORK < orbit_work(1, 101, trials=3)
    assert orbit_work(3, 11) <= MAX_ORBIT_WORK
    for colors, p, trials in ((10, 11, 1), (1, 3, 10 ** 8), (2, 101, 1), (10 ** 30, 3, 1)):
        assert orbit_work(colors, p, trials) > MAX_ORBIT_WORK, (colors, p, trials)
    # the figure: phi(N) / 3 + 9 units for each of the (colors^p - colors) / p
    # + colors orbits, phi(N)^2 / 8 a ring product, 100 a trial; the products
    # per multiset and for each color's p-th power
    assert orbit_work(48, 3) == 36896 * 9 + (19600 * 3 + 48 * 2 * 2) * 2 ** 2 // 8 + 100
    assert orbit_work(1, 101) == 1 * 75 + (101 + 2 * 7) * 200 ** 2 // 8 + 100 == 575175
    assert orbit_work(3, 11) == 16107 * 12 + (78 * 11 + 3 * 2 * 4) * 10 ** 2 // 8 + 100
    assert orbit_work(3, 7, trials=2) == 2 * orbit_work(3, 7)


def test_orbit_work_charges_each_trial_its_own_cost():
    # 55,555 one-color trials at p = 3 took about 4.3 s when a trial was
    # charged one sequence; a 77-color trial at p = 3 takes about 1.8 s end to end
    assert orbit_work(1, 3, trials=55555) > MAX_ORBIT_WORK
    most = MAX_ORBIT_WORK // orbit_work(1, 3)
    assert most == 13392
    assert orbit_work(1, 3, trials=most) <= MAX_ORBIT_WORK < orbit_work(1, 3, trials=most + 1)
    assert orbit_work(77, 3) <= MAX_ORBIT_WORK < orbit_work(78, 3)


def test_canonical_orbit():
    assert canonical_orbit((2, 0, 1)) == (0, 1, 2)
    assert canonical_orbit((1, 1, 1)) == (1, 1, 1)
    # representative count: necklaces of 2 colors, length 5 = (2^5 - 2)/5 + 2
    assert sum(1 for _ in necklace_orbits(2, 5)) == (2 ** 5 - 2) // 5 + 2
