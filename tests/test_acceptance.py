"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with `pytest -s` or by running this file directly).

Criterion 3 asserts the published p=7 display verbatim and is expected to
fail: that display is inconsistent with the publication's own normalization
and intermediate formulas, all of which this package reproduces exactly.
The full analysis lives in README.md ("Known discrepancy") and the suite's
convention checks (test_skein, test_invariants).
"""

import time

from skeincalc import congruence, invariants, skein
from skeincalc.cyclotomic import CycInt, mod_p

import test_congruence
import test_linkform
from oracles import ZPoly, hopf_state_sum, to_z

# published displays, transcribed verbatim
DISPLAY_P5 = CycInt(20, [0, -2, 0, 4, 0, -1, 0, -2])
DISPLAY_P7 = CycInt(14, [7 * 176993, 7 * 397520, -7 * 318640,
                         -7 * 220548, -7 * 98084, 7 * 495621])


def _cold_caches():
    """Clear the computation-level caches so timed criteria start cold."""
    for fn in (skein.omega, skein.hopf_weights, skein.hopf_bracket,
               skein.eta_squared, skein.kappa, skein.omega_bracket,
               invariants.cover_invariant_valuation, congruence.kappa_residues):
        fn.cache_clear()


def _report(num: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def test_criterion_01_exact_reproduction_p5():
    _cold_caches()
    t0 = time.perf_counter()
    value = invariants.cover_invariant(5)
    elapsed = time.perf_counter() - t0
    ok = value == DISPLAY_P5 and value.k == 0 and elapsed < 1.0
    _report(1, ok, f"{elapsed:.3f}s")
    assert value.k == 0
    assert value == DISPLAY_P5
    assert elapsed < 1.0


def test_criterion_02_negative_congruence_p5():
    _cold_caches()
    t0 = time.perf_counter()
    verdict = congruence.check_kappa_congruence(invariants.cover_invariant(5), 5)
    elapsed = time.perf_counter() - t0
    ok = (not verdict.congruent and verdict.witness is None
          and verdict.candidates_checked <= 100 and elapsed < 1.0)
    _report(2, ok, f"{verdict.candidates_checked} candidates, {elapsed:.3f}s")
    assert not verdict.congruent
    assert verdict.witness is None
    assert verdict.candidates_checked <= 100
    assert elapsed < 1.0


def test_criterion_03_exact_reproduction_p7():
    _cold_caches()
    t0 = time.perf_counter()
    value = invariants.cover_invariant(7)
    elapsed = time.perf_counter() - t0
    ok = value == DISPLAY_P7 and elapsed < 5.0
    _report(3, ok, f"{elapsed:.3f}s; computed {value}")
    assert elapsed < 5.0
    assert value.k == 0
    assert value == DISPLAY_P7, (
        "the computed invariant is 7(12 - 8A^2 - 9A^3 + 9A^4 + 8A^5), not the "
        "published 7(176993 + 397520A - 318640A^2 - 220548A^3 - 98084A^4 + "
        "495621A^5).  The published display cannot equal eta^9 times the "
        "publication's own multinomial expansion for any admissible eta "
        "(|eta^9 * bracket| is about 13.9 in the standard embedding, the "
        "display's magnitude is about 2056.8), and the publication's eta_7 "
        "display fails eta^2 * sum([k+1]^2) = 1 while the p=5 pipeline "
        "reproduces its display exactly.  See README.md, 'Known discrepancy'.")


def test_criterion_04_positive_congruence_p7():
    _cold_caches()
    value = invariants.cover_invariant(7)
    t0 = time.perf_counter()
    verdict = congruence.check_kappa_congruence(value, 7)
    in_ideal = not any(mod_p(value.as_integral(), 7))
    elapsed = time.perf_counter() - t0
    ok = verdict.congruent and verdict.witness[1] == 0 and in_ideal and elapsed < 1.0
    _report(4, ok, f"witness {verdict.witness}, {elapsed:.3f}s")
    assert in_ideal, "value must lie in 7*O_7"
    assert verdict.congruent
    assert verdict.witness[1] == 0
    assert elapsed < 1.0


def test_criterion_05_valuation_bound_p11():
    _cold_caches()
    t0 = time.perf_counter()
    v = invariants.cover_invariant_valuation(11)
    elapsed = time.perf_counter() - t0
    bound = max(congruence.cm_bound(11), 11 - 1)
    ok = v >= bound == 10 and elapsed < 60.0
    _report(5, ok, f"valuation {v} >= {bound}, {elapsed:.2f}s")
    assert bound == 10
    assert v >= bound
    assert elapsed < 60.0


def test_criterion_06_hopf_oracle():
    _cold_caches()
    t0 = time.perf_counter()
    for p in (5, 7):
        for n in (1, 2, 3, 4):
            assert skein.hopf_bracket(p, n) == hopf_state_sum(p, n)
        assert skein.hopf_bracket(p, 0) == 1
        A = skein.A_power(p, 1)
        assert skein.hopf_bracket(p, 2) == A ** 12 + A ** 8 + A ** 4 + 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(6, ok, f"{elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_07_constants_consistency():
    _cold_caches()
    t0 = time.perf_counter()
    for p in (5, 7):
        assert skein.eta(p) ** 2 == skein.eta_squared(p)
        assert skein.kappa(p) ** 2 == skein.A_power(p, skein.kappa_exponent(p))
    d = skein.delta(5)
    assert skein.twist(skein.omega(5), -1) == skein.SkeinElem(
        5, [1, -(skein.A_power(5, -3) * d)])
    d = skein.delta(7)
    A6, A11 = skein.A_power(7, 6), skein.A_power(7, 11)
    assert to_z(skein.twist(skein.omega(7), -1)) == ZPoly(
        7, [1 + A6 - A6 * d * d, -(A11 * d), A6 * (d * d - 1)])
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _report(7, ok, f"{elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_08_homology():
    t0 = time.perf_counter()
    for p in (3, 5, 7, 11):
        group = invariants.homology_from_matrix([[0, p], [p, p]])
        assert group == invariants.AbelianGroup(0, [p, p])
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _report(8, ok, f"{elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_09_linking_form_suite():
    t0 = time.perf_counter()
    test_linkform.test_pair_symmetric_bilinear_nonsingular_exhaustive()
    test_linkform.test_dual_element_round_trip_exhaustive()
    test_linkform.test_is_simple_vs_bruteforce_lift_oracle()
    test_linkform.test_scc_postconditions_randomized()
    test_linkform.test_scc2_postconditions_randomized()
    test_linkform.test_lens_space_example()
    test_linkform.test_lens_space_connected_sum_no_good_curve()
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    _report(9, ok, f"{elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_10_orbit_congruence():
    t0 = time.perf_counter()
    test_congruence.test_orbit_check_hand_example()
    test_congruence.test_orbit_check_randomized_ring_instances()
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _report(10, ok, f"{elapsed:.2f}s")
    assert elapsed < 5.0


_CRITERIA = [
    test_criterion_01_exact_reproduction_p5,
    test_criterion_02_negative_congruence_p5,
    test_criterion_03_exact_reproduction_p7,
    test_criterion_04_positive_congruence_p7,
    test_criterion_05_valuation_bound_p11,
    test_criterion_06_hopf_oracle,
    test_criterion_07_constants_consistency,
    test_criterion_08_homology,
    test_criterion_09_linking_form_suite,
    test_criterion_10_orbit_congruence,
]


if __name__ == "__main__":
    import sys

    failures = 0
    for fn in _CRITERIA:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            first = str(exc).splitlines()[0] if str(exc) else "assertion failed"
            print(f"    -> {first}")
    print(f"{len(_CRITERIA) - failures}/{len(_CRITERIA)} acceptance criteria passed")
    sys.exit(1 if failures else 0)
