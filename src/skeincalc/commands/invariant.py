"""invariant: the cover invariant, its residue verdict, valuation and base homology."""

from .. import congruence, invariants, skein
from ..cli import _emit
from ..cyclotomic import ring_modulus


def run(args) -> int:
    p = args.p
    value = invariants.cover_invariant(p)
    verdict = congruence.check_kappa_congruence(value, p)
    v = invariants.cover_invariant_valuation(p)
    hom = invariants.base_homology(p)
    record = {
        "p": p,
        "value": value.to_json(),
        **verdict.to_json(),
        # kappa permutes the residues, so the up-to-phase verdict is the strict one
        "congruent_up_to_phase": verdict.congruent,
        "valuation": v,
        "homology": hom.to_json(),
        "phase_pinned": skein.phase_pinned(p),
    }
    if verdict.congruent:
        m, n = verdict.witness
        verdict_line = (f"congruent to κ^m·n mod {p} "
                        f"(witness m={m}, n={n}; {verdict.candidates_checked} candidates)")
    else:
        verdict_line = (f"NOT congruent to κ^m·n mod {p} "
                        f"(checked {verdict.candidates_checked} candidates)")
    text = [
        f"prime p: {p}   ring: Z[ζ{ring_modulus(p)}]",
        f"invariant: {value}",
        f"verdict: {verdict_line}",
        f"valuation at (1-ζ_{p}): {v}",
        f"base homology: {hom}",
    ]
    _emit(args, record, text)
    return 0
