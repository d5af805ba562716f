"""valuation: the (1-zeta_p)-adic valuation of the cover invariant against its bounds."""

from .. import invariants, skein
from ..cli import MAX_P, _check_cap, _emit
from ..cyclotomic import cm_bound


def run(args) -> int:
    p = args.p
    _check_cap("p", p, MAX_P)
    v = invariants.cover_invariant_valuation(p)
    bound = cm_bound(p)
    record = {
        "p": p,
        "valuation": v,
        "cm_bound": bound,
        "p_minus_1": p - 1,
        "in_p_ideal": v >= p - 1,
        "phase_pinned": skein.phase_pinned(p),
    }
    text = [
        f"prime p: {p}",
        f"valuation of the cover invariant at (1-ζ_{p}): {v}",
        f"quadratic bound: {bound}   p-1: {p - 1}",
        f"lies in p·O_p: {'yes' if v >= p - 1 else 'no'}",
    ]
    _emit(args, record, text)
    return 0
