"""Every benchmark operation, written against skeincalc's public functions.

Each function takes a tracer.  With ``NullTracer`` the calls run bare; with
``Tracer`` each public call becomes a span named ``<module>.<stage>``.

The staged walks (``invariant_stages``, ``valuation_stages``) follow the
pipeline in order: omega, twist, every Hopf bracket the bracket needs, the
satellite bracket, eta or eta^2, the products, then the valuation.  The
lru_caches on omega and hopf_bracket mean each later stage pays only for its
own work, so the stage self times add up to the pipeline's time.
"""

from __future__ import annotations

import operator
import random

from skeincalc import congruence, invariants, linkform, skein
from skeincalc.cyclotomic import CycInt, euler_phi, ring_modulus, valuation
from skeincalc.errors import CalcError

COVER_PRIMES = (5, 7)
VALUATION_PRIMES = (5, 7, 11, 13)


def _stages_to_bracket(p: int, tr):
    om = tr.call("skein.omega", skein.omega, p, p=p)
    # twist is not cached, so bracket_satellite repeats this stage (about 1 ms)
    tz = tr.call("skein.twist", skein.twist, om, -1, p=p)
    for n in range(tz.degree + p * om.degree + 1):
        tr.call("skein.hopf", skein.hopf_bracket, p, n, p=p)
    sat = invariants.HopfSatellite(p, om, om)
    return tr.call("invariants.bracket", invariants.bracket_satellite, sat, p=p)


def _normalize(p: int, b, tr):
    return tr.call("cyclotomic.mul", operator.mul, skein.eta(p) ** (p + 2), b, p=p)


def _square(p: int, e2, b, tr):
    m = tr.call("cyclotomic.mul", operator.mul, e2 ** (p + 2), b, p=p)
    return tr.call("cyclotomic.mul", operator.mul, m, b, p=p)


def invariant_stages(p: int, tr):
    """cover_invariant(p) and its strict and up-to-phase kappa verdicts."""
    b = _stages_to_bracket(p, tr)
    value = tr.call("invariants.normalize", _normalize, p, b, tr, p=p)
    tr.call("congruence.kappa_residues", congruence.kappa_residues, p, p=p)
    strict = tr.call("congruence.check", congruence.check_kappa_congruence, value, p, p=p)
    phase = tr.call("congruence.phase_check",
                    congruence.check_kappa_congruence_up_to_phase, value, p, p=p)
    return value, strict, phase


def valuation_stages(p: int, tr):
    """(2 * cover_invariant_valuation(p), bracket, squared invariant)."""
    b = _stages_to_bracket(p, tr)
    e2 = tr.call("skein.eta_squared", skein.eta_squared, p, p=p)
    squared = tr.call("invariants.square", _square, p, e2, b, tr, p=p)
    return tr.call("cyclotomic.valuation", valuation, squared, p, p=p), b, squared


def _invariant_record(value, strict, phase) -> dict:
    return {"value": value.to_json(), "congruent": strict.congruent,
            "witness": list(strict.witness) if strict.witness else None,
            "congruent_up_to_phase": phase.congruent}


def plain_cover_pass() -> dict:
    """One cover_sweep pass through the pipeline's own entry points."""
    out = {"cover": {}, "valuation": {}, "cm_bound": {}}
    for p in COVER_PRIMES:
        value = invariants.cover_invariant(p)
        out["cover"][str(p)] = _invariant_record(
            value, congruence.check_kappa_congruence(value, p),
            congruence.check_kappa_congruence_up_to_phase(value, p))
    for p in VALUATION_PRIMES:
        out["valuation"][str(p)] = invariants.cover_invariant_valuation(p)
        out["cm_bound"][str(p)] = congruence.cm_bound(p)
    return out


def staged_cover_pass(tr) -> tuple[dict, list]:
    """The same pass stage by stage; also returns the ring values it made."""
    out = {"cover": {}, "valuation": {}, "cm_bound": {}}
    values = []
    for p in COVER_PRIMES:
        value, strict, phase = invariant_stages(p, tr)
        out["cover"][str(p)] = _invariant_record(value, strict, phase)
        values.append(value)
    for p in VALUATION_PRIMES:
        v2, b, squared = valuation_stages(p, tr)
        out["valuation"][str(p)] = v2 // 2 if v2 % 2 == 0 else None
        out["cm_bound"][str(p)] = congruence.cm_bound(p)
        values += [b, squared]
    return out, values


def coeff_bits(values) -> int:
    return max(abs(c).bit_length() for v in values for c in v.num.coeffs)


# ---------------------------------------------------------------------------
# algebra_queries
# ---------------------------------------------------------------------------

def kappa_element(q: dict) -> CycInt:
    p = q["p"]
    if q["planted"]:
        y = CycInt(ring_modulus(p), q["y"])
        return skein.kappa(p) ** q["m"] * q["n"] + y * p
    return CycInt(ring_modulus(p), q["coeffs"])


def run_kappa(q: dict, x: CycInt, tr):
    p = q["p"]
    if q["mode"] == "strict":
        return tr.call("congruence.check", congruence.check_kappa_congruence, x, p, p=p)
    return tr.call("congruence.phase_check",
                   congruence.check_kappa_congruence_up_to_phase, x, p, p=p)


def run_form(q: dict, tr):
    form = tr.call("linkform.parse", linkform.parse_form, q["literal"])
    h = linkform.Homology1(q["free_rank"], form)
    chi = linkform.Character(q["order"], q["free_values"], q["torsion_values"], form)
    dual = tr.call("linkform.analyze", linkform.dual_element, form, chi.torsion_values)
    simple = tr.call("linkform.analyze", linkform.is_simple, h, chi)
    picks = None
    if any(q["torsion_values"]):
        select = linkform.scc_curves if q["order"] == q["p"] else linkform.scc2_curves
        picks = tr.call("linkform.analyze", select, h, chi)
    curves = [linkform.CurveClass(free, linkform.TorsionElement(tors))
              for free, tors in q["curves"]]
    complement = tr.call("linkform.complement", linkform.complement_simple, h, chi, curves)
    return form, dual, simple, picks, complement


def run_matrix(q: dict, tr):
    return tr.call("intlinalg.cokernel", invariants.homology_from_matrix,
                   [list(r) for r in q["rows"]])


# ---------------------------------------------------------------------------
# cli_session (traced run only: what each command computes, stage by stage)
# ---------------------------------------------------------------------------

def _options(argv) -> dict:
    opts, key = {}, None
    for a in argv:
        if a.startswith("--"):
            key, eq, value = a.partition("=")
            opts.setdefault(key, [])
            if eq:
                opts[key].append(value)
        elif key is not None:
            opts[key].append(a)
    return opts


def warm_residue_tables(primes, tr) -> None:
    for p in primes:
        tr.call("congruence.kappa_residues", congruence.kappa_residues, p, p=p)


def cli_stages(argv, tr) -> tuple[list, list]:
    """Run the computation behind one CLI call.

    Returns the ring values it made and the congruence verdicts it reached.
    """
    cmd, opts = argv[0], _options(argv)
    if cmd in ("invariant", "valuation", "hopf"):
        p = int(opts["--p"][0])
    if cmd == "invariant":
        value, strict, phase = invariant_stages(p, tr)
        _, b, squared = valuation_stages(p, tr)
        tr.call("intlinalg.cokernel", invariants.homology_from_matrix,
                invariants.linking_matrix(p), p=p)
        return [value, b, squared], [strict.congruent, phase.congruent]
    if cmd == "valuation":
        _, b, squared = valuation_stages(p, tr)
        return [b, squared], []
    if cmd == "hopf":
        tr.call("skein.hopf", skein.hopf_bracket, p, int(opts["--n"][0]), p=p)
    elif cmd == "homology":
        rows = [[int(x) for x in row.split(",")] for row in opts["--matrix"][0].split(";")]
        tr.call("intlinalg.cokernel", invariants.homology_from_matrix, rows)
    elif cmd == "cover":
        _cover_analyze(opts, tr)
    elif cmd == "orbit-check":
        _orbit_check(opts, tr)
    else:
        raise ValueError(f"unknown command {cmd!r}")
    return [], []


def _cover_analyze(opts: dict, tr) -> None:
    free_rank = int(opts.get("--free-rank", ["0"])[0])
    order = int(opts["--order"][0]) if "--order" in opts else None
    form = tr.call("linkform.parse", linkform.parse_form, opts["--form"][0])
    chi = tr.call("linkform.parse", linkform.parse_character, opts["--char"][0],
                  form, free_rank, order)
    curves = [tr.call("linkform.parse", linkform.parse_curve, c, form, free_rank)
              for c in opts.get("--curves", [])]
    h = linkform.Homology1(free_rank, form)
    tr.call("linkform.analyze", linkform.is_simple, h, chi)
    tr.call("linkform.analyze", linkform.dual_element, form, chi.torsion_values)
    p = form.p
    if chi.order == p and not chi.is_zero:
        tr.call("linkform.analyze", linkform.scc_curves, h, chi)
    elif chi.order == p * p:
        try:
            tr.call("linkform.analyze", linkform.scc2_curves, h, chi)
        except CalcError:
            pass
    if curves:
        tr.call("linkform.complement", linkform.complement_simple, h, chi, curves)


def _orbit_check(opts: dict, tr) -> None:
    p, colors = int(opts["--p"][0]), int(opts["--colors"][0])
    rng = random.Random(int(opts["--seed"][0]))
    N = ring_modulus(p)

    def element():
        return CycInt(N, [rng.randint(-3, 3) for _ in range(euler_phi(N))])

    for _ in range(int(opts["--trials"][0])):
        weights = [element() for _ in range(colors)]
        values = {rep: element() for rep in congruence.necklace_orbits(colors, p)}
        tr.call("congruence.orbit_check", congruence.orbit_congruence_check,
                weights, values, p, p=p)
