"""Command-line driver: every computation as a subcommand, text or JSON out.

Exit codes: 0 success, 1 domain errors (CalcError), 2 argument errors.
SKEINCALC_FORMAT=json switches the default output format.  Each handler
imports the layers it calls, so a command loads only those.
"""

from __future__ import annotations

import argparse
import os
import sys

from .cyclotomic import CycInt, euler_phi, is_prime, ring_modulus
from .errors import CalcError, TooLargeError

# the largest p that valuation and hopf accept: valuation --p 101 takes
# about 0.65 s on a 2-CPU machine (0.25 s at p = 61)
MAX_P = 101
# the largest n that hopf accepts: hopf --p 101 --n 1000 takes about 2.3 s
MAX_N = 1000
# the most rows or columns that homology accepts: a random 60x60 matrix takes
# about 0.15 s with one-digit entries and about 2.9 s with the 33-digit
# entries that fill a 128 KiB argument
MAX_MATRIX_DIM = 60
# the most digits homology prints in one invariant factor, below Python's
# 4,300-digit limit on converting an int to text
MAX_FACTOR_DIGITS = 4000


def _prime_arg(min_p: int):
    def parse(text: str) -> int:
        try:
            p = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        try:
            ok = p >= min_p and p % 2 == 1 and is_prime(p)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        if not ok:
            raise argparse.ArgumentTypeError(f"p must be an odd prime >= {min_p}, got {p}")
        return p
    return parse


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise TooLargeError(f"{name}={value} is above the cap {cap} for this command")


def _nonneg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if n < 0:
        raise argparse.ArgumentTypeError("value must be >= 0")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skeincalc",
        description="Exact quantum-invariant, congruence and linking-form calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json_flag(sp):
        sp.add_argument("--json", action="store_true",
                        default=os.environ.get("SKEINCALC_FORMAT") == "json",
                        help="emit JSON instead of text")

    sp = sub.add_parser("invariant", help="invariant of the surgered cover, residue "
                                          "verdict and valuation (p = 5 or 7)")
    sp.add_argument("--p", type=_prime_arg(5), required=True)
    add_json_flag(sp)

    sp = sub.add_parser("hopf", help="bracket of n +1-framed Hopf fibers")
    sp.add_argument("--p", type=_prime_arg(5), required=True)
    sp.add_argument("--n", type=_nonneg, required=True)
    add_json_flag(sp)

    sp = sub.add_parser("valuation", help="(1-zeta_p)-adic valuation of the cover "
                                          "invariant vs the quadratic bound and p-1")
    sp.add_argument("--p", type=_prime_arg(5), required=True)
    add_json_flag(sp)

    sp = sub.add_parser("homology", help="cokernel of an integer matrix")
    sp.add_argument("--matrix", required=True,
                    help="rows separated by ';', entries by ',' (e.g. \"0,5;5,5\"); "
                         "write --matrix=-1,0;0,1 when the literal starts with '-'")
    add_json_flag(sp)

    cover = sub.add_parser("cover", help="linking-form cover analysis")
    cover_sub = cover.add_subparsers(dest="cover_command", required=True)
    sp = cover_sub.add_parser("analyze", help="simplicity, curve selection and "
                                              "complement test for a character")
    sp.add_argument("--form", required=True, help='Wall form literal, e.g. "A25+B5[2]"')
    sp.add_argument("--char", required=True,
                    help='character literal, e.g. "free:0;tors:1/5,0"')
    sp.add_argument("--free-rank", type=_nonneg, default=0)
    sp.add_argument("--order", type=_nonneg, default=None,
                    help="target order k (default: inferred from denominators)")
    sp.add_argument("--curves", nargs="*", default=[],
                    help='curve literals, e.g. "free:0;tors:5,0"')
    add_json_flag(sp)

    sp = sub.add_parser("orbit-check", help="verify the mod-p orbit-collapse "
                                            "congruence on random ring data")
    sp.add_argument("--p", type=_prime_arg(3), required=True)
    sp.add_argument("--colors", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--cap", type=int, default=None,
                    help="abort if trials * (colors^p + 1) * p^3 exceeds this")
    add_json_flag(sp)
    return parser


def _emit(args, record: dict, text_lines) -> None:
    if args.json:
        import json
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_invariant(args) -> int:
    from . import congruence, invariants, skein
    p = args.p
    value = invariants.cover_invariant(p)
    verdict = congruence.check_kappa_congruence(value, p)
    phase_verdict = congruence.check_kappa_congruence_up_to_phase(value, p)
    v = invariants.cover_invariant_valuation(p)
    hom = invariants.homology_from_matrix(invariants.linking_matrix(p))
    record = {
        "p": p,
        "value": value.to_json(),
        **verdict.to_json(),
        "congruent_up_to_phase": phase_verdict.congruent,
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


def _cmd_hopf(args) -> int:
    from . import skein
    _check_cap("p", args.p, MAX_P)
    _check_cap("n", args.n, MAX_N)
    value = skein.hopf_bracket(args.p, args.n)
    record = {"p": args.p, "n": args.n, "value": value.to_json()}
    _emit(args, record, [f"H_{args.n} at p={args.p}: {value}"])
    return 0


def _cmd_valuation(args) -> int:
    from . import congruence, invariants, skein
    p = args.p
    _check_cap("p", p, MAX_P)
    v = invariants.cover_invariant_valuation(p)
    bound = congruence.cm_bound(p)
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


def _arg_error(message: str) -> int:
    print(f"skeincalc: error: {message}", file=sys.stderr)
    return 2


def _parse_matrix(text: str) -> list[list[int]]:
    rows = [[int(x) for x in row.split(",")] for row in text.split(";")]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"matrix rows have unequal lengths in {text!r}")
    return rows


def _cmd_homology(args) -> int:
    from . import invariants
    try:
        matrix = _parse_matrix(args.matrix)
    except ValueError as exc:
        return _arg_error(f"bad matrix literal: {exc}")
    _check_cap("matrix dimension", max(len(matrix), len(matrix[0])), MAX_MATRIX_DIM)
    group = invariants.homology_from_matrix(matrix)
    if group.torsion and group.torsion[-1] >= 10 ** MAX_FACTOR_DIGITS:
        raise TooLargeError(f"an invariant factor has more than {MAX_FACTOR_DIGITS} digits")
    record = {"matrix": args.matrix, "homology": group.to_json()}
    _emit(args, record, [str(group)])
    return 0


def _cmd_cover_analyze(args) -> int:
    from . import linkform
    try:
        form = linkform.parse_form(args.form)
        chi = linkform.parse_character(args.char, form, args.free_rank, args.order)
        curves = [linkform.parse_curve(c, form, args.free_rank) for c in args.curves]
    except ValueError as exc:
        return _arg_error(str(exc))
    h = linkform.Homology1(args.free_rank, form)
    simple = linkform.is_simple(h, chi)
    dual = linkform.dual_element(form, chi.torsion_values)
    record = {
        "form": linkform.format_form(form),
        "p": form.p,
        "order": chi.order,
        "simple": simple,
        "bockstein_dual": list(dual.values),
    }
    text = [
        f"form: {linkform.format_form(form)}   target: Z_{chi.order}",
        f"bockstein dual: {list(dual.values)}",
        f"simple cover: {'yes' if simple else 'no'}",
    ]
    p = form.p
    if chi.order == p and not chi.is_zero:
        picks = linkform.scc_curves(h, chi)
        record["curves_selected"] = [
            {"summand": c.summand, "element": list(c.element.values),
             "pairing": str(c.pairing)} for c in picks]
        text.append("selected curves (summand, class, pairing): "
                    + "; ".join(f"({c.summand}, {list(c.element.values)}, {c.pairing})"
                                for c in picks))
    elif chi.order == p * p:
        try:
            picks = linkform.scc2_curves(h, chi)
        except CalcError:
            picks = None
            text.append("character is not onto Z_(p^2); no curve selection")
            record["curves_selected"] = None
        if picks is not None:
            record["curves_selected"] = [
                {"summand": c.summand, "element": list(c.element.values),
                 "chi_value": c.chi_value} for c in picks]
            text.append("selected curves (summand, class, chi value): "
                        + "; ".join(f"({c.summand}, {list(c.element.values)}, {c.chi_value})"
                                    for c in picks))
    if curves:
        ok = linkform.complement_simple(h, chi, curves)
        values = [str(chi.evaluate(c)) for c in curves]
        record["complement_simple"] = ok
        record["chi_on_curves"] = values
        text.append(f"simple on the complement of the given curves: {'yes' if ok else 'no'}")
        text.append(f"chi on the given curves: {', '.join(values)}")
    _emit(args, record, text)
    return 0


def _random_cycint(rng, N: int) -> CycInt:
    return CycInt(N, [rng.randint(-3, 3) for _ in range(euler_phi(N))])


def _cmd_orbit_check(args) -> int:
    import random

    from . import congruence
    p = args.p
    cap = congruence.ORBIT_TERM_CAP if args.cap is None else args.cap
    try:
        sequences = congruence.orbit_sequence_count(args.colors, p, args.trials, cap)
    except (ValueError, TooLargeError) as exc:
        return _arg_error(str(exc))
    N = ring_modulus(p)
    rng = random.Random(args.seed)
    reports = []
    for _ in range(args.trials):
        weights = [_random_cycint(rng, N) for _ in range(args.colors)]
        values = {rep: _random_cycint(rng, N)
                  for rep in congruence.necklace_orbits(args.colors, p)}
        reports.append(congruence.orbit_congruence_check(weights, values, p))
    all_ok = all(r.congruent for r in reports)
    record = {
        "p": p,
        "colors": args.colors,
        "seed": args.seed,
        "trials": args.trials,
        "all_congruent": all_ok,
        "sequences_per_trial": sequences,
        "residue_diffs_zero": [r.congruent for r in reports],
    }
    text = [
        f"orbit-collapse congruence mod {p} with {args.colors} colors, "
        f"{args.trials} trial(s), seed {args.seed}",
        f"sequences per trial: {sequences}",
        f"all congruent: {'yes' if all_ok else 'NO (bug)'}",
    ]
    _emit(args, record, text)
    return 0 if all_ok else 1


_HANDLERS = {
    "invariant": _cmd_invariant,
    "hopf": _cmd_hopf,
    "valuation": _cmd_valuation,
    "homology": _cmd_homology,
    "orbit-check": _cmd_orbit_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "cover":
            return _cmd_cover_analyze(args)
        return _HANDLERS[args.command](args)
    except CalcError as exc:
        print(f"skeincalc: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
