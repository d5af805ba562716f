"""cover analyze: linking-form analysis of the cover of a character."""

from .. import linkform
from ..cli import MAX_COORD_DIGITS, MAX_COVER_DIM, MAX_ORDER_DIGITS, _check_cap, _emit, _exit
from ..errors import CharacterDomainError


def run(args) -> int:
    try:
        # digits are counted on the literal, as int() refuses more than 4,300
        digits = [sum(map(str.isdigit, s.partition("[")[0])) for s in args.form.split("+")]
        _check_cap("summand order digits", max(digits), MAX_ORDER_DIGITS)
        form = linkform.parse_form(args.form)
        chi = linkform.parse_character(args.char, form, args.free_rank, args.order)
        digits = [sum(map(str.isdigit, x)) for c in args.curves
                  for x in linkform.split_sections(c).get("free", [])]
        _check_cap("free coordinate digits", max(digits, default=0), MAX_COORD_DIGITS)
        curves = [linkform.parse_curve(c, form, args.free_rank) for c in args.curves]
    except ValueError as exc:
        _exit(["cover", "analyze"], str(exc))
    for name, value in (("summand count", len(form.summands)), ("free rank", args.free_rank),
                        ("curve count", len(curves))):
        _check_cap(name, value, MAX_COVER_DIM)
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
        except CharacterDomainError:
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
