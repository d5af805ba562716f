"""hopf: the bracket of n +1-framed Hopf fibers."""

from .. import skein
from ..cli import MAX_N, MAX_P, _check_cap, _emit


def run(args) -> int:
    _check_cap("p", args.p, MAX_P)
    _check_cap("n", args.n, MAX_N)
    value = skein.hopf_bracket(args.p, args.n)
    record = {"p": args.p, "n": args.n, "value": value.to_json()}
    _emit(args, record, [f"H_{args.n} at p={args.p}: {value}"])
    return 0
