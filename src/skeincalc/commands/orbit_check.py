"""orbit-check: the mod-p orbit-collapse congruence on random ring data."""

import random

from .. import congruence
from ..cli import MAX_ORBIT_WORK, MAX_P, _check_cap, _emit
from ..cyclotomic import CycInt, euler_phi, ring_modulus


def _random_cycint(rng, N: int) -> CycInt:
    return CycInt(N, [rng.randint(-3, 3) for _ in range(euler_phi(N))])


def run(args) -> int:
    p = args.p
    _check_cap("p", p, MAX_P)
    # a trial has at least colors orbits of 9 units or more and costs 100, so these
    # refuse only what the work figure would, and bound it before it is formed
    _check_cap("colors", args.colors, MAX_ORBIT_WORK)
    _check_cap("trials", args.trials, MAX_ORBIT_WORK)
    _check_cap("work", congruence.orbit_work(args.colors, p, args.trials), MAX_ORBIT_WORK)
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
        "sequences_per_trial": args.colors ** p,
        "residue_diffs_zero": [r.congruent for r in reports],
    }
    text = [
        f"orbit-collapse congruence mod {p} with {args.colors} colors, "
        f"{args.trials} trial(s), seed {args.seed}",
        f"sequences per trial: {args.colors ** p}",
        f"all congruent: {'yes' if all_ok else 'NO (bug)'}",
    ]
    _emit(args, record, text)
    return 0 if all_ok else 1
