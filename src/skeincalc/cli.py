"""Command-line driver: every computation as a subcommand, text or JSON out.

Exit codes: 0 success (printed by _emit), 1 domain errors and cap overruns
(CalcError, printed by main), 2 argument errors (printed by _exit with the
usage line).  The output depends on argv alone; --json selects JSON.
Arguments are parsed from one option table, COMMANDS, without argparse: a
command loads no argument-parsing library.  Each command's handler is the
run function of its own module in skeincalc.commands, imported after the
arguments parse; it imports the layers it calls, so a call compiles only
its own handler and those layers.
"""

from __future__ import annotations

import importlib
import sys
from types import SimpleNamespace

from .cyclotomic import is_prime
from .errors import CalcError, TooLargeError

# the largest p that every command with a --p accepts: valuation --p 101 takes
# about 0.07 s end to end on a 2-CPU machine, 2 ms more than --p 5, and
# invariant --p 101 about 0.03 s more than invariant --p 7
MAX_P = 101
# the largest n that hopf accepts: hopf --p 101 --n 1000 takes about 0.1 s end
# to end on a 2-CPU machine, of which about 0.06 s is interpreter start
MAX_N = 1000
# the most rows or columns that homology accepts: a random 60x60 matrix of
# 25-digit entries takes about 1.5 s end to end on a 2-CPU machine where
# python -c pass takes 0.05 s; the slowest thin shapes, h x 3 and 3 x h, take
# at most about 5 ms in process
MAX_MATRIX_DIM = 60
# the most decimal digits in a homology matrix entry, counted on the literal;
# each Euclid round of the elimination updates a row of such integers, and by
# Hadamard's bound no invariant factor within this cap and MAX_MATRIX_DIM has
# 1,554 digits, far below the 4,300 that Python prints from an int
MAX_ENTRY_DIGITS = 25
# the most summands, free rank and curves that cover analyze accepts: its
# span test eliminates free rank + summand rows and one column per curve
MAX_COVER_DIM = 40
# the most decimal digits in a free coordinate of a cover analyze curve, the
# one integer input not reduced modulo an order; each Euclid round of the span
# test updates a row of them, and 40 of each dimension with random 40-digit
# coordinates take about 1.7 s in process on a 2-CPU machine (2.4 s at 50)
MAX_COORD_DIGITS = 40
# the most decimal digits in a cover analyze summand order, counted on the
# --form literal; every torsion entry of the span test is reduced modulo such
# an order, and each Euclid round on a free coordinate updates a row of them:
# 40 of each dimension with 200-digit orders and full-length torsion
# coordinates take about 2.2 s end to end on a 2-CPU machine, 15 % more than
# with 2-digit orders (3.6-4.7 s at 1,000 digits)
MAX_ORDER_DIGITS = 200
# the most congruence.orbit_work units (about 1 us each) that orbit-check accepts: its
# slowest accepted inputs, such as --p 7 --colors 2 --trials 2396 or --p 3 --colors 77,
# take about 2 s end to end on 2 CPUs
MAX_ORBIT_WORK = 1_500_000


def _at_least(k: int):
    def parse(text: str) -> int:
        if (n := int(text)) < k:
            raise ValueError(f"value must be >= {k}")
        return n
    return parse


def _prime_arg(min_p: int):
    def parse(text: str) -> int:
        # is_prime raises ValueError past the exact range of its test
        if not ((p := int(text)) >= min_p and p % 2 == 1 and is_prime(p)):
            raise ValueError(f"p must be an odd prime >= {min_p}, got {p}")
        return p
    return parse


def _check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise TooLargeError(f"{name}={value} is above the cap {cap} for this command")


REQUIRED = object()
_HELP = ("-h", "--help")


def _options(command: str) -> dict:
    return {**COMMANDS[command][2], "--json": (bool, False, "emit JSON instead of text")}


def _choices(words: list[str]) -> dict:
    n = len(words)
    return {key.split()[n]: help for key, (_, help, _) in COMMANDS.items()
            if key.split()[:n] == words}


def _exit(words: list[str], error: str | None = None):
    """Print the usage line and the error and exit 2, or without one the -h text and exit 0."""
    usage, rows = ["usage: skeincalc", *words, "[-h]"], {"-h, --help": "show this help and exit"}
    if " ".join(words) not in COMMANDS:
        rows.update(_choices(words))
        usage.append(f"{{{','.join(_choices(words))}}} ...")
    else:
        for option, (kind, default, help) in _options(" ".join(words)).items():
            name = option if kind is bool else f"{option} {option[2:].upper()}"
            name += " ..." * (kind is list)
            usage.append(name if default is REQUIRED else f"[{name}]")
            rows[name] = help
    lines = ([f"  {name:22}{help}" for name, help in rows.items()] if error is None
             else [f"{' '.join(['skeincalc', *words])}: error: {error}"])
    print(" ".join(usage), *lines, sep="\n", file=sys.stdout if error is None else sys.stderr)
    raise SystemExit(0 if error is None else 2)


def _classify(token: str, names, words: list[str]):
    """None for a value, else (option or None if unknown, text after '=' or None).

    As in argparse, a unique prefix names a long option, text glued to a short
    flag is its value, and '-...' is an option unless a negative number or spaced.
    """
    if token[:1] != "-" or token == "-":
        return None
    prefix, eq, explicit = token.partition("=")
    if token in names or eq and prefix in names:
        return prefix, explicit if eq else None
    if token.startswith("--"):
        found = [name for name in names if name.startswith(prefix)]
        if len(found) > 1:
            _exit(words, f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], explicit if eq else None
    elif token[:2] in names:
        return token[:2], token[2:]
    head, dot, tail = token[1:].partition(".")
    number = head.isdecimal() and not dot or (not head or head.isdecimal()) and tail.isdecimal()
    return None if number or " " in token else (None, None)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its option values, read from COMMANDS as argparse read them."""
    words, extras, options, values, i = [], [], {}, {}, 0
    # every token after the first '--' is a value, and '--' itself an extra
    cut = argv.index("--") if "--" in argv else len(argv)
    kinds = [_classify(token, _HELP, words) for token in argv[:cut]]
    kinds += [(None, None)] + [None] * (len(argv) - cut - 1)
    while i < len(argv):
        token, kind, i = argv[i], kinds[i], i + 1
        if kind is None and not options:  # the next word of the command
            if token not in _choices(words):
                _exit(words, f"argument command: invalid choice: {token!r}")
            words.append(token)
            if " ".join(words) in COMMANDS:
                options = _options(" ".join(words))
                values = {option: default for option, (_, default, _) in options.items()}
                kinds[i:cut] = [_classify(t, (*_HELP, *options), words) for t in argv[i:cut]]
            continue
        option, explicit = kind or (None, None)
        if option is None:
            extras.append(token)
            continue
        if option in _HELP:
            # text glued to -h is read as more short flags, so -hh is -h -h
            if explicit is None or option == "-h" and explicit and not explicit.strip("h"):
                _exit(words)
            _exit(words, f"argument -h/--help: ignored explicit argument {explicit!r}")
        convert = options[option][0]
        want = 0 if convert is bool else None if convert is list else 1
        stop = i
        while explicit is None and stop < len(argv) and kinds[stop] is None and stop - i != want:
            stop += 1
        args, i = argv[i:stop] if explicit is None else [explicit], stop
        try:
            if want is not None and len(args) != want:
                raise ValueError("expected one argument" if want
                                 else f"ignored explicit argument {explicit!r}")
            values[option] = (True if convert is bool else args if convert is list
                              else convert(*args))
        except ValueError as exc:
            _exit(words, f"argument {option}: {exc}")
    missing = ([option for option, value in values.items() if value is REQUIRED]
               if options else ["command"])
    if missing:
        _exit(words, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _exit([], f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=" ".join(words), **{
        option[2:].replace("-", "_"): value for option, value in values.items()})


def _emit(args, record: dict, text_lines) -> None:
    if args.json:
        import json
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# command -> (handler module in skeincalc.commands, help, {option: (type, default or REQUIRED, help)}).
# The type converts one value, but bool marks a flag and list zero or more
# literals.  Every command also takes -h and --json.
COMMANDS = {
    "invariant": ("invariant", "cover invariant, residue verdict and valuation",
                  {"--p": (_prime_arg(5), REQUIRED, f"odd prime, at most {MAX_P}")}),
    "hopf": ("hopf", "bracket of n +1-framed Hopf fibers", {
        "--p": (_prime_arg(5), REQUIRED, f"odd prime, at most {MAX_P}"),
        "--n": (_at_least(0), REQUIRED, f"number of fibers, at most {MAX_N}")}),
    "valuation": ("valuation", "(1-zeta_p)-adic valuation of the cover invariant vs bounds",
                  {"--p": (_prime_arg(5), REQUIRED, f"odd prime, at most {MAX_P}")}),
    "homology": ("homology", "cokernel of an integer matrix", {"--matrix": (str, REQUIRED, (
        "rows split by ';', entries by ','; --matrix=-1,0;0,1 if it starts with '-'"))}),
    "cover analyze": ("cover_analyze", "linking-form cover analysis of a character", {
        "--form": (str, REQUIRED, 'Wall form literal, e.g. "A25+B5[2]"'),
        "--char": (str, REQUIRED, 'character literal, e.g. "free:0;tors:1/5,0"'),
        "--free-rank": (_at_least(0), 0, "rank of the free part"),
        "--order": (_at_least(0), None, "target order k (default: inferred from denominators)"),
        "--curves": (list, [], 'curve literals, e.g. "free:0;tors:5,0"')}),
    "orbit-check": ("orbit_check", "mod-p orbit-collapse congruence on random ring data", {
        "--p": (_prime_arg(3), REQUIRED, f"odd prime, at most {MAX_P}"),
        "--colors": (_at_least(1), 2, "number of colors"),
        "--seed": (int, 0, "seed of the random ring data"),
        "--trials": (_at_least(1), 1, "number of trials")}),
}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    handler = importlib.import_module(f".commands.{COMMANDS[args.command][0]}", __package__)
    try:
        return handler.run(args)
    except CalcError as exc:
        print(f"skeincalc: {exc}", file=sys.stderr)
        return 1
