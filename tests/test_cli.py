import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skeincalc.cli import (COMMANDS, MAX_COORD_DIGITS, MAX_COVER_DIM, MAX_ENTRY_DIGITS,
                           MAX_MATRIX_DIM, MAX_N, MAX_ORBIT_WORK, MAX_ORDER_DIGITS, main,
                           parse_args)
from skeincalc.congruence import orbit_work
from skeincalc.cyclotomic import CycNum
from skeincalc.invariants import cover_invariant

from oracles import argparse_parser


# stdout of every pinned benchmark call, keyed by its space-joined argv
CLI_PINS = Path(__file__).resolve().parent.parent / "perfbench" / "pins.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def argument_error(capsys, *argv):
    """The usage line and the error line of a call that must exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, ""), argv
    usage, error = captured.err.splitlines()
    return usage, error


def test_stdout_is_byte_identical_to_every_pin(capsys):
    pins = json.loads(CLI_PINS.read_text(encoding="utf-8"))["cli"]
    assert "invariant --p 5" in pins and "invariant --p 7 --json" in pins
    for key, want in pins.items():
        code, out, _ = run(capsys, *key.split(" "))
        assert (code, out) == (0, want), key


def test_invariant_p5_text(capsys):
    code, out, _ = run(capsys, "invariant", "--p", "5")
    assert code == 0
    assert "NOT congruent to κ^m·n mod 5" in out
    assert "-2ζ20 + 4ζ20^3 - ζ20^5 - 2ζ20^7" in out
    assert "Z_5 ⊕ Z_5" in out


def test_invariant_p7_json(capsys):
    code, out, _ = run(capsys, "invariant", "--p", "7", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["congruent"] is True
    assert record["witness"] == [0, 0]
    assert record["congruent_up_to_phase"] is True
    assert record["valuation"] == 10
    assert record["homology"] == {"free_rank": 0, "torsion": [7, 7]}
    assert CycNum.from_json(record["value"]) == cover_invariant(7)


def test_invariant_value_round_trip(capsys):
    code, out, _ = run(capsys, "invariant", "--p", "5", "--json")
    record = json.loads(out)
    assert CycNum.from_json(record["value"]) == cover_invariant(5)
    assert record["phase_pinned"] is True


def test_hopf_subcommand(capsys):
    code, out, _ = run(capsys, "hopf", "--p", "5", "--n", "2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["value"]["coeffs"] == [0, 0, 1, 0, 0, 0, 0, 0]  # zeta20^2


def test_valuation_subcommand(capsys):
    code, out, _ = run(capsys, "valuation", "--p", "7", "--json")
    assert code == 0
    record = json.loads(out)
    assert record == {"p": 7, "valuation": 10, "cm_bound": 2, "p_minus_1": 6,
                      "in_p_ideal": True, "phase_pinned": True}


def test_homology_subcommand(capsys):
    code, out, _ = run(capsys, "homology", "--matrix", "0,5;5,5")
    assert code == 0
    assert out.strip() == "Z_5 ⊕ Z_5"
    code, out, _ = run(capsys, "homology", "--matrix", "0,5;5,5", "--json")
    assert json.loads(out)["homology"] == {"free_rank": 0, "torsion": [5, 5]}
    # 3x3 matrices, read off their determinantal divisors: full rank whose
    # chain is not its diagonal, rank 2 and rank 1
    for matrix, text, free_rank, torsion in (
            ("6,0,0;0,10,0;0,0,15", "Z_30 ⊕ Z_30", 0, "[30, 30]"),
            ("1,2,3;4,5,6;7,8,9", "Z ⊕ Z_3", 1, "[3]"),
            ("2,4,6;4,8,12;6,12,18", "Z^2 ⊕ Z_2", 2, "[2]")):
        code, out, _ = run(capsys, "homology", "--matrix", matrix)
        assert code == 0 and out == text + "\n"
        code, out, _ = run(capsys, "homology", "--matrix", matrix, "--json")
        assert code == 0
        assert out == ('{"homology": {"free_rank": %d, "torsion": %s}, "matrix": "%s"}\n'
                       % (free_rank, torsion, matrix))


def test_cover_analyze(capsys):
    code, out, _ = run(capsys, "cover", "analyze", "--form", "A25",
                       "--char", "tors:1/5", "--curves", "tors:5")
    assert code == 0
    assert "simple cover: no" in out
    assert "simple on the complement of the given curves: yes" in out
    code, out, _ = run(capsys, "cover", "analyze", "--form", "A25+A5+B5[2]",
                       "--char", "free:0,0;tors:1/5,0,2/5", "--free-rank", "2",
                       "--json")
    assert code == 0
    record = json.loads(out)
    assert record["simple"] is False
    assert record["p"] == 5
    assert len(record["curves_selected"]) == 2


def test_cover_analyze_scc2(capsys):
    code, out, _ = run(capsys, "cover", "analyze", "--form", "A25",
                       "--char", "tors:1/25", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["order"] == 25
    assert record["curves_selected"] == [{"summand": 0, "element": [1], "chi_value": 1}]


def test_orbit_check_subcommand(capsys):
    code, out, _ = run(capsys, "orbit-check", "--p", "5", "--colors", "2",
                       "--seed", "7", "--trials", "2", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["all_congruent"] is True
    assert record["sequences_per_trial"] == 32


def test_exit_codes(capsys):
    # p out of range: the parser exits 2
    for p in ("4", "9", "3"):
        _, error = argument_error(capsys, "invariant", "--p", p)
        assert error.endswith(f"argument --p: p must be an odd prime >= 5, got {p}")
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    code = main(["cover", "analyze", "--form", "A25", "--char", "tors:1/125"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "does not annihilate the order-25 summand" in captured.err


def test_malformed_literals_exit_code(capsys):
    # a literal the handler cannot read is reported like any argument error
    for command, options, message in (
            ("homology", ["--matrix", "1,2;3"],
             "bad matrix literal: matrix rows have unequal lengths in '1,2;3'"),
            ("cover analyze", ["--form", "A24", "--char", "tors:0"],
             "summand order must be a prime power"),
            ("cover analyze", ["--form", "A25", "--char", "tors:1/5,0"],
             "expected 1 torsion values, got 2"),
            ("cover analyze", ["--form", "A5", "--char", "tors:1/0"],
             "zero denominator in the character literal 'tors:1/0'")):
        usage, error = argument_error(capsys, *command.split(), *options)
        assert usage.startswith(f"usage: skeincalc {command} [-h] "), options
        assert error == f"skeincalc {command}: error: {message}"


def test_deterministic_output(capsys):
    a = run(capsys, "invariant", "--p", "5", "--json")
    b = run(capsys, "invariant", "--p", "5", "--json")
    assert a == b
    a = run(capsys, "orbit-check", "--p", "5", "--colors", "2", "--seed", "3", "--json")
    b = run(capsys, "orbit-check", "--p", "5", "--colors", "2", "--seed", "3", "--json")
    assert a == b


def test_format_env_variable(capsys, monkeypatch):
    # the output is read from argv alone: the variable once switched to JSON
    monkeypatch.setenv("SKEINCALC_FORMAT", "json")
    code, out, _ = run(capsys, "homology", "--matrix", "1,0;0,1")
    assert (code, out) == (0, "0\n")


def test_format_env_variable_is_ignored_by_the_module():
    key = "invariant --p 5"
    want = json.loads(CLI_PINS.read_text(encoding="utf-8"))["cli"][key]
    out = subprocess.run([sys.executable, "-m", "skeincalc", *key.split(" ")],
                         capture_output=True, text=True, timeout=10,
                         env={**os.environ, "SKEINCALC_FORMAT": "json"})
    assert (out.returncode, out.stdout) == (0, want)


def test_module_entry_point_subprocess():
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-m", "skeincalc", "homology",
                          "--matrix", "0,7;7,7"], capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "Z_7 \u2295 Z_7"


def test_cover_analyze_non_surjective_order(capsys):
    code, out, _ = run(capsys, "cover", "analyze", "--form", "A25",
                       "--char", "tors:1/5", "--order", "25", "--json")
    assert code == 0
    record = json.loads(out)
    assert record["curves_selected"] is None


def test_cover_analyze_reports_a_failed_cross_check(capsys, monkeypatch):
    # only a character that is not onto is reported as such; a failed
    # internal check of the curve selection is a domain error
    from skeincalc import linkform
    from skeincalc.errors import InconsistencyError

    def select(*args):
        raise InconsistencyError("selection cross-check failed")

    monkeypatch.setattr(linkform, "_select", select)
    code, out, err = run(capsys, "cover", "analyze", "--form", "A25", "--char", "tors:1/25")
    assert (code, out) == (1, "")
    assert err == "skeincalc: selection cross-check failed\n"


def test_orbit_check_argument_validation(capsys):
    for option in ("--colors", "--trials"):
        with pytest.raises(SystemExit) as exc:
            main(["orbit-check", "--p", "5", option, "0"])
        assert exc.value.code == 2
        assert f"argument {option}: value must be >= 1" in capsys.readouterr().err
    assert main(["orbit-check", "--p", "11", "--colors", "10"]) == 1  # over cap
    capsys.readouterr()


def test_large_prime_order_returns_promptly():
    # the summand order is split as r**t and r is tested by Miller-Rabin
    import subprocess
    import sys

    def analyze(form):
        return subprocess.run([sys.executable, "-m", "skeincalc", "cover", "analyze",
                               "--form", form, "--char", "free:;tors:1/1000000007"],
                              capture_output=True, text=True, timeout=10)

    out = analyze("A1000000007")
    assert out.returncode == 0
    assert "target: Z_1000000007" in out.stdout
    out = analyze("A3000000021")  # 3 * 1000000007
    assert out.returncode == 2
    assert "summand order must be a prime power" in out.stderr
    # 10**18 + 3 is prime, with no factor below its square root to stop a search
    big = "1000000000000000003"
    out = subprocess.run([sys.executable, "-m", "skeincalc", "cover", "analyze",
                          "--form", f"A{big}", "--char", f"free:;tors:1/{big}"],
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 0
    assert f"target: Z_{big}" in out.stdout


def test_prime_above_the_cap_is_refused_promptly():
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-m", "skeincalc", "valuation",
                          "--p", "1000000000000000003"],
                         capture_output=True, text=True, timeout=10)
    assert out.returncode == 1
    assert "above the cap 101" in out.stderr
    assert "Traceback" not in out.stderr


def test_valuation_and_hopf_prime_cap(capsys):
    assert main(["valuation", "--p", "103"]) == 1
    assert main(["hopf", "--p", "103", "--n", "1"]) == 1
    assert main(["invariant", "--p", "103"]) == 1
    err = capsys.readouterr().err
    assert err.count("skeincalc: p=103 is above the cap 101 for this command") == 3
    # beyond the exact range of the primality test the argument is refused
    with pytest.raises(SystemExit) as exc:
        main(["valuation", "--p", str(2 ** 89 - 1)])
    assert exc.value.code == 2
    assert "primality" in capsys.readouterr().err


def test_homology_matrix_with_leading_minus(capsys):
    code, out, _ = run(capsys, "homology", "--matrix=-1,0;0,1")
    assert code == 0
    assert out.strip() == "0"


def test_explicit_double_dash_is_a_value(capsys):
    # argparse dropped an explicit '--' value, so homology --matrix=-- reached
    # the handler as [] and ended in a traceback
    usage, error = argument_error(capsys, "homology", "--matrix=--")
    assert usage.startswith("usage: skeincalc homology [-h] ")
    assert error == ("skeincalc homology: error: bad matrix literal: "
                     "invalid literal for int() with base 10: '--'")
    with pytest.raises(SystemExit) as exc:
        main(["hopf", "--p=--", "--n", "1"])
    assert exc.value.code == 2


def run_module(*argv):
    return subprocess.run([sys.executable, "-m", "skeincalc", *argv],
                          capture_output=True, text=True, timeout=10)


def test_orbit_check_work_is_refused_before_enumeration():
    # unrefused, each would enumerate for seconds or without end; colors and
    # trials are capped before the work figure is formed
    for argv, message in (
            (("--p", "1000000007", "--colors", "3"), "p=1000000007 is above the cap 101"),
            (("--p", "1000000000000000003", "--colors", "2"), "p=1000000000000000003 is above"),
            (("--p", "103", "--colors", "1"), "p=103 is above the cap 101"),
            (("--p", "3", "--colors", "1", "--trials", "100000000"),
             f"trials=100000000 is above the cap {MAX_ORBIT_WORK}"),
            (("--p", "11", "--colors", "10"),
             f"work={orbit_work(10, 11)} is above the cap {MAX_ORBIT_WORK}"),
            (("--p", "101", "--colors", "9" * 4000),
             f"colors={'9' * 4000} is above the cap {MAX_ORBIT_WORK}")):
        out = run_module("orbit-check", *argv)
        assert out.returncode == 1, argv
        assert message in out.stderr, argv
        assert "Traceback" not in out.stderr


def test_orbit_check_caps_colors_and_trials_before_the_work_figure(capsys, monkeypatch):
    from skeincalc import congruence

    def work(*args):
        raise AssertionError("work figure formed before colors and trials were capped")

    monkeypatch.setattr(congruence, "orbit_work", work)
    value = MAX_ORBIT_WORK + 1
    for option in ("--colors", "--trials"):
        code, out, err = run(capsys, "orbit-check", "--p", "3", option, str(value))
        assert (code, out) == (1, "")
        assert err == (f"skeincalc: {option[2:]}={value} is above the cap {MAX_ORBIT_WORK} "
                       "for this command\n")


def test_orbit_check_charges_each_trial_before_enumeration(capsys, monkeypatch):
    from skeincalc import congruence

    def enumerate_orbits(*args):
        raise AssertionError("orbits enumerated before the work cap was checked")

    monkeypatch.setattr(congruence, "necklace_orbits", enumerate_orbits)
    most = MAX_ORBIT_WORK // orbit_work(1, 3)
    for trials in (55555, most + 1):
        for fmt in ((), ("--json",)):
            code, out, err = run(capsys, "orbit-check", "--p", "3", "--colors", "1",
                                 "--trials", str(trials), *fmt)
            assert code == 1 and out == ""
            assert (f"work={orbit_work(1, 3, trials)} is above the cap {MAX_ORBIT_WORK} "
                    "for this command") in err


def test_orbit_check_cap_option_raises_the_cap(capsys):
    # a one-color check at p = 67 fits the one work cap, which no option
    # raises: --cap is an unknown argument
    assert main(["orbit-check", "--p", "67", "--colors", "1"]) == 0
    assert "all congruent: yes" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["orbit-check", "--p", "67", "--colors", "1", "--cap", str(10 ** 7)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


def test_orbit_check_accepts_the_benchmark_inputs(capsys):
    # every (p, colors) the cli_session workload draws, with its largest
    # trial count, the largest one-color checks and 48 colors at p = 3
    for p, colors, trials in ((3, 2, 2), (3, 3, 2), (5, 2, 2), (5, 3, 2), (7, 2, 2),
                              (67, 1, 1), (101, 1, 1), (3, 48, 1)):
        code, out, _ = run(capsys, "orbit-check", "--p", str(p), "--colors", str(colors),
                           "--trials", str(trials))
        assert code == 0, (p, colors, trials)
        assert f"sequences per trial: {colors ** p}\nall congruent: yes\n" in out


def _cover_argv(summands: int, free_rank: int, curves: int) -> list[str]:
    rng = random.Random(summands + free_rank + curves)
    form = "+".join(["A25"] * summands)
    char = f"free:{','.join(['0'] * free_rank)};tors:{','.join(['1/5'] * summands)}"
    classes = [f"free:{','.join(str(rng.randint(-3, 3)) for _ in range(free_rank))};"
               f"tors:{','.join(str(rng.randint(0, 24)) for _ in range(summands))}"
               for _ in range(curves)]
    return ["cover", "analyze", "--form", form, "--char", char,
            "--free-rank", str(free_rank), "--curves", *classes]


def test_cover_analyze_cap(capsys, monkeypatch):
    from skeincalc import linkform
    cap = MAX_COVER_DIM
    code, out, _ = run(capsys, *_cover_argv(cap, cap, cap))
    assert code == 0
    assert out.count("\n") == 6 and "simple on the complement of the given curves" in out

    def refuse(*args):
        raise AssertionError("span test or curve selection before the cap was checked")

    for name in ("is_simple", "dual_element", "complement_simple", "scc_curves", "scc2_curves"):
        monkeypatch.setattr(linkform, name, refuse)
    for sizes, name in (((cap + 1, 0, 0), "summand count"), ((1, cap + 1, 0), "free rank"),
                        ((1, 0, cap + 1), "curve count")):
        for fmt in ((), ("--json",)):
            code, out, err = run(capsys, *_cover_argv(*sizes), *fmt)
            assert code == 1, sizes
            assert f"{name}={cap + 1} is above the cap {cap}" in err
            assert out == ""


def test_cover_analyze_digit_cap(capsys, monkeypatch):
    from skeincalc import linkform
    cap = MAX_COORD_DIGITS

    def argv(coordinate):
        return ["cover", "analyze", "--form", "A5", "--char", "free:0,0;tors:1/5",
                "--free-rank", "2", "--curves", "free:1,0;tors:0", f"free:3,{coordinate};tors:1"]

    code, out, _ = run(capsys, *argv(-(10 ** cap - 1)))
    assert code == 0 and "simple on the complement of the given curves" in out

    def refuse(*args):
        raise AssertionError("span test or curve selection before the cap was checked")

    for name in ("is_simple", "dual_element", "complement_simple", "scc_curves", "scc2_curves"):
        monkeypatch.setattr(linkform, name, refuse)
    # 4,301 digits pass int()'s limit, so digits are counted on the literal
    for coordinate in (10 ** cap, -(10 ** cap), "9" * 4301):
        digits = len(str(coordinate).lstrip("-"))
        for fmt in ((), ("--json",)):
            code, out, err = run(capsys, *argv(coordinate), *fmt)
            assert code == 1, digits
            assert f"free coordinate digits={digits} is above the cap {cap}" in err
            assert out == ""


def test_cover_analyze_order_digit_cap(capsys, monkeypatch):
    from skeincalc import intlinalg
    cap = MAX_ORDER_DIGITS
    k = max(k for k in range(1, 10 * cap) if len(str(5 ** k)) == cap)

    def argv(form):
        return ["cover", "analyze", "--form", form, "--char", "free:0;tors:1/5,0",
                "--free-rank", "1", "--curves", f"free:1;tors:1,{5 ** k - 1}", "free:0;tors:5,2"]

    # the digits of a B summand's unit are not part of its order
    code, out, _ = run(capsys, *argv(f"A{5 ** k}+B{5 ** k}[2]"))
    assert code == 0 and "simple on the complement of the given curves" in out

    def refuse(*args):
        raise AssertionError("span test before the cap was checked")

    monkeypatch.setattr(intlinalg, "in_span", refuse)
    # 4,301 digits pass int()'s limit, so digits are counted on the literal
    for order in (5 ** (k + 1), 10 ** cap, "9" * 4301):
        digits = len(str(order))
        for fmt in ((), ("--json",)):
            code, out, err = run(capsys, *argv(f"A{5 ** k}+B{order}[2]"), *fmt)
            assert code == 1, digits
            assert f"summand order digits={digits} is above the cap {cap}" in err
            assert out == ""


def test_hopf_n_cap():
    out = run_module("hopf", "--p", "5", "--n", "200000")
    assert out.returncode == 1
    assert f"above the cap {MAX_N}" in out.stderr
    assert "Traceback" not in out.stderr


# two coprime factors of 4,001 digits: their product does not fit the
# 4,300-digit limit on int-to-text conversion
_HUGE_FACTORS = f"{10 ** 4000 + 1},0;0,{10 ** 4000 + 3}"


def test_homology_caps():
    rng = random.Random(100)
    rows = [[rng.randint(-9, 9) for _ in range(100)] for _ in range(100)]
    # without the caps, the 100x100 matrix runs for seconds to minutes and
    # the 4,001-digit factors end in a traceback from str(int); their entries
    # are refused by the entry digit cap before any elimination
    for literal, message in (
            (";".join(",".join(map(str, row)) for row in rows),
             f"matrix dimension=100 is above the cap {MAX_MATRIX_DIM}"),
            (";".join(["1"] * (MAX_MATRIX_DIM + 1)),
             f"matrix dimension={MAX_MATRIX_DIM + 1} is above the cap"),
            (_HUGE_FACTORS, f"matrix entry digits=4001 is above the cap {MAX_ENTRY_DIGITS}")):
        for fmt in ((), ("--json",)):
            out = run_module("homology", f"--matrix={literal}", *fmt)
            assert out.returncode == 1, literal[:40]
            assert message in out.stderr
            assert "Traceback" not in out.stderr
            assert out.stdout == ""


def test_homology_factor_cap_behind_the_entry_cap():
    # homology checks no factor size: the largest invariant factor divides a
    # nonzero k x k minor, k <= MAX_MATRIX_DIM, and with entries below
    # 10**MAX_ENTRY_DIGITS Hadamard's bound keeps that minor below
    # (sqrt(k) * 10**MAX_ENTRY_DIGITS)**k, so under 1,554 digits; compared
    # squared, in integers
    digits = 1554
    for k in range(1, MAX_MATRIX_DIM + 1):
        assert (k * 10 ** (2 * MAX_ENTRY_DIGITS)) ** k < 10 ** (2 * digits), k
    assert (MAX_MATRIX_DIM * 10 ** (2 * MAX_ENTRY_DIGITS)) ** MAX_MATRIX_DIM \
        > 10 ** (2 * (digits - 1))
    # far below the limit on converting an int to text (4,300; 0 means none)
    limit = sys.get_int_max_str_digits()
    assert limit == 0 or limit > digits


def test_homology_entry_digit_cap(capsys, monkeypatch):
    from skeincalc import intlinalg
    cap = MAX_ENTRY_DIGITS
    largest = 10 ** cap - 1
    code, out, _ = run(capsys, "homology", f"--matrix={-largest},1;0,{largest}")
    assert code == 0 and str(largest * largest) in out

    def refuse(*args):
        raise AssertionError("elimination before the entry cap was checked")

    monkeypatch.setattr(intlinalg, "cokernel", refuse)
    # 4,301 digits pass int()'s limit, so digits are counted on the literal
    for entry in (10 ** cap, -(10 ** cap), "9" * 4301):
        digits = len(str(entry).lstrip("-"))
        for fmt in ((), ("--json",)):
            code, out, err = run(capsys, "homology", f"--matrix=1,0;0,{entry}", *fmt)
            assert code == 1, digits
            assert f"matrix entry digits={digits} is above the cap {cap}" in err
            assert out == ""


_GARBAGE = st.one_of(st.sampled_from(["", "x", "1.5", "--", "0x10", "nan", "1e3", "١٢"]),
                     st.text("AB0123456789[]+-/,;:freestor ", max_size=12))
_NUMBERS = st.one_of(st.sampled_from(["3", "5", "7", "11", "13"]), st.integers(-3, 13).map(str),
                     st.sampled_from([str(10 ** 30), str(-10 ** 30)]), _GARBAGE)
_ENTRIES = st.lists(st.one_of(st.builds("{}/{}".format, st.integers(-2, 30), st.integers(-1, 30)),
                              _NUMBERS), max_size=3).map(",".join)
_CLASSES = st.one_of(st.builds("tors:{}".format, _ENTRIES),
                     st.builds("free:{};tors:{}".format, _ENTRIES, _ENTRIES), _GARBAGE)
_FORMS = st.one_of(st.sampled_from(["A5", "A25", "A25+B5[2]", "A5+A5", "B25[3]", "A5[", "A1",
                                    "A0", "A-5", "A5+A7", "A3000000021"]), _GARBAGE)


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["invariant", "hopf", "valuation", "homology",
                                    "cover", "orbit-check"]))
    if command == "homology":
        rows = draw(st.lists(_ENTRIES, max_size=3))
        oversized = st.builds(lambda m, n, x: ";".join([",".join([x] * n)] * m),
                              st.integers(1, 2 * MAX_MATRIX_DIM), st.integers(1, 2 * MAX_MATRIX_DIM),
                              st.sampled_from(["0", "1", "-7", str(10 ** 40)]))
        literal = st.one_of(st.just(";".join(rows)), _GARBAGE, oversized, st.just(_HUGE_FACTORS))
        return ["homology", "--matrix=" + draw(literal)]
    if command == "cover":
        argv = ["cover", "analyze", "--form", draw(_FORMS), "--char", draw(_CLASSES),
                "--curves", draw(_CLASSES)]
        return argv + draw(st.sampled_from([[], ["--order", "25"], ["--free-rank", "1"]]))
    argv = [command, "--p", draw(_NUMBERS)]
    if command == "hopf":
        argv += ["--n", draw(_NUMBERS)]
    if command == "orbit-check":
        argv += ["--colors", draw(_NUMBERS), "--trials", draw(_NUMBERS)]
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(command_lines())
# inputs that once printed a traceback or ran without end
@example(["cover", "analyze", "--form", "A5", "--char", "tors:1/0"])
@example(["hopf", "--p", "5", "--n", "200000"])
@example(["orbit-check", "--p", "3", "--colors", "1", "--trials", "100000000"])
@example(["orbit-check", "--p", "3", "--colors", "1000", "--cap", "100000000000000000000"])
@example(["homology", "--matrix=" + _HUGE_FACTORS])
@example(["orbit-check", "--p", "101", "--colors", "9" * 4299])
def test_cli_fuzz_exits_cleanly(argv):
    # any input ends in exit 0, 1 or 2; an uncaught exception fails the test
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv


# values and stray tokens for the parser: numbers, negative numbers, literals
# that start with '-', spaced text, '--', help spellings and unknown options
_VALUES = ["5", "7", "3", "0", "2", "12", "-5", "-0.5", "-.5", "1e3", "", "x", "0,5;5,5",
           "-1,0;0,1", "A25", "tors:1/5", "-x y", "-١٢", "١٢"]
_STRAYS = ["--", "-", "-h", "--help", "--he", "-hh", "-hx", "-h=h", "-h=", "--help=1", "--bogus",
           "-x", "--=5", "---p", "--json=1", "--js", "stray", "--c", "--f", "--c=3", "--fr=1"]


@st.composite
def parser_argv(draw):
    words = draw(st.sampled_from([*COMMANDS, "cover", "hop", "no-such-command", ""])).split()
    options = [*COMMANDS[" ".join(words)][2], "--json"] if " ".join(words) in COMMANDS else []
    pieces = []
    for option in options:
        if not draw(st.booleans()):
            continue
        # the whole name or a prefix, which may be ambiguous
        name = option[:draw(st.integers(3, len(option)))] if draw(st.booleans()) else option
        pieces.append(draw(st.one_of(
            st.just([name]),
            st.lists(st.sampled_from(_VALUES), min_size=1, max_size=2).map(lambda v: [name, *v]),
            st.sampled_from(_VALUES).map(lambda v: [f"{name}={v}"]))))
    pieces += [[token] for token in draw(st.lists(st.sampled_from(_STRAYS + _VALUES), max_size=2))]
    before = draw(st.lists(st.sampled_from(["-x", "--he", "--", "-5", "hopf"]), max_size=1))
    return before + words + [token for piece in draw(st.permutations(pieces)) for token in piece]


def _parsed(parse, argv):
    """The fields of a parse, or the exit code it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            fields = vars(parse(argv))
        except SystemExit as exc:
            return exc.code
    if "cover_command" in fields:  # argparse keeps the second word apart
        fields["command"] += " " + fields.pop("cover_command")
    return fields


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(parser_argv(), st.booleans())
@example(["cover", "analyze", "--form", "A5", "--c", "x"], False)  # ambiguous prefix
@example(["orbit-check", "--p", "5", "--seed", "-5", "--trials=2", "--tr", "1"], True)
@example(["homology", "--matrix", "-1,0;0,1"], False)  # a literal that starts with '-'
@example(["cover", "analyze", "--form", "A25", "--char", "tors:1/5", "--curves"], False)
@example(["-h", "no-such-command"], False)
def test_parser_matches_argparse(argv, json_env):
    # neither parser reads the variable, so both give --json False without the flag
    env = {"SKEINCALC_FORMAT": "json" if json_env else "text"}
    with mock.patch.dict(os.environ, env):
        want = _parsed(argparse_parser().parse_args, argv)
        assert _parsed(parse_args, argv) == want, argv
