import json

import pytest

from skeincalc.cli import main
from skeincalc.cyclotomic import CycNum
from skeincalc.invariants import cover_invariant


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_exit_codes():
    # p out of range: argparse exits 2
    with pytest.raises(SystemExit) as exc:
        main(["invariant", "--p", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    code = main(["invariant", "--p", "11"])
    captured = capsys.readouterr()
    assert code == 1
    assert "pinned only for p in {5, 7}" in captured.err


def test_malformed_literals_exit_code(capsys):
    assert main(["homology", "--matrix", "1,2;3"]) == 2
    assert main(["cover", "analyze", "--form", "A24", "--char", "tors:0"]) == 2
    assert main(["cover", "analyze", "--form", "A25", "--char", "tors:1/5,0"]) == 2
    capsys.readouterr()


def test_deterministic_output(capsys):
    a = run(capsys, "invariant", "--p", "5", "--json")
    b = run(capsys, "invariant", "--p", "5", "--json")
    assert a == b
    a = run(capsys, "orbit-check", "--p", "5", "--colors", "2", "--seed", "3", "--json")
    b = run(capsys, "orbit-check", "--p", "5", "--colors", "2", "--seed", "3", "--json")
    assert a == b


def test_format_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("SKEINCALC_FORMAT", "json")
    code, out, _ = run(capsys, "homology", "--matrix", "1,0;0,1")
    assert code == 0
    assert json.loads(out)["homology"] == {"free_rank": 0, "torsion": []}


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


def test_orbit_check_argument_validation(capsys):
    assert main(["orbit-check", "--p", "5", "--colors", "0"]) == 2
    assert main(["orbit-check", "--p", "5", "--trials", "0"]) == 2
    assert main(["orbit-check", "--p", "11", "--colors", "10"]) == 2  # over cap
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
    err = capsys.readouterr().err
    assert err.count("above the cap 101") == 2
    # beyond the exact range of the primality test the argument is refused
    with pytest.raises(SystemExit) as exc:
        main(["valuation", "--p", str(2 ** 89 - 1)])
    assert exc.value.code == 2
    assert "primality" in capsys.readouterr().err


def test_homology_matrix_with_leading_minus(capsys):
    code, out, _ = run(capsys, "homology", "--matrix=-1,0;0,1")
    assert code == 0
    assert out.strip() == "0"
