"""The lazy package namespace, and which modules each CLI command loads.

The footprint cases run in a fresh interpreter each, because this test
process has already imported every module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skeincalc

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("skein", "invariants", "congruence", "linkform", "intlinalg")
CLI = ("cli", "cyclotomic", "errors")


def run_fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def loaded_after(code: str) -> list[str]:
    """The skeincalc submodules in sys.modules after code runs."""
    out = run_fresh(code + "\nimport sys\nprint(*sorted(m for m in sys.modules "
                           "if m.startswith('skeincalc.')))")
    return [m.removeprefix("skeincalc.") for m in out.splitlines()[-1].split()]


def test_bare_import_loads_only_the_ring_and_the_errors():
    assert loaded_after("import skeincalc") == ["cyclotomic", "errors"]
    assert loaded_after("import skeincalc.cli") == sorted(CLI)


# each command adds the commands package, its own handler module and the
# layers that handler calls, and no other command's module
COMMAND_CASES = [
    (["hopf", "--p", "5", "--n", "2"], ("commands.hopf", "skein")),
    (["invariant", "--p", "5"], ("commands.invariant", "congruence", "invariants", "skein")),
    (["valuation", "--p", "7"], ("commands.valuation", "invariants", "skein")),
    (["homology", "--matrix", "0,5;5,5"], ("commands.homology", "intlinalg", "invariants")),
    (["cover", "analyze", "--form", "A25+B5[2]", "--char", "tors:1/5,0"],
     ("commands.cover_analyze", "linkform")),
    (["cover", "analyze", "--form", "A25+B5[2]", "--char", "tors:1/5,0",
      "--curves", "tors:5,0"], ("commands.cover_analyze", "intlinalg", "linkform")),
    (["orbit-check", "--p", "5"], ("commands.orbit_check", "congruence", "skein")),
]
COMMAND_IDS = ["hopf", "invariant", "valuation", "homology", "cover-analyze",
               "cover-analyze-curves", "orbit-check"]


@pytest.mark.parametrize("argv, layers", COMMAND_CASES, ids=COMMAND_IDS)
def test_each_command_loads_only_its_layers(argv, layers):
    code = ("import contextlib, io\nfrom skeincalc import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n")
    assert loaded_after(code) == sorted(CLI + ("commands",) + layers)


@pytest.mark.parametrize("argv, code", [
    (["-h"], 0), (["cover", "analyze", "-h"], 0), (["invariant", "--p", "4"], 2),
    (["no-such-command"], 2)], ids=["help", "command-help", "bad-value", "unknown-command"])
def test_a_call_that_runs_no_command_loads_no_handler(argv, code):
    # the handler module is imported after the arguments parse
    run = ("import contextlib, io\nfrom skeincalc import cli\n"
           "with contextlib.redirect_stdout(io.StringIO()), "
           "contextlib.redirect_stderr(io.StringIO()):\n"
           "    try:\n"
           f"        cli.main({argv!r})\n"
           "    except SystemExit as exc:\n"
           f"        assert exc.code == {code}\n"
           "    else:\n"
           "        raise AssertionError('no exit')\n")
    assert loaded_after(run) == sorted(CLI)


@pytest.mark.parametrize("argv, code", [(argv, 0) for argv, _ in COMMAND_CASES] + [
    (["invariant", "--p", "4"], 2), (["cover", "analyze", "--c", "x"], 2), (["-h"], 0),
    (["cover", "analyze", "-h"], 0)],
    ids=COMMAND_IDS + ["bad-value", "ambiguous-option", "help", "command-help"])
def test_parsing_loads_no_argument_parser(argv, code):
    # argparse costs about 8 ms per call, with the gettext and locale it loads
    out = run_fresh("import contextlib, io, sys\nfrom skeincalc import cli\n"
                    "with contextlib.redirect_stdout(io.StringIO()), "
                    "contextlib.redirect_stderr(io.StringIO()):\n"
                    "    try:\n"
                    f"        code = cli.main({argv!r})\n"
                    "    except SystemExit as exc:\n"
                    "        code = exc.code\n"
                    "print(code, *(m for m in ('argparse', 'gettext', 'locale')\n"
                    "              if m in sys.modules))")
    assert out.split() == [str(code)]


def test_invariants_loads_intlinalg_on_the_first_homology():
    before = loaded_after("import skeincalc.invariants")
    assert "intlinalg" not in before and "invariants" in before
    after = loaded_after("import skeincalc.invariants as inv\n"
                         "print(inv.homology_from_matrix([[0, 5], [5, 5]]))")
    assert after == sorted({*before, "intlinalg"})


def test_linkform_loads_intlinalg_on_the_first_span_test():
    setup = ("import skeincalc.linkform as lf\n"
             "form = lf.parse_form('A25')\n"
             "h = lf.Homology1(0, form)\n"
             "chi = lf.parse_character('tors:1/5', form, 0, None)\n"
             "print(lf.is_simple(h, chi), lf.scc_curves(h, chi))\n")
    before = loaded_after(setup)
    assert "intlinalg" not in before and "linkform" in before
    after = loaded_after(setup + "print(lf.complement_simple(h, chi, "
                                 "[lf.parse_curve('tors:5', form, 0)]))")
    assert after == sorted({*before, "intlinalg"})


def test_both_invariants_load_no_intlinalg():
    # each is read off <omega>, so neither reaches the cokernel layer
    assert loaded_after("import skeincalc.invariants as inv\n"
                        "print(inv.cover_invariant(5), inv.cover_invariant_valuation(13))") \
        == ["cyclotomic", "errors", "invariants", "skein"]


def test_public_names_are_their_home_modules_objects():
    for name in skeincalc.__all__:
        obj = getattr(skeincalc, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_and_star_import_cover_every_public_name():
    assert "__all__" in dir(skeincalc)
    assert set(skeincalc.__all__) <= set(dir(skeincalc))
    namespace = {}
    exec("from skeincalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(skeincalc.__all__)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        skeincalc.no_such_name
    assert not hasattr(skeincalc, "BACKEND")


def test_submodules_resolve_after_a_bare_import():
    names = run_fresh("import skeincalc\n"
                      f"for name in {SUBMODULES!r}:\n"
                      "    print(getattr(skeincalc, name).__name__)\n"
                      "print(skeincalc.kappa is skeincalc.skein.kappa)")
    assert names.split() == [f"skeincalc.{name}" for name in SUBMODULES] + ["True"]
