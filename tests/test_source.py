"""Checks on the package source itself."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "skeincalc"
HANDLERS = ("invariant", "hopf", "valuation", "homology", "cover_analyze", "orbit_check")


def _modules():
    """(name relative to the package, path) of every module, subpackages included."""
    return [(path.relative_to(SOURCE).as_posix(), path) for path in sorted(SOURCE.rglob("*.py"))]


def test_guards_scan_the_command_handlers():
    names = {name for name, _ in _modules()}
    assert {"cli.py", "commands/__init__.py"} <= names
    assert {f"commands/{handler}.py" for handler in HANDLERS} <= names


def test_no_assert_statements():
    # internal checks must raise, so that they survive python -O
    found = []
    for name, path in _modules():
        for node in ast.walk(ast.parse(path.read_text(), name)):
            if isinstance(node, ast.Assert):
                found.append(f"{name}:{node.lineno}")
    assert SOURCE.is_dir()
    assert not found, f"assert statements in the package: {found}"


def _banned_names(banned):
    """Where a definition, import, attribute, name or string constant of the
    package is named in banned."""
    found = []
    for name, path in _modules():
        for node in ast.walk(ast.parse(path.read_text(), name)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name.rpartition(".")[2] for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Constant):
                names = [node.value]  # an __all__ entry or a getattr name
            else:
                continue
            found += [f"{name}:{node.lineno}: {n}" for n in names if n in banned]
    assert SOURCE.is_dir()
    return found


def test_pipeline_modules_do_not_divide():
    # nothing in the package divides in the ring: the Galois-adjugate
    # division and inversion, the polynomial long division by Phi_N, and
    # the valuation's division by 1 - zeta_p through its cofactor in p are
    # test oracles (tests/oracles.py)
    found = _banned_names({"divide_exact", "invert_p_power", "_adjugate",
                           "_poly_divmod", "cyclotomic_polynomial", "_reduction_table",
                           "_cofactor", "valuation_cofactor", "valuation_by_cofactor"})
    assert not found, f"division in the package: {found}"


def test_package_reads_no_environment():
    # identical command lines print identical output: no module reads
    # os.environ or os.getenv, so no variable can change what a call prints
    found = _banned_names({"environ", "environb", "getenv", "getenvb"})
    assert not found, f"environment reads in the package: {found}"


def test_no_argument_parsing_library():
    # the command line is read from cli.COMMANDS; argparse and the gettext
    # and locale modules it loads cost about 8 ms per call
    banned = {"argparse", "optparse", "getopt", "gettext"}
    found = []
    for name, path in _modules():
        for node in ast.walk(ast.parse(path.read_text(), name)):
            if isinstance(node, ast.Import):
                names = [a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").partition(".")[0]] if not node.level else []
            elif isinstance(node, ast.Constant):
                names = [node.value]  # an importlib or __import__ argument
            else:
                continue
            found += [f"{name}:{node.lineno}: {n}" for n in names if n in banned]
    assert SOURCE.is_dir()
    assert not found, f"argument-parsing imports in the package: {found}"


def _runs_at_import(tree):
    """Every node executed when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_cli_and_package_import_only_the_ring_eagerly():
    # the other layers load per command; importing one here would make every
    # command compile it
    allowed = {"cyclotomic", "errors"}
    found = []
    for name in ("cli.py", "__init__.py"):
        tree = ast.parse((SOURCE / name).read_text(), name)
        for node in _runs_at_import(tree):
            if isinstance(node, ast.Import):
                paths = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = f"skeincalc.{node.module or ''}".rstrip(".") if node.level else node.module
                paths = [f"{base}.{a.name}" for a in node.names] if base == "skeincalc" else [base]
            else:
                continue
            found += [f"{name}:{node.lineno}: {path}" for path in paths
                      if path.startswith("skeincalc.") and path.split(".")[1] not in allowed]
    assert not found, f"layers imported at module level: {found}"


def test_span_test_is_membership_only():
    # the package asks only whether rhs lies in a column span: the
    # constructive solve and its unit vectors are test oracles
    # (tests/oracles.py), and linkform reaches intlinalg, on first use
    # through the package namespace, only through in_span and the cokernel
    # entry points
    banned = {"solve", "_identity"}
    allowed = {"in_span", "cokernel", "diagonal_entries"}
    found = []
    for name, path in _modules():
        for node in ast.walk(ast.parse(path.read_text(), name)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name in banned):
                found.append(f"{name}:{node.lineno}: defines {node.name}")
    tree = ast.parse((SOURCE / "linkform.py").read_text(), "linkform.py")

    def names_module(node):  # intlinalg, or skeincalc.intlinalg read on first use
        return (isinstance(node, ast.Name) and node.id == "intlinalg"
                or isinstance(node, ast.Attribute) and node.attr == "intlinalg")

    uses = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.endswith("intlinalg"):
            found += [f"linkform.py:{node.lineno}: imports {a.name}"
                      for a in node.names if a.name not in allowed]
        elif isinstance(node, ast.ImportFrom):  # the module itself, perhaps renamed
            found += [f"linkform.py:{node.lineno}: imports intlinalg"
                      for a in node.names if a.name == "intlinalg"]
        elif isinstance(node, ast.Attribute) and names_module(node.value):
            uses += 1
            if node.attr not in allowed:
                found.append(f"linkform.py:{node.lineno}: intlinalg.{node.attr}")
    # every other mention of the module (getattr, an alias) is refused
    names = sum(map(names_module, ast.walk(tree)))
    if names != uses or not uses:
        found.append(f"linkform.py: {names - uses} bare uses of intlinalg of {names}")
    assert SOURCE.is_dir()
    assert not found, f"span test beyond in_span: {found}"


def test_only_ring_types_define_arithmetic():
    # CycInt and CycNum are the one representation of exact arithmetic:
    # residues mod p are coefficient tuples (cyclotomic.mod_p) and skein
    # elements are read-only e-basis vectors
    ops = {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
           "__pow__"}
    ring_types = {"CycInt", "CycNum"}
    found = []
    for name, path in _modules():
        for node in ast.walk(ast.parse(path.read_text(), name)):
            if isinstance(node, ast.ClassDef) and node.name == "ResidueClass":
                found.append(f"{name}:{node.lineno}: defines ResidueClass")
            if isinstance(node, ast.ClassDef) and node.name not in ring_types:
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names = [stmt.name]
                    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                        names = [t.id for t in targets if isinstance(t, ast.Name)]
                    else:
                        continue
                    found += [f"{name}:{stmt.lineno}: {node.name}.{n}" for n in names if n in ops]
            elif isinstance(node, ast.Constant) and node.value in ops:
                found.append(f"{name}:{node.lineno}: {node.value!r}")  # a setattr route
    assert SOURCE.is_dir()
    assert not found, f"arithmetic outside CycInt and CycNum: {found}"


def test_residue_table_builds_no_ring_element():
    # kappa_residues reads each line off the shape of Phi_N; the table built
    # from ring elements zeta_N^(tm) is a test oracle (tests/oracles.py)
    banned = {"root", "from_int", "CycInt", "mod_p"}
    tree = ast.parse((SOURCE / "congruence.py").read_text(), "congruence.py")
    body = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "kappa_residues"]
    assert len(body) == 1
    found = [f"congruence.py:{node.lineno}: {name}" for node in ast.walk(body[0])
             for name in ([node.id] if isinstance(node, ast.Name)
                          else [node.attr] if isinstance(node, ast.Attribute) else [])
             if name in banned]
    assert not found, f"ring elements in kappa_residues: {found}"


def test_orbits_are_generated_not_found_by_rotation():
    # orbit-check visits each orbit once through necklace_orbits; the least
    # rotation of every sequence and the walk over every sequence are test
    # oracles (tests/oracles.py)
    found = _banned_names({"canonical_orbit", "necklace_orbits_by_rotation"})
    assert not found, f"per-sequence orbit search in the package: {found}"
    tree = ast.parse((SOURCE / "congruence.py").read_text(), "congruence.py")
    imports = [f"congruence.py:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.Import) and any(a.name == "itertools" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "itertools"]
    assert not imports, f"itertools imported by congruence: {imports}"
