"""homology: the cokernel of an integer matrix given as a literal."""

from .. import invariants
from ..cli import MAX_ENTRY_DIGITS, MAX_MATRIX_DIM, _check_cap, _emit, _exit


def _parse_matrix(text: str) -> list[list[int]]:
    rows = [[int(x) for x in row.split(",")] for row in text.split(";")]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"matrix rows have unequal lengths in {text!r}")
    return rows


def run(args) -> int:
    # digits are counted on the literal, as int() refuses more than 4,300
    digits = max(sum(map(str.isdigit, x)) for x in args.matrix.replace(";", ",").split(","))
    _check_cap("matrix entry digits", digits, MAX_ENTRY_DIGITS)
    try:
        matrix = _parse_matrix(args.matrix)
    except ValueError as exc:
        _exit(["homology"], f"bad matrix literal: {exc}")
    _check_cap("matrix dimension", max(len(matrix), len(matrix[0])), MAX_MATRIX_DIM)
    group = invariants.homology_from_matrix(matrix)
    record = {"matrix": args.matrix, "homology": group.to_json()}
    _emit(args, record, [str(group)])
    return 0
