import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import smith_by_min_pivot, solve
from skeincalc import intlinalg
from skeincalc.intlinalg import cokernel, diagonal_entries, in_span


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def random_matrix(rng, m, n, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


def test_snf_factorization_randomized():
    rng = random.Random(5)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        d, u, v = smith_by_min_pivot(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert diagonal_entries(a) == [d[i][i] for i in range(min(m, n)) if d[i][i]]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x:
                assert y % x == 0
            else:
                assert y == 0


def test_snf_transforms_unimodular():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(6)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = random_matrix(rng, m, n)
        d, u, v = smith_by_min_pivot(a)
        assert diagonal_entries(a) == [d[i][i] for i in range(min(m, n)) if d[i][i]]
        assert abs(sympy.Matrix(u).det()) == 1
        assert abs(sympy.Matrix(v).det()) == 1


def test_invariant_factors_vs_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        ours = diagonal_entries(a)
        theirs = [int(x) for x in invariant_factors(sympy.Matrix(a)) if x != 0]
        assert ours == theirs


def test_cokernel_examples():
    assert cokernel([[0, 5], [5, 5]]) == (0, [5, 5])
    assert cokernel([[1]]) == (0, [])
    assert cokernel([[0, 7], [7, 7]]) == (0, [7, 7])
    assert cokernel([[2, 0], [0, 0]]) == (1, [2])
    assert cokernel([[12, 6, 4], [3, 9, 6], [2, 16, 14]]) == (0, [10, 30])


def test_solve_constructed_and_verified():
    rng = random.Random(8)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) for i in range(m)]
        assert in_span(a, b)
        got = solve(a, b)
        assert [sum(a[i][j] * got[j] for j in range(n)) for i in range(m)] == b


def test_solve_unsolvable_cases():
    for a, b in (([[2]], [1]), ([[2, 0], [0, 3]], [1, 1]), ([[1, 1], [1, 1]], [0, 1]),
                 # solvable over Q but not over Z
                 ([[4, 2], [2, 4]], [1, 1])):
        assert not in_span(a, b)
        assert solve(a, b) is None
    assert in_span([[4, 2], [2, 4]], [6, 6])
    assert solve([[4, 2], [2, 4]], [6, 6]) == [1, 1]


def test_solve_edge_shapes():
    assert in_span([], []) and solve([], []) == []
    assert in_span([[0, 0]], [0]) and solve([[0, 0]], [0]) == [0, 0]
    assert not in_span([[0]], [3]) and solve([[0]], [3]) is None
    with pytest.raises(ValueError):
        in_span([[1, 2]], [1, 2])
    with pytest.raises(ValueError):
        in_span([[1, 2], [3]], [1, 2])


def det(a):
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in a]
    out = Fraction(1)
    for c in range(len(a)):
        r = next((r for r in range(c, len(a)) if a[r][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def oracle_cases():
    """Benchmark-shaped, rectangular and degenerate matrices, seeded."""
    rng = random.Random(11)
    cases = [[], [[]], [[], []], [[0, 0, 0]], [[0], [0]], [[2, 0], [0, 3]],
             [[0, 0], [0, 5]], [[6, 0, 0], [0, 10, 0], [0, 0, 15]]]
    for k in range(400):
        if k % 2:
            # as perfbench draws them: 4x4 to 8x8, one in four singular
            n = rng.randint(4, 8)
            a = random_matrix(rng, n, n, 20)
            if rng.random() < 0.25:
                x, y = rng.randint(-3, 3), rng.randint(-3, 3)
                a[-1] = [x * u + y * v for u, v in zip(a[0], a[1])]
        else:
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            a = random_matrix(rng, m, n, rng.choice([1, 3, 30]))
            if rng.random() < 0.3:
                a[rng.randrange(m)] = [0] * n
            if rng.random() < 0.3:
                j = rng.randrange(n)
                for row in a:
                    row[j] = 0
        cases.append(a)
    # the tail reads the last two pivots off the determinantal divisors:
    # h x 2 and 2 x h, full rank, rank one, with a zero column, all zero
    for h in (1, 2, 3, 5, 9, 17, 33, 60):
        for bound in (1, 9, 10 ** 30):
            a = random_matrix(rng, h, 2, bound)
            v = [rng.randint(-bound, bound) for _ in range(2)]
            rank_one = [[c * x for x in v] for c in (rng.randint(-5, 5) for _ in range(h))]
            zero_col = [[x, 0] for x, _ in a]
            for b in (a, rank_one, zero_col):
                cases += [b, [list(col) for col in zip(*b)]]
        cases.append([[0, 0] for _ in range(h)])
    # tall blocks whose minors' gcd never reaches d1**2: rank one, and
    # d2 = 7 d1; the row-lattice basis keeps them linear in the height
    v = [rng.randint(-9, 9) for _ in range(2)]
    cases.append([[c * x for x in v] for c in (rng.randint(-9, 9) for _ in range(1000))])
    cases.append([[rng.randint(-9, 9), 7 * rng.randint(-9, 9)] for _ in range(1000)])
    # a 3x3 block is read off d1, d2 and d3 = |det|: full rank with d1 > 1,
    # rank 2, 1 and 0, a zero row and a zero column, entries up to 10^30
    for bound in (9, 10 ** 30):
        for d1 in (2, 6, 35):
            cases.append([[d1 * x for x in row] for row in random_matrix(rng, 3, 3, bound)])
        a = random_matrix(rng, 3, 3, bound)
        x, y = rng.randint(-3, 3), rng.randint(-3, 3)
        a[2] = [x * u + y * v for u, v in zip(a[0], a[1])]
        v = [rng.randint(-bound, bound) for _ in range(3)]
        rank_one = [[c * x for x in v] for c in (rng.randint(-5, 5) for _ in range(3))]
        zero_row = random_matrix(rng, 3, 3, bound)
        zero_row[1] = [0, 0, 0]
        zero_col = [[x, y, 0] for x, y, _ in random_matrix(rng, 3, 3, bound)]
        cases += [a, rank_one, zero_row, zero_col, [[0] * 3 for _ in range(3)]]
    # n x n whose last 3x3 block has invariants > 1: diag(1, ..., 1, B) moved
    # by unimodular row and column operations
    for n in range(4, 9):
        for block in ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], [[2, 4, 6], [4, 8, 12], [6, 12, 18]],
                      [[3 * x for x in row] for row in random_matrix(rng, 3, 3)]):
            a = [[int(i == j) for j in range(n)] for i in range(n - 3)]
            a += [[0] * (n - 3) + row for row in block]
            for _ in range(2 * n):
                i, j = rng.sample(range(n), 2)
                q = rng.randint(-3, 3)
                a[i] = [x + q * y for x, y in zip(a[i], a[j])]
                for row in a:
                    row[j] += q * row[i]
            cases.append(a)
    return cases


def test_kernel_entries_stay_below_the_determinant(monkeypatch):
    # rounded quotients and the two-column tail keep every entry the
    # kernel leaves no wider than det(a)
    kernel = intlinalg._clear_leading
    widest = []

    def measured(rows):
        kernel(rows)
        widest.append(max((abs(x).bit_length() for row in rows for x in row), default=0))

    monkeypatch.setattr(intlinalg, "_clear_leading", measured)
    for n, seed in ((40, 1), (40, 2), (60, 3)):
        a = random_matrix(random.Random(seed), n, n)
        widest.clear()
        cokernel(a)
        assert widest and max(widest) <= abs(int(det(a))).bit_length(), (n, seed)


def test_a_3x3_block_needs_no_kernel_call(monkeypatch):
    # with unit pivots and no transpose an n x n matrix peels n - 3 rows by
    # the kernel and reads the last 3x3 block off its determinantal divisors
    kernel = intlinalg._clear_leading
    pivots = []

    def counted(rows):
        kernel(rows)
        pivots.append(rows[0][0])

    monkeypatch.setattr(intlinalg, "_clear_leading", counted)
    for n, seed in ((4, 1), (5, 0), (6, 0), (7, 0), (8, 0)):
        a = random_matrix(random.Random(seed), n, n, 20)
        pivots.clear()
        assert diagonal_entries(a) == oracle_diagonal(a)
        assert len(pivots) == n - 3 and all(x in (1, -1) for x in pivots), (n, pivots)


def oracle_diagonal(a):
    d, _, _ = smith_by_min_pivot(a)
    return [d[i][i] for i in range(min(len(a), len(a[0]) if a else 0)) if d[i][i]]


def oracle_solvable(a, b):
    d, u, _ = smith_by_min_pivot(a)
    n = len(a[0]) if a else 0
    c = [sum(x * y for x, y in zip(row, b)) for row in u]
    return all(c[i] % d[i][i] == 0 if i < n and d[i][i] else c[i] == 0 for i in range(len(c)))


def test_diagonal_cokernel_and_smith_form_match_the_min_pivot_oracle():
    for a in oracle_cases():
        diag = oracle_diagonal(a)
        assert diagonal_entries(a) == diag, a
        assert cokernel(a) == (len(a) - len(diag), [x for x in diag if x > 1]), a
        d, u, v = smith_by_min_pivot(a)
        if a and a[0]:
            assert mat_mul(mat_mul(u, a), v) == d, a


def test_solve_verdict_matches_the_min_pivot_oracle():
    rng = random.Random(12)
    seen = set()
    for a in oracle_cases():
        n = len(a[0]) if a else 0
        planted = [sum(x * y for x, y in zip(row, [rng.randint(-4, 4) for _ in range(n)]))
                   for row in a]
        for b in (planted, [rng.randint(-30, 30) for _ in a]):
            verdict = in_span(a, b)
            assert verdict == oracle_solvable(a, b), (a, b)
            got = solve(a, b)
            assert (got is not None) == verdict, (a, b)
            if got is not None:
                assert [sum(x * y for x, y in zip(row, got)) for row in a] == b
            seen.add(verdict)
    assert seen == {True, False}


def _matrices(m, n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(st.tuples(st.integers(1, 6), st.integers(0, 6)).flatmap(
    lambda mn: _matrices(*mn, st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30)))))
@example([[2, 0], [0, 3]])
@example([[4, 0, 0], [0, 6, 0], [0, 0, 0]])
@example([[0, 0], [0, 0]])
@example([[]])
def test_smith_form_property(a):
    # the oracle's U*M*V == D, U and V unimodular, D diagonal with a
    # divisibility chain, and D's nonzero diagonal is diagonal_entries
    m, n = len(a), len(a[0])
    d, u, v = smith_by_min_pivot(a)
    assert diagonal_entries(a) == [d[i][i] for i in range(min(m, n)) if d[i][i]]
    assert len(u) == m and all(len(row) == m for row in u)
    assert len(v) == n and all(len(row) == n for row in v)
    product = mat_mul(mat_mul(u, a), v) if n else [[] for _ in a]
    assert product == d
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [d[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert (y % x == 0) if x else (y == 0)


@st.composite
def span_systems(draw):
    """(a, b): a random matrix, or a complement_simple system, with b planted or not.

    The complement_simple shape has r free rows over the curve columns, then
    one row per torsion summand: residues below its order p^t under the
    curves and p^t in that summand's own modulus column.
    """
    big = st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30))
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 6)), draw(st.integers(0, 6))
        a = draw(_matrices(m, n, big))
    else:
        p = draw(st.sampled_from([3, 5, 7, 101]))
        orders = [p ** t for t in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))]
        r, k = draw(st.integers(0, 2)), draw(st.integers(0, 4))
        a = [draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)) + [0] * len(orders)
             for _ in range(r)]
        for i, q in enumerate(orders):
            a.append([draw(st.integers(0, q - 1)) for _ in range(k)]
                     + [q if j == i else 0 for j in range(len(orders))])
        m, n = len(a), k + len(orders)
    if draw(st.booleans()):
        x = draw(st.lists(big, min_size=n, max_size=n))
        b = [sum(u * v for u, v in zip(row, x)) for row in a]
    else:
        b = draw(st.lists(big, min_size=m, max_size=m))
    return a, b


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(span_systems())
@example(([[2, 0], [0, 3]], [1, 3]))
@example(([[0, 0], [0, 0]], [0, 0]))
@example(([[], []], [0, 1]))
@example(([[1, 0, 0], [2, 9, 0], [0, 0, 9]], [0, 3, 3]))
def test_in_span_matches_the_min_pivot_oracle(case):
    a, b = case
    assert in_span(a, b) == oracle_solvable(a, b), case


COMPOSITE = (6, 12, 45, 100, 2 * 101)


@st.composite
def modular_systems(draw):
    """(a, b, moduli): rows read in Z (modulus 0) or in Z/p^t, mixed.

    With probability 1/8 one row gets a modulus from COMPOSITE instead.
    """
    big = st.one_of(st.integers(-12, 12), st.integers(-10 ** 30, 10 ** 30))
    m, n = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    a = draw(_matrices(m, n, big))
    moduli = [draw(st.sampled_from([0, 0, 2, 3, 5, 7, 101])) ** draw(st.integers(1, 3))
              for _ in range(m)]
    if draw(st.integers(0, 7)) == 0:
        moduli[draw(st.integers(0, m - 1))] = draw(st.sampled_from(COMPOSITE))
    if draw(st.booleans()):
        x = draw(st.lists(big, min_size=n, max_size=n))
        k = draw(st.lists(big, min_size=m, max_size=m))
        b = [sum(u * v for u, v in zip(row, x)) + c * q for row, c, q in zip(a, k, moduli)]
    else:
        b = draw(st.lists(big, min_size=m, max_size=m))
    return a, b, moduli


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(modular_systems())
@example(([[2, 3]], [3], [6]))
@example(([[5, 0], [0, 0]], [1, 5], [25, 5]))
@example(([[], []], [4, 9], [4, 3]))
@example(([[10, 4], [3, 1]], [2, 1], [0, 8]))
def test_in_span_with_moduli_matches_the_augmented_system(case):
    # reading row i in Z/m_i is the Z span with a column m_i*e_i added
    a, b, moduli = case
    aug = [row + [q if j == i else 0 for j, q in enumerate(moduli) if q]
           for i, row in enumerate(a)]
    expected = in_span(aug, b)
    assert expected == oracle_solvable(aug, b), case
    try:
        verdict = in_span(a, b, moduli)
    except ValueError:
        # only a modulus that is not a prime power may be refused
        assert any(q in COMPOSITE for q in moduli), case
        return
    assert verdict == expected, case


def test_in_span_moduli_errors():
    with pytest.raises(ValueError):
        in_span([[1], [2]], [1, 2], [0])
    with pytest.raises(ValueError):
        in_span([[1]], [1], [-5])
    with pytest.raises(ValueError, match="not a prime power"):
        in_span([[2, 3]], [3], [6])
    assert in_span([[2, 0]], [7], [0]) is False and in_span([[2, 0]], [7], [5]) is True


def test_reduced_span_test_matches_the_constructive_solve():
    # every entry the Z/p^t step updates is reduced modulo its row's order;
    # the verdict must stay that of an integer solution of the system with
    # one modulus column per Z/p^t row, including orders p^t with t up to 400
    rng = random.Random(27)
    seen = set()
    for k in range(1500):
        p = rng.choice([2, 3, 5, 7])
        m, n = rng.randint(1, 7), rng.randint(0, 5)
        top = 400 if k % 10 == 0 else 3
        moduli = [rng.choice([0, p ** rng.randint(1, top)]) for _ in range(m)]
        a = [[rng.randrange(q) if q and rng.random() < 0.5 else rng.randint(-9, 9)
              for _ in range(n)] for q in moduli]
        if rng.random() < 0.5:
            x = [rng.randint(-9, 9) for _ in range(n)]
            b = [sum(u * v for u, v in zip(row, x)) + rng.randint(-3, 3) * q
                 for row, q in zip(a, moduli)]
        else:
            b = [rng.randint(-9, 9) for _ in range(m)]
        aug = [row + [q if j == i else 0 for j, q in enumerate(moduli) if q]
               for i, row in enumerate(a)]
        verdict = in_span(a, b, moduli)
        assert verdict == (solve(aug, b) is not None), (a, b, moduli)
        seen.add(verdict)
    assert seen == {True, False}
