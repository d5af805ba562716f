"""Exact integer linear algebra: invariant factors, cokernels, span tests.

Matrices are lists of lists of arbitrary-precision ints; no floating point.
Everything over Z runs through one kernel, `_clear_leading`, which clears
the leading column of a list of rows by unimodular 2x2 row operations.  A
column operation is the same kernel applied to the transpose.
`diagonal_entries` and `cokernel` reduce the bare matrix and read its last
pivots off the determinantal divisors once at most two rows or columns, or
a 3x3 block, are left.  `in_span` reduces the columns one coordinate at a
time, in a group Z^a + Z/p^t1 + Z/p^t2 + ...: a Z coordinate by the kernel,
a Z/p^t coordinate by one pivot of least p-adic valuation, with no Euclid
rounds.
"""

from __future__ import annotations

import math


def _rows(mat) -> list[list[int]]:
    rows = [list(map(int, row)) for row in mat]
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows have unequal lengths")
    return rows


def _clear_leading(rows: list[list[int]]) -> None:
    """Zero column 0 below rows[0], leaving the column's gcd (up to sign) on top.

    In place, by Euclid on the rows: the row with the least nonzero leading
    entry a moves to the top and every other row loses q = round(b / a)
    times it, until no other leading entry b is left.  The least remainder
    of one round is the pivot of the next.  Each step is a unimodular 2x2
    row operation; when a divides b one step clears the row.  The rounded
    quotient keeps the entries near the size of the minors: on seeded 40x40
    matrices with entries in [-9, 9] the largest entry stays near 130 bits,
    below the 175 bits of the determinant, where folding each row into the
    top by extended-gcd combinations reaches over 200,000 bits.
    """
    k, best = -1, 0
    for i, row in enumerate(rows):
        b = abs(row[0])
        if b and (k < 0 or b < best):
            k, best = i, b
    while k >= 0:
        top = rows[k]
        rows[k] = rows[0]
        rows[0] = top
        a = top[0]
        k, best = -1, 0
        for i in range(1, len(rows)):
            row = rows[i]
            b = row[0]
            if b:
                q = (2 * b + a) // (2 * a)
                rows[i] = row = [y - q * x for x, y in zip(top, row)]
                b = abs(row[0])
                if b and (k < 0 or b < best):
                    k, best = i, b


def _tail(X) -> list[int]:
    """Nonzero Smith pivots of a matrix with one or two columns (3x3: `_tail3`).

    They are read off the determinantal divisors: d1 is the gcd of the
    entries and d1*d2 the gcd of the 2x2 minors, which is a*c for a basis
    (a, b), (0, c) of the row lattice.  A row (x, y) joins that basis with
    a' = gcd(a, x) and c' = gcd(c, (a*y - b*x) / a'); b' comes from the
    extended gcd, and the last row needs none, since then
    d1 = gcd(a', b, c', y).  O(rows) in all.
    """
    if len(X[0]) == 1:
        d1 = math.gcd(*(row[0] for row in X))
        return [d1] if d1 else []
    a = b = c = 0
    for x, y in X[:-1]:
        if not x:
            c = math.gcd(c, y)
        elif not a:
            a, b = x, y
        else:
            g = math.gcd(a, x)
            c = math.gcd(c, (a * y - b * x) // g)
            if g != a and g != -a:
                s = pow(a // g, -1, x // g)
                a, b = g, s * b + (g - s * a) // x * y
                if c:
                    b %= c
    x, y = X[-1]
    g = math.gcd(a, x)
    c = math.gcd(c, (a * y - b * x) // g if g else y)
    d1 = math.gcd(g, b, c, y)
    if not d1:
        return []
    return [d1, g * c // d1] if g and c else [d1]


def _tail3(X) -> list[int]:
    """Nonzero Smith pivots of a 3x3 matrix, from its determinantal divisors:
    d1 the gcd of the entries, d2 the gcd of the 2x2 minors and d3 = |det|,
    expanded along the first row with three of those minors."""
    (a, b, c), (d, e, f), (g, h, i) = X
    d1 = math.gcd(a, b, c, d, e, f, g, h, i)
    m1, m2, m3 = e * i - f * h, d * i - f * g, d * h - e * g
    d2 = math.gcd(m1, m2, m3, b * i - c * h, a * i - c * g, a * h - b * g,
                  b * f - c * e, a * f - c * d, a * e - b * d)
    if not d2:
        return [d1] if d1 else []
    d3 = abs(a * m1 - b * m2 + c * m3)
    return [d1, d2 // d1, d3 // d2] if d3 else [d1, d2 // d1]


def _diagonalise(X: list[list[int]]) -> list[int]:
    """Diagonal of the Smith form of X, before the divisibility chain.

    Alternates row and column passes of the kernel, peeling off a finished
    pivot row and column whenever the pivot divides the rest of its row:
    clearing that row only changes the row itself.  A zero leading column is
    set aside.  The pivots are positive; `_tail` gives the last of them once
    at most two rows or columns are left, and `_tail3` those of a 3x3 block,
    which saves a square matrix its dearest kernel call, at height 3.
    """
    pivots = []
    while X and X[0]:
        w = len(X[0])
        if w <= 2 or len(X) <= 2:
            pivots += _tail(X if w <= 2 else list(zip(*X)))
            break
        if w == 3 and len(X) == 3:
            pivots += _tail3(X)
            break
        _clear_leading(X)
        top = X[0]
        a = top[0]
        if not a:
            X = [x[1:] for x in X]
        elif a not in (1, -1) and any(x % a for x in top[1:]):
            X = [list(col) for col in zip(*X)]
        else:
            pivots.append(abs(a))
            X = [x[1:] for x in X[1:]]
    return pivots


def diagonal_entries(mat) -> list[int]:
    """Nonzero diagonal of the Smith form (the invariant factors, with 1s)."""
    d = _diagonalise(_rows(mat))
    # pairwise (gcd, lcm) turns diag(d) into a divisibility chain with the
    # same cokernel; a pivot 1 divides every other, so only those > 1 pair
    ones = d.count(1)
    d = [a for a in d if a > 1]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g = math.gcd(a, b)
                d[i], d[j] = g, a // g * b
    return [1] * ones + d


def cokernel(mat) -> tuple[int, list[int]]:
    """(free_rank, invariant factors > 1) of Z^rows / column-span(mat)."""
    diag = diagonal_entries(mat)
    return len(mat) - len(diag), [d for d in diag if d > 1]


def in_span(mat, rhs, moduli=None) -> bool:
    """Does rhs lie in the column span of mat, in Z^a + Z/m_1 + ... ?

    moduli[i] is 0 for a row read in Z (every row, without moduli) or a
    prime power m for a row read in Z/m.  Coordinate by coordinate, a Z row
    takes the kernel's pivot; on a Z/m row the pivot P has the least
    g = gcd(entry, m), which divides every entry as m is a prime power
    (ValueError if not).  The multiple of P that makes rhs, or another
    column, vanish mod m there is taken off it, and n*P, n = m/g, replaces
    P: the annihilator step of the Howell form (Storjohann and Mulders, ESA
    1998).  Each entry that step updates is reduced modulo its own row's
    modulus, so it grows no entry of a Z/m row past m; Z rows stay
    unreduced.  Once the rest of rhs is zero it lies in the span.
    """
    rows = _rows(mat)
    if len(rhs) != len(rows):
        raise ValueError("rhs length does not match row count")
    if moduli is None:
        moduli = [0] * len(rows)
    elif len(moduli) != len(rows) or any(m < 0 for m in moduli):
        raise ValueError("moduli must give one integer >= 0 per row")
    X = [list(col) for col in zip(*rows)]
    res = list(map(int, rhs))
    for i, m in enumerate(moduli):
        if not any(res):
            break
        x = res[0]
        if not m:
            a = 0
            if X:
                _clear_leading(X)
                top = X[0]
                a = top[0]
            if not a:
                if x:
                    return False
                X = [col[1:] for col in X]
            else:
                q, r = divmod(x, a)
                if r:
                    return False
                res = [v - q * c for v, c in zip(res, top)]
                X = [col[1:] for col in X[1:]]
        else:
            gs = [math.gcd(col[0], m) for col in X]
            g = min(gs, default=m)
            if any(h % g for h in gs):
                raise ValueError(f"modulus {m} is not a prime power")
            if x % g:
                return False
            if g == m:
                X = [col[1:] for col in X]
            else:
                n = m // g
                top = X.pop(gs.index(g))
                u = pow(top[0] // g, -1, n)
                c = x // g * u % n
                res = [(v - c * t) % r if r else v - c * t
                       for v, t, r in zip(res, top, moduli[i:])]
                X = [[(v - k * t) % r if r else v - k * t
                      for v, t, r in zip(col[1:], top[1:], moduli[i + 1:])]
                     for col in X for k in (col[0] // g * u % n,)]
                top = [n * t % r if r else n * t for t, r in zip(top[1:], moduli[i + 1:])]
                if any(top):
                    X.append(top)
        res = res[1:]
    return True
