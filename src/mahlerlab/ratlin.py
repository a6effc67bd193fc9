"""Exact rational vectors and matrices.

Every coordinate, offset, and volume in this package is a
``fractions.Fraction``: always in lowest terms with a positive denominator,
and nothing ever rounds.  Vectors are tuples of Fractions, matrices tuples of
row tuples; both are immutable and hashable so geometric objects built from
them can be cached and compared exactly.

Hot loops (volume determinants, the conversion engine, ``gauge`` and
``membership`` on a polytope's facet rows, Wolfe's min-norm point on its
vertex rows) clear denominators once and run on plain Python integers through
``int_det``, ``int_solve`` and ``primitive_int_vec``, which is several times
faster than Fraction arithmetic and just as exact.  ``int_row`` is the one
rule that clears a Fraction vector to an integer row; every module calls it
rather than scaling by hand.  ``solve_linear``, ``int_rank`` and
``determinant`` have no package caller any more; they stay because the
benchmark's tracer still binds them by name, and ``solve_linear`` also serves
the reference implementations in ``tests/oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def fr(x) -> Fraction:
    """Coerce an int, string like ``"3/4"`` or ``"0.25"``, or Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass a string or Fraction")
    return Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(fr(x) for x in xs)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum(a * b for a, b in zip(u, v, strict=True))


# ---------------------------------------------------------------------------
# integer kernels


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def int_solve(rows: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[list[int], int] | None:
    """Solve an integer system as ``(u, det)`` with ``rows @ u == det * b``; None when singular.

    Fraction-free (Bareiss) Gauss-Jordan elimination on the augmented rows:
    after pivot k every entry is a (k+1)-minor, so each division by the
    previous pivot is exact, and the last pivot is the determinant up to the
    sign of the row swaps.  The solution is ``u / det``.
    """
    n = len(rows)
    if any(len(r) != n for r in rows) or len(b) != n:
        raise ValueError("int_solve needs square rows and matching b")
    a = [list(r) + [bi] for r, bi in zip(rows, b)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return None
        row_k = a[k]
        pivot = row_k[k]
        for i in range(n):
            if i == k:
                continue
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n + 1):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return [sign * r[n] for r in a], sign * prev


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix (exact row echelon with gcd trimming)."""
    m = [list(r) for r in rows if any(r)]
    if not m:
        return 0
    cols = len(m[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                row = [m[i][j] * pv - f * prow[j] for j in range(cols)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                    if g == 1:
                        break
                m[i] = [x // g for x in row] if g > 1 else row
        r += 1
        if r == len(m):
            break
    return r


def common_denominator(xs: Iterable[Fraction]) -> int:
    d = 1
    for x in xs:
        d = d * x.denominator // gcd(d, x.denominator)
    return d


def int_row(v: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Clear v to ``(V, d)`` with integer V, d > 0 the least common denominator and v = V/d."""
    d = common_denominator(v)
    return tuple(x.numerator * (d // x.denominator) for x in v), d


def primitive_int_vec(v: Sequence[int]) -> tuple[int, ...]:
    """Divide out the gcd (sign preserved; the zero vector is unchanged)."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


# ---------------------------------------------------------------------------
# rational interface


def determinant(m: Mat) -> Fraction:
    """Exact determinant; fraction-free elimination after clearing denominators."""
    rows = [int_row(r) for r in m]
    return Fraction(int_det([r for r, _ in rows]), prod(d for _, d in rows))


def solve_linear(m: Mat, b: Vec) -> Vec | None:
    """Solve m x = b exactly; return None when m is singular.

    Gaussian elimination with the first nonzero pivot.  Exact arithmetic makes
    pivot-size strategies unnecessary: any nonzero pivot is a correct one.
    """
    n = len(m)
    if n == 0:
        return ()
    if any(len(r) != n for r in m) or len(b) != n:
        raise ValueError("solve_linear needs square m and matching b")
    a = [list(row) + [bv] for row, bv in zip(m, b, strict=True)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col], strict=True)]
    return tuple(a[i][n] for i in range(n))


def format_exact(x: Fraction) -> str:
    """Canonical exact string: ``p/q`` or ``p`` when q == 1."""
    return str(x)


def format_approx(x: Fraction) -> str:
    """12-significant-digit decimal, clearly an approximation, never used inward."""
    return f"{float(x):.12g}"


def parse_fraction(s: str) -> Fraction:
    """Exact rational from a string or int; a float (already rounded) or bool is refused."""
    if isinstance(s, (bool, float)):
        raise ValueError(f"not an exact rational: {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"not a rational: {s!r}") from e


def parse_int(x) -> int:
    """An integer read from a file; a bool or non-integral number is refused, not truncated."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"not an integer: {x!r}")
    return int(x)
