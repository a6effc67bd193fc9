"""Exact rational vectors and matrices.

Every coordinate, offset, and volume in this package is a
``fractions.Fraction``: always in lowest terms with a positive denominator,
and nothing ever rounds.  Vectors are tuples of Fractions, matrices tuples of
row tuples; both are immutable and hashable so geometric objects built from
them can be cached and compared exactly.

Hot loops (volume determinants, the conversion engine, ``gauge`` and
``membership`` on a polytope's facet rows) clear denominators
once and run on plain Python integers through ``int_det`` and
``primitive_int_vec``, which is several times faster than Fraction arithmetic
and just as exact.  One Fraction entry point serves the package:
``solve_linear``, the small Gram systems of Wolfe's min-norm point.
``int_rank`` and ``determinant`` have no package caller any more; they stay
only because the benchmark's tracer still binds them by name.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
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


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v, strict=True))


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


def primitive_int_vec(v: Sequence[int]) -> tuple[int, ...]:
    """Divide out the gcd (sign preserved; the zero vector is unchanged)."""
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            return tuple(v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


# ---------------------------------------------------------------------------
# rational interface


def determinant(m: Mat) -> Fraction:
    """Exact determinant; fraction-free elimination after clearing denominators."""
    n = len(m)
    if n == 0:
        return ONE
    scales = []
    int_rows = []
    for r in m:
        d = common_denominator(r)
        scales.append(d)
        int_rows.append([int(x * d) for x in r])
    det = int_det(int_rows)
    out = Fraction(det)
    for d in scales:
        out /= d
    return out


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
