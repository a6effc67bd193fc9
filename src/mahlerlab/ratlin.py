"""Exact rational vectors and matrices.

Every coordinate, offset, and volume in this package is exact, and nothing
ever rounds.  Inside the package a point is an integer row ``(V, d)``,
d > 0, standing for V/d, and a scalar is a ``fractions.Fraction`` in lowest
terms.  Fraction vectors exist at the public edge only: a point handed in is
cleared once, and the vectors handed out are built once.  Everything is
immutable and hashable, so geometric objects can be cached and compared
exactly.

Hot loops (volume determinants, the conversion engine, ``gauge`` and
``membership`` on a polytope's facet rows, Wolfe's min-norm point on its
vertex rows) run on plain Python integers, which is several times faster
than Fraction arithmetic and just as exact.  ``int_row`` is the one rule
that clears a Fraction vector to an integer row; every module calls it
rather than scaling by hand.

There is one fraction-free elimination, ``_bareiss``: a forward pass over a
square system.  ``int_det`` reads its last pivot (for ``volume``), and
``int_solve`` runs it on the rows augmented by a list of right-hand-side
columns and back-substitutes each column exactly.  It has two callers:
``dd.extreme_rays`` passes the d columns ``-e_j`` of its initial rays in one
call, and Wolfe's Gram solve in ``polytope`` passes its single column of ones.
``independent_rows`` is one incremental gcd-trimmed row reduction:
``dd.extreme_rays`` takes its basis from it.  ``determinant`` and
``solve_linear`` are thin Fraction faces of ``int_det`` and ``int_solve``,
rows cleared by ``int_row``, and ``int_rank`` is the length of
``independent_rows``; none of the three has a caller in the package, and
they keep their names because the benchmark's tracer binds them.
"""

from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def fr(x) -> Fraction:
    """Coerce an int, string like ``"3/4"`` or ``"0.25"``, or Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass a string or Fraction")
    return Fraction(x)


def vec(xs: Iterable) -> Vec:
    return tuple(fr(x) for x in xs)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum(a * b for a, b in zip(u, v, strict=True))


# ---------------------------------------------------------------------------
# integer kernels


def _bareiss(a: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) forward elimination of the first n columns of a, in place.

    Every later column rides along.  After pivot k each entry below row k is
    a (k+1)-minor, so each division by the previous pivot is exact, and
    ``a[n-1][n-1]`` is the determinant of the square part with its rows
    swapped.  Returns the sign of the swaps, or 0 when a column has no pivot.
    """
    width = len(a[0])
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
        row_k = a[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a):
        raise ValueError("determinant needs a square matrix")
    return _bareiss(a, n) * a[n - 1][n - 1]


def int_solve(rows: Sequence[Sequence[int]], cols: Sequence[Sequence[int]]) -> tuple[list[list[int]], int] | None:
    """Solve ``rows @ x == b`` for each column b as ``(us, det)``, ``x = u / det``; None when singular.

    One Bareiss pass on the rows augmented by every column leaves upper
    triangular systems U u = c, each solved from the bottom by
    ``u_i = (det*c_i - sum_{j>i} U_ij u_j) // U_ii``.  Each division is
    exact: by Cramer's rule ``det * x`` is integral.
    """
    n = len(rows)
    if any(len(r) != n for r in rows) or any(len(b) != n for b in cols):
        raise ValueError("int_solve needs square rows and matching columns")
    if n == 0:
        return [[] for _ in cols], 1
    a = [list(r) + [b[i] for b in cols] for i, r in enumerate(rows)]
    det = _bareiss(a, n) * a[n - 1][n - 1]
    if det == 0:
        return None
    us = [[0] * n for _ in cols]
    for col, u in enumerate(us, n):
        for i in range(n - 1, -1, -1):
            row = a[i]
            u[i] = (det * row[col] - sum(row[j] * u[j] for j in range(i + 1, n))) // row[i]
    return us, det


def independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the rows independent of the rows before them, stopping once they span.

    Each row is reduced against the pivots found so far, primitive after every
    step; it is independent exactly when something is left, and what is left
    becomes the next pivot.
    """
    picked: list[int] = []
    pivots: list[tuple[int, tuple[int, ...]]] = []
    dim = len(rows[0]) if rows else 0
    for i, r in enumerate(rows):
        for c, p in pivots:
            a, b = r[c], p[c]
            if a:
                r = primitive_int_vec(tuple(b * x - a * y for x, y in zip(r, p)))
        lead = next((c for c, x in enumerate(r) if x), None)
        if lead is not None:
            pivots.append((lead, r))
            picked.append(i)
            if len(picked) == dim:
                break
    return picked


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix: the number of ``independent_rows``."""
    return len(independent_rows(rows))


def int_row(v: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Clear v to ``(V, d)`` with integer V, d > 0 the least common denominator and v = V/d."""
    d = lcm(*(x.denominator for x in v))
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

    Each row of [m | b] is cleared by ``int_row`` (scaling a row keeps the
    solution), one ``int_solve`` call gives ``(u, det)``, and x = u / det.
    A non-square m or a b of another length raises ValueError.
    """
    rows = [int_row((*r, bv))[0] for r, bv in zip(m, b, strict=True)]
    solved = int_solve([r[:-1] for r in rows], [[r[-1] for r in rows]])
    if solved is None:
        return None
    (u,), det = solved
    return tuple(Fraction(x, det) for x in u)


def format_ratio(x: int, d: int) -> str:
    """The one exact writer: ``str(Fraction(x, d))`` for d > 0, reduced by one gcd, digits through Decimal."""
    g = gcd(x, d)
    num = str(Decimal(x // g))
    return num if g == d else f"{num}/{Decimal(d // g)}"


def format_exact(x: Fraction) -> str:
    """``str(x)``: ``p/q``, or ``p`` when q == 1, written by ``format_ratio`` (no length limit)."""
    return format_ratio(x.numerator, x.denominator)


def format_approx(x: Fraction) -> str:
    """12-significant-digit decimal, clearly an approximation, never used inward."""
    return f"{float(x):.12g}"


PARSE_MAX_DIGITS = 20_000
"""The most digits ``parse_fraction`` reads in a numerator or a denominator.

Python's ``int(str)`` stops at 4 300 digits, as a guard against its
quadratic time, but ``format_exact`` writes more: the n = 5 symmetric probe
prints 4 971 digits over 4 971.  Decimal has no such limit, so reading
through it needs this bound instead; a read at the bound takes tens of ms.
"""


def _clip(s: str) -> str:
    """``repr(s)`` for an error message, cut to 40 characters and the length past that."""
    return repr(s) if len(s) <= 40 else f"{s[:40]!r}... ({len(s)} characters)"


def parse_fraction(s: str) -> Fraction:
    """Exact rational from a string or int; a float (already rounded) or bool is refused.

    A string is ``p/q`` with integers p and q > 0, or one decimal such as
    ``-7``, ``0.125`` or ``1e-3``, each part read as a Decimal of at most
    ``PARSE_MAX_DIGITS`` digits, its exponent counted in.
    """
    if isinstance(s, (bool, float)):
        raise ValueError(f"not an exact rational: {s!r}")
    if not isinstance(s, str):
        return Fraction(s)
    num, slash, den = s.partition("/")
    try:
        p, q = Decimal(num), Decimal(den if slash else 1)
    except InvalidOperation as e:
        raise ValueError(f"not a rational: {_clip(s)}") from e
    fractional = slash and min(p.as_tuple().exponent, q.as_tuple().exponent) < 0
    if not (p.is_finite() and q.is_finite() and q > 0) or fractional:
        raise ValueError(f"not a rational: {_clip(s)}")
    if any(len(d.as_tuple().digits) + abs(d.as_tuple().exponent) > PARSE_MAX_DIGITS for d in (p, q)):
        raise ValueError(f"a rational with more than {PARSE_MAX_DIGITS} digits is refused")
    return Fraction(p) / Fraction(q)


def parse_int(x) -> int:
    """An integer read from a file; a bool or non-integral number is refused, not truncated."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"not an integer: {x!r}")
    return int(x)
