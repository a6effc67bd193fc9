"""Property tests for the exact linear algebra layer."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mahlerlab.ratlin import (
    PARSE_MAX_DIGITS,
    determinant,
    dot,
    format_approx,
    format_exact,
    fr,
    independent_rows,
    int_det,
    int_rank,
    int_row,
    int_solve,
    parse_fraction,
    primitive_int_vec,
    solve_linear,
    vec,
)
from mahlerlab import ratlin
from oracles import affine_rank, cofactor_det, rank, solve_by_gauss_jordan

ints = st.integers(min_value=-30, max_value=30)
fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def int_matrix(n):
    return st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)


def frac_matrix(n):
    return st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n)


@given(st.integers(min_value=1, max_value=4).flatmap(int_matrix))
@settings(max_examples=120)
def test_int_det_matches_cofactor_expansion(rows):
    assert int_det(rows) == cofactor_det(rows)


@given(st.integers(min_value=1, max_value=3).flatmap(frac_matrix))
@settings(max_examples=100)
def test_determinant_matches_cofactor_expansion(rows):
    assert determinant(tuple(vec(r) for r in rows)) == cofactor_det(rows)


@given(int_matrix(3), int_matrix(3))
@settings(max_examples=60)
def test_det_is_multiplicative(a, b):
    ma, mb = tuple(vec(r) for r in a), tuple(vec(r) for r in b)
    prod = tuple(tuple(dot(row, col) for col in zip(*mb)) for row in ma)
    assert determinant(prod) == determinant(ma) * determinant(mb)


@given(st.integers(min_value=1, max_value=4).flatmap(int_matrix))
@settings(max_examples=80)
def test_rank_full_iff_det_nonzero(rows):
    n = len(rows)
    full = int_det(rows) != 0
    assert (int_rank(rows) == n) == full
    assert (rank([vec(r) for r in rows]) == n) == full


@given(st.lists(ints, min_size=1, max_size=5), ints, ints)
@settings(max_examples=80)
def test_rank_ignores_row_scaling_and_duplication(row, s1, s2):
    base = [tuple(row)]
    stretched = [tuple(row), tuple(s1 * x for x in row), tuple(s2 * x for x in row)]
    assert int_rank(stretched) == int_rank(base)


@st.composite
def int_rows(draw):
    """A 1..7 by 1..5 integer matrix, wide, tall or square, often rank deficient.

    Rows are drawn from a few random rows, the zero row, repeats and sums of
    earlier rows, so dependent rows turn up anywhere in the order.
    """
    width = draw(st.integers(min_value=1, max_value=5))
    row = st.lists(ints, min_size=width, max_size=width)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "sum"]) if rows else st.just("random"))
        if kind == "random":
            rows.append(draw(row))
        elif kind == "zero":
            rows.append([0] * width)
        elif kind == "repeat":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(ints)
            rows.append([x + k * y for x, y in zip(a, b)])
    return [tuple(r) for r in rows]


@given(int_rows())
@settings(max_examples=200)
def test_independent_rows_picks_each_row_that_raises_the_rank(rows):
    want = [i for i in range(len(rows)) if rank(rows[: i + 1]) > rank(rows[:i])]
    assert independent_rows(rows) == want
    assert int_rank(rows) == rank(rows)


def test_int_rank_on_wide_and_tall_matrices():
    assert int_rank([(1, 2, 3, 4), (2, 4, 6, 8)]) == 1
    assert int_rank([(1, 2, 3, 4), (0, 0, 0, 1)]) == 2
    assert int_rank([(1, 0), (0, 0), (2, 0), (3, 1), (5, 5)]) == 2
    assert int_rank([(0, 0, 0), (0, 0, 0)]) == 0
    assert independent_rows([(0, 0), (1, 1), (2, 2), (0, 3), (1, 0)]) == [1, 3]


def test_empty_systems():
    assert int_det([]) == 1
    assert int_solve([], []) == ([], 1)  # no rows, no columns
    assert int_solve([], [[]]) == ([[]], 1)  # no rows, one empty column
    assert independent_rows([]) == [] and int_rank([]) == 0


@given(st.lists(ints, min_size=1, max_size=6).filter(lambda v: any(v)))
@settings(max_examples=100)
def test_primitive_int_vec_properties(v):
    p = primitive_int_vec(tuple(v))
    import math

    g = math.gcd(*[abs(x) for x in p])
    assert g == 1
    # sign preserved: same ray, not just the same line
    first_p = next(x for x in p if x != 0)
    first_v = next(x for x in v if x != 0)
    assert (first_p > 0) == (first_v > 0)
    assert int_rank((tuple(v), p)) == 1


@given(st.lists(ints, min_size=1, max_size=6).filter(lambda v: any(v)), st.integers(min_value=1, max_value=9))
@settings(max_examples=60)
def test_primitive_int_vec_scale_invariant(v, s):
    base = primitive_int_vec(tuple(v))
    assert primitive_int_vec(tuple(s * x for x in v)) == base
    assert primitive_int_vec(tuple(-s * x for x in v)) == tuple(-x for x in base)


@given(int_matrix(3), st.lists(ints, min_size=3, max_size=3))
@settings(max_examples=80)
def test_solve_linear_solves_or_reports_singular(rows, b):
    m = tuple(vec(r) for r in rows)
    bb = vec(b)
    x = solve_linear(m, bb)
    if int_det(rows) != 0:
        assert x is not None
        for row, rhs in zip(m, bb):
            assert dot(row, x) == rhs
    else:
        assert x is None


@st.composite
def int_system(draw):
    """A square integer system of size 1..5 with 0..4 right-hand-side columns; half of them singular."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(int_matrix(n))
    if draw(st.booleans()):  # the last row a combination of the others (the zero row when n = 1)
        coefs = draw(st.lists(ints, min_size=n - 1, max_size=n - 1))
        rows[-1] = [sum(c * r[j] for c, r in zip(coefs, rows)) for j in range(n)]
    cols = draw(st.lists(st.lists(ints, min_size=n, max_size=n), max_size=4))
    return rows, cols


@given(int_system())
@settings(max_examples=150)
def test_int_solve_matches_solve_linear(system):
    rows, cols = system
    got = int_solve(rows, cols)
    m = tuple(vec(r) for r in rows)
    if int_det(rows) == 0:
        assert got is None
        assert all(solve_linear(m, vec(b)) is None and solve_by_gauss_jordan(m, b) is None for b in cols)
        return
    us, det = got
    assert det == int_det(rows) and len(us) == len(cols)
    for u, b in zip(us, cols):  # each column as if solved alone, and as Gauss-Jordan solves it
        x = tuple(Fraction(x, det) for x in u)
        assert x == solve_linear(m, vec(b)) == solve_by_gauss_jordan(m, b)


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(fracs, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(fracs, min_size=n, max_size=n),
)))
@settings(max_examples=100)
def test_solve_linear_on_fractions_matches_gauss_jordan(system):
    rows, b = system
    m = tuple(vec(r) for r in rows)
    assert solve_linear(m, vec(b)) == solve_by_gauss_jordan(m, b)


def test_solve_linear_is_one_int_solve_call(monkeypatch):
    calls = []
    real = ratlin.int_solve

    def counting(rows, cols):
        calls.append((len(rows), len(cols)))
        return real(rows, cols)

    monkeypatch.setattr(ratlin, "int_solve", counting)
    m = tuple(vec(r) for r in (("1/2", 3, 0), (0, "-2/3", 1), (5, 0, "7/4")))
    b = vec((1, "1/3", -2))
    x = solve_linear(m, b)
    assert calls == [(3, 1)]
    assert all(dot(r, x) == bi for r, bi in zip(m, b))
    assert solve_linear(tuple(vec(r) for r in ((1, 2), (2, 4))), vec((1, 1))) is None
    assert calls == [(3, 1), (2, 1)]


@given(st.lists(st.lists(fracs, min_size=3, max_size=3), min_size=1, max_size=5))
@settings(max_examples=60)
def test_affine_rank_translation_invariant(pts):
    shift = vec([Fraction(7, 3), Fraction(-2), Fraction(1, 5)])
    moved = [vec(p[i] + shift[i] for i in range(3)) for p in pts]
    assert affine_rank(tuple(vec(p) for p in pts)) == affine_rank(tuple(moved))
    # one common denominator turns the difference rows into integer rows of the same rank
    d = int_row([x for p in pts for x in p])[1]
    diffs = [tuple(int((x - y) * d) for x, y in zip(p, pts[0])) for p in pts[1:]]
    assert int_rank(diffs) == affine_rank(tuple(vec(p) for p in pts))


def test_affine_rank_examples():
    # affine dimension: 0 for a point, 1 for collinear, 2 for a triangle
    assert affine_rank((vec([0, 0]),)) == 0
    assert affine_rank((vec([0, 0]), vec([1, 1]), vec([2, 2]))) == 1
    assert affine_rank((vec([0, 0]), vec([1, 0]), vec([0, 1]))) == 2
    assert int_rank([(1, 1), (2, 2)]) == 1
    assert int_rank([(1, 0), (0, 1)]) == 2
    assert int_rank([]) == 0


@given(fracs)
def test_format_parse_roundtrip(x):
    assert parse_fraction(format_exact(x)) == x
    assert format_exact(x) == str(x)


def test_format_exact_past_the_int_digit_limit():
    x = -Fraction(7**5916 + 1, 3**10479)  # 5 000 digits over 5 000, in lowest terms
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(x)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) == 10_002 and format_exact(x) == want
    assert format_exact(Fraction(-(10**5000))) == "-1" + "0" * 5000


def test_parse_fraction_forms():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-7") == -7
    assert parse_fraction("0.125") == Fraction(1, 8)
    assert parse_fraction("1e-3") == Fraction(1, 1000)
    for bad in ("three", "inf", "nan", "1/0", "3/-4", "1.5/2", "3/", "3/4/5", True, 0.5):
        with pytest.raises(ValueError):
            parse_fraction(bad)


def test_parse_fraction_past_the_int_digit_limit():
    x = -Fraction(7**5916 + 1, 3**10479)  # 5 000 digits over 5 000, past int(str)'s 4 300
    assert parse_fraction(format_exact(x)) == x
    at_bound = Fraction(10**PARSE_MAX_DIGITS - 1, 7)
    assert parse_fraction(format_exact(at_bound)) == at_bound
    over_bound = ("9" * (PARSE_MAX_DIGITS + 1), "1/" + "3" * (PARSE_MAX_DIGITS + 1), f"1e{PARSE_MAX_DIGITS}", "1e-99999999")
    for over in over_bound:
        with pytest.raises(ValueError, match="digits"):
            parse_fraction(over)


def test_format_approx_digits():
    s = format_approx(Fraction(1, 3))
    assert s.startswith("0.3333333333")
    assert format_approx(Fraction(2)) == "2"


@given(st.lists(fracs, min_size=1, max_size=5))
def test_common_denominator_and_scaling(xs):
    d = int_row(xs)[1]
    assert d >= 1
    iv = tuple(int(x * d) for x in xs)
    assert all(isinstance(x, int) for x in iv)
    assert all(Fraction(num, d) == orig for num, orig in zip(iv, xs))
    assert int_row(xs) == (iv, d)


def test_fr_accepts_common_inputs():
    assert fr(3) == 3
    assert fr(Fraction(1, 2)) == Fraction(1, 2)
    assert fr("5/8") == Fraction(5, 8)
