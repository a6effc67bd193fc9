"""Tests for exact polytope geometry: hulls, duality, sums, metrics."""

from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mahlerlab.errors import (
    ConsistencyError,
    DimensionError,
    FormatError,
    InvalidSumError,
    PolarityDomainError,
    PreconditionError,
    UnboundedError,
)
from mahlerlab.polytope import (
    Polytope,
    canon_facet,
    contains_origin_interior,
    coordinate_section,
    cross_polytope,
    cube,
    diagonal_image,
    from_halfspaces,
    from_json_dict,
    from_vertices,
    gauge,
    hausdorff_distance_sq,
    interval,
    is_unconditional,
    l1_sum,
    linf_sum,
    membership,
    normalize_unconditional,
    permute_coordinates,
    point_distance_sq,
    polar,
    to_json_dict,
    volume,
)
from mahlerlab import polytope
from mahlerlab.ratlin import int_det
from mahlerlab.stability import random_unconditional_polytope
from oracles import brute_volume, distance_sq_by_subsets, subset_facets, subset_vertices, validate

F = Fraction

coords = st.integers(min_value=-3, max_value=3)
rationals = st.builds(F, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=4))


@st.composite
def symmetric_body(draw, dim=2):
    """Unconditional body: sign orbits of a few integer points, plus the cross."""
    pts = draw(st.lists(st.tuples(*[coords] * dim), min_size=1, max_size=3))
    out = []
    for p in pts:
        for signs in iter_product((1, -1), repeat=dim):
            out.append(tuple(F(s * x) for s, x in zip(signs, p)))
    for i in range(dim):
        e = [F(0)] * dim
        e[i] = F(1)
        out.append(tuple(e))
        out.append(tuple(-x for x in e))
    return from_vertices(out)


@st.composite
def general_body(draw, dim=2, coord=coords):
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim + 1, max_size=6))
    try:
        return from_vertices(pts)
    except DimensionError:
        assume(False)


# ---------------------------------------------------------------------------
# construction and canonical form


def test_standard_bodies_counts_and_volumes():
    c = cube(3)
    assert (c.n_vertices, c.n_facets, volume(c)) == (8, 6, F(8))
    x = cross_polytope(3)
    assert (x.n_vertices, x.n_facets, volume(x)) == (6, 8, F(4, 3))
    i = interval()
    assert (i.n_vertices, i.n_facets, volume(i)) == (2, 2, F(2))
    assert volume(cube(1)) == volume(cross_polytope(1)) == 2
    assert cube(1) == cross_polytope(1) == interval()


def test_canon_facet_scaling():
    assert canon_facet((F(2), F(0)), F(4)) == ((F(1, 2), F(0)), F(1))
    assert canon_facet((F(2), F(2)), F(-4)) == ((F(1, 2), F(1, 2)), F(-1))
    assert canon_facet((F(4, 3), F(-2, 3)), F(0)) == ((F(2), F(-1)), F(0))
    with pytest.raises(PreconditionError):
        canon_facet((F(0), F(0)), F(1))


def test_hull_drops_non_extreme_points():
    base = cube(2)
    fat = list(base.vertices) + [(F(0), F(0)), (F(1), F(0)), (F(1, 2), F(1, 2))]
    assert from_vertices(fat) == base
    assert from_vertices(list(reversed(fat))) == base


def test_dd_basis_skips_dependent_rows():
    # in both inputs the third homogenized row depends on the first two
    rows = [((1, 0), 1), ((0, 1), 1), ((1, 1), 2), ((-1, 0), 1), ((0, -1), 1)]
    assert from_halfspaces(rows, 2) == cube(2)
    square = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    assert from_vertices([(1, 0), (-1, 0), (0, 0)] + square) == cube(2)


def test_halfspaces_drop_redundant_rows():
    square = list(cube(2).facets)
    rows = square + [((F(1), F(0)), F(7)), ((F(1), F(1)), F(5))]
    assert from_halfspaces(rows, 2) == cube(2)
    # tight only on a lower-dimensional face, a scaled duplicate, the vacuous row
    assert from_halfspaces(square + [((1, 1), 2)], 2) == cube(2)
    assert from_halfspaces(list(cube(3).facets) + [((1, 1, 1), 3), ((1, 1, 0), 2)], 3) == cube(3)
    assert from_halfspaces(square + [((2, 0), 2)], 2) == cube(2)
    assert from_halfspaces(square + [((0, 0), 0)], 2) == cube(2)


def test_degenerate_inputs_raise():
    with pytest.raises(DimensionError):
        from_vertices([(0, 0), (1, 1), (2, 2)])  # collinear, not full-dim
    with pytest.raises(DimensionError):
        from_vertices([])
    with pytest.raises(DimensionError):
        from_halfspaces([((F(1), F(0)), F(1))], 2)  # rank-deficient rows
    with pytest.raises(UnboundedError):
        from_halfspaces([((F(1), F(0)), F(1)), ((F(0), F(1)), F(1))], 2)  # open corner
    with pytest.raises(DimensionError):
        from_halfspaces(list(cube(2).facets) + [((-1, 0), -1)], 2)  # a segment
    with pytest.raises(DimensionError):
        from_halfspaces(list(cube(3).facets) + [((-1, 0, 0), -1)], 3)  # a square in 3-space
    # rows of the wrong length
    with pytest.raises(DimensionError):
        from_vertices([(0, 0), (1, 0), (0, 1, 7)])
    with pytest.raises(DimensionError):
        from_vertices([(0, 0), (2, 0), (0, 2), (1,)])
    with pytest.raises(DimensionError):
        from_halfspaces(list(cube(2).facets) + [((0,), 1)], 2)
    with pytest.raises(DimensionError):
        from_halfspaces(list(cube(2).facets), 3)


@given(general_body())
@settings(max_examples=50, deadline=None)
def test_enumeration_matches_subset_oracles_dim2(p):
    assert subset_facets(p.vertices, 2) == set(p.facets)
    assert subset_vertices(p.facets, 2) == set(p.vertices)


@given(general_body(dim=3))
@example(cube(3))
@example(cross_polytope(3))
@example(random_unconditional_polytope(3, 5))
@settings(max_examples=30, deadline=None)
def test_enumeration_matches_subset_oracles_dim3(body):
    assert subset_facets(body.vertices, 3) == set(body.facets)
    assert subset_vertices(body.facets, 3) == set(body.vertices)


# ---------------------------------------------------------------------------
# membership, gauge, polarity


@given(symmetric_body(), st.tuples(coords, coords))
@settings(max_examples=80, deadline=None)
def test_membership_agrees_with_gauge(p, x):
    g = gauge(p, x)
    m = membership(p, x)
    if g < 1:
        assert m == "interior"
    elif g == 1:
        assert m == "boundary"
    else:
        assert m == "outside"


@given(symmetric_body(), st.tuples(coords, coords), st.tuples(coords, coords))
@settings(max_examples=60, deadline=None)
def test_gauge_is_a_norm(p, x, y):
    gx, gy = gauge(p, x), gauge(p, y)
    s = tuple(a + b for a, b in zip(x, y))
    assert gauge(p, s) <= gx + gy
    assert gauge(p, tuple(3 * a for a in x)) == 3 * gx
    assert gauge(p, tuple(-a for a in x)) == gx  # symmetric body
    assert (gx == 0) == (x == (0, 0))


@given(symmetric_body())
@settings(max_examples=60, deadline=None)
def test_polar_involution_and_count_swap(p):
    q = polar(p)
    assert polar(q) == p
    assert (q.n_vertices, q.n_facets) == (p.n_facets, p.n_vertices)
    validate(q)


@st.composite
def body_around_origin(draw):
    """A 3-body with the origin interior: a symmetric body or a general hull."""
    if draw(st.booleans()):
        return draw(symmetric_body(dim=3))
    p = draw(general_body(dim=3))
    assume(contains_origin_interior(p))
    return p


@given(body_around_origin())
@settings(max_examples=60, deadline=None)
def test_polar_matches_hull_of_facet_normals(p):
    q = polar(p)
    assert q == from_vertices([a for a, _ in p.facets])
    assert polar(q) == p


@given(symmetric_body(), st.tuples(coords, coords), st.tuples(coords, coords))
@settings(max_examples=60, deadline=None)
def test_polar_pairing_inequality(p, x, y):
    # <x, y> <= gauge_p(x) * gauge_polar(p)(y) for all x, y
    lhs = sum(a * b for a, b in zip(x, y))
    assert lhs <= gauge(p, x) * gauge(polar(p), y)


def test_polarity_needs_origin_interior():
    shifted = from_vertices([(v[0] + 2, v[1]) for v in cube(2).vertices])
    assert not contains_origin_interior(shifted)
    with pytest.raises(PolarityDomainError):
        polar(shifted)
    with pytest.raises(PreconditionError):
        gauge(shifted, (0, 0))


def test_membership_wrong_dimension():
    with pytest.raises(DimensionError):
        membership(cube(2), (1, 2, 3))


# ---------------------------------------------------------------------------
# sums, sections, projections, permutations


def test_sums_build_standard_bodies():
    assert linf_sum(interval(), interval()) == cube(2)
    assert l1_sum(interval(), interval()) == cross_polytope(2)
    assert linf_sum(cube(2), cube(1)) == cube(3)
    assert l1_sum(cross_polytope(2), cross_polytope(1)) == cross_polytope(3)


def test_mixed_sum_frozen_values():
    p = linf_sum(cross_polytope(2), interval())
    assert volume(p) == 4
    assert volume(polar(p)) == F(8, 3)
    assert volume(p) * volume(polar(p)) == F(32, 3)


@given(symmetric_body(dim=1), symmetric_body(dim=2))
@settings(max_examples=40, deadline=None)
def test_sum_duality(a, b):
    assert polar(linf_sum(a, b)) == l1_sum(polar(a), polar(b))
    assert polar(l1_sum(a, b)) == linf_sum(polar(a), polar(b))


def test_sum_needs_origin_interior():
    shifted = from_vertices([(v[0] + 2, v[1]) for v in cube(2).vertices])
    with pytest.raises(InvalidSumError):
        linf_sum(shifted, interval())
    with pytest.raises(InvalidSumError):
        l1_sum(interval(), shifted)


def projection(p, j):
    """Orthogonal projection onto the hyperplane x_j = 0, re-indexed to the other coordinates."""
    return from_vertices([v[:j] + v[j + 1 :] for v in p.vertices])


def test_sections_and_projections_of_standard_bodies():
    for j in range(3):
        assert coordinate_section(cube(3), j) == cube(2)
        assert coordinate_section(cross_polytope(3), j) == cross_polytope(2)
        assert projection(cube(3), j) == cube(2)
        assert projection(cross_polytope(3), j) == cross_polytope(2)
    with pytest.raises(DimensionError):
        coordinate_section(cube(3), 3)
    with pytest.raises(DimensionError):
        coordinate_section(interval(), 0)


@given(symmetric_body(dim=3), st.integers(min_value=0, max_value=2))
@settings(max_examples=30, deadline=None)
def test_section_projection_duality(p, j):
    # slicing the body is dual to shadowing the polar body
    assert polar(coordinate_section(p, j)) == projection(polar(p), j)
    # for an unconditional body the shadow is the section, which section_products relies on
    assert polar(coordinate_section(p, j)) == coordinate_section(polar(p), j)


@given(symmetric_body(dim=3), st.integers(min_value=0, max_value=2), st.tuples(coords, coords))
@settings(max_examples=40, deadline=None)
def test_section_keeps_the_gauge(p, j, x):
    # a coordinate section keeps the gauge of every point inside it, which is
    # how the truncation check reads its sections without building them
    assert gauge(coordinate_section(p, j), x) == gauge(p, x[:j] + (0,) + x[j:])


def test_permute_coordinates_convention():
    stretched = diagonal_image(cube(2), (1, 2))  # |x0| <= 1, |x1| <= 2
    swapped = permute_coordinates(stretched, (1, 0))
    assert gauge(swapped, (2, 0)) == 1
    assert gauge(swapped, (0, 1)) == 1
    assert permute_coordinates(stretched, (0, 1)) == stretched
    with pytest.raises(DimensionError):
        permute_coordinates(stretched, (0, 0))


@given(symmetric_body(dim=3), st.permutations(range(3)), st.permutations(range(3)))
@settings(max_examples=30, deadline=None)
def test_permutation_composition(p, s, t):
    # applying t then s reads input coordinate t[s[i]] into slot i
    lhs = permute_coordinates(permute_coordinates(p, t), s)
    rhs = permute_coordinates(p, [t[s[i]] for i in range(3)])
    assert lhs == rhs


def test_diagonal_image_errors():
    with pytest.raises(PreconditionError):
        diagonal_image(cube(2), (1, 0))
    with pytest.raises(DimensionError):
        diagonal_image(cube(2), (1, 2, 3))


def test_normalize_unconditional_sets_unit_axis_gauges():
    p = diagonal_image(cube(3), (F(1, 2), F(3), F(7, 5)))
    q = normalize_unconditional(p)
    assert q == cube(3)
    assert normalize_unconditional(q) == q
    r = normalize_unconditional(diagonal_image(cross_polytope(2), (2, F(1, 3))))
    assert r == cross_polytope(2)


def test_is_unconditional():
    assert is_unconditional(cube(3))
    assert is_unconditional(cross_polytope(4))
    tilted = from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
    assert not is_unconditional(tilted)


# ---------------------------------------------------------------------------
# volume


@given(general_body(coord=rationals))
@settings(max_examples=40, deadline=None)
def test_volume_matches_brute_force_dim2(p):
    assert volume(p) == brute_volume(p.vertices, 2)


@given(general_body(dim=3, coord=rationals))
@example(random_unconditional_polytope(3, 11))
@settings(max_examples=15, deadline=None)
def test_volume_matches_brute_force_dim3(body):
    assert volume(body) == brute_volume(body.vertices, 3)


@given(symmetric_body(dim=2), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_volume_scales_like_dim_power(p, k):
    assert volume(diagonal_image(p, [k] * p.dim)) == k**2 * volume(p)
    assert volume(permute_coordinates(p, (1, 0))) == volume(p)


def test_volume_sums_one_determinant_per_cell(monkeypatch):
    dets: list[int] = []

    def counting(rows):
        dets.append(int_det(rows))
        return dets[-1]

    monkeypatch.setattr(polytope, "int_det", counting)
    # a simplex is its own triangulation; pulling from a cube vertex gives n!
    # cells, from a cross-polytope vertex one cell per facet that misses it
    bodies = [
        (from_vertices([(0, 0), (1, 0), (0, 1)]), F(1, 2), 1),
        (from_vertices([(F(1, 2), 0), (0, F(1, 3)), (F(-1, 4), F(-1, 5))]), F(7, 40), 1),
        (from_vertices([(0, 0, 0), (F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, F(1, 5))]), F(1, 180), 1),
        (cube(3), 8, 6),
        (cube(4), 16, 24),
        (cross_polytope(3), F(4, 3), 4),
        (cross_polytope(4), F(2, 3), 8),
    ]
    for body, vol, cells in bodies:
        dets.clear()
        assert volume.__wrapped__(body) == vol  # unwrapped: past the cache
        assert len(dets) == cells and all(dets)


# ---------------------------------------------------------------------------
# metrics


@given(
    st.one_of(
        st.tuples(general_body(), st.tuples(coords, coords)),
        st.tuples(general_body(dim=3), st.tuples(coords, coords, coords)),
    )
)
@settings(max_examples=60, deadline=None)
def test_point_distance_matches_subset_oracle(body_and_point):
    p, x = body_and_point
    assert point_distance_sq(p, x) == distance_sq_by_subsets(p, x)


def test_point_distance_frozen_values():
    assert point_distance_sq(cube(3), (2, 2, 2)) == 3
    assert point_distance_sq(cross_polytope(3), (3, 0, 0)) == 4
    assert point_distance_sq(cube(2), (F(1, 2), F(1, 2))) == 0
    # the nearest point (-1, 0, 1) lies on an edge that Wolfe's corral
    # reaches only by dropping a vertex from a triangle
    assert point_distance_sq(cube(3), (-3, 0, 1)) == 4
    # here the triangle's affine minimiser is x itself, with a negative
    # weight; the drop leaves the edge holding the nearest point (0, 0)
    assert point_distance_sq(from_vertices([(-2, -2), (-1, -2), (2, 2)]), (-1, 1)) == 2


def test_hausdorff_frozen_values():
    assert hausdorff_distance_sq(cube(3), cross_polytope(3)) == F(4, 3)
    assert hausdorff_distance_sq(cube(2), diagonal_image(cube(2), [F(1, 2)] * 2)) == F(1, 2)
    assert hausdorff_distance_sq(cube(2), cube(2)) == 0
    with pytest.raises(DimensionError):
        hausdorff_distance_sq(cube(2), cube(3))


@given(symmetric_body(), symmetric_body())
@settings(max_examples=30, deadline=None)
def test_hausdorff_symmetry(p, q):
    assert hausdorff_distance_sq(p, q) == hausdorff_distance_sq(q, p)


# ---------------------------------------------------------------------------
# serialization and validation


@given(symmetric_body())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip(p):
    assert from_json_dict(to_json_dict(p)) == p


def test_json_roundtrip_fixed_bodies():
    for body in (cube(3), cross_polytope(4), linf_sum(cross_polytope(2), interval())):
        assert from_json_dict(to_json_dict(body)) == body


def test_json_rejects_bad_payloads():
    good = to_json_dict(cube(2))
    with pytest.raises(FormatError):
        from_json_dict({"vertices": good["vertices"]})  # missing dim
    with pytest.raises(FormatError):
        from_json_dict({"dim": 2, "vertices": [["1", "1", "1"]]})  # row length
    bad_point = dict(good)
    bad_point["vertices"] = good["vertices"] + [["0", "0"]]  # interior point listed
    with pytest.raises(FormatError):
        from_json_dict(bad_point)
    bad_hs = dict(good)
    bad_hs["halfspaces"] = good["halfspaces"][:-1]  # missing facet
    with pytest.raises(FormatError):
        from_json_dict(bad_hs)
    with pytest.raises(FormatError):
        from_json_dict({"dim": 2, "vertices": [["1", "x"], ["0", "0"], ["0", "1"]]})
    with pytest.raises(FormatError):
        from_json_dict({"dim": 2, "vertices": [["0", "0"], ["1", "1"], ["2", "2"]]})


def test_validate_catches_handmade_corruption():
    c = cube(2)
    with pytest.raises(ConsistencyError):
        validate(Polytope(2, c.vertices, (((F(1), F(0)), F(1)),)))  # lost facets
    doubled = tuple((F(2) * v[0], F(2) * v[1]) for v in c.vertices)
    with pytest.raises(ConsistencyError):
        validate(Polytope(2, doubled, c.facets))  # vertices poke out
    validate(c)
    validate(cross_polytope(3))


def test_polytope_class_invariants():
    with pytest.raises(DimensionError):
        Polytope(0, ((),), ())
    with pytest.raises(ConsistencyError):
        Polytope(2, ((F(0), F(0)),), (((F(1), F(0)), F(1)),))
