"""Tests for exact polytope geometry: hulls, duality, sums, metrics."""

import dataclasses
import functools
import json
import math
import random
from fractions import Fraction
from itertools import compress, product as iter_product
from pathlib import Path

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
    point_distance_sq,
    polar,
    to_json_dict,
    volume,
)
from mahlerlab import dd, polytope, ratlin, stability, volprod
from mahlerlab.graphs import enumerate_p4_free_labeled, enumerate_standard_hanner, polytope_from_graph
from mahlerlab.stability import (
    ExperimentConfig,
    perturb_unconditional,
    random_unconditional_polytope,
    stability_experiment,
    symmetric_probe,
)
from oracles import (
    brute_volume,
    canon_facet,
    canon_facet_by_offset_sign,
    coordinate_section_by_dd,
    distance_sq_by_fractions,
    distance_sq_by_subsets,
    gauge_by_fractions,
    hausdorff_by_full_scan,
    incidence_by_fractions,
    incidence_scan,
    is_centrally_symmetric_by_fractions,
    is_unconditional_by_fractions,
    make_by_fractions,
    membership_by_fractions,
    normalize_by_gauges,
    orbit_reps_by_fractions,
    permute_coordinates,
    pull_triangulation_unfiltered,
    sign_orbit,
    subset_facets,
    subset_vertices,
    to_json_dict_by_views,
    validate,
    volume_by_pulling,
)

F = Fraction

coords = st.integers(min_value=-3, max_value=3)
rationals = st.builds(F, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=4))


@st.composite
def symmetric_body(draw, dim=2, coord=coords):
    """Unconditional body: sign orbits of a few points, plus the cross."""
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=3))
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
def central_body(draw, dim=2, coord=coords):
    """Centrally symmetric body that is not unconditional: hull of +-x for a few points."""
    pts = draw(st.lists(st.tuples(*[coord] * dim), min_size=dim, max_size=dim + 1))
    try:
        p = from_vertices(pts + [tuple(-x for x in v) for v in pts])
    except DimensionError:
        assume(False)
    assume(not is_unconditional(p))
    return p


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
    for n in range(1, 6):  # the polar of the cube is the hull of the signed unit vectors
        axes = [tuple(F(s * (i == k)) for k in range(n)) for i in range(n) for s in (1, -1)]
        assert cross_polytope(n) == from_vertices(axes)


def test_canon_facet_scaling():
    assert canon_facet((F(2), F(0)), F(4)) == ((F(1, 2), F(0)), F(1))
    assert canon_facet((F(2), F(2)), F(-4)) == ((F(1, 2), F(1, 2)), F(-1))
    assert canon_facet((F(4, 3), F(-2, 3)), F(0)) == ((F(2), F(-1)), F(0))
    with pytest.raises(PreconditionError):
        canon_facet((F(0), F(0)), F(1))


facet_coords = st.one_of(st.integers(min_value=-20, max_value=20), rationals)


@given(
    st.lists(facet_coords, min_size=1, max_size=5),
    st.integers(min_value=1, max_value=6),
    st.one_of(st.just(0), st.integers(min_value=-9, max_value=9), rationals),
)
@example([0, 0], 1, 1)  # the zero normal is refused
@example([F(4, 3), F(-2, 3)], 3, 0)  # a non-primitive normal through the origin
@example([2, 4], 5, -10)  # integers, as DD's hull rows arrive
@settings(max_examples=300)
def test_canon_facet_matches_the_offset_sign_rule(normal, k, offset):
    normal = [k * x for x in normal]  # k > 1 makes an integer normal non-primitive
    try:
        want = canon_facet_by_offset_sign(normal, offset)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            canon_facet(normal, offset)
        return
    got = canon_facet(normal, offset)
    assert got == want
    assert all(type(x) is F for x in got[0]) and type(got[1]) is F


def _offset_sign_bodies():
    """Bodies whose facet offsets take every sign: 0 and +-1 through shifted hulls."""
    simplex = from_vertices([(0, 0), (1, 0), (0, 1)])  # two facets through the origin
    shifted = from_vertices([(x + 2, y) for x, y in cube(2).vertices])  # -x <= -1
    half = [(F(1, 3), F(2, 5), 1), (2, 0, F(1, 7)), (0, 3, 0)]
    central = from_vertices(half + [tuple(-x for x in v) for v in half])  # rational, not unconditional
    return [cube(3), cross_polytope(3), simplex, shifted, central, random_unconditional_polytope(3, 1)]


def test_facet_rows_are_primitive_and_read_back_to_the_facets():
    for p in _offset_sign_bodies():
        assert len(p.facet_rows) == len(p.facets)
        for (row, b), facet in zip(p.facet_rows, p.facets):
            assert math.gcd(*row, b) == 1
            assert canon_facet(row, b) == facet
    offsets = {b for p in _offset_sign_bodies() for _, b in p.facets}
    assert offsets == {F(-1), F(0), F(1)}


def test_facet_rows_are_the_hull_rays():
    for p in _offset_sign_bodies():
        rays, flags, sets = dd.hull_facets(p.vertex_rows)
        assert all(flags)
        assert set(p.facet_rows) == set(rays)
        assert all(type(x) is int for row, b in rays for x in (*row, b))
        scan = dict(zip(p.facet_rows, incidence_scan(p)))  # facet row -> the vertices on it
        assert sets == dd.transpose([scan[r] for r in rays], p.n_vertices)


def test_orthant_hull_facets_are_the_hull_rays_with_no_negative_entry():
    for p in [cube(3), cross_polytope(3), random_unconditional_polytope(3, 1), polar(random_unconditional_polytope(4, 2))]:
        reps = [(v, t) for v, t in p.vertex_rows if min(v) >= 0]
        rays, flags, tight = dd.orthant_hull_facets(reps + [(tuple(x * 2 for x in reps[0][0]), reps[0][1] * 3)])
        assert flags == [True] * len(reps) + [False]  # an inner point of the orthant is no vertex
        assert sorted(rays) == sorted((a, b) for a, b in p.facet_rows if min(a) >= 0)
        scan = dict(zip(p.facet_rows, incidence_scan(p)))  # facet row -> the vertices on it
        at = {r: i for i, r in enumerate(p.vertex_rows)}
        assert tight == [sum(1 << k for k, v in enumerate(reps) if scan[r] >> at[v] & 1) for r in rays]


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


def _count_dd_solves(build) -> tuple[list[int], list[int]]:
    """The column count of each ``dd.int_solve`` call and the width of each DD run made by ``build()``."""
    solves, runs = [], []
    real_solve, real_rays = dd.int_solve, dd.extreme_rays
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dd, "int_solve", lambda rows, cols: solves.append(len(cols)) or real_solve(rows, cols))
        mp.setattr(dd, "extreme_rays", lambda rows, start=None: runs.append(len(rows[0])) or real_rays(rows, start))
        build()
    return solves, runs


def test_dd_solves_its_initial_rays_in_one_elimination_on_the_cube():
    # the d initial rays are the d columns of one int_solve call, not d calls
    c = cube(4)  # itself an orthant run, built before counting
    for build in (lambda: from_vertices(c.vertices), lambda: from_halfspaces(c.facets, 4)):
        solves, runs = _count_dd_solves(build)
        assert solves == runs == [5]
    # an orthant run starts from its closed-form cone, with no elimination at all; the cube's cone is
    # that start itself, and the truncated cube runs once, for the cap of the cross polytope's one facet orbit
    for build, widths in (
        (lambda: cube(4), [5]),
        (lambda: random_unconditional_polytope(4, 0), [5]),
        (lambda: volprod.truncated_cube(4, F(7, 8)), [5]),
    ):
        solves, runs = _count_dd_solves(build)
        assert solves == [] and runs == widths


@given(st.lists(st.tuples(rationals, rationals, rationals), min_size=4, max_size=9))
@settings(max_examples=40, deadline=None)
def test_dd_solves_its_initial_rays_in_one_elimination(pts):
    def build():
        try:
            from_vertices(pts)
        except DimensionError:
            pass  # refused after the one run, or by the basis before any solve

    solves, runs = _count_dd_solves(build)
    assert solves == runs[: len(solves)] and len(runs) == 1 and len(solves) <= 1


@given(st.sets(st.integers(min_value=0, max_value=2**6 - 1), max_size=12))
@settings(max_examples=100, deadline=None)
def test_maximal_sets_match_the_definition(sets):
    def members(mask):
        return {i for i in range(6) if mask >> i & 1}

    assert dd.maximal_sets(sets) == {s for s in sets if not any(members(s) < members(o) for o in sets)}


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


HANNER_BALLS = [h for n in (2, 3, 4) for _, h in enumerate_standard_hanner(n)]
# facets with offset 0 (through the origin) and -1 (the origin strictly outside)
OFFSET_BODIES = [
    from_vertices([(0, 0), (1, 0), (0, 1)]),
    from_vertices([(1, 1), (3, 1), (1, F(5, 2))]),
    from_vertices([(0, 0, 0), (F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, 2)]),
]
# mixed denominators, so the point and the facet rows clear differently
mixed = st.builds(F, st.integers(min_value=-30, max_value=30), st.sampled_from([1, 2, 3, 5, 7, 12]))
ROW_BODIES = {
    "general": st.one_of(
        st.sampled_from(OFFSET_BODIES),
        general_body(coord=rationals),
        general_body(dim=3, coord=rationals),
    ),
    "hanner": st.sampled_from(HANNER_BALLS),
    "perturbed": st.builds(
        perturb_unconditional,
        st.sampled_from(HANNER_BALLS),
        st.sampled_from([F(1, 10), F(1, 3)]),
        st.integers(min_value=0, max_value=10**6),
    ),
}


def test_offset_bodies_have_offsets_zero_and_minus_one():
    assert {b for body in OFFSET_BODIES for _, b in body.facets} == {-1, 0, 1}


@pytest.mark.parametrize("kind", sorted(ROW_BODIES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_integer_rows_match_fraction_formulas(kind, data):
    p = data.draw(ROW_BODIES[kind])
    origin = (F(0),) * p.dim
    points = data.draw(st.lists(st.tuples(*[mixed] * p.dim), max_size=6))
    for x in points + list(p.vertices) + [origin]:
        assert membership(p, x) == membership_by_fractions(p, x)
        if contains_origin_interior(p):
            assert gauge(p, x) == gauge_by_fractions(p, x)
    assert all(membership(p, v) == "boundary" for v in p.vertices)
    if contains_origin_interior(p):
        assert all(gauge(p, v) == 1 for v in p.vertices)
        assert gauge(p, origin) == 0 and membership(p, origin) == "interior"


@st.composite
def folded_body(draw):
    """A body whose gauge and membership fold onto facet representatives: class 2, its polar or section, or class 1."""
    kind = draw(st.sampled_from(["body", "polar", "section", "central"]))
    if kind == "central":
        return draw(central_body(dim=3, coord=rationals))  # _hull, class 1 by the scan
    p = draw(
        st.one_of(
            symmetric_body(dim=3, coord=rationals),  # _hull, class 2 by the scan
            st.builds(random_unconditional_polytope, st.integers(2, 4), st.integers(0, 10**6)),
            st.sampled_from(HANNER_BALLS),
        )
    )
    if kind == "polar":
        return polar(p)
    if kind == "section":
        return coordinate_section(p, draw(st.integers(min_value=0, max_value=p.dim - 1)))
    return p


@given(folded_body(), st.data())
@settings(max_examples=60, deadline=None)
def test_gauge_and_membership_on_facet_representatives_match_fraction_formulas(p, data):
    assert p._symmetry in (1, 2) and len(p._facet_reps) < p.n_facets
    points = data.draw(st.lists(st.tuples(*[mixed] * p.dim), max_size=6))  # mixed signs
    for v in data.draw(st.lists(st.sampled_from(p.vertices), max_size=4)):
        points += [tuple(c * x for x in v) for c in data.draw(st.lists(rationals, min_size=1, max_size=3))]
    for x in points + list(p.vertices):
        assert gauge(p, x) == gauge_by_fractions(p, x)
        assert membership(p, x) == membership_by_fractions(p, x)


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


unconditional_body = st.one_of(
    symmetric_body(dim=3),
    symmetric_body(dim=4),
    st.sampled_from([g for n in (2, 3, 4) for g in enumerate_p4_free_labeled(n)]).map(polytope_from_graph),
    st.builds(random_unconditional_polytope, st.integers(min_value=3, max_value=4), st.integers(0, 10**6)),
)


@given(unconditional_body, st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_sections_read_off_the_incidence_match_dd_sections(p, dual, data):
    # the section is the projection: its vertices and facets are K's with
    # coordinate j dropped, picked by the face rule on K's own incidence
    if dual:
        p = polar(p)
    j = data.draw(st.integers(min_value=0, max_value=p.dim - 1))
    s = coordinate_section(p, j)
    assert s == coordinate_section_by_dd(p, j)
    handed = s._facet_masks  # the section's vertex sets, handed on at birth
    assert handed == incidence_scan(s)
    assert handed == incidence_by_fractions(s)
    volume(s)
    assert s._facet_masks is handed


@given(central_body(dim=3), st.integers(min_value=0, max_value=2))
@settings(max_examples=20, deadline=None)
def test_sections_refuse_bodies_that_are_not_unconditional(p, j):
    with pytest.raises(PreconditionError, match="unconditional"):
        coordinate_section(p, j)


@given(st.sampled_from([general_body, central_body, symmetric_body]).flatmap(lambda body: body(dim=3)))
@example(from_vertices([(3, 0, 0), (0, 2, 0), (0, 0, 1), (-1, -1, -1)]))  # no reflection fixes it
@example(from_vertices([(2, 1, 0), (-2, -1, 0), (0, 1, 1), (0, -1, -1), (1, 0, 2), (-1, 0, -2)]))  # only -1 does
@example(from_vertices(cube(3).vertices))
@settings(max_examples=40, deadline=None)
def test_polar_hands_on_the_incidence_that_volume_built(p):
    assume(contains_origin_interior(p))
    volume.cache_clear()
    volume(p)
    q = polar(p)
    assert q._vertex_masks is p._facet_masks  # swapped, not transposed
    assert q._facet_masks == incidence_scan(q)
    assert q._facet_masks == incidence_by_fractions(q)
    assert polar(polar(p))._facet_masks is p._facet_masks
    assert polar(q)._vertex_masks is q._facet_masks
    assert polar(q)._facet_masks is p._facet_masks


def test_polar_makes_no_transpose(monkeypatch):
    p = random_unconditional_polytope(3, 5)
    volume.cache_clear()
    volume(p)
    coordinate_section(p, 0)  # reads _vertex_masks, so p now holds both
    fresh = random_unconditional_polytope(3, 6)  # holds only its incidence
    assert "_vertex_masks" not in vars(fresh)
    calls = []
    real = dd.transpose
    monkeypatch.setattr(dd, "transpose", lambda masks, n: calls.append(n) or real(masks, n))
    q = polar(p)
    r = polar(q)
    assert (q._facet_masks, q._vertex_masks) == (p._vertex_masks, p._facet_masks)
    assert (r._facet_masks, r._vertex_masks) == (p._facet_masks, p._vertex_masks)
    assert calls == []
    # a body holding only its incidence pays one transpose, kept on it, and its second polar none
    q = polar(fresh)
    assert calls == [fresh.n_vertices] and q._facet_masks is vars(fresh)["_vertex_masks"]
    r = polar(q)
    assert calls == [fresh.n_vertices] and r._facet_masks is fresh._facet_masks and r == fresh


# ---------------------------------------------------------------------------
# incidence and symmetry class at birth


def check_facts(p):
    """p's rows are sorted, and its incidence, class and the transpose it holds or builds are the oracle's.

    The orbit representatives, which every body filters on first read, are compared with the oracle too, and
    ``contains_origin_interior``, which trusts a class of 1 or 2, with the scan of the facet offsets.
    """
    assert (p.vertex_rows, p.facet_rows) == (polytope._sorted_rows(p.vertex_rows), polytope._sorted_rows(p.facet_rows))
    vertex_reps, facet_reps = orbit_reps_by_fractions(p)
    assert p._vertex_reps == tuple(r for r, v in zip(p.vertex_rows, p.vertices) if v in vertex_reps)
    assert p._facet_reps == tuple(r for r, f in zip(p.facet_rows, p.facets) if f in facet_reps)
    incidence = incidence_by_fractions(p)
    assert p._facet_masks == incidence
    assert p._vertex_masks == tuple(dd.transpose(incidence, p.n_vertices))
    assert p._symmetry == (2 if is_unconditional_by_fractions(p) else int(is_centrally_symmetric_by_fractions(p)))
    assert contains_origin_interior(p) == all(b > 0 for _, b in p.facet_rows)


@st.composite
def orthant_reps(draw, dim=3):
    """The e_i, a few closed-orthant rows, and the midpoint of two rows, which is no vertex."""
    rows = [(tuple(int(k == i) for k in range(dim)), 1) for i in range(dim)]
    for v in draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim), max_size=3)):
        rows.append(polytope._primitive_row(v, draw(st.integers(1, 3))))
    (v, t), (w, u) = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
    return rows + [polytope._primitive_row([x * u + y * t for x, y in zip(v, w)], 2 * t * u)]


positive_rationals = st.builds(F, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4))


@st.composite
def halfspace_system(draw, dim):
    """A box around a random centre, so offsets of every sign, cut by up to three random halfspaces."""
    centre = draw(st.tuples(*[rationals] * dim))
    rows = []
    for i in range(dim):
        e = tuple(F(int(k == i)) for k in range(dim))
        width = draw(st.integers(min_value=1, max_value=3))
        rows += [(e, centre[i] + width), (tuple(-x for x in e), width - centre[i])]
    return rows + draw(st.lists(st.tuples(st.tuples(*[coords] * dim), rationals), max_size=3))


@st.composite
def halfspace_body(draw, dim):
    """``from_halfspaces`` of a ``halfspace_system`` given with a repeated and a scaled copy of its first row."""
    rows = draw(halfspace_system(dim))
    a, b = rows[0]
    try:
        return from_halfspaces(rows + [(a, b), (tuple(2 * x for x in a), 2 * b)], dim)
    except (DimensionError, UnboundedError):
        assume(False)


@st.composite
def sum_operand(draw):
    """A body of dimension 1 or 2 of any class with the origin interior, as ``linf_sum`` and ``l1_sum`` take."""
    p = draw(st.one_of(positive_rationals.map(interval), *(body(dim=2) for body in (general_body, central_body))))
    assume(contains_origin_interior(p))
    return p


born_body = st.one_of(
    st.sampled_from([general_body, central_body, symmetric_body]).flatmap(lambda body: body(dim=3)),  # _hull
    st.integers(2, 3).flatmap(halfspace_body),
    st.tuples(sum_operand(), sum_operand()).map(lambda pq: linf_sum(*pq)),
    st.tuples(sum_operand(), sum_operand()).map(lambda pq: l1_sum(*pq)),
    # the cross polytope's reps and (1/2, 1/2, 0), which is tight on a facet and no vertex
    st.one_of(st.just([((1, 0, 0), 1), ((0, 1, 0), 1), ((0, 0, 1), 1), ((1, 1, 0), 2)]), orthant_reps()).map(
        polytope._orthant_hull
    ),
    st.sampled_from([g for n in (2, 3, 4) for g in enumerate_p4_free_labeled(n)]).map(polytope_from_graph),
    st.builds(random_unconditional_polytope, st.integers(3, 4), st.integers(0, 10**6)),
    st.integers(1, 4).map(cube),
    positive_rationals.map(interval),
)


@given(born_body, st.data())
@settings(max_examples=80, deadline=None)
def test_facts_known_at_birth_are_the_oracles(p, data):
    check_facts(p)
    if contains_origin_interior(p):
        check_facts(polar(p))
    sizes = data.draw(st.lists(positive_rationals, min_size=p.dim, max_size=p.dim))
    signs = data.draw(st.sampled_from([(1,) * p.dim, *iter_product((1, -1), repeat=p.dim)]))
    scales = [s * x for s, x in zip(signs, sizes)]
    check_facts(diagonal_image(p, scales))  # p's masks as they stand, or re-indexed to the image's sorted rows
    if not is_unconditional(p):
        return
    check_facts(normalize_unconditional(p))
    check_facts(perturb_unconditional(p, F(1, 4), data.draw(st.integers(0, 10**6))))
    if p.dim >= 2:
        j = data.draw(st.integers(min_value=0, max_value=p.dim - 1))
        check_facts(coordinate_section(p, j))
        check_facts(coordinate_section(polar(p), j))
        blow = max(gauge(p, [int(i != c) for i in range(p.dim)]) for c in range(p.dim))  # the largest corner gauge
        check_facts(volprod._cube_cap(p._facet_reps, blow))


@pytest.mark.parametrize("n", range(1, 8))
def test_cube_is_the_orthant_hull_of_its_corner(n):
    c = cube(n)
    check_facts(c)  # held at birth, and equal to the oracles' incidence and class
    assert c.vertex_rows == tuple((v, 1) for v in iter_product((-1, 1), repeat=n))
    assert c.facet_rows == tuple(sorted((tuple(s * (k == i) for k in range(n)), 1) for i in range(n) for s in (-1, 1)))
    assert c._symmetry == 2


@pytest.mark.parametrize("r", [1, F(3, 7), 5, F(22, 3)])
def test_interval_is_the_orthant_hull_of_its_radius(r):
    p, q = F(r).numerator, F(r).denominator
    i = interval(r)
    check_facts(i)
    assert i.vertex_rows == (((-p,), q), ((p,), q))
    assert i.facet_rows == (((-q,), p), ((q,), p))
    assert i._facet_masks == (1, 2) and i._symmetry == 2  # x >= -r holds only -r, x <= r only r


def test_diagonal_image_sorts_the_rows_of_a_body_with_a_facet_through_the_origin():
    # a row (A, 0) is keyed on A itself, which the map rescales row by row: here the two orders differ
    p = from_vertices([(0, 0), (1, 3), (2, -1)])
    assert diagonal_image(p, (3, 1)) == from_vertices([(0, 0), (3, 3), (6, -1)])
    for signs in iter_product((1, -1), repeat=2):
        image = diagonal_image(p, (3 * signs[0], signs[1]))
        assert image == from_vertices([(3 * signs[0] * x, signs[1] * y) for x, y in p.vertices])
        check_facts(image)


def test_a_body_needs_its_facts_and_identity_ignores_them():
    c = cube(2)
    with pytest.raises(TypeError):
        Polytope(2, c.vertex_rows, c.facet_rows)  # no class or incidence: no body
    other = Polytope(2, c.vertex_rows, c.facet_rows, 0, (0,) * c.n_facets)
    assert other == c and hash(other) == hash(c)  # equality and hashing read the rows alone


def test_workload_paths_run_no_incidence_scan(monkeypatch):
    # every body is born with its incidence, so no package module keeps a scan for it
    sources = Path(polytope.__file__).parent.glob("*.py")
    assert not [path.name for path in sources if "_incidence_scan" in path.read_text(encoding="utf-8")]
    # the symmetry scans left are those of the truncated cube's two corner pieces, built by _hull
    corner = volprod.corner_bound_instance(4, F(7, 8))
    scanned = []
    real = polytope._symmetry_scan
    monkeypatch.setattr(polytope, "_symmetry_scan", lambda dim, rows: scanned.append(rows) or real(dim, rows))
    for cache in (volume, volprod._section_volumes, volprod.mahler_bound, polytope_from_graph):
        cache.cache_clear()
    k = random_unconditional_polytope(4, 11)  # one certificates body item
    volprod.meyer_inequality_check(k)
    volprod.near_minimal_sections_check(k, F(1, 10))
    volprod.verify_truncated_cube_bound(4, F(7, 8))
    stability_experiment(ExperimentConfig(3, 1, F(1, 10), 0))
    volprod.volume_product(polytope_from_graph(enumerate_p4_free_labeled(4)[5]))
    assert scanned and set(scanned) <= {corner.body_piece.vertex_rows, corner.polar_piece.vertex_rows}


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


def test_normalize_skips_the_rebuild_of_a_normalized_body(monkeypatch):
    # the scales are read off the vertex representatives: no gauge, and no diagonal map in standard position
    calls = []
    real = polytope.diagonal_image

    def counting(p, scales):
        calls.append(scales)
        return real(p, scales)

    def forbidden(*args):
        raise AssertionError("polytope._row_gauge called")

    monkeypatch.setattr(polytope, "diagonal_image", counting)
    monkeypatch.setattr(polytope, "_row_gauge", forbidden)
    for h in HANNER_BALLS:
        q = polar(h)  # a standard Hanner ball too
        assert normalize_unconditional(h) is h and normalize_unconditional(q) is q
    assert calls == []
    perturbed = perturb_unconditional(HANNER_BALLS[-1], F(1, 10), 0)  # returns a normalized body
    calls.clear()
    assert normalize_unconditional(perturbed) is perturbed
    assert calls == []
    for scales in [(2, 3, 5), (1, 1, F(1, 2))]:  # the second is off only at e_3
        assert normalize_unconditional(diagonal_image(cube(3), scales)) == cube(3)
    assert calls == [[F(1, 2), F(1, 3), F(1, 5)], [1, 1, 2]]  # the inverse scales, the gauges of the e_i


@st.composite
def unconditional_body(draw):
    """An orthant hull or a Hanner ball, or its polar, or a coordinate section of either: bodies in many positions."""
    reps = orthant_reps(dim=draw(st.integers(1, 4)))
    p = draw(st.one_of(reps.map(polytope._orthant_hull), st.sampled_from(HANNER_BALLS)))
    if draw(st.booleans()):
        p = polar(p)
    if p.dim >= 2 and draw(st.booleans()):
        p = coordinate_section(p, draw(st.integers(0, p.dim - 1)))
    return p


@given(unconditional_body(), st.lists(positive_rationals, min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_normalize_reads_the_axis_gauges_off_the_vertex_representatives(p, scales):
    # h(e_i), the largest V_i/t over the representatives, is the axis intercept: the same map as the facet gauges
    for body in (p, diagonal_image(p, scales[: p.dim])):
        got, want = normalize_unconditional(body), normalize_by_gauges(body)
        assert (got.vertex_rows, got.facet_rows) == (want.vertex_rows, want.facet_rows)
        assert (got._facet_masks, got._symmetry) == (want._facet_masks, want._symmetry)
        assert (got is body) == (want is body)


def test_is_unconditional():
    assert is_unconditional(cube(3))
    assert is_unconditional(cross_polytope(4))
    tilted = from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
    assert not is_unconditional(tilted)


@given(
    st.sampled_from([symmetric_body, central_body, general_body]).flatmap(
        lambda body: st.one_of(body(coord=rationals), body(dim=3, coord=rationals))
    )
)
@settings(max_examples=60, deadline=None)
def test_symmetry_checks_match_fraction_vertex_sets(p):
    assert is_unconditional(p) == is_unconditional_by_fractions(p)
    assert (p._symmetry > 0) == is_centrally_symmetric_by_fractions(p)


def _probe_bodies() -> list[Polytope]:
    """Trial bodies built the way symmetric_probe builds them: antipodal pairs moved together."""
    out = []
    for seed, h in enumerate((cube(3), cube(3), cross_polytope(3), HANNER_BALLS[-1])):
        rng = random.Random(seed)
        pts = []
        for v in h.vertices:
            if next(x for x in v if x) > 0:
                w = tuple(x + F(1, 10) * F(rng.randint(-(2**12), 2**12), 2**13) for x in v)
                pts += [w, tuple(-x for x in w)]
        out.append(from_vertices(pts))
    return out


def test_orbit_weight_picks_the_representatives_of_the_rules_it_replaced():
    # perturb_unconditional took the sorted set of |v| over the vertices, and
    # symmetric_probe the vertices whose first nonzero coordinate is positive
    hanner = [h for n in (1, 2, 3, 4) for _, h in enumerate_standard_hanner(n)]
    perturbed = [perturb_unconditional(h, F(1, 10), seed) for seed, h in enumerate(hanner[::5])]
    probes = _probe_bodies()
    for body in hanner + perturbed:
        assert body._symmetry == 2
        reps = list(compress(body.vertices, polytope._orbit_weights(body.vertex_rows, 2)))
        assert reps == sorted({tuple(abs(x) for x in v) for v in body.vertices})
    assert [body._symmetry for body in probes] == [1] * len(probes)
    for body in hanner + perturbed + probes:
        reps = list(compress(body.vertices, polytope._orbit_weights(body.vertex_rows, 1)))
        assert reps == [v for v in body.vertices if next(x for x in v if x) > 0]


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


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


@st.composite
def prime_denominator_body(draw, dim):
    """Hull of points whose denominators are distinct primes, one per point.

    Every hull vertex keeps its own prime, so the lcm of the vertex
    denominators is the product of at least dim + 1 of them.
    """
    dens = draw(st.permutations(PRIMES))[: draw(st.integers(min_value=dim + 1, max_value=dim + 3))]
    pts = []
    for q in dens:
        first = draw(st.integers(min_value=-3 * q, max_value=3 * q).filter(lambda k: k % q))
        rest = draw(st.lists(st.integers(min_value=-3 * q, max_value=3 * q), min_size=dim - 1, max_size=dim - 1))
        pts.append(tuple(F(k, q) for k in [first] + rest))
    try:
        return from_vertices(pts)
    except DimensionError:
        assume(False)


@given(st.one_of(prime_denominator_body(2), prime_denominator_body(3)))
@settings(max_examples=25, deadline=None)
def test_volume_on_distinct_prime_denominators(p):
    assert volume(p) == brute_volume(p.vertices, p.dim)


@given(
    st.one_of(
        st.sampled_from([symmetric_body, central_body, general_body]).flatmap(
            lambda body: st.one_of(body(coord=rationals), body(dim=3, coord=rationals))
        ),
        prime_denominator_body(2),
        prime_denominator_body(3),
    ),
)
@example(cube(3))
@example(from_vertices([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]))
@settings(max_examples=60, deadline=None)
def test_orbit_cones_match_pulling_from_vertex_0(p):
    # symmetric bodies cone from the origin, the rest from vertex 0; every
    # polar of a symmetric body is symmetric the same way
    assert volume(p) == volume_by_pulling(p)
    if contains_origin_interior(p):
        q = polar(p)
        assert volume(q) == volume_by_pulling(q)


@functools.cache
def _standard_hanner(n: int) -> list[Polytope]:
    return [h for _, h in enumerate_standard_hanner(n)]


@st.composite
def certificate_body(draw):
    """A body of the shapes the ``certificates`` items measure, its polar, or a coordinate section of either.

    Random unconditional bodies with n = 4, 5, truncated cubes on the grid
    t = (n-1)/n + k/(8n), k = 0..8, and standard Hanner balls with n <= 5.
    """
    kind = draw(st.sampled_from(["random", "truncated", "hanner"]))
    if kind == "random":
        p = random_unconditional_polytope(draw(st.sampled_from([4, 5])), draw(st.integers(min_value=0, max_value=999)))
    elif kind == "truncated":
        n = draw(st.sampled_from([3, 4, 5]))
        p = volprod.truncated_cube(n, F(n - 1, n) + F(draw(st.integers(min_value=0, max_value=8)), 8 * n))
    else:
        p = draw(st.sampled_from(_standard_hanner(draw(st.integers(min_value=2, max_value=5)))))
    if draw(st.booleans()):
        p = polar(p)
    j = draw(st.integers(min_value=-1, max_value=p.dim - 1))
    return p if j < 0 else coordinate_section(p, j)


@given(certificate_body())
@example(random_unconditional_polytope(5, 0))
@example(polar(volprod.truncated_cube(5, F(4, 5))))
@settings(max_examples=12, deadline=None)
def test_volume_matches_pulling_on_the_certificate_shapes(p):
    assert volume(p) == volume_by_pulling(p)


@given(certificate_body())
@settings(max_examples=40, deadline=None)
def test_size_filtered_faces_give_the_unfiltered_cells(p):
    # a facet of a dim-face has at least dim vertices, so dropping the smaller
    # intersections changes no maximal set; only the order of the cells may move
    masks = p._facet_masks
    for f in masks:
        got = polytope._pull_triangulation(f, p.dim - 1, masks, {})
        assert sorted(got) == sorted(pull_triangulation_unfiltered(f, p.dim - 1, masks, {}))


def test_volume_of_n5_probe_polar_is_reflection_invariant():
    # the body of trial 0 of symmetric_probe(cube(5), 1/10, trials, seed=0):
    # its polar's vertex denominators stay under 100 bits, their lcm does not
    rng = random.Random(0)
    pts = []
    for v in cube(5).vertices:
        if v[0] > 0:
            w = tuple(x + F(1, 10) * F(rng.randint(-(2**12), 2**12), 2**13) for x in v)
            pts += [w, tuple(-x for x in w)]
    q = polar(from_vertices(pts))
    dens = [x.denominator for v in q.vertices for x in v]
    assert q.n_vertices == 436 and max(dens).bit_length() < 100 < 16_000 < math.lcm(*dens).bit_length()
    moved = diagonal_image(q, (1, -1, 1, 1, 1))
    assert moved.vertices[0] != q.vertices[0]  # the pulling apex moves
    assert volume(moved) == volume(q) > 0


@given(symmetric_body(dim=2), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_volume_scales_like_dim_power(p, k):
    assert volume(diagonal_image(p, [k] * p.dim)) == k**2 * volume(p)
    assert volume(permute_coordinates(p, (1, 0))) == volume(p)


def test_simplex_faces_are_their_own_cell(monkeypatch):
    calls = []
    real = dd.maximal_sets
    monkeypatch.setattr(dd, "maximal_sets", lambda sets: calls.append(1) or real(sets))
    # the cross polytope's facets are simplices; the cube's three facet cones
    # are squares, each split once into edges, which are simplices
    for body, vol, n_calls in [(cross_polytope(4), F(2, 3), 0), (cube(3), 8, 3)]:
        calls.clear()
        assert volume.__wrapped__(body) == vol
        assert len(calls) == n_calls


def test_volume_sums_one_determinant_per_cell(monkeypatch):
    dets: list[int] = []

    def counting(a, n):  # each cell goes straight to the elimination, which leaves det = sign * a[n-1][n-1]
        sign = ratlin._bareiss(a, n)
        dets.append(sign * a[n - 1][n - 1])
        return sign

    monkeypatch.setattr(polytope, "_bareiss", counting)
    # a body with no symmetry is pulled from vertex 0, so a simplex is one cell
    # (the second has the origin inside); a symmetric body cones from the
    # origin over one facet per orbit: the cube's e_n facet is an (n-1)-cube
    # of (n-1)! cells in each of n orbits, the cross polytope's (1, ..., 1)
    # facet one simplex, and the hexagon's facets are 3 pairs of edges
    bodies = [
        (from_vertices([(0, 0), (1, 0), (0, 1)]), F(1, 2), 1),
        (from_vertices([(F(1, 2), 0), (0, F(1, 3)), (F(-1, 4), F(-1, 5))]), F(7, 40), 1),
        (from_vertices([(0, 0, 0), (F(1, 2), 0, 0), (0, F(1, 3), 0), (0, 0, F(1, 5))]), F(1, 180), 1),
        (cube(3), 8, 6),
        (cube(4), 16, 24),
        (cross_polytope(3), F(4, 3), 1),
        (cross_polytope(4), F(2, 3), 1),
        (from_vertices([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]), 3, 3),
        (from_vertices([(-1, -1), (2, -1), (2, 1), (0, 2), (-1, 1)]), F(15, 2), 3),
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


@st.composite
def coprime_point(draw, dim):
    """A point with denominator a prime above PRIMES, so coprime to the vertex D of prime_denominator_body."""
    q = draw(st.sampled_from([29, 31, 37]))
    first = draw(st.integers(min_value=-5 * q, max_value=5 * q).filter(lambda k: k % q))
    rest = draw(st.lists(st.integers(min_value=-5 * q, max_value=5 * q), min_size=dim - 1, max_size=dim - 1))
    return tuple(F(k, q) for k in [first] + rest)


@given(st.one_of(*(st.tuples(prime_denominator_body(d), coprime_point(d)) for d in (2, 3))))
@settings(max_examples=40, deadline=None)
def test_point_distance_matches_fraction_wolfe_on_coprime_denominators(body_and_point):
    p, x = body_and_point
    assert point_distance_sq(p, x) == distance_sq_by_fractions(p, x) == distance_sq_by_subsets(p, x)


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


def test_point_distance_clears_the_point_once(monkeypatch):
    p = from_vertices([(-2, -2), (-1, -2), (2, 2)])
    cleared = []
    real = polytope.int_row

    def counting(v):
        cleared.append(tuple(v))
        return real(v)

    monkeypatch.setattr(polytope, "int_row", counting)
    assert point_distance_sq(p, (-1, 1)) == 2
    assert cleared == [(-1, 1)]


@st.composite
def translated_rows(draw):
    """A body, a point x outside it, L and the integer rows L*(v - x) of its vertices v."""
    dim = draw(st.sampled_from([2, 3]))
    p = draw(st.sampled_from([general_body, central_body]).flatmap(lambda body: body(dim=dim, coord=rationals)))
    x = draw(st.tuples(*[rationals] * dim))
    assume(membership(p, x) == "outside")
    scale = math.lcm(*(c.denominator for c in x), *(c.denominator for v in p.vertices for c in v))
    return p, x, scale, [tuple(int((a - b) * scale) for a, b in zip(v, x)) for v in p.vertices]


@given(
    translated_rows(),
    st.sampled_from(["exact", "nearest"]),
    st.sampled_from([0, F(1, 2), F(99, 100), 1, F(101, 100), 2]),
)
@settings(max_examples=60, deadline=None)
def test_min_norm_is_exact_above_its_cap_and_within_it_below(body_rows, base, factor):
    p, x, scale, rows = body_rows
    exact = distance_sq_by_subsets(p, x) * scale**2
    nearest = min(sum(c * c for c in w) for w in rows)
    cap = F(factor) * (exact if base == "exact" else nearest)
    solves = []
    real = polytope.int_solve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polytope, "int_solve", lambda m, b: solves.append(1) or real(m, b))
        got = polytope._min_norm_sq(rows, cap)
    if exact > cap:
        assert got == exact
    else:
        assert exact <= got <= cap
    if nearest <= cap:  # the first test is against the nearest vertex, before any Gram solve
        assert got == nearest and not solves


def test_hausdorff_caps_each_vertex_run_at_the_best_so_far(monkeypatch):
    pairs = []  # the probe's trial bodies against the cube; its own distances are not needed
    monkeypatch.setattr(stability, "hausdorff_distance_sq", lambda p, q: pairs.append((p, q)) or F(1))
    symmetric_probe(cube(3), F(1, 10), trials=3, seed=0)
    solves = []
    real = polytope.int_solve
    monkeypatch.setattr(polytope, "int_solve", lambda m, b: solves.append(1) or real(m, b))
    capped = uncapped = 0
    for body, h in pairs:
        solves.clear()
        got = hausdorff_distance_sq(body, h)
        capped += len(solves)
        # the same vertices, each run to its exact distance
        symmetry = min(body._symmetry, h._symmetry)
        solves.clear()
        for p, q in ((body, h), (h, body)):
            for v in compress(p.vertices, polytope._orbit_weights(p.vertex_rows, symmetry)):
                point_distance_sq(q, v)
        uncapped += len(solves)
        assert got == hausdorff_by_full_scan(body, h)
    assert len(pairs) == 3 and capped < uncapped


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


def test_hausdorff_solves_the_gram_systems_on_integers(monkeypatch):
    calls = {"int_solve": 0, "solve_linear": 0}
    real_int, real_fraction = polytope.int_solve, ratlin.solve_linear

    def counting_int(rows, b):
        calls["int_solve"] += 1
        return real_int(rows, b)

    def counting_fraction(m, b):
        calls["solve_linear"] += 1
        return real_fraction(m, b)

    monkeypatch.setattr(polytope, "int_solve", counting_int)
    monkeypatch.setattr(ratlin, "solve_linear", counting_fraction)
    # symmetric_probe measures each trial body against the cube by hausdorff_distance_sq
    report = symmetric_probe(cube(3), F(1, 20), trials=2, seed=0)
    assert all(dist > 0 for _, dist, _ in report.records)
    assert calls["int_solve"] >= 1
    assert calls["solve_linear"] == 0


def _pairs(left, right):
    return st.one_of(st.tuples(left(), right()), st.tuples(left(dim=3), right(dim=3)))


HAUSDORFF_PAIRS = {
    # both unconditional: the positive-orthant rule
    "unconditional": _pairs(symmetric_body, symmetric_body),
    # both centrally symmetric, neither unconditional: the +- rule
    "central": _pairs(central_body, central_body),
    # one unconditional, one only centrally symmetric: the +- rule
    "unconditional-central": _pairs(symmetric_body, central_body),
    # a general body on at least one side: mostly no shared reflection, so every vertex
    "general": st.one_of(
        _pairs(general_body, general_body),
        _pairs(general_body, symmetric_body),
        _pairs(central_body, general_body),
    ),
}


@pytest.mark.parametrize("kind", sorted(HAUSDORFF_PAIRS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_hausdorff_matches_full_scan(kind, data):
    p, q = data.draw(HAUSDORFF_PAIRS[kind])
    assert hausdorff_distance_sq(p, q) == hausdorff_by_full_scan(p, q)


def test_hausdorff_scans_one_vertex_per_shared_orbit(monkeypatch):
    calls = []
    real = polytope._row_distance_sq

    def counting(p, x_row, dx, cap):
        calls.append((x_row, dx))
        return real(p, x_row, dx, cap)

    monkeypatch.setattr(polytope, "_row_distance_sq", counting)
    hexagon = from_vertices([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
    skew = from_vertices([(2, 1), (-1, 1), (-2, -1), (1, -1)])
    triangle = from_vertices([(-1, -1), (2, 0), (0, 2)])
    pairs = [
        (cube(3), cross_polytope(3), 1 + 3),  # positive orthant: (1, 1, 1) and e_1, e_2, e_3
        (hexagon, cube(2), (6 + 4) // 2),  # one vertex per +- pair
        (hexagon, skew, (6 + 4) // 2),
        (triangle, cube(2), 3 + 4),  # no shared reflection
        (triangle, hexagon, 3 + 6),
    ]
    for p, q, count in pairs:
        calls.clear()
        got = hausdorff_distance_sq(p, q)
        assert len(calls) == count
        assert got == hausdorff_by_full_scan(p, q)


# ---------------------------------------------------------------------------
# serialization and validation


@given(symmetric_body())
@settings(max_examples=40, deadline=None)
def test_json_roundtrip(p):
    assert from_json_dict(to_json_dict(p)) == p


@given(st.one_of(st.sampled_from(_offset_sign_bodies()), general_body(coord=rationals), general_body(dim=3, coord=rationals)))
@settings(max_examples=60, deadline=None)
def test_json_dict_from_rows_is_the_views_formatted(p):
    # the sampled bodies hold facets with B < 0 and B = 0
    assert to_json_dict(p) == to_json_dict_by_views(p)


def test_json_roundtrip_fixed_bodies():
    for body in (cube(3), cross_polytope(4), linf_sum(cross_polytope(2), interval())):
        assert from_json_dict(to_json_dict(body)) == body


def test_json_roundtrip_past_the_int_digit_limit():
    # 3**10000 has 4 772 digits, past the 4 300 that str(int) writes
    body = from_vertices([(1 + F(1, 3**10000), 0), (-1, 0), (0, 1), (0, -1)])
    assert from_json_dict(json.loads(json.dumps(to_json_dict(body)))) == body


def test_json_rejects_bad_payloads():
    good = to_json_dict(cube(2))
    with pytest.raises(FormatError):
        from_json_dict({"vertices": good["vertices"]})  # missing dim
    with pytest.raises(FormatError):
        from_json_dict({"dim": 2, "vertices": [["1", "1", "1"]]})  # row length
    bad_point = dict(good)
    bad_point["vertices"] = good["vertices"] + [["0", "0"]]  # interior point listed
    with pytest.raises(FormatError, match=r"^listed point \('0', '0'\) is not a vertex$"):
        from_json_dict(bad_point)
    with pytest.raises(FormatError, match=r"^listed point \('1/2',\) is not a vertex$"):  # the point as a tuple prints
        from_json_dict({"dim": 1, "vertices": [["1"], ["-1"], ["1/2"]]})
    bad_hs = dict(good)
    bad_hs["halfspaces"] = good["halfspaces"][:-1]  # missing facet
    with pytest.raises(FormatError):
        from_json_dict(bad_hs)
    with pytest.raises(FormatError):
        from_json_dict({"dim": 2, "vertices": [["1", "x"], ["0", "0"], ["0", "1"]]})
    with pytest.raises(FormatError):
        from_json_dict({"dim": 2, "vertices": [["0", "0"], ["1", "1"], ["2", "2"]]})
    # a dim that is not an integer is refused, not truncated to the row length
    with pytest.raises(FormatError, match="not an integer"):
        from_json_dict({**good, "dim": 2.9})
    with pytest.raises(FormatError, match="not an integer"):
        from_json_dict({**to_json_dict(interval()), "dim": True})


def test_validate_catches_handmade_corruption():
    c = cube(2)
    with pytest.raises(ConsistencyError):
        validate(Polytope(2, c.vertex_rows, (((1, 0), 1),), 2, (0b1100,)))  # lost facets
    doubled = tuple((tuple(2 * x for x in v), t) for v, t in c.vertex_rows)
    with pytest.raises(ConsistencyError):
        validate(Polytope(2, doubled, c.facet_rows, 2, c._facet_masks))  # vertices poke out
    validate(c)
    validate(cross_polytope(3))


def test_facet_rows_stay_out_of_identity():
    # identity is the integer rows; the class and incidence are fields outside it; the Fraction views are never kept
    assert [f.name for f in dataclasses.fields(Polytope) if f.compare] == ["dim", "vertex_rows", "facet_rows"]
    for body in (random_unconditional_polytope(3, 5), OFFSET_BODIES[1]):
        before = to_json_dict(body)
        membership(body, (F(1, 3),) * body.dim)
        point_distance_sq(body, (F(7, 2),) * body.dim)  # outside, so it reads the vertex rows
        is_unconditional(body)  # reads _symmetry
        assert not {"vertices", "facets"} & set(vars(body))  # read by to_json_dict, not kept
        fresh = from_vertices(body.vertices)
        assert fresh._symmetry == body._symmetry and not {"vertices", "facets"} & set(vars(fresh))
        assert hash(body) == hash((body.dim, body.vertex_rows, body.facet_rows))
        assert fresh == body and hash(fresh) == hash(body)
        assert not {"vertices", "facets"} & set(vars(fresh))  # equality and hashing read the rows
        assert to_json_dict(body) == before == to_json_dict(fresh)
        volume.cache_clear()  # a cached equal body would answer without reading this one
        volume(fresh)
        again = from_vertices(body.vertices)
        assert fresh == again and hash(fresh) == hash(again)
        assert to_json_dict(fresh) == before


def test_polytope_class_invariants():
    with pytest.raises(DimensionError):
        Polytope(0, (((), 1),), (), 0, ())
    with pytest.raises(ConsistencyError):
        Polytope(2, (((0, 0), 1),), (((1, 0), 1),), 0, (1,))


def _fraction_form(kind, data, dim):
    """A body built by ``kind`` and its vertices and facets in the Fraction canonical form."""
    if kind == "halfspaces":
        rows = data.draw(halfspace_system(dim))
        try:
            p = from_halfspaces(rows, dim)
        except (DimensionError, UnboundedError):
            assume(False)
        verts = subset_vertices(rows, dim)
        return p, make_by_fractions(verts, subset_facets(verts, dim))
    if kind == "points":
        p = data.draw(general_body(dim=dim, coord=rationals))
        facets = subset_facets(p.vertices, dim)
        return p, make_by_fractions(subset_vertices(facets, dim), facets)
    body = data.draw(st.one_of(symmetric_body(dim=dim, coord=rationals), general_body(dim=dim, coord=rationals)))
    assume(contains_origin_interior(body))
    # the polar on Fractions: facet normals as vertices, each vertex v as the facet <v, x> <= 1
    return polar(body), make_by_fractions([a for a, _ in body.facets], [(v, 1) for v in body.vertices])


@pytest.mark.parametrize("kind", ["halfspaces", "points", "polars"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_integer_rows_keep_the_fraction_canonical_form(kind, data):
    dim = data.draw(st.sampled_from([2, 3]))
    p, want = _fraction_form(kind, data, dim)
    assert (p.vertices, p.facets) == want  # the same sets, in the same order
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    vrows, frows = list(p.vertex_rows) * 2, list(p.facet_rows) * 2
    rng.shuffle(vrows)
    rng.shuffle(frows)
    assert (polytope._sorted_rows(vrows), polytope._sorted_rows(frows)) == (p.vertex_rows, p.facet_rows)
    order = rng.sample(range(p.n_facets), p.n_facets)  # facet k of the shuffled rows is p's facet order[k]
    on = {v: sum(1 << k for k, i in enumerate(order) if m >> i & 1) for v, m in zip(p.vertex_rows, p._vertex_masks)}
    shuffled = rng.sample(list(on), len(on))
    again = polytope._make_with_incidence(p.dim, {v: on[v] for v in shuffled}, [p.facet_rows[i] for i in order])
    assert (again.vertex_rows, again.facet_rows, again._facet_masks) == (p.vertex_rows, p.facet_rows, p._facet_masks)
    assert again._symmetry == p._symmetry
    others = [
        again,
        from_halfspaces(p.facets, p.dim),
        from_vertices(p.vertices + p.vertices[:1]),
        diagonal_image(p, [2] * p.dim),
        permute_coordinates(p, range(p.dim)[::-1]),
    ]
    if contains_origin_interior(p):
        others += [polar(polar(p)), polar(p)]
    for q in others:
        assert (q == p) == ((q.vertices, q.facets) == (p.vertices, p.facets))
        if q == p:
            assert hash(q) == hash(p)


@pytest.mark.parametrize("dens", [(1,), (-1, 0, 1), (-3, 3), (1, 2, 3, 7), (-2, 0, 1, 6)])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_sorted_rows_keep_the_order_of_the_lcm_key(dens, data):
    # equal |s| (1 for s = 0) sorts the row tuples with no key; mixed |s| sorts on the lcm key
    rows = data.draw(st.lists(st.tuples(st.tuples(*[st.integers(-4, 4)] * 3), st.sampled_from(dens)), max_size=12))
    by_key = {}  # R/|s| -> the first row with that key: no two rows of a body share one
    for r, s in rows:
        by_key.setdefault(tuple(F(x, abs(s) or 1) for x in r), (r, s))
    want = tuple(row for _, row in sorted(by_key.items()))
    assert polytope._sorted_rows(list(by_key.values()) * 2) == want


@given(st.sampled_from([2, 3]).flatmap(lambda d: st.lists(st.tuples(*[rationals] * d), min_size=d + 1, max_size=7)))
@settings(max_examples=60, deadline=None)
def test_hull_of_rows_is_from_vertices_of_points(pts):
    try:
        want = from_vertices(pts)
    except DimensionError:
        assume(False)
    got = polytope._hull([ratlin.int_row(p) for p in pts])
    assert (got.vertex_rows, got.facet_rows) == (want.vertex_rows, want.facet_rows)
    facets = subset_facets(pts, got.dim)
    assert (got.vertices, got.facets) == make_by_fractions(subset_vertices(facets, got.dim), facets)


def _orbit_hull(reps):
    """``_hull`` of the full sign orbits of the representative rows, the input ``_orthant_hull`` saves."""
    return polytope._hull([(u, t) for v, t in reps for u in sign_orbit(v)])


@st.composite
def covering_orthant_reps(draw):
    """Closed-orthant rows (V, t) covering every coordinate, with zero coordinates, repeats and inner points."""
    n = draw(st.integers(min_value=1, max_value=4))
    point = st.tuples(*[st.builds(F, st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=3))] * n)
    pts = draw(st.lists(point, min_size=1, max_size=5))
    assume(all(any(v[i] for v in pts) for i in range(n)))
    if draw(st.booleans()):
        pts += [pts[0], tuple(x / 2 for x in pts[-1]), (F(0),) * n]  # a repeat and two points that are no vertex
    return [ratlin.int_row(v) for v in pts]


@given(covering_orthant_reps(), st.booleans())
@example([((1, 0), 1), ((0, 1), 1)], False)  # the cross polytope: every facet ray has no zero coordinate
@example([((1, 1, 0), 1), ((0, 0, 1), 1)], False)  # rays with zero coordinates, both kinds
@settings(max_examples=80, deadline=None)
def test_orthant_hull_is_the_hull_of_the_sign_orbits(reps, dual):
    want = _orbit_hull(reps)
    if dual:
        want = polar(want)
        reps = [(v, t) for v, t in want.vertex_rows if min(v) >= 0]
    got = polytope._orthant_hull(reps)
    assert (got.vertex_rows, got.facet_rows) == (want.vertex_rows, want.facet_rows)
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("build", [dd.hull_facets, dd.orthant_hull_facets, polytope._hull, polytope._orthant_hull])
def test_empty_point_sets_are_not_full_dimensional(build):
    with pytest.raises(DimensionError, match="point set is not full-dimensional"):
        build([])


def test_orthant_hull_guards():
    with pytest.raises(PreconditionError, match="nonnegative"):
        polytope._orthant_hull([((1, 0), 1), ((0, -1), 1)])
    with pytest.raises(DimensionError, match="point set is not full-dimensional"):
        polytope._orthant_hull([((1, 0, 0), 1), ((2, 3, 0), 5)])


def test_hot_paths_build_no_fraction_view(monkeypatch):
    def forbidden(p):
        raise AssertionError("a Fraction view was read")

    views = {"vertices", "facets"}
    volume.cache_clear()
    with monkeypatch.context() as m:
        for view in views:
            m.setattr(Polytope, view, property(forbidden))
        body = from_vertices([(F(3, 2), 0), (0, F(4, 3)), (-1, -1), (1, -1), (F(1, 5), F(1, 7))])
        dual = polar(body)
        hanner = linf_sum(l1_sum(interval(), interval()), interval())  # fresh, unlike the cached catalog balls
        bodies = [body, dual, cube(2), hanner, perturb_unconditional(hanner, F(1, 10), 3)]
        bodies += [coordinate_section(hanner, 0), linf_sum(body, interval()), l1_sum(body, interval())]
        for p in bodies:
            volume(p)
            gauge(p, (F(1, 3),) * p.dim)
            membership(p, (F(1, 3),) * p.dim)
            hausdorff_distance_sq(p, diagonal_image(p, [F(1, 2)] * p.dim))
        hausdorff_distance_sq(body, cube(2))
    assert to_json_dict(body) == {
        "dim": 2,
        "vertices": [["-1", "-1"], ["0", "4/3"], ["1", "-1"], ["3/2", "0"]],
        "halfspaces": [
            {"normal": ["-7/4", "3/4"], "offset": "1"},
            {"normal": ["0", "-1"], "offset": "1"},
            {"normal": ["2/3", "-1/3"], "offset": "1"},
            {"normal": ["2/3", "3/4"], "offset": "1"},
        ],
    }
    assert not any(views & set(vars(p)) for p in bodies)  # built for to_json_dict, not kept
    assert [[str(x) for x in v] for v in dual.vertices] == [["-7/4", "3/4"], ["0", "-1"], ["2/3", "-1/3"], ["2/3", "3/4"]]
