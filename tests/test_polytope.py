"""Tests for exact polytope geometry: hulls, duality, sums, metrics."""

import dataclasses
import math
import random
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
from mahlerlab import dd, polytope, ratlin
from mahlerlab.graphs import enumerate_standard_hanner
from mahlerlab.ratlin import int_det
from mahlerlab.stability import perturb_unconditional, random_unconditional_polytope, symmetric_probe
from oracles import (
    brute_volume,
    distance_sq_by_fractions,
    distance_sq_by_subsets,
    gauge_by_fractions,
    hausdorff_by_full_scan,
    is_centrally_symmetric_by_fractions,
    is_unconditional_by_fractions,
    membership_by_fractions,
    subset_facets,
    subset_vertices,
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


def test_normalize_skips_the_rebuild_of_a_normalized_body(monkeypatch):
    calls = []
    real = polytope.diagonal_image

    def counting(p, scales):
        calls.append(scales)
        return real(p, scales)

    monkeypatch.setattr(polytope, "diagonal_image", counting)
    for h in HANNER_BALLS:
        assert normalize_unconditional(h) is h
    assert calls == []
    perturbed = perturb_unconditional(HANNER_BALLS[-1], F(1, 10), 0)  # returns a normalized body
    calls.clear()
    assert normalize_unconditional(perturbed) is perturbed
    assert calls == []
    for scales in [(2, 3, 5), (1, 1, F(1, 2))]:  # the second is off only at e_3
        assert normalize_unconditional(diagonal_image(cube(3), scales)) == cube(3)
    assert len(calls) == 2


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
        reps = [v for v in body.vertices if polytope._orbit_weight(v, 2)]
        assert reps == sorted({tuple(abs(x) for x in v) for v in body.vertices})
    assert [body._symmetry for body in probes] == [1] * len(probes)
    for body in hanner + perturbed + probes:
        reps = [v for v in body.vertices if polytope._orbit_weight(v, 1)]
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


def test_volume_sums_one_determinant_per_cell(monkeypatch):
    dets: list[int] = []

    def counting(rows):
        dets.append(int_det(rows))
        return dets[-1]

    monkeypatch.setattr(polytope, "int_det", counting)
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
    p._facet_rows, p._vertex_rows  # built before counting
    cleared = []
    real = polytope.int_row

    def counting(v):
        cleared.append(tuple(v))
        return real(v)

    monkeypatch.setattr(polytope, "int_row", counting)
    assert point_distance_sq(p, (-1, 1)) == 2
    assert cleared == [(-1, 1)]


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
    real = point_distance_sq

    def counting(p, x):
        calls.append(x)
        return real(p, x)

    monkeypatch.setattr(polytope, "point_distance_sq", counting)
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
    # a dim that is not an integer is refused, not truncated to the row length
    with pytest.raises(FormatError, match="not an integer"):
        from_json_dict({**good, "dim": 2.9})
    with pytest.raises(FormatError, match="not an integer"):
        from_json_dict({**to_json_dict(interval()), "dim": True})


def test_validate_catches_handmade_corruption():
    c = cube(2)
    with pytest.raises(ConsistencyError):
        validate(Polytope(2, c.vertices, (((F(1), F(0)), F(1)),)))  # lost facets
    doubled = tuple((F(2) * v[0], F(2) * v[1]) for v in c.vertices)
    with pytest.raises(ConsistencyError):
        validate(Polytope(2, doubled, c.facets))  # vertices poke out
    validate(c)
    validate(cross_polytope(3))


def test_facet_rows_stay_out_of_identity():
    # no lazy field (_facet_rows, _vertex_rows, _symmetry, _hash) is a dataclass field
    assert [f.name for f in dataclasses.fields(Polytope)] == ["dim", "vertices", "facets"]
    for body in (random_unconditional_polytope(3, 5), OFFSET_BODIES[1]):
        before = to_json_dict(body)
        membership(body, (F(1, 3),) * body.dim)
        point_distance_sq(body, (F(7, 2),) * body.dim)  # outside, so it reads the vertex rows
        is_unconditional(body)  # reads _symmetry
        assert {"_facet_rows", "_vertex_rows", "_symmetry"} <= set(vars(body))
        fresh = from_vertices(body.vertices)
        assert not {"_facet_rows", "_vertex_rows", "_hash", "_symmetry"} & set(vars(fresh))
        assert hash(body) == hash((body.dim, body.vertices, body.facets)) == body._hash
        assert "_hash" in vars(body) and "_hash" not in vars(fresh)
        assert fresh == body and hash(fresh) == hash(body)
        assert "_hash" in vars(fresh) and to_json_dict(body) == before == to_json_dict(fresh)
        volume.cache_clear()  # a cached equal body would answer without reading this one
        volume(fresh)
        assert {"_vertex_rows", "_symmetry"} <= set(vars(fresh))  # volume reads both
        again = from_vertices(body.vertices)
        assert fresh == again and hash(fresh) == hash(again)
        assert to_json_dict(fresh) == before


def test_polytope_class_invariants():
    with pytest.raises(DimensionError):
        Polytope(0, ((),), ())
    with pytest.raises(ConsistencyError):
        Polytope(2, ((F(0), F(0)),), (((F(1), F(0)), F(1)),))
