"""Tests for volume products, section inequalities, and truncated cubes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mahlerlab import dd, volprod
from mahlerlab.errors import FalsificationError, PreconditionError
from mahlerlab.graphs import enumerate_p4_free_labeled, path_graph, polytope_from_graph
from mahlerlab.polytope import (
    coordinate_section,
    cross_polytope,
    cube,
    from_vertices,
    linf_sum,
    interval,
    polar,
    volume,
)
from mahlerlab.stability import random_unconditional_polytope
from mahlerlab.volprod import (
    VOLPROD_CSV_HEADER,
    combine_stability_constants,
    corner_bound_factor,
    corner_bound_instance,
    mahler_bound,
    meyer_inequality_check,
    near_minimal_sections_check,
    section_membership_vector,
    section_products,
    truncated_cube,
    verify_truncated_cube_bound,
    volume_product,
    volume_product_csv_row,
)
from oracles import section_membership_vector_by_rebuild, section_products_by_rebuild

F = Fraction


# ---------------------------------------------------------------------------
# the cube's product


def test_mahler_bound_frozen_values():
    assert [mahler_bound(n) for n in range(1, 7)] == [
        F(4),
        F(8),
        F(32, 3),
        F(32, 3),
        F(128, 15),
        F(256, 45),
    ]
    with pytest.raises(PreconditionError):
        mahler_bound(0)


def test_mahler_bound_recursion_up_to_dim_8():
    # product(n) * n^2 / 4 == n * product(n-1), a footprint of 4^n/n!
    for n in range(2, 9):
        assert mahler_bound(n) * n * n / 4 == n * mahler_bound(n - 1)


def test_volume_product_report_cube():
    rep = volume_product(cube(3), body_id="cube3")
    assert rep.body_id == "cube3"
    assert (rep.n, rep.vol_body, rep.vol_polar) == (3, F(8), F(4, 3))
    assert rep.product == rep.bound == F(32, 3)
    assert rep.excess == 0 and rep.verdict


def test_volume_product_report_path_ball():
    rep = volume_product(polytope_from_graph(path_graph(4)))
    assert rep.product == F(100, 9)
    assert rep.excess == F(4, 9)
    assert rep.verdict


def test_volume_product_csv_row():
    assert VOLPROD_CSV_HEADER.count(",") == 9
    row = volume_product_csv_row(volume_product(cube(2), body_id="square"))
    assert row == "square,2,4,2,8,8,8,0,0,true"


def test_volume_product_json_shape():
    doc = volume_product(cross_polytope(2), body_id="diamond").to_json_dict()
    assert doc["product"] == {"exact": "8", "approx": "8"}
    assert doc["verdict"] is True
    assert set(doc) == {
        "body_id",
        "n",
        "vol_body",
        "vol_polar",
        "product",
        "bound",
        "excess",
        "verdict",
    }


# ---------------------------------------------------------------------------
# sections


def test_section_volumes_and_products():
    assert [volume(coordinate_section(cube(3), j)) for j in range(3)] == [F(4)] * 3
    assert section_products(cube(3)) == [F(8)] * 3
    assert section_products(cross_polytope(3)) == [F(8)] * 3
    assert section_products(interval()) == [F(1)]  # counting measure in dim 1
    tilted = from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
    with pytest.raises(PreconditionError):
        section_products(tilted)


def test_section_membership_vectors_frozen():
    for n in (1, 2, 3, 4):
        assert section_membership_vector(cube(n)) == tuple([F(1, n)] * n)
        assert section_membership_vector(cross_polytope(n)) == tuple([F(1)] * n)


@given(st.integers(min_value=0, max_value=10))
@settings(max_examples=10, deadline=None)
def test_section_membership_vector_random_bodies(seed):
    body = random_unconditional_polytope(3, seed)
    m = section_membership_vector(body)
    # the defining membership: m pairs to at most 1 against every vertex
    assert all(sum(a * b for a, b in zip(m, v)) <= 1 for v in body.vertices)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_section_table_matches_rebuild_on_random_bodies(n, seed):
    body = random_unconditional_polytope(n, seed)
    assert section_products(body) == section_products_by_rebuild(body)
    assert section_membership_vector(body) == section_membership_vector_by_rebuild(body)


def test_section_table_matches_rebuild_on_hanner_balls():
    for n in range(1, 5):
        for g in enumerate_p4_free_labeled(n):
            body = polytope_from_graph(g)
            assert section_products(body) == section_products_by_rebuild(body)
            assert section_membership_vector(body) == section_membership_vector_by_rebuild(body)


def test_section_checks_refuse_bodies_that_are_not_unconditional():
    tilted = from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
    # centrally symmetric, but one pair of corners is off the sign orbit
    jittered = from_vertices(
        [
            (s * x, s * y, s * z)
            for x, y, z in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (F(11, 10), F(-9, 10), -1)]
            for s in (1, -1)
        ]
    )
    checks = [
        section_products,
        section_membership_vector,
        meyer_inequality_check,
        lambda k: near_minimal_sections_check(k, 0),
    ]
    for body in (tilted, jittered):
        for check in checks:
            with pytest.raises(PreconditionError, match="unconditional"):
                check(body)


@pytest.mark.parametrize("n", [3, 4])
def test_section_checks_build_each_section_once(n, monkeypatch):
    # the three section checks on one body share its n sections: n builds
    # and n DD runs, not one set per check
    body = random_unconditional_polytope(n, 77)
    mahler_bound(n - 1), mahler_bound(n)  # the bounds' cubes, built before counting
    volprod._section_volumes.cache_clear()
    built, runs = [], []
    real_section, real_rays = volprod.coordinate_section, dd.extreme_rays
    monkeypatch.setattr(volprod, "coordinate_section", lambda k, j: built.append(j) or real_section(k, j))
    monkeypatch.setattr(dd, "extreme_rays", lambda rows: runs.append(len(rows)) or real_rays(rows))
    section_membership_vector(body)
    meyer_inequality_check(body)
    near_minimal_sections_check(body, 0)
    assert sorted(built) == list(range(n))
    assert len(runs) == n


def test_meyer_inequality_equality_cases():
    for body in (cube(2), cube(3), cross_polytope(3), polytope_from_graph(path_graph(3))):
        rep = meyer_inequality_check(body)
        assert rep.verdict and rep.is_equality


def test_meyer_inequality_strict_case():
    body = truncated_cube(3, F(9, 10))
    rep = meyer_inequality_check(body, body_id="trunc")
    assert rep.verdict and not rep.is_equality
    assert rep.product > rep.section_sum
    assert len(rep.per_section) == 3


def test_meyer_inequality_precondition():
    tilted = from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
    with pytest.raises(PreconditionError):
        meyer_inequality_check(tilted)


def test_near_minimal_sections_hypothesis_boundary():
    body = truncated_cube(3, F(9, 10))
    at = near_minimal_sections_check(body, F(191, 1800))
    assert at.hypothesis_holds and at.conclusion_holds
    below = near_minimal_sections_check(body, F(190, 1800))
    assert not below.hypothesis_holds  # hypothesis fails, reported not raised
    assert below.conclusion_holds
    assert below.product == at.product == mahler_bound(3) * (1 + F(191, 1800))


def test_near_minimal_sections_margins_zero_for_cube():
    rep = near_minimal_sections_check(cube(3), 0)
    assert rep.hypothesis_holds and rep.conclusion_holds
    assert rep.margins == (F(0), F(0), F(0))
    with pytest.raises(PreconditionError):
        near_minimal_sections_check(cube(3), -1)
    with pytest.raises(PreconditionError):
        near_minimal_sections_check(interval(), 0)


# ---------------------------------------------------------------------------
# truncated cubes


def test_truncated_cube_construction():
    k = truncated_cube(3, F(2, 3))
    assert volume(k) == F(20, 3)
    assert k.n_vertices == 12 and k.n_facets == 14
    # the sections checked on the gauge are the full subcube when built
    for n, t in ((3, F(2, 3)), (4, F(7, 8))):
        k = truncated_cube(n, t)
        assert all(coordinate_section(k, j) == cube(n - 1) for j in range(n))
    assert truncated_cube(3, 1) == cube(3)
    with pytest.raises(PreconditionError):
        truncated_cube(3, F(1, 2))
    with pytest.raises(PreconditionError):
        truncated_cube(3, F(11, 10))
    with pytest.raises(PreconditionError):
        truncated_cube(1, 1)


def test_corner_bound_factor_frozen():
    assert corner_bound_factor(3, F(2, 3)) == F(97, 96)
    assert corner_bound_factor(3, 1) == 1
    with pytest.raises(PreconditionError):
        corner_bound_factor(2, 1)


@pytest.mark.parametrize("wrong_gauge", [lambda k, x: 2, lambda k, x: F(1) if 0 in x else F(1, 2)])
def test_truncated_cube_raises_on_a_failed_gauge_fact(monkeypatch, wrong_gauge):
    # the first misses every section corner, the second only the diagonal point
    monkeypatch.setattr(volprod, "gauge", wrong_gauge)
    with pytest.raises(FalsificationError):
        truncated_cube(3, F(9, 10))


def test_corner_instance_raises_when_the_diagonal_points_are_not_polar(monkeypatch):
    monkeypatch.setattr(volprod, "dot", lambda u, v: 0)
    with pytest.raises(FalsificationError):
        corner_bound_instance(3, F(9, 10))


def test_corner_instance_piece_volumes():
    inst = corner_bound_instance(3, F(2, 3))
    assert volume(inst.body_piece) == F(5, 6)
    assert volume(inst.polar_piece) == F(1, 4)
    assert inst.boundary_point == (F(2, 3),) * 3
    assert sum(inst.polar_point) == F(3, 2)
    assert inst.corner_constant == F(1, 2)


def test_truncated_cube_bound_equality_at_left_endpoint():
    # at t = (n-1)/n the quadrant bound is attained exactly
    rep = verify_truncated_cube_bound(3, F(2, 3))
    assert rep.product == F(40, 3)
    assert rep.quadrant_bound == F(40, 3) and rep.slack_quadrant == 0
    assert rep.factor_bound == F(97, 9) and rep.slack_factor == F(23, 9)
    assert rep.verdict


def test_truncated_cube_bound_interior_point():
    rep = verify_truncated_cube_bound(4, F(7, 8))
    assert rep.slack_factor > 0 and rep.slack_quadrant > 0
    assert rep.factor == corner_bound_factor(4, F(7, 8))


def test_truncated_cube_bound_runs_three_dd_conversions(dd_runs):
    # the truncated cube and the two corner pieces; no section is built
    verify_truncated_cube_bound(4, F(7, 8))
    assert len(dd_runs) == 3


# ---------------------------------------------------------------------------
# constants and the float check


def test_combine_stability_constants_examples():
    assert combine_stability_constants(1, 1, 1, 3) == (F(1, 36), F(1))
    for n in (3, 5, 8):
        eps, tau = combine_stability_constants(n, n, 3, n)
        assert eps == F(1, 2 * n)
        assert tau == n


@given(
    st.fractions(min_value=F(1, 8), max_value=4, max_denominator=16),
    st.fractions(min_value=F(1, 8), max_value=4, max_denominator=16),
    st.fractions(min_value=F(1, 8), max_value=4, max_denominator=16),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60)
def test_combine_stability_constants_caps(a, b, g, n):
    eps, tau = combine_stability_constants(a, b, g, n)
    assert 0 < eps <= F(1, 2 * n)
    assert 0 < tau <= n
    # growing gamma never shrinks eps
    eps2, _ = combine_stability_constants(a, b, g + 1, n)
    assert eps2 >= eps


def test_combine_stability_constants_rejects_nonpositive():
    with pytest.raises(PreconditionError):
        combine_stability_constants(0, 1, 1, 3)
    with pytest.raises(PreconditionError):
        combine_stability_constants(1, 1, 1, 0)

