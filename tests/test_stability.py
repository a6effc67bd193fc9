"""Tests for the section-gluing lemma, reconstruction, and the seeded experiments."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mahlerlab.errors import (
    ConsistencyError,
    PreconditionError,
    ResourceError,
)
from mahlerlab import dd, graphs, polytope, stability, volprod
from mahlerlab.graphs import (
    edges,
    enumerate_p4_free_labeled,
    from_edges,
    graph_from_polytope,
    polytope_from_graph,
)
from mahlerlab.polytope import (
    Polytope,
    coordinate_section,
    cross_polytope,
    cube,
    diagonal_image,
    from_vertices,
    gauge,
    hausdorff_distance_sq,
    interval,
    is_unconditional,
    normalize_unconditional,
    polar,
    to_json_dict,
    volume,
)
from mahlerlab.stability import (
    CASE_TAGS,
    EXPERIMENT_CSV_HEADER,
    PROBE_CSV_HEADER,
    ExperimentConfig,
    StabilityRecord,
    diagonal_truncation_check,
    glue_graphs,
    nearest_hanner_bruteforce,
    perturb_unconditional,
    probe_csv,
    random_unconditional_polytope,
    reconstruct_hanner,
    stability_experiment,
    symmetric_probe,
    trial_base_graphs,
)
from mahlerlab.volprod import (
    mahler_bound,
    meyer_inequality_check,
    near_minimal_sections_check,
    section_membership_vector,
    truncated_cube,
    verify_truncated_cube_bound,
    volume_product,
)
from oracles import (
    complete_graph,
    diagonal_truncation_by_sections,
    empty_graph,
    induced_subgraph,
    mis_pairwise_disjoint,
    normalize_by_gauges,
    path_graph,
)
from test_polytope import symmetric_body

F = Fraction


# ---------------------------------------------------------------------------
# gluing


def test_glue_recovers_every_labeled_graph_on_4():
    for g in enumerate_p4_free_labeled(4) + [path_graph(4)]:
        sections = [induced_subgraph(g, [v for v in range(4) if v != j]) for j in range(4)]
        assert glue_graphs(sections) == g


def test_glue_conflict_names_the_witnesses():
    s0 = empty_graph(3)
    s1 = empty_graph(3)
    s2 = from_edges(3, [(0, 1)])  # says 0-1 is an edge
    s3 = empty_graph(3)  # says it is not
    with pytest.raises(ConsistencyError, match=re.escape("sections 2 and 3 disagree on pair (0, 1)")):
        glue_graphs([s0, s1, s2, s3])


def test_glued_section_graphs_give_the_body_graph():
    # the gluing lemma on real geometry: the graphs of the coordinate sections
    # glue to the graph of the body, for Hanner balls and perturbed bodies
    bodies = [polytope_from_graph(g) for n in (3, 4) for g in enumerate_p4_free_labeled(n)]
    bases = trial_base_graphs(3) + trial_base_graphs(4)
    for seed in range(10):
        base = bases[seed % len(bases)]
        bodies.append(perturb_unconditional(polytope_from_graph(base), F(1, 10), seed=seed))
    for body in bodies:
        sections = [graph_from_polytope(coordinate_section(body, j)) for j in range(body.dim)]
        assert glue_graphs(sections) == graph_from_polytope(body)


def test_glue_preconditions():
    with pytest.raises(PreconditionError):
        glue_graphs([empty_graph(1), empty_graph(1)])
    with pytest.raises(PreconditionError):
        glue_graphs([empty_graph(2), empty_graph(2), empty_graph(3)])


# ---------------------------------------------------------------------------
# diagonal refinement


def test_diagonal_truncation_check_values():
    # t is the diagonal point of the capped body; a body whose sections are
    # full subcubes is its own capped body
    assert diagonal_truncation_check(cube(3))[0] == 1
    assert diagonal_truncation_check(truncated_cube(3, F(2, 3)))[0] == F(2, 3)
    assert diagonal_truncation_check(truncated_cube(4, F(9, 10)))[0] == F(9, 10)


def test_diagonal_truncation_check_on_cube_and_truncation():
    t, product, bound = diagonal_truncation_check(cube(3))
    assert (t, product, bound) == (1, F(32, 3), F(32, 3))
    t, product, bound = diagonal_truncation_check(truncated_cube(3, F(9, 10)))
    assert t == F(9, 10)
    assert product > bound > mahler_bound(3)


def jittered_symmetric_body():
    """Centrally symmetric but not unconditional: one antipodal pair of cube
    corners moved off the sign orbit of the others."""
    body = from_vertices(
        [
            (s * x, s * y, s * z)
            for x, y, z in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (F(11, 10), F(-9, 10), -1)]
            for s in (1, -1)
        ]
    )
    assert not is_unconditional(body)
    return body


def test_diagonal_truncation_check_preconditions():
    with pytest.raises(PreconditionError):
        diagonal_truncation_check(cube(2))
    with pytest.raises(PreconditionError):
        diagonal_truncation_check(interval())
    tilted = from_vertices([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)])
    with pytest.raises(PreconditionError, match="unconditional"):
        diagonal_truncation_check(tilted)
    with pytest.raises(PreconditionError, match="unconditional"):
        diagonal_truncation_check(jittered_symmetric_body())


@given(symmetric_body(dim=3))
@settings(max_examples=25, deadline=None)
def test_diagonal_truncation_check_matches_sections_oracle(p):
    kn = normalize_unconditional(p)
    for body in (kn, polar(kn)):
        assert diagonal_truncation_check(body) == diagonal_truncation_by_sections(body)


def test_diagonal_truncation_check_matches_sections_oracle_on_fixed_bodies():
    bodies = [truncated_cube(4, F(7, 8))]
    for n in (3, 4):
        for g in enumerate_p4_free_labeled(n):
            h = polytope_from_graph(g)
            bodies += [h, polar(h)]
    for body in bodies:
        assert diagonal_truncation_check(body) == diagonal_truncation_by_sections(body)


def test_stability_binds_the_diagonal_truncation_check_of_volprod():
    assert stability.diagonal_truncation_check is volprod.diagonal_truncation_check


def test_diagonal_truncation_check_runs_one_dd_conversion(dd_runs):
    # the capped body is the one conversion; its sections are read from the gauge
    bodies = [cube(3), cube(4), truncated_cube(3, F(5, 6)), truncated_cube(4, F(7, 8))]
    for body in bodies:
        dd_runs.clear()
        diagonal_truncation_check(body)
        assert len(dd_runs) == 1


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_cube_and_cross():
    rec = reconstruct_hanner(cube(3), body_id="c")
    assert rec.case_tag == "caseI-cube"
    assert rec.nearest_graph == empty_graph(3)
    assert rec.candidate == cube(3)
    assert rec.distance_sq == 0 and rec.product_excess == 0
    rec = reconstruct_hanner(cross_polytope(3))
    assert rec.case_tag == "caseI-cross"
    assert rec.candidate == cross_polytope(3)
    assert rec.distance_sq == 0 and rec.product_excess == 0


def test_reconstruct_hanner_ball_runs_no_dd_conversion(dd_runs):
    # the graph is read from the built ball and the candidate is the same
    # cached ball; only the cube and the cross polytope build a capped body
    balls = [
        polytope_from_graph(g)
        for n in (3, 4)
        for g in enumerate_p4_free_labeled(n)
        if g not in (empty_graph(n), complete_graph(n))
    ]
    assert len(balls) == 56
    for ball in balls:
        dd_runs.clear()
        rec = reconstruct_hanner(ball)
        assert rec.distance_sq == 0 and rec.product_excess == 0
        assert dd_runs == []


def test_reconstruct_normalizes_first():
    rec = reconstruct_hanner(diagonal_image(cube(3), (F(1, 2), F(3), F(7))))
    assert rec.case_tag == "caseI-cube" and rec.distance_sq == 0


def test_reconstruct_dimension_one():
    rec = reconstruct_hanner(interval(F(5)))
    assert rec.case_tag == "caseI-cube"
    assert rec.candidate == interval()
    assert rec.distance_sq == 0 and rec.product_excess == 0


def test_reconstruct_path_ball_is_case_two():
    body = polytope_from_graph(path_graph(4))
    rec = reconstruct_hanner(body, body_id="p4", seed=9)
    assert rec.case_tag == "caseII-path"
    assert rec.nearest_graph == path_graph(4)
    assert rec.candidate == body
    assert rec.distance_sq == 0
    assert rec.product_excess == F(4, 9)
    assert rec.seed == 9


def test_reconstruct_truncated_cube_lands_on_cube_case():
    body = truncated_cube(3, F(9, 10))
    rec = reconstruct_hanner(body)
    assert rec.case_tag == "caseI-cube"
    assert rec.distance_sq > 0 and rec.product_excess > 0
    polar_rec = reconstruct_hanner(polar(body))
    assert polar_rec.case_tag == "caseI-cross"
    assert polar_rec.product_excess > 0


def test_reconstruct_self_recovery_all_labeled_graphs():
    for n in (1, 2, 3):
        for g in enumerate_p4_free_labeled(n):
            rec = reconstruct_hanner(polytope_from_graph(g))
            assert rec.nearest_graph == g
            assert rec.distance_sq == 0 and rec.product_excess == 0
            assert rec.case_tag in CASE_TAGS


def test_reconstruct_interval_is_the_cube_case():
    # n = 1 takes the general path: no pairs to read, so the cube candidate
    rec = reconstruct_hanner(interval(3), body_id="segment", seed=2)
    assert rec == StabilityRecord("segment", empty_graph(1), interval(1), F(0), F(0), "caseI-cube", 2)


def test_reconstruct_perturbed_body_is_generic_with_positive_gap():
    base = polytope_from_graph(from_edges(3, [(0, 1)]))
    body = perturb_unconditional(base, F(1, 10), seed=4)
    rec = reconstruct_hanner(body, body_id="wobble")
    assert rec.case_tag == "generic"
    assert rec.distance_sq > 0
    assert rec.product_excess > 0


def test_reconstruct_reads_pairs_without_rechecking(monkeypatch):
    # normalize_unconditional has checked the body and put every e_i on its
    # boundary, so the graph costs one membership test per pair and no second check
    pair_tests = []
    real = graphs._row_membership

    def counting(p, x, dx):
        pair_tests.append((x, dx))
        return real(p, x, dx)

    def forbidden(p):
        raise AssertionError("graphs.is_unconditional called")

    body = perturb_unconditional(polytope_from_graph(from_edges(3, [(0, 1)])), F(1, 10), seed=4)
    monkeypatch.setattr(graphs, "_row_membership", counting)
    monkeypatch.setattr(graphs, "is_unconditional", forbidden)
    rec = reconstruct_hanner(diagonal_image(body, (2, 3, F(1, 2))))
    assert sorted(pair_tests) == [((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), 1)]
    monkeypatch.undo()
    assert rec.nearest_graph == graph_from_polytope(normalize_unconditional(body))


def test_reconstruct_rejects_non_unconditional():
    tilted = from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
    for body in (tilted, jittered_symmetric_body()):
        with pytest.raises(PreconditionError, match="unconditional"):
            reconstruct_hanner(body)


def test_bruteforce_nearest_frozen_and_consistency():
    g, d = nearest_hanner_bruteforce(truncated_cube(3, F(5, 6)))
    assert g == empty_graph(3)
    assert d == F(1, 12)
    g, d = nearest_hanner_bruteforce(cube(3))
    assert g == empty_graph(3) and d == 0
    body = perturb_unconditional(polytope_from_graph(from_edges(3, [(1, 2)])), F(1, 20), seed=2)
    rec = reconstruct_hanner(body)
    brute = nearest_hanner_bruteforce(body)
    assert brute[1] <= rec.distance_sq
    with pytest.raises(ResourceError):
        nearest_hanner_bruteforce(cube(5))


# ---------------------------------------------------------------------------
# perturbations


def test_perturb_identity_at_delta_zero():
    assert perturb_unconditional(cube(3), 0, seed=1) == cube(3)
    base = polytope_from_graph(path_graph(3))
    assert perturb_unconditional(base, 0, seed=7) == base


def test_perturb_outputs_are_normalized_unconditional():
    base = polytope_from_graph(from_edges(3, [(0, 1)]))
    for seed in range(30):
        body = perturb_unconditional(base, F(1, 10), seed=seed)
        assert is_unconditional(body)
        for i in range(3):
            e = [0, 0, 0]
            e[i] = 1
            assert gauge(body, e) == 1


@given(
    st.integers(2, 5).flatmap(lambda n: st.sampled_from(trial_base_graphs(n))),
    st.fractions(min_value=0, max_value=F(9, 10), max_denominator=20),
    st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_perturb_is_the_normalized_hull_of_the_scaled_representatives(base, delta, seed):
    # mapping the representatives into standard position before the hull gives the body normalizing the hull gives
    h = polytope_from_graph(base)
    rng = random.Random(seed)
    scaled = []
    for v, t in h._vertex_reps:
        scale = 1 - delta * F(rng.randrange(2**16 + 1), 2**16)
        scaled.append(polytope._primitive_row([x * scale.numerator for x in v], scale.denominator * t))
    want = normalize_by_gauges(polytope._orthant_hull(scaled))
    got = perturb_unconditional(h, delta, seed)
    assert (got.vertex_rows, got.facet_rows) == (want.vertex_rows, want.facet_rows)
    assert (got._facet_masks, got._symmetry, hash(got)) == (want._facet_masks, want._symmetry, hash(want))


def test_perturb_builds_one_orthant_body(dd_runs, monkeypatch):
    # the scaled representatives are mapped into standard position first, so no body is rebuilt by a diagonal map
    def forbidden(*args):
        raise AssertionError("polytope.diagonal_image called")

    bases = [polytope_from_graph(g) for g in trial_base_graphs(4)[::9]]  # built before counting
    monkeypatch.setattr(polytope, "diagonal_image", forbidden)
    for seed, h in enumerate(bases):
        dd_runs.clear()
        body = perturb_unconditional(h, F(1, 10), seed)
        assert len(dd_runs) == 1
        assert normalize_unconditional(body) is body


def test_perturb_hausdorff_stays_within_distortion_budget():
    delta = F(1, 10)
    cap = 3 * (delta / (1 - delta)) ** 2
    for base in (cube(3), polytope_from_graph(from_edges(3, [(0, 1)]))):
        for seed in (0, 3, 11):
            body = perturb_unconditional(base, delta, seed=seed)
            assert hausdorff_distance_sq(body, base) <= cap


def test_perturb_is_deterministic_in_the_seed():
    base = polytope_from_graph(from_edges(3, [(0, 1)]))
    a = perturb_unconditional(base, F(1, 8), seed=5)
    b = perturb_unconditional(base, F(1, 8), seed=5)
    c = perturb_unconditional(base, F(1, 8), seed=6)
    assert a == b
    assert a != c


def test_perturb_preconditions():
    with pytest.raises(PreconditionError):
        perturb_unconditional(cube(2), 1, seed=0)
    with pytest.raises(PreconditionError):
        perturb_unconditional(cube(2), F(-1, 10), seed=0)
    with pytest.raises(TypeError, match="seed must be an int"):  # a seed of 0.5 once ran
        perturb_unconditional(cube(2), F(1, 10), seed=0.5)
    tilted = from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
    for body in (tilted, jittered_symmetric_body()):
        with pytest.raises(PreconditionError, match="unconditional"):
            perturb_unconditional(body, F(1, 10), seed=0)


def test_unconditional_hulls_run_dd_on_the_orthant_rows(dd_runs):
    # one DD run on the representatives plus the n rows a_i >= 0, not on their 2^n-fold sign orbits
    for seed in range(6):
        dd_runs.clear()
        body = random_unconditional_polytope(4, seed)
        reps = 4 + random.Random(seed).randint(1, 3)  # the e_i and the random points
        assert len(dd_runs) == 1 and dd_runs[0] <= reps + 4
        assert is_unconditional(body)
    for g in enumerate_p4_free_labeled(4)[::7]:
        dd_runs.clear()
        polytope_from_graph.__wrapped__(g)  # past the cache
        assert len(dd_runs) == 1 and dd_runs[0] <= len(graphs.maximal_independent_sets(g)) + g.n
    # the probe's bodies are centrally symmetric only: its hull keeps the full point set
    c = cube(3)  # an orthant run of its own, built before counting
    dd_runs.clear()
    symmetric_probe(c, F(1, 10), trials=3, seed=0)
    assert dd_runs == [8, 8, 8]


def test_random_unconditional_polytope():
    body = random_unconditional_polytope(3, 7)
    assert is_unconditional(body)
    assert body == random_unconditional_polytope(3, 7)
    assert body != random_unconditional_polytope(3, 8)
    assert volume(body) >= volume(cross_polytope(3))  # contains the cross
    with pytest.raises(PreconditionError):
        random_unconditional_polytope(0, 1)


# ---------------------------------------------------------------------------
# experiments


def test_trial_base_graphs_drop_rescaling_absorbed_bases():
    at3 = trial_base_graphs(3)
    assert len(at3) == 3
    assert all(len(edges(g)) == 1 for g in at3)
    # nothing rich exists below dimension 3: fall back to the full list
    assert len(trial_base_graphs(2)) == 2
    assert len(trial_base_graphs(1)) == 1
    from mahlerlab.graphs import maximal_independent_sets

    for g in trial_base_graphs(4):
        mis = maximal_independent_sets(g)
        assert any(a & b for i, a in enumerate(mis) for b in mis[i + 1 :])


def test_trial_base_graphs_drop_the_complete_multipartite_graphs():
    # the rule agrees with pairwise disjoint maximal independent sets on every labeled cograph;
    # the graphs dropped are one per set partition of the vertices, the Bell numbers
    dropped = []
    for n in range(1, 8):
        gs = enumerate_p4_free_labeled(n)
        rule = [stability._is_complete_multipartite(g) for g in gs]
        assert rule == [mis_pairwise_disjoint(g) for g in gs]
        dropped.append(sum(rule))
    assert dropped == [1, 2, 5, 15, 52, 203, 877]


def test_trial_base_graphs_are_computed_once_per_n():
    first = trial_base_graphs(4)
    assert isinstance(first, tuple)
    assert trial_base_graphs(4) is first


def test_internal_seams_pass_rows_not_fraction_points(monkeypatch):
    # inside the package a point crosses as an integer row: nothing clears a
    # Fraction point through _point_row or from_vertices, no body is built
    # from halfspaces, and no Fraction view of a body is read, on a hanner,
    # perturb, probe or certificates item or in writing a ball's JSON
    def forbidden(*args):
        raise AssertionError("a Fraction point or view crossed an internal seam")

    polytope_from_graph.cache_clear()  # so every ball is built inside the run
    volume.cache_clear()
    for module in (polytope, graphs, stability, volprod):
        for name in ("_point_row", "from_vertices", "from_halfspaces"):
            if name in vars(module):
                monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(dd, "polyhedron_vertices", forbidden)
    for view in ("vertices", "facets"):
        monkeypatch.setattr(Polytope, view, property(forbidden))
    for g in (empty_graph(3), complete_graph(3), from_edges(3, [(0, 1)]), path_graph(4)):
        ball = polytope_from_graph(g)
        volume_product(ball)
        assert reconstruct_hanner(ball).nearest_graph == g
        to_json_dict(ball)
    stability_experiment(ExperimentConfig(n=3, trials=1, delta=F(1, 10), seed=0))
    symmetric_probe(cube(3), F(1, 10), trials=1, seed=0)
    k = random_unconditional_polytope(3, 0)
    section_membership_vector(k)
    meyer_inequality_check(k)
    near_minimal_sections_check(k, F(1, 10))
    verify_truncated_cube_bound(3, F(5, 6))


def test_experiment_config_validation():
    with pytest.raises(PreconditionError):
        ExperimentConfig(n=0, trials=1, delta=F(1, 10), seed=0)
    with pytest.raises(PreconditionError):
        ExperimentConfig(n=3, trials=-1, delta=F(1, 10), seed=0)
    with pytest.raises(PreconditionError):
        ExperimentConfig(n=3, trials=1, delta=F(1), seed=0)


def test_experiment_config_reads_delta_as_an_exact_rational_and_trials_as_an_int():
    # a string delta is parsed, as perturb_unconditional parses it; a float or a non-int count is refused up front
    assert ExperimentConfig(3, 1, "1/10", 0) == ExperimentConfig(3, 1, F(1, 10), 0)
    assert ExperimentConfig(3, 1, "1/10", 0).delta == F(1, 10)
    with pytest.raises(PreconditionError):
        ExperimentConfig(3, 1, "3/2", 0)
    with pytest.raises(TypeError, match="floats are not exact"):
        ExperimentConfig(3, 1, 0.1, 0)
    for trials in (2.0, "2", True):
        with pytest.raises(TypeError, match="trial count must be an int"):
            ExperimentConfig(3, trials, F(1, 10), 0)


def test_experiment_config_refuses_a_non_int_dimension_or_seed():
    # both were checked by comparison only: "3" raised a raw '<' error and a seed of 0.5 reached the CSV
    for n in ("3", 3.0, True):
        with pytest.raises(TypeError, match="n must be an int"):
            ExperimentConfig(n, 1, F(1, 10), 0)
    for seed in (0.5, "0", False):
        with pytest.raises(TypeError, match="seed must be an int"):
            ExperimentConfig(3, 1, F(1, 10), seed)


def test_experiment_zero_delta_rows_are_exact_zeros():
    records, csv_text, summary = stability_experiment(
        ExperimentConfig(n=3, trials=2, delta=F(0), seed=1)
    )
    assert all(r.distance_sq == 0 and r.product_excess == 0 for r in records)
    assert all(r.case_tag == "generic" for r in records)  # single-edge bases
    assert summary["zero_distance_trials"] == 2
    assert summary["min_excess"] == "0"


def test_experiment_runs_are_reproducible():
    cfg = ExperimentConfig(n=3, trials=5, delta=F(1, 10), seed=3)
    records1, csv1, summary1 = stability_experiment(cfg)
    records2, csv2, summary2 = stability_experiment(cfg)
    assert csv1 == csv2
    assert summary1 == summary2
    assert records1 == records2
    lines = csv1.strip().split("\n")
    assert lines[0] == EXPERIMENT_CSV_HEADER
    assert len(lines) == 6


def test_experiment_perturbed_trials_have_positive_gaps():
    _, _, summary = stability_experiment(ExperimentConfig(n=3, trials=5, delta=F(1, 10), seed=3))
    assert summary["zero_distance_trials"] == 0
    assert F(summary["min_excess"]) > 0
    assert summary["min_ratio"] > 0
    assert sum(summary["case_counts"].values()) == 5


# ---------------------------------------------------------------------------
# symmetric probe


def test_symmetric_probe_basics():
    rep = symmetric_probe(cube(2), F(1, 20), trials=5, seed=0)
    assert rep.trials == 5 and rep.n == 2
    assert rep.min_excess >= 0
    assert len(rep.records) == 5
    assert all(dist > 0 for _, dist, _ in rep.records)
    again = symmetric_probe(cube(2), F(1, 20), trials=5, seed=0)
    assert again == rep


def test_symmetric_probe_csv():
    rep = symmetric_probe(cube(2), F(1, 20), trials=3, seed=1)
    text = probe_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == PROBE_CSV_HEADER
    assert len(lines) == 4
    assert all(line.count(",") == 4 for line in lines)


def test_symmetric_probe_preconditions():
    with pytest.raises(PreconditionError):
        symmetric_probe(cube(2), F(2, 3), trials=1, seed=0)
    with pytest.raises(PreconditionError):
        symmetric_probe(cube(2), F(-1, 20), trials=1, seed=0)
    tilted = from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
    for body in (tilted, jittered_symmetric_body()):
        with pytest.raises(PreconditionError, match="unconditional"):
            symmetric_probe(body, F(1, 20), trials=1, seed=0)
    # the trial count and seed are checked as ExperimentConfig checks them: True and a seed of 0.5 once ran
    for trials in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="trial count must be an int"):
            symmetric_probe(cube(2), F(1, 20), trials=trials, seed=0)
    with pytest.raises(TypeError, match="seed must be an int"):
        symmetric_probe(cube(2), F(1, 20), trials=1, seed=0.5)


def test_symmetric_probe_refuses_n6_up_front(monkeypatch):
    # one n = 6 trial runs for minutes; the refusal comes before any body is built
    monkeypatch.setattr(stability, "_hull", None)
    with pytest.raises(ResourceError, match="n <= 5"):
        symmetric_probe(cube(6), F(1, 10), trials=1, seed=0)
