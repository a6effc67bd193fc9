"""Tests for cograph machinery and the graph <-> ball dictionary."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from mahlerlab.errors import (
    ConsistencyError,
    FormatError,
    PreconditionError,
    ResourceError,
)
from mahlerlab.graphs import (
    Graph,
    complement,
    complete_graph,
    cotree_shapes,
    edges,
    empty_graph,
    enumerate_p4_free_classes,
    enumerate_p4_free_labeled,
    enumerate_standard_hanner,
    from_edges,
    graph_from_json_dict,
    graph_from_polytope,
    graph_to_json_dict,
    hanner_from_tree,
    is_p4_free,
    is_perfect_slow,
    label_shape,
    maximal_independent_sets,
    polytope_from_graph,
    tree_from_json_dict,
    tree_graph,
    tree_to_json_dict,
)
from mahlerlab.polytope import (
    cross_polytope,
    cube,
    diagonal_image,
    from_vertices,
    gauge,
    polar,
    volume,
)
from oracles import (
    canonical_graph_key,
    hanner_by_sums,
    has_induced_p4_by_orderings,
    independent_sets_exhaustive,
    induced_subgraph,
    p4_free_labeled_by_components,
    path_graph,
    permute_coordinates,
)

F = Fraction


@st.composite
def random_graph(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    all_pairs = list(combinations(range(n), 2))
    picked = draw(st.lists(st.sampled_from(all_pairs), unique=True) if all_pairs else st.just([]))
    return from_edges(n, picked)


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])


# ---------------------------------------------------------------------------
# basic structure


def test_from_edges_and_edges_roundtrip():
    g = from_edges(4, [(0, 1), (2, 3)])
    assert edges(g) == [(0, 1), (2, 3)]
    assert from_edges(4, [(1, 0), (3, 2)]) == g
    with pytest.raises(PreconditionError):
        from_edges(3, [(0, 3)])
    with pytest.raises(PreconditionError):
        from_edges(3, [(1, 1)])
    with pytest.raises(PreconditionError):
        Graph(0, ())
    with pytest.raises(PreconditionError):
        Graph(33, (0,) * 33)
    with pytest.raises(ConsistencyError):
        Graph(2, (2, 0))  # asymmetric adjacency


@given(random_graph())
@settings(max_examples=60)
def test_complement_involution(g):
    assert complement(complement(g)) == g
    assert len(edges(g)) + len(edges(complement(g))) == g.n * (g.n - 1) // 2


def test_induced_subgraph():
    g = path_graph(4)
    assert induced_subgraph(g, [0, 1, 2]) == path_graph(3)
    assert induced_subgraph(g, [0, 2]) == empty_graph(2)
    # keep order relabels: vertex keep[k] becomes k
    assert induced_subgraph(g, [3, 2, 1]) == path_graph(3)
    with pytest.raises(PreconditionError):
        induced_subgraph(g, [0, 0])


# ---------------------------------------------------------------------------
# recognition algorithms vs brute force


@given(random_graph())
@settings(max_examples=120)
def test_p4_freeness_matches_ordering_scan(g):
    assert is_p4_free(g) == (not has_induced_p4_by_orderings(g))


@given(random_graph())
@settings(max_examples=100)
def test_maximal_independent_sets_match_subset_scan(g):
    assert sorted(maximal_independent_sets(g)) == independent_sets_exhaustive(g)


def test_perfectness_examples():
    c5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert not is_perfect_slow(c5)
    assert is_perfect_slow(path_graph(5))
    assert is_perfect_slow(complete_graph(5))
    assert is_perfect_slow(from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


@given(random_graph(max_n=6))
@settings(max_examples=40, deadline=None)
def test_perfectness_is_self_complementary(g):
    assert is_perfect_slow(g) == is_perfect_slow(complement(g))


@given(random_graph(max_n=6))
@settings(max_examples=60)
def test_p4_free_graphs_are_perfect(g):
    if is_p4_free(g):
        assert is_perfect_slow(g)


# ---------------------------------------------------------------------------
# enumeration


def test_labeled_enumeration_counts():
    assert [len(enumerate_p4_free_labeled(n)) for n in range(1, 6)] == [1, 2, 8, 52, 472]


def test_class_enumeration_counts():
    assert [len(enumerate_p4_free_classes(n)) for n in range(1, 6)] == [1, 2, 4, 10, 24]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_labeled_enumeration_matches_brute_filter(n):
    got = {g.adj for g in enumerate_p4_free_labeled(n)}
    want = {g.adj for g in all_graphs(n) if not has_induced_p4_by_orderings(g)}
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_labeled_enumeration_matches_component_recursion(n):
    assert enumerate_p4_free_labeled(n) == p4_free_labeled_by_components(n)


def test_class_enumeration_matches_brute_dedup():
    for n in range(1, 6):
        classes = enumerate_p4_free_classes(n)
        keys = {canonical_graph_key(g) for g in classes}
        assert len(keys) == len(classes), "listed classes must be pairwise non-isomorphic"
        labeled_keys = {canonical_graph_key(g) for g in enumerate_p4_free_labeled(n)}
        assert keys == labeled_keys


def test_enumeration_resource_guards():
    for n in (8, 9):
        with pytest.raises(ResourceError, match="n <= 7"):
            enumerate_p4_free_labeled(n)
    with pytest.raises(ResourceError):
        enumerate_standard_hanner(8)
    with pytest.raises(ResourceError, match="dedup"):
        enumerate_standard_hanner(7)


# ---------------------------------------------------------------------------
# trees


def test_tree_support_and_validation():
    t = ("l1", (("leaf", 0), ("linf", (("leaf", 1), ("leaf", 2)))))
    assert tree_graph(t).n == 3
    with pytest.raises(PreconditionError):
        hanner_from_tree(("l1", (("leaf", 0), ("leaf", 0))))
    with pytest.raises(PreconditionError):
        hanner_from_tree(("l1", (("leaf", 0),)))
    with pytest.raises(PreconditionError):
        hanner_from_tree(("max", (("leaf", 0), ("leaf", 1))))
    with pytest.raises(PreconditionError):
        hanner_from_tree(("l1", (("leaf", 0), ("leaf", 2))))  # gap: no coord 1


def test_tree_builds_standard_bodies():
    assert hanner_from_tree(("linf", (("leaf", 0), ("leaf", 1), ("leaf", 2)))) == cube(3)
    assert hanner_from_tree(("l1", (("leaf", 0), ("leaf", 1), ("leaf", 2)))) == cross_polytope(3)
    assert hanner_from_tree(("leaf", 0)) == cube(1)


def test_tree_graph_convention():
    # l1 joints put an edge between coordinates of different parts
    assert tree_graph(("l1", (("leaf", 0), ("leaf", 1)))) == complete_graph(2)
    assert tree_graph(("linf", (("leaf", 0), ("leaf", 1)))) == empty_graph(2)
    t = ("linf", (("l1", (("leaf", 0), ("leaf", 1))), ("l1", (("leaf", 2), ("leaf", 3)))))
    assert tree_graph(t) == from_edges(4, [(0, 1), (2, 3)])


def test_scrambled_tree_labels_permute_the_body():
    plain = ("l1", (("leaf", 0), ("linf", (("leaf", 1), ("leaf", 2)))))
    mixed = ("l1", (("leaf", 2), ("linf", (("leaf", 0), ("leaf", 1)))))
    # moving coordinate names around is the same as permuting the plain body
    body = hanner_from_tree(mixed)
    reference = hanner_from_tree(plain)
    assert body == permute_coordinates(reference, (1, 2, 0))
    assert tree_graph(mixed) == graph_from_polytope(body)


def test_cotree_shapes_align_with_class_counts():
    for n in range(1, 6):
        assert len(cotree_shapes(n)) == len(enumerate_p4_free_classes(n))
    for shape in cotree_shapes(4):
        t = label_shape(shape)
        assert tree_graph(t).n == 4
        body = hanner_from_tree(t)
        assert volume(body) * volume(polar(body)) == F(4**4) / 24


def _relabel(t, perm):
    """The cotree t with leaf coordinate i renamed perm[i]."""
    if t[0] == "leaf":
        return ("leaf", perm[t[1]])
    return (t[0], tuple(_relabel(c, perm) for c in t[1]))


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_hanner_from_tree_is_the_nested_sum(data):
    # every cotree shape with n <= 5, with its own labels and a random relabeling
    for n in range(1, 6):
        for perm in (range(n), data.draw(st.permutations(range(n)))):
            for shape in cotree_shapes(n):
                t = _relabel(label_shape(shape), perm)
                assert hanner_from_tree(t) == hanner_by_sums(t)


# ---------------------------------------------------------------------------
# graph <-> polytope dictionary


def test_polytope_from_graph_standard_cases():
    assert polytope_from_graph(empty_graph(3)) == cube(3)
    assert polytope_from_graph(complete_graph(3)) == cross_polytope(3)
    p3 = polytope_from_graph(path_graph(3))
    # bipyramid over a square: 4 points on {0,2}, 2 apexes on {1}
    assert (p3.n_vertices, p3.n_facets) == (6, 8)
    assert graph_from_polytope(p3) == path_graph(3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_graph_polytope_inversion_all_labeled(n):
    for g in enumerate_p4_free_labeled(n):
        p = polytope_from_graph(g)
        assert graph_from_polytope(p) == g
        assert polytope_from_graph(complement(g)) == polar(p)


def test_graph_from_polytope_preconditions():
    with pytest.raises(PreconditionError, match="not normalized: e_0"):
        graph_from_polytope(diagonal_image(cube(2), (2, 1)))
    with pytest.raises(PreconditionError, match="not normalized: e_1"):
        graph_from_polytope(diagonal_image(cross_polytope(3), (1, F(1, 2), 1)))
    tilted = from_vertices([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)])
    with pytest.raises(PreconditionError, match="unconditional"):
        graph_from_polytope(tilted)


def test_graph_from_polytope_reads_any_positive_margin_as_an_edge():
    # octagon with gauge(e0 + e1) = 41/40: a margin of 1/40 is an edge
    a = F(40, 41)
    octagon = from_vertices([(1, 0), (-1, 0), (0, 1), (0, -1), (a, a), (a, -a), (-a, a), (-a, -a)])
    assert gauge(octagon, (1, 1)) == F(41, 40)
    assert graph_from_polytope(octagon) == complete_graph(2)
    # the same margin at pair (1, 2) in 3-D; pairs (0, 1) and (0, 2) have margin 1
    body = from_vertices(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        + [(0, s * a, t * a) for s in (1, -1) for t in (1, -1)]
    )
    assert graph_from_polytope(body) == complete_graph(3)
    # margin 0 is no edge
    assert graph_from_polytope(cube(2)) == empty_graph(2)


def dual_01(p):
    """True when every vertex coordinate of p and of its polar lies in {-1, 0, 1}."""
    return all(x in (-1, 0, 1) for q in (p, polar(p)) for v in q.vertices for x in v)


def test_imperfect_graph_warns():
    c5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    with pytest.warns(UserWarning):
        p = polytope_from_graph(c5)
    assert not dual_01(p)


def test_standard_hanner_enumeration():
    with_labels = enumerate_standard_hanner(3)
    assert len(with_labels) == 8
    by_class = enumerate_standard_hanner(3, dedup=True)
    assert len(by_class) == 4
    for g, p in with_labels:
        assert graph_from_polytope(p) == g
        assert dual_01(p)
        assert gauge(p, [1 if i == 0 else 0 for i in range(3)]) == 1


# ---------------------------------------------------------------------------
# serialization


@given(random_graph(max_n=8))
@settings(max_examples=60)
def test_graph_json_roundtrip(g):
    assert graph_from_json_dict(graph_to_json_dict(g)) == g


def test_graph_json_validation():
    with pytest.raises(FormatError):
        graph_from_json_dict({"n": 3})
    with pytest.raises(FormatError):
        graph_from_json_dict({"n": 0, "edges": []})
    with pytest.raises(FormatError):
        graph_from_json_dict({"n": 3, "edges": [[0, 1]]})  # 0 is not 1-based
    with pytest.raises(FormatError):
        graph_from_json_dict({"n": 3, "edges": [[2, 1]]})  # wants i < j
    with pytest.raises(FormatError):
        graph_from_json_dict({"n": 3, "edges": [[1, 2], [1, 2]]})
    # numbers are not truncated: 1.9 is not the vertex 1, and true is not 1
    with pytest.raises(FormatError):
        graph_from_json_dict({"n": 3, "edges": [[1.9, 3]]})
    with pytest.raises(FormatError):
        graph_from_json_dict({"n": 3, "edges": [[True, 3]]})
    with pytest.raises(FormatError):
        graph_from_json_dict({"n": 3.5, "edges": []})
    with pytest.raises(FormatError):
        graph_from_json_dict({"n": True, "edges": []})


def test_tree_json_roundtrip_and_validation():
    t = ("l1", (("leaf", 0), ("linf", (("leaf", 1), ("leaf", 2), ("leaf", 3)))))
    assert tree_from_json_dict(tree_to_json_dict(t)) == t
    with pytest.raises(FormatError):
        tree_from_json_dict({"leaf": 0})  # 1-based on the wire
    with pytest.raises(FormatError):
        tree_from_json_dict({"op": "l1", "children": [{"leaf": 1}]})
    with pytest.raises(FormatError):
        tree_from_json_dict({"op": "max", "children": [{"leaf": 1}, {"leaf": 2}]})
    with pytest.raises(FormatError):
        tree_from_json_dict(["l1"])
    with pytest.raises(FormatError):
        tree_from_json_dict({"children": [{"leaf": 1}, {"leaf": 2}]})
    with pytest.raises(FormatError):
        tree_from_json_dict({"leaf": 2.7})
    with pytest.raises(FormatError):
        tree_from_json_dict({"leaf": True})
    with pytest.raises(FormatError):
        tree_from_json_dict({"op": "l1", "children": [{"leaf": 1}, {"leaf": 2.5}]})


def test_tree_json_dicts_for_all_small_shapes():
    for n in range(1, 6):
        for shape in cotree_shapes(n):
            t = label_shape(shape)
            assert tree_from_json_dict(tree_to_json_dict(t)) == t
