"""Brute-force reference implementations the fast code is tested against.

Everything here favors obviousness over speed: cofactor expansion, subset
enumeration, permutation scans, Gaussian elimination over the rationals for
rank, Gauss-Jordan elimination over the rationals for linear systems, cases
on the offset's sign for the canonical facet, sorted sets of
Fraction vertices and canonical facets for the order of the integer rows,
the gauge of each e_i for standard position,
Fraction dot products over every facet for the gauge and membership and
over every facet and vertex for the incidence, and integer ones over every
facet and vertex row for the incidence a constructor hands on,
Fraction vertex sets for the sign-flip and negation checks, the
lexicographic maximum of each Fraction orbit for the orbit representatives,
recursive projection and the pulling triangulation of the whole body from
vertex 0 for volume, projection onto the affine hull of every small vertex subset for
distance, Wolfe's algorithm on Fraction vectors for distance, a scan of every
vertex of both bodies for the Hausdorff distance, sections as DD runs on
the facets with one coordinate dropped, and those sections built for the
truncation check and for the section volumes of the section inequalities,
the cube cap as a halfspace intersection, JSON through ``str`` of the
Fraction views, component recursion for the labeled P4-free graphs, pairwise
disjoint maximal independent sets for the complete multipartite graphs, and the
Hanner ball of a cotree as nested l1 and linf sums, permuted into place.  The
small helpers that only tests call live here too: the Fraction unit vector
``unit_vec``, the sign flips ``sign_orbit``, the graph builders
``empty_graph``, ``complete_graph``, ``path_graph`` and ``induced_subgraph``
and the coordinate relabeling ``permute_coordinates``, the hull of the
relabeled vertex rows.
The library pieces reused are: the dot product ``dot``,
membership and the primitive facet row ``_int_facet`` that ``canon_facet``
reads, each covered by its own tests, ``from_halfspaces`` for the sections, for
the truncation check and the cube cap the constructors, gauge, polar, volume
and the bound factors it is compared through, for the section volumes polar
and volume, for standard position ``gauge`` and ``diagonal_image``, for
the Hausdorff scan ``point_distance_sq`` (itself checked against the subset
oracle), the graph constructors ``Graph`` and ``from_edges``,
``maximal_independent_sets`` for the disjointness test, and for the
nested sums ``interval``, ``l1_sum`` and ``linf_sum``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product as iter_product
from math import factorial, gcd, lcm

from mahlerlab import dd
from mahlerlab.errors import ConsistencyError, DimensionError, FalsificationError, PreconditionError
from mahlerlab.graphs import Graph, from_edges, maximal_independent_sets
from mahlerlab.polytope import (
    Polytope,
    _int_facet,
    _hull,
    cube,
    diagonal_image,
    from_halfspaces,
    gauge,
    interval,
    is_unconditional,
    l1_sum,
    linf_sum,
    membership,
    point_distance_sq,
    polar,
    volume,
)
from mahlerlab.ratlin import dot, vec
from mahlerlab.volprod import corner_bound_factor, mahler_bound


def unit_vec(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(int(j == i)) for j in range(n))


def sign_orbit(v) -> list[tuple]:
    """Every vector obtained from v by flipping the signs of some of its nonzero coordinates, v itself first."""
    return list(iter_product(*[(x, -x) if x else (x,) for x in v]))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << i) for i in range(n)))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def induced_subgraph(g: Graph, keep) -> Graph:
    """The subgraph on the vertices ``keep``, relabeled 0.. in the order given."""
    ks = list(keep)
    if len(set(ks)) != len(ks) or not ks or any(i < 0 or i >= g.n for i in ks):
        raise PreconditionError("keep must be distinct vertices of the graph")
    m = len(ks)
    adj = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if g.adj[ks[a]] >> ks[b] & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return Graph(m, tuple(adj))


def vsub(u, v) -> tuple[Fraction, ...]:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def cofactor_det(m) -> Fraction:
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * cofactor_det(minor)
    return total


def rank(rows) -> int:
    """Rank by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def solve_by_gauss_jordan(m, b):
    """Solve m x = b over the rationals, or None when m is singular.

    Gauss-Jordan elimination with the first nonzero pivot.  Exact arithmetic
    makes pivot-size strategies unnecessary: any nonzero pivot is a correct one.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(m, b, strict=True)]
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
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


def affine_rank(points) -> int:
    """Dimension of the affine hull: 0 for one point, -1 for none."""
    if not points:
        return -1
    return rank([vsub(vec(p), vec(points[0])) for p in points[1:]])


def validate(p: Polytope) -> None:
    """Internal consistency: every vertex feasible, every facet honest, every vertex extreme."""
    for v in p.vertices:
        for a, b in p.facets:
            if dot(a, v) > b:
                raise ConsistencyError(f"vertex {v} violates a facet")
    for a, b in p.facets:
        if affine_rank([v for v in p.vertices if dot(a, v) == b]) != p.dim - 1:
            raise ConsistencyError(f"facet {a} <= {b} is not supported by a (dim-1)-face")
    for v in p.vertices:
        if rank([a for a, b in p.facets if dot(a, v) == b]) != p.dim:
            raise ConsistencyError(f"vertex {v} is not an extreme point")


def canon_facet(normal, offset) -> tuple[tuple[Fraction, ...], Fraction]:
    """Scale ``<normal, x> <= offset`` to offset in {+1, -1, 0}: ``(A/|B|, sign B)`` of its primitive row (A, B).

    ``Polytope.facets`` reads each facet row (A, B) the same way.
    """
    a, b = _int_facet(normal, offset)
    if not any(a):
        raise PreconditionError("facet normal must be nonzero")
    return tuple(Fraction(x, abs(b) or 1) for x in a), Fraction((b > 0) - (b < 0))


def make_by_fractions(vertices, facets) -> tuple[tuple, tuple]:
    """The Fraction canonical form: the sorted distinct vertices and the sorted distinct canonical facets.

    Sorting Fractions is the obvious order; the integer rows of a body must
    list its vertices and facets in the same one.
    """
    return tuple(sorted({vec(v) for v in vertices})), tuple(sorted({canon_facet(a, b) for a, b in facets}))


def canon_facet_by_offset_sign(normal, offset) -> tuple[tuple[Fraction, ...], Fraction]:
    """The canonical facet by cases on the offset's sign.

    A positive or negative offset is divided out of the inequality; with
    offset 0 the normal becomes its primitive integer multiple, scaled up by
    the lcm of its denominators and down by the gcd of the resulting ints.
    """
    a = vec(normal)
    b = Fraction(offset)
    if all(x == 0 for x in a):
        raise PreconditionError("facet normal must be nonzero")
    if b > 0:
        return tuple(x / b for x in a), Fraction(1)
    if b < 0:
        return tuple(x / -b for x in a), Fraction(-1)
    scaled = [x * lcm(*(y.denominator for y in a)) for x in a]
    g = gcd(*(int(x) for x in scaled))
    return tuple(x / g for x in scaled), Fraction(0)


def normalize_by_gauges(p: Polytope) -> Polytope:
    """Standard position by facet scans: diag(gauge(p, e_i)) p, or p itself when every gauge is 1."""
    if not is_unconditional(p):
        raise PreconditionError("normalization is defined for unconditional polytopes")
    gs = [gauge(p, unit_vec(p.dim, i)) for i in range(p.dim)]
    return p if all(g == 1 for g in gs) else diagonal_image(p, gs)


def gauge_by_fractions(p: Polytope, x) -> Fraction:
    """Minkowski gauge as the largest <a, x> over the facets, floored at 0."""
    v = vec(x)
    g = max(dot(a, v) for a, _ in p.facets)
    return g if g > 0 else Fraction(0)


def membership_by_fractions(p: Polytope, x) -> str:
    """'outside' if some facet is violated, else 'boundary' if some facet is tight."""
    v = vec(x)
    sides = [dot(a, v) - b for a, b in p.facets]
    if any(s > 0 for s in sides):
        return "outside"
    return "boundary" if 0 in sides else "interior"


def orbit_reps_by_fractions(p: Polytope) -> tuple[set, set]:
    """The Fraction vertices and facet views that are the lexicographic maximum of their orbit.

    The orbit is under every sign flip when the Fraction vertex set is closed
    under them, else under the negation when it is closed under that, else
    trivial; a facet view ``(a, s)`` has the orbit of its normal a.
    """
    unconditional, central = is_unconditional_by_fractions(p), is_centrally_symmetric_by_fractions(p)

    def top(v) -> bool:
        return v == max(sign_orbit(v) if unconditional else [v, tuple(-x for x in v)] if central else [v])

    return {v for v in p.vertices if top(v)}, {(a, s) for a, s in p.facets if top(a)}


def incidence_scan(p: Polytope) -> tuple[int, ...]:
    """One vertex mask per facet row (A, B): one integer dot product ``<A, V> == B*t`` per facet and vertex row."""
    verts = p.vertex_rows
    return tuple(sum(1 << i for i, (v, t) in enumerate(verts) if dot(row, v) == b * t) for row, b in p.facet_rows)


def incidence_by_fractions(p: Polytope) -> tuple[int, ...]:
    """One vertex mask per facet view (a, s): <a, v> == s on the Fraction vertex v."""
    return tuple(sum(1 << i for i, v in enumerate(p.vertices) if dot(a, v) == s) for a, s in p.facets)


def is_unconditional_by_fractions(p: Polytope) -> bool:
    """Closure of the Fraction vertex set under every single coordinate sign flip."""
    vset = set(p.vertices)
    return all(v[:i] + (-v[i],) + v[i + 1 :] in vset for v in p.vertices for i in range(p.dim))


def is_centrally_symmetric_by_fractions(p: Polytope) -> bool:
    """Closure of the Fraction vertex set under negation."""
    vset = set(p.vertices)
    return all(tuple(-x for x in v) in vset for v in p.vertices)


def subset_vertices(ineqs, dim) -> set:
    """All vertices of an H-polytope by checking every dim-subset of rows."""
    out = set()
    rows = [(vec(a), Fraction(b)) for a, b in ineqs]
    for sub in combinations(rows, dim):
        a = tuple(r[0] for r in sub)
        b = vec(r[1] for r in sub)
        x = solve_by_gauss_jordan(a, b)
        if x is None:
            continue
        if all(dot(aa, x) <= bb for aa, bb in rows):
            out.add(x)
    return out


def subset_facets(points, dim) -> set:
    """All facets of a V-polytope by scanning every (dim-1)-subset of points.

    Each affinely independent (dim-1)-subset of vertices spans a candidate
    hyperplane (through a fixed base point); it supports a facet iff every
    point lies weakly on one side.  Results use the library's canonical
    facet form for direct set comparison.
    """
    pts = [vec(p) for p in points]
    out = set()
    for sub in combinations(pts, dim):
        base = sub[0]
        span = tuple(vec(x - y for x, y in zip(s, base)) for s in sub[1:])
        normal = _null_vector(span, dim)
        if normal is None:
            continue
        offset = dot(normal, base)
        side_hi = all(dot(normal, p) <= offset for p in pts)
        side_lo = all(dot(normal, p) >= offset for p in pts)
        if side_hi and not side_lo:
            out.add(canon_facet(normal, offset))
        elif side_lo and not side_hi:
            out.add(canon_facet(vec(-x for x in normal), -offset))
    return out


def _null_vector(rows, dim):
    """A nonzero rational vector orthogonal to dim-1 independent rows, or None."""
    if len(rows) != dim - 1 or rank(rows) != dim - 1:
        return None
    for free in range(dim):
        a = list(rows)
        b = [Fraction(0)] * (dim - 1)
        unit = [Fraction(0)] * dim
        unit[free] = Fraction(1)
        a.append(vec(unit))
        b.append(Fraction(1))
        x = solve_by_gauss_jordan(a, b)
        if x is not None:
            return x
    return None


def brute_volume(points, dim) -> Fraction:
    """Exact volume of conv(points) by recursive projection.

    Fan the body into pyramids from its first vertex over the facets found
    by exhaustive subset search.  A pyramid over facet {a.x = b} projects
    bijectively onto a coordinate hyperplane (drop a coordinate k with
    a_k != 0), giving the rational recursion

        vol = sum over facets  |a . apex - b| * vol(proj(facet)) / (dim * |a_k|).
    """
    pts = list(dict.fromkeys(tuple(Fraction(c) for c in p) for p in points))
    if dim == 0:
        return Fraction(1)
    if dim == 1:
        xs = [p[0] for p in pts]
        return max(xs) - min(xs)
    facets = subset_facets(pts, dim)
    if not facets:
        return Fraction(0)
    apex = pts[0]
    total = Fraction(0)
    for normal, offset in facets:
        height = offset - dot(normal, apex)
        if height == 0:
            continue
        k = next(i for i, c in enumerate(normal) if c != 0)
        face = [p for p in pts if dot(normal, p) == offset]
        proj = [tuple(c for i, c in enumerate(p) if i != k) for p in face]
        total += abs(height) * brute_volume(proj, dim - 1) / (dim * abs(normal[k]))
    return total


def volume_by_pulling(p: Polytope) -> Fraction:
    """Exact volume by the pulling triangulation of the whole body from vertex 0.

    Faces are vertex bitmasks.  The children of a face are its maximal proper
    intersections with the facets' vertex sets, and a face is coned from its
    lowest vertex over the children that miss it, so every cell ends with the
    apex it was last coned from; a cell adds ``|det(v_i - v_apex)| / d!``.
    This is the triangulation ``volume`` keeps for bodies with no symmetry,
    applied to every body, with Fraction incidence and cofactor determinants.
    """
    verts = p.vertices
    masks = [sum(1 << i for i, v in enumerate(verts) if dot(a, v) == b) for a, b in p.facets]
    memo: dict[int, list[tuple[int, ...]]] = {}

    def pull(s: int) -> list[tuple[int, ...]]:
        if s not in memo:
            if s & (s - 1) == 0:
                memo[s] = [(s.bit_length() - 1,)]
            else:
                apex = (s & -s).bit_length() - 1
                cands = {s & f for f in masks} - {0, s}
                children = [c for c in cands if not any(c != o and c & o == c for o in cands)]
                memo[s] = [t + (apex,) for c in children if not c >> apex & 1 for t in pull(c)]
        return memo[s]

    total = Fraction(0)
    for cell in pull((1 << len(verts)) - 1):
        apex = verts[cell[-1]]
        total += abs(cofactor_det([vsub(verts[i], apex) for i in cell[:-1]]))
    return total / factorial(p.dim)


def pull_triangulation_unfiltered(s: int, dim: int, parent_facets, memo: dict) -> list[tuple[int, ...]]:
    """``polytope._pull_triangulation`` with every nonempty proper intersection ``s & o`` a face candidate.

    The children rule before the size filter: the facets of s are the maximal
    sets among all of them, whatever their size.
    """
    if s not in memo:
        if s.bit_count() == dim + 1:
            memo[s] = [tuple(i for i in range(s.bit_length() - 1, -1, -1) if s >> i & 1)]
        else:
            apex = (s & -s).bit_length() - 1
            facets = dd.maximal_sets({s & o for o in parent_facets} - {0, s})
            memo[s] = [
                t + (apex,)
                for c in facets
                if not c >> apex & 1
                for t in pull_triangulation_unfiltered(c, dim - 1, facets, memo)
            ]
    return memo[s]


def orthant_volume(p: Polytope, unused=None) -> Fraction:
    """Volume by orthant decomposition, all pieces done by brute force.

    Intersect with each closed sign orthant, enumerate the piece's vertices
    by exhaustive row subsets, and sum brute_volume over the pieces.  Never
    touches the library's double-description or triangulation paths.
    """
    n = p.dim
    total = Fraction(0)
    for signs in iter_product((1, -1), repeat=n):
        rows = list(p.facets)
        for i, s in enumerate(signs):
            e = [Fraction(0)] * n
            e[i] = Fraction(-s)
            rows.append((vec(e), Fraction(0)))
        verts = subset_vertices(rows, n)
        if len(verts) <= n:
            continue
        total += brute_volume(verts, n)
    return total


def has_induced_p4_by_orderings(g) -> bool:
    """P4 detection by trying all ordered 4-tuples as a path."""
    n = g.n

    def adj(i, j):
        return bool(g.adj[i] >> j & 1)

    for a, b, c, d in permutations(range(n), 4):
        if (
            adj(a, b)
            and adj(b, c)
            and adj(c, d)
            and not adj(a, c)
            and not adj(a, d)
            and not adj(b, d)
        ):
            return True
    return False


def mis_pairwise_disjoint(g) -> bool:
    """The maximal independent sets of g, by Bron-Kerbosch, are pairwise disjoint."""
    mis = maximal_independent_sets(g)
    return all(a & b == 0 for ai, a in enumerate(mis) for b in mis[ai + 1 :])


def independent_sets_exhaustive(g) -> list[int]:
    """Maximal independent sets (as bitmasks) by scanning all vertex subsets."""
    n = g.n
    indep = []
    for mask in range(1, 1 << n):
        ok = True
        for i in range(n):
            if mask >> i & 1 and g.adj[i] & mask:
                ok = False
                break
        if ok:
            indep.append(mask)
    return sorted(m for m in indep if not any(m != o and m & o == m for o in indep))


def p4_free_labeled_by_components(n: int) -> list:
    """Every labeled P4-free graph on 0..n-1, sorted by adjacency.

    A disconnected cograph is a connected cograph on the part holding the
    smallest label plus any cograph on the rest, and the connected ones on
    >= 2 vertices are exactly the complements of the disconnected ones.
    Graphs are frozensets of edges (i, j) with i < j.
    """
    memo_disc: dict = {}

    def disc(labels):
        if labels not in memo_disc:
            first, pool = labels[0], labels[1:]
            found = []
            for mask in range((1 << len(pool)) - 1):  # proper subsets of the rest
                part = (first,) + tuple(v for k, v in enumerate(pool) if mask >> k & 1)
                rest = tuple(v for k, v in enumerate(pool) if not mask >> k & 1)
                cs, gs = conn(part), every(rest)
                found.extend(c | g for c in cs for g in gs)
            memo_disc[labels] = found
        return memo_disc[labels]

    def conn(labels):
        if len(labels) == 1:
            return [frozenset()]
        pairs = frozenset(combinations(labels, 2))
        return [pairs - d for d in disc(labels)]

    def every(labels):
        return [frozenset()] if len(labels) == 1 else disc(labels) + conn(labels)

    return sorted((from_edges(n, es) for es in every(tuple(range(n)))), key=lambda g: g.adj)


def canonical_graph_key(g) -> tuple:
    """Lexicographically smallest edge list over all relabelings (small n only)."""
    n = g.n
    best = None
    for perm in permutations(range(n)):
        es = sorted(
            tuple(sorted((perm[i], perm[j])))
            for i in range(n)
            for j in range(i + 1, n)
            if g.adj[i] >> j & 1
        )
        key = tuple(es)
        if best is None or key < best:
            best = key
    return (n, best)


def permute_coordinates(p: Polytope, perm) -> Polytope:
    """Relabel coordinates: output coordinate i carries input coordinate perm[i]; the hull of the relabeled vertices."""
    pi = list(perm)
    if sorted(pi) != list(range(p.dim)):
        raise DimensionError("perm must be a permutation of 0..dim-1")
    return _hull([(tuple(v[k] for k in pi), t) for v, t in p.vertex_rows])


def hanner_by_sums(t) -> Polytope:
    """The Hanner ball of a labeled cotree by nested sums, no hull.

    Each leaf is ``interval(1)`` and each node the l1 or linf sum of its
    children in order; block coordinate k carries the k-th leaf in traversal
    order, so the block is permuted to put it at that leaf's coordinate.
    """
    leaves: list[int] = []

    def build(node) -> Polytope:
        if node[0] == "leaf":
            leaves.append(node[1])
            return interval(1)
        op, children = node
        acc = build(children[0])
        for c in children[1:]:
            nxt = build(c)
            acc = l1_sum(acc, nxt) if op == "l1" else linf_sum(acc, nxt)
        return acc

    block = build(t)
    position = [0] * len(leaves)
    for k, coord in enumerate(leaves):
        position[coord] = k
    return permute_coordinates(block, position)


def _project_affine(x, pts):
    """Orthogonal projection of x onto the affine hull of pts."""
    p0 = pts[0]
    basis = []
    for q in pts[1:]:
        w = vsub(q, p0)
        if rank(basis + [w]) > len(basis):
            basis.append(w)
    if not basis:
        return p0
    k = len(basis)
    gram = tuple(tuple(dot(basis[i], basis[j]) for j in range(k)) for i in range(k))
    rhs = tuple(dot(basis[i], vsub(x, p0)) for i in range(k))
    lam = solve_by_gauss_jordan(gram, rhs)
    assert lam is not None, "Gram matrix of an independent family is invertible"
    out = list(p0)
    for coef, w in zip(lam, basis):
        for i in range(len(out)):
            out[i] += coef * w[i]
    return tuple(out)


def distance_sq_by_subsets(p: Polytope, x) -> Fraction:
    """Squared distance from x to p via projections onto small vertex subsets.

    The nearest point of a polytope lies in the convex hull of at most dim+1
    affinely independent vertices; project onto the affine hull of every
    subset and keep projections that land back inside the body.
    """
    xx = vec(x)
    if membership(p, xx) != "outside":
        return Fraction(0)
    best = None
    for size in range(1, p.dim + 2):
        for sub in combinations(p.vertices, size):
            proj = _project_affine(xx, list(sub))
            if membership(p, proj) == "outside":
                continue
            d = sum((a - b) ** 2 for a, b in zip(xx, proj))
            if best is None or d < best:
                best = d
    assert best is not None
    return best


def distance_sq_by_fractions(p: Polytope, x) -> Fraction:
    """Squared distance from x to p by Wolfe's algorithm on Fraction vectors.

    The same corral steps as the package's integer version, written on the
    translated vertices w - x with Fraction dot products and the Gram system
    of the lifted points (w, 1) solved by ``solve_by_gauss_jordan``.
    """
    xx = vec(x)
    if membership(p, xx) != "outside":
        return Fraction(0)
    pts = [vsub(w, xx) for w in p.vertices]
    corral = [min(pts, key=lambda w: dot(w, w))]
    lam = [Fraction(1)]
    y = corral[0]
    while True:
        q = min(pts, key=lambda w: dot(y, w))
        if dot(y, q) >= dot(y, y):
            return dot(y, y)
        corral.append(q)
        lam.append(Fraction(0))
        while True:
            gram = tuple(tuple(dot(u, w) + 1 for w in corral) for u in corral)
            z = solve_by_gauss_jordan(gram, (Fraction(1),) * len(corral))
            assert z is not None, "the corral is affinely independent"
            total = sum(z)
            alpha = [zi / total for zi in z]
            if all(a > 0 for a in alpha):
                break
            assert all(a > 0 for li, a in zip(lam, alpha) if li == 0), "Wolfe: the point just added gets weight > 0"
            theta = min(li / (li - a) for li, a in zip(lam, alpha) if a <= 0)
            lam = [(1 - theta) * li + theta * a for li, a in zip(lam, alpha)]
            corral = [w for w, li in zip(corral, lam) if li > 0]
            lam = [li for li in lam if li > 0]
        lam = alpha
        y = tuple(sum(li * w[i] for li, w in zip(lam, corral)) for i in range(len(y)))


def hausdorff_by_full_scan(p: Polytope, q: Polytope) -> Fraction:
    """Squared Hausdorff distance as the largest distance from every vertex
    of each body to the other, with no symmetry used."""
    best = Fraction(0)
    for v in p.vertices:
        best = max(best, point_distance_sq(q, v))
    for w in q.vertices:
        best = max(best, point_distance_sq(p, w))
    return best


def coordinate_section_by_dd(p: Polytope, j: int) -> Polytope:
    """Slice of any body by x_j = 0, re-indexed: its facets with coordinate j dropped, through DD."""
    if not 0 <= j < p.dim:
        raise DimensionError(f"coordinate {j} out of range for dimension {p.dim}")
    if p.dim < 2:
        raise DimensionError("sections need ambient dimension at least 2")
    rows = []
    for a, b in p.facet_rows:
        a2 = a[:j] + a[j + 1 :]
        if not any(a2):
            if b < 0:
                raise DimensionError("section is empty")
            continue
        rows.append((a2, b))
    return from_halfspaces(rows, p.dim - 1)


def cube_cap_by_halfspaces(k: Polytope, s: Fraction) -> Polytope:
    """The cube cut by s*k as ``from_halfspaces`` of the cube's facet rows, then k's with offsets scaled by s."""
    n = k.dim
    return from_halfspaces(list(cube(n).facet_rows) + [(a, b * s) for a, b in k.facet_rows], n)


def to_json_dict_by_views(p: Polytope) -> dict:
    """``to_json_dict`` as ``str`` of each Fraction of the ``vertices`` and ``facets`` views."""
    return {
        "dim": p.dim,
        "vertices": [[str(x) for x in v] for v in p.vertices],
        "halfspaces": [{"normal": [str(x) for x in a], "offset": str(b)} for a, b in p.facets],
    }


def diagonal_truncation_by_sections(k: Polytope) -> tuple[Fraction, Fraction, Fraction]:
    """The diagonal truncation check with every coordinate section built.

    The inflation is the largest gauge of the all-ones corner in a section of
    the body; the capped body's sections are compared with the subcube; the
    capped body must be unconditional and normalized before its diagonal
    point t is read.  Returns (t, product, bound) and raises what the check
    raises on a falsification.
    """
    n = k.dim
    if n < 3:
        raise PreconditionError("the truncation bound needs dimension at least 3")
    corner = vec([1] * (n - 1))
    blow = max(gauge(coordinate_section_by_dd(k, j), corner) for j in range(n))
    rows = [(a, b * blow) for a, b in k.facets]
    for i in range(n):
        rows.append((unit_vec(n, i), Fraction(1)))
        rows.append((vec(-x for x in unit_vec(n, i)), Fraction(1)))
    capped = from_halfspaces(rows, n)
    sub = cube(n - 1)
    for j in range(n):
        if coordinate_section_by_dd(capped, j) != sub:
            raise ConsistencyError(f"inflated body's section {j} is not the full subcube")
    if not is_unconditional(capped):
        raise PreconditionError("diagonal point is defined for unconditional bodies")
    if any(gauge(capped, unit_vec(n, i)) != 1 for i in range(n)):
        raise PreconditionError("body is not normalized")
    t = 1 / gauge(capped, vec([1] * n))
    if t < Fraction(n - 1, n):
        raise FalsificationError("diagonal point below (n-1)/n with full cube sections")
    product = volume(capped) * volume(polar(capped))
    bound = corner_bound_factor(n, t) * mahler_bound(n)
    if product < bound:
        raise FalsificationError("diagonal truncation bound failed")
    return t, product, bound


def _section_volumes_by_rebuild(k: Polytope) -> list[Fraction]:
    if not is_unconditional(k):
        raise PreconditionError("coordinate sections are read only for unconditional bodies")
    if k.dim == 1:
        return [Fraction(1)]  # counting measure on the one-point section
    return [volume(coordinate_section_by_dd(k, j)) for j in range(k.dim)]


def section_products_by_rebuild(k: Polytope) -> list[Fraction]:
    """|K cap e_j-perp| * |K-polar cap e_j-perp|, every section built on the call.

    Uses the section of the polar, not the polar of the section, so the two
    sides of the unconditional duality are built independently.
    """
    vols = _section_volumes_by_rebuild(k)
    if k.dim == 1:
        return vols
    pk = polar(k)
    return [v * volume(coordinate_section_by_dd(pk, j)) for j, v in enumerate(vols)]


def section_membership_vector_by_rebuild(k: Polytope) -> tuple[Fraction, ...]:
    """The vector 2|K cap e_j-perp| / (n |K|), every section built on the call."""
    n = k.dim
    return vec(2 * v / (n * volume(k)) for v in _section_volumes_by_rebuild(k))
