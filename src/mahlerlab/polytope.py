"""Exact convex polytopes with both vertex and facet descriptions.

A Polytope is a frozen pair of representations: the lexicographically sorted
vertex tuple and the canonically scaled facet tuple.  Both are exact, so two
polytopes are equal iff they are the same set of points, and instances can be
hashed and cached.  All constructors go through the double description
conversion in :mod:`.dd`, except for operations whose output representation
is known in closed form (polar, diagonal images, direct sums, products),
which build the result directly.

Facet canonical form:  a facet ``<a, x> <= b`` is scaled so that the offset
is +1, -1 or 0; in the 0 case the normal is reduced to a primitive integer
vector (only positive scalings preserve an inequality, so the sign of the
normal is kept as is).  For a bounded polytope with the origin interior every
offset canonicalizes to +1, which is what the polar swap requires.

Pointwise queries read each facet as an integer row: ``_facet_rows``, built
on first read and kept off the dataclass fields (so equality, hashing and
JSON never see it), holds ``(A, c, b)`` with integer A, c > 0, ``a = A/c`` and
int b.  A point is cleared once to ``X/dx``; ``membership`` compares the ints
``<A, X>`` and ``b*c*dx``, and ``gauge`` takes the largest ``<A, X>/c`` by
cross-multiplication (``s*c' > s'*c``, both c positive), starting from 0/1,
and builds one Fraction at the end.

Volume is a sum of cones from one apex over the facets that miss it, one
facet per orbit of the reflections that fix the body, each cone weighted by
the size of its orbit (``_orbit_weight``).  Which reflections fix the body is
read once into ``_symmetry``, a lazy field built and kept like
``_facet_rows``: 2 when every coordinate sign flip does, 1 when only the
negation does, 0 otherwise; ``is_unconditional`` reads it.  An unconditional
body cones from the origin over the facets whose normals have no negative
coordinate, each of weight 2^(number of nonzero coordinates); a centrally
symmetric one over the facets whose first nonzero normal coordinate is
positive, each of weight 2; any other body cones from vertex 0 over every
facet that misses it, with weight 1.  This is exact: a reflection g fixing
the body maps conv(0, F) onto conv(0, gF), which has the same volume.  Each
facet is triangulated by pulling: cone from its first vertex over its own
facets that miss it, recursively.  The facets of a face are its maximal
proper intersections with its parent's facets (bitmasks, no rank work); they
depend on the face alone, so the triangulations are shared through a memo
keyed by the mask.  It reads ``_vertex_rows`` (built and kept like
``_facet_rows``): one ``(V, t)`` per vertex, t > 0 its own least common
denominator.  Facet ``(A, c, b)`` holds vertex i iff ``<A, V_i> == b*c*t_i``.
Against the apex ``(V_z, t_z)``, which is ``(0, 1)`` for the origin, a
cell's edge rows ``E_i = t_z*V_i - t_i*V_z`` give it volume
``|int_det(E)| / (prod t_i * t_z^d * d!)``; the weighted ints are summed per
``prod t_i`` and divided once, over their lcm.

The distance from a point to a polytope is the norm of the min-norm point of
the translated vertices, found exactly by Wolfe's algorithm on the same
vertex rows: a point cleared to ``X/dx`` and ``L = lcm(dx, t_1, t_2, ...)``
give the translated rows ``W_i = V_i*(L/t_i) - X*(L/dx)``, and the squared
distance is the squared min-norm of the W divided by L^2.
Wolfe keeps its iterate as ``y = Y/s`` (integer Y, s > 0, reduced by their
gcd after each major step), so its stop test ``<y, q> >= <y, y>`` becomes the
integer ``<Y, q>*s >= <Y, Y>``.  The affine minimiser of a corral comes from
the integer Gram system of the lifted points (w, 1), ``(G + J) u = det * 1``,
as ``alpha = u / sum(u)``.  The lift needs no rescaling: for every c > 0,
``(G + cJ) z = 1`` gives ``G z = (1 - c*sum(z)) * 1``, which with
``alpha = z / sum(z)`` is the optimality condition ``G alpha = mu * 1``,
``sum(alpha) = 1`` of the unique affine minimiser.  The answers are the ones
a Fraction run gives, step for step, since every comparison is the same
comparison cleared of positive denominators.  The Hausdorff
distance is the largest distance from a vertex of either body to the other,
and an isometry g fixing both bodies gives d(g v, q) = d(v, q), so one vertex
per orbit of such reflections gives the same maximum.  The reflections are
those of the weaker symmetry of the two bodies, and the vertices scanned are
the orbit representatives ``volume`` picks among facet normals: the closed
positive orthant when both bodies are unconditional, one vertex of each +-
pair when both are centrally symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Sequence

from . import dd
from .errors import (
    ConsistencyError,
    DimensionError,
    FormatError,
    InvalidSumError,
    PolarityDomainError,
    PreconditionError,
)
from .ratlin import (
    Vec,
    fr,
    int_det,
    int_row,
    int_solve,
    parse_fraction,
    parse_int,
    primitive_int_vec,
    unit_vec,
    vec,
    zero_vec,
)

Facet = tuple[Vec, Fraction]


def canon_facet(normal: Vec, offset: Fraction) -> Facet:
    """Scale ``<normal, x> <= offset`` to offset in {+1, -1, 0}."""
    if all(x == 0 for x in normal):
        raise PreconditionError("facet normal must be nonzero")
    if offset > 0:
        return tuple(x / offset for x in normal), Fraction(1)
    if offset < 0:
        return tuple(x / -offset for x in normal), Fraction(-1)
    prim = primitive_int_vec(int_row(normal)[0])
    return tuple(Fraction(x) for x in prim), Fraction(0)


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional polytope, exact V- and H-representation."""

    dim: int
    vertices: tuple[Vec, ...]
    facets: tuple[Facet, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionError("dimension must be positive")
        if len(self.vertices) < self.dim + 1 or not self.facets:
            raise ConsistencyError("polytope needs at least dim+1 vertices and one facet")

    @cached_property
    def _facet_rows(self) -> tuple[tuple[tuple[int, ...], int, int], ...]:
        """Each facet ``<a, x> <= b`` as ``(A, c, b)``: integer A, c > 0, a = A/c, int b.

        Built on first read and kept in the instance ``__dict__``; not a
        dataclass field, so equality, hashing and ordering never see it.
        """
        return tuple((*int_row(a), int(b)) for a, b in self.facets)

    @cached_property
    def _vertex_rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Each vertex v as ``(V, t)``: integer V, t > 0 its least common denominator, v = V/t.

        Built and kept like ``_facet_rows``, outside the dataclass fields.
        """
        return tuple(map(int_row, self.vertices))

    @cached_property
    def _symmetry(self) -> int:
        """2 if every coordinate sign flip fixes the body, else 1 if the negation does, else 0.

        Read on the vertex rows ``(V, t)``, which a reflection maps to rows of
        the same t, and kept like ``_facet_rows``.
        """
        rows = self._vertex_rows
        vset = set(rows)
        if all((v[:i] + (-v[i],) + v[i + 1 :], t) in vset for v, t in rows for i in range(self.dim)):
            return 2
        return int(all((tuple(-x for x in v), t) in vset for v, t in rows))

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, computed once and kept like ``_facet_rows``.

        Cache lookups on a body then skip re-hashing every Fraction of it.
        """
        return hash((self.dim, self.vertices, self.facets))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Polytope(dim={self.dim}, vertices={self.n_vertices}, facets={self.n_facets})"


def _make(dim: int, vertices: Iterable[Vec], facets: Iterable[Facet]) -> Polytope:
    vs = tuple(sorted(set(vertices)))
    fs = tuple(sorted(set(canon_facet(a, b) for a, b in facets)))
    return Polytope(dim, vs, fs)


def from_vertices(points: Sequence[Sequence[Fraction | int]]) -> Polytope:
    """Convex hull: keeps only the extreme points, derives all facets."""
    pts = [vec(p) for p in points]
    if not pts:
        raise DimensionError("empty point set")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise DimensionError("points have different dimensions")
    facets, flags = dd.hull_facets(pts)
    verts = [p for p, f in zip(pts, flags) if f]
    return _make(dim, verts, facets)


def from_halfspaces(ineqs: Sequence[tuple[Sequence[Fraction | int], Fraction | int]], dim: int) -> Polytope:
    """Bounded intersection of halfspaces ``<a, x> <= b``; drops redundant ones."""
    rows = [(vec(a), fr(b)) for a, b in ineqs]
    if any(len(a) != dim for a, _ in rows):
        raise DimensionError(f"every halfspace normal needs dimension {dim}")
    verts, flags = dd.polyhedron_vertices(rows, dim)
    facets = [row for row, f in zip(rows, flags) if f]
    return _make(dim, verts, facets)


def cube(n: int) -> Polytope:
    """[-1, 1]^n, built directly."""
    facets = [(e, Fraction(1)) for i in range(n) for e in sign_orbit(unit_vec(n, i))]
    return _make(n, sign_orbit((Fraction(1),) * n), facets)


def cross_polytope(n: int) -> Polytope:
    """conv(+-e_i), the unit l1 ball: the polar of the cube."""
    return polar(cube(n))


def interval(radius: Fraction | int = 1) -> Polytope:
    r = fr(radius)
    if r <= 0:
        raise PreconditionError("interval radius must be positive")
    return _make(1, [(-r,), (r,)], [((Fraction(1),), r), ((Fraction(-1),), r)])


# ---------------------------------------------------------------------------
# pointwise queries


def _point_row(p: Polytope, x: Sequence[Fraction | int]) -> tuple[tuple[int, ...], int]:
    """The point x of p's space cleared to ``(X, dx)``: integer X, dx > 0, x = X/dx."""
    v = vec(x)
    if len(v) != p.dim:
        raise DimensionError(f"point has dimension {len(v)}, polytope {p.dim}")
    return int_row(v)


def membership(p: Polytope, x: Sequence[Fraction | int]) -> str:
    """'interior', 'boundary' or 'outside', decided exactly."""
    return _row_membership(p, *_point_row(p, x))


def _row_membership(p: Polytope, x_row: tuple[int, ...], dx: int) -> str:
    """``membership`` of the point already cleared to ``(X, dx)`` by ``_point_row``."""
    on_boundary = False
    for row, c, b in p._facet_rows:
        s = sum(map(mul, row, x_row))  # <a, v> = s / (c * dx)
        rhs = b * c * dx
        if s > rhs:
            return "outside"
        if s == rhs:
            on_boundary = True
    return "boundary" if on_boundary else "interior"


def contains_origin_interior(p: Polytope) -> bool:
    return all(b == 1 for _, b in p.facets)


def gauge(p: Polytope, x: Sequence[Fraction | int]) -> Fraction:
    """Minkowski gauge: least t >= 0 with x in t*p.  Needs 0 interior."""
    if not contains_origin_interior(p):
        raise PreconditionError("gauge needs the origin in the interior")
    x_row, dx = _point_row(p, x)
    best, over = 0, 1  # the largest <a, v> * dx so far, as best / over
    for row, c, _ in p._facet_rows:
        s = sum(map(mul, row, x_row))
        if s * over > best * c:
            best, over = s, c
    return Fraction(best, over * dx)


def polar(p: Polytope) -> Polytope:
    """Polar dual.  Exact and free: vertices and facet normals swap roles."""
    if not contains_origin_interior(p):
        raise PolarityDomainError("polar needs the origin in the interior")
    # every offset is 1, so the sorted facets list their normals in sorted
    # order, and each sorted vertex v gives the canonical facet (v, 1)
    return Polytope(p.dim, tuple(a for a, _ in p.facets), tuple((v, Fraction(1)) for v in p.vertices))


def sign_orbit(v: Sequence[Fraction]) -> list[Vec]:
    """Every vector obtained from v by flipping the signs of its nonzero coordinates.

    Bit k of the pattern index flips the k-th nonzero coordinate, so the
    first entry is v itself.
    """
    support = [i for i, x in enumerate(v) if x]
    out = []
    for signs in range(1 << len(support)):
        w = list(v)
        for k, i in enumerate(support):
            if signs >> k & 1:
                w[i] = -w[i]
        out.append(tuple(w))
    return out


def is_unconditional(p: Polytope) -> bool:
    """True when the vertex set is closed under coordinate sign flips."""
    return p._symmetry == 2


def diagonal_image(p: Polytope, scales: Sequence[Fraction | int]) -> Polytope:
    """Image under diag(scales); scales must be nonzero."""
    s = vec(scales)
    if len(s) != p.dim:
        raise DimensionError("one scale per coordinate")
    if any(x == 0 for x in s):
        raise PreconditionError("diagonal scales must be nonzero")
    verts = [tuple(si * vi for si, vi in zip(s, v)) for v in p.vertices]
    facets = [(tuple(ai / si for si, ai in zip(s, a)), b) for a, b in p.facets]
    return _make(p.dim, verts, facets)


def normalize_unconditional(p: Polytope) -> Polytope:
    """Diagonal rescale putting every +-e_i on the boundary.

    For an unconditional body this lands it between the cross polytope and
    the cube, which is the reference position used by the reconstruction and
    stability code.  A body already in that position is returned itself.
    """
    if not is_unconditional(p):
        raise PreconditionError("normalization is defined for unconditional polytopes")
    gs = [gauge(p, unit_vec(p.dim, i)) for i in range(p.dim)]
    if all(g == 1 for g in gs):
        return p  # diag(1, ..., 1) p equals p, so skip the rebuild
    return diagonal_image(p, gs)


# ---------------------------------------------------------------------------
# sums and products


def _embed(v: Vec, before: int, after: int) -> Vec:
    return zero_vec(before) + v + zero_vec(after)


def _check_sum_operands(p: Polytope, q: Polytope, what: str) -> None:
    if not (contains_origin_interior(p) and contains_origin_interior(q)):
        raise InvalidSumError(f"{what} needs the origin interior to both summands")


def linf_sum(p: Polytope, q: Polytope) -> Polytope:
    """Cartesian product p x q on block coordinates."""
    _check_sum_operands(p, q, "linf_sum")
    dim = p.dim + q.dim
    verts = [v + w for v in p.vertices for w in q.vertices]
    facets = [(_embed(a, 0, q.dim), b) for a, b in p.facets]
    facets += [(_embed(a, p.dim, 0), b) for a, b in q.facets]
    return _make(dim, verts, facets)


def l1_sum(p: Polytope, q: Polytope) -> Polytope:
    """conv(p x {0} union {0} x q) on block coordinates."""
    _check_sum_operands(p, q, "l1_sum")
    dim = p.dim + q.dim
    verts = [_embed(v, 0, q.dim) for v in p.vertices]
    verts += [_embed(w, p.dim, 0) for w in q.vertices]
    facets = [(a + c, Fraction(1)) for a, _ in p.facets for c, _ in q.facets]
    return _make(dim, verts, facets)


def coordinate_section(p: Polytope, j: int) -> Polytope:
    """Slice by the hyperplane x_j = 0, re-indexed to the remaining coordinates."""
    if not 0 <= j < p.dim:
        raise DimensionError(f"coordinate {j} out of range for dimension {p.dim}")
    if p.dim < 2:
        raise DimensionError("sections need ambient dimension at least 2")
    keep = [i for i in range(p.dim) if i != j]
    rows: list[tuple[Vec, Fraction]] = []
    for a, b in p.facets:
        a2 = tuple(a[i] for i in keep)
        if all(x == 0 for x in a2):
            if b < 0:
                raise DimensionError("section is empty")
            continue
        rows.append((a2, b))
    return from_halfspaces(rows, p.dim - 1)


def permute_coordinates(p: Polytope, perm: Sequence[int]) -> Polytope:
    """Relabel coordinates: output coordinate i carries input coordinate perm[i]."""
    pi = list(perm)
    if sorted(pi) != list(range(p.dim)):
        raise DimensionError("perm must be a permutation of 0..dim-1")
    verts = [tuple(v[k] for k in pi) for v in p.vertices]
    facets = [(tuple(a[k] for k in pi), b) for a, b in p.facets]
    return _make(p.dim, verts, facets)


# ---------------------------------------------------------------------------
# volume


def _pull_triangulation(s: int, parent_facets: Iterable[int], memo: dict[int, list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """Simplices (as vertex-id tuples) of the pulling triangulation of face s.

    ``parent_facets`` are the facets (vertex masks) of a face that has s as a
    facet.  The facets of s are its maximal proper intersections with them:
    every face of s is an intersection of the parent's facets, all
    codimension-1 faces of s occur, and anything lower-dimensional is
    swallowed by one of them, so maximality alone (``dd.maximal_sets``)
    identifies them with no rank computations.  They depend on s alone, so
    the memo is keyed by s.
    """
    got = memo.get(s)
    if got is not None:
        return got
    if s & (s - 1) == 0:
        out = [(s.bit_length() - 1,)]
        memo[s] = out
        return out
    apex = (s & -s).bit_length() - 1
    facets = dd.maximal_sets({s & o for o in parent_facets} - {0, s})
    out = []
    for c in facets:
        if c >> apex & 1:
            continue
        for t in _pull_triangulation(c, facets, memo):
            out.append(t + (apex,))
    memo[s] = out
    return out


@lru_cache(maxsize=4096)
def volume(p: Polytope) -> Fraction:
    """Exact volume: cones from one apex over one facet per symmetry orbit (see the module docstring)."""
    d = p.dim
    verts = p._vertex_rows
    facet_masks = []
    for row, c, b in p._facet_rows:
        bc = b * c  # <a, V/t> == b  iff  <row, V> == b*c*t
        facet_masks.append(sum(1 << i for i, (v, t) in enumerate(verts) if sum(map(mul, row, v)) == bc * t))
    symmetry = p._symmetry
    if symmetry:
        apex, tz = (0,) * d, 1  # the origin
        cones = [(f, w) for f, (row, _, _) in zip(facet_masks, p._facet_rows) if (w := _orbit_weight(row, symmetry))]
    else:
        apex, tz = verts[0]
        cones = [(f, 1) for f in facet_masks if not f & 1]
    edges = [tuple(tz * x - t * y for x, y in zip(v, apex)) for v, t in verts]
    by_den: dict[int, int] = {}  # prod t_i over a cell's vertices -> weighted sum of |det|
    memo: dict[int, list[tuple[int, ...]]] = {}
    for f, w in cones:
        for cell in _pull_triangulation(f, facet_masks, memo):
            q = math.prod([verts[i][1] for i in cell])
            by_den[q] = by_den.get(q, 0) + w * abs(int_det([edges[i] for i in cell]))
    lcm = math.lcm(*by_den)
    return Fraction(sum(n * (lcm // q) for q, n in by_den.items()), lcm * tz**d * math.factorial(d))


# ---------------------------------------------------------------------------
# distances


def _min_norm_sq(pts: list[tuple[int, ...]]) -> Fraction:
    """The squared norm of the point of least norm in conv(pts), by Wolfe's algorithm.

    The corral, affinely independent points holding y with positive weights,
    starts as the first point of least norm.  Each major step adds the first
    minimiser q of <y, q>, or stops when <y, q> >= <y, y>, which certifies y
    optimal.  Minor steps move y towards the affine minimiser of the corral
    while the weights stay nonnegative, dropping the points whose weight
    reaches zero.  The norm falls strictly, so no corral repeats (P. Wolfe,
    Finding the nearest point in a polytope, Math. Programming 11, 1976).

    The points are integer rows and y = Y/s with integer Y and s > 0, so the
    stop test is ``<Y, q> * s >= <Y, Y>``.  The affine minimiser solves the
    integer Gram system ``(G + J) u = det * 1`` of the lifted points (w, 1)
    and is ``u / sum(u)``: G + J is positive definite, so det > 0 and
    ``sum(u) = det * <1, (G + J)^-1 1> > 0``.
    """
    corral = [min(pts, key=lambda w: sum(map(mul, w, w)))]
    lam = [Fraction(1)]
    y_row, s = corral[0], 1
    while True:
        q = min(pts, key=lambda w: sum(map(mul, y_row, w)))
        yy = sum(map(mul, y_row, y_row))
        if sum(map(mul, y_row, q)) * s >= yy:
            return Fraction(yy, s * s)
        corral.append(q)
        lam.append(Fraction(0))
        while True:
            gram = [[sum(map(mul, a, b)) + 1 for b in corral] for a in corral]
            solved = int_solve(gram, [1] * len(corral))
            assert solved is not None, "the corral is affinely independent"
            u = solved[0]
            total = sum(u)
            assert total > 0, "the lifted Gram matrix is positive definite"
            if all(ui > 0 for ui in u):
                break
            alpha = [Fraction(ui, total) for ui in u]
            assert all(a > 0 for li, a in zip(lam, alpha) if li == 0), "Wolfe: the point just added gets weight > 0"
            theta = min(li / (li - a) for li, a in zip(lam, alpha) if a <= 0)
            lam = [(1 - theta) * li + theta * a for li, a in zip(lam, alpha)]
            corral = [w for w, li in zip(corral, lam) if li > 0]
            lam = [li for li in lam if li > 0]
        lam = [Fraction(ui, total) for ui in u]
        y_row = [sum(ui * w[i] for ui, w in zip(u, corral)) for i in range(len(y_row))]
        g = math.gcd(total, *y_row)
        y_row, s = [c // g for c in y_row], total // g


def point_distance_sq(p: Polytope, x: Sequence[Fraction | int]) -> Fraction:
    """Exact squared Euclidean distance from x to the polytope."""
    x_row, dx = _point_row(p, x)
    if _row_membership(p, x_row, dx) != "outside":
        return Fraction(0)
    rows = p._vertex_rows
    scale = math.lcm(dx, *(t for _, t in rows))  # L: every vertex and x are integer on 1/L
    sx = scale // dx
    return _min_norm_sq([tuple(a * (scale // t) - b * sx for a, b in zip(row, x_row)) for row, t in rows]) / scale**2


def _orbit_weight(v: Sequence[Fraction | int], symmetry: int) -> int:
    """The size of v's orbit under the reflections of class ``symmetry`` if v represents it, else 0.

    Class 2: v with no negative coordinate stands for its 2^(nonzero count)
    sign flips.  Class 1: v != 0 with its first nonzero coordinate positive
    stands for {v, -v}.  Class 0: every v stands for itself.
    """
    if symmetry == 2:
        return 1 << sum(1 for x in v if x) if min(v) >= 0 else 0
    if symmetry == 1:
        return 2 if next(x for x in v if x) > 0 else 0
    return 1


def hausdorff_distance_sq(p: Polytope, q: Polytope) -> Fraction:
    """Exact squared Hausdorff distance between two polytopes.

    Scans one vertex per orbit of the reflections that fix both bodies (see
    the module docstring); the maximum is the same as over every vertex.
    """
    if p.dim != q.dim:
        raise DimensionError("polytopes live in different dimensions")
    if p == q:
        return Fraction(0)
    symmetry = min(p._symmetry, q._symmetry)
    scanned = [[v for v in b.vertices if _orbit_weight(v, symmetry)] for b in (p, q)]
    best = Fraction(0)
    for vs, other in zip(scanned, (q, p)):
        for v in vs:
            best = max(best, point_distance_sq(other, v))
    return best


# ---------------------------------------------------------------------------
# serialization and checking


def to_json_dict(p: Polytope) -> dict:
    return {
        "dim": p.dim,
        "vertices": [[str(x) for x in v] for v in p.vertices],
        "halfspaces": [
            {"normal": [str(x) for x in a], "offset": str(b)} for a, b in p.facets
        ],
    }


def from_json_dict(data: dict) -> Polytope:
    """Parse a polytope; cross-checks the halfspace block when present.

    Every listed point must actually be a vertex, and a listed halfspace
    block must canonicalize to exactly the derived facet set.  Anything else
    raises FormatError, since a file that disagrees with itself should never
    be silently repaired.
    """
    try:
        dim = parse_int(data["dim"])
        raw = data["vertices"]
        verts = [tuple(parse_fraction(s) for s in row) for row in raw]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad polytope payload: {exc}") from exc
    if any(len(v) != dim for v in verts):
        raise FormatError("vertex rows disagree with dim")
    try:
        p = from_vertices(verts)
    except DimensionError as exc:
        raise FormatError(str(exc)) from exc
    if set(verts) != set(p.vertices):
        extra = sorted(set(verts) - set(p.vertices))[0]
        raise FormatError(f"listed point {tuple(map(str, extra))} is not a vertex")
    if "halfspaces" in data:
        try:
            given = {
                canon_facet(tuple(parse_fraction(s) for s in h["normal"]), parse_fraction(h["offset"]))
                for h in data["halfspaces"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad halfspace payload: {exc}") from exc
        if given != set(p.facets):
            raise FormatError("halfspaces do not match the hull of the vertices")
    return p

