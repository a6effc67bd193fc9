"""Exact convex polytopes with both vertex and facet descriptions.

A Polytope holds integer rows only: one ``(V, t)`` per vertex V/t, t > 0 its
least common denominator, and one primitive ``(A, B)`` per facet
``<A, x> <= B`` (coprime entries; only positive scalings keep an inequality).
Both are canonical, so equal polytopes have equal rows, and a polytope hashes
its int tuples.  Vertices are sorted lexicographically on V/t and facets on
``(A/|B|, sign B)`` (A/1 when B = 0), both by ``_sorted_rows`` on integer
keys.  ``vertices`` and ``facets`` are Fraction views for outside callers,
built on each read and never kept; JSON is written from the rows.  Inside
the package every point is a row, no body is built from halfspaces, and only
the public entry points clear a Fraction point, once.

DD (:mod:`.dd`) takes and returns these rows as they stand; operations known
in closed form build them directly.  ``polar`` swaps the two row tuples: with
the origin interior every B > 0, and as ``gcd(A, B) = 1``, ``(A, B)`` is the
polar's vertex row and ``(V, t)`` its facet row, in the same order.

An unconditional body K, the hull of the sign orbits of closed-orthant rows
``(V, t)`` with V >= 0, is built by ``_orthant_hull`` from the representatives
alone, with one DD run on the orthant cone (``dd.orthant_hull_facets``)
``C = {(a, s) : a >= 0, <V, a> <= s*t for each representative}``: |P| + n
rows instead of up to 2^n*|P|.  For a >= 0, ``<a, x> <= s`` holds on a sign
orbit iff it holds at its representative, so C holds the valid inequalities
of K whose normals have no negative entry; the facets of K among them are the
facets of ``K cap R+^n`` off the coordinate hyperplanes.  Such a facet, extreme
among all valid inequalities, is extreme in C, and every facet of K is a sign
flip of one, so K's facets are the sign orbits of the rays of C that are
facets.  The cover rule tells them from C's other rays, facet normals with
some coordinate set to zero: a ray ``(a, s)`` is a facet of K iff every i with
``a_i = 0`` is nonzero on some representative tight on it, read off the tight
bitmasks of the DD run.  If so, that V and its flip at i are both tight and
differ by a multiple of ``e_i``, so the tight points of K span the rows of C
tight on ``(a, s)``, which have rank n.  If not, every tight point of K has x_i = 0,
and as ``a`` is no multiple of ``e_i`` the face has dimension below n - 1;
the ray ``(0, 1)`` fails this way.  Every coordinate nonzero on some
representative makes K full-dimensional and every ray's s positive.  A
representative is a vertex of K iff its row is a facet of C, the flag DD
sets: a point that is no vertex has a row implied on a >= 0 by the vertex
rows, and a vertex's facet of the polar keeps full dimension
when folded into the orthant.  ``_make`` sorts both row sets, so the body is
the one ``_hull`` of the full orbit gives.

The vertex-facet incidence is the lazy field ``_facet_masks``, one vertex
bitmask per facet row: facet ``(A, B)`` holds vertex i iff
``<A, V_i> == B*t_i``; ``_vertex_masks`` is its transpose.  ``polar`` swaps
the two like the rows, since the polar's facet k is the body's vertex k, and
computes neither; a handed-on ``_vertex_masks`` is transposed on the first
read of ``_facet_masks``.

A coordinate section of an unconditional body K is read off that incidence
with no DD run.  For x in K its flip ``s_j x`` (x_j negated) is in K, so
the projection ``P_j x``, their midpoint, is in ``K cap e_j-perp``: the
section is the projection ``P_j K``.  Its vertices are therefore among the
``P_j v`` of K's vertex rows with ``v_j >= 0``.  Its facets lie in facets of
K, as x_j = 0 meets K's interior, and ``s_j`` maps facets to facets, so they
are among K's facet rows with ``a_j >= 0`` and a nonzero rest, coordinate j
dropped.  ``P_j v`` is tight on a facet iff v and ``s_j v`` both are, so its
tight set is the meet of theirs.  The face rule ``dd.maximal_sets`` then
picks the facets, the nonempty maximal tight sets of the candidates, and the
vertices, the candidates whose sets of chosen facets are maximal.

A point is cleared once to ``X/dx``; ``membership`` compares the ints
``<A, X>`` and ``B*dx``, and ``gauge`` takes the largest ``<A, X>/B`` by
cross-multiplication (every B > 0 when the origin is interior), starting
from 0/1, and builds one Fraction at the end.

Volume is a sum of cones from one apex over the facets that miss it, one
facet per orbit of the reflections that fix the body, each cone weighted by
the size of its orbit (``_orbit_weight``).  Which reflections fix the body is
read once into the lazy field ``_symmetry``: 2 when every coordinate sign
flip does, 1 when only the negation does, 0 otherwise; ``is_unconditional``
reads it.  An unconditional body cones from the origin over the facets whose
normals have no negative coordinate, each of weight 2^(number of nonzero
coordinates); a centrally symmetric one over the facets whose first nonzero
normal coordinate is positive, each of weight 2; any other body cones from
vertex 0 over every facet that misses it, with weight 1.  This is exact: a
reflection g fixing the body maps conv(0, F) onto conv(0, gF), which has the
same volume.  Each facet is triangulated by pulling: cone from its first
vertex over its own facets that miss it, recursively.  The facets of a face
are its maximal proper intersections with its parent's facets (bitmasks of
``_facet_masks``, no rank work); they depend on the face alone, so the
triangulations are shared through a memo keyed by the mask.  Against the
apex ``(V_z, t_z)``, which is ``(0, 1)`` for the origin, a cell's edge rows
``E_i = t_z*V_i - t_i*V_z`` give it volume
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
pair when both are centrally symmetric.  Each scanned vertex row is the
cleared point ``(X, dx)`` as it stands.
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
    _clip,
    format_ratio,
    fr,
    int_det,
    int_row,
    int_solve,
    parse_fraction,
    parse_int,
    primitive_int_vec,
    vec,
)

Row = tuple[tuple[int, ...], int]
Facet = tuple[Vec, Fraction]


def _primitive_row(a: Iterable[int], b: int) -> Row:
    """``(a, b)`` divided by the gcd of all its entries, signs kept."""
    *a, b = primitive_int_vec((*a, b))
    return tuple(a), b


def _int_facet(normal: Sequence[Fraction | int], offset: Fraction | int) -> Row:
    """The primitive integer row ``(A, B)`` of ``<normal, x> <= offset``."""
    *a, b = int_row((*normal, offset))[0]
    return _primitive_row(a, b)


def _sorted_rows(rows: Iterable[Row]) -> tuple[Row, ...]:
    """The distinct rows ``(R, s)`` sorted on R/|s| (R/1 when s = 0) by integer keys over one lcm.

    For facets this is the order on ``(A/|B|, sign B)``: no two facets share A/|B|.
    """
    rows = set(rows)
    scale = math.lcm(*(abs(s) or 1 for _, s in rows))

    def key(r: Row) -> list[int]:
        m = scale // (abs(r[1]) or 1)
        return [x * m for x in r[0]]

    return tuple(sorted(rows, key=key))


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional polytope, exact V- and H-representation as integer rows."""

    dim: int
    vertex_rows: tuple[Row, ...]
    facet_rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionError("dimension must be positive")
        if len(self.vertex_rows) < self.dim + 1 or not self.facet_rows:
            raise ConsistencyError("polytope needs at least dim+1 vertices and one facet")

    @property
    def vertices(self) -> tuple[Vec, ...]:
        """The vertices V/t as Fraction vectors, in row order; built on each read, never kept."""
        return tuple(tuple(Fraction(x, t) for x in v) for v, t in self.vertex_rows)

    @property
    def facets(self) -> tuple[Facet, ...]:
        """The facets as ``(A/|B|, sign B)``, A/1 when B = 0, in row order; built like ``vertices``."""
        return tuple(
            (tuple(Fraction(x, abs(b) or 1) for x in a), Fraction((b > 0) - (b < 0))) for a, b in self.facet_rows
        )

    @cached_property
    def _symmetry(self) -> int:
        """2 if every coordinate sign flip fixes the body, else 1 if the negation does, else 0.

        Read on the vertex rows ``(V, t)``, which a reflection maps to rows of
        the same t, and kept on the body.
        """
        rows = self.vertex_rows
        vset = set(rows)
        if all((v[:i] + (-v[i],) + v[i + 1 :], t) in vset for v, t in rows for i in range(self.dim)):
            return 2
        return int(all((tuple(-x for x in v), t) in vset for v, t in rows))

    @cached_property
    def _facet_masks(self) -> tuple[int, ...]:
        """One vertex bitmask per facet row: facet (A, B) holds vertex V/t iff ``<A, V> == B*t``.

        Kept like ``_symmetry``; the transpose of a ``_vertex_masks`` that ``polar`` handed on.
        """
        handed = vars(self).get("_vertex_masks")
        if handed is not None:
            return tuple(dd.transpose(handed, self.n_facets))
        verts = self.vertex_rows
        return tuple(
            sum(1 << i for i, (v, t) in enumerate(verts) if sum(map(mul, row, v)) == b * t) for row, b in self.facet_rows
        )

    @cached_property
    def _vertex_masks(self) -> tuple[int, ...]:
        """One facet bitmask per vertex row, the transpose of ``_facet_masks``; kept like it."""
        return tuple(dd.transpose(self._facet_masks, self.n_vertices))

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_rows)

    @property
    def n_facets(self) -> int:
        return len(self.facet_rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Polytope(dim={self.dim}, vertices={self.n_vertices}, facets={self.n_facets})"


def _make(dim: int, vertex_rows: Iterable[Row], facet_rows: Iterable[Row]) -> Polytope:
    """The polytope of canonical vertex rows ``(V, t)`` and primitive facet rows ``(A, B)``, repeats allowed."""
    return Polytope(dim, _sorted_rows(vertex_rows), _sorted_rows(facet_rows))


def from_vertices(points: Sequence[Sequence[Fraction | int]]) -> Polytope:
    """Convex hull: keeps only the extreme points, derives all facets."""
    pts = [vec(p) for p in points]
    if not pts:
        raise DimensionError("empty point set")
    dim = len(pts[0])
    if not dim:
        raise DimensionError("points need at least one coordinate")
    if any(len(p) != dim for p in pts):
        raise DimensionError("points have different dimensions")
    return _hull([int_row(p) for p in pts])


def _hull(rows: Sequence[Row]) -> Polytope:
    """``from_vertices`` of the points V/t given as canonical rows ``(V, t)``, as ``int_row`` clears them."""
    facets, flags = dd.hull_facets(rows)
    return _make(len(rows[0][0]), [r for r, f in zip(rows, flags) if f], facets)


def _orthant_hull(reps: Sequence[Row]) -> Polytope:
    """``_hull`` of the sign orbits of the closed-orthant rows ``(V, t)``, V >= 0, by one DD run on the orthant cone."""
    facets, flags = dd.orthant_hull_facets(reps)
    return _make(
        len(reps[0][0]),
        [(u, t) for (v, t), f in zip(reps, flags) if f for u in sign_orbit(v)],
        [(a, b) for r, b in facets for a in sign_orbit(r)],
    )


def from_halfspaces(ineqs: Sequence[tuple[Sequence[Fraction | int], Fraction | int]], dim: int) -> Polytope:
    """Bounded intersection of halfspaces ``<a, x> <= b``; drops redundant ones."""
    pairs = [(vec(a), fr(b)) for a, b in ineqs]
    if any(len(a) != dim for a, _ in pairs):
        raise DimensionError(f"every halfspace normal needs dimension {dim}")
    rows = [_int_facet(a, b) for a, b in pairs]
    verts, flags = dd.polyhedron_vertices(rows, dim)
    return _make(dim, verts, [r for r, f in zip(rows, flags) if f])


def cube(n: int) -> Polytope:
    """[-1, 1]^n, built directly."""
    facets = [(e, 1) for i in range(n) for e in sign_orbit(tuple(int(k == i) for k in range(n)))]
    return _make(n, [(v, 1) for v in sign_orbit((1,) * n)], facets)


def cross_polytope(n: int) -> Polytope:
    """conv(+-e_i), the unit l1 ball: the polar of the cube."""
    return polar(cube(n))


def interval(radius: Fraction | int = 1) -> Polytope:
    r = fr(radius)
    if r <= 0:
        raise PreconditionError("interval radius must be positive")
    p, q = r.numerator, r.denominator
    return _make(1, [((-p,), q), ((p,), q)], [((q,), p), ((-q,), p)])


# ---------------------------------------------------------------------------
# pointwise queries


def _point_row(p: Polytope, x: Sequence[Fraction | int]) -> Row:
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
    for row, b in p.facet_rows:
        s = sum(map(mul, row, x_row))  # <a, x> <= b  iff  s <= B*dx
        rhs = b * dx
        if s > rhs:
            return "outside"
        if s == rhs:
            on_boundary = True
    return "boundary" if on_boundary else "interior"


def contains_origin_interior(p: Polytope) -> bool:
    return all(b > 0 for _, b in p.facet_rows)


def gauge(p: Polytope, x: Sequence[Fraction | int]) -> Fraction:
    """Minkowski gauge: least t >= 0 with x in t*p.  Needs 0 interior."""
    if not contains_origin_interior(p):
        raise PreconditionError("gauge needs the origin in the interior")
    return _row_gauge(p, *_point_row(p, x))


def _row_gauge(p: Polytope, x_row: tuple[int, ...], dx: int) -> Fraction:
    """``gauge`` of the point already cleared to ``(X, dx)``, on a body with the origin interior."""
    best, over = 0, 1  # the largest <A, X> / B so far, as best / over
    for row, b in p.facet_rows:
        s = sum(map(mul, row, x_row))
        if s * over > best * b:
            best, over = s, b
    return Fraction(best, over * dx)


def polar(p: Polytope) -> Polytope:
    """Polar dual.  Exact and free: the vertex and facet rows swap, and so do the incidence masks p holds."""
    if not contains_origin_interior(p):
        raise PolarityDomainError("polar needs the origin in the interior")
    q = Polytope(p.dim, p.facet_rows, p.vertex_rows)
    for mine, theirs in (("_facet_masks", "_vertex_masks"), ("_vertex_masks", "_facet_masks")):
        if mine in vars(p):
            vars(q)[theirs] = vars(p)[mine]
    return q


def sign_orbit(v: Sequence[Fraction | int]) -> list[tuple]:
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
    """Image under diag(scales); scales must be nonzero.

    With scales S/ds, vertex V/t goes to S*V/(ds*t) and facet (A, B) to (A*ds/S, B).
    """
    s = vec(scales)
    if len(s) != p.dim:
        raise DimensionError("one scale per coordinate")
    if any(x == 0 for x in s):
        raise PreconditionError("diagonal scales must be nonzero")
    srow, ds = int_row(s)
    m = math.lcm(*srow)
    verts = [_primitive_row(map(mul, srow, v), ds * t) for v, t in p.vertex_rows]
    facets = [_primitive_row([x * ds * (m // si) for si, x in zip(srow, a)], b * m) for a, b in p.facet_rows]
    return _make(p.dim, verts, facets)


def normalize_unconditional(p: Polytope) -> Polytope:
    """Diagonal rescale putting every +-e_i on the boundary.

    For an unconditional body this lands it between the cross polytope and
    the cube, which is the reference position used by the reconstruction and
    stability code.  A body already in that position is returned itself.
    """
    if not is_unconditional(p):
        raise PreconditionError("normalization is defined for unconditional polytopes")
    gs = [_row_gauge(p, tuple(int(k == i) for k in range(p.dim)), 1) for i in range(p.dim)]
    if all(g == 1 for g in gs):
        return p  # diag(1, ..., 1) p equals p, so skip the rebuild
    return diagonal_image(p, gs)


# ---------------------------------------------------------------------------
# sums and products


def _check_sum_operands(p: Polytope, q: Polytope, what: str) -> None:
    if not (contains_origin_interior(p) and contains_origin_interior(q)):
        raise InvalidSumError(f"{what} needs the origin interior to both summands")


def linf_sum(p: Polytope, q: Polytope) -> Polytope:
    """Cartesian product p x q on block coordinates."""
    _check_sum_operands(p, q, "linf_sum")
    verts = []
    for v, t in p.vertex_rows:
        for w, u in q.vertex_rows:
            lcm = math.lcm(t, u)
            verts.append((tuple(x * (lcm // t) for x in v) + tuple(y * (lcm // u) for y in w), lcm))
    facets = [(a + (0,) * q.dim, b) for a, b in p.facet_rows]
    facets += [((0,) * p.dim + a, b) for a, b in q.facet_rows]
    return _make(p.dim + q.dim, verts, facets)


def l1_sum(p: Polytope, q: Polytope) -> Polytope:
    """conv(p x {0} union {0} x q) on block coordinates: the polar of polar(p) x polar(q)."""
    _check_sum_operands(p, q, "l1_sum")
    return polar(linf_sum(polar(p), polar(q)))


def coordinate_section(p: Polytope, j: int) -> Polytope:
    """Slice of an unconditional body by x_j = 0, re-indexed to the remaining coordinates.

    Read off p's ``_facet_masks`` with no DD run (see the module docstring).
    """
    if not 0 <= j < p.dim:
        raise DimensionError(f"coordinate {j} out of range for dimension {p.dim}")
    if p.dim < 2:
        raise DimensionError("sections need ambient dimension at least 2")
    if not is_unconditional(p):
        raise PreconditionError("coordinate sections are built for unconditional bodies")
    rows = p.vertex_rows
    on = p._vertex_masks  # vertex i -> the facets holding it
    at = {r: i for i, r in enumerate(rows)}
    # P_j v, the midpoint of v and its flip, is tight on a facet iff both are
    verts = [(v, t) for v, t in rows if v[j] >= 0]
    tight = [on[at[v, t]] & on[at[v[:j] + (-v[j],) + v[j + 1 :], t]] for v, t in verts]
    by_set: dict[int, Row] = {}  # the candidate vertices on a candidate facet -> that facet's row
    for on_f, (a, b) in zip(dd.transpose(tight, len(p.facet_rows)), p.facet_rows):
        a2 = a[:j] + a[j + 1 :]
        if on_f and a[j] >= 0 and any(a2):
            by_set[on_f] = (a2, b)
    facet_sets = list(dd.maximal_sets(set(by_set)))
    vertex_sets = dd.transpose(facet_sets, len(verts))
    corners = dd.maximal_sets(set(vertex_sets))
    facets = [_primitive_row(*by_set[s]) for s in facet_sets]
    section_sets = {  # the section's vertex row -> the facets holding it
        _primitive_row(v[:j] + v[j + 1 :], t): s for (v, t), s in zip(verts, vertex_sets) if s in corners
    }
    q = _make(p.dim - 1, section_sets, facets)
    # the vertex sets are the section's incidence: hand it on in q's row order
    at_facet = {r: k for k, r in enumerate(q.facet_rows)}
    masks = [0] * len(facets)
    for r, m in zip(facets, dd.transpose([section_sets[r] for r in q.vertex_rows], len(facets))):
        masks[at_facet[r]] = m
    vars(q)["_facet_masks"] = tuple(masks)
    return q


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
    verts = p.vertex_rows
    facet_masks = p._facet_masks
    symmetry = p._symmetry
    if symmetry:
        apex, tz = (0,) * d, 1  # the origin
        cones = [(f, w) for f, (row, _) in zip(facet_masks, p.facet_rows) if (w := _orbit_weight(row, symmetry))]
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
            solved = int_solve(gram, [[1] * len(corral)])
            if solved is None:
                raise ConsistencyError("Wolfe: the corral is affinely dependent")
            u = solved[0][0]
            total = sum(u)
            if total <= 0:
                raise ConsistencyError("Wolfe: the lifted Gram matrix is not positive definite")
            if all(ui > 0 for ui in u):
                break
            alpha = [Fraction(ui, total) for ui in u]
            if any(a <= 0 for li, a in zip(lam, alpha) if li == 0):
                raise ConsistencyError("Wolfe: the point just added gets weight <= 0")
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
    return _row_distance_sq(p, *_point_row(p, x))


def _row_distance_sq(p: Polytope, x_row: tuple[int, ...], dx: int) -> Fraction:
    """``point_distance_sq`` of the point already cleared to ``(X, dx)``."""
    if _row_membership(p, x_row, dx) != "outside":
        return Fraction(0)
    rows = p.vertex_rows
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
    best = Fraction(0)
    for body, other in ((p, q), (q, p)):
        for v, t in body.vertex_rows:
            if _orbit_weight(v, symmetry):
                best = max(best, _row_distance_sq(other, v, t))
    return best


# ---------------------------------------------------------------------------
# serialization and checking


def to_json_dict(p: Polytope) -> dict:
    return {
        "dim": p.dim,
        "vertices": [[format_ratio(x, t) for x in v] for v, t in p.vertex_rows],
        "halfspaces": [
            {"normal": [format_ratio(x, abs(b) or 1) for x in a], "offset": str((b > 0) - (b < 0))} for a, b in p.facet_rows
        ],
    }


def from_json_dict(data: dict) -> Polytope:
    """Parse a polytope; cross-checks the halfspace block when present.

    Every listed point must actually be a vertex, and the primitive integer
    rows of a listed halfspace block must be exactly the derived facet rows,
    each halfspace with a nonzero normal.  Anything else
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
    listed = set(p.vertex_rows)
    extra = [v for v in verts if int_row(v) not in listed]
    if extra:
        x_row, dx = int_row(min(extra))
        shown = ", ".join(_clip(format_ratio(x, dx)) for x in x_row) + "," * (dim == 1)  # as a tuple prints
        raise FormatError(f"listed point ({shown}) is not a vertex")
    if "halfspaces" in data:
        try:
            given = {
                _int_facet(tuple(parse_fraction(s) for s in h["normal"]), parse_fraction(h["offset"]))
                for h in data["halfspaces"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad halfspace payload: {exc}") from exc
        if not all(any(a) for a, _ in given):
            raise FormatError("bad halfspace payload: facet normal must be nonzero")
        if given != set(p.facet_rows):
            raise FormatError("halfspaces do not match the hull of the vertices")
    return p

