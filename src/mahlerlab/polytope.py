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
when folded into the orthant.  Both row sets are sorted, so the body is
the one ``_hull`` of the full orbit gives.  ``cube`` and ``interval`` are
such bodies, of the one representative (1, ..., 1) or r.

The vertex-facet incidence is the field ``_facet_masks``, one vertex
bitmask per facet row: facet ``(A, B)`` holds vertex i iff
``<A, V_i> == B*t_i``; ``_vertex_masks`` is its transpose.  Every constructor
stores it at birth.  ``_hull``, ``from_halfspaces``, ``coordinate_section``,
``linf_sum`` and a sorted ``diagonal_image`` re-index each vertex's facet set
(DD's tight sets, the section's vertex sets, the product rule, p's sets) to
the sorted rows once, with no dot product (``_make_with_incidence``).
``_orthant_hull`` reads it off the representatives by the orbit rule: for
representatives a, v >= 0 and sign flips tau of a and sigma of v, the vertex
``sigma v`` lies on the facet ``tau a`` iff v is tight on a and tau = sigma
on ``supp(a) cap supp(v)``.
Indeed ``<tau a, sigma v> = sum tau_i sigma_i a_i v_i <= <a, v> <= s*t``, with
equality iff v is tight on a and every term ``a_i v_i > 0`` keeps its sign.
Only the representatives that are vertices are read: one that is not can
still be tight on a facet.  For each tight pair, v's orbit is grouped once by
its signs on the common support, so each facet ``tau a`` is one OR per tight
representative.  ``polar`` swaps the masks like the rows, since the polar's
facet k is the body's vertex k: its field is p's ``_vertex_masks``, read (and
kept) on p, and its ``_vertex_masks`` is p's field, so a second polar
transposes nothing.
``diagonal_image`` hands the masks on as they stand when every scale is
positive and no facet passes through the origin.  A positive diagonal map D
keeps lexicographic order, since two points first differ in the same
coordinate after the map and a positive factor keeps the sign of that
difference.  It maps the vertex keys V/t to ``D (V/t)`` and the facet keys
A/|B| to ``D^-1 A/|B|``, so the rows come out sorted and in p's order.  (A
row ``(A, 0)`` is keyed on A itself, which the map rescales row by row.)
Otherwise the rows are sorted again, and each image vertex keeps p's facet
set, as D maps p's faces onto the image's.  In ``linf_sum`` the vertex
``(v, w)`` lies on the facet ``a + 0`` iff v lies on a, and on ``0 + b`` iff w
lies on b.

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
``coordinate_section`` is a public reference: no package path calls it, and
the tests compare the section volumes below with those of its sections.

The section volumes of an unconditional body K come from its orthant piece
``P = K cap R+^n`` with no section built (``_orthant_section_volumes``).
For x >= 0 and a sign flip sigma, ``<sigma A, x> <= <A, x>``, so P is
``{x >= 0 : <A, x> <= B}`` over K's facet representatives ``(A, B)``, A >= 0.
Its vertices x/r are the rays (x, r) of the cone ``{(x, r) : x >= 0,
<A, x> <= r*B}``, the orthant run of ``dd.orthant_cone`` with the facet
representatives as its points; r > 0 on every ray, as P is bounded, and
the origin is ray 0.  ``K cap e_j-perp`` is unconditional, and its piece in
the closed orthant of ``e_j-perp`` is ``P cap {x_j = 0}``, a facet of P, as
the origin is interior to K; its vertices are the rays tight on the row
``x_j >= 0``.  The 2^(n-1) sign flips of that piece cover the section and
meet in measure zero, so ``|K cap e_j-perp| = 2^(n-1) * vol(P cap {x_j =
0})``.  The facet is triangulated by pulling from vertex 0, the origin, over
P's facet masks, the rows DD flags (coordinate rows included): its facets
through the origin are skipped, so every cell ends at the origin, whose row
is zero, and its volume is the determinant of its other vertices with
coordinate j dropped.  A face's
triangulation depends on the face alone, so one memo serves every j.  The
section is the projection ``P_j K``, whose polar in ``e_j-perp`` is ``K
polar cap e_j-perp``; K polar's facet representatives are K's vertex
representatives, so the polar volumes are the same construction on those.

A point is cleared once to ``X/dx``; ``membership`` compares the ints
``<A, X>`` and ``B*dx``, and ``gauge`` takes the largest ``<A, X>/B`` by
cross-multiplication (every B > 0 when the origin is interior), starting
from 0/1, and builds one Fraction at the end.  Both read only the facet rows
that stand for their orbit under the reflections fixing the body, the field
``_facet_reps``, the rows ``_orbit_weights`` gives a weight (``_vertex_reps``
holds the vertex rows picked the same way).  On an unconditional body a row
``A >= 0`` folds its orbit: ``<sigma A, x> <= <A, |x|>`` for every sign flip
sigma, with equality at the flip that gives A the signs of x, so
``<sigma A, x> <= B`` holds on the whole orbit iff ``<A, |x|> <= B``, and
equality holds there iff it holds on some row of the orbit.  A centrally
symmetric body pairs each facet ``(A, B)`` with ``(-A, B)`` and tests
``|<A, x>| <= B``; any other body reads every row.  Each body filters its
rows once, on the first read.  With the origin interior a gauge of 1 is the
boundary and one above 1 the outside, so the package tests a gauge against 1
as the integer ``membership`` it equals.

Standard position, every +-e_i on the boundary, is read off the vertex
representatives.  For an unconditional body K the axis intercept
``max{s : s*e_i in K}`` equals the support value ``h_K(e_i) = max{x_i : x in
K}``.  It is at most that, as ``s*e_i`` has x_i = s.  And a maximiser x,
averaged over the sign flips of its coordinates other than i, is the point
``h_K(e_i)*e_i``, which lies in K by convexity.  A linear function peaks at a
vertex, and each vertex is a sign flip of a closed-orthant row with the same
|x_i|, so ``h_K(e_i)`` is the largest ``V_i/t`` over any closed-orthant rows
whose orbits span K, and the gauge of e_i is its inverse (``_axis_gauges``,
by cross-multiplication).  ``normalize_unconditional`` maps K by those
gauges, and returns K itself when all are 1.  ``perturb_unconditional`` maps
its representatives before their one hull: a positive diagonal map commutes
with sign flips and with hulls, and rows are canonical, so the orthant hull
of the mapped rows is the ``diagonal_image`` of theirs, its incidence and
class included.

Volume is a sum of cones from one apex over the facets that miss it, one
facet per orbit of the reflections that fix the body, each cone weighted by
the size of its orbit (``_orbit_weights``, read once per body for all its
facet rows).  Which reflections fix the body is
the field ``_symmetry``: 2 when every coordinate sign flip does, 1 when only
the negation does, 0 otherwise; ``is_unconditional`` reads it.  Every
constructor stores it at birth: 2 for ``_orthant_hull`` and
``coordinate_section`` (a section of an unconditional body is
unconditional); ``polar`` keeps it, since a reflection
fixes K iff it fixes K polar, and ``diagonal_image`` keeps it, since a
diagonal map D commutes with every such reflection g, so g fixes DK iff it
fixes K.  ``linf_sum`` takes the lesser class of its factors, as a
reflection fixes p x q iff its parts fix p and q, and ``_hull`` and
``from_halfspaces`` read it off the vertex rows (``_symmetry_scan``).
An unconditional body cones from the origin over the facets whose
normals have no negative coordinate, each of weight 2^(number of nonzero
coordinates); a centrally symmetric one over the facets whose first nonzero
normal coordinate is positive, each of weight 2; any other body cones from
vertex 0 over every facet that misses it, with weight 1.  This is exact: a
reflection g fixing the body maps conv(0, F) onto conv(0, gF), which has the
same volume.  Each facet is triangulated by pulling: cone from its first
vertex over its own facets that miss it, recursively, down to faces that are
simplices.  The facets of a face are its maximal proper intersections with
its parent's facets (bitmasks of ``_facet_masks``, no rank work); only
intersections with at least as many vertices as the face's dimension can be
facets, and only they are kept.  They depend on the face alone, so the
triangulations are shared through a memo keyed by the mask.  Against the
apex ``(V_z, t_z)`` a cell's edge rows ``E_i = t_z*V_i - t_i*V_z`` give it
volume ``|det(E)| / (prod t_i * t_z^d * d!)``.  With the origin as apex
(classes 1 and 2), ``(V_z, t_z) = (0, 1)`` and ``E_i = V_i``: the cell rows
are the vertex rows as they stand, and only class 0 builds edge rows.  Each
cell goes straight to the fraction-free elimination (``ratlin._bareiss``);
the weighted ints are summed per ``prod t_i`` and divided once, over their
lcm (``_cell_sum``, which the section volumes share).

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
cleared point ``(X, dx)`` as it stands.  Each vertex's Wolfe run is capped
at the largest distance found so far, which keeps the maximum exact: every
iterate lies in the hull, so its squared norm bounds the vertex's distance
from above, a run stopped at ``|y|^2 <= best`` cannot raise the maximum, and
a vertex farther than ``best`` never meets the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
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
    _bareiss,
    _clip,
    format_ratio,
    fr,
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
    When every |s| is the same, the key is R itself, and as no two rows share
    R/|s| the row tuples sort in that order with no key.
    """
    rows = set(rows)
    dens = {abs(s) or 1 for _, s in rows}
    if len(dens) < 2:
        return tuple(sorted(rows))
    scale = math.lcm(*dens)

    def key(r: Row) -> list[int]:
        m = scale // (abs(r[1]) or 1)
        return [x * m for x in r[0]]

    return tuple(sorted(rows, key=key))


@dataclass(frozen=True)
class Polytope:
    """Bounded full-dimensional polytope, exact V- and H-representation as integer rows.

    Its symmetry class and vertex-facet incidence (module docstring) are given at birth; identity reads the rows.
    """

    dim: int
    vertex_rows: tuple[Row, ...]
    facet_rows: tuple[Row, ...]
    _symmetry: int = field(compare=False)
    _facet_masks: tuple[int, ...] = field(compare=False)

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
    def _vertex_masks(self) -> tuple[int, ...]:
        """One facet bitmask per vertex row, the transpose of ``_facet_masks``; kept on first read."""
        return tuple(dd.transpose(self._facet_masks, self.n_vertices))

    @cached_property
    def _vertex_reps(self) -> tuple[Row, ...]:
        """The vertex rows that stand for their orbit under the reflections of ``_symmetry``, in row order.

        One ``_orbit_weights`` filter per body, kept like ``_vertex_masks``.
        """
        return tuple(compress(self.vertex_rows, _orbit_weights(self.vertex_rows, self._symmetry)))

    @cached_property
    def _facet_reps(self) -> tuple[Row, ...]:
        """The facet rows that stand for their orbit, in row order; kept like ``_vertex_reps``."""
        return tuple(compress(self.facet_rows, _orbit_weights(self.facet_rows, self._symmetry)))

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_rows)

    @property
    def n_facets(self) -> int:
        return len(self.facet_rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"Polytope(dim={self.dim}, vertices={self.n_vertices}, facets={self.n_facets})"


def _symmetry_scan(dim: int, rows: Sequence[Row]) -> int:
    """``_symmetry`` read off the vertex rows ``(V, t)``, which a reflection maps to rows of the same t."""
    vset = set(rows)
    if all((v[:i] + (-v[i],) + v[i + 1 :], t) in vset for v, t in rows for i in range(dim)):
        return 2
    return int(all((tuple(-x for x in v), t) in vset for v, t in rows))


def _make_with_incidence(dim: int, on: dict[Row, int], facets: Sequence[Row], symmetry: int | None = None) -> Polytope:
    """The polytope of the vertex rows ``on`` and the distinct facet rows ``facets``, sorted, with their incidence.

    Bit k of ``on[v]`` marks the vertex v on ``facets[k]``; the masks are
    re-indexed once to the sorted rows, with no dot product.  A class the
    caller does not know is read off the vertex rows by ``_symmetry_scan``.
    """
    verts, rows = _sorted_rows(on), _sorted_rows(facets)
    cols = dd.transpose([on[r] for r in verts], len(facets))
    at = {r: k for k, r in enumerate(facets)}
    masks = tuple(cols[at[r]] for r in rows)
    return Polytope(dim, verts, rows, _symmetry_scan(dim, verts) if symmetry is None else symmetry, masks)


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
    facets, flags, sets = dd.hull_facets(rows)
    return _make_with_incidence(len(rows[0][0]), {r: s for r, f, s in zip(rows, flags, sets) if f}, facets)


def _orthant_hull(reps: Sequence[Row]) -> Polytope:
    """``_hull`` of the sign orbits of the closed-orthant rows ``(V, t)``, V >= 0, by one DD run on the orthant cone.

    The body is unconditional, and its incidence comes from the tight vertex
    representatives by the orbit rule of the module docstring.
    """
    facets, flags, tight = dd.orthant_hull_facets(reps)
    orbits = {k: _flips(v) for k, ((v, _), f) in enumerate(zip(reps, flags)) if f}  # the vertices, up to sign
    facet_orbits = [_flips(a) for a, _ in facets]
    verts = _sorted_rows((w, reps[k][1]) for k, orbit in orbits.items() for _, w in orbit)
    rows = _sorted_rows((w, b) for (_, b), orbit in zip(facets, facet_orbits) for _, w in orbit)
    at_vertex = {r: i for i, r in enumerate(verts)}
    at_facet = {r: i for i, r in enumerate(rows)}
    bits = {k: [(flip, 1 << at_vertex[w, reps[k][1]]) for flip, w in orbit] for k, orbit in orbits.items()}
    vertex_reps = sum(1 << k for k in orbits)
    masks = [0] * len(rows)
    for (_, b), orbit, on in zip(facets, facet_orbits, tight):
        tables = []  # per vertex representative v tight on this facet's a: v's orbit by its flips on supp(a) & supp(v)
        on &= vertex_reps
        while on:
            k = (on & -on).bit_length() - 1
            on &= on - 1
            common = orbit[-1][0] & orbits[k][-1][0]  # the last flip of an orbit flips the whole support
            table = [0] * (common + 1)
            for flip, bit in bits[k]:
                table[flip & common] |= bit
            tables.append((common, table))
        for flip, w in orbit:
            m = 0
            for common, table in tables:
                m |= table[flip & common]
            masks[at_facet[w, b]] = m
    return Polytope(len(reps[0][0]), verts, rows, 2, tuple(masks))


def from_halfspaces(ineqs: Sequence[tuple[Sequence[Fraction | int], Fraction | int]], dim: int) -> Polytope:
    """Bounded intersection of halfspaces ``<a, x> <= b``; drops redundant ones."""
    pairs = [(vec(a), fr(b)) for a, b in ineqs]
    if any(len(a) != dim for a, _ in pairs):
        raise DimensionError(f"every halfspace normal needs dimension {dim}")
    rows = [_int_facet(a, b) for a, b in pairs]
    verts, flags, sets = dd.polyhedron_vertices(rows, dim)
    facets = {r: s for r, f, s in zip(rows, flags, sets) if f}  # repeated rows merged: DD flags every copy
    on = dd.transpose(list(facets.values()), len(verts))  # vertex -> the facets holding it
    return _make_with_incidence(dim, dict(zip(verts, on)), list(facets))


def cube(n: int) -> Polytope:
    """[-1, 1]^n, the orthant hull of the point (1, ..., 1)."""
    return _orthant_hull([((1,) * n, 1)])


def cross_polytope(n: int) -> Polytope:
    """conv(+-e_i), the unit l1 ball: the polar of the cube."""
    return polar(cube(n))


def interval(radius: Fraction | int = 1) -> Polytope:
    """[-r, r], the orthant hull of the point r > 0."""
    r = fr(radius)
    if r <= 0:
        raise PreconditionError("interval radius must be positive")
    return _orthant_hull([((r.numerator,), r.denominator)])


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
    """``membership`` of the point already cleared to ``(X, dx)`` by ``_point_row``, on p's facet representatives."""
    symmetry = p._symmetry
    if symmetry == 2:
        x_row = tuple(map(abs, x_row))
    on_boundary = False
    for row, b in p._facet_reps:
        s = sum(map(mul, row, x_row))  # <a, x> <= b  iff  s <= B*dx
        if symmetry == 1:
            s = abs(s)
        rhs = b * dx
        if s > rhs:
            return "outside"
        if s == rhs:
            on_boundary = True
    return "boundary" if on_boundary else "interior"


def contains_origin_interior(p: Polytope) -> bool:
    """True when every facet offset is positive; a body of class 1 or 2 is symmetric about 0 and so has it."""
    return p._symmetry > 0 or all(b > 0 for _, b in p.facet_rows)


def gauge(p: Polytope, x: Sequence[Fraction | int]) -> Fraction:
    """Minkowski gauge: least t >= 0 with x in t*p.  Needs 0 interior."""
    if not contains_origin_interior(p):
        raise PreconditionError("gauge needs the origin in the interior")
    return _row_gauge(p, *_point_row(p, x))


def _row_gauge(p: Polytope, x_row: tuple[int, ...], dx: int) -> Fraction:
    """``gauge`` of the point already cleared to ``(X, dx)``, on a body with the origin interior.

    Scans p's facet representatives, folded like ``_row_membership``.
    """
    symmetry = p._symmetry
    if symmetry == 2:
        x_row = tuple(map(abs, x_row))
    best, over = 0, 1  # the largest <A, X> / B so far, as best / over
    for row, b in p._facet_reps:
        s = sum(map(mul, row, x_row))
        if symmetry == 1:
            s = abs(s)
        if s * over > best * b:
            best, over = s, b
    return Fraction(best, over * dx)


def polar(p: Polytope) -> Polytope:
    """Polar dual.  Exact: the vertex and facet rows swap, and so do the incidence masks.

    p's symmetry class is handed on too, since a reflection fixes K iff it fixes K polar.
    The polar's ``_vertex_masks`` is p's ``_facet_masks``, kept, so ``polar(polar(p))`` transposes nothing.
    """
    if not contains_origin_interior(p):
        raise PolarityDomainError("polar needs the origin in the interior")
    q = Polytope(p.dim, p.facet_rows, p.vertex_rows, p._symmetry, p._vertex_masks)
    vars(q)["_vertex_masks"] = p._facet_masks
    return q


def _flips(v: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """The sign orbit of v, v first and -v on supp(v) last, each w with the bitmask of the coordinates it flips."""
    out = [(0, tuple(v))]
    for i, x in enumerate(v):
        if x:
            out += [(flip | 1 << i, w[:i] + (-x,) + w[i + 1 :]) for flip, w in out]
    return out


def is_unconditional(p: Polytope) -> bool:
    """True when the vertex set is closed under coordinate sign flips."""
    return p._symmetry == 2


def diagonal_image(p: Polytope, scales: Sequence[Fraction | int]) -> Polytope:
    """Image under diag(scales); scales must be nonzero.

    With scales S/ds, vertex V/t goes to S*V/(ds*t) and facet (A, B) to (A*ds/S, B).
    The symmetry class is p's.  With every scale positive and every B nonzero
    the rows keep their order (module docstring), so p's incidence is handed on
    and nothing is sorted.
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
    if min(srow) > 0 and all(b for _, b in p.facet_rows):
        return Polytope(p.dim, tuple(verts), tuple(facets), p._symmetry, p._facet_masks)
    return _make_with_incidence(p.dim, dict(zip(verts, p._vertex_masks)), facets, p._symmetry)


def _axis_gauges(reps: Iterable[Row], dim: int) -> list[Fraction] | None:
    """The gauges ``1/h(e_i)`` of the unconditional body of the closed-orthant rows ``reps``, None when all are 1.

    ``h(e_i)``, the largest ``V_i/t`` over the rows (module docstring), is
    found by cross-multiplication, so a body in standard position builds no
    Fraction.
    """
    best = [(0, 1)] * dim  # per coordinate, the (V_i, t) of the largest V_i/t so far
    for v, t in reps:
        best = [(x, t) if x * u > y * t else (y, u) for x, (y, u) in zip(v, best)]
    if all(y == u for y, u in best):
        return None
    return [Fraction(u, y) for y, u in best]


def normalize_unconditional(p: Polytope) -> Polytope:
    """Diagonal rescale putting every +-e_i on the boundary.

    For an unconditional body this lands it between the cross polytope and
    the cube, which is the reference position used by the reconstruction and
    stability code.  The scales are the axis gauges, read off p's vertex
    representatives by ``_axis_gauges`` with no facet scan.  A body already
    in that position is returned itself.
    """
    if not is_unconditional(p):
        raise PreconditionError("normalization is defined for unconditional polytopes")
    gs = _axis_gauges(p._vertex_reps, p.dim)
    return p if gs is None else diagonal_image(p, gs)


# ---------------------------------------------------------------------------
# sums and products


def _check_sum_operands(p: Polytope, q: Polytope, what: str) -> None:
    if not (contains_origin_interior(p) and contains_origin_interior(q)):
        raise InvalidSumError(f"{what} needs the origin interior to both summands")


def linf_sum(p: Polytope, q: Polytope) -> Polytope:
    """Cartesian product p x q on block coordinates."""
    _check_sum_operands(p, q, "linf_sum")
    on = {}  # (v, w) lies on a + 0 iff v lies on a, and on 0 + b iff w lies on b
    for (v, t), vm in zip(p.vertex_rows, p._vertex_masks):
        for (w, u), wm in zip(q.vertex_rows, q._vertex_masks):
            lcm = math.lcm(t, u)
            on[(tuple(x * (lcm // t) for x in v) + tuple(y * (lcm // u) for y in w), lcm)] = vm | wm << p.n_facets
    facets = [(a + (0,) * q.dim, b) for a, b in p.facet_rows]
    facets += [((0,) * p.dim + a, b) for a, b in q.facet_rows]
    return _make_with_incidence(p.dim + q.dim, on, facets, min(p._symmetry, q._symmetry))


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
    # the vertex sets are the section's incidence, and a section of an unconditional body is unconditional
    return _make_with_incidence(p.dim - 1, section_sets, facets, 2)


# ---------------------------------------------------------------------------
# volume


def _pull_triangulation(
    s: int, dim: int, parent_facets: Iterable[int], memo: dict[int, list[tuple[int, ...]]]
) -> list[tuple[int, ...]]:
    """Simplices (as vertex-id tuples, highest id first) of the pulling triangulation of face s.

    s has dimension dim, so with dim + 1 vertices it is a simplex, its own one cell.
    ``parent_facets`` are the facets (vertex masks) of a face that has s as a
    facet.  The facets of s are its maximal proper intersections with them:
    every face of s is an intersection of the parent's facets, all
    codimension-1 faces of s occur, and anything lower-dimensional is
    swallowed by one of them, so maximality alone (``dd.maximal_sets``)
    identifies them with no rank computations.  Only intersections with at
    least dim vertices are candidates: a facet of s, of dimension dim - 1,
    has at least dim vertices, and a set containing a smaller one is no
    smaller, so dropping them changes no maximal set.  The facets depend on s
    alone, so the memo is keyed by s.
    """
    got = memo.get(s)
    if got is not None:
        return got
    if s.bit_count() == dim + 1:
        cell, rest = [], s
        while rest:
            cell.append(rest.bit_length() - 1)
            rest ^= 1 << cell[-1]
        out = [tuple(cell)]
        memo[s] = out
        return out
    apex = (s & -s).bit_length() - 1
    facets = dd.maximal_sets({c for o in parent_facets if (c := s & o).bit_count() >= dim and c != s})
    out = []
    for c in facets:
        if c >> apex & 1:
            continue
        for t in _pull_triangulation(c, dim - 1, facets, memo):
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
    if symmetry:  # the origin as apex: the cell rows are the vertex rows
        tz = 1
        rows = [v for v, _ in verts]
        cones = [(f, w) for f, w in zip(facet_masks, _orbit_weights(p.facet_rows, symmetry)) if w]
    else:
        apex, tz = verts[0]
        rows = [tuple(tz * x - t * y for x, y in zip(v, apex)) for v, t in verts]
        cones = [(f, 1) for f in facet_masks if not f & 1]
    memo: dict[int, list[tuple[int, ...]]] = {}
    triangulations = ((_pull_triangulation(f, d - 1, facet_masks, memo), w) for f, w in cones)
    return _cell_sum(triangulations, rows, [t for _, t in verts], tz**d)


def _cell_sum(
    triangulations: Iterable[tuple[list[tuple[int, ...]], int]],
    rows: Sequence[Sequence[int]],
    dens: Sequence[int],
    scale: int,
) -> Fraction:
    """The sum of ``w * |det(rows[i] for i in cell)| / (prod dens[i] * scale * d!)`` over the cells of each (cells, w).

    The rows have length d.  A cell lists d ids, or d + 1 with the origin,
    a zero row of denominator 1, last: its determinant is that of its first
    d rows, one fraction-free elimination (``ratlin._bareiss``).  The
    weighted ints are summed per ``prod dens[i]`` and divided once, over
    their lcm.
    """
    d = len(rows[0])
    by_den: dict[int, int] = {}  # prod dens[i] over a cell -> weighted sum of |det|
    for cells, w in triangulations:
        for cell in cells:
            a = [list(rows[i]) for i in cell]
            q = math.prod([dens[i] for i in cell])
            by_den[q] = by_den.get(q, 0) + w * abs(_bareiss(a, d) * a[d - 1][d - 1])
    lcm = math.lcm(*by_den)
    return Fraction(sum(n * (lcm // q) for q, n in by_den.items()), lcm * scale * math.factorial(d))


def _orthant_section_volumes(reps: Sequence[Row]) -> list[Fraction]:
    """``|K cap e_j-perp|`` for each j, K the unconditional body of the closed-orthant rows ``reps``, n >= 2.

    One DD run (``dd.orthant_cone``) gives the vertices of the piece
    ``K cap R+^n`` with the origin as vertex 0, and the coordinate facets
    of the piece are triangulated from it (module docstring).
    """
    rays, flags, tight = dd.orthant_cone(reps)
    n = len(reps[0][0])
    facets = set(compress(tight, flags))  # repeated rows merged: DD flags every copy
    dens = [r[-1] for r in rays]
    weight = 1 << (n - 1)  # the orthants of e_j-perp
    memo: dict[int, list[tuple[int, ...]]] = {}
    out = []
    for j, on in enumerate(tight[len(reps) :]):  # the vertices on the row x_j >= 0
        rows = [r[:j] + r[j + 1 : -1] for r in rays]
        cells = _pull_triangulation(on, n - 1, facets, memo)  # each ends at vertex 0, the origin
        out.append(_cell_sum([(cells, weight)], rows, dens, 1))
    return out


# ---------------------------------------------------------------------------
# distances


def _min_norm_sq(pts: list[tuple[int, ...]], cap: Fraction) -> Fraction:
    """The squared norm of the point of least norm in conv(pts), by Wolfe's algorithm, capped at ``cap``.

    The cap contract: when the exact value exceeds ``cap`` the answer is the
    exact value; otherwise it is some |y|^2 with exact <= |y|^2 <= cap.
    Every iterate y lies in conv(pts), so |y|^2 bounds the exact value from
    above, and the run stops at the top of the first major step with
    |y|^2 <= cap, the first one tested against the nearest point, before any
    Gram solve.  A zero cap gives the exact value whenever it is positive.

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
        yy = sum(map(mul, y_row, y_row))
        if yy * cap.denominator <= cap.numerator * s * s:
            return Fraction(yy, s * s)
        q = min(pts, key=lambda w: sum(map(mul, y_row, w)))
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
    return _row_distance_sq(p, *_point_row(p, x), Fraction(0))


def _row_distance_sq(p: Polytope, x_row: tuple[int, ...], dx: int, cap: Fraction) -> Fraction:
    """``point_distance_sq`` of the point already cleared to ``(X, dx)``, capped as ``_min_norm_sq`` is."""
    if _row_membership(p, x_row, dx) != "outside":
        return Fraction(0)
    rows = p.vertex_rows
    scale = math.lcm(dx, *(t for _, t in rows))  # L: every vertex and x are integer on 1/L
    sx = scale // dx
    pts = [tuple(a * (scale // t) - b * sx for a, b in zip(row, x_row)) for row, t in rows]
    return _min_norm_sq(pts, cap * scale**2) / scale**2


def _orbit_weights(rows: Sequence[Row], symmetry: int) -> list[int]:
    """Per row (v, _): the size of v's orbit under the reflections of class ``symmetry`` if v stands for it, else 0.

    Class 2: v with no negative coordinate stands for its 2^(nonzero count)
    sign flips.  Class 1: v != 0 with its first nonzero coordinate positive,
    that is v > 0 lexicographically, stands for {v, -v}.  Class 0: every v
    stands for itself.
    """
    if symmetry == 2:
        return [1 << (len(v) - v.count(0)) if min(v) >= 0 else 0 for v, _ in rows]
    if symmetry == 1:
        zero = (0,) * len(rows[0][0])
        return [2 if v > zero else 0 for v, _ in rows]
    return [1] * len(rows)


def hausdorff_distance_sq(p: Polytope, q: Polytope) -> Fraction:
    """Exact squared Hausdorff distance between two polytopes.

    Scans one vertex per orbit of the reflections that fix both bodies, each
    run capped at the largest distance so far (see the module docstring);
    the maximum is the same as over every vertex.
    """
    if p.dim != q.dim:
        raise DimensionError("polytopes live in different dimensions")
    if p == q:
        return Fraction(0)
    symmetry = min(p._symmetry, q._symmetry)
    best = Fraction(0)
    for body, other in ((p, q), (q, p)):
        for v, t in compress(body.vertex_rows, _orbit_weights(body.vertex_rows, symmetry)):
            best = max(best, _row_distance_sq(other, v, t, best))
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

