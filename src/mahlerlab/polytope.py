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

Volume uses a pulling triangulation: cone from the first vertex over the
recursively triangulated facets that miss it.  The subfaces of a face are its
maximal proper intersections with facet vertex sets (bitmasks, no rank
work), shared across the recursion through a memo, so the triangulation
stays near linear in the number of faces actually touched.  It runs on one
integer scale: the vertices are multiplied once by their common denominator
D, a facet cleared to an integer row ``<A, x> <= B`` holds a scaled vertex V
exactly when ``<A, V> == B*D``, and the simplices' ``int_det`` values are
summed as one Python int and divided once, by ``D^d * d!``.  The distance
from a point to a polytope is the norm of the min-norm point of the
translated vertices, found exactly by Wolfe's algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
    common_denominator,
    dot,
    fr,
    int_det,
    parse_fraction,
    primitive_int_vec,
    solve_linear,
    unit_vec,
    vec,
    vsub,
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
    den = common_denominator(normal)
    prim = primitive_int_vec(tuple(int(x * den) for x in normal))
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
    """conv(+-e_i), the unit l1 ball, built directly."""
    verts = [e for i in range(n) for e in sign_orbit(unit_vec(n, i))]
    return _make(n, verts, [(s, Fraction(1)) for s in sign_orbit((Fraction(1),) * n)])


def interval(radius: Fraction | int = 1) -> Polytope:
    r = fr(radius)
    if r <= 0:
        raise PreconditionError("interval radius must be positive")
    return _make(1, [(-r,), (r,)], [((Fraction(1),), r), ((Fraction(-1),), r)])


# ---------------------------------------------------------------------------
# pointwise queries


def membership(p: Polytope, x: Sequence[Fraction | int]) -> str:
    """'interior', 'boundary' or 'outside', decided exactly."""
    v = vec(x)
    if len(v) != p.dim:
        raise DimensionError(f"point has dimension {len(v)}, polytope {p.dim}")
    on_boundary = False
    for a, b in p.facets:
        s = dot(a, v)
        if s > b:
            return "outside"
        if s == b:
            on_boundary = True
    return "boundary" if on_boundary else "interior"


def contains_origin_interior(p: Polytope) -> bool:
    return all(b == 1 for _, b in p.facets)


def gauge(p: Polytope, x: Sequence[Fraction | int]) -> Fraction:
    """Minkowski gauge: least t >= 0 with x in t*p.  Needs 0 interior."""
    if not contains_origin_interior(p):
        raise PreconditionError("gauge needs the origin in the interior")
    v = vec(x)
    if len(v) != p.dim:
        raise DimensionError(f"point has dimension {len(v)}, polytope {p.dim}")
    g = max(dot(a, v) for a, _ in p.facets)
    return g if g > 0 else Fraction(0)


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
    vset = set(p.vertices)
    for v in p.vertices:
        for i in range(p.dim):
            w = v[:i] + (-v[i],) + v[i + 1 :]
            if w not in vset:
                return False
    return True


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
    stability code.
    """
    if not is_unconditional(p):
        raise PreconditionError("normalization is defined for unconditional polytopes")
    gs = [gauge(p, unit_vec(p.dim, i)) for i in range(p.dim)]
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


def _pull_triangulation(s: int, facet_masks: list[int], memo: dict[int, list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """Simplices (as vertex-id tuples) of the pulling triangulation of face s.

    Children of a face are the maximal proper intersections with facet vertex
    sets: every intersection is a face, all codimension-1 subfaces occur, and
    anything lower-dimensional is swallowed by one of them, so maximality
    alone identifies the codimension-1 children with no rank computations.
    """
    got = memo.get(s)
    if got is not None:
        return got
    if s & (s - 1) == 0:
        out = [(s.bit_length() - 1,)]
        memo[s] = out
        return out
    apex = (s & -s).bit_length() - 1
    cands: set[int] = set()
    for f in facet_masks:
        c = s & f
        if c and c != s:
            cands.add(c)
    out = []
    for c in cands:
        if any(c != o and c & o == c for o in cands):
            continue  # not maximal, hence lower-dimensional
        if c >> apex & 1:
            continue
        for t in _pull_triangulation(c, facet_masks, memo):
            out.append(t + (apex,))
    memo[s] = out
    return out


@lru_cache(maxsize=4096)
def volume(p: Polytope) -> Fraction:
    """Exact volume by a pulling triangulation, summed on one integer scale."""
    d = p.dim
    den = common_denominator(x for v in p.vertices for x in v)
    verts = [tuple(x.numerator * (den // x.denominator) for x in v) for v in p.vertices]
    facet_masks = []
    for a, b in p.facets:
        da = common_denominator(a)
        row = [x.numerator * (da // x.denominator) for x in a]
        rhs = int(b) * da * den  # <a, v> == b  iff  <row, den * v> == rhs
        facet_masks.append(sum(1 << i for i, v in enumerate(verts) if sum(map(mul, row, v)) == rhs))
    apex = verts[0]
    edges = [tuple(x - y for x, y in zip(v, apex)) for v in verts]
    total = 0
    for t in _pull_triangulation((1 << len(verts)) - 1, facet_masks, {}):
        total += abs(int_det([edges[i] for i in t[:-1]]))  # t ends with the apex, vertex 0
    return Fraction(total, den**d * math.factorial(d))


# ---------------------------------------------------------------------------
# distances


def _min_norm_point(pts: list[Vec]) -> Vec:
    """The point of least norm in conv(pts), by Wolfe's algorithm.

    The corral, affinely independent points holding y with positive weights,
    starts as the first point of least norm.  Each major step adds the first
    minimiser q of <y, q>, or stops when <y, q> >= <y, y>, which certifies y
    optimal.  Minor steps move y towards the affine minimiser of the corral
    while the weights stay nonnegative, dropping the points whose weight
    reaches zero.  The norm falls strictly, so no corral repeats (P. Wolfe,
    Finding the nearest point in a polytope, Math. Programming 11, 1976).
    """
    corral = [min(pts, key=lambda w: dot(w, w))]
    lam = [Fraction(1)]
    y = corral[0]
    while True:
        q = min(pts, key=lambda w: dot(y, w))
        if dot(y, q) >= dot(y, y):
            return y
        corral.append(q)
        lam.append(Fraction(0))
        while True:
            # affine minimiser: the Gram system of the lifted points (w, 1)
            gram = tuple(tuple(dot(u, w) + 1 for w in corral) for u in corral)
            z = solve_linear(gram, (Fraction(1),) * len(corral))
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


def point_distance_sq(p: Polytope, x: Sequence[Fraction | int]) -> Fraction:
    """Exact squared Euclidean distance from x to the polytope."""
    v = vec(x)
    if membership(p, v) != "outside":
        return Fraction(0)
    y = _min_norm_point([vsub(w, v) for w in p.vertices])
    return dot(y, y)


def hausdorff_distance_sq(p: Polytope, q: Polytope) -> Fraction:
    """Exact squared Hausdorff distance between two polytopes."""
    if p.dim != q.dim:
        raise DimensionError("polytopes live in different dimensions")
    if p == q:
        return Fraction(0)
    best = Fraction(0)
    for v in p.vertices:
        best = max(best, point_distance_sq(q, v))
    for w in q.vertices:
        best = max(best, point_distance_sq(p, w))
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
        dim = int(data["dim"])
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

