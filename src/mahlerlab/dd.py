"""Exact double-description engine for pointed polyhedral cones.

Everything here runs on plain Python integers.  The one algorithm is the
classic incremental double description method: maintain the extreme rays of
``{x : <row, x> <= 0}`` while inserting the rows one at a time, creating new
rays only from adjacent (inside, outside) pairs.  Adjacency uses the
Fukuda-Prodon combinatorial test on exact tight-row bitmasks, which is valid
because the cone stays pointed throughout.

Both directions of the polytope conversion reduce to this cone computation by
homogenization:

* vertices of ``{y : Ay <= b}``  <-  rays of ``{(y,t) : Ay - tb <= 0, -t <= 0}``
* facets ``<a, x> <= s`` of ``conv(points)``  <-  rays (a, s) of
  ``{(a,s) : <p, a> - s <= 0 for every point p}``, a cone that is pointed
  exactly when the points are full-dimensional.

A ray that survives with homogenizing coordinate t == 0 is a recession
direction, which is exactly how unbounded input announces itself.  An input
row supports a facet of the cone iff its set of tight rays is maximal among
the proper ones, read off the same bitmasks with no rank computation; in the
hull direction these rows are exactly the points that are vertices.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import DimensionError, UnboundedError
from .ratlin import Vec, independent_rows, int_row, int_solve, primitive_int_vec

IntVec = tuple[int, ...]


def extreme_rays(rows: Sequence[IntVec]) -> tuple[list[IntVec], list[int]]:
    """Extreme rays of the pointed cone ``{x : <row, x> <= 0 for every row}``.

    Returns (rays, tight) where ``tight[k]`` is a bitmask over row indices
    marking the rows satisfied with equality by ray k.  Rays are primitive
    integer vectors.  Raises DimensionError when the rows do not have full
    rank (the cone then contains a line and has no extreme rays).
    """
    if not rows:
        raise DimensionError("no rows")
    d = len(rows[0])

    # The initial simplicial subcone is cut out by the first d independent
    # rows (ratlin.independent_rows).  Its ray r_j solves B r_j = -e_j:
    # int_solve returns (u, det) with B u = det * (-e_j), so r_j = u / det,
    # and only the sign of det matters once the ray is made primitive.  Ray
    # j is then tight on every basis row but row j, with no dot product.
    basis = independent_rows(rows)
    if len(basis) < d:
        raise DimensionError("cone is not pointed (rows are rank deficient)")
    basis_rows = [rows[i] for i in basis]
    basis_mask = sum(1 << i for i in basis)
    rays: list[IntVec] = []
    for j in range(d):
        u, det = int_solve(basis_rows, [-int(i == j) for i in range(d)])
        rays.append(primitive_int_vec(u if det > 0 else [-x for x in u]))
    tight = [basis_mask ^ (1 << i) for i in basis]

    thresh = d - 2
    for i, row in enumerate(rows):
        if basis_mask >> i & 1:
            continue
        scores = [sum(map(mul, row, r)) for r in rays]
        keep_rays: list[IntVec] = []
        keep_tight: list[int] = []
        ins: list[int] = []
        outs: list[int] = []
        bit = 1 << i
        for k, s in enumerate(scores):
            if s < 0:
                ins.append(k)
                keep_rays.append(rays[k])
                keep_tight.append(tight[k])
            elif s == 0:
                keep_rays.append(rays[k])
                keep_tight.append(tight[k] | bit)
            else:
                outs.append(k)

        new_rays: list[IntVec] = []
        new_tight: list[int] = []
        for ku in ins:
            tu = tight[ku]
            su = scores[ku]
            ru = rays[ku]
            for kw in outs:
                common = tu & tight[kw]
                if common.bit_count() < thresh:
                    continue
                # adjacency: no third ray is tight on everything u and w share
                adjacent = True
                for k3 in range(len(rays)):
                    if k3 == ku or k3 == kw:
                        continue
                    if common & tight[k3] == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                sw = scores[kw]
                rw = rays[kw]
                new = tuple(sw * a - su * b for a, b in zip(ru, rw))
                new_rays.append(primitive_int_vec(new))
                new_tight.append(common | bit)

        rays = keep_rays + new_rays
        tight = keep_tight + new_tight
        if not rays:
            raise DimensionError("cone collapsed to the origin")

    return rays, tight


def _convert(rows: Sequence[IntVec]) -> tuple[list[IntVec], list[bool]]:
    """Extreme rays of ``{x : <row, x> <= 0}`` and a facet flag per input row.

    Rows are primitive-reduced and merged before the cone run.  A row supports
    a facet iff its set of tight rays is maximal among the proper sets: every
    face lies in a facet, and distinct facets have incomparable ray sets.  The
    zero row is tight on every ray and is neither a facet nor a witness
    against one; any other row tight on every ray means the cone is flat.
    """
    index: dict[IntVec, int] = {}
    mapping = [index.setdefault(primitive_int_vec(r), len(index)) for r in rows]
    uniq = list(index)
    rays, tight = extreme_rays(uniq)

    sets = [0] * len(uniq)
    for k, m in enumerate(tight):
        while m:
            low = m & -m
            sets[low.bit_length() - 1] |= 1 << k
            m ^= low
    full = (1 << len(rays)) - 1
    if any(s == full and any(r) for s, r in zip(sets, uniq)):
        raise DimensionError("cone is not full-dimensional")
    maximal = maximal_sets({s for s in sets if s != full})
    return rays, [sets[k] in maximal for k in mapping]


def maximal_sets(sets: set[int]) -> set[int]:
    """The bitmasks in ``sets`` that no other one contains.

    This is the one face rule (Fukuda-Prodon): the facets of a face are the
    maximal proper sets among its tight sets.
    """
    return {s for s in sets if not any(s != o and s & o == s for o in sets)}


def polyhedron_vertices(
    ineqs: Sequence[tuple[Vec, Fraction]], dim: int
) -> tuple[list[Vec], list[bool]]:
    """Vertices of ``{y : <a,y> <= b}`` for the given (a, b) inequalities.

    Returns (vertices, facet_flag per inequality).  Raises UnboundedError if
    a recession direction survives and DimensionError when the feasible set
    is empty or not full-dimensional.
    """
    rows = [int_row((*a, -b))[0] for a, b in ineqs]
    rows.append((0,) * dim + (-1,))  # t >= 0
    rays, flags = _convert(rows)

    verts: list[Vec] = []
    for r in rays:
        t = r[-1]
        if t == 0:
            raise UnboundedError("halfspace intersection is unbounded")
        verts.append(tuple(Fraction(c, t) for c in r[:-1]))
    return verts, flags[:-1]


def hull_facets(points: Sequence[Vec]) -> tuple[list[tuple[Vec, Fraction]], list[bool]]:
    """Facets of ``conv(points)`` plus a flag per point marking the vertices.

    Each facet ``<a, x> <= s`` is an extreme ray (a, s) of the cone of valid
    inequalities ``{(a, s) : <p, a> <= s for every point p}``.  A point is a
    vertex exactly when its constraint supports a facet of that cone.
    """
    rows = [row + (-den,) for row, den in map(int_row, points)]
    try:
        rays, flags = _convert(rows)
    except DimensionError:
        raise DimensionError("point set is not full-dimensional") from None
    facets = [(tuple(Fraction(x) for x in r[:-1]), Fraction(r[-1])) for r in rays]
    return facets, flags
